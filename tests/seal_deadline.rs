//! Batches are sealed on the block clock: an under-full batch stays open for
//! a quarter of the block period its node measured, so a paced stream leaves
//! in batches of several transactions instead of one frame per transaction
//! and peer.
//!
//! Counter-based, not latency-based: the test counts batches pushed against
//! transactions accepted, refusals, commits and failed views.

use std::sync::Arc;
use std::time::{Duration, Instant};

use moonshot_mempool::make_tx;
use moonshot_node::{Cluster, ClusterSpec, LinkShape, LoadSpec, ProtocolChoice, ShapeMatrix};
use moonshot_types::time::SimDuration;

const N: usize = 4;
const RATE: u64 = 2_000;
const TXS: u64 = 3_000;

#[test]
fn paced_load_leaves_in_batches_of_several_transactions() {
    let link = LinkShape { delay: Duration::from_millis(20), rate_bps: 0, burst_bytes: 0 };
    let mut spec = ClusterSpec::new(N, ProtocolChoice::Pipelined);
    spec.delta = SimDuration::from_millis(100);
    spec.shape = Some(Arc::new(ShapeMatrix::uniform(N, link)));
    // Default admission: the delay target is live, and must refuse nothing.
    spec.load = Some(LoadSpec::digest(18_000).without_clients());
    let mut cluster = Cluster::launch(spec).expect("launch");

    // Every node has measured its block period (≈ 24 ms in a debug build:
    // one 20 ms hop and the processing), so batches stay open ≈ 6 ms.
    let deadline = Instant::now() + Duration::from_secs(60);
    let pools = cluster.mempools().to_vec();
    while cluster.quorum_committed_height() < 16
        || pools.iter().any(|p| p.block_period_ewma_us() == 0)
    {
        assert!(Instant::now() < deadline, "shaped cluster never committed");
        std::thread::sleep(Duration::from_millis(20));
    }

    // 2 000 tx/s round-robin, each transaction sent when it is due: every
    // node admits one transaction per 2 ms, three or four per open batch.
    // (At 400 tx/s a node would admit one per 10 ms, fewer than one per
    // open batch: nothing to batch on a 20 ms chain.)
    let started_us = cluster.epoch().elapsed().as_micros() as u64;
    let start = Instant::now();
    let mut seq = 0u64;
    while seq < TXS {
        let due = (start.elapsed().as_micros() as u64 * RATE / 1_000_000).min(TXS);
        while seq < due {
            let stamp = cluster.epoch().elapsed().as_micros() as u64;
            pools[seq as usize % N]
                .submit_from(1, make_tx(stamp, 1, seq, 180))
                .expect("a paced transaction is admitted");
            seq += 1;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(cluster.drain(Duration::from_secs(60)), "accepted transactions never committed");
    let report = cluster.stop();
    report.check_invariants().expect("no safety violations");

    let sum = |name: &str| report.reports.iter().map(|r| r.metrics.counter(name)).sum::<u64>();
    assert_eq!(sum("mempool.accepted"), TXS);
    assert_eq!(sum("mempool.rejected"), 0, "a lingering pool refused a transaction");
    assert_eq!(report.txs_committed(), TXS, "an accepted transaction never committed");
    assert_eq!(report.duplicate_committed_txs(), 0, "a transaction committed twice");
    let tcs = report
        .records
        .iter()
        .filter(|r| r.at.0 >= started_us && r.event.kind() == "tc-formed")
        .count();
    assert_eq!(tcs, 0, "a view failed in a fault-free run");

    // One batch per transaction (3 000 pushes) is what a fixed 200 µs
    // window makes of this load.
    let pushed = sum("dissem.batches_pushed");
    assert!(2 * pushed <= TXS, "{pushed} batches pushed for {TXS} transactions");
}
