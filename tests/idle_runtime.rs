//! The networked runtime's threads block until they have work.
//!
//! Counter-based, not latency-based: the test bounds how often the shared
//! pool's event loops wake, which no amount of machine noise can push up.
//! Before `Poller::wait` rounded its timeout up, each loop polled without
//! blocking through the last millisecond before every shaped-link release
//! deadline: 150 000 or more wake-ups per shard per second on this cluster
//! in a release build, 21 700 in a debug build on a loaded 2-core box. With
//! the loops asleep between deadlines the same run makes about 700.

use std::sync::Arc;
use std::time::{Duration, Instant};

use moonshot_mempool::make_tx;
use moonshot_node::{Cluster, ClusterSpec, LinkShape, LoadSpec, ProtocolChoice, ShapeMatrix};
use moonshot_types::time::SimDuration;

#[test]
fn shaped_cluster_under_paced_load_keeps_its_event_loops_asleep() {
    let link = LinkShape { delay: Duration::from_millis(20), rate_bps: 0, burst_bytes: 0 };
    let mut spec = ClusterSpec::new(4, ProtocolChoice::Pipelined);
    spec.delta = SimDuration::from_millis(100);
    spec.shape = Some(Arc::new(ShapeMatrix::uniform(4, link)));
    spec.load = Some(LoadSpec::digest(18_000).without_clients());
    let cluster = Cluster::launch(spec).expect("launch");

    let deadline = Instant::now() + Duration::from_secs(60);
    while cluster.quorum_committed_height() < 3 {
        assert!(Instant::now() < deadline, "shaped cluster never committed");
        std::thread::sleep(Duration::from_millis(20));
    }

    // 200 tx/s round-robin over the nodes for two seconds.
    let pools = cluster.mempools();
    let height = cluster.quorum_committed_height();
    let before = cluster.netpool().stats();
    let start = Instant::now();
    let mut seq = 0u64;
    while start.elapsed() < Duration::from_secs(2) {
        let stamp = cluster.epoch().elapsed().as_micros() as u64;
        pools[seq as usize % pools.len()]
            .submit_from(1, make_tx(stamp, 1, seq, 180))
            .expect("a paced transaction is admitted");
        seq += 1;
        std::thread::sleep(Duration::from_millis(5));
    }
    let secs = start.elapsed().as_secs_f64();
    let after = cluster.netpool().stats();

    let frames = after.frames_processed - before.frames_processed;
    assert!(frames > 0, "no frame crossed the pool while it was measured");
    assert!(cluster.quorum_committed_height() > height, "no commit while measured");
    let wakeups = after.loop_wakeups - before.loop_wakeups;
    let per_shard_per_s = wakeups as f64 / after.shards as f64 / secs;
    assert!(
        per_shard_per_s < 10_000.0,
        "{per_shard_per_s:.0} wake-ups per shard per second for {frames} frames in {secs:.2} s"
    );

    let report = cluster.stop();
    report.check_invariants().expect("no safety violations");
    assert!(report.txs_committed() > 0, "the paced load never committed");
}
