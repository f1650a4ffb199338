//! Release-only cluster smokes: a saturating client in a debug build
//! measures unoptimised SHA-256, not the system. CI runs them with
//! `cargo test --release -p moonshot-node --test smoke -- --ignored --test-threads 1`.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use moonshot_ledger::LedgerOptions;
use moonshot_mempool::{make_tx, BATCH_TX_OVERHEAD};
use moonshot_node::{
    process_threads, ClientTarget, Cluster, ClusterReport, ClusterSpec, LoadSpec, NodeReport,
    ProtocolChoice, ShapeMatrix, TxClient, TxClientConfig,
};
use moonshot_types::time::SimDuration;
use moonshot_types::NodeId;

/// How long a smoke waits for a quorum-committed height before failing.
const DEADLINE: Duration = Duration::from_secs(180);

fn sum(report: &ClusterReport, name: &str) -> u64 {
    report.reports.iter().map(|r| r.metrics.counter(name)).sum()
}

/// Waits until a quorum of nodes has committed `target` blocks, failing
/// with the height reached if that takes longer than [`DEADLINE`].
fn wait_for_quorum_height(cluster: &Cluster, target: u64) {
    let deadline = Instant::now() + DEADLINE;
    loop {
        let height = cluster.quorum_committed_height();
        if height >= target {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "quorum-committed height {height} never reached {target} within {DEADLINE:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// p99 of an ascending sample vector, in ms (0 when empty).
fn p99_ms(sorted_us: &[u64]) -> f64 {
    sorted_us.get(sorted_us.len().saturating_sub(1) * 99 / 100).map_or(0.0, |&us| us as f64 / 1e3)
}

/// p50 of an ascending sample vector, in ms (0 when empty).
fn p50_ms(sorted_us: &[u64]) -> f64 {
    sorted_us.get(sorted_us.len().saturating_sub(1) / 2).map_or(0.0, |&us| us as f64 / 1e3)
}

/// Saturation with a starved voter on durable ledgers: one unthrottled
/// client, every `BatchPush` to node 3 dropped so only the fetch path can
/// resolve its refs, then a drain so exactly-once is an equality.
#[test]
#[ignore = "release-only: run with --release -- --ignored"]
fn saturated_cluster_with_starved_voter_stays_bounded_and_exactly_once() {
    let dir = std::env::temp_dir().join(format!("moonshot-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let client_cfg = TxClientConfig { client_id: 0, tx_bytes: 180, txs_per_sec: 0 };
    let framed = (client_cfg.tx_bytes + BATCH_TX_OVERHEAD) as u64;
    let mut spec = ClusterSpec::new(4, ProtocolChoice::Pipelined);
    spec.load = Some(LoadSpec::digest(1_800));
    spec.drop_push_to = Some(NodeId(3));
    spec.data_dir = Some(dir.clone());
    let mut cluster = Cluster::launch(spec).expect("launch");
    let client = TxClient::start(
        client_cfg,
        ClientTarget::InProcess(cluster.mempools().to_vec()),
        cluster.epoch(),
    );
    // Load on until a quorum of ledgers has passed its snapshot cadence,
    // so the WAL bound below is asserted over a compacted ledger however
    // fast this machine commits (saturated blocks are megabytes).
    wait_for_quorum_height(&cluster, LedgerOptions::default().snapshot_every + 16);
    // Generator off, then every node waits out what it accepted.
    client.stop();
    let drained = cluster.drain(Duration::from_secs(30));
    let report = cluster.stop();
    let _ = std::fs::remove_dir_all(&dir);

    let summary = report.check_invariants().expect("no safety violations");
    let committed = report.metrics().committed_blocks;
    assert!(committed >= 50, "only {committed} quorum-committed blocks (need 50)");
    assert!(
        summary.batches_available_checked > 0,
        "loaded run ran no committed-batch availability checks"
    );

    // The bufferbloat gate: delay-bounded admission must keep end-to-end
    // tx latency within 50× of consensus commit latency (floor 50 ms for
    // very fast clusters). Without it, saturation put tx p99 three orders
    // of magnitude above commit p99.
    let (tx_p99, commit_p99) =
        (p99_ms(&report.tx_latencies_us()), p99_ms(&report.commit_latencies_us()));
    let bound = (50.0 * commit_p99).max(50.0);
    assert!(
        tx_p99 > 0.0 && tx_p99 <= bound,
        "bufferbloat gate: tx p99 {tx_p99:.1}ms exceeds {bound:.1}ms \
         (max(50× commit p99 {commit_p99:.1}ms, 50ms)) under saturating load"
    );

    // After the drain the commit list holds exactly what the mempools
    // accepted. Counted from the longest list's refs — the trace rings and
    // batch stores only remember the end of a long run — with the one
    // generator sending one size.
    let in_list = |r: &NodeReport| -> u64 {
        let refs = r.commits.iter().filter_map(|c| c.block.payload().batch_refs());
        refs.flatten().map(|b| b.bytes / framed).sum()
    };
    let listed = report.reports.iter().map(in_list).max().unwrap_or(0);
    let accepted = sum(&report, "mempool.accepted");
    assert!(
        drained && listed == accepted && accepted > 0,
        "after the drain (completed: {drained}) the commit list holds {listed} \
         transactions, the mempools accepted {accepted}"
    );
    let dups = report.duplicate_committed_txs();
    assert_eq!(dups, 0, "{dups} transactions committed more than once");

    let (fetches, served) = (
        report.reports[3].metrics.counter("dissem.fetches"),
        sum(&report, "dissem.fetches_served"),
    );
    assert!(
        fetches > 0 && served > 0,
        "drop_push_to run shows no fetch traffic ({fetches} fetches at node 3, {served} served)"
    );
    assert_eq!(sum(&report, "dissem.digest_mismatches"), 0, "a batch frame failed validation");

    // Thousands of views of safety records must compact down to well under
    // 2 MB summed across all four nodes (an unbounded WAL is several MB).
    let (wal, compactions) =
        (sum(&report, "ledger.wal_bytes"), sum(&report, "ledger.wal_compactions"));
    assert!(compactions > 0 && wal < 2_000_000, "wal_bytes={wal} wal_compactions={compactions}");
}

/// A TCP flood beside a paced TCP client. Each node's shard loop admits
/// every `SubmitTx` frame it reads, on the thread that also reads the
/// node's consensus traffic, so here the flood costs the loops admission
/// work: the cluster must keep committing (both clients stay on until the
/// quorum-committed height reaches 50), commit the paced client's
/// transactions, drain, and commit exactly what the mempools accepted,
/// once. No latency bound on the paced client (the sealed-ahead FIFO owns
/// its tail); the numbers are printed for the record.
#[test]
#[ignore = "release-only: run with --release -- --ignored"]
fn tcp_flood_beside_a_paced_client_keeps_the_cluster_committing() {
    let flood_cfg = TxClientConfig { client_id: 0, tx_bytes: 180, txs_per_sec: 0 };
    let paced_cfg = TxClientConfig { client_id: 1, tx_bytes: 180, txs_per_sec: 500 };
    let framed = (flood_cfg.tx_bytes + BATCH_TX_OVERHEAD) as u64;
    let mut spec = ClusterSpec::new(4, ProtocolChoice::Pipelined);
    spec.load = Some(LoadSpec::digest(1_800));
    let mut cluster = Cluster::launch(spec).expect("launch");
    let addrs: Vec<SocketAddr> = cluster.peers().iter().map(|&(_, a)| a).collect();
    let flood = TxClient::start(flood_cfg, ClientTarget::Tcp(addrs.clone()), cluster.epoch());
    let paced = TxClient::start(paced_cfg, ClientTarget::Tcp(addrs), cluster.epoch());
    wait_for_quorum_height(&cluster, 50);
    let written = flood.stop().accepted + paced.stop().accepted;
    // Every frame written must be read and admitted before the pools can
    // be drained: the sockets may still hold the flood's tail.
    let read = |cluster: &Cluster| -> u64 {
        cluster.mempools().iter().map(|p| p.counters().submitted).sum()
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    while read(&cluster) < written && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let drained = read(&cluster) == written
        && cluster.drain(deadline.saturating_duration_since(Instant::now()));
    let report = cluster.stop();

    report.check_invariants().expect("no safety violations");
    let committed = report.metrics().committed_blocks;
    let commits = report.commit_latencies_us();
    let by_client = report.tx_latencies_by_client_us();
    let paced_lat = by_client.get(&1).map_or(&[][..], Vec::as_slice);
    let (accepted, refused) = (sum(&report, "mempool.accepted"), sum(&report, "mempool.rejected"));
    println!(
        "tcp flood: {committed} quorum-committed blocks, commit p50 {:.1} ms p99 {:.1} ms, \
         paced tx p50 {:.1} ms p99 {:.1} ms ({} txs), accepted {accepted}, refused {refused}",
        p50_ms(&commits),
        p99_ms(&commits),
        p50_ms(paced_lat),
        p99_ms(paced_lat),
        paced_lat.len(),
    );
    assert!(committed >= 50, "only {committed} quorum-committed blocks (need 50)");
    assert!(!paced_lat.is_empty(), "the paced client's transactions never committed");

    // The drain completed, and the commit list holds exactly what the
    // mempools accepted (one transaction size, as in the saturated smoke).
    let in_list = |r: &NodeReport| -> u64 {
        let refs = r.commits.iter().filter_map(|c| c.block.payload().batch_refs());
        refs.flatten().map(|b| b.bytes / framed).sum()
    };
    let listed = report.reports.iter().map(in_list).max().unwrap_or(0);
    assert!(
        drained && listed == accepted && accepted > 0,
        "after the drain (completed: {drained}) the commit list holds {listed} \
         transactions, the mempools accepted {accepted}"
    );
    let dups = report.duplicate_committed_txs();
    assert_eq!(dups, 0, "{dups} transactions committed more than once");
}

/// The event-driven core's reason to exist: 50 validators in one process,
/// every link shaped to Table II's one-way delays, real transactions at a
/// paced 2 500 tx/s (one per 20 ms per node) for at least 12 s and until
/// the quorum-committed height reaches 10, on a bounded thread budget.
/// Δ = 250 ms so protocol timeouts dominate the 30–160 ms link delays.
#[test]
#[ignore = "release-only: run with --release -- --ignored"]
fn fifty_node_shaped_cluster_commits_paced_load_on_bounded_threads() {
    const N: usize = 50;
    const RUN: Duration = Duration::from_secs(12);
    const HEIGHT: u64 = 10;
    let mut spec = ClusterSpec::new(N, ProtocolChoice::Pipelined);
    spec.delta = SimDuration::from_millis(250);
    spec.shape = Some(Arc::new(ShapeMatrix::table2(N)));
    spec.load = Some(LoadSpec::digest(18_000));
    let mut cluster = Cluster::launch(spec).expect("launch");

    let pools = cluster.mempools().to_vec();
    let start = Instant::now();
    let deadline = start + DEADLINE;
    let (mut seq, mut mid_threads) = (0u64, None);
    loop {
        let height = cluster.quorum_committed_height();
        if start.elapsed() >= RUN && height >= HEIGHT {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "quorum-committed height {height} never reached {HEIGHT} within {DEADLINE:?}"
        );
        let due = start.elapsed().as_micros() as u64 * 2_500 / 1_000_000;
        while seq < due {
            let stamp = cluster.epoch().elapsed().as_micros() as u64;
            pools[seq as usize % N]
                .submit_from(1, make_tx(stamp, 1, seq, 180))
                .expect("a paced transaction is admitted");
            seq += 1;
        }
        // Sampled while every node is live — after stop() the pool is gone
        // and the count proves nothing.
        if mid_threads.is_none() && start.elapsed() >= RUN / 2 {
            mid_threads = process_threads();
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let stats = cluster.netpool().stats();
    let secs = cluster.epoch().elapsed().as_secs_f64();
    let drained = cluster.drain(DEADLINE);
    let report = cluster.stop();

    report.check_invariants().expect("no safety violations");
    let committed = report.metrics().committed_blocks;
    assert!(committed >= 10, "only {committed} quorum-committed blocks (need 10)");

    // The shared pool's shard loops, which step, seal, verify and dial for
    // every node, and up to three for the test harness — no thread per
    // node; the old thread-per-connection transport would sit at ~2 500
    // threads here.
    let ceiling = (stats.shards + 3) as u64;
    let threads = mid_threads.expect("/proc/self/status is readable");
    assert!(
        threads <= ceiling,
        "{threads} live threads exceed ceiling {ceiling} (shards + 3 harness)"
    );

    // The shard loops sleep between deadlines (a loop polling through the
    // last millisecond before each shaped release makes millions).
    let per_shard_s = stats.loop_wakeups as f64 / stats.shards as f64 / secs;
    assert!(
        stats.loop_wakeups > 0 && per_shard_s <= 20_000.0,
        "{per_shard_s:.0} loop wake-ups per shard-second over {} shard(s) in {secs:.1}s",
        stats.shards
    );

    // Mean sigverify batch > 1: the stage actually amortises under load.
    let (calls, items) =
        (sum(&report, "crypto.batch_verify_calls"), sum(&report, "crypto.batch_verify_items"));
    assert!(calls > 0 && items > calls, "batch_verify: {items} signatures over {calls} calls");

    // A push-to-all of single-transaction batches is 49 frames per
    // transaction here: batches sealed on the block clock must hold several.
    // Both sides count the same transactions: after the drain every pushed
    // batch has committed, so the committed transactions are the pushed
    // ones (before it, the commits lag the pushes by as much as the host
    // is slow).
    let (pushed, txs) = (sum(&report, "dissem.batches_pushed"), report.txs_committed());
    assert!(
        drained && txs > 0 && pushed < txs,
        "dissem: {pushed} pushes for {txs} committed transactions (drain completed: {drained})"
    );
}
