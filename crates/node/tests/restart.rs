//! Kill-and-restart over real TCP: a node stopped mid-run and restarted
//! with a fresh state machine must resync the committed chain from its
//! peers (BlockFetcher over the wire) and rejoin consensus, with zero
//! safety violations in the merged trace.

use std::time::{Duration, Instant};

use moonshot_node::{Cluster, ClusterSpec, ProtocolChoice};
use moonshot_telemetry::TraceEvent;
use moonshot_types::NodeId;

/// Polls `f` every 50 ms until it returns true or `secs` elapse.
fn wait_for(secs: u64, mut f: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while Instant::now() < deadline {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    f()
}

/// A self-cleaning scratch directory for ledger state.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir()
            .join(format!("moonshot-restart-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn killed_node_restarts_and_resyncs_committed_chain() {
    let mut cluster = Cluster::launch(ClusterSpec::new(4, ProtocolChoice::Pipelined)).unwrap();
    let victim = NodeId(3);

    // Phase 1: healthy cluster commits a prefix.
    assert!(
        wait_for(20, || cluster.quorum_committed_height() >= 3),
        "healthy cluster never reached height 3"
    );

    // Phase 2: kill one node; the remaining 3 of 4 still form a quorum and
    // must keep committing while the victim is down.
    cluster.kill(victim);
    let height_at_kill = cluster.quorum_committed_height();
    assert!(
        wait_for(20, || cluster.quorum_committed_height() >= height_at_kill + 3),
        "3-of-4 cluster stalled after kill (stuck at {})",
        cluster.quorum_committed_height()
    );

    // Phase 3: restart with a fresh state machine on the same address. It
    // must fetch the chain it missed over TCP and catch up past the heights
    // committed while it was dead.
    let target = cluster.quorum_committed_height();
    cluster.restart(victim).unwrap();
    assert!(
        wait_for(30, || cluster.committed_heights()[victim.0 as usize] >= target),
        "restarted node only resynced to height {} (cluster was at {} when it rejoined)",
        cluster.committed_heights()[victim.0 as usize],
        target
    );

    let report = cluster.stop();

    // The merged trace spans both incarnations; the NodeRestarted marker
    // lets the checker reset the victim's baselines, and nothing any
    // incarnation committed may conflict.
    let summary = report.check_invariants().expect("no safety violations across restart");
    assert_eq!(summary.restarts, 1);
    assert!(summary.commits > 0);

    // Two incarnations of the victim → 5 reports for 4 nodes.
    assert_eq!(report.reports.len(), 5);

    // The restarted incarnation re-committed blocks first committed while
    // it was dead (resync, not just tail-following).
    let last_victim = report
        .reports
        .iter()
        .rev()
        .find(|r| r.node == victim)
        .expect("victim report present");
    assert!(
        last_victim.commits.iter().any(|c| c.block.height().0 <= height_at_kill + 3),
        "restarted node committed nothing from the range it missed"
    );
}

/// A restarted node is heard at once. Its peers' links to it broke at the
/// kill, and they redial on a backoff of 100 ms doubling to 5 s: after a
/// 3.2 s outage, their last attempt fell at 3.1 s and the next falls at
/// 6.3 s, 3.1 s after the restart. The restarted node dials every peer as
/// it starts; the hello on that dial is what makes each peer dial back now.
/// Until they do, nobody sends the node a block, so it must reach the
/// height the cluster had committed when it rejoined within 1 s.
#[test]
fn restarted_node_is_redialed_when_its_hello_arrives() {
    let mut cluster = Cluster::launch(ClusterSpec::new(4, ProtocolChoice::Pipelined)).unwrap();
    let victim = NodeId(3);
    assert!(
        wait_for(20, || cluster.committed_heights()[victim.0 as usize] >= 3),
        "victim never committed height 3"
    );
    cluster.kill(victim);
    std::thread::sleep(Duration::from_millis(3_200));

    let target = cluster.quorum_committed_height();
    cluster.restart(victim).unwrap();
    let restarted = Instant::now();
    while cluster.committed_heights()[victim.0 as usize] < target
        && restarted.elapsed() < Duration::from_secs(10)
    {
        std::thread::sleep(Duration::from_millis(2));
    }
    let took = restarted.elapsed();
    let reached = cluster.committed_heights()[victim.0 as usize];
    let report = cluster.stop();
    assert!(
        reached >= target && took <= Duration::from_secs(1),
        "restarted node reached height {reached} of {target} after {took:?}"
    );
    report.check_invariants().expect("no safety violations across restart");
}

/// The kill -9 cell: a node with a durable ledger is killed, its WAL gets
/// a torn final record (exactly what a crash mid-`write` leaves behind),
/// and the restarted incarnation must (a) truncate the torn tail rather
/// than die, (b) never vote in a view its previous incarnation already
/// voted or timed out in, and (c) refetch only the blocks committed while
/// it was down — the prefix comes off its own disk.
#[test]
fn killed_node_with_torn_wal_recovers_from_disk_without_revoting() {
    let tmp = TempDir::new("torn-wal");
    let mut spec = ClusterSpec::new(4, ProtocolChoice::Pipelined);
    spec.data_dir = Some(tmp.0.clone());
    let mut cluster = Cluster::launch(spec).unwrap();
    let victim = NodeId(3);

    // Phase 1: healthy cluster commits a prefix that reaches the victim's
    // own disk.
    assert!(
        wait_for(20, || cluster.committed_heights()[victim.0 as usize] >= 3),
        "victim never committed height 3"
    );
    let victim_height_at_kill = cluster.committed_heights()[victim.0 as usize];
    cluster.kill(victim);

    // Simulate the kill -9 landing mid-WAL-write: append a torn record —
    // a header promising a 64-byte body with only 3 bytes behind it.
    let wal_path = tmp.0.join("node-3").join("wal.log");
    let intact_len = std::fs::metadata(&wal_path).unwrap().len();
    assert!(intact_len > 0, "victim wrote no WAL records before the kill");
    {
        use std::io::Write;
        let mut wal =
            std::fs::OpenOptions::new().append(true).open(&wal_path).unwrap();
        let mut torn = Vec::new();
        torn.extend_from_slice(&64u32.to_le_bytes());
        torn.extend_from_slice(&0u32.to_le_bytes());
        torn.extend_from_slice(&[0xAB, 0xCD, 0xEF]);
        wal.write_all(&torn).unwrap();
        wal.sync_data().unwrap();
    }

    // Phase 2: the surviving quorum keeps committing while the victim is
    // down — this is the tail the victim will owe the network.
    let height_at_kill = cluster.quorum_committed_height();
    assert!(
        wait_for(20, || cluster.quorum_committed_height() >= height_at_kill + 3),
        "3-of-4 cluster stalled after kill"
    );

    // Phase 3: restart from the same data dir and catch up past everything
    // committed while it was dead.
    let target = cluster.quorum_committed_height();
    cluster.restart(victim).unwrap();
    assert!(
        wait_for(30, || cluster.committed_heights()[victim.0 as usize] >= target),
        "restarted node only reached height {} (cluster was at {target})",
        cluster.committed_heights()[victim.0 as usize],
    );

    let report = cluster.stop();

    // Recovery truncated the torn tail in place: the whole WAL — intact
    // prefix plus everything the restarted incarnation appended — decodes
    // cleanly. Had the garbage survived, decoding would fail exactly at
    // the old end-of-file.
    let wal_bytes = std::fs::read(&wal_path).unwrap();
    assert!(wal_bytes.len() as u64 > intact_len, "restarted node appended no WAL records");
    let mut offset = 0usize;
    while offset < wal_bytes.len() {
        let (_, consumed) = moonshot_wire::decode_record(&wal_bytes[offset..])
            .unwrap_or_else(|e| panic!("WAL undecodable at byte {offset}: {e:?}"));
        offset += consumed;
    }
    let summary = report.check_invariants().expect("no safety violations across restart");
    assert_eq!(summary.restarts, 1);

    // (a) The restarted incarnation's ledger metrics prove the recovery
    // path ran: the torn tail was measured and dropped, the intact prefix
    // replayed, and new safety records were fsync'd after the restart.
    let last_victim =
        report.reports.iter().rev().find(|r| r.node == victim).expect("victim report");
    assert!(
        last_victim.metrics.counter("ledger.truncated_tail_bytes") >= 11,
        "recovery did not account the injected torn tail"
    );
    assert!(last_victim.metrics.counter("ledger.replayed_records") > 0);
    assert!(last_victim.metrics.counter("ledger.wal_records") > 0);

    // (b) No double vote across incarnations: every view the victim voted
    // in after the restart is strictly above every view it voted (or could
    // have voted) in before — the WAL floor, not luck.
    let restart_at = report
        .records
        .iter()
        .find(|r| matches!(r.event, TraceEvent::NodeRestarted { node } if node == victim))
        .expect("NodeRestarted record")
        .at;
    let victim_votes = |before: bool| {
        report
            .records
            .iter()
            .filter(|r| if before { r.at < restart_at } else { r.at >= restart_at })
            .filter_map(|r| match r.event {
                TraceEvent::VoteCast { node, view, .. } if node == victim => Some(view),
                _ => None,
            })
            .collect::<Vec<_>>()
    };
    let before = victim_votes(true);
    let after = victim_votes(false);
    assert!(!before.is_empty(), "victim cast no votes before the kill");
    let max_before = before.iter().copied().max().unwrap();
    if let Some(min_after) = after.iter().copied().min() {
        assert!(
            min_after > max_before,
            "restarted incarnation re-voted: voted view {} before the kill, \
             view {} after the restart",
            max_before.0,
            min_after.0
        );
    }

    // (c) Tail-only catch-up: the node recovered its pre-kill chain from
    // disk and owed the network only what was committed while it was down.
    let stat = report.restarts.first().expect("restart accounting");
    assert_eq!(stat.node, victim);
    assert!(
        stat.recovered_height >= victim_height_at_kill,
        "disk recovery lost committed blocks: had {victim_height_at_kill}, \
         recovered {}",
        stat.recovered_height
    );
    assert!(
        stat.resync_blocks <= stat.cluster_height - victim_height_at_kill,
        "resync {} exceeds the {} blocks committed while the node was down",
        stat.resync_blocks,
        stat.cluster_height - victim_height_at_kill
    );
    assert!(
        stat.resync_blocks < stat.cluster_height,
        "node resynced the full chain despite a populated blockstore"
    );

    // Disk-first catch-up means the set of blocks fetched over the network
    // after the restart is bounded by the tail, not the chain: the
    // recovered prefix never hits the wire. (Raw request *messages* can
    // exceed the block count — the fetcher re-asks on timeout — so the
    // distinct block ids are what the bound holds for.)
    let fetched_blocks: std::collections::HashSet<_> = report
        .records
        .iter()
        .filter(|r| r.at >= restart_at)
        .filter_map(|r| match r.event {
            TraceEvent::SyncRequested { node, block } if node == victim => Some(block),
            _ => None,
        })
        .collect();
    let final_height = report.metrics().committed_blocks;
    let tail = final_height.saturating_sub(stat.recovered_height);
    assert!(
        (fetched_blocks.len() as u64) <= tail + 4,
        "victim fetched {} distinct blocks over the network for a {tail}-block tail",
        fetched_blocks.len()
    );
}

#[test]
fn node_report_surfaces_transport_metrics() {
    let cluster = Cluster::launch(ClusterSpec::new(4, ProtocolChoice::Simple)).unwrap();
    assert!(
        wait_for(20, || cluster.quorum_committed_height() >= 2),
        "cluster never committed"
    );
    let report = cluster.stop();
    for node_report in &report.reports {
        let json = node_report.summary_json();
        // Driver counters and per-peer + aggregate transport counters all
        // ride in the one summary object.
        for key in [
            "driver.messages_handled",
            "driver.timers_fired",
            "driver.commits",
            "net.total.bytes_out",
            "net.total.bytes_in",
            "net.total.frames_out",
            "net.total.reconnects",
            "net.total.dropped_frames",
        ] {
            assert!(json.contains(key), "summary for node {} missing {key}: {json}", node_report.node);
        }
        // Per-peer counters exist for some peer other than ourselves.
        let peers = (0..4)
            .filter(|i| NodeId(*i) != node_report.node)
            .filter(|i| json.contains(&format!("net.peer{i}.bytes_out")))
            .count();
        assert!(peers > 0, "no per-peer metrics in summary for node {}", node_report.node);
    }
}
