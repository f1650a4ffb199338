//! The shared proposable pool on the networked runtime: whoever leads
//! proposes every batch it holds that no block has carried yet, and a batch
//! in a failed proposal goes back to the pool.
//!
//! Counter-based, not latency-based: the tests count who proposed what, what
//! committed how often, and how many refs the pools took back.

use std::sync::Arc;
use std::time::{Duration, Instant};

use moonshot_mempool::make_tx;
use moonshot_node::{
    Cluster, ClusterReport, ClusterSpec, LinkShape, LoadSpec, ProtocolChoice, ShapeMatrix,
};
use moonshot_types::time::SimDuration;
use moonshot_types::NodeId;

const N: usize = 4;

fn link(ms: u64) -> LinkShape {
    LinkShape { delay: Duration::from_millis(ms), rate_bps: 0, burst_bytes: 0 }
}

fn launch(protocol: ProtocolChoice, delta_ms: u64, shape: ShapeMatrix) -> Cluster {
    let mut spec = ClusterSpec::new(N, protocol);
    spec.delta = SimDuration::from_millis(delta_ms);
    spec.shape = Some(Arc::new(shape));
    let mut load = LoadSpec::digest(18_000).without_clients();
    // These tests count what commits, not what is admitted: a cluster made
    // to fail views must not refuse the load for draining slowly.
    load.mempool.delay_target_multiple = 0;
    spec.load = Some(load);
    let cluster = Cluster::launch(spec).expect("launch");
    let deadline = Instant::now() + Duration::from_secs(60);
    while cluster.quorum_committed_height() < 3 {
        assert!(Instant::now() < deadline, "shaped cluster never committed");
        std::thread::sleep(Duration::from_millis(20));
    }
    cluster
}

/// Submits transactions `seqs`, one every `gap`, to the nodes `to` in turn.
fn submit(cluster: &Cluster, seqs: std::ops::Range<u64>, gap: Duration, to: &[usize]) {
    for seq in seqs {
        let stamp = cluster.epoch().elapsed().as_micros() as u64;
        cluster.mempools()[to[seq as usize % to.len()]]
            .submit_from(1, make_tx(stamp, 1, seq, 180))
            .expect("a paced transaction is admitted");
        std::thread::sleep(gap);
    }
}

/// Waits until every node has seen every batch it sealed commit, and the
/// quorum has had two more blocks to catch up with the fastest.
fn drain(cluster: &mut Cluster) {
    assert!(cluster.drain(Duration::from_secs(60)), "accepted transactions never committed");
    let deadline = Instant::now() + Duration::from_secs(30);
    let height = cluster.quorum_committed_height();
    while cluster.quorum_committed_height() < height + 2 {
        assert!(Instant::now() < deadline, "the chain stopped");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// `count` transactions at node 0 only, then the drain. Returns the load's
/// start time in µs since the cluster epoch.
fn load_node_0(cluster: &mut Cluster, count: u64, gap: Duration) -> u64 {
    let started_us = cluster.epoch().elapsed().as_micros() as u64;
    submit(cluster, 0..count, gap, &[0]);
    drain(cluster);
    started_us
}

fn sum_counter(report: &ClusterReport, name: &str) -> u64 {
    report.reports.iter().map(|r| r.metrics.counter(name)).sum()
}

/// Views that failed (a timeout certificate formed) since `since_us`.
fn tcs_formed(report: &ClusterReport, since_us: u64) -> usize {
    report.records.iter().filter(|r| r.at.0 >= since_us && r.event.kind() == "tc-formed").count()
}

/// All the load enters at node 0, which leads one view in four. The other
/// three leaders must propose its batches as they hold them — before this
/// pool existed a batch waited for its own sealer's next turn — every
/// transaction must commit exactly once although four nodes now offer the
/// same batches, and nothing of it may cost a vote or a view: on uniform
/// links a push always reaches a voter before the proposal that names it.
#[test]
fn every_leader_proposes_the_batches_of_the_one_loaded_node() {
    let mut cluster = launch(ProtocolChoice::Pipelined, 200, ShapeMatrix::uniform(N, link(20)));
    let accepted = 400;
    let started_us = load_node_0(&mut cluster, accepted, Duration::from_millis(5));
    let report = cluster.stop();
    report.check_invariants().expect("no safety violations");

    assert_eq!(report.duplicate_committed_txs(), 0, "a transaction committed twice");
    assert_eq!(report.txs_committed(), accepted, "an accepted transaction never committed");

    // Who carried node 0's batches, from the longest commit list.
    let commits = &report.reports.iter().max_by_key(|r| r.commits.len()).unwrap().commits;
    let carriers: Vec<NodeId> = commits
        .iter()
        .filter(|c| c.block.payload().batch_refs().is_some_and(|refs| !refs.is_empty()))
        .map(|c| c.block.proposer())
        .collect();
    let foreign = carriers.iter().filter(|p| **p != NodeId(0)).count();
    assert!(
        2 * foreign > carriers.len(),
        "{foreign} of {} carrying blocks were proposed by nodes 1–3",
        carriers.len()
    );
    // (Not all three: the leader right after node 0 hears of a batch one
    // hop after node 0 itself proposed it, and finds nothing left.)
    let foreign_leaders = (1..N as u16).filter(|l| carriers.contains(&NodeId(*l))).count();
    assert!(foreign_leaders >= 2, "only {foreign_leaders} other leader carried a batch");

    assert_eq!(tcs_formed(&report, started_us), 0, "a view failed in a fault-free run");
    let gated = sum_counter(&report, "dissem.votes_gated");
    assert!(
        gated * 10 <= carriers.len() as u64,
        "{gated} gated votes for {} carrying blocks",
        carriers.len()
    );
    // Seal telemetry stays with the sealer: one `BatchSealed` per batch, all
    // of them node 0's, whoever proposed the batch.
    let sealed: Vec<NodeId> = report
        .records
        .iter()
        .filter(|r| r.event.kind() == "batch-sealed")
        .map(|r| r.event.node())
        .collect();
    assert_eq!(sealed.len() as u64, sum_counter(&report, "dissem.batches_pushed"));
    assert!(sealed.iter().all(|n| *n == NodeId(0)), "a foreign leader reported a seal");
    assert!(!report.stage_latencies().propose_wait.is_empty(), "no stage samples");
}

/// The orphan path. Node 3 hears everything on time but is heard 600 ms
/// late, three round timers. Under Jolteon it is the sole collector of the
/// votes for node 2's blocks: everybody receives those blocks — and marks
/// their refs in flight — but the certificate comes too late, the round
/// fails, and the next leader builds on the block before. Every batch node 2
/// proposed is then in flight under a block that will never commit, on every
/// node: only handing the refs back once a commit passes that block's height
/// lets them commit at all — and then exactly once.
#[test]
fn batches_of_a_proposal_that_gathers_no_certificate_go_back_to_the_pool() {
    let mut shape = ShapeMatrix::uniform(N, link(20));
    for to in 0..3 {
        shape.set(NodeId(3), NodeId(to), link(600));
    }
    let mut cluster = launch(ProtocolChoice::Jolteon, 50, shape);
    let accepted = 200;
    let started_us = load_node_0(&mut cluster, accepted, Duration::from_millis(10));
    let report = cluster.stop();
    report.check_invariants().expect("no safety violations");

    assert!(tcs_formed(&report, started_us) > 0, "no round failed: nothing was orphaned");
    for r in &report.reports {
        assert!(
            r.metrics.counter("dissem.requeued") > 0,
            "node {} never took an orphaned ref back",
            r.node
        );
    }
    assert_eq!(report.duplicate_committed_txs(), 0, "a transaction committed twice");
    assert_eq!(report.txs_committed(), accepted, "an orphaned batch was lost");
}

/// Nothing a node accepted is lost to its crash. What node 2 had pushed
/// before it was killed the others propose while it is down; what sat in its
/// mempool, or in send queues that died with it, it seals, pushes or serves
/// after the restart; and while it catches up it proposes empty blocks
/// rather than batches whose fate it does not know yet. (Before the pool, a
/// killed node's pushed batches waited for a leader that was gone, and a
/// recovering one spent its batches on proposals for views long over.)
#[test]
fn a_killed_nodes_batches_commit_all_the_same() {
    let mut cluster = launch(ProtocolChoice::Pipelined, 100, ShapeMatrix::uniform(N, link(20)));
    let (gap, all) = (Duration::from_millis(5), [0, 1, 2, 3]);
    submit(&cluster, 0..200, gap, &all);
    cluster.kill(NodeId(2));
    // Node 2's mempool outlives it and keeps accepting.
    submit(&cluster, 200..400, gap, &all);
    cluster.restart(NodeId(2)).expect("restart");
    submit(&cluster, 400..600, gap, &all);
    drain(&mut cluster);
    let report = cluster.stop();
    report.check_invariants().expect("no safety violations");
    assert_eq!(report.duplicate_committed_txs(), 0, "a transaction committed twice");
    assert_eq!(report.txs_committed(), 600, "an accepted transaction was lost");
}
