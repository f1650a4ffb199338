//! Refactor-equivalence pins: the guard for every consensus refactor.
//!
//! Each of the six [`ProtocolKind`]s runs three seeded DES scenarios; the
//! outcome of a run — quorum-committed blocks, highest view, the network's
//! delivered / dropped / bytes / timer counts and the per-message-type
//! traffic — is compared with the row recorded in [`PINS`]. The DES is
//! deterministic, so a change that alters any node's output sequence (one
//! message more, a different order, one timer less) moves at least one
//! number, while a pure restructuring moves none.
//!
//! The table was recorded at the parent of PR 22 (commit d44f654), before
//! the three protocol files were rewritten over `replica.rs`. A deliberate
//! protocol change updates the rows it moves and says why in CHANGES.md;
//! the failing test prints the freshly measured table to paste in.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use moonshot::consensus::{Message, NodeConfig};
use moonshot::net::{
    Actor, FaultPlan, NetworkConfig, NetworkStats, NicModel, PreGstAdversary, Simulation,
    TrafficStats, UniformLatency,
};
use moonshot::sim::runner::Schedule;
use moonshot::sim::{run, MetricsSink, ProtocolActor, ProtocolKind, RunConfig};
use moonshot::types::time::{SimDuration, SimTime};
use moonshot::types::NodeId;

const KINDS: [ProtocolKind; 6] = [
    ProtocolKind::SimpleMoonshot,
    ProtocolKind::PipelinedMoonshot,
    ProtocolKind::CommitMoonshot,
    ProtocolKind::PipelinedNoOptimistic,
    ProtocolKind::Jolteon,
    ProtocolKind::HotStuff,
];

/// One table row: `label scenario | committed max_view | delivered dropped
/// bytes_sent timers_fired | type:count/bytes …`.
fn row(
    kind: ProtocolKind,
    scenario: &str,
    committed: u64,
    max_view: u64,
    net: NetworkStats,
    traffic: &TrafficStats,
) -> String {
    let mut line = format!(
        "{} {scenario} | {committed} {max_view} | {} {} {} {} |",
        kind.label(),
        net.delivered,
        net.dropped,
        net.bytes_sent,
        net.timers_fired
    );
    for (label, t) in traffic.rows() {
        write!(line, " {label}:{}/{}", t.count, t.bytes).unwrap();
    }
    line
}

/// Happy path on the Table II WAN: n = 10, 1.8 kB blocks, 5 s.
fn happy(kind: ProtocolKind) -> String {
    let cfg = RunConfig::happy_path(kind, 10, 1_800).with_duration(SimDuration::from_secs(5));
    let r = run(&cfg);
    row(kind, "happy", r.metrics.committed_blocks, r.metrics.max_view.0, r.network, &r.traffic)
}

/// §VI.B failures under Jolteon's worst leader schedule: n = 10, f′ = 3
/// silent nodes, Δ = 500 ms, 20 s.
fn failures(kind: ProtocolKind) -> String {
    let mut cfg = RunConfig::failures(kind, Schedule::WorstJolteon)
        .with_duration(SimDuration::from_secs(20))
        .with_seed(5);
    cfg.n = 10;
    cfg.f_prime = 3;
    let r = run(&cfg);
    row(kind, "failures", r.metrics.committed_blocks, r.metrics.max_view.0, r.network, &r.traffic)
}

/// Partial synchrony: 40 % loss and up to 300 ms extra delay before
/// GST = 2 s, node 3 partitioned away during [1 s, 4 s), duplicates and
/// reordering until 3 s; n = 4, Δ = 120 ms, 10 s.
fn chaos(kind: ProtocolKind) -> String {
    let n = 4;
    let metrics = Arc::new(Mutex::new(MetricsSink::new()));
    let actors: Vec<Box<dyn Actor<Message>>> = (0..n)
        .map(|i| {
            let node = NodeId::from_index(i);
            let cfg = NodeConfig::simulated(node, n, SimDuration::from_millis(120));
            Box::new(ProtocolActor::new(node, kind.build(cfg), metrics.clone()))
                as Box<dyn Actor<Message>>
        })
        .collect();
    let faults = FaultPlan::new()
        .partition([NodeId(3)], SimTime(1_000_000), SimTime(4_000_000))
        .duplicate(0.05, 200, SimTime::ZERO, SimTime(3_000_000))
        .reorder(0.2, SimDuration::from_millis(60), SimTime::ZERO, SimTime(3_000_000));
    let config = NetworkConfig::new(
        Box::new(UniformLatency::new(SimDuration::from_millis(15), SimDuration::from_millis(5))),
        NicModel::new(n, 1.0, SimDuration::from_micros(20)),
    )
    .with_gst(
        SimTime(2_000_000),
        PreGstAdversary { extra_delay: SimDuration::from_millis(300), drop_probability: 0.4 },
    )
    .with_faults(faults)
    .with_seed(9);
    let mut sim = Simulation::new(actors, config);
    sim.classify_with(|m: &Message| m.tag());
    sim.run_until(SimTime(10_000_000));
    let m = metrics.lock().unwrap();
    let summary = m.summarise(3, SimDuration::from_secs(10));
    row(kind, "chaos", summary.committed_blocks, m.max_view().0, sim.stats(), sim.traffic())
}

/// Recorded at commit d44f654 (the parent of PR 22).
const PINS: &str = "\
SM happy | 40 42 | 8226 0 3398715 210 | certificate:3690/1952010 compact-propose:369/209961 opt-propose:378/723870 propose:9/17694 vote:3780/495180
SM failures | 10 17 | 2199 0 716814 144 | certificate:693/366597 compact-propose:54/30726 opt-propose:54/4266 propose:45/22482 status:30/16110 timeout:315/28980 timeout-cert:315/156870 vote:693/90783
SM chaos | 306 312 | 9300 84 1833562 1162 | block-request:25/1200 block-response:25/1775 certificate:3675/973875 compact-propose:915/279075 opt-propose:918/72522 propose:18/4122 status:9/1467 timeout:59/5428 timeout-cert:42/9660 vote:3698/484438
PM happy | 38 40 | 11214 0 3678507 280 | certificate:3510/1856790 compact-propose:351/199719 opt-propose:360/689400 propose:9/17694 vote:6984/914904
PM failures | 22 33 | 4662 0 1678887 273 | certificate:1449/766521 compact-propose:117/66573 fb-propose:81/133083 opt-propose:117/9243 propose:9/1170 timeout:567/347571 timeout-cert:54/57618 vote:2268/297108
PM chaos | 304 308 | 12319 83 2251714 1201 | block-request:3/144 block-response:1/71 certificate:3657/969105 compact-propose:912/278160 fb-propose:9/4959 opt-propose:915/72285 propose:3/390 timeout:128/37742 timeout-cert:5/2119 vote:6769/886739
CM happy | 37 39 | 14103 0 3997728 270 | certificate:3420/1809180 commit-vote:3420/444600 compact-propose:342/194598 opt-propose:351/672165 propose:9/17694 vote:6561/859491
CM failures | 23 33 | 6111 0 1867257 273 | certificate:1449/766521 commit-vote:1449/188370 compact-propose:117/66573 fb-propose:81/133083 opt-propose:117/9243 propose:9/1170 timeout:567/347571 timeout-cert:54/57618 vote:2268/297108
CM chaos | 301 305 | 15721 83 2687602 1185 | block-request:3/144 block-response:1/71 certificate:3618/958770 commit-vote:3606/468780 compact-propose:903/275415 fb-propose:9/4959 opt-propose:903/71337 propose:3/390 timeout:128/37742 timeout-cert:5/2119 vote:6625/867875
PM-noopt happy | 23 25 | 4617 0 1977174 180 | certificate:2160/1142640 propose:225/542142 vote:2232/292392
PM-noopt failures | 22 33 | 3726 0 1565046 259 | certificate:1449/766521 fb-propose:81/133083 propose:126/70434 timeout:567/347571 timeout-cert:54/57618 vote:1449/189819
PM-noopt chaos | 166 170 | 4576 83 1002475 681 | block-request:3/144 block-response:1/71 certificate:2001/530265 fb-propose:9/4959 propose:501/163734 timeout:128/37742 timeout-cert:5/2119 vote:2011/263441
J happy | 27 29 | 551 0 667540 172 | propose:261/629550 vote:290/37990
J failures | 4 15 | 680 0 411325 140 | fb-propose:36/59148 propose:63/33138 timeout:504/308952 vote:77/10087
J chaos | 165 174 | 1247 61 288422 667 | block-request:10/480 block-response:10/710 fb-propose:12/8592 propose:504/164718 timeout:95/25235 vote:677/88687
HS happy | 26 29 | 551 0 667540 172 | propose:261/629550 vote:290/37990
HS failures | 0 15 | 680 0 411325 140 | fb-propose:36/59148 propose:63/33138 timeout:504/308952 vote:77/10087
HS chaos | 164 174 | 1247 61 288422 667 | block-request:10/480 block-response:10/710 fb-propose:12/8592 propose:504/164718 timeout:95/25235 vote:677/88687
";

#[test]
fn des_outcomes_match_the_recorded_table() {
    let mut actual = String::new();
    for kind in KINDS {
        for scenario in [happy, failures, chaos] {
            actual.push_str(&scenario(kind));
            actual.push('\n');
        }
    }
    let mismatches: Vec<String> = PINS
        .lines()
        .zip(actual.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("  want {want}\n   got {got}"))
        .collect();
    assert!(
        mismatches.is_empty() && PINS.lines().count() == actual.lines().count(),
        "{} row(s) differ from the pinned table:\n{}\nmeasured table:\n{actual}",
        mismatches.len(),
        mismatches.join("\n")
    );
}
