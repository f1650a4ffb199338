//! The adversary × network-fault soak matrix.
//!
//! Every cell runs one protocol with one Byzantine adversary (at node
//! `n − 1`) under one injected network-fault plan, records the full protocol
//! trace, and checks:
//!
//! 1. **Safety** — the trace passes every invariant of
//!    `moonshot_telemetry::check_invariants` (no conflicting commits, views
//!    and commit heights monotone per incarnation);
//! 2. **Liveness after GST** — commits keep happening *after* the plan's
//!    heal horizon (and after the crashed node's recovery), i.e. the
//!    protocol recovers once the network behaves again.
//!
//! All injected faults are post-GST-safe by construction: partitions heal,
//! duplication has a bounded budget, reordering and delay spikes end at the
//! plan horizon. The matrix is driven by `cargo run --release -p
//! moonshot-bench --bin soak` and (a short slice of it) by CI.

use std::sync::Arc;
use std::sync::Mutex;

use moonshot_consensus::{ConsensusProtocol, Message, NodeConfig};
use moonshot_net::{Actor, FaultPlan, FaultStats, NetworkConfig, NicModel, Simulation, UniformLatency};
use moonshot_telemetry::{RingBufferSink, TraceEvent};
use moonshot_types::time::{SimDuration, SimTime};
use moonshot_types::NodeId;

use crate::adapter::ProtocolActor;
use crate::byzantine::{
    CrashRecoverActor, EquivocatingActor, SilentActor, StaleReplayActor, VoteWithholdingActor,
};
use crate::metrics::MetricsSink;
use crate::runner::ProtocolKind;

/// Which Byzantine behaviour node `n − 1` runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdversaryKind {
    /// Crash-faulty: never says anything.
    Silent,
    /// Votes for everything, proposes two conflicting blocks per led view.
    Equivocating,
    /// Runs the protocol but suppresses its own votes.
    VoteWithholding,
    /// Re-multicasts stale quorum / timeout certificates forever.
    StaleReplay,
    /// Honest, but crashes early and restarts from a fresh state machine.
    CrashRecover,
}

impl AdversaryKind {
    /// Every adversary, in matrix order.
    pub fn all() -> [AdversaryKind; 5] {
        [
            AdversaryKind::Silent,
            AdversaryKind::Equivocating,
            AdversaryKind::VoteWithholding,
            AdversaryKind::StaleReplay,
            AdversaryKind::CrashRecover,
        ]
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            AdversaryKind::Silent => "silent",
            AdversaryKind::Equivocating => "equivocate",
            AdversaryKind::VoteWithholding => "withhold",
            AdversaryKind::StaleReplay => "replay",
            AdversaryKind::CrashRecover => "crash-recover",
        }
    }
}

/// Which network-fault plan the run is subjected to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPlanKind {
    /// No injected faults.
    Clean,
    /// An honest node (node 0) is cut off for the middle of the pre-GST
    /// phase, then the partition heals.
    HealingPartition,
    /// Bounded duplication plus bounded reordering until the horizon.
    DuplicateReorder,
    /// A heavy latency spike on the links between nodes 0 and 1.
    DelaySpike,
}

impl FaultPlanKind {
    /// Every fault plan, in matrix order.
    pub fn all() -> [FaultPlanKind; 4] {
        [
            FaultPlanKind::Clean,
            FaultPlanKind::HealingPartition,
            FaultPlanKind::DuplicateReorder,
            FaultPlanKind::DelaySpike,
        ]
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultPlanKind::Clean => "clean",
            FaultPlanKind::HealingPartition => "partition",
            FaultPlanKind::DuplicateReorder => "dup+reorder",
            FaultPlanKind::DelaySpike => "delay-spike",
        }
    }

    /// Builds the plan for a run of `duration` with delay bound `delta`.
    /// Every window closes by `duration / 2` — the cell's effective GST.
    pub fn plan(self, duration: SimDuration, delta: SimDuration) -> FaultPlan {
        let t = |num: u64, den: u64| SimTime(duration.0 * num / den);
        match self {
            FaultPlanKind::Clean => FaultPlan::default(),
            FaultPlanKind::HealingPartition => {
                FaultPlan::default().partition([NodeId(0)], t(1, 6), t(1, 2))
            }
            FaultPlanKind::DuplicateReorder => FaultPlan::default()
                .duplicate(0.2, 5_000, t(0, 1), t(1, 2))
                .reorder(0.2, delta, t(0, 1), t(1, 2)),
            FaultPlanKind::DelaySpike => FaultPlan::default()
                .delay_link(Some(NodeId(0)), Some(NodeId(1)), delta * 3, t(1, 6), t(1, 2))
                .delay_link(Some(NodeId(1)), Some(NodeId(0)), delta * 3, t(1, 6), t(1, 2)),
        }
    }
}

/// One cell of the soak matrix.
#[derive(Clone, Copy, Debug)]
pub struct SoakConfig {
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Byzantine behaviour at node `n − 1`.
    pub adversary: AdversaryKind,
    /// Injected network faults.
    pub faults: FaultPlanKind,
    /// Number of nodes (quorum is `2⌊(n−1)/3⌋ + 1`).
    pub n: usize,
    /// Known delay bound Δ.
    pub delta: SimDuration,
    /// Simulated run length.
    pub duration: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl SoakConfig {
    /// A standard 4-node cell: Δ = 50 ms over a 5 ms uniform network.
    pub fn cell(
        protocol: ProtocolKind,
        adversary: AdversaryKind,
        faults: FaultPlanKind,
        duration: SimDuration,
        seed: u64,
    ) -> Self {
        SoakConfig {
            protocol,
            adversary,
            faults,
            n: 4,
            delta: SimDuration::from_millis(50),
            duration,
            seed,
        }
    }

    fn build_protocol(&self, node: NodeId) -> Box<dyn ConsensusProtocol> {
        let cfg = NodeConfig::simulated(node, self.n, self.delta);
        self.protocol.build(cfg)
    }
}

/// The outcome of one soak cell.
#[derive(Clone, Debug)]
pub struct SoakCellReport {
    /// The cell that ran.
    pub config: SoakConfig,
    /// Commits reaching quorum over the whole run.
    pub committed_blocks: u64,
    /// Trace commits strictly after the quiet point (fault horizon and, for
    /// the crash-recover adversary, the recovery time) — the liveness
    /// signal.
    pub commits_after_quiet: u64,
    /// Injected-fault accounting.
    pub fault_stats: FaultStats,
    /// Trace records evicted from the cell's ring buffer — nonzero means
    /// the safety/liveness verdicts were computed on a clipped trace.
    pub dropped_trace_events: u64,
    /// Invariant violations found in the trace (empty = safe).
    pub violations: Vec<String>,
}

impl SoakCellReport {
    /// Whether the cell is safe *and* live: no invariant violations and
    /// commits continued after the network went quiet.
    pub fn passed(&self) -> bool {
        self.violations.is_empty() && self.commits_after_quiet > 0
    }

    /// One human-readable summary line.
    pub fn line(&self) -> String {
        format!(
            "{:8} {:13} {:11} commits={:<5} after-quiet={:<5} faults={:<6} {}",
            self.config.protocol.label(),
            self.config.adversary.label(),
            self.config.faults.label(),
            self.committed_blocks,
            self.commits_after_quiet,
            self.fault_stats.total(),
            if self.passed() { "ok" } else { "FAIL" },
        )
    }
}

/// When a crash-recover adversary crashes and recovers, as fractions of the
/// run (recovery lands before the `duration / 2` fault horizon).
fn crash_window(duration: SimDuration) -> (SimTime, SimTime) {
    (SimTime(duration.0 / 6), SimTime(duration.0 * 2 / 5))
}

/// Runs one soak cell: protocol × adversary × fault plan, full trace, then
/// the invariant checks.
pub fn run_soak_cell(config: &SoakConfig) -> SoakCellReport {
    let n = config.n;
    let metrics = Arc::new(Mutex::new(MetricsSink::new()));
    let ring = Arc::new(Mutex::new(RingBufferSink::new(1 << 18)));
    let plan = config.faults.plan(config.duration, config.delta);
    let mut quiet_from = plan.horizon().unwrap_or(SimTime::ZERO);

    let actors: Vec<Box<dyn Actor<Message>>> = (0..n)
        .map(|i| {
            let node = NodeId::from_index(i);
            if i == n - 1 {
                match config.adversary {
                    AdversaryKind::Silent => Box::new(SilentActor) as Box<dyn Actor<Message>>,
                    AdversaryKind::Equivocating => Box::new(EquivocatingActor::new(node, n)),
                    AdversaryKind::VoteWithholding => {
                        Box::new(VoteWithholdingActor::new(config.build_protocol(node)))
                    }
                    AdversaryKind::StaleReplay => Box::new(StaleReplayActor::new(config.delta)),
                    AdversaryKind::CrashRecover => {
                        let (crash_at, recover_at) = crash_window(config.duration);
                        quiet_from = quiet_from.max(recover_at);
                        let cell = *config;
                        let ring2 = ring.clone();
                        Box::new(
                            CrashRecoverActor::new(
                                node,
                                Box::new(move || cell.build_protocol(node)),
                                metrics.clone(),
                                crash_at,
                                recover_at,
                            )
                            .with_trace_factory(Box::new(move || Box::new(ring2.clone()))),
                        )
                    }
                }
            } else {
                Box::new(
                    ProtocolActor::new(node, config.build_protocol(node), metrics.clone())
                        .with_trace(Box::new(ring.clone())),
                ) as Box<dyn Actor<Message>>
            }
        })
        .collect();

    let net = NetworkConfig::new(
        Box::new(UniformLatency::new(SimDuration::from_millis(5), SimDuration::from_millis(1))),
        NicModel::unbounded(n),
    )
    .with_seed(config.seed)
    .with_faults(plan);
    let mut sim = Simulation::new(actors, net);
    sim.run_until(SimTime::ZERO + config.duration);
    let fault_stats = sim.fault_stats();
    drop(sim);

    let quorum = moonshot_crypto::Keyring::simulated(n).quorum_threshold();
    let committed_blocks =
        metrics.lock().unwrap().summarise(quorum, config.duration).committed_blocks;
    let sink = Arc::try_unwrap(ring).expect("sim dropped").into_inner().unwrap();
    let dropped_trace_events = sink.evicted();
    let trace = sink.into_vec();
    let commits_after_quiet = trace
        .iter()
        .filter(|r| {
            r.at > quiet_from && matches!(r.event, TraceEvent::BlockCommitted { .. })
        })
        .count() as u64;
    let violations = match moonshot_telemetry::check_invariants(trace) {
        Ok(_) => Vec::new(),
        Err(vs) => vs.iter().map(|v| v.to_string()).collect(),
    };
    SoakCellReport {
        config: *config,
        committed_blocks,
        commits_after_quiet,
        fault_stats,
        dropped_trace_events,
        violations,
    }
}

/// Runs the full matrix — every evaluated protocol × every adversary ×
/// every fault plan — with `duration` per cell, reporting each cell.
pub fn run_soak_matrix(duration: SimDuration, seed: u64) -> Vec<SoakCellReport> {
    let mut reports = Vec::new();
    for protocol in ProtocolKind::evaluated() {
        for adversary in AdversaryKind::all() {
            for faults in FaultPlanKind::all() {
                let cfg = SoakConfig::cell(protocol, adversary, faults, duration, seed);
                reports.push(run_soak_cell(&cfg));
            }
        }
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioned_cell_recovers_liveness_after_heal() {
        let cfg = SoakConfig::cell(
            ProtocolKind::PipelinedMoonshot,
            AdversaryKind::Silent,
            FaultPlanKind::HealingPartition,
            SimDuration::from_secs(3),
            7,
        );
        let report = run_soak_cell(&cfg);
        assert!(report.fault_stats.partition_dropped > 0, "partition never bit");
        assert!(report.passed(), "{}", report.line());
    }

    #[test]
    fn crash_recover_cell_passes_under_faults() {
        let cfg = SoakConfig::cell(
            ProtocolKind::PipelinedMoonshot,
            AdversaryKind::CrashRecover,
            FaultPlanKind::DuplicateReorder,
            SimDuration::from_secs(3),
            7,
        );
        let report = run_soak_cell(&cfg);
        assert!(report.fault_stats.duplicated > 0, "nothing was duplicated");
        assert!(report.passed(), "{}", report.line());
    }

    #[test]
    fn one_cell_per_protocol_is_safe_and_live() {
        for protocol in ProtocolKind::evaluated() {
            let cfg = SoakConfig::cell(
                protocol,
                AdversaryKind::Equivocating,
                FaultPlanKind::DelaySpike,
                SimDuration::from_secs(3),
                7,
            );
            let report = run_soak_cell(&cfg);
            assert!(report.passed(), "{}", report.line());
        }
    }
}
