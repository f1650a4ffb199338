//! The adversary × network-fault soak matrix.
//!
//! Every cell is a [`RunConfig`] — four nodes, one of them Byzantine running
//! one [`AdversaryKind`], under one injected network-fault plan — run
//! through [`run_traced`] with a ring large enough for the whole trace. A
//! cell passes when:
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

use moonshot_net::{FaultPlan, FaultStats};
use moonshot_telemetry::{TraceEvent, Violation};
use moonshot_types::time::{SimDuration, SimTime};
use moonshot_types::NodeId;

use crate::byzantine::{crash_window, AdversaryKind};
use crate::runner::{run_traced, LatencyKind, ProtocolKind, RunConfig, Schedule, TraceOptions};

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

/// The outcome of one soak cell.
#[derive(Clone, Debug)]
pub struct SoakCellReport {
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Byzantine behaviour at node `n − 1`.
    pub adversary: AdversaryKind,
    /// Injected network faults.
    pub faults: FaultPlanKind,
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
    pub violations: Vec<Violation>,
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
            self.protocol.label(),
            self.adversary.label(),
            self.faults.label(),
            self.committed_blocks,
            self.commits_after_quiet,
            self.fault_stats.total(),
            if self.passed() { "ok" } else { "FAIL" },
        )
    }
}

/// Runs one soak cell — `protocol` on four nodes with Δ = 50 ms over a 5 ms
/// uniform network, node 3 running `adversary`, under the `faults` plan —
/// and counts the commits after the network went quiet.
pub fn run_soak_cell(
    protocol: ProtocolKind,
    adversary: AdversaryKind,
    faults: FaultPlanKind,
    duration: SimDuration,
    seed: u64,
) -> SoakCellReport {
    let delta = SimDuration::from_millis(50);
    let config = RunConfig {
        protocol,
        n: 4,
        f_prime: 1,
        adversary,
        payload_bytes: 0,
        delta,
        latency: LatencyKind::Uniform { ms: 5, jitter_ms: 1 },
        schedule: Schedule::RoundRobin,
        duration,
        seed,
        verify_signatures: true,
        nic_gbps: 1e12,
        per_message_overhead: SimDuration::ZERO,
        auto_delta: false,
        fault_plan: faults.plan(duration, delta),
    };
    let mut quiet_from = config.fault_plan.horizon().unwrap_or(SimTime::ZERO);
    if adversary == AdversaryKind::CrashRecover {
        quiet_from = quiet_from.max(crash_window(duration).1);
    }
    let traced = run_traced(&config, &TraceOptions { ring_capacity: 1 << 18, jsonl_path: None });
    let commits_after_quiet = traced
        .trace
        .iter()
        .filter(|r| r.at > quiet_from && matches!(r.event, TraceEvent::BlockCommitted { .. }))
        .count() as u64;
    SoakCellReport {
        protocol,
        adversary,
        faults,
        committed_blocks: traced.report.metrics.committed_blocks,
        commits_after_quiet,
        fault_stats: traced.report.faults,
        dropped_trace_events: traced.trace_evicted,
        violations: traced.invariants.err().unwrap_or_default(),
    }
}

/// Runs the full matrix — every evaluated protocol × every adversary ×
/// every fault plan — with `duration` per cell, reporting each cell.
pub fn run_soak_matrix(duration: SimDuration, seed: u64) -> Vec<SoakCellReport> {
    let mut reports = Vec::new();
    for protocol in ProtocolKind::evaluated() {
        for adversary in AdversaryKind::all() {
            for faults in FaultPlanKind::all() {
                reports.push(run_soak_cell(protocol, adversary, faults, duration, seed));
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
        let report = run_soak_cell(
            ProtocolKind::PipelinedMoonshot,
            AdversaryKind::Silent,
            FaultPlanKind::HealingPartition,
            SimDuration::from_secs(3),
            7,
        );
        assert!(report.fault_stats.partition_dropped > 0, "partition never bit");
        assert!(report.passed(), "{}", report.line());
    }

    #[test]
    fn crash_recover_cell_passes_under_faults() {
        let report = run_soak_cell(
            ProtocolKind::PipelinedMoonshot,
            AdversaryKind::CrashRecover,
            FaultPlanKind::DuplicateReorder,
            SimDuration::from_secs(3),
            7,
        );
        assert!(report.fault_stats.duplicated > 0, "nothing was duplicated");
        assert!(report.passed(), "{}", report.line());
    }

    #[test]
    fn one_cell_per_protocol_is_safe_and_live() {
        for protocol in ProtocolKind::evaluated() {
            let report = run_soak_cell(
                protocol,
                AdversaryKind::Equivocating,
                FaultPlanKind::DelaySpike,
                SimDuration::from_secs(3),
                7,
            );
            assert!(report.passed(), "{}", report.line());
        }
    }
}
