//! Block sync under injected network faults: a node cut off by a healing
//! partition misses proposals, then catches up through `BlockRequest` /
//! `BlockResponse` and commits the same chain as everyone else.
//!
//! Agreement (same chain) is checked by the trace invariant checker inside
//! `run_traced`, whose verdict these tests assert; they additionally pin
//! down that the catch-up actually used the sync path and that the
//! partitioned node resumed committing after the heal.

use moonshot_net::FaultPlan;
use moonshot_sim::runner::{run_traced, LatencyKind, ProtocolKind, RunConfig, TraceOptions};
use moonshot_telemetry::TraceEvent;
use moonshot_types::time::{SimDuration, SimTime};
use moonshot_types::NodeId;

const HEAL: SimTime = SimTime(2_500_000);

fn partitioned_run(protocol: ProtocolKind) -> moonshot_sim::TracedRunReport {
    let mut cfg = RunConfig::happy_path(protocol, 4, 0)
        .with_duration(SimDuration::from_secs(6))
        .with_faults(FaultPlan::default().partition([NodeId(3)], SimTime(1_000_000), HEAL));
    cfg.latency = LatencyKind::Uniform { ms: 5, jitter_ms: 1 };
    cfg.delta = SimDuration::from_millis(50);
    run_traced(&cfg, &TraceOptions::default())
}

fn assert_catch_up(protocol: ProtocolKind) {
    let traced = partitioned_run(protocol);
    // The trace passes every invariant: all nodes committed the same chain.
    assert!(traced.invariants.is_ok(), "{:?}", traced.invariants);
    assert!(
        traced.report.faults.partition_dropped > 0,
        "the partition never dropped anything"
    );
    assert!(
        traced.report.traffic.get("block-request").count > 0,
        "catch-up never issued a block request"
    );
    assert!(
        traced.report.traffic.get("block-response").count > 0,
        "block requests were never served"
    );
    assert!(
        traced.trace.iter().any(|r| r.at > HEAL
            && matches!(r.event, TraceEvent::SyncRequested { node: NodeId(3), .. })),
        "node 3 never fetched a missing block after the heal"
    );
    assert!(
        traced.trace.iter().any(|r| r.at > HEAL
            && matches!(r.event, TraceEvent::BlockCommitted { node: NodeId(3), .. })),
        "node 3 never committed after the heal"
    );
}

#[test]
fn pipelined_moonshot_catches_up_after_partition() {
    assert_catch_up(ProtocolKind::PipelinedMoonshot);
}

#[test]
fn jolteon_catches_up_after_partition() {
    assert_catch_up(ProtocolKind::Jolteon);
}
