//! Simulation harness for the Moonshot reproduction: runs the protocols of
//! `moonshot-consensus` over the `moonshot-net` discrete-event WAN and
//! reproduces the paper's evaluation (§VI).
//!
//! * [`runner`] — single-run configuration and [`run_traced`], the one
//!   run function;
//! * [`experiment`] — the paper's experiment grids (Fig. 6–9, Table III);
//! * [`metrics`] — throughput / latency / transfer-rate accounting, folded
//!   from the run's trace (`moonshot-telemetry`'s fold, re-exported);
//! * [`byzantine`] — silent, equivocating, vote-withholding, stale-replay
//!   and crash-recover faulty nodes;
//! * [`soak`] — the adversary × network-fault soak matrix, one
//!   [`RunConfig`] per cell.
//!
//! An honest node is a [`ProtocolActor`], the one adapter from a protocol
//! to the engine (`moonshot-consensus::harness`, re-exported); its one
//! output is its trace.
//!
//! # Examples
//!
//! Reproduce one cell of the paper's happy-path comparison:
//!
//! ```
//! use moonshot_sim::runner::{run, ProtocolKind, RunConfig};
//! use moonshot_types::time::SimDuration;
//!
//! let cfg = RunConfig::happy_path(ProtocolKind::CommitMoonshot, 10, 1_800)
//!     .with_duration(SimDuration::from_secs(5));
//! let report = run(&cfg);
//! assert!(report.metrics.committed_blocks > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod byzantine;
pub mod experiment;
pub mod runner;
pub mod soak;

pub use byzantine::AdversaryKind;
pub use moonshot_consensus::harness::ProtocolActor;
pub use moonshot_telemetry::metrics;
pub use metrics::{MetricsFold, RunMetrics};
pub use runner::{
    run, run_averaged, run_traced, ProtocolKind, RunConfig, RunReport, Schedule, TraceOptions,
    TracedRunReport,
};
pub use soak::{run_soak_cell, run_soak_matrix, FaultPlanKind, SoakCellReport};
