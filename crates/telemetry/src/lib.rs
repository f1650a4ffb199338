//! Unified telemetry for the Moonshot reproduction: structured protocol
//! tracing, latency histograms and metric registries.
//!
//! The workspace's simulations are deterministic, but their *observability*
//! used to stop at run-level averages. This crate adds three layers:
//!
//! * **Tracing** ([`event`], [`sink`]) — every protocol action becomes a
//!   `Copy` [`TraceEvent`] recorded through a pluggable [`TraceSink`]:
//!   a bounded [`RingBufferSink`] for tests and post-run checks, a
//!   [`JsonlSink`] for offline analysis, or both via [`TeeSink`].
//! * **Metrics** ([`histogram`], [`registry`]) — fixed-bucket
//!   [`Histogram`]s turn latency samples into p50/p90/p99/max summaries;
//!   a [`MetricsRegistry`] names counters, gauges and histograms and
//!   serialises them with the dependency-free [`json`] writer.
//! * **Invariants** ([`invariants`]) — a trace-driven checker replays a run's
//!   events and verifies the paper's safety properties (agreement, monotone
//!   views, ordered commits) actually held.
//! * **Run metrics** ([`metrics`]) — [`MetricsFold`] folds the same events
//!   into the paper's §VI numbers ([`RunMetrics`]). It is the one definition
//!   of a committed block (the quorum-th node's commit) and of its creation,
//!   shared by the simulator and the localhost cluster's report.
//!
//! The crate depends only on `moonshot-types`; instrumentation lives with
//! the instrumented code (`moonshot-consensus`'s observer, `moonshot-sim`'s
//! runner), which keeps this layer free of protocol knowledge.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod event;
pub mod histogram;
pub mod invariants;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod sink;

pub use event::{TraceEvent, TraceRecord};
pub use histogram::{Histogram, HistogramSummary};
pub use invariants::{check as check_invariants, InvariantSummary, Violation};
pub use metrics::{MetricsFold, QuorumCommit, RunMetrics};
pub use registry::MetricsRegistry;
pub use sink::{JsonlSink, NullSink, RingBufferSink, TeeSink, TraceSink};
