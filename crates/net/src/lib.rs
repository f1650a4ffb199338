//! Deterministic discrete-event network simulator for the Moonshot
//! reproduction.
//!
//! The paper evaluated its protocols on a 5-region AWS WAN (§VI). This crate
//! substitutes that testbed with a reproducible simulator that models the
//! pieces the protocols are sensitive to:
//!
//! * **propagation latency** between node pairs ([`latency`]), including the
//!   paper's own Table II inter-region matrix ([`latency::aws`]);
//! * **transmission delay / NIC serialization** ([`bandwidth`]) so that large
//!   proposals cost more than small votes — the ρ/β distinction of the
//!   paper's modified partially synchronous model (§V);
//! * **partial synchrony**: a GST before which the adversary may delay or
//!   drop messages ([`engine::PreGstAdversary`]).
//!
//! Protocol nodes implement [`Actor`] (sans-IO state machines) and run under
//! [`Simulation`], which is a pure function of `(actors, config, seed)`.
//! It is the repo's one simulator: the experiments of `moonshot-sim` run on
//! it, and so does `moonshot-consensus::harness::LocalNet`, the protocols'
//! test network, which steers each routed copy with a message-aware
//! [`LinkPolicy`] (drop it, or delay it on top of propagation).
//!
//! # Examples
//!
//! ```
//! use moonshot_net::{
//!     Actor, Context, NetworkConfig, NicModel, Simulation, TimerId, UniformLatency,
//! };
//! use moonshot_net::time::{SimDuration, SimTime};
//! use moonshot_types::{NodeId, WireSize};
//!
//! #[derive(Clone)]
//! struct Hello;
//! impl WireSize for Hello {
//!     fn wire_size(&self) -> usize { 64 }
//! }
//!
//! struct Node;
//! impl Actor<Hello> for Node {
//!     fn on_start(&mut self, ctx: &mut Context<Hello>) {
//!         if ctx.node() == NodeId(0) {
//!             ctx.multicast(Hello);
//!         }
//!     }
//!     fn on_message(&mut self, _from: NodeId, _msg: Hello, _ctx: &mut Context<Hello>) {}
//!     fn on_timer(&mut self, _t: TimerId, _ctx: &mut Context<Hello>) {}
//! }
//!
//! let actors: Vec<Box<dyn Actor<Hello>>> =
//!     (0..4).map(|_| Box::new(Node) as Box<dyn Actor<Hello>>).collect();
//! let config = NetworkConfig::new(
//!     Box::new(UniformLatency::new(SimDuration::from_millis(50), SimDuration::ZERO)),
//!     NicModel::unbounded(4),
//! );
//! let mut sim = Simulation::new(actors, config);
//! sim.run_until(SimTime(1_000_000));
//! // Node 0's multicast reached the other three nodes plus itself (loopback).
//! assert_eq!(sim.stats().delivered, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod bandwidth;
pub mod engine;
pub mod fault;
pub mod latency;

/// Simulated time types, re-exported from [`moonshot_types::time`].
pub mod time {
    pub use moonshot_types::time::{SimDuration, SimTime};
}

pub use bandwidth::NicModel;
pub use engine::{
    Actor, Context, LinkPolicy, NetworkConfig, NetworkStats, PreGstAdversary, Simulation,
    TimerId, TrafficStats, TypeTraffic,
};
pub use fault::{FaultKind, FaultPlan, FaultRecord, FaultStats, RouteFault, TimeWindow};
pub use latency::{LatencyModel, MatrixLatency, UniformLatency};
pub use time::{SimDuration, SimTime};
