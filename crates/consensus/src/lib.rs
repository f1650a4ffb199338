//! The Moonshot consensus protocols (DSN 2024) and the Jolteon baseline.
//!
//! This crate implements the paper's three chain-based rotating-leader BFT
//! SMR protocols as deterministic, sans-IO state machines:
//!
//! * [`SimpleMoonshot`] (§III) — ω = δ, λ = 3δ, reorg resilient, responsive
//!   under consecutive honest leaders, τ = 5Δ;
//! * [`PipelinedMoonshot`] (§IV) — adds fallback proposals and continuous
//!   locking for full optimistic responsiveness and τ = 3Δ;
//! * [`CommitMoonshot`] (§V) — adds an explicit pre-commit phase so commits
//!   cost β + 2ρ instead of 2β + ρ, and a single honest leader suffices;
//! * [`Jolteon`] — the linear vote-aggregator baseline the paper evaluates
//!   against (LSO, λ = 5δ, ω = 2δ, no reorg resilience).
//!
//! All four implement [`ConsensusProtocol`]: feed them messages and timers,
//! collect [`Output`]s. They run on the `moonshot-net` discrete-event
//! engine through [`harness::ProtocolActor`], the one adapter: the WAN
//! experiments of `moonshot-sim` and [`harness::LocalNet`], the test network
//! whose link policy drops or delays each message for adversarial-schedule
//! testing, both drive them that way.
//!
//! # Examples
//!
//! Run four Pipelined Moonshot nodes to agreement on the simulator:
//!
//! ```
//! use moonshot_consensus::harness::LocalNet;
//! use moonshot_consensus::{ConsensusProtocol, NodeConfig, PipelinedMoonshot};
//! use moonshot_types::time::SimDuration;
//! use moonshot_types::NodeId;
//!
//! let nodes: Vec<Box<dyn ConsensusProtocol>> = (0..4)
//!     .map(|i| {
//!         let cfg = NodeConfig::simulated(
//!             NodeId::from_index(i),
//!             4,
//!             SimDuration::from_millis(100),
//!         );
//!         Box::new(PipelinedMoonshot::new(cfg)) as Box<dyn ConsensusProtocol>
//!     })
//!     .collect();
//! let mut net = LocalNet::with_uniform_latency(nodes, SimDuration::from_millis(10));
//! net.run_for(SimDuration::from_secs(1));
//! assert!(!net.committed(NodeId(0)).is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod aggregator;
pub mod blocktree;
pub mod chainstate;
pub mod harness;
pub mod jolteon;
pub mod leader;
pub mod message;
pub mod observer;
pub mod pipelined;
pub mod properties;
pub mod protocol;
mod replica;
pub mod simple;
pub mod sync;
pub mod verify;

pub use jolteon::Jolteon;
pub use leader::{LeaderElection, RoundRobin, ScheduleElection};
pub use message::Message;
pub use observer::ProtocolObserver;
pub use pipelined::{CommitMoonshot, PipelinedMoonshot};
pub use properties::{ProtocolProperties, TABLE_I};
pub use protocol::{
    CommittedBlock, ConsensusProtocol, NodeConfig, Output, PayloadSource, TimerToken,
};
pub use simple::SimpleMoonshot;
pub use sync::{BatchFetchPlan, BatchFetcher, BlockFetcher, RetryPolicy};
pub use verify::{MessageVerifier, PreVerified, VerifyError};
