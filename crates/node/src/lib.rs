//! The networked Moonshot runtime.
//!
//! `moonshot-consensus` deliberately ends at a sans-IO boundary: state
//! machines that turn messages and timer expirations into
//! [`Output`](moonshot_consensus::Output)s. This crate is the other side of
//! that boundary for real deployments — the same boundary `moonshot-sim`
//! drives with virtual time, driven here by wall clocks and TCP.
//!
//! There is one way a node runs over sockets, and
//! [`NodeHandle::start`](runtime::NodeHandle::start) wires it — for the
//! `moonshot-node` binary, every node of a [`Cluster`], and a restart alike:
//!
//! * **staged verification** — the pool's `net-verify-*` workers check
//!   signatures in batches across all connections, and the driver receives
//!   only [`PreVerified`](moonshot_consensus::PreVerified) messages;
//! * **digest dissemination** — transaction bytes never ride a proposal.
//!   The batch assembler seals into the node's
//!   [`DissemPlane`](moonshot_mempool::DissemPlane), the driver pushes each
//!   batch to every peer, whoever leads next proposes 40-byte references to
//!   every batch it holds that no block has carried, and a voter holds its
//!   vote until it holds the bytes (fetching what no push delivered). A
//!   node without a data path (`load: None`, no `--load`) seals nothing.
//!
//! Modules:
//!
//! * [`timer`] — a hashed [`TimerWheel`](timer::TimerWheel) for protocol
//!   timers, keyed by microseconds since a shared cluster epoch.
//! * [`netpool`] — the shared event-driven network core: a fixed set of
//!   readiness-driven shard loops (via `moonshot-reactor`), one dialer,
//!   a batched sigverify stage and a transaction ingest stage, shared by
//!   every node in a process.
//! * [`transport`] — the per-node facade over the pool: bounded
//!   drop-oldest outbound queues, exponential-backoff redial, and per-peer
//!   byte/frame/drop/reconnect counters.
//! * [`shape`] — per-link latency/bandwidth shaping matrices (Table II
//!   WAN emulation) enforced sender-side by the pool's event loops.
//! * [`runtime`] — the driver thread gluing protocol, wheel, transport and
//!   dissemination plane together, with
//!   [`ProtocolObserver`](moonshot_consensus::ProtocolObserver) tracing at
//!   the call boundary so cluster runs feed the same invariant checker as
//!   simulations.
//! * [`cluster`] — N nodes in one process on loopback: launch, kill,
//!   restart, and the merged report the benchmark reads.
//! * [`client`] — the transaction load generator (in-process or TCP).
//! * [`introspect`] — a per-node live introspection endpoint (`/status`,
//!   `/metrics`) serving driver-published state and the live metrics
//!   registry over plain TCP, pollable mid-run by a test or a human with
//!   `curl`/`nc`.
//! * [`config`] — static peer files, protocol selection, seed-derived keys.
//!
//! One binary ships with the crate: `moonshot-node` (run one validator).
//! Measuring an N-node localhost cluster is the repo benchmark's job
//! (`benchmark/`), which drives [`Cluster`] directly.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod client;
pub mod cluster;
pub mod config;
pub mod introspect;
pub mod netpool;
pub mod runtime;
pub mod shape;
pub mod timer;
pub mod transport;

pub use client::{ClientStats, ClientTarget, TxClient, TxClientConfig};
pub use cluster::{Cluster, ClusterReport, ClusterSpec, LoadSpec, RestartStat, StageLatencies};
pub use config::{ClusterConfig, ProtocolChoice};
pub use introspect::{IntrospectServer, IntrospectState, NodeStatus};
pub use netpool::{NetPool, NetPoolStats};
pub use runtime::{process_threads, NodeHandle, NodeReport, SharedSink};
pub use shape::{LinkShape, ShapeMatrix};
pub use transport::{Inbound, InboundSender, PeerMetrics, Transport, TransportConfig};
