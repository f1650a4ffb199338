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
//! * **one loop per node** — the pool shard a node attaches to, its home,
//!   owns all of its sockets and steps it: it hands the node every frame
//!   a peer sent, unchecked and in read order; the node checks the
//!   signatures (one batch per step, through its protocol's verifier) and
//!   the batch digests before anything reaches its rules or its store;
//!   and the shard writes what the node sends in the same sweep, with no
//!   thread in between;
//! * **digest dissemination** — transaction bytes never ride a proposal.
//!   The node seals its mempool into batches
//!   ([`Sealer`](moonshot_mempool::Sealer)) on its own clock, or at once in
//!   a step that multicasts a consensus message, stores each in the node's
//!   [`DissemPlane`](moonshot_mempool::DissemPlane) and pushes it to every
//!   peer in the same step; whoever leads next proposes 40-byte
//!   references to every batch it holds that no block has carried, and a
//!   voter holds its vote until it holds the bytes (fetching what no push
//!   delivered). A node without a data path (`load: None`, no `--load`)
//!   seals nothing.
//!
//! Modules:
//!
//! * [`timer`] — the `TimerWheel` name the repo benchmark still imports: a
//!   shim over [`EventQueue`](moonshot_types::time::EventQueue), the one
//!   queue the node and the shard loops hold their timers in.
//! * [`netpool`] — the shared event-driven network core: up to
//!   min(cores, 8) readiness-driven shard loops (via `moonshot-reactor`),
//!   started as nodes attach, each home to some of the process's nodes: it
//!   steps them on the pool's one clock, admits clients' `SubmitTx` frames
//!   into their mempools, hands them their peers' other frames unchecked,
//!   and dials (redialing on an exponential backoff, or at once when the
//!   peer's hello shows it is back) and writes their links from bounded
//!   drop-oldest outbound queues; shared by every node in a process.
//! * [`transport`] — what a node's sockets are made of: its config, the
//!   per-peer outbound queue, and per-peer traffic and fault counters.
//! * [`shape`] — per-link latency/bandwidth shaping matrices (Table II
//!   WAN emulation) enforced sender-side by the pool's event loops.
//! * [`node`] — the sans-IO [`Node`]: signature and digest checks,
//!   protocol, timer queue, sealer, vote gate, fetch answers, ledger
//!   appends and stall watchdog, stepped with `now`; decoded frames go in,
//!   frames for peers leave as values, and its messages to itself stay
//!   with it for its next step;
//!   [`runtime`] — [`NodeHandle`],
//!   which builds it, hosts it on its home shard, where it is stepped
//!   on the wall clock, and halts and detaches it. A node's numbers come
//!   from two places, both read when it stops: the trace (every latency and stage, and the
//!   `stall` record of a wedged node) and the counters of the components
//!   that own them ([`NodeReport::metrics`](runtime::NodeReport::metrics)).
//! * [`cluster`] — N nodes in one process on loopback: launch, kill,
//!   restart, and the merged report the benchmark reads.
//! * [`client`] — the transaction load generator (in-process or TCP),
//!   the only load source in the crate; tests start it themselves.
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
pub mod netpool;
pub mod node;
pub mod runtime;
pub mod shape;
pub mod timer;
pub mod transport;

pub use client::{ClientStats, ClientTarget, TxClient, TxClientConfig};
pub use cluster::{Cluster, ClusterReport, ClusterSpec, LoadSpec, RestartStat, StageLatencies};
pub use config::{ClusterConfig, ProtocolChoice};
pub use netpool::{NetPool, NetPoolStats};
pub use node::{Emit, Node};
pub use runtime::{process_threads, NodeHandle, NodeReport, SharedSink};
pub use shape::{LinkShape, ShapeMatrix};
pub use transport::{PeerMetrics, TransportConfig};
