//! Every symbol the benchmark imports from the program under test.
//!
//! Later non-benchmark changes may not edit `benchmark/`, so whatever is
//! named here is frozen until the next benchmark issue. Keep the list
//! short; `README.md` repeats it. Nothing else in this package may `use`
//! a `moonshot_*` crate directly.

/// The cluster runtime: what the five workloads drive.
///
/// Used: `Cluster::{launch, epoch, mempools, peers, netpool,
/// quorum_committed_height, committed_heights, kill, restart, stop}`;
/// `ClusterSpec::new` plus assignment to `delta`, `trace_capacity`,
/// `load`, `data_dir`, `shape` (never a struct literal, never `verify`,
/// `payload_bytes` or `drop_push_to`); `LoadSpec::digest` and
/// `without_clients`; `ClusterReport` fields, `check_invariants`,
/// `stage_latencies`; `NodeReport.{node, commits, metrics}`;
/// `ShapeMatrix::{table2, uniform}` with `LinkShape`; `NetPool::stats`.
pub use moonshot_node::{
    Cluster, ClusterReport, ClusterSpec, LinkShape, LoadSpec, NetPoolStats, NodeReport,
    ProtocolChoice, ShapeMatrix, StageLatencies,
};

/// Transaction submission and framing.
///
/// Used: `Mempool::{submit_from, counters}`, `make_tx`, `batch_txs`,
/// `tx_timestamp_us`.
pub use moonshot_mempool::{batch_txs, make_tx, tx_timestamp_us, Mempool, SubmitError};

/// Trace records of a finished run (`ClusterReport.records`). The
/// registry in a node report is read through `counter`, `gauge` and
/// `histogram(..).count()`.
pub use moonshot_telemetry::TraceEvent;

/// Plain identifiers and time units.
pub use moonshot_types::time::{SimDuration, SimTime};
pub use moonshot_types::{BlockId, NodeId};

/// The functions the layer suite times, by layer.
pub mod layer {
    pub use moonshot_consensus::harness::LocalNet;
    pub use moonshot_consensus::{
        ConsensusProtocol, Jolteon, Message, NodeConfig, PipelinedMoonshot,
    };
    pub use moonshot_crypto::{batch_verify, Digest, KeyPair, Keyring, Signature, VerifiedCache};
    pub use moonshot_ledger::blockstore::BlockStore;
    pub use moonshot_ledger::snapshot::Snapshot;
    pub use moonshot_ledger::wal::{Wal, WalRecord};
    pub use moonshot_ledger::{Ledger, LedgerOptions};
    pub use moonshot_mempool::{
        batch_digest, encode_batch, BatchStore, DissemCounters, MempoolConfig, Tx,
    };
    pub use moonshot_node::timer::TimerWheel;
    pub use moonshot_reactor::{Interest, Poller};
    pub use moonshot_sim::runner::{run as sim_run, ProtocolKind, RunConfig};
    pub use moonshot_types::{
        BatchRef, Block, Payload, QuorumCertificate, SignedVote, View, Vote, VoteKind,
    };
    pub use moonshot_wire::frame::crc32;
    pub use moonshot_wire::{decode_frame, encode_frame, Frame, FrameReader};
}
