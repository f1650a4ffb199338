//! The transaction ingress path for the Moonshot runtime.
//!
//! The paper's evaluation synthesizes payloads at the leader (§VI); this
//! crate replaces that stand-in with a real data path while keeping the
//! driver hot loop free of payload work:
//!
//! * [`pool`] — a lock-striped, sharded [`Mempool`]: N shards keyed by
//!   transaction hash, each a mutex-guarded set of per-client FIFO queues,
//!   with commit-rate-aware **delay-bounded admission** (the driver feeds
//!   committed bytes and commit latency back via `note_commit`; a
//!   submission whose projected sojourn exceeds a multiple of the measured
//!   commit latency is rejected `Overloaded`), static byte/count budgets as
//!   a hard backstop, deficit-round-robin per-client drain fairness, and a
//!   bounded digest-based dedup window per shard. Backpressure rejects new
//!   submissions; queued transactions are never dropped.
//! * [`batch`] — the batch framing: a batch is a sequence of
//!   `u32`-length-prefixed transactions, with each transaction's leading 8
//!   bytes carrying its client submit timestamp so submit→commit latency
//!   can be recovered from committed batches alone.
//! * [`assembler`] — an off-driver [`BatchAssembler`] thread that drains
//!   the pool, frames the next batch, hashes it **once on its own thread**
//!   and hands it to the dissemination plane: the driver never hashes
//!   transaction bytes.
//! * [`dissem`] — the node-local state of the **batch dissemination
//!   plane**: a content-addressed [`BatchStore`] (the network pool inserts
//!   pushed/fetched batches, the driver gates votes and resolves commits),
//!   the assembler→driver [`DissemQueue`], the [`ProposablePool`] of
//!   batches no block has carried yet (own or foreign — what the next
//!   leader proposes as 40-byte references), and the `dissem.*` counters.
//!
//! The crate is std-only, like the rest of the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod assembler;
pub mod batch;
pub mod dissem;
pub mod pool;

pub use assembler::{AssemblerConfig, BatchAssembler};
pub use batch::{
    batch_txs, encode_batch, make_tx, tx_client_id, tx_timestamp_us, BATCH_TX_OVERHEAD,
    TX_TIMESTAMP_BYTES,
};
pub use dissem::{
    batch_digest, BatchStore, DissemCounters, DissemPlane, DissemQueue, DissemStats,
    ProposablePool, SealedBatch,
};
pub use pool::{Mempool, MempoolConfig, MempoolCounters, SubmitError, Tx};
