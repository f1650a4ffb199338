//! The transaction ingress path for the Moonshot runtime.
//!
//! The paper's evaluation synthesizes payloads at the leader (§VI); this
//! crate replaces that stand-in with a real data path:
//!
//! * [`pool`] — the [`Mempool`]: one lock over per-client FIFO queues and
//!   one deficit-round-robin drain rotation, so each client's transactions
//!   leave in submission order, with commit-rate-aware **delay-bounded
//!   admission** (the driver feeds committed bytes and commit latency back
//!   via `note_commit`; a submission whose projected sojourn exceeds a
//!   multiple of the measured commit latency is rejected `Overloaded`),
//!   static byte/count budgets as a hard backstop, and a bounded
//!   digest-based dedup window. Backpressure rejects new submissions;
//!   queued transactions are never dropped.
//! * [`batch`] — the batch framing: a batch is a sequence of
//!   `u32`-length-prefixed transactions, with each transaction's leading 8
//!   bytes carrying its client submit timestamp so submit→commit latency
//!   can be recovered from committed batches alone.
//! * [`seal`] — the sans-IO [`Sealer`] the node's driver polls on its own
//!   clock: it decides when the pool's transactions leave as a batch
//!   (a quarter block period after a batch opens, at once when it is full,
//!   never past the node's backlog cap), drains and frames the batch and
//!   hashes it **once**, and the driver stores and pushes it in the same
//!   step.
//! * [`dissem`] — the node-local state of the **batch dissemination
//!   plane**: a content-addressed [`BatchStore`] (the node stores what it
//!   seals and the pushed/fetched batches whose digests it checked, gates
//!   votes and resolves commits on it),
//!   the [`ProposablePool`] of batches no block has carried yet (own or
//!   foreign — what the next leader proposes as 40-byte references), and
//!   the `dissem.*` counters.
//!
//! The crate is std-only, like the rest of the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod batch;
pub mod dissem;
pub mod pool;
pub mod seal;

pub use batch::{
    batch_txs, encode_batch, make_tx, tx_client_id, tx_timestamp_us, BATCH_TX_OVERHEAD,
    TX_TIMESTAMP_BYTES,
};
pub use dissem::{
    batch_digest, BatchStore, DissemCounters, DissemPlane, DissemStats, ProposablePool,
};
pub use pool::{Mempool, MempoolConfig, MempoolCounters, SubmitError, Tx};
pub use seal::{Seal, SealedBatch, Sealer};
