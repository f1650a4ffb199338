//! Core data model for the Moonshot BFT reproduction (DSN 2024).
//!
//! This crate defines the vocabulary shared by every protocol in the
//! workspace: strongly typed [`View`]s, [`Height`]s and [`NodeId`]s, chain
//! [`Block`]s with parametric [`Payload`]s, the three vote types of
//! Pipelined Moonshot, and block / timeout certificates with full
//! quorum-signature validation.
//!
//! # Examples
//!
//! Build a two-block chain and certify the tip:
//!
//! ```
//! use moonshot_crypto::{KeyPair, Keyring};
//! use moonshot_types::{
//!     Block, NodeId, Payload, QuorumCertificate, SignedVote, View, Vote, VoteKind,
//! };
//!
//! let ring = Keyring::simulated(4);
//! let genesis = Block::genesis();
//! let block = Block::build(View(1), NodeId(0), &genesis, Payload::empty());
//!
//! let votes: Vec<SignedVote> = (0..3u16)
//!     .map(|i| {
//!         SignedVote::sign(
//!             Vote {
//!                 kind: VoteKind::Normal,
//!                 block_id: block.id(),
//!                 block_height: block.height(),
//!                 view: block.view(),
//!             },
//!             NodeId(i),
//!             &KeyPair::from_seed(i as u64),
//!         )
//!     })
//!     .collect();
//! let qc = QuorumCertificate::from_votes(&votes, &ring)?;
//! assert!(qc.certifies(&block));
//! # Ok::<(), moonshot_types::CertificateError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod block;
pub mod certificate;
pub mod ids;
pub mod payload;
pub mod time;
pub mod vote;
pub mod wire;

/// Deterministic RNG, re-exported from [`moonshot_rng`].
pub use moonshot_rng as rng;

pub use block::{Block, BlockId};
pub use certificate::{
    CertificateError, EntryCertificate, QuorumCertificate, SignedTimeout, TimeoutCertificate,
    TimeoutContent, TimeoutEntry,
};
pub use ids::{Height, NodeId, View};
pub use payload::{BatchRef, Payload, PAYLOAD_ITEM_BYTES};
pub use rng::DetRng;

pub use time::{EventQueue, SimDuration, SimTime};
pub use vote::{CommitVote, SignedCommitVote, SignedVote, Vote, VoteKind};
pub use wire::WireSize;
