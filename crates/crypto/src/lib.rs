//! Cryptographic substrate for the Moonshot BFT reproduction.
//!
//! The Moonshot paper (DSN 2024) assumes digital signatures and a PKI (§II)
//! and its evaluation used ED25519 with certificate proofs assembled from
//! signature arrays (§VI). This crate provides that substrate:
//!
//! * [`sha256`] — a from-scratch, NIST-vector-tested SHA-256 used for block
//!   hashes (`H(B)`) and message digests, on the x86 SHA extensions where
//!   the CPU has them;
//! * [`keys`] — key pairs and the validator-set [`keys::Keyring`] (PKI) with
//!   quorum arithmetic (`n`, `f`, `2f+1`, `f+1`);
//! * [`signature`] — a keyed-hash authenticator with ED25519-compatible wire
//!   sizes (see the module docs for the substitution rationale);
//! * [`multisig`] — signature aggregates for block and timeout certificates;
//! * [`cache`] — a bounded [`cache::VerifiedCache`] of already-verified
//!   certificate digests plus a [`cache::batch_verify`] entry point, so each
//!   unique certificate costs one raw verification per node.
//!
//! # Examples
//!
//! Assemble and verify a quorum certificate proof:
//!
//! ```
//! use moonshot_crypto::{KeyPair, Keyring, MultiSig};
//!
//! let ring = Keyring::simulated(4); // n = 4, f = 1, quorum = 3
//! let msg = b"vote, H(B), view 7";
//! let mut proof = MultiSig::new();
//! for i in 0..3u64 {
//!     proof.add(i as u16, KeyPair::from_seed(i).sign(msg))?;
//! }
//! proof.verify_quorum(&ring, msg)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// One `unsafe` block is allowed: the call into the SHA-extension kernel
// after the CPU check (`sha256::accelerated`). CI counts it.
#![deny(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod cache;
pub mod keys;
pub mod multisig;
pub mod sha256;
pub mod signature;

pub use cache::{batch_verify, BatchItem, CacheStats, VerifiedCache};
pub use keys::{KeyPair, Keyring, PublicKey, SecretKey, SignerIndex};
pub use multisig::{MultiSig, MultiSigError};
pub use sha256::{Digest, Sha256};
pub use signature::Signature;
