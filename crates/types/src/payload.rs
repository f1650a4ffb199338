//! Block payloads.
//!
//! The paper's evaluation replaced the mempool by having leaders "create
//! parametrically sized payloads during the block creation process, with
//! individual payload items being 180 bytes in size" (§VI). The simulator
//! does the same with a *synthetic* payload that records only its size and a
//! content digest — so that simulating a 9 MB block does not allocate 9 MB,
//! while the bandwidth model still charges for every byte.
//!
//! The networked runtime never puts transaction bytes in a block: batches
//! travel on the dissemination plane and a block carries 40-byte
//! [`BatchRef`]s to them. The digest of the reference list is computed
//! **once** at construction and cached, so cloning a payload through block →
//! wire frame → per-peer queues is a reference-count bump and
//! `Block::assemble` reads a cached digest.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use moonshot_crypto::Digest;

use crate::wire::WireSize;

/// Size of one payload item in bytes, as in the paper's evaluation.
pub const PAYLOAD_ITEM_BYTES: u64 = 180;

/// A reference to a disseminated transaction batch: the batch's content
/// digest plus its byte size. Digest-only proposals carry a list of these
/// instead of the batch bytes; the bytes travel on the dissemination plane
/// and are resolved from each node's batch store.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct BatchRef {
    /// Content digest of the batch bytes (the dissemination-plane key).
    pub digest: Digest,
    /// Size of the referenced batch in bytes.
    pub bytes: u64,
}

impl fmt::Debug for BatchRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BatchRef({}, {} B)", self.digest.short(), self.bytes)
    }
}

/// Digest of a batch-reference list: O(refs), not O(payload bytes) — a
/// proposal is assembled on the driver without touching batch bytes, which
/// is the entire point of the dissemination plane.
fn batch_refs_digest(refs: &[BatchRef]) -> Digest {
    let mut buf = Vec::with_capacity(refs.len() * 40);
    for r in refs {
        buf.extend_from_slice(r.digest.as_bytes());
        buf.extend_from_slice(&r.bytes.to_le_bytes());
    }
    Digest::hash_parts(&[b"moonshot-batch-refs", &buf])
}

/// The transactions carried by a block (`b_v` in the paper).
#[derive(Clone)]
pub enum Payload {
    /// A stand-in for `size` bytes of transactions with the given digest.
    Synthetic {
        /// Total payload size in bytes.
        size: u64,
        /// Digest standing in for the payload contents.
        digest: Digest,
    },
    /// References to batches already travelling on the dissemination
    /// plane. The block id commits to the reference list
    /// (via the cached digest); voters resolve every reference in their
    /// batch store before voting, so committed bytes are recoverable
    /// without ever riding a proposal.
    Batches {
        /// The referenced batches, in proposal order.
        refs: Arc<[BatchRef]>,
        /// Cached digest of the reference list, computed once.
        digest: Digest,
    },
}

impl Payload {
    /// The empty payload: no batch references. Its digest is computed once
    /// per process.
    pub fn empty() -> Self {
        static EMPTY: OnceLock<Digest> = OnceLock::new();
        let digest = *EMPTY.get_or_init(|| batch_refs_digest(&[]));
        Payload::Batches { refs: Arc::from([]), digest }
    }

    /// A synthetic payload of `items` × 180-byte items, deterministically
    /// keyed by `(view_seed)` so equal parameters produce equal payloads.
    pub fn synthetic_items(items: u64, view_seed: u64) -> Self {
        let size = items * PAYLOAD_ITEM_BYTES;
        Payload::Synthetic {
            size,
            digest: Digest::hash_parts(&[
                b"moonshot-synthetic-payload",
                &items.to_le_bytes(),
                &view_seed.to_le_bytes(),
            ]),
        }
    }

    /// A synthetic payload of approximately `bytes` bytes (rounded down to a
    /// whole number of 180-byte items).
    pub fn synthetic_bytes(bytes: u64, view_seed: u64) -> Self {
        Payload::synthetic_items(bytes / PAYLOAD_ITEM_BYTES, view_seed)
    }

    /// A payload referencing disseminated batches. Hashes only the 40-byte
    /// references (never batch bytes), on the calling thread.
    pub fn batches(refs: impl Into<Arc<[BatchRef]>>) -> Self {
        let refs = refs.into();
        let digest = batch_refs_digest(&refs);
        Payload::Batches { refs, digest }
    }

    /// Payload size in bytes. For batch references this is the total size
    /// of the *referenced* batches — the data the block commits, not the
    /// 40-byte references that ride the proposal.
    pub fn size(&self) -> u64 {
        match self {
            Payload::Synthetic { size, .. } => *size,
            Payload::Batches { refs, .. } => refs.iter().map(|r| r.bytes).sum(),
        }
    }

    /// Number of 180-byte items this payload represents.
    pub fn item_count(&self) -> u64 {
        self.size() / PAYLOAD_ITEM_BYTES
    }

    /// Digest of the payload contents, used inside the block id. Reads the
    /// cached digest — it never re-hashes.
    pub fn digest(&self) -> Digest {
        match self {
            Payload::Synthetic { digest, .. } => *digest,
            Payload::Batches { digest, .. } => *digest,
        }
    }

    /// The referenced batches, unless this is a synthetic payload.
    pub fn batch_refs(&self) -> Option<&[BatchRef]> {
        match self {
            Payload::Batches { refs, .. } => Some(refs),
            Payload::Synthetic { .. } => None,
        }
    }

    /// Re-derives the digest from the carried contents and compares it
    /// against the carried digest. `false` means the reference list was
    /// tampered with relative to what the block id commits to. Synthetic
    /// payloads are their digest by definition. O(refs); availability of the
    /// referenced bytes is enforced by the vote gate, not here.
    pub fn digest_matches_contents(&self) -> bool {
        match self {
            Payload::Synthetic { .. } => true,
            Payload::Batches { refs, digest } => batch_refs_digest(refs) == *digest,
        }
    }
}

// Equality and hashing go through the cached digest, never the contents:
// two payloads with equal digests are the same payload for block-identity
// purposes (that is exactly what the block id commits to).
impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (
                Payload::Synthetic { size: sa, digest: a },
                Payload::Synthetic { size: sb, digest: b },
            ) => sa == sb && a == b,
            (Payload::Batches { digest: a, .. }, Payload::Batches { digest: b, .. }) => a == b,
            _ => false,
        }
    }
}

impl Eq for Payload {}

impl Hash for Payload {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Payload::Synthetic { size, digest } => {
                state.write_u8(1);
                size.hash(state);
                digest.hash(state);
            }
            Payload::Batches { digest, .. } => {
                state.write_u8(2);
                digest.hash(state);
            }
        }
    }
}

impl WireSize for Payload {
    fn wire_size(&self) -> usize {
        // Matches the moonshot-wire codec exactly: a variant tag, then for
        // synthetic payloads a u64 size + the content digest + `size` filler
        // bytes (a real transport would genuinely carry the payload's bytes).
        match self {
            Payload::Synthetic { size, .. } => 1 + 8 + 32 + *size as usize,
            // The wire carries a u32 count and the 40-byte references, never
            // the batch bytes — this is what frees proposals from the
            // leader's O(n²) payload multicast.
            Payload::Batches { refs, .. } => 1 + 4 + refs.len() * 40,
        }
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Payload::Synthetic { size, digest } => {
                write!(f, "Payload::Synthetic({size} bytes, {})", digest.short())
            }
            Payload::Batches { refs, digest } => {
                write!(
                    f,
                    "Payload::Batches({} refs, {} bytes, {})",
                    refs.len(),
                    self.size(),
                    digest.short()
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_payload_is_zero_sized() {
        assert_eq!(Payload::empty().size(), 0);
        // The codec still frames an empty payload: tag + u32 ref count.
        assert_eq!(Payload::empty().wire_size(), 5);
        assert_eq!(Payload::empty().item_count(), 0);
        assert_eq!(Payload::empty(), Payload::batches(Vec::new()));
        assert!(Payload::empty().digest_matches_contents());
    }

    #[test]
    fn wire_size_is_bytes_plus_constant_header() {
        let a = Payload::synthetic_bytes(1_800, 0);
        let b = Payload::synthetic_bytes(18_000, 0);
        assert_eq!(b.wire_size() - a.wire_size(), (18_000 - 1_800) as usize);
    }

    #[test]
    fn synthetic_size_is_items_times_180() {
        let p = Payload::synthetic_items(10, 0);
        assert_eq!(p.size(), 1800);
        assert_eq!(p.item_count(), 10);
    }

    #[test]
    fn synthetic_bytes_rounds_down_to_items() {
        let p = Payload::synthetic_bytes(1_000, 0);
        assert_eq!(p.size(), 5 * PAYLOAD_ITEM_BYTES); // 900
    }

    #[test]
    fn synthetic_is_deterministic_per_seed() {
        assert_eq!(Payload::synthetic_items(5, 7), Payload::synthetic_items(5, 7));
        assert_ne!(
            Payload::synthetic_items(5, 7).digest(),
            Payload::synthetic_items(5, 8).digest()
        );
    }

    #[test]
    fn batch_refs_payload_sizes_count_the_referenced_bytes() {
        let refs = vec![
            BatchRef { digest: Digest::hash(b"batch-a"), bytes: 180_000 },
            BatchRef { digest: Digest::hash(b"batch-b"), bytes: 20_000 },
        ];
        let p = Payload::batches(refs.clone());
        assert_eq!(p.size(), 200_000);
        assert_eq!(p.batch_refs().unwrap(), &refs[..]);
        assert!(p.digest_matches_contents());
        // Wire size is the references, not the referenced bytes.
        assert_eq!(p.wire_size(), 1 + 4 + 2 * 40);
        assert!(Payload::synthetic_items(1, 0).batch_refs().is_none());
    }

    #[test]
    fn batch_refs_digest_commits_to_order_and_sizes() {
        let a = BatchRef { digest: Digest::hash(b"a"), bytes: 10 };
        let b = BatchRef { digest: Digest::hash(b"b"), bytes: 20 };
        assert_eq!(Payload::batches(vec![a, b]), Payload::batches(vec![a, b]));
        assert_ne!(Payload::batches(vec![a, b]).digest(), Payload::batches(vec![b, a]).digest());
        let resized = BatchRef { bytes: 11, ..a };
        assert_ne!(Payload::batches(vec![a]).digest(), Payload::batches(vec![resized]).digest());
        // A tampered reference list fails the integrity check, though it is
        // invisible to digest-based equality — the block id commits to the
        // digest, so integrity needs the explicit check.
        let honest = Payload::batches(vec![a, b]);
        let tampered = Payload::Batches { refs: Arc::from(vec![a]), digest: honest.digest() };
        assert!(!tampered.digest_matches_contents());
        assert_eq!(honest, tampered);
    }

    #[test]
    fn paper_payload_sizes_representable() {
        // The paper sweeps empty → 1.8 kB → 18 kB → 180 kB → 1.8 MB → 9 MB.
        for &bytes in &[0u64, 1_800, 18_000, 180_000, 1_800_000, 9_000_000] {
            let p = Payload::synthetic_bytes(bytes, 0);
            assert_eq!(p.size(), bytes);
        }
    }
}
