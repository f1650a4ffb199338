//! A bounded cache of already-verified certificate digests.
//!
//! Moonshot's vote multicasting makes every node assemble O(n²) signatures
//! per view, and the same quorum/timeout certificate reaches a node many
//! times — embedded in proposals, re-sent as standalone certificates, and
//! carried inside timeout messages. Re-checking the full signature array on
//! every delivery puts redundant public-key cryptography on the hot path.
//!
//! [`VerifiedCache`] remembers the digests of certificates whose proofs
//! already verified, so each *unique* certificate costs one raw multisig
//! verification per node and every later delivery is a hash lookup. Entries
//! are keyed by a digest covering the certificate's full content *including
//! its proof bytes*, so a forged proof over a previously seen certificate
//! body can never alias a cached entry. Failed verifications are never
//! inserted.
//!
//! The cache is bounded and view-indexed: callers garbage-collect entries
//! below their committed view with [`VerifiedCache::gc_below`], and when the
//! bound is exceeded the lowest-view entries are evicted first (they are the
//! least likely to be delivered again).
//!
//! Counters are plain atomics rather than `moonshot-telemetry` metrics
//! because this crate sits below the telemetry crate in the dependency
//! order; the node runtime snapshots [`VerifiedCache::stats`] into its
//! metrics registry at shutdown.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::keys::{Keyring, SignerIndex};
use crate::sha256::Digest;
use crate::signature::Signature;

/// Default bound on cached entries; at n = 100 validators a view produces a
/// handful of certificates, so this covers thousands of views of history.
pub const DEFAULT_CACHE_CAPACITY: usize = 16 * 1024;

/// Counter snapshot of a [`VerifiedCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an already-verified entry.
    pub hits: u64,
    /// Lookups that found nothing (the caller then runs a raw verification).
    pub misses: u64,
    /// Successful verifications inserted into the cache.
    pub inserts: u64,
    /// Verifications that failed after a miss (never cached).
    pub rejects: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Entries currently cached.
    pub len: u64,
    /// Calls into [`batch_verify`] recorded via
    /// [`VerifiedCache::note_batch`].
    pub batch_calls: u64,
    /// Total signatures submitted across those calls; `batch_items /
    /// batch_calls` is the mean batch size verification achieved.
    pub batch_items: u64,
}

#[derive(Debug, Default)]
struct CacheInner {
    /// digest → view the entry was formed in.
    entries: HashMap<Digest, u64>,
    /// view → digests formed in that view, for GC and low-view-first
    /// eviction.
    by_view: BTreeMap<u64, Vec<Digest>>,
}

/// A bounded, view-GC'd set of certificate digests that already verified.
///
/// Thread-safe: lookups and inserts take an internal mutex, and the
/// counters are atomics, so per-peer reader threads and the driver can
/// share one cache behind an `Arc`.
///
/// The check-then-insert sequence is deliberately not atomic: two threads
/// racing on the *same* brand-new certificate may both miss and both verify
/// it once. That costs one redundant verification in a rare window and
/// keeps the lock scope free of cryptography.
///
/// # Examples
///
/// ```
/// use moonshot_crypto::{Digest, VerifiedCache};
///
/// let cache = VerifiedCache::new(8);
/// let key = Digest::hash(b"certificate bytes");
/// assert!(!cache.contains(&key)); // miss: caller verifies the proof
/// cache.insert(key, 7);           // proof was valid in view 7
/// assert!(cache.contains(&key));  // later deliveries are hits
/// cache.gc_below(8);
/// assert!(!cache.contains(&key));
/// ```
#[derive(Debug)]
pub struct VerifiedCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    rejects: AtomicU64,
    evictions: AtomicU64,
    batch_calls: AtomicU64,
    batch_items: AtomicU64,
}

impl Default for VerifiedCache {
    fn default() -> Self {
        VerifiedCache::new(DEFAULT_CACHE_CAPACITY)
    }
}

impl VerifiedCache {
    /// Creates a cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        VerifiedCache {
            inner: Mutex::new(CacheInner::default()),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            rejects: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            batch_calls: AtomicU64::new(0),
            batch_items: AtomicU64::new(0),
        }
    }

    /// Whether `key` is known-verified. Counts a hit or a miss.
    pub fn contains(&self, key: &Digest) -> bool {
        let hit = self.inner.lock().unwrap().entries.contains_key(key);
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Records that the certificate digested to `key`, formed in `view`,
    /// verified successfully. Evicts lowest-view entries beyond capacity.
    pub fn insert(&self, key: Digest, view: u64) {
        let mut inner = self.inner.lock().unwrap();
        if inner.entries.insert(key, view).is_none() {
            inner.by_view.entry(view).or_default().push(key);
            self.inserts.fetch_add(1, Ordering::Relaxed);
        }
        while inner.entries.len() > self.capacity {
            let Some((&oldest, _)) = inner.by_view.iter().next() else { break };
            let Some(digests) = inner.by_view.remove(&oldest) else { break };
            for d in digests {
                if inner.entries.remove(&d).is_some() {
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Records a verification that failed after a miss. Failed proofs are
    /// never inserted; this only keeps the counters honest.
    pub fn note_rejected(&self) {
        self.rejects.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one [`batch_verify`] call over `items` signatures, so the
    /// mean batch size verification achieves is observable.
    /// `batch_verify` itself is a free function below the cache in the
    /// dependency order; the verify pipeline owns both and calls this next
    /// to it.
    pub fn note_batch(&self, items: usize) {
        self.batch_calls.fetch_add(1, Ordering::Relaxed);
        self.batch_items.fetch_add(items as u64, Ordering::Relaxed);
    }

    /// Drops every entry formed in a view below `view`. Protocols call this
    /// alongside their own state GC once a view can no longer matter.
    pub fn gc_below(&self, view: u64) {
        let mut inner = self.inner.lock().unwrap();
        let keep = inner.by_view.split_off(&view);
        let dead = std::mem::replace(&mut inner.by_view, keep);
        for digests in dead.into_values() {
            for d in digests {
                inner.entries.remove(&d);
            }
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            rejects: self.rejects.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len: self.len() as u64,
            batch_calls: self.batch_calls.load(Ordering::Relaxed),
            batch_items: self.batch_items.load(Ordering::Relaxed),
        }
    }
}

/// One signature check in a batch: `(signer, message, signature)`.
pub type BatchItem<'a> = (SignerIndex, &'a [u8], &'a Signature);

/// Verifies a batch of independent signatures against the PKI in one call.
///
/// Returns the index of the first failing item, so a verify pool can drop
/// exactly the offending message. The substrate's keyed-hash authenticator
/// has no algebraic batching shortcut (unlike real ED25519 batch
/// verification), so this is a straight loop — but it is the single entry
/// point a future batched backend slots into, and it keeps per-item
/// dispatch out of caller hot loops.
///
/// # Examples
///
/// ```
/// use moonshot_crypto::{batch_verify, KeyPair, Keyring};
///
/// let ring = Keyring::simulated(4);
/// let sig0 = KeyPair::from_seed(0).sign(b"m0");
/// let sig1 = KeyPair::from_seed(1).sign(b"m1");
/// let items = [(0u16, &b"m0"[..], &sig0), (1u16, &b"m1"[..], &sig1)];
/// assert!(batch_verify(&ring, &items).is_ok());
/// ```
pub fn batch_verify(ring: &Keyring, items: &[BatchItem<'_>]) -> Result<(), usize> {
    for (i, (signer, msg, sig)) in items.iter().enumerate() {
        if !ring.verify(*signer, msg, sig) {
            return Err(i);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyPair;

    fn key(i: u64) -> Digest {
        Digest::hash(&i.to_le_bytes())
    }

    #[test]
    fn miss_then_insert_then_hit() {
        let cache = VerifiedCache::new(8);
        assert!(!cache.contains(&key(1)));
        cache.insert(key(1), 3);
        assert!(cache.contains(&key(1)));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.len), (1, 1, 1, 1));
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let cache = VerifiedCache::new(8);
        cache.insert(key(1), 3);
        cache.insert(key(1), 3);
        let s = cache.stats();
        assert_eq!((s.inserts, s.len), (1, 1));
    }

    #[test]
    fn gc_drops_only_old_views() {
        let cache = VerifiedCache::new(8);
        cache.insert(key(1), 3);
        cache.insert(key(2), 5);
        cache.gc_below(5);
        assert!(!cache.contains(&key(1)));
        assert!(cache.contains(&key(2)));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_evicts_lowest_views_first() {
        let cache = VerifiedCache::new(4);
        for v in 0..6u64 {
            cache.insert(key(v), v);
        }
        // Views 0 and 1 were evicted; the newest four remain.
        assert_eq!(cache.len(), 4);
        assert!(!cache.contains(&key(0)));
        assert!(!cache.contains(&key(1)));
        for v in 2..6u64 {
            assert!(cache.contains(&key(v)), "view {v} should survive");
        }
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn rejects_are_counted_but_not_cached() {
        let cache = VerifiedCache::new(8);
        assert!(!cache.contains(&key(9)));
        cache.note_rejected();
        assert!(!cache.contains(&key(9))); // still a miss
        let s = cache.stats();
        assert_eq!((s.rejects, s.len, s.misses), (1, 0, 2));
    }

    #[test]
    fn batch_verify_accepts_valid_and_pinpoints_invalid() {
        let ring = Keyring::simulated(4);
        let s0 = KeyPair::from_seed(0).sign(b"a");
        let s1 = KeyPair::from_seed(1).sign(b"b");
        let forged = KeyPair::from_seed(2).sign(b"b"); // wrong signer for idx 3
        let ok = [(0u16, &b"a"[..], &s0), (1u16, &b"b"[..], &s1)];
        assert_eq!(batch_verify(&ring, &ok), Ok(()));
        let bad = [(0u16, &b"a"[..], &s0), (3u16, &b"b"[..], &forged)];
        assert_eq!(batch_verify(&ring, &bad), Err(1));
    }
}
