//! The batch dissemination plane's node-local state.
//!
//! In digest-only mode, proposals carry [`moonshot_types::BatchRef`]s
//! instead of payload bytes: the assembler seals a batch, hashes it once
//! ([`batch_digest`]) on its own thread, and hands it to the driver through
//! a [`DissemQueue`]. The driver broadcasts the bytes as a `BatchPush`
//! frame *before* the batch becomes proposable, so by the time a voter
//! sees the digest inside a proposal the bytes are normally already in its
//! [`BatchStore`]. Stragglers (a dropped push, a restarted node) recover
//! through the `BatchRequest`/`BatchResponse` fetch path driven by
//! `moonshot-consensus`'s retrying batch fetcher.
//!
//! Ownership: the [`BatchStore`] is shared between transport reader
//! threads (which validate and insert pushed/fetched batches and serve
//! fetch requests) and the driver (which gates voting on resolvability and
//! reconstructs payload bytes at commit). The [`DissemQueue`] is shared
//! between the assembler thread (producer of sealed batches) and the
//! driver (pusher + payload source). All state is internally locked; no
//! method blocks on anything but a short mutex.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::Thread;

use moonshot_crypto::Digest;
use moonshot_types::BatchRef;

/// Content digest of a sealed batch's framed bytes. This is the identity
/// that travels in `BatchPush`/`BatchRequest`/`BatchResponse` frames and
/// in `Payload::Batches` refs; receivers always recompute it before
/// inserting, so a corrupt or forged push can never poison the store.
pub fn batch_digest(bytes: &[u8]) -> Digest {
    Digest::hash_parts(&[b"moonshot-batch", bytes])
}

/// Monotone counters for the dissemination plane, snapshotted into node
/// metrics as `dissem.*`.
#[derive(Debug, Default)]
pub struct DissemCounters {
    /// Batches this node broadcast on the push path (driver).
    pub batches_pushed: AtomicU64,
    /// Bytes this node broadcast on the push path (driver).
    pub batch_bytes_pushed: AtomicU64,
    /// Pushed/fetched batches accepted into the local store (readers).
    pub batches_stored: AtomicU64,
    /// Incoming batch frames whose recomputed digest did not match the
    /// advertised one (readers; dropped without storing).
    pub digest_mismatches: AtomicU64,
    /// `BatchRequest` frames this node sent (driver fetch path).
    pub fetches: AtomicU64,
    /// `BatchRequest` frames this node answered from its store (readers).
    pub fetches_served: AtomicU64,
    /// `BatchRequest` frames this node could not answer (readers).
    pub fetches_missed: AtomicU64,
    /// Proposals whose vote was deferred on at least one unresolved ref.
    pub votes_gated: AtomicU64,
    /// Batches evicted from the store by the byte budget.
    pub evicted: AtomicU64,
    /// Batches pruned from the store because the chain committed past
    /// them (see [`BatchStore::prune_committed`]).
    pub pruned_committed: AtomicU64,
}

/// A plain snapshot of [`DissemCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DissemStats {
    /// See [`DissemCounters::batches_pushed`].
    pub batches_pushed: u64,
    /// See [`DissemCounters::batch_bytes_pushed`].
    pub batch_bytes_pushed: u64,
    /// See [`DissemCounters::batches_stored`].
    pub batches_stored: u64,
    /// See [`DissemCounters::digest_mismatches`].
    pub digest_mismatches: u64,
    /// See [`DissemCounters::fetches`].
    pub fetches: u64,
    /// See [`DissemCounters::fetches_served`].
    pub fetches_served: u64,
    /// See [`DissemCounters::fetches_missed`].
    pub fetches_missed: u64,
    /// See [`DissemCounters::votes_gated`].
    pub votes_gated: u64,
    /// See [`DissemCounters::evicted`].
    pub evicted: u64,
    /// See [`DissemCounters::pruned_committed`].
    pub pruned_committed: u64,
}

impl DissemCounters {
    /// Snapshot every counter.
    pub fn stats(&self) -> DissemStats {
        DissemStats {
            batches_pushed: self.batches_pushed.load(Ordering::Relaxed),
            batch_bytes_pushed: self.batch_bytes_pushed.load(Ordering::Relaxed),
            batches_stored: self.batches_stored.load(Ordering::Relaxed),
            digest_mismatches: self.digest_mismatches.load(Ordering::Relaxed),
            fetches: self.fetches.load(Ordering::Relaxed),
            fetches_served: self.fetches_served.load(Ordering::Relaxed),
            fetches_missed: self.fetches_missed.load(Ordering::Relaxed),
            votes_gated: self.votes_gated.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            pruned_committed: self.pruned_committed.load(Ordering::Relaxed),
        }
    }
}

/// How many freshly stored digests the store remembers for the driver to
/// drain. The driver drains every loop iteration (sub-millisecond), so
/// this only bounds a pathological stall; overflow drops the *oldest*
/// notification (the batch itself stays stored and resolvable — a missed
/// notification at worst defers a gated vote to the fetch timeout).
const STORED_LOG_CAP: usize = 64 * 1024;

#[derive(Debug, Default)]
struct StoreInner {
    map: HashMap<Digest, Arc<[u8]>>,
    /// Insertion order for byte-budget FIFO eviction. May hold digests
    /// already removed by [`BatchStore::prune_committed`]; the eviction
    /// loop skips them.
    order: VecDeque<Digest>,
    bytes: usize,
    /// Digests stored since the driver last drained — its wake-up list for
    /// releasing gated votes and recording `BatchStored` trace events.
    stored_log: VecDeque<Digest>,
    /// Digest → height of the committed block that referenced it, recorded
    /// by the driver at commit time. The prune floor walks this map.
    committed: HashMap<Digest, u64>,
}

/// The node-local content-addressed batch store.
///
/// Bounded by a byte budget with FIFO eviction: batches are pushed ahead
/// of the proposals that reference them and resolved again at commit, so
/// the live window is a few pipeline depths of batches; the budget only
/// guards against a peer spraying garbage. Insertion is keyed by digest —
/// the caller must have *verified* the digest against the bytes (readers
/// recompute via [`batch_digest`]).
pub struct BatchStore {
    inner: Mutex<StoreInner>,
    byte_budget: usize,
    counters: Arc<DissemCounters>,
}

impl BatchStore {
    /// An empty store evicting oldest-first past `byte_budget`.
    pub fn new(byte_budget: usize, counters: Arc<DissemCounters>) -> BatchStore {
        BatchStore { inner: Mutex::new(StoreInner::default()), byte_budget, counters }
    }

    /// Inserts a verified batch. Returns `true` if the digest was new.
    /// New digests are appended to the stored log for the driver to drain.
    pub fn insert(&self, digest: Digest, bytes: Arc<[u8]>) -> bool {
        let mut inner = self.inner.lock().unwrap();
        if inner.map.contains_key(&digest) {
            return false;
        }
        inner.bytes += bytes.len();
        inner.map.insert(digest, bytes);
        inner.order.push_back(digest);
        inner.stored_log.push_back(digest);
        if inner.stored_log.len() > STORED_LOG_CAP {
            inner.stored_log.pop_front();
        }
        while inner.bytes > self.byte_budget && inner.order.len() > 1 {
            if let Some(old) = inner.order.pop_front() {
                if let Some(b) = inner.map.remove(&old) {
                    inner.bytes -= b.len();
                    self.counters.evicted.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        drop(inner);
        self.counters.batches_stored.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// The bytes for `digest`, if resolvable locally.
    pub fn get(&self, digest: &Digest) -> Option<Arc<[u8]>> {
        self.inner.lock().unwrap().map.get(digest).cloned()
    }

    /// Whether `digest` is resolvable locally.
    pub fn contains(&self, digest: &Digest) -> bool {
        self.inner.lock().unwrap().map.contains_key(digest)
    }

    /// Records that the committed block at `height` referenced `digest`.
    /// Once the chain commits far enough past it (see
    /// [`prune_committed`](BatchStore::prune_committed)), the batch's
    /// bytes can be dropped — every correct node has either stored or can
    /// no longer need them, and the byte budget stops being the only thing
    /// standing between a long run and an ever-growing store.
    pub fn mark_committed(&self, digest: Digest, height: u64) {
        let mut inner = self.inner.lock().unwrap();
        let h = inner.committed.entry(digest).or_insert(height);
        *h = (*h).max(height);
    }

    /// Drops every batch whose committing block height is ≤ `floor`.
    /// Returns how many batches were pruned (also counted in
    /// `dissem.store_pruned_committed`). Callers keep a retention window
    /// (`floor = committed_height − RETAIN`) so recent batches stay
    /// fetchable by lagging peers.
    pub fn prune_committed(&self, floor: u64) -> usize {
        let mut inner = self.inner.lock().unwrap();
        let ripe: Vec<Digest> = inner
            .committed
            .iter()
            .filter(|(_, h)| **h <= floor)
            .map(|(d, _)| *d)
            .collect();
        let mut pruned = 0usize;
        for d in ripe {
            inner.committed.remove(&d);
            if let Some(b) = inner.map.remove(&d) {
                inner.bytes -= b.len();
                pruned += 1;
            }
        }
        if pruned > 0 {
            self.counters.pruned_committed.fetch_add(pruned as u64, Ordering::Relaxed);
            // Keep the FIFO eviction order from accumulating stale
            // entries across a long run.
            let StoreInner { map, order, .. } = &mut *inner;
            order.retain(|d| map.contains_key(d));
        }
        pruned
    }

    /// Drains the digests stored since the last call (driver only).
    pub fn take_stored(&self) -> Vec<Digest> {
        let mut inner = self.inner.lock().unwrap();
        inner.stored_log.drain(..).collect()
    }

    /// Batches currently stored.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently stored.
    pub fn bytes(&self) -> u64 {
        self.inner.lock().unwrap().bytes as u64
    }

    /// Every stored `(digest, bytes)` pair — the report-time directory a
    /// cluster uses to reconstruct digest-only payloads for tx accounting.
    pub fn snapshot(&self) -> Vec<(Digest, Arc<[u8]>)> {
        let inner = self.inner.lock().unwrap();
        inner.map.iter().map(|(d, b)| (*d, b.clone())).collect()
    }
}

impl fmt::Debug for BatchStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock().unwrap();
        f.debug_struct("BatchStore")
            .field("batches", &inner.map.len())
            .field("bytes", &inner.bytes)
            .field("byte_budget", &self.byte_budget)
            .finish()
    }
}

/// A sealed batch travelling from the assembler to the driver's push path.
#[derive(Clone, Debug)]
pub struct SealedBatch {
    /// [`batch_digest`] of `bytes`, computed on the assembler thread.
    pub digest: Digest,
    /// The framed batch bytes ([`crate::batch::encode_batch`]).
    pub bytes: Arc<[u8]>,
    /// Transactions in the batch.
    pub tx_count: u64,
    /// Seal time in µs since the cluster epoch (`BatchSealed` stage stamp).
    pub sealed_at_us: u64,
    /// Per-transaction mempool-queue delays (seal − submit, µs), computed
    /// on the assembler thread like [`crate::PreparedPayload::queue_us`].
    pub queue_us: Vec<u64>,
}

impl SealedBatch {
    /// The proposal-side reference to this batch.
    pub fn batch_ref(&self) -> BatchRef {
        BatchRef { digest: self.digest, bytes: self.bytes.len() as u64 }
    }
}

/// A batch that has been pushed to all peers and is waiting to be
/// referenced by a proposal.
#[derive(Clone, Debug)]
pub struct ProposableBatch {
    /// The reference the proposal will carry.
    pub batch: BatchRef,
    /// Transactions in the batch.
    pub tx_count: u64,
    /// Seal time (µs since cluster epoch).
    pub sealed_at_us: u64,
    /// Per-transaction mempool-queue delays (µs).
    pub queue_us: Vec<u64>,
}

#[derive(Debug, Default)]
struct QueueInner {
    /// Sealed, not yet pushed (assembler → driver).
    sealed: VecDeque<SealedBatch>,
    /// Pushed, not yet proposed (driver push step → payload source).
    proposable: VecDeque<ProposableBatch>,
    /// Bytes across both stages — the assembler's backpressure signal.
    backlog_bytes: u64,
}

/// The two-stage handoff queue of the dissemination plane: the assembler
/// appends sealed batches, the driver moves them to the proposable stage
/// *after* broadcasting their `BatchPush`, and the leader's payload source
/// drains proposable refs into a `Payload::Batches`. Push-before-propose
/// ordering is thus structural, not timing-dependent: a ref can only enter
/// a proposal after its bytes were handed to every peer's send queue, and
/// per-peer TCP FIFO keeps the push ahead of the proposal on the wire.
///
/// Neither side polls the other: see [`on_sealed`](DissemQueue::on_sealed)
/// and [`wake_on_drain`](DissemQueue::wake_on_drain).
#[derive(Default)]
pub struct DissemQueue {
    inner: Mutex<QueueInner>,
    /// The driver's wake-up. Re-settable: a restarted node's new driver
    /// takes over the plane its predecessor left.
    on_sealed: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
    /// The assembler thread, parked while the backlog sits at its cap.
    sealer: OnceLock<Thread>,
}

impl fmt::Debug for DissemQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DissemQueue").field("inner", &self.inner).finish_non_exhaustive()
    }
}

impl DissemQueue {
    /// An empty queue.
    pub fn new() -> DissemQueue {
        DissemQueue::default()
    }

    /// Registers what wakes the driver when the sealed stage goes from
    /// empty to non-empty (replacing any earlier registration). A driver
    /// that leaves batches behind in [`take_sealed`](DissemQueue::take_sealed)
    /// gets no second call for them and must come back on its own.
    pub fn on_sealed(&self, wake: impl Fn() + Send + Sync + 'static) {
        *self.on_sealed.lock().unwrap() = Some(Box::new(wake));
    }

    /// Names `sealer` as the thread to unpark whenever a proposal drains
    /// backlog. One sealer per queue; later calls are ignored.
    pub fn wake_on_drain(&self, sealer: Thread) {
        let _ = self.sealer.set(sealer);
    }

    /// Appends a sealed batch (assembler thread).
    pub fn push_sealed(&self, batch: SealedBatch) {
        let mut inner = self.inner.lock().unwrap();
        inner.backlog_bytes += batch.bytes.len() as u64;
        let was_empty = inner.sealed.is_empty();
        inner.sealed.push_back(batch);
        drop(inner);
        if was_empty {
            if let Some(wake) = &*self.on_sealed.lock().unwrap() {
                wake();
            }
        }
    }

    /// Takes up to `max` sealed batches for pushing (driver).
    pub fn take_sealed(&self, max: usize) -> Vec<SealedBatch> {
        let mut inner = self.inner.lock().unwrap();
        let n = inner.sealed.len().min(max);
        inner.sealed.drain(..n).collect()
    }

    /// Marks a pushed batch proposable (driver, after broadcasting).
    pub fn push_proposable(&self, batch: ProposableBatch) {
        self.inner.lock().unwrap().proposable.push_back(batch);
    }

    /// Drains proposable batches for one proposal, stopping at `max_refs`
    /// or once `max_bytes` of referenced payload is reached (always takes
    /// at least one when available, so an oversized batch still ships).
    pub fn drain_proposable(&self, max_refs: usize, max_bytes: u64) -> Vec<ProposableBatch> {
        let mut inner = self.inner.lock().unwrap();
        let mut out: Vec<ProposableBatch> = Vec::new();
        let mut bytes = 0u64;
        while out.len() < max_refs {
            let Some(front) = inner.proposable.front() else { break };
            if !out.is_empty() && bytes + front.batch.bytes > max_bytes {
                break;
            }
            bytes += front.batch.bytes;
            let b = inner.proposable.pop_front().unwrap();
            inner.backlog_bytes = inner.backlog_bytes.saturating_sub(b.batch.bytes);
            out.push(b);
        }
        drop(inner);
        if !out.is_empty() {
            if let Some(sealer) = self.sealer.get() {
                sealer.unpark();
            }
        }
        out
    }

    /// Bytes sealed but not yet proposed — the assembler stops sealing
    /// while this exceeds its backlog cap, which is what throttles the
    /// data plane to the speed of the ordering plane.
    pub fn backlog_bytes(&self) -> u64 {
        self.inner.lock().unwrap().backlog_bytes
    }

    /// Sealed batches awaiting push (diagnostics).
    pub fn sealed_len(&self) -> usize {
        self.inner.lock().unwrap().sealed.len()
    }

    /// Pushed batches awaiting proposal (diagnostics).
    pub fn proposable_len(&self) -> usize {
        self.inner.lock().unwrap().proposable.len()
    }
}

/// Everything the dissemination plane shares across threads on one node:
/// the store (readers + driver), the queue (assembler + driver), and the
/// counters (everyone). One `Arc<DissemPlane>` is threaded through the
/// transport config, the driver, and the assembler.
#[derive(Debug)]
pub struct DissemPlane {
    /// The content-addressed batch store.
    pub store: BatchStore,
    /// The assembler → driver → payload-source handoff queue.
    pub queue: DissemQueue,
    /// Shared counters (`dissem.*` metrics).
    pub counters: Arc<DissemCounters>,
}

impl DissemPlane {
    /// A fresh plane whose store evicts past `store_budget_bytes`.
    pub fn new(store_budget_bytes: usize) -> Arc<DissemPlane> {
        let counters = Arc::new(DissemCounters::default());
        Arc::new(DissemPlane {
            store: BatchStore::new(store_budget_bytes, counters.clone()),
            queue: DissemQueue::new(),
            counters,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arc_bytes(n: usize, fill: u8) -> Arc<[u8]> {
        Arc::from(vec![fill; n])
    }

    #[test]
    fn store_dedups_and_reports_stored_log() {
        let plane = DissemPlane::new(1 << 20);
        let b = arc_bytes(100, 7);
        let d = batch_digest(&b);
        assert!(plane.store.insert(d, b.clone()));
        assert!(!plane.store.insert(d, b.clone()), "duplicate insert must be a no-op");
        assert_eq!(plane.store.len(), 1);
        assert_eq!(plane.store.bytes(), 100);
        assert_eq!(plane.store.get(&d).as_deref(), Some(&b[..]));
        assert!(plane.store.contains(&d));
        assert_eq!(plane.store.take_stored(), vec![d]);
        assert!(plane.store.take_stored().is_empty(), "stored log drains once");
        assert_eq!(plane.counters.stats().batches_stored, 1);
    }

    #[test]
    fn store_evicts_oldest_past_byte_budget() {
        let plane = DissemPlane::new(250);
        let batches: Vec<(Digest, Arc<[u8]>)> = (0u8..4)
            .map(|i| {
                let b = arc_bytes(100, i);
                (batch_digest(&b), b)
            })
            .collect();
        for (d, b) in &batches {
            plane.store.insert(*d, b.clone());
        }
        // 400 B inserted against a 250 B budget: the two oldest are gone.
        assert!(!plane.store.contains(&batches[0].0));
        assert!(!plane.store.contains(&batches[1].0));
        assert!(plane.store.contains(&batches[2].0));
        assert!(plane.store.contains(&batches[3].0));
        assert!(plane.store.bytes() <= 250);
        assert_eq!(plane.counters.stats().evicted, 2);
    }

    #[test]
    fn store_prunes_batches_committed_below_the_floor() {
        let plane = DissemPlane::new(1 << 20);
        let batches: Vec<(Digest, Arc<[u8]>)> = (0u8..4)
            .map(|i| {
                let b = arc_bytes(100, i);
                (batch_digest(&b), b)
            })
            .collect();
        for (d, b) in &batches {
            plane.store.insert(*d, b.clone());
        }
        // Heights 1..=3 committed; batch 3 never referenced by a commit.
        plane.store.mark_committed(batches[0].0, 1);
        plane.store.mark_committed(batches[1].0, 2);
        plane.store.mark_committed(batches[2].0, 3);
        // A re-reference at a higher height keeps the max.
        plane.store.mark_committed(batches[0].0, 2);

        assert_eq!(plane.store.prune_committed(0), 0, "floor below every commit");
        assert_eq!(plane.store.prune_committed(2), 2, "heights 1 and 2 are ripe");
        assert!(!plane.store.contains(&batches[0].0));
        assert!(!plane.store.contains(&batches[1].0));
        assert!(plane.store.contains(&batches[2].0), "height 3 above the floor");
        assert!(plane.store.contains(&batches[3].0), "uncommitted batches stay");
        assert_eq!(plane.store.bytes(), 200);
        assert_eq!(plane.counters.stats().pruned_committed, 2);
        // Pruning is idempotent: the ripe set was consumed.
        assert_eq!(plane.store.prune_committed(2), 0);
    }

    /// The driver's wake-up runs once per empty → non-empty transition of
    /// the sealed stage, not once per batch, and a re-registration (a
    /// restarted driver) replaces the old hook.
    #[test]
    fn on_sealed_fires_when_the_sealed_stage_goes_non_empty() {
        let q = DissemQueue::new();
        let sealed = |fill: u8| {
            let bytes = arc_bytes(100, fill);
            SealedBatch {
                digest: batch_digest(&bytes),
                bytes,
                tx_count: 1,
                sealed_at_us: 0,
                queue_us: vec![1],
            }
        };
        let counter = |q: &DissemQueue| {
            let calls = Arc::new(AtomicU64::new(0));
            let c = calls.clone();
            q.on_sealed(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
            calls
        };
        q.push_sealed(sealed(0)); // nobody registered: nothing to run
        let first = counter(&q);
        q.push_sealed(sealed(1));
        assert_eq!(first.load(Ordering::Relaxed), 0, "stage was already non-empty");
        assert_eq!(q.take_sealed(1).len(), 1);
        q.push_sealed(sealed(2));
        assert_eq!(first.load(Ordering::Relaxed), 0, "one batch was left behind");
        assert_eq!(q.take_sealed(8).len(), 2);
        q.push_sealed(sealed(3));
        q.push_sealed(sealed(4));
        assert_eq!(first.load(Ordering::Relaxed), 1);
        let second = counter(&q);
        assert_eq!(q.take_sealed(8).len(), 2);
        q.push_sealed(sealed(5));
        assert_eq!((first.load(Ordering::Relaxed), second.load(Ordering::Relaxed)), (1, 1));
    }

    #[test]
    fn queue_stages_sealed_then_proposable_with_backlog_accounting() {
        let q = DissemQueue::new();
        for i in 0..3u8 {
            let bytes = arc_bytes(1_000, i);
            let digest = batch_digest(&bytes);
            q.push_sealed(SealedBatch {
                digest,
                bytes,
                tx_count: 5,
                sealed_at_us: i as u64,
                queue_us: vec![1; 5],
            });
        }
        assert_eq!(q.backlog_bytes(), 3_000);
        assert_eq!(q.sealed_len(), 3);
        // The driver pushes two, then stages them proposable.
        let pushed = q.take_sealed(2);
        assert_eq!(pushed.len(), 2);
        assert_eq!(q.sealed_len(), 1);
        for s in &pushed {
            assert_eq!(s.batch_ref().bytes, 1_000);
            q.push_proposable(ProposableBatch {
                batch: s.batch_ref(),
                tx_count: s.tx_count,
                sealed_at_us: s.sealed_at_us,
                queue_us: s.queue_us.clone(),
            });
        }
        // Backlog covers both stages until a proposal drains the refs.
        assert_eq!(q.backlog_bytes(), 3_000);
        // A 1.5 kB byte cap takes the first ref plus the second's overflow
        // guard: only one fits after the first.
        let refs = q.drain_proposable(8, 1_500);
        assert_eq!(refs.len(), 1);
        assert_eq!(q.backlog_bytes(), 2_000);
        // Ref cap binds too.
        let refs = q.drain_proposable(1, u64::MAX);
        assert_eq!(refs.len(), 1);
        assert_eq!(q.backlog_bytes(), 1_000);
        assert!(q.drain_proposable(8, u64::MAX).is_empty());
        // An oversized head still ships alone.
        q.push_proposable(ProposableBatch {
            batch: BatchRef { digest: batch_digest(b"big"), bytes: 10_000 },
            tx_count: 1,
            sealed_at_us: 9,
            queue_us: Vec::new(),
        });
        assert_eq!(q.drain_proposable(8, 1_500).len(), 1);
    }
}
