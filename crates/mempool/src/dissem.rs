//! The batch dissemination plane's node-local state.
//!
//! Proposals carry [`moonshot_types::BatchRef`]s, never transaction
//! bytes: the assembler seals a batch, hashes it once
//! ([`batch_digest`]) on its own thread, and hands it to the driver through
//! a [`DissemQueue`]. The driver stores the bytes and broadcasts them as a
//! `BatchPush` frame, and every node — the sealer after its push, the
//! others on arrival — enters the batch into its [`ProposablePool`]:
//! whoever leads next proposes every batch it holds that no block has
//! carried yet, not only the ones it sealed. A voter whose copy of the push
//! is still on the way (or was lost) recovers through the
//! `BatchRequest`/`BatchResponse` fetch path driven by
//! `moonshot-consensus`'s retrying batch fetcher.
//!
//! Ownership: the [`BatchStore`] is shared between the network pool's
//! shard loops (which validate and insert pushed/fetched batches and serve
//! fetch requests) and the driver (which gates voting on resolvability and
//! reconstructs payload bytes at commit). The [`DissemQueue`] is shared
//! between the assembler thread (producer of sealed batches) and the
//! driver (pusher); the [`ProposablePool`] is written by the driver and
//! read by the payload source it calls. All state is internally locked; no
//! method blocks on anything but a short mutex.

use std::collections::{BTreeMap, HashMap, VecDeque};
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

/// How many freshly stored batches the store remembers for the driver to
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
    /// Batches stored since the driver last drained — its list for entering
    /// them into the proposable pool, releasing gated votes and recording
    /// `BatchStored` trace events.
    stored_log: VecDeque<BatchRef>,
    /// Digest → height of the committed block that referenced it, recorded
    /// by the driver at commit time.
    committed: HashMap<Digest, u64>,
    /// `(height, digest)` per mark, in marking order. Commit heights only
    /// rise, so the prune floor reads the ripe marks off the front instead
    /// of walking the map once per commit.
    committed_log: VecDeque<(u64, Digest)>,
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
        inner.stored_log.push_back(BatchRef { digest, bytes: bytes.len() as u64 });
        inner.map.insert(digest, bytes);
        inner.order.push_back(digest);
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
        inner.committed_log.push_back((height, digest));
    }

    /// Drops every batch whose committing block height is ≤ `floor`.
    /// Returns how many batches were pruned (also counted in
    /// `dissem.store_pruned_committed`). Callers keep a retention window
    /// (`floor = committed_height − RETAIN`) so recent batches stay
    /// fetchable by lagging peers.
    pub fn prune_committed(&self, floor: u64) -> usize {
        let mut inner = self.inner.lock().unwrap();
        let mut pruned = 0usize;
        while inner.committed_log.front().is_some_and(|(h, _)| *h <= floor) {
            let (_, d) = inner.committed_log.pop_front().expect("checked above");
            // (A re-reference at a height above the floor has a later mark.)
            if inner.committed.get(&d).is_some_and(|h| *h <= floor) {
                inner.committed.remove(&d);
                if let Some(b) = inner.map.remove(&d) {
                    inner.bytes -= b.len();
                    pruned += 1;
                }
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

    /// Drains the batches stored since the last call (driver only).
    pub fn take_stored(&self) -> Vec<BatchRef> {
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
    /// cluster uses to resolve committed refs for tx accounting.
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
    /// on the assembler thread.
    pub queue_us: Vec<u64>,
}

impl SealedBatch {
    /// The proposal-side reference to this batch.
    pub fn batch_ref(&self) -> BatchRef {
        BatchRef { digest: self.digest, bytes: self.bytes.len() as u64 }
    }
}

#[derive(Debug, Default)]
struct QueueInner {
    /// Sealed, not yet pushed (assembler → driver).
    sealed: VecDeque<SealedBatch>,
    /// Bytes in `sealed`: the part of the assembler's backlog still ahead
    /// of the push step.
    sealed_bytes: u64,
}

/// The assembler → driver handoff: the assembler appends sealed batches,
/// the driver takes them, stores and broadcasts their bytes, and only then
/// enters them into its [`ProposablePool`]. Push-before-propose is thus
/// structural: a ref this node sealed can only be proposed *by this node*
/// after its bytes were handed to every peer's send queue, and per-peer
/// TCP FIFO keeps the push ahead of the proposal on the wire. (Another
/// node proposes it only after receiving that push.)
///
/// The driver does not poll for sealed batches: see
/// [`on_sealed`](DissemQueue::on_sealed).
#[derive(Default)]
pub struct DissemQueue {
    inner: Mutex<QueueInner>,
    /// The driver's wake-up. Re-settable: a restarted node's new driver
    /// takes over the plane its predecessor left.
    on_sealed: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
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

    /// Appends a sealed batch (assembler thread).
    pub fn push_sealed(&self, batch: SealedBatch) {
        let mut inner = self.inner.lock().unwrap();
        inner.sealed_bytes += batch.bytes.len() as u64;
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
        let taken: Vec<SealedBatch> = inner.sealed.drain(..n).collect();
        inner.sealed_bytes -= taken.iter().map(|b| b.bytes.len() as u64).sum::<u64>();
        taken
    }

    /// Sealed batches awaiting push (diagnostics).
    pub fn sealed_len(&self) -> usize {
        self.inner.lock().unwrap().sealed.len()
    }
}

/// What a node knows about one batch digest.
#[derive(Debug, Default)]
struct PoolEntry {
    /// Arrival order. Keys the entry in `pending` and survives a requeue,
    /// so an orphaned batch goes back to its old place in the line.
    seq: u64,
    /// Sealed here: counts toward the assembler's backlog while pending.
    own: bool,
    /// The bytes are in the local store. A ref first seen inside a block is
    /// not proposable until they are.
    stored: bool,
    /// Received, uncommitted blocks that carry the ref.
    carriers: u32,
    committed: bool,
}

impl PoolEntry {
    fn pending(&self) -> bool {
        self.stored && self.carriers == 0 && !self.committed
    }

    /// Whether the entry can be forgotten. Committed with the arrival of
    /// its bytes seen: the store keeps committed bytes and drops a
    /// duplicate unannounced, so no second arrival follows (committed
    /// *before* the driver drained that arrival from the store's log, the
    /// entry waits for it). Or named only by blocks that are gone, bytes
    /// never seen.
    fn done(&self) -> bool {
        if self.committed {
            self.stored
        } else {
            !self.stored && self.carriers == 0
        }
    }
}

#[derive(Debug, Default)]
struct PoolInner {
    entries: HashMap<Digest, PoolEntry>,
    /// The proposable refs, oldest first.
    pending: BTreeMap<u64, BatchRef>,
    /// Received blocks above the committed height: id → (height, refs).
    in_flight: HashMap<Digest, (u64, Vec<BatchRef>)>,
    committed_height: u64,
    next_seq: u64,
    own_pending_bytes: u64,
    /// Refs that went back to `pending` because their block was orphaned.
    requeued: u64,
}

impl PoolInner {
    /// Applies `change` to `batch`'s entry (created on first sight) and
    /// moves it into or out of `pending` to match.
    fn update(&mut self, batch: BatchRef, change: impl FnOnce(&mut PoolEntry)) {
        let next_seq = &mut self.next_seq;
        let e = self.entries.entry(batch.digest).or_insert_with(|| {
            *next_seq += 1;
            PoolEntry { seq: *next_seq, ..PoolEntry::default() }
        });
        let was_pending = e.pending();
        change(e);
        if e.pending() != was_pending {
            let own_bytes = if e.own { batch.bytes } else { 0 };
            if was_pending {
                self.pending.remove(&e.seq);
                self.own_pending_bytes -= own_bytes;
            } else {
                self.pending.insert(e.seq, batch);
                self.own_pending_bytes += own_bytes;
            }
        }
        if e.done() {
            self.entries.remove(&batch.digest);
        }
    }
}

/// Every batch in the local store that no block has carried yet, whoever
/// sealed it: what this node proposes when it leads.
///
/// A small state machine per digest (diagram: DESIGN.md §5j), driven by the
/// driver thread alone: *pending* once stored; *in flight* while a received,
/// uncommitted block carries it; *committed*, for good, or back to
/// *pending* when a commit at or above that block's height orphans it. In
/// flight is set when a block is **received**, not when it is delivered to
/// the protocol: a leader can learn a certificate for a block whose body
/// its vote gate still holds, and must not propose that block's refs again.
/// [`proposable`](ProposablePool::proposable) only reads: a ref leaves
/// `pending` when the proposal that carries it comes back to
/// [`referenced`](ProposablePool::referenced), like anyone else's.
#[derive(Debug, Default)]
pub struct ProposablePool {
    inner: Mutex<PoolInner>,
    /// The assembler thread, parked while its backlog sits at the cap.
    sealer: OnceLock<Thread>,
}

impl ProposablePool {
    /// Names `sealer` as the thread to unpark whenever one of this node's
    /// own batches leaves `pending`. One sealer per pool; later calls are
    /// ignored.
    pub fn wake_on_drain(&self, sealer: Thread) {
        let _ = self.sealer.set(sealer);
    }

    /// Runs `f` on the state and unparks the sealer if own backlog fell.
    fn with<R>(&self, f: impl FnOnce(&mut PoolInner) -> R) -> R {
        let mut inner = self.inner.lock().unwrap();
        let before = inner.own_pending_bytes;
        let r = f(&mut inner);
        let fell = inner.own_pending_bytes < before;
        drop(inner);
        if let (true, Some(sealer)) = (fell, self.sealer.get()) {
            sealer.unpark();
        }
        r
    }

    /// The bytes of `batch` are in the local store: sealed here and just
    /// pushed (`own`), or arrived from a peer.
    pub fn stored(&self, batch: BatchRef, own: bool) {
        self.with(|p| {
            p.update(batch, |e| {
                e.stored = true;
                e.own |= own;
            })
        });
    }

    /// A proposal or synced block `block` at `height` carrying `refs` was
    /// received (or just proposed by this node). Blocks at or below the
    /// committed height are either already accounted for or dead.
    pub fn referenced(&self, block: Digest, height: u64, refs: &[BatchRef]) {
        self.with(|p| {
            if height <= p.committed_height || p.in_flight.contains_key(&block) {
                return;
            }
            for r in refs {
                p.update(*r, |e| e.carriers += 1);
            }
            p.in_flight.insert(block, (height, refs.into()));
        });
    }

    /// `block` at `height`, carrying `refs`, committed. Its refs are done
    /// for good, and every other received block at or below that height
    /// lost the race for its slot: refs only an orphan carried go back to
    /// `pending`. (A height already settled is a restarted node without a
    /// ledger committing its chain again: nothing new.)
    pub fn committed(&self, block: Digest, height: u64, refs: &[BatchRef]) {
        self.with(|p| {
            if height <= p.committed_height {
                return;
            }
            for r in refs {
                p.update(*r, |e| e.committed = true);
            }
            p.in_flight.remove(&block);
            p.committed_height = height;
            let mut orphaned = Vec::new();
            p.in_flight.retain(|_, (h, refs)| *h > height || {
                orphaned.push(std::mem::take(refs));
                false
            });
            let pending_before = p.pending.len();
            for r in orphaned.iter().flatten() {
                // (Saturating: the ref may have committed meanwhile, and the
                // entry be a fresh one.)
                p.update(*r, |e| e.carriers = e.carriers.saturating_sub(1));
            }
            p.requeued += (p.pending.len() - pending_before) as u64;
        });
    }

    /// The oldest `max_refs` pending refs, oldest first.
    pub fn proposable(&self, max_refs: usize) -> Vec<BatchRef> {
        self.inner.lock().unwrap().pending.values().take(max_refs).copied().collect()
    }

    /// Refs handed back to `pending` so far because the block that carried
    /// them was orphaned (`dissem.requeued`).
    pub fn requeued(&self) -> u64 {
        self.inner.lock().unwrap().requeued
    }

    /// Bytes of this node's own batches pushed but not yet in any block.
    pub fn own_pending_bytes(&self) -> u64 {
        self.inner.lock().unwrap().own_pending_bytes
    }
}

/// Everything the dissemination plane shares across threads on one node:
/// the store (readers + driver), the queue (assembler + driver), the pool
/// (driver + payload source) and the counters (everyone). One
/// `Arc<DissemPlane>` is threaded through the transport config, the
/// driver, and the assembler.
#[derive(Debug)]
pub struct DissemPlane {
    /// The content-addressed batch store.
    pub store: BatchStore,
    /// The assembler → driver handoff queue.
    pub queue: DissemQueue,
    /// What this node would propose next.
    pub pool: ProposablePool,
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
            pool: ProposablePool::default(),
            counters,
        })
    }

    /// Bytes this node sealed that no block carries yet — the assembler
    /// stops sealing while this exceeds its backlog cap, which is what
    /// throttles the data plane to the speed of the ordering plane.
    pub fn backlog_bytes(&self) -> u64 {
        self.queue.inner.lock().unwrap().sealed_bytes + self.pool.own_pending_bytes()
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
        assert_eq!(plane.store.take_stored(), vec![BatchRef { digest: d, bytes: 100 }]);
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

    fn refs(n: u8) -> Vec<BatchRef> {
        (0..n).map(|i| BatchRef { digest: batch_digest(&[i]), bytes: 1_000 }).collect()
    }

    fn block(tag: u8) -> Digest {
        Digest::hash_parts(&[b"block", &[tag]])
    }

    #[test]
    fn stored_batches_are_proposed_oldest_first_until_a_block_carries_them() {
        let pool = ProposablePool::default();
        let r = refs(5);
        for b in &r {
            pool.stored(*b, false);
        }
        pool.stored(r[0], false); // a second arrival changes nothing
        assert_eq!(pool.proposable(usize::MAX), r);
        // The ref cap cuts the young end, and reading takes nothing out.
        assert_eq!(pool.proposable(3), r[..3]);
        assert_eq!(pool.proposable(usize::MAX).len(), 5);
        // A received block takes its refs out of the line...
        pool.referenced(block(1), 1, &r[1..3]);
        pool.referenced(block(1), 1, &r[1..3]); // (the normal proposal after the optimistic one)
        assert_eq!(pool.proposable(usize::MAX), [r[0], r[3], r[4]]);
        // ...and its commit is the end of them: the store, which keeps
        // committed bytes, announces no second arrival.
        pool.committed(block(1), 1, &r[1..3]);
        assert_eq!(pool.proposable(usize::MAX), [r[0], r[3], r[4]]);
    }

    #[test]
    fn a_ref_seen_before_its_bytes_is_never_pending_while_a_block_carries_it() {
        let pool = ProposablePool::default();
        let r = refs(2);
        // The proposal overtook the push: the vote gate holds the block,
        // the pool already knows its refs.
        pool.referenced(block(1), 1, &r);
        pool.stored(r[0], false);
        assert!(pool.proposable(usize::MAX).is_empty());
        // The block can even commit before the driver has drained r1's
        // arrival from the store's log.
        pool.committed(block(1), 1, &r);
        pool.stored(r[1], false);
        assert!(pool.proposable(usize::MAX).is_empty(), "committed before its arrival was seen");
    }

    #[test]
    fn an_orphaned_block_gives_its_refs_back_in_their_old_order() {
        let pool = ProposablePool::default();
        let r = refs(4);
        for b in &r[..3] {
            pool.stored(*b, false);
        }
        // Two blocks compete for height 1; the loser also names a batch
        // whose bytes never arrived here.
        pool.referenced(block(1), 1, &[r[0], r[1], r[3]]);
        pool.referenced(block(2), 1, &[r[1]]);
        pool.referenced(block(3), 2, &[r[2]]);
        assert!(pool.proposable(usize::MAX).is_empty());
        pool.committed(block(2), 1, &[r[1]]);
        // r0 is back ahead of anything younger; r1 committed with the
        // winner although the loser carried it too; r2's block is above
        // the commit and still in flight; r3 has no bytes to propose.
        assert_eq!(pool.proposable(usize::MAX), [r[0]]);
        assert_eq!(pool.requeued(), 1);
        pool.stored(r[3], false);
        assert_eq!(pool.proposable(usize::MAX), [r[0], r[3]]);
        // A block at a settled height is dead on arrival, and a second
        // commit of that height (a restart without a ledger) changes nothing.
        pool.referenced(block(4), 1, &[r[0]]);
        pool.committed(block(4), 1, &[r[0]]);
        assert_eq!(pool.proposable(usize::MAX), [r[0], r[3]]);
    }

    /// "Committed never returns" rests on the store: it keeps committed
    /// bytes and drops a duplicate push without announcing it, so the pool,
    /// which forgot the batch at its commit, is not asked again.
    #[test]
    fn a_second_push_of_a_committed_batch_is_not_announced() {
        let plane = DissemPlane::new(1 << 20);
        let bytes = arc_bytes(100, 9);
        let d = batch_digest(&bytes);
        assert!(plane.store.insert(d, bytes.clone()));
        let arrived = plane.store.take_stored();
        plane.pool.stored(arrived[0], false);
        plane.pool.referenced(block(1), 1, &arrived);
        plane.store.mark_committed(d, 1);
        plane.pool.committed(block(1), 1, &arrived);
        assert!(!plane.store.insert(d, bytes));
        assert!(plane.store.take_stored().is_empty());
        assert!(plane.pool.proposable(usize::MAX).is_empty());
    }

    /// The assembler's backlog is what this node sealed and no block
    /// carries yet: it falls when an own batch goes in flight in *anyone's*
    /// block, rises again if that block is orphaned, and ignores foreign
    /// batches throughout.
    #[test]
    fn backlog_follows_own_batches_from_seal_to_any_block() {
        let plane = DissemPlane::new(1 << 20);
        let bytes = arc_bytes(1_000, 1);
        let own = BatchRef { digest: batch_digest(&bytes), bytes: 1_000 };
        let foreign = refs(1)[0];
        plane.queue.push_sealed(SealedBatch {
            digest: own.digest,
            bytes,
            tx_count: 5,
            sealed_at_us: 0,
            queue_us: vec![1; 5],
        });
        assert_eq!(plane.backlog_bytes(), 1_000);
        let sealed = plane.queue.take_sealed(8);
        assert_eq!(sealed[0].batch_ref(), own);
        plane.pool.stored(own, true);
        plane.pool.stored(foreign, false);
        assert_eq!(plane.backlog_bytes(), 1_000);
        plane.pool.referenced(block(1), 1, &[own, foreign]);
        assert_eq!(plane.backlog_bytes(), 0);
        plane.pool.committed(block(2), 1, &[]);
        assert_eq!(plane.backlog_bytes(), 1_000, "orphaned: ours to propose again");
        plane.pool.committed(block(3), 2, &[own]);
        assert_eq!(plane.backlog_bytes(), 0);
    }
}
