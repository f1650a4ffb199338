//! The batch dissemination plane's node-local state.
//!
//! Proposals carry [`moonshot_types::BatchRef`]s, never transaction
//! bytes: the node seals a batch ([`crate::seal`]), hashes it once
//! ([`batch_digest`]), stores the bytes and broadcasts them as a
//! `BatchPush` frame, all in one step, and every node — the sealer after
//! its push, the others on arrival — enters the batch into its
//! [`ProposablePool`]:
//! whoever leads next proposes every batch it holds that no block has
//! carried yet, not only the ones it sealed. A voter whose copy of the push
//! is still on the way (or was lost) recovers through the
//! `BatchRequest`/`BatchResponse` fetch path driven by
//! `moonshot-consensus`'s retrying batch fetcher.
//!
//! Ownership: one node's plane is read and written on the network pool
//! shard that hosts the node. The node alone writes the [`BatchStore`]: it
//! stores the batches it seals, and the ones its shard checked against
//! their digests (`Node::take_batch`); the shard also serves fetch requests
//! from it. The [`ProposablePool`] is written by the node and read by the
//! payload source it calls. All state is internally locked (a restarted
//! node takes over the plane its predecessor left); no method blocks on
//! anything but a short mutex.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use moonshot_crypto::Digest;
use moonshot_types::BatchRef;

/// Content digest of a sealed batch's framed bytes. This is the identity
/// that travels in `BatchPush`/`BatchRequest`/`BatchResponse` frames and
/// in `Payload::Batches` refs; receivers always recompute it before
/// inserting, so a corrupt or forged push can never poison the store.
pub fn batch_digest(bytes: &[u8]) -> Digest {
    Digest::hash_parts(&[b"moonshot-batch", bytes])
}

/// Monotone counters for the dissemination plane. The ones something reads
/// land in the node's report as `dissem.*` when it stops.
#[derive(Debug, Default)]
pub struct DissemCounters {
    /// Batches this node sealed and broadcast on the push path.
    pub batches_pushed: AtomicU64,
    /// Batches new to the local store: sealed here, or pushed or fetched.
    pub batches_stored: AtomicU64,
    /// Incoming batch frames whose recomputed digest did not match the
    /// advertised one (counted by the shard that read them, which drops
    /// them without storing).
    pub digest_mismatches: AtomicU64,
    /// `BatchRequest` frames this node sent (the vote gate's fetch path).
    pub fetches: AtomicU64,
    /// `BatchRequest` frames the node's shard answered from its store.
    pub fetches_served: AtomicU64,
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
    /// See [`DissemCounters::batches_stored`].
    pub batches_stored: u64,
    /// See [`DissemCounters::digest_mismatches`].
    pub digest_mismatches: u64,
    /// See [`DissemCounters::fetches`].
    pub fetches: u64,
    /// See [`DissemCounters::fetches_served`].
    pub fetches_served: u64,
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
            batches_stored: self.batches_stored.load(Ordering::Relaxed),
            digest_mismatches: self.digest_mismatches.load(Ordering::Relaxed),
            fetches: self.fetches.load(Ordering::Relaxed),
            fetches_served: self.fetches_served.load(Ordering::Relaxed),
            votes_gated: self.votes_gated.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            pruned_committed: self.pruned_committed.load(Ordering::Relaxed),
        }
    }
}

/// The most entries [`StoreInner::order`] keeps for `live` stored batches
/// before [`BatchStore::prune_committed`] drops its stale ones.
fn order_bound(live: usize) -> usize {
    2 * live + 64
}

#[derive(Debug, Default)]
struct StoreInner {
    map: HashMap<Digest, Arc<[u8]>>,
    /// Insertion order for byte-budget FIFO eviction of uncommitted
    /// batches. May hold digests already removed by
    /// [`BatchStore::prune_committed`] or evicted as committed; the
    /// eviction loop skips them.
    order: VecDeque<Digest>,
    bytes: usize,
    /// Digest → height of the committed block that referenced it, recorded
    /// by the node at commit time.
    committed: HashMap<Digest, u64>,
    /// `(height, digest)` per mark, in marking order. Commit heights only
    /// rise, so the prune floor reads the ripe marks off the front instead
    /// of walking the map once per commit.
    committed_log: VecDeque<(u64, Digest)>,
}

/// The node-local content-addressed batch store.
///
/// Bounded by a byte budget, evicting committed batches (oldest commit
/// first) before uncommitted ones (oldest first): batches are pushed ahead
/// of the proposals that reference them and resolved again at commit, so
/// the live window is a few pipeline depths of batches; the budget only
/// guards against a peer spraying garbage. Insertion is keyed by digest —
/// the caller must have *verified* the digest against the bytes (a shard
/// recomputes it via [`batch_digest`] before the node stores a peer's).
pub struct BatchStore {
    inner: Mutex<StoreInner>,
    byte_budget: usize,
    counters: Arc<DissemCounters>,
}

impl BatchStore {
    /// An empty store evicting past `byte_budget`, committed batches first.
    pub fn new(byte_budget: usize, counters: Arc<DissemCounters>) -> BatchStore {
        BatchStore {
            inner: Mutex::new(StoreInner::default()),
            byte_budget,
            counters,
        }
    }

    /// Inserts a verified batch. Returns `true` if the digest was new.
    pub fn insert(&self, digest: Digest, bytes: Arc<[u8]>) -> bool {
        let mut inner = self.inner.lock().unwrap();
        if inner.map.contains_key(&digest) {
            return false;
        }
        inner.bytes += bytes.len();
        inner.map.insert(digest, bytes);
        inner.order.push_back(digest);
        // Committed batches go first, oldest commit first: they stay only
        // for lagging peers and the report, while an uncommitted one may be
        // in a block this node already voted for, which must resolve it
        // when it commits.
        while inner.bytes > self.byte_budget {
            let old = if let Some((_, d)) = inner.committed_log.pop_front() {
                inner.committed.remove(&d);
                d
            } else if inner.order.len() > 1 {
                inner.order.pop_front().expect("length checked")
            } else {
                break;
            };
            if let Some(b) = inner.map.remove(&old) {
                inner.bytes -= b.len();
                self.counters.evicted.fetch_add(1, Ordering::Relaxed);
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
    /// [`DissemCounters::pruned_committed`]). Callers keep a retention window
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
        }
        // Keep the FIFO eviction order from accumulating stale entries
        // across a long run, but walk it only once they outnumber the live
        // ones: a walk per commit would cost the whole store every block.
        let StoreInner { map, order, .. } = &mut *inner;
        if order.len() > order_bound(map.len()) {
            order.retain(|d| map.contains_key(d));
        }
        pruned
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

/// What a node knows about one batch digest.
#[derive(Debug, Default)]
struct PoolEntry {
    /// Arrival order. Keys the entry in `pending` and survives a requeue,
    /// so an orphaned batch goes back to its old place in the line.
    seq: u64,
    /// Sealed here: counts toward the node's backlog while pending.
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
    /// *before* the node took that arrival in, the entry waits for it). Or named only by blocks that are gone, bytes
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
/// node's step alone: *pending* once stored; *in flight* while a received,
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
}

impl ProposablePool {
    /// Runs `f` on the state.
    fn with<R>(&self, f: impl FnOnce(&mut PoolInner) -> R) -> R {
        f(&mut self.inner.lock().unwrap())
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

/// Everything the dissemination plane keeps for one node: the store (the
/// node writes it, its shard serves fetches from it), the pool (the node
/// and its payload source) and the counters. One `Arc<DissemPlane>` is
/// threaded through the transport config and the node, and outlives a
/// killed node for its restart.
#[derive(Debug)]
pub struct DissemPlane {
    /// The content-addressed batch store.
    pub store: BatchStore,
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
            pool: ProposablePool::default(),
            counters,
        })
    }

    /// Bytes this node sealed that no block carries yet — sealing stops
    /// while this is at [`DISSEM_BACKLOG_CAP`](crate::seal::DISSEM_BACKLOG_CAP),
    /// which is what throttles the data plane to the speed of the ordering
    /// plane.
    pub fn backlog_bytes(&self) -> u64 {
        self.pool.own_pending_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arc_bytes(n: usize, fill: u8) -> Arc<[u8]> {
        Arc::from(vec![fill; n])
    }

    #[test]
    fn store_dedups() {
        let plane = DissemPlane::new(1 << 20);
        let b = arc_bytes(100, 7);
        let d = batch_digest(&b);
        assert!(plane.store.insert(d, b.clone()));
        assert!(!plane.store.insert(d, b.clone()), "duplicate insert must be a no-op");
        assert_eq!(plane.store.len(), 1);
        assert_eq!(plane.store.bytes(), 100);
        assert_eq!(plane.store.get(&d).as_deref(), Some(&b[..]));
        assert!(plane.store.contains(&d));
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

    /// A node that voted for a block must still resolve its batches when
    /// the block commits, however much arrived meanwhile: past the budget
    /// the store evicts committed batches before the oldest uncommitted
    /// one.
    #[test]
    fn store_evicts_committed_batches_before_uncommitted_ones() {
        let plane = DissemPlane::new(250);
        let batches: Vec<(Digest, Arc<[u8]>)> = (0u8..4)
            .map(|i| {
                let b = arc_bytes(100, i);
                (batch_digest(&b), b)
            })
            .collect();
        plane.store.insert(batches[0].0, batches[0].1.clone());
        plane.store.insert(batches[1].0, batches[1].1.clone());
        plane.store.mark_committed(batches[1].0, 7);
        // 300 B: the committed batch goes, not the older uncommitted one.
        plane.store.insert(batches[2].0, batches[2].1.clone());
        assert!(plane.store.contains(&batches[0].0), "an uncommitted batch was evicted first");
        assert!(!plane.store.contains(&batches[1].0));
        // Nothing committed is left: the oldest uncommitted batch goes.
        plane.store.insert(batches[3].0, batches[3].1.clone());
        assert!(!plane.store.contains(&batches[0].0));
        assert!(plane.store.contains(&batches[2].0) && plane.store.contains(&batches[3].0));
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

    /// A long run commits and prunes a batch per block: the eviction
    /// order stays bounded by the live batches, and past the byte budget
    /// the uncommitted batches stored first are still the first to go.
    #[test]
    fn store_order_stays_bounded_over_many_prunes_and_evicts_oldest_first() {
        const RETAIN: u64 = 8;
        let batch = |i: u32| {
            let mut b = vec![0u8; 100];
            b[..4].copy_from_slice(&i.to_le_bytes());
            let b: Arc<[u8]> = Arc::from(b);
            (batch_digest(&b), b)
        };
        // Never reached while the cycles run: at most 3 + RETAIN + 1 stored.
        let plane = DissemPlane::new(100 * (3 + RETAIN as usize + 2));
        let store = &plane.store;
        let uncommitted: Vec<_> = (0..3).map(|i| batch(1_000_000 + i)).collect();
        for (d, b) in &uncommitted {
            store.insert(*d, b.clone());
        }
        for height in 1..=2_000u64 {
            let (d, b) = batch(height as u32);
            store.insert(d, b);
            store.mark_committed(d, height);
            store.prune_committed(height.saturating_sub(RETAIN));
            let inner = store.inner.lock().unwrap();
            assert!(
                inner.order.len() <= order_bound(inner.map.len()),
                "height {height}: {} order entries for {} batches",
                inner.order.len(),
                inner.map.len()
            );
        }
        assert_eq!(store.len(), 3 + RETAIN as usize);
        assert_eq!(plane.counters.stats().evicted, 0);

        // Fill the budget with new uncommitted batches: the retained
        // committed ones go first, then the uncommitted ones oldest first.
        let mut next = 2_000_000;
        while uncommitted.iter().all(|(d, _)| store.contains(d)) {
            let (d, b) = batch(next);
            store.insert(d, b);
            next += 1;
        }
        assert_eq!(plane.counters.stats().evicted, RETAIN + 1);
        assert!(!store.contains(&uncommitted[0].0));
        assert!(store.contains(&uncommitted[1].0) && store.contains(&uncommitted[2].0));
        let (d, b) = batch(next);
        store.insert(d, b);
        assert!(!store.contains(&uncommitted[1].0));
        assert!(store.contains(&uncommitted[2].0));
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
        // The block can even commit before the node has taken r1's
        // arrival in.
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
    /// bytes and reports a duplicate push as not new, so the node, which
    /// announces only new batches, does not ask the pool, which forgot the
    /// batch at its commit, again.
    #[test]
    fn a_second_push_of_a_committed_batch_is_not_announced() {
        let plane = DissemPlane::new(1 << 20);
        let bytes = arc_bytes(100, 9);
        let d = batch_digest(&bytes);
        assert!(plane.store.insert(d, bytes.clone()));
        let arrived = [BatchRef { digest: d, bytes: 100 }];
        plane.pool.stored(arrived[0], false);
        plane.pool.referenced(block(1), 1, &arrived);
        plane.store.mark_committed(d, 1);
        plane.pool.committed(block(1), 1, &arrived);
        assert!(!plane.store.insert(d, bytes), "a duplicate is not new");
        assert!(plane.pool.proposable(usize::MAX).is_empty());
    }

    /// The sealer's backlog is what this node sealed and no block
    /// carries yet: it falls when an own batch goes in flight in *anyone's*
    /// block, rises again if that block is orphaned, and ignores foreign
    /// batches throughout.
    #[test]
    fn backlog_follows_own_batches_from_seal_to_any_block() {
        let plane = DissemPlane::new(1 << 20);
        let bytes = arc_bytes(1_000, 1);
        let own = BatchRef { digest: batch_digest(&bytes), bytes: 1_000 };
        let foreign = refs(1)[0];
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
