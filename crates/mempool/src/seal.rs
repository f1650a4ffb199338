//! Sealing, on the driver's clock.
//!
//! A [`Sealer`] decides when the transactions waiting in a node's
//! [`Mempool`] leave it as one batch, and seals that batch: drains it,
//! frames it ([`crate::batch`]), hashes it once ([`batch_digest`]) and pins
//! its transactions against resubmission until it commits. It is sans-IO:
//! the node's driver polls it with the time, the pool and the node's own
//! unproposed backlog, and it answers with a sealed batch, the time the
//! open batch falls due, or nothing to do. It owns no thread and no clock;
//! the driver stores and pushes each batch in the step that sealed it, and
//! the admissions that open or fill a batch wake the driver
//! ([`Mempool::wake_on_admit`]).
//!
//! The rules:
//!
//! * Nothing seals while the pool is empty, or while this node's own
//!   pushed-but-unproposed batches reach [`DISSEM_BACKLOG_CAP`], so the
//!   data plane runs several batches ahead of the ordering plane without
//!   outrunning it.
//! * An under-full batch is sealed on the block clock: no batch is
//!   proposed more often than once per block period ω̂, which the pool
//!   measures from commit feedback, so a batch stays open for ω̂/4
//!   (`seal_linger`) from the first poll that finds the pool non-empty
//!   and collects what a paced stream admits meanwhile. A batch that
//!   reaches the base size seals at once.
//! * A step in which the node multicasts a consensus message seals the
//!   open batch at once, whatever its size ([`Sealer::ride`]): the push
//!   then queues behind the multicast on every link and leaves in the same
//!   write, where on its own clock it would cost a write per peer. The
//!   linger is waived, nothing else: the backlog cap and the adaptive
//!   target hold as for [`Sealer::poll`], and both decide on the `now`
//!   they are handed. A ride does not cut short a batch of a pool whose
//!   last batch reached the base size: that pool is fed faster than its
//!   linger, its open batch fills anyway, and a ride would only split it
//!   in two and pay a batch's fixed costs (frames, store entry, ref)
//!   twice.
//! * Batch sizing is adaptive: when backlog accumulates, the byte target
//!   grows with it, up to [`MAX_GROWTH`]× the base, so the pipeline drains
//!   the backlog with bigger batches instead of letting queue delay grow.
//!   With an empty-ish pool the target stays at the base.

use std::sync::Arc;
use std::time::Duration;

use moonshot_crypto::Digest;
use moonshot_types::BatchRef;

use crate::batch::encode_batch;
use crate::dissem::batch_digest;
use crate::pool::Mempool;

/// Cap on what a node has sealed that no block carries yet: the data plane
/// may run this far ahead of the ordering plane.
pub const DISSEM_BACKLOG_CAP: u64 = 8 << 20;

/// Upper bound on adaptive growth, as a multiple of the base batch size.
pub const MAX_GROWTH: u64 = 4;

/// The shortest an under-full batch stays open, and how long it does while
/// the block period is unmeasured.
const BATCH_LINGER: Duration = Duration::from_micros(200);

/// The longest an under-full batch stays open, whatever a stalled chain
/// made of the measured block period.
const MAX_LINGER: Duration = Duration::from_millis(50);

/// How long an under-full batch stays open for more admissions at a
/// measured block period of `block_period_us` (0 = unmeasured): a quarter
/// of it. A leader takes whatever is sealed once per period, so four seals
/// per period keep the data plane ahead of the ordering plane, while a
/// transaction waits an eighth of a period more on average
/// (`mempool.queue_p50_ms`) and every frame, store entry and proposal ref a
/// batch costs is shared by the transactions of that quarter.
fn seal_linger(block_period_us: u64) -> Duration {
    Duration::from_micros(block_period_us / 4).clamp(BATCH_LINGER, MAX_LINGER)
}

/// A sealed batch: framed, hashed, its transactions pinned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SealedBatch {
    /// [`batch_digest`] of `bytes`.
    pub digest: Digest,
    /// The framed batch bytes ([`crate::batch::encode_batch`]).
    pub bytes: Arc<[u8]>,
    /// Transactions in the batch.
    pub tx_count: u64,
    /// Seal time in µs since the cluster epoch (`BatchSealed` stage stamp).
    pub sealed_at_us: u64,
}

impl SealedBatch {
    /// The proposal-side reference to this batch.
    pub fn batch_ref(&self) -> BatchRef {
        BatchRef { digest: self.digest, bytes: self.bytes.len() as u64 }
    }
}

/// What one [`Sealer::poll`] found.
#[derive(Debug, PartialEq, Eq)]
pub enum Seal {
    /// A batch, sealed now.
    Batch(SealedBatch),
    /// An under-full batch is open until this time (µs): poll again then,
    /// or when an admission fills it. A time not after the poll's is a
    /// drain that came back empty (an oversized head still earning its
    /// round-robin credit): poll again at once.
    Due(u64),
    /// Nothing to seal: the pool is empty, or the backlog is at its cap.
    Idle,
}

/// Decides when a pool's transactions leave as a batch, and seals it.
#[derive(Debug)]
pub struct Sealer {
    /// The batch byte target with no backlog.
    base: u64,
    /// When the open under-full batch falls due (µs), fixed when it opened;
    /// `None` while no batch is open.
    due_us: Option<u64>,
    /// Whether the last batch sealed had reached the base size: while it
    /// had, a ride waits for the linger like a poll.
    last_full: bool,
}

impl Sealer {
    /// A sealer of batches of `base_batch_bytes` (the payload-per-block
    /// target of the run), grown under backlog.
    pub fn new(base_batch_bytes: usize) -> Sealer {
        Sealer { base: base_batch_bytes.max(1) as u64, due_us: None, last_full: false }
    }

    /// The batch byte target with `pending_bytes` in the pool:
    /// `base × (1 + pending / (4 × base))`, clamped to [`MAX_GROWTH`]` × base`.
    fn effective_target(&self, pending_bytes: u64) -> usize {
        let growth_milli = 1_000 + pending_bytes.saturating_mul(1_000) / (4 * self.base);
        (self.base * growth_milli.min(MAX_GROWTH * 1_000) / 1_000) as usize
    }

    /// The sealing step at `now_us`, for `pool` and the node's own
    /// pushed-but-unproposed `backlog_bytes`.
    pub fn poll(&mut self, now_us: u64, pool: &Mempool, backlog_bytes: u64) -> Seal {
        self.seal(now_us, pool, backlog_bytes, false)
    }

    /// [`poll`](Sealer::poll) with the linger waived, for a step that
    /// multicasts: what is pending seals now, under the base size if need
    /// be, and the open batch's due time is cleared. It answers
    /// [`Seal::Idle`] on an empty pool or at the backlog cap, like `poll`,
    /// and answers like `poll` too while the last batch sealed had reached
    /// the base size.
    pub fn ride(&mut self, now_us: u64, pool: &Mempool, backlog_bytes: u64) -> Seal {
        self.seal(now_us, pool, backlog_bytes, true)
    }

    /// The one sealing path: [`poll`](Sealer::poll), and with `ride`
    /// [`ride`](Sealer::ride).
    fn seal(&mut self, now_us: u64, pool: &Mempool, backlog_bytes: u64, ride: bool) -> Seal {
        if backlog_bytes >= DISSEM_BACKLOG_CAP || pool.is_empty() {
            return Seal::Idle;
        }
        let pending = pool.pending_bytes();
        let full = pending >= self.base;
        if !full && (!ride || self.last_full) {
            let due = *self.due_us.get_or_insert_with(|| {
                now_us + seal_linger(pool.block_period_ewma_us()).as_micros() as u64
            });
            if now_us < due {
                return Seal::Due(due);
            }
        }
        let txs = pool.drain_for_batch(self.effective_target(pending));
        if txs.is_empty() {
            return Seal::Due(now_us);
        }
        self.due_us = None;
        self.last_full = full;
        let tx_digests: Vec<Digest> = txs.iter().map(|t| t.digest).collect();
        let bytes: Arc<[u8]> = encode_batch(&txs).into();
        let digest = batch_digest(&bytes);
        // Pin the drained digests until the batch commits: the rolling
        // seen window alone would let a retry land in a second batch.
        pool.pin_batch(digest, &tx_digests);
        Seal::Batch(SealedBatch { digest, bytes, tx_count: txs.len() as u64, sealed_at_us: now_us })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{batch_txs, make_tx, tx_timestamp_us};
    use crate::pool::{MempoolConfig, SubmitError};

    /// Primes `pool`'s block period to exactly `period_us`, on logical
    /// time: commits carrying nothing of this pool's, one period apart.
    fn prime_block_period(pool: &Mempool, period_us: u64) {
        for k in 1..=3 {
            pool.note_commit(false, 0, 0, None, k * period_us);
        }
        assert_eq!(pool.block_period_ewma_us(), period_us);
    }

    /// A pool with delay-bounded admission off: these tests build backlog.
    fn unbounded_pool() -> Mempool {
        Mempool::new(MempoolConfig { delay_target_multiple: 0, ..MempoolConfig::default() })
    }

    fn batch(seal: Seal) -> SealedBatch {
        match seal {
            Seal::Batch(b) => b,
            other => panic!("expected a batch, got {other:?}"),
        }
    }

    /// The rule on logical time: a quarter of the measured period, 200 µs
    /// while there is none or it is shorter than 800 µs, and 50 ms however
    /// long a stalled chain made the last gap.
    #[test]
    fn seal_linger_is_a_quarter_period_between_its_floor_and_its_cap() {
        let pool = Mempool::new(MempoolConfig::default());
        let linger = |pool: &Mempool| seal_linger(pool.block_period_ewma_us());
        assert_eq!(linger(&pool), BATCH_LINGER, "unmeasured: the old window");
        prime_block_period(&pool, 100_000);
        assert_eq!(linger(&pool), Duration::from_millis(25));
        // The chain stalls for a minute: ω̂ jumps to 7.6 s.
        pool.note_commit(false, 0, 0, None, 300_000 + 60_000_000);
        assert!(pool.block_period_ewma_us() > 7_000_000);
        assert_eq!(linger(&pool), MAX_LINGER);
        assert_eq!(MAX_LINGER, Duration::from_millis(50));

        let fast = Mempool::new(MempoolConfig::default());
        prime_block_period(&fast, 400);
        assert_eq!(linger(&fast), BATCH_LINGER, "a loopback chain keeps the floor");
    }

    /// An under-full batch opens at the first poll that finds the pool
    /// non-empty and is due exactly a linger later: admissions inside the
    /// window, and a block period that moves meanwhile, leave the due time
    /// where it was. It seals at that instant with everything admitted.
    #[test]
    fn an_under_full_batch_is_due_exactly_a_linger_after_it_opened() {
        let pool = Mempool::new(MempoolConfig::default());
        prime_block_period(&pool, 160_000);
        let mut sealer = Sealer::new(18_000);
        assert_eq!(sealer.poll(400_000, &pool, 0), Seal::Idle, "nothing to seal");
        pool.submit(make_tx(400_000, 1, 0, 180)).unwrap();
        let opened = 401_000;
        let due = opened + 40_000;
        assert_eq!(sealer.poll(opened, &pool, 0), Seal::Due(due));
        for seq in 1..5u64 {
            pool.submit(make_tx(opened + seq * 8_000, 1, seq, 180)).unwrap();
            assert_eq!(sealer.poll(opened + seq * 8_000, &pool, 0), Seal::Due(due));
        }
        pool.note_commit(false, 0, 0, None, 1_000_000);
        assert_ne!(seal_linger(pool.block_period_ewma_us()), Duration::from_millis(40));
        assert_eq!(sealer.poll(due - 1, &pool, 0), Seal::Due(due), "not before");
        let sealed = batch(sealer.poll(due, &pool, 0));
        assert_eq!((sealed.tx_count, sealed.sealed_at_us), (5, due));
        assert_eq!(sealer.poll(due, &pool, 0), Seal::Idle);
        // The next admission opens the next window, on the period as it is now.
        pool.submit(make_tx(due, 1, 5, 180)).unwrap();
        let linger = seal_linger(pool.block_period_ewma_us()).as_micros() as u64;
        assert_eq!(sealer.poll(due + 10, &pool, 0), Seal::Due(due + 10 + linger));
    }

    /// A batch that reaches the base size does not wait for its due time,
    /// and what comes after it is an under-full batch with its own window.
    #[test]
    fn reaching_the_base_seals_at_once() {
        let pool = Mempool::new(MempoolConfig::default());
        prime_block_period(&pool, 200_000);
        let mut sealer = Sealer::new(1_800);
        for seq in 0..9u64 {
            pool.submit(make_tx(1_000, 1, seq, 180)).unwrap();
        }
        assert_eq!(sealer.poll(2_000, &pool, 0), Seal::Due(52_000), "1 620 B is under-full");
        pool.submit(make_tx(3_000, 1, 9, 180)).unwrap();
        let sealed = batch(sealer.poll(3_000, &pool, 0));
        assert_eq!((sealed.tx_count, sealed.sealed_at_us), (10, 3_000));
        pool.submit(make_tx(4_000, 1, 10, 180)).unwrap();
        assert_eq!(sealer.poll(4_000, &pool, 0), Seal::Due(54_000));
    }

    /// At the backlog cap nothing seals and nothing is due, however long
    /// the batch has waited; below it sealing resumes.
    #[test]
    fn nothing_seals_at_the_backlog_cap() {
        let pool = Mempool::new(MempoolConfig::default());
        let mut sealer = Sealer::new(1_800);
        pool.submit(make_tx(1_000, 1, 0, 180)).unwrap();
        for now in [1_000, 1_000_000, 60_000_000] {
            assert_eq!(sealer.poll(now, &pool, DISSEM_BACKLOG_CAP), Seal::Idle);
        }
        assert_eq!(sealer.poll(60_000_000, &pool, DISSEM_BACKLOG_CAP - 1), Seal::Due(60_000_200));
        let sealed = batch(sealer.poll(60_000_200, &pool, DISSEM_BACKLOG_CAP - 1));
        assert_eq!(sealed.tx_count, 1);
    }

    /// A ride seals an under-full batch long before its due time, stamped
    /// with the ride's time, and clears that due time: the next admission
    /// opens a fresh window. On an empty pool, or at the backlog cap with a
    /// batch open, a ride seals nothing and leaves the window as it was.
    #[test]
    fn a_ride_seals_what_is_pending_and_clears_the_due_time() {
        let pool = Mempool::new(MempoolConfig::default());
        prime_block_period(&pool, 100_000);
        let mut sealer = Sealer::new(18_000);
        assert_eq!(sealer.ride(1_000, &pool, 0), Seal::Idle, "an empty pool");
        for seq in 0..3u64 {
            pool.submit(make_tx(1_000, 1, seq, 180)).unwrap();
        }
        assert_eq!(sealer.poll(2_000, &pool, 0), Seal::Due(27_000));
        pool.submit(make_tx(3_000, 1, 3, 180)).unwrap();
        assert_eq!(sealer.ride(4_000, &pool, DISSEM_BACKLOG_CAP), Seal::Idle, "at the cap");
        assert_eq!(sealer.poll(4_000, &pool, 0), Seal::Due(27_000), "the window stands");
        let sealed = batch(sealer.ride(5_000, &pool, DISSEM_BACKLOG_CAP - 1));
        assert_eq!((sealed.tx_count, sealed.sealed_at_us), (4, 5_000));
        assert!(pool.is_empty());
        assert_eq!(sealer.ride(5_000, &pool, 0), Seal::Idle);
        pool.submit(make_tx(6_000, 1, 4, 180)).unwrap();
        assert_eq!(sealer.poll(26_000, &pool, 0), Seal::Due(51_000), "a fresh window");
    }

    /// Under backlog a ride seals what a poll would, batch for batch, and
    /// leaves the under-full rest open like a poll: a pool fed that fast
    /// fills it anyway. Once a batch seals under-full, rides seal at once
    /// again.
    #[test]
    fn a_ride_under_backlog_seals_what_a_poll_would() {
        let (polled, ridden) = (unbounded_pool(), unbounded_pool());
        for pool in [&polled, &ridden] {
            for seq in 0..100u64 {
                pool.submit(make_tx(1 + seq, 1, seq, 180)).unwrap();
            }
        }
        let sizes = |sealer: &mut Sealer, pool: &Mempool, ride: bool| {
            let mut sizes = Vec::new();
            loop {
                let seal = if ride { sealer.ride(1_000, pool, 0) } else { sealer.poll(1_000, pool, 0) };
                match seal {
                    Seal::Batch(b) => sizes.push(b.bytes.len()),
                    _ => return sizes,
                }
            }
        };
        let mut sealer = Sealer::new(1_800);
        let polled_sizes = sizes(&mut Sealer::new(1_800), &polled, false);
        assert!(polled_sizes.len() > 2);
        assert_eq!(sizes(&mut sealer, &ridden, true), polled_sizes);
        let rest = ridden.pending_bytes();
        assert!(rest > 0 && rest < 1_800);
        assert_eq!(sealer.ride(1_000, &ridden, 0), Seal::Due(1_200), "the linger holds");
        assert!(batch(sealer.poll(1_200, &ridden, 0)).bytes.len() < 1_800);
        assert!(ridden.is_empty());
        ridden.submit(make_tx(2_000, 1, 100, 180)).unwrap();
        let sealed = batch(sealer.ride(2_000, &ridden, 0));
        assert_eq!((sealed.tx_count, sealed.sealed_at_us), (1, 2_000), "paced again: it rides");
    }

    /// The effective target grows linearly with backlog and saturates at
    /// `MAX_GROWTH × base`.
    #[test]
    fn adaptive_target_grows_with_backlog_and_caps() {
        let cfg = Sealer::new(1_800);
        assert_eq!(cfg.effective_target(0), 1_800);
        // backlog = factor × base → 2× growth.
        assert_eq!(cfg.effective_target(4 * 1_800), 3_600);
        // Deep backlog saturates at 4×.
        assert_eq!(cfg.effective_target(10_000_000), 4 * 1_800);
    }

    /// Under backlog the batches grow with the pending bytes, never past 4×
    /// the base, and shrink back as the backlog drains.
    #[test]
    fn batches_grow_with_the_backlog_up_to_four_times_the_base() {
        let pool = unbounded_pool();
        let base = 1_800;
        for seq in 0..400u64 {
            pool.submit(make_tx(1 + seq, 1, seq, 180)).unwrap();
        }
        let mut sealer = Sealer::new(base);
        let mut sizes = Vec::new();
        let mut now = 1_000;
        loop {
            match sealer.poll(now, &pool, 0) {
                Seal::Batch(b) => sizes.push(b.bytes.len()),
                Seal::Due(at) => now = at,
                Seal::Idle => break,
            }
        }
        // 400 × 184 B ≈ 73 kB against a 1.8 kB base: the first batches are
        // at the 4× cap (39 framed transactions), the last under the base.
        assert_eq!(sizes[0], 39 * 184);
        assert!(sizes.iter().all(|&s| s <= 4 * base), "{sizes:?}");
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]), "{sizes:?}");
        assert!(*sizes.last().unwrap() < base, "{sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), 400 * 184);
    }

    /// Every drained transaction leaves in exactly one batch, hashed with
    /// [`batch_digest`] and stamped with the poll's time; its transactions
    /// are pinned, so a resubmission dedups while the batch is uncommitted.
    #[test]
    fn every_transaction_leaves_in_exactly_one_pinned_batch() {
        let pool = unbounded_pool();
        let resubmit: Vec<Vec<u8>> =
            (0..40u64).map(|seq| make_tx(500 + seq, 1, seq, 180)).collect();
        for tx in &resubmit {
            pool.submit(tx.clone()).unwrap();
        }
        let mut sealer = Sealer::new(1_800);
        let (mut now, mut batches) = (10_000, 0);
        let mut stamps: Vec<u64> = Vec::new();
        loop {
            match sealer.poll(now, &pool, 0) {
                Seal::Batch(b) => {
                    assert_eq!(b.digest, batch_digest(&b.bytes));
                    assert_eq!(b.sealed_at_us, now);
                    assert_eq!(b.batch_ref().bytes, b.bytes.len() as u64);
                    let txs: Vec<&[u8]> = batch_txs(&b.bytes).collect();
                    assert_eq!(txs.len() as u64, b.tx_count);
                    stamps.extend(txs.iter().map(|t| tx_timestamp_us(t).unwrap()));
                    batches += 1;
                    now += 1;
                }
                Seal::Due(at) => now = at,
                Seal::Idle => break,
            }
        }
        stamps.sort_unstable();
        assert_eq!(stamps, (500..540).collect::<Vec<u64>>());
        assert!(batches >= 2, "7.4 kB against a 1.8 kB base is several batches");
        assert_eq!(pool.in_flight_batches(), batches);
        for tx in &resubmit {
            assert_eq!(pool.submit(tx.clone()), Err(SubmitError::Duplicate));
        }
    }

    /// A drain can come back empty: here the head of the rotation is wider
    /// than the batch target, and the paced client behind it is still
    /// earning its round-robin credit. The poll says "due now", and a
    /// later poll of the same instant seals what the rotation reaches.
    #[test]
    fn an_empty_drain_is_due_at_once() {
        let pool = Mempool::new(MempoolConfig {
            delay_target_multiple: 0,
            drr_quantum: 64,
            ..MempoolConfig::default()
        });
        pool.submit_from(1, make_tx(1_000, 1, 0, 3_000)).unwrap();
        pool.submit_from(2, make_tx(1_000, 2, 0, 180)).unwrap();
        let mut sealer = Sealer::new(1_800);
        assert!(sealer.effective_target(pool.pending_bytes()) < 3_004);
        let mut empty = 0;
        let sealed = loop {
            match sealer.poll(5_000, &pool, 0) {
                Seal::Batch(b) => break b,
                seal => assert_eq!(seal, Seal::Due(5_000)),
            }
            empty += 1;
        };
        assert!(empty >= 1);
        assert_eq!(sealed.tx_count, 1);
        assert_eq!(tx_timestamp_us(batch_txs(&sealed.bytes).next().unwrap()), Some(1_000));
        assert_eq!(pool.len(), 1, "the wide head waits for a larger target");
    }
}
