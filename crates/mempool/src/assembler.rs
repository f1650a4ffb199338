//! The off-driver batch assembler.
//!
//! The driver hot loop must never hash megabytes. The assembler is a
//! background thread that drains the mempool, frames the batch
//! ([`crate::batch`]), hashes it once on its own thread, and hands the
//! sealed batch to the node's dissemination plane, where the driver stores
//! it, pushes it to every peer and enters it into the proposable pool.
//! Sealing is throttled by a cap on the payload sealed here that no block
//! carries yet, so the data plane can run several batches ahead of the
//! ordering plane without outrunning it.
//!
//! Batch sizing is adaptive: when backlog accumulates (the pool holds more
//! pending bytes than a few base batches), the assembler grows the batch
//! byte target — up to [`AssemblerConfig::max_growth`]× the base — so the
//! pipeline drains the backlog with bigger batches instead of letting queue
//! delay grow. With an empty-ish pool the target stays at the base, keeping
//! the common-case batch size (and its latency profile) untouched.
//!
//! The thread only runs when it can seal: it parks on an empty pool or a
//! backlog at its cap, and whoever changes that — the first admission, a
//! block taking up backlog — unparks it.
//!
//! An under-full batch is sealed on the block clock (`seal_linger`): no
//! batch is proposed more often than once per block period ω̂, which the
//! pool measures from commit feedback, so a batch stays open for ω̂/4 after
//! the assembler found the pool non-empty and collects what a paced stream
//! admits meanwhile. The assembler sleeps through that window; only the
//! admission that fills the batch ends it early.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use moonshot_crypto::Digest;

use crate::batch::encode_batch;
use crate::dissem::{batch_digest, DissemPlane, SealedBatch};
use crate::pool::{Mempool, Tx};

/// Batch-sizing policy for a [`BatchAssembler`].
#[derive(Clone, Copy, Debug)]
pub struct AssemblerConfig {
    /// The batch byte target with no backlog (the payload-per-block target
    /// of the run).
    pub base_batch_bytes: usize,
    /// Upper bound on adaptive growth, as a multiple of the base. `1`
    /// disables adaptation (fixed-size batches). The effective target is
    /// `base × (1 + backlog / (4 × base))`, clamped to `max_growth × base`.
    pub max_growth: u32,
}

impl AssemblerConfig {
    /// Fixed-size batches of `bytes`, for tests that count batches.
    #[cfg(test)]
    fn fixed(bytes: usize) -> AssemblerConfig {
        AssemblerConfig { base_batch_bytes: bytes, max_growth: 1 }
    }

    /// Adaptive batches: base target `bytes`, growing up to 4× under
    /// backlog.
    pub fn adaptive(bytes: usize) -> AssemblerConfig {
        AssemblerConfig { base_batch_bytes: bytes, max_growth: 4 }
    }

    /// The effective batch byte target for the given pool backlog.
    pub fn effective_target(&self, backlog_bytes: u64) -> usize {
        let base = self.base_batch_bytes.max(1);
        if self.max_growth <= 1 {
            return base;
        }
        let growth_milli = 1_000 + backlog_bytes.saturating_mul(1_000) / (4 * base as u64);
        let capped = growth_milli.min(self.max_growth as u64 * 1_000);
        (base as u64 * capped / 1_000) as usize
    }
}

/// How long a parked assembler sleeps before re-checking on its own. Every
/// state change it waits for unparks it, so this only bounds the damage of
/// a wake-up that never came. This crate's tests stretch it past their
/// deadlines, so that only a real wake-up lets them pass.
const IDLE_RECHECK: Duration =
    if cfg!(test) { Duration::from_secs(30) } else { MAX_LINGER };

/// The shortest an under-full batch stays open, and how long it does while
/// the block period is unmeasured (the batching window of the 200 µs idle
/// poll this thread once ran).
const BATCH_LINGER: Duration = Duration::from_micros(200);

/// The longest an under-full batch stays open, whatever a stalled chain
/// made of the measured block period: the fallback tick.
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

/// What a [`BatchAssembler`] handle shares with its thread.
#[derive(Debug, Default)]
struct Shared {
    shutdown: AtomicBool,
    batches: AtomicU64,
    /// Loop iterations, sealing or not: what the idle tests bound.
    #[cfg(test)]
    passes: AtomicU64,
}

/// Background thread sealing a [`Mempool`]'s transactions into batches for
/// a [`DissemPlane`].
///
/// A pool feeds one assembler for its lifetime: admissions unpark the first
/// one started on it, and a later one would only seal on its fallback tick.
#[derive(Debug)]
pub struct BatchAssembler {
    shared: Arc<Shared>,
    thread: Option<thread::JoinHandle<()>>,
}

impl BatchAssembler {
    /// Spawns the assembler. `cfg` sets the batch byte target and its
    /// adaptive-growth policy; `epoch` is the time origin used for seal
    /// timestamps, which must match the one clients stamp transactions
    /// against for seal − submit (the mempool-queue stage) to mean anything.
    /// Sealed batches go to `plane`'s queue, for the driver to store, push
    /// and enter into the proposable pool. Sealing is throttled by
    /// `backlog_cap_bytes` of payload sealed here that no block carries yet,
    /// so the data plane can run several batches ahead of the ordering plane
    /// without outrunning it.
    pub fn start(
        pool: Arc<Mempool>,
        cfg: AssemblerConfig,
        epoch: Instant,
        plane: Arc<DissemPlane>,
        backlog_cap_bytes: usize,
    ) -> BatchAssembler {
        let shared = Arc::new(Shared::default());
        let thread = {
            let shared = shared.clone();
            thread::Builder::new()
                .name("batch-assembler".into())
                .spawn(move || run(pool, plane, &shared, cfg, epoch, backlog_cap_bytes))
                .expect("spawn batch assembler")
        };
        BatchAssembler { shared, thread: Some(thread) }
    }

    /// Batches assembled so far.
    pub fn batches_assembled(&self) -> u64 {
        self.shared.batches.load(Ordering::Relaxed)
    }
}

impl Drop for BatchAssembler {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            t.thread().unpark();
            let _ = t.join();
        }
    }
}

impl Shared {
    /// The loop condition.
    fn running(&self) -> bool {
        #[cfg(test)]
        self.passes.fetch_add(1, Ordering::Relaxed);
        !self.shutdown.load(Ordering::Relaxed)
    }
}

/// A drained batch before framing, with its seal time (µs since the epoch).
struct Drained {
    txs: Vec<Tx>,
    sealed_at_us: u64,
}

/// Drains the next batch from a non-empty pool; `None` when the drain came
/// back empty (an oversized head still earning its deficit). A pool holding
/// less than one base batch first gets [`seal_linger`] from now to collect
/// more: woken on the first admission, the assembler would otherwise seal
/// every transaction of a steady stream on its own. It parks until that
/// deadline; the admission that fills the batch unparks it sooner
/// ([`Mempool::wake_on_admit`]), any other wake-up finds the batch still
/// under-full and parks again.
fn drain_batch(
    pool: &Mempool,
    cfg: &AssemblerConfig,
    epoch: Instant,
    shared: &Shared,
) -> Option<Drained> {
    let opened = Instant::now();
    let linger = seal_linger(pool.block_period_ewma_us());
    while pool.pending_bytes() < cfg.base_batch_bytes as u64 {
        let left = linger.saturating_sub(opened.elapsed());
        if left.is_zero() || !shared.running() {
            break;
        }
        thread::park_timeout(left);
    }
    let target = cfg.effective_target(pool.pending_bytes());
    let txs = pool.drain_for_batch(target);
    if txs.is_empty() {
        return None;
    }
    if target > cfg.base_batch_bytes {
        pool.note_batch_grown();
    }
    Some(Drained { txs, sealed_at_us: epoch.elapsed().as_micros() as u64 })
}

fn run(
    pool: Arc<Mempool>,
    plane: Arc<DissemPlane>,
    shared: &Shared,
    cfg: AssemblerConfig,
    epoch: Instant,
    backlog_cap_bytes: usize,
) {
    pool.wake_on_admit(thread::current(), cfg.base_batch_bytes as u64);
    plane.pool.wake_on_drain(thread::current());
    while shared.running() {
        if plane.backlog_bytes() >= backlog_cap_bytes as u64 || pool.is_empty() {
            // Sealed-but-unproposed payload at the cap (the ordering plane
            // is the bottleneck right now) or nothing to seal: sleep until
            // a block — anyone's — takes up backlog or an admission arrives.
            thread::park_timeout(IDLE_RECHECK);
            continue;
        }
        let Some(Drained { txs, sealed_at_us }) = drain_batch(&pool, &cfg, epoch, shared) else {
            continue;
        };
        let tx_count = txs.len() as u64;
        let tx_digests: Vec<Digest> = txs.iter().map(|t| t.digest).collect();
        let bytes: Arc<[u8]> = encode_batch(&txs).into();
        // The batch's one content hash, on this thread.
        let digest = batch_digest(&bytes);
        // Pin the drained digests until the batch commits: the rolling
        // seen window alone would let a retry land in a second batch.
        pool.pin_batch(digest, &tx_digests);
        plane.queue.push_sealed(SealedBatch { digest, bytes, tx_count, sealed_at_us });
        shared.batches.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{batch_txs, make_tx, tx_timestamp_us};
    use crate::pool::MempoolConfig;
    use std::time::Instant;

    /// Seal − submit of every transaction in `sealed`, read off its bytes
    /// the way the cluster report's stage decomposition reads them (µs).
    fn queue_delays(sealed: &SealedBatch) -> Vec<u64> {
        batch_txs(&sealed.bytes)
            .filter_map(tx_timestamp_us)
            .map(|submitted| sealed.sealed_at_us.saturating_sub(submitted))
            .collect()
    }

    /// Sealed batches land in the dissemination queue framed and already
    /// hashed — the taker, the driver in a node, hashes nothing — with seal
    /// stamps that move forward and a queue-delay sample per transaction;
    /// every admitted transaction leaves in exactly one batch; the
    /// transactions are pinned against resubmission; and the backlog cap
    /// throttles sealing until blocks take the batches up.
    #[test]
    fn assembler_seals_hashed_batches_into_the_dissem_queue_and_pins() {
        use crate::dissem::{batch_digest, DissemPlane};
        let pool = Arc::new(Mempool::new(MempoolConfig {
            delay_target_multiple: 0,
            ..MempoolConfig::default()
        }));
        let plane = DissemPlane::new(1 << 20);
        let resubmit: Vec<Vec<u8>> =
            (0..40u64).map(|seq| make_tx(500 + seq, 1, seq, 180)).collect();
        for tx in &resubmit {
            pool.submit(tx.clone()).unwrap();
        }
        let assembler = BatchAssembler::start(
            pool.clone(),
            AssemblerConfig::fixed(1_800),
            Instant::now(),
            plane.clone(),
            // Cap at ~2 batches of unproposed backlog: sealing must stall
            // until the test drains the queue.
            4_000,
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        let (mut drained_txs, mut height, mut last_sealed_at) = (0u64, 0u64, 0u64);
        let mut stamps: Vec<u64> = Vec::new();
        while drained_txs < 40 && Instant::now() < deadline {
            for sealed in plane.queue.take_sealed(16) {
                assert_eq!(sealed.digest, batch_digest(&sealed.bytes));
                assert!(sealed.bytes.len() <= 1_800);
                assert_eq!(queue_delays(&sealed).len() as u64, sealed.tx_count);
                assert!(sealed.sealed_at_us >= last_sealed_at);
                last_sealed_at = sealed.sealed_at_us;
                let txs: Vec<&[u8]> = batch_txs(&sealed.bytes).collect();
                assert_eq!(txs.len() as u64, sealed.tx_count);
                stamps.extend(txs.iter().map(|t| tx_timestamp_us(t).unwrap()));
                let r = sealed.batch_ref();
                assert_eq!(r.bytes, sealed.bytes.len() as u64);
                drained_txs += sealed.tx_count;
                // The driver's push step, then a block taking the batch up:
                // the backlog cap lifts.
                plane.pool.stored(r, true);
                height += 1;
                plane.pool.committed(r.digest, height, &[r]);
            }
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(drained_txs, 40, "assembler never sealed all txs");
        stamps.sort_unstable();
        assert_eq!(stamps, (500..540).collect::<Vec<u64>>());
        assert!(assembler.batches_assembled() >= 5, "1.8kB cap forces multiple batches");
        assert!(pool.in_flight_batches() >= 1, "sealed batches must be pinned");
        // Every drained tx is pinned: resubmission dedups even though the
        // batches are uncommitted.
        for tx in &resubmit {
            assert_eq!(pool.submit(tx.clone()), Err(crate::pool::SubmitError::Duplicate));
        }
    }

    fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// Primes `pool`'s block period to exactly `period_us`, on logical
    /// time: commits carrying nothing of this pool's, one period apart.
    fn prime_block_period(pool: &Mempool, period_us: u64) {
        for k in 1..=3 {
            pool.note_commit(false, 0, 0, None, k * period_us);
        }
        assert_eq!(pool.block_period_ewma_us(), period_us);
    }

    /// An assembler on a fresh pool with ω̂ primed to `period_us` and a
    /// backlog cap out of reach.
    fn digest_assembler(
        base: usize,
        period_us: u64,
        epoch: Instant,
    ) -> (Arc<Mempool>, Arc<DissemPlane>, BatchAssembler) {
        let pool = Arc::new(Mempool::new(MempoolConfig::default()));
        prime_block_period(&pool, period_us);
        let plane = DissemPlane::new(1 << 20);
        let assembler = BatchAssembler::start(
            pool.clone(),
            AssemblerConfig::fixed(base),
            epoch,
            plane.clone(),
            1 << 20,
        );
        (pool, plane, assembler)
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

    /// Admissions spread over less than ω̂/4 leave as one batch, and their
    /// queue delays span the window: the first waited the whole linger.
    #[test]
    fn admissions_within_a_quarter_period_seal_as_one_batch() {
        let epoch = Instant::now();
        let (pool, plane, assembler) = digest_assembler(18_000, 160_000, epoch);
        let linger = seal_linger(pool.block_period_ewma_us());
        assert_eq!(linger, Duration::from_millis(40));
        for seq in 0..5u64 {
            let stamp = epoch.elapsed().as_micros() as u64;
            pool.submit(make_tx(stamp, 1, seq, 180)).unwrap();
            thread::sleep(Duration::from_millis(2));
        }
        wait_for("the deadline to seal the batch", || plane.queue.sealed_len() == 1);
        assert!(pool.is_empty());
        assert_eq!(assembler.batches_assembled(), 1);
        let sealed = plane.queue.take_sealed(usize::MAX).pop().unwrap();
        assert_eq!(sealed.tx_count, 5);
        let delays = queue_delays(&sealed);
        let first = *delays.iter().max().unwrap();
        let last = *delays.iter().min().unwrap();
        assert!(first >= linger.as_micros() as u64, "sealed after {first} µs");
        assert!(first - last >= 8_000, "queue delays {delays:?}");
    }

    /// A batch that reaches the base target does not wait for its deadline:
    /// the admission that fills it wakes the assembler.
    #[test]
    fn a_full_batch_seals_before_its_deadline() {
        let epoch = Instant::now();
        let (pool, plane, _assembler) = digest_assembler(1_800, 200_000, epoch);
        let linger = seal_linger(pool.block_period_ewma_us());
        assert_eq!(linger, MAX_LINGER);
        let stamp = epoch.elapsed().as_micros() as u64;
        for seq in 0..10u64 {
            pool.submit(make_tx(stamp, 1, seq, 180)).unwrap();
        }
        wait_for("the full batch", || plane.queue.sealed_len() >= 1);
        let sealed = plane.queue.take_sealed(1).pop().unwrap();
        assert_eq!(sealed.tx_count, 9, "1 800 B hold nine framed transactions");
        let waited = *queue_delays(&sealed).iter().max().unwrap();
        assert!(waited < linger.as_micros() as u64, "sealed after {waited} µs");
        // The tenth is an under-full batch again, and gets its quarter period.
        wait_for("the remainder", || plane.queue.sealed_len() == 1);
        let rest = plane.queue.take_sealed(1).pop().unwrap();
        assert!(queue_delays(&rest)[0] >= linger.as_micros() as u64);
    }

    /// An idle assembler parks instead of polling (a 200 µs poll would make
    /// 2 500 passes in this window) and the first admission wakes it to
    /// seal; a backlog at its cap parks it again, and only a block carrying
    /// the batches releases it. The fallback tick is stretched past every
    /// deadline here, so each step can only be the wake-up's doing. And the
    /// assembler sleeps through a batch's linger: a batch costs it a
    /// constant number of passes, not one per admission.
    #[test]
    fn digest_assembler_parks_until_an_admission_or_a_backlog_release_wakes_it() {
        let pool = Arc::new(Mempool::new(MempoolConfig::default()));
        let plane = DissemPlane::new(1 << 20);
        let cap = 2_000;
        let assembler = BatchAssembler::start(
            pool.clone(),
            AssemblerConfig::fixed(1_800),
            Instant::now(),
            plane.clone(),
            cap,
        );
        let passes = || assembler.shared.passes.load(Ordering::Relaxed);
        thread::sleep(Duration::from_millis(500));
        let idle = passes();
        assert!(idle <= 3, "idle assembler made {idle} passes in 500 ms");

        pool.submit(make_tx(0, 1, 0, 180)).unwrap();
        wait_for("the first admission to seal a batch", || plane.queue.sealed_len() == 1);
        assert!(passes() <= idle + 3, "{} passes for one batch", passes() - idle);

        // Eight admissions inside one 40 ms linger: one wake-up (the first),
        // one batch. (Four passes: the one that parks the assembler after
        // the first batch may still be due.)
        prime_block_period(&pool, 160_000);
        let before = passes();
        for seq in 1..9u64 {
            pool.submit(make_tx(seq, 1, seq, 180)).unwrap();
        }
        wait_for("the deadline to seal the second batch", || plane.queue.sealed_len() == 2);
        assert!(passes() <= before + 4, "{} passes for one batch", passes() - before);
        assert_eq!(plane.queue.take_sealed(2)[1].tx_count, 8);

        for seq in 9..69u64 {
            pool.submit(make_tx(seq, 1, seq, 180)).unwrap();
        }
        wait_for("sealing to reach the backlog cap", || plane.backlog_bytes() >= cap as u64);
        thread::sleep(Duration::from_millis(100));
        let at_cap = assembler.batches_assembled();
        assert!(!pool.is_empty(), "the cap must hold sealing back");
        assert!(plane.backlog_bytes() < 2 * cap as u64 + 1_800);

        // The driver pushes, someone's block carries the batches: backlog
        // released.
        let pushed: Vec<_> =
            plane.queue.take_sealed(usize::MAX).iter().map(SealedBatch::batch_ref).collect();
        for r in &pushed {
            plane.pool.stored(*r, true);
        }
        assert!(plane.backlog_bytes() >= cap as u64, "pushed is not yet proposed");
        plane.pool.referenced(Digest::hash_parts(&[b"block"]), 1, &pushed);
        wait_for("the release to resume sealing", || assembler.batches_assembled() > at_cap);
    }

    /// The effective target grows linearly with backlog and saturates at
    /// `max_growth × base`; fixed configs never grow.
    #[test]
    fn adaptive_target_grows_with_backlog_and_caps() {
        let cfg = AssemblerConfig::adaptive(1_800);
        assert_eq!(cfg.effective_target(0), 1_800);
        // backlog = factor × base → 2× growth.
        assert_eq!(cfg.effective_target(4 * 1_800), 3_600);
        // Deep backlog saturates at 4×.
        assert_eq!(cfg.effective_target(10_000_000), 4 * 1_800);
        let fixed = AssemblerConfig::fixed(1_800);
        assert_eq!(fixed.effective_target(10_000_000), 1_800);
    }

    /// Under backlog an adaptive assembler seals batches larger than the
    /// base target (and records them), draining the queue faster; the cap
    /// still bounds every batch.
    #[test]
    fn adaptive_assembler_seals_grown_batches_under_backlog() {
        // Delay admission off: the point is to build backlog.
        let pool = Arc::new(Mempool::new(MempoolConfig {
            delay_target_multiple: 0,
            ..MempoolConfig::default()
        }));
        let base = 1_800usize;
        for seq in 0..400u64 {
            pool.submit(make_tx(1 + seq, 1, seq, 180)).unwrap();
        }
        let plane = DissemPlane::new(1 << 20);
        let _assembler = BatchAssembler::start(
            pool.clone(),
            AssemblerConfig::adaptive(base),
            Instant::now(),
            plane.clone(),
            1 << 20,
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut seen_grown = false;
        let (mut drained, mut height) = (0u64, 0u64);
        while drained < 400 && Instant::now() < deadline {
            for sealed in plane.queue.take_sealed(16) {
                assert!(sealed.bytes.len() <= 4 * base);
                seen_grown |= sealed.bytes.len() > base;
                drained += sealed.tx_count;
                // The driver's push step, then a block taking the batch up.
                let r = sealed.batch_ref();
                plane.pool.stored(r, true);
                height += 1;
                plane.pool.committed(r.digest, height, &[r]);
            }
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(drained, 400, "assembler never drained the backlog");
        // 400 × 184 B ≈ 73 kB of backlog against a 1.8 kB base: growth must
        // have engaged (4× cap ⇒ batches of up to ~39 txs vs ~9 fixed).
        assert!(seen_grown, "no batch grew past the base target under backlog");
        assert!(pool.batches_grown() >= 1);
    }
}
