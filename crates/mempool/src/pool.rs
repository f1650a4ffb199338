//! The ingress queue: one lock over one per-client rotation.
//!
//! Submissions hash their bytes on the submitting thread (a load
//! generator, or the network shard that read a `SubmitTx` frame — never
//! the driver) and only then take the pool's one lock. Behind it,
//! transactions queue per client id in submission order; the node's driver
//! seals them ([`crate::seal`]) with a sparse sweep followed by a
//! deficit-round-robin rotation, so each client's transactions leave in
//! the order they arrived.
//!
//! Admission bounds **queue delay**, not just queue size. The driver feeds
//! committed-batch sizes and commit latencies back through
//! [`Mempool::note_commit`]; the pool keeps EWMA drain rates (bytes and
//! transactions per second actually leaving through committed blocks this
//! node proposed) and rejects a submission whose projected sojourn —
//! pending bytes over measured drain rate — exceeds a delay target derived
//! from the measured commit latency. (The same feedback yields the block
//! period the sealer's deadline is a fraction of, and a pool
//! holding less than the batch it is filling toward that deadline refuses
//! nothing.) The static byte/count budgets remain
//! as a hard backstop, and until the first drain-rate measurement a small
//! startup byte cap keeps the launch flood from parking seconds of backlog.
//! Backpressure is *rejection of the new* submission — queued transactions
//! are never silently dropped, so a client that sees `Full` or `Overloaded`
//! can retry and every accepted transaction either commits or is still
//! pending.
//!
//! The deficit-round-robin drain keeps one saturating client from starving
//! a paced one: each drain visit credits the head client's deficit counter
//! with a quantum and pops head transactions while the deficit (and the
//! batch budget) cover them.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

use moonshot_crypto::Digest;

use crate::batch::BATCH_TX_OVERHEAD;

/// One transaction: opaque bytes plus their digest, hashed once at
/// submission and shared zero-copy from here to the committed block.
#[derive(Clone, Debug)]
pub struct Tx {
    /// The raw transaction bytes.
    pub bytes: Arc<[u8]>,
    /// Content digest, computed once by [`Tx::new`].
    pub digest: Digest,
    /// Submitting client id (0 for anonymous/legacy submissions). Fairness
    /// accounting keys on this; it does not affect the digest.
    pub client: u32,
}

impl Tx {
    /// Wraps and hashes transaction bytes (on the calling thread),
    /// attributed to client 0.
    pub fn new(bytes: impl Into<Arc<[u8]>>) -> Tx {
        Tx::from_client(0, bytes)
    }

    /// Wraps and hashes transaction bytes on behalf of `client`.
    pub fn from_client(client: u32, bytes: impl Into<Arc<[u8]>>) -> Tx {
        let bytes = bytes.into();
        let digest = Digest::hash_parts(&[b"moonshot-tx", &bytes]);
        Tx { bytes, digest, client }
    }
}

/// Admission failure reasons.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Zero-length transactions carry nothing and are rejected outright.
    Empty,
    /// The pool is at its transaction- or byte-budget; retry later.
    Full,
    /// A transaction with the same digest is pending or recently seen.
    Duplicate,
    /// Admitting this transaction would push its projected queueing delay
    /// past the delay target (commit-rate-aware backpressure); retry later.
    Overloaded,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Empty => write!(f, "empty transaction"),
            SubmitError::Full => write!(f, "mempool full (backpressure)"),
            SubmitError::Duplicate => write!(f, "duplicate transaction"),
            SubmitError::Overloaded => {
                write!(f, "mempool over delay target (commit-rate backpressure)")
            }
        }
    }
}

/// Sizing knobs for a [`Mempool`].
#[derive(Clone, Copy, Debug)]
pub struct MempoolConfig {
    /// Pending-transaction budget across the whole pool (hard backstop).
    pub max_txs: usize,
    /// Pending-byte budget across the whole pool (hard backstop).
    pub max_bytes: usize,
    /// Recently-seen digests remembered for deduplication. The window
    /// covers both pending and recently drained transactions, so a
    /// duplicate submitted while the original is in flight is still caught.
    pub dedup_window: usize,
    /// Delay target as a multiple of the EWMA commit latency: a submission
    /// is rejected when its projected sojourn (pending bytes over the
    /// measured drain rate) exceeds `multiple × commit latency`, clamped to
    /// [`min_delay_target_us`](MempoolConfig::min_delay_target_us) ..
    /// [`max_delay_target_us`](MempoolConfig::max_delay_target_us).
    /// `0` disables delay-bounded admission (and the startup cap) entirely,
    /// leaving only the static budgets.
    pub delay_target_multiple: u32,
    /// Lower clamp on the delay target (µs), so a very fast commit path
    /// still leaves room for at least a few batches of queueing.
    pub min_delay_target_us: u64,
    /// Upper clamp on the delay target (µs), so a degraded commit path
    /// cannot re-open the door to unbounded bufferbloat.
    pub max_delay_target_us: u64,
    /// Pending-byte cap applied **before** the first drain-rate
    /// measurement (whole pool). Until a commit has been observed the pool
    /// cannot project sojourn times, and an unthrottled saturating client
    /// can park seconds of backlog in the first few hundred milliseconds;
    /// this cap bounds that launch flood to well under a second of drain.
    pub startup_bytes: usize,
    /// Deficit-round-robin quantum (bytes credited per client visit during
    /// a drain). Anything at or above the typical transaction size gives
    /// near-equal per-client service; larger values trade fairness
    /// granularity for fewer rotations.
    pub drr_quantum: usize,
}

impl Default for MempoolConfig {
    fn default() -> Self {
        MempoolConfig {
            max_txs: 64 * 1024,
            max_bytes: 32 * 1024 * 1024,
            dedup_window: 64 * 1024,
            // 10 commit-periods of queueing, never more than 300 ms: the
            // multiple keeps the pipeline fed at normal commit latency,
            // while the tight upper clamp stops a feedback spiral where a
            // degraded commit EWMA inflates the target, which deepens the
            // queue, which degrades commits further.
            delay_target_multiple: 10,
            min_delay_target_us: 20_000,
            max_delay_target_us: 300_000,
            startup_bytes: 128 * 1024,
            drr_quantum: 2 * 1024,
        }
    }
}

/// Monotone admission counters (the node's report reads `accepted` and
/// `rejected` when it stops). Every submission attempt increments
/// `submitted` and then exactly one of `accepted`, `rejected` or
/// `deduped`, so `accepted + rejected + deduped == submitted` always holds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MempoolCounters {
    /// Submission attempts (accepted + rejected + deduped).
    pub submitted: u64,
    /// Transactions admitted.
    pub accepted: u64,
    /// Transactions rejected by any backpressure (budget, delay target, or
    /// an empty submission). Includes `rejected_delay`.
    pub rejected: u64,
    /// The subset of `rejected` turned away by commit-rate-aware delay
    /// admission (projected sojourn over target, or the startup cap).
    pub rejected_delay: u64,
    /// Transactions dropped as duplicates of a recently seen digest.
    pub deduped: u64,
}

/// How much drained traffic a drain-rate window accumulates before the
/// EWMA updates (µs). Commits land in bursts; a 10 ms floor smooths the
/// instantaneous rate over at least a few block periods.
const RATE_WINDOW_US: u64 = 10_000;

/// Folds `sample` into the EWMA `avg` with weight 1/8; the first sample is
/// taken whole. 0 reads as unmeasured, so a measured value is kept at 1 or
/// more.
fn ewma(avg: &mut u64, sample: u64) {
    let next = if *avg == 0 { sample } else { *avg - *avg / 8 + sample / 8 };
    *avg = next.max(1);
}

/// Deficit counters are capped here so a head transaction that can never
/// fit the batch budget does not bank unbounded credit.
const MAX_DRR_DEFICIT: usize = 1 << 20;

/// Hard cap on tracked in-flight batches: past this the oldest batch's
/// pins are dropped (it is almost certainly committed or abandoned — the
/// pipeline holds only a handful of uncommitted batches at a time).
const MAX_IN_FLIGHT_BATCHES: usize = 4096;

/// One client's pending transactions, in submission order.
#[derive(Debug, Default)]
struct ClientQueue {
    txs: VecDeque<Tx>,
    /// Total drain cost of the queued transactions (bytes plus per-tx
    /// framing overhead) — lets the drain classify a client as *sparse*
    /// (whole backlog fits in one quantum) without walking the queue.
    cost: usize,
    /// Deficit-round-robin credit (bytes), reset when the queue empties.
    deficit: usize,
}

/// Everything the pool knows, behind its one lock.
#[derive(Debug, Default)]
struct State {
    /// Per-client FIFO queues; a client is present iff it has pending txs.
    clients: HashMap<u32, ClientQueue>,
    /// Drain rotation over the clients with pending transactions.
    rr: VecDeque<u32>,
    /// Pending transactions across all client queues.
    pending_txs: usize,
    /// Pending bytes across all client queues.
    pending_bytes: usize,
    seen: HashSet<Digest>,
    seen_order: VecDeque<Digest>,
    /// Digests of transactions inside sealed-but-uncommitted batches
    /// ([`Mempool::pin_batch`]). Unlike `seen`, this set is not a rolling
    /// window — entries stay until their batch commits (or the in-flight
    /// cap evicts the whole batch), so a replay cannot ride a busy period
    /// that rolled the seen window past the original.
    pinned: HashSet<Digest>,
    /// The transaction digests of each pinned batch, by batch digest, so
    /// the driver can release a whole batch at commit time.
    batches: HashMap<Digest, Vec<Digest>>,
    /// Pinned batch digests, oldest first (for the in-flight cap).
    batch_order: VecDeque<Digest>,
    /// EWMA drain rate in bytes/s through committed blocks this node
    /// proposed — i.e. this pool's own measured drain rate. 0 = unmeasured.
    drain_bytes_per_sec: u64,
    /// EWMA drain rate in txs/s (same source as `drain_bytes_per_sec`).
    drain_txs_per_sec: u64,
    /// EWMA proposal→commit latency (µs). 0 = unmeasured.
    commit_latency_us: u64,
    /// EWMA gap between consecutive commits (µs): the block period ω̂ as
    /// this node sees it. 0 = unmeasured.
    block_period_us: u64,
    /// Time of the last commit (µs since epoch; 0 = none yet).
    last_commit_us: u64,
    /// Drain-rate window start (µs since epoch); 0 = not yet primed.
    window_started_us: u64,
    /// Bytes drained through our committed batches in the current window.
    window_bytes: u64,
    /// Transactions drained through our committed batches in the window.
    window_txs: u64,
    counters: MempoolCounters,
    /// DRR client visits performed by drains (fairness observability).
    fair_visits: u64,
    /// The pending bytes that make a full batch for this pool's consumer
    /// (0 while none is registered); see [`Mempool::wake_on_admit`].
    full_batch_bytes: u64,
}

/// The ingress queue: per-client FIFOs, a DRR drain and delay-bounded
/// admission, all behind one lock.
pub struct Mempool {
    cfg: MempoolConfig,
    state: Mutex<State>,
    /// What wakes the driver sealing this pool; see
    /// [`Mempool::wake_on_admit`].
    wake: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
}

impl Mempool {
    /// An empty pool with the given budgets.
    pub fn new(cfg: MempoolConfig) -> Mempool {
        Mempool { cfg, state: Mutex::new(State::default()), wake: Mutex::new(None) }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap()
    }

    /// Registers `wake` as what wakes this pool's consumer, which seals it
    /// in batches of `full_batch_bytes`. It runs on the admission that
    /// makes an empty pool non-empty (a batch opens) and on the one that
    /// takes the pending bytes to a full batch (no reason left to wait for
    /// the seal deadline) — not once per transaction: in between the
    /// consumer sleeps towards its deadline. A later registration replaces
    /// the earlier one, so a restarted node's driver takes over the pool
    /// its predecessor left.
    pub fn wake_on_admit(&self, wake: impl Fn() + Send + Sync + 'static, full_batch_bytes: u64) {
        *self.wake.lock().unwrap() = Some(Box::new(wake));
        self.lock().full_batch_bytes = full_batch_bytes;
    }

    /// Admits one transaction on behalf of client 0, hashing it on the
    /// calling thread. See [`submit_from`](Mempool::submit_from).
    pub fn submit(&self, bytes: impl Into<Arc<[u8]>>) -> Result<(), SubmitError> {
        self.submit_from(0, bytes)
    }

    /// Admits one transaction on behalf of `client`, hashing it on the
    /// calling thread before the pool's lock is taken. Errors are
    /// backpressure ([`SubmitError::Full`] for the static budgets,
    /// [`SubmitError::Overloaded`] for the delay target), dedup, or an
    /// empty submission.
    pub fn submit_from(
        &self,
        client: u32,
        bytes: impl Into<Arc<[u8]>>,
    ) -> Result<(), SubmitError> {
        let tx = Tx::from_client(client, bytes);
        let len = tx.bytes.len();
        let mut st = self.lock();
        st.counters.submitted += 1;
        let admitted = self.admit(&mut st, tx);
        match admitted {
            Ok(()) => st.counters.accepted += 1,
            Err(SubmitError::Duplicate) => st.counters.deduped += 1,
            Err(SubmitError::Overloaded) => {
                st.counters.rejected += 1;
                st.counters.rejected_delay += 1;
            }
            Err(SubmitError::Empty | SubmitError::Full) => st.counters.rejected += 1,
        }
        // Decided under the lock, woken after it: exactly one admission
        // finds the pool empty and one takes it to a full batch, whoever
        // else submits or drains, and the woken consumer does not wait for
        // the lock its waker still holds.
        let full = st.full_batch_bytes;
        let wake = admitted.is_ok() && {
            let after = st.pending_bytes as u64;
            let before = after - len as u64;
            st.pending_txs == 1 || (before < full && after >= full)
        };
        drop(st);
        if wake {
            if let Some(wake) = &*self.wake.lock().unwrap() {
                wake();
            }
        }
        admitted
    }

    /// The admission decision and, on success, the enqueue.
    fn admit(&self, st: &mut State, tx: Tx) -> Result<(), SubmitError> {
        let len = tx.bytes.len();
        if len == 0 {
            return Err(SubmitError::Empty);
        }
        self.admit_delay(st, len)?;
        if st.seen.contains(&tx.digest) || st.pinned.contains(&tx.digest) {
            return Err(SubmitError::Duplicate);
        }
        if st.pending_txs >= self.cfg.max_txs || st.pending_bytes + len > self.cfg.max_bytes {
            return Err(SubmitError::Full);
        }
        st.seen.insert(tx.digest);
        st.seen_order.push_back(tx.digest);
        while st.seen_order.len() > self.cfg.dedup_window {
            if let Some(old) = st.seen_order.pop_front() {
                st.seen.remove(&old);
            }
        }
        st.pending_bytes += len;
        st.pending_txs += 1;
        let client = tx.client;
        let queue = st.clients.entry(client).or_default();
        queue.cost += len + BATCH_TX_OVERHEAD;
        queue.txs.push_back(tx);
        if queue.txs.len() == 1 {
            // First pending tx for this client: join the rotation.
            st.rr.push_back(client);
        }
        Ok(())
    }

    /// The commit-rate-aware admission decision: would admitting `len` more
    /// bytes push the projected sojourn past the delay target?
    fn admit_delay(&self, st: &State, len: usize) -> Result<(), SubmitError> {
        if self.cfg.delay_target_multiple == 0 {
            return Ok(());
        }
        let pending = (st.pending_bytes + len) as u64;
        let rate = st.drain_bytes_per_sec;
        if rate == 0 {
            // No drain-rate measurement yet (no commit observed): bound the
            // launch flood with the startup byte cap instead.
            if pending > self.cfg.startup_bytes as u64 {
                return Err(SubmitError::Overloaded);
            }
            return Ok(());
        }
        // Less than the batch being filled is not a queue: it waits for the
        // consumer's seal deadline, which is bounded on its own, and not
        // for the drain rate.
        if pending <= st.full_batch_bytes {
            return Ok(());
        }
        let projected_us = pending.saturating_mul(1_000_000) / rate;
        if projected_us > self.delay_target(st) {
            return Err(SubmitError::Overloaded);
        }
        Ok(())
    }

    /// Commit feedback from the driver: called once per committed block.
    /// `ours` marks blocks carrying batches this pool sealed, with `txs` and
    /// `bytes` counting those batches only — other nodes' transactions did
    /// not drain *this* pool and must not feed its drain-rate EWMAs;
    /// `commit_latency_us`
    /// (proposal→commit, when the driver has the proposal timestamp) feeds
    /// the latency EWMA for every block. `now_us` is the commit time on the
    /// cluster clock; the gap since the previous call feeds the block-period
    /// EWMA, and commits that land together count as gaps of zero, so that
    /// blocks committed in bursts still average to one period each.
    pub fn note_commit(
        &self,
        ours: bool,
        txs: u64,
        bytes: u64,
        commit_latency_us: Option<u64>,
        now_us: u64,
    ) {
        let mut st = self.lock();
        let st = &mut *st;
        if let Some(lat) = commit_latency_us {
            ewma(&mut st.commit_latency_us, lat);
        }
        let last = std::mem::replace(&mut st.last_commit_us, now_us.max(1));
        if last != 0 {
            ewma(&mut st.block_period_us, now_us.saturating_sub(last));
        }
        if !ours || bytes == 0 {
            return;
        }
        if st.window_started_us == 0 {
            // First observed drain: start the measurement window here. The
            // block's own bytes are deliberately not counted — there is no
            // interval to divide them over yet.
            st.window_started_us = now_us.max(1);
            return;
        }
        st.window_bytes += bytes;
        st.window_txs += txs;
        let dt = now_us.saturating_sub(st.window_started_us);
        if dt < RATE_WINDOW_US {
            return;
        }
        ewma(&mut st.drain_bytes_per_sec, st.window_bytes.saturating_mul(1_000_000) / dt);
        ewma(&mut st.drain_txs_per_sec, st.window_txs.saturating_mul(1_000_000) / dt);
        st.window_started_us = now_us.max(1);
        st.window_bytes = 0;
        st.window_txs = 0;
    }

    /// The current delay target (µs): `delay_target_multiple ×` the EWMA
    /// commit latency, clamped to the configured bounds. Before any commit
    /// latency is measured this is the lower clamp; 0 when delay admission
    /// is disabled.
    pub fn delay_target_us(&self) -> u64 {
        self.delay_target(&self.lock())
    }

    fn delay_target(&self, st: &State) -> u64 {
        if self.cfg.delay_target_multiple == 0 {
            return 0;
        }
        (st.commit_latency_us * self.cfg.delay_target_multiple as u64)
            .clamp(self.cfg.min_delay_target_us, self.cfg.max_delay_target_us)
    }

    /// Projected sojourn of a transaction admitted right now (µs): pending
    /// bytes over the measured drain rate. 0 until the rate is measured.
    #[cfg(test)]
    fn projected_delay_us(&self) -> u64 {
        let st = self.lock();
        if st.drain_bytes_per_sec == 0 {
            return 0;
        }
        (st.pending_bytes as u64).saturating_mul(1_000_000) / st.drain_bytes_per_sec
    }

    /// EWMA drain rate in bytes/s (0 until measured).
    pub fn drain_bytes_per_sec(&self) -> u64 {
        self.lock().drain_bytes_per_sec
    }

    /// EWMA drain rate in transactions/s (0 until measured).
    pub fn drain_txs_per_sec(&self) -> u64 {
        self.lock().drain_txs_per_sec
    }

    /// EWMA gap between consecutive commits, the block period ω̂ (µs; 0
    /// until two commits were seen).
    pub fn block_period_ewma_us(&self) -> u64 {
        self.lock().block_period_us
    }

    /// Pops transactions until the batch — with its per-transaction framing
    /// overhead — would exceed `max_batch_bytes` or the pool is empty.
    /// Two phases:
    ///
    /// 1. **Sparse sweep** (fq_codel-style): every client whose *entire*
    ///    backlog fits in one quantum is served completely, ahead of any
    ///    bulk traffic. A paced client with a couple of small transactions
    ///    never waits behind a bulk queue or for its rotation turn — its
    ///    queueing delay is one drain interval flat.
    /// 2. **Bulk rotation**: classic deficit round-robin over the
    ///    remaining (backlogged) clients — the front client's deficit is
    ///    credited one quantum and its head transactions are popped while
    ///    deficit and budget cover them — so competing saturators split
    ///    drain bandwidth evenly and cannot starve each other.
    ///
    /// The sparse fast lane cannot starve bulk clients: by definition it
    /// spends at most one quantum per sparse client per drain, and a
    /// client that keeps queue depth to exploit it is *behaving* — that's
    /// the incentive. Both phases pop each client's transactions from the
    /// head of its queue, so every client drains in submission order.
    pub fn drain_for_batch(&self, max_batch_bytes: usize) -> Vec<Tx> {
        let mut out = Vec::new();
        let mut budget = max_batch_bytes;
        let mut st = self.lock();
        let st = &mut *st;
        // Phase 1: sparse sweep.
        let mut k = 0;
        while k < st.rr.len() {
            let client = st.rr[k];
            let queue = st.clients.get_mut(&client).expect("rr client has a queue");
            if queue.cost > self.cfg.drr_quantum || queue.cost > budget {
                k += 1;
                continue;
            }
            st.fair_visits += 1;
            budget -= queue.cost;
            out.extend(queue.txs.drain(..));
            st.clients.remove(&client);
            st.rr.remove(k);
        }
        // Phase 2: bulk rotation, until the pool is empty or a head
        // transaction that does not fit the remaining budget ends a visit
        // that popped nothing. (FIFO per client: the drain never reorders
        // around a large transaction.) A visit that pops nothing for want
        // of deficit rotates on; the credit persists into the next visit or
        // the next drain call, so an oversized transaction is eventually
        // served.
        while let Some(&client) = st.rr.front() {
            st.fair_visits += 1;
            let queue = st.clients.get_mut(&client).expect("rr client has a queue");
            queue.deficit = (queue.deficit + self.cfg.drr_quantum).min(MAX_DRR_DEFICIT);
            let mut popped = false;
            let mut budget_blocked = false;
            while let Some(front) = queue.txs.front() {
                let cost = front.bytes.len() + BATCH_TX_OVERHEAD;
                if cost > budget {
                    budget_blocked = true;
                    break;
                }
                if cost > queue.deficit {
                    break;
                }
                out.push(queue.txs.pop_front().unwrap());
                queue.cost -= cost;
                queue.deficit -= cost;
                budget -= cost;
                popped = true;
            }
            if queue.txs.is_empty() {
                // Classic DRR: an emptied queue forfeits leftover credit.
                st.clients.remove(&client);
                st.rr.pop_front();
            } else {
                // Move the client to the back of the rotation so the next
                // visit serves someone else.
                st.rr.rotate_left(1);
            }
            if budget_blocked && !popped {
                break;
            }
        }
        st.pending_txs -= out.len();
        st.pending_bytes -= out.iter().map(|tx| tx.bytes.len()).sum::<usize>();
        out
    }

    /// Pending transactions.
    pub fn len(&self) -> u64 {
        self.lock().pending_txs as u64
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pending bytes.
    pub fn pending_bytes(&self) -> u64 {
        self.lock().pending_bytes as u64
    }

    /// Snapshot of admission counters.
    pub fn counters(&self) -> MempoolCounters {
        self.lock().counters
    }

    /// DRR client visits performed by drains so far (fairness counter).
    pub fn fair_visits(&self) -> u64 {
        self.lock().fair_visits
    }

    /// Pins the transactions of a sealed batch against resubmission until
    /// [`release_batch`](Mempool::release_batch). Called by the sealer
    /// right after sealing: the `seen` window is a *rolling* window, so
    /// under sustained load a transaction drained minutes ago can roll out
    /// of it while its batch is still uncommitted — without the pin, a
    /// client retry would land the same digest in a second batch.
    /// Idempotent per batch digest; past `MAX_IN_FLIGHT_BATCHES` (4 096)
    /// the oldest batch's pins are evicted.
    pub fn pin_batch(&self, batch: Digest, txs: &[Digest]) {
        let mut st = self.lock();
        if st.batches.contains_key(&batch) {
            return;
        }
        st.pinned.extend(txs.iter().copied());
        st.batches.insert(batch, txs.to_vec());
        st.batch_order.push_back(batch);
        if st.batch_order.len() > MAX_IN_FLIGHT_BATCHES {
            if let Some(old) = st.batch_order.pop_front() {
                st.unpin(&old);
            }
        }
    }

    /// Releases a batch's pins once it committed (driver commit feedback)
    /// and returns how many transactions it held: `Some` exactly for the
    /// batches *this* pool sealed, whoever proposed them. Unknown digests
    /// (another node's batch, an already-evicted pin) are a no-op.
    pub fn release_batch(&self, batch: &Digest) -> Option<u64> {
        let mut st = self.lock();
        let txs = st.unpin(batch)?;
        st.batch_order.retain(|d| d != batch);
        Some(txs as u64)
    }

    /// Batches currently pinned as sealed-in-flight.
    pub fn in_flight_batches(&self) -> usize {
        self.lock().batches.len()
    }
}

impl State {
    /// Drops a pinned batch's transaction pins; how many it held, if it
    /// was pinned.
    fn unpin(&mut self, batch: &Digest) -> Option<usize> {
        let txs = self.batches.remove(batch)?;
        for d in &txs {
            self.pinned.remove(d);
        }
        Some(txs.len())
    }
}

impl fmt::Debug for Mempool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.lock();
        f.debug_struct("Mempool")
            .field("pending_txs", &st.pending_txs)
            .field("pending_bytes", &st.pending_bytes)
            .field("counters", &st.counters)
            .field("drain_bytes_per_sec", &st.drain_bytes_per_sec)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx_bytes(tag: u64, size: usize) -> Vec<u8> {
        let mut v = vec![0u8; size.max(8)];
        v[..8].copy_from_slice(&tag.to_le_bytes());
        v
    }

    fn assert_identity(pool: &Mempool) {
        let c = pool.counters();
        assert_eq!(
            c.accepted + c.rejected + c.deduped,
            c.submitted,
            "counter identity violated: {c:?}"
        );
    }

    #[test]
    fn duplicate_submissions_are_deduped() {
        let pool = Mempool::new(MempoolConfig::default());
        assert_eq!(pool.submit(tx_bytes(1, 64)), Ok(()));
        assert_eq!(pool.submit(tx_bytes(1, 64)), Err(SubmitError::Duplicate));
        assert_eq!(pool.submit(tx_bytes(2, 64)), Ok(()));
        let c = pool.counters();
        assert_eq!((c.accepted, c.deduped, c.rejected, c.submitted), (2, 1, 0, 3));
        assert_eq!(pool.len(), 2);
        assert_identity(&pool);
    }

    #[test]
    fn dedup_window_covers_drained_transactions() {
        let pool = Mempool::new(MempoolConfig::default());
        pool.submit(tx_bytes(7, 64)).unwrap();
        let drained = pool.drain_for_batch(1 << 20);
        assert_eq!(drained.len(), 1);
        assert!(pool.is_empty());
        // The tx left the pool but its digest is still in the window: a
        // replay while the original is in flight must not be re-admitted.
        assert_eq!(pool.submit(tx_bytes(7, 64)), Err(SubmitError::Duplicate));
        assert_identity(&pool);
    }

    /// The sealed-in-flight pin closes the dedup hole the rolling seen
    /// window leaves: even after the window rolls past a drained digest,
    /// a resubmission is rejected until the batch is released — and only
    /// then re-admitted.
    #[test]
    fn in_flight_pin_outlives_the_seen_window() {
        let cfg = MempoolConfig {
            dedup_window: 4, // tiny window so it rolls immediately
            delay_target_multiple: 0,
            ..MempoolConfig::default()
        };
        let pool = Mempool::new(cfg);
        pool.submit(tx_bytes(7, 64)).unwrap();
        let drained = pool.drain_for_batch(1 << 20);
        assert_eq!(drained.len(), 1);
        let batch = Digest::hash(b"batch-7");
        let tx_digests: Vec<Digest> = drained.iter().map(|t| t.digest).collect();
        pool.pin_batch(batch, &tx_digests);
        assert_eq!(pool.in_flight_batches(), 1);
        // Roll the seen window far past the drained digest.
        for i in 100..110u64 {
            pool.submit(tx_bytes(i, 64)).unwrap();
        }
        // Window no longer remembers it, but the pin does.
        assert_eq!(pool.submit(tx_bytes(7, 64)), Err(SubmitError::Duplicate));
        assert!(pool.counters().deduped >= 1);
        // Commit releases the pin; the digest is admissible again (the
        // committed-dedup problem is out of scope for the pool).
        pool.release_batch(&batch);
        assert_eq!(pool.in_flight_batches(), 0);
        assert_eq!(pool.submit(tx_bytes(7, 64)), Ok(()));
        assert_identity(&pool);
    }

    /// The in-flight cap evicts the oldest batch's pins instead of
    /// leaking them forever when releases are lost.
    #[test]
    fn in_flight_cap_evicts_oldest_pins() {
        let cfg = MempoolConfig { delay_target_multiple: 0, ..MempoolConfig::default() };
        let pool = Mempool::new(cfg);
        let tx = Tx::new(tx_bytes(42, 64));
        pool.pin_batch(Digest::hash(b"first"), &[tx.digest]);
        for i in 0..MAX_IN_FLIGHT_BATCHES as u64 {
            pool.pin_batch(Digest::hash(&i.to_le_bytes()), &[]);
        }
        assert_eq!(pool.in_flight_batches(), MAX_IN_FLIGHT_BATCHES);
        // The first batch was evicted, so its tx is admissible again.
        assert_eq!(pool.submit(tx_bytes(42, 64)), Ok(()));
    }

    #[test]
    fn byte_budget_backpressure_rejects_new_without_dropping_old() {
        let cfg = MempoolConfig {
            max_txs: 1000,
            max_bytes: 1000,
            dedup_window: 64,
            ..MempoolConfig::default()
        };
        let pool = Mempool::new(cfg);
        let mut admitted = 0u64;
        let mut first_err = None;
        for i in 0..100u64 {
            match pool.submit(tx_bytes(i, 300)) {
                Ok(()) => admitted += 1,
                Err(e) => {
                    first_err = Some(e);
                    break;
                }
            }
        }
        assert_eq!(admitted, 3); // 3 × 300 = 900 ≤ 1000, the 4th would burst
        assert_eq!(first_err, Some(SubmitError::Full));
        assert_eq!(pool.len(), 3, "queued txs must survive backpressure");
        assert!(pool.counters().rejected >= 1);
        assert_identity(&pool);
        // Draining frees budget: admission works again.
        assert_eq!(pool.drain_for_batch(1 << 20).len(), 3);
        assert_eq!(pool.submit(tx_bytes(200, 300)), Ok(()));
    }

    #[test]
    fn count_budget_backpressure() {
        let cfg = MempoolConfig {
            max_txs: 2,
            max_bytes: 1 << 20,
            dedup_window: 64,
            ..MempoolConfig::default()
        };
        let pool = Mempool::new(cfg);
        pool.submit(tx_bytes(1, 32)).unwrap();
        pool.submit(tx_bytes(2, 32)).unwrap();
        assert_eq!(pool.submit(tx_bytes(3, 32)), Err(SubmitError::Full));
        assert_identity(&pool);
    }

    #[test]
    fn empty_transactions_rejected() {
        let pool = Mempool::new(MempoolConfig::default());
        assert_eq!(pool.submit(Vec::new()), Err(SubmitError::Empty));
        let c = pool.counters();
        assert_eq!((c.rejected, c.submitted), (1, 1));
        assert_identity(&pool);
    }

    #[test]
    fn drain_respects_batch_budget_and_keeps_fifo_per_client() {
        let cfg = MempoolConfig::default();
        let pool = Mempool::new(cfg);
        for i in 0..10u64 {
            pool.submit(tx_bytes(i, 100)).unwrap();
        }
        let batch = pool.drain_for_batch(3 * (100 + BATCH_TX_OVERHEAD));
        assert_eq!(batch.len(), 3);
        for (i, tx) in batch.iter().enumerate() {
            assert_eq!(&tx.bytes[..8], &(i as u64).to_le_bytes());
        }
        assert_eq!(pool.len(), 7);
    }

    /// A default pool drains each client in submission order: 200 bulk
    /// transactions from one client, interleaved with 20 from another,
    /// leave in 18 kB batches with every client's sequence numbers
    /// strictly increasing, and all 220 leave.
    #[test]
    fn default_pool_drains_each_client_in_submission_order() {
        let cfg = MempoolConfig { delay_target_multiple: 0, ..MempoolConfig::default() };
        let pool = Mempool::new(cfg);
        for seq in 0..200u64 {
            pool.submit_from(1, crate::batch::make_tx(1_000 + seq, 1, seq, 180)).unwrap();
            if seq % 10 == 0 {
                let s2 = seq / 10;
                pool.submit_from(2, crate::batch::make_tx(9_000 + s2, 2, s2, 180)).unwrap();
            }
        }
        let mut last: HashMap<u32, u64> = HashMap::new();
        let mut drained = 0;
        loop {
            let batch = pool.drain_for_batch(18_000);
            if batch.is_empty() {
                break;
            }
            for tx in &batch {
                let seq = u64::from_le_bytes(tx.bytes[12..20].try_into().unwrap());
                if let Some(prev) = last.insert(tx.client, seq) {
                    assert!(seq > prev, "client {}: sequence {seq} after {prev}", tx.client);
                }
            }
            drained += batch.len();
        }
        assert_eq!(drained, 220);
        assert!(pool.is_empty());
    }

    /// Delay-bounded admission with synthetic drain rates: a fast pool
    /// (5 MB/s) admits a deep backlog before rejecting; a slow pool
    /// (100 kB/s) rejects after a shallow one. Both reject with
    /// `Overloaded` and count it in `rejected_delay`.
    #[test]
    fn delay_admission_tracks_synthetic_drain_rate() {
        let cfg = MempoolConfig {
            min_delay_target_us: 50_000,
            max_delay_target_us: 1_000_000,
            delay_target_multiple: 20,
            ..MempoolConfig::default()
        };
        // Prime a pool's EWMA to a synthetic rate: first ours-commit starts
        // the window, the second (RATE_WINDOW_US later) sets the rate.
        let prime = |bytes_in_20ms: u64| {
            let pool = Mempool::new(cfg);
            pool.note_commit(true, 10, 1, Some(5_000), 1_000_000);
            pool.note_commit(true, 10, bytes_in_20ms, Some(5_000), 1_020_000);
            pool
        };
        // 100 kB over 20 ms = 5 MB/s; latency EWMA 5 ms → target 100 ms →
        // ~500 kB of backlog fits.
        let fast = prime(100_000);
        assert_eq!(fast.drain_bytes_per_sec(), 5_000_000);
        assert_eq!(fast.delay_target_us(), 100_000);
        // 2 kB over 20 ms = 100 kB/s → ~10 kB of backlog fits.
        let slow = prime(2_000);
        assert_eq!(slow.drain_bytes_per_sec(), 100_000);

        let (fast_admitted, fast_err) = flood(&fast);
        let (slow_admitted, slow_err) = flood(&slow);
        assert_eq!(fast_err, SubmitError::Overloaded);
        assert_eq!(slow_err, SubmitError::Overloaded);
        // 500 kB / 300 B ≈ 1666 vs 10 kB / 300 B ≈ 33.
        assert!(
            (1_000..2_500).contains(&fast_admitted),
            "fast pool admitted {fast_admitted}"
        );
        assert!((10..60).contains(&slow_admitted), "slow pool admitted {slow_admitted}");
        assert!(slow_admitted < fast_admitted);
        for pool in [&fast, &slow] {
            assert!(pool.counters().rejected_delay >= 1);
            assert_identity(pool);
        }
    }

    /// Before any commit is observed the startup byte cap bounds admission;
    /// once a drain rate is measured the cap is replaced by the projection.
    #[test]
    fn startup_cap_bounds_pre_measurement_flood() {
        let cfg = MempoolConfig { startup_bytes: 3_000, ..MempoolConfig::default() };
        let pool = Mempool::new(cfg);
        let mut admitted = 0u64;
        let mut err = None;
        for i in 0..100u64 {
            match pool.submit(tx_bytes(i, 300)) {
                Ok(()) => admitted += 1,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert_eq!(admitted, 10, "startup cap should admit 3000/300 txs");
        assert_eq!(err, Some(SubmitError::Overloaded));
        assert!(pool.counters().rejected_delay >= 1);
        // Measure a fast drain rate: the startup cap no longer applies and
        // the same pool admits again without draining.
        pool.note_commit(true, 10, 1, Some(2_000), 1_000_000);
        pool.note_commit(true, 1_000, 1_000_000, Some(2_000), 1_020_000);
        assert!(pool.drain_bytes_per_sec() > 1_000_000);
        assert_eq!(pool.submit(tx_bytes(500, 300)), Ok(()));
        assert_identity(&pool);
    }

    /// Submits 300 B transactions until one is refused: how many went in,
    /// and the refusal.
    fn flood(pool: &Mempool) -> (u64, SubmitError) {
        for i in 0..100_000u64 {
            if let Err(e) = pool.submit(tx_bytes(i, 300)) {
                return (i, e);
            }
        }
        panic!("pool never rejected");
    }

    /// Lingering is not queueing. A batch held open for a quarter period
    /// keeps that much paced load pending by design, and the projection
    /// (pending ÷ drain rate) would read it as sojourn: with the rate
    /// measured off a trickle — here one 180 B transaction a second, so
    /// that the 300 ms target admits 54 B — every transaction of the load
    /// that follows would be refused, and an open-loop client counts each
    /// refusal as a failure. Below the batch the consumer fills nothing is
    /// refused; past it the projection is back.
    #[test]
    fn a_pool_lingering_under_a_full_batch_refuses_nothing() {
        let cfg = MempoolConfig::default();
        let pool = Mempool::new(cfg);
        pool.wake_on_admit(|| {}, 18_000);
        for k in 1..=3u64 {
            pool.note_commit(true, 1, 180, Some(300_000), k * 1_000_000);
        }
        assert_eq!(pool.drain_bytes_per_sec(), 180);
        assert_eq!(pool.delay_target_us(), 300_000);
        // 1 000 tx/s for the longest linger there is (50 ms): 50 × 300 B.
        let (admitted, err) = flood(&pool);
        assert!(admitted >= 50, "refused a lingering pool's transaction {admitted}");
        assert_eq!(admitted, 18_000 / 300, "the exemption ends at the full batch");
        assert_eq!(err, SubmitError::Overloaded);

        // At the measured rate of the load itself nothing comes near the
        // target, consumer or not: 100 tx/s of 180 B, a 25 ms linger.
        let paced = Mempool::new(cfg);
        paced.note_commit(true, 10, 1_800, Some(300_000), 1_000_000);
        paced.note_commit(true, 10, 1_800, Some(300_000), 1_100_000);
        assert_eq!(paced.drain_bytes_per_sec(), 18_000);
        for i in 0..3u64 {
            assert_eq!(paced.submit(tx_bytes(i, 180)), Ok(()));
        }
        assert!(paced.projected_delay_us() <= 30_000);

        // Unmeasured, the startup cap is the bound whatever batch size the
        // consumer asked for.
        let cold = Mempool::new(MempoolConfig { startup_bytes: 3_000, ..cfg });
        cold.wake_on_admit(|| {}, 1 << 20);
        assert_eq!(flood(&cold), (10, SubmitError::Overloaded));
        for pool in [&pool, &paced, &cold] {
            assert_identity(pool);
        }
    }

    /// The consumer is woken twice per batch, not once per admission: by
    /// the admission that opens it and by the one that fills it. A second
    /// registration (a restarted node's driver) replaces the first.
    #[test]
    fn the_admissions_that_open_and_fill_a_batch_wake_the_consumer() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let pool = Mempool::new(MempoolConfig::default());
        let register = |pool: &Mempool| {
            let calls = Arc::new(AtomicU64::new(0));
            let c = calls.clone();
            pool.wake_on_admit(
                move || {
                    c.fetch_add(1, Ordering::Relaxed);
                },
                1_000,
            );
            calls
        };
        pool.submit(tx_bytes(0, 300)).unwrap(); // nobody registered: nothing to run
        pool.drain_for_batch(1 << 20);
        let first = register(&pool);
        pool.submit(tx_bytes(1, 300)).unwrap();
        assert_eq!(first.load(Ordering::Relaxed), 1, "the admission that opens a batch");
        pool.submit(tx_bytes(2, 300)).unwrap();
        pool.submit(tx_bytes(3, 300)).unwrap();
        assert_eq!(first.load(Ordering::Relaxed), 1, "admissions in between");
        pool.submit(tx_bytes(4, 300)).unwrap();
        assert_eq!(first.load(Ordering::Relaxed), 2, "the admission that fills it");
        pool.submit(tx_bytes(5, 300)).unwrap();
        assert_eq!(pool.submit(tx_bytes(5, 300)), Err(SubmitError::Duplicate));
        assert_eq!(first.load(Ordering::Relaxed), 2, "past full, or refused");

        let second = register(&pool);
        pool.drain_for_batch(1 << 20);
        pool.submit(tx_bytes(6, 300)).unwrap();
        let calls = (first.load(Ordering::Relaxed), second.load(Ordering::Relaxed));
        assert_eq!(calls, (2, 1), "the later registration replaced the earlier");
        assert_identity(&pool);
    }

    /// ω̂ is the mean gap between commits, and commits that land together
    /// are gaps of zero: three blocks committed at one instant three
    /// periods after the last, then one a period later, are four blocks in
    /// four periods. (Skipping the zero gaps would read 3P, P: a period of
    /// 2P.) A commit after a stall pulls ω̂ up by an eighth of the gap.
    #[test]
    fn block_period_counts_commits_that_land_together_as_zero_gaps() {
        const P: u64 = 100_000;
        let pool = Mempool::new(MempoolConfig::default());
        assert_eq!(pool.block_period_ewma_us(), 0);
        pool.note_commit(false, 0, 0, None, P);
        assert_eq!(pool.block_period_ewma_us(), 0, "one commit is no gap yet");
        for k in 2..=10 {
            pool.note_commit(false, 0, 0, None, k * P);
        }
        assert_eq!(pool.block_period_ewma_us(), P);
        for _ in 0..3 {
            pool.note_commit(false, 0, 0, None, 13 * P);
        }
        pool.note_commit(false, 0, 0, None, 14 * P);
        let period = pool.block_period_ewma_us();
        assert!((9 * P / 10..=11 * P / 10).contains(&period), "ω̂ = {period} µs");

        pool.note_commit(false, 0, 0, None, 14 * P + 8_000_000);
        assert!(pool.block_period_ewma_us() > 1_000_000);
    }

    /// Two clients share the pool: a saturating client with a deep queue
    /// must not starve a paced client with a shallow one. Deficit round
    /// robin gives both clients service every drain, so the paced client's
    /// whole queue clears within the first couple of batches.
    #[test]
    fn deficit_round_robin_prevents_client_starvation() {
        let cfg = MempoolConfig {
            delay_target_multiple: 0, // isolate fairness from admission
            drr_quantum: 256,
            ..MempoolConfig::default()
        };
        let pool = Mempool::new(cfg);
        // Client 1 floods 500 txs, then client 2 trickles 20 — all 100 B.
        for seq in 0..500u64 {
            pool.submit_from(1, crate::batch::make_tx(1_000 + seq, 1, seq, 100)).unwrap();
        }
        for seq in 0..20u64 {
            pool.submit_from(2, crate::batch::make_tx(9_000 + seq, 2, seq, 100)).unwrap();
        }
        // One batch of ~40 txs: DRR must interleave both clients roughly
        // equally even though client 1 queued first and 25× deeper.
        let batch = pool.drain_for_batch(40 * (100 + BATCH_TX_OVERHEAD));
        let from_2 = batch.iter().filter(|t| t.client == 2).count();
        assert!(
            (10..=25).contains(&from_2),
            "paced client starved: {from_2}/20 of its txs in a 40-tx batch"
        );
        // Per-client FIFO survives the interleave.
        let seqs: Vec<u64> = batch
            .iter()
            .filter(|t| t.client == 2)
            .map(|t| u64::from_le_bytes(t.bytes[12..20].try_into().unwrap()))
            .collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "client 2 reordered: {seqs:?}");
        // A second batch finishes client 2 entirely while client 1 still
        // has hundreds pending.
        let batch2 = pool.drain_for_batch(40 * (100 + BATCH_TX_OVERHEAD));
        let drained_2 = from_2 + batch2.iter().filter(|t| t.client == 2).count();
        assert_eq!(drained_2, 20, "paced client not fully served in two batches");
        assert!(pool.len() > 400, "saturating client should still have backlog");
        assert!(pool.fair_visits() > 0);
    }

    /// A client whose whole backlog fits in one quantum is *sparse*: the
    /// drain serves it completely before the bulk rotation, so a paced
    /// client's transactions lead the batch even when a saturator queued
    /// first and holds the rotation front.
    #[test]
    fn sparse_client_served_ahead_of_bulk_rotation() {
        let cfg = MempoolConfig {
            delay_target_multiple: 0,
            drr_quantum: 256,
            ..MempoolConfig::default()
        };
        let pool = Mempool::new(cfg);
        for seq in 0..500u64 {
            pool.submit_from(1, crate::batch::make_tx(1_000 + seq, 1, seq, 100)).unwrap();
        }
        // Two 100 B txs ≈ 232 B of drain cost ≤ the 256 B quantum: sparse.
        pool.submit_from(2, crate::batch::make_tx(9_000, 2, 0, 100)).unwrap();
        pool.submit_from(2, crate::batch::make_tx(9_001, 2, 1, 100)).unwrap();
        let batch = pool.drain_for_batch(5 * (100 + BATCH_TX_OVERHEAD));
        assert!(batch.len() >= 4, "batch too small: {}", batch.len());
        // The sparse client's entire backlog leads the batch.
        assert_eq!(batch[0].client, 2);
        assert_eq!(batch[1].client, 2);
        assert_eq!(batch.iter().filter(|t| t.client == 2).count(), 2);
        // Fresh sparse submissions are again served first next drain.
        pool.submit_from(2, crate::batch::make_tx(9_002, 2, 2, 100)).unwrap();
        let batch2 = pool.drain_for_batch(5 * (100 + BATCH_TX_OVERHEAD));
        assert_eq!(batch2[0].client, 2);
        assert!(pool.len() > 400, "bulk client keeps its backlog");
    }

    /// The sparse sweep runs before the bulk rotation whatever the batch
    /// budget: with a deep bulk backlog and a budget of ~6 transactions,
    /// a paced client's whole backlog still leads every batch, round after
    /// round. (Regression: the sparse pass once ran only on the part of
    /// the pool the bulk rotation reached before the budget filled, so a
    /// paced client waited several drain calls for its turn.)
    #[test]
    fn sparse_sweep_precedes_bulk_beyond_the_batch_budget() {
        let cfg = MempoolConfig {
            delay_target_multiple: 0,
            drr_quantum: 256,
            ..MempoolConfig::default()
        };
        let pool = Mempool::new(cfg);
        // A saturator with a deep backlog.
        for seq in 0..2_000u64 {
            pool.submit_from(1, crate::batch::make_tx(1_000 + seq, 1, seq, 100)).unwrap();
        }
        // Budget ≈ 6 txs: a small slice of the backlog per drain.
        let budget = 6 * (100 + BATCH_TX_OVERHEAD);
        for round in 0..8u64 {
            // Two sparse txs per round.
            pool.submit_from(2, crate::batch::make_tx(9_000 + 2 * round, 2, 2 * round, 100))
                .unwrap();
            pool.submit_from(2, crate::batch::make_tx(9_001 + 2 * round, 2, 2 * round + 1, 100))
                .unwrap();
            let batch = pool.drain_for_batch(budget);
            let sparse: Vec<usize> = batch
                .iter()
                .enumerate()
                .filter(|(_, t)| t.client == 2)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(sparse.len(), 2, "round {round}: sparse client not fully served");
            let first_bulk =
                batch.iter().position(|t| t.client == 1).unwrap_or(batch.len());
            assert!(
                sparse.iter().all(|&i| i < first_bulk),
                "round {round}: sparse txs must precede all bulk txs"
            );
        }
        assert!(pool.len() > 1_900, "bulk client keeps its backlog");
    }

    /// A transaction wider than the DRR quantum is still served: the
    /// client's deficit accumulates across visits (and drain calls) until
    /// it covers the head.
    #[test]
    fn oversized_tx_accumulates_deficit_until_served() {
        let cfg = MempoolConfig {
            delay_target_multiple: 0,
            drr_quantum: 64,
            ..MempoolConfig::default()
        };
        let pool = Mempool::new(cfg);
        pool.submit_from(1, tx_bytes(1, 1_000)).unwrap();
        let mut drained = Vec::new();
        for _ in 0..64 {
            drained = pool.drain_for_batch(4_096);
            if !drained.is_empty() {
                break;
            }
        }
        assert_eq!(drained.len(), 1, "oversized tx never served");
        assert!(pool.is_empty());
    }
}
