//! The shared event-driven network core: sharded poll loops, one dialer,
//! and a batched signature-verification stage.
//!
//! The original transport spent two blocking threads per peer plus one per
//! accepted connection — O(n) threads per node, O(n²) per in-process
//! cluster — which capped the localhost cluster around n ≈ 16. This module
//! replaces all of it with a **fixed** pool of threads shared by every
//! [`Transport`](crate::transport::Transport) attached to it:
//!
//! - **N shards** (≈ min(cores, 8)), each a [`moonshot_reactor::Poller`]
//!   event loop owning a slab of nonblocking sockets: listeners, accepted
//!   (read-only) connections, and dialed (write-mostly) connections.
//!   Connection ownership is exclusive — a socket is touched only by its
//!   shard — so no per-connection locking exists anywhere. Shards do read
//!   framing, frame dispatch, vectored/coalesced writes against the
//!   existing per-peer `OutboundQueue` budgets, per-link shaping, and
//!   redial backoff as loop-local timers in a [`TimerWheel`].
//! - **One dialer** thread: `std` has no nonblocking connect, so blocking
//!   `connect_timeout` + the hello preamble run here, off the event loops;
//!   the connected socket is flipped to nonblocking and handed to its
//!   owning shard. Dial failures schedule an exponential-backoff redial
//!   timer on the owning shard's wheel.
//! - **A sigverify stage** (cf. jito-solana's `sigverify_stage`): shards
//!   decode consensus frames and push them to a bounded queue; worker
//!   threads drain *across all connections and nodes* and call
//!   [`MessageVerifier::verify_batch`], which funnels the accumulated
//!   vote/timeout signatures into one `moonshot-crypto::batch_verify`
//!   call. Only verified messages are delivered to the owning driver
//!   (as [`moonshot_consensus::PreVerified`]); failures count against the
//!   sending peer.
//! - **An ingest stage**: client `SubmitTx` frames are handed to a worker
//!   that runs the tx hash + mempool admission off the event loops. Each
//!   client connection may stage at most [`SUBMIT_PAUSE_BYTES`] of
//!   unprocessed submissions; past that the shard unregisters it until
//!   the worker drains its backlog, so a flooding client is held in its
//!   own TCP window and never stalls consensus traffic on the loop.
//!
//! A pool is either **owned** by a single transport (created when
//! `TransportConfig::pool` is `None`) or **shared** by an in-process
//! cluster — 50 nodes on one box then cost 50 driver threads plus one
//! constant-size pool, instead of ~50·(n+2) transport threads.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use moonshot_consensus::{Message, MessageVerifier};
use moonshot_mempool::{batch_digest, DissemPlane, Mempool};
use moonshot_reactor::{Event, Interest, Poller, Waker};
use moonshot_types::time::{SimDuration, SimTime};
use moonshot_types::NodeId;
use moonshot_wire::{encode_frame, Frame, FrameReader};

use crate::shape::{LinkShape, ShapeMatrix};
use crate::timer::TimerWheel;
use crate::transport::{Inbound, InboundSender, OutboundQueue, PeerMetrics};

/// Read at most this much per connection per wakeup before yielding to the
/// next ready connection; the level-triggered reactor re-fires for the
/// remainder.
const READ_BUDGET: usize = 256 * 1024;
/// Pause reading a client connection once this many submitted-but-not-yet-
/// admitted bytes from it sit in the ingest stage. Tx hashing and
/// admission run on the ingest worker, not the shard loop; this budget is
/// what turns a flooding client's backlog into TCP backpressure (its
/// connection is unregistered until the worker drains it) instead of
/// unbounded queue growth — which is exactly where delay-bounded
/// admission wants the flood held.
const SUBMIT_PAUSE_BYTES: usize = 16 * 1024;
/// Resume a paused client connection when its staged bytes fall below
/// this. The gap to [`SUBMIT_PAUSE_BYTES`] bounds resume-cmd churn.
const SUBMIT_RESUME_BYTES: usize = 4 * 1024;
/// Jobs the ingest worker drains per batch.
const INGEST_DRAIN: usize = 64;
/// Coalesce queued frames into vectored writes up to this many bytes.
const WRITE_COALESCE: usize = 256 * 1024;
/// At most this many `IoSlice`s per `write_vectored` (stays under IOV_MAX).
const WRITE_VECTORS: usize = 64;
/// Bytes a shaper may hold out of the outbound queue; beyond this the
/// frames stay in the queue where its drop-oldest budgets apply.
const SHAPE_STAGE_CAP: usize = 1024 * 1024;
/// Jobs a verify worker drains per batch.
const VERIFY_DRAIN: usize = 128;
/// Timer wheel granularity / slot count for shard-local timers.
const WHEEL_GRANULARITY_US: u64 = 500;
const WHEEL_SLOTS: usize = 256;
/// Cap on one blocking connect attempt in the dialer.
const DIAL_TIMEOUT: Duration = Duration::from_secs(1);

/// Bound on queued sigverify jobs across all connections; overflow drops
/// the newest job (counted in [`NetPoolStats::verify_dropped`]).
const VERIFY_QUEUE_CAPACITY: usize = 16 * 1024;
/// First redial delay; doubles per consecutive failure.
pub(crate) const RECONNECT_BASE: Duration = Duration::from_millis(100);
/// Redial delay ceiling.
const RECONNECT_MAX: Duration = Duration::from_secs(5);

/// Counter snapshot of a [`NetPool`].
#[derive(Clone, Copy, Debug, Default)]
pub struct NetPoolStats {
    /// Number of event-loop shards.
    pub shards: usize,
    /// Total `Poller::wait` returns across all shards.
    pub loop_wakeups: u64,
    /// Frames handled (decoded inbound + fully written outbound) across
    /// all shards.
    pub frames_processed: u64,
    /// Sigverify jobs dropped because the stage queue was full.
    pub verify_dropped: u64,
    /// Sigverify jobs currently queued.
    pub verify_queue_depth: u64,
    /// Client submissions currently staged for the ingest worker.
    pub ingest_queue_depth: u64,
}

/// Everything the event loops need to serve one attached transport.
pub(crate) struct NodeCore {
    /// Pool-unique id, used to find this node's sockets at detach.
    pub(crate) id: u64,
    pub(crate) node: NodeId,
    pub(crate) inbound: InboundSender,
    pub(crate) verifier: Arc<MessageVerifier>,
    pub(crate) mempool: Option<Arc<Mempool>>,
    pub(crate) dissem: Arc<DissemPlane>,
    pub(crate) peers: BTreeMap<NodeId, Arc<PeerState>>,
    pub(crate) addrs: BTreeMap<NodeId, SocketAddr>,
    /// The transport's shutdown flag: set before detach, checked by the
    /// dialer and by redial timers so a stopping node is never redialed.
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) shape: Option<Arc<ShapeMatrix>>,
}

/// Per-peer connection state shared between the transport facade (pushes
/// frames, nudges) and the owning shard (drains, dials).
pub(crate) struct PeerState {
    pub(crate) queue: Arc<OutboundQueue>,
    pub(crate) metrics: Arc<PeerMetrics>,
    /// `(shard index, slab token)` of the live outbound connection, if
    /// any; written only by the owning shard, read by send-side nudges.
    pub(crate) conn: Mutex<Option<(usize, usize)>>,
    /// Current redial backoff; reset to base on an established hello.
    pub(crate) backoff: Mutex<Duration>,
    /// Whether a hello ever succeeded on this link — pre-establishment
    /// dial failures are the startup race and never count as reconnects.
    pub(crate) established_once: AtomicBool,
}

struct DialReq {
    core: Arc<NodeCore>,
    peer: NodeId,
}

enum Cmd {
    AddListener { core: Arc<NodeCore>, listener: TcpListener },
    AddOutbound { core: Arc<NodeCore>, peer: NodeId, stream: TcpStream },
    CloseNode { core_id: u64, latch: Arc<Latch> },
    Redial { core: Arc<NodeCore>, peer: NodeId, after: Duration },
    /// The ingest worker drained a paused client connection's backlog
    /// below [`SUBMIT_RESUME_BYTES`]: re-register it for reads. Tokens
    /// may be reused, so the handler re-checks that the entry is a paused
    /// client; a spurious resume merely loosens backpressure for one
    /// read visit.
    ResumeRead { token: usize },
}

/// Shard-local timers, multiplexed on one [`TimerWheel`].
enum ShardTimer {
    Redial { core: Arc<NodeCore>, peer: NodeId },
    Release { token: usize },
}

struct Latch {
    remaining: Mutex<usize>,
    cv: Condvar,
}

impl Latch {
    fn new(n: usize) -> Latch {
        Latch { remaining: Mutex::new(n), cv: Condvar::new() }
    }

    fn count_down(&self) {
        let mut r = self.remaining.lock().unwrap();
        *r = r.saturating_sub(1);
        if *r == 0 {
            self.cv.notify_all();
        }
    }

    fn wait(&self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        let mut r = self.remaining.lock().unwrap();
        while *r > 0 {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            let (guard, _) = self.cv.wait_timeout(r, deadline - now).unwrap();
            r = guard;
        }
    }
}

/// The cross-thread face of one shard: commands in, write nudges in, wake.
struct ShardHandle {
    waker: Waker,
    inbox: Mutex<Vec<Cmd>>,
    /// Slab tokens whose outbound queues got new frames.
    dirty: Mutex<Vec<usize>>,
    /// Wake-coalescing flag: set by the first nudger, cleared by the loop
    /// at the top of each iteration.
    notified: AtomicBool,
    wakeups: AtomicU64,
    frames: AtomicU64,
}

impl ShardHandle {
    fn wake(&self) {
        if !self.notified.swap(true, Ordering::AcqRel) {
            let _ = self.waker.wake();
        }
    }

    fn push_cmd(&self, cmd: Cmd) {
        self.inbox.lock().unwrap().push(cmd);
        self.wake();
    }

    fn nudge(&self, token: usize) {
        self.dirty.lock().unwrap().push(token);
        self.wake();
    }
}

struct VerifyJob {
    core: Arc<NodeCore>,
    from: NodeId,
    msg: Message,
}

struct VerifyQueue {
    jobs: Mutex<VecDeque<VerifyJob>>,
    signal: Condvar,
    capacity: usize,
    dropped: AtomicU64,
}

impl VerifyQueue {
    fn push(&self, job: VerifyJob) {
        let mut jobs = self.jobs.lock().unwrap();
        if jobs.len() >= self.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        jobs.push_back(job);
        drop(jobs);
        self.signal.notify_one();
    }
}

/// One client transaction awaiting hash + mempool admission on the ingest
/// worker. `bytes` mirrors what the shard added to `inflight` so the
/// worker's subtraction is exactly symmetric.
struct SubmitJob {
    mempool: Arc<Mempool>,
    client: u32,
    tx: Vec<u8>,
    inflight: Arc<AtomicUsize>,
    bytes: usize,
    shard: usize,
    token: usize,
}

/// The ingest stage's queue: one sub-queue per connection, drained
/// round-robin. A single FIFO would let one flooding client park hundreds
/// of transactions ahead of every paced client's next submission; round-
/// robin bounds any client's wait to one job per live connection, which is
/// the fairness the thread-per-connection transport got from the scheduler
/// for free. Unbounded as a structure: the real bound is per-connection —
/// a client with [`SUBMIT_PAUSE_BYTES`] staged here is paused by its
/// shard, so total depth is `O(clients)`.
struct IngestQueue {
    state: Mutex<IngestState>,
    signal: Condvar,
}

#[derive(Default)]
struct IngestState {
    /// `((shard, token), jobs)` per connection with staged submissions.
    /// Linear scan: live client connections are few. A token reused by a
    /// successor connection briefly shares the sub-queue; per-client order
    /// still holds (a client's stream maps to one connection at a time).
    queues: Vec<((usize, usize), VecDeque<SubmitJob>)>,
    cursor: usize,
    total: usize,
}

impl IngestQueue {
    fn push(&self, job: SubmitJob) {
        let mut st = self.state.lock().unwrap();
        let key = (job.shard, job.token);
        match st.queues.iter_mut().find(|(k, _)| *k == key) {
            Some((_, q)) => q.push_back(job),
            None => st.queues.push((key, VecDeque::from([job]))),
        }
        st.total += 1;
        drop(st);
        self.signal.notify_one();
    }

    /// Pops up to `max` jobs round-robin across connections into `batch`.
    fn drain_rr(&self, st: &mut IngestState, batch: &mut Vec<SubmitJob>, max: usize) {
        while batch.len() < max && st.total > 0 {
            let n = st.queues.len();
            for _ in 0..n {
                if batch.len() >= max {
                    break;
                }
                let i = st.cursor % n;
                st.cursor = (st.cursor + 1) % n;
                if let Some(job) = st.queues[i].1.pop_front() {
                    batch.push(job);
                    st.total -= 1;
                }
            }
        }
        st.queues.retain(|(_, q)| !q.is_empty());
        st.cursor = 0;
    }
}

/// A fixed-size pool of event-loop shards + dialer + sigverify workers,
/// shared by one or many transports. Create with [`NetPool::new`], tear
/// down with [`NetPool::shutdown`] after every attached transport stopped.
pub struct NetPool {
    shards: Vec<Arc<ShardHandle>>,
    verify: Arc<VerifyQueue>,
    ingest: Arc<IngestQueue>,
    dial_tx: Mutex<Sender<DialReq>>,
    shutdown: Arc<AtomicBool>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    next_core: AtomicU64,
    next_listener_shard: AtomicUsize,
}

impl std::fmt::Debug for NetPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NetPool(shards={})", self.shards.len())
    }
}

impl NetPool {
    /// Spawns the pool's threads: `min(cores, 8)` event-loop shards, one
    /// dialer, `min(cores, 4)` sigverify workers, one ingest worker.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> io::Result<Arc<NetPool>> {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let nshards = cores.clamp(1, 8);
        let shutdown = Arc::new(AtomicBool::new(false));
        let (dial_tx, dial_rx) = channel::<DialReq>();

        let mut pollers = Vec::with_capacity(nshards);
        let mut handles: Vec<Arc<ShardHandle>> = Vec::with_capacity(nshards);
        for _ in 0..nshards {
            let poller = Poller::new()?;
            let waker = Waker::for_poller(&poller)?;
            handles.push(Arc::new(ShardHandle {
                waker,
                inbox: Mutex::new(Vec::new()),
                dirty: Mutex::new(Vec::new()),
                notified: AtomicBool::new(false),
                wakeups: AtomicU64::new(0),
                frames: AtomicU64::new(0),
            }));
            pollers.push(poller);
        }
        let verify = Arc::new(VerifyQueue {
            jobs: Mutex::new(VecDeque::new()),
            signal: Condvar::new(),
            capacity: VERIFY_QUEUE_CAPACITY,
            dropped: AtomicU64::new(0),
        });
        let ingest = Arc::new(IngestQueue {
            state: Mutex::new(IngestState::default()),
            signal: Condvar::new(),
        });

        let mut threads = Vec::new();
        for (idx, poller) in pollers.into_iter().enumerate() {
            let runner = Runner {
                idx,
                poller,
                handle: handles[idx].clone(),
                shards: handles.clone(),
                entries: Vec::new(),
                free: Vec::new(),
                wheel: TimerWheel::new(
                    SimDuration::from_micros(WHEEL_GRANULARITY_US),
                    WHEEL_SLOTS,
                ),
                epoch: Instant::now(),
                shutdown: shutdown.clone(),
                dial_tx: dial_tx.clone(),
                verify: verify.clone(),
                ingest: ingest.clone(),
                events: Vec::new(),
                buf: vec![0u8; 64 * 1024],
            };
            threads.push(
                std::thread::Builder::new()
                    .name(format!("net-shard-{idx}"))
                    .spawn(move || runner.run())
                    .expect("spawn shard"),
            );
        }
        {
            let shards = handles.clone();
            let shutdown = shutdown.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("net-dial".into())
                    .spawn(move || dialer_loop(dial_rx, shards, shutdown))
                    .expect("spawn dialer"),
            );
        }
        for w in 0..cores.clamp(1, 4) {
            let verify = verify.clone();
            let shutdown = shutdown.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("net-verify-{w}"))
                    .spawn(move || verify_worker(verify, shutdown))
                    .expect("spawn verify worker"),
            );
        }
        {
            // One ingest worker: per-client submission order is preserved,
            // and admission throughput is hash-bound, not thread-bound.
            let ingest = ingest.clone();
            let shards = handles.clone();
            let shutdown = shutdown.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("net-ingest".into())
                    .spawn(move || ingest_worker(ingest, shards, shutdown))
                    .expect("spawn ingest worker"),
            );
        }

        Ok(Arc::new(NetPool {
            shards: handles,
            verify,
            ingest,
            dial_tx: Mutex::new(dial_tx),
            shutdown,
            threads: Mutex::new(threads),
            next_core: AtomicU64::new(0),
            next_listener_shard: AtomicUsize::new(0),
        }))
    }

    /// Number of event-loop shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> NetPoolStats {
        let mut wakeups = 0;
        let mut frames = 0;
        for s in &self.shards {
            wakeups += s.wakeups.load(Ordering::Relaxed);
            frames += s.frames.load(Ordering::Relaxed);
        }
        NetPoolStats {
            shards: self.shards.len(),
            loop_wakeups: wakeups,
            frames_processed: frames,
            verify_dropped: self.verify.dropped.load(Ordering::Relaxed),
            verify_queue_depth: self.verify.jobs.lock().unwrap().len() as u64,
            ingest_queue_depth: self.ingest.state.lock().unwrap().total as u64,
        }
    }

    /// Per-shard `(wakeups, frames)` counters, indexed by shard.
    pub fn shard_counters(&self) -> Vec<(u64, u64)> {
        self.shards
            .iter()
            .map(|s| (s.wakeups.load(Ordering::Relaxed), s.frames.load(Ordering::Relaxed)))
            .collect()
    }

    pub(crate) fn next_core_id(&self) -> u64 {
        self.next_core.fetch_add(1, Ordering::Relaxed)
    }

    /// Hands a node's listener to a shard (round-robin) and kicks off the
    /// initial dial cycle for every peer. Exactly one autonomous dial
    /// cycle runs per peer: started here, continued by redial timers on
    /// failure and by connection-loss redials, ended by the core's
    /// shutdown flag.
    pub(crate) fn attach(&self, core: Arc<NodeCore>, listener: TcpListener) {
        let li = self.next_listener_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        self.shards[li].push_cmd(Cmd::AddListener { core: core.clone(), listener });
        let tx = self.dial_tx.lock().unwrap();
        for peer in core.peers.keys() {
            let _ = tx.send(DialReq { core: core.clone(), peer: *peer });
        }
    }

    /// Closes every socket belonging to `core` (its shutdown flag must
    /// already be set) and waits for all shards to acknowledge.
    pub(crate) fn detach(&self, core: &NodeCore) {
        let latch = Arc::new(Latch::new(self.shards.len()));
        for s in &self.shards {
            s.push_cmd(Cmd::CloseNode { core_id: core.id, latch: latch.clone() });
        }
        latch.wait(Duration::from_secs(10));
    }

    /// Wakes the shard owning `peer`'s live connection so newly queued
    /// frames get written. A peer with no connection needs no nudge — the
    /// queue is drained when the dialer attaches one.
    pub(crate) fn nudge_peer(&self, peer: &PeerState) {
        if let Some((shard, token)) = *peer.conn.lock().unwrap() {
            self.shards[shard].nudge(token);
        }
    }

    /// Stops every pool thread and joins them. Call after all attached
    /// transports stopped; attached cores' sockets are closed by thread
    /// exit either way.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for s in &self.shards {
            let _ = s.waker.wake();
        }
        self.verify.signal.notify_all();
        self.ingest.signal.notify_all();
        let threads = std::mem::take(&mut *self.threads.lock().unwrap());
        for t in threads {
            let _ = t.join();
        }
    }
}

/// Which shard owns the outbound connection `core → peer`.
fn out_shard(core_id: u64, peer: NodeId, nshards: usize) -> usize {
    ((core_id as usize).wrapping_mul(31).wrapping_add(peer.0 as usize)) % nshards
}

// ---------------------------------------------------------------------------
// Dialer
// ---------------------------------------------------------------------------

fn dialer_loop(rx: Receiver<DialReq>, shards: Vec<Arc<ShardHandle>>, shutdown: Arc<AtomicBool>) {
    let nshards = shards.len();
    while !shutdown.load(Ordering::SeqCst) {
        let DialReq { core, peer } = match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(req) => req,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        if core.shutdown.load(Ordering::SeqCst) || shutdown.load(Ordering::SeqCst) {
            continue;
        }
        let Some(state) = core.peers.get(&peer) else { continue };
        let Some(addr) = core.addrs.get(&peer).copied() else { continue };
        let shard = &shards[out_shard(core.id, peer, nshards)];
        match TcpStream::connect_timeout(&addr, DIAL_TIMEOUT) {
            Ok(mut stream) => {
                let _ = stream.set_nodelay(true);
                let hello = encode_frame(&Frame::Hello { node: core.node });
                if stream.write_all(&hello).is_err() {
                    schedule_redial(shard, &core, peer, state);
                    continue;
                }
                if core.shutdown.load(Ordering::SeqCst) {
                    continue; // stopping node: drop the fresh connection
                }
                if state.established_once.swap(true, Ordering::SeqCst) {
                    state.metrics.reconnects.fetch_add(1, Ordering::Relaxed);
                }
                state.metrics.bytes_out.fetch_add(hello.len() as u64, Ordering::Relaxed);
                *state.backoff.lock().unwrap() = RECONNECT_BASE;
                if stream.set_nonblocking(true).is_err() {
                    schedule_redial(shard, &core, peer, state);
                    continue;
                }
                shard.push_cmd(Cmd::AddOutbound { core: core.clone(), peer, stream });
            }
            Err(_) => schedule_redial(shard, &core, peer, state),
        }
    }
}

/// Arms an exponential-backoff redial on the owning shard's timer wheel.
fn schedule_redial(shard: &ShardHandle, core: &Arc<NodeCore>, peer: NodeId, state: &PeerState) {
    let mut b = state.backoff.lock().unwrap();
    let after = *b;
    *b = (*b * 2).min(RECONNECT_MAX);
    drop(b);
    shard.push_cmd(Cmd::Redial { core: core.clone(), peer, after });
}

// ---------------------------------------------------------------------------
// Sigverify stage
// ---------------------------------------------------------------------------

fn verify_worker(q: Arc<VerifyQueue>, shutdown: Arc<AtomicBool>) {
    let mut batch: Vec<VerifyJob> = Vec::with_capacity(VERIFY_DRAIN);
    loop {
        {
            let mut jobs = q.jobs.lock().unwrap();
            while jobs.is_empty() {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let (guard, _) =
                    q.signal.wait_timeout(jobs, Duration::from_millis(100)).unwrap();
                jobs = guard;
            }
            while batch.len() < VERIFY_DRAIN {
                match jobs.pop_front() {
                    Some(j) => batch.push(j),
                    None => break,
                }
            }
        }
        // Group by owning node (order preserved within a group) so each
        // group hits its node's verifier/cache once with one batch.
        type Group = (Arc<NodeCore>, Vec<(NodeId, Message)>);
        let mut groups: Vec<Group> = Vec::new();
        for job in batch.drain(..) {
            match groups.iter_mut().find(|(c, _)| c.id == job.core.id) {
                Some((_, items)) => items.push((job.from, job.msg)),
                None => groups.push((job.core, vec![(job.from, job.msg)])),
            }
        }
        for (core, items) in groups {
            if core.shutdown.load(Ordering::SeqCst) {
                continue;
            }
            let (froms, msgs): (Vec<NodeId>, Vec<Message>) = items.into_iter().unzip();
            let results = core.verifier.verify_batch(msgs);
            for (from, result) in froms.into_iter().zip(results) {
                match result {
                    Ok(msg) => {
                        let _ = core.inbound.send(Inbound { from, msg });
                    }
                    Err(_) => {
                        if let Some(p) = core.peers.get(&from) {
                            p.metrics.verify_failures.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Ingest stage
// ---------------------------------------------------------------------------

/// Runs tx hashing + mempool admission off the event loops, and resumes
/// paused client connections whose staged backlog drains below
/// [`SUBMIT_RESUME_BYTES`]. The downward threshold crossing is detected
/// atomically by `fetch_sub`, so exactly one resume command fires per
/// descent — and every pause (which requires a prior ascent past
/// [`SUBMIT_PAUSE_BYTES`]) is followed by such a descent, so a paused
/// connection is never stranded.
fn ingest_worker(q: Arc<IngestQueue>, shards: Vec<Arc<ShardHandle>>, shutdown: Arc<AtomicBool>) {
    let mut batch: Vec<SubmitJob> = Vec::with_capacity(INGEST_DRAIN);
    loop {
        {
            let mut st = q.state.lock().unwrap();
            while st.total == 0 {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let (guard, _) =
                    q.signal.wait_timeout(st, Duration::from_millis(100)).unwrap();
                st = guard;
            }
            q.drain_rr(&mut st, &mut batch, INGEST_DRAIN);
        }
        for job in batch.drain(..) {
            let _ = job.mempool.submit_from(job.client, job.tx);
            let prev = job.inflight.fetch_sub(job.bytes, Ordering::AcqRel);
            let new = prev.saturating_sub(job.bytes);
            if prev > SUBMIT_RESUME_BYTES && new <= SUBMIT_RESUME_BYTES {
                shards[job.shard].push_cmd(Cmd::ResumeRead { token: job.token });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Shard event loop
// ---------------------------------------------------------------------------

/// Sender-side per-link shaper: frames pulled from the outbound queue wait
/// out the configured one-way delay in a staging queue and drain through a
/// deficit-style token bucket.
struct Shaper {
    delay: Duration,
    /// Bytes/second as f64; 0.0 = unlimited.
    rate: f64,
    burst: f64,
    /// Deficit tokens: sending is allowed while ≥ 0, each sent frame
    /// subtracts its length (may go negative, charging the next release).
    tokens: f64,
    last_refill: Instant,
    staged: VecDeque<(Arc<Vec<u8>>, Instant)>,
    staged_bytes: usize,
}

impl Shaper {
    fn new(link: &LinkShape) -> Shaper {
        let rate = link.rate_bps as f64;
        let burst = if link.burst_bytes > 0 { link.burst_bytes as f64 } else { 64.0 * 1024.0 };
        Shaper {
            delay: link.delay,
            rate,
            burst,
            tokens: burst,
            last_refill: Instant::now(),
            staged: VecDeque::new(),
            staged_bytes: 0,
        }
    }

    fn stage(&mut self, frame: Arc<Vec<u8>>, now: Instant) {
        self.staged_bytes += frame.len();
        self.staged.push_back((frame, now + self.delay));
    }

    fn refill(&mut self, now: Instant) {
        if self.rate > 0.0 {
            let dt = now.duration_since(self.last_refill).as_secs_f64();
            self.tokens = (self.tokens + self.rate * dt).min(self.burst);
        }
        self.last_refill = now;
    }

    fn release(&mut self, now: Instant) -> Option<Arc<Vec<u8>>> {
        let (_, at) = self.staged.front()?;
        if *at > now || (self.rate > 0.0 && self.tokens < 0.0) {
            return None;
        }
        let (frame, _) = self.staged.pop_front().expect("front checked");
        self.staged_bytes -= frame.len();
        if self.rate > 0.0 {
            self.tokens -= frame.len() as f64;
        }
        Some(frame)
    }

    /// How long until the head frame becomes releasable, if one is staged.
    fn next_ready(&self, now: Instant) -> Option<Duration> {
        let (_, at) = self.staged.front()?;
        let delay_wait = at.saturating_duration_since(now);
        let token_wait = if self.rate > 0.0 && self.tokens < 0.0 {
            Duration::from_secs_f64((-self.tokens) / self.rate)
        } else {
            Duration::ZERO
        };
        Some(delay_wait.max(token_wait))
    }
}

enum Entry {
    Listener { core: Arc<NodeCore>, listener: TcpListener },
    In(InConn),
    Out(OutConn),
}

/// An accepted, read-only connection (a peer's dialed stream, or a client).
struct InConn {
    core: Arc<NodeCore>,
    stream: TcpStream,
    reader: FrameReader,
    from: Option<NodeId>,
    /// Whether this connection has submitted transactions (client, not
    /// validator): it becomes pausable under ingest-stage backpressure.
    client: bool,
    /// Bytes this connection has staged in the ingest queue, not yet
    /// admitted. Shared with [`SubmitJob`]s; crossing
    /// [`SUBMIT_PAUSE_BYTES`] pauses the connection.
    submit_inflight: Arc<AtomicUsize>,
    /// Reads unregistered until the ingest worker sends `ResumeRead`.
    paused: bool,
}

/// A dialed, write-mostly connection to one peer. Registered readable too,
/// so the remote's FIN is noticed promptly and triggers a redial.
struct OutConn {
    core: Arc<NodeCore>,
    peer: NodeId,
    state: Arc<PeerState>,
    stream: TcpStream,
    /// Frames popped from the queue, partially or not yet written;
    /// `(frame, offset of first unwritten byte)`.
    pending: VecDeque<(Arc<Vec<u8>>, usize)>,
    pending_bytes: usize,
    want_writable: bool,
    shaper: Option<Shaper>,
    /// Whether a `Release` timer is armed for this token (bounds timer
    /// churn to one armed release per connection).
    release_armed: bool,
}

enum ReadVerdict {
    Keep,
    Close,
    /// Client over its ingest budget: unregister reads until resumed.
    Pause,
}

struct Runner {
    idx: usize,
    poller: Poller,
    handle: Arc<ShardHandle>,
    /// All shard handles, for cross-shard nudges (fetch responses pushed
    /// to a requester whose connection lives on another shard).
    shards: Vec<Arc<ShardHandle>>,
    entries: Vec<Option<Entry>>,
    free: Vec<usize>,
    wheel: TimerWheel<ShardTimer>,
    epoch: Instant,
    shutdown: Arc<AtomicBool>,
    dial_tx: Sender<DialReq>,
    verify: Arc<VerifyQueue>,
    ingest: Arc<IngestQueue>,
    events: Vec<Event>,
    buf: Vec<u8>,
}

impl Runner {
    fn run(mut self) {
        loop {
            let timeout = self.next_timeout();
            let mut events = std::mem::take(&mut self.events);
            let _ = self.poller.wait(&mut events, Some(timeout));
            self.events = events;
            self.handle.wakeups.fetch_add(1, Ordering::Relaxed);
            self.handle.notified.store(false, Ordering::Release);
            if self.shutdown.load(Ordering::SeqCst) {
                return; // dropping self closes every socket and the poller
            }

            let cmds = std::mem::take(&mut *self.handle.inbox.lock().unwrap());
            for cmd in cmds {
                self.handle_cmd(cmd);
            }

            let mut dirty = std::mem::take(&mut *self.handle.dirty.lock().unwrap());
            dirty.sort_unstable();
            dirty.dedup();
            for token in dirty {
                self.drive_write(token);
            }

            let events = std::mem::take(&mut self.events);
            for ev in &events {
                self.dispatch(ev);
            }
            self.events = events;

            let now = self.now();
            for timer in self.wheel.expire(now) {
                match timer {
                    ShardTimer::Redial { core, peer } => {
                        if !core.shutdown.load(Ordering::SeqCst)
                            && !self.shutdown.load(Ordering::SeqCst)
                        {
                            let _ = self.dial_tx.send(DialReq { core, peer });
                        }
                    }
                    ShardTimer::Release { token } => {
                        if let Some(Some(Entry::Out(c))) = self.entries.get_mut(token) {
                            c.release_armed = false;
                        }
                        self.drive_write(token);
                    }
                }
            }
        }
    }

    fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_micros() as u64)
    }

    /// How long the loop may block: until the next armed timer, or the idle
    /// tick. [`Poller::wait`] rounds this up to whole milliseconds and never
    /// returns early, so the loop sleeps through the approach to a deadline
    /// and the sweep after the wake fires every timer due by then: a shaped
    /// frame leaves up to 1 ms late (on 30–160 ms links), never early.
    fn next_timeout(&self) -> Duration {
        let default = Duration::from_millis(500);
        match self.wheel.next_deadline() {
            None => default,
            Some(d) => Duration::from_micros(d.0.saturating_sub(self.now().0)).min(default),
        }
    }

    fn alloc_token(&mut self) -> usize {
        match self.free.pop() {
            Some(t) => t,
            None => {
                self.entries.push(None);
                self.entries.len() - 1
            }
        }
    }

    fn handle_cmd(&mut self, cmd: Cmd) {
        match cmd {
            Cmd::AddListener { core, listener } => {
                let token = self.alloc_token();
                if self.poller.register(listener.as_raw_fd(), token, Interest::READABLE).is_err()
                {
                    self.free.push(token);
                    return;
                }
                self.entries[token] = Some(Entry::Listener { core, listener });
                self.accept_ready(token); // connections may already be queued
            }
            Cmd::AddOutbound { core, peer, stream } => {
                if core.shutdown.load(Ordering::SeqCst) {
                    return; // raced with the node stopping: drop the socket
                }
                let Some(state) = core.peers.get(&peer).cloned() else { return };
                let token = self.alloc_token();
                if self.poller.register(stream.as_raw_fd(), token, Interest::READABLE).is_err() {
                    self.free.push(token);
                    return;
                }
                let shaper = core
                    .shape
                    .as_ref()
                    .map(|m| m.link(core.node, peer))
                    .filter(|l| l.is_shaped())
                    .map(|l| Shaper::new(&l));
                *state.conn.lock().unwrap() = Some((self.idx, token));
                self.entries[token] = Some(Entry::Out(OutConn {
                    core,
                    peer,
                    state,
                    stream,
                    pending: VecDeque::new(),
                    pending_bytes: 0,
                    want_writable: false,
                    shaper,
                    release_armed: false,
                }));
                self.drive_write(token); // frames may be queued already
            }
            Cmd::CloseNode { core_id, latch } => {
                let tokens: Vec<usize> = self
                    .entries
                    .iter()
                    .enumerate()
                    .filter_map(|(t, e)| match e {
                        Some(Entry::Listener { core, .. }) if core.id == core_id => Some(t),
                        Some(Entry::In(c)) if c.core.id == core_id => Some(t),
                        Some(Entry::Out(c)) if c.core.id == core_id => Some(t),
                        _ => None,
                    })
                    .collect();
                for token in tokens {
                    self.close_entry(token);
                }
                latch.count_down();
            }
            Cmd::Redial { core, peer, after } => {
                let at = SimTime(self.now().0 + after.as_micros() as u64);
                self.wheel.arm(at, ShardTimer::Redial { core, peer });
            }
            Cmd::ResumeRead { token } => {
                if let Some(Some(Entry::In(c))) = self.entries.get_mut(token) {
                    if c.paused
                        && c.submit_inflight.load(Ordering::Acquire) < SUBMIT_PAUSE_BYTES
                    {
                        c.paused = false;
                        let _ = self.poller.reregister(
                            c.stream.as_raw_fd(),
                            token,
                            Interest::READABLE,
                        );
                        // Level-triggered: buffered bytes re-fire on the
                        // next wait; no manual read needed here.
                    }
                }
            }
        }
    }

    /// Silently closes an entry (node teardown): deregister, drop, free.
    fn close_entry(&mut self, token: usize) {
        let Some(entry) = self.entries[token].take() else { return };
        match &entry {
            Entry::Listener { listener, .. } => {
                let _ = self.poller.deregister(listener.as_raw_fd());
            }
            Entry::In(c) => {
                let _ = self.poller.deregister(c.stream.as_raw_fd());
            }
            Entry::Out(c) => {
                let _ = self.poller.deregister(c.stream.as_raw_fd());
                *c.state.conn.lock().unwrap() = None;
            }
        }
        self.free.push(token);
    }

    fn dispatch(&mut self, ev: &Event) {
        let Some(slot) = self.entries.get(ev.token) else { return };
        match slot {
            Some(Entry::Listener { .. }) => self.accept_ready(ev.token),
            Some(Entry::In(_)) => self.drive_read(ev.token),
            Some(Entry::Out(_)) => {
                if ev.readable || ev.hangup {
                    // Write-only protocol: readability means FIN or error.
                    if self.out_read_closed(ev.token) {
                        self.fail_out(ev.token);
                        return;
                    }
                }
                if ev.writable {
                    self.drive_write(ev.token);
                }
            }
            None => {} // freed earlier in this batch
        }
    }

    /// Checks an outbound connection's read half. Returns true when the
    /// remote closed or errored (connection is dead).
    fn out_read_closed(&mut self, token: usize) -> bool {
        let Some(Some(Entry::Out(c))) = self.entries.get_mut(token) else { return false };
        loop {
            match c.stream.read(&mut self.buf) {
                Ok(0) => return true,
                Ok(_) => continue, // unexpected data on a write-only stream
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return false,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return true,
            }
        }
    }

    fn accept_ready(&mut self, token: usize) {
        let Some(Some(Entry::Listener { .. })) = self.entries.get(token) else { return };
        let Some(Entry::Listener { core, listener }) = self.entries[token].take() else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let t = self.alloc_token();
                    if self.poller.register(stream.as_raw_fd(), t, Interest::READABLE).is_err() {
                        self.free.push(t);
                        continue;
                    }
                    self.entries[t] = Some(Entry::In(InConn {
                        core: core.clone(),
                        stream,
                        reader: FrameReader::new(),
                        from: None,
                        client: false,
                        submit_inflight: Arc::new(AtomicUsize::new(0)),
                        paused: false,
                    }));
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break, // transient accept error; retry on next event
            }
        }
        self.entries[token] = Some(Entry::Listener { core, listener });
    }

    fn drive_read(&mut self, token: usize) {
        let Some(Some(Entry::In(_))) = self.entries.get(token) else { return };
        let Some(Entry::In(mut c)) = self.entries[token].take() else { return };
        match self.pump_in(&mut c, token) {
            ReadVerdict::Keep => {
                self.entries[token] = Some(Entry::In(c));
            }
            ReadVerdict::Close => {
                let _ = self.poller.deregister(c.stream.as_raw_fd());
                self.free.push(token);
            }
            ReadVerdict::Pause => {
                let _ =
                    self.poller.reregister(c.stream.as_raw_fd(), token, Interest::NONE);
                c.paused = true;
                self.entries[token] = Some(Entry::In(c));
            }
        }
    }

    /// The translated reader loop: drain the socket (bounded per wakeup),
    /// frame, dispatch. Mirrors the retired thread-per-connection
    /// `reader_loop` byte for byte in its dispatch semantics.
    fn pump_in(&mut self, c: &mut InConn, token: usize) -> ReadVerdict {
        let mut consumed = 0usize;
        loop {
            let n = match c.stream.read(&mut self.buf) {
                Ok(0) => return ReadVerdict::Close, // peer closed; it redials
                Ok(n) => n,
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return ReadVerdict::Close,
            };
            if let Some(id) = c.from {
                if let Some(p) = c.core.peers.get(&id) {
                    p.metrics.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                }
            }
            c.reader.extend(&self.buf[..n]);
            loop {
                match c.reader.next_frame() {
                    Ok(Some(frame)) => {
                        if let ReadVerdict::Close = self.handle_frame(c, frame, n, token) {
                            return ReadVerdict::Close;
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        // Framing is lost; the connection is unrecoverable.
                        if let Some(p) = c.from.and_then(|id| c.core.peers.get(&id)) {
                            p.metrics.decode_errors.fetch_add(1, Ordering::Relaxed);
                        }
                        return ReadVerdict::Close;
                    }
                }
            }
            // Client over its ingest budget: stop reading mid-visit so its
            // unread flood stays in the socket (TCP backpressure), and
            // unregister until the ingest worker drains the staged part.
            if c.client && c.submit_inflight.load(Ordering::Acquire) >= SUBMIT_PAUSE_BYTES {
                return ReadVerdict::Pause;
            }
            consumed += n;
            // A short read emptied the socket: asking again would only buy
            // a `WouldBlock`, and the level-triggered poller reports
            // whatever arrives from here on. A spent budget yields to other
            // connections the same way.
            if n < self.buf.len() || consumed >= READ_BUDGET {
                break;
            }
        }
        ReadVerdict::Keep
    }

    /// One decoded frame; `chunk_len` is the size of the read that carried
    /// it (for hello byte attribution), `token` the connection's slab slot
    /// (for ingest-stage resume routing).
    fn handle_frame(
        &mut self,
        c: &mut InConn,
        frame: Frame,
        chunk_len: usize,
        token: usize,
    ) -> ReadVerdict {
        self.handle.frames.fetch_add(1, Ordering::Relaxed);
        match frame {
            Frame::Hello { node } => {
                if c.from.is_some() || !c.core.peers.contains_key(&node) {
                    return ReadVerdict::Close; // re-hello or unknown peer
                }
                // Bytes read before identification attribute here.
                if let Some(p) = c.core.peers.get(&node) {
                    p.metrics.bytes_in.fetch_add(chunk_len as u64, Ordering::Relaxed);
                }
                c.from = Some(node);
            }
            Frame::SubmitTx { client, tx } => {
                // Client submissions need no hello: clients are not
                // validators. The shard only frames and stages them; the
                // tx hash, dedup and admission control run on the ingest
                // worker so a flood never stalls consensus traffic here.
                // The driver never sees raw submissions; the mempool's
                // counters record the outcome.
                c.client = true;
                if let Some(pool) = &c.core.mempool {
                    let bytes = tx.len().max(1);
                    c.submit_inflight.fetch_add(bytes, Ordering::AcqRel);
                    self.ingest.push(SubmitJob {
                        mempool: pool.clone(),
                        client,
                        tx,
                        inflight: c.submit_inflight.clone(),
                        bytes,
                        shard: self.idx,
                        token,
                    });
                }
            }
            Frame::BatchPush { digest, bytes } | Frame::BatchResponse { digest, bytes } => {
                let plane = &c.core.dissem;
                if c.from.is_none() {
                    return ReadVerdict::Close; // batch frames before hello
                }
                if batch_digest(&bytes) != digest {
                    plane.counters.digest_mismatches.fetch_add(1, Ordering::Relaxed);
                    return ReadVerdict::Keep;
                }
                plane.store.insert(digest, bytes);
            }
            Frame::BatchRequest { digest } => {
                let plane = &c.core.dissem;
                let Some(id) = c.from else {
                    return ReadVerdict::Close; // fetches are validator-only
                };
                match plane.store.get(&digest) {
                    Some(bytes) => {
                        plane.counters.fetches_served.fetch_add(1, Ordering::Relaxed);
                        let frame =
                            Arc::new(encode_frame(&Frame::BatchResponse { digest, bytes }));
                        if let Some(p) = c.core.peers.get(&id) {
                            if p.queue.push_protected(frame) {
                                nudge_peer_conn(&self.shards, p);
                            } else {
                                p.metrics.protected_dropped.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    None => {
                        plane.counters.fetches_missed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Frame::Consensus(msg) => {
                let Some(id) = c.from else {
                    return ReadVerdict::Close; // consensus before hello
                };
                if let Some(p) = c.core.peers.get(&id) {
                    p.metrics.frames_in.fetch_add(1, Ordering::Relaxed);
                }
                // Signature checking never runs on the event loop: the
                // message joins the staged sigverify batch, and only a
                // verified copy reaches the driver.
                self.verify.push(VerifyJob { core: c.core.clone(), from: id, msg });
            }
        }
        ReadVerdict::Keep
    }

    /// Drains `token`'s outbound queue through coalesced vectored writes
    /// (and the shaper, when configured).
    fn drive_write(&mut self, token: usize) {
        let Some(Some(Entry::Out(_))) = self.entries.get(token) else { return };
        let Some(Entry::Out(mut c)) = self.entries[token].take() else { return };
        match self.pump_out(&mut c, token) {
            Ok(()) => {
                self.entries[token] = Some(Entry::Out(c));
            }
            Err(_) => {
                self.entries[token] = Some(Entry::Out(c));
                self.fail_out(token);
            }
        }
    }

    fn pump_out(&mut self, c: &mut OutConn, token: usize) -> io::Result<()> {
        loop {
            // Refill `pending` from the queue (through the shaper if one
            // is configured).
            if let Some(shaper) = &mut c.shaper {
                let now = Instant::now();
                while shaper.staged_bytes < SHAPE_STAGE_CAP {
                    match c.state.queue.pop() {
                        Some(f) => shaper.stage(f, now),
                        None => break,
                    }
                }
                shaper.refill(now);
                while c.pending_bytes < WRITE_COALESCE {
                    match shaper.release(now) {
                        Some(f) => {
                            c.pending_bytes += f.len();
                            c.pending.push_back((f, 0));
                        }
                        None => break,
                    }
                }
            } else {
                while c.pending_bytes < WRITE_COALESCE {
                    match c.state.queue.pop() {
                        Some(f) => {
                            c.pending_bytes += f.len();
                            c.pending.push_back((f, 0));
                        }
                        None => break,
                    }
                }
            }
            if c.pending.is_empty() {
                break;
            }

            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(c.pending.len().min(WRITE_VECTORS));
            for (frame, offset) in c.pending.iter().take(WRITE_VECTORS) {
                slices.push(IoSlice::new(&frame[*offset..]));
            }
            match c.stream.write_vectored(&slices) {
                Ok(0) => {
                    return Err(io::Error::new(io::ErrorKind::WriteZero, "wrote 0"));
                }
                Ok(mut n) => {
                    while n > 0 {
                        let (frame, offset) = c.pending.front_mut().expect("bytes were written");
                        let remaining = frame.len() - *offset;
                        if n >= remaining {
                            n -= remaining;
                            let len = frame.len();
                            c.state.metrics.bytes_out.fetch_add(len as u64, Ordering::Relaxed);
                            c.state.metrics.frames_out.fetch_add(1, Ordering::Relaxed);
                            self.handle.frames.fetch_add(1, Ordering::Relaxed);
                            c.pending_bytes -= len;
                            c.pending.pop_front();
                        } else {
                            *offset += n;
                            n = 0;
                        }
                    }
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }

        // Interest management: subscribe writable only while bytes wait.
        let need_writable = !c.pending.is_empty();
        if need_writable != c.want_writable {
            c.want_writable = need_writable;
            let interest = if need_writable { Interest::BOTH } else { Interest::READABLE };
            self.poller.reregister(c.stream.as_raw_fd(), token, interest)?;
        }
        // A shaped connection with staged-but-not-due frames arms one
        // release timer.
        if let Some(shaper) = &c.shaper {
            if !c.release_armed {
                let now = Instant::now();
                if let Some(wait) = shaper.next_ready(now) {
                    let at = wheel_deadline(self.epoch, now + wait);
                    self.wheel.arm(at, ShardTimer::Release { token });
                    c.release_armed = true;
                }
            }
        }
        c.state.metrics.queue_depth.store(c.state.queue.depth(), Ordering::Relaxed);
        c.state
            .metrics
            .queue_bytes
            .store(c.state.queue.buffered_bytes() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Tears down a failed outbound connection: in-flight frames are lost
    /// (counted), the peer's conn pointer clears, and — unless the node is
    /// stopping — an immediate redial is requested, mirroring the retired
    /// writer loop's break-and-reconnect.
    fn fail_out(&mut self, token: usize) {
        let Some(Some(Entry::Out(_))) = self.entries.get(token) else { return };
        let Some(Entry::Out(c)) = self.entries[token].take() else { return };
        let _ = self.poller.deregister(c.stream.as_raw_fd());
        self.free.push(token);
        let lost = c.pending.len() + c.shaper.as_ref().map_or(0, |s| s.staged.len());
        if lost > 0 {
            c.state.metrics.dropped_frames.fetch_add(lost as u64, Ordering::Relaxed);
        }
        *c.state.conn.lock().unwrap() = None;
        c.state.metrics.queue_depth.store(c.state.queue.depth(), Ordering::Relaxed);
        c.state
            .metrics
            .queue_bytes
            .store(c.state.queue.buffered_bytes() as u64, Ordering::Relaxed);
        if !c.core.shutdown.load(Ordering::SeqCst) && !self.shutdown.load(Ordering::SeqCst) {
            let _ = self.dial_tx.send(DialReq { core: c.core.clone(), peer: c.peer });
        }
    }
}

/// The wheel deadline for an event due at `at`: microseconds since `epoch`,
/// rounded **up**. The wheel fires on `Runner::now`, which floors the same
/// clock, so a fired timer's instant is never before `at` — flooring both
/// `now` and the wait (as this once did) could fire a release up to 2 µs
/// early, find its frame not yet due and re-arm with a zero wait until the
/// clock caught up.
fn wheel_deadline(epoch: Instant, at: Instant) -> SimTime {
    SimTime(at.saturating_duration_since(epoch).as_nanos().div_ceil(1_000) as u64)
}

/// Wakes the shard owning `peer`'s connection (used from shard context
/// where the requester's connection may live on another shard).
fn nudge_peer_conn(shards: &[Arc<ShardHandle>], peer: &PeerState) {
    if let Some((shard, token)) = *peer.conn.lock().unwrap() {
        shards[shard].nudge(token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Delay accuracy on logical time: a staged frame is held back at 80%
    /// of the configured delay and releasable at 100% — well inside the
    /// ±20% accuracy the WAN-emulation runs are judged by.
    #[test]
    fn shaper_holds_frames_for_the_configured_delay() {
        let link = LinkShape {
            delay: Duration::from_millis(40),
            rate_bps: 0,
            burst_bytes: 0,
        };
        let mut s = Shaper::new(&link);
        let t0 = Instant::now();
        s.stage(Arc::new(vec![0u8; 100]), t0);
        assert!(s.release(t0).is_none(), "released with no time elapsed");
        let early = t0 + Duration::from_millis(32);
        assert!(s.release(early).is_none(), "released at 80% of the delay");
        assert_eq!(
            s.next_ready(early),
            Some(Duration::from_millis(8)),
            "next_ready must report the exact residual delay"
        );
        assert!(
            s.release(t0 + Duration::from_millis(40)).is_some(),
            "not released at 100% of the delay"
        );
        assert!(s.next_ready(t0).is_none(), "drained shaper still reports a wait");
    }

    /// A release timer armed for a staged frame must find it due when it
    /// fires, whatever the sub-microsecond phases of the epoch, the arming
    /// instant and the frame's release time: the wheel fires once the
    /// floored clock reaches the deadline, so the deadline is a ceiling.
    #[test]
    fn release_deadline_is_never_before_the_frame_is_due() {
        let link = LinkShape {
            delay: Duration::from_millis(40),
            rate_bps: 0,
            burst_bytes: 0,
        };
        let epoch = Instant::now();
        let phases = [(0, 0), (900, 1_900), (1_001, 1_999), (123_456_789, 123_999_999)];
        for (staged_ns, armed_ns) in phases {
            let mut s = Shaper::new(&link);
            s.stage(Arc::new(vec![0u8; 100]), epoch + Duration::from_nanos(staged_ns));
            let armed = epoch + Duration::from_nanos(armed_ns);
            let wait = s.next_ready(armed).expect("a frame is staged");
            let at = wheel_deadline(epoch, armed + wait);
            // The earliest instant at which `Runner::now() >= at` holds.
            let fired = epoch + Duration::from_micros(at.0);
            assert!(
                s.release(fired).is_some(),
                "timer for a frame staged at +{staged_ns} ns, armed at +{armed_ns} ns, fired early"
            );
            // ... and no more than the rounding late.
            assert!(at.0 <= (staged_ns + 40_000_000).div_ceil(1_000));
        }
    }

    /// Token-bucket accuracy: at 100 kB/s with a 1 kB burst, the burst
    /// admits two 1 kB frames back-to-back (deficit-style: the second
    /// drives tokens negative), then the third must wait exactly the
    /// 10 ms it takes to earn the deficit back.
    #[test]
    fn shaper_token_bucket_caps_rate() {
        let link = LinkShape {
            delay: Duration::ZERO,
            rate_bps: 100_000,
            burst_bytes: 1_000,
        };
        let mut s = Shaper::new(&link);
        let t0 = Instant::now();
        for _ in 0..3 {
            s.stage(Arc::new(vec![0u8; 1_000]), t0);
        }
        s.refill(t0);
        assert!(s.release(t0).is_some(), "burst must admit the first frame");
        assert!(s.release(t0).is_some(), "deficit bucket admits one frame past zero");
        assert!(s.release(t0).is_none(), "negative tokens must block the third frame");
        let wait = s.next_ready(t0).expect("a frame is staged");
        let ms = wait.as_secs_f64() * 1000.0;
        assert!((9.9..=10.1).contains(&ms), "deficit repay time {ms:.2}ms, want 10ms");
        let t1 = t0 + wait;
        s.refill(t1);
        assert!(s.release(t1).is_some(), "frame still blocked after the deficit repaid");
    }

    /// Ordered delivery survives shaping: frames staged in order release
    /// in order, never reordered by the delay queue.
    #[test]
    fn shaper_preserves_frame_order() {
        let link = LinkShape {
            delay: Duration::from_millis(5),
            rate_bps: 0,
            burst_bytes: 0,
        };
        let mut s = Shaper::new(&link);
        let t0 = Instant::now();
        for i in 0u8..4 {
            s.stage(Arc::new(vec![i]), t0 + Duration::from_millis(i as u64));
        }
        let late = t0 + Duration::from_millis(20);
        let mut out = Vec::new();
        while let Some(f) = s.release(late) {
            out.push(f[0]);
        }
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(s.staged_bytes, 0);
    }
}
