//! The shared event-driven network core: sharded poll loops, each also
//! stepping the nodes whose sockets it owns.
//!
//! A pool of threads serves every [`NodeHandle`](crate::runtime::NodeHandle)
//! attached to it (the first transport spent two threads per peer plus one
//! per accepted connection, O(n²) per in-process cluster): up to
//! min(cores, 8) **shards**, each a [`moonshot_reactor::Poller`] event loop
//! owning a slab of nonblocking sockets. The pool starts none until a node
//! attaches, and starts another only when every running shard already
//! hosts a node, so a process with one node runs one shard. A socket is
//! touched only by its shard, so no per-connection locking exists anywhere.
//!
//! A node lives on one shard, its *home*, chosen when it attaches (the
//! shard hosting the fewest nodes): its listener, the connections it
//! accepts, its outbound link to every peer and its sans-IO [`Node`]. One
//! loop iteration reads what is ready, verifies the consensus frames it
//! read — one [`MessageVerifier::verify_batch`] call per node, which
//! funnels the vote/timeout signatures into one `batch_verify` — then
//! steps each node that has work: its verified messages in read order
//! ([`Node::handle`]), a [`Node::poll`], and what it emitted applied at
//! once. Frames go into the peer queues and are written in the same sweep
//! (a shaped link's shaper holds them first); the node keeps its own
//! messages for its next step. A batch frame whose digest checks out goes
//! to the node at once ([`Node::take_batch`]), which takes it in at that
//! step. Nothing crosses a thread between the read and the write. Each
//! node has one live step timer. Every shard, and every node it steps,
//! reads one clock: µs since the pool's
//! [`epoch`](NetPool::epoch), so trace stamps compare across nodes.
//!
//! The only work for a node that appears on another thread is a mempool
//! admission that opens or fills a batch (an in-process client submitting
//! directly): it reaches the home shard as a command plus a wake. On the
//! home shard itself it needs neither: the shard steps a node after it
//! reads a batch or a submission for it.
//!
//! The home shard alone dials a node's links (a nonblocking
//! [`moonshot_reactor::connect`], given up after `DIAL_TIMEOUT`), writes
//! the hello as a link's first frame, and redials a lost link on an
//! exponential backoff — at once when the peer's hello shows it is back —
//! so a peer has one link at most, and a peer that never answers a connect
//! holds up no other dial. A link that is down is not written; its queue
//! drains once it is up.
//!
//! A client's `SubmitTx` frame is admitted by the shard that reads it,
//! through [`Mempool::submit_from`]. A shard reads at most `READ_BUDGET`
//! per connection visit and admits or verifies those bytes before it reads
//! again, so a flooding sender's surplus waits in its own socket.
//!
//! A step blocks its shard: a durable node's WAL `fdatasync` holds up
//! every node hosted there. Whoever creates a pool hands it to every node
//! it starts and shuts it down after the last one stops; 50 nodes on one
//! box cost one pool of at most eight threads and no other thread.

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use moonshot_consensus::{Message, MessageVerifier};
use moonshot_mempool::{batch_digest, DissemPlane, Mempool};
use moonshot_reactor::{Event, Interest, Poller, Waker};
use moonshot_types::time::{EventQueue, SimDuration, SimTime};
use moonshot_types::NodeId;
use moonshot_wire::{encode_frame, Frame, FrameReader};

use crate::node::{Emit, Node};
use crate::shape::{LinkShape, ShapeMatrix};
use crate::transport::{Inbound, OutboundQueue, PeerMetrics};

/// Read at most this much per connection per wakeup before yielding to the
/// next ready connection; the level-triggered reactor re-fires for the
/// remainder. It also bounds what one sender's flood costs a visit: the
/// admission of one budget's worth of `SubmitTx` frames, or the
/// verification of one budget's worth of consensus messages.
const READ_BUDGET: usize = 256 * 1024;
/// Coalesce queued frames into vectored writes up to this many bytes.
const WRITE_COALESCE: usize = 256 * 1024;
/// At most this many `IoSlice`s per `write_vectored` (stays under IOV_MAX).
const WRITE_VECTORS: usize = 64;
/// Bytes a shaper may hold out of the outbound queue; beyond this the
/// frames stay in the queue where its drop-oldest budgets apply.
const SHAPE_STAGE_CAP: usize = 1024 * 1024;
/// Cap on one connect attempt, a timer on the link's shard.
const DIAL_TIMEOUT: SimDuration = SimDuration::from_secs(1);

/// First redial delay; doubles per consecutive failure.
const RECONNECT_BASE: SimDuration = SimDuration::from_millis(100);
/// Redial delay ceiling.
const RECONNECT_MAX: SimDuration = SimDuration::from_secs(5);

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
}

/// What the home shard and the node's
/// [`NodeHandle`](crate::runtime::NodeHandle) share about an attached node.
pub(crate) struct NodeCore {
    /// Pool-unique id, used to find this node's sockets at detach.
    pub(crate) id: u64,
    pub(crate) node: NodeId,
    pub(crate) verifier: Arc<MessageVerifier>,
    /// The node's mempool and its base batch size, if it takes submissions.
    pub(crate) mempool: Option<(Arc<Mempool>, usize)>,
    pub(crate) dissem: Arc<DissemPlane>,
    /// Every peer's counters: written by the home shard, read at stop.
    pub(crate) peers: BTreeMap<NodeId, PeerMetrics>,
    pub(crate) shape: Option<Arc<ShapeMatrix>>,
}

/// A node on its home shard.
struct Hosted {
    core: Arc<NodeCore>,
    /// `None` once [`NetPool::halt`] took it back: from then on the shard
    /// steps it no more, dials none of its links and drops what is read
    /// for it; its sockets stay until detach.
    node: Option<Node>,
    /// The messages verified for the node since its last step, in read
    /// order.
    inbox: Vec<Inbound>,
    /// Whether the node has work in this wakeup: messages, a batch or a
    /// submission read for it, a poke from another thread.
    due: bool,
    /// When the node's one live step timer fires, on the shard's clock.
    armed: Option<SimTime>,
    /// The node's outbound link to each peer.
    links: BTreeMap<NodeId, Link>,
}

/// One outbound link, read by no other thread. Two connections on a link
/// would let its frames overtake each other; one owner deciding every dial
/// rules that out.
struct Link {
    /// Where the peer listens.
    addr: SocketAddr,
    queue: OutboundQueue,
    /// Slab token of the link's socket while a connect is in flight or the
    /// link is up.
    token: Option<usize>,
    /// The next redial delay; back to base when a connect completes, and
    /// when the peer's hello shows it is up.
    backoff: SimDuration,
    /// Whether a connect on this link ever completed: failures before it
    /// are the startup race and never count as reconnects.
    established_once: bool,
}

impl Link {
    fn new(addr: SocketAddr) -> Link {
        Link {
            addr,
            queue: OutboundQueue::for_peer(),
            token: None,
            backoff: RECONNECT_BASE,
            established_once: false,
        }
    }

    /// Queues `frame` (`protected`: in the sync-response class), counting
    /// what the queue drops or refuses against `metrics`.
    fn push(&mut self, frame: Arc<Vec<u8>>, protected: bool, metrics: &PeerMetrics) {
        if !protected {
            metrics.dropped_frames.fetch_add(self.queue.push(frame), Ordering::Relaxed);
        } else if !self.queue.push_protected(frame) {
            metrics.protected_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

enum Cmd {
    /// Host a node: its listener, its links, its start.
    Attach {
        core: Arc<NodeCore>,
        listener: TcpListener,
        node: Box<Node>,
        links: BTreeMap<NodeId, Link>,
    },
    /// An admission on another thread left the node something to seal:
    /// step it.
    Step { core_id: u64 },
    /// Step a node no more and send it back; its sockets stay.
    Halt { core_id: u64, reply: Sender<Node> },
    /// Close a node's sockets and forget it, then drop `ack`.
    Detach { core_id: u64, ack: Sender<()> },
}

/// Shard-local timers, multiplexed on one [`EventQueue`].
enum ShardTimer {
    /// A hosted node's deadline, if it is still the live one.
    Step { core_id: u64, at: SimTime },
    Redial { core_id: u64, peer: NodeId },
    Release { token: usize },
    /// The connect in flight on `token`, if its deadline is due, gives up.
    DialTimeout { token: usize },
}

/// The cross-thread face of one shard: commands in, wake.
struct ShardHandle {
    waker: Waker,
    inbox: Mutex<Vec<Cmd>>,
    /// Wake-coalescing flag: set by the first waker, cleared by the loop
    /// at the top of each iteration.
    notified: AtomicBool,
    /// Nodes hosted here; a node attaches to the shard with the fewest.
    hosted: AtomicUsize,
    wakeups: AtomicU64,
    frames: AtomicU64,
}

thread_local! {
    /// The shard whose loop this thread runs (null off the pool).
    static LOOP: Cell<*const ShardHandle> = const { Cell::new(std::ptr::null()) };
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

    /// Asks for a step of node `core_id`, hosted here. Not from this
    /// shard's own loop: it steps a node after reading anything for it.
    fn poke(&self, core_id: u64) {
        if !std::ptr::eq(LOOP.get(), self) {
            self.push_cmd(Cmd::Step { core_id });
        }
    }
}

/// What every shard of one pool reads.
struct Shared {
    /// The pool's one clock: every shard, and every node it steps, reads
    /// µs since this instant.
    epoch: Instant,
    shutdown: AtomicBool,
}

/// A pool of event-loop shards, shared by one or many nodes, started as
/// they attach. Create with [`NetPool::new`], tear down with
/// [`NetPool::shutdown`] after every attached node stopped.
pub struct NetPool {
    shared: Arc<Shared>,
    /// The most shards the pool runs: `min(cores, 8)`.
    cap: usize,
    shards: Mutex<Vec<Arc<ShardHandle>>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    next_core: AtomicU64,
}

impl std::fmt::Debug for NetPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NetPool(shards={})", self.stats().shards)
    }
}

impl NetPool {
    /// A pool whose clock starts now. It runs no thread yet: each node
    /// that attaches and finds every running shard hosting a node starts
    /// one more, up to `min(cores, 8)` event-loop shards, which also
    /// verify what they read and step the nodes they host.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> Arc<NetPool> {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Arc::new(NetPool {
            shared: Arc::new(Shared { epoch: Instant::now(), shutdown: AtomicBool::new(false) }),
            cap: cores.clamp(1, 8),
            shards: Mutex::default(),
            threads: Mutex::default(),
            next_core: AtomicU64::new(0),
        })
    }

    /// The pool's time origin: every node on it is stepped, and stamps its
    /// trace, with the microseconds since this instant.
    pub fn epoch(&self) -> Instant {
        self.shared.epoch
    }

    /// Counter snapshot.
    pub fn stats(&self) -> NetPoolStats {
        let shards = self.shards();
        let mut wakeups = 0;
        let mut frames = 0;
        for s in shards.iter() {
            wakeups += s.wakeups.load(Ordering::Relaxed);
            frames += s.frames.load(Ordering::Relaxed);
        }
        NetPoolStats { shards: shards.len(), loop_wakeups: wakeups, frames_processed: frames }
    }

    pub(crate) fn next_core_id(&self) -> u64 {
        self.next_core.fetch_add(1, Ordering::Relaxed)
    }

    /// Hosts `node`, with a link to each of `peers`, on the shard hosting
    /// the fewest nodes, its home, which takes its listener, dials its
    /// peers and starts it; a new shard when every running one hosts a
    /// node and the pool is below its cap. Returns the home's index.
    pub(crate) fn attach(
        &self,
        core: Arc<NodeCore>,
        listener: TcpListener,
        node: Node,
        peers: impl IntoIterator<Item = (NodeId, SocketAddr)>,
    ) -> io::Result<usize> {
        let mut shards = self.shards();
        if shards.len() < self.cap && shards.iter().all(|s| s.hosted.load(Ordering::Relaxed) > 0) {
            let runner = Runner::new(self.shared.clone())?;
            let handle = runner.handle.clone();
            let thread = std::thread::Builder::new()
                .name(format!("net-shard-{}", shards.len()))
                .spawn(move || runner.run())?;
            shards.push(handle);
            self.threads.lock().expect("no thread panics holding the thread list").push(thread);
        }
        let home = (0..shards.len())
            .min_by_key(|&i| shards[i].hosted.load(Ordering::Relaxed))
            .expect("a pool hosting a node has a shard");
        let shard = shards[home].clone();
        shard.hosted.fetch_add(1, Ordering::Relaxed);
        drop(shards);
        // An admission that opens or fills a batch pokes the home shard to
        // seal it (replacing the hook of a killed predecessor on the same
        // pool).
        if let Some((pool, base)) = &core.mempool {
            let (shard, core_id) = (shard.clone(), core.id);
            pool.wake_on_admit(move || shard.poke(core_id), *base as u64);
        }
        let links = peers.into_iter().map(|(peer, addr)| (peer, Link::new(addr))).collect();
        shard.push_cmd(Cmd::Attach { core, listener, node: Box::new(node), links });
        Ok(home)
    }

    fn shards(&self) -> MutexGuard<'_, Vec<Arc<ShardHandle>>> {
        self.shards.lock().expect("no thread panics holding the shard list")
    }

    /// Takes node `core_id` back from its home shard, which steps it, and
    /// dials for it, no more.
    pub(crate) fn halt(&self, home: usize, core_id: u64) -> Node {
        let (reply, node) = channel();
        self.shards()[home].push_cmd(Cmd::Halt { core_id, reply });
        node.recv_timeout(Duration::from_secs(10)).expect("the home shard hands the node back")
    }

    /// Closes every socket of node `core_id` (halted first) and waits for
    /// its home shard to acknowledge.
    pub(crate) fn detach(&self, home: usize, core_id: u64) {
        let shard = self.shards()[home].clone();
        let (ack, acked) = channel::<()>();
        shard.push_cmd(Cmd::Detach { core_id, ack });
        let _ = acked.recv_timeout(Duration::from_secs(10));
        shard.hosted.fetch_sub(1, Ordering::Relaxed);
    }

    /// Stops every pool thread and joins them. Call after all attached
    /// nodes stopped; attached cores' sockets are closed by thread exit
    /// either way.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for s in self.shards().iter() {
            let _ = s.waker.wake();
        }
        let mut threads = self.threads.lock().expect("no thread panics holding the thread list");
        for t in std::mem::take(&mut *threads) {
            let _ = t.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Shard event loop
// ---------------------------------------------------------------------------

/// Sender-side per-link shaper: frames pulled from the outbound queue wait
/// out the configured one-way delay in a staging queue and drain through a
/// deficit-style token bucket. It runs on its shard's clock
/// ([`Runner::now`], µs), so a frame's due time is the deadline of the
/// release timer armed for it.
struct Shaper {
    delay: SimDuration,
    /// Bytes/second as f64; 0.0 = unlimited.
    rate: f64,
    burst: f64,
    /// Deficit tokens: sending is allowed while ≥ 0, each sent frame
    /// subtracts its length (may go negative, charging the next release).
    tokens: f64,
    last_refill: SimTime,
    staged: VecDeque<(Arc<Vec<u8>>, SimTime)>,
    staged_bytes: usize,
}

impl Shaper {
    fn new(link: &LinkShape, now: SimTime) -> Shaper {
        let rate = link.rate_bps as f64;
        let burst = if link.burst_bytes > 0 { link.burst_bytes as f64 } else { 64.0 * 1024.0 };
        Shaper {
            delay: SimDuration::from_micros(link.delay.as_micros() as u64),
            rate,
            burst,
            tokens: burst,
            last_refill: now,
            staged: VecDeque::new(),
            staged_bytes: 0,
        }
    }

    fn stage(&mut self, frame: Arc<Vec<u8>>, now: SimTime) {
        self.staged_bytes += frame.len();
        self.staged.push_back((frame, now + self.delay));
    }

    fn refill(&mut self, now: SimTime) {
        if self.rate > 0.0 {
            let dt = now.since(self.last_refill).as_secs_f64();
            self.tokens = (self.tokens + self.rate * dt).min(self.burst);
        }
        self.last_refill = now;
    }

    fn release(&mut self, now: SimTime) -> Option<Arc<Vec<u8>>> {
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

    /// When the head frame becomes releasable, if one is staged: its due
    /// time, or later if the bucket must first earn back its deficit
    /// (rounded up to the next µs).
    fn next_ready(&self, now: SimTime) -> Option<SimTime> {
        let (_, at) = self.staged.front()?;
        let token_wait = if self.rate > 0.0 && self.tokens < 0.0 {
            SimDuration::from_micros(((-self.tokens) / self.rate * 1e6).ceil() as u64)
        } else {
            SimDuration::ZERO
        };
        Some((*at).max(now + token_wait))
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
}

/// A dialed, write-mostly connection to one peer. Registered readable too,
/// so the remote's FIN is noticed promptly and triggers a redial.
struct OutConn {
    core: Arc<NodeCore>,
    peer: NodeId,
    stream: TcpStream,
    /// While the connect is in flight, when it gives up.
    dial_deadline: Option<SimTime>,
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

impl OutConn {
    /// Drains `queue` through coalesced vectored writes (and the shaper,
    /// when configured) until the socket would block or nothing is due;
    /// `frames` counts each frame fully written. Each write gathers at most
    /// [`WRITE_VECTORS`] slices from an array on the stack.
    fn pump(&mut self, queue: &mut OutboundQueue, now: SimTime, frames: &AtomicU64) -> io::Result<()> {
        let metrics = &self.core.peers[&self.peer];
        loop {
            // Refill `pending` from the queue (through the shaper if one
            // is configured).
            if let Some(shaper) = &mut self.shaper {
                while shaper.staged_bytes < SHAPE_STAGE_CAP {
                    match queue.pop() {
                        Some(f) => shaper.stage(f, now),
                        None => break,
                    }
                }
                shaper.refill(now);
                while self.pending_bytes < WRITE_COALESCE {
                    match shaper.release(now) {
                        Some(f) => {
                            self.pending_bytes += f.len();
                            self.pending.push_back((f, 0));
                        }
                        None => break,
                    }
                }
            } else {
                while self.pending_bytes < WRITE_COALESCE {
                    match queue.pop() {
                        Some(f) => {
                            self.pending_bytes += f.len();
                            self.pending.push_back((f, 0));
                        }
                        None => break,
                    }
                }
            }
            if self.pending.is_empty() {
                return Ok(());
            }

            let mut slices = [IoSlice::new(&[]); WRITE_VECTORS];
            let mut count = 0;
            for ((frame, offset), slice) in self.pending.iter().zip(&mut slices) {
                *slice = IoSlice::new(&frame[*offset..]);
                count += 1;
            }
            match self.stream.write_vectored(&slices[..count]) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "wrote 0")),
                Ok(mut n) => {
                    metrics.writes.fetch_add(1, Ordering::Relaxed);
                    while n > 0 {
                        let (frame, offset) = self.pending.front_mut().expect("bytes were written");
                        let remaining = frame.len() - *offset;
                        if n >= remaining {
                            n -= remaining;
                            let len = frame.len();
                            metrics.bytes_out.fetch_add(len as u64, Ordering::Relaxed);
                            metrics.frames_out.fetch_add(1, Ordering::Relaxed);
                            frames.fetch_add(1, Ordering::Relaxed);
                            self.pending_bytes -= len;
                            self.pending.pop_front();
                        } else {
                            *offset += n;
                            n = 0;
                        }
                    }
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

enum ReadVerdict {
    Keep,
    Close,
}

struct Runner {
    poller: Poller,
    handle: Arc<ShardHandle>,
    entries: Vec<Option<Entry>>,
    free: Vec<usize>,
    /// The nodes this shard is home to, by core id.
    hosted: BTreeMap<u64, Hosted>,
    timers: EventQueue<ShardTimer>,
    shared: Arc<Shared>,
    events: Vec<Event>,
    buf: Vec<u8>,
    /// Consensus messages read in this wakeup, in read order, awaiting
    /// [`verify_read`](Runner::verify_read).
    unverified: Vec<(Arc<NodeCore>, NodeId, Message)>,
    /// The nodes with work in this wakeup, kept for the next one.
    due: Vec<u64>,
    /// The links one step queued frames on, kept for the next step.
    written: Vec<usize>,
}

impl Runner {
    fn new(shared: Arc<Shared>) -> io::Result<Runner> {
        let poller = Poller::new()?;
        let handle = Arc::new(ShardHandle {
            waker: Waker::for_poller(&poller)?,
            inbox: Mutex::new(Vec::new()),
            notified: AtomicBool::new(false),
            hosted: AtomicUsize::new(0),
            wakeups: AtomicU64::new(0),
            frames: AtomicU64::new(0),
        });
        Ok(Runner {
            poller,
            handle,
            entries: Vec::new(),
            free: Vec::new(),
            hosted: BTreeMap::new(),
            timers: EventQueue::new(),
            shared,
            events: Vec::new(),
            buf: vec![0u8; 64 * 1024],
            unverified: Vec::new(),
            due: Vec::new(),
            written: Vec::new(),
        })
    }

    fn run(mut self) {
        LOOP.set(Arc::as_ptr(&self.handle));
        loop {
            let timeout = self.next_timeout();
            let mut events = std::mem::take(&mut self.events);
            let _ = self.poller.wait(&mut events, Some(timeout));
            self.events = events;
            self.handle.wakeups.fetch_add(1, Ordering::Relaxed);
            self.handle.notified.store(false, Ordering::Release);
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return; // dropping self closes every socket and the poller
            }

            let cmds = std::mem::take(&mut *self.handle.inbox.lock().unwrap());
            for cmd in cmds {
                self.handle_cmd(cmd);
            }

            let events = std::mem::take(&mut self.events);
            for ev in &events {
                self.dispatch(ev);
            }
            self.events = events;
            self.verify_read();
            let mut due = std::mem::take(&mut self.due);
            due.extend(self.hosted.iter().filter(|(_, h)| h.due).map(|(&id, _)| id));
            for &core_id in &due {
                self.step(core_id);
            }
            due.clear();
            self.due = due;

            let now = self.now();
            for timer in self.timers.expire(now) {
                match timer {
                    ShardTimer::Step { core_id, at } => {
                        let live = self.hosted.get_mut(&core_id).filter(|h| h.armed == Some(at));
                        if let Some(h) = live {
                            h.armed = None;
                            self.step(core_id);
                        }
                    }
                    ShardTimer::Redial { core_id, peer } => self.dial(core_id, peer, false),
                    ShardTimer::Release { token } => {
                        if let Some(Some(Entry::Out(c))) = self.entries.get_mut(token) {
                            c.release_armed = false;
                        }
                        self.drive_write(token);
                    }
                    ShardTimer::DialTimeout { token } => {
                        if let Some(Some(Entry::Out(c))) = self.entries.get(token) {
                            if c.dial_deadline.is_some_and(|d| d <= now) {
                                self.dial_failed(token);
                            }
                        }
                    }
                }
            }
        }
    }

    fn now(&self) -> SimTime {
        SimTime(self.shared.epoch.elapsed().as_micros() as u64)
    }

    /// How long the loop may block: until the next armed timer, or the idle
    /// tick. [`Poller::wait`] rounds this up to whole milliseconds and never
    /// returns early, so the loop sleeps through the approach to a deadline
    /// and the sweep after the wake fires every timer due by then: a shaped
    /// frame leaves up to 1 ms late (on 30–160 ms links), never before its
    /// µs deadline.
    fn next_timeout(&self) -> Duration {
        let default = Duration::from_millis(500);
        match self.timers.next_at() {
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
            Cmd::Attach { core, listener, node, links } => self.host(core, listener, *node, links),
            Cmd::Step { core_id } => self.mark_due(core_id),
            Cmd::Halt { core_id, reply } => {
                if let Some(node) = self.hosted.get_mut(&core_id).and_then(|h| h.node.take()) {
                    let _ = reply.send(node);
                }
            }
            Cmd::Detach { core_id, ack } => {
                // The listener closes first (`false` sorts first): a peer
                // redials the moment its connection here closes, and a
                // listener still open would take that dial, only to reset
                // it a moment later, costing the peer a reconnect.
                let mut tokens: Vec<(bool, usize)> = self
                    .entries
                    .iter()
                    .enumerate()
                    .filter_map(|(t, e)| match e {
                        Some(Entry::Listener { core, .. }) if core.id == core_id => {
                            Some((false, t))
                        }
                        Some(Entry::In(c)) if c.core.id == core_id => Some((true, t)),
                        Some(Entry::Out(c)) if c.core.id == core_id => Some((true, t)),
                        _ => None,
                    })
                    .collect();
                tokens.sort_unstable();
                for (_, token) in tokens {
                    self.close_entry(token);
                }
                self.hosted.remove(&core_id);
                drop(ack);
            }
        }
    }

    /// Makes this shard `core`'s home: takes its listener, dials every
    /// peer, starts the node and steps it once.
    fn host(
        &mut self,
        core: Arc<NodeCore>,
        listener: TcpListener,
        mut node: Node,
        links: BTreeMap<NodeId, Link>,
    ) {
        let token = self.alloc_token();
        if self.poller.register(listener.as_raw_fd(), token, Interest::READABLE).is_ok() {
            self.entries[token] = Some(Entry::Listener { core: core.clone(), listener });
        } else {
            self.free.push(token);
        }
        node.start(self.now());
        let hosted = Hosted {
            core: core.clone(),
            node: Some(node),
            inbox: Vec::new(),
            due: false,
            armed: None,
            links,
        };
        self.hosted.insert(core.id, hosted);
        for &peer in core.peers.keys() {
            self.dial(core.id, peer, true);
        }
        self.step(core.id);
        self.accept_ready(token); // connections may already be queued
    }

    fn mark_due(&mut self, core_id: u64) {
        if let Some(h) = self.hosted.get_mut(&core_id) {
            h.due = true;
        }
    }

    /// One step of node `core_id`: its inbox, in read order, each message
    /// stamped as the node takes it; a poll; then what it emitted. Frames
    /// go into the peer queues and every link that got one is written now.
    /// Last, its one step timer is armed for the deadline the poll named
    /// (at once while the node's own messages wait for its next step,
    /// which then runs in the next loop iteration), unless a live one
    /// fires no later.
    fn step(&mut self, core_id: u64) {
        let epoch = self.shared.epoch;
        let Some(h) = self.hosted.get_mut(&core_id) else { return };
        h.due = false;
        let Hosted { core, node: Some(node), inbox, armed, links, .. } = h else { return };
        let clock = || SimTime(epoch.elapsed().as_micros() as u64);
        if !inbox.is_empty() {
            node.handle(inbox.drain(..).map(|m| (clock(), m)));
        }
        let now = clock();
        let deadline = node.poll(now);
        let mut written = std::mem::take(&mut self.written);
        for emit in node.output() {
            let (to, frame, protected) = match emit {
                Emit::Send(to, frame) => (to, frame, false),
                Emit::Protected(to, frame) => (to, frame, true),
                Emit::Broadcast(frame, except) => {
                    for (&to, link) in links.iter_mut().filter(|(&to, _)| Some(to) != except) {
                        link.push(frame.clone(), false, &core.peers[&to]);
                        written.extend(link.token);
                    }
                    continue;
                }
            };
            if let Some(link) = links.get_mut(&to) {
                link.push(frame, protected, &core.peers[&to]);
                written.extend(link.token);
            }
        }
        if let Some(due) = deadline.map(|due| due.max(now)) {
            if armed.is_none_or(|live| live > due) {
                *armed = Some(due);
                self.timers.push(due, ShardTimer::Step { core_id, at: due });
            }
        }
        written.sort_unstable();
        written.dedup();
        for &token in &written {
            self.drive_write(token);
        }
        written.clear();
        self.written = written;
    }

    /// Dials `core_id`'s link to `peer` unless it is up, a connect is in
    /// flight or the node was halted: a nonblocking connect, given up
    /// after `DIAL_TIMEOUT`. `fresh` (the peer is known to be up) puts the
    /// backoff back to base.
    fn dial(&mut self, core_id: u64, peer: NodeId, fresh: bool) {
        let Some(h) = self.hosted.get_mut(&core_id) else { return };
        let Some(link) = h.links.get_mut(&peer) else { return };
        if fresh {
            link.backoff = RECONNECT_BASE;
        }
        if link.token.is_some() || h.node.is_none() || self.shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let (core, addr) = (h.core.clone(), link.addr);
        let token = self.alloc_token();
        let stream = match moonshot_reactor::connect(addr) {
            Ok(s) if self.poller.register(s.as_raw_fd(), token, Interest::BOTH).is_ok() => s,
            _ => {
                self.free.push(token);
                return self.schedule_redial(core_id, peer);
            }
        };
        let now = self.now();
        let deadline = now + DIAL_TIMEOUT;
        self.timers.push(deadline, ShardTimer::DialTimeout { token });
        if let Some(link) = self.link(core_id, peer) {
            link.token = Some(token);
        }
        let shaper = core
            .shape
            .as_ref()
            .map(|m| m.link(core.node, peer))
            .filter(LinkShape::is_shaped)
            .map(|l| Shaper::new(&l, now));
        self.entries[token] = Some(Entry::Out(OutConn {
            core,
            peer,
            stream,
            dial_deadline: Some(deadline),
            pending: VecDeque::new(),
            pending_bytes: 0,
            want_writable: true,
            shaper,
            release_armed: false,
        }));
    }

    /// Node `core_id`'s link to `peer`, while it is hosted here.
    fn link(&mut self, core_id: u64, peer: NodeId) -> Option<&mut Link> {
        self.hosted.get_mut(&core_id)?.links.get_mut(&peer)
    }

    /// The connect in flight on `token` completed. If it succeeded the
    /// hello goes out as the link's first frame and the queue drains after
    /// it; if not, a redial is armed.
    fn finish_dial(&mut self, token: usize) {
        let Some(Some(Entry::Out(c))) = self.entries.get_mut(token) else { return };
        let hello = encode_frame(&Frame::Hello { node: c.core.node });
        let up = matches!(c.stream.take_error(), Ok(None))
            && c.stream.set_nodelay(true).is_ok()
            && matches!(c.stream.write(&hello), Ok(n) if n == hello.len());
        if !up {
            return self.dial_failed(token);
        }
        c.dial_deadline = None;
        let metrics = &c.core.peers[&c.peer];
        metrics.bytes_out.fetch_add(hello.len() as u64, Ordering::Relaxed);
        if let Some(link) = self.hosted.get_mut(&c.core.id).and_then(|h| h.links.get_mut(&c.peer)) {
            if link.established_once {
                metrics.reconnects.fetch_add(1, Ordering::Relaxed);
            }
            link.established_once = true;
            link.backoff = RECONNECT_BASE;
        }
        self.drive_write(token); // frames may be queued already
    }

    /// Ends a connect that failed or timed out; the link redials on its
    /// backoff.
    fn dial_failed(&mut self, token: usize) {
        if let Some(c) = self.drop_out(token) {
            self.schedule_redial(c.core.id, c.peer);
        }
    }

    /// Arms a redial of node `core_id`'s link to `peer` after its backoff,
    /// and doubles the backoff.
    fn schedule_redial(&mut self, core_id: u64, peer: NodeId) {
        let now = self.now();
        let Some(link) = self.link(core_id, peer) else { return };
        let after = link.backoff;
        link.backoff = (after * 2).min(RECONNECT_MAX);
        self.timers.push(now + after, ShardTimer::Redial { core_id, peer });
    }

    /// Silently closes an entry (node teardown): deregister, drop, free.
    fn close_entry(&mut self, token: usize) {
        let Some(entry) = self.entries[token].take() else { return };
        match &entry {
            Entry::Listener { listener, .. } => {
                let _ = self.poller.deregister(listener.as_raw_fd());
            }
            Entry::In(InConn { stream, .. }) | Entry::Out(OutConn { stream, .. }) => {
                let _ = self.poller.deregister(stream.as_raw_fd());
            }
        }
        self.free.push(token);
    }

    fn dispatch(&mut self, ev: &Event) {
        let Some(slot) = self.entries.get(ev.token) else { return };
        match slot {
            Some(Entry::Listener { .. }) => self.accept_ready(ev.token),
            Some(Entry::In(_)) => self.drive_read(ev.token),
            Some(Entry::Out(c)) if c.dial_deadline.is_some() => self.finish_dial(ev.token),
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
        match self.pump_in(&mut c) {
            ReadVerdict::Keep => {
                self.entries[token] = Some(Entry::In(c));
            }
            ReadVerdict::Close => {
                let _ = self.poller.deregister(c.stream.as_raw_fd());
                self.free.push(token);
            }
        }
    }

    /// The translated reader loop: drain the socket (bounded per wakeup),
    /// frame, dispatch. Mirrors the retired thread-per-connection
    /// `reader_loop` byte for byte in its dispatch semantics.
    fn pump_in(&mut self, c: &mut InConn) -> ReadVerdict {
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
                    p.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                }
            }
            c.reader.extend(&self.buf[..n]);
            loop {
                match c.reader.next_frame() {
                    Ok(Some(frame)) => {
                        if let ReadVerdict::Close = self.handle_frame(c, frame, n) {
                            return ReadVerdict::Close;
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        // Framing is lost; the connection is unrecoverable.
                        if let Some(p) = c.from.and_then(|id| c.core.peers.get(&id)) {
                            p.decode_errors.fetch_add(1, Ordering::Relaxed);
                        }
                        return ReadVerdict::Close;
                    }
                }
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
    /// it (for hello byte attribution).
    fn handle_frame(&mut self, c: &mut InConn, frame: Frame, chunk_len: usize) -> ReadVerdict {
        self.handle.frames.fetch_add(1, Ordering::Relaxed);
        match frame {
            Frame::Hello { node } => {
                let Some(p) = c.core.peers.get(&node).filter(|_| c.from.is_none()) else {
                    return ReadVerdict::Close; // re-hello or unknown peer
                };
                // Bytes read before identification attribute here.
                p.bytes_in.fetch_add(chunk_len as u64, Ordering::Relaxed);
                c.from = Some(node);
                // The peer is up. If this node's link to it is down, skip
                // the rest of the backoff and dial now.
                self.dial(c.core.id, node, true);
            }
            Frame::SubmitTx { client, tx } => {
                // Client submissions need no hello: clients are not
                // validators. The shard admits them here, in read order,
                // and steps the node, which may have a batch to seal; the
                // node never sees raw submissions, and the mempool's
                // counters record the outcome.
                if let Some((pool, _)) = &c.core.mempool {
                    let _ = pool.submit_from(client, tx);
                    self.mark_due(c.core.id);
                }
            }
            Frame::BatchPush { digest, bytes } | Frame::BatchResponse { digest, bytes } => {
                if c.from.is_none() {
                    return ReadVerdict::Close; // batch frames before hello
                }
                if batch_digest(&bytes) != digest {
                    c.core.dissem.counters.digest_mismatches.fetch_add(1, Ordering::Relaxed);
                    return ReadVerdict::Keep;
                }
                // The node stores it now and takes it in at its step,
                // delivering what its vote gate held for it; a halted
                // node's batches are dropped.
                let hosted = self.hosted.get_mut(&c.core.id);
                if let Some(Hosted { node: Some(node), due, .. }) = hosted {
                    node.take_batch(digest, bytes);
                    *due = true;
                }
            }
            Frame::BatchRequest { digest } => {
                let plane = &c.core.dissem;
                let Some(id) = c.from else {
                    return ReadVerdict::Close; // fetches are validator-only
                };
                if let Some(bytes) = plane.store.get(&digest) {
                    plane.counters.fetches_served.fetch_add(1, Ordering::Relaxed);
                    let frame = Arc::new(encode_frame(&Frame::BatchResponse { digest, bytes }));
                    if let Some(link) = self.link(c.core.id, id) {
                        link.push(frame, true, &c.core.peers[&id]);
                        if let Some(token) = link.token {
                            self.drive_write(token);
                        }
                    }
                }
            }
            Frame::Consensus(msg) => {
                let Some(id) = c.from else {
                    return ReadVerdict::Close; // consensus before hello
                };
                // Checked with the rest of this wakeup's reads; only a
                // verified copy reaches the node.
                self.unverified.push((c.core.clone(), id, msg));
            }
        }
        ReadVerdict::Keep
    }

    /// Verifies the consensus messages this wakeup read and puts the
    /// verified ones in their nodes' inboxes, in read order; a failure
    /// counts against its sender. A halted node's messages are dropped.
    fn verify_read(&mut self) {
        // Group by owning node (order preserved within a group) so each
        // group hits its node's verifier/cache once with one batch.
        type Group = (Arc<NodeCore>, Vec<(NodeId, Message)>);
        let mut groups: Vec<Group> = Vec::new();
        for (core, from, msg) in self.unverified.drain(..) {
            match groups.iter_mut().find(|(c, _)| c.id == core.id) {
                Some((_, items)) => items.push((from, msg)),
                None => groups.push((core, vec![(from, msg)])),
            }
        }
        for (core, items) in groups {
            let Some(h) = self.hosted.get_mut(&core.id).filter(|h| h.node.is_some()) else {
                continue;
            };
            let (froms, msgs): (Vec<NodeId>, Vec<Message>) = items.into_iter().unzip();
            let results = core.verifier.verify_batch(msgs);
            for (from, result) in froms.into_iter().zip(results) {
                match result {
                    Ok(msg) => {
                        h.inbox.push(Inbound { from, msg });
                        h.due = true;
                    }
                    Err(_) => {
                        if let Some(p) = core.peers.get(&from) {
                            p.verify_failures.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
        }
    }

    /// Drains `token`'s link queue into its socket, subscribes writability
    /// only while bytes wait, and arms one release timer for staged frames
    /// not yet due.
    fn drive_write(&mut self, token: usize) {
        let now = self.now();
        let Some(Some(Entry::Out(c))) = self.entries.get_mut(token) else { return };
        let Some(link) = self.hosted.get_mut(&c.core.id).and_then(|h| h.links.get_mut(&c.peer))
        else {
            return;
        };
        // A link still connecting drains once the connect completes.
        if c.dial_deadline.is_some() {
            return;
        }
        let mut result = c.pump(&mut link.queue, now, &self.handle.frames);
        let need_writable = !c.pending.is_empty();
        if result.is_ok() && need_writable != c.want_writable {
            c.want_writable = need_writable;
            let interest = if need_writable { Interest::BOTH } else { Interest::READABLE };
            result = self.poller.reregister(c.stream.as_raw_fd(), token, interest);
        }
        if result.is_err() {
            return self.fail_out(token);
        }
        if let Some(shaper) = c.shaper.as_ref().filter(|_| !c.release_armed) {
            if let Some(at) = shaper.next_ready(now) {
                self.timers.push(at, ShardTimer::Release { token });
                c.release_armed = true;
            }
        }
    }

    /// Tears down a failed outbound connection: in-flight frames are lost
    /// (counted), and — unless the node is stopping — the link redials at
    /// once, mirroring the retired writer loop's break-and-reconnect.
    fn fail_out(&mut self, token: usize) {
        let Some(c) = self.drop_out(token) else { return };
        let lost = c.pending.len() + c.shaper.as_ref().map_or(0, |s| s.staged.len());
        if lost > 0 {
            c.core.peers[&c.peer].dropped_frames.fetch_add(lost as u64, Ordering::Relaxed);
        }
        self.dial(c.core.id, c.peer, false);
    }

    /// Closes `token`'s outbound connection and marks its link down.
    fn drop_out(&mut self, token: usize) -> Option<OutConn> {
        let Some(Some(Entry::Out(_))) = self.entries.get(token) else { return None };
        let Some(Entry::Out(c)) = self.entries[token].take() else { return None };
        let _ = self.poller.deregister(c.stream.as_raw_fd());
        self.free.push(token);
        if let Some(link) = self.link(c.core.id, c.peer) {
            link.token = None;
        }
        Some(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moonshot_consensus::Output;

    use crate::transport::tests::{numbered, probe_node};

    /// A hosted node takes in its own multicast's self-copy in the step
    /// after the one that emitted it, on the pool's clock: a lone node
    /// multicasts as it starts; the node keeps the copy, not the shard's
    /// inbox, and the step that starts it arms its next step at once, and
    /// that step hands the copy over, stamped with the pool clock's reading
    /// as it was taken.
    #[test]
    fn a_hosted_node_takes_its_own_multicast_in_the_next_step() {
        let net = NetPool::new();
        let mut runner = Runner::new(net.shared.clone()).unwrap();
        let clock = || SimTime(net.epoch().elapsed().as_micros() as u64);
        let msg = numbered(7);
        let (node, verifier, seen) =
            probe_node(NodeId(0), 1, vec![Output::Multicast(msg.clone())], None);
        let core = Arc::new(NodeCore {
            id: 0,
            node: NodeId(0),
            verifier,
            mempool: None,
            dissem: DissemPlane::new(1 << 20),
            peers: BTreeMap::new(),
            shape: None,
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let links = BTreeMap::new();
        runner.handle_cmd(Cmd::Attach { core, listener, node: Box::new(node), links });
        assert!(seen.try_recv().is_err(), "the self-copy was taken in the step that sent it");
        assert!(runner.hosted[&0].inbox.is_empty(), "the self-copy went to the shard");
        let armed = runner.hosted[&0].armed.expect("the next step is armed");
        assert!(armed <= clock(), "the next step is not due at once");

        let before = clock();
        runner.step(0);
        let after = clock();
        let (from, got, at) = seen.try_recv().expect("the next step took in the self-copy");
        assert_eq!((from, got), (NodeId(0), msg));
        assert!(
            (before..=after).contains(&at),
            "stamped {at:?}, the pool's clock read {before:?}..{after:?}"
        );
        assert!(runner.hosted[&0].inbox.is_empty());
    }

    fn ms(ms: u64) -> SimDuration {
        SimDuration::from_millis(ms)
    }

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
        let t0 = SimTime(1_000);
        let mut s = Shaper::new(&link, t0);
        s.stage(Arc::new(vec![0u8; 100]), t0);
        assert!(s.release(t0).is_none(), "released with no time elapsed");
        let early = t0 + ms(32);
        assert!(s.release(early).is_none(), "released at 80% of the delay");
        assert_eq!(
            s.next_ready(early),
            Some(early + ms(8)),
            "next_ready must report the exact residual delay"
        );
        assert!(s.release(t0 + ms(40)).is_some(), "not released at 100% of the delay");
        assert!(s.next_ready(t0).is_none(), "drained shaper still reports a wait");
    }

    /// A release timer armed at `next_ready` finds its frame releasable
    /// when it fires — whether the frame waits out its delay or the
    /// bucket's deficit — and not one µs sooner.
    #[test]
    fn release_deadline_is_never_before_the_frame_is_due() {
        let delayed = LinkShape {
            delay: Duration::from_millis(40),
            rate_bps: 0,
            burst_bytes: 0,
        };
        // 1 000 B frames on a bucket whose refill time is no whole number of µs.
        let rated = LinkShape {
            delay: Duration::ZERO,
            rate_bps: 300_007,
            burst_bytes: 1_000,
        };
        let phases = [(0, 0), (1, 2), (1, 1_999), (123_456, 123_999)];
        for link in [delayed, rated] {
            for (staged_us, armed_us) in phases {
                let (staged, armed) = (SimTime(staged_us), SimTime(armed_us));
                let mut s = Shaper::new(&link, staged);
                for _ in 0..3 {
                    s.stage(Arc::new(vec![0u8; 1_000]), staged);
                }
                // Whatever may go at the arming instant goes; the rest waits.
                s.refill(armed);
                while s.release(armed).is_some() {}
                let at = s.next_ready(armed).expect("a frame is staged");
                let before = SimTime(at.0 - 1);
                s.refill(before);
                assert!(
                    s.release(before).is_none(),
                    "{link:?}: frame staged at {staged_us} µs releasable before its deadline"
                );
                s.refill(at);
                assert!(
                    s.release(at).is_some(),
                    "{link:?}: timer for a frame staged at {staged_us} µs, armed at \
                     {armed_us} µs, fired early"
                );
            }
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
        let t0 = SimTime(1_000);
        let mut s = Shaper::new(&link, t0);
        for _ in 0..3 {
            s.stage(Arc::new(vec![0u8; 1_000]), t0);
        }
        s.refill(t0);
        assert!(s.release(t0).is_some(), "burst must admit the first frame");
        assert!(s.release(t0).is_some(), "deficit bucket admits one frame past zero");
        assert!(s.release(t0).is_none(), "negative tokens must block the third frame");
        let t1 = s.next_ready(t0).expect("a frame is staged");
        let ms = t1.since(t0).as_millis_f64();
        assert!((9.9..=10.1).contains(&ms), "deficit repay time {ms:.2}ms, want 10ms");
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
        let t0 = SimTime(1_000);
        let mut s = Shaper::new(&link, t0);
        for i in 0u8..4 {
            s.stage(Arc::new(vec![i]), t0 + ms(i as u64));
        }
        let late = t0 + ms(20);
        let mut out = Vec::new();
        while let Some(f) = s.release(late) {
            out.push(f[0]);
        }
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(s.staged_bytes, 0);
    }
}
