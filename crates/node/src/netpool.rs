//! The shared event-driven network core: sharded poll loops.
//!
//! The original transport spent two blocking threads per peer plus one per
//! accepted connection — O(n) threads per node, O(n²) per in-process
//! cluster — which capped the localhost cluster around n ≈ 16. This module
//! replaces all of it with a **fixed** pool of threads shared by every
//! [`Transport`](crate::transport::Transport) attached to it:
//!
//! **N shards** (≈ min(cores, 8)), each a [`moonshot_reactor::Poller`]
//! event loop owning a slab of nonblocking sockets: listeners, accepted
//! (read-only) connections, and dialed (write-mostly) connections.
//! Connection ownership is exclusive — a socket is touched only by its
//! shard — so no per-connection locking exists anywhere. Shards do read
//! framing, frame dispatch, signature verification, vectored/coalesced
//! writes against the existing per-peer `OutboundQueue` budgets, per-link
//! shaping, and redial backoff as loop-local timers in an [`EventQueue`].
//!
//! A node's outbound link to a peer belongs to one shard, `out_shard`: it
//! alone dials the link (a nonblocking [`moonshot_reactor::connect`], given
//! up after `DIAL_TIMEOUT` by a timer), writes the hello as its first
//! frame, drains the peer's queue into it, and redials it on an
//! exponential backoff, keeping the link's state in a map no other thread
//! reads. Everything else that bears on the link reaches that shard as a
//! command: `attach` asks for the first dial, and a hello from the peer,
//! read on whichever shard accepted its connection, asks for a dial now
//! (the peer is back: the backoff starts over) — dropped if the link is up
//! or a connect is in flight, so a peer has one link at most. Senders
//! nudge the shard by peer. Dials run in parallel: a peer that never
//! answers a connect holds up nobody else's.
//!
//! A shard verifies the consensus frames it read in one wakeup before it
//! sleeps again: grouped by node, one [`MessageVerifier::verify_batch`]
//! call per node, which funnels the accumulated vote/timeout signatures
//! into one `moonshot-crypto::batch_verify` call. Only verified messages
//! are delivered to the owning driver (as
//! [`moonshot_consensus::PreVerified`]); failures count against the sending
//! peer. One connection is read by one shard, so a peer's messages reach
//! the driver in the order they were read.
//!
//! A client's `SubmitTx` frame is admitted by the shard that reads it,
//! through the same [`Mempool::submit_from`] every other submitter calls.
//! A shard reads at most `READ_BUDGET` per connection visit and admits or
//! verifies those bytes before it reads again, so a flooding sender's
//! surplus waits in its own socket: TCP is the backpressure.
//!
//! Whoever creates a pool hands it to every transport it starts and shuts
//! it down after the last one stops: the `moonshot-node` binary for its one
//! node, an in-process cluster for all of its nodes — 50 nodes on one box
//! then cost 50 driver threads plus one constant-size pool, instead of
//! ~50·(n+2) transport threads.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use moonshot_consensus::{Message, MessageVerifier};
use moonshot_mempool::{batch_digest, DissemPlane, Mempool};
use moonshot_reactor::{Event, Interest, Poller, Waker};
use moonshot_types::time::{EventQueue, SimDuration, SimTime};
use moonshot_types::NodeId;
use moonshot_wire::{encode_frame, Frame, FrameReader};

use crate::shape::{LinkShape, ShapeMatrix};
use crate::transport::{Inbound, InboundSender, OutboundQueue, PeerMetrics};

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
    /// The transport's shutdown flag: set before detach, checked by every
    /// dial so a stopping node is never redialed.
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) shape: Option<Arc<ShapeMatrix>>,
}

/// What the transport facade (pushes frames) and the shard that writes a
/// peer's link (pops them, counts) share about the peer.
pub(crate) struct PeerState {
    pub(crate) queue: Arc<OutboundQueue>,
    pub(crate) metrics: Arc<PeerMetrics>,
}

/// A link `(core id, peer)`: one node's outbound connection to one peer.
type LinkId = (u64, NodeId);

/// A link's state, kept by the shard that owns it and read by no other
/// thread. Two connections on a link would let its frames overtake each
/// other; one owner deciding every dial rules that out.
struct Link {
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

enum Cmd {
    AddListener { core: Arc<NodeCore>, listener: TcpListener },
    /// Close a node's sockets, then drop `ack`.
    CloseNode { core_id: u64, ack: Sender<()> },
    /// The peer is up: dial it now unless the link is up or dialing.
    Dial { core: Arc<NodeCore>, peer: NodeId },
}

/// Shard-local timers, multiplexed on one [`EventQueue`].
enum ShardTimer {
    Redial { core: Arc<NodeCore>, peer: NodeId },
    Release { token: usize },
    /// The connect in flight on `token`, if its deadline is due, gives up.
    DialTimeout { token: usize },
}

/// The cross-thread face of one shard: commands in, write nudges in, wake.
struct ShardHandle {
    waker: Waker,
    inbox: Mutex<Vec<Cmd>>,
    /// Links whose outbound queues got new frames.
    dirty: Mutex<Vec<LinkId>>,
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

    fn nudge(&self, link: LinkId) {
        self.dirty.lock().unwrap().push(link);
        self.wake();
    }
}

/// A fixed-size pool of event-loop shards, shared by one or many
/// transports. Create with [`NetPool::new`], tear down with
/// [`NetPool::shutdown`] after every attached transport stopped.
pub struct NetPool {
    shards: Vec<Arc<ShardHandle>>,
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
    /// Spawns the pool's threads: `min(cores, 8)` event-loop shards, which
    /// also verify what they read.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> io::Result<Arc<NetPool>> {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let nshards = cores.clamp(1, 8);
        let shutdown = Arc::new(AtomicBool::new(false));

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
        let mut threads = Vec::new();
        for (idx, poller) in pollers.into_iter().enumerate() {
            let runner = Runner {
                poller,
                handle: handles[idx].clone(),
                shards: handles.clone(),
                entries: Vec::new(),
                free: Vec::new(),
                links: BTreeMap::new(),
                timers: EventQueue::new(),
                epoch: Instant::now(),
                shutdown: shutdown.clone(),
                events: Vec::new(),
                buf: vec![0u8; 64 * 1024],
                unverified: Vec::new(),
            };
            threads.push(
                std::thread::Builder::new()
                    .name(format!("net-shard-{idx}"))
                    .spawn(move || runner.run())
                    .expect("spawn shard"),
            );
        }

        Ok(Arc::new(NetPool {
            shards: handles,
            shutdown,
            threads: Mutex::new(threads),
            next_core: AtomicU64::new(0),
            next_listener_shard: AtomicUsize::new(0),
        }))
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
        }
    }

    pub(crate) fn next_core_id(&self) -> u64 {
        self.next_core.fetch_add(1, Ordering::Relaxed)
    }

    /// Hands a node's listener to a shard (round-robin) and asks the shard
    /// owning each of its links for the first dial. The core's shutdown
    /// flag ends every dial and redial.
    pub(crate) fn attach(&self, core: Arc<NodeCore>, listener: TcpListener) {
        let li = self.next_listener_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        self.shards[li].push_cmd(Cmd::AddListener { core: core.clone(), listener });
        for &peer in core.peers.keys() {
            out_shard(&self.shards, core.id, peer).push_cmd(Cmd::Dial { core: core.clone(), peer });
        }
    }

    /// Closes every socket belonging to `core` (its shutdown flag must
    /// already be set) and waits for all shards to acknowledge: each drops
    /// its `ack` when done, and the wait ends when the last one is gone.
    pub(crate) fn detach(&self, core: &NodeCore) {
        let (ack, acked) = channel::<()>();
        for s in &self.shards {
            s.push_cmd(Cmd::CloseNode { core_id: core.id, ack: ack.clone() });
        }
        drop(ack);
        let _ = acked.recv_timeout(Duration::from_secs(10));
    }

    /// Wakes the shard that writes `core`'s link to `peer` so newly queued
    /// frames get written; a link that is down drains once it is up.
    pub(crate) fn nudge_peer(&self, core_id: u64, peer: NodeId) {
        out_shard(&self.shards, core_id, peer).nudge((core_id, peer));
    }

    /// Stops every pool thread and joins them. Call after all attached
    /// transports stopped; attached cores' sockets are closed by thread
    /// exit either way.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for s in &self.shards {
            let _ = s.waker.wake();
        }
        let threads = std::mem::take(&mut *self.threads.lock().unwrap());
        for t in threads {
            let _ = t.join();
        }
    }
}

/// The shard that owns the outbound link `core → peer`.
fn out_shard(shards: &[Arc<ShardHandle>], core_id: u64, peer: NodeId) -> &ShardHandle {
    &shards[((core_id as usize).wrapping_mul(31).wrapping_add(peer.0 as usize)) % shards.len()]
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
    state: Arc<PeerState>,
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

enum ReadVerdict {
    Keep,
    Close,
}

struct Runner {
    poller: Poller,
    handle: Arc<ShardHandle>,
    /// All shard handles, to reach the shard that owns a link: a fetch
    /// response for a requester, a dial on the peer's hello.
    shards: Vec<Arc<ShardHandle>>,
    entries: Vec<Option<Entry>>,
    free: Vec<usize>,
    /// The links this shard owns.
    links: BTreeMap<LinkId, Link>,
    timers: EventQueue<ShardTimer>,
    epoch: Instant,
    shutdown: Arc<AtomicBool>,
    events: Vec<Event>,
    buf: Vec<u8>,
    /// Consensus messages read in this wakeup, in read order, awaiting
    /// [`verify_read`](Runner::verify_read).
    unverified: Vec<(Arc<NodeCore>, NodeId, Message)>,
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
            for link in dirty {
                if let Some(token) = self.links.get(&link).and_then(|l| l.token) {
                    self.drive_write(token);
                }
            }

            let events = std::mem::take(&mut self.events);
            for ev in &events {
                self.dispatch(ev);
            }
            self.events = events;
            self.verify_read();

            let now = self.now();
            for timer in self.timers.expire(now) {
                match timer {
                    ShardTimer::Redial { core, peer } => self.dial(core, peer, false),
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
        SimTime(self.epoch.elapsed().as_micros() as u64)
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
            Cmd::CloseNode { core_id, ack } => {
                // The listener closes first (`false` sorts first): a peer
                // redials the moment its connection here closes, and a
                // listener still open would take that dial, only to reset
                // it a moment later, costing the peer a reconnect. The
                // connections a listener accepted live on its shard.
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
                self.links.retain(|&(id, _), _| id != core_id);
                drop(ack);
            }
            Cmd::Dial { core, peer } => self.dial(core, peer, true),
        }
    }

    /// Dials `core`'s link to `peer` unless it is up, a connect is in
    /// flight or the node is stopping: a nonblocking connect, given up
    /// after `DIAL_TIMEOUT`. `fresh` (the peer is known to be up) puts the
    /// backoff back to base.
    fn dial(&mut self, core: Arc<NodeCore>, peer: NodeId, fresh: bool) {
        if core.shutdown.load(Ordering::SeqCst) || self.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Some(&addr) = core.addrs.get(&peer) else { return };
        let link = self.links.entry((core.id, peer)).or_insert(Link {
            token: None,
            backoff: RECONNECT_BASE,
            established_once: false,
        });
        if fresh {
            link.backoff = RECONNECT_BASE;
        }
        if link.token.is_some() {
            return;
        }
        let token = self.alloc_token();
        let stream = match moonshot_reactor::connect(addr) {
            Ok(s) if self.poller.register(s.as_raw_fd(), token, Interest::BOTH).is_ok() => s,
            _ => {
                self.free.push(token);
                return self.schedule_redial(core, peer);
            }
        };
        let deadline = self.now() + DIAL_TIMEOUT;
        self.timers.push(deadline, ShardTimer::DialTimeout { token });
        self.links.get_mut(&(core.id, peer)).expect("inserted above").token = Some(token);
        let state = core.peers[&peer].clone();
        let shaper = core
            .shape
            .as_ref()
            .map(|m| m.link(core.node, peer))
            .filter(|l| l.is_shaped())
            .map(|l| Shaper::new(&l, self.now()));
        self.entries[token] = Some(Entry::Out(OutConn {
            core,
            peer,
            state,
            stream,
            dial_deadline: Some(deadline),
            pending: VecDeque::new(),
            pending_bytes: 0,
            want_writable: true,
            shaper,
            release_armed: false,
        }));
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
        c.state.metrics.bytes_out.fetch_add(hello.len() as u64, Ordering::Relaxed);
        let link = self.links.get_mut(&(c.core.id, c.peer)).expect("a dialed link is kept");
        if link.established_once {
            c.state.metrics.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        link.established_once = true;
        link.backoff = RECONNECT_BASE;
        self.drive_write(token); // frames may be queued already
    }

    /// Ends a connect that failed or timed out; the link redials on its
    /// backoff.
    fn dial_failed(&mut self, token: usize) {
        if let Some(c) = self.drop_out(token) {
            self.schedule_redial(c.core, c.peer);
        }
    }

    /// Arms a redial of `core`'s link to `peer` after its backoff, and
    /// doubles the backoff.
    fn schedule_redial(&mut self, core: Arc<NodeCore>, peer: NodeId) {
        let Some(link) = self.links.get_mut(&(core.id, peer)) else { return };
        let after = link.backoff;
        link.backoff = (after * 2).min(RECONNECT_MAX);
        self.timers.push(self.now() + after, ShardTimer::Redial { core, peer });
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
                    p.metrics.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
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
                            p.metrics.decode_errors.fetch_add(1, Ordering::Relaxed);
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
                if c.from.is_some() || !c.core.peers.contains_key(&node) {
                    return ReadVerdict::Close; // re-hello or unknown peer
                }
                // Bytes read before identification attribute here.
                let p = &c.core.peers[&node];
                p.metrics.bytes_in.fetch_add(chunk_len as u64, Ordering::Relaxed);
                c.from = Some(node);
                // The peer is up. If this node's link to it is down, skip
                // the rest of the backoff: the link's shard dials now.
                let dial = Cmd::Dial { core: c.core.clone(), peer: node };
                out_shard(&self.shards, c.core.id, node).push_cmd(dial);
            }
            Frame::SubmitTx { client, tx } => {
                // Client submissions need no hello: clients are not
                // validators. The shard admits them here, in read order;
                // the driver never sees raw submissions, and the mempool's
                // counters record the outcome.
                if let Some(pool) = &c.core.mempool {
                    let _ = pool.submit_from(client, tx);
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
                if let Some(bytes) = plane.store.get(&digest) {
                    plane.counters.fetches_served.fetch_add(1, Ordering::Relaxed);
                    let frame = Arc::new(encode_frame(&Frame::BatchResponse { digest, bytes }));
                    if let Some(p) = c.core.peers.get(&id) {
                        if p.queue.push_protected(frame) {
                            out_shard(&self.shards, c.core.id, id).nudge((c.core.id, id));
                        } else {
                            p.metrics.protected_dropped.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
            Frame::Consensus(msg) => {
                let Some(id) = c.from else {
                    return ReadVerdict::Close; // consensus before hello
                };
                // Checked with the rest of this wakeup's reads; only a
                // verified copy reaches the driver.
                self.unverified.push((c.core.clone(), id, msg));
            }
        }
        ReadVerdict::Keep
    }

    /// Verifies the consensus messages this wakeup read and hands the
    /// verified ones to their drivers, in read order; a failure counts
    /// against its sender. A stopping node's messages are dropped.
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
            if core.shutdown.load(Ordering::SeqCst) {
                continue;
            }
            let (froms, msgs): (Vec<NodeId>, Vec<Message>) = items.into_iter().unzip();
            let results = core.verifier.verify_batch(msgs);
            for (from, result) in froms.into_iter().zip(results) {
                match result {
                    Ok(msg) => {
                        core.inbound.send(Inbound { from, msg });
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

    /// Drains `token`'s outbound queue through coalesced vectored writes
    /// (and the shaper, when configured).
    fn drive_write(&mut self, token: usize) {
        // A link still connecting drains once the connect completes.
        let Some(Some(Entry::Out(OutConn { dial_deadline: None, .. }))) = self.entries.get(token)
        else {
            return;
        };
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
                let now = self.now();
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
                if let Some(at) = shaper.next_ready(self.now()) {
                    self.timers.push(at, ShardTimer::Release { token });
                    c.release_armed = true;
                }
            }
        }
        Ok(())
    }

    /// Tears down a failed outbound connection: in-flight frames are lost
    /// (counted), and — unless the node is stopping — the link redials at
    /// once, mirroring the retired writer loop's break-and-reconnect.
    fn fail_out(&mut self, token: usize) {
        let Some(c) = self.drop_out(token) else { return };
        let lost = c.pending.len() + c.shaper.as_ref().map_or(0, |s| s.staged.len());
        if lost > 0 {
            c.state.metrics.dropped_frames.fetch_add(lost as u64, Ordering::Relaxed);
        }
        self.dial(c.core, c.peer, false);
    }

    /// Closes `token`'s outbound connection and marks its link down.
    fn drop_out(&mut self, token: usize) -> Option<OutConn> {
        let Some(Some(Entry::Out(_))) = self.entries.get(token) else { return None };
        let Some(Entry::Out(c)) = self.entries[token].take() else { return None };
        let _ = self.poller.deregister(c.stream.as_raw_fd());
        self.free.push(token);
        if let Some(link) = self.links.get_mut(&(c.core.id, c.peer)) {
            link.token = None;
        }
        Some(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
