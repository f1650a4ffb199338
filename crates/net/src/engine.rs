//! The discrete-event simulation engine.
//!
//! Protocol nodes are *sans-IO* [`Actor`]s: the engine calls them with
//! messages and timer expirations, and they emit effects (sends, broadcasts,
//! timers) through a [`Context`]. The engine owns time, the event queue, the
//! propagation-latency model, the NIC bandwidth model and the pre-GST
//! adversary, so a run is a pure function of `(actors, config, seed)` —
//! fully reproducible.

use std::collections::BTreeMap;

use moonshot_types::rng::DetRng;
use moonshot_types::{NodeId, WireSize};

use crate::bandwidth::NicModel;
use crate::fault::{FaultKind, FaultPlan, FaultRecord, FaultStats};
use crate::latency::LatencyModel;
use moonshot_types::time::{EventQueue, SimDuration, SimTime};

/// Upper bound on retained [`FaultRecord`]s; later faults are only counted.
const FAULT_LOG_CAP: usize = 4096;

/// Identifier of a pending timer, unique within a simulation run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerId(u64);

/// A node's behaviour: the engine drives it through these callbacks.
///
/// Implementations must be deterministic given the callback sequence; all
/// nondeterminism lives in the engine's seeded RNG.
pub trait Actor<M> {
    /// Called once when the simulation starts.
    fn on_start(&mut self, ctx: &mut Context<M>);
    /// Called when a message from `from` is delivered.
    fn on_message(&mut self, from: NodeId, msg: M, ctx: &mut Context<M>);
    /// Called when a timer set through [`Context::set_timer`] fires.
    fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<M>);
}

/// The effect interface handed to actors during callbacks.
#[derive(Debug)]
pub struct Context<'a, M> {
    now: SimTime,
    node: NodeId,
    effects: &'a mut Vec<Effect<M>>,
    next_timer: &'a mut u64,
}

impl<M> Context<'_, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the acting node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Sends `msg` to `to` (point-to-point, authenticated channel).
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.effects.push(Effect::Send { to, msg });
    }

    /// Multicasts `msg` to every node, including the sender itself (the
    /// paper's protocols count a node's own votes; self-delivery uses the
    /// loopback path and skips the NIC).
    pub fn multicast(&mut self, msg: M) {
        self.effects.push(Effect::Multicast { msg });
    }

    /// Arms a one-shot timer `after` from now.
    pub fn set_timer(&mut self, after: SimDuration) -> TimerId {
        *self.next_timer += 1;
        let id = TimerId(*self.next_timer);
        self.effects.push(Effect::SetTimer { id, after });
        id
    }
}

enum Effect<M> {
    Send { to: NodeId, msg: M },
    Multicast { msg: M },
    SetTimer { id: TimerId, after: SimDuration },
}

impl<M> std::fmt::Debug for Effect<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Effect::Send { to, .. } => write!(f, "Send(to={to})"),
            Effect::Multicast { .. } => write!(f, "Multicast"),
            Effect::SetTimer { id, after } => write!(f, "SetTimer({id:?}, {after})"),
        }
    }
}

enum EventKind<M> {
    Start,
    Deliver { from: NodeId, msg: M },
    Timer(TimerId),
}

/// Behaviour of the adversary before GST (§II: messages may be arbitrarily
/// delayed — here, bounded by `extra_delay` and `drop_probability` so runs
/// terminate).
#[derive(Clone, Debug)]
pub struct PreGstAdversary {
    /// Maximum extra delay added to each delivery before GST.
    pub extra_delay: SimDuration,
    /// Probability a message sent before GST is dropped entirely.
    pub drop_probability: f64,
}

impl Default for PreGstAdversary {
    fn default() -> Self {
        PreGstAdversary { extra_delay: SimDuration::ZERO, drop_probability: 0.0 }
    }
}

/// Static configuration of a simulated network.
pub struct NetworkConfig {
    /// One-way propagation model.
    pub latency: Box<dyn LatencyModel>,
    /// NIC bandwidth model (transmission delays).
    pub nic: NicModel,
    /// Global Stabilization Time: before this instant the adversary applies.
    pub gst: SimTime,
    /// Adversarial behaviour before GST.
    pub adversary: PreGstAdversary,
    /// Fixed loopback delay for self-delivery of multicasts.
    pub loopback: SimDuration,
    /// RNG seed; two runs with equal configs and seeds are identical.
    pub seed: u64,
    /// Post-GST-safe injected faults (partitions, duplication, reordering,
    /// delay spikes). Empty by default.
    pub faults: FaultPlan,
}

impl std::fmt::Debug for NetworkConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetworkConfig")
            .field("gst", &self.gst)
            .field("adversary", &self.adversary)
            .field("loopback", &self.loopback)
            .field("seed", &self.seed)
            .field("faults", &self.faults)
            .finish_non_exhaustive()
    }
}

impl NetworkConfig {
    /// A synchronous-from-the-start network with the given latency model and
    /// per-node NIC.
    pub fn new(latency: Box<dyn LatencyModel>, nic: NicModel) -> Self {
        NetworkConfig {
            latency,
            nic,
            gst: SimTime::ZERO,
            adversary: PreGstAdversary::default(),
            loopback: SimDuration::from_micros(20),
            seed: 0,
            faults: FaultPlan::default(),
        }
    }

    /// Sets the GST and pre-GST adversary.
    pub fn with_gst(mut self, gst: SimTime, adversary: PreGstAdversary) -> Self {
        self.gst = gst;
        self.adversary = adversary;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Installs an injected-fault plan (see [`crate::fault`]).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

/// Statistics the engine gathers about a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Messages handed to actors.
    pub delivered: u64,
    /// Messages dropped by the pre-GST adversary.
    pub dropped: u64,
    /// Total bytes transmitted (all copies of all messages).
    pub bytes_sent: u64,
    /// Timer events fired.
    pub timers_fired: u64,
}

/// Count and byte totals for one message type.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TypeTraffic {
    /// Copies routed (each multicast counts once per destination).
    pub count: u64,
    /// Wire bytes across those copies.
    pub bytes: u64,
}

/// Per-message-type communication accounting.
///
/// Populated only when a classifier is installed via
/// [`Simulation::classify_with`]; totals then match
/// [`NetworkStats::bytes_sent`] exactly, split by type. This is the measured
/// side of Table I: vote traffic growing with O(n²) for Moonshot versus
/// O(n) for Jolteon falls straight out of these rows.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TrafficStats {
    rows: BTreeMap<&'static str, TypeTraffic>,
}

impl TrafficStats {
    /// Traffic for one message type (zero if never seen).
    pub fn get(&self, label: &str) -> TypeTraffic {
        self.rows.get(label).copied().unwrap_or_default()
    }

    /// All `(label, traffic)` rows, sorted by label.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, TypeTraffic)> + '_ {
        self.rows.iter().map(|(k, v)| (*k, *v))
    }

    /// Sum over all types.
    pub fn total(&self) -> TypeTraffic {
        let mut t = TypeTraffic::default();
        for v in self.rows.values() {
            t.count += v.count;
            t.bytes += v.bytes;
        }
        t
    }

    fn add(&mut self, label: &'static str, bytes: u64) {
        let row = self.rows.entry(label).or_default();
        row.count += 1;
        row.bytes += bytes;
    }
}

/// The discrete-event simulator.
///
/// # Examples
///
/// See the crate-level documentation.
pub struct Simulation<M> {
    actors: Vec<Box<dyn Actor<M>>>,
    /// Pending events for the node named with each; ties fire in the
    /// order they were queued.
    queue: EventQueue<(NodeId, EventKind<M>)>,
    crashed: Vec<bool>,
    config: NetworkConfig,
    rng: DetRng,
    now: SimTime,
    next_timer: u64,
    started: bool,
    stats: NetworkStats,
    classifier: Option<fn(&M) -> &'static str>,
    traffic: TrafficStats,
    fault_stats: FaultStats,
    fault_log: Vec<FaultRecord>,
    fault_log_truncated: u64,
}

impl<M> std::fmt::Debug for Simulation<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("n", &self.actors.len())
            .field("now", &self.now)
            .field("queued", &self.queue.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl<M: WireSize + Clone> Simulation<M> {
    /// Creates a simulation over the given actors.
    pub fn new(actors: Vec<Box<dyn Actor<M>>>, config: NetworkConfig) -> Self {
        let n = actors.len();
        let rng = DetRng::seed_from_u64(config.seed);
        Simulation {
            actors,
            queue: EventQueue::new(),
            crashed: vec![false; n],
            config,
            rng,
            now: SimTime::ZERO,
            next_timer: 0,
            started: false,
            stats: NetworkStats::default(),
            classifier: None,
            traffic: TrafficStats::default(),
            fault_stats: FaultStats::default(),
            fault_log: Vec::new(),
            fault_log_truncated: 0,
        }
    }

    /// Installs a message classifier; every routed copy is then accounted
    /// per type in [`Simulation::traffic`] (count and wire bytes).
    pub fn classify_with(&mut self, classifier: fn(&M) -> &'static str) {
        self.classifier = Some(classifier);
    }

    /// Per-message-type traffic totals (empty without a classifier).
    pub fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.actors.len()
    }

    /// Whether the simulation has no nodes.
    pub fn is_empty(&self) -> bool {
        self.actors.is_empty()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Run statistics so far.
    pub fn stats(&self) -> NetworkStats {
        self.stats
    }

    /// Counters of faults injected by the configured [`FaultPlan`].
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// The injected-fault log (capped at `FAULT_LOG_CAP` = 4 096 records; see
    /// [`Simulation::fault_log_truncated`] for the overflow count).
    pub fn fault_log(&self) -> &[FaultRecord] {
        &self.fault_log
    }

    /// Number of fault records dropped after the log filled up.
    pub fn fault_log_truncated(&self) -> u64 {
        self.fault_log_truncated
    }

    fn log_fault(&mut self, src: NodeId, dst: NodeId, kind: FaultKind) {
        if self.fault_log.len() < FAULT_LOG_CAP {
            self.fault_log.push(FaultRecord { at: self.now, src, dst, kind });
        } else {
            self.fault_log_truncated += 1;
        }
    }

    /// Crashes `node`: it stops receiving messages and timers immediately.
    pub fn crash(&mut self, node: NodeId) {
        self.crashed[node.as_usize()] = true;
    }

    fn start(&mut self) {
        self.started = true;
        for i in 0..self.actors.len() {
            self.queue.push(SimTime::ZERO, (NodeId::from_index(i), EventKind::Start));
        }
    }

    /// Processes the next event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        if !self.started {
            self.start();
        }
        let Some((at, (node, kind))) = self.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        if self.crashed[node.as_usize()] {
            return true;
        }
        let mut effects = Vec::new();
        {
            let mut ctx = Context {
                now: self.now,
                node,
                effects: &mut effects,
                next_timer: &mut self.next_timer,
            };
            match kind {
                EventKind::Start => self.actors[node.as_usize()].on_start(&mut ctx),
                EventKind::Deliver { from, msg } => {
                    self.actors[node.as_usize()].on_message(from, msg, &mut ctx)
                }
                EventKind::Timer(id) => {
                    self.stats.timers_fired += 1;
                    self.actors[node.as_usize()].on_timer(id, &mut ctx)
                }
            }
        }
        self.apply_effects(node, effects);
        true
    }

    /// Runs until the queue drains or simulated time reaches `deadline`,
    /// then advances the clock to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        if !self.started {
            self.start();
        }
        while self.queue.next_at().is_some_and(|at| at <= deadline) {
            self.step();
        }
        self.now = self.now.max(deadline);
    }

    fn apply_effects(&mut self, src: NodeId, effects: Vec<Effect<M>>) {
        for effect in effects {
            match effect {
                Effect::Send { to, msg } => self.route(src, to, msg),
                Effect::Multicast { msg } => {
                    // Self-delivery over loopback, no NIC charge.
                    let at = self.now + self.config.loopback;
                    self.queue.push(at, (src, EventKind::Deliver { from: src, msg: msg.clone() }));
                    // Fair-share fan-out: every copy departs when the whole
                    // burst has drained the sender's NIC (TCP-like).
                    let copies = self.actors.len().saturating_sub(1);
                    if copies > 0 {
                        let size = msg.wire_size();
                        let departure =
                            self.config.nic.transmit_broadcast(src, self.now, size, copies);
                        for i in 0..self.actors.len() {
                            let to = NodeId::from_index(i);
                            if to != src {
                                self.route_at(src, to, msg.clone(), departure);
                            }
                        }
                    }
                }
                Effect::SetTimer { id, after } => {
                    self.queue.push(self.now + after, (src, EventKind::Timer(id)));
                }
            }
        }
    }

    fn route(&mut self, src: NodeId, dst: NodeId, msg: M) {
        let departure = self.config.nic.transmit(src, self.now, msg.wire_size());
        self.route_at(src, dst, msg, departure);
    }

    /// Routes one copy whose last byte leaves `src` at `departure`.
    fn route_at(&mut self, src: NodeId, dst: NodeId, msg: M, departure: SimTime) {
        let size = msg.wire_size();
        self.stats.bytes_sent += size as u64;
        if let Some(classify) = self.classifier {
            self.traffic.add(classify(&msg), size as u64);
        }
        // Injected faults (post-GST-safe: every window closes, budgets are
        // finite). The copy's bytes are already charged above — a dropped
        // copy was still transmitted.
        let fault = self.config.faults.decide(src, dst, self.now, &mut self.rng);
        if fault.dropped {
            self.stats.dropped += 1;
            self.fault_stats.partition_dropped += 1;
            self.log_fault(src, dst, FaultKind::PartitionDrop);
            return;
        }
        // Pre-GST adversary may drop or delay arbitrarily (bounded here).
        let pre_gst = self.now < self.config.gst;
        if pre_gst && self.rng.gen_bool(self.config.adversary.drop_probability) {
            self.stats.dropped += 1;
            return;
        }
        let propagation = self.config.latency.propagation(src, dst, &mut self.rng);
        let mut arrival = departure + propagation;
        if pre_gst && self.config.adversary.extra_delay > SimDuration::ZERO {
            arrival += SimDuration(self.rng.gen_range_inclusive(0, self.config.adversary.extra_delay.0));
        }
        if fault.reorder_delay > SimDuration::ZERO {
            self.fault_stats.reordered += 1;
            self.log_fault(src, dst, FaultKind::Reorder(fault.reorder_delay));
            arrival += fault.reorder_delay;
        }
        if fault.spike_delay > SimDuration::ZERO {
            self.fault_stats.delay_spiked += 1;
            self.log_fault(src, dst, FaultKind::DelaySpike(fault.spike_delay));
            arrival += fault.spike_delay;
        }
        let delivered = self.config.nic.receive(dst, arrival, size);
        self.stats.delivered += 1;
        if fault.duplicate {
            // The duplicate is a real extra copy: charged to the byte and
            // per-type totals like the original, and queued behind it on the
            // receiver's NIC.
            self.stats.bytes_sent += size as u64;
            if let Some(classify) = self.classifier {
                self.traffic.add(classify(&msg), size as u64);
            }
            self.fault_stats.duplicated += 1;
            self.log_fault(src, dst, FaultKind::Duplicate);
            let dup_at = self.config.nic.receive(dst, arrival, size);
            self.stats.delivered += 1;
            self.queue.push(dup_at, (dst, EventKind::Deliver { from: src, msg: msg.clone() }));
        }
        self.queue.push(delivered, (dst, EventKind::Deliver { from: src, msg }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::UniformLatency;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Clone, Debug)]
    struct Ping(u32);
    impl WireSize for Ping {
        fn wire_size(&self) -> usize {
            100
        }
    }

    type Log = Rc<RefCell<Vec<(NodeId, NodeId, u32, SimTime)>>>;

    /// Echoes every message back; node 0 kicks off with a multicast.
    struct Echo {
        log: Log,
    }

    impl Actor<Ping> for Echo {
        fn on_start(&mut self, ctx: &mut Context<Ping>) {
            if ctx.node() == NodeId(0) {
                ctx.multicast(Ping(1));
            }
        }
        fn on_message(&mut self, from: NodeId, msg: Ping, ctx: &mut Context<Ping>) {
            self.log.borrow_mut().push((ctx.node(), from, msg.0, ctx.now()));
            if msg.0 == 1 && ctx.node() != NodeId(0) {
                ctx.send(NodeId(0), Ping(2));
            }
        }
        fn on_timer(&mut self, _t: TimerId, _ctx: &mut Context<Ping>) {}
    }

    fn config(ms: u64) -> NetworkConfig {
        NetworkConfig::new(
            Box::new(UniformLatency::new(SimDuration::from_millis(ms), SimDuration::ZERO)),
            NicModel::unbounded(3),
        )
    }

    fn echo_net(n: usize) -> (Vec<Box<dyn Actor<Ping>>>, Log) {
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let actors = (0..n)
            .map(|_| Box::new(Echo { log: log.clone() }) as Box<dyn Actor<Ping>>)
            .collect();
        (actors, log)
    }

    fn at_node(log: &Log, node: u16) -> Vec<(NodeId, u32, SimTime)> {
        log.borrow()
            .iter()
            .filter(|(to, _, _, _)| *to == NodeId(node))
            .map(|(_, from, v, t)| (*from, *v, *t))
            .collect()
    }

    #[test]
    fn multicast_reaches_all_and_echoes_return() {
        let (actors, log) = echo_net(3);
        let mut sim = Simulation::new(actors, config(10));
        sim.run_until(SimTime(1_000_000));
        // Node 0 got its own loopback copy plus two echoes.
        let r0 = at_node(&log, 0);
        assert_eq!(r0.len(), 3);
        // Echoes arrive at ~20ms (10 out + 10 back).
        let echo_times: Vec<_> = r0.iter().filter(|(_, v, _)| *v == 2).collect();
        assert_eq!(echo_times.len(), 2);
        for (_, _, t) in echo_times {
            assert!(*t >= SimTime(20_000) && *t < SimTime(21_000), "echo at {t}");
        }
    }

    #[test]
    fn crashed_node_receives_nothing() {
        let (actors, log) = echo_net(3);
        let mut sim = Simulation::new(actors, config(10));
        sim.crash(NodeId(2));
        sim.run_until(SimTime(1_000_000));
        assert!(at_node(&log, 2).is_empty());
        // Node 0 only gets one echo (from node 1) plus loopback.
        assert_eq!(at_node(&log, 0).len(), 2);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let (actors, log) = echo_net(3);
            let mut sim = Simulation::new(actors, config(10));
            sim.run_until(SimTime(1_000_000));
            let events = log.borrow().clone();
            (sim.stats(), events)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn pre_gst_drops_all_with_probability_one() {
        let cfg = config(10).with_gst(
            SimTime(1_000_000_000),
            PreGstAdversary { extra_delay: SimDuration::ZERO, drop_probability: 1.0 },
        );
        let (actors, log) = echo_net(3);
        let mut sim = Simulation::new(actors, cfg);
        sim.run_until(SimTime(1_000_000));
        // Only the loopback self-delivery survives (not routed).
        assert_eq!(at_node(&log, 0).len(), 1);
        assert_eq!(at_node(&log, 1).len(), 0);
        assert_eq!(sim.stats().dropped, 2);
    }

    #[test]
    fn pre_gst_extra_delay_applies() {
        let cfg = config(10).with_gst(
            SimTime(1_000_000_000),
            PreGstAdversary {
                extra_delay: SimDuration::from_millis(500),
                drop_probability: 0.0,
            },
        );
        let (actors, log) = echo_net(2);
        let mut sim = Simulation::new(actors, cfg);
        sim.run_until(SimTime(2_000_000));
        let r1 = at_node(&log, 1);
        assert_eq!(r1.len(), 1);
        // Arrived no earlier than base latency; possibly up to +500ms extra.
        assert!(r1[0].2 >= SimTime(10_000));
        assert!(r1[0].2 <= SimTime(510_100));
    }

    struct TimerBox {
        fired: Rc<RefCell<Vec<SimTime>>>,
    }
    impl Actor<Ping> for TimerBox {
        fn on_start(&mut self, ctx: &mut Context<Ping>) {
            ctx.set_timer(SimDuration::from_millis(5));
            ctx.set_timer(SimDuration::from_millis(10));
        }
        fn on_message(&mut self, _f: NodeId, _m: Ping, _c: &mut Context<Ping>) {}
        fn on_timer(&mut self, _t: TimerId, ctx: &mut Context<Ping>) {
            self.fired.borrow_mut().push(ctx.now());
        }
    }

    #[test]
    fn timers_fire_in_order() {
        let fired = Rc::new(RefCell::new(Vec::new()));
        let actors: Vec<Box<dyn Actor<Ping>>> = vec![Box::new(TimerBox { fired: fired.clone() })];
        let mut sim = Simulation::new(actors, config(1));
        sim.run_until(SimTime(1_000_000));
        assert_eq!(*fired.borrow(), vec![SimTime(5_000), SimTime(10_000)]);
    }

    #[test]
    fn run_until_advances_clock_to_deadline() {
        let (actors, _log) = echo_net(2);
        let mut sim = Simulation::new(actors, config(1));
        sim.run_until(SimTime(500_000));
        assert_eq!(sim.now(), SimTime(500_000));
    }

    #[test]
    fn bytes_accounted() {
        let (actors, _log) = echo_net(2);
        let mut sim = Simulation::new(actors, config(1));
        sim.run_until(SimTime(1_000_000));
        // Multicast routes one 100 B copy to node 1, whose echo routes 100 B
        // back; the loopback self-copy bypasses `route`.
        assert_eq!(sim.stats().bytes_sent, 200);
    }

    #[test]
    fn traffic_split_by_type_matches_byte_total() {
        let (actors, _log) = echo_net(3);
        let mut sim = Simulation::new(actors, config(1));
        sim.classify_with(|p: &Ping| if p.0 == 1 { "ping" } else { "echo" });
        sim.run_until(SimTime(1_000_000));
        let traffic = sim.traffic();
        // Two routed multicast copies, two unicast echoes.
        assert_eq!(traffic.get("ping"), TypeTraffic { count: 2, bytes: 200 });
        assert_eq!(traffic.get("echo"), TypeTraffic { count: 2, bytes: 200 });
        assert_eq!(traffic.get("unknown"), TypeTraffic::default());
        assert_eq!(traffic.total().bytes, sim.stats().bytes_sent);
        assert_eq!(traffic.rows().count(), 2);
    }

    #[test]
    fn partition_drops_across_cut_and_counts_faults() {
        let cfg = config(10).with_faults(FaultPlan::new().partition(
            [NodeId(1)],
            SimTime::ZERO,
            SimTime(500_000),
        ));
        let (actors, log) = echo_net(3);
        let mut sim = Simulation::new(actors, cfg);
        sim.run_until(SimTime(1_000_000));
        // Node 1 is cut off when the multicast is routed; node 2 still echoes.
        assert!(at_node(&log, 1).is_empty());
        assert_eq!(at_node(&log, 2).len(), 1);
        assert_eq!(sim.fault_stats().partition_dropped, 1);
        assert_eq!(sim.stats().dropped, 1);
        assert_eq!(sim.fault_log().len(), 1);
        assert_eq!(sim.fault_log()[0].kind, FaultKind::PartitionDrop);
        // The dropped copy was transmitted: its bytes stay in the totals.
        assert_eq!(sim.stats().bytes_sent, 300);
    }

    #[test]
    fn duplicate_delivers_extra_copy_and_charges_traffic() {
        let cfg = config(10)
            .with_faults(FaultPlan::new().duplicate(1.0, 1, SimTime::ZERO, SimTime(1_000_000)));
        let (actors, log) = echo_net(2);
        let mut sim = Simulation::new(actors, cfg);
        sim.classify_with(|p: &Ping| if p.0 == 1 { "ping" } else { "echo" });
        sim.run_until(SimTime(1_000_000));
        // Budget of one: node 1 gets the ping twice, echoing twice.
        assert_eq!(at_node(&log, 1).len(), 2);
        assert_eq!(sim.fault_stats().duplicated, 1);
        // ping copy + its duplicate + two echoes, all accounted.
        assert_eq!(sim.stats().bytes_sent, 400);
        assert_eq!(sim.traffic().total().bytes, sim.stats().bytes_sent);
        assert_eq!(sim.traffic().get("ping").count, 2);
    }

    #[test]
    fn delay_spike_postpones_arrival_inside_window() {
        let extra = SimDuration::from_millis(300);
        let cfg = config(10).with_faults(FaultPlan::new().delay_link(
            Some(NodeId(0)),
            Some(NodeId(1)),
            extra,
            SimTime::ZERO,
            SimTime(1_000_000),
        ));
        let (actors, log) = echo_net(2);
        let mut sim = Simulation::new(actors, cfg);
        sim.run_until(SimTime(1_000_000));
        let r1 = at_node(&log, 1);
        assert_eq!(r1.len(), 1);
        // 10ms base latency + 300ms spike (+ NIC serialization slack).
        assert!(r1[0].2 >= SimTime(310_000) && r1[0].2 < SimTime(311_000), "at {}", r1[0].2);
        assert_eq!(sim.fault_stats().delay_spiked, 1);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let run = || {
            let cfg = config(10)
                .with_faults(
                    FaultPlan::new()
                        .duplicate(0.5, 10, SimTime::ZERO, SimTime(1_000_000))
                        .reorder(0.5, SimDuration::from_millis(20), SimTime::ZERO, SimTime(1_000_000)),
                )
                .with_seed(42);
            let (actors, log) = echo_net(3);
            let mut sim = Simulation::new(actors, cfg);
            sim.run_until(SimTime(1_000_000));
            let events = log.borrow().clone();
            (sim.stats(), sim.fault_stats(), events)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn traffic_empty_without_classifier() {
        let (actors, _log) = echo_net(3);
        let mut sim = Simulation::new(actors, config(1));
        sim.run_until(SimTime(1_000_000));
        assert_eq!(sim.traffic().total(), TypeTraffic::default());
    }
}
