//! Byzantine behaviours for the failure experiments (§VI.B) and for
//! adversarial testing.
//!
//! The paper's `f′ = f` experiments model faulty leaders that fail to drive
//! their views ([`SilentActor`]). For safety and liveness testing we
//! additionally provide:
//!
//! * [`EquivocatingActor`] — signs conflicting votes and proposals; driven
//!   by the same [`LeaderElection`] the honest nodes use, so it equivocates
//!   exactly in the views it actually leads under any schedule;
//! * [`VoteWithholdingActor`] — runs the real protocol but silently drops
//!   every vote and commit vote it would have sent (a leader that proposes
//!   yet never helps certify);
//! * [`StaleReplayActor`] — stashes certificates it observes and keeps
//!   re-multicasting old ones, probing view-monotonicity handling;
//! * [`CrashRecoverActor`] — runs the real protocol, crashes at a configured
//!   time (dropping all state) and later restarts from a *fresh* state
//!   machine that must resync through the `BlockFetcher`.
//!
//! Safety of the honest nodes must survive up to `f` of any of these.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use moonshot_consensus::{
    ConsensusProtocol, LeaderElection, Message, Output, RoundRobin, TimerToken,
};
use moonshot_crypto::KeyPair;
use moonshot_net::{Actor, Context, TimerId};
use moonshot_telemetry::{TraceEvent, TraceRecord, TraceSink};
use moonshot_types::time::SimTime;
use moonshot_types::{Block, NodeId, Payload, SignedVote, View, Vote, VoteKind};
use std::sync::Mutex;

use crate::adapter::ProtocolActor;
use crate::metrics::MetricsSink;

/// A Byzantine node that does nothing at all: never proposes, votes or
/// times out. This is the behaviour the paper's leader schedules assume for
/// faulty nodes (their views simply fail).
#[derive(Debug, Default)]
pub struct SilentActor;

impl Actor<Message> for SilentActor {
    fn on_start(&mut self, _ctx: &mut Context<Message>) {}
    fn on_message(&mut self, _from: NodeId, _msg: Message, _ctx: &mut Context<Message>) {}
    fn on_timer(&mut self, _timer: TimerId, _ctx: &mut Context<Message>) {}
}

/// Counts messages a Byzantine node *would* have seen (used in tests to
/// confirm traffic reaches faulty nodes without them participating).
#[derive(Debug)]
pub struct ObservingSilentActor {
    /// Shared counter of messages received.
    pub seen: Arc<Mutex<u64>>,
}

impl Actor<Message> for ObservingSilentActor {
    fn on_start(&mut self, _ctx: &mut Context<Message>) {}
    fn on_message(&mut self, _from: NodeId, _msg: Message, _ctx: &mut Context<Message>) {
        *self.seen.lock().unwrap() += 1;
    }
    fn on_timer(&mut self, _timer: TimerId, _ctx: &mut Context<Message>) {}
}

/// A Byzantine node that votes for *every* proposal it sees — including
/// equivocating ones — and, when it would be the leader, proposes two
/// conflicting blocks per view. Safety of the honest nodes must survive up
/// to `f` of these.
pub struct EquivocatingActor {
    node: NodeId,
    keypair: KeyPair,
    /// The same election function the honest nodes use — the equivocator
    /// must agree with them about which views it leads, or its conflicting
    /// proposals land in views nobody accepts them for.
    election: Box<dyn LeaderElection>,
}

impl std::fmt::Debug for EquivocatingActor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EquivocatingActor").field("node", &self.node).finish()
    }
}

impl EquivocatingActor {
    /// Creates an equivocator for `node` in an `n`-node round-robin network.
    pub fn new(node: NodeId, n: usize) -> Self {
        Self::with_election(node, Box::new(RoundRobin::new(n)))
    }

    /// Creates an equivocator driven by an explicit leader schedule (must be
    /// the schedule the honest nodes run, e.g. one of `schedule::*`).
    pub fn with_election(node: NodeId, election: Box<dyn LeaderElection>) -> Self {
        EquivocatingActor { node, keypair: KeyPair::from_seed(node.0 as u64), election }
    }

    fn is_leader(&self, view: View) -> bool {
        self.election.leader(view) == self.node
    }
}

impl Actor<Message> for EquivocatingActor {
    fn on_start(&mut self, _ctx: &mut Context<Message>) {}

    fn on_message(&mut self, _from: NodeId, msg: Message, ctx: &mut Context<Message>) {
        match msg {
            Message::Propose { block, justify, view } => {
                // Vote for everything, with every vote kind.
                for kind in [VoteKind::Optimistic, VoteKind::Normal] {
                    let vote = Vote {
                        kind,
                        block_id: block.id(),
                        block_height: block.height(),
                        view,
                    };
                    ctx.multicast(Message::Vote(SignedVote::sign(
                        vote,
                        self.node,
                        &self.keypair,
                    )));
                }
                // If the next view is ours, propose two equivocating blocks.
                let next = view.next();
                if self.is_leader(next) {
                    for salt in [1, 2] {
                        let child =
                            Block::build(next, self.node, &block, Payload::synthetic_items(0, salt));
                        ctx.multicast(Message::OptPropose { block: child, view: next });
                    }
                }
                let _ = justify;
            }
            Message::OptPropose { block, view } => {
                let vote = Vote {
                    kind: VoteKind::Optimistic,
                    block_id: block.id(),
                    block_height: block.height(),
                    view,
                };
                ctx.multicast(Message::Vote(SignedVote::sign(vote, self.node, &self.keypair)));
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _timer: TimerId, _ctx: &mut Context<Message>) {}
}

/// A Byzantine node that runs the real protocol — proposing, timing out,
/// serving block requests — but withholds every vote and commit vote it
/// would have cast. As a leader it still extends the chain; it just never
/// contributes to certifying anything.
pub struct VoteWithholdingActor {
    protocol: Box<dyn ConsensusProtocol>,
    timers: HashMap<TimerId, TimerToken>,
    withheld: Arc<Mutex<u64>>,
}

impl std::fmt::Debug for VoteWithholdingActor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VoteWithholdingActor").field("protocol", &self.protocol.name()).finish()
    }
}

impl VoteWithholdingActor {
    /// Wraps `protocol`, suppressing its outgoing votes.
    pub fn new(protocol: Box<dyn ConsensusProtocol>) -> Self {
        VoteWithholdingActor {
            protocol,
            timers: HashMap::new(),
            withheld: Arc::new(Mutex::new(0)),
        }
    }

    /// Shared counter of votes suppressed so far (for assertions in tests).
    pub fn withheld_handle(&self) -> Arc<Mutex<u64>> {
        self.withheld.clone()
    }

    fn is_vote(msg: &Message) -> bool {
        matches!(msg, Message::Vote(_) | Message::CommitVote(_))
    }

    fn apply(&mut self, outputs: Vec<Output>, ctx: &mut Context<Message>) {
        for out in outputs {
            match out {
                Output::Send(to, msg) => {
                    if Self::is_vote(&msg) {
                        *self.withheld.lock().unwrap() += 1;
                    } else {
                        ctx.send(to, msg);
                    }
                }
                Output::Multicast(msg) => {
                    if Self::is_vote(&msg) {
                        *self.withheld.lock().unwrap() += 1;
                    } else {
                        ctx.multicast(msg);
                    }
                }
                Output::SetTimer { token, after } => {
                    let id = ctx.set_timer(after);
                    self.timers.insert(id, token);
                }
                // An adversary's own commits are not a metric.
                Output::Commit(_) => {}
            }
        }
    }
}

impl Actor<Message> for VoteWithholdingActor {
    fn on_start(&mut self, ctx: &mut Context<Message>) {
        let outs = self.protocol.start(ctx.now());
        self.apply(outs, ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Message, ctx: &mut Context<Message>) {
        let outs = self.protocol.handle_message(from, msg, ctx.now());
        self.apply(outs, ctx);
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<Message>) {
        if let Some(token) = self.timers.remove(&timer) {
            let outs = self.protocol.handle_timer(token, ctx.now());
            self.apply(outs, ctx);
        }
    }
}

/// How many stale certificates a [`StaleReplayActor`] keeps around.
const REPLAY_STASH_CAP: usize = 32;

/// A Byzantine node that stashes every quorum and timeout certificate it
/// observes and keeps re-multicasting old ones forever. Honest nodes must
/// treat stale certificates as no-ops (view monotonicity) rather than
/// regressing or double-committing.
pub struct StaleReplayActor {
    period: moonshot_types::time::SimDuration,
    stash: VecDeque<Message>,
    cursor: usize,
    replayed: Arc<Mutex<u64>>,
}

impl std::fmt::Debug for StaleReplayActor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StaleReplayActor")
            .field("stash_len", &self.stash.len())
            .field("period", &self.period)
            .finish()
    }
}

impl StaleReplayActor {
    /// Replays one stashed certificate every `period`.
    pub fn new(period: moonshot_types::time::SimDuration) -> Self {
        StaleReplayActor {
            period,
            stash: VecDeque::new(),
            cursor: 0,
            replayed: Arc::new(Mutex::new(0)),
        }
    }

    /// Shared counter of certificates replayed so far.
    pub fn replayed_handle(&self) -> Arc<Mutex<u64>> {
        self.replayed.clone()
    }
}

impl Actor<Message> for StaleReplayActor {
    fn on_start(&mut self, ctx: &mut Context<Message>) {
        ctx.set_timer(self.period);
    }

    fn on_message(&mut self, _from: NodeId, msg: Message, _ctx: &mut Context<Message>) {
        if matches!(msg, Message::Certificate(_) | Message::TimeoutCert(_)) {
            if self.stash.len() == REPLAY_STASH_CAP {
                // Drop the newest observation, keeping the *oldest* (stalest)
                // certificates — those are the interesting replays.
                return;
            }
            self.stash.push_back(msg);
        }
    }

    fn on_timer(&mut self, _timer: TimerId, ctx: &mut Context<Message>) {
        if !self.stash.is_empty() {
            let msg = self.stash[self.cursor % self.stash.len()].clone();
            self.cursor = self.cursor.wrapping_add(1);
            ctx.multicast(msg);
            *self.replayed.lock().unwrap() += 1;
        }
        ctx.set_timer(self.period);
    }
}

/// Builds a fresh protocol instance for a [`CrashRecoverActor`] restart.
pub type ProtocolFactory = Box<dyn Fn() -> Box<dyn ConsensusProtocol>>;

/// Builds a trace sink for a [`CrashRecoverActor`] incarnation (typically a
/// clone of a shared ring buffer).
pub type TraceFactory = Box<dyn Fn() -> Box<dyn TraceSink>>;

/// A node that runs the real protocol, crashes at `crash_at` (losing *all*
/// state) and restarts at `recover_at` from a fresh state machine built by
/// the factory. The restarted node re-enters at view 1 and must resync the
/// chain through the `BlockFetcher` before it can commit again; the restart
/// is recorded as [`TraceEvent::NodeRestarted`] so the invariant checker
/// resets its per-node monotonicity baselines.
pub struct CrashRecoverActor {
    node: NodeId,
    factory: ProtocolFactory,
    metrics: Arc<Mutex<MetricsSink>>,
    trace_factory: Option<TraceFactory>,
    crash_at: SimTime,
    recover_at: SimTime,
    inner: Option<ProtocolActor>,
    crash_timer: Option<TimerId>,
    recover_timer: Option<TimerId>,
}

impl std::fmt::Debug for CrashRecoverActor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrashRecoverActor")
            .field("node", &self.node)
            .field("crash_at", &self.crash_at)
            .field("recover_at", &self.recover_at)
            .field("alive", &self.inner.is_some())
            .finish()
    }
}

impl CrashRecoverActor {
    /// Crashes `node` at `crash_at` and restarts it at `recover_at`.
    ///
    /// # Panics
    ///
    /// Panics if `recover_at` is not after `crash_at`.
    pub fn new(
        node: NodeId,
        factory: ProtocolFactory,
        metrics: Arc<Mutex<MetricsSink>>,
        crash_at: SimTime,
        recover_at: SimTime,
    ) -> Self {
        assert!(recover_at > crash_at, "recovery must come after the crash");
        CrashRecoverActor {
            node,
            factory,
            metrics,
            trace_factory: None,
            crash_at,
            recover_at,
            inner: None,
            crash_timer: None,
            recover_timer: None,
        }
    }

    /// Traces every incarnation into a sink built by `f` (and records the
    /// restart itself).
    pub fn with_trace_factory(mut self, f: TraceFactory) -> Self {
        self.trace_factory = Some(f);
        self
    }

    fn fresh_inner(&self) -> ProtocolActor {
        let mut actor = ProtocolActor::new(self.node, (self.factory)(), self.metrics.clone());
        if let Some(tf) = &self.trace_factory {
            actor = actor.with_trace(tf());
        }
        actor
    }
}

impl Actor<Message> for CrashRecoverActor {
    fn on_start(&mut self, ctx: &mut Context<Message>) {
        self.inner = Some(self.fresh_inner());
        self.inner.as_mut().expect("just set").on_start(ctx);
        self.crash_timer = Some(ctx.set_timer(self.crash_at.since(ctx.now())));
        self.recover_timer = Some(ctx.set_timer(self.recover_at.since(ctx.now())));
    }

    fn on_message(&mut self, from: NodeId, msg: Message, ctx: &mut Context<Message>) {
        if let Some(inner) = &mut self.inner {
            inner.on_message(from, msg, ctx);
        }
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<Message>) {
        if self.crash_timer == Some(timer) {
            self.crash_timer = None;
            self.inner = None; // all protocol state is lost
            return;
        }
        if self.recover_timer == Some(timer) {
            self.recover_timer = None;
            if let Some(tf) = &self.trace_factory {
                tf().record(TraceRecord {
                    at: ctx.now(),
                    event: TraceEvent::NodeRestarted { node: self.node },
                });
            }
            self.inner = Some(self.fresh_inner());
            self.inner.as_mut().expect("just set").on_start(ctx);
            return;
        }
        // Timers armed by a previous incarnation fire into the current one,
        // which doesn't know their ids and ignores them (or into the crashed
        // gap, where there is nobody to receive them).
        if let Some(inner) = &mut self.inner {
            inner.on_timer(timer, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::ProtocolActor;
    use crate::metrics::MetricsSink;
    use moonshot_consensus::{NodeConfig, PipelinedMoonshot};
    use moonshot_net::{NetworkConfig, NicModel, Simulation, UniformLatency};
    use moonshot_telemetry::RingBufferSink;
    use moonshot_types::time::{SimDuration, SimTime};

    fn quick_config(n: usize) -> NetworkConfig {
        NetworkConfig::new(
            Box::new(UniformLatency::new(SimDuration::from_millis(5), SimDuration::ZERO)),
            NicModel::unbounded(n),
        )
    }

    fn honest(node: NodeId, n: usize, metrics: &Arc<Mutex<MetricsSink>>) -> Box<dyn Actor<Message>> {
        let cfg = NodeConfig::simulated(node, n, SimDuration::from_millis(50));
        Box::new(ProtocolActor::new(node, Box::new(PipelinedMoonshot::new(cfg)), metrics.clone()))
    }

    #[test]
    fn equivocator_does_not_break_safety_or_liveness() {
        let metrics = Arc::new(Mutex::new(MetricsSink::new()));
        let n = 4;
        let actors: Vec<Box<dyn Actor<Message>>> = (0..n)
            .map(|i| {
                let node = NodeId::from_index(i);
                if i == 3 {
                    Box::new(EquivocatingActor::new(node, n)) as Box<dyn Actor<Message>>
                } else {
                    honest(node, n, &metrics)
                }
            })
            .collect();
        let mut sim = Simulation::new(actors, quick_config(n));
        sim.run_until(SimTime(3_000_000));
        // Quorum here is 3 = the three honest nodes: progress must continue.
        let m = metrics.lock().unwrap().summarise(3, SimDuration::from_secs(3));
        assert!(m.committed_blocks >= 3, "committed {}", m.committed_blocks);
    }

    #[test]
    fn equivocator_with_schedule_matches_honest_election() {
        // Same experiment, but the whole network runs an explicit schedule
        // with the equivocator leading every other view — the actor must
        // take its views from the shared schedule, not round-robin.
        use moonshot_consensus::leader::ScheduleElection;
        let metrics = Arc::new(Mutex::new(MetricsSink::new()));
        let n = 4;
        let order = vec![NodeId(0), NodeId(3), NodeId(1), NodeId(3), NodeId(2), NodeId(3)];
        let actors: Vec<Box<dyn Actor<Message>>> = (0..n)
            .map(|i| {
                let node = NodeId::from_index(i);
                if i == 3 {
                    Box::new(EquivocatingActor::with_election(
                        node,
                        Box::new(ScheduleElection::new(order.clone())),
                    )) as Box<dyn Actor<Message>>
                } else {
                    let mut cfg =
                        NodeConfig::simulated(node, n, SimDuration::from_millis(50));
                    cfg.election = Box::new(ScheduleElection::new(order.clone()));
                    Box::new(ProtocolActor::new(
                        node,
                        Box::new(PipelinedMoonshot::new(cfg)),
                        metrics.clone(),
                    )) as Box<dyn Actor<Message>>
                }
            })
            .collect();
        let mut sim = Simulation::new(actors, quick_config(n));
        sim.run_until(SimTime(3_000_000));
        let m = metrics.lock().unwrap().summarise(3, SimDuration::from_secs(3));
        assert!(m.committed_blocks >= 1, "committed {}", m.committed_blocks);
    }

    #[test]
    fn silent_actor_emits_nothing() {
        let metrics = Arc::new(Mutex::new(MetricsSink::new()));
        let n = 4;
        let actors: Vec<Box<dyn Actor<Message>>> = (0..n)
            .map(|i| {
                let node = NodeId::from_index(i);
                if i == 0 {
                    Box::new(SilentActor) as Box<dyn Actor<Message>>
                } else {
                    honest(node, n, &metrics)
                }
            })
            .collect();
        let mut sim = Simulation::new(actors, quick_config(n));
        sim.run_until(SimTime(3_000_000));
        let m = metrics.lock().unwrap().summarise(3, SimDuration::from_secs(3));
        // Node 0 leads view 1: its silence forces a timeout, then progress.
        assert!(m.committed_blocks >= 3, "committed {}", m.committed_blocks);
        assert_eq!(metrics.lock().unwrap().commits_of(NodeId(0)), 0);
    }

    #[test]
    fn vote_withholding_leader_does_not_stall_liveness() {
        let metrics = Arc::new(Mutex::new(MetricsSink::new()));
        let n = 4;
        let mut withheld = None;
        let actors: Vec<Box<dyn Actor<Message>>> = (0..n)
            .map(|i| {
                let node = NodeId::from_index(i);
                if i == 0 {
                    // Node 0 leads view 1: it proposes but never votes.
                    let cfg = NodeConfig::simulated(node, n, SimDuration::from_millis(50));
                    let actor =
                        VoteWithholdingActor::new(Box::new(PipelinedMoonshot::new(cfg)));
                    withheld = Some(actor.withheld_handle());
                    Box::new(actor) as Box<dyn Actor<Message>>
                } else {
                    honest(node, n, &metrics)
                }
            })
            .collect();
        let mut sim = Simulation::new(actors, quick_config(n));
        sim.run_until(SimTime(3_000_000));
        let m = metrics.lock().unwrap().summarise(3, SimDuration::from_secs(3));
        // The three honest votes still reach quorum (2f + 1 = 3).
        assert!(m.committed_blocks >= 3, "committed {}", m.committed_blocks);
        assert!(*withheld.unwrap().lock().unwrap() > 0, "no votes were suppressed");
    }

    #[test]
    fn stale_replay_does_not_break_safety() {
        let metrics = Arc::new(Mutex::new(MetricsSink::new()));
        let ring = Arc::new(Mutex::new(RingBufferSink::new(1 << 14)));
        let n = 4;
        let mut replayed = None;
        let actors: Vec<Box<dyn Actor<Message>>> = (0..n)
            .map(|i| {
                let node = NodeId::from_index(i);
                if i == 3 {
                    let actor = StaleReplayActor::new(SimDuration::from_millis(40));
                    replayed = Some(actor.replayed_handle());
                    Box::new(actor) as Box<dyn Actor<Message>>
                } else {
                    let cfg = NodeConfig::simulated(node, n, SimDuration::from_millis(50));
                    Box::new(
                        ProtocolActor::new(
                            node,
                            Box::new(PipelinedMoonshot::new(cfg)),
                            metrics.clone(),
                        )
                        .with_trace(Box::new(ring.clone())),
                    ) as Box<dyn Actor<Message>>
                }
            })
            .collect();
        let mut sim = Simulation::new(actors, quick_config(n));
        sim.run_until(SimTime(3_000_000));
        let m = metrics.lock().unwrap().summarise(3, SimDuration::from_secs(3));
        assert!(m.committed_blocks >= 3, "committed {}", m.committed_blocks);
        assert!(*replayed.unwrap().lock().unwrap() > 0, "nothing was replayed");
        drop(sim);
        let trace = Arc::try_unwrap(ring).unwrap().into_inner().unwrap().into_vec();
        moonshot_telemetry::check_invariants(trace).expect("stale replays broke an invariant");
    }

    #[test]
    fn crash_recover_actor_resyncs_and_commits_again() {
        let metrics = Arc::new(Mutex::new(MetricsSink::new()));
        let ring = Arc::new(Mutex::new(RingBufferSink::new(1 << 18)));
        let n = 4;
        let actors: Vec<Box<dyn Actor<Message>>> = (0..n)
            .map(|i| {
                let node = NodeId::from_index(i);
                if i == 3 {
                    let ring2 = ring.clone();
                    let actor = CrashRecoverActor::new(
                        node,
                        Box::new(move || {
                            let cfg = NodeConfig::simulated(
                                node,
                                n,
                                SimDuration::from_millis(50),
                            );
                            Box::new(PipelinedMoonshot::new(cfg))
                        }),
                        metrics.clone(),
                        SimTime(300_000),
                        SimTime(700_000),
                    )
                    .with_trace_factory(Box::new(move || Box::new(ring2.clone())));
                    Box::new(actor) as Box<dyn Actor<Message>>
                } else {
                    let cfg = NodeConfig::simulated(node, n, SimDuration::from_millis(50));
                    Box::new(
                        ProtocolActor::new(
                            node,
                            Box::new(PipelinedMoonshot::new(cfg)),
                            metrics.clone(),
                        )
                        .with_trace(Box::new(ring.clone())),
                    ) as Box<dyn Actor<Message>>
                }
            })
            .collect();
        let mut sim = Simulation::new(actors, quick_config(n));
        sim.run_until(SimTime(3_000_000));
        drop(sim);
        let m = metrics.lock().unwrap().summarise(3, SimDuration::from_secs(3));
        assert!(m.committed_blocks >= 3, "committed {}", m.committed_blocks);
        let trace = Arc::try_unwrap(ring).unwrap().into_inner().unwrap().into_vec();
        let restart_at = trace
            .iter()
            .find(|r| matches!(r.event, TraceEvent::NodeRestarted { node: NodeId(3) }))
            .expect("restart was traced")
            .at;
        // The fresh incarnation resynced through the fetcher...
        assert!(
            trace.iter().any(|r| r.at > restart_at
                && matches!(r.event, TraceEvent::SyncRequested { node: NodeId(3), .. })),
            "restarted node never fetched a missing block"
        );
        // ...and went on to commit blocks again.
        if !trace.iter().any(|r| r.at > restart_at
            && matches!(r.event, TraceEvent::BlockCommitted { node: NodeId(3), .. }))
        {
            let mut kinds: std::collections::HashMap<&str, u64> = Default::default();
            for r in trace.iter().filter(|r| r.at > restart_at && r.event.node() == NodeId(3)) {
                *kinds.entry(r.event.kind()).or_default() += 1;
            }
            let last: Vec<_> = trace
                .iter()
                .filter(|r| r.event.node() == NodeId(3))
                .rev()
                .take(12)
                .collect();
            panic!("restarted node never committed; kinds={kinds:?}; last={last:#?}");
        }
        // The checker understands the restart: no monotonicity violations.
        let summary = moonshot_telemetry::check_invariants(trace)
            .expect("restart broke an invariant");
        assert_eq!(summary.restarts, 1);
    }
}
