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
//! * [`VoteWithholder`] — runs the real protocol but silently drops
//!   every vote and commit vote it would have sent (a leader that proposes
//!   yet never helps certify);
//! * [`StaleReplayActor`] — stashes certificates it observes and keeps
//!   re-multicasting old ones, probing view-monotonicity handling;
//! * [`CrashRecoverActor`] — runs the real protocol, crashes at a configured
//!   time (dropping all state) and later restarts from a *fresh* state
//!   machine that must resync through the `BlockFetcher`.
//!
//! Safety of the honest nodes must survive up to `f` of any of these. A run
//! picks one of them for its `f′` Byzantine nodes through
//! [`RunConfig::adversary`](crate::runner::RunConfig::adversary).

use std::collections::VecDeque;
use std::sync::Arc;

use moonshot_consensus::harness::ProtocolActor;
use moonshot_consensus::{
    ConsensusProtocol, LeaderElection, Message, MessageVerifier, Output, PreVerified, TimerToken,
};
use moonshot_crypto::KeyPair;
use moonshot_net::{Actor, Context, TimerId};
use moonshot_telemetry::{NullSink, TraceEvent, TraceRecord, TraceSink};
use moonshot_types::time::{SimDuration, SimTime};
use moonshot_types::{Block, NodeId, Payload, SignedVote, View, Vote, VoteKind};
use std::sync::Mutex;

/// Which behaviour a run's `f′` Byzantine nodes run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdversaryKind {
    /// Crash-faulty: never says anything ([`SilentActor`]).
    Silent,
    /// Votes for everything, proposes two conflicting blocks per led view
    /// ([`EquivocatingActor`]).
    Equivocating,
    /// Runs the protocol but suppresses its own votes
    /// ([`VoteWithholder`]).
    VoteWithholding,
    /// Re-multicasts stale quorum / timeout certificates forever
    /// ([`StaleReplayActor`]).
    StaleReplay,
    /// Honest, but crashes early and restarts from a fresh state machine
    /// ([`CrashRecoverActor`], over [`crash_window`]).
    CrashRecover,
}

impl AdversaryKind {
    /// Every adversary, in matrix order.
    pub fn all() -> [AdversaryKind; 5] {
        [
            AdversaryKind::Silent,
            AdversaryKind::Equivocating,
            AdversaryKind::VoteWithholding,
            AdversaryKind::StaleReplay,
            AdversaryKind::CrashRecover,
        ]
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            AdversaryKind::Silent => "silent",
            AdversaryKind::Equivocating => "equivocate",
            AdversaryKind::VoteWithholding => "withhold",
            AdversaryKind::StaleReplay => "replay",
            AdversaryKind::CrashRecover => "crash-recover",
        }
    }
}

/// When a crash-recover adversary crashes and recovers in a run of
/// `duration`: at 1/6 and 2/5 of it (recovery lands before the soak
/// matrix's `duration / 2` fault horizon).
pub fn crash_window(duration: SimDuration) -> (SimTime, SimTime) {
    (SimTime(duration.0 / 6), SimTime(duration.0 * 2 / 5))
}

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
/// contributes to certifying anything. It is a protocol, not an actor: it
/// runs under the one [`ProtocolActor`] ([`into_actor`](VoteWithholder::into_actor)).
pub struct VoteWithholder {
    protocol: Box<dyn ConsensusProtocol>,
    withheld: Arc<Mutex<u64>>,
}

impl std::fmt::Debug for VoteWithholder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VoteWithholder").field("protocol", &self.protocol.name()).finish()
    }
}

impl VoteWithholder {
    /// Wraps `protocol`, suppressing its outgoing votes.
    pub fn new(protocol: Box<dyn ConsensusProtocol>) -> Self {
        VoteWithholder { protocol, withheld: Arc::new(Mutex::new(0)) }
    }

    /// Shared counter of votes suppressed so far (for assertions in tests).
    pub fn withheld_handle(&self) -> Arc<Mutex<u64>> {
        self.withheld.clone()
    }

    /// `node` running this protocol in the simulator. An adversary's trace
    /// and commits are not a metric: they go nowhere.
    pub fn into_actor(self, node: NodeId) -> ProtocolActor {
        ProtocolActor::new(node, Box::new(self), Box::new(NullSink))
    }

    fn withhold(&self, mut outputs: Vec<Output>) -> Vec<Output> {
        let before = outputs.len();
        outputs.retain(|out| {
            !matches!(out, Output::Send(_, m) | Output::Multicast(m)
                if matches!(m, Message::Vote(_) | Message::CommitVote(_)))
        });
        *self.withheld.lock().unwrap() += (before - outputs.len()) as u64;
        outputs
    }
}

impl ConsensusProtocol for VoteWithholder {
    fn start(&mut self, now: SimTime) -> Vec<Output> {
        let outputs = self.protocol.start(now);
        self.withhold(outputs)
    }

    fn handle_message(&mut self, from: NodeId, message: Message, now: SimTime) -> Vec<Output> {
        let outputs = self.protocol.handle_message(from, message, now);
        self.withhold(outputs)
    }

    fn handle_preverified(&mut self, from: NodeId, msg: PreVerified, now: SimTime) -> Vec<Output> {
        let outputs = self.protocol.handle_preverified(from, msg, now);
        self.withhold(outputs)
    }

    fn verifier(&self) -> &MessageVerifier {
        self.protocol.verifier()
    }

    fn handle_timer(&mut self, token: TimerToken, now: SimTime) -> Vec<Output> {
        let outputs = self.protocol.handle_timer(token, now);
        self.withhold(outputs)
    }

    fn current_view(&self) -> View {
        self.protocol.current_view()
    }

    fn name(&self) -> &'static str {
        self.protocol.name()
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
/// clone of the run's shared sink).
pub type TraceFactory = Box<dyn Fn() -> Box<dyn TraceSink>>;

/// A node that runs the real protocol, crashes at `crash_at` (losing *all*
/// state) and restarts at `recover_at` from a fresh state machine built by
/// the factory. The restarted node re-enters at view 1 and must resync the
/// chain through the `BlockFetcher` before it can commit again. Every
/// incarnation traces into a sink built by the trace factory, and the
/// restart itself is recorded as [`TraceEvent::NodeRestarted`] so the
/// invariant checker resets its per-node monotonicity baselines.
pub struct CrashRecoverActor {
    node: NodeId,
    factory: ProtocolFactory,
    trace: TraceFactory,
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
    /// Crashes `node` at `crash_at` and restarts it at `recover_at`,
    /// tracing every incarnation into a sink built by `trace`.
    ///
    /// # Panics
    ///
    /// Panics if `recover_at` is not after `crash_at`.
    pub fn new(
        node: NodeId,
        factory: ProtocolFactory,
        trace: TraceFactory,
        crash_at: SimTime,
        recover_at: SimTime,
    ) -> Self {
        assert!(recover_at > crash_at, "recovery must come after the crash");
        CrashRecoverActor {
            node,
            factory,
            trace,
            crash_at,
            recover_at,
            inner: None,
            crash_timer: None,
            recover_timer: None,
        }
    }

    fn fresh_inner(&self) -> ProtocolActor {
        ProtocolActor::new(self.node, (self.factory)(), (self.trace)())
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
            (self.trace)().record(TraceRecord {
                at: ctx.now(),
                event: TraceEvent::NodeRestarted { node: self.node },
            });
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
    use crate::metrics::MetricsFold;
    use moonshot_consensus::{NodeConfig, PipelinedMoonshot, RoundRobin};
    use moonshot_net::{NetworkConfig, NicModel, Simulation, UniformLatency};
    use moonshot_telemetry::{RingBufferSink, TeeSink};

    fn quick_config(n: usize) -> NetworkConfig {
        NetworkConfig::new(
            Box::new(UniformLatency::new(SimDuration::from_millis(5), SimDuration::ZERO)),
            NicModel::unbounded(n),
        )
    }

    fn honest(node: NodeId, n: usize, trace: Box<dyn TraceSink>) -> Box<dyn Actor<Message>> {
        let cfg = NodeConfig::simulated(node, n, SimDuration::from_millis(50));
        Box::new(ProtocolActor::new(node, Box::new(PipelinedMoonshot::new(cfg)), trace))
    }

    #[test]
    fn equivocator_does_not_break_safety_or_liveness() {
        let metrics = Arc::new(Mutex::new(MetricsFold::new()));
        let n = 4;
        let actors: Vec<Box<dyn Actor<Message>>> = (0..n)
            .map(|i| {
                let node = NodeId::from_index(i);
                if i == 3 {
                    Box::new(EquivocatingActor::with_election(node, Box::new(RoundRobin::new(n))))
                        as Box<dyn Actor<Message>>
                } else {
                    honest(node, n, Box::new(metrics.clone()))
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
        let metrics = Arc::new(Mutex::new(MetricsFold::new()));
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
                        Box::new(metrics.clone()),
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
        let metrics = Arc::new(Mutex::new(MetricsFold::new()));
        let n = 4;
        let actors: Vec<Box<dyn Actor<Message>>> = (0..n)
            .map(|i| {
                let node = NodeId::from_index(i);
                if i == 0 {
                    Box::new(SilentActor) as Box<dyn Actor<Message>>
                } else {
                    honest(node, n, Box::new(metrics.clone()))
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
        let metrics = Arc::new(Mutex::new(MetricsFold::new()));
        let n = 4;
        let mut withheld = None;
        let actors: Vec<Box<dyn Actor<Message>>> = (0..n)
            .map(|i| {
                let node = NodeId::from_index(i);
                if i == 0 {
                    // Node 0 leads view 1: it proposes but never votes.
                    let cfg = NodeConfig::simulated(node, n, SimDuration::from_millis(50));
                    let withholder = VoteWithholder::new(Box::new(PipelinedMoonshot::new(cfg)));
                    withheld = Some(withholder.withheld_handle());
                    Box::new(withholder.into_actor(node)) as Box<dyn Actor<Message>>
                } else {
                    honest(node, n, Box::new(metrics.clone()))
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
        let metrics = Arc::new(Mutex::new(MetricsFold::new()));
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
                    honest(node, n, Box::new(TeeSink::new(ring.clone(), metrics.clone())))
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
        let metrics = Arc::new(Mutex::new(MetricsFold::new()));
        let ring = Arc::new(Mutex::new(RingBufferSink::new(1 << 18)));
        let n = 4;
        let actors: Vec<Box<dyn Actor<Message>>> = (0..n)
            .map(|i| {
                let node = NodeId::from_index(i);
                if i == 3 {
                    let (ring, metrics) = (ring.clone(), metrics.clone());
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
                        Box::new(move || Box::new(TeeSink::new(ring.clone(), metrics.clone()))),
                        SimTime(300_000),
                        SimTime(700_000),
                    );
                    Box::new(actor) as Box<dyn Actor<Message>>
                } else {
                    honest(node, n, Box::new(TeeSink::new(ring.clone(), metrics.clone())))
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
