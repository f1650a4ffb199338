//! Running [`ConsensusProtocol`] state machines on the `moonshot-net`
//! discrete-event engine.
//!
//! [`ProtocolActor`] is the one adapter from a protocol to the engine's
//! [`Actor`] interface: every simulated honest node, in `moonshot-sim`'s
//! WAN experiments and in [`LocalNet`], turns its [`Output`]s into engine
//! effects here. [`LocalNet`], the network of the protocols' tests, is a
//! thin constructor over the engine: a link policy drops or delays each
//! routed copy, and the engine's rules apply — a multicast's self-copy
//! takes the 20 µs loopback and is never dropped, the NIC is
//! [`NicModel::unbounded`], and nothing is traced.

use std::collections::HashMap;

use moonshot_net::{Actor, Context, NetworkConfig, NicModel, Simulation, TimerId, UniformLatency};
use moonshot_telemetry::{NullSink, TraceSink};
use moonshot_types::time::{SimDuration, SimTime};
use moonshot_types::{NodeId, View};

use crate::message::Message;
use crate::observer::ProtocolObserver;
use crate::protocol::{CommittedBlock, ConsensusProtocol, Output, TimerToken};
use crate::verify::PreVerified;

/// Decides the fate of each routed message: `None` = drop, `Some(delay)` =
/// deliver after `delay`.
pub type LinkPolicy = moonshot_net::LinkPolicy<Message>;

/// A consensus node running inside the simulator. Besides its messages and
/// timers it has one output, the trace its [`ProtocolObserver`] derives
/// from the protocol's I/O, and it keeps the blocks it commits.
pub struct ProtocolActor {
    node: NodeId,
    protocol: Box<dyn ConsensusProtocol>,
    timers: HashMap<TimerId, TimerToken>,
    observer: ProtocolObserver,
    trace: Box<dyn TraceSink>,
    committed: Vec<CommittedBlock>,
    /// Whether delivered messages go through the protocol's verifier (the
    /// default) or straight to its rules as trusted.
    verify: bool,
}

impl std::fmt::Debug for ProtocolActor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProtocolActor")
            .field("node", &self.node)
            .field("protocol", &self.protocol.name())
            .finish()
    }
}

impl ProtocolActor {
    /// Wraps `protocol` for `node`, recording every protocol action into
    /// `trace` (typically a shared ring buffer, a
    /// [`MetricsFold`](moonshot_telemetry::MetricsFold), or both through a
    /// `TeeSink` — see `moonshot-telemetry`).
    pub fn new(
        node: NodeId,
        protocol: Box<dyn ConsensusProtocol>,
        trace: Box<dyn TraceSink>,
    ) -> Self {
        ProtocolActor {
            node,
            protocol,
            timers: HashMap::new(),
            observer: ProtocolObserver::new(node),
            trace,
            committed: Vec::new(),
            verify: true,
        }
    }

    /// With `false`, delivers every message as [`PreVerified::trusted`]
    /// instead of through the protocol's verifier — for the large runs
    /// that turn verification off (`RunConfig::verify_signatures`).
    pub fn verifying(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// The wrapped protocol.
    pub fn protocol(&self) -> &dyn ConsensusProtocol {
        self.protocol.as_ref()
    }

    /// The blocks this node committed, in commit order.
    pub fn committed(&self) -> &[CommittedBlock] {
        &self.committed
    }

    fn apply(&mut self, outputs: Vec<Output>, ctx: &mut Context<Message>) {
        let view = self.protocol.current_view();
        self.observer.on_outputs(&outputs, view, ctx.now(), &mut self.trace);
        for out in outputs {
            match out {
                Output::Send(to, msg) => ctx.send(to, msg),
                Output::Multicast(msg) => ctx.multicast(msg),
                Output::SetTimer { token, after } => {
                    let id = ctx.set_timer(after);
                    self.timers.insert(id, token);
                }
                Output::Commit(c) => self.committed.push(c),
            }
        }
    }
}

impl Actor<Message> for ProtocolActor {
    fn on_start(&mut self, ctx: &mut Context<Message>) {
        let outs = self.protocol.start(ctx.now());
        self.apply(outs, ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Message, ctx: &mut Context<Message>) {
        self.observer.on_message_received(from, &msg, ctx.now(), &mut self.trace);
        let outs = if self.verify {
            self.protocol.handle_message(from, msg, ctx.now())
        } else {
            self.protocol.handle_preverified(from, PreVerified::trusted(msg), ctx.now())
        };
        self.apply(outs, ctx);
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<Message>) {
        if let Some(token) = self.timers.remove(&timer) {
            self.observer.on_timer_fired(token, ctx.now(), &mut self.trace);
            let outs = self.protocol.handle_timer(token, ctx.now());
            self.apply(outs, ctx);
        }
    }
}

/// A deterministic in-memory network of protocol instances.
#[derive(Debug)]
pub struct LocalNet {
    sim: Simulation<Message, ProtocolActor>,
}

impl LocalNet {
    /// A network with a constant `latency` on every link.
    pub fn with_uniform_latency(
        nodes: Vec<Box<dyn ConsensusProtocol>>,
        latency: SimDuration,
    ) -> Self {
        Self::with_policy(nodes, Box::new(move |_, _, _, _| Some(latency)))
    }

    /// A network governed by an arbitrary link policy.
    pub fn with_policy(nodes: Vec<Box<dyn ConsensusProtocol>>, policy: LinkPolicy) -> Self {
        let n = nodes.len();
        let actors = nodes
            .into_iter()
            .enumerate()
            .map(|(i, protocol)| {
                ProtocolActor::new(NodeId::from_index(i), protocol, Box::new(NullSink))
            })
            .collect();
        let config = NetworkConfig::new(
            Box::new(UniformLatency::new(SimDuration::ZERO, SimDuration::ZERO)),
            NicModel::unbounded(n),
        );
        let mut sim = Simulation::new(actors, config);
        sim.route_with(policy);
        LocalNet { sim }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.sim.len()
    }

    /// Whether the net has no nodes.
    pub fn is_empty(&self) -> bool {
        self.sim.is_empty()
    }

    /// Marks `node` crashed: it stops receiving and emitting.
    pub fn crash(&mut self, node: NodeId) {
        self.sim.crash(node);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The blocks committed by `node`, in commit order.
    pub fn committed(&self, node: NodeId) -> &[CommittedBlock] {
        self.sim.actor(node).committed()
    }

    /// The current view of `node`.
    pub fn view_of(&self, node: NodeId) -> View {
        self.sim.actor(node).protocol().current_view()
    }

    /// Runs until the queue drains or `deadline` passes.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.sim.run_until(deadline);
    }

    /// Runs for `duration` from the current time.
    pub fn run_for(&mut self, duration: SimDuration) {
        self.run_until(self.now() + duration);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeConfig, PipelinedMoonshot};
    use moonshot_telemetry::MetricsFold;
    use std::sync::{Arc, Mutex};

    #[test]
    fn four_nodes_commit_under_the_des() {
        let metrics = Arc::new(Mutex::new(MetricsFold::new()));
        let n = 4;
        let actors: Vec<Box<dyn Actor<Message>>> = (0..n)
            .map(|i| {
                let node = NodeId::from_index(i);
                let cfg = NodeConfig::simulated(node, n, SimDuration::from_millis(100));
                Box::new(ProtocolActor::new(
                    node,
                    Box::new(PipelinedMoonshot::new(cfg)),
                    Box::new(metrics.clone()),
                )) as Box<dyn Actor<Message>>
            })
            .collect();
        let config = NetworkConfig::new(
            Box::new(UniformLatency::new(SimDuration::from_millis(10), SimDuration::ZERO)),
            NicModel::unbounded(n),
        );
        let mut sim = Simulation::new(actors, config);
        sim.run_until(SimTime(2_000_000));
        let m = metrics.lock().unwrap().summarise(3, SimDuration::from_secs(2));
        assert!(m.committed_blocks >= 10, "committed {}", m.committed_blocks);
        assert!(m.avg_latency_ms() > 0.0);
        // 3δ ≈ 30ms plus loopback/aggregation slack.
        assert!(m.avg_latency_ms() < 100.0, "latency {}", m.avg_latency_ms());
    }
}
