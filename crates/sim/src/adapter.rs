//! Adapts sans-IO [`ConsensusProtocol`] state machines to the discrete-event
//! simulator's [`Actor`] interface. A node has one output besides its
//! messages and timers: the trace its [`ProtocolObserver`] derives from the
//! protocol's I/O, which the run's invariant checker and
//! [`MetricsFold`](crate::metrics::MetricsFold) both read.

use std::collections::HashMap;

use moonshot_consensus::{
    ConsensusProtocol, Message, Output, PreVerified, ProtocolObserver, TimerToken,
};
use moonshot_net::{Actor, Context, TimerId};
use moonshot_telemetry::TraceSink;
use moonshot_types::NodeId;

/// A consensus node running inside the simulator.
pub struct ProtocolActor {
    node: NodeId,
    protocol: Box<dyn ConsensusProtocol>,
    timers: HashMap<TimerId, TimerToken>,
    observer: ProtocolObserver,
    trace: Box<dyn TraceSink>,
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
    /// [`MetricsFold`](crate::metrics::MetricsFold), or both through a
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
            verify: true,
        }
    }

    /// With `false`, delivers every message as [`PreVerified::trusted`]
    /// instead of through the protocol's verifier — for the large runs
    /// that turn verification off (`RunConfig::verify_signatures`).
    pub(crate) fn verifying(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
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
                Output::Commit(_) => {}
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsFold;
    use moonshot_consensus::{NodeConfig, PipelinedMoonshot};
    use moonshot_net::{NetworkConfig, NicModel, Simulation, UniformLatency};
    use moonshot_types::time::{SimDuration, SimTime};
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
