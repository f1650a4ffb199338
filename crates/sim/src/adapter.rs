//! Adapts sans-IO [`ConsensusProtocol`] state machines to the discrete-event
//! simulator's [`Actor`] interface, recording metrics along the way.

use std::collections::HashMap;
use std::sync::Arc;

use moonshot_consensus::{
    ConsensusProtocol, Message, Output, PreVerified, ProtocolObserver, TimerToken,
};
use moonshot_net::{Actor, Context, TimerId};
use moonshot_telemetry::TraceSink;
use moonshot_types::{Block, NodeId};
use std::sync::Mutex;

use crate::metrics::MetricsSink;

/// A consensus node running inside the simulator.
pub struct ProtocolActor {
    node: NodeId,
    protocol: Box<dyn ConsensusProtocol>,
    metrics: Arc<Mutex<MetricsSink>>,
    timers: HashMap<TimerId, TimerToken>,
    observer: ProtocolObserver,
    trace: Option<Box<dyn TraceSink>>,
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
    /// Wraps `protocol` for `node`, reporting into `metrics`.
    pub fn new(
        node: NodeId,
        protocol: Box<dyn ConsensusProtocol>,
        metrics: Arc<Mutex<MetricsSink>>,
    ) -> Self {
        ProtocolActor {
            node,
            protocol,
            metrics,
            timers: HashMap::new(),
            observer: ProtocolObserver::new(node),
            trace: None,
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

    /// Additionally records every protocol action into `sink` (typically a
    /// shared ring buffer or JSONL writer — see `moonshot-telemetry`).
    pub fn with_trace(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    fn note_proposal(&self, msg: &Message, now: moonshot_types::time::SimTime) {
        let block: &Block = match msg {
            Message::OptPropose { block, .. }
            | Message::Propose { block, .. }
            | Message::FbPropose { block, .. } => block,
            _ => return,
        };
        self.metrics.lock().unwrap().record_created(
            block.id(),
            block.view(),
            block.height(),
            block.payload().size(),
            now,
        );
    }

    fn apply(&mut self, outputs: Vec<Output>, ctx: &mut Context<Message>) {
        if let Some(sink) = &mut self.trace {
            self.observer.on_outputs(&outputs, self.protocol.current_view(), ctx.now(), sink);
        }
        for out in outputs {
            match out {
                Output::Send(to, msg) => ctx.send(to, msg),
                Output::Multicast(msg) => {
                    self.note_proposal(&msg, ctx.now());
                    ctx.multicast(msg);
                }
                Output::SetTimer { token, after } => {
                    let id = ctx.set_timer(after);
                    self.timers.insert(id, token);
                }
                Output::Commit(c) => {
                    let mut m = self.metrics.lock().unwrap();
                    m.record_commit(self.node, c.block.id(), ctx.now());
                    m.record_view(self.node, self.protocol.current_view(), ctx.now());
                }
            }
        }
    }
}

impl Actor<Message> for ProtocolActor {
    fn on_start(&mut self, ctx: &mut Context<Message>) {
        let outs = self.protocol.start(ctx.now());
        self.apply(outs, ctx);
        self.metrics.lock().unwrap().record_view(
            self.node,
            self.protocol.current_view(),
            ctx.now(),
        );
    }

    fn on_message(&mut self, from: NodeId, msg: Message, ctx: &mut Context<Message>) {
        if let Some(sink) = &mut self.trace {
            self.observer.on_message_received(from, &msg, ctx.now(), sink);
        }
        let outs = if self.verify {
            self.protocol.handle_message(from, msg, ctx.now())
        } else {
            self.protocol.handle_preverified(from, PreVerified::trusted(msg), ctx.now())
        };
        self.apply(outs, ctx);
        self.metrics.lock().unwrap().record_view(
            self.node,
            self.protocol.current_view(),
            ctx.now(),
        );
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<Message>) {
        if let Some(token) = self.timers.remove(&timer) {
            if let Some(sink) = &mut self.trace {
                self.observer.on_timer_fired(token, ctx.now(), sink);
            }
            let outs = self.protocol.handle_timer(token, ctx.now());
            self.apply(outs, ctx);
            self.metrics.lock().unwrap().record_view(
                self.node,
                self.protocol.current_view(),
                ctx.now(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moonshot_consensus::{NodeConfig, PipelinedMoonshot};
    use moonshot_net::{NetworkConfig, NicModel, Simulation, UniformLatency};
    use moonshot_types::time::{SimDuration, SimTime};

    #[test]
    fn four_nodes_commit_under_the_des() {
        let metrics = Arc::new(Mutex::new(MetricsSink::new()));
        let n = 4;
        let actors: Vec<Box<dyn Actor<Message>>> = (0..n)
            .map(|i| {
                let node = NodeId::from_index(i);
                let cfg = NodeConfig::simulated(node, n, SimDuration::from_millis(100));
                Box::new(ProtocolActor::new(
                    node,
                    Box::new(PipelinedMoonshot::new(cfg)),
                    metrics.clone(),
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
