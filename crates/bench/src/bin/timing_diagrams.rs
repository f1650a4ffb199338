//! Regenerates the message-flow intuition of Fig. 2 and Fig. 5: a trace of
//! one node's steady-state view showing optimistic proposals overlapping
//! vote aggregation (Fig. 2), and Commit Moonshot's explicit commit votes
//! landing before the pipelined path (Fig. 5).
//!
//! ```sh
//! cargo run --release -p moonshot-bench --bin timing_diagrams
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use moonshot_consensus::{
    CommitMoonshot, ConsensusProtocol, Message, NodeConfig, PipelinedMoonshot,
};
use moonshot_net::{Actor, Context, NetworkConfig, NicModel, Simulation, TimerId, UniformLatency};
use moonshot_sim::ProtocolActor;
use moonshot_telemetry::NullSink;
use moonshot_types::time::{SimDuration, SimTime};
use moonshot_types::NodeId;
use std::sync::Mutex;

type Trace = Arc<Mutex<Vec<(SimTime, NodeId, NodeId, &'static str)>>>;

struct Tracer {
    inner: ProtocolActor,
    trace: Trace,
}

impl Actor<Message> for Tracer {
    fn on_start(&mut self, ctx: &mut Context<Message>) {
        self.inner.on_start(ctx)
    }
    fn on_message(&mut self, from: NodeId, msg: Message, ctx: &mut Context<Message>) {
        self.trace.lock().unwrap().push((ctx.now(), from, ctx.node(), msg.tag()));
        self.inner.on_message(from, msg, ctx)
    }
    fn on_timer(&mut self, t: TimerId, ctx: &mut Context<Message>) {
        self.inner.on_timer(t, ctx)
    }
}

fn trace_protocol(
    title: &str,
    make: &dyn Fn(NodeConfig) -> Box<dyn ConsensusProtocol>,
    window: (u64, u64),
) {
    let n = 4;
    let delta_ms = 100u64;
    let trace: Trace = Arc::new(Mutex::new(Vec::new()));
    let actors: Vec<Box<dyn Actor<Message>>> = (0..n)
        .map(|i| {
            let node = NodeId::from_index(i);
            let cfg = NodeConfig::simulated(node, n, SimDuration::from_millis(delta_ms));
            Box::new(Tracer {
                inner: ProtocolActor::new(node, make(cfg), Box::new(NullSink)),
                trace: trace.clone(),
            }) as Box<dyn Actor<Message>>
        })
        .collect();
    let config = NetworkConfig::new(
        Box::new(UniformLatency::new(SimDuration::from_millis(10), SimDuration::ZERO)),
        NicModel::unbounded(n),
    );
    let mut sim = Simulation::new(actors, config);
    sim.run_until(SimTime(2_000_000));

    println!("── {title} (n = 4, δ = 10 ms, node P0's inbox, {}–{} ms) ──", window.0, window.1);
    let mut summary: HashMap<(&'static str, u64), u64> = HashMap::new();
    for (at, from, to, tag) in trace.lock().unwrap().iter() {
        let ms = at.0 / 1_000;
        if *to == NodeId(0) && ms >= window.0 && ms < window.1 {
            if matches!(*tag, "vote" | "certificate" | "commit-vote") {
                *summary.entry((tag, ms)).or_default() += 1;
            } else {
                println!("  t={:>7.2} ms  {} → P0: {}", at.as_millis_f64(), from, tag);
            }
        }
    }
    let mut grouped: Vec<_> = summary.into_iter().collect();
    grouped.sort_by_key(|&((tag, ms), _)| (ms, tag));
    for ((tag, ms), count) in grouped {
        println!("  t≈{ms:>6} ms  {count} × {tag}");
    }
    println!();
}

fn main() {
    println!("Timing diagrams (Fig. 2 / Fig. 5 of the paper)\n");
    println!("Fig. 2: optimistic proposal + vote multicasting let consecutive proposals flow");
    println!("at δ intervals — each view shows opt-propose arriving with the previous view's");
    println!("votes, and the certificate forming as the next proposal is already in flight.\n");
    trace_protocol(
        "Pipelined Moonshot",
        &|cfg| Box::new(PipelinedMoonshot::new(cfg)),
        (100, 161),
    );
    println!("Fig. 5: Commit Moonshot's explicit commit votes (small messages) land one vote");
    println!("round after the certificate, without waiting for the next block proposal.\n");
    trace_protocol(
        "Commit Moonshot",
        &|cfg| Box::new(CommitMoonshot::new(cfg)),
        (100, 161),
    );
}
