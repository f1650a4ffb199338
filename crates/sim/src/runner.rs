//! The experiment runner: builds a network of protocol nodes (plus silent
//! Byzantine nodes), runs it under the discrete-event simulator and returns
//! the paper's metrics.

use std::sync::Arc;

use moonshot_consensus::leader::{schedule, LeaderElection, RoundRobin};
use moonshot_consensus::{
    CommitMoonshot, ConsensusProtocol, Jolteon, Message, NodeConfig, PayloadSource,
    PipelinedMoonshot, SimpleMoonshot,
};
use moonshot_consensus::pipelined::MoonshotOptions;
use moonshot_crypto::Keyring;
use moonshot_net::latency::aws;
use moonshot_net::{
    Actor, FaultPlan, FaultStats, LatencyModel, NetworkConfig, NetworkStats, NicModel, Simulation,
    TrafficStats, UniformLatency,
};
use moonshot_telemetry::json::JsonObject;
use moonshot_telemetry::{
    InvariantSummary, JsonlSink, RingBufferSink, TeeSink, TraceRecord, TraceSink,
};
use moonshot_types::time::{SimDuration, SimTime};
use moonshot_types::NodeId;
use std::path::PathBuf;
use std::sync::Mutex;

use crate::adapter::ProtocolActor;
use crate::byzantine::SilentActor;
use crate::metrics::{MetricsSink, RunMetrics};

/// Which protocol to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolKind {
    /// Simple Moonshot (§III).
    SimpleMoonshot,
    /// Pipelined Moonshot (§IV).
    PipelinedMoonshot,
    /// Commit Moonshot (§V).
    CommitMoonshot,
    /// Pipelined Moonshot with optimistic proposals disabled (ablation D1).
    PipelinedNoOptimistic,
    /// The Jolteon baseline.
    Jolteon,
    /// Chained HotStuff (3-chain commits, λ = 7δ) — the Table I reference
    /// baseline, one rung below Jolteon.
    HotStuff,
}

impl ProtocolKind {
    /// Short label used in reports (matches the paper's abbreviations).
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::SimpleMoonshot => "SM",
            ProtocolKind::PipelinedMoonshot => "PM",
            ProtocolKind::CommitMoonshot => "CM",
            ProtocolKind::PipelinedNoOptimistic => "PM-noopt",
            ProtocolKind::Jolteon => "J",
            ProtocolKind::HotStuff => "HS",
        }
    }

    /// All four protocols of the paper's evaluation, in report order.
    pub fn evaluated() -> [ProtocolKind; 4] {
        [
            ProtocolKind::SimpleMoonshot,
            ProtocolKind::PipelinedMoonshot,
            ProtocolKind::CommitMoonshot,
            ProtocolKind::Jolteon,
        ]
    }

    /// Builds this protocol's state machine for one node — the one place
    /// a [`ProtocolKind`] is mapped to a constructor.
    pub fn build(self, cfg: NodeConfig) -> Box<dyn ConsensusProtocol> {
        match self {
            ProtocolKind::SimpleMoonshot => Box::new(SimpleMoonshot::new(cfg)),
            ProtocolKind::PipelinedMoonshot => Box::new(PipelinedMoonshot::new(cfg)),
            ProtocolKind::CommitMoonshot => Box::new(CommitMoonshot::new(cfg)),
            ProtocolKind::PipelinedNoOptimistic => Box::new(PipelinedMoonshot::with_options(
                cfg,
                MoonshotOptions { optimistic_proposals: false, ..MoonshotOptions::default() },
            )),
            ProtocolKind::Jolteon => Box::new(Jolteon::new(cfg)),
            ProtocolKind::HotStuff => Box::new(Jolteon::hotstuff(cfg)),
        }
    }
}

/// Propagation-latency model for a run.
#[derive(Clone, Copy, Debug)]
pub enum LatencyKind {
    /// The paper's 5-region AWS WAN (Table II), nodes spread evenly.
    Wan {
        /// Multiplicative jitter bound in percent.
        jitter_pct: u64,
    },
    /// Uniform pairwise latency.
    Uniform {
        /// Base one-way delay in milliseconds.
        ms: u64,
        /// Additive jitter bound in milliseconds.
        jitter_ms: u64,
    },
}

/// Leader schedule for a run (§VI.B).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// Plain round-robin over all nodes.
    RoundRobin,
    /// `B`: all honest then all Byzantine.
    BestCase,
    /// `WM`: honest/Byzantine pairs then the remaining honest.
    WorstMoonshot,
    /// `WJ`: honest-honest-Byzantine triples then the remaining honest.
    WorstJolteon,
}

/// Full configuration of one simulated run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Number of nodes `n`.
    pub n: usize,
    /// Number of actual (silent) Byzantine nodes `f′ ≤ f`.
    pub f_prime: usize,
    /// Payload bytes per block (rounded down to 180-byte items).
    pub payload_bytes: u64,
    /// The known delay bound Δ used for view timers.
    pub delta: SimDuration,
    /// Propagation model.
    pub latency: LatencyKind,
    /// Leader schedule.
    pub schedule: Schedule,
    /// Simulated run length.
    pub duration: SimDuration,
    /// RNG seed.
    pub seed: u64,
    /// Verify signatures cryptographically (disable only for very large
    /// trusted runs).
    pub verify_signatures: bool,
    /// NIC speed in Gbps (the paper's instances: up to 10 Gbps).
    pub nic_gbps: f64,
    /// Fixed per-message sender overhead.
    pub per_message_overhead: SimDuration,
    /// Grow Δ automatically so that β ≤ Δ still holds when proposal
    /// serialization dominates (large payloads on a finite NIC). Partial
    /// synchrony *requires* Δ to bound actual delivery; a deployment would
    /// size Δ for its block size.
    pub auto_delta: bool,
    /// Network faults injected during the run (partitions, duplication,
    /// reordering, delay spikes). Empty by default.
    pub fault_plan: FaultPlan,
}

impl RunConfig {
    /// A failure-free WAN run in the paper's happy-path setting.
    pub fn happy_path(protocol: ProtocolKind, n: usize, payload_bytes: u64) -> Self {
        RunConfig {
            protocol,
            n,
            f_prime: 0,
            payload_bytes,
            delta: SimDuration::from_millis(500),
            latency: LatencyKind::Wan { jitter_pct: 10 },
            schedule: Schedule::RoundRobin,
            duration: SimDuration::from_secs(30),
            seed: 1,
            verify_signatures: n <= 50,
            // m5.large sustained baseline bandwidth ("up to 10 Gbps" burst).
            nic_gbps: 0.75,
            per_message_overhead: SimDuration::from_micros(20),
            auto_delta: true,
            fault_plan: FaultPlan::default(),
        }
    }

    /// A failure run in the paper's §VI.B setting: `n = 100`, `f′ = 33`,
    /// empty payloads, Δ = 500 ms.
    pub fn failures(protocol: ProtocolKind, schedule: Schedule) -> Self {
        RunConfig {
            protocol,
            n: 100,
            f_prime: 33,
            payload_bytes: 0,
            delta: SimDuration::from_millis(500),
            latency: LatencyKind::Wan { jitter_pct: 10 },
            schedule,
            duration: SimDuration::from_secs(60),
            seed: 1,
            verify_signatures: false,
            nic_gbps: 0.75,
            per_message_overhead: SimDuration::from_micros(20),
            // The failure experiments use empty payloads: Δ = 500 ms is
            // already a sound bound, exactly as in the paper.
            auto_delta: false,
            fault_plan: FaultPlan::default(),
        }
    }

    /// Sets the seed (runs with different seeds are independent samples).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the run duration.
    pub fn with_duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Injects a network fault plan into the run.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Quorum threshold for this network size.
    pub fn quorum(&self) -> usize {
        Keyring::simulated(self.n).quorum_threshold()
    }

    /// The Δ actually used: when `auto_delta` is set, grown to bound the
    /// worst-case proposal delivery time (propagation plus full broadcast
    /// serialization) with 30% headroom.
    pub fn effective_delta(&self) -> SimDuration {
        if !self.auto_delta {
            return self.delta;
        }
        let bytes_per_us = self.nic_gbps * 125.0;
        let serialization_us =
            (self.payload_bytes as f64 * (self.n.saturating_sub(1)) as f64 / bytes_per_us) as u64;
        let bound = SimDuration((serialization_us as f64 * 1.3) as u64);
        self.delta.max(bound)
    }

    fn election(&self) -> Box<dyn LeaderElection> {
        match self.schedule {
            Schedule::RoundRobin => Box::new(RoundRobin::new(self.n)),
            Schedule::BestCase => Box::new(schedule::best_case(self.n, self.f_prime)),
            Schedule::WorstMoonshot => Box::new(schedule::worst_moonshot(self.n, self.f_prime)),
            Schedule::WorstJolteon => Box::new(schedule::worst_jolteon(self.n, self.f_prime)),
        }
    }

    fn latency_model(&self) -> Box<dyn LatencyModel> {
        match self.latency {
            LatencyKind::Wan { jitter_pct } => Box::new(aws::wan(self.n, jitter_pct)),
            LatencyKind::Uniform { ms, jitter_ms } => Box::new(UniformLatency::new(
                SimDuration::from_millis(ms),
                SimDuration::from_millis(jitter_ms),
            )),
        }
    }

    fn build_protocol(&self, node: NodeId) -> Box<dyn ConsensusProtocol> {
        let payloads = if self.payload_bytes == 0 {
            PayloadSource::Empty
        } else {
            PayloadSource::SyntheticBytes(self.payload_bytes)
        };
        let cfg = NodeConfig {
            node_id: node,
            keypair: moonshot_crypto::KeyPair::from_seed(node.0 as u64),
            keyring: Keyring::simulated(self.n),
            delta: self.effective_delta(),
            election: self.election(),
            payloads,
            verify_signatures: self.verify_signatures,
            fetch_retry: moonshot_consensus::RetryPolicy::auto(),
            verified_cache: std::sync::Arc::new(moonshot_crypto::VerifiedCache::default()),
            skip_inline_checks: false,
            // Simulated nodes are ephemeral: no durable ledger.
            persist: None,
            recover: None,
            local_blocks: None,
        };
        self.protocol.build(cfg)
    }
}

/// The result of one run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Consensus metrics (throughput, latency, transfer rate).
    pub metrics: RunMetrics,
    /// Network-level statistics.
    pub network: NetworkStats,
    /// Per-message-type communication accounting.
    pub traffic: TrafficStats,
    /// Injected-fault accounting (all zero when the fault plan is empty).
    pub faults: FaultStats,
}

/// How a run's protocol trace is captured.
#[derive(Clone, Debug)]
pub struct TraceOptions {
    /// Capacity of the in-memory ring buffer the invariant checker reads
    /// (oldest events evict first; the checks are suffix-safe).
    pub ring_capacity: usize,
    /// When set, additionally stream every event as JSON Lines to this file
    /// (parent directories are created).
    pub jsonl_path: Option<PathBuf>,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions { ring_capacity: 1 << 16, jsonl_path: None }
    }
}

/// The result of one traced run.
#[derive(Clone, Debug)]
pub struct TracedRunReport {
    /// The run's metrics, network statistics and traffic accounting.
    pub report: RunReport,
    /// The (possibly truncated) event trace, oldest first.
    pub trace: Vec<TraceRecord>,
    /// Events evicted from the ring buffer before the run ended.
    pub trace_evicted: u64,
    /// What the post-run invariant checker verified.
    pub invariants: InvariantSummary,
}

impl TracedRunReport {
    /// Serialises config + metrics + per-type traffic + invariant coverage
    /// as one JSON object — the per-cell record of the experiment summary
    /// files.
    pub fn summary_json(&self, config: &RunConfig) -> String {
        let mut traffic = JsonObject::new();
        for (label, t) in self.report.traffic.rows() {
            let mut row = JsonObject::new();
            row.field_u64("count", t.count);
            row.field_u64("bytes", t.bytes);
            traffic.field_raw(label, &row.finish());
        }
        let mut inv = JsonObject::new();
        inv.field_u64("records", self.invariants.records);
        inv.field_u64("commits", self.invariants.commits);
        inv.field_u64("view_entries", self.invariants.view_entries);
        inv.field_bool("ok", true);

        let mut o = JsonObject::new();
        o.field_str("protocol", config.protocol.label());
        o.field_u64("n", config.n as u64);
        o.field_u64("f_prime", config.f_prime as u64);
        o.field_u64("payload_bytes", config.payload_bytes);
        o.field_u64("seed", config.seed);
        o.field_raw("metrics", &self.report.metrics.to_json());
        o.field_u64("messages_delivered", self.report.network.delivered);
        o.field_u64("bytes_sent", self.report.network.bytes_sent);
        o.field_raw("traffic", &traffic.finish());
        o.field_raw("invariants", &inv.finish());
        o.finish()
    }
}

/// Executes one simulated run with default tracing: events go to a bounded
/// ring buffer and the invariant checker validates the trace afterwards.
pub fn run(config: &RunConfig) -> RunReport {
    run_traced(config, &TraceOptions::default()).report
}

/// Executes one simulated run, capturing the protocol trace.
///
/// Every honest node is observed through the `ConsensusProtocol` hook; the
/// events land in a ring buffer (and, optionally, a JSONL file). After the
/// run the trace is checked against the safety invariants — agreement,
/// monotone views, ordered commits.
///
/// # Panics
///
/// Panics if the trace violates an invariant (a correctness bug, not an
/// experiment outcome) or if the JSONL file cannot be created.
pub fn run_traced(config: &RunConfig, opts: &TraceOptions) -> TracedRunReport {
    assert!(config.f_prime * 3 < config.n, "f' must satisfy n > 3f'");
    let metrics = Arc::new(Mutex::new(MetricsSink::new()));
    let ring = Arc::new(Mutex::new(RingBufferSink::new(opts.ring_capacity)));
    let jsonl = opts.jsonl_path.as_ref().map(|path| {
        Arc::new(Mutex::new(
            JsonlSink::create(path).expect("create JSONL trace file"),
        ))
    });
    let byzantine_from = config.n - config.f_prime;
    let actors: Vec<Box<dyn Actor<Message>>> = (0..config.n)
        .map(|i| {
            let node = NodeId::from_index(i);
            if i >= byzantine_from {
                Box::new(SilentActor) as Box<dyn Actor<Message>>
            } else {
                let sink: Box<dyn TraceSink> = match &jsonl {
                    Some(j) => Box::new(TeeSink::new(ring.clone(), j.clone())),
                    None => Box::new(ring.clone()),
                };
                Box::new(
                    ProtocolActor::new(node, config.build_protocol(node), metrics.clone())
                        .with_trace(sink),
                ) as Box<dyn Actor<Message>>
            }
        })
        .collect();
    let net_config = NetworkConfig::new(
        config.latency_model(),
        NicModel::new(config.n, config.nic_gbps, config.per_message_overhead),
    )
    .with_seed(config.seed)
    .with_faults(config.fault_plan.clone());
    let mut sim = Simulation::new(actors, net_config);
    sim.classify_with(|m: &Message| m.tag());
    sim.run_until(SimTime::ZERO + config.duration);
    let m = metrics.lock().unwrap().summarise(config.quorum(), config.duration);
    let network = sim.stats();
    let traffic = sim.traffic().clone();
    let faults = sim.fault_stats();
    drop(sim); // releases the actors' clones of the trace sinks
    if let Some(j) = &jsonl {
        j.lock().unwrap().flush();
    }
    let ring = Arc::try_unwrap(ring)
        .expect("all trace sink clones released")
        .into_inner()
        .unwrap();
    let trace_evicted = ring.evicted();
    let trace = ring.into_vec();
    let invariants = match moonshot_telemetry::check_invariants(trace.iter().copied()) {
        Ok(summary) => summary,
        Err(violations) => {
            let lines: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
            panic!(
                "run violated {} trace invariant(s) ({} {:?}):\n  {}",
                violations.len(),
                config.protocol.label(),
                config.seed,
                lines.join("\n  ")
            );
        }
    };
    TracedRunReport {
        report: RunReport { metrics: m, network, traffic, faults },
        trace,
        trace_evicted,
        invariants,
    }
}

/// Runs `samples` seeds and averages throughput / latency / transfer rate.
#[derive(Clone, Copy, Debug)]
pub struct AveragedReport {
    /// Mean committed blocks across samples.
    pub committed_blocks: f64,
    /// Mean throughput in blocks per second.
    pub throughput_bps: f64,
    /// Mean latency in milliseconds (NaN if nothing committed anywhere).
    pub avg_latency_ms: f64,
    /// Mean transfer rate in bytes per second.
    pub transfer_rate: f64,
    /// Full metrics (including latency / block-period / view-duration
    /// distributions) from the last sampled seed — one representative run's
    /// histograms rather than a cross-seed average of percentiles.
    pub sample: RunMetrics,
}

/// Runs the configuration with seeds `1..=samples` and averages the results,
/// mirroring the paper's "average of three five-minute runs".
pub fn run_averaged(config: &RunConfig, samples: u64) -> AveragedReport {
    assert!(samples >= 1, "need at least one sample");
    let mut blocks = 0.0;
    let mut bps = 0.0;
    let mut lat = Vec::new();
    let mut rate = 0.0;
    let mut sample = None;
    for seed in 1..=samples {
        let report = run(&config.clone().with_seed(seed));
        blocks += report.metrics.committed_blocks as f64;
        bps += report.metrics.throughput_bps();
        rate += report.metrics.transfer_rate_bytes_per_sec();
        let l = report.metrics.avg_latency_ms();
        if l.is_finite() {
            lat.push(l);
        }
        sample = Some(report.metrics);
    }
    let s = samples as f64;
    AveragedReport {
        committed_blocks: blocks / s,
        throughput_bps: bps / s,
        avg_latency_ms: if lat.is_empty() {
            f64::NAN
        } else {
            lat.iter().sum::<f64>() / lat.len() as f64
        },
        transfer_rate: rate / s,
        sample: sample.expect("samples >= 1"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(protocol: ProtocolKind, n: usize) -> RunConfig {
        RunConfig::happy_path(protocol, n, 0)
            .with_duration(SimDuration::from_secs(10))
    }

    #[test]
    fn all_protocols_commit_on_the_wan() {
        for p in ProtocolKind::evaluated() {
            let report = run(&quick(p, 10));
            assert!(
                report.metrics.committed_blocks >= 5,
                "{}: {} blocks",
                p.label(),
                report.metrics.committed_blocks
            );
        }
    }

    #[test]
    fn moonshot_outperforms_jolteon_in_throughput_and_latency() {
        let pm = run(&quick(ProtocolKind::PipelinedMoonshot, 10)).metrics;
        let j = run(&quick(ProtocolKind::Jolteon, 10)).metrics;
        assert!(
            pm.committed_blocks as f64 > 1.2 * j.committed_blocks as f64,
            "PM {} vs J {}",
            pm.committed_blocks,
            j.committed_blocks
        );
        // On the heterogeneous Table II matrix at p = 0 the hop-count
        // advantage (3δ vs 5δ) translates to a ~10-20% latency gap; the
        // paper's ~50% average comes from the payload-heavy cells of the
        // grid (see EXPERIMENTS.md).
        assert!(
            pm.avg_latency_ms() < 0.95 * j.avg_latency_ms(),
            "PM {}ms vs J {}ms",
            pm.avg_latency_ms(),
            j.avg_latency_ms()
        );
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let cfg = quick(ProtocolKind::CommitMoonshot, 10);
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.metrics.committed_blocks, b.metrics.committed_blocks);
        assert_eq!(a.network, b.network);
        let c = run(&cfg.clone().with_seed(99));
        // Different seed ⇒ different jitter ⇒ (almost surely) different stats.
        assert_ne!(a.network.bytes_sent, c.network.bytes_sent);
    }

    #[test]
    fn failure_run_with_silent_byzantines_progresses() {
        let mut cfg = RunConfig::failures(ProtocolKind::CommitMoonshot, Schedule::BestCase);
        cfg.n = 10;
        cfg.f_prime = 3;
        cfg.duration = SimDuration::from_secs(20);
        let report = run(&cfg);
        assert!(
            report.metrics.committed_blocks >= 3,
            "committed {}",
            report.metrics.committed_blocks
        );
    }

    #[test]
    #[should_panic(expected = "n > 3f'")]
    fn too_many_byzantines_rejected() {
        let mut cfg = RunConfig::happy_path(ProtocolKind::Jolteon, 9, 0);
        cfg.f_prime = 3;
        run(&cfg);
    }

    #[test]
    fn traced_run_captures_events_and_invariants() {
        let cfg = quick(ProtocolKind::PipelinedMoonshot, 4);
        let traced = run_traced(&cfg, &TraceOptions::default());
        assert!(traced.report.metrics.committed_blocks > 0);
        assert!(traced.invariants.commits > 0);
        assert!(traced.invariants.view_entries >= 4, "each node enters view 1");
        let kinds: std::collections::HashSet<&str> =
            traced.trace.iter().map(|r| r.event.kind()).collect();
        for expected in ["proposal-sent", "proposal-received", "vote-cast", "qc-formed", "view-entered", "block-committed"]
        {
            assert!(kinds.contains(expected), "missing {expected} in {kinds:?}");
        }
        // Traffic accounting is on and consistent with the byte totals.
        assert!(traced.report.traffic.get("vote").count > 0);
        assert_eq!(traced.report.traffic.total().bytes, traced.report.network.bytes_sent);
        // The summary JSON carries the new distributions.
        let json = traced.summary_json(&cfg);
        assert!(json.contains("\"commit_latency\""));
        assert!(json.contains("\"p99_ms\""));
        assert!(json.contains("\"traffic\""));
        assert!(json.contains("\"invariants\""));
    }

    #[test]
    fn traced_run_streams_jsonl() {
        let dir = std::env::temp_dir().join("moonshot-trace-test");
        let path = dir.join("pm_n4.jsonl");
        let _ = std::fs::remove_file(&path);
        let cfg = quick(ProtocolKind::PipelinedMoonshot, 4)
            .with_duration(SimDuration::from_secs(2));
        let opts = TraceOptions { ring_capacity: 1 << 14, jsonl_path: Some(path.clone()) };
        let traced = run_traced(&cfg, &opts);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len() as u64, traced.trace.len() as u64 + traced.trace_evicted);
        assert!(lines[0].starts_with('{') && lines[0].contains("\"kind\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ring_eviction_keeps_suffix() {
        let cfg = quick(ProtocolKind::CommitMoonshot, 4);
        let opts = TraceOptions { ring_capacity: 64, jsonl_path: None };
        let traced = run_traced(&cfg, &opts);
        assert!(traced.trace_evicted > 0);
        assert_eq!(traced.trace.len(), 64);
        // Invariant checks are suffix-safe, so this still passed (no panic).
    }
}
