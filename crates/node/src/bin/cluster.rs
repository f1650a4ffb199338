//! N-node localhost cluster benchmark over real TCP.
//!
//! ```text
//! cluster [--n 4] [--duration-secs 10] [--delta-ms 50]
//!         [--protocol sm|pm|cm|jolteon]   # default: all four
//!         [--load <batch-bytes>] [--tx-bytes 180] [--tx-rate 0]
//!         [--clients 1] [--drop-push-to <id>]
//!         [--mixed-load] [--paced-clients 3] [--paced-rate 500]
//!         [--shape table2|uniform:<ms>]
//!         [--out-dir results] [--min-commits 0] [--bench-json <path>]
//!         [--data-dir <dir>] [--restart-node <id>]
//! ```
//!
//! Every node runs the one networked path: signatures are checked in the
//! shared pool's sigverify stage before a message reaches a driver, and
//! blocks carry 40-byte references to batches that travel on the
//! push/fetch plane.
//!
//! Without `--load` the cluster is consensus-only (empty blocks).
//! `--load <batch-bytes>` gives every node a mempool and a batch-assembler
//! thread; an in-process load generator submits `--tx-bytes` transactions
//! round-robin (at `--tx-rate` per second, 0 = saturate), and throughput is
//! measured from the batch bytes quorum-committed blocks reference. The
//! output rows of a loaded run carry `dissem_batches_pushed`,
//! `dissem_fetches`, `dissem_fetches_served`, `dissem_votes_gated`, and
//! `batches_available_checked` (how many per-commit per-ref availability
//! checks the invariant checker ran — a loaded run fails if it is 0).
//! A loaded run ends with a drain (generators off, every node waits out
//! what it accepted) and fails unless the commit list then holds exactly
//! the transactions the mempools accepted. `--drop-push-to <id>`
//! additionally starves one node of every `BatchPush` so the fetch path
//! must cover it — the fault-injection cell of the dissemination plane.
//!
//! `--mixed-load` appends the bufferbloat fairness scenario: at `--load`'s
//! batch size (or 18 kB) it runs a **paced-only** baseline (`--paced-clients` generators at `--paced-rate`
//! tx/s each, no saturating traffic) and then the **mixed** cell (the same
//! paced clients plus one saturating client 0). The run fails unless the
//! paced clients' p99 submit→commit latency in the mixed cell stays within
//! `max(2× baseline, baseline + 50 ms, 4× the mixed cell's commit p99)` —
//! one greedy client must not inflate everyone else's latency beyond the
//! consensus floor (under saturation, adaptive batching grows blocks, and
//! nobody's transaction can commit faster than the block carrying it). Every loaded run additionally
//! fails if tx p99 exceeds `max(50× commit p99, 50 ms)` while a saturating
//! client is running (the bufferbloat gate), if the mempool counter
//! identity `accepted + rejected + deduped == submitted` does not hold, or
//! if the `mempool.queue_delay_ms` histogram / fairness counters are
//! missing from the metrics.
//!
//! For every run this spins up an `--n`-validator cluster on loopback,
//! lets it run for the wall-clock duration, then stops it and:
//!
//! * scrapes node 0's live introspection plane (`/status` + `/metrics`)
//!   at half duration — the scrape is embedded in the output row, and a
//!   loaded run **fails** unless every `stage_latency_us.*` histogram is
//!   already present and nonzero mid-run,
//! * replays the merged trace through the invariant checker (any safety
//!   violation fails the run),
//! * writes the merged trace to `<out-dir>/cluster-<label>.trace.jsonl`,
//! * writes a row per run to `<out-dir>/cluster.csv` and an object per run
//!   to `--bench-json` (default `<out-dir>/BENCH_cluster.json`) with real
//!   throughput, p50/p99 commit latency, (loaded runs) submit→commit
//!   transaction latency plus mempool admission counters, and the
//!   per-stage latency decomposition (mempool-queue, propose-wait,
//!   vote-to-QC, QC-to-commit p50/p99).
//!
//! `--data-dir <dir>` runs every node with a durable ledger (WAL +
//! blockstore + snapshots) under `<dir>/<run-label>/node-<id>/`, and the
//! output rows gain `ledger_wal_records` (fsync'd safety records across
//! the cluster) and, after a restart, `restart_resync_blocks` — how many
//! blocks the restarted node owed the network, i.e. cluster height at
//! restart minus the height it recovered from its own disk.
//!
//! `--restart-node <id>` kills node `id` (SIGKILL-equivalent: threads are
//! detached, sockets dropped) a third of the way into each run and
//! restarts it from its data dir at two thirds — the crash/recover smoke
//! the CI job keys off. The node must not be 0 (node 0 serves the mid-run
//! scrape) and requires `--data-dir`.
//!
//! `--shape` turns the loopback cluster into an emulated WAN: every
//! directed link gets a one-way delay (Table II's ten-region matrix with
//! nodes assigned round-robin, or `uniform:<ms>`), enforced sender-side by
//! the shared event loops — the fig6-style latency curves at 50–200 nodes
//! without leaving one machine.
//!
//! Every row also records the event-driven core's shape: `process_threads`
//! (sampled mid-run, gated against a per-node×n + 2×cores + 16 ceiling —
//! one driver and one introspection thread per node, an assembler/ledger
//! writer where configured, plus the O(cores) shared pool), `reactor_shards`,
//! `reactor_loop_wakeups`, `reactor_frames_per_wakeup`, and the sigverify
//! stage's `batch_verify_calls`/`batch_verify_items` (mean batch size > 1
//! is the proof signatures are actually being batched under load).
//!
//! Exits nonzero on invariant violations or when fewer than
//! `--min-commits` blocks were quorum-committed — which is exactly what
//! the CI smoke job keys off.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use moonshot_node::{
    process_threads, Cluster, ClusterSpec, LinkShape, LoadSpec, ProtocolChoice, ShapeMatrix,
};
use moonshot_telemetry::json::JsonObject;
use moonshot_telemetry::{Histogram, JsonlSink, TraceSink};
use moonshot_types::time::SimDuration;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// What traffic shape a run carries (drives labels and latency gates).
#[derive(Clone, Copy, PartialEq)]
enum Scenario {
    /// A consensus-only or plain `--load` run.
    Default,
    /// Paced clients only — the latency baseline for [`Scenario::Mixed`].
    PacedOnly,
    /// Saturating client 0 plus paced clients — the fairness shape.
    Mixed,
}

impl Scenario {
    fn label(self) -> &'static str {
        match self {
            Scenario::Default => "default",
            Scenario::PacedOnly => "paced",
            Scenario::Mixed => "mixed",
        }
    }
}

/// One cluster run to execute.
struct RunPlan {
    protocol: ProtocolChoice,
    load: Option<LoadSpec>,
    scenario: Scenario,
    /// For a mixed cell: index (into the plan/row vec) of its paced-only
    /// baseline — the run its paced p99 is gated against.
    baseline: Option<usize>,
}

/// What the closing gates and the output files keep of a finished run.
struct RunRow {
    label: String,
    /// Commit-latency p99 (ms).
    p99_ms: f64,
    /// Submit→commit p99 (ms) over the *paced* clients only (`None` when
    /// the run has no paced clients, or none of their txs committed).
    paced_p99_ms: Option<f64>,
    json: String,
}

/// One live scrape of a node's introspection endpoint: writes `path` as a
/// line, reads the one-line JSON answer. `None` on any socket error.
fn scrape(addr: std::net::SocketAddr, path: &str) -> Option<String> {
    use std::io::{BufRead, BufReader, Write};
    let mut stream = std::net::TcpStream::connect_timeout(&addr, Duration::from_secs(2)).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    stream.write_all(path.as_bytes()).ok()?;
    stream.write_all(b"\n").ok()?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).ok()?;
    let line = line.trim().to_string();
    (!line.is_empty()).then_some(line)
}

/// Pulls `"count":N` for histogram `name` out of a `/metrics` JSON line
/// without a JSON parser — the registry serializes each histogram as
/// `"<name>":{"count":N,...}`.
fn hist_count(metrics_json: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\":{{\"count\":");
    let start = metrics_json.find(&key)? + key.len();
    let digits: String =
        metrics_json[start..].chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// The four stage histograms every loaded run must be exporting, in
/// pipeline order.
const STAGES: [&str; 4] = ["mempool_queue", "propose_wait", "vote_to_qc", "qc_to_commit"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: usize = flag(&args, "--n").and_then(|v| v.parse().ok()).unwrap_or(4);
    let duration_secs: u64 =
        flag(&args, "--duration-secs").and_then(|v| v.parse().ok()).unwrap_or(10);
    let delta_ms: u64 = flag(&args, "--delta-ms").and_then(|v| v.parse().ok()).unwrap_or(50);
    let min_commits: u64 = flag(&args, "--min-commits").and_then(|v| v.parse().ok()).unwrap_or(0);
    let tx_bytes: usize = flag(&args, "--tx-bytes").and_then(|v| v.parse().ok()).unwrap_or(180);
    let tx_rate: u64 = flag(&args, "--tx-rate").and_then(|v| v.parse().ok()).unwrap_or(0);
    // One saturating in-process generator tops out near 10 MB/s of 1.8 kB
    // transactions; past that the *client* is the benchmark's bottleneck,
    // not the cluster. `--clients` fans submission out over several
    // generator threads (ids 0..n), all shaped by --tx-bytes/--tx-rate.
    let gen_clients: u32 = flag(&args, "--clients").and_then(|v| v.parse().ok()).unwrap_or(1);
    let load_batch: Option<usize> = flag(&args, "--load").and_then(|v| v.parse().ok());
    let drop_push_to: Option<u16> = match flag(&args, "--drop-push-to") {
        Some(v) => match v.parse::<u16>() {
            Ok(id) if (id as usize) < n => Some(id),
            Ok(id) => {
                eprintln!("error: --drop-push-to {id} must be in 0..{n}");
                return ExitCode::from(2);
            }
            Err(e) => {
                eprintln!("error: bad --drop-push-to: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let mixed_load = has_flag(&args, "--mixed-load");
    let paced_clients: u32 =
        flag(&args, "--paced-clients").and_then(|v| v.parse().ok()).unwrap_or(3);
    let paced_rate: u64 = flag(&args, "--paced-rate").and_then(|v| v.parse().ok()).unwrap_or(500);
    let data_dir: Option<std::path::PathBuf> =
        flag(&args, "--data-dir").map(std::path::PathBuf::from);
    let restart_node: Option<u16> = match flag(&args, "--restart-node") {
        Some(v) => match v.parse::<u16>() {
            Ok(id) if id != 0 && (id as usize) < n => Some(id),
            Ok(id) => {
                eprintln!("error: --restart-node {id} must be in 1..{n} (node 0 is scraped)");
                return ExitCode::from(2);
            }
            Err(e) => {
                eprintln!("error: bad --restart-node: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    if restart_node.is_some() && data_dir.is_none() {
        eprintln!("error: --restart-node requires --data-dir (restart recovery needs a ledger)");
        return ExitCode::from(2);
    }
    // --shape: per-link WAN emulation, enforced sender-side by the shared
    // event loops. "table2" assigns nodes round-robin to the paper's ten
    // regions; "uniform:<ms>" gives every directed link the same one-way
    // delay.
    let shape: Option<Arc<ShapeMatrix>> = match flag(&args, "--shape").as_deref() {
        None => None,
        Some("table2") => Some(Arc::new(ShapeMatrix::table2(n))),
        Some(s) if s.starts_with("uniform:") => match s["uniform:".len()..].parse::<u64>() {
            Ok(ms) => Some(Arc::new(ShapeMatrix::uniform(
                n,
                LinkShape {
                    delay: Duration::from_millis(ms),
                    rate_bps: 0,
                    burst_bytes: 0,
                },
            ))),
            Err(e) => {
                eprintln!("error: bad --shape uniform delay: {e}");
                return ExitCode::from(2);
            }
        },
        Some(other) => {
            eprintln!("error: unknown --shape {other} (want table2 or uniform:<ms>)");
            return ExitCode::from(2);
        }
    };
    let out_dir = flag(&args, "--out-dir").unwrap_or_else(|| "results".into());
    let bench_json =
        flag(&args, "--bench-json").unwrap_or_else(|| format!("{out_dir}/BENCH_cluster.json"));
    let protocol_flag: Option<ProtocolChoice> = match flag(&args, "--protocol") {
        Some(p) => match p.parse() {
            Ok(p) => Some(p),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let make_load = |batch_bytes: usize| {
        // `LoadSpec::digest` ships one saturating client 0; `--tx-bytes` /
        // `--tx-rate` / `--clients` reshape the generator set.
        let mut l = LoadSpec::digest(batch_bytes);
        l.clients = (0..gen_clients.max(1))
            .map(|id| moonshot_node::TxClientConfig {
                client_id: id,
                tx_bytes,
                txs_per_sec: tx_rate,
            })
            .collect();
        l
    };
    let protocols: Vec<ProtocolChoice> = match protocol_flag {
        Some(p) => vec![p],
        None => ProtocolChoice::ALL.to_vec(),
    };
    let mut plans: Vec<RunPlan> = protocols
        .iter()
        .map(|&protocol| RunPlan {
            protocol,
            load: load_batch.map(make_load),
            scenario: Scenario::Default,
            baseline: None,
        })
        .collect();
    if mixed_load {
        // The fairness comparison runs the headline protocol unless
        // `--protocol` says otherwise: a paced-only baseline cell, then the
        // mixed cell whose paced p99 is gated against that baseline.
        let protocol = protocol_flag.unwrap_or(ProtocolChoice::Pipelined);
        let size = load_batch.unwrap_or(18_000);
        plans.push(RunPlan {
            protocol,
            load: Some(LoadSpec::paced_only(size, paced_clients, paced_rate, tx_bytes)),
            scenario: Scenario::PacedOnly,
            baseline: None,
        });
        plans.push(RunPlan {
            protocol,
            load: Some(LoadSpec::mixed(size, paced_clients, paced_rate, tx_bytes)),
            scenario: Scenario::Mixed,
            baseline: Some(plans.len() - 1),
        });
    }
    let plans = plans;

    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {out_dir}: {e}");
        return ExitCode::FAILURE;
    }

    let mut rows: Vec<RunRow> = Vec::new();
    // CSV mirrors the simulator's results/ conventions so plots can diff
    // real-cluster numbers against DES numbers.
    let mut csv = String::from(
        "protocol,n,payload_bytes,duration_secs,committed_blocks,blocks_per_sec,\
         committed_payload_bytes,throughput_bps,commit_p50_ms,commit_p99_ms,\
         txs_committed,tx_p50_ms,tx_p99_ms,\
         tx_paced_p50_ms,tx_paced_p99_ms,queue_delay_p50_ms,queue_delay_p99_ms,\
         stage_mempool_queue_p50_ms,stage_mempool_queue_p99_ms,\
         stage_propose_wait_p50_ms,stage_propose_wait_p99_ms,\
         stage_vote_to_qc_p50_ms,stage_vote_to_qc_p99_ms,\
         stage_qc_to_commit_p50_ms,stage_qc_to_commit_p99_ms\n",
    );
    let mut failed = false;

    for plan in &plans {
        let RunPlan { protocol, load, scenario, .. } = plan;
        let batch_bytes = load.as_ref().map_or(0, |l| l.batch_bytes as u64);
        let mut label = match (load, *scenario) {
            (Some(_), Scenario::Default) => format!("{}-{batch_bytes}B", protocol.label()),
            (Some(_), s) => format!("{}-{batch_bytes}B-{}", protocol.label(), s.label()),
            (None, _) => protocol.label().to_string(),
        };
        if shape.is_some() {
            label.push_str("-shaped");
        }
        eprintln!(
            "cluster: {} n={n} delta={delta_ms}ms {} for {duration_secs}s",
            protocol.name(),
            if load.is_some() {
                format!("batches of {batch_bytes}B of real txs")
            } else {
                "empty blocks".into()
            },
        );
        let mut spec = ClusterSpec::new(n, *protocol);
        spec.delta = SimDuration::from_millis(delta_ms);
        spec.load = load.clone();
        spec.drop_push_to = drop_push_to.map(moonshot_types::NodeId);
        // Each run gets its own data subdir: ledger state must not leak
        // from one run to the next.
        spec.data_dir = data_dir.as_ref().map(|d| d.join(&label));
        spec.shape = shape.clone();
        if let Some(m) = &shape {
            eprintln!(
                "  shaping: mean one-way link delay {:.0}ms over {}x{} links",
                m.mean_delay().as_secs_f64() * 1000.0,
                m.len(),
                m.len()
            );
        }
        let mut cluster = match Cluster::launch(spec) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: failed to launch cluster: {e}");
                return ExitCode::FAILURE;
            }
        };
        // Mid-run, scrape node 0's live introspection plane. The scrape is
        // the proof the observability path works while the system is under
        // load — a loaded run fails unless every stage histogram is
        // already present and nonzero at half time.
        let scrape_at = Instant::now() + Duration::from_secs(duration_secs) / 2;
        let stop_at = Instant::now() + Duration::from_secs(duration_secs);
        // The crash/recover smoke: kill the victim at t/3, restart it from
        // its data dir at 2t/3, and let `Cluster::restart` account how many
        // blocks the node owed the network when it came back.
        let kill_at = Instant::now() + Duration::from_secs(duration_secs) / 3;
        let restart_at = Instant::now() + Duration::from_secs(duration_secs) * 2 / 3;
        let mut victim_killed = false;
        let mut victim_restarted = false;
        let mut live_status: Option<String> = None;
        let mut live_metrics: Option<String> = None;
        let mut mid_threads: Option<u64> = None;
        while Instant::now() < stop_at {
            if let Some(id) = restart_node {
                if !victim_killed && Instant::now() >= kill_at {
                    eprintln!("  killing node {id} at t/3");
                    cluster.kill(moonshot_types::NodeId(id));
                    victim_killed = true;
                }
                if victim_killed && !victim_restarted && Instant::now() >= restart_at {
                    eprintln!("  restarting node {id} from its data dir at 2t/3");
                    if let Err(e) = cluster.restart(moonshot_types::NodeId(id)) {
                        eprintln!("  FAIL: restart of node {id} failed: {e}");
                        failed = true;
                    }
                    victim_restarted = true;
                }
            }
            if Instant::now() >= scrape_at {
                // Sample the thread count mid-run, while every node (and
                // any restart victim) is live — after stop() the pool is
                // gone and the count proves nothing.
                if mid_threads.is_none() {
                    mid_threads = process_threads();
                }
                if live_status.is_none() {
                    if let Some(Some(addr)) = cluster.introspect_addrs().first() {
                        live_status = scrape(*addr, "/status");
                        live_metrics = scrape(*addr, "/metrics");
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        if restart_node.is_some() && !victim_restarted {
            eprintln!("  FAIL: run too short to kill and restart the victim node");
            failed = true;
        }
        match (&live_status, &live_metrics) {
            (Some(status), Some(metrics)) => {
                eprintln!("  live /status @ t/2: {status}");
                if !status.contains("\"current_view\":") || !status.contains("\"mempool_txs\":")
                {
                    eprintln!("  FAIL: live /status is missing current_view/mempool depth");
                    failed = true;
                }
                if load.is_some() {
                    for stage in STAGES {
                        let count =
                            hist_count(metrics, &format!("stage_latency_us.{stage}"));
                        if count.unwrap_or(0) == 0 {
                            eprintln!(
                                "  FAIL: live /metrics has no samples for \
                                 stage_latency_us.{stage} at half duration"
                            );
                            failed = true;
                        }
                    }
                    // The admission control loop is judged by this
                    // histogram; a loaded run that isn't exporting it has
                    // a broken feedback path.
                    if hist_count(metrics, "mempool.queue_delay_ms").unwrap_or(0) == 0 {
                        eprintln!(
                            "  FAIL: live /metrics has no mempool.queue_delay_ms \
                             samples at half duration"
                        );
                        failed = true;
                    }
                }
            }
            _ => {
                eprintln!("  FAIL: live introspection scrape failed");
                failed = true;
            }
        }
        // A loaded run ends with a drain — generators off, then every
        // node waits out what it accepted — so that the exactly-once gate
        // below can be an equality, not an upper bound.
        let drained = load.as_ref().map(|_| cluster.drain(Duration::from_secs(30)));
        let report = cluster.stop();
        let elapsed = report.elapsed.as_secs_f64();

        // Thread ceiling: the event-driven core must hold the process to
        // one driver thread and one introspection server per node plus an
        // O(cores) shared pool — not the old O(n²) reader/writer threads
        // (for n=50 those alone were ~2500). Loaded runs add one batch
        // assembler (and with --data-dir one ledger writer) per node.
        let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
        let per_node = 2 + load.is_some() as usize + data_dir.is_some() as usize;
        let thread_ceiling = (per_node * n + 2 * cores + 16) as u64;
        if let Some(t) = mid_threads {
            eprintln!("  process threads @ t/2: {t} (ceiling {thread_ceiling})");
            if t > thread_ceiling {
                eprintln!(
                    "  FAIL: {t} live threads exceed ceiling {thread_ceiling} \
                     ({per_node}×n + 2×cores + 16)"
                );
                failed = true;
            }
        }

        // Record the merged trace so the checker can be re-run offline.
        let trace_path = format!("{out_dir}/cluster-{label}.trace.jsonl");
        match JsonlSink::create(std::path::Path::new(&trace_path)) {
            Ok(mut sink) => {
                for rec in &report.records {
                    sink.record(*rec);
                }
                sink.flush();
            }
            Err(e) => eprintln!("warning: cannot write {trace_path}: {e}"),
        }

        let (violations, batches_available_checked) = match report.check_invariants() {
            Ok(summary) => {
                eprintln!(
                    "  invariants ok: {} commits over {} heights ({} records, \
                     {} batch availability checks)",
                    summary.commits,
                    summary.committed_heights,
                    summary.records,
                    summary.batches_available_checked
                );
                (0, summary.batches_available_checked)
            }
            Err(violations) => {
                for v in &violations {
                    eprintln!("  INVARIANT VIOLATION: {v:?}");
                }
                failed = true;
                (violations.len() as u64, 0)
            }
        };

        let committed = report.quorum_committed_blocks();
        if committed < min_commits {
            eprintln!("  FAIL: only {committed} quorum-committed blocks (need {min_commits})");
            failed = true;
        }

        let mut hist = Histogram::for_latency_us();
        for us in report.commit_latencies_us() {
            hist.record(us);
        }
        let p50_ms = hist.quantile(0.50).unwrap_or(0) as f64 / 1000.0;
        let p99_ms = hist.quantile(0.99).unwrap_or(0) as f64 / 1000.0;
        let blocks_per_sec = committed as f64 / elapsed;
        // Throughput is measured, not inferred: the batch bytes every
        // distinct quorum-committed block references, over the wall-clock
        // run time.
        let committed_payload_bytes = report.committed_payload_bytes();
        let throughput_bps = committed_payload_bytes as f64 / elapsed;
        let cache_hits: u64 =
            report.reports.iter().map(|r| r.metrics.counter("verify.cache_hits")).sum();
        let cache_misses: u64 =
            report.reports.iter().map(|r| r.metrics.counter("verify.cache_misses")).sum();
        let sum_metric = |name: &str| -> u64 {
            report.reports.iter().map(|r| r.metrics.counter(name)).sum()
        };
        // Sigverify-stage accounting: how often batch verification ran and
        // how many signatures each call amortised over.
        let batch_verify_calls = sum_metric("crypto.batch_verify_calls");
        let batch_verify_items = sum_metric("crypto.batch_verify_items");
        let batch_verify_mean = if batch_verify_calls > 0 {
            batch_verify_items as f64 / batch_verify_calls as f64
        } else {
            0.0
        };
        // The shared pool's counters are process-wide — every node reports
        // the same values, so take the max rather than a meaningless sum.
        let pool_metric = |name: &str| -> u64 {
            report.reports.iter().map(|r| r.metrics.counter(name)).max().unwrap_or(0)
        };
        let loop_wakeups = pool_metric("reactor.loop_wakeups");
        let frames_processed = pool_metric("reactor.frames_processed");
        let reactor_shards = report
            .reports
            .iter()
            .filter_map(|r| r.metrics.gauge("reactor.shards"))
            .fold(0.0, f64::max) as u64;
        let frames_per_wakeup = if loop_wakeups > 0 {
            frames_processed as f64 / loop_wakeups as f64
        } else {
            0.0
        };
        eprintln!(
            "  reactor: {reactor_shards} shard(s), {loop_wakeups} wakeups, \
             {frames_per_wakeup:.1} frames/wakeup; sigverify {batch_verify_calls} \
             batch calls, mean batch {batch_verify_mean:.1}"
        );
        // Durability accounting. `ledger.wal_records` counts safety records
        // fsync'd before votes/timeouts hit the wire; a restart row's
        // `resync_blocks` is what the recovered node still owed the network
        // (cluster quorum height at restart minus its recovered height).
        let ledger_wal_records = sum_metric("ledger.wal_records");
        let ledger_wal_bytes = sum_metric("ledger.wal_bytes");
        let restart_resync_blocks: u64 = report.restarts.iter().map(|r| r.resync_blocks).sum();
        for r in &report.restarts {
            eprintln!(
                "  node {} restarted: recovered height {} from disk, cluster at {}, \
                 resync {} blocks from peers",
                r.node.0, r.recovered_height, r.cluster_height, r.resync_blocks
            );
        }
        if restart_node.is_some() && report.restarts.is_empty() {
            eprintln!("  FAIL: --restart-node run recorded no restart accounting");
            failed = true;
        }
        let txs_committed = report.txs_committed();
        let mut tx_hist = Histogram::for_tx_latency_us();
        for us in report.tx_latencies_us() {
            tx_hist.record(us);
        }
        let tx_p50_ms = tx_hist.quantile(0.50).unwrap_or(0) as f64 / 1000.0;
        let tx_p99_ms = tx_hist.quantile(0.99).unwrap_or(0) as f64 / 1000.0;
        // Pool-side admission counters are the submission ground truth —
        // a TCP client can't see the remote verdict, the pool can.
        let mempool_submitted = sum_metric("mempool.submitted");
        let mempool_accepted = sum_metric("mempool.accepted");
        let mempool_rejected = sum_metric("mempool.rejected");
        let mempool_rejected_delay = sum_metric("mempool.rejected_delay");
        let mempool_deduped = sum_metric("mempool.deduped");
        let fair_visits = sum_metric("mempool.fair_visits");
        let batches_grown = sum_metric("mempool.batches_grown");
        // Cluster-wide queue-delay distribution: every node's
        // `mempool.queue_delay_ms` histogram, merged (1 ms buckets).
        let mut queue_delay = Histogram::new(1, 30_000);
        for r in &report.reports {
            if let Some(h) = r.metrics.histogram("mempool.queue_delay_ms") {
                queue_delay.merge(h);
            }
        }
        let queue_delay_p50_ms = queue_delay.quantile(0.50).unwrap_or(0) as f64;
        let queue_delay_p99_ms = queue_delay.quantile(0.99).unwrap_or(0) as f64;
        // Submit→commit latency of the *paced* clients alone — the number
        // the fairness gate runs on. The saturating client's latency is
        // its own problem; the paced clients' latency is everyone else's.
        let paced_ids: Vec<u32> = load
            .as_ref()
            .map(|l| {
                l.clients.iter().filter(|c| c.txs_per_sec > 0).map(|c| c.client_id).collect()
            })
            .unwrap_or_default();
        let (paced_p50_ms, paced_p99_ms) = if paced_ids.is_empty() {
            (None, None)
        } else {
            let by_client = report.tx_latencies_by_client_us();
            let mut h = Histogram::for_tx_latency_us();
            for id in &paced_ids {
                for &us in by_client.get(id).map(Vec::as_slice).unwrap_or(&[]) {
                    h.record(us);
                }
            }
            (
                h.quantile(0.50).map(|us| us as f64 / 1000.0),
                h.quantile(0.99).map(|us| us as f64 / 1000.0),
            )
        };
        // The latency decomposition: where the p50 (and p99) transaction
        // spent its time. Rank-conditional, so the four stage components
        // sum to the end-to-end tx percentile by construction — marginal
        // stage percentiles would not add up.
        let stage_samples = report.stage_latencies();
        let d50 = stage_samples.decompose_us(0.50).unwrap_or([0.0; 4]);
        let d99 = stage_samples.decompose_us(0.99).unwrap_or([0.0; 4]);
        let stages: [(f64, f64); 4] =
            std::array::from_fn(|i| (d50[i] / 1000.0, d99[i] / 1000.0));
        eprintln!(
            "  {committed} blocks quorum-committed ({blocks_per_sec:.1}/s), \
             {:.1} kB/s goodput, commit latency p50 {p50_ms:.1}ms p99 {p99_ms:.1}ms, \
             cache {cache_hits} hits / {cache_misses} raw verifications",
            throughput_bps / 1000.0
        );
        if let Some(l) = load {
            eprintln!(
                "  {txs_committed} txs committed, tx latency p50 {tx_p50_ms:.1}ms \
                 p99 {tx_p99_ms:.1}ms; mempool submitted={mempool_submitted} \
                 accepted={mempool_accepted} rejected={mempool_rejected} \
                 (delay {mempool_rejected_delay}) deduped={mempool_deduped}"
            );
            eprintln!(
                "  queue delay p50 {queue_delay_p50_ms:.0}ms p99 {queue_delay_p99_ms:.0}ms \
                 ({} samples), fair visits={fair_visits}, batches grown={batches_grown}{}",
                queue_delay.count(),
                match (paced_p50_ms, paced_p99_ms) {
                    (Some(p50), Some(p99)) =>
                        format!("; paced tx p50 {p50:.1}ms p99 {p99:.1}ms"),
                    _ => String::new(),
                },
            );
            let sum_p50: f64 = stages.iter().map(|(p50, _)| p50).sum();
            eprintln!(
                "  stage p50 (ms): mempool-queue {:.1} + propose-wait {:.1} + \
                 vote-to-qc {:.1} + qc-to-commit {:.1} = {sum_p50:.1} \
                 (end-to-end tx p50 {tx_p50_ms:.1})",
                stages[0].0, stages[1].0, stages[2].0, stages[3].0
            );
            if stage_samples.is_empty() {
                eprintln!("  FAIL: loaded run produced no stage-latency samples");
                failed = true;
            }
            // Every submission resolved exactly one way — the counter
            // identity that makes BENCH rows auditable.
            if mempool_accepted + mempool_rejected + mempool_deduped != mempool_submitted {
                eprintln!(
                    "  FAIL: mempool counter identity violated: \
                     {mempool_accepted} accepted + {mempool_rejected} rejected + \
                     {mempool_deduped} deduped != {mempool_submitted} submitted"
                );
                failed = true;
            }
            for (id, c) in &report.clients {
                if c.accepted + c.rejected != c.submitted {
                    eprintln!("  FAIL: client {id} counter identity violated: {c:?}");
                    failed = true;
                }
            }
            if !l.clients.is_empty() {
                if queue_delay.count() == 0 {
                    eprintln!("  FAIL: loaded run exported no mempool.queue_delay_ms samples");
                    failed = true;
                }
                if fair_visits == 0 {
                    eprintln!("  FAIL: loaded run recorded no mempool.fair_visits");
                    failed = true;
                }
            }
            // Dissemination gates: the plane must actually have carried the
            // run (batches pushed, availability rule exercised at every
            // commit, every tx committed exactly once), and the drop-push
            // fault cell must show fetch traffic.
            let pushed = sum_metric("dissem.batches_pushed");
            let fetches = sum_metric("dissem.fetches");
            let served = sum_metric("dissem.fetches_served");
            let gated = sum_metric("dissem.votes_gated");
            eprintln!(
                "  dissem: {pushed} batches pushed, {gated} votes gated, \
                 {fetches} fetches ({served} served), \
                 {batches_available_checked} availability checks"
            );
            if pushed == 0 {
                eprintln!("  FAIL: loaded run pushed no batches");
                failed = true;
            }
            if batches_available_checked == 0 && violations == 0 {
                eprintln!("  FAIL: loaded run ran no committed-batch availability checks");
                failed = true;
            }
            let dups = report.duplicate_committed_txs();
            if dups > 0 {
                eprintln!("  FAIL: {dups} transactions committed more than once");
                failed = true;
            }
            // After the drain the commit list holds exactly what the
            // mempools accepted. Counted from the longest list's refs —
            // the trace rings and batch stores only remember the end of
            // a long run — with every generator sending one size.
            let framed = l.clients.first().map_or(180, |c| c.tx_bytes)
                + moonshot_mempool::BATCH_TX_OVERHEAD;
            let in_list = |r: &moonshot_node::NodeReport| -> u64 {
                let refs = r.commits.iter().filter_map(|c| c.block.payload().batch_refs());
                refs.flatten().map(|b| b.bytes / framed as u64).sum()
            };
            let listed = report.reports.iter().map(in_list).max().unwrap_or(0);
            if drained != Some(true) || listed != mempool_accepted {
                eprintln!(
                    "  FAIL: after the drain (completed: {drained:?}) the commit list \
                     holds {listed} transactions, the mempools accepted {mempool_accepted}"
                );
                failed = true;
            }
            if drop_push_to.is_some() && (fetches == 0 || served == 0) {
                eprintln!(
                    "  FAIL: --drop-push-to run shows no fetch traffic \
                     ({fetches} fetches, {served} served)"
                );
                failed = true;
            }
            // The bufferbloat gate: with a saturating client running,
            // delay-bounded admission must keep end-to-end tx latency
            // within 50× of consensus commit latency (floor 50 ms for
            // very fast clusters). Pre-fix, saturation put tx p99 three
            // orders of magnitude above commit p99.
            let saturating = !l.clients.is_empty() && l.clients.iter().any(|c| c.txs_per_sec == 0);
            if saturating && txs_committed > 0 {
                let bound = (50.0 * p99_ms).max(50.0);
                if tx_p99_ms > bound {
                    eprintln!(
                        "  FAIL: bufferbloat gate: tx p99 {tx_p99_ms:.1}ms exceeds \
                         {bound:.1}ms (max(50× commit p99 {p99_ms:.1}ms, 50ms)) \
                         under saturating load"
                    );
                    failed = true;
                }
            }
        }

        let mut o = JsonObject::new();
        o.field_str("protocol", protocol.label());
        o.field_str("scenario", scenario.label());
        o.field_u64("n", n as u64);
        o.field_u64("payload_bytes", batch_bytes);
        o.field_f64("duration_secs", elapsed);
        o.field_u64("committed_blocks", committed);
        o.field_f64("blocks_per_sec", blocks_per_sec);
        o.field_u64("committed_payload_bytes", committed_payload_bytes);
        o.field_f64("throughput_bps", throughput_bps);
        o.field_f64("commit_p50_ms", p50_ms);
        o.field_f64("commit_p99_ms", p99_ms);
        o.field_u64("txs_committed", txs_committed);
        o.field_f64("tx_latency_p50_ms", tx_p50_ms);
        o.field_f64("tx_latency_p99_ms", tx_p99_ms);
        for (stage, (p50, p99)) in STAGES.iter().zip(stages) {
            o.field_f64(&format!("stage_{stage}_p50_ms"), p50);
            o.field_f64(&format!("stage_{stage}_p99_ms"), p99);
        }
        if let (Some(p50), Some(p99)) = (paced_p50_ms, paced_p99_ms) {
            o.field_f64("tx_paced_p50_ms", p50);
            o.field_f64("tx_paced_p99_ms", p99);
        }
        o.field_f64("queue_delay_p50_ms", queue_delay_p50_ms);
        o.field_f64("queue_delay_p99_ms", queue_delay_p99_ms);
        o.field_u64("queue_delay_samples", queue_delay.count());
        // The pool-side attempt count: the receiving pools are the ground
        // truth, and accepted + rejected + deduped == submitted row by row.
        o.field_u64("mempool_submitted", mempool_submitted);
        o.field_u64("mempool_accepted", mempool_accepted);
        o.field_u64("mempool_rejected", mempool_rejected);
        o.field_u64("mempool_rejected_delay", mempool_rejected_delay);
        o.field_u64("mempool_deduped", mempool_deduped);
        o.field_u64("mempool_fair_visits", fair_visits);
        o.field_u64("mempool_batches_grown", batches_grown);
        if load.is_some() {
            o.field_u64("dissem_batches_pushed", sum_metric("dissem.batches_pushed"));
            o.field_u64("dissem_batch_bytes_pushed", sum_metric("dissem.batch_bytes_pushed"));
            o.field_u64("dissem_votes_gated", sum_metric("dissem.votes_gated"));
            o.field_u64("dissem_fetches", sum_metric("dissem.fetches"));
            o.field_u64("dissem_fetches_served", sum_metric("dissem.fetches_served"));
            o.field_u64("dissem_digest_mismatches", sum_metric("dissem.digest_mismatches"));
            o.field_u64("batches_available_checked", batches_available_checked);
        }
        if data_dir.is_some() {
            o.field_u64("ledger_wal_records", ledger_wal_records);
            o.field_u64("ledger_wal_bytes", ledger_wal_bytes);
            o.field_u64("restart_resync_blocks", restart_resync_blocks);
        }
        o.field_u64("invariant_violations", violations);
        o.field_u64("cache_hits", cache_hits);
        o.field_u64("cache_misses", cache_misses);
        o.field_u64("process_threads", mid_threads.unwrap_or(0));
        o.field_u64("thread_ceiling", thread_ceiling);
        o.field_u64("reactor_shards", reactor_shards);
        o.field_u64("reactor_loop_wakeups", loop_wakeups);
        o.field_f64("reactor_frames_per_wakeup", frames_per_wakeup);
        o.field_u64("batch_verify_calls", batch_verify_calls);
        o.field_u64("batch_verify_items", batch_verify_items);
        o.field_f64("batch_verify_mean", batch_verify_mean);
        if let Some(m) = &shape {
            o.field_f64("shape_mean_delay_ms", m.mean_delay().as_secs_f64() * 1000.0);
        }
        // The half-duration scrape, verbatim, so every benchmark row
        // carries proof of what the live plane answered mid-run.
        if let Some(status) = &live_status {
            o.field_raw("live_status", status);
        }
        if let Some(metrics) = &live_metrics {
            o.field_raw("live_metrics", metrics);
        }
        o.field_raw(
            "nodes",
            &moonshot_telemetry::json::array(
                report.reports.iter().map(|r| r.summary_json()),
            ),
        );
        csv.push_str(&format!(
            "{label},{n},{batch_bytes},{duration_secs},{committed},{blocks_per_sec:.3},\
             {committed_payload_bytes},{throughput_bps:.3},{p50_ms:.3},{p99_ms:.3},\
             {txs_committed},{tx_p50_ms:.3},{tx_p99_ms:.3}"
        ));
        // Paced columns are blank for runs without paced clients — a 0.0
        // there would read as "zero latency", not "not measured".
        for v in [paced_p50_ms, paced_p99_ms] {
            match v {
                Some(ms) => csv.push_str(&format!(",{ms:.3}")),
                None => csv.push(','),
            }
        }
        csv.push_str(&format!(",{queue_delay_p50_ms:.3},{queue_delay_p99_ms:.3}"));
        for (p50, p99) in stages {
            csv.push_str(&format!(",{p50:.3},{p99:.3}"));
        }
        csv.push('\n');
        rows.push(RunRow { label, p99_ms, paced_p99_ms, json: o.finish() });
    }

    let json = format!(
        "{{\"runs\":{}}}\n",
        moonshot_telemetry::json::array(rows.iter().map(|r| r.json.clone()))
    );
    if let Err(e) = std::fs::write(format!("{out_dir}/cluster.csv"), csv) {
        eprintln!("error: cannot write {out_dir}/cluster.csv: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&bench_json, &json) {
        eprintln!("error: cannot write {bench_json}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out_dir}/cluster.csv and {bench_json}");

    // The fairness gate: every mixed cell's paced p99 against its
    // paced-only baseline. A saturating client sharing the cluster must
    // not inflate the paced clients' tail latency past
    // max(2× baseline, +50 ms, 4× the mixed cell's own commit p99) —
    // this is the regression the sparse fast lane and per-client DRR
    // drain exist to prevent. The commit-relative term is the consensus
    // floor: under saturation, adaptive batching legitimately grows
    // blocks (trading commit latency for goodput), and a paced
    // transaction cannot commit faster than the block that carries it —
    // so the gate bounds paced latency to a few commit tails rather
    // than to the light-load baseline's absolute numbers. The
    // PR-7-era bufferbloat regime sat three orders of magnitude above
    // this bound (paced p99 ≈ 1000× commit p99), so the gate still has
    // plenty of teeth.
    for (i, plan) in plans.iter().enumerate() {
        let Some(b) = plan.baseline else { continue };
        let (Some(mixed), Some(base)) = (rows[i].paced_p99_ms, rows[b].paced_p99_ms) else {
            eprintln!(
                "FAIL: mixed-load gate: {} or {} committed no paced transactions",
                rows[i].label, rows[b].label
            );
            failed = true;
            continue;
        };
        let bound = (2.0 * base).max(base + 50.0).max(4.0 * rows[i].p99_ms);
        if mixed > bound {
            eprintln!(
                "FAIL: mixed-load gate: paced p99 {mixed:.1}ms in {} exceeds {bound:.1}ms \
                 (baseline {base:.1}ms in {}, commit p99 {:.1}ms)",
                rows[i].label, rows[b].label, rows[i].p99_ms
            );
            failed = true;
        } else {
            eprintln!(
                "mixed-load gate ok: {} paced p99 {mixed:.1}ms vs baseline {base:.1}ms \
                 (bound {bound:.1}ms)",
                rows[i].label
            );
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
