//! One run of one workload: set up, warm up, timed window (with the fault
//! schedule, if any), drain, stop, then hand everything to `report`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::loadgen::{self, Generator, Plan};
use crate::proc;
use crate::report::{self, Observed, Outcome};
use crate::surface::{
    Cluster, ClusterSpec, LinkShape, LoadSpec, NetPoolStats, NodeId, ShapeMatrix, SimDuration,
};
use crate::trace::{ClassCpu, Recorder, Sample, ROOT};
use crate::workload::{Net, Workload, BATCH_BYTES, DRAIN_CAP_S, WARMUP_S};

/// How often the control thread looks at the cluster while it waits.
const POLL: Duration = Duration::from_millis(5);
/// Set-ups per run; `setup_s` is their median. Loopback set-ups take
/// milliseconds and vary by half, hence so many.
const SETUPS: usize = 7;
/// Longest a launch may take to reach its first quorum commit.
const FIRST_COMMIT_CAP: Duration = Duration::from_secs(30);
/// The victim must be back within this long after the window.
const CATCHUP_CAP_S: u64 = 10;
/// The generator routes the victim's share to the next node from this
/// long before the kill, and until the victim has caught up rather than
/// until `restart` returns. The program drops what a node had accepted
/// but not committed when it is killed (20 to 50 of a 10 s window's
/// 10 000 transactions) and what it accepts while recovering (it spends
/// those batches on proposals nobody votes for; about 170). A workload on
/// which operations fail by design could not tell a later regression from
/// its own noise, so the fault here is a consensus fault only; README.md
/// lists the loss as a known limit of the program.
const QUIESCE_US: u64 = 1_000_000;
/// Untraced tail of the warm-up that `bench.trace_overhead_pct` compares
/// the traced window with.
pub const REFERENCE_S: u64 = 2;

#[derive(Clone, Copy, Debug)]
pub struct Options {
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: u64,
    pub trace: bool,
}

/// Where scratch files go: `benchmark/out` under the working directory
/// when run from the repository root (as the driver does), else next to
/// this package's manifest.
pub fn out_dir() -> PathBuf {
    let local = Path::new("benchmark");
    if local.join("Cargo.toml").is_file() {
        local.join("out")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

/// A fresh directory under [`out_dir`] (one launch's ledgers, a layer
/// case's files), removed on drop.
pub struct DataDir(pub PathBuf);

impl DataDir {
    pub fn fresh(tag: &str) -> std::io::Result<DataDir> {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let k = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join(format!("data-{}-{tag}-{k}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(DataDir(dir))
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn spec_for(w: &Workload, data_dir: Option<&DataDir>) -> ClusterSpec {
    let mut spec = ClusterSpec::new(w.n, w.protocol);
    spec.delta = SimDuration::from_millis(w.delta_ms);
    spec.trace_capacity = w.trace_capacity;
    spec.load = Some(LoadSpec::digest(BATCH_BYTES).without_clients());
    spec.data_dir = data_dir.map(|d| d.0.clone());
    spec.shape = match w.net {
        Net::Loopback => None,
        Net::Table2 => Some(Arc::new(ShapeMatrix::table2(w.n))),
        Net::Uniform { one_way_ms } => Some(Arc::new(ShapeMatrix::uniform(
            w.n,
            LinkShape {
                delay: Duration::from_millis(one_way_ms),
                rate_bps: 0,
                burst_bytes: 0,
            },
        ))),
    };
    spec
}

/// Launches a cluster and waits for its first quorum commit. Returns the
/// cluster, its data directory and the seconds the two took.
fn set_up(w: &Workload) -> Result<(Cluster, Option<DataDir>, f64), String> {
    let data = if w.ledger {
        Some(DataDir::fresh(w.name).map_err(|e| format!("data dir: {e}"))?)
    } else {
        None
    };
    let started = Instant::now();
    let cluster =
        Cluster::launch(spec_for(w, data.as_ref())).map_err(|e| format!("launch: {e}"))?;
    while cluster.quorum_committed_height() == 0 {
        if started.elapsed() > FIRST_COMMIT_CAP {
            cluster.stop();
            return Err(format!(
                "no quorum commit within {FIRST_COMMIT_CAP:?} of launch"
            ));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok((cluster, data, started.elapsed().as_secs_f64()))
}

/// Counters read at either end of the window.
#[derive(Clone, Copy, Debug, Default)]
pub struct Boundary {
    pub process_cpu_s: f64,
    /// Of that, the benchmark's own threads (control and generator).
    pub bench_cpu_s: f64,
    pub net: NetPoolStats,
    pub pool_submitted: u64,
    pub pool_refused: u64,
}

impl Boundary {
    /// Processor seconds of the program under test alone.
    pub fn program_cpu_s(&self) -> f64 {
        self.process_cpu_s - self.bench_cpu_s
    }
}

/// The control thread's view of a running cluster.
struct Control<'a> {
    cluster: Cluster,
    epoch: Instant,
    main_tid: u64,
    generator_tid: u64,
    rec: &'a mut Recorder,
    /// Per-class processor time since the window opened (traced runs).
    class_cpu: Option<ClassCpu>,
    next_sample_us: u64,
    /// Victim and restart time while its catch-up is being timed.
    catching_up: Option<(NodeId, u64)>,
    /// The node the generator routes around (−1: none), from
    /// [`QUIESCE_US`] before the kill until the victim has caught up.
    down: Arc<AtomicI32>,
    catchup_s: Option<f64>,
}

impl Control<'_> {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn boundary(&self) -> Boundary {
        let (mut submitted, mut refused) = (0, 0);
        for pool in self.cluster.mempools() {
            let c = pool.counters();
            submitted += c.submitted;
            refused += c.rejected;
        }
        Boundary {
            process_cpu_s: proc::process_cpu_s(),
            bench_cpu_s: proc::thread_cpu_s(self.main_tid) + proc::thread_cpu_s(self.generator_tid),
            net: self.cluster.netpool().stats(),
            pool_submitted: submitted,
            pool_refused: refused,
        }
    }

    fn sample(&mut self) {
        let Some(cpu) = &mut self.class_cpu else {
            return;
        };
        cpu.sample();
        let cpu_s = cpu.totals();
        let b = self.boundary();
        let heights = self.cluster.committed_heights();
        self.rec.samples.push(Sample {
            at_us: self.now_us(),
            cpu_s,
            accepted: b.pool_submitted - b.pool_refused,
            refused: b.pool_refused,
            wakeups: b.net.loop_wakeups,
            frames: b.net.frames_processed,
            quorum_height: self.cluster.quorum_committed_height(),
            min_height: heights.iter().copied().min().unwrap_or(0),
            max_height: heights.iter().copied().max().unwrap_or(0),
        });
    }

    /// Waits until `until_us`, sampling once a second (traced runs) and
    /// timing the victim's catch-up (fault runs) on the way.
    fn pump_until(&mut self, until_us: u64) {
        loop {
            let now = self.now_us();
            if let Some((victim, restarted_us)) = self.catching_up {
                let heights = self.cluster.committed_heights();
                if heights[victim.0 as usize] + 2 >= self.cluster.quorum_committed_height() {
                    self.catchup_s = Some((now - restarted_us) as f64 / 1e6);
                    self.rec.span("catchup", ROOT, restarted_us, now, vec![]);
                    self.catching_up = None;
                    self.down.store(-1, Ordering::Relaxed);
                }
            }
            if self.class_cpu.is_some() && now >= self.next_sample_us {
                self.sample();
                self.next_sample_us += 1_000_000;
            }
            if now >= until_us {
                return;
            }
            std::thread::sleep(Duration::from_micros(until_us - now).min(POLL));
        }
    }
}

/// Runs `w` once. `Err` means a validity check failed: the run has no
/// metrics.
pub fn run(w: &Workload, opts: Options, rec: &mut Recorder) -> Result<Outcome, String> {
    let run_started = Instant::now();

    // Several set-ups (`setup_s` is their median); the last cluster is the
    // one measured, so that the process's own warm-up (allocator arenas,
    // page tables, thread stacks) is behind it: a node in production is
    // not a fresh process either. Traced runs set up as often, so that
    // both kinds measure the same thing.
    let mut setups = Vec::new();
    let (cluster, data) = loop {
        let (cluster, data, took) = set_up(w)?;
        setups.push(took);
        if setups.len() == SETUPS {
            break (cluster, data);
        }
        cluster.stop();
    };
    let epoch = cluster.epoch();
    let down = Arc::new(AtomicI32::new(-1));
    let mut ctl = Control {
        cluster,
        epoch,
        main_tid: proc::own_tid(),
        generator_tid: 0,
        rec,
        class_cpu: None,
        next_sample_us: 0,
        catching_up: None,
        down: down.clone(),
        catchup_s: None,
    };
    let first_commit_us = ctl.now_us();
    let launched_us = first_commit_us.saturating_sub((setups[SETUPS - 1] * 1e6) as u64);
    ctl.rec
        .span("cluster.launch", ROOT, launched_us, first_commit_us, vec![]);

    let window_from = first_commit_us + 1_000 + WARMUP_S * 1_000_000;
    let window_until = window_from + opts.seconds * 1_000_000;
    let generator = Generator::start(
        Plan {
            load: w.load,
            seed: opts.seed,
            epoch,
            start_us: first_commit_us + 1_000,
            window_us: (window_from, window_until),
        },
        ctl.cluster.mempools().to_vec(),
        down.clone(),
    );

    ctl.generator_tid = generator.tid();

    // What happens when, inside the window: a counter reading at either
    // end and, on a fault run, the fault schedule.
    enum Step {
        Boundary,
        RouteAround(NodeId),
        Kill(NodeId),
        Restart(NodeId),
    }
    let mut steps = vec![
        (window_from, Step::Boundary),
        (window_until, Step::Boundary),
    ];
    if w.crash {
        // v ≠ 0, chosen by the seed; down from a quarter to half of the
        // window.
        let victim = NodeId(1 + (loadgen::mix(opts.seed ^ 2) % (w.n as u64 - 1)) as u16);
        let kill_at = window_from + opts.seconds * 250_000;
        steps.push((
            kill_at.saturating_sub(QUIESCE_US),
            Step::RouteAround(victim),
        ));
        steps.push((kill_at, Step::Kill(victim)));
        steps.push((window_from + opts.seconds * 500_000, Step::Restart(victim)));
    }
    steps.sort_by_key(|(at, _)| *at);

    let mut boundaries = Vec::new();
    let (mut killed_us, mut down_us) = (0, None);
    for (at, step) in steps {
        ctl.pump_until(at);
        let began = ctl.now_us();
        match step {
            Step::Boundary => {
                if boundaries.is_empty() {
                    ctl.rec
                        .span("warmup", ROOT, first_commit_us, window_from, vec![]);
                    if opts.trace {
                        ctl.class_cpu = Some(ClassCpu::baseline(ctl.main_tid));
                        ctl.next_sample_us = window_from;
                    }
                }
                boundaries.push(ctl.boundary());
            }
            Step::RouteAround(victim) => down.store(victim.0 as i32, Ordering::Relaxed),
            Step::Kill(victim) => {
                ctl.cluster.kill(victim);
                ctl.rec.span(
                    "cluster.kill",
                    ROOT,
                    began,
                    ctl.now_us(),
                    vec![("node", victim.0 as f64)],
                );
                killed_us = began;
            }
            Step::Restart(victim) => {
                ctl.cluster
                    .restart(victim)
                    .map_err(|e| format!("restart: {e}"))?;
                let restarted_us = ctl.now_us();
                ctl.rec
                    .span("cluster.restart", ROOT, began, restarted_us, vec![]);
                ctl.catching_up = Some((victim, restarted_us));
                down_us = Some((killed_us, began));
            }
        }
    }
    let class_cpu = ctl.class_cpu.take().map(|mut cpu| {
        cpu.sample();
        cpu.totals()
    });
    let generated = generator.join();

    // Drain: every node gets two more leader turns (and the pipeline its
    // three blocks) to commit what was accepted last. Whether everything
    // did commit is checked from the report, not assumed.
    let drain_from = ctl.now_us();
    let target = ctl.cluster.quorum_committed_height() + 2 * w.n as u64 + 3;
    let drain_cap = drain_from + DRAIN_CAP_S * 1_000_000;
    while ctl.cluster.quorum_committed_height() < target && ctl.now_us() < drain_cap {
        ctl.pump_until((ctl.now_us() + 5_000).min(drain_cap));
    }
    let catchup_cap = window_until + CATCHUP_CAP_S * 1_000_000;
    while ctl.catching_up.is_some() && ctl.now_us() < catchup_cap {
        ctl.pump_until(ctl.now_us() + 5_000);
    }
    if ctl.catching_up.is_some() {
        ctl.cluster.stop();
        return Err(format!(
            "victim not caught up {CATCHUP_CAP_S} s after the window"
        ));
    }
    let drain_until = ctl.now_us();
    ctl.rec.span("drain", ROOT, drain_from, drain_until, vec![]);

    let Control {
        cluster,
        rec,
        catchup_s,
        ..
    } = ctl;
    let cluster_report = cluster.stop();
    let stopped_us = epoch.elapsed().as_micros() as u64;
    rec.span("cluster.stop", ROOT, drain_until, stopped_us, vec![]);
    drop(data);

    let window = rec.span(
        "window",
        ROOT,
        window_from,
        window_until,
        vec![("offered", generated.offered as f64)],
    );
    for tick in &generated.ticks {
        rec.span(
            "generator.tick",
            if tick.start_us >= window_from {
                window
            } else {
                ROOT
            },
            tick.start_us,
            tick.end_us,
            vec![
                ("submitted", tick.submitted as f64),
                ("refused", tick.refused as f64),
                ("busy_us", tick.busy_us as f64),
                ("late_max_us", tick.late_max_us as f64),
            ],
        );
    }

    let observed = Observed {
        workload: w,
        seed: opts.seed,
        seconds: opts.seconds,
        traced: opts.trace,
        setup_s: setups,
        start_to_window_s: run_started.elapsed().as_secs_f64()
            - (epoch.elapsed().as_micros() as u64 - window_from) as f64 / 1e6,
        first_commit_us,
        window_us: (window_from, window_until),
        down_us,
        catchup_s,
        boundaries,
        class_cpu,
        generated,
        cluster: cluster_report,
    };
    let analyse_from = epoch.elapsed().as_micros() as u64;
    let outcome = report::analyse(&observed);
    rec.span(
        "report.analyse",
        ROOT,
        analyse_from,
        epoch.elapsed().as_micros() as u64,
        vec![],
    );
    outcome
}
