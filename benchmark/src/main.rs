//! The repo benchmark. See `README.md` for workloads, metrics and limits.
//!
//! ```text
//! moonshot-benchmark --workload W --seed N --seconds S --trace 0|1   (what BENCHMARK.json runs)
//! moonshot-benchmark all     [--seed N] [--seconds S] [--repeats K] [--out FILE]
//! moonshot-benchmark run W   [--seed N] [--seconds S] [--out FILE]
//! moonshot-benchmark trace W [--seed N] [--seconds S]
//! moonshot-benchmark layers  [--seed N]
//! moonshot-benchmark compare A.json B.json
//! moonshot-benchmark manifest                                        (prints BENCHMARK.json)
//! ```

mod compare;
mod json;
mod layers;
mod loadgen;
mod metrics;
mod proc;
mod report;
mod run;
mod stats;
mod surface;
mod trace;
mod workload;

use std::process::ExitCode;

use json::Json;
use layers::{Budget, LayerResult};
use metrics::DEFAULT_SECONDS;
use report::{Metric, Outcome};
use run::Options;
use trace::Recorder;
use workload::{Workload, WORKLOADS};

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) => {
                    let value = it.next().ok_or(format!("--{name} needs a value"))?;
                    args.flags.push((name.to_string(), value));
                }
                None => args.positional.push(arg),
            }
        }
        Ok(args)
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.flag(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} {v}: not a whole number")),
            None => Ok(default),
        }
    }

    fn options(&self, trace: bool) -> Result<Options, String> {
        let seconds = self.number("seconds", DEFAULT_SECONDS)?;
        if !(1..=60).contains(&seconds) {
            return Err(format!("--seconds {seconds}: 1 to 60"));
        }
        Ok(Options {
            seed: self.number("seed", 1)?,
            seconds,
            trace,
        })
    }
}

fn workload_named(name: Option<&str>) -> Result<&'static Workload, String> {
    let names = || {
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    };
    let name = name.ok_or_else(|| format!("name a workload: {}", names()))?;
    workload::find(name).ok_or_else(|| format!("no workload {name}: {}", names()))
}

fn print_metric(m: &Metric) {
    match m.samples {
        Some(n) => println!(
            "  {:<38} {:>16.4} {:<6} ({n} samples)",
            m.name, m.value, m.unit
        ),
        None => println!("  {:<38} {:>16.4} {}", m.name, m.value, m.unit),
    }
}

fn print_outcome(o: &Outcome) {
    println!(
        "{} seed {} window {} s{}: attempted {} failed {}",
        o.workload,
        o.seed,
        o.seconds,
        if o.traced { " (traced)" } else { "" },
        o.attempted,
        o.failed
    );
    // End-to-end numbers come from untraced runs only.
    if !o.traced {
        o.end_to_end.iter().for_each(print_metric);
    }
    o.per_layer.iter().for_each(print_metric);
    for note in &o.notes {
        println!("  note: {note}");
    }
}

fn print_layers(results: &[LayerResult]) {
    for r in results {
        println!(
            "  {:<38} {:>16.4} {:<6} (mad {:.4}, {} repeats; {})",
            r.name, r.median, r.unit, r.mad, r.repeats, r.input
        );
    }
}

fn write_out(path: &std::path::Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.encode() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn header(command: &str, opts: &Options) -> Json {
    Json::obj()
        .set("schema", 1u64)
        .set("command", command)
        .set("seed", opts.seed)
        .set("seconds", opts.seconds)
        .set(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
}

/// A traced run: prints the layer metrics, writes spans and samples.
fn traced_run(w: &'static Workload, opts: Options) -> Result<Outcome, String> {
    let mut rec = Recorder::new(true);
    let outcome = run::run(w, opts, &mut rec)?;
    let run_id = format!("{}-{}", w.name, opts.seed);
    let doc = rec
        .to_json(&run_id, w.name, opts.seed)
        .set("outcome", outcome.to_json());
    write_out(&run::out_dir().join(format!("{}.trace.json", w.name)), &doc)?;
    Ok(outcome)
}

/// A metric as the driver's result line carries it.
fn measured(value: f64, unit: &str) -> Json {
    Json::obj().set("value", value).set("unit", unit)
}

/// What `BENCHMARK.json`'s command runs: one workload, one JSON line last.
fn driver(args: &Args) -> Result<(), String> {
    let w = workload_named(args.flag("workload"))?;
    if !w.gated {
        return Err(format!(
            "{} is not in BENCHMARK.json: use `run {}`",
            w.name, w.name
        ));
    }
    let trace = match args.flag("trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other}: 0 or 1")),
    };
    let opts = args.options(trace)?;
    let mut metrics = Json::obj();
    let outcome = if trace {
        let outcome = traced_run(w, opts)?;
        print_outcome(&outcome);
        let suite = layers::run(opts.seed, Budget::QUICK);
        print_layers(&suite);
        for r in &suite {
            metrics = metrics.set(r.name, measured(r.median, r.unit));
        }
        for m in &outcome.per_layer {
            metrics = metrics.set(m.name, measured(m.value, m.unit));
        }
        outcome
    } else {
        let outcome = run::run(w, opts, &mut Recorder::new(false))?;
        print_outcome(&outcome);
        // Exactly BENCHMARK.json's end_to_end list.
        for def in metrics::gated_end_to_end() {
            let value = outcome
                .metric(def.name)
                .ok_or(format!("{} does not report {}", w.name, def.name))?;
            metrics = metrics.set(def.name, measured(value, def.unit));
        }
        outcome
    };
    let line = Json::obj()
        .set("correct", true)
        .set("attempted", outcome.attempted)
        .set("failed", outcome.failed)
        .set("metrics", metrics);
    println!("{}", line.encode());
    Ok(())
}

/// Every workload, each run in a process of its own (this program again,
/// as `run`), which is how the PR driver runs them: the numbers of `all`
/// and of the driver then mean the same thing.
fn all(args: &Args) -> Result<(), String> {
    let opts = args.options(false)?;
    let repeats = args.number("repeats", 1)?;
    let this = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let part = run::out_dir().join(format!("run-{}.json", std::process::id()));
    let mut runs = Vec::new();
    for w in &WORKLOADS {
        for seed in opts.seed..opts.seed + repeats {
            let status = std::process::Command::new(&this)
                .args(["run", w.name, "--seed", &seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .arg("--out")
                .arg(&part)
                .status()
                .map_err(|e| format!("{}: {e}", this.display()))?;
            if !status.success() {
                return Err(format!("{} seed {seed} failed", w.name));
            }
            let text =
                std::fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()))?;
            runs.extend_from_slice(
                Json::parse(&text)?
                    .get("runs")
                    .map_or(&[][..], Json::as_array),
            );
        }
    }
    let _ = std::fs::remove_file(&part);
    let out = match args.flag("out") {
        Some(path) => path.into(),
        None => run::out_dir().join(format!("results-{}.json", opts.seed)),
    };
    write_out(&out, &header("all", &opts).set("runs", runs))
}

fn main_inner() -> Result<ExitCode, String> {
    let args = Args::parse()?;
    let command = args.positional.first().map(String::as_str);
    match command {
        None if args.flag("workload").is_some() => driver(&args)?,
        Some("all") => all(&args)?,
        Some("run") => {
            let w = workload_named(args.positional.get(1).map(String::as_str))?;
            let opts = args.options(false)?;
            let outcome = run::run(w, opts, &mut Recorder::new(false))?;
            print_outcome(&outcome);
            if let Some(path) = args.flag("out") {
                write_out(
                    path.as_ref(),
                    &header("run", &opts).set("runs", vec![outcome.to_json()]),
                )?;
            }
        }
        Some("trace") => {
            let w = workload_named(args.positional.get(1).map(String::as_str))?;
            print_outcome(&traced_run(w, args.options(true)?)?);
        }
        Some("layers") => {
            let opts = args.options(false)?;
            let results = layers::run(opts.seed, Budget::FULL);
            print_layers(&results);
            let mut metrics = Json::obj();
            for r in &results {
                metrics = metrics.set(r.name, r.to_json());
            }
            write_out(
                &run::out_dir().join("layers.json"),
                &header("layers", &opts).set("layers", metrics),
            )?;
        }
        Some("manifest") => print!("{}", metrics::manifest().encode_pretty()),
        Some("compare") => {
            let (Some(a), Some(b)) = (args.positional.get(1), args.positional.get(2)) else {
                return Err("compare needs two result files".to_string());
            };
            if !compare::compare(a, b)? {
                return Ok(ExitCode::FAILURE);
            }
        }
        _ => {
            return Err(
                "usage: [all | run W | trace W | layers | compare A B | manifest] \
                        or --workload W --seed N --seconds S --trace 0|1"
                    .to_string(),
            )
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("moonshot-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
