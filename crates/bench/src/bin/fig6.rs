//! Regenerates Fig. 6 of the paper: the happy-path performance overview —
//! throughput and latency for every protocol across network sizes and
//! payload sizes with `f′ = 0`.
//!
//! ```sh
//! MOONSHOT_SCALE=quick cargo run --release -p moonshot-bench --bin fig6
//! ```
//!
//! Writes `results/fig6.csv` and `results/fig6_summary.json` (per-cell
//! figures plus latency / block-period distributions) next to the textual
//! report, and a traced pipelined-Moonshot deep dive: the full JSONL event
//! stream in `results/fig6_trace.jsonl` and its one-run summary (percentiles,
//! per-message-type traffic, invariant status) in `results/fig6_deep_dive.json`.

use moonshot_bench::{results_path, scale_from_env, write_results};
use moonshot_sim::experiment::{grid_to_csv, grid_to_json, happy_path_grid};
use moonshot_sim::runner::{run_traced, ProtocolKind, RunConfig, TraceOptions};

fn main() {
    let scale = scale_from_env();
    eprintln!(
        "fig6: sizes {:?} × payloads {:?} × 4 protocols × {} samples × {}s …",
        scale.sizes,
        scale.payloads,
        scale.samples,
        scale.duration.as_secs_f64()
    );
    let cells = happy_path_grid(&scale);

    println!("FIG. 6 — Performance overview (f' = 0)\n");
    for &n in &scale.sizes {
        println!("── n = {n} ───────────────────────────────────────────────────────");
        println!(
            "{:<12} {:>6} {:>10} {:>12} {:>14}",
            "payload", "proto", "blocks/s", "latency", "transfer"
        );
        for &payload in &scale.payloads {
            for cell in cells.iter().filter(|c| c.n == n && c.payload == payload) {
                println!(
                    "{:<12} {:>6} {:>10.2} {:>9.0} ms {:>11.1} kB/s",
                    human_bytes(payload),
                    cell.protocol.label(),
                    cell.report.throughput_bps,
                    cell.report.avg_latency_ms,
                    cell.report.transfer_rate / 1_000.0,
                );
            }
        }
        println!();
    }
    write_results("fig6.csv", &grid_to_csv(&cells));
    write_results("fig6_summary.json", &grid_to_json("fig6", &cells));

    // Deep dive: one traced pipelined-Moonshot run at a representative cell,
    // streaming every protocol event to JSONL alongside the summary.
    let n = scale.sizes.first().copied().unwrap_or(10);
    let payload = scale.payloads.last().copied().unwrap_or(1_800);
    eprintln!("fig6: tracing one PM run (n = {n}, payload = {payload} B) …");
    let cfg = RunConfig::happy_path(ProtocolKind::PipelinedMoonshot, n, payload)
        .with_duration(scale.duration);
    let opts = TraceOptions {
        jsonl_path: Some(results_path("fig6_trace.jsonl")),
        ..TraceOptions::default()
    };
    let traced = run_traced(&cfg, &opts);
    write_results("fig6_deep_dive.json", &traced.summary_json(&cfg));
    if let Err(violations) = &traced.invariants {
        for v in violations {
            eprintln!("  violation: {v}");
        }
        eprintln!("fig6: the deep-dive trace violates {} invariant(s)", violations.len());
        std::process::exit(1);
    }
    let m = traced.report.metrics;
    println!(
        "Deep dive (PM, n = {n}, p = {payload} B): commit latency p50 {:.1} ms / p99 {:.1} ms, \
         block period p50 {:.1} ms; {} trace events, invariants OK.",
        m.commit_latency.p50 as f64 / 1_000.0,
        m.commit_latency.p99 as f64 / 1_000.0,
        m.block_period.p50 as f64 / 1_000.0,
        traced.trace.len() as u64 + traced.trace_evicted,
    );
}

fn human_bytes(b: u64) -> String {
    match b {
        0 => "empty".into(),
        b if b < 1_000_000 => format!("{} kB", b as f64 / 1_000.0),
        b => format!("{:.1} MB", b as f64 / 1e6),
    }
}
