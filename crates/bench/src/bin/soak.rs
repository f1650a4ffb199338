//! The adversary × network-fault soak matrix: every evaluated protocol
//! (Simple / Pipelined / Commit Moonshot, Jolteon) against every Byzantine
//! adversary and every injected fault plan, each cell trace-checked for
//! safety (no conflicting commits) and post-heal liveness.
//!
//! ```sh
//! # Full matrix, 10 s of simulated time per cell:
//! cargo run --release -p moonshot-bench --bin soak
//! # CI slice, 2 s per cell:
//! MOONSHOT_SOAK_SECS=2 cargo run --release -p moonshot-bench --bin soak
//! ```
//!
//! Writes `results/soak.csv`; exits non-zero if any cell fails.

use moonshot_bench::write_results;
use moonshot_sim::run_soak_matrix;
use moonshot_types::time::SimDuration;

fn main() {
    let secs: u64 = std::env::var("MOONSHOT_SOAK_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    let seed: u64 = std::env::var("MOONSHOT_SOAK_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    eprintln!("soak: full matrix, {secs} s per cell, seed {seed} …");

    let reports = run_soak_matrix(SimDuration::from_secs(secs), seed);

    println!("SOAK — protocol × adversary × fault matrix ({secs} s per cell)\n");
    let mut csv = String::from(
        "protocol,adversary,faults,commits,commits_after_quiet,faults_injected,\
         dropped_trace_events,ok\n",
    );
    let mut failed = 0usize;
    for r in &reports {
        println!("  {}", r.line());
        for v in &r.violations {
            println!("      violation: {v}");
        }
        csv.push_str(&format!(
            "{},{},{},{},{},{},{},{}\n",
            r.protocol.label(),
            r.adversary.label(),
            r.faults.label(),
            r.committed_blocks,
            r.commits_after_quiet,
            r.fault_stats.total(),
            r.dropped_trace_events,
            r.passed(),
        ));
        if !r.passed() {
            failed += 1;
        }
    }
    write_results("soak.csv", &csv);
    println!(
        "\n{} cells, {} failed — safety and post-heal liveness {}",
        reports.len(),
        failed,
        if failed == 0 { "hold across the matrix" } else { "VIOLATED" }
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
