//! Validates Table I's steady-state communication-complexity columns by
//! measurement: per-message-type traffic as `n` grows, taken from the
//! network engine's [`TrafficStats`](moonshot_net::TrafficStats) accounting
//! rather than derived counts.
//!
//! Jolteon's per-node steady state is O(1) (one proposal in, one vote out —
//! the leader bears O(n)); Moonshot's is O(n) (everyone multicasts votes),
//! for an O(n) vs O(n²) total. The run asserts those shapes from the
//! measured vote traffic: scaling n by 4 must scale Moonshot's per-view
//! vote count ~quadratically and Jolteon's ~linearly.
//!
//! ```sh
//! cargo run --release -p moonshot-bench --bin validate_complexity
//! ```

use moonshot_sim::runner::{run, LatencyKind, ProtocolKind, RunConfig};
use moonshot_types::time::SimDuration;

/// Measured vote traffic for one (protocol, n) cell, normalised per view.
struct Cell {
    votes_per_view: f64,
    msgs_per_view_per_node: f64,
    vote_bytes: u64,
    total_bytes: u64,
}

fn measure(kind: ProtocolKind, n: usize) -> Cell {
    let mut cfg = RunConfig::happy_path(kind, n, 0).with_duration(SimDuration::from_secs(10));
    cfg.latency = LatencyKind::Uniform { ms: 20, jitter_ms: 0 };
    let report = run(&cfg);
    let views = report.metrics.max_view.0.max(1) as f64;
    let votes = report.traffic.get("vote").count + report.traffic.get("commit-vote").count;
    let vote_bytes = report.traffic.get("vote").bytes + report.traffic.get("commit-vote").bytes;
    Cell {
        votes_per_view: votes as f64 / views,
        msgs_per_view_per_node: report.network.delivered as f64 / views / n as f64,
        vote_bytes,
        total_bytes: report.network.bytes_sent,
    }
}

fn main() {
    println!("Steady-state traffic per view (f' = 0, empty blocks, uniform δ = 20ms):\n");
    let sizes = [10usize, 20, 40, 80];
    println!(
        "{:<22} {:>6} {:>14} {:>16} {:>12} {:>12}",
        "protocol", "n", "votes/view", "msgs/view/node", "vote bytes", "total bytes"
    );
    let mut moonshot_ratio = None;
    let mut jolteon_ratio = None;
    for kind in [
        ProtocolKind::PipelinedMoonshot,
        ProtocolKind::CommitMoonshot,
        ProtocolKind::Jolteon,
        ProtocolKind::HotStuff,
    ] {
        let cells: Vec<Cell> = sizes.iter().map(|&n| measure(kind, n)).collect();
        for (&n, cell) in sizes.iter().zip(&cells) {
            println!(
                "{:<22} {:>6} {:>14.1} {:>16.1} {:>12} {:>12}",
                kind.label(),
                n,
                cell.votes_per_view,
                cell.msgs_per_view_per_node,
                cell.vote_bytes,
                cell.total_bytes
            );
        }
        // Growth of per-view vote traffic from n=10 to n=40: quadratic ⇒ ×16,
        // linear ⇒ ×4 (both up to constant factors).
        let growth = cells[2].votes_per_view / cells[0].votes_per_view.max(1.0);
        match kind {
            ProtocolKind::PipelinedMoonshot => moonshot_ratio = Some(growth),
            ProtocolKind::Jolteon => jolteon_ratio = Some(growth),
            _ => {}
        }
        println!();
    }

    let moonshot = moonshot_ratio.expect("measured pipelined Moonshot");
    let jolteon = jolteon_ratio.expect("measured Jolteon");
    println!("vote-traffic growth, n=10 → n=40 (quadratic ⇒ ~16×, linear ⇒ ~4×):");
    println!("  pipelined Moonshot: {moonshot:.1}×");
    println!("  Jolteon:            {jolteon:.1}×");
    // Measured assertion of Table I: Moonshot's all-to-all vote multicast is
    // O(n²) total, Jolteon's vote-to-leader is O(n).
    assert!(
        moonshot > 10.0,
        "Moonshot vote traffic grew only {moonshot:.1}× for 4× nodes; expected ~16× (O(n²))"
    );
    assert!(
        jolteon < 8.0,
        "Jolteon vote traffic grew {jolteon:.1}× for 4× nodes; expected ~4× (O(n))"
    );
    println!("\nOK: measured growth matches Table I (Moonshot O(n²), Jolteon O(n)).");
    println!("The quadratic vote multicast is what lets every node assemble certificates");
    println!("locally, buying reorg resilience and the δ block period.");
}
