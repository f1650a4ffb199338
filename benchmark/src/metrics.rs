//! Names, units, directions and regression bounds of every metric, and
//! `BENCHMARK.json` as made from them.

use crate::json::Json;
use crate::workload::WORKLOADS;

/// Window length when `--seconds` is not given; `run_seconds` in
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 20;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Where an end-to-end metric is reported.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum On {
    All,
    AllBut(&'static str),
    Only(&'static str),
}

#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before it counts as a regression.
    pub bound: f64,
    pub on: On,
}

impl EndToEnd {
    pub fn applies_to(&self, workload: &str) -> bool {
        match self.on {
            On::All => true,
            On::AllBut(w) => w != workload,
            On::Only(w) => w == workload,
        }
    }
}

/// The end-to-end metrics. Those reported on every gated workload are
/// the `end_to_end` list of `BENCHMARK.json`; the two fault metrics exist
/// on `wan-crash` only, so `BENCHMARK.json` can only carry them in
/// `per_layer` (its end-to-end metrics must be reported, non-zero, by
/// every workload it lists), while `compare` applies their bounds all
/// the same. On `lan-saturate` the tails are left out: admission's
/// 20–300 ms delay target, not the commit path, sets them there.
pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        on: On::All,
    },
    EndToEnd {
        name: "goodput_tps",
        unit: "tx/s",
        better: Better::Higher,
        bound: 0.10,
        on: On::All,
    },
    EndToEnd {
        name: "tx_commit_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
        on: On::All,
    },
    EndToEnd {
        name: "tx_commit_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
        on: On::AllBut("lan-saturate"),
    },
    EndToEnd {
        name: "block_period_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
        on: On::All,
    },
    EndToEnd {
        name: "block_commit_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
        on: On::All,
    },
    EndToEnd {
        name: "block_commit_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
        on: On::AllBut("lan-saturate"),
    },
    // Wider than the issue's 10 %: processor time is read in 10 ms ticks
    // while the shaped shard loops spin, and this is the one metric the
    // shaped workloads do not repeat within 2 % (quartile distance up to
    // 3.3 % over ten 20 s runs of `wan-crash`, 7.7 % with 10 s windows).
    EndToEnd {
        name: "cpu_us_per_tx",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
        on: On::All,
    },
    EndToEnd {
        name: "outage_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
        on: On::Only("wan-crash"),
    },
    EndToEnd {
        name: "catchup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
        on: On::Only("wan-crash"),
    },
];

/// Most the failed share (failed ÷ attempted) may rise, absolute.
pub const FAILED_SHARE_BOUND: f64 = 0.005;

#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Layer-suite metrics: timed calls into each layer's public functions.
pub const LAYER_SUITE: [PerLayer; 28] = [
    layer("crypto.sign_ns", "ns", Lower),
    layer("crypto.verify_ns", "ns", Lower),
    layer("crypto.batch_verify_ns_per_sig", "ns", Lower),
    layer("crypto.qc_verify_us", "us", Lower),
    layer("crypto.cache_hit_ns", "ns", Lower),
    layer("crypto.sha256_mbps", "MB/s", Higher),
    layer("mempool.submit_ns", "ns", Lower),
    layer("mempool.drain_ns_per_tx", "ns", Lower),
    layer("mempool.encode_batch_ns_per_tx", "ns", Lower),
    layer("dissem.batch_digest_mbps", "MB/s", Higher),
    layer("dissem.store_insert_ns", "ns", Lower),
    layer("wire.vote_encode_ns", "ns", Lower),
    layer("wire.vote_decode_ns", "ns", Lower),
    layer("wire.proposal_encode_ns", "ns", Lower),
    layer("wire.proposal_decode_ns", "ns", Lower),
    layer("wire.crc32_mbps", "MB/s", Higher),
    layer("wire.batch_push_roundtrip_mbps", "MB/s", Higher),
    layer("reactor.wake_roundtrip_us", "us", Lower),
    layer("reactor.echo_roundtrip_us", "us", Lower),
    layer("netpool.ingest_tps", "tx/s", Higher),
    layer("node.timer_arm_expire_ns", "ns", Lower),
    layer("consensus.pm_step_us_per_block", "us", Lower),
    layer("consensus.jolteon_step_us_per_block", "us", Lower),
    layer("ledger.wal_append_us", "us", Lower),
    layer("ledger.blockstore_append_us", "us", Lower),
    layer("ledger.snapshot_write_us", "us", Lower),
    layer("ledger.recover_ms", "ms", Lower),
    layer("sim.events_per_s", "1/s", Higher),
];

/// Traced-run metrics: counts and times read through the program's public
/// accessors and `/proc`, per quorum-committed block or transaction.
pub const TRACED: [PerLayer; 41] = [
    layer("netpool.frames_per_block", "count", Lower),
    layer("netpool.bytes_per_block", "B", Lower),
    layer("netpool.dropped_frames", "count", Lower),
    layer("netpool.reconnects", "count", Lower),
    layer("netpool.wakeups_per_s", "1/s", Lower),
    layer("netpool.frames_per_wakeup", "ratio", Higher),
    layer("cpu.netpool_s", "s", Lower),
    layer("verify.batch_mean", "count", Higher),
    layer("verify.cache_hit_share", "ratio", Higher),
    layer("cpu.verify_s", "s", Lower),
    layer("mempool.txs_per_batch", "count", Higher),
    layer("mempool.queue_p50_ms", "ms", Lower),
    layer("mempool.sojourn_p99_ms", "ms", Lower),
    layer("mempool.refused_share", "ratio", Lower),
    layer("cpu.assembler_s", "s", Lower),
    layer("dissem.pushes_per_block", "count", Lower),
    layer("dissem.fetches", "count", Lower),
    layer("dissem.votes_gated", "count", Lower),
    layer("consensus.propose_wait_p50_ms", "ms", Lower),
    layer("consensus.vote_to_qc_p50_ms", "ms", Lower),
    layer("consensus.qc_to_commit_p50_ms", "ms", Lower),
    layer("shape.delta_measured_ms", "ms", Lower),
    layer("consensus.period_over_delta", "ratio", Lower),
    layer("consensus.commit_over_delta", "ratio", Lower),
    layer("consensus.timeouts", "count", Lower),
    layer("consensus.tcs_formed", "count", Lower),
    layer("consensus.views_per_block", "ratio", Lower),
    layer("ledger.fsyncs_per_block", "count", Lower),
    layer("ledger.wal_bytes_per_block", "B", Lower),
    layer("ledger.resync_blocks", "count", Lower),
    layer("cpu.ledger_s", "s", Lower),
    layer("cpu.driver_s", "s", Lower),
    layer("cpu.other_s", "s", Lower),
    layer("process.peak_rss_mb", "MB", Lower),
    layer("process.threads", "count", Lower),
    layer("bench.generator_late_p99_us", "us", Lower),
    layer("bench.tx_sample_share", "ratio", Higher),
    layer("bench.trace_overhead_pct", "%", Lower),
    layer("bench.failed_share", "ratio", Lower),
    layer("outage_p50_ms", "ms", Lower),
    layer("catchup_s", "s", Lower),
];

/// The end-to-end metrics every gated workload reports: the `end_to_end`
/// list of `BENCHMARK.json` and of the driver's output line.
pub fn gated_end_to_end() -> impl Iterator<Item = &'static EndToEnd> {
    END_TO_END.iter().filter(|m| {
        WORKLOADS
            .iter()
            .filter(|w| w.gated)
            .all(|w| m.applies_to(w.name))
    })
}

/// The contents of `BENCHMARK.json`, from the tables above. The window
/// length there is the default of every command here.
pub fn manifest() -> Json {
    let workloads: Vec<Json> = WORKLOADS
        .iter()
        .filter(|w| w.gated)
        .map(|w| Json::obj().set("name", w.name).set("why", w.why))
        .collect();
    let end_to_end: Vec<Json> = gated_end_to_end()
        .map(|m| {
            Json::obj()
                .set("name", m.name)
                .set("unit", m.unit)
                .set("better", m.better.as_str())
                .set("bound", m.bound)
        })
        .collect();
    let per_layer: Vec<Json> = LAYER_SUITE
        .iter()
        .chain(TRACED.iter())
        .map(|m| {
            Json::obj()
                .set("name", m.name)
                .set("unit", m.unit)
                .set("better", m.better.as_str())
        })
        .collect();
    let command = [
        "cargo",
        "run",
        "--offline",
        "--release",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj()
        .set(
            "command",
            command.iter().map(|s| Json::from(*s)).collect::<Vec<_>>(),
        )
        .set("paths", vec![Json::from("benchmark")])
        .set("run_seconds", DEFAULT_SECONDS)
        .set("workloads", workloads)
        .set("end_to_end", end_to_end)
        .set("per_layer", per_layer)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; the tables are what the
    /// program reports. `manifest > BENCHMARK.json` keeps them the same.
    #[test]
    fn benchmark_json_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            Json::parse(&file).expect("BENCHMARK.json parses"),
            manifest()
        );
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why is one short line",
                w.name
            );
        }
    }
}
