//! The five workloads. Every one submits 180-byte transactions (the
//! paper's item size) from one generator thread through
//! `Mempool::submit_from`, round-robin over the nodes, into a
//! digest-dissemination cluster with 18 kB base batches and default
//! verification.

use crate::surface::ProtocolChoice;

/// Bytes per transaction.
pub const TX_BYTES: usize = 180;
/// Bytes one transaction takes inside a batch (`u32` length prefix).
pub const TX_BATCH_BYTES: u64 = TX_BYTES as u64 + 4;
/// Base batch size handed to `LoadSpec::digest`.
pub const BATCH_BYTES: usize = 18_000;
/// Fixed warm-up between the first quorum commit and the timed window.
pub const WARMUP_S: u64 = 3;
/// Longest wait for the last accepted transactions to commit.
pub const DRAIN_CAP_S: u64 = 5;
/// Closed loop: wait before retrying a refused transaction.
pub const RETRY_US: u64 = 500;

/// What the links between nodes do to a frame.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Net {
    /// Raw loopback: latency is processor time only.
    Loopback,
    /// `ShapeMatrix::table2`: one node per Table II region.
    Table2,
    /// The same one-way delay on every link, so δ is exact.
    Uniform { one_way_ms: u64 },
}

/// How the generator offers load.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Load {
    /// On a schedule, whatever the cluster does; a refusal is a failure.
    Open { tps: u64 },
    /// As fast as admission allows; a refusal is retried.
    Closed,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub protocol: ProtocolChoice,
    pub n: usize,
    pub net: Net,
    pub delta_ms: u64,
    /// Durable ledger (`data_dir`) on.
    pub ledger: bool,
    pub load: Load,
    /// Kill one node at a quarter of the window, restart it at half.
    pub crash: bool,
    /// Whether `BENCHMARK.json` lists the workload, that is, whether the
    /// PR driver gates on it. The loopback workloads are measured by
    /// `all` and judged by `compare`, but on the 2-core reference box
    /// their run-to-run spread is too wide for any bound the driver
    /// accepts (at most 25 %, with spreads under a third of it): over ten
    /// seeds `lan-saturate` goodput spreads 8–16 %, `lan-n16` block
    /// period 5–20 % and block latency 8–34 % (its distribution has two
    /// modes and the median hops between them), transaction p99 25–67 %,
    /// and set medians of the same commit drift by 10–15 %. A bound is
    /// fixed per metric, not per workload, so listing them would loosen
    /// every gate on the delay-bound workloads, which repeat within 2 %.
    pub gated: bool,
    /// Trace-ring records per node: sized from measured use so that no
    /// node drops a record (checked on every run).
    pub trace_capacity: usize,
}

impl Workload {
    /// View-failure timeout τ = 3Δ, in µs.
    pub fn tau_us(&self) -> u64 {
        3 * self.delta_ms * 1_000
    }

    pub fn quorum(&self) -> usize {
        2 * ((self.n - 1) / 3) + 1
    }
}

/// In the order `all` runs them: the loopback workloads last, because a
/// processor-bound run leaves the machine disturbed for about a minute
/// (the `wan-crash` run straight after `lan-n16` burns 50 % more
/// `cpu_us_per_tx`, all of it in the batch assemblers' polling loops).
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "wan-pm",
        why: "paper headline: PM n=10 under Table II delays, 1000 tx/s open loop; latency is injected delay x hops, so only protocol changes may move it",
        protocol: ProtocolChoice::Pipelined,
        n: 10,
        net: Net::Table2,
        delta_ms: 200,
        ledger: false,
        load: Load::Open { tps: 1_000 },
        crash: false,
        gated: true,
        trace_capacity: 400_000,
    },
    Workload {
        name: "wan-jolteon",
        why: "paper baseline: same as wan-pm with Jolteon (votes to next leader, O(n) frames); shared pacemaker/vote code used the other way",
        protocol: ProtocolChoice::Jolteon,
        n: 10,
        net: Net::Table2,
        delta_ms: 200,
        ledger: false,
        load: Load::Open { tps: 1_000 },
        crash: false,
        gated: true,
        trace_capacity: 400_000,
    },
    Workload {
        name: "wan-crash",
        why: "fault run: PM n=4, uniform 50 ms links, ledger on, 1000 tx/s on schedule while one node is killed and restarted; timeouts, WAL recovery, block sync",
        protocol: ProtocolChoice::Pipelined,
        n: 4,
        net: Net::Uniform { one_way_ms: 50 },
        delta_ms: 100,
        ledger: true,
        load: Load::Open { tps: 1_000 },
        crash: true,
        gated: true,
        trace_capacity: 400_000,
    },
    Workload {
        name: "lan-saturate",
        why: "data plane: PM n=4 loopback, ledger on, closed loop at saturation; few large blocks, so mempool, dissem, sha256, bulk wire and ledger set goodput",
        protocol: ProtocolChoice::Pipelined,
        n: 4,
        net: Net::Loopback,
        delta_ms: 200,
        ledger: true,
        load: Load::Closed,
        crash: false,
        gated: false,
        trace_capacity: 1_500_000,
    },
    Workload {
        name: "lan-n16",
        why: "control plane: PM n=16 loopback, 2000 tx/s open loop; block period is CPU per block: 256 vote deliveries, tiny batches pushed to 15 peers",
        protocol: ProtocolChoice::Pipelined,
        n: 16,
        net: Net::Loopback,
        delta_ms: 200,
        ledger: false,
        load: Load::Open { tps: 2_000 },
        crash: false,
        gated: false,
        trace_capacity: 1_500_000,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
