//! Turns what a run observed into metrics, after checking that the run is
//! valid. A failed check fails the run: no metrics come out of it.
//!
//! Accounting is complete by construction: blocks and their transaction
//! counts come from the nodes' commit lists (`NodeReport.commits`, batch
//! refs ÷ 184 bytes), never from a sample. Only per-transaction latency
//! needs batch bytes, which the program keeps for the last 512 blocks;
//! `bench.tx_sample_share` says how much of the window that covered.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::json::Json;
use crate::loadgen;
use crate::metrics::{END_TO_END, TRACED};
use crate::proc;
use crate::run::{Boundary, REFERENCE_S};
use crate::stats::{
    count_goodput, highest_supported_percentile, median, outage_gaps, percentile,
    percentile_supported, quorum_commit_time,
};
use crate::surface::{
    batch_txs, tx_timestamp_us, BlockId, ClusterReport, NodeReport, StageLatencies, TraceEvent,
};
use crate::workload::{Net, Workload, TX_BATCH_BYTES, WARMUP_S};

/// Everything `run` hands over.
pub struct Observed<'a> {
    pub workload: &'a Workload,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Launch → first quorum commit, one entry per set-up.
    pub setup_s: Vec<f64>,
    /// Start of the run → start of the timed window.
    pub start_to_window_s: f64,
    pub first_commit_us: u64,
    pub window_us: (u64, u64),
    /// Kill and restart times (fault runs).
    pub down_us: Option<(u64, u64)>,
    pub catchup_s: Option<f64>,
    /// Counter readings at the start and the end of the window.
    pub boundaries: Vec<Boundary>,
    /// Per-class processor seconds inside the window (traced runs).
    pub class_cpu: Option<BTreeMap<&'static str, f64>>,
    pub generated: loadgen::Report,
    pub cluster: ClusterReport,
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind a percentile, when it is one.
    pub samples: Option<usize>,
}

/// The result of one valid run.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Transactions offered inside the window.
    pub attempted: u64,
    /// Of those, refused, plus transactions accepted but never committed.
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    /// Traced-run layer metrics (empty for an untraced run).
    pub per_layer: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn to_json(&self) -> Json {
        let metrics = |list: &[Metric]| {
            let mut obj = Json::obj();
            for m in list {
                let mut entry = Json::obj().set("value", m.value).set("unit", m.unit);
                if let Some(n) = m.samples {
                    entry = entry.set("samples", n);
                }
                obj = obj.set(m.name, entry);
            }
            obj
        };
        Json::obj()
            .set("workload", self.workload)
            .set("seed", self.seed)
            .set("seconds", self.seconds)
            .set("traced", self.traced)
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("end_to_end", metrics(&self.end_to_end))
            .set("per_layer", metrics(&self.per_layer))
            .set(
                "notes",
                self.notes
                    .iter()
                    .map(|n| Json::from(n.as_str()))
                    .collect::<Vec<_>>(),
            )
    }
}

/// One block of the agreed chain.
struct Row {
    id: BlockId,
    view: u64,
    height: u64,
    /// Transactions, counted from the payload's batch refs.
    txs: u64,
}

/// A quorum-committed block.
#[derive(Clone, Copy)]
struct Committed {
    id: BlockId,
    view: u64,
    height: u64,
    txs: u64,
    /// Time of the (2f+1)-th distinct node's `BlockCommitted`.
    quorum_us: u64,
    /// First `ProposalSent` anywhere.
    proposed_us: Option<u64>,
}

/// The chain every commit list agrees on, by height. Lists must be
/// gap-free and may not disagree anywhere (a restarted node's list starts
/// where its disk ended, so "prefix of the longest" is checked by height).
fn agreed_chain(reports: &[NodeReport]) -> Result<BTreeMap<u64, Row>, String> {
    let mut chain: BTreeMap<u64, Row> = BTreeMap::new();
    for report in reports {
        let mut previous: Option<u64> = None;
        for commit in &report.commits {
            let block = &commit.block;
            let height = block.height().0;
            if previous.is_some_and(|p| height != p + 1) {
                return Err(format!(
                    "{}: commit list jumps to height {height}",
                    report.node
                ));
            }
            previous = Some(height);
            let txs = block.payload().batch_refs().map_or(0, |refs| {
                refs.iter().map(|r| r.bytes / TX_BATCH_BYTES).sum()
            });
            let row = chain.entry(height).or_insert(Row {
                id: block.id(),
                view: block.view().0,
                height,
                txs,
            });
            if row.id != block.id() {
                return Err(format!(
                    "{}: a different block at height {height}",
                    report.node
                ));
            }
        }
    }
    Ok(chain)
}

/// What one pass over the merged trace yields.
#[derive(Default)]
struct Scan {
    commits: HashMap<BlockId, Vec<(u16, u64)>>,
    proposed: HashMap<BlockId, u64>,
    /// When each node first received each block's proposal (for measured
    /// δ). First only: a Moonshot leader proposes a block twice, one hop
    /// apart (optimistic, then normal), and both arrivals are recorded.
    received: HashMap<(BlockId, u16), u64>,
    /// View timers that expired while their node was still in that view.
    /// (`TimeoutFired` alone is not that: timers are never cancelled, so
    /// every view's timer expires 3Δ after it was armed, mostly long
    /// after the node has moved on.)
    timeouts: u64,
    tc_views: HashSet<u64>,
    /// `(seal time, txs)` per sealed batch.
    sealed: Vec<(u64, u64)>,
}

fn scan(cluster: &ClusterReport, since_us: u64) -> Scan {
    let mut s = Scan::default();
    let mut current_view: HashMap<u16, u64> = HashMap::new();
    for rec in &cluster.records {
        let at = rec.at.0;
        match rec.event {
            TraceEvent::ViewEntered { node, view } => {
                current_view.insert(node.0, view.0);
            }
            TraceEvent::NodeRestarted { node } => {
                current_view.remove(&node.0);
            }
            TraceEvent::BlockCommitted { node, block, .. } => {
                s.commits.entry(block).or_default().push((node.0, at));
            }
            TraceEvent::ProposalSent { block, .. } => {
                s.proposed
                    .entry(block)
                    .and_modify(|t| *t = (*t).min(at))
                    .or_insert(at);
            }
            TraceEvent::ProposalReceived { node, block, .. } => {
                s.received
                    .entry((block, node.0))
                    .and_modify(|t| *t = (*t).min(at))
                    .or_insert(at);
            }
            // Launch-phase timeouts (before the mesh is up) belong to
            // set-up, not to the run.
            TraceEvent::TimeoutFired { node, view }
                if at >= since_us
                    && current_view
                        .get(&node.0)
                        .is_none_or(|&current| view.0 >= current) =>
            {
                s.timeouts += 1;
            }
            TraceEvent::TcFormed { view, .. } if at >= since_us => {
                s.tc_views.insert(view.0);
            }
            TraceEvent::BatchSealed { txs, .. } => s.sealed.push((at, txs)),
            _ => {}
        }
    }
    s
}

fn ms(us: u64) -> f64 {
    us as f64 / 1e3
}

/// Sum of a counter over every report (per-incarnation counters).
fn sum_counter(reports: &[NodeReport], name: &str) -> u64 {
    reports.iter().map(|r| r.metrics.counter(name)).sum()
}

/// Sum over nodes of a counter that outlives restarts (it lives in state
/// the cluster keeps per node), read from each node's last incarnation.
fn sum_node_counter(reports: &[NodeReport], name: &str) -> u64 {
    let mut last: BTreeMap<u16, u64> = BTreeMap::new();
    for r in reports {
        last.insert(r.node.0, r.metrics.counter(name));
    }
    last.values().sum()
}

/// What the checks and the accounting establish about a run; the metrics
/// are read off this.
struct Facts {
    scan: Scan,
    /// Every quorum-committed block, by height.
    committed: Vec<Committed>,
    /// Those whose quorum-commit time falls in the window.
    in_window: Vec<Committed>,
    window_txs: u64,
    /// Accepted transactions that no quorum-committed block carries.
    lost: u64,
    /// Ascending.
    tx_latency_us: Vec<u64>,
    /// Resolvable window transactions ÷ window transactions.
    sample_share: f64,
    /// Ascending.
    block_latency_us: Vec<u64>,
    /// Median outage gap and how many there were (fault runs).
    outage_p50_ms: Option<(f64, usize)>,
    late_p99_us: u64,
}

impl Facts {
    /// Runs every validity check; `Err` is the first that failed.
    fn establish(o: &Observed) -> Result<Facts, String> {
        let w = o.workload;
        let cluster = &o.cluster;
        let (from, until) = o.window_us;
        let inside = |at: u64| (from..until).contains(&at);

        // The trace is whole and safe.
        for r in &cluster.reports {
            let dropped = r.metrics.counter("telemetry.dropped_events");
            if dropped > 0 {
                return Err(format!(
                    "{} dropped {dropped} trace records: raise trace_capacity",
                    r.node
                ));
            }
        }
        if let Err(violations) = cluster.check_invariants() {
            return Err(format!(
                "invariant violations: {:?}",
                &violations[..violations.len().min(3)]
            ));
        }
        let chain = agreed_chain(&cluster.reports)?;
        let scan = scan(cluster, o.first_commit_us);
        if !w.crash && !scan.tc_views.is_empty() {
            return Err(format!(
                "{} views failed (timeout certificates) in a fault-free run",
                scan.tc_views.len()
            ));
        }

        // Complete accounting, from the commit lists.
        let committed: Vec<Committed> = chain
            .values()
            .filter_map(|row| {
                Some(Committed {
                    id: row.id,
                    view: row.view,
                    height: row.height,
                    txs: row.txs,
                    quorum_us: quorum_commit_time(scan.commits.get(&row.id)?, w.quorum())?,
                    proposed_us: scan.proposed.get(&row.id).copied(),
                })
            })
            .collect();
        let committed_txs: u64 = committed.iter().map(|b| b.txs).sum();
        let accepted = o.generated.accepted;
        if committed_txs > accepted {
            return Err(format!(
                "{committed_txs} transactions committed but only {accepted} accepted"
            ));
        }
        let in_window: Vec<Committed> = committed
            .iter()
            .copied()
            .filter(|b| inside(b.quorum_us))
            .collect();
        let window_txs: u64 = in_window.iter().map(|b| b.txs).sum();
        if in_window.len() < 2 || window_txs == 0 {
            return Err("nothing committed inside the window".to_string());
        }
        if in_window.iter().any(|b| b.proposed_us.is_none()) {
            return Err("a committed block has no ProposalSent record".to_string());
        }

        // Transaction latency, from the batches still resolvable.
        let payloads: HashMap<BlockId, _> = cluster
            .reports
            .iter()
            .flat_map(|r| &r.commits)
            .map(|c| (c.block.id(), c.block.payload()))
            .collect();
        let mut seen: HashSet<(u64, u64)> = HashSet::new();
        let mut tx_latency_us: Vec<u64> = Vec::new();
        for block in &committed {
            for batch in payloads[&block.id].batch_refs().unwrap_or(&[]) {
                let Some(bytes) = cluster.batch_bytes.get(&batch.digest) else {
                    continue;
                };
                for tx in batch_txs(bytes) {
                    let stamp =
                        tx_timestamp_us(tx).ok_or("committed transaction without a stamp")?;
                    let seq = u64::from_le_bytes(tx[12..20].try_into().unwrap());
                    if !seen.insert((stamp, seq)) {
                        return Err(format!("transaction {seq} committed twice"));
                    }
                    if inside(block.quorum_us) {
                        tx_latency_us.push(block.quorum_us.saturating_sub(stamp));
                    }
                }
            }
        }
        tx_latency_us.sort_unstable();
        if w.net != Net::Loopback && tx_latency_us.len() as u64 != window_txs {
            return Err(format!(
                "only {} of {window_txs} window transactions resolvable (tx_sample_share must be 1)",
                tx_latency_us.len()
            ));
        }
        if tx_latency_us.len() < 1_000 {
            return Err(format!(
                "{} transaction latency samples; 1000 required",
                tx_latency_us.len()
            ));
        }

        let mut block_latency_us: Vec<u64> = in_window
            .iter()
            .map(|b| b.quorum_us.saturating_sub(b.proposed_us.unwrap()))
            .collect();
        block_latency_us.sort_unstable();

        // The fault: one long gap per dead-leader turn.
        let mut outage_p50_ms = None;
        if let Some((killed, restart)) = o.down_us {
            let mut times: Vec<u64> = committed.iter().map(|b| b.quorum_us).collect();
            times.sort_unstable();
            let mut gaps = outage_gaps(&times, killed, restart, w.tau_us());
            gaps.sort_unstable();
            let p50 = percentile(&gaps, 0.5).ok_or("no outage gap while the victim was down")?;
            outage_p50_ms = Some((ms(p50), gaps.len()));
        }

        Ok(Facts {
            lost: accepted - committed_txs,
            sample_share: tx_latency_us.len() as f64 / window_txs as f64,
            late_p99_us: percentile(&o.generated.late_us, 0.99).unwrap_or(0),
            scan,
            committed,
            in_window,
            window_txs,
            tx_latency_us,
            block_latency_us,
            outage_p50_ms,
        })
    }

    /// `(quorum-commit time, transactions)` of every committed block.
    fn blocks(&self) -> Vec<(u64, u64)> {
        self.committed
            .iter()
            .map(|b| (b.quorum_us, b.txs))
            .collect()
    }

    /// One end-to-end metric and, for a percentile, its sample count.
    fn end_to_end(&self, o: &Observed, name: &str) -> Option<(f64, Option<usize>)> {
        let (from, until) = o.window_us;
        let n_tx = Some(self.tx_latency_us.len());
        let n_blocks = Some(self.block_latency_us.len());
        Some(match name {
            "setup_s" => (median(&o.setup_s)?, Some(o.setup_s.len())),
            "goodput_tps" => (count_goodput(&self.blocks(), from, until), None),
            "tx_commit_p50_ms" => (ms(percentile(&self.tx_latency_us, 0.5)?), n_tx),
            "tx_commit_p99_ms" => (ms(percentile(&self.tx_latency_us, 0.99)?), n_tx),
            // The mean gap between quorum commits, not window ÷ blocks:
            // that would read exactly the same whenever two runs commit
            // the same number of blocks.
            "block_period_ms" => {
                let mut times: Vec<u64> = self.in_window.iter().map(|b| b.quorum_us).collect();
                times.sort_unstable();
                (
                    ms(times[times.len() - 1] - times[0]) / (times.len() - 1) as f64,
                    n_blocks,
                )
            }
            "block_commit_p50_ms" => (ms(percentile(&self.block_latency_us, 0.5)?), n_blocks),
            "block_commit_p90_ms" => (ms(percentile(&self.block_latency_us, 0.9)?), n_blocks),
            "cpu_us_per_tx" => {
                let program_cpu_s =
                    o.boundaries[1].program_cpu_s() - o.boundaries[0].program_cpu_s();
                (program_cpu_s * 1e6 / self.window_txs as f64, None)
            }
            "outage_p50_ms" => {
                let (v, n) = self.outage_p50_ms?;
                (v, Some(n))
            }
            "catchup_s" => (o.catchup_s?, None),
            _ => return None,
        })
    }

    /// One layer metric of a traced run. `class_cpu` is processor seconds
    /// per thread class inside the window, `stages` the program's own
    /// stage decomposition.
    fn per_layer(
        &self,
        o: &Observed,
        class_cpu: &BTreeMap<&'static str, f64>,
        stages: &StageLatencies,
        name: &str,
    ) -> f64 {
        let reports = &o.cluster.reports;
        let (from, until) = o.window_us;
        let (at_open, at_close) = (o.boundaries[0], o.boundaries[1]);
        let per_block = |total: u64| total as f64 / self.committed.len() as f64;
        let cpu = |class: &str| class_cpu.get(class).copied().unwrap_or(0.0);
        let p_ms = |v: &[u64], q: f64| percentile(v, q).map_or(0.0, ms);
        match name {
            "netpool.frames_per_block" => per_block(sum_counter(reports, "net.total.frames_out")),
            "netpool.bytes_per_block" => per_block(sum_counter(reports, "net.total.bytes_out")),
            "netpool.dropped_frames" => sum_counter(reports, "net.total.dropped_frames") as f64,
            "netpool.reconnects" => sum_counter(reports, "net.total.reconnects") as f64,
            "netpool.wakeups_per_s" => {
                (at_close.net.loop_wakeups - at_open.net.loop_wakeups) as f64 * 1e6
                    / (until - from) as f64
            }
            "netpool.frames_per_wakeup" => {
                (at_close.net.frames_processed - at_open.net.frames_processed) as f64
                    / (at_close.net.loop_wakeups - at_open.net.loop_wakeups).max(1) as f64
            }
            "cpu.netpool_s" => cpu("netpool"),
            "verify.batch_mean" => {
                sum_counter(reports, "crypto.batch_verify_items") as f64
                    / sum_counter(reports, "crypto.batch_verify_calls").max(1) as f64
            }
            "verify.cache_hit_share" => {
                let hits = sum_counter(reports, "verify.cache_hits");
                hits as f64 / (hits + sum_counter(reports, "verify.cache_misses")).max(1) as f64
            }
            "cpu.verify_s" => cpu("verify"),
            "mempool.txs_per_batch" => {
                let sealed: Vec<u64> = self
                    .scan
                    .sealed
                    .iter()
                    .filter(|(at, _)| (from..until).contains(at))
                    .map(|b| b.1)
                    .collect();
                sealed.iter().sum::<u64>() as f64 / sealed.len().max(1) as f64
            }
            "mempool.queue_p50_ms" => p_ms(&stages.mempool_queue, 0.5),
            "mempool.sojourn_p99_ms" => p_ms(&stages.mempool_queue, 0.99),
            "mempool.refused_share" => {
                (at_close.pool_refused - at_open.pool_refused) as f64
                    / (at_close.pool_submitted - at_open.pool_submitted).max(1) as f64
            }
            "cpu.assembler_s" => cpu("assembler"),
            "dissem.pushes_per_block" => {
                per_block(sum_node_counter(reports, "dissem.batches_pushed"))
            }
            "dissem.fetches" => sum_node_counter(reports, "dissem.fetches") as f64,
            "dissem.votes_gated" => sum_node_counter(reports, "dissem.votes_gated") as f64,
            "consensus.propose_wait_p50_ms" => p_ms(&stages.propose_wait, 0.5),
            "consensus.vote_to_qc_p50_ms" => p_ms(&stages.vote_to_qc, 0.5),
            "consensus.qc_to_commit_p50_ms" => p_ms(&stages.qc_to_commit, 0.5),
            "shape.delta_measured_ms" => self.delta_measured_ms(),
            // Table I on real sockets, over the fault-free part of the
            // window.
            "consensus.period_over_delta" | "consensus.commit_over_delta" => {
                let calm_until = o.down_us.map_or(until, |(killed, _)| killed);
                let calm: Vec<&Committed> = self
                    .in_window
                    .iter()
                    .filter(|b| b.quorum_us < calm_until)
                    .collect();
                let value_ms = if name == "consensus.period_over_delta" {
                    ms(calm_until - from) / calm.len().max(1) as f64
                } else {
                    let mut latency: Vec<u64> = calm
                        .iter()
                        .map(|b| b.quorum_us.saturating_sub(b.proposed_us.unwrap()))
                        .collect();
                    latency.sort_unstable();
                    p_ms(&latency, 0.5)
                };
                value_ms / self.delta_measured_ms()
            }
            "consensus.timeouts" => self.scan.timeouts as f64,
            "consensus.tcs_formed" => self.scan.tc_views.len() as f64,
            "consensus.views_per_block" => {
                let (first, last) = (self.in_window[0], self.in_window[self.in_window.len() - 1]);
                (last.view - first.view) as f64 / (last.height - first.height) as f64
            }
            "ledger.fsyncs_per_block" => per_block(
                reports
                    .iter()
                    .map(|r| {
                        r.metrics
                            .histogram("ledger.fsync_us")
                            .map_or(0, |h| h.count())
                    })
                    .sum(),
            ),
            "ledger.wal_bytes_per_block" => per_block(sum_counter(reports, "ledger.wal_bytes")),
            "ledger.resync_blocks" => o
                .cluster
                .restarts
                .iter()
                .map(|r| r.resync_blocks)
                .sum::<u64>() as f64,
            "cpu.ledger_s" => cpu("ledger"),
            "cpu.driver_s" => cpu("driver"),
            // Threads that exited inside the window (a killed node's)
            // took their times with them; they land here.
            "cpu.other_s" => {
                let named: f64 = class_cpu
                    .iter()
                    .filter(|(c, _)| **c != "other")
                    .map(|(_, s)| s)
                    .sum();
                // (Never below 0: each thread's time is read in whole ticks.)
                (at_close.process_cpu_s - at_open.process_cpu_s - named).max(0.0)
            }
            "process.peak_rss_mb" => proc::peak_rss_mb(),
            "process.threads" => reports
                .iter()
                .filter_map(|r| r.metrics.gauge("process.threads"))
                .fold(0.0, f64::max),
            "bench.generator_late_p99_us" => self.late_p99_us as f64,
            "bench.tx_sample_share" => self.sample_share,
            // Goodput of the last, untraced, seconds of the warm-up
            // against the traced window's.
            "bench.trace_overhead_pct" => {
                let blocks = self.blocks();
                let reference = count_goodput(&blocks, from - REFERENCE_S * 1_000_000, from);
                (reference - count_goodput(&blocks, from, until)) / reference * 100.0
            }
            "bench.failed_share" => {
                (o.generated.refused + self.lost) as f64 / o.generated.offered.max(1) as f64
            }
            "outage_p50_ms" => self.outage_p50_ms.map_or(0.0, |(v, _)| v),
            "catchup_s" => o.catchup_s.unwrap_or(0.0),
            other => unreachable!("no definition for {other}"),
        }
    }

    /// Measured one-way delay: median first `ProposalSent` → first
    /// `ProposalReceived` at each node.
    fn delta_measured_ms(&self) -> f64 {
        let mut hops: Vec<u64> = self
            .scan
            .received
            .iter()
            .filter_map(|((block, _), at)| Some(at.saturating_sub(*self.scan.proposed.get(block)?)))
            .collect();
        hops.sort_unstable();
        percentile(&hops, 0.5).map_or(0.0, ms)
    }
}

pub fn analyse(o: &Observed) -> Result<Outcome, String> {
    let w = o.workload;
    let facts = Facts::establish(o)?;
    let mut notes = Vec::new();

    let mut end_to_end = Vec::new();
    for m in END_TO_END.iter().filter(|m| m.applies_to(w.name)) {
        let (value, samples) = facts
            .end_to_end(o, m.name)
            .ok_or(format!("{} not measurable", m.name))?;
        end_to_end.push(Metric {
            name: m.name,
            unit: m.unit,
            value,
            samples,
        });
    }
    let per_layer: Vec<Metric> = match &o.class_cpu {
        Some(class_cpu) => {
            let stages = o.cluster.stage_latencies();
            TRACED
                .iter()
                .map(|m| Metric {
                    name: m.name,
                    unit: m.unit,
                    value: facts.per_layer(o, class_cpu, &stages, m.name),
                    samples: None,
                })
                .collect()
        }
        None => Vec::new(),
    };

    let blocks = facts.block_latency_us.len();
    if !percentile_supported(blocks, 0.9) {
        notes.push(format!(
            "block_commit_p90_ms rests on {blocks} blocks: fewer than ten beyond it (they support p{:.0})",
            highest_supported_percentile(blocks).unwrap_or(0.0) * 100.0
        ));
    }
    if facts.lost > 0 {
        notes.push(format!(
            "{} accepted transactions not committed when the drain ended",
            facts.lost
        ));
    }
    if facts.late_p99_us >= 10_000 {
        notes.push("generator ran late (latency counts from due time all the same)".to_string());
    }
    notes.push(format!(
        "bench.tx_sample_share {:.4}, bench.generator_late_p99_us {}",
        facts.sample_share, facts.late_p99_us
    ));
    notes.push(format!(
        "set-ups {:?} s; run start to window {:.3} s (all set-ups and the {WARMUP_S} s warm-up included)",
        o.setup_s, o.start_to_window_s
    ));

    Ok(Outcome {
        workload: w.name,
        seed: o.seed,
        seconds: o.seconds,
        traced: o.traced,
        attempted: o.generated.offered,
        failed: o.generated.refused + facts.lost,
        end_to_end,
        per_layer,
        notes,
    })
}
