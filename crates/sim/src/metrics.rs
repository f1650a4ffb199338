//! Run metrics, matching §VI of the paper.
//!
//! * **Throughput** — the number of blocks committed by at least a quorum
//!   of nodes during a run:
//!   [`quorum_threshold`](moonshot_crypto::keys::quorum_threshold)`(n) =
//!   ⌊(n + f)/2⌋ + 1`, which is `2f + 1` at `n = 3f + 1`.
//! * **Transfer rate** — bytes of payload from committed blocks per second.
//! * **Latency** — the time between the *creation* of a block (its first
//!   proposal multicast) and its commit by the quorum-th node, reported
//!   both as the paper's average and as a full distribution.
//! * **Block period** — the time between consecutive block creations (the
//!   paper's ω), as a distribution.
//! * **View duration** — how long nodes spend in each view, as a
//!   distribution (τ-timeout views show up as the tail).

use std::collections::HashMap;

use moonshot_telemetry::{Histogram, HistogramSummary};
use moonshot_types::time::{SimDuration, SimTime};
use moonshot_types::{BlockId, Height, NodeId, View};

/// Per-block bookkeeping.
#[derive(Clone, Debug, Default)]
struct BlockRecord {
    created_at: Option<SimTime>,
    payload_bytes: u64,
    view: View,
    height: Height,
    commit_times: Vec<(NodeId, SimTime)>,
}

/// Collects per-block creation and commit events across all nodes of a run.
#[derive(Clone, Debug, Default)]
pub struct MetricsSink {
    blocks: HashMap<BlockId, BlockRecord>,
    /// Blocks committed per node (for per-node progress checks).
    per_node_commits: HashMap<NodeId, u64>,
    /// Highest view observed per node, with when it was entered.
    views: HashMap<NodeId, (View, SimTime)>,
    /// Completed per-node view durations, in microseconds.
    view_durations_us: Vec<u64>,
}

impl MetricsSink {
    /// A fresh sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a block's creation (first proposal multicast). Later calls
    /// for the same block are ignored.
    pub fn record_created(
        &mut self,
        block: BlockId,
        view: View,
        height: Height,
        payload_bytes: u64,
        now: SimTime,
    ) {
        let rec = self.blocks.entry(block).or_default();
        if rec.created_at.is_none() {
            rec.created_at = Some(now);
            rec.payload_bytes = payload_bytes;
            rec.view = view;
            rec.height = height;
        }
    }

    /// Records `node` committing `block` at `now`.
    pub fn record_commit(&mut self, node: NodeId, block: BlockId, now: SimTime) {
        let rec = self.blocks.entry(block).or_default();
        if rec.commit_times.iter().all(|(n, _)| *n != node) {
            rec.commit_times.push((node, now));
            *self.per_node_commits.entry(node).or_default() += 1;
        }
    }

    /// Records `node` being in `view` at `now`. On a view *change* the time
    /// spent in the previous view is added to the view-duration
    /// distribution; repeated calls within one view are cheap no-ops.
    pub fn record_view(&mut self, node: NodeId, view: View, now: SimTime) {
        match self.views.get_mut(&node) {
            None => {
                self.views.insert(node, (view, now));
            }
            Some((current, entered_at)) if view > *current => {
                self.view_durations_us.push(now.since(*entered_at).as_micros());
                *current = view;
                *entered_at = now;
            }
            Some(_) => {}
        }
    }

    /// Number of blocks committed by `node`.
    pub fn commits_of(&self, node: NodeId) -> u64 {
        self.per_node_commits.get(&node).copied().unwrap_or(0)
    }

    /// The highest view any node reached.
    pub fn max_view(&self) -> View {
        self.views.values().map(|(v, _)| *v).max().unwrap_or(View::GENESIS)
    }

    /// Summarises the run. `quorum` is the quorum threshold
    /// ([`RunConfig::quorum`](crate::runner::RunConfig::quorum)); `duration`
    /// the wall-clock length of the run in simulated time.
    pub fn summarise(&self, quorum: usize, duration: SimDuration) -> RunMetrics {
        let mut committed_blocks = 0u64;
        let mut committed_payload = 0u64;
        let mut latencies = Vec::new();
        for rec in self.blocks.values() {
            if rec.commit_times.len() < quorum {
                continue;
            }
            committed_blocks += 1;
            committed_payload += rec.payload_bytes;
            if let Some(created) = rec.created_at {
                let mut times: Vec<SimTime> =
                    rec.commit_times.iter().map(|(_, t)| *t).collect();
                times.sort();
                let quorum_commit = times[quorum - 1];
                latencies.push(quorum_commit.since(created));
            }
        }
        latencies.sort();
        let avg_latency = if latencies.is_empty() {
            None
        } else {
            let sum: u64 = latencies.iter().map(|d| d.as_micros()).sum();
            Some(SimDuration(sum / latencies.len() as u64))
        };
        let p50 = latencies.get(latencies.len() / 2).copied();
        let p99 = latencies.get(latencies.len().saturating_sub(1).min(
            (latencies.len() as f64 * 0.99) as usize,
        )).copied();

        let mut commit_hist = Histogram::for_latency_us();
        for d in &latencies {
            commit_hist.record(d.as_micros());
        }
        let mut period_hist = Histogram::for_latency_us();
        let mut created: Vec<SimTime> =
            self.blocks.values().filter_map(|r| r.created_at).collect();
        created.sort();
        for pair in created.windows(2) {
            period_hist.record(pair[1].since(pair[0]).as_micros());
        }
        let mut view_hist = Histogram::for_latency_us();
        for &d in &self.view_durations_us {
            view_hist.record(d);
        }

        RunMetrics {
            committed_blocks,
            committed_payload_bytes: committed_payload,
            duration,
            avg_latency,
            p50_latency: p50,
            p99_latency: p99,
            max_view: self.max_view(),
            commit_latency: commit_hist.summary(),
            block_period: period_hist.summary(),
            view_duration: view_hist.summary(),
        }
    }
}

/// Summary of one run.
#[derive(Clone, Copy, Debug)]
pub struct RunMetrics {
    /// Blocks committed by at least a quorum of nodes.
    pub committed_blocks: u64,
    /// Total payload bytes across those blocks.
    pub committed_payload_bytes: u64,
    /// Simulated duration of the run.
    pub duration: SimDuration,
    /// Mean creation→quorum-th-commit latency.
    pub avg_latency: Option<SimDuration>,
    /// Median latency.
    pub p50_latency: Option<SimDuration>,
    /// 99th-percentile latency.
    pub p99_latency: Option<SimDuration>,
    /// Highest view reached by any node.
    pub max_view: View,
    /// Distribution of creation→quorum-commit latencies (µs).
    pub commit_latency: HistogramSummary,
    /// Distribution of gaps between consecutive block creations (µs) — the
    /// measured block period ω.
    pub block_period: HistogramSummary,
    /// Distribution of per-node view durations (µs).
    pub view_duration: HistogramSummary,
}

impl RunMetrics {
    /// Blocks committed per second.
    pub fn throughput_bps(&self) -> f64 {
        if self.duration == SimDuration::ZERO {
            return 0.0;
        }
        self.committed_blocks as f64 / self.duration.as_secs_f64()
    }

    /// Payload bytes transferred per second (the paper's *transfer rate*).
    pub fn transfer_rate_bytes_per_sec(&self) -> f64 {
        if self.duration == SimDuration::ZERO {
            return 0.0;
        }
        self.committed_payload_bytes as f64 / self.duration.as_secs_f64()
    }

    /// Mean latency in milliseconds (`f64::NAN` when nothing committed).
    pub fn avg_latency_ms(&self) -> f64 {
        self.avg_latency.map_or(f64::NAN, |d| d.as_millis_f64())
    }

    /// Serialises the metrics (including all three distributions) as one
    /// JSON object for summary files.
    pub fn to_json(&self) -> String {
        let mut o = moonshot_telemetry::json::JsonObject::new();
        o.field_u64("committed_blocks", self.committed_blocks);
        o.field_u64("committed_payload_bytes", self.committed_payload_bytes);
        o.field_f64("duration_s", self.duration.as_secs_f64());
        o.field_f64("throughput_bps", self.throughput_bps());
        o.field_f64("transfer_rate_bytes_per_sec", self.transfer_rate_bytes_per_sec());
        o.field_f64("avg_latency_ms", self.avg_latency_ms());
        o.field_u64("max_view", self.max_view.0);
        o.field_raw("commit_latency", &self.commit_latency.to_json_ms());
        o.field_raw("block_period", &self.block_period.to_json_ms());
        o.field_raw("view_duration", &self.view_duration.to_json_ms());
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moonshot_crypto::Digest;

    fn bid(i: u8) -> BlockId {
        Digest::hash(&[i])
    }

    #[test]
    fn quorum_commit_counted() {
        let mut sink = MetricsSink::new();
        sink.record_created(bid(1), View(1), Height(1), 180, SimTime(1_000));
        for i in 0..3u16 {
            sink.record_commit(NodeId(i), bid(1), SimTime(31_000 + i as u64));
        }
        let m = sink.summarise(3, SimDuration::from_secs(1));
        assert_eq!(m.committed_blocks, 1);
        assert_eq!(m.committed_payload_bytes, 180);
        // Latency to the 3rd committer: 31_002 - 1_000.
        assert_eq!(m.avg_latency, Some(SimDuration(30_002)));
        assert!((m.throughput_bps() - 1.0).abs() < 1e-9);
        assert!((m.transfer_rate_bytes_per_sec() - 180.0).abs() < 1e-9);
    }

    #[test]
    fn below_quorum_not_counted() {
        let mut sink = MetricsSink::new();
        sink.record_created(bid(1), View(1), Height(1), 0, SimTime::ZERO);
        sink.record_commit(NodeId(0), bid(1), SimTime(10));
        sink.record_commit(NodeId(1), bid(1), SimTime(20));
        let m = sink.summarise(3, SimDuration::from_secs(1));
        assert_eq!(m.committed_blocks, 0);
        assert!(m.avg_latency.is_none());
    }

    #[test]
    fn duplicate_commits_by_same_node_ignored() {
        let mut sink = MetricsSink::new();
        sink.record_created(bid(1), View(1), Height(1), 0, SimTime::ZERO);
        sink.record_commit(NodeId(0), bid(1), SimTime(10));
        sink.record_commit(NodeId(0), bid(1), SimTime(20));
        assert_eq!(sink.commits_of(NodeId(0)), 1);
    }

    #[test]
    fn creation_recorded_once() {
        let mut sink = MetricsSink::new();
        sink.record_created(bid(1), View(1), Height(1), 10, SimTime(5));
        sink.record_created(bid(1), View(1), Height(1), 99, SimTime(50));
        for i in 0..3u16 {
            sink.record_commit(NodeId(i), bid(1), SimTime(100));
        }
        let m = sink.summarise(3, SimDuration::from_secs(1));
        assert_eq!(m.committed_payload_bytes, 10);
        assert_eq!(m.avg_latency, Some(SimDuration(95)));
    }

    #[test]
    fn max_view_tracked() {
        let mut sink = MetricsSink::new();
        sink.record_view(NodeId(0), View(10), SimTime(100));
        sink.record_view(NodeId(1), View(12), SimTime(100));
        assert_eq!(sink.max_view(), View(12));
    }

    #[test]
    fn view_durations_measured_per_node() {
        let mut sink = MetricsSink::new();
        // Node 0: view 1 for 100 µs, view 2 for 200 µs, then still in 3.
        sink.record_view(NodeId(0), View(1), SimTime(0));
        sink.record_view(NodeId(0), View(1), SimTime(50)); // same view: no-op
        sink.record_view(NodeId(0), View(2), SimTime(100));
        sink.record_view(NodeId(0), View(3), SimTime(300));
        // Node 1: one completed view of 500 µs.
        sink.record_view(NodeId(1), View(1), SimTime(0));
        sink.record_view(NodeId(1), View(2), SimTime(500));
        let m = sink.summarise(3, SimDuration::from_secs(1));
        let vd = m.view_duration;
        assert_eq!(vd.count, 3);
        assert_eq!(vd.min, 100);
        assert_eq!(vd.max, 500);
    }

    #[test]
    fn summary_histograms_match_latencies() {
        let mut sink = MetricsSink::new();
        // Three blocks created 10 ms apart, each committed by a quorum of 3
        // with 31 ms latency.
        for b in 0..3u8 {
            let t0 = SimTime(10_000 * b as u64);
            sink.record_created(bid(b), View(b as u64 + 1), Height(b as u64 + 1), 0, t0);
            for i in 0..3u16 {
                sink.record_commit(NodeId(i), bid(b), t0 + SimDuration(31_000));
            }
        }
        let m = sink.summarise(3, SimDuration::from_secs(1));
        assert_eq!(m.commit_latency.count, 3);
        assert_eq!(m.commit_latency.min, 31_000);
        assert_eq!(m.commit_latency.max, 31_000);
        // p50 answers to 1 ms bucket resolution.
        assert!(m.commit_latency.p50 >= 31_000 && m.commit_latency.p50 <= 32_000);
        assert_eq!(m.block_period.count, 2);
        assert_eq!(m.block_period.min, 10_000);
        let json = m.to_json();
        assert!(json.contains("\"commit_latency\":{\"count\":3"));
        assert!(json.contains("\"block_period\""));
        assert!(json.contains("\"view_duration\""));
    }

    #[test]
    fn duplicate_commits_do_not_skew_latency() {
        // Regression guard: a node re-committing the same block later must
        // not move the quorum-commit time.
        let mut sink = MetricsSink::new();
        sink.record_created(bid(1), View(1), Height(1), 0, SimTime::ZERO);
        for i in 0..3u16 {
            sink.record_commit(NodeId(i), bid(1), SimTime(100));
        }
        sink.record_commit(NodeId(0), bid(1), SimTime(9_999));
        let m = sink.summarise(3, SimDuration::from_secs(1));
        assert_eq!(m.committed_blocks, 1);
        assert_eq!(m.avg_latency, Some(SimDuration(100)));
        assert_eq!(sink.commits_of(NodeId(0)), 1);
    }

    #[test]
    fn percentiles_ordered() {
        let mut sink = MetricsSink::new();
        for b in 0..100u8 {
            sink.record_created(bid(b), View(b as u64), Height(b as u64), 0, SimTime::ZERO);
            for i in 0..3u16 {
                sink.record_commit(NodeId(i), bid(b), SimTime(1_000 * (b as u64 + 1)));
            }
        }
        let m = sink.summarise(3, SimDuration::from_secs(1));
        assert!(m.p50_latency.unwrap() <= m.p99_latency.unwrap());
    }
}
