//! Run metrics, matching §VI of the paper, folded from a run's trace.
//!
//! [`MetricsFold`] is a [`TraceSink`] that reads the paper's numbers off
//! the records every node emits, in the simulator and in a localhost
//! cluster's merged trace alike. It is the one place that decides when a
//! block was created (its first `ProposalSent`) and when it was committed:
//! once a quorum of distinct nodes committed it (the certificate quorum
//! `⌊(n + f)/2⌋ + 1`, `2f + 1` at `n = 3f + 1`), at the quorum-th node's
//! first `BlockCommitted` ([`MetricsFold::quorum_commits`]). From that:
//! throughput (committed blocks), transfer rate (their payload bytes per
//! second), latency (creation → commit, as the paper's average and as a
//! distribution), the block period ω (gaps between creations) and view
//! durations (τ-timeout views show up as the tail).

use std::collections::HashMap;

use moonshot_types::time::{SimDuration, SimTime};
use moonshot_types::{BlockId, NodeId, View};

use crate::event::{TraceEvent, TraceRecord};
use crate::histogram::{Histogram, HistogramSummary};
use crate::sink::TraceSink;

/// Folds the trace records of all nodes of a run into its [`RunMetrics`].
#[derive(Clone, Debug, Default)]
pub struct MetricsFold {
    /// Each block's creation time and payload bytes (its first
    /// `ProposalSent`).
    created: HashMap<BlockId, (SimTime, u64)>,
    /// Each block's committers, with the time of their first commit.
    commits: HashMap<BlockId, Vec<(NodeId, SimTime)>>,
    /// Highest view entered per node, with when it was entered. A restarted
    /// node's lower views are ignored until it passes its old high.
    views: HashMap<NodeId, (View, SimTime)>,
    /// Completed per-node view durations, in microseconds.
    view_durations_us: Vec<u64>,
}

/// One block a quorum of nodes committed — see
/// [`MetricsFold::quorum_commits`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuorumCommit {
    /// The committed block.
    pub block: BlockId,
    /// The quorum-th distinct committer's first commit of the block.
    pub committed_at: SimTime,
    /// The block's creation — its first `ProposalSent` — as `(time,
    /// payload bytes)`, if the trace holds it.
    pub created: Option<(SimTime, u64)>,
}

impl TraceSink for MetricsFold {
    fn record(&mut self, rec: TraceRecord) {
        match rec.event {
            TraceEvent::ProposalSent { block, bytes, .. } => {
                self.created.entry(block).or_insert((rec.at, bytes));
            }
            TraceEvent::BlockCommitted { node, block, .. } => {
                let committers = self.commits.entry(block).or_default();
                if committers.iter().all(|(n, _)| *n != node) {
                    committers.push((node, rec.at));
                }
            }
            TraceEvent::ViewEntered { node, view } => match self.views.get_mut(&node) {
                None => {
                    self.views.insert(node, (view, rec.at));
                }
                Some((current, entered_at)) if view > *current => {
                    self.view_durations_us.push(rec.at.since(*entered_at).as_micros());
                    *current = view;
                    *entered_at = rec.at;
                }
                Some(_) => {}
            },
            _ => {}
        }
    }
}

impl MetricsFold {
    /// A fold that has seen nothing yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of blocks committed by `node`.
    pub fn commits_of(&self, node: NodeId) -> u64 {
        self.commits.values().filter(|c| c.iter().any(|(n, _)| *n == node)).count() as u64
    }

    /// The highest view any node reached.
    pub fn max_view(&self) -> View {
        self.views.values().map(|(v, _)| *v).max().unwrap_or(View::GENESIS)
    }

    /// Every block at least `quorum` distinct nodes committed, in no
    /// particular order, each with its quorum commit time and creation.
    pub fn quorum_commits(&self, quorum: usize) -> impl Iterator<Item = QuorumCommit> + '_ {
        self.commits.iter().filter(move |(_, c)| c.len() >= quorum).map(move |(block, c)| {
            let mut times: Vec<SimTime> = c.iter().map(|(_, t)| *t).collect();
            times.sort();
            QuorumCommit {
                block: *block,
                committed_at: times[quorum - 1],
                created: self.created.get(block).copied(),
            }
        })
    }

    /// Summarises the run: a reduction over
    /// [`quorum_commits`](MetricsFold::quorum_commits) plus the creation
    /// and view records. `quorum` is the quorum threshold; `duration` the
    /// wall-clock length of the run.
    pub fn summarise(&self, quorum: usize, duration: SimDuration) -> RunMetrics {
        let (mut committed_blocks, mut committed_payload_bytes) = (0u64, 0u64);
        let mut latency_sum_us = 0u64;
        let mut commit_hist = Histogram::for_latency_us();
        for commit in self.quorum_commits(quorum) {
            committed_blocks += 1;
            if let Some((created, bytes)) = commit.created {
                let latency_us = commit.committed_at.since(created).as_micros();
                committed_payload_bytes += bytes;
                latency_sum_us += latency_us;
                commit_hist.record(latency_us);
            }
        }
        let mut period_hist = Histogram::for_latency_us();
        let mut created: Vec<SimTime> = self.created.values().map(|&(at, _)| at).collect();
        created.sort();
        for pair in created.windows(2) {
            period_hist.record(pair[1].since(pair[0]).as_micros());
        }
        let mut view_hist = Histogram::for_latency_us();
        for &d in &self.view_durations_us {
            view_hist.record(d);
        }
        let latencies = commit_hist.count();

        RunMetrics {
            committed_blocks,
            committed_payload_bytes,
            duration,
            avg_latency: (latencies > 0).then(|| SimDuration(latency_sum_us / latencies)),
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
        let mut o = crate::json::JsonObject::new();
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
    use moonshot_types::Height;

    fn bid(i: u8) -> BlockId {
        BlockId::hash(&[i])
    }

    fn record(sink: &mut MetricsFold, at: SimTime, event: TraceEvent) {
        sink.record(TraceRecord { at, event });
    }

    fn created(sink: &mut MetricsFold, block: BlockId, bytes: u64, at: SimTime) {
        let (node, view, height) = (NodeId(0), View(1), Height(1));
        record(sink, at, TraceEvent::ProposalSent { node, view, block, height, bytes });
    }

    fn commit(sink: &mut MetricsFold, node: NodeId, block: BlockId, at: SimTime) {
        let (view, height, direct) = (View(1), Height(1), true);
        record(sink, at, TraceEvent::BlockCommitted { node, view, block, height, direct });
    }

    fn view(sink: &mut MetricsFold, node: NodeId, view: View, at: SimTime) {
        record(sink, at, TraceEvent::ViewEntered { node, view });
    }

    #[test]
    fn quorum_commit_counted() {
        let mut sink = MetricsFold::new();
        created(&mut sink, bid(1), 180, SimTime(1_000));
        for i in 0..3u16 {
            commit(&mut sink, NodeId(i), bid(1), SimTime(31_000 + i as u64));
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
    fn quorum_commits_list_the_quorum_th_commit_and_the_creation() {
        let mut sink = MetricsFold::new();
        created(&mut sink, bid(1), 180, SimTime(2_500));
        for (i, at) in [3_500, 9_000, 3_900, 4_200].into_iter().enumerate() {
            commit(&mut sink, NodeId(i as u16), bid(1), SimTime(at));
        }
        // A quorum-committed block whose creation the trace lost.
        for i in 0..3u16 {
            commit(&mut sink, NodeId(i), bid(2), SimTime(5_000));
        }
        let mut commits: Vec<QuorumCommit> = sink.quorum_commits(3).collect();
        commits.sort_by_key(|c| c.committed_at);
        let first = QuorumCommit {
            block: bid(1),
            committed_at: SimTime(4_200),
            created: Some((SimTime(2_500), 180)),
        };
        let second = QuorumCommit { block: bid(2), committed_at: SimTime(5_000), created: None };
        assert_eq!(commits, vec![first, second]);
        let m = sink.summarise(3, SimDuration::from_secs(1));
        assert_eq!((m.committed_blocks, m.committed_payload_bytes), (2, 180));
        assert_eq!(m.avg_latency, Some(SimDuration(1_700)));
    }

    #[test]
    fn below_quorum_not_counted() {
        let mut sink = MetricsFold::new();
        created(&mut sink, bid(1), 0, SimTime::ZERO);
        commit(&mut sink, NodeId(0), bid(1), SimTime(10));
        commit(&mut sink, NodeId(1), bid(1), SimTime(20));
        let m = sink.summarise(3, SimDuration::from_secs(1));
        assert_eq!(m.committed_blocks, 0);
        assert!(m.avg_latency.is_none());
    }

    #[test]
    fn duplicate_commits_by_same_node_ignored() {
        let mut sink = MetricsFold::new();
        created(&mut sink, bid(1), 0, SimTime::ZERO);
        commit(&mut sink, NodeId(0), bid(1), SimTime(10));
        commit(&mut sink, NodeId(0), bid(1), SimTime(20));
        assert_eq!(sink.commits_of(NodeId(0)), 1);
    }

    #[test]
    fn creation_recorded_once() {
        let mut sink = MetricsFold::new();
        created(&mut sink, bid(1), 10, SimTime(5));
        created(&mut sink, bid(1), 99, SimTime(50));
        for i in 0..3u16 {
            commit(&mut sink, NodeId(i), bid(1), SimTime(100));
        }
        let m = sink.summarise(3, SimDuration::from_secs(1));
        assert_eq!(m.committed_payload_bytes, 10);
        assert_eq!(m.avg_latency, Some(SimDuration(95)));
    }

    #[test]
    fn max_view_tracked() {
        let mut sink = MetricsFold::new();
        view(&mut sink, NodeId(0), View(10), SimTime(100));
        view(&mut sink, NodeId(1), View(12), SimTime(100));
        assert_eq!(sink.max_view(), View(12));
    }

    #[test]
    fn view_durations_measured_per_node() {
        let mut sink = MetricsFold::new();
        // Node 0: view 1 for 100 µs, view 2 for 200 µs, then still in 3.
        view(&mut sink, NodeId(0), View(1), SimTime(0));
        view(&mut sink, NodeId(0), View(1), SimTime(50)); // same view: no-op
        view(&mut sink, NodeId(0), View(2), SimTime(100));
        view(&mut sink, NodeId(0), View(3), SimTime(300));
        // Node 1: one completed view of 500 µs.
        view(&mut sink, NodeId(1), View(1), SimTime(0));
        view(&mut sink, NodeId(1), View(2), SimTime(500));
        let m = sink.summarise(3, SimDuration::from_secs(1));
        let vd = m.view_duration;
        assert_eq!(vd.count, 3);
        assert_eq!(vd.min, 100);
        assert_eq!(vd.max, 500);
    }

    #[test]
    fn a_restarted_node_counts_views_only_past_its_old_high() {
        let mut sink = MetricsFold::new();
        let (t1, t2) = (SimTime(1_000), SimTime(9_000));
        view(&mut sink, NodeId(3), View(5), t1);
        record(&mut sink, SimTime(2_000), TraceEvent::NodeRestarted { node: NodeId(3) });
        view(&mut sink, NodeId(3), View(1), SimTime(3_000));
        view(&mut sink, NodeId(3), View(6), t2);
        let m = sink.summarise(3, SimDuration::from_secs(1));
        assert_eq!(m.view_duration.count, 1);
        assert_eq!(m.view_duration.min, t2.since(t1).as_micros());
        assert_eq!(m.max_view, View(6));
    }

    #[test]
    fn summary_histograms_match_latencies() {
        let mut sink = MetricsFold::new();
        // Three blocks created 10 ms apart, each committed by a quorum of 3
        // with 31 ms latency.
        for b in 0..3u8 {
            let t0 = SimTime(10_000 * b as u64);
            created(&mut sink, bid(b), 0, t0);
            for i in 0..3u16 {
                commit(&mut sink, NodeId(i), bid(b), t0 + SimDuration(31_000));
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
        let mut sink = MetricsFold::new();
        created(&mut sink, bid(1), 0, SimTime::ZERO);
        for i in 0..3u16 {
            commit(&mut sink, NodeId(i), bid(1), SimTime(100));
        }
        commit(&mut sink, NodeId(0), bid(1), SimTime(9_999));
        let m = sink.summarise(3, SimDuration::from_secs(1));
        assert_eq!(m.committed_blocks, 1);
        assert_eq!(m.avg_latency, Some(SimDuration(100)));
        assert_eq!(sink.commits_of(NodeId(0)), 1);
    }

    #[test]
    fn percentiles_ordered() {
        let mut sink = MetricsFold::new();
        for b in 0..100u8 {
            created(&mut sink, bid(b), 0, SimTime::ZERO);
            for i in 0..3u16 {
                commit(&mut sink, NodeId(i), bid(b), SimTime(1_000 * (b as u64 + 1)));
            }
        }
        let lat = sink.summarise(3, SimDuration::from_secs(1)).commit_latency;
        assert!(lat.p50 <= lat.p90 && lat.p90 <= lat.p99 && lat.p99 <= lat.max);
    }
}
