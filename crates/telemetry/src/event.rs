//! The structured trace-event taxonomy.
//!
//! One [`TraceEvent`] per observable protocol action, covering everything the
//! paper's timing diagrams (Figs. 2–5) talk about: proposals, votes,
//! certificate formation, view entry, timeouts and commits. Events are plain
//! `Copy` structs of ids and integers — recording one into a ring buffer
//! allocates nothing, so tracing can stay on in every simulation run.

use moonshot_types::time::SimTime;
use moonshot_types::{BlockId, Height, NodeId, View};

/// A single observable protocol action, without its timestamp.
///
/// The `node` field is always the node the event happened *at*: the sender
/// for `ProposalSent`/`VoteCast`, the receiver for `ProposalReceived`, the
/// local observer for certificate formation and commits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A leader multicast a full proposal for `block`.
    ProposalSent {
        /// The proposing leader.
        node: NodeId,
        /// The view proposed for.
        view: View,
        /// The proposed block.
        block: BlockId,
        /// Its chain height.
        height: Height,
        /// Its payload size in bytes.
        bytes: u64,
    },
    /// A node received a proposal (any of the four proposal message types).
    ProposalReceived {
        /// The receiving node.
        node: NodeId,
        /// The proposing leader it came from.
        from: NodeId,
        /// The view proposed for.
        view: View,
        /// The proposed block.
        block: BlockId,
    },
    /// A node cast (multicast or sent) a block or commit vote.
    VoteCast {
        /// The voting node.
        node: NodeId,
        /// The vote's view.
        view: View,
        /// The block voted for.
        block: BlockId,
        /// `true` for Commit Moonshot's explicit commit votes.
        commit_vote: bool,
    },
    /// A node first advertised a quorum certificate for `view` — in
    /// Moonshot every node aggregates votes locally, so each honest node
    /// emits this once per certified view.
    QcFormed {
        /// The node that assembled (or first relayed) the certificate.
        node: NodeId,
        /// The certified view.
        view: View,
        /// The certified block.
        block: BlockId,
    },
    /// A node first advertised a timeout certificate for `view`.
    TcFormed {
        /// The node that assembled (or first relayed) the certificate.
        node: NodeId,
        /// The timed-out view.
        view: View,
    },
    /// A node's view-failure timer (τ) expired.
    TimeoutFired {
        /// The node whose timer fired.
        node: NodeId,
        /// The view that timed out.
        view: View,
    },
    /// A node advanced into `view`.
    ViewEntered {
        /// The advancing node.
        node: NodeId,
        /// The view entered.
        view: View,
    },
    /// A node committed `block`.
    BlockCommitted {
        /// The committing node.
        node: NodeId,
        /// The view whose certificate triggered the commit.
        view: View,
        /// The committed block.
        block: BlockId,
        /// Its chain height.
        height: Height,
        /// `true` for a direct commit, `false` for an ancestor swept up
        /// indirectly.
        direct: bool,
    },
    /// A node asked a peer for a certified-but-missing block.
    SyncRequested {
        /// The requesting node.
        node: NodeId,
        /// The missing block.
        block: BlockId,
    },
    /// A node crashed and came back with a *fresh* state machine. Trace
    /// checkers must reset their per-node expectations (view and commit
    /// monotonicity) at this point; cross-node agreement still holds.
    NodeRestarted {
        /// The restarted node.
        node: NodeId,
    },
    /// A batch of transactions was sealed (framed and hashed) and pushed to
    /// every peer. The record's timestamp is the *seal* time, in the driver
    /// step that pushed the batch — stage analysis sorts by timestamp first.
    ///
    /// `batch` is the payload digest: the span id that correlates this
    /// event with the block that later carries the batch (a block's
    /// payload digest equals its batch digest).
    BatchSealed {
        /// The node that sealed the batch.
        node: NodeId,
        /// Digest of the sealed batch payload.
        batch: BlockId,
        /// Transactions in the batch.
        txs: u64,
        /// Framed batch size in bytes.
        bytes: u64,
    },
    /// A batch became locally resolvable on the dissemination plane — a
    /// `BatchPush`, a fetched `BatchResponse`, or the node's own seal
    /// landed in its `BatchStore`.
    BatchStored {
        /// The node whose store now resolves the batch.
        node: NodeId,
        /// The batch digest.
        batch: BlockId,
    },
    /// One batch reference of a committed digest-only block was resolved
    /// (or not) against the committing node's `BatchStore` at commit time.
    /// The committed-batch-availability invariant requires `resolved` on
    /// every record: a committed ref an honest node cannot materialise
    /// means dissemination (push + fetch fallback) failed its contract.
    BatchCommitted {
        /// The committing node.
        node: NodeId,
        /// The referenced batch digest.
        batch: BlockId,
        /// Whether the node's store resolved the digest at commit time.
        resolved: bool,
    },
    /// The driver's stall watchdog fired: no commit landed within its
    /// threshold (k× the expected block period). Carries a state snapshot
    /// so wedges become diagnosable artifacts instead of silent timeouts.
    Stall {
        /// The stalled node.
        node: NodeId,
        /// The view the node is stuck in.
        view: View,
        /// Highest height this node has committed.
        height: Height,
        /// Messages the node holds undelivered: its own, queued for its
        /// next step, and those its vote gate parks.
        inbound: u64,
        /// Timers armed in the driver's timer queue.
        timers: u64,
        /// Transactions pending in the mempool (0 without a data path).
        mempool: u64,
    },
}

impl TraceEvent {
    /// Short kind tag, stable across versions (used as the JSONL `kind`
    /// field and in per-kind counters).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::ProposalSent { .. } => "proposal-sent",
            TraceEvent::ProposalReceived { .. } => "proposal-received",
            TraceEvent::VoteCast { .. } => "vote-cast",
            TraceEvent::QcFormed { .. } => "qc-formed",
            TraceEvent::TcFormed { .. } => "tc-formed",
            TraceEvent::TimeoutFired { .. } => "timeout-fired",
            TraceEvent::ViewEntered { .. } => "view-entered",
            TraceEvent::BlockCommitted { .. } => "block-committed",
            TraceEvent::SyncRequested { .. } => "sync-requested",
            TraceEvent::NodeRestarted { .. } => "node-restarted",
            TraceEvent::BatchSealed { .. } => "batch-sealed",
            TraceEvent::BatchStored { .. } => "batch-stored",
            TraceEvent::BatchCommitted { .. } => "batch-committed",
            TraceEvent::Stall { .. } => "stall",
        }
    }

    /// The node this event happened at.
    pub fn node(&self) -> NodeId {
        match *self {
            TraceEvent::ProposalSent { node, .. }
            | TraceEvent::ProposalReceived { node, .. }
            | TraceEvent::VoteCast { node, .. }
            | TraceEvent::QcFormed { node, .. }
            | TraceEvent::TcFormed { node, .. }
            | TraceEvent::TimeoutFired { node, .. }
            | TraceEvent::ViewEntered { node, .. }
            | TraceEvent::BlockCommitted { node, .. }
            | TraceEvent::SyncRequested { node, .. }
            | TraceEvent::NodeRestarted { node, .. }
            | TraceEvent::BatchSealed { node, .. }
            | TraceEvent::BatchStored { node, .. }
            | TraceEvent::BatchCommitted { node, .. }
            | TraceEvent::Stall { node, .. } => node,
        }
    }
}

/// A timestamped [`TraceEvent`] — what sinks actually store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// When the event happened, in simulated time.
    pub at: SimTime,
    /// The event.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Serialises the record as one flat JSON object (one JSONL line,
    /// without the trailing newline).
    pub fn to_json(&self) -> String {
        use crate::json::JsonObject;
        let mut o = JsonObject::new();
        o.field_u64("at_us", self.at.0);
        o.field_str("kind", self.event.kind());
        o.field_u64("node", self.event.node().0 as u64);
        match self.event {
            TraceEvent::ProposalSent { view, block, height, bytes, .. } => {
                o.field_u64("view", view.0);
                o.field_str("block", &block.short());
                o.field_u64("height", height.0);
                o.field_u64("bytes", bytes);
            }
            TraceEvent::ProposalReceived { from, view, block, .. } => {
                o.field_u64("from", from.0 as u64);
                o.field_u64("view", view.0);
                o.field_str("block", &block.short());
            }
            TraceEvent::VoteCast { view, block, commit_vote, .. } => {
                o.field_u64("view", view.0);
                o.field_str("block", &block.short());
                o.field_bool("commit_vote", commit_vote);
            }
            TraceEvent::QcFormed { view, block, .. } => {
                o.field_u64("view", view.0);
                o.field_str("block", &block.short());
            }
            TraceEvent::TcFormed { view, .. } | TraceEvent::TimeoutFired { view, .. } => {
                o.field_u64("view", view.0);
            }
            TraceEvent::ViewEntered { view, .. } => {
                o.field_u64("view", view.0);
            }
            TraceEvent::BlockCommitted { view, block, height, direct, .. } => {
                o.field_u64("view", view.0);
                o.field_str("block", &block.short());
                o.field_u64("height", height.0);
                o.field_bool("direct", direct);
            }
            TraceEvent::SyncRequested { block, .. } => {
                o.field_str("block", &block.short());
            }
            TraceEvent::NodeRestarted { .. } => {}
            TraceEvent::BatchSealed { batch, txs, bytes, .. } => {
                o.field_str("batch", &batch.short());
                o.field_u64("txs", txs);
                o.field_u64("bytes", bytes);
            }
            TraceEvent::BatchStored { batch, .. } => {
                o.field_str("batch", &batch.short());
            }
            TraceEvent::BatchCommitted { batch, resolved, .. } => {
                o.field_str("batch", &batch.short());
                o.field_bool("resolved", resolved);
            }
            TraceEvent::Stall { view, height, inbound, timers, mempool, .. } => {
                o.field_u64("view", view.0);
                o.field_u64("height", height.0);
                o.field_u64("inbound", inbound);
                o.field_u64("timers", timers);
                o.field_u64("mempool", mempool);
            }
        }
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bid() -> BlockId {
        BlockId::hash(b"x")
    }

    #[test]
    fn events_are_copy_and_tagged() {
        let e = TraceEvent::ViewEntered { node: NodeId(3), view: View(7) };
        let e2 = e; // Copy
        assert_eq!(e, e2);
        assert_eq!(e.kind(), "view-entered");
        assert_eq!(e.node(), NodeId(3));
    }

    #[test]
    fn kinds_are_distinct() {
        let events = [
            TraceEvent::ProposalSent {
                node: NodeId(0),
                view: View(1),
                block: bid(),
                height: Height(1),
                bytes: 180,
            },
            TraceEvent::ProposalReceived {
                node: NodeId(1),
                from: NodeId(0),
                view: View(1),
                block: bid(),
            },
            TraceEvent::VoteCast { node: NodeId(1), view: View(1), block: bid(), commit_vote: false },
            TraceEvent::QcFormed { node: NodeId(1), view: View(1), block: bid() },
            TraceEvent::TcFormed { node: NodeId(1), view: View(1) },
            TraceEvent::TimeoutFired { node: NodeId(1), view: View(1) },
            TraceEvent::ViewEntered { node: NodeId(1), view: View(2) },
            TraceEvent::BlockCommitted {
                node: NodeId(1),
                view: View(3),
                block: bid(),
                height: Height(1),
                direct: true,
            },
            TraceEvent::SyncRequested { node: NodeId(1), block: bid() },
            TraceEvent::NodeRestarted { node: NodeId(1) },
            TraceEvent::BatchSealed { node: NodeId(1), batch: bid(), txs: 10, bytes: 1_800 },
            TraceEvent::BatchStored { node: NodeId(1), batch: bid() },
            TraceEvent::BatchCommitted { node: NodeId(1), batch: bid(), resolved: true },
            TraceEvent::Stall {
                node: NodeId(1),
                view: View(9),
                height: Height(4),
                inbound: 3,
                timers: 2,
                mempool: 100,
            },
        ];
        let kinds: std::collections::HashSet<_> = events.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds.len(), events.len());
    }

    #[test]
    fn json_line_is_flat_and_tagged() {
        let rec = TraceRecord {
            at: SimTime(1_234),
            event: TraceEvent::BlockCommitted {
                node: NodeId(2),
                view: View(5),
                block: bid(),
                height: Height(4),
                direct: true,
            },
        };
        let line = rec.to_json();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"at_us\":1234"));
        assert!(line.contains("\"kind\":\"block-committed\""));
        assert!(line.contains("\"direct\":true"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn stage_events_serialise_their_snapshots() {
        let sealed = TraceRecord {
            at: SimTime(77),
            event: TraceEvent::BatchSealed {
                node: NodeId(1),
                batch: bid(),
                txs: 12,
                bytes: 2_160,
            },
        };
        let line = sealed.to_json();
        assert!(line.contains("\"kind\":\"batch-sealed\""));
        assert!(line.contains("\"txs\":12"));
        assert!(line.contains("\"bytes\":2160"));

        let stall = TraceRecord {
            at: SimTime(99),
            event: TraceEvent::Stall {
                node: NodeId(2),
                view: View(41),
                height: Height(7),
                inbound: 5,
                timers: 1,
                mempool: 300,
            },
        };
        let line = stall.to_json();
        assert!(line.contains("\"kind\":\"stall\""));
        assert!(line.contains("\"view\":41"));
        assert!(line.contains("\"inbound\":5"));
        assert!(line.contains("\"mempool\":300"));
    }
}
