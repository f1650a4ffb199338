//! Maps protocol I/O to telemetry trace events.
//!
//! The state machines stay trace-unaware: a [`ProtocolObserver`] sits at the
//! single point every driver already has — the [`ConsensusProtocol`] call
//! boundary — and derives [`TraceEvent`]s from the messages going in and the
//! [`Output`]s coming out. Both drivers (the in-crate
//! [`LocalNet`](crate::harness::LocalNet) and `moonshot-sim`'s actor
//! adapter) instrument all protocols through this one hook, so Simple,
//! Pipelined and Commit Moonshot (and Jolteon) get identical tracing for
//! free.
//!
//! Certificate formation is observed at the *advertisement* point: the first
//! time a node sends any message carrying a QC (or TC) for a view above
//! everything it sent before, that certificate was just assembled or adopted
//! by the node. In Moonshot every honest node aggregates votes locally, so
//! each emits its own `QcFormed` per certified view — exactly the per-node
//! certificate work Table I's complexity columns count.

use moonshot_telemetry::{TraceEvent, TraceRecord, TraceSink};
use moonshot_types::time::SimTime;
use moonshot_types::{Block, NodeId, QuorumCertificate, View};

use crate::message::Message;
use crate::protocol::{Output, TimerToken};

/// Derives trace events for one node from its protocol I/O.
#[derive(Debug)]
pub struct ProtocolObserver {
    node: NodeId,
    last_view: Option<View>,
    high_qc: View,
    high_tc: View,
}

impl ProtocolObserver {
    /// An observer for `node`.
    pub fn new(node: NodeId) -> Self {
        ProtocolObserver { node, last_view: None, high_qc: View::GENESIS, high_tc: View::GENESIS }
    }

    fn emit(&self, sink: &mut dyn TraceSink, at: SimTime, event: TraceEvent) {
        sink.record(TraceRecord { at, event });
    }

    /// Observes a delivered message *before* the protocol handles it.
    pub fn on_message_received(
        &mut self,
        from: NodeId,
        msg: &Message,
        now: SimTime,
        sink: &mut dyn TraceSink,
    ) {
        let Some((view, block)) = msg.proposal() else { return };
        self.emit(
            sink,
            now,
            TraceEvent::ProposalReceived { node: self.node, from, view, block },
        );
    }

    /// Observes an expired timer *before* the protocol handles it.
    pub fn on_timer_fired(&mut self, token: TimerToken, now: SimTime, sink: &mut dyn TraceSink) {
        if let TimerToken::ViewTimer(view) = token {
            self.emit(sink, now, TraceEvent::TimeoutFired { node: self.node, view });
        }
    }

    /// Observes the outputs of one protocol callback, plus the node's view
    /// after handling it (for `ViewEntered` detection).
    pub fn on_outputs(
        &mut self,
        outputs: &[Output],
        view_after: View,
        now: SimTime,
        sink: &mut dyn TraceSink,
    ) {
        for out in outputs {
            match out {
                Output::Send(_, msg) | Output::Multicast(msg) => {
                    self.observe_outgoing(msg, now, sink);
                }
                Output::SetTimer { .. } => {}
                Output::Commit(c) => {
                    self.emit(
                        sink,
                        now,
                        TraceEvent::BlockCommitted {
                            node: self.node,
                            view: c.commit_view,
                            block: c.block.id(),
                            height: c.block.height(),
                            direct: c.direct,
                        },
                    );
                }
            }
        }
        if self.last_view != Some(view_after) {
            self.last_view = Some(view_after);
            self.emit(sink, now, TraceEvent::ViewEntered { node: self.node, view: view_after });
        }
    }

    fn observe_outgoing(&mut self, msg: &Message, now: SimTime, sink: &mut dyn TraceSink) {
        match msg {
            Message::OptPropose { block, view } => self.proposal_sent(*view, block, now, sink),
            Message::Propose { block, justify, view } => {
                self.note_qc(justify, now, sink);
                self.proposal_sent(*view, block, now, sink);
            }
            Message::FbPropose { block, justify, tc, view } => {
                self.note_qc(justify, now, sink);
                self.note_tc(tc.view(), now, sink);
                self.proposal_sent(*view, block, now, sink);
            }
            // The block was already disseminated optimistically; only the
            // justifying certificate is news.
            Message::CompactPropose { justify, .. } => self.note_qc(justify, now, sink),
            Message::Vote(v) => {
                self.emit(
                    sink,
                    now,
                    TraceEvent::VoteCast {
                        node: self.node,
                        view: v.vote.view,
                        block: v.vote.block_id,
                        commit_vote: false,
                    },
                );
            }
            Message::CommitVote(cv) => {
                self.emit(
                    sink,
                    now,
                    TraceEvent::VoteCast {
                        node: self.node,
                        view: cv.vote.view,
                        block: cv.vote.block_id,
                        commit_vote: true,
                    },
                );
            }
            Message::Certificate(qc) => self.note_qc(qc, now, sink),
            Message::TimeoutCert(tc) => self.note_tc(tc.view(), now, sink),
            Message::Status { lock, .. } => self.note_qc(lock, now, sink),
            Message::Timeout(_) => {} // covered by TimeoutFired
            Message::BlockRequest { block_id } => {
                self.emit(
                    sink,
                    now,
                    TraceEvent::SyncRequested { node: self.node, block: *block_id },
                );
            }
            Message::BlockResponse { .. } => {}
        }
    }

    fn proposal_sent(&self, view: View, block: &Block, now: SimTime, sink: &mut dyn TraceSink) {
        let (node, block, height) = (self.node, block.id(), block.height());
        self.emit(sink, now, TraceEvent::ProposalSent { node, view, block, height });
    }

    fn note_qc(&mut self, qc: &QuorumCertificate, now: SimTime, sink: &mut dyn TraceSink) {
        if qc.view() > self.high_qc {
            self.high_qc = qc.view();
            self.emit(
                sink,
                now,
                TraceEvent::QcFormed { node: self.node, view: qc.view(), block: qc.block_id() },
            );
        }
    }

    fn note_tc(&mut self, view: View, now: SimTime, sink: &mut dyn TraceSink) {
        if view > self.high_tc {
            self.high_tc = view;
            self.emit(sink, now, TraceEvent::TcFormed { node: self.node, view });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moonshot_crypto::KeyPair;
    use moonshot_telemetry::RingBufferSink;
    use moonshot_types::{Block, Payload, SignedVote, Vote, VoteKind};

    fn kinds(ring: &RingBufferSink) -> Vec<&'static str> {
        ring.iter().map(|r| r.event.kind()).collect()
    }

    #[test]
    fn proposal_and_view_entry_traced() {
        let mut obs = ProtocolObserver::new(NodeId(0));
        let mut ring = RingBufferSink::new(16);
        let block = Block::build(View(1), NodeId(0), &Block::genesis(), Payload::empty());
        let outs = vec![Output::Multicast(Message::OptPropose { block, view: View(1) })];
        obs.on_outputs(&outs, View(1), SimTime(5), &mut ring);
        assert_eq!(kinds(&ring), vec!["proposal-sent", "view-entered"]);
    }

    #[test]
    fn view_entered_only_on_change() {
        let mut obs = ProtocolObserver::new(NodeId(0));
        let mut ring = RingBufferSink::new(16);
        obs.on_outputs(&[], View(1), SimTime(0), &mut ring);
        obs.on_outputs(&[], View(1), SimTime(1), &mut ring);
        obs.on_outputs(&[], View(2), SimTime(2), &mut ring);
        assert_eq!(kinds(&ring), vec!["view-entered", "view-entered"]);
    }

    #[test]
    fn vote_cast_traced_for_send_and_multicast() {
        let mut obs = ProtocolObserver::new(NodeId(1));
        let mut ring = RingBufferSink::new(16);
        let block = Block::build(View(1), NodeId(0), &Block::genesis(), Payload::empty());
        let sv = SignedVote::sign(
            Vote {
                kind: VoteKind::Normal,
                block_id: block.id(),
                block_height: block.height(),
                view: View(1),
            },
            NodeId(1),
            &KeyPair::from_seed(1),
        );
        let outs = vec![
            Output::Multicast(Message::Vote(sv.clone())),
            Output::Send(NodeId(2), Message::Vote(sv)),
        ];
        obs.on_outputs(&outs, View(1), SimTime(0), &mut ring);
        let votes = ring.iter().filter(|r| r.event.kind() == "vote-cast").count();
        assert_eq!(votes, 2);
    }

    #[test]
    fn qc_formed_once_per_view() {
        let mut obs = ProtocolObserver::new(NodeId(0));
        let mut ring = RingBufferSink::new(16);
        let qc = QuorumCertificate::genesis();
        // The genesis certificate is nobody's achievement.
        obs.on_outputs(&[Output::Multicast(Message::Certificate(qc.clone()))], View(1), SimTime(0), &mut ring);
        let formed = ring.iter().filter(|r| r.event.kind() == "qc-formed").count();
        assert_eq!(formed, 0);
    }

    #[test]
    fn timer_and_sync_traced() {
        let mut obs = ProtocolObserver::new(NodeId(2));
        let mut ring = RingBufferSink::new(16);
        obs.on_timer_fired(TimerToken::ViewTimer(View(3)), SimTime(9), &mut ring);
        obs.on_timer_fired(TimerToken::ProposeTimer(View(3)), SimTime(9), &mut ring);
        let block = Block::build(View(1), NodeId(0), &Block::genesis(), Payload::empty());
        obs.on_outputs(
            &[Output::Send(NodeId(0), Message::BlockRequest { block_id: block.id() })],
            View(3),
            SimTime(10),
            &mut ring,
        );
        assert_eq!(kinds(&ring), vec!["timeout-fired", "sync-requested", "view-entered"]);
    }

    #[test]
    fn proposal_received_traced() {
        let mut obs = ProtocolObserver::new(NodeId(1));
        let mut ring = RingBufferSink::new(16);
        let block = Block::build(View(1), NodeId(0), &Block::genesis(), Payload::empty());
        let msg = Message::OptPropose { block, view: View(1) };
        obs.on_message_received(NodeId(0), &msg, SimTime(3), &mut ring);
        let rec = ring.iter().next().unwrap();
        assert_eq!(rec.event.kind(), "proposal-received");
        assert_eq!(rec.at, SimTime(3));
    }
}
