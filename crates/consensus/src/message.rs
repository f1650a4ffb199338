//! The protocol wire messages.
//!
//! One [`Message`] enum covers all four protocols (the Moonshot family and
//! Jolteon); each protocol uses the subset its figures define. Sharing the
//! enum keeps the simulator monomorphic and lets experiments swap protocols
//! without reconfiguring the transport.

use std::fmt;

use moonshot_types::wire::{ENVELOPE_WIRE, U64_WIRE};
use moonshot_types::{
    Block, QuorumCertificate, SignedCommitVote, SignedTimeout, SignedVote, TimeoutCertificate,
    View, WireSize,
};

/// A consensus protocol message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// `⟨opt-propose, B_k, v⟩` — optimistic proposal: extends a block the
    /// leader just voted for, without waiting for its certificate.
    OptPropose {
        /// The proposed block.
        block: Block,
        /// The view proposed for.
        view: View,
    },
    /// `⟨propose, B_k, C(B_h), v⟩` — normal proposal justified by a block
    /// certificate.
    Propose {
        /// The proposed block.
        block: Block,
        /// The certificate for the parent chain.
        justify: QuorumCertificate,
        /// The view proposed for.
        view: View,
    },
    /// `⟨fb-propose, B_k, C(B_h), TC_{v−1}, v⟩` — fallback proposal after a
    /// failed view, justified by the leader's lock and the TC.
    FbPropose {
        /// The proposed block.
        block: Block,
        /// The leader's lock (must rank ≥ the TC's high-QC).
        justify: QuorumCertificate,
        /// The timeout certificate for the previous view.
        tc: TimeoutCertificate,
        /// The view proposed for.
        view: View,
    },
    /// A normal proposal whose block was already disseminated in this view's
    /// optimistic proposal (payloads are fixed per view, so the blocks are
    /// bit-identical). Re-sending only the reference avoids paying the
    /// payload broadcast twice — the obvious implementation of the paper's
    /// "propose twice" requirement.
    CompactPropose {
        /// Hash of the already-disseminated block.
        block_id: moonshot_types::BlockId,
        /// The certificate for the parent chain.
        justify: QuorumCertificate,
        /// The view proposed for.
        view: View,
    },
    /// A signed vote, multicast (Moonshot) or unicast to the next leader
    /// (Jolteon).
    Vote(SignedVote),
    /// A signed timeout message, optionally carrying the sender's lock.
    Timeout(SignedTimeout),
    /// A block certificate forwarded on its own (view-entry multicast,
    /// Simple Moonshot status messages, Jolteon sync).
    Certificate(QuorumCertificate),
    /// A timeout certificate forwarded on its own.
    TimeoutCert(TimeoutCertificate),
    /// Simple Moonshot `⟨status, v, lock⟩` unicast to the new leader.
    Status {
        /// The view being entered.
        view: View,
        /// The sender's lock.
        lock: QuorumCertificate,
    },
    /// Commit Moonshot `⟨commit, H(B_k), v⟩` pre-commit vote.
    CommitVote(SignedCommitVote),
    /// Block synchronisation: ask a peer for a certified-but-missing block.
    BlockRequest {
        /// The block being fetched.
        block_id: moonshot_types::BlockId,
    },
    /// Block synchronisation: a served block.
    BlockResponse {
        /// The requested block.
        block: Block,
    },
}

impl Message {
    /// Short tag for logs and traces.
    pub fn tag(&self) -> &'static str {
        match self {
            Message::OptPropose { .. } => "opt-propose",
            Message::Propose { .. } => "propose",
            Message::FbPropose { .. } => "fb-propose",
            Message::CompactPropose { .. } => "compact-propose",
            Message::Vote(_) => "vote",
            Message::Timeout(_) => "timeout",
            Message::Certificate(_) => "certificate",
            Message::TimeoutCert(_) => "timeout-cert",
            Message::Status { .. } => "status",
            Message::CommitVote(_) => "commit-vote",
            Message::BlockRequest { .. } => "block-request",
            Message::BlockResponse { .. } => "block-response",
        }
    }

    /// The view and block a proposal message (of any of the four kinds)
    /// proposes; `None` for every other message.
    pub fn proposal(&self) -> Option<(View, moonshot_types::BlockId)> {
        match self {
            Message::OptPropose { block, view }
            | Message::Propose { block, view, .. }
            | Message::FbPropose { block, view, .. } => Some((*view, block.id())),
            Message::CompactPropose { block_id, view, .. } => Some((*view, *block_id)),
            _ => None,
        }
    }

    /// The certificates a proposal embeds — its justification and, for a
    /// fallback proposal, the TC — which a receiver takes in (Advance View,
    /// Lock) before it looks at the proposal itself.
    pub fn embedded(&self) -> (Option<&QuorumCertificate>, Option<&TimeoutCertificate>) {
        match self {
            Message::Propose { justify, .. } | Message::CompactPropose { justify, .. } => {
                (Some(justify), None)
            }
            Message::FbPropose { justify, tc, .. } => (Some(justify), Some(tc)),
            _ => (None, None),
        }
    }

    /// Whether this is one of the proposal message types.
    pub fn is_proposal(&self) -> bool {
        self.proposal().is_some()
    }
}

impl WireSize for Message {
    fn wire_size(&self) -> usize {
        ENVELOPE_WIRE
            + match self {
                Message::OptPropose { block, .. } => block.wire_size() + U64_WIRE,
                Message::Propose { block, justify, .. } => {
                    block.wire_size() + justify.wire_size() + U64_WIRE
                }
                Message::FbPropose { block, justify, tc, .. } => {
                    block.wire_size() + justify.wire_size() + tc.wire_size() + U64_WIRE
                }
                Message::CompactPropose { justify, .. } => {
                    moonshot_types::wire::DIGEST_WIRE + justify.wire_size() + U64_WIRE
                }
                Message::Vote(v) => v.wire_size(),
                Message::Timeout(t) => t.wire_size(),
                Message::Certificate(qc) => qc.wire_size(),
                Message::TimeoutCert(tc) => tc.wire_size(),
                Message::Status { lock, .. } => U64_WIRE + lock.wire_size(),
                Message::CommitVote(cv) => cv.wire_size(),
                Message::BlockRequest { .. } => moonshot_types::wire::DIGEST_WIRE,
                Message::BlockResponse { block } => block.wire_size(),
            }
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Message::OptPropose { block, view } => write!(f, "opt-propose({block} {view})"),
            Message::Propose { block, view, justify } => {
                write!(f, "propose({block} {view} justify={justify})")
            }
            Message::FbPropose { block, view, .. } => write!(f, "fb-propose({block} {view})"),
            Message::CompactPropose { block_id, view, .. } => {
                write!(f, "compact-propose({} {view})", block_id.short())
            }
            Message::Vote(v) => write!(f, "{}({} {})", v.vote.kind, v.vote.block_id.short(), v.vote.view),
            Message::Timeout(t) => write!(f, "timeout({})", t.view()),
            Message::Certificate(qc) => write!(f, "certificate({qc})"),
            Message::TimeoutCert(tc) => write!(f, "timeout-cert(v{})", tc.view().0),
            Message::Status { view, lock } => write!(f, "status({view} lock={lock})"),
            Message::CommitVote(cv) => {
                write!(f, "commit-vote({} {})", cv.vote.block_id.short(), cv.vote.view)
            }
            Message::BlockRequest { block_id } => write!(f, "block-request({})", block_id.short()),
            Message::BlockResponse { block } => write!(f, "block-response({block})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moonshot_crypto::KeyPair;
    use moonshot_types::{Height, NodeId, Payload, Vote, VoteKind};

    fn sample_block(bytes: u64) -> Block {
        Block::build(
            View(1),
            NodeId(0),
            &Block::genesis(),
            Payload::synthetic_bytes(bytes, 1),
        )
    }

    #[test]
    fn proposal_wire_size_dominated_by_payload() {
        let small = Message::OptPropose { block: sample_block(1_800), view: View(1) };
        let large = Message::OptPropose { block: sample_block(1_800_000), view: View(1) };
        assert!(large.wire_size() > 100 * small.wire_size());
    }

    #[test]
    fn vote_is_small() {
        let sv = SignedVote::sign(
            Vote {
                kind: VoteKind::Normal,
                block_id: sample_block(0).id(),
                block_height: Height(1),
                view: View(1),
            },
            NodeId(0),
            &KeyPair::from_seed(0),
        );
        let msg = Message::Vote(sv);
        assert!(msg.wire_size() < 200);
        assert_eq!(msg.tag(), "vote");
    }

    #[test]
    fn proposal_classification() {
        let m = Message::OptPropose { block: sample_block(0), view: View(1) };
        assert!(m.is_proposal());
        let qc = QuorumCertificate::genesis();
        assert!(!Message::Certificate(qc).is_proposal());
    }

    #[test]
    fn tags_are_distinct() {
        let qc = QuorumCertificate::genesis();
        let msgs = [
            Message::OptPropose { block: sample_block(0), view: View(1) },
            Message::Propose { block: sample_block(0), justify: qc.clone(), view: View(1) },
            Message::Certificate(qc.clone()),
            Message::Status { view: View(1), lock: qc },
        ];
        let tags: std::collections::HashSet<_> = msgs.iter().map(|m| m.tag()).collect();
        assert_eq!(tags.len(), msgs.len());
    }
}
