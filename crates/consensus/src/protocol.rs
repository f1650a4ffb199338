//! The sans-IO protocol interface.
//!
//! Every consensus protocol in this crate is a deterministic state machine:
//! the caller feeds it messages and timer expirations, and it returns
//! [`Output`]s (sends, multicasts, timers, commits). The state machines know
//! nothing about the transport, which makes them runnable both under the
//! discrete-event simulator (`moonshot-sim`) and in unit/property tests that
//! deliver messages in adversarial orders.

use std::fmt;
use std::sync::Arc;

use moonshot_crypto::{KeyPair, Keyring, VerifiedCache};
use moonshot_types::time::{SimDuration, SimTime};
use moonshot_types::{
    Block, BlockId, NodeId, Payload, QuorumCertificate, TimeoutCertificate, View,
};

use crate::message::Message;
use crate::verify::{MessageVerifier, PreVerified};

/// A protocol-level timer token.
///
/// Protocols arm logical timers and receive them back on expiry; stale
/// tokens (for views already left) are ignored, so the runner never needs to
/// cancel anything.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TimerToken {
    /// The view-failure timer (`view-timer_i`, τ).
    ViewTimer(View),
    /// Simple Moonshot's `2Δ` proposal wait in view `v`.
    ProposeTimer(View),
    /// Deadline check for outstanding block fetches (see [`crate::sync`]).
    FetchTimer,
    /// Deadline check for outstanding **batch** fetches on the
    /// dissemination plane (see [`crate::sync::BatchFetcher`]). Armed and
    /// consumed by the runtime driver, never by a protocol — protocols'
    /// wildcard timer arms ignore it.
    BatchFetchTimer,
}

/// A block committed by the state machine, with provenance.
#[derive(Clone, Debug)]
pub struct CommittedBlock {
    /// The committed block.
    pub block: Block,
    /// `true` for a direct commit, `false` for an ancestor committed
    /// indirectly.
    pub direct: bool,
    /// The view whose certificate triggered the commit.
    pub commit_view: View,
}

/// An effect emitted by a protocol state machine.
#[derive(Clone, Debug)]
pub enum Output {
    /// Send `message` to one node over the authenticated channel.
    Send(NodeId, Message),
    /// Multicast `message` to all nodes (including the sender itself).
    Multicast(Message),
    /// Arm a logical timer.
    SetTimer {
        /// Token handed back on expiry.
        token: TimerToken,
        /// Delay from now.
        after: SimDuration,
    },
    /// A block became committed.
    Commit(CommittedBlock),
}

/// The interface every protocol implements.
pub trait ConsensusProtocol {
    /// Called once at startup; typically enters view 1 and arms timers.
    fn start(&mut self, now: SimTime) -> Vec<Output>;

    /// Handles a delivered message from `from`: runs it through this node's
    /// [`verifier`](ConsensusProtocol::verifier) and hands it to
    /// [`handle_preverified`](ConsensusProtocol::handle_preverified) if it
    /// passes. A message with any bad signature, certificate or payload
    /// digest is dropped whole, with no outputs.
    fn handle_message(&mut self, from: NodeId, message: Message, now: SimTime) -> Vec<Output> {
        match self.verifier().verify(message) {
            Ok(message) => self.handle_preverified(from, message, now),
            Err(_) => Vec::new(),
        }
    }

    /// The state transition for a message that already passed a
    /// [`MessageVerifier`] — this node's own, in
    /// [`handle_message`](ConsensusProtocol::handle_message), or the node
    /// runtime's step that took it in, through
    /// [`verifier`](ConsensusProtocol::verifier). The rules perform no
    /// cryptography.
    fn handle_preverified(
        &mut self,
        from: NodeId,
        message: PreVerified,
        now: SimTime,
    ) -> Vec<Output>;

    /// The node's verifier, over its keyring and sharing its
    /// verified-certificate cache.
    fn verifier(&self) -> &MessageVerifier;

    /// Handles an expired timer. Stale tokens must be ignored.
    fn handle_timer(&mut self, token: TimerToken, now: SimTime) -> Vec<Output>;

    /// The node's current view (for inspection and metrics).
    fn current_view(&self) -> View;

    /// A short, human-readable protocol name (e.g. `"pipelined-moonshot"`).
    fn name(&self) -> &'static str;
}

/// Durable storage for safety-critical consensus state.
///
/// The protocols call these hooks **before** the corresponding vote or
/// timeout is pushed into the output vector — i.e. before it can reach the
/// wire — so a node killed at any instant can never have released a vote
/// its recovered state does not remember. Implementations must not return
/// until the record is durable (fsync'd); on an unrecoverable disk error
/// they should panic rather than silently continue, because a node that
/// votes without durability can equivocate after a crash.
///
/// Commit votes (Commit Moonshot's second round) are deliberately *not*
/// persisted: a commit vote is only ever cast for a block that already
/// carries a quorum certificate, and the QC itself pins the block — a
/// recovered node that re-votes to commit the same certified block cannot
/// contradict its earlier commit vote.
pub trait Persist: Send + Sync + fmt::Debug {
    /// A block vote in `view` is about to be released; `lock` is the
    /// node's high/locked QC at that instant.
    fn persist_vote(&self, view: View, lock: &QuorumCertificate);

    /// A timeout for `view` is about to be released; `high_qc` is the
    /// certificate the timeout message carries (or would justify).
    fn persist_timeout(&self, view: View, high_qc: &QuorumCertificate);
}

/// Read-side of a local block store: lets the fetch path answer a block
/// request from disk before dialing peers (see [`crate::sync::BlockFetcher`]).
pub trait LocalBlockSource: Send + Sync + fmt::Debug {
    /// The block with id `id`, if it is durably stored locally.
    fn local_block(&self, id: BlockId) -> Option<Block>;
}

/// Consensus state reloaded from durable storage at startup.
///
/// Produced by the ledger's recovery scan, consumed by the protocol
/// constructors: the vote/timeout floors stop the new incarnation from
/// re-voting in views the old one already voted in, the lock restores the
/// safety rule's reference point, and the committed prefix is preloaded
/// into the block tree (silently — no `Output::Commit` is re-emitted for
/// blocks that were already committed before the crash).
#[derive(Clone, Debug, Default)]
pub struct RecoveredState {
    /// Highest view the previous incarnation voted in
    /// ([`View::GENESIS`] = never voted).
    pub voted_view: View,
    /// Highest view the previous incarnation sent a timeout for
    /// ([`View::GENESIS`] = never timed out).
    pub timeout_view: View,
    /// The locked / high QC at the last persisted vote or timeout.
    pub lock: Option<QuorumCertificate>,
    /// The durably committed chain, parent-first, genesis excluded.
    pub committed: Vec<Block>,
}

impl RecoveredState {
    /// Whether anything at all was recovered.
    pub fn is_empty(&self) -> bool {
        self.voted_view == View::GENESIS
            && self.timeout_view == View::GENESIS
            && self.lock.is_none()
            && self.committed.is_empty()
    }
}

/// Where a leader's block payloads come from.
///
/// The paper's evaluation has leaders synthesize parametric payloads at block
/// creation time (§VI), as the simulator does; the node runtime proposes
/// references to the batches in its dissemination plane.
pub enum PayloadSource {
    /// Every block is empty.
    Empty,
    /// `bytes` of synthetic 180-byte items per block, keyed by view.
    SyntheticBytes(u64),
    /// Custom payload per view.
    Custom(Box<dyn FnMut(View) -> Payload + Send>),
}

impl PayloadSource {
    /// Produces the payload for a block proposed in `view`.
    pub fn payload_for(&mut self, view: View) -> Payload {
        match self {
            PayloadSource::Empty => Payload::empty(),
            PayloadSource::SyntheticBytes(bytes) => Payload::synthetic_bytes(*bytes, view.0),
            PayloadSource::Custom(f) => f(view),
        }
    }
}

impl fmt::Debug for PayloadSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PayloadSource::Empty => write!(f, "PayloadSource::Empty"),
            PayloadSource::SyntheticBytes(b) => write!(f, "PayloadSource::SyntheticBytes({b})"),
            PayloadSource::Custom(_) => write!(f, "PayloadSource::Custom(..)"),
        }
    }
}

/// Per-node protocol configuration shared by all protocols in this crate.
#[derive(Debug)]
pub struct NodeConfig {
    /// This node's id.
    pub node_id: NodeId,
    /// This node's signing key.
    pub keypair: KeyPair,
    /// The validator-set PKI.
    pub keyring: Keyring,
    /// The known message-delay bound Δ used to derive view-timer lengths.
    pub delta: SimDuration,
    /// Leader election function.
    pub election: Box<dyn crate::leader::LeaderElection>,
    /// Payload source for blocks this node proposes.
    pub payloads: PayloadSource,
    /// Retry behaviour for block fetches (see [`crate::sync::RetryPolicy`]).
    pub fetch_retry: crate::sync::RetryPolicy,
    /// The cache of already-verified certificate digests, shared by every
    /// [`MessageVerifier`] built over this configuration, so a proof
    /// checked once is a cache hit from then on (the key covers the proof,
    /// so another signer set's copy of the same certificate misses).
    pub verified_cache: Arc<VerifiedCache>,
    /// Durable write-ahead log for votes/timeouts (`None` = in-memory
    /// only, the pre-ledger behaviour). Called synchronously on the driver
    /// thread before a vote or timeout is released.
    pub persist: Option<Arc<dyn Persist>>,
    /// State recovered from durable storage, consumed (taken) by the
    /// protocol constructor of the restarted node.
    pub recover: Option<RecoveredState>,
    /// Local durable block store the fetch path consults before dialing
    /// peers (`None` = always fetch over the network).
    pub local_blocks: Option<Arc<dyn LocalBlockSource>>,
}

impl NodeConfig {
    /// A configuration with round-robin leader election and empty payloads.
    pub fn simulated(node_id: NodeId, n: usize, delta: SimDuration) -> NodeConfig {
        NodeConfig {
            node_id,
            keypair: KeyPair::from_seed(node_id.0 as u64),
            keyring: Keyring::simulated(n),
            delta,
            election: Box::new(crate::leader::RoundRobin::new(n)),
            payloads: PayloadSource::Empty,
            fetch_retry: crate::sync::RetryPolicy::auto(),
            verified_cache: Arc::new(VerifiedCache::default()),
            persist: None,
            recover: None,
            local_blocks: None,
        }
    }

    /// Persists an about-to-be-released vote (no-op without a ledger).
    pub fn persist_vote(&self, view: View, lock: &QuorumCertificate) {
        if let Some(p) = &self.persist {
            p.persist_vote(view, lock);
        }
    }

    /// Persists an about-to-be-released timeout (no-op without a ledger).
    pub fn persist_timeout(&self, view: View, high_qc: &QuorumCertificate) {
        if let Some(p) = &self.persist {
            p.persist_timeout(view, high_qc);
        }
    }

    /// Records a locally assembled QC as verified. Certificates built from
    /// individually checked votes need no raw verification, but inserting
    /// them keeps later deliveries of the same certificate cache hits.
    pub fn mark_verified_qc(&self, qc: &QuorumCertificate) {
        if !qc.is_genesis() {
            self.verified_cache.insert(qc.cache_key(), qc.view().0);
        }
    }

    /// Records a locally assembled TC as verified.
    pub fn mark_verified_tc(&self, tc: &TimeoutCertificate) {
        self.verified_cache.insert(tc.cache_key(), tc.view().0);
    }

    /// The leader of `view` under this node's election function.
    pub fn leader(&self, view: View) -> NodeId {
        self.election.leader(view)
    }

    /// Whether this node leads `view`.
    pub fn is_leader(&self, view: View) -> bool {
        self.leader(view) == self.node_id
    }

    /// Number of nodes `n`.
    pub fn n(&self) -> usize {
        self.keyring.len()
    }

    /// Quorum threshold `2f + 1`.
    pub fn quorum(&self) -> usize {
        self.keyring.quorum_threshold()
    }

    /// Honest-evidence threshold `f + 1`.
    pub fn f_plus_one(&self) -> usize {
        self.keyring.honest_evidence_threshold()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_source_empty() {
        let mut src = PayloadSource::Empty;
        assert_eq!(src.payload_for(View(1)).size(), 0);
    }

    #[test]
    fn payload_source_synthetic_is_view_keyed() {
        let mut src = PayloadSource::SyntheticBytes(1_800);
        let a = src.payload_for(View(1));
        let b = src.payload_for(View(2));
        assert_eq!(a.size(), 1_800);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn payload_source_custom() {
        let mut src = PayloadSource::Custom(Box::new(|v| Payload::synthetic_items(v.0, 0)));
        assert_eq!(src.payload_for(View(7)).item_count(), 7);
    }

    #[test]
    fn node_config_thresholds() {
        let cfg = NodeConfig::simulated(NodeId(0), 4, SimDuration::from_millis(100));
        assert_eq!(cfg.n(), 4);
        assert_eq!(cfg.quorum(), 3);
        assert_eq!(cfg.f_plus_one(), 2);
        assert!(cfg.is_leader(View(5))); // round-robin: (5-1) % 4 == 0
    }
}
