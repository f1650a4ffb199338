//! Pipelined Moonshot (§IV, Fig. 3) and Commit Moonshot (§V, Fig. 4).
//!
//! Pipelined Moonshot improves on Simple Moonshot in two ways:
//!
//! * **Fallback proposals** — a leader entering view `v` via `TC_{v−1}`
//!   proposes immediately, extending its lock (which provably ranks at least
//!   as high as the highest lock in the TC), instead of waiting 2Δ. This
//!   yields *standard* optimistic responsiveness (Definition 6).
//! * **Continuous locking** — `lock_i` is updated whenever a higher ranked
//!   certificate is received, and timeout messages carry the sender's lock,
//!   making a view length of τ = 3Δ sufficient.
//!
//! Commit Moonshot (Fig. 4) keeps every Pipelined rule and adds an explicit
//! pre-commit phase: upon observing `C_v(B_k)`, nodes multicast a commit
//! vote, and a quorum of commit votes commits `B_k` directly. This replaces
//! a (large) proposal hop with a (small) vote hop on the commit path —
//! λ = β + 2ρ instead of 2β + ρ — and lets a *single* honest leader commit.
//!
//! This file is the rule list of Fig. 3 and Fig. 4 over the shared
//! `Replica` core:
//!
//! | Fig. 3 / Fig. 4 | here |
//! |---|---|
//! | 1. Propose — normal on entry via `C_{v−1}`, fallback on entry via `TC_{v−1}` | `enter_view` → `Replica::propose` |
//! | 1. Propose — optimistic, on voting as the next leader | `cast_vote` → `Replica::propose_optimistic` |
//! | 2a. Optimistic Vote | `optimistic_vote` |
//! | 2b-i. Normal Vote | `normal_vote` |
//! | 2b-ii. Fallback Vote | `fallback_vote` |
//! | Lock — adopt any higher ranked certificate, at any time | `on_qc` → `Replica::on_certificate` (`lock_i` *is* the chain's high-QC) |
//! | Timeout — on τ = 3Δ, on f + 1 timeouts or a TC for `v′ ≥ v`; carries `lock_i` | the `ViewTimer` arm, `on_timeout_msg`, `on_tc` → `send_timeout` |
//! | Advance View — on `C_{v−1}` (multicast it) or `TC_{v−1}` (send it to the leader) | `on_qc`, `on_tc` → `enter_view` |
//! | Commit — two certified blocks in consecutive views | `ChainState` (via `Replica::on_certificate`) |
//! | Fig. 4, 1–2. Direct / indirect pre-commit | `pre_commit` |
//! | Fig. 4, 3. Alternative direct commit | `on_commit_vote` |

use std::collections::HashSet;

use moonshot_types::time::{SimDuration, SimTime};
use moonshot_types::{
    Block, BlockId, CommitVote, NodeId, QuorumCertificate, SignedCommitVote, SignedTimeout,
    TimeoutCertificate, View, VoteKind,
};

use crate::aggregator::CommitVoteAggregator;
use crate::chainstate::{ChainState, CommitRule};
use crate::message::Message;
use crate::protocol::{ConsensusProtocol, NodeConfig, Output, TimerToken};
use crate::replica::{covers_tc, extends_certified, Proposal, Replica};
use crate::verify::{MessageVerifier, PreVerified};

/// Feature switches distinguishing the Moonshot variants and ablations.
#[derive(Clone, Copy, Debug)]
pub struct MoonshotOptions {
    /// Enable the explicit pre-commit phase (Commit Moonshot, Fig. 4).
    pub explicit_commits: bool,
    /// Enable optimistic proposals (ablation D1 disables them: leaders then
    /// wait for the certificate, degrading ω from δ to 2δ).
    pub optimistic_proposals: bool,
    /// Leader-speaks-once mode (ablation D4): a leader that already made an
    /// optimistic proposal does not follow up with the normal/fallback
    /// proposal. The paper notes this "naturally sacrifices reorg
    /// resilience because the adversary can cause optimistic proposals to
    /// fail, even after GST" (§III.A).
    pub leader_speaks_once: bool,
}

impl Default for MoonshotOptions {
    fn default() -> Self {
        MoonshotOptions {
            explicit_commits: false,
            optimistic_proposals: true,
            leader_speaks_once: false,
        }
    }
}

/// The Pipelined Moonshot state machine for one node.
#[derive(Debug)]
pub struct PipelinedMoonshot {
    pub(crate) core: Replica,
    opts: MoonshotOptions,
    commit_votes: CommitVoteAggregator,
    /// `timeout_view_i`: the highest view this node has sent a timeout for.
    timeout_view: Option<View>,
    /// The block opt-voted for in the current view, if any.
    voted_opt: Option<BlockId>,
    /// Whether the once-per-view normal/fallback vote was cast.
    voted_main: bool,
    /// Commit votes already multicast, by `(view, block)`.
    sent_commit_votes: HashSet<(View, BlockId)>,
}

impl PipelinedMoonshot {
    /// Creates a Pipelined Moonshot node.
    pub fn new(cfg: NodeConfig) -> Self {
        Self::with_options(cfg, MoonshotOptions::default())
    }

    /// Creates a node with explicit feature switches (Commit Moonshot,
    /// ablations).
    pub fn with_options(cfg: NodeConfig, opts: MoonshotOptions) -> Self {
        // `timeout_view_i` survives a restart (the WAL records it).
        let timeout_view =
            cfg.recover.as_ref().map(|rec| rec.timeout_view).filter(|t| *t > View::GENESIS);
        PipelinedMoonshot {
            core: Replica::new(cfg, CommitRule::TwoChain),
            opts,
            commit_votes: CommitVoteAggregator::new(),
            timeout_view,
            voted_opt: None,
            voted_main: false,
            sent_commit_votes: HashSet::new(),
        }
    }

    /// View length τ = 3Δ (§IV).
    fn view_timer(&self) -> SimDuration {
        self.core.cfg.delta * 3
    }

    /// The node's lock (`lock_i`) — continuously tracks the high-QC.
    pub fn lock(&self) -> &QuorumCertificate {
        self.core.chain.high_qc()
    }

    /// Shared chain state (for inspection in tests).
    pub fn chain(&self) -> &ChainState {
        &self.core.chain
    }

    /// `timeout_view_i < v`.
    fn timeout_view_below(&self, v: View) -> bool {
        self.timeout_view.is_none_or(|t| t < v)
    }

    // === Lock and Advance View ===========================================

    fn on_qc(&mut self, qc: &QuorumCertificate) {
        // Lock rule: registering adopts any higher ranked certificate.
        let Some(reg) = self.core.on_certificate(qc) else { return };
        if reg.newly_certified && self.opts.explicit_commits {
            self.pre_commit(qc);
        }
        if qc.view() >= self.core.view() {
            self.enter_view(qc.view().next(), Some(qc.clone()), None);
        }
    }

    fn on_tc(&mut self, tc: &TimeoutCertificate) {
        if let Some(qc) = tc.high_qc() {
            self.on_qc(qc);
        }
        if tc.view() >= self.core.view() {
            // Timeout rule: echo a timeout for the TC's view if we never
            // sent one (keeps TCs forming everywhere without TC multicasting).
            self.send_timeout(tc.view(), false);
            self.enter_view(tc.view().next(), None, Some(tc.clone()));
        }
    }

    /// Advance View on `C_{v−1}` or `TC_{v−1}`, then rule 1 (Propose) if
    /// this node leads `v`.
    fn enter_view(
        &mut self,
        v: View,
        qc: Option<QuorumCertificate>,
        tc: Option<TimeoutCertificate>,
    ) {
        if v <= self.core.view() {
            return;
        }
        // A certificate is multicast, a TC only sent to the new leader.
        let leader = self.core.cfg.leader(v);
        if let Some(qc) = qc.as_ref().filter(|qc| !qc.is_genesis()) {
            self.core.multicast(Message::Certificate(qc.clone()));
        }
        match &tc {
            Some(tc) if leader != self.core.cfg.node_id => {
                self.core.send(leader, Message::TimeoutCert(tc.clone()))
            }
            _ => {}
        }
        self.voted_opt = None;
        self.voted_main = false;
        let horizon = self.core.enter_view(v, self.view_timer());
        self.commit_votes.gc(horizon);
        self.sent_commit_votes.retain(|(cv, _)| *cv >= horizon);
        // Leader-speaks-once (ablation D4): the optimistic proposal was it.
        let already_spoke = self.opts.leader_speaks_once && self.core.proposed_optimistically(v);
        if self.core.cfg.is_leader(v) && !already_spoke {
            // Normal Propose: extend the block C_{v−1} certifies. Fallback
            // Propose: justify with our lock, which ranks at least as high
            // as the TC's high-QC thanks to the Lock rule.
            let justify = qc.unwrap_or_else(|| self.lock().clone());
            self.core.propose(justify, tc);
        }
        for (from, msg) in self.core.replay_pending() {
            self.dispatch(from, msg);
        }
    }

    // === Rule 2: Vote ====================================================

    fn on_proposal(&mut self, from: NodeId, message: Message) {
        // Lock and Advance View with all embedded certificates first. The
        // TC of a fallback proposal may advance us into its view itself.
        let (justify, tc) = message.embedded();
        if let Some(justify) = justify {
            self.on_qc(justify);
        }
        if let Some(tc) = tc {
            self.on_tc(tc);
        }
        match self.core.admit(from, message) {
            Some(Proposal::Optimistic(block)) => {
                // A compact (normal) proposal may have arrived before this
                // block.
                if let Some(justify) = self.core.parked_compact(&block) {
                    self.normal_vote(&block, &justify);
                }
                self.optimistic_vote(&block);
            }
            Some(Proposal::Normal(block, justify)) => self.normal_vote(&block, &justify),
            Some(Proposal::Fallback(block, justify, tc)) => {
                self.fallback_vote(&block, &justify, &tc)
            }
            None => {}
        }
    }

    /// Optimistic Vote (Fig. 3, 2a): (i) timeout_view < v − 1,
    /// (ii) lock_i = C_{v−1}(B_{k−1}), (iii) not voted in v.
    fn optimistic_vote(&mut self, block: &Block) {
        let v = block.view();
        if self.timeout_view_below(View(v.0.saturating_sub(1)))
            && self.lock().view().next() == v
            && extends_certified(block, self.lock())
            && self.voted_opt.is_none()
            && !self.voted_main
        {
            self.voted_opt = Some(block.id());
            self.cast_vote(VoteKind::Optimistic, block);
        }
    }

    /// Normal Vote (Fig. 3, 2b-i): justify must be C_{v−1}; (i)
    /// timeout_view < v, (ii) direct extension, (iii) no opt-vote for an
    /// equivocating block. Must vote even after opt-voting the same block.
    fn normal_vote(&mut self, block: &Block, justify: &QuorumCertificate) {
        let v = block.view();
        if justify.view().next() == v
            && self.timeout_view_below(v)
            && extends_certified(block, justify)
            && self.voted_opt.is_none_or(|id| id == block.id())
            && !self.voted_main
        {
            self.voted_main = true;
            self.cast_vote(VoteKind::Normal, block);
        }
    }

    /// Fallback Vote (Fig. 3, 2b-ii): (i) timeout_view < v, (ii) direct
    /// extension, (iii) justify ranks ≥ the TC's high-QC. Allowed even
    /// after an opt-vote for an equivocating block.
    fn fallback_vote(
        &mut self,
        block: &Block,
        justify: &QuorumCertificate,
        tc: &TimeoutCertificate,
    ) {
        if self.timeout_view_below(block.view())
            && extends_certified(block, justify)
            && covers_tc(justify, tc)
            && !self.voted_main
        {
            self.voted_main = true;
            self.cast_vote(VoteKind::Fallback, block);
        }
    }

    /// Multicasts the vote a rule above has granted (Fig. 3 multicasts
    /// every vote) and, as the next leader, proposes optimistically.
    fn cast_vote(&mut self, kind: VoteKind, block: &Block) {
        if let Some(vote) = self.core.vote(kind, block) {
            self.core.multicast(Message::Vote(vote));
        }
        if self.opts.optimistic_proposals {
            self.core.propose_optimistic(block);
        }
    }

    // === Timeout =========================================================

    /// Multicasts a timeout for `v` carrying `lock_i` — once, unless
    /// `resend` (the re-armed view timer) — and raises `timeout_view_i`.
    fn send_timeout(&mut self, v: View, resend: bool) {
        if resend || !self.core.sent_timeout(v) {
            self.timeout_view = Some(self.timeout_view.map_or(v, |t| t.max(v)));
            self.core.send_timeout(v, true);
        }
    }

    fn on_timeout_msg(&mut self, st: SignedTimeout) {
        // Lock rule on the embedded certificate.
        if let Some(qc) = &st.lock {
            self.on_qc(qc);
        }
        let view = st.view();
        let progress = self.core.add_timeout(st);
        // Timeout rule: f+1 distinct timeouts for v' ≥ v ⇒ echo ours.
        if progress.amplify && view >= self.core.view() {
            self.send_timeout(view, false);
        }
        if let Some(tc) = progress.certificate {
            self.on_tc(&tc);
        }
    }

    // === Commit Moonshot (Fig. 4) ========================================

    /// Pre-commit (Fig. 4, rules 1 and 2) on a newly observed `C_v(B_k)`.
    fn pre_commit(&mut self, qc: &QuorumCertificate) {
        if !self.timeout_view_below(qc.view()) {
            return;
        }
        // Rule 1, direct pre-commit: we are in a view ≤ v.
        let direct = self.core.view() <= qc.view();
        // Rule 2, indirect pre-commit: we already pre-committed a strict
        // descendant.
        let indirect = !direct
            && self.sent_commit_votes.iter().any(|(_, id)| {
                *id != qc.block_id() && self.core.chain.tree.extends(*id, qc.block_id())
            });
        if (direct || indirect) && self.sent_commit_votes.insert((qc.view(), qc.block_id())) {
            let vote = CommitVote {
                block_id: qc.block_id(),
                block_height: qc.block_height(),
                view: qc.view(),
            };
            let signed =
                SignedCommitVote::sign(vote, self.core.cfg.node_id, &self.core.cfg.keypair);
            self.core.multicast(Message::CommitVote(signed));
        }
    }

    /// Alternative Direct Commit (Fig. 4, rule 3): a quorum of commit votes
    /// commits the block.
    fn on_commit_vote(&mut self, cv: SignedCommitVote) {
        if !self.opts.explicit_commits {
            return;
        }
        let view = cv.vote.view;
        if let Some(block_id) = self.commit_votes.add(cv, &self.core.cfg.keyring) {
            self.core.commit(block_id, view);
        }
    }

    fn dispatch(&mut self, from: NodeId, message: Message) {
        match message {
            Message::OptPropose { .. }
            | Message::Propose { .. }
            | Message::FbPropose { .. }
            | Message::CompactPropose { .. } => self.on_proposal(from, message),
            Message::Vote(sv) => {
                if let Some(qc) = self.core.add_vote(sv) {
                    self.on_qc(&qc);
                }
            }
            Message::Timeout(st) => self.on_timeout_msg(st),
            Message::Certificate(qc) => self.on_qc(&qc),
            Message::TimeoutCert(tc) => self.on_tc(&tc),
            Message::CommitVote(cv) => self.on_commit_vote(cv),
            Message::BlockRequest { block_id } => self.core.serve_block(from, block_id),
            Message::BlockResponse { block } => self.core.on_block_response(block),
            // Status messages belong to Simple Moonshot; still harvest the
            // embedded certificate.
            Message::Status { lock, .. } => self.on_qc(&lock),
        }
    }
}

impl ConsensusProtocol for PipelinedMoonshot {
    fn start(&mut self, now: SimTime) -> Vec<Output> {
        self.core.begin_step(now);
        self.enter_view(View::FIRST, Some(QuorumCertificate::genesis()), None);
        self.core.end_step()
    }

    fn handle_preverified(
        &mut self,
        from: NodeId,
        message: PreVerified,
        now: SimTime,
    ) -> Vec<Output> {
        self.core.begin_step(now);
        self.dispatch(from, message.into_inner());
        self.core.end_step()
    }

    fn verifier(&self) -> &MessageVerifier {
        &self.core.verifier
    }

    fn handle_timer(&mut self, token: TimerToken, now: SimTime) -> Vec<Output> {
        self.core.begin_step(now);
        match token {
            TimerToken::ViewTimer(v) if v == self.core.view() => {
                // Timeout rule: multicast (or re-multicast) the timeout and
                // re-arm the timer.
                self.send_timeout(v, true);
                self.core.set_timer(TimerToken::ViewTimer(v), self.view_timer());
            }
            TimerToken::FetchTimer => self.core.on_fetch_timer(),
            _ => {} // stale token
        }
        self.core.end_step()
    }

    fn current_view(&self) -> View {
        self.core.view()
    }

    fn name(&self) -> &'static str {
        if self.opts.explicit_commits {
            "commit-moonshot"
        } else if self.opts.leader_speaks_once {
            "pipelined-moonshot-lso"
        } else if self.opts.optimistic_proposals {
            "pipelined-moonshot"
        } else {
            "pipelined-moonshot-no-opt"
        }
    }
}

/// Commit Moonshot (§V): Pipelined Moonshot plus the explicit pre-commit
/// phase of Fig. 4.
///
/// # Examples
///
/// ```
/// use moonshot_consensus::{CommitMoonshot, ConsensusProtocol, NodeConfig};
/// use moonshot_types::time::SimDuration;
/// use moonshot_types::NodeId;
///
/// let cfg = NodeConfig::simulated(NodeId(0), 4, SimDuration::from_millis(100));
/// let node = CommitMoonshot::new(cfg);
/// assert_eq!(node.name(), "commit-moonshot");
/// ```
#[derive(Debug)]
pub struct CommitMoonshot(PipelinedMoonshot);

impl CommitMoonshot {
    /// Creates a Commit Moonshot node.
    pub fn new(cfg: NodeConfig) -> Self {
        let opts = MoonshotOptions { explicit_commits: true, ..MoonshotOptions::default() };
        CommitMoonshot(PipelinedMoonshot::with_options(cfg, opts))
    }

    /// The node's lock.
    pub fn lock(&self) -> &QuorumCertificate {
        self.0.lock()
    }

    /// Shared chain state (for inspection in tests).
    pub fn chain(&self) -> &ChainState {
        self.0.chain()
    }
}

impl ConsensusProtocol for CommitMoonshot {
    fn start(&mut self, now: SimTime) -> Vec<Output> {
        self.0.start(now)
    }
    fn handle_preverified(
        &mut self,
        from: NodeId,
        message: PreVerified,
        now: SimTime,
    ) -> Vec<Output> {
        self.0.handle_preverified(from, message, now)
    }
    fn verifier(&self) -> &MessageVerifier {
        self.0.verifier()
    }
    fn handle_timer(&mut self, token: TimerToken, now: SimTime) -> Vec<Output> {
        self.0.handle_timer(token, now)
    }
    fn current_view(&self) -> View {
        self.0.current_view()
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::LocalNet;

    fn pipelined_net(n: usize, latency_ms: u64, delta_ms: u64) -> LocalNet {
        let nodes: Vec<Box<dyn ConsensusProtocol>> = (0..n)
            .map(|i| {
                Box::new(PipelinedMoonshot::new(NodeConfig::simulated(
                    NodeId::from_index(i),
                    n,
                    SimDuration::from_millis(delta_ms),
                ))) as Box<dyn ConsensusProtocol>
            })
            .collect();
        LocalNet::with_uniform_latency(nodes, SimDuration::from_millis(latency_ms))
    }

    fn commit_net(n: usize, latency_ms: u64, delta_ms: u64) -> LocalNet {
        let nodes: Vec<Box<dyn ConsensusProtocol>> = (0..n)
            .map(|i| {
                Box::new(CommitMoonshot::new(NodeConfig::simulated(
                    NodeId::from_index(i),
                    n,
                    SimDuration::from_millis(delta_ms),
                ))) as Box<dyn ConsensusProtocol>
            })
            .collect();
        LocalNet::with_uniform_latency(nodes, SimDuration::from_millis(latency_ms))
    }

    /// Payload integrity through `handle_message` (the node's own
    /// verifier, as the simulator runs it): a proposal whose batch references were
    /// swapped under an honest digest (and therefore an honest-looking
    /// block id) must be dropped without a vote, while the honest proposal
    /// is voted for.
    #[test]
    fn inline_path_drops_tampered_payload_proposal() {
        use moonshot_types::Payload;
        let count_votes = |outs: &[Output]| {
            outs.iter()
                .filter(|o| {
                    matches!(
                        o,
                        Output::Multicast(Message::Vote(_)) | Output::Send(_, Message::Vote(_))
                    )
                })
                .count()
        };
        let batch = |tag: u8| moonshot_types::BatchRef {
            digest: moonshot_crypto::Digest::hash(&[tag]),
            bytes: 128,
        };
        let honest_payload = Payload::batches(vec![batch(1)]);
        let tampered_payload = Payload::Batches {
            refs: std::sync::Arc::from(vec![batch(2)]),
            digest: honest_payload.digest(),
        };
        let now = SimTime(0);
        for (payload, expect_vote) in [(tampered_payload, false), (honest_payload, true)] {
            let cfg =
                NodeConfig::simulated(NodeId(0), 4, SimDuration::from_millis(50));
            let mut p = PipelinedMoonshot::new(cfg);
            let _ = p.start(now);
            let v = p.current_view();
            let leader = p.core.cfg.leader(v);
            let block = Block::build(v, leader, &Block::genesis(), payload);
            assert!(block.header_is_valid());
            let outs = p.handle_message(
                leader,
                Message::OptPropose { view: v, block },
                now,
            );
            assert_eq!(
                count_votes(&outs) > 0,
                expect_vote,
                "tampered proposals must not be voted for; honest ones must"
            );
        }
    }

    #[test]
    fn pipelined_happy_path_commits() {
        let mut net = pipelined_net(4, 10, 100);
        net.run_for(SimDuration::from_secs(2));
        for i in 0..4u16 {
            assert!(
                net.committed(NodeId(i)).len() >= 10,
                "node {i}: {}",
                net.committed(NodeId(i)).len()
            );
        }
    }

    #[test]
    fn pipelined_logs_consistent() {
        let mut net = pipelined_net(4, 10, 100);
        net.run_for(SimDuration::from_secs(2));
        let chains: Vec<Vec<_>> = (0..4u16)
            .map(|i| net.committed(NodeId(i)).iter().map(|c| c.block.id()).collect())
            .collect();
        let min_len = chains.iter().map(Vec::len).min().unwrap();
        for pos in 0..min_len {
            assert!(chains.iter().all(|c| c[pos] == chains[0][pos]), "divergence at {pos}");
        }
    }

    #[test]
    fn pipelined_recovers_from_crashed_leader_responsively() {
        let mut net = pipelined_net(4, 10, 50);
        net.crash(NodeId(1));
        net.run_for(SimDuration::from_secs(3));
        assert!(
            net.committed(NodeId(0)).len() >= 5,
            "committed {}",
            net.committed(NodeId(0)).len()
        );
    }

    #[test]
    fn commit_moonshot_commits_via_commit_votes() {
        let mut net = commit_net(4, 10, 100);
        net.run_for(SimDuration::from_secs(2));
        for i in 0..4u16 {
            assert!(
                net.committed(NodeId(i)).len() >= 10,
                "node {i}: {}",
                net.committed(NodeId(i)).len()
            );
        }
    }

    #[test]
    fn commit_moonshot_single_honest_leader_commits() {
        // Leader schedule: every second leader crashed. Pipelined Moonshot
        // needs two consecutive honest leaders to commit; Commit Moonshot
        // commits under a single honest leader (§V).
        let n = 4;
        let mut net = commit_net(n, 10, 50);
        net.crash(NodeId(1));
        net.crash(NodeId(3)); // > f? n=4, f=1 — two crashes kill liveness.
        net.run_for(SimDuration::from_millis(200));
        // With 2 > f crashes nothing commits; use a 7-node net instead.
        let mut net = commit_net(7, 10, 50);
        net.crash(NodeId(1));
        net.crash(NodeId(3));
        net.run_for(SimDuration::from_secs(4));
        assert!(
            net.committed(NodeId(0)).len() >= 2,
            "committed {}",
            net.committed(NodeId(0)).len()
        );
    }

    #[test]
    fn commit_and_pipelined_agree_under_crashes() {
        for make in [pipelined_net as fn(usize, u64, u64) -> LocalNet, commit_net] {
            let mut net = make(7, 10, 50);
            net.crash(NodeId(6));
            net.run_for(SimDuration::from_secs(2));
            let chains: Vec<Vec<_>> = (0..6u16)
                .map(|i| net.committed(NodeId(i)).iter().map(|c| c.block.id()).collect())
                .collect();
            let min_len = chains.iter().map(Vec::len).min().unwrap();
            assert!(min_len > 0);
            for pos in 0..min_len {
                assert!(chains.iter().all(|c| c[pos] == chains[0][pos]));
            }
        }
    }

    #[test]
    fn optimistic_proposals_ablation_still_live() {
        let nodes: Vec<Box<dyn ConsensusProtocol>> = (0..4)
            .map(|i| {
                Box::new(PipelinedMoonshot::with_options(
                    NodeConfig::simulated(NodeId::from_index(i), 4, SimDuration::from_millis(100)),
                    MoonshotOptions { explicit_commits: false, optimistic_proposals: false, leader_speaks_once: false },
                )) as Box<dyn ConsensusProtocol>
            })
            .collect();
        let mut net = LocalNet::with_uniform_latency(nodes, SimDuration::from_millis(10));
        net.run_for(SimDuration::from_secs(2));
        assert!(net.committed(NodeId(0)).len() >= 5);
    }

    #[test]
    fn ablation_halves_view_cadence() {
        // Without optimistic proposals the view advance needs proposal + vote
        // (2δ); with them it needs only ~δ. Compare views reached.
        let run = |optimistic: bool| {
            let nodes: Vec<Box<dyn ConsensusProtocol>> = (0..4)
                .map(|i| {
                    Box::new(PipelinedMoonshot::with_options(
                        NodeConfig::simulated(
                            NodeId::from_index(i),
                            4,
                            SimDuration::from_millis(200),
                        ),
                        MoonshotOptions {
                            explicit_commits: false,
                            optimistic_proposals: optimistic,
                            leader_speaks_once: false,
                        },
                    )) as Box<dyn ConsensusProtocol>
                })
                .collect();
            let mut net = LocalNet::with_uniform_latency(nodes, SimDuration::from_millis(20));
            net.run_for(SimDuration::from_secs(2));
            net.view_of(NodeId(0)).0
        };
        let with_opt = run(true);
        let without_opt = run(false);
        assert!(
            with_opt as f64 >= 1.5 * without_opt as f64,
            "opt={with_opt} no-opt={without_opt}"
        );
    }

    #[test]
    fn lossy_network_recovers_after_gst() {
        let nodes: Vec<Box<dyn ConsensusProtocol>> = (0..4)
            .map(|i| {
                Box::new(PipelinedMoonshot::new(NodeConfig::simulated(
                    NodeId::from_index(i),
                    4,
                    SimDuration::from_millis(50),
                ))) as Box<dyn ConsensusProtocol>
            })
            .collect();
        let policy = Box::new(|_f: NodeId, _t: NodeId, _m: &Message, now: SimTime| {
            if now < SimTime(500_000) {
                None
            } else {
                Some(SimDuration::from_millis(10))
            }
        });
        let mut net = LocalNet::with_policy(nodes, policy);
        net.run_for(SimDuration::from_secs(4));
        assert!(
            net.committed(NodeId(0)).len() >= 5,
            "committed {}",
            net.committed(NodeId(0)).len()
        );
    }

    #[test]
    fn view_advances_even_when_behind() {
        // A node partitioned from everything but certificates catches up.
        let nodes: Vec<Box<dyn ConsensusProtocol>> = (0..4)
            .map(|i| {
                Box::new(PipelinedMoonshot::new(NodeConfig::simulated(
                    NodeId::from_index(i),
                    4,
                    SimDuration::from_millis(50),
                ))) as Box<dyn ConsensusProtocol>
            })
            .collect();
        // Node 3 receives nothing for 1s, then heals.
        let policy = Box::new(|_f: NodeId, to: NodeId, _m: &Message, now: SimTime| {
            if to == NodeId(3) && now < SimTime(1_000_000) {
                None
            } else {
                Some(SimDuration::from_millis(10))
            }
        });
        let mut net = LocalNet::with_policy(nodes, policy);
        net.run_for(SimDuration::from_secs(3));
        let lagging = net.view_of(NodeId(3));
        let leading = net.view_of(NodeId(0));
        assert!(
            leading.0 - lagging.0 < 5,
            "node 3 stuck at {lagging} vs {leading}"
        );
    }
}
