//! The Jolteon baseline (Gelashvili et al., FC 2022), as evaluated against
//! in §VI of the Moonshot paper.
//!
//! Jolteon is a linear, chained, 2-chain-commit protocol in the
//! leader-speaks-once setting:
//!
//! * votes for round `r` are *unicast to the leader of round `r+1`*, which
//!   aggregates them into a QC and embeds it in its own proposal — O(n)
//!   steady state, but a designated aggregator;
//! * a block commits when two QCs for consecutive rounds certify a
//!   parent/child pair; replicas only learn QCs from later proposals, so the
//!   minimum commit latency is 5δ and the block period 2δ;
//! * the view change is quadratic: timeouts (carrying the sender's high-QC)
//!   are multicast and every node assembles the TC.
//!
//! Because the vote aggregator for round `r` is the *next* leader rather
//! than the original proposer, a Byzantine successor can swallow the votes
//! and prevent the certificate from ever forming: Jolteon is **not reorg
//! resilient**, which is exactly what the paper's `WJ` schedule exploits.
//!
//! This file is Jolteon's rule list over the shared `Replica` core (rounds
//! are the core's views):
//!
//! | Jolteon | here |
//! |---|---|
//! | Propose — on entering `r` as leader: extend the QC that ended `r − 1`, or the high-QC with the TC | `enter_round` → `Replica::propose` |
//! | Vote (happy path) — `r = qc.round + 1`, once per round, not after timing out of `r`; to the leader of `r + 1` | `on_proposal` → `cast_vote` |
//! | Vote (fallback) — justification ranks ≥ the TC's highest QC | `on_proposal` → `cast_vote` |
//! | Lock / high-QC — adopt any higher ranked certificate | `on_qc` → `Replica::on_certificate` |
//! | Timeout — on the 4Δ round timer or f + 1 timeouts for `r′ ≥ r`; carries the high-QC | the `ViewTimer` arm, `on_timeout_msg` |
//! | Advance Round — on a QC or TC for `r′ ≥ r` | `on_qc`, `on_tc` → `enter_round` |
//! | Commit — 2-chain (Jolteon) or 3-chain (HotStuff) of consecutive rounds | `ChainState` (via `Replica::on_certificate`) |

use moonshot_types::time::{SimDuration, SimTime};
use moonshot_types::{
    Block, NodeId, QuorumCertificate, SignedTimeout, TimeoutCertificate, View, VoteKind,
};

use crate::chainstate::{ChainState, CommitRule};
use crate::message::Message;
use crate::protocol::{ConsensusProtocol, NodeConfig, Output, TimerToken};
use crate::replica::{covers_tc, extends_certified, Proposal, Replica};

/// The Jolteon state machine for one node (rounds are represented as views).
#[derive(Debug)]
pub struct Jolteon {
    pub(crate) core: Replica,
    /// Highest round voted in (each node votes at most once per round).
    last_voted_round: View,
}

impl Jolteon {
    /// Creates a Jolteon node.
    pub fn new(cfg: NodeConfig) -> Self {
        Self::with_rule(cfg, CommitRule::TwoChain)
    }

    /// Creates a chained-HotStuff-style node: identical steady state and
    /// pacemaker, but commits require a *3-chain* of consecutive certified
    /// views — the λ = 7δ row of Table I (with the next leader aggregating).
    ///
    /// Note: the original HotStuff achieves O(n) view change through an
    /// abstract pacemaker; this implementation shares Jolteon's quadratic
    /// timeout broadcast, which only makes the comparison conservative for
    /// the Moonshot side (view changes cost the baseline nothing extra in
    /// latency).
    pub fn hotstuff(cfg: NodeConfig) -> Self {
        Self::with_rule(cfg, CommitRule::ThreeChain)
    }

    fn with_rule(cfg: NodeConfig, rule: CommitRule) -> Self {
        // After a restart the rounds the WAL forbids are the core's affair
        // (`Replica::vote`); this counter only keeps votes to one a round.
        Jolteon { core: Replica::new(cfg, rule), last_voted_round: View::GENESIS }
    }

    /// Round timer: 4Δ (Table I).
    fn round_timer(&self) -> SimDuration {
        self.core.cfg.delta * 4
    }

    /// The node's high-QC.
    pub fn high_qc(&self) -> &QuorumCertificate {
        self.core.chain.high_qc()
    }

    /// Shared chain state (for inspection in tests).
    pub fn chain(&self) -> &ChainState {
        &self.core.chain
    }

    // === Advance Round ===================================================

    fn on_qc(&mut self, qc: &QuorumCertificate) {
        if self.core.on_certificate(qc).is_some() && qc.view() >= self.core.view() {
            self.enter_round(qc.view().next(), Some(qc.clone()), None);
        }
    }

    fn on_tc(&mut self, tc: &TimeoutCertificate) {
        if let Some(qc) = tc.high_qc() {
            self.on_qc(qc);
        }
        if tc.view() >= self.core.view() {
            self.enter_round(tc.view().next(), None, Some(tc.clone()));
        }
    }

    /// Enters round `r` on the `qc` or `tc` that ended `r − 1` (the genesis
    /// certificate for round 1) and, as its leader, proposes.
    fn enter_round(
        &mut self,
        r: View,
        qc: Option<QuorumCertificate>,
        tc: Option<TimeoutCertificate>,
    ) {
        if r <= self.core.view() {
            return;
        }
        self.core.enter_view(r, self.round_timer());
        if self.core.cfg.is_leader(r) {
            // Happy path: extend the newly certified block. After a
            // timeout: extend our high-QC (the TC proves it is high
            // enough).
            let justify = qc.unwrap_or_else(|| self.high_qc().clone());
            self.core.propose(justify, tc);
        }
        for (from, msg) in self.core.replay_pending() {
            self.dispatch(from, msg);
        }
    }

    // === Vote ============================================================

    fn on_proposal(&mut self, from: NodeId, message: Message) {
        // Advance Round with all embedded certificates first.
        let (justify, tc) = message.embedded();
        if tc.is_some_and(|tc| !self.core.cfg.check_tc(tc)) {
            return;
        }
        if let Some(justify) = justify {
            self.on_qc(justify);
        }
        if let Some(tc) = tc {
            self.on_tc(tc);
        }
        match self.core.admit(from, message) {
            // Vote rule (happy path): r = qc.round + 1.
            Some(Proposal::Normal(block, justify))
                if justify.view().next() == block.view() && extends_certified(&block, &justify) =>
            {
                self.cast_vote(&block)
            }
            // Vote rule (fallback): justify must rank at least the TC's
            // highest QC.
            Some(Proposal::Fallback(block, justify, tc))
                if extends_certified(&block, &justify) && covers_tc(&justify, &tc) =>
            {
                self.cast_vote(&block)
            }
            _ => {}
        }
    }

    /// Votes for `block` — once per round, and not after timing out of it.
    fn cast_vote(&mut self, block: &Block) {
        let r = block.view();
        if r <= self.last_voted_round || self.core.sent_timeout(r) {
            return;
        }
        self.last_voted_round = r;
        if let Some(vote) = self.core.vote(VoteKind::Normal, block) {
            // Linear: the vote goes only to the next leader, who aggregates.
            self.core.send(self.core.cfg.leader(r.next()), Message::Vote(vote));
        }
    }

    // === Timeout =========================================================

    fn on_timeout_msg(&mut self, st: SignedTimeout) {
        if !self.core.cfg.check_timeout(&st) {
            return;
        }
        if let Some(qc) = &st.lock {
            self.on_qc(qc);
        }
        let round = st.view();
        let progress = self.core.add_timeout(st);
        // f+1 distinct timeouts for r' ≥ r ⇒ echo ours, once.
        if progress.amplify && round >= self.core.view() && !self.core.sent_timeout(round) {
            self.core.send_timeout(round, true);
        }
        if let Some(tc) = progress.certificate {
            self.on_tc(&tc);
        }
    }

    fn dispatch(&mut self, from: NodeId, message: Message) {
        match message {
            Message::Propose { .. } | Message::FbPropose { .. } => self.on_proposal(from, message),
            // Only the designated aggregator receives votes; aggregate and,
            // on quorum, advance and propose.
            Message::Vote(sv) if sv.vote.kind == VoteKind::Normal => {
                if let Some(qc) = self.core.add_vote(sv) {
                    self.on_qc(&qc);
                }
            }
            Message::Timeout(st) => self.on_timeout_msg(st),
            Message::Certificate(qc) => self.on_qc(&qc),
            Message::TimeoutCert(tc) if self.core.cfg.check_tc(&tc) => self.on_tc(&tc),
            Message::BlockRequest { block_id } => self.core.serve_block(from, block_id),
            Message::BlockResponse { block } => self.core.on_block_response(block),
            // An invalid TC; Moonshot-specific messages and vote kinds.
            Message::TimeoutCert(_)
            | Message::Vote(_)
            | Message::OptPropose { .. }
            | Message::CompactPropose { .. }
            | Message::Status { .. }
            | Message::CommitVote(_) => {}
        }
    }
}

impl ConsensusProtocol for Jolteon {
    fn start(&mut self, now: SimTime) -> Vec<Output> {
        self.core.begin_step(now);
        self.enter_round(View::FIRST, Some(QuorumCertificate::genesis()), None);
        self.core.end_step()
    }

    fn handle_message(&mut self, from: NodeId, message: Message, now: SimTime) -> Vec<Output> {
        self.core.begin_step(now);
        self.dispatch(from, message);
        self.core.end_step()
    }

    fn skip_inline_checks(&mut self, skip: bool) -> bool {
        self.core.skip_inline_checks(skip)
    }

    fn handle_timer(&mut self, token: TimerToken, now: SimTime) -> Vec<Output> {
        self.core.begin_step(now);
        match token {
            TimerToken::ViewTimer(r) if r == self.core.view() => {
                self.core.send_timeout(r, true);
                self.core.set_timer(TimerToken::ViewTimer(r), self.round_timer());
            }
            TimerToken::FetchTimer => self.core.on_fetch_timer(),
            _ => {} // stale token
        }
        self.core.end_step()
    }

    fn current_view(&self) -> View {
        self.core.view()
    }

    fn locked_view(&self) -> View {
        self.high_qc().view()
    }

    fn name(&self) -> &'static str {
        match self.core.chain.rule() {
            CommitRule::TwoChain => "jolteon",
            CommitRule::ThreeChain => "hotstuff",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::LocalNet;

    fn jolteon_net(n: usize, latency_ms: u64, delta_ms: u64) -> LocalNet {
        let nodes: Vec<Box<dyn ConsensusProtocol>> = (0..n)
            .map(|i| {
                Box::new(Jolteon::new(NodeConfig::simulated(
                    NodeId::from_index(i),
                    n,
                    SimDuration::from_millis(delta_ms),
                ))) as Box<dyn ConsensusProtocol>
            })
            .collect();
        LocalNet::with_uniform_latency(nodes, SimDuration::from_millis(latency_ms))
    }

    #[test]
    fn happy_path_commits() {
        let mut net = jolteon_net(4, 10, 100);
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
    fn logs_consistent() {
        let mut net = jolteon_net(4, 10, 100);
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
    fn crashed_leader_recovered_by_timeout() {
        let mut net = jolteon_net(4, 10, 50);
        net.crash(NodeId(1));
        net.run_for(SimDuration::from_secs(4));
        assert!(
            net.committed(NodeId(0)).len() >= 3,
            "committed {}",
            net.committed(NodeId(0)).len()
        );
    }

    #[test]
    fn slower_view_cadence_than_moonshot() {
        // Jolteon needs 2δ per round (propose + vote); Moonshot needs ~δ.
        let mut jolteon = jolteon_net(4, 20, 200);
        jolteon.run_for(SimDuration::from_secs(2));
        let j_views = jolteon.view_of(NodeId(0)).0;

        let nodes: Vec<Box<dyn ConsensusProtocol>> = (0..4)
            .map(|i| {
                Box::new(crate::pipelined::PipelinedMoonshot::new(NodeConfig::simulated(
                    NodeId::from_index(i),
                    4,
                    SimDuration::from_millis(200),
                ))) as Box<dyn ConsensusProtocol>
            })
            .collect();
        let mut moonshot = LocalNet::with_uniform_latency(nodes, SimDuration::from_millis(20));
        moonshot.run_for(SimDuration::from_secs(2));
        let m_views = moonshot.view_of(NodeId(0)).0;
        assert!(
            m_views as f64 >= 1.5 * j_views as f64,
            "moonshot {m_views} vs jolteon {j_views}"
        );
    }

    #[test]
    fn byzantine_successor_causes_reorg() {
        // Leader of round 2 crashed: the votes for round 1's block go to it
        // and are lost — round 1's block must never commit (no reorg
        // resilience). With n=4 round-robin, node 1 leads rounds 2, 6, 10…
        let mut net = jolteon_net(4, 10, 50);
        net.crash(NodeId(1));
        net.run_for(SimDuration::from_secs(4));
        let committed = net.committed(NodeId(0));
        assert!(!committed.is_empty());
        // The block proposed in round 1 is not in the committed chain.
        assert!(
            committed.iter().all(|c| c.block.view() != View(1)),
            "round-1 block should have been reorged out"
        );
    }
}
