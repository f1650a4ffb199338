//! Simple Moonshot (§III, Fig. 1).
//!
//! The first Moonshot protocol: pipelined, ω = δ, λ = 3δ, reorg resilient,
//! optimistically responsive under consecutive honest leaders, view length
//! 5Δ. Its distinguishing mechanics:
//!
//! * **Optimistic proposal** — the leader of view `v+1` proposes a child of
//!   `B_k` the moment it *votes* for `B_k` in view `v`, without waiting to
//!   observe `C_v(B_k)`.
//! * **Vote multicasting** — all nodes assemble certificates locally, so the
//!   next proposal and the previous certificate arrive together.
//! * **Locking on view entry** — `lock_i` is updated only while entering a
//!   view, so a status message reports the sender's lock for the whole view.
//! * **2Δ proposal wait** — a leader that enters without `C_{v−1}` waits up
//!   to 2Δ (collecting status messages) before proposing, guaranteeing it
//!   extends the highest lock held by any honest node after GST.
//!
//! This file is the rule list of Fig. 1 over the shared `Replica` core:
//!
//! | Fig. 1 | here |
//! |---|---|
//! | 1. Propose — (i) on `C_{v−1}`, on entry or within 2Δ of it; (ii) at 2Δ, extending the highest certificate | `enter_view`, `on_qc`, the `ProposeTimer` arm → `propose_normal` |
//! | 1. Propose — optimistic, on voting as the next leader | `do_vote` → `Replica::propose_optimistic` |
//! | 2. Vote — (a) optimistic proposal extending `lock_i = C_{v−1}` | `on_proposal` |
//! | 2. Vote — (b) normal proposal whose justification ranks ≥ `lock_i` | `rule_2b_vote` (from `on_proposal`) |
//! | 3. Commit — two certified blocks in consecutive views | `ChainState` (via `Replica::on_certificate`) |
//! | 4. Timeout — on τ = 5Δ, or on f + 1 timeouts for `v`; stop voting in `v` | the `ViewTimer` arm, `on_timeout_msg`, `can_vote` |
//! | Advance View — on `C_{v−1}` or `TC_{v−1}`: multicast it, set `lock_i`, report it, reset τ | `on_qc`, `on_tc` → `enter_view` |

use moonshot_types::time::{SimDuration, SimTime};
use moonshot_types::{
    Block, NodeId, QuorumCertificate, SignedTimeout, TimeoutCertificate, View, VoteKind,
};

use crate::chainstate::{ChainState, CommitRule};
use crate::message::Message;
use crate::protocol::{ConsensusProtocol, NodeConfig, Output, TimerToken};
use crate::replica::{extends_certified, Proposal, Replica};

/// The Simple Moonshot state machine for one node.
#[derive(Debug)]
pub struct SimpleMoonshot {
    pub(crate) core: Replica,
    /// `lock_i`: updated only on view entry (§III.A).
    lock: QuorumCertificate,
    /// Whether this node has voted in the current view.
    voted: bool,
    /// Whether this node (as leader) sent its normal proposal this view.
    proposed_normal: bool,
}

impl SimpleMoonshot {
    /// Creates a node with the given configuration.
    pub fn new(cfg: NodeConfig) -> Self {
        let core = Replica::new(cfg, CommitRule::TwoChain);
        // Genesis on a fresh start, the recovered lock after a restart.
        let lock = core.chain.high_qc().clone();
        SimpleMoonshot { core, lock, voted: false, proposed_normal: false }
    }

    /// View length τ = 5Δ (§III.A).
    fn view_timer(&self) -> SimDuration {
        self.core.cfg.delta * 5
    }

    /// The leader's proposal wait: 2Δ after entering a view without
    /// `C_{v−1}`.
    fn propose_wait(&self) -> SimDuration {
        self.core.cfg.delta * 2
    }

    /// The node's current lock (`lock_i`).
    pub fn lock(&self) -> &QuorumCertificate {
        &self.lock
    }

    /// Shared chain state (for inspection in tests).
    pub fn chain(&self) -> &ChainState {
        &self.core.chain
    }

    // === Advance View ====================================================

    fn on_qc(&mut self, qc: &QuorumCertificate) {
        if self.core.on_certificate(qc).is_none() {
            return;
        }
        let view = self.core.view();
        if qc.view() >= view {
            let announce = (!qc.is_genesis()).then(|| Message::Certificate(qc.clone()));
            self.enter_view(qc.view().next(), announce);
        } else if qc.view().next() == view && self.core.cfg.is_leader(view) {
            // Rule 1(i): the leader entered v without C_{v−1} (via TC) and
            // the certificate arrived within the 2Δ window.
            self.propose_normal(qc.clone());
        }
    }

    fn on_tc(&mut self, tc: &TimeoutCertificate) {
        if let Some(qc) = tc.high_qc() {
            self.on_qc(qc);
        }
        if tc.view() >= self.core.view() {
            self.enter_view(tc.view().next(), Some(Message::TimeoutCert(tc.clone())));
        }
    }

    /// Advance View: enters `v`, justified by the certificate in `announce`
    /// (none for view 1, entered on startup).
    fn enter_view(&mut self, v: View, announce: Option<Message>) {
        if v <= self.core.view() {
            return;
        }
        // (i) multicast the entry certificate so all honest nodes enter
        // within Δ.
        if let Some(certificate) = announce {
            self.core.multicast(certificate);
        }
        // (ii) update lock_i to the highest ranked certificate seen so far.
        self.lock = self.core.chain.high_qc().clone();
        // (iii) report the lock to the new leader if it is stale.
        let leader = self.core.cfg.leader(v);
        if self.lock.view().next() < v && leader != self.core.cfg.node_id {
            self.core.send(leader, Message::Status { view: v, lock: self.lock.clone() });
        }
        // (iv) enter v; (v) reset the view timer.
        self.voted = false;
        self.proposed_normal = false;
        self.core.enter_view(v, self.view_timer());
        // Rule 1: the leader proposes at once if it holds C_{v−1}, else
        // waits up to 2Δ for it.
        if self.core.cfg.is_leader(v) {
            match self.core.chain.qc_for(v.prev().expect("v ≥ 1")).cloned() {
                Some(qc) => self.propose_normal(qc),
                None => self.core.set_timer(TimerToken::ProposeTimer(v), self.propose_wait()),
            }
        }
        for (from, msg) in self.core.replay_pending() {
            self.dispatch(from, msg);
        }
    }

    // === Rule 1: Propose =================================================

    fn propose_normal(&mut self, justify: QuorumCertificate) {
        if !self.proposed_normal {
            self.proposed_normal = true;
            self.core.propose(justify, None);
        }
    }

    // === Rule 2: Vote ====================================================

    /// Once per view, and not after timing out of it (rule 4).
    fn can_vote(&self) -> bool {
        !self.voted && !self.core.sent_timeout(self.core.view())
    }

    fn do_vote(&mut self, block: &Block) {
        self.voted = true;
        if let Some(vote) = self.core.vote(VoteKind::Normal, block) {
            self.core.multicast(Message::Vote(vote));
        }
        self.core.propose_optimistic(block);
    }

    fn on_proposal(&mut self, from: NodeId, message: Message) {
        // Process the embedded certificate first (Advance View / commits).
        if let (Some(justify), _) = message.embedded() {
            self.on_qc(justify);
        }
        match self.core.admit(from, message) {
            Some(Proposal::Optimistic(block)) => {
                // A compact (normal) proposal may have arrived before this
                // block.
                if let Some(justify) = self.core.parked_compact(&block) {
                    self.rule_2b_vote(&block, &justify);
                }
                // Rule 2(a): lock_i = C_{v−1}(B_{k−1}).
                if self.can_vote()
                    && self.lock.view().next() == block.view()
                    && extends_certified(&block, &self.lock)
                {
                    self.do_vote(&block);
                }
            }
            Some(Proposal::Normal(block, justify)) => self.rule_2b_vote(&block, &justify),
            // Fig. 1 has no fallback proposal (never dispatched here).
            Some(Proposal::Fallback(..)) | None => {}
        }
    }

    /// Rule 2(b): justify ranks at least lock_i and B_k extends B_h.
    fn rule_2b_vote(&mut self, block: &Block, justify: &QuorumCertificate) {
        if self.can_vote()
            && justify.ranks_at_least(&self.lock)
            && extends_certified(block, justify)
        {
            self.do_vote(block);
        }
    }

    // === Rule 4: Timeout =================================================

    fn on_timeout_msg(&mut self, st: SignedTimeout) {
        if !self.core.cfg.check_timeout(&st) {
            return;
        }
        let view = st.view();
        let progress = self.core.add_timeout(st);
        // f+1 distinct timeouts for the current view ⇒ stop voting and echo
        // the timeout. Simple Moonshot timeouts carry no lock.
        if progress.amplify && view == self.core.view() && !self.core.sent_timeout(view) {
            self.core.send_timeout(view, false);
        }
        if let Some(tc) = progress.certificate {
            self.on_tc(&tc);
        }
    }

    fn dispatch(&mut self, from: NodeId, message: Message) {
        match message {
            Message::OptPropose { .. }
            | Message::Propose { .. }
            | Message::CompactPropose { .. } => self.on_proposal(from, message),
            Message::Vote(sv) if sv.vote.kind == VoteKind::Normal => {
                if let Some(qc) = self.core.add_vote(sv) {
                    self.on_qc(&qc);
                }
            }
            Message::Timeout(st) => self.on_timeout_msg(st),
            Message::Certificate(qc) => self.on_qc(&qc),
            Message::TimeoutCert(tc) if self.core.cfg.check_tc(&tc) => self.on_tc(&tc),
            Message::Status { lock, .. } => self.on_qc(&lock),
            Message::BlockRequest { block_id } => self.core.serve_block(from, block_id),
            Message::BlockResponse { block } => self.core.on_block_response(block),
            // An invalid TC, or not part of Simple Moonshot (Fig. 1 has one
            // kind of vote).
            Message::TimeoutCert(_)
            | Message::Vote(_)
            | Message::FbPropose { .. }
            | Message::CommitVote(_) => {}
        }
    }
}

impl ConsensusProtocol for SimpleMoonshot {
    fn start(&mut self, now: SimTime) -> Vec<Output> {
        self.core.begin_step(now);
        // All nodes start in view 1, locked on the genesis certificate.
        self.enter_view(View::FIRST, None);
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
        let view = self.core.view();
        match token {
            TimerToken::ViewTimer(v) if v == view => {
                // Rule 4: multicast (or re-multicast) the timeout and re-arm
                // the timer.
                self.core.send_timeout(v, false);
                self.core.set_timer(TimerToken::ViewTimer(v), self.view_timer());
            }
            TimerToken::ProposeTimer(v) if v == view && self.core.cfg.is_leader(v) => {
                // Rule 1(ii): propose at t + 2Δ extending the highest known
                // certificate.
                self.propose_normal(self.core.chain.high_qc().clone());
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
        self.lock().view()
    }

    fn name(&self) -> &'static str {
        "simple-moonshot"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::LocalNet;
    use moonshot_types::time::SimDuration;

    fn net(n: usize, latency_ms: u64, delta_ms: u64) -> LocalNet {
        let nodes: Vec<Box<dyn ConsensusProtocol>> = (0..n)
            .map(|i| {
                Box::new(SimpleMoonshot::new(NodeConfig::simulated(
                    NodeId::from_index(i),
                    n,
                    SimDuration::from_millis(delta_ms),
                ))) as Box<dyn ConsensusProtocol>
            })
            .collect();
        LocalNet::with_uniform_latency(nodes, SimDuration::from_millis(latency_ms))
    }

    #[test]
    fn happy_path_commits_blocks() {
        let mut net = net(4, 10, 100);
        net.run_for(SimDuration::from_secs(2));
        for i in 0..4u16 {
            let committed = net.committed(NodeId(i));
            assert!(
                committed.len() >= 10,
                "node {i} committed only {} blocks",
                committed.len()
            );
        }
    }

    #[test]
    fn committed_logs_are_consistent() {
        let mut net = net(4, 10, 100);
        net.run_for(SimDuration::from_secs(2));
        let chains: Vec<Vec<_>> = (0..4u16)
            .map(|i| net.committed(NodeId(i)).iter().map(|c| c.block.id()).collect())
            .collect();
        let min_len = chains.iter().map(Vec::len).min().unwrap();
        for pos in 0..min_len {
            let first = chains[0][pos];
            assert!(chains.iter().all(|c| c[pos] == first), "divergence at {pos}");
        }
    }

    #[test]
    fn views_advance_at_one_delta_cadence() {
        // ω = δ: with 10ms latency and plenty of time, views should advance
        // roughly every ~10-30ms (loopback + vote aggregation), far faster
        // than the 2δ cadence of QC-waiting protocols.
        let mut net = net(4, 10, 100);
        net.run_for(SimDuration::from_secs(1));
        let v = net.view_of(NodeId(0));
        assert!(v.0 >= 30, "only reached {v} after 1s");
    }

    #[test]
    fn commit_latency_is_about_three_delta() {
        // In steady state a block proposed at t commits at ~t+3δ: proposal
        // (δ) + votes (δ) + child's votes (δ).
        let mut net = net(4, 10, 100);
        net.run_for(SimDuration::from_secs(1));
        let committed = net.committed(NodeId(0));
        assert!(committed.len() > 5);
        // The direct-committed blocks' commit views are one above their own.
        for c in committed.iter().filter(|c| c.direct) {
            assert_eq!(c.commit_view, c.block.view().next());
        }
    }

    #[test]
    fn crashed_leader_is_skipped_via_timeout() {
        let mut net = net(4, 10, 50);
        net.crash(NodeId(1)); // leader of views 2, 6, 10, ...
        net.run_for(SimDuration::from_secs(3));
        // Consensus still commits blocks despite the periodic dead leader.
        assert!(
            net.committed(NodeId(0)).len() >= 3,
            "committed {}",
            net.committed(NodeId(0)).len()
        );
        // Views led by the crashed node were passed via timeout certs.
        assert!(net.view_of(NodeId(0)).0 > 6);
    }

    #[test]
    fn f_crashes_tolerated_n7() {
        let mut net = net(7, 5, 50);
        net.crash(NodeId(2));
        net.crash(NodeId(5));
        net.run_for(SimDuration::from_secs(3));
        for i in [0u16, 1, 3, 4, 6] {
            assert!(
                net.committed(NodeId(i)).len() >= 3,
                "node {i}: {}",
                net.committed(NodeId(i)).len()
            );
        }
    }

    #[test]
    fn one_crash_beyond_f_halts_but_stays_safe() {
        let mut net = net(4, 10, 50);
        net.crash(NodeId(1));
        net.crash(NodeId(2)); // 2 > f = 1: no quorum possible
        net.run_for(SimDuration::from_secs(2));
        assert_eq!(net.committed(NodeId(0)).len(), 0);
        assert_eq!(net.committed(NodeId(3)).len(), 0);
    }

    #[test]
    fn direct_commits_carry_their_block_view() {
        let mut net = net(4, 10, 100);
        net.run_for(SimDuration::from_secs(1));
        let committed = net.committed(NodeId(2));
        let direct: Vec<_> = committed.iter().filter(|c| c.direct).collect();
        assert!(!direct.is_empty());
    }

    #[test]
    fn lossy_network_recovers_after_gst() {
        // Drop everything for the first 500ms, then heal.
        let nodes: Vec<Box<dyn ConsensusProtocol>> = (0..4)
            .map(|i| {
                Box::new(SimpleMoonshot::new(NodeConfig::simulated(
                    NodeId::from_index(i),
                    4,
                    SimDuration::from_millis(50),
                ))) as Box<dyn ConsensusProtocol>
            })
            .collect();
        let policy = Box::new(|_from: NodeId, _to: NodeId, _m: &Message, now: SimTime| {
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
            "committed {} after healing",
            net.committed(NodeId(0)).len()
        );
    }
}
