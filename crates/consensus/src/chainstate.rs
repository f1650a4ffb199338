//! Shared certified-chain state: QC registry, high-QC tracking and the
//! consecutive-view commit rule.
//!
//! All three Moonshot protocols share the same direct/indirect commit rule
//! (§III Fig. 1, §IV Fig. 3): upon holding `C_{v−1}(B_{k−1})` and
//! `C_v(B_k)` with `B_k` directly extending `B_{k−1}`, commit `B_{k−1}` and
//! all its uncommitted ancestors. Certificates and blocks can arrive in any
//! order, so commits that are blocked on a missing block are deferred and
//! retried when the block connects.

use std::collections::{BTreeMap, HashSet, VecDeque};

use moonshot_crypto::Digest;
use moonshot_types::{Block, BlockId, Payload, QuorumCertificate, View};

use crate::blocktree::{BlockTree, InsertOutcome};
use crate::protocol::CommittedBlock;

/// Outcome of registering a certificate.
#[derive(Clone, Debug, Default)]
pub struct QcRegistration {
    /// `true` the first time a certificate for this `(view, block)` is seen
    /// (regardless of vote kind).
    pub newly_certified: bool,
    /// `true` if the registered certificate became the new high-QC.
    pub new_high_qc: bool,
    /// Blocks committed as a result, parent-first.
    pub committed: Vec<CommittedBlock>,
}

/// How many committed blocks' batch refs [`ChainState::refs_are_fresh`]
/// remembers — as long as nodes keep a committed batch's bytes.
const SPENT_REF_BLOCKS: u64 = 512;

/// How many consecutive certified views commit a block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitRule {
    /// Two consecutive certified views commit the lower block (Moonshot,
    /// Jolteon, Fast-HotStuff, HotStuff-2).
    TwoChain,
    /// Three consecutive certified views commit the lowest block (chained
    /// HotStuff).
    ThreeChain,
}

/// Certified-chain state shared by the Moonshot protocols.
#[derive(Debug)]
pub struct ChainState {
    /// All blocks this node knows about.
    pub tree: BlockTree,
    /// First certificate seen per view. Safety guarantees at most one block
    /// can be certified per view, so keying by view is sound; an
    /// equivocating certificate would indicate > f faults and trips a debug
    /// assertion.
    qcs: BTreeMap<View, QuorumCertificate>,
    /// The highest ranked certificate seen so far.
    high_qc: QuorumCertificate,
    /// Explicit commits (Commit Moonshot's alternative path) waiting for the
    /// block to arrive: `(block, commit view)`.
    deferred: Vec<(BlockId, View)>,
    /// The chain depth required to commit.
    rule: CommitRule,
    /// Batch refs carried by the last [`SPENT_REF_BLOCKS`] committed blocks.
    spent: HashSet<Digest>,
    /// `(committing height, ref)` in commit order, to age `spent` out.
    spent_log: VecDeque<(u64, Digest)>,
}

impl Default for ChainState {
    fn default() -> Self {
        Self::new()
    }
}

impl ChainState {
    /// Fresh state: genesis block, genesis certificate, genesis high-QC,
    /// 2-chain commits.
    pub fn new() -> Self {
        Self::with_rule(CommitRule::TwoChain)
    }

    /// Fresh state with an explicit commit rule.
    pub fn with_rule(rule: CommitRule) -> Self {
        let genesis_qc = QuorumCertificate::genesis();
        let mut qcs = BTreeMap::new();
        qcs.insert(View::GENESIS, genesis_qc.clone());
        ChainState {
            tree: BlockTree::new(),
            qcs,
            high_qc: genesis_qc,
            deferred: Vec::new(),
            rule,
            spent: HashSet::new(),
            spent_log: VecDeque::new(),
        }
    }

    /// The highest ranked certificate seen so far (`lock_i` in Pipelined
    /// Moonshot, the proposal justification in Simple Moonshot).
    pub fn high_qc(&self) -> &QuorumCertificate {
        &self.high_qc
    }

    /// The certificate for `view`, if one is known.
    pub fn qc_for(&self, view: View) -> Option<&QuorumCertificate> {
        self.qcs.get(&view)
    }

    /// The commit rule in force.
    pub fn rule(&self) -> CommitRule {
        self.rule
    }

    /// Whether a certificate for `(view, block)` has already been
    /// registered. Lets callers skip re-verifying the duplicate certificate
    /// multicasts that every view-entry broadcast produces.
    pub fn is_registered(&self, view: View, block: BlockId) -> bool {
        self.qcs.get(&view).is_some_and(|qc| qc.block_id() == block)
    }

    /// Registers a certificate, updating the high-QC and attempting commits.
    pub fn register_qc(&mut self, qc: &QuorumCertificate) -> QcRegistration {
        let mut reg = QcRegistration::default();
        match self.qcs.get(&qc.view()) {
            Some(existing) => {
                // At most one block per view can be certified with ≤ f
                // faults; two certificates for the same view must agree.
                debug_assert_eq!(
                    existing.block_id(),
                    qc.block_id(),
                    "equivocating certificates for {:?}: adversary exceeded f",
                    qc.view()
                );
            }
            None => {
                self.qcs.insert(qc.view(), qc.clone());
                reg.newly_certified = true;
            }
        }
        if qc.rank() > self.high_qc.rank() {
            self.high_qc = qc.clone();
            reg.new_high_qc = true;
        }
        if reg.newly_certified {
            // The new certificate can complete a chain in any position.
            reg.committed.extend(self.try_commits_around(qc.view()));
        }
        reg
    }

    /// Inserts a block, retrying deferred commits and 2-chains it unblocks.
    pub fn insert_block(&mut self, block: Block) -> Vec<CommittedBlock> {
        let views: Vec<View> = match self.tree.insert(block.clone()) {
            InsertOutcome::Connected { adopted } => {
                let mut vs = vec![block.view()];
                vs.extend(adopted.iter().filter_map(|id| self.tree.get(*id)).map(Block::view));
                vs
            }
            InsertOutcome::Orphaned | InsertOutcome::Duplicate => return Vec::new(),
        };
        let mut committed = Vec::new();
        for v in views {
            committed.extend(self.try_commits_around(v));
        }
        committed.extend(self.retry_deferred());
        committed
    }

    /// Attempts every commit chain that a new certificate or block at view
    /// `v` could complete (the view may sit at any position of the chain).
    fn try_commits_around(&mut self, v: View) -> Vec<CommittedBlock> {
        let depth = match self.rule {
            CommitRule::TwoChain => 2u64,
            CommitRule::ThreeChain => 3,
        };
        let mut committed = Vec::new();
        for offset in 0..depth {
            let start = View(v.0.saturating_sub(depth - 1 - offset));
            committed.extend(self.try_commit_chain(start, depth));
        }
        committed
    }

    /// Commits the block certified at `start` if views `start .. start+depth`
    /// are all certified and form a parent/child chain.
    fn try_commit_chain(&mut self, start: View, depth: u64) -> Vec<CommittedBlock> {
        let mut prev_block_id = match self.qcs.get(&start) {
            Some(qc) => qc.block_id(),
            None => return Vec::new(),
        };
        for step in 1..depth {
            let v = View(start.0 + step);
            let Some(qc) = self.qcs.get(&v) else {
                return Vec::new();
            };
            let Some(block) = self.tree.get(qc.block_id()) else {
                return Vec::new(); // retried when the block connects
            };
            if block.parent_id() != prev_block_id {
                return Vec::new();
            }
            prev_block_id = qc.block_id();
        }
        let target = self.qcs[&start].block_id();
        let commit_view = View(start.0 + depth - 1);
        self.commit_with_provenance(target, commit_view)
    }

    /// Commits `target` (for Commit Moonshot's explicit path), deferring if
    /// the block is unknown.
    pub fn commit_target(&mut self, target: BlockId, commit_view: View) -> Vec<CommittedBlock> {
        if self.tree.contains(target) {
            self.commit_with_provenance(target, commit_view)
        } else {
            self.deferred.push((target, commit_view));
            Vec::new()
        }
    }

    fn retry_deferred(&mut self) -> Vec<CommittedBlock> {
        let mut committed = Vec::new();
        let pending = std::mem::take(&mut self.deferred);
        for (target, view) in pending {
            committed.extend(self.commit_target(target, view));
        }
        committed
    }

    fn commit_with_provenance(&mut self, target: BlockId, commit_view: View) -> Vec<CommittedBlock> {
        // A commit below or at the committed height is a no-op; an
        // un-related target would be a safety violation.
        if let Some(block) = self.tree.get(target) {
            if block.height() > self.tree.committed_height() {
                debug_assert!(
                    self.tree.extends(target, self.tree.committed_id()),
                    "commit target does not extend the committed chain: safety violated"
                );
            }
        }
        let chain = self.tree.commit(target);
        for block in &chain {
            let height = block.height().0;
            for r in block.payload().batch_refs().unwrap_or(&[]) {
                self.spent.insert(r.digest);
                self.spent_log.push_back((height, r.digest));
            }
            while self.spent_log.front().is_some_and(|(h, _)| h + SPENT_REF_BLOCKS <= height) {
                let (_, digest) = self.spent_log.pop_front().expect("checked above");
                self.spent.remove(&digest);
            }
        }
        let len = chain.len();
        chain
            .into_iter()
            .enumerate()
            .map(|(i, block)| CommittedBlock { block, direct: i + 1 == len, commit_view })
            .collect()
    }

    /// The no-repeat rule for digest payloads, shared by every protocol's
    /// vote rule and proposal path: whether a block extending `parent` may
    /// carry `payload`. It may not when one of its batch refs appears twice
    /// in it, in a recently committed block, or in one of the uncommitted
    /// ancestors between `parent` and the committed tip — a transaction
    /// would commit twice — nor when that chain has a gap and the question
    /// cannot be answered. A sibling fork may repeat a ref: at most one of
    /// the two commits. Payloads without refs always pass.
    pub fn refs_are_fresh(&self, parent: BlockId, payload: &Payload) -> bool {
        let refs = payload.batch_refs().unwrap_or(&[]);
        if refs.is_empty() {
            return true;
        }
        let mut mine = HashSet::with_capacity(refs.len());
        if !refs.iter().all(|r| !self.spent.contains(&r.digest) && mine.insert(r.digest)) {
            return false;
        }
        let mut cur = parent;
        while cur != self.tree.committed_id() {
            let Some(ancestor) = self.tree.get(cur) else { return false };
            let theirs = ancestor.payload().batch_refs().unwrap_or(&[]);
            if ancestor.height() <= self.tree.committed_height()
                || theirs.iter().any(|r| mine.contains(&r.digest))
            {
                return false;
            }
            cur = ancestor.parent_id();
        }
        true
    }

    /// The leader's side of the rule: `payload` if a block extending
    /// `parent` may carry it, else an empty one. A leader that cannot see
    /// its whole uncommitted chain (it is catching up, or knows `parent`
    /// from a certificate alone) cannot know which batches are in flight,
    /// and an empty block costs a slot where a repeat costs the view.
    pub fn fresh_or_empty(&self, parent: BlockId, payload: Payload) -> Payload {
        if self.refs_are_fresh(parent, &payload) {
            payload
        } else {
            Payload::empty()
        }
    }

    /// Drops certificates for views before `view` (not below the last
    /// committed block's view to keep commit pairs checkable).
    pub fn gc(&mut self, view: View) {
        let keep_from = View(view.0.saturating_sub(2));
        self.qcs.retain(|v, _| *v >= keep_from);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moonshot_crypto::{KeyPair, Keyring};
    use moonshot_types::{NodeId, Payload, SignedVote, Vote, VoteKind};

    fn ring() -> Keyring {
        Keyring::simulated(4)
    }

    fn qc_for_block(b: &Block, kind: VoteKind) -> QuorumCertificate {
        let votes: Vec<SignedVote> = (0..3u16)
            .map(|i| {
                SignedVote::sign(
                    Vote {
                        kind,
                        block_id: b.id(),
                        block_height: b.height(),
                        view: b.view(),
                    },
                    NodeId(i),
                    &KeyPair::from_seed(i as u64),
                )
            })
            .collect();
        QuorumCertificate::from_votes(&votes, &ring()).unwrap()
    }

    fn chain_blocks(n: u64) -> Vec<Block> {
        let mut blocks = vec![Block::genesis()];
        for v in 1..=n {
            let parent = blocks.last().unwrap();
            blocks.push(Block::build(View(v), NodeId(0), parent, Payload::empty()));
        }
        blocks
    }

    #[test]
    fn two_chain_commits_the_lower_block() {
        let mut cs = ChainState::new();
        let blocks = chain_blocks(2);
        cs.insert_block(blocks[1].clone());
        cs.insert_block(blocks[2].clone());
        let r1 = cs.register_qc(&qc_for_block(&blocks[1], VoteKind::Normal));
        assert!(r1.newly_certified && r1.new_high_qc);
        assert!(r1.committed.is_empty());
        let r2 = cs.register_qc(&qc_for_block(&blocks[2], VoteKind::Normal));
        assert_eq!(r2.committed.len(), 1);
        assert_eq!(r2.committed[0].block.id(), blocks[1].id());
        assert!(r2.committed[0].direct);
        assert_eq!(r2.committed[0].commit_view, View(2));
    }

    #[test]
    fn commit_works_regardless_of_qc_arrival_order() {
        let mut cs = ChainState::new();
        let blocks = chain_blocks(2);
        cs.insert_block(blocks[1].clone());
        cs.insert_block(blocks[2].clone());
        let r2 = cs.register_qc(&qc_for_block(&blocks[2], VoteKind::Normal));
        assert!(r2.committed.is_empty());
        let r1 = cs.register_qc(&qc_for_block(&blocks[1], VoteKind::Normal));
        assert_eq!(r1.committed.len(), 1);
        assert_eq!(r1.committed[0].block.id(), blocks[1].id());
    }

    #[test]
    fn commit_deferred_until_block_arrives() {
        let mut cs = ChainState::new();
        let blocks = chain_blocks(2);
        // QCs arrive before any block.
        cs.register_qc(&qc_for_block(&blocks[1], VoteKind::Normal));
        let r = cs.register_qc(&qc_for_block(&blocks[2], VoteKind::Normal));
        assert!(r.committed.is_empty(), "child block unknown, cannot link");
        assert!(cs.insert_block(blocks[1].clone()).is_empty());
        let committed = cs.insert_block(blocks[2].clone());
        assert_eq!(committed.len(), 1);
        assert_eq!(committed[0].block.id(), blocks[1].id());
    }

    #[test]
    fn indirect_commit_includes_ancestors() {
        let mut cs = ChainState::new();
        // Views 1, 2 certified but view 3 skipped; then 4 and 5 chain.
        let blocks = chain_blocks(5);
        for b in &blocks[1..] {
            cs.insert_block(b.clone());
        }
        cs.register_qc(&qc_for_block(&blocks[4], VoteKind::Normal));
        let r = cs.register_qc(&qc_for_block(&blocks[5], VoteKind::Normal));
        // Committing block 4 directly commits blocks 1..3 indirectly.
        assert_eq!(r.committed.len(), 4);
        assert!(r.committed[..3].iter().all(|c| !c.direct));
        assert!(r.committed[3].direct);
        assert_eq!(r.committed[3].block.view(), View(4));
    }

    #[test]
    fn non_consecutive_views_do_not_commit() {
        let mut cs = ChainState::new();
        let blocks = chain_blocks(3);
        for b in &blocks[1..] {
            cs.insert_block(b.clone());
        }
        cs.register_qc(&qc_for_block(&blocks[1], VoteKind::Normal));
        // Views 1 and 3: no commit (gap at 2).
        let r = cs.register_qc(&qc_for_block(&blocks[3], VoteKind::Normal));
        assert!(r.committed.is_empty());
    }

    #[test]
    fn consecutive_views_but_not_parent_child_do_not_commit() {
        let mut cs = ChainState::new();
        let g = Block::genesis();
        let b1 = Block::build(View(1), NodeId(0), &g, Payload::empty());
        // b2 skips b1 and extends genesis directly (certified in view 2).
        let b2 = Block::build(View(2), NodeId(1), &g, Payload::empty());
        cs.insert_block(b1.clone());
        cs.insert_block(b2.clone());
        cs.register_qc(&qc_for_block(&b1, VoteKind::Normal));
        let r = cs.register_qc(&qc_for_block(&b2, VoteKind::Normal));
        assert!(r.committed.is_empty(), "B2 does not extend B1");
    }

    #[test]
    fn mixed_certificate_kinds_still_commit() {
        // An optimistic QC at v and a fallback QC at v+1 form a valid pair.
        let mut cs = ChainState::new();
        let blocks = chain_blocks(2);
        cs.insert_block(blocks[1].clone());
        cs.insert_block(blocks[2].clone());
        cs.register_qc(&qc_for_block(&blocks[1], VoteKind::Optimistic));
        let r = cs.register_qc(&qc_for_block(&blocks[2], VoteKind::Fallback));
        assert_eq!(r.committed.len(), 1);
    }

    #[test]
    fn duplicate_qc_not_newly_certified() {
        let mut cs = ChainState::new();
        let blocks = chain_blocks(1);
        cs.insert_block(blocks[1].clone());
        let qc = qc_for_block(&blocks[1], VoteKind::Normal);
        assert!(cs.register_qc(&qc).newly_certified);
        assert!(!cs.register_qc(&qc).newly_certified);
    }

    #[test]
    fn opt_and_normal_qc_same_view_same_block_ok() {
        let mut cs = ChainState::new();
        let blocks = chain_blocks(1);
        cs.insert_block(blocks[1].clone());
        cs.register_qc(&qc_for_block(&blocks[1], VoteKind::Optimistic));
        // The normal QC for the same (view, block) is not "newly certified".
        let r = cs.register_qc(&qc_for_block(&blocks[1], VoteKind::Normal));
        assert!(!r.newly_certified);
    }

    #[test]
    fn high_qc_tracks_rank() {
        let mut cs = ChainState::new();
        let blocks = chain_blocks(3);
        for b in &blocks[1..] {
            cs.insert_block(b.clone());
        }
        assert_eq!(cs.high_qc().view(), View::GENESIS);
        cs.register_qc(&qc_for_block(&blocks[2], VoteKind::Normal));
        assert_eq!(cs.high_qc().view(), View(2));
        // Lower-ranked QC does not replace it.
        let r = cs.register_qc(&qc_for_block(&blocks[1], VoteKind::Normal));
        assert!(!r.new_high_qc);
        assert_eq!(cs.high_qc().view(), View(2));
    }

    #[test]
    fn explicit_commit_target_defers() {
        let mut cs = ChainState::new();
        let blocks = chain_blocks(1);
        let committed = cs.commit_target(blocks[1].id(), View(1));
        assert!(committed.is_empty());
        let committed = cs.insert_block(blocks[1].clone());
        assert_eq!(committed.len(), 1);
        assert!(committed[0].direct);
    }

    /// The no-repeat rule, case by case: genesis ← a1 ← a2 with a1
    /// committed, a fork b1 off genesis, and a block whose parent is missing.
    #[test]
    fn refs_are_fresh_unless_the_chain_below_already_carries_them() {
        use moonshot_types::BatchRef;
        let batch = |tag: u8| BatchRef { digest: Digest::hash(&[tag]), bytes: 100 };
        let carrying = |tags: &[u8]| Payload::batches(tags.iter().map(|t| batch(*t)).collect::<Vec<_>>());
        let mut cs = ChainState::new();
        let g = Block::genesis();
        let a1 = Block::build(View(1), NodeId(0), &g, carrying(&[1]));
        let a2 = Block::build(View(2), NodeId(1), &a1, carrying(&[2]));
        let a3 = Block::build(View(3), NodeId(2), &a2, carrying(&[3]));
        let b1 = Block::build(View(1), NodeId(1), &g, carrying(&[9]));
        for b in [&a1, &a2, &a3, &b1] {
            cs.insert_block(b.clone());
        }
        cs.register_qc(&qc_for_block(&a1, VoteKind::Normal));
        let committed = cs.register_qc(&qc_for_block(&a2, VoteKind::Normal)).committed;
        assert_eq!(committed.len(), 1, "a1 is committed, a2 and a3 are not");

        // On top of a3: anything new passes; a repeat of an uncommitted
        // ancestor (a3 itself, a2 behind it), of the committed a1, or
        // within the payload does not.
        assert!(cs.refs_are_fresh(a3.id(), &carrying(&[4, 5])));
        assert!(!cs.refs_are_fresh(a3.id(), &carrying(&[4, 3])));
        assert!(!cs.refs_are_fresh(a3.id(), &carrying(&[2])));
        assert!(!cs.refs_are_fresh(a3.id(), &carrying(&[1])));
        assert!(!cs.refs_are_fresh(a3.id(), &carrying(&[4, 4])));
        // A sibling's ref is no obstacle: b1 lost, batch 9 is free again;
        // and a2's sibling may carry what a2 carries.
        assert!(cs.refs_are_fresh(a3.id(), &carrying(&[9])));
        assert!(cs.refs_are_fresh(a1.id(), &carrying(&[2, 3])));
        // Nothing can be said for a block on a fork below the commit, or
        // on a parent this node never saw — unless it carries no refs.
        let unknown = Block::build(View(4), NodeId(3), &a3, Payload::empty()).id();
        assert!(!cs.refs_are_fresh(b1.id(), &carrying(&[4])));
        assert!(!cs.refs_are_fresh(unknown, &carrying(&[4])));
        assert!(cs.refs_are_fresh(unknown, &Payload::empty()));
        assert_eq!(cs.fresh_or_empty(unknown, carrying(&[4])), Payload::empty());
        assert_eq!(cs.fresh_or_empty(a3.id(), carrying(&[4])), carrying(&[4]));
    }

    #[test]
    fn gc_retains_recent_views() {
        let mut cs = ChainState::new();
        let blocks = chain_blocks(5);
        for b in &blocks[1..] {
            cs.insert_block(b.clone());
            cs.register_qc(&qc_for_block(b, VoteKind::Normal));
        }
        cs.gc(View(5));
        assert!(cs.qc_for(View(1)).is_none());
        assert!(cs.qc_for(View(4)).is_some());
        assert!(cs.qc_for(View(5)).is_some());
    }
}
