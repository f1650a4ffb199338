//! Vote and timeout aggregation.
//!
//! Moonshot multicasts votes, so *every* node assembles certificates locally
//! (this is what removes the designated-aggregator bottleneck and buys reorg
//! resilience). The aggregators here accumulate signed votes / timeouts /
//! commit votes, deduplicate by sender, and yield each certificate exactly
//! once when the quorum threshold is crossed.

use std::collections::{HashMap, HashSet};

use moonshot_crypto::Keyring;
use moonshot_types::{
    BlockId, QuorumCertificate, SignedCommitVote, SignedTimeout, SignedVote, TimeoutCertificate,
    View, Vote, VoteKind,
};

/// Accumulates signed votes into block certificates.
///
/// Buckets are keyed by the *entire* vote content, so a Byzantine voter
/// cannot poison an honest bucket by lying about, say, the block height.
#[derive(Clone, Debug, Default)]
pub struct VoteAggregator {
    /// vote content -> votes collected so far.
    buckets: HashMap<Vote, Vec<SignedVote>>,
    /// Buckets that already produced a certificate.
    done: HashSet<Vote>,
    /// Views below which votes are no longer interesting (gc watermark).
    gc_before: View,
}

impl VoteAggregator {
    /// An empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a verified vote; returns a certificate the first time the bucket
    /// reaches quorum.
    ///
    /// The caller is responsible for signature verification (so it can be
    /// skipped in trusted large-scale experiments).
    pub fn add(&mut self, vote: SignedVote, ring: &Keyring) -> Option<QuorumCertificate> {
        let key = vote.vote;
        if vote.vote.view < self.gc_before || self.done.contains(&key) {
            return None;
        }
        let bucket = self.buckets.entry(key).or_default();
        if bucket.iter().any(|v| v.voter == vote.voter) {
            return None; // duplicate sender
        }
        bucket.push(vote);
        if bucket.len() >= ring.quorum_threshold() {
            // Signatures were verified on receipt, so assembly only
            // re-checks structure (distinctness, matching content, quorum)
            // and performs no cryptography — this runs on the driver thread.
            let qc = QuorumCertificate::from_votes_preverified(bucket, ring).ok()?;
            self.done.insert(key);
            self.buckets.remove(&key);
            return Some(qc);
        }
        None
    }

    /// Number of votes buffered for `(view, block, kind)` across all
    /// content variants — buckets differing only in claimed height (which a
    /// Byzantine voter can fabricate) are summed, so this measures the total
    /// buffering cost of the key, not any single bucket's progress.
    pub fn count(&self, view: View, block: BlockId, kind: VoteKind) -> usize {
        self.buckets
            .iter()
            .filter(|(k, _)| k.view == view && k.block_id == block && k.kind == kind)
            .map(|(_, v)| v.len())
            .sum()
    }

    /// Drops state for views before `view`.
    pub fn gc(&mut self, view: View) {
        self.gc_before = self.gc_before.max(view);
        self.buckets.retain(|k, _| k.view >= view);
        self.done.retain(|k| k.view >= view);
    }
}

/// Accumulates signed timeouts into timeout certificates and tracks the
/// `f + 1` amplification threshold (Bracha-style, §IV).
#[derive(Clone, Debug, Default)]
pub struct TimeoutAggregator {
    buckets: HashMap<View, Vec<SignedTimeout>>,
    /// Views whose TC has been produced.
    done: HashSet<View>,
    /// Views for which the `f+1` amplification has fired.
    amplified: HashSet<View>,
    gc_before: View,
}

/// What a newly added timeout message triggered.
#[derive(Clone, Debug, Default)]
pub struct TimeoutProgress {
    /// Crossed the `f + 1` threshold just now: evidence at least one honest
    /// node timed out, so the local node should echo its own timeout.
    pub amplify: bool,
    /// Crossed the quorum threshold just now.
    pub certificate: Option<TimeoutCertificate>,
}

impl TimeoutAggregator {
    /// An empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a verified timeout; reports threshold crossings.
    pub fn add(&mut self, timeout: SignedTimeout, ring: &Keyring) -> TimeoutProgress {
        let view = timeout.view();
        let mut progress = TimeoutProgress::default();
        if view < self.gc_before || self.done.contains(&view) {
            return progress;
        }
        let bucket = self.buckets.entry(view).or_default();
        if bucket.iter().any(|t| t.sender == timeout.sender) {
            return progress;
        }
        bucket.push(timeout);
        if bucket.len() == ring.honest_evidence_threshold() && self.amplified.insert(view) {
            progress.amplify = true;
        }
        if bucket.len() >= ring.quorum_threshold() {
            // Structure-only assembly: each timeout's signature and lock
            // were verified on receipt (see `VoteAggregator::add`).
            if let Ok(tc) = TimeoutCertificate::from_timeouts_preverified(bucket, ring) {
                self.done.insert(view);
                self.buckets.remove(&view);
                progress.certificate = Some(tc);
            }
        }
        progress
    }

    /// Number of distinct timeouts buffered for `view`.
    pub fn count(&self, view: View) -> usize {
        self.buckets.get(&view).map_or(0, Vec::len)
    }

    /// Drops state for views before `view`.
    pub fn gc(&mut self, view: View) {
        self.gc_before = self.gc_before.max(view);
        self.buckets.retain(|v, _| *v >= view);
        self.done.retain(|v| *v >= view);
        self.amplified.retain(|v| *v >= view);
    }
}

/// Accumulates Commit Moonshot pre-commit votes (§V, Fig. 4).
#[derive(Clone, Debug, Default)]
pub struct CommitVoteAggregator {
    buckets: HashMap<(View, BlockId), Vec<SignedCommitVote>>,
    done: HashSet<(View, BlockId)>,
    gc_before: View,
}

impl CommitVoteAggregator {
    /// An empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a verified commit vote; returns the committed block id the first
    /// time a quorum assembles.
    pub fn add(&mut self, vote: SignedCommitVote, ring: &Keyring) -> Option<BlockId> {
        let key = (vote.vote.view, vote.vote.block_id);
        if vote.vote.view < self.gc_before || self.done.contains(&key) {
            return None;
        }
        let bucket = self.buckets.entry(key).or_default();
        if bucket.iter().any(|v| v.voter == vote.voter) {
            return None;
        }
        bucket.push(vote);
        if bucket.len() >= ring.quorum_threshold() {
            self.done.insert(key);
            self.buckets.remove(&key);
            return Some(key.1);
        }
        None
    }

    /// Number of commit votes buffered for `(view, block)`.
    pub fn count(&self, view: View, block: BlockId) -> usize {
        self.buckets.get(&(view, block)).map_or(0, Vec::len)
    }

    /// Drops state for views before `view`.
    pub fn gc(&mut self, view: View) {
        self.gc_before = self.gc_before.max(view);
        self.buckets.retain(|(v, _), _| *v >= view);
        self.done.retain(|(v, _)| *v >= view);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moonshot_crypto::KeyPair;
    use moonshot_types::{Block, CommitVote, Height, NodeId, Payload, View, Vote};

    fn ring() -> Keyring {
        Keyring::simulated(4)
    }

    fn kp(i: u16) -> KeyPair {
        KeyPair::from_seed(i as u64)
    }

    fn block() -> Block {
        Block::build(View(1), NodeId(0), &Block::genesis(), Payload::empty())
    }

    fn vote(i: u16, kind: VoteKind, b: &Block) -> SignedVote {
        SignedVote::sign(
            Vote { kind, block_id: b.id(), block_height: b.height(), view: b.view() },
            NodeId(i),
            &kp(i),
        )
    }

    #[test]
    fn qc_emitted_exactly_once_at_quorum() {
        let mut agg = VoteAggregator::new();
        let b = block();
        assert!(agg.add(vote(0, VoteKind::Normal, &b), &ring()).is_none());
        assert!(agg.add(vote(1, VoteKind::Normal, &b), &ring()).is_none());
        let qc = agg.add(vote(2, VoteKind::Normal, &b), &ring());
        assert!(qc.is_some());
        assert_eq!(qc.unwrap().block_id(), b.id());
        // A fourth vote does not re-emit.
        assert!(agg.add(vote(3, VoteKind::Normal, &b), &ring()).is_none());
    }

    #[test]
    fn duplicate_voter_ignored() {
        let mut agg = VoteAggregator::new();
        let b = block();
        agg.add(vote(0, VoteKind::Normal, &b), &ring());
        agg.add(vote(0, VoteKind::Normal, &b), &ring());
        assert_eq!(agg.count(b.view(), b.id(), VoteKind::Normal), 1);
    }

    #[test]
    fn kinds_do_not_mix() {
        let mut agg = VoteAggregator::new();
        let b = block();
        agg.add(vote(0, VoteKind::Optimistic, &b), &ring());
        agg.add(vote(1, VoteKind::Optimistic, &b), &ring());
        // Third vote is normal: the optimistic bucket stays at 2.
        assert!(agg.add(vote(2, VoteKind::Normal, &b), &ring()).is_none());
        assert_eq!(agg.count(b.view(), b.id(), VoteKind::Optimistic), 2);
        // Completing the optimistic bucket yields an optimistic QC.
        let qc = agg.add(vote(3, VoteKind::Optimistic, &b), &ring()).unwrap();
        assert_eq!(qc.kind(), VoteKind::Optimistic);
    }

    #[test]
    fn gc_drops_old_views() {
        let mut agg = VoteAggregator::new();
        let b = block();
        agg.add(vote(0, VoteKind::Normal, &b), &ring());
        agg.gc(View(5));
        assert_eq!(agg.count(b.view(), b.id(), VoteKind::Normal), 0);
        // Votes for gc'd views are not re-admitted.
        assert!(agg.add(vote(1, VoteKind::Normal, &b), &ring()).is_none());
        assert_eq!(agg.count(b.view(), b.id(), VoteKind::Normal), 0);
    }

    fn timeout(i: u16, view: u64) -> SignedTimeout {
        SignedTimeout::sign(View(view), None, NodeId(i), &kp(i))
    }

    #[test]
    fn timeout_amplification_at_f_plus_one() {
        let mut agg = TimeoutAggregator::new();
        let p = agg.add(timeout(0, 3), &ring());
        assert!(!p.amplify && p.certificate.is_none());
        let p = agg.add(timeout(1, 3), &ring());
        assert!(p.amplify, "f+1 = 2 distinct timeouts amplify");
        assert!(p.certificate.is_none());
        let p = agg.add(timeout(2, 3), &ring());
        assert!(!p.amplify, "amplification fires once");
        let tc = p.certificate.expect("quorum of 3 forms TC");
        assert_eq!(tc.view(), View(3));
        // No re-emission.
        let p = agg.add(timeout(3, 3), &ring());
        assert!(p.certificate.is_none());
    }

    #[test]
    fn timeout_duplicate_sender_ignored() {
        let mut agg = TimeoutAggregator::new();
        agg.add(timeout(0, 1), &ring());
        let p = agg.add(timeout(0, 1), &ring());
        assert!(!p.amplify);
        assert_eq!(agg.count(View(1)), 1);
    }

    #[test]
    fn timeout_views_independent() {
        let mut agg = TimeoutAggregator::new();
        agg.add(timeout(0, 1), &ring());
        agg.add(timeout(1, 2), &ring());
        assert_eq!(agg.count(View(1)), 1);
        assert_eq!(agg.count(View(2)), 1);
    }

    fn commit_vote(i: u16, b: &Block) -> SignedCommitVote {
        SignedCommitVote::sign(
            CommitVote { block_id: b.id(), block_height: b.height(), view: b.view() },
            NodeId(i),
            &kp(i),
        )
    }

    #[test]
    fn commit_quorum_commits_once() {
        let mut agg = CommitVoteAggregator::new();
        let b = block();
        assert!(agg.add(commit_vote(0, &b), &ring()).is_none());
        assert!(agg.add(commit_vote(1, &b), &ring()).is_none());
        assert_eq!(agg.add(commit_vote(2, &b), &ring()), Some(b.id()));
        assert!(agg.add(commit_vote(3, &b), &ring()).is_none());
    }

    #[test]
    fn commit_votes_dedupe_by_sender() {
        let mut agg = CommitVoteAggregator::new();
        let b = block();
        agg.add(commit_vote(1, &b), &ring());
        agg.add(commit_vote(1, &b), &ring());
        assert_eq!(agg.count(b.view(), b.id()), 1);
    }

    #[test]
    fn vote_with_different_height_same_block_forms_separate_bucket() {
        // Malformed votes (wrong height) cannot poison an honest bucket.
        let mut agg = VoteAggregator::new();
        let b = block();
        let bad = Vote {
            kind: VoteKind::Normal,
            block_id: b.id(),
            block_height: Height(9),
            view: b.view(),
        };
        let sv = SignedVote::sign(bad, NodeId(0), &kp(0));
        agg.add(sv, &ring());
        agg.add(vote(1, VoteKind::Normal, &b), &ring());
        agg.add(vote(2, VoteKind::Normal, &b), &ring());
        // count sums across content variants: 1 poisoned + 2 well-formed.
        assert_eq!(agg.count(b.view(), b.id(), VoteKind::Normal), 3);
        // The poisoned vote never reaches the honest bucket, so completing
        // it still yields a certificate at the true height.
        let qc = agg.add(vote(3, VoteKind::Normal, &b), &ring()).unwrap();
        assert_eq!(qc.block_height(), b.height());
    }

    #[test]
    fn count_sums_across_two_poisoned_variants() {
        // Two Byzantine voters claim two *different* wrong heights for the
        // same (view, block, kind): three buckets exist, and count reports
        // the total buffered votes, not the largest bucket.
        let mut agg = VoteAggregator::new();
        let b = block();
        for (i, h) in [(0u16, 7u64), (1, 8)] {
            let poisoned = Vote {
                kind: VoteKind::Normal,
                block_id: b.id(),
                block_height: Height(h),
                view: b.view(),
            };
            agg.add(SignedVote::sign(poisoned, NodeId(i), &kp(i)), &ring());
        }
        agg.add(vote(2, VoteKind::Normal, &b), &ring());
        agg.add(vote(3, VoteKind::Normal, &b), &ring());
        // max over buckets would report 2; the sum is 1 + 1 + 2 = 4.
        assert_eq!(agg.count(b.view(), b.id(), VoteKind::Normal), 4);
        // Other keys are unaffected.
        assert_eq!(agg.count(b.view(), b.id(), VoteKind::Optimistic), 0);
    }
}
