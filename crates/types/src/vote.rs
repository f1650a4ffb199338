//! Votes: the signed acknowledgements nodes multicast for blocks.
//!
//! Pipelined Moonshot distinguishes three vote types — optimistic
//! (`opt-vote`), normal (`vote`) and fallback (`fb-vote`) — which may *not*
//! be aggregated together (§IV.A). Simple Moonshot and Jolteon use only the
//! normal type. Commit Moonshot adds an explicit commit vote (§V, Fig. 4).

use std::fmt;

use moonshot_crypto::{Digest, KeyPair, Keyring, Signature};

use crate::block::BlockId;
use crate::ids::{Height, NodeId, View};
use crate::wire::{WireSize, DIGEST_WIRE, INDEX_WIRE, SIGNATURE_WIRE, TAG_WIRE, U64_WIRE};

/// The type of a vote (and of the certificate it aggregates into).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum VoteKind {
    /// `opt-vote` — response to an optimistic proposal.
    Optimistic,
    /// `vote` — response to a normal proposal.
    Normal,
    /// `fb-vote` — response to a fallback proposal.
    Fallback,
}

impl VoteKind {
    fn domain_tag(self) -> &'static [u8] {
        match self {
            VoteKind::Optimistic => b"moonshot-opt-vote",
            VoteKind::Normal => b"moonshot-vote",
            VoteKind::Fallback => b"moonshot-fb-vote",
        }
    }
}

impl fmt::Display for VoteKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VoteKind::Optimistic => "opt-vote",
            VoteKind::Normal => "vote",
            VoteKind::Fallback => "fb-vote",
        };
        f.write_str(s)
    }
}

/// The content a voter signs: `⟨kind, H(B_k), v⟩` plus the block height
/// (carried so certificates are self-describing).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Vote {
    /// Which vote rule produced this vote.
    pub kind: VoteKind,
    /// The hash of the block being voted for.
    pub block_id: BlockId,
    /// The height of the block being voted for.
    pub block_height: Height,
    /// The view the vote is cast in.
    pub view: View,
}

impl Vote {
    /// Canonical byte encoding covered by the signature.
    pub fn signing_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(self.kind.domain_tag());
        out.extend_from_slice(self.block_id.as_bytes());
        out.extend_from_slice(&self.block_height.0.to_le_bytes());
        out.extend_from_slice(&self.view.0.to_le_bytes());
        out
    }
}

/// A vote together with its author and signature, as multicast on the wire.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SignedVote {
    /// The vote content.
    pub vote: Vote,
    /// The voting node.
    pub voter: NodeId,
    /// Signature over [`Vote::signing_bytes`].
    pub signature: Signature,
}

impl SignedVote {
    /// Signs `vote` with `keypair` on behalf of `voter`.
    pub fn sign(vote: Vote, voter: NodeId, keypair: &KeyPair) -> SignedVote {
        let signature = keypair.sign(&vote.signing_bytes());
        SignedVote { vote, voter, signature }
    }

    /// Verifies the signature against the PKI.
    pub fn verify(&self, ring: &Keyring) -> bool {
        ring.verify(self.voter.signer_index(), &self.vote.signing_bytes(), &self.signature)
    }

    /// The digest keying this vote in a verified-signature cache: content,
    /// voter and signature bytes.
    pub fn cache_key(&self) -> Digest {
        Digest::hash_parts(&[
            b"moonshot-vote-cache",
            &self.vote.signing_bytes(),
            &self.voter.signer_index().to_le_bytes(),
            &self.signature.to_bytes(),
        ])
    }
}

impl WireSize for SignedVote {
    fn wire_size(&self) -> usize {
        // kind tag + block id + height + view + voter + signature.
        TAG_WIRE + DIGEST_WIRE + U64_WIRE * 2 + INDEX_WIRE + SIGNATURE_WIRE
    }
}

/// A Commit Moonshot pre-commit vote: `⟨commit, H(B_k), v⟩` (§V, Fig. 4).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CommitVote {
    /// The block whose certificate the sender observed.
    pub block_id: BlockId,
    /// The height of that block.
    pub block_height: Height,
    /// The view the certificate was formed in.
    pub view: View,
}

impl CommitVote {
    /// Canonical byte encoding covered by the signature.
    pub fn signing_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(b"moonshot-commit-vote");
        out.extend_from_slice(self.block_id.as_bytes());
        out.extend_from_slice(&self.block_height.0.to_le_bytes());
        out.extend_from_slice(&self.view.0.to_le_bytes());
        out
    }
}

/// A signed commit vote.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SignedCommitVote {
    /// The pre-commit content.
    pub vote: CommitVote,
    /// The voting node.
    pub voter: NodeId,
    /// Signature over [`CommitVote::signing_bytes`].
    pub signature: Signature,
}

impl SignedCommitVote {
    /// Signs `vote` with `keypair` on behalf of `voter`.
    pub fn sign(vote: CommitVote, voter: NodeId, keypair: &KeyPair) -> SignedCommitVote {
        let signature = keypair.sign(&vote.signing_bytes());
        SignedCommitVote { vote, voter, signature }
    }

    /// Verifies the signature against the PKI.
    pub fn verify(&self, ring: &Keyring) -> bool {
        ring.verify(self.voter.signer_index(), &self.vote.signing_bytes(), &self.signature)
    }

    /// The digest keying this commit vote in a verified-signature cache.
    pub fn cache_key(&self) -> Digest {
        Digest::hash_parts(&[
            b"moonshot-commit-vote-cache",
            &self.vote.signing_bytes(),
            &self.voter.signer_index().to_le_bytes(),
            &self.signature.to_bytes(),
        ])
    }
}

impl WireSize for SignedCommitVote {
    fn wire_size(&self) -> usize {
        // block id + height + view + voter + signature (the message-level
        // type tag already says "commit vote"; no inner discriminant).
        DIGEST_WIRE + U64_WIRE * 2 + INDEX_WIRE + SIGNATURE_WIRE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moonshot_crypto::Digest;

    fn vote(kind: VoteKind) -> Vote {
        Vote {
            kind,
            block_id: Digest::hash(b"block"),
            block_height: Height(4),
            view: View(9),
        }
    }

    #[test]
    fn sign_and_verify() {
        let ring = Keyring::simulated(4);
        let kp = KeyPair::from_seed(2);
        let sv = SignedVote::sign(vote(VoteKind::Normal), NodeId(2), &kp);
        assert!(sv.verify(&ring));
    }

    #[test]
    fn wrong_author_fails() {
        let ring = Keyring::simulated(4);
        let kp = KeyPair::from_seed(2);
        let sv = SignedVote::sign(vote(VoteKind::Normal), NodeId(3), &kp);
        assert!(!sv.verify(&ring));
    }

    #[test]
    fn kinds_produce_distinct_signing_bytes() {
        let a = vote(VoteKind::Optimistic).signing_bytes();
        let b = vote(VoteKind::Normal).signing_bytes();
        let c = vote(VoteKind::Fallback).signing_bytes();
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }

    #[test]
    fn signing_bytes_cover_all_fields() {
        let base = vote(VoteKind::Normal);
        let mut other = base;
        other.view = View(10);
        assert_ne!(base.signing_bytes(), other.signing_bytes());
        let mut other = base;
        other.block_height = Height(5);
        assert_ne!(base.signing_bytes(), other.signing_bytes());
        let mut other = base;
        other.block_id = Digest::hash(b"other");
        assert_ne!(base.signing_bytes(), other.signing_bytes());
    }

    #[test]
    fn commit_vote_roundtrip() {
        let ring = Keyring::simulated(4);
        let kp = KeyPair::from_seed(1);
        let cv = CommitVote {
            block_id: Digest::hash(b"b"),
            block_height: Height(2),
            view: View(5),
        };
        let scv = SignedCommitVote::sign(cv, NodeId(1), &kp);
        assert!(scv.verify(&ring));
    }

    #[test]
    fn commit_vote_domain_separated_from_vote() {
        let v = vote(VoteKind::Normal);
        let cv = CommitVote {
            block_id: v.block_id,
            block_height: v.block_height,
            view: v.view,
        };
        assert_ne!(v.signing_bytes(), cv.signing_bytes());
    }

    #[test]
    fn votes_are_small_messages() {
        let kp = KeyPair::from_seed(0);
        let sv = SignedVote::sign(vote(VoteKind::Normal), NodeId(0), &kp);
        assert!(sv.wire_size() < 200);
    }
}
