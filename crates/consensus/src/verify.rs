//! Message verification: the `PreVerified` seam.
//!
//! [`MessageVerifier`] is the only place a signature, a certificate or a
//! payload digest is checked. Every way a message reaches a protocol's
//! rules goes through it:
//!
//! * [`ConsensusProtocol::handle_message`] runs the node's own verifier
//!   (the simulator's `ProtocolActor`, so every DES run and `LocalNet`,
//!   and tests);
//! * the node runtime's `Node` runs [`MessageVerifier::verify_batch`],
//!   through the protocol's own verifier, over the messages its peers sent
//!   since its last step — one call per step, on the network shard that
//!   steps it — and delivers through
//!   [`ConsensusProtocol::handle_preverified`].
//!
//! Both run the same function: [`MessageVerifier::verify`] is the
//! one-message case of `verify_batch`. The check is *pure* — it needs the
//! PKI and the verified-certificate cache, but no protocol state — which is
//! what lets a host batch it across the messages one step takes in.
//!
//! A [`PreVerified`] value is only constructed by the verifier after every
//! check passed, or by [`PreVerified::trusted`] for messages that need none.
//! Rule code takes only `PreVerified` messages and performs no
//! cryptography, so a correctly wired runtime performs **zero** signature
//! verifications inside the rules.
//!
//! The verifier shares its [`VerifiedCache`] with the protocol's
//! [`NodeConfig`], so a certificate checked once is a cache hit from then
//! on — but the cache key covers the proof (its signers and signatures) as
//! well as the certified content, so each *distinct proof* of a QC/TC costs
//! one raw multisig verification per node. The same certificate assembled
//! from another 2f + 1 signer set misses: under the Advance View rule every
//! node multicasts the QC it assembled itself, so a node can raw-verify up
//! to n − 1 proofs of one certificate per view. Checking once per content
//! is ROADMAP's first open item ("Verify each certificate once per
//! content").
//!
//! [`ConsensusProtocol::handle_message`]: crate::ConsensusProtocol::handle_message
//! [`ConsensusProtocol::handle_preverified`]: crate::ConsensusProtocol::handle_preverified

use std::fmt;
use std::sync::Arc;

use moonshot_crypto::{batch_verify, BatchItem, Digest, Keyring, Signature, VerifiedCache};

use moonshot_types::{Block, QuorumCertificate, TimeoutCertificate};

use crate::message::Message;
use crate::protocol::NodeConfig;

/// A message whose cryptography has already been checked.
///
/// Deliberately opaque: the only ways in are [`MessageVerifier::verify_batch`]
/// (and `verify`, its one-message case) and [`PreVerified::trusted`], which
/// keeps "was this verified?" a type
/// system question instead of a runtime flag.
#[derive(Clone, Debug)]
pub struct PreVerified(Message);

impl PreVerified {
    /// Wraps a message that needs no verification:
    ///
    /// * a loopback copy of a message this node signed itself (its own
    ///   multicasts and self-addressed sends);
    /// * a `BlockResponse` that [`BlockFetcher`](crate::sync::BlockFetcher)
    ///   served from this node's own durable block store — not self-signed,
    ///   but read back from the node's own disk;
    /// * any message in a simulation that turns verification off (large
    ///   trusted runs, where no node forges).
    pub fn trusted(message: Message) -> PreVerified {
        PreVerified(message)
    }

    /// The wrapped message.
    pub fn message(&self) -> &Message {
        &self.0
    }

    /// Unwraps the message.
    pub fn into_inner(self) -> Message {
        self.0
    }
}

/// Why a message failed verification. The offending message is dropped —
/// a Byzantine sender can always produce garbage, so there is nothing to
/// do but count it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// A vote, timeout or commit-vote signature failed.
    BadSignature(&'static str),
    /// An embedded or standalone certificate failed to verify.
    BadCertificate(&'static str),
    /// A carried block's payload does not hash to the digest its block id
    /// commits to — a Byzantine leader shipping other contents under a
    /// structurally valid block.
    BadPayload(&'static str),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::BadSignature(what) => write!(f, "invalid signature on {what}"),
            VerifyError::BadCertificate(what) => write!(f, "invalid certificate in {what}"),
            VerifyError::BadPayload(what) => write!(f, "payload/digest mismatch in {what}"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verifies messages against the PKI, routing certificates through a
/// shared [`VerifiedCache`]. A protocol owns one
/// ([`ConsensusProtocol::verifier`](crate::ConsensusProtocol::verifier)),
/// and the node runtime checks what peers send through it.
#[derive(Clone, Debug)]
pub struct MessageVerifier {
    ring: Keyring,
    cache: Arc<VerifiedCache>,
}

impl MessageVerifier {
    /// A verifier over `ring`, sharing `cache` with the protocol.
    pub fn new(ring: Keyring, cache: Arc<VerifiedCache>) -> MessageVerifier {
        MessageVerifier { ring, cache }
    }

    /// A verifier wired to `cfg`'s keyring and cache — how the replica core
    /// builds each node's verifier.
    pub fn for_config(cfg: &NodeConfig) -> MessageVerifier {
        MessageVerifier::new(cfg.keyring.clone(), cfg.verified_cache.clone())
    }

    /// Checks every signature in `message` — and, for messages carrying a
    /// full block, that the payload hashes to the digest the block id
    /// commits to — wrapping the message on success: the one-message case
    /// of [`MessageVerifier::verify_batch`].
    ///
    /// Block *chain* content (hash links, proposer/leader matching) is not
    /// checked here — that is protocol state validation and stays in the
    /// state machine (`Replica::admit`, which also keeps a non-leader's
    /// proposal out of the future-view buffer).
    ///
    /// # Errors
    ///
    /// The first failing signature or certificate; the caller drops the
    /// message and should count the event.
    pub fn verify(&self, message: Message) -> Result<PreVerified, VerifyError> {
        self.verify_batch(vec![message]).pop().expect("one result per message")
    }

    /// Verifies a batch of messages accumulated across connections,
    /// returning one result per input in order.
    ///
    /// The *outer* signatures of votes, commit-votes and timeouts — the
    /// O(n²)-per-view hot path — are collected into a single
    /// [`batch_verify`] call instead of being dispatched one by one. The
    /// [`VerifiedCache`] fast path is preserved: a vote whose cache key is
    /// already present resolves without entering the batch, and verified
    /// vote/commit-vote signatures are inserted afterwards so duplicates in
    /// later batches are hits. On a batch failure the offending item is
    /// rejected and the remainder re-submitted, so one forged signature
    /// costs one extra `batch_verify` call rather than failing neighbors.
    ///
    /// Certificate-carrying messages (proposals, standalone QCs/TCs,
    /// status, block responses) keep their per-message cached verification
    /// — certificates deduplicate so aggressively through the cache that
    /// batching their raw multisig checks would mostly batch cache hits.
    pub fn verify_batch(
        &self,
        messages: Vec<Message>,
    ) -> Vec<Result<PreVerified, VerifyError>> {
        let ring = &self.ring;
        let cache = &self.cache;

        /// How one input message resolves.
        enum Plan {
            /// Settled during collection: a cache hit, a timeout whose lock
            /// failed, or a message whose checks are all certificates.
            Resolved(Result<(), VerifyError>),
            /// Outer signature is item `idx` of the accumulated batch.
            Batched(usize),
        }

        /// One batched signature check plus what to do on success.
        struct Pending {
            signer: u16,
            bytes: Vec<u8>,
            sig: Signature,
            /// Error label.
            what: &'static str,
            /// Cache insert on success (votes and commit-votes; timeout
            /// outer signatures are never cached).
            insert: Option<(Digest, u64)>,
            /// Whether a failure counts a cache reject (votes and
            /// commit-votes, the kinds that are cached on success).
            reject_counts: bool,
        }

        let mut plans: Vec<Plan> = Vec::with_capacity(messages.len());
        let mut pending: Vec<Pending> = Vec::new();
        for message in &messages {
            match message {
                Message::Vote(sv) => {
                    let key = sv.cache_key();
                    if cache.contains(&key) {
                        plans.push(Plan::Resolved(Ok(())));
                    } else {
                        pending.push(Pending {
                            signer: sv.voter.signer_index(),
                            bytes: sv.vote.signing_bytes(),
                            sig: sv.signature,
                            what: "vote",
                            insert: Some((key, sv.vote.view.0)),
                            reject_counts: true,
                        });
                        plans.push(Plan::Batched(pending.len() - 1));
                    }
                }
                Message::CommitVote(cv) => {
                    let key = cv.cache_key();
                    if cache.contains(&key) {
                        plans.push(Plan::Resolved(Ok(())));
                    } else {
                        pending.push(Pending {
                            signer: cv.voter.signer_index(),
                            bytes: cv.vote.signing_bytes(),
                            sig: cv.signature,
                            what: "commit-vote",
                            insert: Some((key, cv.vote.view.0)),
                            reject_counts: true,
                        });
                        plans.push(Plan::Batched(pending.len() - 1));
                    }
                }
                Message::Timeout(st) => {
                    // The lock certificate check is cache-friendly and
                    // cheap; run it now so only the raw outer signature
                    // enters the batch.
                    if !st.lock_is_valid(|qc| qc.verify_cached(ring, cache).is_ok()) {
                        plans.push(Plan::Resolved(Err(VerifyError::BadSignature("timeout"))));
                    } else {
                        pending.push(Pending {
                            signer: st.sender.signer_index(),
                            bytes: st.content.signing_bytes(),
                            sig: st.signature,
                            what: "timeout",
                            insert: None,
                            reject_counts: false,
                        });
                        plans.push(Plan::Batched(pending.len() - 1));
                    }
                }
                _ => plans.push(Plan::Resolved(self.check_certificates(message))),
            }
        }

        // One batch_verify over everything collected; on failure, reject
        // the pinpointed item and re-submit the tail.
        let mut failures: Vec<Option<VerifyError>> = Vec::new();
        failures.resize_with(pending.len(), || None);
        let items: Vec<BatchItem<'_>> =
            pending.iter().map(|p| (p.signer, p.bytes.as_slice(), &p.sig)).collect();
        let mut start = 0;
        while start < items.len() {
            cache.note_batch(items.len() - start);
            match batch_verify(ring, &items[start..]) {
                Ok(()) => break,
                Err(offset) => {
                    let bad = start + offset;
                    failures[bad] = Some(VerifyError::BadSignature(pending[bad].what));
                    if pending[bad].reject_counts {
                        cache.note_rejected();
                    }
                    start = bad + 1;
                }
            }
        }
        for (p, failure) in pending.iter().zip(&failures) {
            if failure.is_none() {
                if let Some((key, view)) = p.insert {
                    cache.insert(key, view);
                }
            }
        }

        plans
            .into_iter()
            .zip(messages)
            .map(|(plan, message)| match plan {
                Plan::Resolved(Ok(())) => Ok(PreVerified(message)),
                Plan::Resolved(Err(e)) => Err(e),
                Plan::Batched(i) => match &failures[i] {
                    None => Ok(PreVerified(message)),
                    Some(e) => Err(e.clone()),
                },
            })
            .collect()
    }

    /// The checks of a message that carries no batchable signature: its
    /// embedded or standalone certificates, through the cache, and the
    /// payload digest of any full block it carries.
    fn check_certificates(&self, message: &Message) -> Result<(), VerifyError> {
        let qc_ok = |qc: &QuorumCertificate| qc.verify_cached(&self.ring, &self.cache).is_ok();
        let tc_ok = |tc: &TimeoutCertificate| tc.verify_cached(&self.ring, &self.cache).is_ok();
        let payload_ok = |block: &Block| block.payload().digest_matches_contents();
        match message {
            // Optimistic proposals carry no certificate: the block's vote
            // eligibility is protocol state, not cryptography. The payload,
            // however, must hash to what the block id commits to.
            Message::OptPropose { block, .. } if !payload_ok(block) => {
                Err(VerifyError::BadPayload("opt-propose block"))
            }
            Message::Propose { block, .. } if !payload_ok(block) => {
                Err(VerifyError::BadPayload("propose block"))
            }
            Message::Propose { justify, .. } | Message::CompactPropose { justify, .. }
                if !qc_ok(justify) =>
            {
                Err(VerifyError::BadCertificate("propose justify"))
            }
            Message::FbPropose { block, .. } if !payload_ok(block) => {
                Err(VerifyError::BadPayload("fb-propose block"))
            }
            Message::FbPropose { justify, .. } if !qc_ok(justify) => {
                Err(VerifyError::BadCertificate("fb-propose justify"))
            }
            Message::FbPropose { tc, .. } if !tc_ok(tc) => {
                Err(VerifyError::BadCertificate("fb-propose tc"))
            }
            Message::Certificate(qc) if !qc_ok(qc) => {
                Err(VerifyError::BadCertificate("certificate"))
            }
            Message::TimeoutCert(tc) if !tc_ok(tc) => {
                Err(VerifyError::BadCertificate("timeout-cert"))
            }
            Message::Status { lock, .. } if !qc_ok(lock) => {
                Err(VerifyError::BadCertificate("status lock"))
            }
            // Requests carry only a digest. Responses carry a full block:
            // chain validation stays in the sync layer, but the payload
            // integrity check belongs here with the rest of the
            // content-vs-commitment cryptography.
            Message::BlockResponse { block } if !payload_ok(block) => {
                Err(VerifyError::BadPayload("block-response"))
            }
            // Passed — or a vote, commit vote or timeout, which the batch
            // planner checks and never sends here.
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moonshot_crypto::KeyPair;
    use moonshot_types::{
        BatchRef, Block, NodeId, Payload, QuorumCertificate, SignedTimeout, SignedVote, View, Vote,
        VoteKind,
    };

    fn ring() -> Keyring {
        Keyring::simulated(4)
    }

    fn verifier() -> MessageVerifier {
        MessageVerifier::new(ring(), Arc::new(VerifiedCache::default()))
    }

    fn block() -> Block {
        Block::build(View(1), NodeId(0), &Block::genesis(), Payload::empty())
    }

    fn qc_for(b: &Block) -> QuorumCertificate {
        let votes: Vec<SignedVote> = (0..3u16)
            .map(|i| {
                SignedVote::sign(
                    Vote {
                        kind: VoteKind::Normal,
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

    #[test]
    fn valid_messages_pass_and_share_the_cache() {
        let v = verifier();
        let b = block();
        let qc = qc_for(&b);
        assert!(v.verify(Message::Certificate(qc.clone())).is_ok());
        // The same QC embedded in a proposal is now a cache hit.
        let next = Block::build(View(2), NodeId(1), &b, Payload::empty());
        let m = Message::Propose { block: next, justify: qc, view: View(2) };
        assert!(v.verify(m).is_ok());
        let s = v.cache.stats();
        assert!(s.hits >= 1, "expected a cache hit: {s:?}");
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn forged_vote_rejected() {
        let v = verifier();
        let b = block();
        // Signed with node 2's key but claiming to be node 1.
        let sv = SignedVote::sign(
            Vote {
                kind: VoteKind::Normal,
                block_id: b.id(),
                block_height: b.height(),
                view: b.view(),
            },
            NodeId(1),
            &KeyPair::from_seed(2),
        );
        assert_eq!(
            v.verify(Message::Vote(sv)).unwrap_err(),
            VerifyError::BadSignature("vote")
        );
    }

    #[test]
    fn forged_certificate_rejected_and_not_cached() {
        let v = verifier();
        let b = block();
        let qc = qc_for(&b);
        let other =
            Block::build(View(1), NodeId(1), &Block::genesis(), Payload::synthetic_items(1, 1));
        let forged = QuorumCertificate::from_parts(
            VoteKind::Normal,
            other.id(),
            other.height(),
            View(1),
            qc.proof().clone(),
        );
        for _ in 0..2 {
            assert!(v.verify(Message::Certificate(forged.clone())).is_err());
        }
        let s = v.cache.stats();
        assert_eq!(s.rejects, 2);
        assert_eq!(s.len, 0);
    }

    #[test]
    fn timeout_with_mismatched_lock_rejected() {
        let v = verifier();
        let b = block();
        let qc = qc_for(&b);
        let mut st = SignedTimeout::sign(View(5), Some(qc), NodeId(0), &KeyPair::from_seed(0));
        st.lock = Some(QuorumCertificate::genesis());
        assert_eq!(
            v.verify(Message::Timeout(st)).unwrap_err(),
            VerifyError::BadSignature("timeout")
        );
    }

    #[test]
    fn timeout_from_wrong_author_rejected() {
        let v = verifier();
        let qc = qc_for(&block());
        let mut st = SignedTimeout::sign(View(5), Some(qc), NodeId(0), &KeyPair::from_seed(0));
        st.sender = NodeId(1);
        assert_eq!(
            v.verify(Message::Timeout(st)).unwrap_err(),
            VerifyError::BadSignature("timeout")
        );
    }

    fn batch_ref(tag: u8) -> BatchRef {
        BatchRef { digest: Digest::hash(&[tag]), bytes: 256 }
    }

    /// A block with another reference list swapped in under the digest (and
    /// therefore the block id) of an honest payload — what a Byzantine
    /// leader can ship under a perfectly valid-looking block.
    fn tampered_block(view: View, proposer: NodeId, parent: &Block) -> Block {
        let honest = Payload::batches(vec![batch_ref(7)]);
        let tampered =
            Payload::Batches { refs: Arc::from(vec![batch_ref(8)]), digest: honest.digest() };
        Block::build(view, proposer, parent, tampered)
    }

    #[test]
    fn tampered_payload_rejected_in_proposals() {
        let v = verifier();
        let bad = tampered_block(View(1), NodeId(0), &Block::genesis());
        // The block header itself is structurally fine — only the digest
        // check catches the tampering.
        assert!(bad.header_is_valid());
        assert_eq!(
            v.verify(Message::OptPropose { view: View(1), block: bad.clone() }).unwrap_err(),
            VerifyError::BadPayload("opt-propose block")
        );
        let qc = qc_for(&block());
        assert_eq!(
            v.verify(Message::Propose { view: View(1), block: bad.clone(), justify: qc })
                .unwrap_err(),
            VerifyError::BadPayload("propose block")
        );
        assert_eq!(
            v.verify(Message::BlockResponse { block: bad }).unwrap_err(),
            VerifyError::BadPayload("block-response")
        );
    }

    #[test]
    fn honest_batches_payload_passes() {
        let v = verifier();
        let payload = Payload::batches(vec![batch_ref(7)]);
        let b = Block::build(View(1), NodeId(0), &Block::genesis(), payload);
        assert!(v.verify(Message::OptPropose { view: View(1), block: b }).is_ok());
    }

    fn vote_from(i: u16, b: &Block) -> SignedVote {
        SignedVote::sign(
            Vote {
                kind: VoteKind::Normal,
                block_id: b.id(),
                block_height: b.height(),
                view: b.view(),
            },
            NodeId(i),
            &KeyPair::from_seed(i as u64),
        )
    }

    #[test]
    fn batch_of_valid_votes_verifies_in_one_call() {
        let v = verifier();
        let b = block();
        let msgs: Vec<Message> = (0..4u16).map(|i| Message::Vote(vote_from(i, &b))).collect();
        let results = v.verify_batch(msgs.clone());
        assert!(results.iter().all(|r| r.is_ok()), "{results:?}");
        let s = v.cache.stats();
        assert_eq!((s.batch_calls, s.batch_items), (1, 4));
        assert_eq!(s.inserts, 4, "verified votes must land in the cache");

        // The same votes again: all cache hits, nothing batched.
        let results = v.verify_batch(msgs);
        assert!(results.iter().all(|r| r.is_ok()));
        let s = v.cache.stats();
        assert_eq!((s.batch_calls, s.batch_items), (1, 4), "hits must bypass the batch");
        assert_eq!(s.hits, 4);
    }

    #[test]
    fn batch_failure_pinpoints_forgery_and_spares_neighbors() {
        let v = verifier();
        let b = block();
        let mut forged = vote_from(1, &b);
        forged.voter = NodeId(2); // claims node 2, signed by node 1
        let msgs = vec![
            Message::Vote(vote_from(0, &b)),
            Message::Vote(forged),
            Message::Vote(vote_from(3, &b)),
        ];
        let results = v.verify_batch(msgs);
        assert!(results[0].is_ok());
        assert_eq!(results[1].clone().unwrap_err(), VerifyError::BadSignature("vote"));
        assert!(results[2].is_ok());
        let s = v.cache.stats();
        assert_eq!(s.rejects, 1);
        assert_eq!(s.inserts, 2, "survivors of a split batch still cache");
        assert_eq!(s.batch_calls, 2, "one retry after the failure split");
    }

    #[test]
    fn mixed_batch_routes_certificates_through_verify() {
        let v = verifier();
        let b = block();
        let qc = qc_for(&b);
        let st = SignedTimeout::sign(View(5), Some(qc.clone()), NodeId(0), &KeyPair::from_seed(0));
        let msgs = vec![
            Message::Certificate(qc),
            Message::Vote(vote_from(1, &b)),
            Message::Timeout(st),
            Message::BlockRequest { block_id: b.id() },
        ];
        let results = v.verify_batch(msgs);
        assert!(results.iter().all(|r| r.is_ok()), "{results:?}");
        let s = v.cache.stats();
        // Vote + timeout outer signature batched together.
        assert_eq!((s.batch_calls, s.batch_items), (1, 2));
    }

    #[test]
    fn batch_agrees_with_sequential_verify_on_bad_timeout_lock() {
        let v = verifier();
        let b = block();
        let qc = qc_for(&b);
        let mut st = SignedTimeout::sign(View(5), Some(qc), NodeId(0), &KeyPair::from_seed(0));
        st.lock = Some(QuorumCertificate::genesis());
        let results = v.verify_batch(vec![Message::Timeout(st)]);
        assert_eq!(results[0].clone().unwrap_err(), VerifyError::BadSignature("timeout"));
        assert_eq!(v.cache.stats().batch_items, 0, "lock mismatch resolves before the batch");
    }

    #[test]
    fn preverified_roundtrip() {
        let m = Message::BlockRequest { block_id: block().id() };
        let pv = PreVerified::trusted(m.clone());
        assert_eq!(pv.message().tag(), "block-request");
        assert_eq!(pv.into_inner(), m);
    }
}
