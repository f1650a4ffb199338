//! [`Encode`]/[`Decode`] implementations for every domain type that crosses
//! the wire: payloads, blocks, votes, certificates and timeouts.
//!
//! Every implementation is the byte-level twin of the type's
//! [`WireSize`](moonshot_types::WireSize) accounting — the roundtrip
//! property tests assert `encoded.len() == wire_size()` for each, which is
//! what lets the DES bandwidth model and the TCP transport agree on costs.
//!
//! Decoding reconstructs values through their public constructors
//! ([`Block::from_parts`] recomputes the cached id;
//! [`MultiSig::from_entries`] rejects duplicate signers;
//! [`QuorumCertificate::from_parts`] / [`TimeoutCertificate::from_parts`]
//! build *unverified* certificates — transport-level decoding is not
//! signature verification, which stays where it always was, in the protocol
//! state machines).


use moonshot_consensus::Message;
use moonshot_crypto::signature::SIGNATURE_LEN;
use moonshot_crypto::{Digest, MultiSig, Signature};
use moonshot_types::{
    BatchRef, Block, Height, NodeId, Payload, QuorumCertificate, SignedCommitVote, SignedTimeout,
    SignedVote, TimeoutCertificate, View, Vote, VoteKind,
};
use moonshot_types::certificate::{TimeoutContent, TimeoutEntry};
use moonshot_types::vote::CommitVote;

use crate::codec::{Decode, Decoder, Encode, Encoder, WireError};

// Tag 0 carried full transaction bytes inside the block. It is retired, not
// reused: blockstores written by older builds must fail to decode, never
// decode as something else.
const PAYLOAD_SYNTHETIC: u8 = 1;
const PAYLOAD_BATCHES: u8 = 2;

impl Encode for View {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.0);
    }
}

impl Decode for View {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(View(dec.get_u64()?))
    }
}

impl Encode for Height {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.0);
    }
}

impl Decode for Height {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(Height(dec.get_u64()?))
    }
}

impl Encode for NodeId {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u16(self.0);
    }
}

impl Decode for NodeId {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(NodeId(dec.get_u16()?))
    }
}

impl Encode for Digest {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bytes(self.as_bytes());
    }
}

impl Decode for Digest {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let bytes = dec.take(32)?;
        let mut out = [0u8; 32];
        out.copy_from_slice(bytes);
        Ok(Digest(out))
    }
}

impl Encode for Signature {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bytes(&self.to_bytes());
    }
}

impl Decode for Signature {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let bytes = dec.take(SIGNATURE_LEN)?;
        let mut out = [0u8; SIGNATURE_LEN];
        out.copy_from_slice(bytes);
        Ok(Signature::from_bytes(out))
    }
}

impl Encode for VoteKind {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(match self {
            VoteKind::Optimistic => 0,
            VoteKind::Normal => 1,
            VoteKind::Fallback => 2,
        });
    }
}

impl Decode for VoteKind {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        match dec.get_u8()? {
            0 => Ok(VoteKind::Optimistic),
            1 => Ok(VoteKind::Normal),
            2 => Ok(VoteKind::Fallback),
            t => Err(WireError::UnknownTag(t)),
        }
    }
}

impl Encode for Payload {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Payload::Synthetic { size, digest } => {
                // A real link genuinely carries the payload's bytes: the
                // header names the size and content digest, then `size`
                // deterministic filler bytes stand in for the transactions
                // (the paper's leaders synthesize payloads the same way).
                enc.put_u8(PAYLOAD_SYNTHETIC);
                enc.put_u64(*size);
                digest.encode(enc);
                enc.put_zeros(*size as usize);
            }
            Payload::Batches { refs, .. } => {
                // 40 bytes per referenced batch, never the batch bytes. The list digest is recomputed at decode
                // (O(refs)), so it does not ride the wire.
                enc.put_u8(PAYLOAD_BATCHES);
                enc.put_u32(refs.len() as u32);
                for r in refs.iter() {
                    r.digest.encode(enc);
                    enc.put_u64(r.bytes);
                }
            }
        }
    }
}

impl Decode for Payload {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        match dec.get_u8()? {
            PAYLOAD_SYNTHETIC => {
                let size = dec.get_u64()?;
                let digest = Digest::decode(dec)?;
                if size > dec.remaining() as u64 {
                    return Err(WireError::Malformed("synthetic payload size exceeds frame"));
                }
                // The filler carries no information; skip it without copying.
                let _ = dec.take(size as usize)?;
                Ok(Payload::Synthetic { size, digest })
            }
            PAYLOAD_BATCHES => {
                let count = dec.get_count(40)?;
                let mut refs = Vec::with_capacity(count);
                for _ in 0..count {
                    let digest = Digest::decode(dec)?;
                    let bytes = dec.get_u64()?;
                    refs.push(BatchRef { digest, bytes });
                }
                // Rebuilds the cached list digest (what the block id commits
                // to) from the decoded refs — tampering cannot smuggle in a
                // mismatched digest because it is never trusted off the wire.
                Ok(Payload::batches(refs))
            }
            t => Err(WireError::UnknownTag(t)),
        }
    }
}

impl Encode for Block {
    fn encode(&self, enc: &mut Encoder) {
        self.view().encode(enc);
        self.height().encode(enc);
        self.parent_id().encode(enc);
        self.proposer().encode(enc);
        self.payload().encode(enc);
    }
}

impl Decode for Block {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let view = View::decode(dec)?;
        let height = Height::decode(dec)?;
        let parent_id = Digest::decode(dec)?;
        let proposer = NodeId::decode(dec)?;
        let payload = Payload::decode(dec)?;
        // from_parts recomputes the cached id, so a tampered body can never
        // smuggle in a mismatched identity.
        Ok(Block::from_parts(view, height, parent_id, proposer, payload))
    }
}

impl Encode for SignedVote {
    fn encode(&self, enc: &mut Encoder) {
        self.vote.kind.encode(enc);
        self.vote.block_id.encode(enc);
        self.vote.block_height.encode(enc);
        self.vote.view.encode(enc);
        self.voter.encode(enc);
        self.signature.encode(enc);
    }
}

impl Decode for SignedVote {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let kind = VoteKind::decode(dec)?;
        let block_id = Digest::decode(dec)?;
        let block_height = Height::decode(dec)?;
        let view = View::decode(dec)?;
        let voter = NodeId::decode(dec)?;
        let signature = Signature::decode(dec)?;
        Ok(SignedVote { vote: Vote { kind, block_id, block_height, view }, voter, signature })
    }
}

impl Encode for SignedCommitVote {
    fn encode(&self, enc: &mut Encoder) {
        self.vote.block_id.encode(enc);
        self.vote.block_height.encode(enc);
        self.vote.view.encode(enc);
        self.voter.encode(enc);
        self.signature.encode(enc);
    }
}

impl Decode for SignedCommitVote {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let block_id = Digest::decode(dec)?;
        let block_height = Height::decode(dec)?;
        let view = View::decode(dec)?;
        let voter = NodeId::decode(dec)?;
        let signature = Signature::decode(dec)?;
        Ok(SignedCommitVote {
            vote: CommitVote { block_id, block_height, view },
            voter,
            signature,
        })
    }
}

impl Encode for MultiSig {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u16(self.len() as u16);
        for (signer, sig) in self.iter() {
            enc.put_u16(signer);
            sig.encode(enc);
        }
    }
}

impl Decode for MultiSig {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let count = dec.get_u16()? as usize;
        if count * (2 + SIGNATURE_LEN) > dec.remaining() {
            return Err(WireError::Malformed("multisig count exceeds remaining bytes"));
        }
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let signer = dec.get_u16()?;
            let sig = Signature::decode(dec)?;
            entries.push((signer, sig));
        }
        MultiSig::from_entries(entries)
            .map_err(|_| WireError::Malformed("duplicate signer in multisig"))
    }
}

impl Encode for QuorumCertificate {
    fn encode(&self, enc: &mut Encoder) {
        self.kind().encode(enc);
        self.block_id().encode(enc);
        self.block_height().encode(enc);
        self.view().encode(enc);
        self.proof().encode(enc);
    }
}

impl Decode for QuorumCertificate {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let kind = VoteKind::decode(dec)?;
        let block_id = Digest::decode(dec)?;
        let block_height = Height::decode(dec)?;
        let view = View::decode(dec)?;
        let proof = MultiSig::decode(dec)?;
        Ok(QuorumCertificate::from_parts(kind, block_id, block_height, view, proof))
    }
}

impl Encode for SignedTimeout {
    fn encode(&self, enc: &mut Encoder) {
        self.content.view.encode(enc);
        self.content.lock_view.encode(enc);
        self.sender.encode(enc);
        self.signature.encode(enc);
        self.lock.encode(enc);
    }
}

impl Decode for SignedTimeout {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let view = View::decode(dec)?;
        let lock_view = Option::<View>::decode(dec)?;
        let sender = NodeId::decode(dec)?;
        let signature = Signature::decode(dec)?;
        let lock = Option::<QuorumCertificate>::decode(dec)?;
        Ok(SignedTimeout { content: TimeoutContent { view, lock_view }, sender, signature, lock })
    }
}

impl Encode for TimeoutEntry {
    fn encode(&self, enc: &mut Encoder) {
        self.sender.encode(enc);
        self.lock_view.encode(enc);
        self.signature.encode(enc);
    }
}

impl Decode for TimeoutEntry {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let sender = NodeId::decode(dec)?;
        let lock_view = Option::<View>::decode(dec)?;
        let signature = Signature::decode(dec)?;
        Ok(TimeoutEntry { sender, lock_view, signature })
    }
}

impl Encode for TimeoutCertificate {
    fn encode(&self, enc: &mut Encoder) {
        self.view().encode(enc);
        enc.put_u32(self.entries().len() as u32);
        for entry in self.entries() {
            entry.encode(enc);
        }
        self.high_qc().cloned().encode(enc);
    }
}

impl Decode for TimeoutCertificate {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let view = View::decode(dec)?;
        // A minimal entry is sender (2) + absent lock view (1) + sig (64).
        let count = dec.get_count(2 + 1 + SIGNATURE_LEN)?;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            entries.push(TimeoutEntry::decode(dec)?);
        }
        let high_qc = Option::<QuorumCertificate>::decode(dec)?;
        Ok(TimeoutCertificate::from_parts(view, entries, high_qc))
    }
}

/// The frame type tag for each [`Message`] variant (enum declaration order).
pub(crate) fn message_tag(msg: &Message) -> u8 {
    match msg {
        Message::OptPropose { .. } => 0,
        Message::Propose { .. } => 1,
        Message::FbPropose { .. } => 2,
        Message::CompactPropose { .. } => 3,
        Message::Vote(_) => 4,
        Message::Timeout(_) => 5,
        Message::Certificate(_) => 6,
        Message::TimeoutCert(_) => 7,
        Message::Status { .. } => 8,
        Message::CommitVote(_) => 9,
        Message::BlockRequest { .. } => 10,
        Message::BlockResponse { .. } => 11,
    }
}

/// Encodes a message's body — everything except the frame header, which
/// carries the variant tag.
pub(crate) fn encode_message_body(msg: &Message, enc: &mut Encoder) {
    match msg {
        Message::OptPropose { block, view } => {
            view.encode(enc);
            block.encode(enc);
        }
        Message::Propose { block, justify, view } => {
            view.encode(enc);
            justify.encode(enc);
            block.encode(enc);
        }
        Message::FbPropose { block, justify, tc, view } => {
            view.encode(enc);
            justify.encode(enc);
            tc.encode(enc);
            block.encode(enc);
        }
        Message::CompactPropose { block_id, justify, view } => {
            view.encode(enc);
            block_id.encode(enc);
            justify.encode(enc);
        }
        Message::Vote(sv) => sv.encode(enc),
        Message::Timeout(st) => st.encode(enc),
        Message::Certificate(qc) => qc.encode(enc),
        Message::TimeoutCert(tc) => tc.encode(enc),
        Message::Status { view, lock } => {
            view.encode(enc);
            lock.encode(enc);
        }
        Message::CommitVote(cv) => cv.encode(enc),
        Message::BlockRequest { block_id } => block_id.encode(enc),
        Message::BlockResponse { block } => block.encode(enc),
    }
}

/// Decodes a message body given the frame header's variant tag.
pub(crate) fn decode_message_body(tag: u8, dec: &mut Decoder<'_>) -> Result<Message, WireError> {
    match tag {
        0 => {
            let view = View::decode(dec)?;
            let block = Block::decode(dec)?;
            Ok(Message::OptPropose { block, view })
        }
        1 => {
            let view = View::decode(dec)?;
            let justify = QuorumCertificate::decode(dec)?;
            let block = Block::decode(dec)?;
            Ok(Message::Propose { block, justify, view })
        }
        2 => {
            let view = View::decode(dec)?;
            let justify = QuorumCertificate::decode(dec)?;
            let tc = TimeoutCertificate::decode(dec)?;
            let block = Block::decode(dec)?;
            Ok(Message::FbPropose { block, justify, tc, view })
        }
        3 => {
            let view = View::decode(dec)?;
            let block_id = Digest::decode(dec)?;
            let justify = QuorumCertificate::decode(dec)?;
            Ok(Message::CompactPropose { block_id, justify, view })
        }
        4 => Ok(Message::Vote(SignedVote::decode(dec)?)),
        5 => Ok(Message::Timeout(SignedTimeout::decode(dec)?)),
        6 => Ok(Message::Certificate(QuorumCertificate::decode(dec)?)),
        7 => Ok(Message::TimeoutCert(TimeoutCertificate::decode(dec)?)),
        8 => {
            let view = View::decode(dec)?;
            let lock = QuorumCertificate::decode(dec)?;
            Ok(Message::Status { view, lock })
        }
        9 => Ok(Message::CommitVote(SignedCommitVote::decode(dec)?)),
        10 => Ok(Message::BlockRequest { block_id: Digest::decode(dec)? }),
        11 => Ok(Message::BlockResponse { block: Block::decode(dec)? }),
        t => Err(WireError::UnknownTag(t)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moonshot_crypto::{KeyPair, Keyring};
    use moonshot_types::WireSize;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug + WireSize>(value: &T) {
        let bytes = value.to_wire_bytes();
        assert_eq!(bytes.len(), value.wire_size(), "encoded length vs wire_size");
        let mut dec = Decoder::new(&bytes);
        let back = T::decode(&mut dec).unwrap();
        dec.expect_exhausted().unwrap();
        assert_eq!(&back, value);
    }

    #[test]
    fn payload_variants_roundtrip() {
        roundtrip(&Payload::empty());
        roundtrip(&Payload::synthetic_items(10, 7));
        roundtrip(&Payload::batches(vec![
            BatchRef { digest: Digest::hash(b"batch-a"), bytes: 180_000 },
            BatchRef { digest: Digest::hash(b"batch-b"), bytes: 1_800 },
        ]));
        roundtrip(&Payload::batches(Vec::new()));
    }

    #[test]
    fn batches_payload_wire_cost_is_refs_not_bytes() {
        // A digest-only proposal referencing megabytes costs tens of bytes.
        let p = Payload::batches(vec![BatchRef {
            digest: Digest::hash(b"big"),
            bytes: 9_000_000,
        }]);
        assert_eq!(p.to_wire_bytes().len(), 1 + 4 + 40);
        assert_eq!(p.size(), 9_000_000);
    }

    #[test]
    fn block_roundtrip_preserves_id() {
        let block =
            Block::build(View(3), NodeId(1), &Block::genesis(), Payload::synthetic_items(5, 3));
        let bytes = block.to_wire_bytes();
        let back = Block::decode(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(back.id(), block.id());
        roundtrip(&block);
    }

    #[test]
    fn certificates_roundtrip() {
        let ring = Keyring::simulated(4);
        let block = Block::build(View(1), NodeId(0), &Block::genesis(), Payload::empty());
        let votes: Vec<SignedVote> = (0..3u16)
            .map(|i| {
                SignedVote::sign(
                    Vote {
                        kind: VoteKind::Optimistic,
                        block_id: block.id(),
                        block_height: block.height(),
                        view: block.view(),
                    },
                    NodeId(i),
                    &KeyPair::from_seed(i as u64),
                )
            })
            .collect();
        let qc = QuorumCertificate::from_votes(&votes, &ring).unwrap();
        roundtrip(&qc);
        roundtrip(&QuorumCertificate::genesis());

        let timeouts: Vec<SignedTimeout> = (0..3u16)
            .map(|i| {
                SignedTimeout::sign(View(4), Some(qc.clone()), NodeId(i), &KeyPair::from_seed(i as u64))
            })
            .collect();
        let tc = TimeoutCertificate::from_timeouts(&timeouts, &ring).unwrap();
        roundtrip(&tc);
        // Decoded certificates still verify.
        let bytes = tc.to_wire_bytes();
        let back = TimeoutCertificate::decode(&mut Decoder::new(&bytes)).unwrap();
        assert!(back.verify(&ring).is_ok());
    }

    #[test]
    fn multisig_decode_rejects_duplicate_signers() {
        let sig = KeyPair::from_seed(0).sign(b"m");
        let mut enc = Encoder::new();
        enc.put_u16(2);
        enc.put_u16(3);
        sig.encode(&mut enc);
        enc.put_u16(3);
        sig.encode(&mut enc);
        let bytes = enc.finish();
        assert!(matches!(
            MultiSig::decode(&mut Decoder::new(&bytes)),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn synthetic_payload_size_is_bounded_by_input() {
        // Claims 1 GiB of filler with almost nothing behind it.
        let mut enc = Encoder::new();
        enc.put_u8(PAYLOAD_SYNTHETIC);
        enc.put_u64(1 << 30);
        Digest::ZERO.encode(&mut enc);
        let bytes = enc.finish();
        assert!(matches!(
            Payload::decode(&mut Decoder::new(&bytes)),
            Err(WireError::Malformed(_))
        ));
    }
}
