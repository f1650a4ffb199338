//! Roundtrip property tests: for randomly generated instances of every
//! `Message` variant, `decode(encode(m)) == m` and the encoded frame's
//! length equals `m.wire_size()` exactly. The second property is what keeps
//! the discrete-event simulator's bandwidth accounting honest against the
//! real TCP transport.

use moonshot_consensus::Message;
use moonshot_crypto::{KeyPair, Keyring, Signature};
use moonshot_rng::DetRng;
use moonshot_types::certificate::TimeoutContent;
use moonshot_types::vote::CommitVote;
use moonshot_types::{
    BatchRef, Block, Height, NodeId, Payload, QuorumCertificate, SignedCommitVote, SignedTimeout,
    SignedVote, TimeoutCertificate, View, Vote, VoteKind, WireSize,
};
use moonshot_wire::{decode_frame, encode_frame, encode_message, Frame};

const N: u16 = 7; // keyring size for generated certificates

fn rand_view(rng: &mut DetRng) -> View {
    View(rng.gen_below(1 << 20))
}

fn rand_node(rng: &mut DetRng) -> NodeId {
    NodeId(rng.gen_below(N as u64) as u16)
}

fn rand_payload(rng: &mut DetRng) -> Payload {
    match rng.gen_below(3) {
        0 => Payload::batches(
            (0..rng.gen_below(8))
                .map(|_| BatchRef {
                    digest: moonshot_crypto::Digest::hash(&rng.next_u64().to_le_bytes()),
                    bytes: rng.gen_below(1 << 20),
                })
                .collect::<Vec<_>>(),
        ),
        1 => Payload::empty(),
        _ => Payload::synthetic_items(rng.gen_below(50), rng.next_u64()),
    }
}

fn rand_block(rng: &mut DetRng) -> Block {
    if rng.gen_bool(0.2) {
        Block::build(rand_view(rng), rand_node(rng), &Block::genesis(), rand_payload(rng))
    } else {
        Block::from_parts(
            rand_view(rng),
            Height(rng.gen_below(1 << 16)),
            moonshot_crypto::Digest::hash(&rng.next_u64().to_le_bytes()),
            rand_node(rng),
            rand_payload(rng),
        )
    }
}

fn rand_signature(rng: &mut DetRng) -> Signature {
    let mut bytes = [0u8; 64];
    bytes.copy_from_slice(&rng.gen_bytes(64));
    Signature::from_bytes(bytes)
}

fn rand_signed_vote(rng: &mut DetRng) -> SignedVote {
    let kind = match rng.gen_below(3) {
        0 => VoteKind::Optimistic,
        1 => VoteKind::Normal,
        _ => VoteKind::Fallback,
    };
    let block = rand_block(rng);
    let vote =
        Vote { kind, block_id: block.id(), block_height: block.height(), view: rand_view(rng) };
    // Half properly signed, half arbitrary signature bytes: the codec must
    // carry both faithfully (transport does not verify).
    if rng.gen_bool(0.5) {
        let voter = rand_node(rng);
        SignedVote::sign(vote, voter, &KeyPair::from_seed(voter.0 as u64))
    } else {
        SignedVote { vote, voter: rand_node(rng), signature: rand_signature(rng) }
    }
}

fn rand_qc(rng: &mut DetRng) -> QuorumCertificate {
    if rng.gen_bool(0.15) {
        return QuorumCertificate::genesis();
    }
    let ring = Keyring::simulated(N as usize);
    let block = rand_block(rng);
    let kind = if rng.gen_bool(0.5) { VoteKind::Optimistic } else { VoteKind::Normal };
    let votes: Vec<SignedVote> = (0..ring.quorum_threshold() as u16)
        .map(|i| {
            SignedVote::sign(
                Vote {
                    kind,
                    block_id: block.id(),
                    block_height: block.height(),
                    view: block.view(),
                },
                NodeId(i),
                &KeyPair::from_seed(i as u64),
            )
        })
        .collect();
    QuorumCertificate::from_votes(&votes, &ring).expect("quorum votes form a QC")
}

fn rand_timeout(rng: &mut DetRng) -> SignedTimeout {
    let sender = rand_node(rng);
    if rng.gen_bool(0.6) {
        let lock = if rng.gen_bool(0.5) { Some(rand_qc(rng)) } else { None };
        SignedTimeout::sign(rand_view(rng), lock, sender, &KeyPair::from_seed(sender.0 as u64))
    } else {
        // Adversarially mismatched lock_view vs lock — must still roundtrip.
        SignedTimeout {
            content: TimeoutContent {
                view: rand_view(rng),
                lock_view: if rng.gen_bool(0.5) { Some(rand_view(rng)) } else { None },
            },
            sender,
            signature: rand_signature(rng),
            lock: if rng.gen_bool(0.3) { Some(rand_qc(rng)) } else { None },
        }
    }
}

fn rand_tc(rng: &mut DetRng) -> TimeoutCertificate {
    let ring = Keyring::simulated(N as usize);
    let view = rand_view(rng);
    let lock = if rng.gen_bool(0.7) { Some(rand_qc(rng)) } else { None };
    let timeouts: Vec<SignedTimeout> = (0..ring.quorum_threshold() as u16)
        .map(|i| SignedTimeout::sign(view, lock.clone(), NodeId(i), &KeyPair::from_seed(i as u64)))
        .collect();
    TimeoutCertificate::from_timeouts(&timeouts, &ring).expect("quorum timeouts form a TC")
}

fn rand_commit_vote(rng: &mut DetRng) -> SignedCommitVote {
    let block = rand_block(rng);
    let vote =
        CommitVote { block_id: block.id(), block_height: block.height(), view: rand_view(rng) };
    let voter = rand_node(rng);
    if rng.gen_bool(0.5) {
        SignedCommitVote::sign(vote, voter, &KeyPair::from_seed(voter.0 as u64))
    } else {
        SignedCommitVote { vote, voter, signature: rand_signature(rng) }
    }
}

/// A random message of variant index `which` (0..=11, matching frame tags).
fn rand_message(which: u8, rng: &mut DetRng) -> Message {
    match which {
        0 => Message::OptPropose { block: rand_block(rng), view: rand_view(rng) },
        1 => Message::Propose {
            block: rand_block(rng),
            justify: rand_qc(rng),
            view: rand_view(rng),
        },
        2 => Message::FbPropose {
            block: rand_block(rng),
            justify: rand_qc(rng),
            tc: rand_tc(rng),
            view: rand_view(rng),
        },
        3 => Message::CompactPropose {
            block_id: rand_block(rng).id(),
            justify: rand_qc(rng),
            view: rand_view(rng),
        },
        4 => Message::Vote(rand_signed_vote(rng)),
        5 => Message::Timeout(rand_timeout(rng)),
        6 => Message::Certificate(rand_qc(rng)),
        7 => Message::TimeoutCert(rand_tc(rng)),
        8 => Message::Status { view: rand_view(rng), lock: rand_qc(rng) },
        9 => Message::CommitVote(rand_commit_vote(rng)),
        10 => Message::BlockRequest { block_id: rand_block(rng).id() },
        11 => Message::BlockResponse { block: rand_block(rng) },
        _ => unreachable!(),
    }
}

fn assert_roundtrip(msg: &Message) {
    let frame = Frame::Consensus(msg.clone());
    let bytes = encode_frame(&frame);
    assert_eq!(
        bytes.len(),
        msg.wire_size(),
        "encoded length must equal wire_size for {}",
        msg.tag()
    );
    assert_eq!(bytes, encode_message(msg), "encode_frame and encode_message must agree");
    let back = decode_frame(&bytes).unwrap_or_else(|e| panic!("decode {}: {e}", msg.tag()));
    assert_eq!(back, frame, "roundtrip must be identity for {}", msg.tag());
}

#[test]
fn every_variant_roundtrips_with_exact_wire_size() {
    let mut rng = DetRng::seed_from_u64(0xC0DEC);
    for which in 0..=11u8 {
        // Certificate-heavy variants are slower to generate; still cover
        // each with a healthy sample.
        let iters = if matches!(which, 2 | 7) { 12 } else { 40 };
        for _ in 0..iters {
            assert_roundtrip(&rand_message(which, &mut rng));
        }
    }
}

#[test]
fn hello_frame_roundtrips() {
    for node in [0u16, 1, 99, u16::MAX] {
        let frame = Frame::Hello { node: NodeId(node) };
        let bytes = encode_frame(&frame);
        assert_eq!(decode_frame(&bytes).unwrap(), frame);
    }
}

#[test]
fn distinct_messages_encode_distinctly() {
    let mut rng = DetRng::seed_from_u64(7);
    let mut seen = std::collections::HashSet::new();
    for which in 0..=11u8 {
        for _ in 0..10 {
            seen.insert(encode_message(&rand_message(which, &mut rng)));
        }
    }
    // Random messages collide only if the codec loses information.
    assert!(seen.len() >= 110, "suspiciously many encoding collisions: {}", seen.len());
}

#[test]
fn decoded_certificates_still_verify() {
    let mut rng = DetRng::seed_from_u64(42);
    let ring = Keyring::simulated(N as usize);
    for _ in 0..10 {
        let msg = Message::TimeoutCert(rand_tc(&mut rng));
        let Frame::Consensus(Message::TimeoutCert(tc)) =
            decode_frame(&encode_message(&msg)).unwrap()
        else {
            panic!("wrong variant");
        };
        assert!(tc.verify(&ring).is_ok(), "decoded TC must still verify");
    }
}
