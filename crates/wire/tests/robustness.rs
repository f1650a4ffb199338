//! Decoder robustness: hostile bytes must never panic the decoder and must
//! never drive allocations past the frame cap. Strategies: truncation at
//! every prefix length, random bit flips, targeted length-field corruption,
//! and fully random garbage — against both `decode_frame` and the
//! incremental `FrameReader`.

use moonshot_consensus::Message;
use moonshot_crypto::{KeyPair, Keyring};
use moonshot_rng::DetRng;
use moonshot_types::{
    Block, NodeId, Payload, QuorumCertificate, SignedTimeout, SignedVote, TimeoutCertificate,
    View, Vote, VoteKind,
};
use moonshot_wire::{
    decode_frame, encode_message, Decode, Decoder, Encode, FrameReader, WireError,
};

/// A corpus of valid frames covering the structurally interesting variants
/// (nested certs, options, length-prefixed collections, payload filler).
fn corpus() -> Vec<Vec<u8>> {
    let ring = Keyring::simulated(4);
    let block = Block::build(View(3), NodeId(1), &Block::genesis(), Payload::synthetic_items(8, 3));
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
    let timeouts: Vec<SignedTimeout> = (0..3u16)
        .map(|i| {
            SignedTimeout::sign(View(4), Some(qc.clone()), NodeId(i), &KeyPair::from_seed(i as u64))
        })
        .collect();
    let tc = TimeoutCertificate::from_timeouts(&timeouts, &ring).unwrap();

    [
        Message::OptPropose { block: block.clone(), view: View(3) },
        Message::Propose { block: block.clone(), justify: qc.clone(), view: View(3) },
        Message::FbPropose { block: block.clone(), justify: qc.clone(), tc: tc.clone(), view: View(5) },
        Message::Vote(votes[0].clone()),
        Message::Timeout(timeouts[0].clone()),
        Message::Certificate(qc.clone()),
        Message::TimeoutCert(tc),
        Message::Status { view: View(3), lock: qc },
        Message::BlockRequest { block_id: block.id() },
        Message::BlockResponse { block },
    ]
    .iter()
    .map(encode_message)
    .collect()
}

#[test]
fn every_truncation_errors_cleanly() {
    for frame in corpus() {
        for len in 0..frame.len() {
            // Must return an error — never panic, never accept.
            assert!(
                decode_frame(&frame[..len]).is_err(),
                "truncation to {len}/{} decoded successfully",
                frame.len()
            );
        }
    }
}

#[test]
fn random_bit_flips_never_panic() {
    let mut rng = DetRng::seed_from_u64(0xF1B);
    for frame in corpus() {
        for _ in 0..200 {
            let mut mutated = frame.clone();
            let flips = 1 + rng.gen_below(4) as usize;
            for _ in 0..flips {
                let i = rng.gen_below(mutated.len() as u64) as usize;
                mutated[i] ^= 1 << rng.gen_below(8);
            }
            // Decoding may succeed only if the flips missed everything the
            // CRC covers (i.e. hit the CRC field itself and cancelled out) —
            // in practice it returns an error; either way it must not panic.
            let _ = decode_frame(&mutated);
        }
    }
}

#[test]
fn corrupt_interior_length_fields_never_panic_or_overallocate() {
    let mut rng = DetRng::seed_from_u64(0x1E57);
    for frame in corpus() {
        // Overwrite every aligned 4-byte window with extreme values: this
        // hits the body-length field, vector counts, payload sizes. Fix up
        // nothing — the decoder must reject via cap/count/CRC checks. The
        // count guard bounds any allocation by the bytes remaining in the
        // frame, so "never panics" here also exercises "never allocates
        // beyond the cap".
        for pos in (0..frame.len().saturating_sub(4)).step_by(4) {
            for val in [u32::MAX, u32::MAX / 2, 0x0100_0000, rng.next_u64() as u32] {
                let mut mutated = frame.clone();
                mutated[pos..pos + 4].copy_from_slice(&val.to_le_bytes());
                let _ = decode_frame(&mutated);
            }
        }
    }
}

#[test]
fn corrupt_header_length_is_rejected_by_cap_before_buffering() {
    let frame = corpus().remove(0);
    let mut mutated = frame.clone();
    // Header body-length field is at offset 8..12.
    mutated[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    match decode_frame(&mutated) {
        Err(WireError::FrameTooLarge { declared, cap }) => {
            assert_eq!(declared, u32::MAX as usize);
            assert!(declared > cap);
        }
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = DetRng::seed_from_u64(0x6A4BA6E);
    for _ in 0..500 {
        let len = rng.gen_below(512) as usize;
        let garbage = rng.gen_bytes(len);
        let _ = decode_frame(&garbage);
    }
    // Garbage that starts with valid magic + version digs deeper.
    for _ in 0..500 {
        let len = 6 + rng.gen_below(256) as usize;
        let mut garbage = rng.gen_bytes(len);
        garbage[..4].copy_from_slice(b"MSHT");
        garbage[4] = 1;
        let _ = decode_frame(&garbage);
    }
}

#[test]
fn frame_reader_survives_hostile_streams() {
    let mut rng = DetRng::seed_from_u64(0x57A6E);
    let corpus = corpus();
    for _ in 0..100 {
        // A stream of valid frames with one corrupted somewhere in the
        // middle, delivered in random-sized chunks.
        let mut stream = Vec::new();
        for _ in 0..3 {
            stream.extend_from_slice(&corpus[rng.gen_below(corpus.len() as u64) as usize]);
        }
        let i = rng.gen_below(stream.len() as u64) as usize;
        stream[i] ^= 0xFF;
        let mut reader = FrameReader::new();
        let mut pos = 0;
        let mut failed = false;
        while pos < stream.len() && !failed {
            let chunk = (1 + rng.gen_below(97) as usize).min(stream.len() - pos);
            reader.extend(&stream[pos..pos + chunk]);
            pos += chunk;
            loop {
                match reader.next_frame() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break,
                    Err(_) => {
                        // Fatal for the connection, as documented — stop
                        // feeding, like the transport dropping the peer.
                        failed = true;
                        break;
                    }
                }
            }
        }
        // Either the corruption hit a frame we detected, or it landed in a
        // frame not yet complete when the stream ended. Nothing panicked.
    }
}

#[test]
fn reader_buffer_stays_bounded_by_frames_not_stream_length() {
    // Feed many frames through a reader that drains as it goes: the internal
    // buffer must stay in the neighbourhood of one frame, not grow with the
    // total stream.
    let frame = corpus().remove(0);
    let mut reader = FrameReader::new();
    for _ in 0..200 {
        reader.extend(&frame);
        while reader.next_frame().unwrap().is_some() {}
        assert_eq!(reader.buffered(), 0);
    }
}

/// Payload tag 0 once framed transaction bytes inside the block. A block an
/// older build wrote (a blockstore segment, a peer that was not upgraded)
/// must be refused with an error — not decoded as something else, not a
/// panic — wherever its body is cut off.
#[test]
fn retired_data_payload_tag_is_a_decode_error() {
    let block = Block::build(View(3), NodeId(1), &Block::genesis(), Payload::empty());
    let mut bytes = block.to_wire_bytes();
    // Swap the trailing empty payload (tag + u32 count) for the old layout:
    // tag 0, u32 length, content digest, the bytes.
    bytes.truncate(bytes.len() - 5);
    bytes.push(0);
    bytes.extend_from_slice(&3u32.to_le_bytes());
    bytes.extend_from_slice(&[0xAB; 32]);
    bytes.extend_from_slice(&[1, 2, 3]);
    for cut in (bytes.len() - 39)..=bytes.len() {
        let decoded = Block::decode(&mut Decoder::new(&bytes[..cut]));
        assert!(decoded.is_err(), "a retired-tag block cut at {cut} decoded");
    }
    assert_eq!(
        Block::decode(&mut Decoder::new(&bytes)).unwrap_err(),
        WireError::UnknownTag(0)
    );
}
