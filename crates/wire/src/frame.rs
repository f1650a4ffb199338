//! The frame envelope and stream framing.
//!
//! Every top-level message travels in one frame:
//!
//! ```text
//! magic "MSHT" (4) | version (1) | type tag (1) | flags (2) |
//! body length (4, LE) | body CRC-32 (4, LE) | body …
//! ```
//!
//! The 16-byte header is exactly
//! [`ENVELOPE_WIRE`](moonshot_types::wire::ENVELOPE_WIRE), which is how
//! `Message::wire_size` equals the encoded frame length byte-for-byte.
//!
//! [`FrameReader`] turns a TCP byte stream back into frames incrementally.
//! It validates the header (magic, version, declared length against the
//! cap) as soon as 16 bytes are buffered — before waiting for the body — so
//! a corrupt or hostile stream is rejected without buffering anything close
//! to the declared length.

use std::sync::Arc;

use moonshot_consensus::Message;
use moonshot_crypto::Digest;
use moonshot_types::wire::ENVELOPE_WIRE;
use moonshot_types::NodeId;

use crate::codec::{Decode, Decoder, Encode, Encoder, WireError};
use crate::messages::{decode_message_body, encode_message_body, message_tag};

/// Leading bytes of every frame.
pub const FRAME_MAGIC: [u8; 4] = *b"MSHT";

/// Current wire-format version.
pub const PROTOCOL_VERSION: u8 = 1;

/// Bytes in the fixed frame header.
pub const FRAME_HEADER_LEN: usize = 16;

// The header IS the envelope the byte-accounting layer charges for.
const _: () = assert!(FRAME_HEADER_LEN == ENVELOPE_WIRE);

/// Largest accepted frame body. Proposals carry whole payloads (the paper's
/// experiments go up to ~9 MB per block), so the cap is generous — but it is
/// a hard bound: a declared length above it fails before any buffering.
pub const MAX_FRAME_BODY: usize = 16 * 1024 * 1024;

/// Type tag for the transport [`Frame::Hello`] preamble. Consensus messages
/// use tags 0..=11; transport-level frames start at 0x40.
pub const TAG_HELLO: u8 = 0x40;

/// Type tag for [`Frame::SubmitTx`]: a client transaction submission.
pub const TAG_SUBMIT_TX: u8 = 0x41;

/// Type tag for [`Frame::BatchPush`]: dissemination-plane batch delivery.
pub const TAG_BATCH_PUSH: u8 = 0x42;

/// Type tag for [`Frame::BatchRequest`]: a straggler fetching a batch.
pub const TAG_BATCH_REQUEST: u8 = 0x43;

/// Type tag for [`Frame::BatchResponse`]: a served batch.
pub const TAG_BATCH_RESPONSE: u8 = 0x44;

/// A top-level frame: the transport handshake, a client transaction
/// submission, or a consensus message.
// Frames are decoded and consumed immediately, never stored in bulk, so the
// Hello/Consensus size gap costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Connection preamble: the dialing node identifies itself.
    Hello {
        /// The sender's node id.
        node: NodeId,
    },
    /// One raw transaction submitted by a client. Clients are not
    /// validators, so this frame needs no [`Frame::Hello`] preamble; the
    /// receiving node feeds it straight into its mempool (admission control
    /// — budgets, delay target, dedup — happens there, not on the wire).
    SubmitTx {
        /// The submitting client's id, used for per-client fairness
        /// accounting in the mempool. Self-assigned and unauthenticated —
        /// it shapes scheduling, never safety.
        client: u32,
        /// The opaque transaction bytes.
        tx: Vec<u8>,
    },
    /// A consensus protocol message.
    Consensus(Message),
    /// Dissemination plane: a sealed transaction batch pushed to every peer
    /// *before* a leader proposes its digest. Handled entirely on the
    /// receiving network pool's shard loop (validate digest, insert into
    /// the batch store); it never reaches the consensus state machine.
    BatchPush {
        /// Content digest of `bytes` (the batch-store key). Receivers
        /// re-hash and reject mismatches.
        digest: Digest,
        /// The batch bytes, shared zero-copy with the store.
        bytes: Arc<[u8]>,
    },
    /// Dissemination plane: ask a peer for a batch referenced by a proposal
    /// but missing from the local store (the straggler fetch path).
    BatchRequest {
        /// Digest of the wanted batch.
        digest: Digest,
    },
    /// Dissemination plane: a served batch. Protected from drop-oldest in
    /// the outbound queue, like `BlockResponse` — dropping it would starve
    /// the very node whose vote is blocked on it.
    BatchResponse {
        /// Content digest of `bytes`.
        digest: Digest,
        /// The batch bytes.
        bytes: Arc<[u8]>,
    },
}

/// A parsed frame header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// Wire-format version (must equal [`PROTOCOL_VERSION`]).
    pub version: u8,
    /// Frame type tag.
    pub tag: u8,
    /// Reserved flag bits (currently always zero).
    pub flags: u16,
    /// Body length in bytes.
    pub body_len: usize,
    /// CRC-32 (IEEE) of the body.
    pub crc: u32,
}

impl FrameHeader {
    /// Parses and validates a header from the decoder, enforcing `cap` on
    /// the declared body length.
    pub fn parse(dec: &mut Decoder<'_>, cap: usize) -> Result<FrameHeader, WireError> {
        if dec.take(4)? != FRAME_MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = dec.get_u8()?;
        if version != PROTOCOL_VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        let tag = dec.get_u8()?;
        let flags = dec.get_u16()?;
        let body_len = dec.get_u32()? as usize;
        if body_len > cap {
            return Err(WireError::FrameTooLarge { declared: body_len, cap });
        }
        let crc = dec.get_u32()?;
        Ok(FrameHeader { version, tag, flags, body_len, crc })
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc_table();
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// Encodes a frame body straight into the final buffer after a placeholder
/// header, then backfills length and CRC in place. Body bytes — including
/// multi-megabyte payloads — are written exactly once; there is no
/// intermediate body `Vec` that gets copied behind a header.
fn encode_sealed(tag: u8, size_hint: usize, build: impl FnOnce(&mut Encoder)) -> Vec<u8> {
    let mut enc = Encoder::with_capacity(FRAME_HEADER_LEN + size_hint);
    enc.put_bytes(&FRAME_MAGIC);
    enc.put_u8(PROTOCOL_VERSION);
    enc.put_u8(tag);
    enc.put_u16(0); // flags
    enc.put_u32(0); // body length, backfilled below
    enc.put_u32(0); // body CRC, backfilled below
    build(&mut enc);
    let mut buf = enc.finish();
    let body_len = buf.len() - FRAME_HEADER_LEN;
    debug_assert!(body_len <= MAX_FRAME_BODY, "frame body exceeds cap");
    let crc = crc32(&buf[FRAME_HEADER_LEN..]);
    buf[8..12].copy_from_slice(&(body_len as u32).to_le_bytes());
    buf[12..16].copy_from_slice(&crc.to_le_bytes());
    buf
}

/// Encodes a consensus message into one complete frame. The result's length
/// equals `msg.wire_size()`.
pub fn encode_message(msg: &Message) -> Vec<u8> {
    use moonshot_types::WireSize;
    encode_sealed(message_tag(msg), msg.wire_size().saturating_sub(FRAME_HEADER_LEN), |enc| {
        encode_message_body(msg, enc)
    })
}

/// Encodes any frame (handshake, client submission or consensus) into bytes.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    match frame {
        Frame::Hello { node } => encode_sealed(TAG_HELLO, 2, |enc| node.encode(enc)),
        Frame::SubmitTx { client, tx } => encode_sealed(TAG_SUBMIT_TX, 4 + tx.len(), |enc| {
            enc.put_u32(*client);
            enc.put_bytes(tx);
        }),
        Frame::Consensus(msg) => encode_message(msg),
        Frame::BatchPush { digest, bytes } => {
            encode_sealed(TAG_BATCH_PUSH, 32 + bytes.len(), |enc| {
                enc.put_bytes(digest.as_bytes());
                enc.put_bytes(bytes);
            })
        }
        Frame::BatchRequest { digest } => {
            encode_sealed(TAG_BATCH_REQUEST, 32, |enc| enc.put_bytes(digest.as_bytes()))
        }
        Frame::BatchResponse { digest, bytes } => {
            encode_sealed(TAG_BATCH_RESPONSE, 32 + bytes.len(), |enc| {
                enc.put_bytes(digest.as_bytes());
                enc.put_bytes(bytes);
            })
        }
    }
}

/// Reads a digest followed by the rest of the body as batch bytes.
fn decode_digest_and_bytes(dec: &mut Decoder<'_>) -> Result<(Digest, Arc<[u8]>), WireError> {
    let mut digest = [0u8; 32];
    digest.copy_from_slice(dec.take(32)?);
    let bytes: Arc<[u8]> = Arc::from(dec.take(dec.remaining())?);
    Ok((Digest(digest), bytes))
}

fn decode_body(tag: u8, body: &[u8]) -> Result<Frame, WireError> {
    let mut dec = Decoder::new(body);
    let frame = if tag == TAG_HELLO {
        Frame::Hello { node: NodeId::decode(&mut dec)? }
    } else if tag == TAG_SUBMIT_TX {
        // Client id, then the rest of the body is the transaction; the
        // frame header already bounds and checksums it.
        let client = dec.get_u32()?;
        Frame::SubmitTx { client, tx: dec.take(dec.remaining())?.to_vec() }
    } else if tag == TAG_BATCH_PUSH {
        let (digest, bytes) = decode_digest_and_bytes(&mut dec)?;
        Frame::BatchPush { digest, bytes }
    } else if tag == TAG_BATCH_REQUEST {
        let mut digest = [0u8; 32];
        digest.copy_from_slice(dec.take(32)?);
        Frame::BatchRequest { digest: Digest(digest) }
    } else if tag == TAG_BATCH_RESPONSE {
        let (digest, bytes) = decode_digest_and_bytes(&mut dec)?;
        Frame::BatchResponse { digest, bytes }
    } else {
        Frame::Consensus(decode_message_body(tag, &mut dec)?)
    };
    dec.expect_exhausted()?;
    Ok(frame)
}

/// Decodes exactly one frame from `bytes`, rejecting trailing input. For
/// byte streams carrying many frames use [`FrameReader`].
pub fn decode_frame(bytes: &[u8]) -> Result<Frame, WireError> {
    let mut dec = Decoder::new(bytes);
    let header = FrameHeader::parse(&mut dec, MAX_FRAME_BODY)?;
    let body = dec.take(header.body_len)?;
    dec.expect_exhausted()?;
    if crc32(body) != header.crc {
        return Err(WireError::ChecksumMismatch);
    }
    decode_body(header.tag, body)
}

/// Incremental frame extraction from a byte stream.
///
/// Feed raw reads with [`extend`](FrameReader::extend), then drain complete
/// frames with [`next_frame`](FrameReader::next_frame). Any error is fatal
/// for the stream: framing is lost, so the caller must drop the connection.
///
/// # Examples
///
/// ```
/// use moonshot_types::NodeId;
/// use moonshot_wire::{encode_frame, Frame, FrameReader};
///
/// let bytes = encode_frame(&Frame::Hello { node: NodeId(3) });
/// let mut reader = FrameReader::new();
/// reader.extend(&bytes[..5]); // partial delivery
/// assert_eq!(reader.next_frame().unwrap(), None);
/// reader.extend(&bytes[5..]);
/// assert_eq!(reader.next_frame().unwrap(), Some(Frame::Hello { node: NodeId(3) }));
/// ```
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Bytes before this offset are already-consumed frames.
    start: usize,
    cap: usize,
}

impl Default for FrameReader {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameReader {
    /// A reader enforcing the default [`MAX_FRAME_BODY`] cap.
    pub fn new() -> Self {
        Self::with_cap(MAX_FRAME_BODY)
    }

    /// A reader with a custom body-size cap (tests, tighter deployments).
    pub fn with_cap(cap: usize) -> Self {
        FrameReader { buf: Vec::new(), start: 0, cap }
    }

    /// Appends raw bytes read from the stream.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Reclaim consumed space before growing, so the buffer stays bounded
        // by one partial frame plus one read's worth of bytes.
        if self.start > 0 && (self.start >= self.buf.len() || self.start >= 64 * 1024) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Extracts the next complete frame, `Ok(None)` if more bytes are
    /// needed. Errors are fatal: the stream's framing can no longer be
    /// trusted and the connection should be closed.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        let pending = &self.buf[self.start..];
        if pending.len() < FRAME_HEADER_LEN {
            return Ok(None);
        }
        // Validate the header before waiting for the body: an over-cap or
        // corrupt declared length fails here, not after buffering it.
        let mut dec = Decoder::new(pending);
        let header = FrameHeader::parse(&mut dec, self.cap)?;
        if dec.remaining() < header.body_len {
            return Ok(None);
        }
        let body = dec.take(header.body_len)?;
        if crc32(body) != header.crc {
            return Err(WireError::ChecksumMismatch);
        }
        let frame = decode_body(header.tag, body)?;
        self.start += FRAME_HEADER_LEN + header.body_len;
        Ok(Some(frame))
    }
}

// === On-disk record framing (ledger WAL + blockstore segments) ===========

/// Length of the per-record header: body length (u32 LE) + CRC-32 (u32 LE).
pub const RECORD_HEADER_LEN: usize = 8;

/// Upper bound on a single on-disk record body. Far above any real block or
/// WAL entry; a declared length beyond this is corruption, not a big record.
pub const MAX_RECORD_BODY: usize = 64 * 1024 * 1024;

/// Why a record could not be decoded from a byte buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordError {
    /// The buffer ends mid-record — the torn tail of a write interrupted by
    /// a crash. Safe to truncate the file here and carry on.
    Incomplete,
    /// The record is structurally complete but its CRC or declared length is
    /// wrong: bit rot, or a torn write whose garbage happens to span the
    /// header. Everything from this offset on is untrustworthy.
    Corrupt,
}

/// Frames `body` as an on-disk record: `len (u32 LE) | crc32 (u32 LE) | body`.
pub fn encode_record(body: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(RECORD_HEADER_LEN + body.len());
    buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(body).to_le_bytes());
    buf.extend_from_slice(body);
    buf
}

/// Decodes one record from the front of `buf`, returning the body slice and
/// the total bytes consumed (header + body).
pub fn decode_record(buf: &[u8]) -> Result<(&[u8], usize), RecordError> {
    if buf.len() < RECORD_HEADER_LEN {
        return Err(RecordError::Incomplete);
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
    if len > MAX_RECORD_BODY {
        return Err(RecordError::Corrupt);
    }
    let crc = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    let total = RECORD_HEADER_LEN + len;
    if buf.len() < total {
        return Err(RecordError::Incomplete);
    }
    let body = &buf[RECORD_HEADER_LEN..total];
    if crc32(body) != crc {
        return Err(RecordError::Corrupt);
    }
    Ok((body, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use moonshot_types::{Block, Payload, View, WireSize};

    fn sample_message() -> Message {
        let block =
            Block::build(View(2), NodeId(1), &Block::genesis(), Payload::synthetic_items(4, 2));
        Message::OptPropose { view: View(2), block }
    }

    #[test]
    fn frame_length_equals_wire_size() {
        let msg = sample_message();
        assert_eq!(encode_message(&msg).len(), msg.wire_size());
    }

    #[test]
    fn checksum_detects_body_corruption() {
        let mut bytes = encode_message(&sample_message());
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert_eq!(decode_frame(&bytes), Err(WireError::ChecksumMismatch));
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let mut bytes = encode_message(&sample_message());
        bytes[0] = b'X';
        assert_eq!(decode_frame(&bytes), Err(WireError::BadMagic));
        let mut bytes = encode_message(&sample_message());
        bytes[4] = 99;
        assert_eq!(decode_frame(&bytes), Err(WireError::UnsupportedVersion(99)));
    }

    #[test]
    fn oversize_declared_length_fails_before_body() {
        let bytes = encode_frame(&Frame::Hello { node: NodeId(0) });
        let mut reader = FrameReader::with_cap(1024);
        let mut header = bytes[..FRAME_HEADER_LEN].to_vec();
        header[8..12].copy_from_slice(&(2_000u32).to_le_bytes());
        reader.extend(&header);
        // Only the header has arrived; the reader must reject it already.
        assert!(matches!(reader.next_frame(), Err(WireError::FrameTooLarge { .. })));
    }

    #[test]
    fn reader_reassembles_across_arbitrary_splits() {
        let frames = [
            Frame::Hello { node: NodeId(7) },
            Frame::Consensus(sample_message()),
            Frame::Hello { node: NodeId(1) },
        ];
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode_frame(f));
        }
        for chunk in [1usize, 3, 7, stream.len()] {
            let mut reader = FrameReader::new();
            let mut out = Vec::new();
            for piece in stream.chunks(chunk) {
                reader.extend(piece);
                while let Some(f) = reader.next_frame().unwrap() {
                    out.push(f);
                }
            }
            assert_eq!(out, frames);
            assert_eq!(reader.buffered(), 0);
        }
    }

    #[test]
    fn submit_tx_roundtrips_and_survives_splits() {
        let frame =
            Frame::SubmitTx { client: 0xA1B2_C3D4, tx: (0u16..600).map(|i| i as u8).collect() };
        let bytes = encode_frame(&frame);
        assert_eq!(decode_frame(&bytes).unwrap(), frame);
        let mut reader = FrameReader::new();
        for piece in bytes.chunks(13) {
            reader.extend(piece);
        }
        assert_eq!(reader.next_frame().unwrap(), Some(frame));
        // An empty submission is legal framing; admission control rejects it
        // at the mempool, not the codec.
        let empty = Frame::SubmitTx { client: 7, tx: Vec::new() };
        assert_eq!(decode_frame(&encode_frame(&empty)).unwrap(), empty);
        // A SubmitTx body shorter than the client id is malformed.
        let mut truncated = encode_frame(&empty);
        truncated[8..12].copy_from_slice(&2u32.to_le_bytes());
        truncated.truncate(FRAME_HEADER_LEN + 2);
        let crc = crc32(&truncated[FRAME_HEADER_LEN..]);
        truncated[12..16].copy_from_slice(&crc.to_le_bytes());
        assert!(decode_frame(&truncated).is_err());
    }

    #[test]
    fn batch_frames_roundtrip() {
        let bytes: Arc<[u8]> = Arc::from((0u16..700).map(|i| i as u8).collect::<Vec<u8>>());
        let digest = Digest::hash(&bytes);
        for frame in [
            Frame::BatchPush { digest, bytes: bytes.clone() },
            Frame::BatchRequest { digest },
            Frame::BatchResponse { digest, bytes: bytes.clone() },
            // Empty batch bytes are legal framing.
            Frame::BatchPush { digest, bytes: Arc::from([] as [u8; 0]) },
        ] {
            let encoded = encode_frame(&frame);
            assert_eq!(decode_frame(&encoded).unwrap(), frame);
            let mut reader = FrameReader::new();
            for piece in encoded.chunks(11) {
                reader.extend(piece);
            }
            assert_eq!(reader.next_frame().unwrap(), Some(frame));
        }
        // A body shorter than the digest is malformed.
        let mut truncated = encode_frame(&Frame::BatchRequest { digest });
        truncated[8..12].copy_from_slice(&16u32.to_le_bytes());
        truncated.truncate(FRAME_HEADER_LEN + 16);
        let crc = crc32(&truncated[FRAME_HEADER_LEN..]);
        truncated[12..16].copy_from_slice(&crc.to_le_bytes());
        assert!(decode_frame(&truncated).is_err());
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn record_round_trip() {
        let body = b"hello ledger";
        let rec = encode_record(body);
        assert_eq!(rec.len(), RECORD_HEADER_LEN + body.len());
        let (decoded, consumed) = decode_record(&rec).unwrap();
        assert_eq!(decoded, body);
        assert_eq!(consumed, rec.len());
        // Two records back to back decode sequentially.
        let mut two = rec.clone();
        two.extend_from_slice(&encode_record(b"second"));
        let (first, used) = decode_record(&two).unwrap();
        assert_eq!(first, body);
        let (second, _) = decode_record(&two[used..]).unwrap();
        assert_eq!(second, b"second");
    }

    #[test]
    fn record_torn_tail_is_incomplete() {
        let rec = encode_record(b"will be torn");
        for cut in 0..rec.len() {
            assert_eq!(
                decode_record(&rec[..cut]).unwrap_err(),
                RecordError::Incomplete,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn record_bit_flip_is_corrupt() {
        let mut rec = encode_record(b"precious bytes");
        let last = rec.len() - 1;
        rec[last] ^= 0x01;
        assert_eq!(decode_record(&rec).unwrap_err(), RecordError::Corrupt);
        // A garbage declared length is corruption, not a huge record.
        let mut huge = encode_record(b"x");
        huge[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_record(&huge).unwrap_err(), RecordError::Corrupt);
    }
}
