//! The binary wire format for Moonshot consensus messages.
//!
//! `moonshot-types::wire` *accounts* for bytes; this crate *produces* them.
//! Every [`Message`](moonshot_consensus::Message) — blocks, votes, QCs/TCs,
//! sync messages — encodes to a length-prefixed, CRC-checked, versioned
//! frame whose size equals the message's
//! [`WireSize::wire_size`](moonshot_types::WireSize) exactly, so the
//! discrete-event simulator's bandwidth model and the real TCP transport in
//! `moonshot-node` charge for identical bytes.
//!
//! Layers:
//!
//! * [`codec`] — `Encode`/`Decode` traits over a bounds-checked byte cursor;
//!   primitives, options, length-prefixed vectors.
//! * [`messages`] — `Encode`/`Decode` for every domain type (payloads,
//!   blocks, votes, certificates, timeouts) and the message bodies.
//! * [`frame`] — the 16-byte envelope (magic, version, type tag, body
//!   length, CRC-32), [`encode_frame`]/[`decode_frame`], and the incremental
//!   [`FrameReader`] that extracts frames from a TCP byte stream.
//!
//! The decoder is hardened: truncated input, corrupt length fields, unknown
//! tags, checksum mismatches and over-cap frames all return a
//! [`WireError`] — never a panic — and no decode path allocates more than
//! the declared (and capped) frame size.
//!
//! # Examples
//!
//! ```
//! use moonshot_consensus::Message;
//! use moonshot_types::{Block, Payload, View, NodeId, WireSize};
//! use moonshot_wire::{decode_frame, encode_frame, Frame};
//!
//! let block = Block::build(View(1), NodeId(0), &Block::genesis(), Payload::empty());
//! let msg = Message::OptPropose { block, view: View(1) };
//! let bytes = encode_frame(&Frame::Consensus(msg.clone()));
//! assert_eq!(bytes.len(), msg.wire_size());
//! assert_eq!(decode_frame(&bytes).unwrap(), Frame::Consensus(msg));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod codec;
pub mod frame;
pub mod messages;

pub use codec::{Decode, Decoder, Encode, Encoder, WireError};
pub use frame::{
    decode_frame, decode_record, encode_frame, encode_message, encode_record, Frame, FrameHeader,
    FrameReader, RecordError, FRAME_HEADER_LEN, MAX_FRAME_BODY, MAX_RECORD_BODY, PROTOCOL_VERSION,
    RECORD_HEADER_LEN, TAG_SUBMIT_TX,
};
