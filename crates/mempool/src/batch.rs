//! Framing for transaction batches.
//!
//! A batch's bytes are a concatenation of `u32 length (LE) | transaction
//! bytes` entries — no count header, the batch length bounds iteration. The
//! framing is deliberately trivial: it must be parseable from a committed
//! batch alone, because that is how submit→commit latency is recovered
//! after a run.
//!
//! By convention a transaction's first [`TX_TIMESTAMP_BYTES`] bytes carry
//! its submit time in microseconds since the cluster epoch (little-endian).
//! The timestamp is part of the transaction bytes proper — it travels
//! through mempool, batch store and wire untouched, and doubles as entropy that
//! keeps load-generator transactions distinct under the dedup window.

/// Per-transaction framing overhead inside a batch (the `u32` length).
pub const BATCH_TX_OVERHEAD: usize = 4;

/// Leading bytes of a generated transaction that carry its submit
/// timestamp (µs since the cluster epoch, little-endian).
pub const TX_TIMESTAMP_BYTES: usize = 8;

use crate::pool::Tx;

/// Frames `txs` into payload bytes: `u32 len | bytes` per transaction.
pub fn encode_batch(txs: &[Tx]) -> Vec<u8> {
    let total: usize = txs.iter().map(|t| BATCH_TX_OVERHEAD + t.bytes.len()).sum();
    let mut out = Vec::with_capacity(total);
    for tx in txs {
        out.extend_from_slice(&(tx.bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(&tx.bytes);
    }
    out
}

/// Iterates the transactions inside committed payload bytes. Stops cleanly
/// at the first malformed entry (truncated length or body) — committed
/// payloads pass the digest integrity check first, so in practice this
/// only ends at the payload boundary.
pub fn batch_txs(payload: &[u8]) -> BatchTxs<'_> {
    BatchTxs { rest: payload }
}

/// Iterator over the transactions in a framed batch.
#[derive(Clone, Debug)]
pub struct BatchTxs<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for BatchTxs<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.rest.len() < BATCH_TX_OVERHEAD {
            return None;
        }
        let (len_bytes, rest) = self.rest.split_at(BATCH_TX_OVERHEAD);
        let len = u32::from_le_bytes(len_bytes.try_into().unwrap()) as usize;
        if rest.len() < len {
            self.rest = &[];
            return None;
        }
        let (tx, rest) = rest.split_at(len);
        self.rest = rest;
        Some(tx)
    }
}

/// Reads a transaction's embedded submit timestamp (µs since epoch), if it
/// is long enough to carry one.
pub fn tx_timestamp_us(tx: &[u8]) -> Option<u64> {
    tx.get(..TX_TIMESTAMP_BYTES).map(|b| u64::from_le_bytes(b.try_into().unwrap()))
}

/// Reads a generated transaction's embedded client id (the `u32` following
/// the timestamp, little-endian), if it is long enough to carry one. Used
/// to split committed-tx latency distributions per client.
pub fn tx_client_id(tx: &[u8]) -> Option<u32> {
    tx.get(TX_TIMESTAMP_BYTES..TX_TIMESTAMP_BYTES + 4)
        .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
}

/// Builds one load-generator transaction of exactly `size` bytes (min 20):
/// submit timestamp, client id and sequence number up front — which makes
/// every generated transaction unique under the dedup window — then
/// deterministic filler standing in for the paper's 180-byte items.
pub fn make_tx(timestamp_us: u64, client: u32, seq: u64, size: usize) -> Vec<u8> {
    let size = size.max(TX_TIMESTAMP_BYTES + 12);
    let mut tx = Vec::with_capacity(size);
    tx.extend_from_slice(&timestamp_us.to_le_bytes());
    tx.extend_from_slice(&client.to_le_bytes());
    tx.extend_from_slice(&seq.to_le_bytes());
    tx.resize(size, 0xA5);
    tx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_roundtrips_transactions_in_order() {
        let txs: Vec<Tx> =
            (0..5u64).map(|i| Tx::new(make_tx(1_000 + i, 9, i, 180))).collect();
        let payload = encode_batch(&txs);
        assert_eq!(payload.len(), 5 * (BATCH_TX_OVERHEAD + 180));
        let back: Vec<&[u8]> = batch_txs(&payload).collect();
        assert_eq!(back.len(), 5);
        for (i, tx) in back.iter().enumerate() {
            assert_eq!(tx_timestamp_us(tx), Some(1_000 + i as u64));
            assert_eq!(tx.len(), 180);
        }
    }

    #[test]
    fn truncated_batches_stop_without_panicking() {
        let txs = [Tx::new(make_tx(7, 0, 0, 64))];
        let payload = encode_batch(&txs);
        for cut in 0..payload.len() {
            let got = batch_txs(&payload[..cut]).count();
            assert!(got <= 1);
        }
        assert_eq!(batch_txs(&payload).count(), 1);
    }

    #[test]
    fn make_tx_enforces_header_and_uniqueness() {
        let a = make_tx(1, 2, 3, 0);
        assert_eq!(a.len(), TX_TIMESTAMP_BYTES + 12);
        let b = make_tx(1, 2, 4, 180);
        let c = make_tx(1, 2, 5, 180);
        assert_ne!(b, c);
        assert_eq!(tx_timestamp_us(&b), Some(1));
        assert_eq!(tx_client_id(&b), Some(2));
        assert_eq!(tx_client_id(&[0u8; 8]), None);
    }
}
