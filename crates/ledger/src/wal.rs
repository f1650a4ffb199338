//! The consensus write-ahead log: one fsync'd record per vote or timeout.
//!
//! The WAL is the safety-critical half of the ledger. A record is appended
//! and `fdatasync`'d *before* the corresponding vote or timeout message is
//! released to the network, so the durable log always dominates what the
//! network may have seen: a node that crashes and recovers can reconstruct
//! "the highest view I may have voted or timed out in" from disk alone and
//! suppress any re-vote at or below it.
//!
//! Records use the shared on-disk framing from `moonshot_wire`
//! (`len | crc32 | body`, see [`moonshot_wire::encode_record`]). A crash can
//! tear the final record; [`Wal::open`] truncates the torn tail and reports
//! how many bytes were discarded. Because the fsync happens before the
//! network send, a torn record can only correspond to a message that was
//! *never sent* — truncating it is always safe.
//!
//! ## Compaction
//!
//! Offsets in the WAL are **logical**: they count every byte ever appended,
//! including bytes later compacted away. A compacted file carries a 16-byte
//! header (`MSHTWAL1` magic + the logical offset of its first surviving
//! byte); a fresh, never-compacted file has no header, so the format stays
//! backward compatible with pre-compaction logs. [`Wal::compact`] drops
//! whole records below a snapshot's recorded `wal_len` — state the snapshot
//! already summarises — by rewriting the surviving tail through a temp file
//! and an atomic rename, which bounds the log at roughly one
//! snapshot-interval of records without ever touching record framing.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use moonshot_types::{QuorumCertificate, View};
use moonshot_wire::{decode_record, encode_record, Decode, Decoder, Encode, Encoder};

/// One durable consensus-state record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// About to vote in `view` while locked on `lock`.
    Vote {
        /// The view being voted in.
        view: View,
        /// The node's high-QC (lock) at vote time.
        lock: QuorumCertificate,
    },
    /// About to multicast a timeout for `view` carrying `high_qc`.
    Timeout {
        /// The view being timed out.
        view: View,
        /// The node's high-QC at timeout time.
        high_qc: QuorumCertificate,
    },
}

const TAG_VOTE: u8 = 1;
const TAG_TIMEOUT: u8 = 2;

impl WalRecord {
    fn encode_body(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        match self {
            WalRecord::Vote { view, lock } => {
                enc.put_u8(TAG_VOTE);
                view.encode(&mut enc);
                lock.encode(&mut enc);
            }
            WalRecord::Timeout { view, high_qc } => {
                enc.put_u8(TAG_TIMEOUT);
                view.encode(&mut enc);
                high_qc.encode(&mut enc);
            }
        }
        enc.finish()
    }

    fn decode_body(body: &[u8]) -> Option<WalRecord> {
        let mut dec = Decoder::new(body);
        let tag = dec.get_u8().ok()?;
        let view = View::decode(&mut dec).ok()?;
        let qc = QuorumCertificate::decode(&mut dec).ok()?;
        match tag {
            TAG_VOTE => Some(WalRecord::Vote { view, lock: qc }),
            TAG_TIMEOUT => Some(WalRecord::Timeout { view, high_qc: qc }),
            _ => None,
        }
    }
}

/// What [`Wal::open`] recovered from disk.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// Every intact record, in append order (skipping any replay-start
    /// offset a snapshot allowed us to jump past).
    pub records: Vec<WalRecord>,
    /// Bytes discarded from a torn or corrupt tail.
    pub truncated_bytes: u64,
}

/// Header magic of a compacted WAL file. A fresh log has no header; the
/// first compaction installs one. The magic can never collide with record
/// framing: a record starts with a little-endian `u32` length, and these
/// bytes decode to a length far beyond the framing bound.
const WAL_MAGIC: &[u8; 8] = b"MSHTWAL1";
/// Header size: magic + `u64` logical base offset.
const WAL_HEADER_LEN: usize = 16;

/// An append-only, fsync-per-record log file with logical offsets that
/// survive [`Wal::compact`].
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Logical offset of the file's first surviving body byte (0 until the
    /// first compaction).
    base: u64,
    /// Logical length: `base` + surviving body bytes. This is what
    /// snapshots record, so it must never shrink.
    len: u64,
    /// Records appended by this incarnation (not counting replayed ones).
    pub appended: u64,
    /// Compactions performed by this incarnation.
    pub compactions: u64,
}

/// Splits raw file bytes into (logical base, body) according to the
/// optional compaction header.
fn split_header(bytes: &[u8]) -> (u64, &[u8]) {
    if bytes.len() >= WAL_HEADER_LEN && &bytes[..8] == WAL_MAGIC {
        let base = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        (base, &bytes[WAL_HEADER_LEN..])
    } else {
        (0, bytes)
    }
}

impl Wal {
    /// Opens (creating if absent) the WAL at `path`, replays intact records
    /// starting at **logical** byte `start` (from a snapshot's recorded
    /// offset; pass 0 for a full replay), and truncates any torn or corrupt
    /// tail in place.
    pub fn open(path: &Path, start: u64) -> std::io::Result<(Wal, WalReplay)> {
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (base, body) = split_header(&bytes);
        let header_len = bytes.len() - body.len();

        let mut replay = WalReplay::default();
        // Translate the snapshot's logical offset into this file. An offset
        // outside the surviving body — beyond the end (the WAL shrank
        // behind the snapshot's back) or inside the compacted prefix (a
        // stale snapshot) — is distrusted: replay the whole surviving body.
        // Replaying extra records is always safe (recovery takes maxima).
        let logical_end = base + body.len() as u64;
        let mut offset =
            if start >= base && start <= logical_end { (start - base) as usize } else { 0 };
        while offset < body.len() {
            match decode_record(&body[offset..]) {
                Ok((rec_body, consumed)) => match WalRecord::decode_body(rec_body) {
                    Some(rec) => {
                        replay.records.push(rec);
                        offset += consumed;
                    }
                    // Framing intact but body unreadable: same treatment as
                    // corruption — everything from here on is untrustworthy.
                    None => break,
                },
                Err(_) => break,
            }
        }
        if offset < body.len() {
            replay.truncated_bytes = (body.len() - offset) as u64;
            file.set_len((header_len + offset) as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::End(0))?;
        let wal = Wal {
            file,
            path: path.to_path_buf(),
            base,
            len: base + offset as u64,
            appended: 0,
            compactions: 0,
        };
        Ok((wal, replay))
    }

    /// Drops whole records whose bytes lie entirely below logical offset
    /// `upto` — typically a freshly written snapshot's `wal_len`, whose
    /// floors summarise exactly those records. The surviving tail is
    /// rewritten through a temp file and atomically renamed into place, so
    /// a crash mid-compaction leaves the previous file intact. Returns the
    /// number of logical bytes dropped (0 when there is nothing to drop).
    pub fn compact(&mut self, upto: u64) -> std::io::Result<u64> {
        let upto = upto.min(self.len);
        if upto <= self.base {
            return Ok(0);
        }
        let bytes = std::fs::read(&self.path)?;
        let (base, body) = split_header(&bytes);
        debug_assert_eq!(base, self.base);
        // Walk record boundaries up to the last one at or below `upto`;
        // records straddling it stay (the snapshot does not cover them).
        let target = (upto - self.base) as usize;
        let mut boundary = 0usize;
        while boundary < target {
            match decode_record(&body[boundary..]) {
                Ok((_, consumed)) if boundary + consumed <= target => boundary += consumed,
                _ => break,
            }
        }
        if boundary == 0 {
            return Ok(0);
        }
        let new_base = self.base + boundary as u64;
        let tmp = self.path.with_extension("wal-tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(WAL_MAGIC)?;
            f.write_all(&new_base.to_le_bytes())?;
            f.write_all(&body[boundary..])?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        self.file = file;
        self.base = new_base;
        self.compactions += 1;
        Ok(boundary as u64)
    }

    /// Appends `rec` and `fdatasync`s it to disk, returning the fsync
    /// latency in microseconds. The caller must not release the
    /// corresponding network message until this returns.
    pub fn append(&mut self, rec: &WalRecord) -> std::io::Result<u64> {
        let framed = encode_record(&rec.encode_body());
        self.file.write_all(&framed)?;
        let t = Instant::now();
        self.file.sync_data()?;
        let fsync_us = t.elapsed().as_micros() as u64;
        self.len += framed.len() as u64;
        self.appended += 1;
        Ok(fsync_us)
    }

    /// Current **logical** byte length (recorded into snapshots so replay
    /// can skip the prefix already summarised there). Monotone across
    /// compactions.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Bytes the log file actually occupies on disk right now — what
    /// compaction bounds (surviving body plus the header, if any).
    pub fn physical_len(&self) -> u64 {
        let header = if self.base > 0 { WAL_HEADER_LEN as u64 } else { 0 };
        self.len - self.base + header
    }

    /// Whether the log holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// CRC-32 one byte at a time, bit by bit: the value the bytewise table
    /// code wrote into every record before slicing-by-8.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
            }
        }
        !crc
    }

    /// A log whose records were checksummed bytewise replays in full, and
    /// an append writes those same bytes.
    #[test]
    fn a_log_checksummed_bytewise_replays_and_appends_match_it() {
        let records = [
            WalRecord::Vote { view: View(3), lock: QuorumCertificate::genesis() },
            WalRecord::Timeout { view: View(4), high_qc: QuorumCertificate::genesis() },
        ];
        let mut old = Vec::new();
        for rec in &records {
            let body = rec.encode_body();
            old.extend_from_slice(&(body.len() as u32).to_le_bytes());
            old.extend_from_slice(&crc32_bytewise(&body).to_le_bytes());
            old.extend_from_slice(&body);
        }
        let dir = std::env::temp_dir().join(format!("moonshot-wal-crc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old.wal");
        std::fs::write(&path, &old).unwrap();
        let (_, replay) = Wal::open(&path, 0).unwrap();
        assert_eq!(replay.records, records);
        assert_eq!(replay.truncated_bytes, 0);

        let fresh = dir.join("new.wal");
        let (mut wal, _) = Wal::open(&fresh, 0).unwrap();
        for rec in &records {
            wal.append(rec).unwrap();
        }
        assert_eq!(std::fs::read(&fresh).unwrap(), old);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
