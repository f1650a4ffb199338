//! The append-only blockstore: committed blocks in per-epoch segment files.
//!
//! Each segment file `segments/epoch-NNNNNN.seg` holds the committed blocks
//! whose heights fall in one epoch (`epoch = height / epoch_blocks`), framed
//! with the shared `len | crc32 | body` record format. The driver appends
//! each block in the step that commits it, and appends are *not* fsync'd
//! per block: unlike WAL state, a committed block lost to a crash is
//! re-fetchable from any honest peer, so the blockstore trades durability of
//! the last few records for throughput. Segments are fsync'd when they roll.
//!
//! On open, every segment is scanned in epoch order: records are CRC-checked
//! and decoded, an in-memory index (`BlockId -> (segment, offset)`) is
//! rebuilt, and the longest contiguous committed chain starting at height 1
//! is returned for recovery. A torn or corrupt tail truncates the file at
//! the damage point — later blocks are simply refetched from peers.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use moonshot_types::{Block, BlockId};
use moonshot_wire::{decode_record, encode_record, Decode, Decoder, Encode};

/// Where a block lives on disk.
#[derive(Clone, Copy, Debug)]
struct Location {
    epoch: u64,
    offset: u64,
    len: u64,
}

/// What [`BlockStore::open`] recovered.
#[derive(Debug, Default)]
pub struct StoreReplay {
    /// The longest contiguous committed chain from height 1 upward, in
    /// parent-first order (ready for `BlockTree` preload).
    pub chain: Vec<Block>,
    /// Records successfully decoded across all segments.
    pub replayed_records: u64,
    /// Bytes discarded from torn or corrupt segment tails.
    pub truncated_bytes: u64,
}

/// An append-only store of committed blocks in per-epoch segments.
#[derive(Debug)]
pub struct BlockStore {
    dir: PathBuf,
    epoch_blocks: u64,
    /// The open tail segment, if any block has ever been appended.
    current: Option<(u64, File)>,
    current_len: u64,
    index: HashMap<BlockId, Location>,
    /// Highest contiguously stored height.
    pub max_height: u64,
    /// Segment files in existence.
    pub segments: u64,
    /// Blocks appended by this incarnation.
    pub appended: u64,
}

impl BlockStore {
    /// Opens the store under `dir` (created if absent), scanning all
    /// segments to rebuild the index and recover the committed chain.
    pub fn open(dir: &Path, epoch_blocks: u64) -> std::io::Result<(BlockStore, StoreReplay)> {
        assert!(epoch_blocks > 0, "epoch_blocks must be positive");
        std::fs::create_dir_all(dir)?;

        let mut epochs: Vec<u64> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(num) = name.strip_prefix("epoch-").and_then(|s| s.strip_suffix(".seg")) {
                if let Ok(e) = num.parse::<u64>() {
                    epochs.push(e);
                }
            }
        }
        epochs.sort_unstable();

        let mut store = BlockStore {
            dir: dir.to_path_buf(),
            epoch_blocks,
            current: None,
            current_len: 0,
            index: HashMap::new(),
            max_height: 0,
            segments: epochs.len() as u64,
            appended: 0,
        };
        let mut replay = StoreReplay::default();
        let mut blocks: Vec<Block> = Vec::new();

        for (i, &epoch) in epochs.iter().enumerate() {
            let path = store.segment_path(epoch);
            let mut bytes = Vec::new();
            File::open(&path)?.read_to_end(&mut bytes)?;
            let mut offset = 0usize;
            while offset < bytes.len() {
                let parsed = decode_record(&bytes[offset..]).ok().and_then(|(body, consumed)| {
                    let mut dec = Decoder::new(body);
                    Block::decode(&mut dec).ok().map(|b| (b, consumed))
                });
                match parsed {
                    Some((block, consumed)) => {
                        store.index.insert(
                            block.id(),
                            Location { epoch, offset: offset as u64, len: consumed as u64 },
                        );
                        blocks.push(block);
                        replay.replayed_records += 1;
                        offset += consumed;
                    }
                    None => break,
                }
            }
            if offset < bytes.len() {
                // Damage. Truncate this segment at the damage point; if this
                // is not the last segment the later ones are left indexed —
                // recovery's contiguity walk below decides what is usable.
                replay.truncated_bytes += (bytes.len() - offset) as u64;
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(offset as u64)?;
                f.sync_data()?;
            }
            // Keep the last segment open for appends.
            if i == epochs.len() - 1 {
                let file = OpenOptions::new().append(true).open(&path)?;
                store.current = Some((epoch, file));
                store.current_len = offset as u64;
            }
        }

        // The committed chain is contiguous by construction (the driver
        // appends commits in order); stop at the first gap.
        blocks.sort_by_key(|b| b.height().0);
        for block in blocks {
            let h = block.height().0;
            if h == store.max_height + 1 {
                store.max_height = h;
                replay.chain.push(block);
            }
        }
        Ok((store, replay))
    }

    fn segment_path(&self, epoch: u64) -> PathBuf {
        self.dir.join(format!("epoch-{epoch:06}.seg"))
    }

    /// Appends a committed block, rolling to a new epoch segment when its
    /// height crosses the epoch boundary. Buffered by the OS — not fsync'd
    /// per record (see module docs); the previous segment is fsync'd on roll.
    pub fn append(&mut self, block: &Block) -> std::io::Result<()> {
        let epoch = block.height().0 / self.epoch_blocks;
        if self.current.as_ref().map(|(e, _)| *e) != Some(epoch) {
            if let Some((_, prev)) = self.current.take() {
                prev.sync_data()?;
            }
            let path = self.segment_path(epoch);
            let fresh = !path.exists();
            let file = OpenOptions::new().create(true).append(true).open(&path)?;
            self.current_len = file.metadata()?.len();
            self.current = Some((epoch, file));
            if fresh {
                self.segments += 1;
            }
        }
        let mut enc = moonshot_wire::Encoder::new();
        block.encode(&mut enc);
        let framed = encode_record(&enc.finish());
        let (epoch, file) = self.current.as_mut().expect("segment just opened");
        file.write_all(&framed)?;
        self.index.insert(
            block.id(),
            Location { epoch: *epoch, offset: self.current_len, len: framed.len() as u64 },
        );
        self.current_len += framed.len() as u64;
        self.appended += 1;
        if block.height().0 == self.max_height + 1 {
            self.max_height = block.height().0;
        }
        Ok(())
    }

    /// Reads a block back by id: an index hit, then one seek + read of the
    /// framed record from its segment file.
    pub fn get(&self, id: BlockId) -> Option<Block> {
        let loc = *self.index.get(&id)?;
        let mut file = File::open(self.segment_path(loc.epoch)).ok()?;
        file.seek(SeekFrom::Start(loc.offset)).ok()?;
        let mut buf = vec![0u8; loc.len as usize];
        file.read_exact(&mut buf).ok()?;
        let (body, _) = decode_record(&buf).ok()?;
        let mut dec = Decoder::new(body);
        Block::decode(&mut dec).ok()
    }

    /// Whether `id` is stored.
    pub fn contains(&self, id: BlockId) -> bool {
        self.index.contains_key(&id)
    }

    /// Number of indexed blocks.
    pub fn indexed(&self) -> usize {
        self.index.len()
    }
}
