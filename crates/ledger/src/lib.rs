//! Durable storage for a Moonshot node: WAL, blockstore, and snapshots.
//!
//! Everything safety-critical a node believes — its highest voted view, its
//! timeout state, its lock — lives in memory during operation; this crate
//! makes the subset that must survive a crash actually survive one:
//!
//! * [`wal`] — an fsync-per-record write-ahead log appended (via the
//!   [`Persist`] seam in `moonshot-consensus`) *before* a vote or timeout
//!   hits the wire, so a `kill -9`'d node provably cannot equivocate after
//!   recovery: the disk always dominates the network.
//! * [`blockstore`] — append-only per-epoch segment files of committed
//!   blocks, written off the hot path, CRC-checked and torn-tail-truncated
//!   on open; doubles as the [`LocalBlockSource`] that lets catch-up serve
//!   already-persisted blocks from disk instead of the network.
//! * [`snapshot`] — periodic atomic summaries that bound WAL replay length
//!   *and* WAL size: each snapshot write compacts away the WAL records its
//!   floors summarise, so the log stays at about one snapshot-interval of
//!   records. Recovery merges snapshot ⊔ WAL-tail ⊔ segment scan, taking
//!   maxima. Before the first compaction a missing or corrupt snapshot
//!   costs only a longer replay; after one, the snapshot is the sole
//!   carrier of the compacted records' floors — which is safe because
//!   compaction strictly follows a durable snapshot write.
//!
//! [`Ledger::open`] performs the whole recovery sequence and returns a
//! [`RecoveredState`] ready to hand to any protocol constructor through
//! `NodeConfig::recover`; the restarted node reloads the committed chain
//! from disk and fetches only the tail it missed from peers.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod blockstore;
pub mod snapshot;
pub mod wal;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use moonshot_consensus::protocol::{LocalBlockSource, Persist, RecoveredState};
use moonshot_telemetry::{Histogram, MetricsRegistry};
use moonshot_types::{Block, BlockId, QuorumCertificate, View};

use blockstore::BlockStore;
use snapshot::Snapshot;
use wal::{Wal, WalRecord};

/// Tuning knobs for a [`Ledger`].
#[derive(Clone, Copy, Debug)]
pub struct LedgerOptions {
    /// Committed blocks per blockstore segment file.
    pub epoch_blocks: u64,
    /// Write a snapshot every this many committed blocks.
    pub snapshot_every: u64,
}

impl Default for LedgerOptions {
    fn default() -> Self {
        LedgerOptions { epoch_blocks: 512, snapshot_every: 256 }
    }
}

/// The durable storage facade for one node.
///
/// Lock order (where multiple are held): `store` before `wal` before
/// `lock_qc` / `fsync_us`. The vote hot path takes only `wal` + `lock_qc`.
#[derive(Debug)]
pub struct Ledger {
    dir: PathBuf,
    opts: LedgerOptions,
    wal: Mutex<Wal>,
    store: Mutex<BlockStore>,
    /// Latest persisted lock certificate (snapshotted periodically).
    lock_qc: Mutex<Option<QuorumCertificate>>,
    voted_view: AtomicU64,
    timeout_view: AtomicU64,
    committed_height: AtomicU64,
    appends_since_snapshot: AtomicU64,
    replayed_records: u64,
    truncated_tail_bytes: u64,
    recovered_height: u64,
    fsync_us: Mutex<Histogram>,
}

impl Ledger {
    /// Opens (or creates) the ledger under `dir`, runs the full recovery
    /// sequence — load snapshot, replay the WAL tail past its offset, scan
    /// and tail-truncate blockstore segments — and returns the ledger plus
    /// the [`RecoveredState`] to construct the protocol with.
    pub fn open(
        dir: impl Into<PathBuf>,
        opts: LedgerOptions,
    ) -> std::io::Result<(Arc<Ledger>, RecoveredState)> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;

        let snap = Snapshot::load(&dir.join("snapshot.snap")).unwrap_or_default();
        let (wal, wal_replay) = Wal::open(&dir.join("wal.log"), snap.wal_len)?;
        let (store, store_replay) = BlockStore::open(&dir.join("segments"), opts.epoch_blocks)?;

        // Merge: every source is a floor; take maxima so no source can
        // regress another.
        let mut voted = snap.voted_view;
        let mut timeout = snap.timeout_view;
        let mut lock = snap.lock.clone();
        for rec in &wal_replay.records {
            let qc = match rec {
                WalRecord::Vote { view, lock } => {
                    voted = voted.max(*view);
                    lock
                }
                WalRecord::Timeout { view, high_qc } => {
                    timeout = timeout.max(*view);
                    high_qc
                }
            };
            if lock.as_ref().is_none_or(|cur| qc.view() > cur.view()) {
                lock = Some(qc.clone());
            }
        }

        let recovered = RecoveredState {
            voted_view: voted,
            timeout_view: timeout,
            lock: lock.clone(),
            committed: store_replay.chain,
        };

        let ledger = Ledger {
            dir,
            opts,
            voted_view: AtomicU64::new(voted.0),
            timeout_view: AtomicU64::new(timeout.0),
            committed_height: AtomicU64::new(store.max_height),
            appends_since_snapshot: AtomicU64::new(0),
            replayed_records: wal_replay.records.len() as u64 + store_replay.replayed_records,
            truncated_tail_bytes: wal_replay.truncated_bytes + store_replay.truncated_bytes,
            recovered_height: store.max_height,
            wal: Mutex::new(wal),
            store: Mutex::new(store),
            lock_qc: Mutex::new(lock),
            fsync_us: Mutex::new(Histogram::for_latency_us()),
        };
        Ok((Arc::new(ledger), recovered))
    }

    /// Appends a committed block to the blockstore (off the consensus hot
    /// path) and writes a snapshot every
    /// [`LedgerOptions::snapshot_every`] appends.
    pub fn append_committed(&self, block: &Block) -> std::io::Result<()> {
        {
            let mut store = self.store.lock().unwrap();
            store.append(block)?;
            self.committed_height.store(store.max_height, Ordering::Relaxed);
        }
        let n = self.appends_since_snapshot.fetch_add(1, Ordering::Relaxed) + 1;
        if n >= self.opts.snapshot_every {
            self.appends_since_snapshot.store(0, Ordering::Relaxed);
            self.write_snapshot()?;
        }
        Ok(())
    }

    /// Writes a snapshot of the current durable state (atomic via
    /// temp + rename), then compacts the WAL: records at or below the
    /// snapshot's recorded offset are summarised by the snapshot's floors,
    /// so dropping them keeps the log bounded at about one
    /// snapshot-interval of records instead of growing for the node's
    /// whole lifetime. Compaction strictly follows the snapshot write —
    /// a record is only ever dropped once a snapshot covering it is
    /// durably in place.
    pub fn write_snapshot(&self) -> std::io::Result<()> {
        let snap = Snapshot {
            voted_view: View(self.voted_view.load(Ordering::Relaxed)),
            timeout_view: View(self.timeout_view.load(Ordering::Relaxed)),
            lock: self.lock_qc.lock().unwrap().clone(),
            committed_height: self.committed_height.load(Ordering::Relaxed),
            wal_len: self.wal.lock().unwrap().len(),
        };
        snap.write(&self.dir.join("snapshot.snap"))?;
        self.wal.lock().unwrap().compact(snap.wal_len)?;
        Ok(())
    }

    /// Committed height found on disk at open (what the restarted node did
    /// NOT have to refetch; used for `restart_resync_blocks` accounting).
    pub fn recovered_height(&self) -> u64 {
        self.recovered_height
    }

    /// Current committed height on disk.
    pub fn committed_height(&self) -> u64 {
        self.committed_height.load(Ordering::Relaxed)
    }

    fn append_wal(&self, rec: WalRecord) {
        let fsync_us = {
            let mut wal = self.wal.lock().unwrap();
            // A disk that cannot persist safety state cannot host a correct
            // replica: crashing beats equivocating.
            wal.append(&rec).expect("ledger WAL append failed")
        };
        self.fsync_us.lock().unwrap().record(fsync_us);
    }

    /// Publishes `ledger.*` counters and the fsync histogram into a metrics
    /// registry (absolute values; callers re-publish periodically).
    pub fn publish_into(&self, m: &mut MetricsRegistry) {
        let (wal_appended, wal_bytes, wal_compactions) = {
            let wal = self.wal.lock().unwrap();
            (wal.appended, wal.physical_len(), wal.compactions)
        };
        let (segments, blocks_appended) = {
            let store = self.store.lock().unwrap();
            (store.segments, store.appended)
        };
        m.set_counter("ledger.wal_records", wal_appended);
        m.set_counter("ledger.wal_bytes", wal_bytes);
        m.set_counter("ledger.wal_compactions", wal_compactions);
        m.set_counter("ledger.segments", segments);
        m.set_counter("ledger.blocks_appended", blocks_appended);
        m.set_counter("ledger.replayed_records", self.replayed_records);
        m.set_counter("ledger.truncated_tail_bytes", self.truncated_tail_bytes);
        m.set_histogram("ledger.fsync_us", self.fsync_us.lock().unwrap().clone());
    }
}

impl Persist for Ledger {
    fn persist_vote(&self, view: View, lock: &QuorumCertificate) {
        self.voted_view.fetch_max(view.0, Ordering::Relaxed);
        *self.lock_qc.lock().unwrap() = Some(lock.clone());
        self.append_wal(WalRecord::Vote { view, lock: lock.clone() });
    }

    fn persist_timeout(&self, view: View, high_qc: &QuorumCertificate) {
        self.timeout_view.fetch_max(view.0, Ordering::Relaxed);
        self.append_wal(WalRecord::Timeout { view, high_qc: high_qc.clone() });
    }
}

impl LocalBlockSource for Ledger {
    fn local_block(&self, id: BlockId) -> Option<Block> {
        self.store.lock().unwrap().get(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;
    use std::sync::atomic::AtomicU32;

    /// A unique throwaway directory under the system temp dir, removed on
    /// drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            static SEQ: AtomicU32 = AtomicU32::new(0);
            let n = SEQ.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir()
                .join(format!("moonshot-ledger-{tag}-{}-{n}", std::process::id()));
            std::fs::create_dir_all(&path).unwrap();
            TempDir(path)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    // A structurally valid (genesis-shaped) QC is enough for storage tests.
    fn qc_at(_height: u64) -> QuorumCertificate {
        QuorumCertificate::genesis()
    }

    fn chain(n: u64) -> Vec<Block> {
        let mut blocks = Vec::new();
        let mut parent = Block::genesis();
        for i in 1..=n {
            let block = Block::build(
                View(i),
                moonshot_types::NodeId(0),
                &parent,
                moonshot_types::Payload::synthetic_items(1, i),
            );
            blocks.push(block.clone());
            parent = block;
        }
        blocks
    }

    fn opts(epoch_blocks: u64, snapshot_every: u64) -> LedgerOptions {
        LedgerOptions { epoch_blocks, snapshot_every }
    }

    #[test]
    fn wal_round_trip_and_replay_idempotence() {
        let dir = TempDir::new("wal-rt");
        {
            let (ledger, rec) = Ledger::open(dir.path(), opts(8, 1000)).unwrap();
            assert!(rec.is_empty());
            ledger.persist_vote(View(3), &qc_at(2));
            ledger.persist_timeout(View(4), &qc_at(2));
            ledger.persist_vote(View(5), &qc_at(4));
        }
        let (_, rec) = Ledger::open(dir.path(), opts(8, 1000)).unwrap();
        assert_eq!(rec.voted_view, View(5));
        assert_eq!(rec.timeout_view, View(4));
        assert!(rec.lock.is_some());
        // Replay is idempotent: reopening again yields the same state.
        let (ledger2, rec2) = Ledger::open(dir.path(), opts(8, 1000)).unwrap();
        assert_eq!(rec2.voted_view, rec.voted_view);
        assert_eq!(rec2.timeout_view, rec.timeout_view);
        assert_eq!(ledger2.replayed_records, 3);
    }

    #[test]
    fn wal_crc_bit_flip_truncates_tail() {
        let dir = TempDir::new("wal-flip");
        {
            let (ledger, _) = Ledger::open(dir.path(), opts(8, 1000)).unwrap();
            ledger.persist_vote(View(2), &qc_at(1));
            ledger.persist_vote(View(3), &qc_at(2));
        }
        // Flip a bit in the final record's body.
        let wal_path = dir.path().join("wal.log");
        let mut bytes = std::fs::read(&wal_path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&wal_path, &bytes).unwrap();

        let (ledger, rec) = Ledger::open(dir.path(), opts(8, 1000)).unwrap();
        assert_eq!(rec.voted_view, View(2), "corrupt record discarded, prefix survives");
        assert!(ledger.truncated_tail_bytes > 0);
        // The truncation is persistent: a third open sees a clean log.
        drop(ledger);
        let (ledger, rec) = Ledger::open(dir.path(), opts(8, 1000)).unwrap();
        assert_eq!(rec.voted_view, View(2));
        assert_eq!(ledger.truncated_tail_bytes, 0);
    }

    #[test]
    fn wal_torn_tail_truncated_on_open() {
        let dir = TempDir::new("wal-torn");
        {
            let (ledger, _) = Ledger::open(dir.path(), opts(8, 1000)).unwrap();
            ledger.persist_vote(View(7), &qc_at(3));
        }
        // Simulate a crash mid-append: half a record of garbage at the tail.
        let wal_path = dir.path().join("wal.log");
        let mut bytes = std::fs::read(&wal_path).unwrap();
        let intact = bytes.len();
        bytes.extend_from_slice(&[0xAB; 5]);
        std::fs::write(&wal_path, &bytes).unwrap();

        let (ledger, rec) = Ledger::open(dir.path(), opts(8, 1000)).unwrap();
        assert_eq!(rec.voted_view, View(7));
        assert_eq!(ledger.truncated_tail_bytes, 5);
        assert_eq!(std::fs::metadata(&wal_path).unwrap().len(), intact as u64);
    }

    #[test]
    fn segment_rollover_at_epoch_boundary() {
        let dir = TempDir::new("seg-roll");
        {
            let (ledger, _) = Ledger::open(dir.path(), opts(4, 1000)).unwrap();
            for b in chain(10) {
                ledger.append_committed(&b).unwrap();
            }
            let store = ledger.store.lock().unwrap();
            // Heights 1..=10 with 4 per epoch: epochs 0 (h1-3), 1 (h4-7),
            // 2 (h8-10).
            assert_eq!(store.segments, 3);
            assert_eq!(store.max_height, 10);
        }
        let (ledger, rec) = Ledger::open(dir.path(), opts(4, 1000)).unwrap();
        assert_eq!(rec.committed.len(), 10);
        assert_eq!(rec.committed.last().unwrap().height().0, 10);
        assert_eq!(ledger.recovered_height(), 10);
        // Every block is servable from disk by id.
        for b in &rec.committed {
            assert_eq!(ledger.local_block(b.id()).unwrap().id(), b.id());
        }
    }

    #[test]
    fn segment_torn_tail_loses_only_the_tail() {
        let dir = TempDir::new("seg-torn");
        let blocks = chain(6);
        {
            let (ledger, _) = Ledger::open(dir.path(), opts(100, 1000)).unwrap();
            for b in &blocks {
                ledger.append_committed(b).unwrap();
            }
        }
        // Chop into the final record.
        let seg = dir.path().join("segments").join("epoch-000000.seg");
        let len = std::fs::metadata(&seg).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 3).unwrap();

        let (ledger, rec) = Ledger::open(dir.path(), opts(100, 1000)).unwrap();
        assert_eq!(rec.committed.len(), 5, "only the torn final block is lost");
        assert!(ledger.truncated_tail_bytes > 0);
        assert!(ledger.local_block(blocks[5].id()).is_none());
        assert!(ledger.local_block(blocks[4].id()).is_some());
    }

    #[test]
    fn snapshot_then_reopen_equivalent_to_fresh_replay() {
        let dir = TempDir::new("snap-eq");
        {
            let (ledger, _) = Ledger::open(dir.path(), opts(4, 3)).unwrap();
            for (i, b) in chain(9).iter().enumerate() {
                ledger.persist_vote(View(i as u64 + 1), &qc_at(i as u64));
                ledger.append_committed(b).unwrap();
            }
            ledger.persist_timeout(View(10), &qc_at(9));
        }
        assert!(dir.path().join("snapshot.snap").exists(), "snapshot_every=3 must trigger");

        // Reopening is idempotent: snapshot floors ⊔ the (compacted) WAL
        // tail reproduce the full state, open after open.
        let (_, with_snap) = Ledger::open(dir.path(), opts(4, 3)).unwrap();
        let (_, again) = Ledger::open(dir.path(), opts(4, 3)).unwrap();

        assert_eq!(with_snap.voted_view, again.voted_view);
        assert_eq!(with_snap.timeout_view, again.timeout_view);
        assert_eq!(
            with_snap.lock.as_ref().map(|q| q.view()),
            again.lock.as_ref().map(|q| q.view())
        );
        assert_eq!(
            with_snap.committed.iter().map(Block::id).collect::<Vec<_>>(),
            again.committed.iter().map(Block::id).collect::<Vec<_>>()
        );
        assert_eq!(with_snap.voted_view, View(9));
        assert_eq!(with_snap.timeout_view, View(10));
        assert_eq!(with_snap.committed.len(), 9);
    }

    /// The compaction satellite, part 1: a long run's WAL stays bounded.
    /// Without compaction the log grows with every vote forever; with it,
    /// physical size oscillates around one snapshot-interval of records.
    #[test]
    fn long_run_wal_stays_bounded_by_compaction() {
        let dir = TempDir::new("wal-bound");
        let (ledger, _) = Ledger::open(dir.path(), opts(64, 8)).unwrap();
        let blocks = chain(200);
        let mut max_physical = 0u64;
        let record_size = {
            // One vote record's framed size, measured empirically.
            ledger.persist_vote(View(1), &qc_at(0));
            ledger.wal.lock().unwrap().physical_len()
        };
        for (i, b) in blocks.iter().enumerate() {
            ledger.persist_vote(View(i as u64 + 2), &qc_at(i as u64));
            ledger.append_committed(b).unwrap();
            max_physical = max_physical.max(ledger.wal.lock().unwrap().physical_len());
        }
        let (logical, physical, compactions) = {
            let wal = ledger.wal.lock().unwrap();
            (wal.len(), wal.physical_len(), wal.compactions)
        };
        assert!(compactions >= 20, "snapshot_every=8 over 200 commits: {compactions}");
        assert_eq!(logical, 201 * record_size, "logical offsets never shrink");
        // The bound: never more than one snapshot interval of records plus
        // the header and one in-flight record of slack.
        let bound = record_size * (8 + 2) + 16;
        assert!(
            max_physical <= bound,
            "WAL exceeded its compaction bound: {max_physical} > {bound}"
        );
        assert!(physical < logical / 10, "physical {physical} vs logical {logical}");

        // On-disk file agrees with the accounting.
        let disk = std::fs::metadata(dir.path().join("wal.log")).unwrap().len();
        assert_eq!(disk, physical);
    }

    /// The compaction satellite, part 2: recovery after compaction still
    /// floors `voted_view` correctly — the compacted records' floors come
    /// back through the snapshot, the surviving tail through replay, and
    /// appending keeps working across the reopen.
    #[test]
    fn recovery_after_compaction_floors_voted_view() {
        let dir = TempDir::new("wal-compact-rec");
        {
            let (ledger, _) = Ledger::open(dir.path(), opts(64, 4)).unwrap();
            for (i, b) in chain(10).iter().enumerate() {
                ledger.persist_vote(View(i as u64 + 1), &qc_at(i as u64));
                ledger.append_committed(b).unwrap();
            }
            // Votes past the last snapshot (at commit 8) survive only in
            // the WAL tail.
            ledger.persist_vote(View(11), &qc_at(10));
            ledger.persist_timeout(View(12), &qc_at(10));
            assert!(ledger.wal.lock().unwrap().compactions >= 2);
        }
        let (ledger, rec) = Ledger::open(dir.path(), opts(64, 4)).unwrap();
        assert_eq!(rec.voted_view, View(11), "snapshot floor ⊔ compacted tail");
        assert_eq!(rec.timeout_view, View(12));
        assert_eq!(rec.committed.len(), 10);
        // The recovered floor keeps advancing and surviving further
        // compaction cycles.
        ledger.persist_vote(View(13), &qc_at(11));
        ledger.write_snapshot().unwrap();
        drop(ledger);
        let (_, rec) = Ledger::open(dir.path(), opts(64, 4)).unwrap();
        assert_eq!(rec.voted_view, View(13));
        assert_eq!(rec.timeout_view, View(12));
    }

    /// A stale snapshot whose offset lies inside the compacted prefix is
    /// distrusted: the whole surviving body replays (idempotent, floors
    /// only), nothing panics, and the fresher state wins.
    #[test]
    fn stale_snapshot_offset_inside_compacted_prefix_replays_tail() {
        let dir = TempDir::new("wal-stale-snap");
        let (ledger, _) = Ledger::open(dir.path(), opts(64, 1000)).unwrap();
        for i in 1..=6u64 {
            ledger.persist_vote(View(i), &qc_at(i - 1));
        }
        // Snapshot at the current offset, then append more and compact.
        ledger.write_snapshot().unwrap();
        ledger.persist_vote(View(7), &qc_at(6));
        {
            let mut wal = ledger.wal.lock().unwrap();
            let len = wal.len();
            wal.compact(len - 1).unwrap(); // keeps only the last record
            assert!(wal.physical_len() < len);
        }
        drop(ledger);
        // Hand the WAL an offset *below* its base: Wal::open must fall
        // back to replaying the surviving body rather than skipping it.
        let (wal, replay) = Wal::open(&dir.path().join("wal.log"), 1).unwrap();
        assert_eq!(replay.records.len(), 1, "surviving tail fully replayed");
        assert!(matches!(replay.records[0], WalRecord::Vote { view: View(7), .. }));
        assert!(wal.physical_len() < wal.len(), "file must still be compacted");
    }

    #[test]
    fn metrics_publish_shape() {
        let dir = TempDir::new("metrics");
        let (ledger, _) = Ledger::open(dir.path(), opts(8, 1000)).unwrap();
        ledger.persist_vote(View(1), &qc_at(0));
        for b in chain(2) {
            ledger.append_committed(&b).unwrap();
        }
        let mut m = MetricsRegistry::new();
        ledger.publish_into(&mut m);
        assert_eq!(m.counter("ledger.wal_records"), 1);
        assert_eq!(m.counter("ledger.segments"), 1);
        assert_eq!(m.counter("ledger.blocks_appended"), 2);
        assert!(m.histogram("ledger.fsync_us").is_some());
    }
}
