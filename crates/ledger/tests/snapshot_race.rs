//! A snapshot taken while votes are being persisted never compacts away a
//! vote record above its own floor.
//!
//! Recovery after a compaction trusts the snapshot for everything below its
//! `wal_len`: a record there is gone from the log, and only the snapshot's
//! floors remember it. If a snapshot could record `voted_view = v` and an
//! offset past the record of the vote for `v + 1`, a restarted node would
//! forget that vote and could vote again in `v + 1`. This test plays the
//! driver persisting votes on one thread and snapshots on another, through
//! the public API only.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

use moonshot_consensus::protocol::Persist;
use moonshot_ledger::snapshot::Snapshot;
use moonshot_ledger::{Ledger, LedgerOptions};
use moonshot_types::{QuorumCertificate, View};

/// Votes the persisting thread writes, one fsync'd record each.
const VOTES: u64 = 5_000;

/// A throwaway directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!("moonshot-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
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

#[test]
fn a_snapshot_never_compacts_a_record_above_its_own_floor() {
    let dir = TempDir::new("snapshot-race");
    // Snapshots only when asked: the second thread below asks.
    let opts = LedgerOptions { epoch_blocks: 512, snapshot_every: u64::MAX };
    let (ledger, _) = Ledger::open(dir.path(), opts).unwrap();
    let qc = QuorumCertificate::genesis();
    let snapshot_at = dir.path().join("snapshot.snap");
    let load = || Snapshot::load(&snapshot_at).expect("a snapshot was just written");

    // Every vote record is the same size: same QC, fixed-width view.
    ledger.persist_vote(View(1), &qc);
    ledger.write_snapshot().unwrap();
    let record = load().wal_len;
    assert!(record > 0, "one vote record covered by the first snapshot");

    let done = AtomicBool::new(false);
    let snapshots = std::thread::scope(|s| {
        s.spawn(|| {
            for view in 2..=VOTES {
                ledger.persist_vote(View(view), &qc);
            }
            done.store(true, Ordering::SeqCst);
        });
        let mut snapshots = 0u64;
        while !done.load(Ordering::SeqCst) {
            ledger.write_snapshot().unwrap();
            let snap = load();
            assert_eq!(snap.wal_len % record, 0, "offset {} inside a record", snap.wal_len);
            // The records below `wal_len` are the votes for views
            // 1 ..= wal_len / record, all of which this snapshot may compact.
            let covered = snap.wal_len / record;
            assert!(
                snap.voted_view.0 >= covered,
                "snapshot {snapshots} floors voted_view at {} but covers the vote for view {covered}",
                snap.voted_view.0
            );
            snapshots += 1;
        }
        snapshots
    });
    assert!(snapshots > 0, "no snapshot raced the votes");
}
