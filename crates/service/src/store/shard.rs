//! One shard of the persistent store: its memo tables plus their own
//! snapshot file and segmented WAL, owned by exactly one lock in
//! [`super::PersistentMemoStore`].

use super::codec::{
    decode_record, decode_snapshot, encode_cfg, encode_record, encode_sel, encode_snapshot,
    MemoTables, WalRecord,
};
use super::crash;
use super::segment::{list_segments, segment_file_name, SegmentReader, SegmentWriter};
use super::{FORMAT_VERSION, SNAPSHOT_FILE};
use robotune::ShardStatus;
use robotune_space::Configuration;
use serde_json::Value;
use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};

/// Per-shard persistence engine. All methods assume the caller holds
/// this shard's lock.
pub(crate) struct ShardCore {
    index: usize,
    dir: PathBuf,
    corrupt_dir: PathBuf,
    segment_max_bytes: u64,
    compact_after_sealed: u64,
    inner: MemoTables,
    writer: Option<SegmentWriter>,
    /// Sequence numbers of segment files currently on disk, ascending.
    live_segments: Vec<u64>,
    next_seq: u64,
    /// Highest LSN durably appended (or recovered) in this shard.
    last_lsn: u64,
    /// LSN the on-disk snapshot is current through.
    snap_lsn: u64,
    degraded: bool,
    corrupt_segments: u64,
    torn_tails: u64,
    boot_replayed: u64,
}

impl ShardCore {
    /// Opens shard `index` under `root`, replaying snapshot then WAL
    /// segments. Corruption never fails the boot: bad segments are
    /// quarantined into `corrupt_dir` and the valid prefix is folded
    /// into a fresh snapshot immediately.
    pub(crate) fn open(
        root: &Path,
        corrupt_dir: &Path,
        index: usize,
        segment_max_bytes: u64,
        compact_after_sealed: u64,
    ) -> Result<ShardCore, String> {
        let dir = root.join(format!("shard-{index:02}"));
        fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut shard = ShardCore {
            index,
            dir,
            corrupt_dir: corrupt_dir.to_path_buf(),
            segment_max_bytes,
            compact_after_sealed,
            inner: MemoTables::default(),
            writer: None,
            live_segments: Vec::new(),
            next_seq: 1,
            last_lsn: 0,
            snap_lsn: 0,
            degraded: false,
            corrupt_segments: 0,
            torn_tails: 0,
            boot_replayed: 0,
        };
        shard.boot()?;
        Ok(shard)
    }

    fn boot(&mut self) -> Result<(), String> {
        // A crash between writing the tmp snapshot and the rename
        // leaves a stray tmp; it was never the authoritative copy.
        let tmp = self.dir.join(format!("{SNAPSHOT_FILE}.tmp"));
        if tmp.exists() {
            let _ = fs::remove_file(&tmp);
        }

        let mut needs_checkpoint = false;
        let snap_path = self.dir.join(SNAPSHOT_FILE);
        if snap_path.exists() {
            let decoded = fs::read_to_string(&snap_path)
                .map_err(|e| format!("read {}: {e}", snap_path.display()))
                .and_then(|text| {
                    serde_json::from_str(&text)
                        .map_err(|e| format!("parse {}: {e}", snap_path.display()))
                })
                .and_then(|v| decode_snapshot(&v));
            match decoded {
                Ok((inner, lsn)) => {
                    self.inner = inner;
                    self.snap_lsn = lsn;
                    self.last_lsn = lsn;
                }
                Err(e) => {
                    // A bad snapshot quarantines like a bad segment: the
                    // shard reboots from whatever the WAL still holds
                    // rather than taking the whole store down.
                    robotune_obs::incr("service.store.snapshot_corrupt", 1);
                    robotune_obs::mark("service.store.snapshot_corrupt", || {
                        serde_json::json!({ "shard": self.index, "error": e })
                    });
                    self.quarantine_file(&snap_path, SNAPSHOT_FILE);
                    needs_checkpoint = true;
                }
            }
        }

        let seqs = list_segments(&self.dir)?;
        if let Some(&max) = seqs.iter().max() {
            self.next_seq = max + 1;
        }
        let mut quarantine_from: Option<usize> = None;
        'segments: for (i, &seq) in seqs.iter().enumerate() {
            let is_last_segment = i + 1 == seqs.len();
            let path = self.dir.join(segment_file_name(seq));
            let mut reader = SegmentReader::open(&path)?;
            let mut saw_header = false;
            while let Some(line) = reader.next_line()? {
                let decoded = if !saw_header && line.lineno == 1 {
                    decode_record(&line.text).and_then(|r| match r {
                        WalRecord::Header {
                            version,
                            shard,
                            seq: hseq,
                        } if version == FORMAT_VERSION && shard == self.index && hseq == seq => {
                            Ok(r)
                        }
                        WalRecord::Header { version, shard, seq: hseq } => Err(format!(
                            "header mismatch: version {version} shard {shard} seq {hseq} \
                             (want {FORMAT_VERSION}/{}/{seq})",
                            self.index
                        )),
                        WalRecord::Op { .. } => Err("first record is not a header".into()),
                    })
                } else {
                    decode_record(&line.text)
                };
                match decoded {
                    Ok(WalRecord::Header { .. }) if saw_header => {
                        // A second header mid-file means two segments
                        // were spliced together somehow: not trustable.
                        self.note_corrupt(&path, seq, line.lineno, "unexpected mid-file header");
                        quarantine_from = Some(i);
                        break 'segments;
                    }
                    Ok(WalRecord::Header { .. }) => saw_header = true,
                    Ok(WalRecord::Op { lsn, op }) => {
                        // LSN gating makes replay idempotent: segments
                        // that survived a crash mid-checkpoint-cleanup
                        // hold ops the snapshot already contains.
                        if lsn > self.last_lsn {
                            op.apply(&mut self.inner);
                            self.last_lsn = lsn;
                            self.boot_replayed += 1;
                        }
                    }
                    Err(e) => {
                        if is_last_segment && !line.has_more {
                            // Torn tail: the process died mid-append.
                            // Truncate to the last valid record so the
                            // file is clean for verification and the
                            // next writer never interleaves with junk.
                            robotune_obs::incr("service.store.wal_torn_line", 1);
                            self.torn_tails += 1;
                            if OpenOptions::new()
                                .write(true)
                                .open(&path)
                                .and_then(|f| f.set_len(line.offset))
                                .is_err()
                            {
                                robotune_obs::incr("service.store.wal_error", 1);
                            }
                            break 'segments;
                        }
                        self.note_corrupt(&path, seq, line.lineno, &e);
                        quarantine_from = Some(i);
                        break 'segments;
                    }
                }
            }
        }

        match quarantine_from {
            Some(from) => {
                // The corrupt segment and everything after it are
                // untrustworthy (later records depend on earlier LSNs);
                // move them aside and keep only the verified prefix.
                for &seq in &seqs[from..] {
                    let path = self.dir.join(segment_file_name(seq));
                    let name = segment_file_name(seq);
                    self.quarantine_file(&path, &name);
                    self.corrupt_segments += 1;
                }
                self.live_segments = seqs[..from].to_vec();
                needs_checkpoint = true;
            }
            None => self.live_segments = seqs,
        }

        if needs_checkpoint {
            // Fold the recovered prefix into a fresh snapshot now: the
            // quarantined records are out of the replay path, so state
            // recovered from them must not depend on a future clean
            // shutdown to survive the next crash.
            if let Err(e) = self.checkpoint() {
                robotune_obs::incr("service.store.checkpoint_error", 1);
                robotune_obs::mark("service.store.checkpoint_error", || {
                    serde_json::json!({ "shard": self.index, "error": e, "at": "boot" })
                });
                self.degraded = true;
            }
        }
        Ok(())
    }

    fn note_corrupt(&self, path: &Path, seq: u64, lineno: u64, detail: &str) {
        robotune_obs::incr("service.store.wal_corrupt_record", 1);
        robotune_obs::mark("service.store.wal_corrupt_record", || {
            serde_json::json!({
                "shard": self.index,
                "segment": seq,
                "file": path.display().to_string(),
                "line": lineno,
                "error": detail,
            })
        });
    }

    /// Moves `path` into the quarantine directory under a
    /// shard-qualified name, never overwriting an earlier quarantine.
    fn quarantine_file(&self, path: &Path, name: &str) {
        if fs::create_dir_all(&self.corrupt_dir).is_err() {
            robotune_obs::incr("service.store.wal_error", 1);
            return;
        }
        let base = format!("shard-{:02}.{name}", self.index);
        let mut dest = self.corrupt_dir.join(&base);
        let mut dup = 1;
        while dest.exists() {
            dest = self.corrupt_dir.join(format!("{base}.dup{dup}"));
            dup += 1;
        }
        if fs::rename(path, &dest).is_err() {
            robotune_obs::incr("service.store.wal_error", 1);
        }
    }

    /// Journals one payload (WAL-before-memory), handling rotation,
    /// compaction, and degradation.
    fn journal(&mut self, payload: &Value) {
        // Seal the open segment once it is full. The crash point sits
        // in the gap where a full segment exists but its successor
        // does not yet.
        if self
            .writer
            .as_ref()
            .is_some_and(|w| w.bytes >= self.segment_max_bytes)
        {
            self.writer = None;
            crash::hit("seal");
            if self.live_segments.len() as u64 >= self.compact_after_sealed {
                // Compaction is just a checkpoint: fold every sealed
                // segment into the snapshot and delete them. Failure is
                // not durability loss — appends continue on new
                // segments — so it only counts, it does not degrade.
                if let Err(e) = self.checkpoint() {
                    robotune_obs::incr("service.store.checkpoint_error", 1);
                    robotune_obs::mark("service.store.checkpoint_error", || {
                        serde_json::json!({ "shard": self.index, "error": e, "at": "compact" })
                    });
                }
            }
        }
        let line = match encode_record(payload) {
            Ok(line) => line,
            Err(_) => {
                robotune_obs::incr("service.store.wal_error", 1);
                return;
            }
        };
        if self.writer.is_none() {
            match SegmentWriter::create(&self.dir, FORMAT_VERSION, self.index, self.next_seq) {
                Ok(w) => {
                    self.live_segments.push(w.seq);
                    self.next_seq += 1;
                    self.writer = Some(w);
                }
                Err(e) => {
                    self.enter_degraded(&e);
                    return;
                }
            }
        }
        let Some(writer) = self.writer.as_mut() else {
            return;
        };
        match writer.append(&line) {
            Ok(()) => {
                self.last_lsn += 1;
                // A successful durable append means the disk is back.
                self.degraded = false;
            }
            Err(e) => {
                self.writer = None;
                self.enter_degraded(&e);
            }
        }
    }

    fn enter_degraded(&mut self, error: &str) {
        self.degraded = true;
        robotune_obs::incr("service.store.wal_error", 1);
        robotune_obs::mark("service.store.degraded", || {
            serde_json::json!({ "shard": self.index, "error": error })
        });
    }

    pub(crate) fn put_selection(&mut self, workload: &str, names: Vec<String>) {
        let payload = encode_sel(self.last_lsn + 1, workload, &names);
        self.journal(&payload);
        self.inner.cache.put_names(workload, names);
    }

    pub(crate) fn record_config(&mut self, workload: &str, config: Configuration, time_s: f64) {
        let payload = encode_cfg(self.last_lsn + 1, workload, &config, time_s);
        self.journal(&payload);
        self.inner.memo.record(workload, config, time_s);
    }

    pub(crate) fn selection(&self, workload: &str) -> Option<Vec<String>> {
        self.inner.cache.names(workload).map(<[String]>::to_vec)
    }

    pub(crate) fn best_recent(&self, workload: &str, n: usize) -> Vec<(Configuration, f64)> {
        self.inner.memo.best_recent(workload, n)
    }

    pub(crate) fn has_selection(&self, workload: &str) -> bool {
        self.inner.cache.contains(workload)
    }

    pub(crate) fn has_configs(&self, workload: &str) -> bool {
        self.inner.memo.contains(workload)
    }

    pub(crate) fn workloads(&self) -> Vec<String> {
        self.inner.workloads()
    }

    pub(crate) fn wal_lag(&self) -> u64 {
        self.last_lsn.saturating_sub(self.snap_lsn)
    }

    /// Writes a fresh snapshot atomically, then deletes every folded
    /// segment. Crash points cover each interleaving the torture
    /// harness exercises.
    pub(crate) fn checkpoint(&mut self) -> Result<(), String> {
        let snap = encode_snapshot(&self.inner, FORMAT_VERSION, self.last_lsn);
        let text =
            serde_json::to_string_pretty(&snap).map_err(|e| format!("encode snapshot: {e}"))?;
        let tmp = self.dir.join(format!("{SNAPSHOT_FILE}.tmp"));
        let dst = self.dir.join(SNAPSHOT_FILE);
        fs::write(&tmp, text).map_err(|e| format!("write {}: {e}", tmp.display()))?;
        crash::hit("ckpt-tmp");
        fs::rename(&tmp, &dst)
            .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), dst.display()))?;
        crash::hit("ckpt-rename");
        // The snapshot now covers every journaled LSN; segments are
        // redundant. Losing the process mid-cleanup is safe: replay of
        // a leftover segment is a no-op under LSN gating.
        self.writer = None;
        for seq in std::mem::take(&mut self.live_segments) {
            if fs::remove_file(self.dir.join(segment_file_name(seq))).is_err() {
                robotune_obs::incr("service.store.segment_remove_error", 1);
            }
            crash::hit("ckpt-clean");
        }
        self.snap_lsn = self.last_lsn;
        self.degraded = false;
        robotune_obs::incr("service.store.checkpoints", 1);
        Ok(())
    }

    pub(crate) fn boot_replayed(&self) -> u64 {
        self.boot_replayed
    }

    pub(crate) fn status(&self) -> ShardStatus {
        ShardStatus {
            shard: self.index,
            wal_lag: self.wal_lag(),
            segments: self.live_segments.len() as u64,
            wal_bytes: self.writer.as_ref().map_or(0, |w| w.bytes),
            corrupt_segments: self.corrupt_segments,
            torn_tails: self.torn_tails,
            degraded: self.degraded,
            last_lsn: self.last_lsn,
            workloads: self.inner.workloads().len() as u64,
        }
    }
}
