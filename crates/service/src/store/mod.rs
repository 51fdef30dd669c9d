//! Fleet-grade persistence for the process-wide shared memo store.
//!
//! [`PersistentMemoStore`] stripes workloads across N shards by
//! FNV-1a fingerprint ([`robotune::shard_of`]). Each shard owns its own
//! lock, snapshot, and write-ahead log, so sessions tuning different
//! workloads never contend and a corrupt shard quarantines without
//! taking down the rest of fleet memory. On-disk layout (v2):
//!
//! ```text
//! <dir>/store.meta.json        {"version":2,"shards":N}   (tmp+rename)
//! <dir>/shard-00/
//!         memo.snapshot.json   full shard state + the LSN it covers
//!         wal-00000007.jsonl   checksummed, size-rotated WAL segments
//! <dir>/corrupt/               quarantined segments/snapshots
//! ```
//!
//! Every WAL line is `["<crc32 hex8>","<payload json>"]`: the checksum
//! covers the exact payload bytes, and each segment opens with a
//! version/shard/seq header record so files cannot replay into the
//! wrong shard. Mutations carry a shard-local LSN; snapshots record the
//! LSN they cover, which makes replay idempotent across every
//! checkpoint crash interleaving (tmp write / rename / segment
//! cleanup). Recovery rules:
//!
//! - torn final line (crash mid-append): truncate to the last valid
//!   record, count `service.store.wal_torn_line`, carry on;
//! - corrupt record anywhere else: apply the valid prefix, quarantine
//!   that segment and everything after it into `corrupt/`, count
//!   `service.store.wal_corrupt_record`, checkpoint immediately so the
//!   recovered prefix is durable — boot never fails on corruption;
//! - WAL append failure: the shard keeps serving from memory but
//!   reports `degraded` through [`ConcurrentMemoStore::status`] (and
//!   `service.store.wal_error`) until a durable write succeeds again.
//!
//! Compaction is checkpoint-shaped and background-free: once enough
//! sealed segments accumulate, the next append folds them into the
//! snapshot inline. A legacy v1 store (root `memo.snapshot.json` +
//! unchecksummed `memo.wal.jsonl`) migrates automatically on first
//! open; the old files are kept under a `.v1-migrated` suffix.
//!
//! Durability model: every record is written and flushed before the
//! mutation is applied in memory, so nothing acknowledged is lost to a
//! process crash. Power-loss durability would additionally need fsync
//! on the segment and directory, which this store deliberately skips —
//! the memo store is an accelerator, not ground truth.

mod codec;
mod crash;
mod crc32;
mod segment;
mod shard;

use codec::{decode_record, decode_snapshot, decode_v1_op, WalOp, WalRecord};
use robotune::{shard_of, ConcurrentMemoStore, SharedMemoStore, StoreStatus};
use robotune_space::Configuration;
use serde_json::{Map, Value};
use shard::ShardCore;
use std::fs::{self, File};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// Store metadata file name (shard count, format version).
pub const META_FILE: &str = "store.meta.json";
/// Per-shard snapshot file name (also the v1 root snapshot name).
pub const SNAPSHOT_FILE: &str = "memo.snapshot.json";
/// Legacy v1 write-ahead-log file name (root level).
pub const V1_WAL_FILE: &str = "memo.wal.jsonl";
/// Quarantine directory for corrupt segments/snapshots.
pub const CORRUPT_DIR: &str = "corrupt";
/// On-disk format version; v1 stores migrate on open, other versions
/// are rejected.
pub const FORMAT_VERSION: i64 = 2;

/// Tuning knobs for the persistent store.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Number of lock/snapshot/WAL stripes. An existing store's meta
    /// file wins over this value: shard routing is part of the data.
    pub shards: usize,
    /// Seal the open segment once it reaches this many bytes.
    pub segment_max_bytes: u64,
    /// Fold sealed segments into the snapshot once this many exist.
    pub compact_after_sealed: u64,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            shards: 8,
            segment_max_bytes: 1 << 20,
            compact_after_sealed: 4,
        }
    }
}

/// A sharded [`ConcurrentMemoStore`] with per-shard snapshot + WAL
/// persistence under one directory.
pub struct PersistentMemoStore {
    dir: PathBuf,
    shards: Vec<RwLock<ShardCore>>,
}

fn shard_dir_name(index: usize) -> String {
    format!("shard-{index:02}")
}

fn read_meta(path: &Path) -> Result<usize, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let v: Value =
        serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    let version = v.get("version").and_then(Value::as_i64).unwrap_or(-1);
    if version != FORMAT_VERSION {
        return Err(format!(
            "store meta version {version} (want {FORMAT_VERSION})"
        ));
    }
    v.get("shards")
        .and_then(Value::as_u64)
        .and_then(|n| usize::try_from(n).ok())
        .filter(|&n| n >= 1)
        .ok_or_else(|| format!("store meta {} has no valid shard count", path.display()))
}

fn write_meta(dir: &Path, shards: usize) -> Result<(), String> {
    let mut m = Map::new();
    m.insert("version".into(), Value::from(FORMAT_VERSION));
    m.insert("shards".into(), Value::from(shards as u64));
    let text = serde_json::to_string_pretty(&Value::Object(m))
        .map_err(|e| format!("encode meta: {e}"))?;
    let tmp = dir.join(format!("{META_FILE}.tmp"));
    let dst = dir.join(META_FILE);
    fs::write(&tmp, text).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    fs::rename(&tmp, &dst)
        .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), dst.display()))
}

/// Shard count implied by existing `shard-NN` directories, if any.
fn infer_shards_from_dirs(dir: &Path) -> Result<Option<usize>, String> {
    let mut max: Option<usize> = None;
    let entries = fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read {}: {e}", dir.display()))?;
        let name = entry.file_name();
        let Some(idx) = name
            .to_str()
            .and_then(|n| n.strip_prefix("shard-"))
            .and_then(|n| n.parse::<usize>().ok())
        else {
            continue;
        };
        if entry.path().is_dir() {
            max = Some(max.map_or(idx, |m: usize| m.max(idx)));
        }
    }
    Ok(max.map(|m| m + 1))
}

impl PersistentMemoStore {
    /// Opens (or creates) a store rooted at `dir` with default options,
    /// replaying any existing state (including a legacy v1 store).
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, String> {
        Self::open_with(dir, StoreOptions::default())
    }

    /// Opens (or creates) a store rooted at `dir`.
    ///
    /// For an existing store the shard count recorded in
    /// `store.meta.json` overrides `opts.shards`: records are striped
    /// by `fingerprint % shards`, so the count is part of the data.
    pub fn open_with(dir: impl Into<PathBuf>, opts: StoreOptions) -> Result<Self, String> {
        let boot_start = Instant::now();
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;

        let meta_path = dir.join(META_FILE);
        let had_meta = meta_path.is_file();
        let mut shard_count = opts.shards.max(1);
        if had_meta {
            match read_meta(&meta_path) {
                Ok(n) => shard_count = n,
                Err(e) if e.contains("meta version") => return Err(e),
                Err(_) => {
                    // Unreadable meta: the shard directories themselves
                    // pin the stripe count, which is what actually
                    // matters for routing. Rewrite the meta below.
                    if let Some(n) = infer_shards_from_dirs(&dir)? {
                        shard_count = n;
                    }
                }
            }
        } else if let Some(n) = infer_shards_from_dirs(&dir)? {
            shard_count = n;
        }

        let v1_snap = dir.join(SNAPSHOT_FILE);
        let v1_wal = dir.join(V1_WAL_FILE);
        let migrate = !had_meta && (v1_snap.is_file() || v1_wal.is_file());

        let corrupt_dir = dir.join(CORRUPT_DIR);
        let mut shards = Vec::with_capacity(shard_count);
        for i in 0..shard_count {
            shards.push(RwLock::new(ShardCore::open(
                &dir,
                &corrupt_dir,
                i,
                opts.segment_max_bytes,
                opts.compact_after_sealed,
            )?));
        }
        let store = PersistentMemoStore { dir, shards };
        if migrate {
            store.migrate_v1(&v1_snap, &v1_wal)?;
        }
        write_meta(&store.dir, shard_count)?;

        let replayed: u64 = store
            .shards
            .iter()
            .map(|s| {
                s.read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .boot_replayed()
            })
            .sum();
        robotune_obs::incr("service.store.boot_replayed", replayed);
        robotune_obs::record(
            "service.store.boot_replay_ms",
            boot_start.elapsed().as_secs_f64() * 1000.0,
        );
        Ok(store)
    }

    /// Streams a legacy v1 store (root snapshot + unchecksummed WAL)
    /// into the sharded layout, then checkpoints and retires the old
    /// files under a `.v1-migrated` suffix.
    fn migrate_v1(&self, snap_path: &Path, wal_path: &Path) -> Result<(), String> {
        if snap_path.is_file() {
            let text = fs::read_to_string(snap_path)
                .map_err(|e| format!("read {}: {e}", snap_path.display()))?;
            let v: Value = serde_json::from_str(&text)
                .map_err(|e| format!("parse {}: {e}", snap_path.display()))?;
            let (inner, _lsn) = decode_snapshot(&v)?;
            for workload in inner.cache.workloads() {
                if let Some(names) = inner.cache.names(&workload) {
                    self.put_selection(&workload, names.to_vec());
                }
            }
            for workload in inner.memo.workloads() {
                for (config, time_s) in inner.memo.best_recent(&workload, usize::MAX) {
                    self.record_config(&workload, config, time_s);
                }
            }
        }
        if wal_path.is_file() {
            // Streamed line-by-line: boot memory stays O(1) in WAL
            // size. One line of lookahead distinguishes a torn final
            // line (tolerated, like v1 did) from mid-file corruption
            // (still a hard error here — v1 had no checksums, so a bad
            // middle line means the file is untrustworthy).
            let file =
                File::open(wal_path).map_err(|e| format!("open {}: {e}", wal_path.display()))?;
            let mut reader = BufReader::new(file);
            let mut pending = String::new();
            let n = reader
                .read_line(&mut pending)
                .map_err(|e| format!("read {}: {e}", wal_path.display()))?;
            let mut pending = (n > 0).then_some(pending);
            let mut lineno = 0u64;
            while let Some(line) = pending.take() {
                let mut next = String::new();
                let n = reader
                    .read_line(&mut next)
                    .map_err(|e| format!("read {}: {e}", wal_path.display()))?;
                pending = (n > 0).then_some(next);
                lineno += 1;
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                match decode_v1_op(trimmed) {
                    Ok(WalOp::Sel { workload, names }) => self.put_selection(&workload, names),
                    Ok(WalOp::Cfg {
                        workload,
                        config,
                        time_s,
                    }) => self.record_config(&workload, config, time_s),
                    Err(e) => {
                        if pending.is_none() {
                            robotune_obs::incr("service.store.wal_torn_line", 1);
                            break;
                        }
                        return Err(format!("v1 WAL line {lineno}: {e}"));
                    }
                }
            }
        }
        self.checkpoint()?;
        for path in [snap_path, wal_path] {
            if path.is_file() {
                let mut retired = path.as_os_str().to_owned();
                retired.push(".v1-migrated");
                fs::rename(path, &retired)
                    .map_err(|e| format!("retire {}: {e}", path.display()))?;
            }
        }
        robotune_obs::incr("service.store.migrated_v1", 1);
        Ok(())
    }

    fn shard_read(&self, workload: &str) -> RwLockReadGuard<'_, ShardCore> {
        self.shards[shard_of(workload, self.shards.len())]
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn shard_write(&self, workload: &str) -> RwLockWriteGuard<'_, ShardCore> {
        self.shards[shard_of(workload, self.shards.len())]
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Wraps the store for sharing across sessions.
    pub fn into_shared(self) -> SharedMemoStore {
        Arc::new(self)
    }
}

impl ConcurrentMemoStore for PersistentMemoStore {
    fn selection(&self, workload: &str) -> Option<Vec<String>> {
        self.shard_read(workload).selection(workload)
    }

    fn put_selection(&self, workload: &str, names: Vec<String>) {
        self.shard_write(workload).put_selection(workload, names);
    }

    fn record_config(&self, workload: &str, config: Configuration, time_s: f64) {
        self.shard_write(workload)
            .record_config(workload, config, time_s);
    }

    fn best_recent(&self, workload: &str, n: usize) -> Vec<(Configuration, f64)> {
        self.shard_read(workload).best_recent(workload, n)
    }

    fn has_selection(&self, workload: &str) -> bool {
        self.shard_read(workload).has_selection(workload)
    }

    fn has_configs(&self, workload: &str) -> bool {
        self.shard_read(workload).has_configs(workload)
    }

    fn workloads(&self) -> Vec<String> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(
                shard
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .workloads(),
            );
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn checkpoint(&self) -> Result<(), String> {
        let mut errors = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            if let Err(e) = shard
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .checkpoint()
            {
                errors.push(format!("shard {i}: {e}"));
            }
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors.join("; "))
        }
    }

    fn wal_lag(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).wal_lag())
            .sum()
    }

    fn status(&self) -> StoreStatus {
        StoreStatus {
            persistent: true,
            shards: self
                .shards
                .iter()
                .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).status())
                .collect(),
        }
    }
}

// --- Offline tooling (experiments store) --------------------------------

fn push_problem(problems: &mut Vec<Value>, file: &Path, detail: impl Into<String>) {
    problems.push(serde_json::json!({
        "file": file.display().to_string(),
        "error": detail.into(),
    }));
}

/// Read-only integrity check of a store directory: verifies the meta
/// file, every shard snapshot, and every WAL record checksum without
/// mutating anything, and explains each problem found.
pub fn verify_store(dir: impl AsRef<Path>) -> Result<Value, String> {
    let dir = dir.as_ref();
    if !dir.is_dir() {
        return Err(format!("{} is not a directory", dir.display()));
    }
    let mut problems: Vec<Value> = Vec::new();
    let mut warnings: Vec<Value> = Vec::new();

    let meta_path = dir.join(META_FILE);
    let v1_snap = dir.join(SNAPSHOT_FILE);
    let v1_wal = dir.join(V1_WAL_FILE);
    let mut layout = "v2";
    let mut shard_count = 0usize;
    if meta_path.is_file() {
        match read_meta(&meta_path) {
            Ok(n) => shard_count = n,
            Err(e) => {
                push_problem(&mut problems, &meta_path, e);
                shard_count = infer_shards_from_dirs(dir)?.unwrap_or(0);
            }
        }
    } else if v1_snap.is_file() || v1_wal.is_file() {
        layout = "v1";
        if v1_snap.is_file() {
            let decoded = fs::read_to_string(&v1_snap)
                .map_err(|e| format!("read: {e}"))
                .and_then(|t| serde_json::from_str(&t).map_err(|e| format!("parse: {e}")))
                .and_then(|v| decode_snapshot(&v).map(|_| ()));
            if let Err(e) = decoded {
                push_problem(&mut problems, &v1_snap, e);
            }
        }
        if v1_wal.is_file() {
            if let Ok(text) = fs::read_to_string(&v1_wal) {
                let lines: Vec<&str> = text.lines().collect();
                for (i, line) in lines.iter().enumerate() {
                    if line.trim().is_empty() {
                        continue;
                    }
                    if let Err(e) = decode_v1_op(line) {
                        if i + 1 == lines.len() {
                            warnings.push(serde_json::json!({
                                "file": v1_wal.display().to_string(),
                                "note": format!("torn final line (recoverable): {e}"),
                            }));
                        } else {
                            push_problem(&mut problems, &v1_wal, format!("line {}: {e}", i + 1));
                        }
                    }
                }
            }
        }
    } else {
        match infer_shards_from_dirs(dir)? {
            Some(n) => {
                shard_count = n;
                push_problem(&mut problems, &meta_path, "missing store meta file");
            }
            None => push_problem(
                &mut problems,
                dir,
                "not a store directory (no meta, no shards, no v1 files)",
            ),
        }
    }

    let mut shard_reports = Vec::new();
    for i in 0..shard_count {
        let sdir = dir.join(shard_dir_name(i));
        let mut records = 0u64;
        let mut segments = 0u64;
        if !sdir.is_dir() {
            // Shards are created on open, so a missing directory just
            // means an empty shard that has never been booted.
            warnings.push(serde_json::json!({
                "file": sdir.display().to_string(),
                "note": "shard directory missing (empty shard)",
            }));
            continue;
        }
        let snap_path = sdir.join(SNAPSHOT_FILE);
        let mut snap_lsn = 0u64;
        if snap_path.is_file() {
            let decoded = fs::read_to_string(&snap_path)
                .map_err(|e| format!("read: {e}"))
                .and_then(|t| serde_json::from_str(&t).map_err(|e| format!("parse: {e}")))
                .and_then(|v| decode_snapshot(&v));
            match decoded {
                Ok((_, lsn)) => snap_lsn = lsn,
                Err(e) => push_problem(&mut problems, &snap_path, e),
            }
        }
        for seq in segment::list_segments(&sdir)? {
            segments += 1;
            let path = sdir.join(segment::segment_file_name(seq));
            let mut reader = segment::SegmentReader::open(&path)?;
            let mut first = true;
            while let Some(line) = reader.next_line()? {
                match decode_record(&line.text) {
                    Ok(WalRecord::Header {
                        version,
                        shard,
                        seq: hseq,
                    }) if first => {
                        if version != FORMAT_VERSION || shard != i || hseq != seq {
                            push_problem(
                                &mut problems,
                                &path,
                                format!(
                                    "header mismatch: version {version} shard {shard} seq {hseq}"
                                ),
                            );
                            break;
                        }
                    }
                    Ok(WalRecord::Header { .. }) => {
                        push_problem(
                            &mut problems,
                            &path,
                            format!("line {}: unexpected mid-file header", line.lineno),
                        );
                        break;
                    }
                    Ok(WalRecord::Op { .. }) if first => {
                        push_problem(&mut problems, &path, "first record is not a header");
                        break;
                    }
                    Ok(WalRecord::Op { .. }) => records += 1,
                    Err(e) => {
                        if !line.has_more {
                            warnings.push(serde_json::json!({
                                "file": path.display().to_string(),
                                "note": format!(
                                    "torn final line at byte {} (recoverable): {e}",
                                    line.offset
                                ),
                            }));
                        } else {
                            push_problem(
                                &mut problems,
                                &path,
                                format!("line {}: {e}", line.lineno),
                            );
                        }
                        break;
                    }
                }
                first = false;
            }
        }
        shard_reports.push(serde_json::json!({
            "shard": i,
            "snapshot_lsn": snap_lsn,
            "segments": segments,
            "wal_records": records,
        }));
    }

    // Anything sitting in quarantine is evidence of past corruption;
    // verify surfaces it as a problem so operators investigate, even
    // though the live store has already recovered around it.
    let mut quarantined = Vec::new();
    let corrupt_dir = dir.join(CORRUPT_DIR);
    if corrupt_dir.is_dir() {
        let entries =
            fs::read_dir(&corrupt_dir).map_err(|e| format!("read {}: {e}", corrupt_dir.display()))?;
        let mut names: Vec<String> = entries
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().to_str().map(str::to_owned))
            .collect();
        names.sort_unstable();
        for name in names {
            problems.push(serde_json::json!({
                "file": corrupt_dir.join(&name).display().to_string(),
                "error": "quarantined at boot (checksum or parse failure); \
                          records after the corruption point in this file were lost",
            }));
            quarantined.push(Value::from(name));
        }
    }

    Ok(serde_json::json!({
        "ok": problems.is_empty(),
        "dir": dir.display().to_string(),
        "layout": layout,
        "shards": shard_count as u64,
        "shard_detail": shard_reports,
        "problems": problems,
        "warnings": warnings,
        "quarantined": quarantined,
    }))
}

/// Read-only summary of a store directory: layout, per-shard snapshot
/// LSNs, segment files and sizes, and quarantine contents.
pub fn inspect_store(dir: impl AsRef<Path>) -> Result<Value, String> {
    let dir = dir.as_ref();
    if !dir.is_dir() {
        return Err(format!("{} is not a directory", dir.display()));
    }
    let meta_path = dir.join(META_FILE);
    let shard_count = if meta_path.is_file() {
        read_meta(&meta_path).ok().or(infer_shards_from_dirs(dir)?)
    } else {
        infer_shards_from_dirs(dir)?
    }
    .unwrap_or(0);

    let mut shard_reports = Vec::new();
    let mut total_workloads = 0u64;
    for i in 0..shard_count {
        let sdir = dir.join(shard_dir_name(i));
        if !sdir.is_dir() {
            continue;
        }
        let snap_path = sdir.join(SNAPSHOT_FILE);
        let mut snap_lsn = Value::Null;
        let mut snap_bytes = 0u64;
        let mut workloads = 0u64;
        if snap_path.is_file() {
            snap_bytes = fs::metadata(&snap_path).map(|m| m.len()).unwrap_or(0);
            if let Ok((inner, lsn)) = fs::read_to_string(&snap_path)
                .map_err(|e| e.to_string())
                .and_then(|t| serde_json::from_str(&t).map_err(|e| e.to_string()))
                .and_then(|v| decode_snapshot(&v))
            {
                snap_lsn = Value::from(lsn);
                workloads = inner.workloads().len() as u64;
            }
        }
        total_workloads += workloads;
        let mut segs = Vec::new();
        for seq in segment::list_segments(&sdir)? {
            let path = sdir.join(segment::segment_file_name(seq));
            segs.push(serde_json::json!({
                "seq": seq,
                "bytes": fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
            }));
        }
        shard_reports.push(serde_json::json!({
            "shard": i,
            "snapshot_lsn": snap_lsn,
            "snapshot_bytes": snap_bytes,
            "workloads": workloads,
            "segments": segs,
        }));
    }

    let mut quarantined = Vec::new();
    let corrupt_dir = dir.join(CORRUPT_DIR);
    if corrupt_dir.is_dir() {
        let entries =
            fs::read_dir(&corrupt_dir).map_err(|e| format!("read {}: {e}", corrupt_dir.display()))?;
        let mut names: Vec<String> = entries
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().to_str().map(str::to_owned))
            .collect();
        names.sort_unstable();
        quarantined = names.into_iter().map(Value::from).collect();
    }

    Ok(serde_json::json!({
        "dir": dir.display().to_string(),
        "shards": shard_count as u64,
        "workloads": total_workloads,
        "shard_detail": shard_reports,
        "quarantined": quarantined,
    }))
}

#[cfg(test)]
mod tests {
    use super::crc32::crc32;
    use super::*;
    use robotune_space::ParamValue;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "robotune-store-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_config() -> Configuration {
        Configuration::new(vec![
            ParamValue::Int(8),
            ParamValue::Float(0.6),
            ParamValue::Bool(true),
            ParamValue::Cat(2),
        ])
    }

    fn small_opts(shards: usize) -> StoreOptions {
        StoreOptions {
            shards,
            ..StoreOptions::default()
        }
    }

    #[test]
    fn wal_then_snapshot_then_wal_replays_identically() {
        let dir = temp_dir("roundtrip");
        {
            let store = PersistentMemoStore::open_with(&dir, small_opts(4)).unwrap();
            store.put_selection("km", vec!["a".into(), "b".into()]);
            store.record_config("km", sample_config(), 120.5);
            store.checkpoint().unwrap();
            // Post-checkpoint mutations live only in the WAL.
            store.put_selection("pr", vec!["c".into()]);
            store.record_config("km", sample_config(), 90.25);
        }
        let store = PersistentMemoStore::open(&dir).unwrap();
        assert_eq!(store.selection("km"), Some(vec!["a".into(), "b".into()]));
        assert_eq!(store.selection("pr"), Some(vec!["c".into()]));
        let recent = store.best_recent("km", 10);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].1, 90.25, "best-first order survives reload");
        assert_eq!(recent[0].0, sample_config());
        let status = store.status();
        assert!(status.persistent);
        assert_eq!(status.shards.len(), 4, "meta shard count wins over opts");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_store_migrates_on_first_open() {
        // The v1 golden fixtures (pinned in the previous format test):
        // one open must migrate them into the sharded layout losslessly.
        let dir = temp_dir("migrate");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join(SNAPSHOT_FILE),
            r#"{
  "version": 1,
  "selections": { "km": ["spark.executor.cores", "spark.executor.memory"] },
  "configs": {
    "km": [
      { "time_s": 101.5,
        "values": [ {"t":"i","v":8}, {"t":"f","v":0.6}, {"t":"b","v":true}, {"t":"c","v":2} ] }
    ]
  }
}"#,
        )
        .unwrap();
        fs::write(
            dir.join(V1_WAL_FILE),
            concat!(
                r#"{"op":"sel","workload":"pr","names":["spark.default.parallelism"]}"#,
                "\n",
                r#"{"op":"cfg","workload":"pr","time_s":55.0,"values":[{"t":"i","v":4},{"t":"f","v":0.25},{"t":"b","v":false},{"t":"c","v":0}]}"#,
                "\n",
            ),
        )
        .unwrap();

        let store = PersistentMemoStore::open_with(&dir, small_opts(4)).unwrap();
        assert_eq!(
            store.selection("km"),
            Some(vec![
                "spark.executor.cores".into(),
                "spark.executor.memory".into()
            ])
        );
        assert_eq!(
            store.selection("pr"),
            Some(vec!["spark.default.parallelism".into()])
        );
        assert_eq!(store.best_recent("km", 1)[0].1, 101.5);
        assert_eq!(store.best_recent("km", 1)[0].0, sample_config());
        assert_eq!(store.best_recent("pr", 1)[0].1, 55.0);
        assert_eq!(store.workloads(), vec!["km".to_string(), "pr".to_string()]);
        assert!(
            dir.join("memo.snapshot.json.v1-migrated").is_file(),
            "v1 snapshot must be retired, not deleted"
        );
        assert!(dir.join("memo.wal.jsonl.v1-migrated").is_file());
        assert!(dir.join(META_FILE).is_file());
        drop(store);

        // Second open takes the v2 path and sees identical data.
        let store = PersistentMemoStore::open(&dir).unwrap();
        assert_eq!(store.workloads(), vec!["km".to_string(), "pr".to_string()]);
        assert_eq!(store.best_recent("pr", 1)[0].1, 55.0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn golden_v2_layout_and_record_format_parse() {
        // Pinned v2 wire format: meta, per-shard snapshot with LSN, and
        // checksummed [crc, payload] record lines. If this test breaks,
        // the on-disk schema changed and FORMAT_VERSION must be bumped
        // with a migration.
        let dir = temp_dir("golden-v2");
        let sdir = dir.join("shard-00");
        fs::create_dir_all(&sdir).unwrap();
        fs::write(dir.join(META_FILE), r#"{ "version": 2, "shards": 1 }"#).unwrap();
        fs::write(
            sdir.join(SNAPSHOT_FILE),
            r#"{
  "version": 2,
  "lsn": 2,
  "selections": { "km": ["spark.executor.cores"] },
  "configs": {
    "km": [
      { "time_s": 101.5,
        "values": [ {"t":"i","v":8}, {"t":"f","v":0.6}, {"t":"b","v":true}, {"t":"c","v":2} ] }
    ]
  }
}"#,
        )
        .unwrap();
        let payloads = [
            r#"{"kind":"hdr","version":2,"shard":0,"seq":1}"#,
            r#"{"lsn":3,"op":"sel","workload":"pr","names":["spark.default.parallelism"]}"#,
            r#"{"lsn":4,"op":"cfg","workload":"pr","time_s":55.0,"values":[{"t":"i","v":4},{"t":"f","v":0.25},{"t":"b","v":false},{"t":"c","v":0}]}"#,
        ];
        let mut wal = String::new();
        for p in payloads {
            // The crc32 function itself is pinned by its own test
            // vector, so building the checksum here still pins bytes.
            let line = serde_json::to_string(&Value::Array(vec![
                Value::from(format!("{:08x}", crc32(p.as_bytes()))),
                Value::from(p),
            ]))
            .unwrap();
            wal.push_str(&line);
            wal.push('\n');
        }
        fs::write(sdir.join("wal-00000001.jsonl"), wal).unwrap();

        let report = verify_store(&dir).unwrap();
        assert_eq!(
            report["ok"].as_bool(),
            Some(true),
            "report: {}",
            serde_json::to_string(&report).unwrap()
        );

        let store = PersistentMemoStore::open(&dir).unwrap();
        assert_eq!(store.selection("km"), Some(vec!["spark.executor.cores".into()]));
        assert_eq!(
            store.selection("pr"),
            Some(vec!["spark.default.parallelism".into()])
        );
        assert_eq!(store.best_recent("km", 1)[0].1, 101.5);
        assert_eq!(store.best_recent("km", 1)[0].0, sample_config());
        assert_eq!(store.best_recent("pr", 1)[0].1, 55.0);
        assert_eq!(store.wal_lag(), 2, "snapshot lsn 2, wal through lsn 4");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_line_is_truncated_and_tolerated() {
        let dir = temp_dir("torn");
        {
            let store = PersistentMemoStore::open_with(&dir, small_opts(1)).unwrap();
            store.put_selection("km", vec!["a".into()]);
            store.put_selection("pr", vec!["b".into()]);
        }
        // Simulate a crash mid-append: garbage partial line at the tail.
        let seg = dir.join("shard-00").join("wal-00000001.jsonl");
        let clean_len = fs::metadata(&seg).unwrap().len();
        let mut bytes = fs::read(&seg).unwrap();
        bytes.extend_from_slice(br#"["dead,"{\"lsn\":"#);
        fs::write(&seg, &bytes).unwrap();

        let store = PersistentMemoStore::open(&dir).unwrap();
        assert_eq!(store.selection("km"), Some(vec!["a".into()]));
        assert_eq!(store.selection("pr"), Some(vec!["b".into()]));
        let status = store.status();
        assert_eq!(status.shards[0].torn_tails, 1);
        assert_eq!(status.corrupt_segments(), 0, "a torn tail is not corruption");
        assert_eq!(
            fs::metadata(&seg).unwrap().len(),
            clean_len,
            "the torn bytes must be truncated away"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_mid_segment_quarantines_and_keeps_the_prefix() {
        let dir = temp_dir("corrupt-mid");
        {
            let store = PersistentMemoStore::open_with(&dir, small_opts(1)).unwrap();
            store.put_selection("aa", vec!["first".into()]);
            store.put_selection("bb", vec!["second".into()]);
            store.put_selection("cc", vec!["third".into()]);
        }
        // Flip bytes inside the *middle* record (line 3: header, aa, bb).
        let seg = dir.join("shard-00").join("wal-00000001.jsonl");
        let text = fs::read_to_string(&seg).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        assert_eq!(lines.len(), 4);
        lines[2] = lines[2].replace("bb", "xx");
        fs::write(&seg, format!("{}\n", lines.join("\n"))).unwrap();

        let store = PersistentMemoStore::open(&dir).unwrap();
        assert_eq!(
            store.selection("aa"),
            Some(vec!["first".into()]),
            "the valid prefix survives"
        );
        assert_eq!(store.selection("bb"), None, "the corrupt record is dropped");
        assert_eq!(
            store.selection("cc"),
            None,
            "records after the corruption point are not trusted"
        );
        let status = store.status();
        assert_eq!(status.corrupt_segments(), 1);
        assert!(!seg.exists(), "the bad segment must be moved, not left in place");
        let quarantined = dir.join(CORRUPT_DIR).join("shard-00.wal-00000001.jsonl");
        assert!(quarantined.is_file(), "quarantine keeps the evidence");
        drop(store);

        // The recovered prefix was checkpointed immediately: a second
        // crashless reopen still has it, from the snapshot alone.
        let store = PersistentMemoStore::open(&dir).unwrap();
        assert_eq!(store.selection("aa"), Some(vec!["first".into()]));
        assert_eq!(store.status().corrupt_segments(), 0, "already quarantined");

        let report = verify_store(&dir).unwrap();
        assert_eq!(report["ok"].as_bool(), Some(false));
        let explained = serde_json::to_string(&report["problems"]).unwrap();
        assert!(
            explained.contains("shard-00.wal-00000001.jsonl"),
            "verify must point at the quarantined file: {explained}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_wal_degrades_but_keeps_serving() {
        let dir = temp_dir("degraded");
        let opts = StoreOptions {
            shards: 1,
            // Every append seals the segment, so the next one must
            // create a fresh file — an open handle on an unlinked file
            // would otherwise keep succeeding forever.
            segment_max_bytes: 1,
            compact_after_sealed: u64::MAX,
        };
        let store = PersistentMemoStore::open_with(&dir, opts).unwrap();
        store.put_selection("km", vec!["a".into()]);
        assert!(!store.status().degraded());
        // Make every future WAL create fail: the shard directory
        // becomes a plain file. (chmod is useless here — tests run as
        // root in CI containers.)
        let sdir = dir.join("shard-00");
        fs::remove_dir_all(&sdir).unwrap();
        fs::write(&sdir, b"not a directory").unwrap();

        store.put_selection("pr", vec!["b".into()]);
        let status = store.status();
        assert!(status.degraded(), "lost durability must be reported");
        assert_eq!(status.degraded_shards(), 1);
        assert_eq!(
            store.selection("pr"),
            Some(vec!["b".into()]),
            "a degraded shard still serves from memory"
        );
        assert!(store.checkpoint().is_err());
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_file(&dir);
    }

    #[test]
    fn wal_lag_tracks_appends_and_resets_on_checkpoint() {
        let dir = temp_dir("lag");
        {
            let store = PersistentMemoStore::open_with(&dir, small_opts(1)).unwrap();
            assert_eq!(store.wal_lag(), 0);
            store.put_selection("km", vec!["a".into()]);
            store.record_config("km", sample_config(), 10.0);
            assert_eq!(store.wal_lag(), 2);
            store.checkpoint().unwrap();
            assert_eq!(store.wal_lag(), 0);
            store.record_config("km", sample_config(), 9.0);
            assert_eq!(store.wal_lag(), 1);
        }
        // A reopened store owes exactly the replayed WAL entries.
        let store = PersistentMemoStore::open(&dir).unwrap();
        assert_eq!(store.wal_lag(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn meta_rejects_unknown_versions() {
        let dir = temp_dir("version");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(META_FILE), r#"{"version": 99, "shards": 4}"#).unwrap();
        assert!(PersistentMemoStore::open(&dir).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_shard_snapshot_quarantines_and_boots_empty() {
        let dir = temp_dir("badsnap");
        {
            let store = PersistentMemoStore::open_with(&dir, small_opts(1)).unwrap();
            store.put_selection("km", vec!["a".into()]);
            store.checkpoint().unwrap();
        }
        let snap = dir.join("shard-00").join(SNAPSHOT_FILE);
        fs::write(&snap, b"{ definitely not json").unwrap();
        let store = PersistentMemoStore::open(&dir).unwrap();
        // The snapshot was the only copy (WAL already compacted), so
        // the shard is empty — but the boot survives and the evidence
        // is preserved.
        assert_eq!(store.selection("km"), None);
        assert!(dir
            .join(CORRUPT_DIR)
            .join("shard-00.memo.snapshot.json")
            .is_file());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_rotate_and_compaction_bounds_them() {
        let dir = temp_dir("rotate");
        let opts = StoreOptions {
            shards: 1,
            segment_max_bytes: 256,
            compact_after_sealed: 2,
        };
        let store = PersistentMemoStore::open_with(&dir, opts).unwrap();
        for i in 0..40 {
            store.put_selection(&format!("wl-{i:02}"), vec![format!("param-{i}")]);
        }
        let status = store.status();
        assert!(
            status.shards[0].last_lsn == 40,
            "every op journaled: {:?}",
            status.shards[0]
        );
        assert!(
            status.segments() <= 3,
            "compaction must bound live segments, got {}",
            status.segments()
        );
        assert!(
            status.wal_lag() < 40,
            "checkpoints must have folded most of the log"
        );
        drop(store);
        let store = PersistentMemoStore::open(&dir).unwrap();
        for i in 0..40 {
            assert_eq!(
                store.selection(&format!("wl-{i:02}")),
                Some(vec![format!("param-{i}")]),
                "wl-{i:02} must survive rotation + compaction + reboot"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn workloads_stripe_across_shards() {
        let dir = temp_dir("stripe");
        let store = PersistentMemoStore::open_with(&dir, small_opts(8)).unwrap();
        let mut expect = Vec::new();
        for i in 0..24 {
            let wl = format!("wl-{i}");
            store.put_selection(&wl, vec!["p".into()]);
            expect.push(wl);
        }
        expect.sort_unstable();
        assert_eq!(store.workloads(), expect, "reads merge across shards");
        let populated = store
            .status()
            .shards
            .iter()
            .filter(|s| s.workloads > 0)
            .count();
        assert!(
            populated > 1,
            "fingerprint striping must spread 24 workloads over >1 of 8 shards"
        );
        let inspected = inspect_store(&dir).unwrap();
        assert_eq!(inspected["shards"].as_u64(), Some(8));
        let _ = fs::remove_dir_all(&dir);
    }
}
