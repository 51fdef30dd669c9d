//! Memoized sampling: the parameter-selection cache and the configuration
//! memoization buffer (paper §3.2).
//!
//! High-impact parameters stay stable across dataset sizes of the same
//! workload, and well-tuned configurations for one dataset sit near the
//! optimum for another. ROBOTune therefore keys both structures by a
//! *workload identity* string: a repeated workload pulls its selected
//! parameter set from the cache (skipping the 100-sample selection run)
//! and seeds the BO training set with its best recent configurations.

use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use rand::Rng;
use robotune_space::{ConfigSpace, Configuration, SearchSpace, Subspace};

/// 64-bit FNV-1a fingerprint of a workload identity string.
///
/// This is the *routing* fingerprint: a persistent store stripes its
/// state across shards by `fingerprint % shards`, so the function must
/// stay bit-stable forever — changing it would strand existing on-disk
/// records in the wrong shard.
pub fn workload_fingerprint(workload: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in workload.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Maps a workload identity to one of `shards` stripes (see
/// [`workload_fingerprint`]). `shards == 0` is treated as one shard.
pub fn shard_of(workload: &str, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    (workload_fingerprint(workload) % shards as u64) as usize
}

/// Durability/health report for one shard of a persistent store.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardStatus {
    /// Shard index.
    pub shard: usize,
    /// Mutations not yet folded into this shard's snapshot.
    pub wal_lag: u64,
    /// Live WAL segment files on disk (sealed + open).
    pub segments: u64,
    /// Bytes in the currently open WAL segment.
    pub wal_bytes: u64,
    /// Segments quarantined at boot because of checksum/parse failures.
    pub corrupt_segments: u64,
    /// Torn segment tails truncated at boot (crash mid-append).
    pub torn_tails: u64,
    /// Whether WAL appends are currently failing: the shard serves
    /// reads and in-memory writes but has lost durability.
    pub degraded: bool,
    /// Highest log sequence number assigned in this shard.
    pub last_lsn: u64,
    /// Workload keys stored in this shard.
    pub workloads: u64,
}

/// Aggregate durability/health report for a [`ConcurrentMemoStore`].
///
/// The default value describes a purely in-memory store: not
/// persistent, no shards, never degraded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StoreStatus {
    /// Whether the store is backed by durable files at all.
    pub persistent: bool,
    /// Per-shard reports (empty for in-memory stores).
    pub shards: Vec<ShardStatus>,
}

impl StoreStatus {
    /// Whether any shard has lost durability.
    pub fn degraded(&self) -> bool {
        self.shards.iter().any(|s| s.degraded)
    }

    /// Total un-checkpointed mutations across shards.
    pub fn wal_lag(&self) -> u64 {
        self.shards.iter().map(|s| s.wal_lag).sum()
    }

    /// Total quarantined segments across shards.
    pub fn corrupt_segments(&self) -> u64 {
        self.shards.iter().map(|s| s.corrupt_segments).sum()
    }

    /// Total live WAL segments across shards.
    pub fn segments(&self) -> u64 {
        self.shards.iter().map(|s| s.segments).sum()
    }

    /// Shards currently degraded (appends failing).
    pub fn degraded_shards(&self) -> u64 {
        self.shards.iter().filter(|s| s.degraded).count() as u64
    }
}

/// Resolves cached parameter *names* to indices within `space`. A hit
/// requires every name to still resolve, so a stale selection against a
/// revised space degrades to a miss instead of tuning the wrong knobs.
pub fn resolve_selection(names: &[String], space: &ConfigSpace) -> Option<Vec<usize>> {
    let mut out = Vec::with_capacity(names.len());
    for n in names {
        out.push(space.index_of(n)?);
    }
    Some(out)
}

/// Workload → selected parameter *names* (names, not indices, so the cache
/// survives space revisions).
#[derive(Debug, Clone, Default)]
pub struct ParameterSelectionCache {
    entries: HashMap<String, Vec<String>>,
}

impl ParameterSelectionCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The raw cached names for `workload`, unresolved.
    pub fn names(&self, workload: &str) -> Option<&[String]> {
        self.entries.get(workload).map(Vec::as_slice)
    }

    /// Stores an already-resolved name list (the persistence replay path).
    pub fn put_names(&mut self, workload: &str, names: Vec<String>) {
        self.entries.insert(workload.to_string(), names);
    }

    /// Whether the cache holds an entry for `workload`.
    pub fn contains(&self, workload: &str) -> bool {
        self.entries.contains_key(workload)
    }

    /// The cached workload keys, sorted (persistence snapshots need a
    /// stable order).
    pub fn workloads(&self) -> Vec<String> {
        let mut out: Vec<String> = self.entries.keys().cloned().collect();
        out.sort_unstable();
        out
    }
}

/// Workload → best recent configurations with their runtimes, capped at
/// [`ConfigMemoBuffer::CAPACITY`] entries per workload, best first.
#[derive(Debug, Clone, Default)]
pub struct ConfigMemoBuffer {
    entries: HashMap<String, Vec<(Configuration, f64)>>,
}

impl ConfigMemoBuffer {
    /// Retained configurations per workload.
    pub const CAPACITY: usize = 8;

    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a completed configuration for `workload`.
    pub fn record(&mut self, workload: &str, config: Configuration, time_s: f64) {
        let list = self.entries.entry(workload.to_string()).or_default();
        list.push((config, time_s));
        list.sort_by(|a, b| a.1.total_cmp(&b.1));
        list.truncate(Self::CAPACITY);
    }

    /// The `n` best recent configurations for `workload` (may be fewer),
    /// best first.
    pub fn best_recent(&self, workload: &str, n: usize) -> Vec<(Configuration, f64)> {
        self.entries
            .get(workload)
            .map(|l| l.iter().take(n).cloned().collect())
            .unwrap_or_default()
    }

    /// Whether anything is memoized for `workload`.
    pub fn contains(&self, workload: &str) -> bool {
        self.entries.get(workload).is_some_and(|l| !l.is_empty())
    }

    /// The memoized workload keys, sorted.
    pub fn workloads(&self) -> Vec<String> {
        let mut out: Vec<String> = self.entries.keys().cloned().collect();
        out.sort_unstable();
        out
    }
}

/// Every workload key present in either memoization structure, sorted.
pub fn memo_workloads(cache: &ParameterSelectionCache, memo: &ConfigMemoBuffer) -> Vec<String> {
    let mut out = cache.workloads();
    out.extend(memo.workloads());
    out.sort_unstable();
    out.dedup();
    out
}

/// The paper's two memoization structures (§3.2) behind one storage
/// interface, so a tuning session does not care whether its warm-start
/// state lives in a private in-memory store, a process-wide store shared
/// by every served session, or a file-backed store that survives
/// restarts.
///
/// Every method takes `&self`: implementations own their
/// synchronization, so one store is shared across sessions without an
/// external lock. [`InMemoryMemoStore`] holds each structure behind its
/// own lock; a sharded store stripes workloads across independent locks
/// (see [`shard_of`]) so sessions tuning different workloads never
/// contend. Implementations must be cheap under read-heavy access:
/// every session consults the store once per run, not per evaluation.
pub trait ConcurrentMemoStore: Send + Sync {
    /// The cached selected-parameter *names* for `workload`, if any.
    fn selection(&self, workload: &str) -> Option<Vec<String>>;

    /// Stores the selected-parameter names for `workload`.
    fn put_selection(&self, workload: &str, names: Vec<String>);

    /// Records a completed configuration and its runtime for `workload`.
    fn record_config(&self, workload: &str, config: Configuration, time_s: f64);

    /// The `n` best recent configurations for `workload`, best first.
    fn best_recent(&self, workload: &str, n: usize) -> Vec<(Configuration, f64)>;

    /// Whether a selection is cached for `workload`.
    fn has_selection(&self, workload: &str) -> bool {
        self.selection(workload).is_some()
    }

    /// Whether any configuration is memoized for `workload`.
    fn has_configs(&self, workload: &str) -> bool {
        !self.best_recent(workload, 1).is_empty()
    }

    /// Every workload key present in either structure, sorted.
    fn workloads(&self) -> Vec<String>;

    /// Flushes durable state (snapshot + WAL compaction for file-backed
    /// stores). In-memory stores have nothing to do.
    fn checkpoint(&self) -> Result<(), String> {
        Ok(())
    }

    /// Mutations applied since the last successful checkpoint, summed
    /// over shards. Always 0 for stores with no durable log.
    fn wal_lag(&self) -> u64 {
        0
    }

    /// Durability/health report. The default describes an in-memory
    /// store: not persistent, no shards, never degraded.
    fn status(&self) -> StoreStatus {
        StoreStatus::default()
    }
}

/// A [`ConcurrentMemoStore`] shared across sessions (and, in the tuning
/// service, across tenants).
pub type SharedMemoStore = Arc<dyn ConcurrentMemoStore>;

/// The default process-local store: a [`ParameterSelectionCache`] plus a
/// [`ConfigMemoBuffer`], each behind its own lock, no persistence.
///
/// Lock poisoning is deliberately ignored (`PoisonError::into_inner`):
/// the store holds plain data, so a panic in some other session while
/// it held a lock cannot leave the caches in a torn state worth
/// refusing reads over — losing fleet memory to an unrelated panic
/// would be the worse failure mode.
#[derive(Debug, Default)]
pub struct InMemoryMemoStore {
    cache: RwLock<ParameterSelectionCache>,
    memo: RwLock<ConfigMemoBuffer>,
}

fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

impl InMemoryMemoStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps the store for sharing across sessions.
    pub fn into_shared(self) -> SharedMemoStore {
        Arc::new(self)
    }
}

impl ConcurrentMemoStore for InMemoryMemoStore {
    fn selection(&self, workload: &str) -> Option<Vec<String>> {
        read(&self.cache).names(workload).map(<[String]>::to_vec)
    }

    fn put_selection(&self, workload: &str, names: Vec<String>) {
        write(&self.cache).put_names(workload, names);
    }

    fn record_config(&self, workload: &str, config: Configuration, time_s: f64) {
        write(&self.memo).record(workload, config, time_s);
    }

    fn best_recent(&self, workload: &str, n: usize) -> Vec<(Configuration, f64)> {
        read(&self.memo).best_recent(workload, n)
    }

    fn workloads(&self) -> Vec<String> {
        memo_workloads(&read(&self.cache), &read(&self.memo))
    }
}

/// The initial BO training design produced by memoized sampling.
#[derive(Debug, Clone)]
pub struct InitialDesign {
    /// Unit-cube points in the *subspace*, LHS part first.
    pub points: Vec<Vec<f64>>,
    /// How many of `points` came from the memoization buffer.
    pub memoized: usize,
}

/// Builds initial designs per §3.2: 20 LHS tuning samples for a cold
/// workload; 16 LHS + 4 best recent configurations for a warm one.
#[derive(Debug, Clone)]
pub struct MemoizedSampler {
    /// Total initial training points (paper: 20).
    pub tuning_samples: usize,
    /// Memoized configurations blended in on a warm start (paper: 4).
    pub memo_configs: usize,
}

impl Default for MemoizedSampler {
    fn default() -> Self {
        MemoizedSampler {
            tuning_samples: 20,
            memo_configs: 4,
        }
    }
}

impl MemoizedSampler {
    /// Builds the initial design over `sub`, blending in `recent` — the
    /// workload's best memoized configurations (best first, at most
    /// [`MemoizedSampler::memo_configs`]; ask a [`ConcurrentMemoStore`]
    /// via [`ConcurrentMemoStore::best_recent`]).
    pub fn initial_design<R: Rng + ?Sized>(
        &self,
        sub: &Subspace,
        recent: &[(Configuration, f64)],
        rng: &mut R,
    ) -> InitialDesign {
        let recent = &recent[..recent.len().min(self.memo_configs)];
        let n_lhs = self.tuning_samples.saturating_sub(recent.len());
        // Memoized configurations go first: they are the likely
        // near-optimum, so even a tight budget benefits immediately and
        // the GP sees the high-performing region from iteration one.
        let memoized = recent.len();
        let mut points = Vec::with_capacity(self.tuning_samples);
        for (config, _) in recent {
            points.push(sub.encode(config));
        }
        points.extend(robotune_sampling::lhs_maximin(
            n_lhs,
            sub.dim(),
            rng,
            robotune_sampling::lhs::DEFAULT_MAXIMIN_CANDIDATES,
        ));
        InitialDesign { points, memoized }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robotune_space::spark::{names, spark_space};
    use robotune_stats::rng_from_seed;
    use std::sync::Arc;

    fn space() -> Arc<ConfigSpace> {
        Arc::new(spark_space())
    }

    #[test]
    fn selection_cache_round_trips_by_name() {
        let mut cache = ParameterSelectionCache::new();
        assert!(cache.names("pr").is_none());
        let names = vec![names::EXECUTOR_CORES.to_string()];
        cache.put_names("pr", names.clone());
        assert!(cache.contains("pr"));
        assert_eq!(cache.names("pr"), Some(&names[..]));
        assert_eq!(cache.workloads(), vec!["pr".to_string()]);
    }

    #[test]
    fn memo_buffer_keeps_the_best_sorted() {
        let s = space();
        let mut buf = ConfigMemoBuffer::new();
        for (i, t) in [90.0, 30.0, 60.0, 45.0].iter().enumerate() {
            let mut c = s.default_configuration();
            c.set(0, robotune_space::ParamValue::Int(1 + i as i64));
            buf.record("km", c, *t);
        }
        let best = buf.best_recent("km", 2);
        assert_eq!(best.len(), 2);
        assert_eq!(best[0].1, 30.0);
        assert_eq!(best[1].1, 45.0);
        assert!(buf.contains("km"));
        assert!(!buf.contains("pr"));
    }

    #[test]
    fn memo_buffer_truncates_at_capacity() {
        let s = space();
        let mut buf = ConfigMemoBuffer::new();
        for t in 0..20 {
            buf.record("w", s.default_configuration(), 100.0 - t as f64);
        }
        assert_eq!(
            buf.best_recent("w", usize::MAX).len(),
            ConfigMemoBuffer::CAPACITY
        );
    }

    #[test]
    fn cold_design_is_pure_lhs_of_20() {
        let s = space();
        let sub = s.subspace(&[0, 1, 7], s.default_configuration());
        let mut rng = rng_from_seed(1);
        let d = MemoizedSampler::default().initial_design(&sub, &[], &mut rng);
        assert_eq!(d.points.len(), 20);
        assert_eq!(d.memoized, 0);
        assert!(d.points.iter().all(|p| p.len() == 3));
    }

    #[test]
    fn warm_design_is_16_lhs_plus_4_memoized() {
        let s = space();
        let cores = s.index_of(names::EXECUTOR_CORES).unwrap();
        let sub = s.subspace(&[cores], s.default_configuration());
        let mut buf = ConfigMemoBuffer::new();
        for i in 0..6 {
            let mut c = s.default_configuration();
            c.set(cores, robotune_space::ParamValue::Int(8 + i));
            buf.record("pr", c, 50.0 + i as f64);
        }
        let sampler = MemoizedSampler::default();
        let recent = buf.best_recent("pr", sampler.memo_configs);
        let mut rng = rng_from_seed(2);
        let d = sampler.initial_design(&sub, &recent, &mut rng);
        assert_eq!(d.points.len(), 20);
        assert_eq!(d.memoized, 4);
        // Memoized points lead the design and decode back to the recorded
        // best configs (best first: time 50 → cores 8).
        let decoded = sub.decode(&d.points[0]);
        assert_eq!(decoded.get(cores).as_int(), 8);
    }

    #[test]
    fn warm_design_with_fewer_memos_tops_up_with_lhs() {
        let s = space();
        let sub = s.subspace(&[0], s.default_configuration());
        let mut buf = ConfigMemoBuffer::new();
        buf.record("cc", s.default_configuration(), 70.0);
        let mut rng = rng_from_seed(3);
        let recent = buf.best_recent("cc", 4);
        let d = MemoizedSampler::default().initial_design(&sub, &recent, &mut rng);
        assert_eq!(d.points.len(), 20);
        assert_eq!(d.memoized, 1);
    }

    #[test]
    fn oversized_recent_list_is_truncated_to_memo_configs() {
        let s = space();
        let sub = s.subspace(&[0], s.default_configuration());
        let recent: Vec<(Configuration, f64)> = (0..8)
            .map(|i| (s.default_configuration(), 40.0 + i as f64))
            .collect();
        let mut rng = rng_from_seed(4);
        let d = MemoizedSampler::default().initial_design(&sub, &recent, &mut rng);
        assert_eq!(d.points.len(), 20);
        assert_eq!(d.memoized, 4, "sampler must clamp to memo_configs");
    }

    #[test]
    fn in_memory_store_round_trips_both_structures() {
        let s = space();
        let store = InMemoryMemoStore::new();
        assert!(store.selection("pr").is_none());
        assert!(!store.has_selection("pr"));
        store.put_selection("pr", vec!["spark.executor.cores".into()]);
        assert!(store.has_selection("pr"));
        assert_eq!(
            store.selection("pr").as_deref(),
            Some(&["spark.executor.cores".to_string()][..])
        );
        store.record_config("pr", s.default_configuration(), 33.0);
        store.record_config("km", s.default_configuration(), 50.0);
        assert!(store.has_configs("pr"));
        assert_eq!(store.best_recent("pr", 4).len(), 1);
        assert_eq!(store.workloads(), vec!["km".to_string(), "pr".to_string()]);
        assert!(
            store.checkpoint().is_ok(),
            "in-memory checkpoint is a no-op"
        );
    }

    #[test]
    fn resolve_selection_fails_closed_on_unknown_names() {
        let s = space();
        let good = vec![names::EXECUTOR_CORES.to_string()];
        assert!(resolve_selection(&good, &s).is_some());
        let stale = vec![names::EXECUTOR_CORES.to_string(), "gone.param".to_string()];
        assert!(resolve_selection(&stale, &s).is_none());
    }

    #[test]
    fn workload_fingerprint_is_pinned() {
        // FNV-1a test vectors: the routing hash must never change, or
        // existing stores would look up workloads in the wrong shard.
        assert_eq!(workload_fingerprint(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(workload_fingerprint("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(workload_fingerprint("foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for shards in [1usize, 2, 3, 8, 16] {
            for wl in ["", "pagerank", "kmeans", "wl-42"] {
                let s = shard_of(wl, shards);
                assert!(s < shards, "shard {s} out of range for {shards}");
                assert_eq!(s, shard_of(wl, shards), "routing must be stable");
            }
        }
        assert_eq!(shard_of("anything", 0), 0, "zero shards treated as one");
        // Pin a routing decision so the hash-to-stripe mapping cannot
        // silently drift either.
        assert_eq!(
            shard_of("pagerank", 8),
            (workload_fingerprint("pagerank") % 8) as usize
        );
    }

    #[test]
    fn shared_in_memory_store_round_trips_and_reports_default_status() {
        let s = space();
        let shared: SharedMemoStore = InMemoryMemoStore::new().into_shared();
        assert!(!shared.has_selection("pr"));
        shared.put_selection("pr", vec![names::EXECUTOR_CORES.to_string()]);
        assert!(shared.has_selection("pr"));
        shared.record_config("pr", s.default_configuration(), 12.5);
        assert!(shared.has_configs("pr"));
        assert_eq!(shared.best_recent("pr", 4).len(), 1);
        assert_eq!(shared.workloads(), vec!["pr".to_string()]);
        assert!(shared.checkpoint().is_ok());
        assert_eq!(shared.wal_lag(), 0);
        let status = shared.status();
        assert!(!status.persistent);
        assert!(!status.degraded());
        assert!(status.shards.is_empty());
    }

    #[test]
    fn store_status_aggregates_over_shards() {
        let status = StoreStatus {
            persistent: true,
            shards: vec![
                ShardStatus {
                    shard: 0,
                    wal_lag: 3,
                    segments: 2,
                    corrupt_segments: 1,
                    ..ShardStatus::default()
                },
                ShardStatus {
                    shard: 1,
                    wal_lag: 4,
                    segments: 1,
                    degraded: true,
                    ..ShardStatus::default()
                },
            ],
        };
        assert!(status.degraded());
        assert_eq!(status.degraded_shards(), 1);
        assert_eq!(status.wal_lag(), 7);
        assert_eq!(status.segments(), 3);
        assert_eq!(status.corrupt_segments(), 1);
    }
}
