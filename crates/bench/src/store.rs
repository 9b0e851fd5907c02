//! The content-addressed artifact store.
//!
//! Caches the products of every compilation stage across jobs (and, in the
//! `mi serve` daemon, across client connections), keyed by the FNV-1a hash
//! of the source (see [`crate::job::program_hash`]) plus the
//! stage's configuration:
//!
//! | level       | key                         | artifact                     |
//! |-------------|-----------------------------|------------------------------|
//! | `frontend`  | source hash                 | [`mir::Module`]              |
//! | `prefix`    | hash × opt level × ext pt   | post-prefix [`mir::Module`]  |
//! | `summaries` | hash × opt level × ext pt   | [`ModuleSummaries`]          |
//! | `compiled`  | hash × `Instrument` label   | [`CompiledProgram`]          |
//! | `bytecode`  | hash × `Instrument` label   | [`memvm::BcImage`]           |
//!
//! The `summaries` level shares the prefix key: interprocedural summaries
//! are a pure function of the prefix snapshot they were computed over, so
//! one entry serves every mechanism and optimization-flag combination of
//! that snapshot.
//!
//! The evaluation driver compiles each sweep through a store of its own,
//! sized from the job matrix so nothing is evicted, and uses only the
//! first three levels: per-cell artifacts are never cached there.
//!
//! Correctness rests on the pipeline being a pure function of its key: the
//! `Instrument` label grammar round-trips mechanism, mode, `OptConfig`,
//! opt level and extension point, the pipeline-determinism properties in
//! `tests/props.rs` pin the stages, and the byte-identity tests in
//! `crates/serve` hold store-served results equal to direct compilation.
//! Eviction (LRU per level, capacity-bounded) therefore only ever costs
//! recompilation, never changes results. The label does not carry the
//! SoftBound `sb_narrow_member_bounds`/`sb_wrapper_checks` knobs, so
//! configurations that set them must not be keyed by label (`mi run
//! --connect` rejects them).
//!
//! Every lookup is hit/miss-counted into an internal
//! [`telemetry::Registry`] (`store_lookups{level,outcome}`,
//! `store_evictions{level}`, `store_entries{level}` gauges) that the
//! daemon merges into its `mi-metrics/1` endpoint.

use std::collections::HashMap;
use std::convert::Infallible;
use std::hash::Hash;
use std::sync::{Arc, Mutex};

use meminstrument::runtime::CompiledProgram;
use memvm::BcImage;
use mir::analysis::ipo::ModuleSummaries;
use mir::pipeline::{ExtensionPoint, OptLevel};
use telemetry::Registry;

/// Default per-level entry capacity: generous for the paper corpus
/// (57 programs × 14 configs) while bounding a long-running daemon.
pub const DEFAULT_CAPACITY: usize = 1024;

struct Entry<T> {
    value: Arc<T>,
    last_used: u64,
}

struct Level<K, T> {
    name: &'static str,
    map: HashMap<K, Entry<T>>,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, T> Level<K, T> {
    fn new(name: &'static str, capacity: usize) -> Level<K, T> {
        Level { name, map: HashMap::new(), capacity: capacity.max(1) }
    }

    fn get(&mut self, key: &K, tick: u64, metrics: &mut Registry) -> Option<Arc<T>> {
        let outcome = match self.map.get_mut(key) {
            Some(e) => {
                e.last_used = tick;
                "hit"
            }
            None => "miss",
        };
        metrics.counter_add("store_lookups", &[("level", self.name), ("outcome", outcome)], 1);
        self.map.get(key).map(|e| Arc::clone(&e.value))
    }

    /// Inserts (first writer wins on a race) and evicts the least-recently
    /// used entry while over capacity.
    fn insert(&mut self, key: K, value: Arc<T>, tick: u64, metrics: &mut Registry) -> Arc<T> {
        let value =
            Arc::clone(&self.map.entry(key).or_insert(Entry { value, last_used: tick }).value);
        while self.map.len() > self.capacity {
            if let Some(oldest) =
                self.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
                metrics.counter_add("store_evictions", &[("level", self.name)], 1);
            }
        }
        metrics.gauge_set("store_entries", &[("level", self.name)], self.map.len() as u64);
        value
    }
}

struct Inner {
    tick: u64,
    frontend: Level<u64, mir::Module>,
    prefix: Level<(u64, OptLevel, ExtensionPoint), mir::Module>,
    summaries: Level<(u64, OptLevel, ExtensionPoint), ModuleSummaries>,
    compiled: Level<(u64, String), CompiledProgram>,
    bytecode: Level<(u64, String), BcImage>,
    metrics: Registry,
}

/// A thread-safe, capacity-bounded artifact cache shared across jobs.
///
/// Builders run *outside* the lock, so concurrent misses on the same key
/// may compile twice; the first inserted artifact wins and both callers
/// observe it — results never depend on the race.
pub struct ArtifactStore {
    inner: Mutex<Inner>,
}

impl Default for ArtifactStore {
    fn default() -> ArtifactStore {
        ArtifactStore::with_capacity(DEFAULT_CAPACITY)
    }
}

impl ArtifactStore {
    /// A store with the default per-level capacity.
    pub fn new() -> ArtifactStore {
        ArtifactStore::default()
    }

    /// A store holding at most `capacity` entries per level.
    pub fn with_capacity(capacity: usize) -> ArtifactStore {
        ArtifactStore {
            inner: Mutex::new(Inner {
                tick: 0,
                frontend: Level::new("frontend", capacity),
                prefix: Level::new("prefix", capacity),
                summaries: Level::new("summaries", capacity),
                compiled: Level::new("compiled", capacity),
                bytecode: Level::new("bytecode", capacity),
                metrics: Registry::new(),
            }),
        }
    }

    fn tick(inner: &mut Inner) -> u64 {
        inner.tick += 1;
        inner.tick
    }

    /// Looks `key` up in the level `level` selects, running `build` outside
    /// the lock on a miss and inserting its result; a failed build caches
    /// nothing.
    fn lookup<K: Eq + Hash + Clone, T, E>(
        &self,
        level: fn(&mut Inner) -> (&mut Level<K, T>, &mut Registry),
        key: K,
        build: impl FnOnce() -> Result<T, E>,
    ) -> Result<Arc<T>, E> {
        {
            let inner = &mut *self.inner.lock().unwrap();
            let tick = Self::tick(inner);
            let (level, metrics) = level(inner);
            if let Some(v) = level.get(&key, tick, metrics) {
                return Ok(v);
            }
        }
        let built = Arc::new(build()?);
        let inner = &mut *self.inner.lock().unwrap();
        let tick = Self::tick(inner);
        let (level, metrics) = level(inner);
        Ok(level.insert(key, built, tick, metrics))
    }

    /// Frontend module for `hash`, building it on a miss.
    ///
    /// # Errors
    ///
    /// Propagates the builder's error (a frontend diagnostic).
    pub fn frontend(
        &self,
        hash: u64,
        build: impl FnOnce() -> Result<mir::Module, String>,
    ) -> Result<Arc<mir::Module>, String> {
        self.lookup(|i| (&mut i.frontend, &mut i.metrics), hash, build)
    }

    /// Pipeline prefix for `(hash, opt, ep)`, building it on a miss.
    pub fn prefix(
        &self,
        key: (u64, OptLevel, ExtensionPoint),
        build: impl FnOnce() -> mir::Module,
    ) -> Arc<mir::Module> {
        let Ok(m) =
            self.lookup(|i| (&mut i.prefix, &mut i.metrics), key, || Ok::<_, Infallible>(build()));
        m
    }

    /// Interprocedural summaries for the `(hash, opt, ep)` prefix
    /// snapshot, building them on a miss. [`mir::analysis::ipo::summarize`]
    /// is deterministic, so a cached entry composes byte-identically with
    /// self-summarizing compilation of the same snapshot.
    pub fn summaries(
        &self,
        key: (u64, OptLevel, ExtensionPoint),
        build: impl FnOnce() -> ModuleSummaries,
    ) -> Arc<ModuleSummaries> {
        let Ok(s) = self.lookup(
            |i| (&mut i.summaries, &mut i.metrics),
            key,
            || Ok::<_, Infallible>(build()),
        );
        s
    }

    /// Instrumented program for `(hash, label)`, building it on a miss.
    pub fn compiled(
        &self,
        key: (u64, String),
        build: impl FnOnce() -> CompiledProgram,
    ) -> Arc<CompiledProgram> {
        let Ok(p) = self.lookup(
            |i| (&mut i.compiled, &mut i.metrics),
            key,
            || Ok::<_, Infallible>(build()),
        );
        p
    }

    /// Cached bytecode image for `(hash, label)`, if present (hit-counted).
    pub fn bytecode(&self, key: &(u64, String)) -> Option<Arc<BcImage>> {
        let inner = &mut *self.inner.lock().unwrap();
        let tick = Self::tick(inner);
        inner.bytecode.get(key, tick, &mut inner.metrics)
    }

    /// Stores a bytecode image (first writer wins).
    pub fn insert_bytecode(&self, key: (u64, String), image: BcImage) -> Arc<BcImage> {
        let inner = &mut *self.inner.lock().unwrap();
        let tick = Self::tick(inner);
        inner.bytecode.insert(key, Arc::new(image), tick, &mut inner.metrics)
    }

    /// Total entries across all levels (the daemon's store-size gauge).
    pub fn entries(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        inner.frontend.map.len()
            + inner.prefix.map.len()
            + inner.summaries.map.len()
            + inner.compiled.map.len()
            + inner.bytecode.map.len()
    }

    /// A snapshot of the store's lookup/eviction/size metrics.
    pub fn metrics(&self) -> Registry {
        self.inner.lock().unwrap().metrics.clone()
    }

    /// Resident frontend-level keys, sorted (observability/tests; does not
    /// count as a lookup or touch recency).
    pub fn frontend_keys(&self) -> Vec<u64> {
        let inner = self.inner.lock().unwrap();
        let mut keys: Vec<u64> = inner.frontend.map.keys().copied().collect();
        keys.sort_unstable();
        keys
    }
}

// The store is shared across daemon worker threads; everything it holds
// must be plain data. (`BcImage` deliberately omits the `Rc`-backed host
// closures — see `memvm::bytecode`.)
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ArtifactStore>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_is_lru_and_counted() {
        let store = ArtifactStore::with_capacity(2);
        let build = |n: u64| move || Ok(mir::builder::ModuleBuilder::new(format!("m{n}")).finish());
        for h in 0..3u64 {
            store.frontend(h, build(h)).unwrap();
        }
        // Capacity 2: hash 0 (least recently used) was evicted.
        assert_eq!(store.frontend_keys(), vec![1, 2]);
        // Touch 1, insert 3: 2 is now the LRU victim.
        store.frontend(1, build(1)).unwrap();
        store.frontend(3, build(3)).unwrap();
        assert_eq!(store.frontend_keys(), vec![1, 3]);
        let reg = store.metrics().to_json();
        assert!(reg.contains("store_evictions"), "{reg}");
        // An evicted entry rebuilds transparently with the same content.
        let m = store.frontend(2, build(2)).unwrap();
        assert_eq!(m.name, "m2");
    }

    #[test]
    fn first_writer_wins_and_is_shared() {
        let store = ArtifactStore::new();
        let a = store.frontend(7, || Ok(mir::builder::ModuleBuilder::new("a").finish())).unwrap();
        let b = store.frontend(7, || Ok(mir::builder::ModuleBuilder::new("b").finish())).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(b.name, "a");
    }
}
