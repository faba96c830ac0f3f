//! The parallel experiment engine: a deterministic scoped-thread map and
//! content-addressed artifact caches.
//!
//! Experiments in this crate are embarrassingly parallel at two grains —
//! per-sample (transform, embed, classify) and per-round (seeds, sweep
//! points) — and they recompute the same artifacts over and over: every
//! game embeds each module once to train and once per challenge, and the
//! benchmark sweeps replay the same modules across many design points.
//!
//! These primitives exploit that without touching any experiment's
//! results:
//!
//! - [`par_map`] (re-exported from [`yali_par`], where `yali-ml`'s
//!   data-parallel trainers share it) fans a slice out over
//!   `std::thread::scope` workers and returns outputs **in input order**.
//!   Each `(index, item)` pair is handed to the same closure it would meet
//!   serially, so any experiment whose per-item work is a pure function of
//!   `(index, item)` produces byte-identical results at every thread count
//!   (including 1). Worker count comes from the `YALI_THREADS` environment
//!   variable, or the machine's available parallelism when unset.
//! - [`Cache`] is one sharded, content-addressed memo of a pure function,
//!   instantiated four times:
//!   - [`EmbedCache`] memoizes [`EmbeddingKind::embed`] keyed by the 64-bit
//!     structural hash of the module ([`yali_ir::Module::content_hash`])
//!     plus the embedding kind. The hash ignores module names and arena
//!     numbering — exactly the things embeddings cannot observe — so a
//!     hit returns the same embedding the recomputation would.
//!   - [`TransformCache`] does the same for [`Transformer::apply`], keyed
//!     by a hash of the printed source program plus the transformer and
//!     seed — the complete input of that pure function.
//!   - [`NormalizeCache`] memoizes the Game-3 normalizer, `-O3` (or any
//!     [`OptLevel`]) applied to a challenge module, keyed by the input's
//!     content hash and the level, so the models of one grid cell share
//!     one optimization per challenge.
//!   - [`ModelCache`] is the trained-model store: serialized classifier
//!     blobs keyed by a digest of the complete training input (embedding,
//!     model, training knobs, training-set content hashes, labels); a
//!     loaded model classifies byte-identically to the one a retrain
//!     would produce.
//!
//!   [`CacheStats`] exposes hit/miss/insert counters for each.
//! - [`SharedModule`] is how the transform and normalizer caches hold a
//!   module: immutable behind an `Arc`, carrying the content hash computed
//!   once when it was built or decoded. A hit clones a pointer, and the
//!   model key, the embed cache and the store read the carried hash.
//!
//! The batch entry points ([`transform_batch`], [`embed_all`],
//! [`normalize_all`]) look every key up in memory serially and fill only
//! the distinct missed keys, so a batch that is all hits opens no thread
//! region, and the counters are the same at every thread count. A small
//! batch also reads the store serially and fans out only its computes.
//! `YALI_CACHE=0` bypasses all four caches.
//!
//! With `YALI_STORE=dir` set, the *global* instances additionally read
//! through the persistent [`crate::store`]: a memory miss consults the
//! disk index before computing, and a computed artifact is published to
//! disk as it enters memory. Warm artifacts therefore survive the process
//! and are shared by the workers of a `yali-grid` sweep. Locally
//! constructed caches ([`EmbedCache::new`] etc.) stay memory-only — their
//! counter semantics are part of the unit-test contract — and a disk hit
//! still counts as a memory *miss* in [`CacheStats`]; the disk traffic is
//! accounted separately in [`crate::store::StoreStats`].

use std::collections::HashMap;
use std::hash::Hash;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::store::{self, Namespace};
use crate::transformer::Transformer;
use yali_embed::{Embedding, EmbeddingKind};
use yali_ir::Module;
use yali_minic::Program;
use yali_opt::OptLevel;

pub use yali_par::{par_for_each_mut, par_map, par_map_with, worker_count};

/// Snapshot of a [`Cache`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups memory could not answer (store hits and computes).
    pub misses: u64,
    /// Entries actually stored (≤ misses: concurrent misses on one key
    /// store once).
    pub inserts: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Hits over total lookups (0.0 when nothing was looked up). This is
    /// the number [`crate::report::RunReport`] publishes per cache.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The hit/miss/insert counter trio of a [`Cache`].
#[derive(Debug, Default)]
struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
}

impl CacheCounters {
    fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a first-writer insert (concurrent misses on one key store
    /// once, so inserts ≤ misses).
    fn insert(&self) {
        self.inserts.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self, entries: usize) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            entries,
        }
    }

    fn reset(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.inserts.store(0, Ordering::Relaxed);
    }
}

/// A module as the caches share it: immutable behind an `Arc`, with its
/// [`Module::content_hash`] computed once, when it was built or decoded.
/// Cloning one copies a pointer; it derefs to the module.
#[derive(Debug, Clone)]
pub struct SharedModule {
    module: Arc<Module>,
    hash: u64,
}

impl SharedModule {
    /// Shares a freshly built module, hashing it once.
    pub fn new(module: Module) -> SharedModule {
        SharedModule {
            hash: module.content_hash(),
            module: Arc::new(module),
        }
    }

    /// The carried content hash.
    pub fn content_hash(&self) -> u64 {
        self.hash
    }

    /// An owned module: moved out of the last handle, copied otherwise.
    pub fn into_module(self) -> Module {
        Arc::try_unwrap(self.module).unwrap_or_else(|m| Module::clone(&m))
    }
}

impl Deref for SharedModule {
    type Target = Module;

    fn deref(&self) -> &Module {
        &self.module
    }
}

/// A module and its content hash: what the cached paths key on. A
/// [`Module`] hashes itself on every call; a [`SharedModule`] hands over
/// the hash it carries.
pub trait HashedModule: Sync {
    /// The module.
    fn module(&self) -> &Module;
    /// Its [`Module::content_hash`].
    fn content_hash(&self) -> u64;
}

impl HashedModule for Module {
    fn module(&self) -> &Module {
        self
    }

    fn content_hash(&self) -> u64 {
        Module::content_hash(self)
    }
}

impl HashedModule for SharedModule {
    fn module(&self) -> &Module {
        &self.module
    }

    fn content_hash(&self) -> u64 {
        self.hash
    }
}

/// How one cache's entries travel through the artifact store.
struct Codec<K, V> {
    ns: Namespace,
    /// The store record key; it also picks the memory shard.
    key: fn(&K) -> u64,
    encode: fn(&V) -> Vec<u8>,
    decode: fn(&[u8]) -> Option<V>,
}

const SHARDS: usize = 16;

/// A batch that misses fewer keys than this reads the store on the calling
/// thread and fans out only its computes. A thread region costs a spawn
/// and a wake-up per worker and, on a busy host, waits on its slowest
/// worker; a few store reads (a file read and a decode each) do not repay
/// that. At `Scale::SMALL`, a resumed game's training batches (80
/// modules) still decode in parallel; its challenge batches (16) do not.
const PAR_LOADS: usize = 32;

/// A sharded, content-addressed memo of one pure function.
///
/// Lookups read through three levels: memory (16 shards of
/// `Mutex<HashMap>`), then — for the attached global instances — the
/// artifact store, then the computation, whose result enters memory and
/// is published to the store by its first writer. Every entry is a pure
/// function of its key, so a hit returns what the recomputation would.
pub struct Cache<K, V> {
    shards: Vec<Mutex<HashMap<K, V>>>,
    counters: CacheCounters,
    codec: Codec<K, V>,
    /// Whether memory misses read through the persistent store. Only the
    /// global instances attach; local instances keep the exact counter
    /// semantics the unit tests pin down.
    attached: bool,
}

/// `(Module::content_hash, EmbeddingKind)` → embedding.
pub type EmbedCache = Cache<(u64, EmbeddingKind), Embedding>;
/// `(hash of the printed source, transformer, seed)` → transformed module.
pub type TransformCache = Cache<(u64, Transformer, u64), SharedModule>;
/// `(Module::content_hash, OptLevel)` → the normalized module.
pub type NormalizeCache = Cache<(u64, OptLevel), SharedModule>;
/// Training-input digest → serialized model blob.
pub type ModelCache = Cache<u64, Arc<Vec<u8>>>;

impl<K, V> Cache<K, V>
where
    K: Copy + Eq + Hash + Send + Sync,
    V: Clone + Send + Sync,
{
    fn with_codec(codec: Codec<K, V>) -> Cache<K, V> {
        Cache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            counters: CacheCounters::default(),
            codec,
            attached: false,
        }
    }

    fn shard(&self, key: &K) -> MutexGuard<'_, HashMap<K, V>> {
        locked(&self.shards[((self.codec.key)(key) as usize) % SHARDS])
    }

    /// Enters a value; the first writer of a key counts the insert.
    fn remember(&self, key: K, value: V) -> bool {
        let inserted = self.shard(&key).insert(key, value).is_none();
        if inserted {
            self.counters.insert();
        }
        inserted
    }

    /// The store level of an attached cache: a valid record warms memory.
    fn load(&self, key: &K) -> Option<V> {
        if !self.attached {
            return None;
        }
        let bytes = store::active()?.get(self.codec.ns, (self.codec.key)(key))?;
        let value = (self.codec.decode)(&bytes)?;
        self.remember(*key, value.clone());
        Some(value)
    }

    /// Enters a computed value; its first writer also publishes it.
    fn publish(&self, key: K, value: &V) {
        if self.remember(key, value.clone()) && self.attached {
            if let Some(store) = store::active() {
                store.put(
                    self.codec.ns,
                    (self.codec.key)(&key),
                    &(self.codec.encode)(value),
                );
            }
        }
    }

    /// The read-through path for a batch, in input order. Memory is
    /// checked serially; each distinct missed key is filled once (store,
    /// else `compute`), on [`par_map`] when the batch missed at least
    /// [`PAR_LOADS`] keys. A smaller batch reads the store serially and
    /// sends only its computes to [`par_map`], which opens no thread region
    /// for fewer than two. A repeat of a key the batch missed counts as a
    /// hit, as the serial loop's second lookup did. Returns the values and
    /// the number of keys filled.
    fn get_all<T: Sync>(
        &self,
        items: &[T],
        key: impl Fn(&T) -> K,
        compute: impl Fn(&T) -> V + Sync,
    ) -> (Vec<V>, usize) {
        let keys: Vec<K> = items.iter().map(key).collect();
        let mut found = Vec::with_capacity(items.len());
        // `missed` holds the first index of each key memory lacks; `slot`
        // maps that key to its place in `missed`.
        let mut missed: Vec<usize> = Vec::new();
        let mut slot: HashMap<K, usize> = HashMap::new();
        for (i, k) in keys.iter().enumerate() {
            let value = self.shard(k).get(k).cloned();
            if value.is_some() || slot.contains_key(k) {
                self.counters.hit();
            } else {
                self.counters.miss();
                slot.insert(*k, missed.len());
                missed.push(i);
            }
            found.push(value);
        }
        let make = |i: usize| {
            let value = compute(&items[i]);
            self.publish(keys[i], &value);
            value
        };
        let filled: Vec<V> = if missed.len() >= PAR_LOADS {
            par_map(&missed, |_, &i| {
                self.load(&keys[i]).unwrap_or_else(|| make(i))
            })
        } else {
            let loaded: Vec<Option<V>> = missed.iter().map(|&i| self.load(&keys[i])).collect();
            let absent: Vec<usize> = missed
                .iter()
                .zip(&loaded)
                .filter(|(_, v)| v.is_none())
                .map(|(&i, _)| i)
                .collect();
            let mut made = par_map(&absent, |_, &i| make(i)).into_iter();
            loaded
                .into_iter()
                .map(|v| v.unwrap_or_else(|| made.next().expect("a value per absent key")))
                .collect()
        };
        let values = found
            .into_iter()
            .zip(&keys)
            .map(|(value, k)| value.unwrap_or_else(|| filled[slot[k]].clone()))
            .collect();
        (values, missed.len())
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let entries = self.shards.iter().map(|s| locked(s).len()).sum();
        self.counters.snapshot(entries)
    }

    /// Empties the cache and zeroes the counters.
    pub fn clear(&self) {
        for s in &self.shards {
            locked(s).clear();
        }
        self.counters.reset();
    }
}

fn locked<T>(shard: &Mutex<T>) -> MutexGuard<'_, T> {
    shard
        .lock()
        .expect("a thread panicked while holding a cache shard")
}

impl Default for EmbedCache {
    fn default() -> Self {
        EmbedCache::new()
    }
}

impl EmbedCache {
    /// An empty, memory-only cache.
    pub fn new() -> EmbedCache {
        Cache::with_codec(Codec {
            ns: Namespace::Embed,
            key: |&(hash, kind)| store::embed_key(hash, kind),
            encode: store::encode_embedding,
            decode: store::decode_embedding,
        })
    }

    /// The process-wide cache used by the experiment drivers. Reads
    /// through the persistent store when `YALI_STORE` is active.
    pub fn global() -> &'static EmbedCache {
        static GLOBAL: OnceLock<EmbedCache> = OnceLock::new();
        GLOBAL.get_or_init(|| EmbedCache {
            attached: true,
            ..EmbedCache::new()
        })
    }

    /// Computes (or recalls) `kind`'s embedding of `m`.
    pub fn embed(&self, m: &impl HashedModule, kind: EmbeddingKind) -> Embedding {
        let mut one = self.embed_all(std::slice::from_ref(m), kind);
        one.pop().expect("one embedding per module")
    }

    fn embed_all<M: HashedModule>(&self, modules: &[M], kind: EmbeddingKind) -> Vec<Embedding> {
        self.get_all(
            modules,
            |m| (m.content_hash(), kind),
            |m| embed_one(m, kind),
        )
        .0
    }
}

impl Default for TransformCache {
    fn default() -> Self {
        TransformCache::new()
    }
}

impl TransformCache {
    /// An empty, memory-only cache.
    pub fn new() -> TransformCache {
        Cache::with_codec(Codec {
            ns: Namespace::Transform,
            key: |&(source, t, seed)| store::transform_key(source, t.name(), seed),
            encode: |m| store::encode_module(m),
            decode: |bytes| store::decode_module(bytes).map(SharedModule::new),
        })
    }

    /// The process-wide cache used by the experiment drivers. Reads
    /// through the persistent store when `YALI_STORE` is active.
    pub fn global() -> &'static TransformCache {
        static GLOBAL: OnceLock<TransformCache> = OnceLock::new();
        GLOBAL.get_or_init(|| TransformCache {
            attached: true,
            ..TransformCache::new()
        })
    }

    /// Applies (or recalls) `t` to `program` under `seed`.
    pub fn apply(&self, program: &Program, t: Transformer, seed: u64) -> SharedModule {
        let mut one = self.apply_all(&[(program, seed)], t);
        one.pop().expect("one module per program")
    }

    fn apply_all(&self, jobs: &[(&Program, u64)], t: Transformer) -> Vec<SharedModule> {
        self.get_all(
            jobs,
            |&(p, seed)| (source_hash(p), t, seed),
            |&(p, seed)| transform_one(p, t, seed),
        )
        .0
    }
}

impl Default for NormalizeCache {
    fn default() -> Self {
        NormalizeCache::new()
    }
}

impl NormalizeCache {
    /// An empty, memory-only cache. Its records share the store's
    /// `transform` namespace under keys of their own
    /// ([`store::normalize_key`]).
    pub fn new() -> NormalizeCache {
        Cache::with_codec(Codec {
            ns: Namespace::Transform,
            key: |&(hash, level)| store::normalize_key(hash, level),
            encode: |m| store::encode_module(m),
            decode: |bytes| store::decode_module(bytes).map(SharedModule::new),
        })
    }

    /// The process-wide cache used by the experiment drivers. Reads
    /// through the persistent store when `YALI_STORE` is active.
    pub fn global() -> &'static NormalizeCache {
        static GLOBAL: OnceLock<NormalizeCache> = OnceLock::new();
        GLOBAL.get_or_init(|| NormalizeCache {
            attached: true,
            ..NormalizeCache::new()
        })
    }

    fn normalize_all(
        &self,
        modules: &[SharedModule],
        level: OptLevel,
    ) -> (Vec<SharedModule>, usize) {
        self.get_all(
            modules,
            |m| (m.content_hash(), level),
            |m| normalize_one(m, level),
        )
    }
}

impl Default for ModelCache {
    fn default() -> Self {
        ModelCache::new()
    }
}

impl ModelCache {
    /// An empty, memory-only store.
    pub fn new() -> ModelCache {
        Cache::with_codec(Codec {
            ns: Namespace::Model,
            key: |&key| key,
            encode: |blob| store::encode_model(blob),
            decode: |bytes| store::decode_model(bytes).map(Arc::new),
        })
    }

    /// The process-wide store used by the experiment drivers. Reads
    /// through the persistent store when `YALI_STORE` is active.
    pub fn global() -> &'static ModelCache {
        static GLOBAL: OnceLock<ModelCache> = OnceLock::new();
        GLOBAL.get_or_init(|| ModelCache {
            attached: true,
            ..ModelCache::new()
        })
    }

    /// Looks up a model blob (memory, then the store), counting the
    /// memory hit or miss. Blobs are shared via `Arc`: a hit clones a
    /// pointer, not the weights.
    pub fn get(&self, key: u64) -> Option<Arc<Vec<u8>>> {
        if let Some(blob) = self.shard(&key).get(&key).cloned() {
            self.counters.hit();
            return Some(blob);
        }
        self.counters.miss();
        self.load(&key)
    }

    /// Stores a freshly trained model's blob (first writer wins; a
    /// concurrent trainer of the same key stores once).
    pub fn insert(&self, key: u64, bytes: Vec<u8>) {
        self.publish(key, &Arc::new(bytes));
    }
}

/// Clears all global caches (benchmarks use this to measure cold starts).
pub fn clear_caches() {
    EmbedCache::global().clear();
    TransformCache::global().clear();
    NormalizeCache::global().clear();
    ModelCache::global().clear();
}

/// Whether the global caches are in use. `YALI_CACHE=0` (or `off`)
/// bypasses them entirely — every transform and embedding is recomputed,
/// which is the pre-engine behavior (useful as a benchmark baseline and
/// when bisecting a suspected cache bug).
pub fn caching_enabled() -> bool {
    !matches!(
        std::env::var("YALI_CACHE").as_deref(),
        Ok("0") | Ok("off") | Ok("false")
    )
}

/// The transform cache's key for a program: a hash of its printed source,
/// which is stable across clones.
fn source_hash(p: &Program) -> u64 {
    let mut h = yali_ir::Fnv64::new();
    h.write_str(&yali_minic::print(p));
    h.finish()
}

/// One embedding computed, as an `embed.one` span; with a trace sink
/// attached the open event carries the module's content hash.
fn embed_one<M: HashedModule>(m: &M, kind: EmbeddingKind) -> Embedding {
    let _span = if yali_obs::trace_on() {
        yali_obs::span_attr!("embed.one", "module", m.content_hash())
    } else {
        yali_obs::span!("embed.one")
    };
    kind.embed(m.module())
}

/// One transform computed, as a `transform.one` span.
fn transform_one(program: &Program, t: Transformer, seed: u64) -> SharedModule {
    let _span = yali_obs::span!("transform.one");
    SharedModule::new(t.apply(program, seed))
}

fn normalize_one(m: &SharedModule, level: OptLevel) -> SharedModule {
    SharedModule::new(yali_opt::optimized(m, level))
}

/// Embeds a batch through the global [`EmbedCache`] (or directly, under
/// `YALI_CACHE=0`), in input order. Under observability every embedding
/// computed — not recalled — is an `embed.one` span.
pub fn embed_all<M: HashedModule>(modules: &[M], kind: EmbeddingKind) -> Vec<Embedding> {
    if !caching_enabled() {
        return par_map(modules, |_, m| embed_one(m, kind));
    }
    EmbedCache::global().embed_all(modules, kind)
}

/// One module through [`embed_all`].
pub fn embed_cached<M: HashedModule>(m: &M, kind: EmbeddingKind) -> Embedding {
    let mut one = embed_all(std::slice::from_ref(m), kind);
    one.pop().expect("one embedding per module")
}

/// Applies `t` to each `(program, seed)` job through the global
/// [`TransformCache`] (or directly, under `YALI_CACHE=0`), in input
/// order. Every transform computed is a `transform.one` span.
pub fn transform_batch(jobs: &[(&Program, u64)], t: Transformer) -> Vec<SharedModule> {
    if !caching_enabled() {
        return par_map(jobs, |_, &(p, seed)| transform_one(p, t, seed));
    }
    TransformCache::global().apply_all(jobs, t)
}

/// The Game-3 normalizer: `level` applied to every module, through the
/// global [`NormalizeCache`] (or directly, under `YALI_CACHE=0`), in
/// input order. Lookups add to the `core.cache.normalize_hits` and
/// `core.cache.normalize_misses` counters.
pub fn normalize_all(modules: &[SharedModule], level: OptLevel) -> Vec<SharedModule> {
    if !caching_enabled() {
        return par_map(modules, |_, m| normalize_one(m, level));
    }
    let (normalized, misses) = NormalizeCache::global().normalize_all(modules, level);
    yali_obs::count!("core.cache.normalize_hits", (modules.len() - misses) as u64);
    yali_obs::count!("core.cache.normalize_misses", misses as u64);
    normalized
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn module(src: &str) -> Module {
        yali_minic::compile(src).expect("test program compiles")
    }

    /// Looping POJ solutions through the obfuscating evaders: the inputs
    /// the Game-3 normalizer sees.
    fn challenges() -> Vec<Module> {
        let evaders = [
            Transformer::Ir(yali_obf::IrObf::Ollvm),
            Transformer::Ir(yali_obf::IrObf::Bcf),
            Transformer::Source(crate::SourceStrategy::Mcmc),
            Transformer::None,
        ];
        (0..6)
            .flat_map(|p| {
                let program = yali_dataset::solution(p * 17, 3);
                evaders.map(|t| t.apply(&program, p as u64))
            })
            .collect()
    }

    #[test]
    fn par_map_preserves_order_at_every_thread_count() {
        let items: Vec<u64> = (0..103).collect();
        let serial = par_map_with(1, &items, |i, &v| v * v + i as u64);
        for threads in [2, 3, 8, 32] {
            let parallel = par_map_with(threads, &items, |i, &v| v * v + i as u64);
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn par_map_handles_degenerate_sizes() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_with(4, &empty, |_, &v| v).is_empty());
        assert_eq!(par_map_with(4, &[7u32], |i, &v| v + i as u32), vec![7]);
        assert_eq!(
            par_map_with(64, &[1u32, 2], |_, &v| v * 10),
            vec![10, 20],
            "more threads than chunks"
        );
    }

    #[test]
    fn par_for_each_mut_equals_the_serial_loop() {
        let mut a: Vec<usize> = (0..57).collect();
        let mut b = a.clone();
        for (i, t) in a.iter_mut().enumerate() {
            *t = *t * 3 + i;
        }
        par_for_each_mut(&mut b, |i, t| *t = *t * 3 + i);
        assert_eq!(a, b);
    }

    #[test]
    fn cache_hits_on_structurally_equal_modules() {
        let cache = EmbedCache::new();
        let m1 = module("int f(int a) { return a * a + 3; }");
        let e1 = cache.embed(&m1, EmbeddingKind::Histogram);
        let e2 = cache.embed(&m1, EmbeddingKind::Histogram);
        assert_eq!(e1, e2);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.entries), (1, 1, 1, 1));
    }

    #[test]
    fn cache_distinguishes_kinds_and_contents() {
        let cache = EmbedCache::new();
        let m1 = module("int f(int a) { return a + 1; }");
        let m2 = module("int f(int a) { return a - 1; }");
        cache.embed(&m1, EmbeddingKind::Histogram);
        cache.embed(&m1, EmbeddingKind::Milepost);
        cache.embed(&m2, EmbeddingKind::Histogram);
        let s = cache.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.entries, 3);
    }

    #[test]
    fn cached_equals_uncached() {
        let cache = EmbedCache::new();
        let m =
            module("int g(int x) { int s = 0; while (x > 0) { s = s + x; x = x - 1; } return s; }");
        for kind in EmbeddingKind::ALL {
            assert_eq!(cache.embed(&m, kind), kind.embed(&m), "{kind}");
            // Second round: answered from cache, still identical.
            assert_eq!(cache.embed(&m, kind), kind.embed(&m), "{kind} cached");
        }
        assert_eq!(cache.stats().hits, EmbeddingKind::ALL.len() as u64);
    }

    #[test]
    fn clear_resets_everything() {
        let cache = EmbedCache::new();
        cache.embed(&module("int f() { return 4; }"), EmbeddingKind::Histogram);
        cache.clear();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.entries), (0, 0, 0, 0));
        assert_eq!(s.hit_ratio(), 0.0);
    }

    #[test]
    fn cache_is_shared_across_threads() {
        let cache = EmbedCache::new();
        let ms: Vec<Module> = (0..8)
            .map(|_| module("int f(int a) { return a * 2; }"))
            .collect();
        let embs = par_map_with(4, &ms, |_, m| cache.embed(m, EmbeddingKind::Histogram));
        assert!(embs.windows(2).all(|w| w[0] == w[1]));
        let s = cache.stats();
        // All eight modules share one key; at least one lookup computed.
        assert_eq!(s.entries, 1);
        assert_eq!(s.hits + s.misses, 8);
        assert!(s.misses >= 1);
    }

    #[test]
    fn a_batch_fills_each_missed_key_once_and_counts_like_the_serial_loop() {
        let cache = EmbedCache::new();
        let a = module("int f(int a) { return a + 5; }");
        let b = module("int f(int a) { return a * 5; }");
        let batch = [a.clone(), b.clone(), a.clone(), a, b];
        let computed = AtomicUsize::new(0);
        let embed = |m: &Module| {
            computed.fetch_add(1, Ordering::Relaxed);
            EmbeddingKind::Histogram.embed(m)
        };
        let key = |m: &Module| (m.content_hash(), EmbeddingKind::Histogram);
        let (cold, filled) = cache.get_all(&batch, key, embed);
        assert_eq!((filled, computed.load(Ordering::Relaxed)), (2, 2));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.entries), (3, 2, 2, 2));
        let (warm, filled) = cache.get_all(&batch, key, embed);
        assert_eq!((filled, computed.load(Ordering::Relaxed)), (0, 2));
        assert_eq!(cold, warm);
        let direct: Vec<Embedding> = batch
            .iter()
            .map(|m| EmbeddingKind::Histogram.embed(m))
            .collect();
        assert_eq!(warm, direct);
    }

    #[test]
    fn transform_cache_matches_direct_application() {
        let cache = TransformCache::new();
        let p = yali_minic::parse("int f(int a) { return a * 3 + 1; }").unwrap();
        for t in [
            Transformer::None,
            Transformer::Opt(OptLevel::O3),
            Transformer::Ir(yali_obf::IrObf::Fla),
        ] {
            let direct = t.apply(&p, 9);
            let cold = cache.apply(&p, t, 9);
            let warm = cache.apply(&p, t, 9);
            assert_eq!(
                yali_ir::print_module(&direct),
                yali_ir::print_module(&cold),
                "{t}"
            );
            assert_eq!(
                yali_ir::print_module(&direct),
                yali_ir::print_module(&warm),
                "{t}"
            );
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (3, 3, 3));
    }

    #[test]
    fn transform_cache_distinguishes_seeds_and_programs() {
        let cache = TransformCache::new();
        let p1 = yali_minic::parse("int f(int a) { return a + 2; }").unwrap();
        let p2 = yali_minic::parse("int f(int a) { return a - 2; }").unwrap();
        let t = Transformer::Ir(yali_obf::IrObf::Bcf);
        cache.apply(&p1, t, 1);
        cache.apply(&p1, t, 2); // same program, new seed: distinct entry
        cache.apply(&p2, t, 1); // new program: distinct entry
        cache.apply(&p1, Transformer::None, 1); // new transformer
        let s = cache.stats();
        assert_eq!((s.hits, s.entries), (0, 4));
    }

    #[test]
    fn owned_adapters_print_what_apply_prints() {
        let corpus = crate::Corpus::poj(2, 3, 5);
        let samples: Vec<&crate::Sample> = corpus.samples.iter().collect();
        for t in [
            Transformer::Ir(yali_obf::IrObf::Ollvm),
            Transformer::Opt(OptLevel::O3),
        ] {
            let owned = crate::transform_all(&samples, t, 40);
            for (i, (s, m)) in samples.iter().zip(&owned).enumerate() {
                let seed = 40 ^ ((i as u64) << 16);
                let direct = yali_ir::print_module(&t.apply(&s.program, seed));
                assert_eq!(yali_ir::print_module(m), direct, "{t} #{i}");
            }
        }
    }

    #[test]
    fn handles_carry_the_hash_of_their_module() {
        let p =
            yali_minic::parse("int f(int a) { while (a > 3) { a = a - 2; } return a; }").unwrap();
        let t = Transformer::Ir(yali_obf::IrObf::Bcf);
        let cache = TransformCache::new();
        let computed = cache.apply(&p, t, 4);
        let recalled = cache.apply(&p, t, 4);
        assert_eq!(cache.stats().hits, 1, "the second apply is a memory hit");
        let decoded = store::decode_module(&store::encode_module(&computed))
            .map(SharedModule::new)
            .expect("a printed module parses");
        let normalized = NormalizeCache::new()
            .normalize_all(std::slice::from_ref(&computed), OptLevel::O3)
            .0;
        for (what, h) in [
            ("computed", &computed),
            ("memory hit", &recalled),
            ("decoded", &decoded),
            ("normalized", &normalized[0]),
        ] {
            assert_eq!(h.content_hash(), Module::content_hash(h), "{what}");
            assert_eq!(
                HashedModule::content_hash(h),
                Module::content_hash(h),
                "{what}"
            );
        }
    }

    #[test]
    fn a_normalizer_hit_prints_what_optimized_prints() {
        let cache = NormalizeCache::new();
        let inputs: Vec<SharedModule> = challenges().into_iter().map(SharedModule::new).collect();
        let distinct: std::collections::HashSet<u64> =
            inputs.iter().map(SharedModule::content_hash).collect();
        let (cold, filled) = cache.normalize_all(&inputs, OptLevel::O3);
        assert_eq!(
            filled,
            distinct.len(),
            "one optimization per distinct challenge"
        );
        // A decoded copy has fresh arena numbering but the same content
        // hash, so it is answered from memory.
        let decoded: Vec<SharedModule> = inputs
            .iter()
            .map(|m| {
                store::decode_module(&store::encode_module(m))
                    .map(SharedModule::new)
                    .unwrap()
            })
            .collect();
        let (warm, filled) = cache.normalize_all(&decoded, OptLevel::O3);
        assert_eq!(filled, 0, "every lookup hits");
        for ((m, c), w) in decoded.iter().zip(&cold).zip(&warm) {
            let direct = yali_ir::print_module(&yali_opt::optimized(m, OptLevel::O3));
            assert_eq!(yali_ir::print_module(c), direct);
            assert_eq!(yali_ir::print_module(w), direct);
        }
    }

    #[test]
    fn model_cache_counts_and_clears() {
        let cache = ModelCache::new();
        assert!(cache.get(42).is_none());
        cache.insert(42, vec![1, 2, 3]);
        cache.insert(42, vec![1, 2, 3]); // same key: no second entry
        assert_eq!(cache.get(42).unwrap().as_slice(), &[1, 2, 3]);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.entries), (1, 1, 1, 1));
        cache.clear();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.entries), (0, 0, 0, 0));
    }

    #[test]
    fn attached_caches_read_through_the_store() {
        let dir = std::env::temp_dir().join(format!(
            "yali_engine_store_test_{}_{}",
            std::process::id(),
            yali_obs::epoch_ns()
        ));
        store::set_store_dir(Some(&dir)).unwrap();

        // Publish via one attached cache, then recall via a second one
        // with empty memory: the artifact must come back from disk.
        let m = module("int readthrough(int a) { return a * 7 + 5; }");
        let writer = EmbedCache {
            attached: true,
            ..EmbedCache::new()
        };
        let e = writer.embed(&m, EmbeddingKind::Histogram);
        let reader = EmbedCache {
            attached: true,
            ..EmbedCache::new()
        };
        let before = store::active_stats().unwrap().disk_hits;
        assert_eq!(reader.embed(&m, EmbeddingKind::Histogram), e);
        assert!(
            store::active_stats().unwrap().disk_hits > before,
            "second cache must hit the disk, not recompute"
        );
        let s = reader.stats();
        assert_eq!(
            (s.hits, s.misses, s.inserts),
            (0, 1, 1),
            "disk hit is a memory miss"
        );

        // A batch missing `PAR_LOADS` keys or more reads the store on
        // `par_map`, a smaller one on this thread; both recall what was
        // published and count alike.
        let batch: Vec<Module> = (0..PAR_LOADS + 4)
            .map(|k| module(&format!("int batch(int a) {{ return a * {k} + 5; }}")))
            .collect();
        let published = writer.embed_all(&batch, EmbeddingKind::Histogram);
        for n in [batch.len(), PAR_LOADS - 1] {
            let reader = EmbedCache {
                attached: true,
                ..EmbedCache::new()
            };
            let before = store::active_stats().unwrap().disk_hits;
            let recalled = reader.embed_all(&batch[..n], EmbeddingKind::Histogram);
            assert_eq!(recalled, published[..n], "{n} modules");
            assert!(store::active_stats().unwrap().disk_hits - before >= n as u64);
            let s = reader.stats();
            assert_eq!((s.hits, s.misses, s.inserts), (0, n as u64, n as u64));
        }

        // Same story for models.
        let mc1 = ModelCache {
            attached: true,
            ..ModelCache::new()
        };
        mc1.insert(0xfeed_beef, vec![4, 5, 6]);
        let mc2 = ModelCache {
            attached: true,
            ..ModelCache::new()
        };
        assert_eq!(mc2.get(0xfeed_beef).unwrap().as_slice(), &[4, 5, 6]);

        // And transforms: the recalled module embeds identically and
        // carries its own content hash.
        let p = yali_minic::parse("int readthrough(int a) { return a - 9; }").unwrap();
        let t = Transformer::Ir(yali_obf::IrObf::Fla);
        let tc1 = TransformCache {
            attached: true,
            ..TransformCache::new()
        };
        let direct = tc1.apply(&p, t, 3);
        let tc2 = TransformCache {
            attached: true,
            ..TransformCache::new()
        };
        let from_disk = tc2.apply(&p, t, 3);
        assert_eq!(
            yali_ir::print_module(&from_disk),
            yali_ir::print_module(&direct)
        );
        assert_eq!(from_disk.content_hash(), direct.content_hash());
        assert_eq!(from_disk.content_hash(), Module::content_hash(&from_disk));

        // And the normalizer, whose records share the transform namespace.
        let nc1 = NormalizeCache {
            attached: true,
            ..NormalizeCache::new()
        };
        let normalized = nc1
            .normalize_all(std::slice::from_ref(&direct), OptLevel::O3)
            .0;
        let nc2 = NormalizeCache {
            attached: true,
            ..NormalizeCache::new()
        };
        let before = store::active_stats().unwrap().disk_hits;
        let recalled = nc2.normalize_all(&[direct], OptLevel::O3).0;
        assert!(store::active_stats().unwrap().disk_hits > before);
        assert_eq!(
            yali_ir::print_module(&recalled[0]),
            yali_ir::print_module(&normalized[0])
        );
        assert_eq!(
            recalled[0].content_hash(),
            Module::content_hash(&recalled[0])
        );

        store::set_store_dir(None).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn experiment_types_are_send_and_sync() {
        fn ok<T: Send + Sync>() {}
        ok::<Embedding>();
        ok::<EmbeddingKind>();
        ok::<crate::Transformer>();
        ok::<yali_ml::VectorClassifier>();
        ok::<yali_ml::Dgcnn>();
        ok::<crate::arena::TrainedClassifier>();
        ok::<SharedModule>();
        ok::<EmbedCache>();
        ok::<TransformCache>();
    }
}
