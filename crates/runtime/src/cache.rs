//! Content-keyed result cache.
//!
//! Keys are a stable 64-bit FNV-1a hash of the batch namespace plus the
//! job's canonical parameter string, so a result is reused exactly when
//! the same named sweep re-evaluates the same parameter point. The cache
//! holds results in memory; attaching an [`ArtifactTier`] (the
//! `implant-store` on-disk store) additionally persists every entry, so a
//! re-run of a sweep recomputes only changed points across process
//! restarts. Long-lived services should use the bounded mode
//! ([`ResultCache::bounded`]): the in-memory entry count is capped and
//! the oldest entry is evicted first, so memory cannot grow without
//! bound.

use crate::job::ParamPoint;
use crate::json::Json;
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Stable 64-bit FNV-1a hash (the cache-key hash; never randomised, so
/// keys survive process restarts).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The cache key of `point` within `namespace` — the same key every
/// [`ResultCache`] uses, exposed as a free function so layers that hold
/// no cache (e.g. a sharding router placing requests on the replica
/// whose cache is already warm) can compute placement from it.
pub fn cache_key(namespace: &str, point: &ParamPoint) -> u64 {
    fnv1a64(format!("{namespace}\u{1f}{}", point.canonical()).as_bytes())
}

/// A value the cache can persist to disk as JSON.
///
/// Implementations must round-trip exactly: `from_json(&v.to_json())`
/// must reconstruct a value equal to `v` (bit-exact for floats — the
/// JSON encoder preserves `f64` bits).
pub trait Artifact: Sized {
    /// Encodes the value.
    fn to_json(&self) -> Json;
    /// Decodes a value; `None` on shape mismatch (treated as a miss).
    fn from_json(json: &Json) -> Option<Self>;
}

impl Artifact for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
    fn from_json(json: &Json) -> Option<Self> {
        json.as_f64()
    }
}

impl Artifact for u64 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
    fn from_json(json: &Json) -> Option<Self> {
        json.as_u64()
    }
}

impl Artifact for usize {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
    fn from_json(json: &Json) -> Option<Self> {
        json.as_u64().map(|v| v as usize)
    }
}

impl Artifact for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
    fn from_json(json: &Json) -> Option<Self> {
        json.as_bool()
    }
}

impl Artifact for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
    fn from_json(json: &Json) -> Option<Self> {
        json.as_str().map(str::to_string)
    }
}

impl<T: Artifact> Artifact for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(Artifact::to_json).collect())
    }
    fn from_json(json: &Json) -> Option<Self> {
        json.as_arr()?.iter().map(T::from_json).collect()
    }
}

impl<A: Artifact, B: Artifact> Artifact for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
    fn from_json(json: &Json) -> Option<Self> {
        match json.as_arr()? {
            [a, b] => Some((A::from_json(a)?, B::from_json(b)?)),
            _ => None,
        }
    }
}

/// A shared artifact tier behind the cache — a second, slower level
/// consulted on a memory miss and written through on every `put`.
///
/// The cache itself stays value-typed; the tier traffics in the encoded
/// [`Artifact`] JSON, so one tier instance (e.g. `implant-store`) can
/// back caches of different value types. Implementations must be safe
/// for concurrent readers and writers across processes.
pub trait ArtifactTier: Send + Sync {
    /// Loads the encoded value for `key`; `None` = not present (a
    /// corrupt entry must also read as `None`, never an error).
    fn load(&self, key: u64) -> Option<Json>;
    /// Persists the encoded value for `key`. `namespace` and `params`
    /// describe the identity for manifests/debugging; the key is
    /// already `fnv1a64(namespace ++ US ++ params)`.
    fn store(&self, key: u64, namespace: &str, params: &str, value: &Json);
}

/// In-memory entry store: a key → value map plus the key insertion
/// order, so a bounded cache can evict its oldest entry in O(1).
#[derive(Debug)]
struct MemStore<V> {
    map: HashMap<u64, V>,
    /// Keys in first-insertion order; only maintained when bounded.
    order: VecDeque<u64>,
}

impl<V> Default for MemStore<V> {
    fn default() -> Self {
        MemStore { map: HashMap::new(), order: VecDeque::new() }
    }
}

/// The content-keyed cache. Thread-safe; shared by reference with the
/// worker pool.
#[derive(Default)]
pub struct ResultCache<V> {
    mem: Mutex<MemStore<V>>,
    /// Maximum in-memory entries; `None` = unbounded.
    capacity: Option<usize>,
    /// Shared artifact tier consulted after memory.
    tier: Option<Arc<dyn ArtifactTier>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<V: std::fmt::Debug> std::fmt::Debug for ResultCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("capacity", &self.capacity)
            .field("tier", &self.tier.as_ref().map(|_| "<tier>"))
            .field("len", &self.mem.lock().map(|m| m.map.len()).unwrap_or(0))
            .finish()
    }
}

impl<V: Artifact + Clone> ResultCache<V> {
    /// A purely in-memory cache.
    pub fn in_memory() -> Self {
        ResultCache {
            mem: Mutex::new(MemStore::default()),
            capacity: None,
            tier: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// An in-memory cache holding at most `capacity` entries; inserting
    /// beyond the cap evicts the *oldest* entry (first-in, first-out),
    /// so a long-lived service cannot grow memory without bound.
    /// `capacity` 0 caches nothing.
    pub fn bounded(capacity: usize) -> Self {
        ResultCache { capacity: Some(capacity), ..Self::in_memory() }
    }

    /// Attaches a shared artifact tier; builder style. The tier is
    /// consulted after memory and written through on every
    /// [`ResultCache::put`].
    #[must_use]
    pub fn with_tier(mut self, tier: Arc<dyn ArtifactTier>) -> Self {
        self.tier = Some(tier);
        self
    }

    /// The cache key of `point` within `namespace` (see [`cache_key`]).
    pub fn key(namespace: &str, point: &ParamPoint) -> u64 {
        cache_key(namespace, point)
    }

    /// Looks up a point; counts a hit or a miss.
    pub fn get(&self, namespace: &str, point: &ParamPoint) -> Option<V> {
        let key = Self::key(namespace, point);
        if let Some(v) = self.mem.lock().expect("cache lock").map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(v.clone());
        }
        if let Some(v) = self.load_tier(key) {
            self.insert(key, v.clone());
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(v);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Stores a computed result for a point.
    pub fn put(&self, namespace: &str, point: &ParamPoint, value: &V) {
        let key = Self::key(namespace, point);
        self.insert(key, value.clone());
        if let Some(tier) = &self.tier {
            tier.store(key, namespace, &point.canonical(), &value.to_json());
        }
    }

    /// Admits a value under a raw cache key, bypassing the key
    /// derivation. This is the catch-up path: a rejoining replica that
    /// enumerates warm keys from a shared tier manifest knows only the
    /// keys, not the points that produced them, and must still be able
    /// to pre-warm its memory before taking traffic. No tier
    /// write-through happens — the artifact already lives there.
    pub fn admit(&self, key: u64, value: V) {
        self.insert(key, value);
    }

    /// Looks up a raw cache key in memory only and counts a hit when it
    /// is resident. Absence counts nothing and never reaches the tier:
    /// the caller falls back to [`ResultCache::get`] (or a batch run
    /// over it), which counts that lookup's own outcome.
    pub fn get_resident(&self, key: u64) -> Option<V> {
        let value = self.peek(key)?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(value)
    }

    /// Looks up a raw cache key in memory only (no tier, no
    /// hit/miss accounting) — used by tests and catch-up verification.
    pub fn peek(&self, key: u64) -> Option<V> {
        self.mem.lock().expect("cache lock").map.get(&key).cloned()
    }

    /// Inserts into the in-memory store, evicting the oldest entry when
    /// a capacity is set and would be exceeded.
    fn insert(&self, key: u64, value: V) {
        let mut mem = self.mem.lock().expect("cache lock");
        if self.capacity == Some(0) {
            return;
        }
        let fresh = mem.map.insert(key, value).is_none();
        if let Some(cap) = self.capacity {
            if fresh {
                mem.order.push_back(key);
            }
            while mem.map.len() > cap {
                let Some(oldest) = mem.order.pop_front() else { break };
                mem.map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }

    /// Entries evicted by the capacity bound since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Entries currently held in memory.
    pub fn len(&self) -> usize {
        self.mem.lock().expect("cache lock").map.len()
    }

    /// True when no entry is held in memory.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn load_tier(&self, key: u64) -> Option<V> {
        V::from_json(&self.tier.as_ref()?.load(key)?)
    }
}

/// Which role a caller was given when it joined an in-flight entry.
#[derive(Debug, PartialEq, Eq)]
pub enum Flight {
    /// No computation was in flight for the key: the caller owns it and
    /// must eventually call [`Inflight::complete`] for the key — on
    /// success, failure, *and* panic paths — or attached waiters hang.
    Leader,
    /// A computation was already in flight: the caller's waiter was
    /// attached and will be handed back to the leader at `complete`.
    Attached,
}

/// In-flight entry state for single-flight collapse: at most one
/// computation per cache key runs at a time, and every concurrent caller
/// with the same key parks a waiter on the entry instead of recomputing.
///
/// The table stores only the waiters, never the result — publishing is
/// the caller's job (it already holds the reply channels). Because
/// [`Inflight::complete`] *removes* the entry unconditionally, there is
/// no poisoned state: if a leader's computation panics, its (caught)
/// unwind path still completes the key, the waiters are handed back for
/// an error reply, and the next request for the key becomes a fresh
/// leader.
#[derive(Debug, Default)]
pub struct Inflight<W> {
    entries: Mutex<HashMap<u64, Vec<W>>>,
}

impl<W> Inflight<W> {
    /// An empty in-flight table.
    pub fn new() -> Self {
        Inflight { entries: Mutex::new(HashMap::new()) }
    }

    /// Joins the in-flight entry for `key`. Returns [`Flight::Leader`]
    /// when no computation is in flight (the entry is created and
    /// `waiter` is dropped — the leader answers itself), otherwise
    /// attaches `waiter` to the existing entry and returns
    /// [`Flight::Attached`].
    pub fn join(&self, key: u64, waiter: W) -> Flight {
        let mut entries = self.entries.lock().expect("inflight lock");
        match entries.get_mut(&key) {
            Some(waiters) => {
                waiters.push(waiter);
                Flight::Attached
            }
            None => {
                entries.insert(key, Vec::new());
                Flight::Leader
            }
        }
    }

    /// Removes the entry for `key` and returns every waiter attached
    /// since the leader joined. Idempotent: a second call (or a call for
    /// a key that never had a leader) returns an empty vec.
    pub fn complete(&self, key: u64) -> Vec<W> {
        self.entries.lock().expect("inflight lock").remove(&key).unwrap_or_default()
    }

    /// Keys currently in flight (leaders that have not completed).
    pub fn len(&self) -> usize {
        self.entries.lock().expect("inflight lock").len()
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Atomically replaces `path` with `bytes`: write to a unique temp file
/// in the same directory, then `rename` over the target. A concurrent
/// reader sees either the old complete artifact or the new one — never
/// a torn half-write — and racing writers of the same content-addressed
/// key both leave a complete file behind (last rename wins).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let parent = path.parent().unwrap_or_else(|| Path::new("."));
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("artifact");
    let tmp = parent.join(format!(
        ".{name}.tmp.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    std::fs::write(&tmp, bytes)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_reference_vectors() {
        // Canonical FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171F73967E8);
    }

    #[test]
    fn free_cache_key_matches_the_cache_own_key() {
        let p = ParamPoint::new().with("scale", 1.0).with("trials", 200u64);
        assert_eq!(cache_key("ns", &p), ResultCache::<f64>::key("ns", &p));
        // Namespace and point both contribute.
        assert_ne!(cache_key("ns", &p), cache_key("other", &p));
        assert_ne!(
            cache_key("ns", &p),
            cache_key("ns", &ParamPoint::new().with("scale", 2.0).with("trials", 200u64)),
        );
    }

    #[test]
    fn memory_cache_hits_on_second_lookup() {
        let cache: ResultCache<f64> = ResultCache::in_memory();
        let p = ParamPoint::new().with("d", 6.0);
        assert_eq!(cache.get("sweep", &p), None);
        cache.put("sweep", &p, &15.0e-3);
        assert_eq!(cache.get("sweep", &p), Some(15.0e-3));
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn namespaces_and_points_are_isolated() {
        let cache: ResultCache<f64> = ResultCache::in_memory();
        let p = ParamPoint::new().with("d", 6.0);
        cache.put("a", &p, &1.0);
        assert_eq!(cache.get("b", &p), None);
        assert_eq!(cache.get("a", &ParamPoint::new().with("d", 7.0)), None);
        assert_eq!(cache.get("a", &p), Some(1.0));
    }

    #[test]
    fn bounded_cache_evicts_oldest_first() {
        let cache: ResultCache<f64> = ResultCache::bounded(2);
        let p = |d: f64| ParamPoint::new().with("d", d);
        cache.put("ns", &p(1.0), &1.0);
        cache.put("ns", &p(2.0), &2.0);
        cache.put("ns", &p(3.0), &3.0); // evicts d=1.0
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.get("ns", &p(1.0)), None, "oldest entry must be gone");
        assert_eq!(cache.get("ns", &p(2.0)), Some(2.0));
        assert_eq!(cache.get("ns", &p(3.0)), Some(3.0));
        cache.put("ns", &p(4.0), &4.0); // now evicts d=2.0 (insertion order, not access order)
        assert_eq!(cache.get("ns", &p(2.0)), None);
        assert_eq!(cache.get("ns", &p(3.0)), Some(3.0));
        assert_eq!(cache.get("ns", &p(4.0)), Some(4.0));
        assert_eq!(cache.evictions(), 2);
    }

    #[test]
    fn bounded_cache_reinsert_does_not_grow() {
        let cache: ResultCache<f64> = ResultCache::bounded(2);
        let p = |d: f64| ParamPoint::new().with("d", d);
        for _ in 0..5 {
            cache.put("ns", &p(1.0), &1.0);
            cache.put("ns", &p(2.0), &2.0);
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 0, "re-inserting the same keys must not evict");
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let cache: ResultCache<f64> = ResultCache::bounded(0);
        let p = ParamPoint::new().with("d", 1.0);
        cache.put("ns", &p, &1.0);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.get("ns", &p), None);
    }

    #[test]
    fn vec_and_tuple_artifacts_round_trip() {
        let v: Vec<(f64, u64)> = vec![(1.5, 2), (f64::INFINITY, 0)];
        let back = Vec::<(f64, u64)>::from_json(&v.to_json()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn atomic_write_replaces_whole_files() {
        let dir = std::env::temp_dir().join(format!("runtime-atomic-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.json");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first");
        atomic_write(&path, b"second, longer than first").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second, longer than first");
        // No temp files may linger after a successful replace.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files must not linger: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A tier backed by a plain mutexed map, for wiring tests.
    #[derive(Default)]
    struct MapTier {
        entries: Mutex<HashMap<u64, Json>>,
        loads: AtomicU64,
        stores: AtomicU64,
    }

    impl ArtifactTier for MapTier {
        fn load(&self, key: u64) -> Option<Json> {
            self.loads.fetch_add(1, Ordering::Relaxed);
            self.entries.lock().unwrap().get(&key).cloned()
        }
        fn store(&self, key: u64, _namespace: &str, _params: &str, value: &Json) {
            self.stores.fetch_add(1, Ordering::Relaxed);
            self.entries.lock().unwrap().insert(key, value.clone());
        }
    }

    #[test]
    fn puts_write_through_to_the_tier_and_misses_fall_back_to_it() {
        let tier = Arc::new(MapTier::default());
        let p = ParamPoint::new().with("d", 5.0);
        {
            let cache: ResultCache<f64> = ResultCache::in_memory().with_tier(tier.clone());
            cache.put("ns", &p, &42.0);
        }
        assert_eq!(tier.stores.load(Ordering::Relaxed), 1);
        // A fresh cache (cold memory) finds the value in the tier.
        let fresh: ResultCache<f64> = ResultCache::in_memory().with_tier(tier.clone());
        assert_eq!(fresh.get("ns", &p), Some(42.0));
        assert_eq!(fresh.stats(), (1, 0), "tier hits count as cache hits");
        // The hit was admitted to memory: a second get must not touch
        // the tier again.
        let loads = tier.loads.load(Ordering::Relaxed);
        assert_eq!(fresh.get("ns", &p), Some(42.0));
        assert_eq!(tier.loads.load(Ordering::Relaxed), loads);
    }

    #[test]
    fn resident_lookup_counts_hits_only_and_never_reads_the_tier() {
        let tier = Arc::new(MapTier::default());
        let p = ParamPoint::new().with("d", 8.0);
        let key = cache_key("ns", &p);
        ResultCache::<f64>::in_memory().with_tier(tier.clone()).put("ns", &p, &3.5);
        // Cold memory: the value lives only in the tier.
        let cache: ResultCache<f64> = ResultCache::in_memory().with_tier(tier.clone());
        assert_eq!(cache.get_resident(key), None);
        assert_eq!(tier.loads.load(Ordering::Relaxed), 0, "memory only");
        assert_eq!(cache.stats(), (0, 0), "absence counts nothing");
        assert_eq!(cache.get("ns", &p), Some(3.5));
        assert_eq!(cache.get_resident(key), Some(3.5));
        assert_eq!(cache.stats(), (2, 0));
    }

    #[test]
    fn admit_seeds_memory_without_touching_the_tier() {
        let tier = Arc::new(MapTier::default());
        let cache: ResultCache<f64> = ResultCache::in_memory().with_tier(tier.clone());
        let p = ParamPoint::new().with("d", 6.5);
        let key = cache_key("ns", &p);
        cache.admit(key, 7.25);
        assert_eq!(cache.peek(key), Some(7.25));
        assert_eq!(cache.get("ns", &p), Some(7.25));
        assert_eq!(tier.stores.load(Ordering::Relaxed), 0, "admit must not write through");
    }

    #[test]
    fn admit_respects_the_capacity_bound() {
        let cache: ResultCache<f64> = ResultCache::bounded(1);
        cache.admit(1, 1.0);
        cache.admit(2, 2.0);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.peek(1), None);
        assert_eq!(cache.peek(2), Some(2.0));
    }

    #[test]
    fn inflight_first_joiner_leads_and_later_joiners_attach() {
        let flight: Inflight<&'static str> = Inflight::new();
        assert_eq!(flight.join(7, "a"), Flight::Leader);
        assert_eq!(flight.join(7, "b"), Flight::Attached);
        assert_eq!(flight.join(7, "c"), Flight::Attached);
        // A different key gets its own leader.
        assert_eq!(flight.join(8, "x"), Flight::Leader);
        assert_eq!(flight.len(), 2);
        assert_eq!(flight.complete(7), vec!["b", "c"]);
        assert_eq!(flight.len(), 1);
        // After completion the key is fresh again.
        assert_eq!(flight.join(7, "d"), Flight::Leader);
    }

    #[test]
    fn inflight_complete_is_idempotent_and_never_poisons() {
        let flight: Inflight<u32> = Inflight::new();
        assert_eq!(flight.join(1, 0), Flight::Leader);
        assert_eq!(flight.complete(1), Vec::<u32>::new());
        // Double-complete and completing an unknown key are both no-ops.
        assert_eq!(flight.complete(1), Vec::<u32>::new());
        assert_eq!(flight.complete(99), Vec::<u32>::new());
        assert!(flight.is_empty());
    }

    #[test]
    fn inflight_join_race_yields_exactly_one_leader() {
        use std::sync::Barrier;
        let flight = Arc::new(Inflight::<usize>::new());
        let n = 8;
        let barrier = Arc::new(Barrier::new(n));
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let flight = flight.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    flight.join(42, i) == Flight::Leader
                })
            })
            .collect();
        let leaders =
            handles.into_iter().map(|h| h.join().unwrap()).filter(|&led| led).count();
        assert_eq!(leaders, 1, "exactly one thread may lead per key");
        assert_eq!(flight.complete(42).len(), n - 1, "everyone else attached");
    }
}
