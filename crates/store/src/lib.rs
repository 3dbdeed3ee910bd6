//! `implant-store`: the shared, content-addressed artifact tier.
//!
//! Every replica's [`runtime::ResultCache`] is private; this crate is
//! the tier underneath that they all share, and the repository's only
//! on-disk result format. Keys are the existing FNV cache identities
//! (byte-identical to the server's `route_point()` keys, so a routing
//! layer can address artifacts without holding a cache), values are
//! written **atomically** (unique temp file + rename) by the owning
//! replica, and each replica maintains a manifest so any member can
//! enumerate another's warm keys without scanning the object directory.
//!
//! Disk layout under the store root:
//!
//! ```text
//! objects/<key:016x>.json      {"namespace": .., "params": .., "value": ..}
//! manifests/<replica>.json     {"replica": .., "entries": [{key, namespace, bytes}, ..]}
//! ```
//!
//! The store is a drop-in second tier: the cache's `ArtifactTier` hook
//! points here, reads that fail to parse count `store.corrupt` and fall
//! back to recompute, and the two cluster protocols built on top —
//! catch-up ([`catchup`]) and hedged reads (`cluster::ClusterClient`) —
//! only ever see complete artifacts because of the rename barrier.

use runtime::{atomic_write, ArtifactTier, Json};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

pub mod catchup;
pub mod manifest;

pub use catchup::{plan, CatchupBudget, CatchupPlan, PlannedKey};
pub use manifest::{Manifest, ManifestEntry};

/// Outcome of one [`Store::gc`] sweep.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Object files examined.
    pub scanned: u64,
    /// Keys whose objects were pruned, oldest write first.
    pub expired: Vec<u64>,
    /// Total bytes of pruned objects.
    pub bytes_reclaimed: u64,
    /// Manifest files rewritten to drop pruned keys.
    pub manifests_rewritten: u64,
}

/// Counter snapshot for one store handle (per-process, not persisted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Objects written through this handle.
    pub writes: u64,
    /// Reads that found a complete object.
    pub reads: u64,
    /// Reads that found nothing.
    pub misses: u64,
    /// Reads that found a torn or unparseable object (treated as a
    /// miss; also counted into the `store.corrupt` obs counter).
    pub corrupt: u64,
}

/// One replica's handle onto the shared artifact directory.
///
/// Many handles — across threads and across processes — may point at
/// the same root. Writers only ever rename complete temp files into
/// place, so readers never observe a torn object; the manifest of
/// *this* replica is guarded by an in-process mutex and rewritten
/// atomically on every update.
pub struct Store {
    root: PathBuf,
    replica: String,
    manifest: Mutex<Manifest>,
    writes: AtomicU64,
    reads: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("root", &self.root)
            .field("replica", &self.replica)
            .finish()
    }
}

impl Store {
    /// Opens (creating if needed) the store at `root` as `replica`.
    ///
    /// A replica that restarts with the same name resumes its previous
    /// manifest — its keys are still on disk, and catch-up planning
    /// relies on the manifest surviving the process.
    pub fn open(root: impl Into<PathBuf>, replica: &str) -> io::Result<Store> {
        let root = root.into();
        std::fs::create_dir_all(root.join("objects"))?;
        std::fs::create_dir_all(root.join("manifests"))?;
        let manifest_path = root.join("manifests").join(format!("{replica}.json"));
        let manifest = Manifest::load(&manifest_path)
            .unwrap_or_else(|| Manifest::new(replica));
        Ok(Store {
            root,
            replica: replica.to_string(),
            manifest: Mutex::new(manifest),
            writes: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
        })
    }

    /// The store root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The replica name this handle writes its manifest as.
    pub fn replica(&self) -> &str {
        &self.replica
    }

    fn object_path(&self, key: u64) -> PathBuf {
        self.root.join("objects").join(format!("{key:016x}.json"))
    }

    fn manifest_path(&self) -> PathBuf {
        self.root.join("manifests").join(format!("{}.json", self.replica))
    }

    /// Writes the object for `key` atomically and records it in this
    /// replica's manifest. Best-effort: an I/O failure leaves the
    /// previous object (if any) intact and is not surfaced to the
    /// compute path — the in-memory cache above still holds the value.
    pub fn put(&self, key: u64, namespace: &str, params: &str, value: &Json) {
        let _span = obs::span!("store.write");
        let doc = Json::obj(vec![
            ("namespace", Json::Str(namespace.to_string())),
            ("params", Json::Str(params.to_string())),
            ("value", value.clone()),
        ]);
        let bytes = doc.to_string().into_bytes();
        let len = bytes.len() as u64;
        if atomic_write(&self.object_path(key), &bytes).is_err() {
            return;
        }
        self.writes.fetch_add(1, Ordering::Relaxed);
        let mut manifest = self.manifest.lock().expect("manifest lock");
        manifest.record(key, namespace, len);
        let _ = atomic_write(&self.manifest_path(), manifest.to_json().to_string().as_bytes());
    }

    /// Reads the *value* of the object for `key`; `None` on a missing
    /// object or on one that fails to parse (counted as corrupt).
    pub fn get(&self, key: u64) -> Option<Json> {
        self.get_object(key).map(|(_, _, value)| value)
    }

    /// Reads the full object for `key`: `(namespace, params, value)`.
    pub fn get_object(&self, key: u64) -> Option<(String, String, Json)> {
        let _span = obs::span!("store.read");
        let path = self.object_path(key);
        if !path.exists() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let parsed = std::fs::read_to_string(&path).ok().and_then(|text| {
            let doc = Json::parse(&text)?;
            Some((
                doc.get("namespace")?.as_str()?.to_string(),
                doc.get("params")?.as_str()?.to_string(),
                doc.get("value")?.clone(),
            ))
        });
        match parsed {
            Some(object) => {
                self.reads.fetch_add(1, Ordering::Relaxed);
                Some(object)
            }
            None => {
                // The file exists but does not hold a complete object:
                // with atomic writers this means external corruption,
                // not a half-finished put. Read it as a miss.
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                obs::count!("store.corrupt");
                None
            }
        }
    }

    /// True when a complete-looking object file exists for `key`
    /// (without reading it).
    pub fn contains(&self, key: u64) -> bool {
        self.object_path(key).exists()
    }

    /// Every manifest in the store, sorted by replica name — the view
    /// a rejoining member uses to enumerate the cluster's warm keys.
    pub fn manifests(&self) -> Vec<Manifest> {
        let Ok(entries) = std::fs::read_dir(self.root.join("manifests")) else {
            return Vec::new();
        };
        let mut manifests: Vec<Manifest> = entries
            .filter_map(|e| Manifest::load(&e.ok()?.path()))
            .collect();
        manifests.sort_by(|a, b| a.replica.cmp(&b.replica));
        manifests
    }

    /// The union of all manifest entries, keyed by artifact key. When
    /// two replicas recorded the same key (both computed it before the
    /// write-through raced), the entry from the first replica in name
    /// order wins — the objects are content-addressed, so the entries
    /// only differ in attribution.
    pub fn merged_entries(&self) -> BTreeMap<u64, (String, ManifestEntry)> {
        let mut merged: BTreeMap<u64, (String, ManifestEntry)> = BTreeMap::new();
        for manifest in self.manifests() {
            for entry in manifest.entries() {
                merged
                    .entry(entry.key)
                    .or_insert_with(|| (manifest.replica.clone(), entry.clone()));
            }
        }
        merged
    }

    /// Keys present in the object directory itself (sorted) — the
    /// ground truth the manifests index.
    pub fn object_keys(&self) -> Vec<u64> {
        let Ok(entries) = std::fs::read_dir(self.root.join("objects")) else {
            return Vec::new();
        };
        let mut keys: Vec<u64> = entries
            .filter_map(|e| {
                let name = e.ok()?.file_name();
                let name = name.to_str()?;
                u64::from_str_radix(name.strip_suffix(".json")?, 16).ok()
            })
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Prunes every object older than `ttl` (by file modification
    /// time — a re-`put` of a key refreshes its clock) and rewrites
    /// every manifest that indexed a pruned key, atomically, so no
    /// manifest ever points at an object the sweep removed.
    ///
    /// Safe to run from any handle: object removal is idempotent and
    /// manifest rewrites go through the same temp-file + rename
    /// barrier as ordinary updates. In a live cluster each replica
    /// sweeps with the same TTL, so concurrently refreshed keys are
    /// simply re-recorded by their owner's next write.
    ///
    /// # Errors
    ///
    /// Only on an unreadable object directory; per-file races (an
    /// object pruned or refreshed by a peer mid-scan) are skipped.
    pub fn gc(&self, ttl: std::time::Duration) -> io::Result<GcReport> {
        let _span = obs::span!("store.gc");
        let now = std::time::SystemTime::now();
        let mut report = GcReport::default();
        // (mtime, key, bytes) of every pruned object, for age ordering.
        let mut pruned: Vec<(std::time::SystemTime, u64, u64)> = Vec::new();
        for entry in std::fs::read_dir(self.root.join("objects"))? {
            let Ok(entry) = entry else { continue };
            let name = entry.file_name();
            let Some(key) = name
                .to_str()
                .and_then(|n| n.strip_suffix(".json"))
                .and_then(|n| u64::from_str_radix(n, 16).ok())
            else {
                continue; // stray files and in-flight temp files
            };
            let Ok(meta) = entry.metadata() else { continue };
            let Ok(modified) = meta.modified() else { continue };
            report.scanned += 1;
            let age = now.duration_since(modified).unwrap_or_default();
            if age > ttl && std::fs::remove_file(entry.path()).is_ok() {
                pruned.push((modified, key, meta.len()));
            }
        }
        if pruned.is_empty() {
            return Ok(report);
        }
        pruned.sort();
        report.bytes_reclaimed = pruned.iter().map(|&(_, _, bytes)| bytes).sum();
        report.expired = pruned.into_iter().map(|(_, key, _)| key).collect();

        // This handle's manifest first, under the write lock, so a
        // concurrent `put` cannot resurrect a pruned entry in memory.
        {
            let mut manifest = self.manifest.lock().expect("manifest lock");
            let mut changed = false;
            for key in &report.expired {
                changed |= manifest.remove(*key);
            }
            if changed
                && atomic_write(&self.manifest_path(), manifest.to_json().to_string().as_bytes())
                    .is_ok()
            {
                report.manifests_rewritten += 1;
            }
        }
        // Then every peer manifest that still indexes a pruned key.
        if let Ok(entries) = std::fs::read_dir(self.root.join("manifests")) {
            for entry in entries.filter_map(|e| e.ok()) {
                let path = entry.path();
                if path == self.manifest_path() {
                    continue;
                }
                let Some(mut manifest) = Manifest::load(&path) else { continue };
                let mut changed = false;
                for key in &report.expired {
                    changed |= manifest.remove(*key);
                }
                if changed
                    && atomic_write(&path, manifest.to_json().to_string().as_bytes()).is_ok()
                {
                    report.manifests_rewritten += 1;
                }
            }
        }
        Ok(report)
    }

    /// Counters accumulated by this handle.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            writes: self.writes.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
        }
    }
}

impl ArtifactTier for Store {
    fn load(&self, key: u64) -> Option<Json> {
        self.get(key)
    }
    fn store(&self, key: u64, namespace: &str, params: &str, value: &Json) {
        self.put(key, namespace, params, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("implant-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn open_creates_the_layout() {
        let root = scratch("layout");
        let store = Store::open(&root, "r0").unwrap();
        assert!(root.join("objects").is_dir());
        assert!(root.join("manifests").is_dir());
        assert_eq!(store.replica(), "r0");
        assert_eq!(store.root(), root.as_path());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn put_then_get_round_trips_the_object() {
        let root = scratch("roundtrip");
        let store = Store::open(&root, "r0").unwrap();
        let value = Json::obj(vec![("yield", Json::Num(0.25)), ("trials", Json::Num(40.0))]);
        store.put(17, "server-montecarlo", "seed=9\u{1f}trials=40", &value);
        assert_eq!(store.get(17), Some(value.clone()));
        let (ns, params, v) = store.get_object(17).unwrap();
        assert_eq!(ns, "server-montecarlo");
        assert_eq!(params, "seed=9\u{1f}trials=40");
        assert_eq!(v, value);
        assert!(store.contains(17));
        assert!(!store.contains(18));
        assert_eq!(store.stats().writes, 1);
        assert_eq!(store.stats().reads, 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_and_corrupt_objects_read_as_misses() {
        let root = scratch("corrupt");
        let store = Store::open(&root, "r0").unwrap();
        assert_eq!(store.get(5), None);
        assert_eq!(store.stats().misses, 1);
        assert_eq!(store.stats().corrupt, 0, "absent object is a plain miss");
        std::fs::write(root.join("objects").join(format!("{:016x}.json", 5u64)), "{\"trunc")
            .unwrap();
        assert_eq!(store.get(5), None);
        assert_eq!(store.stats().corrupt, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn manifest_survives_a_reopen_with_the_same_name() {
        let root = scratch("reopen");
        {
            let store = Store::open(&root, "r1").unwrap();
            store.put(1, "ns", "a=1", &Json::Num(1.0));
            store.put(2, "ns", "a=2", &Json::Num(2.0));
        }
        let store = Store::open(&root, "r1").unwrap();
        store.put(3, "ns", "a=3", &Json::Num(3.0));
        let manifests = store.manifests();
        assert_eq!(manifests.len(), 1);
        assert_eq!(manifests[0].replica, "r1");
        let keys: Vec<u64> = manifests[0].entries().map(|e| e.key).collect();
        assert_eq!(keys, vec![1, 2, 3]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn replicas_see_each_others_manifests() {
        let root = scratch("peers");
        let a = Store::open(&root, "r0").unwrap();
        let b = Store::open(&root, "r1").unwrap();
        a.put(10, "ns", "a", &Json::Num(1.0));
        b.put(20, "ns", "b", &Json::Num(2.0));
        // Either handle enumerates both replicas' warm keys…
        let replicas: Vec<String> = a.manifests().into_iter().map(|m| m.replica).collect();
        assert_eq!(replicas, vec!["r0".to_string(), "r1".to_string()]);
        // …and can read the other's objects directly.
        assert_eq!(a.get(20), Some(Json::Num(2.0)));
        assert_eq!(b.get(10), Some(Json::Num(1.0)));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn merged_entries_dedup_by_first_replica_in_name_order() {
        let root = scratch("merged");
        let a = Store::open(&root, "r0").unwrap();
        let b = Store::open(&root, "r1").unwrap();
        b.put(7, "ns", "x", &Json::Num(7.0));
        a.put(7, "ns", "x", &Json::Num(7.0));
        a.put(8, "ns", "y", &Json::Num(8.0));
        let merged = a.merged_entries();
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[&7].0, "r0", "dup key attributes to the first replica in name order");
        assert_eq!(merged[&8].0, "r0");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn object_keys_lists_the_ground_truth() {
        let root = scratch("objkeys");
        let store = Store::open(&root, "r0").unwrap();
        store.put(0xFF, "ns", "p", &Json::Num(1.0));
        store.put(0x01, "ns", "q", &Json::Num(2.0));
        // A stray non-object file must not confuse the scan.
        std::fs::write(root.join("objects").join("README"), "not an object").unwrap();
        assert_eq!(store.object_keys(), vec![0x01, 0xFF]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn store_serves_as_a_result_cache_tier() {
        use runtime::{ParamPoint, ResultCache};
        use std::sync::Arc;
        let root = scratch("tier");
        let shared = Arc::new(Store::open(&root, "r0").unwrap());
        let point = ParamPoint::new().with("d", 11.0);
        {
            let warm: ResultCache<f64> = ResultCache::in_memory().with_tier(shared.clone());
            warm.put("sweep", &point, &0.5);
        }
        // A different cache instance (another replica) hits via the tier.
        let cold: ResultCache<f64> = ResultCache::in_memory().with_tier(shared.clone());
        assert_eq!(cold.get("sweep", &point), Some(0.5));
        assert_eq!(cold.stats(), (1, 0));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Backdates `key`'s object by `secs` seconds.
    fn backdate(store: &Store, key: u64, secs: u64) {
        let path = store.object_path(key);
        let file = std::fs::File::options().append(true).open(&path).unwrap();
        let then = std::time::SystemTime::now() - std::time::Duration::from_secs(secs);
        file.set_modified(then).unwrap();
    }

    #[test]
    fn gc_prunes_expired_objects_oldest_first_and_keeps_manifests_consistent() {
        use std::time::Duration;
        let root = scratch("gc");
        let a = Store::open(&root, "r0").unwrap();
        let b = Store::open(&root, "r1").unwrap();
        a.put(1, "ns", "p1", &Json::Num(1.0));
        a.put(2, "ns", "p2", &Json::Num(2.0));
        b.put(3, "ns", "p3", &Json::Num(3.0));
        // Key 2 is the oldest, key 1 younger but still expired, key 3
        // fresh.
        backdate(&a, 2, 300);
        backdate(&a, 1, 120);

        let report = a.gc(Duration::from_secs(60)).unwrap();
        assert_eq!(report.scanned, 3);
        assert_eq!(report.expired, vec![2, 1], "pruned keys must come oldest first");
        assert!(report.bytes_reclaimed > 0);
        // Both manifests referenced pruned keys → both rewritten.
        assert_eq!(report.manifests_rewritten, 1, "only r0's manifest held pruned keys");

        // Ground truth: expired objects gone, the fresh one intact.
        assert_eq!(a.object_keys(), vec![3]);
        assert_eq!(a.get(3), Some(Json::Num(3.0)));
        // No manifest anywhere still indexes a pruned key.
        for manifest in a.manifests() {
            for entry in manifest.entries() {
                assert!(
                    a.contains(entry.key),
                    "manifest {:?} indexes pruned key {}",
                    manifest.replica,
                    entry.key
                );
            }
        }
        // The surviving key is still attributed to its writer.
        assert_eq!(a.merged_entries()[&3].0, "r1");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn gc_rewrites_peer_manifests_that_index_pruned_keys() {
        use std::time::Duration;
        let root = scratch("gc-peer");
        let a = Store::open(&root, "r0").unwrap();
        let b = Store::open(&root, "r1").unwrap();
        a.put(10, "ns", "x", &Json::Num(1.0));
        b.put(20, "ns", "y", &Json::Num(2.0));
        backdate(&a, 10, 100);
        backdate(&b, 20, 100);
        // One handle sweeps for the whole store: its own manifest and
        // the peer's are both rewritten.
        let report = a.gc(Duration::from_secs(10)).unwrap();
        assert_eq!(report.expired, vec![10, 20]);
        assert_eq!(report.manifests_rewritten, 2);
        assert!(a.manifests().iter().all(Manifest::is_empty));
        assert_eq!(a.object_keys(), Vec::<u64>::new());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn gc_spares_refreshed_objects_and_in_flight_strays() {
        use std::time::Duration;
        let root = scratch("gc-refresh");
        let store = Store::open(&root, "r0").unwrap();
        store.put(5, "ns", "p", &Json::Num(1.0));
        backdate(&store, 5, 500);
        // A re-put refreshes the object's clock: not expired.
        store.put(5, "ns", "p", &Json::Num(2.0));
        // Stray non-object files are never touched.
        std::fs::write(root.join("objects").join("README"), "keep me").unwrap();
        let report = store.gc(Duration::from_secs(60)).unwrap();
        assert_eq!(report.scanned, 1);
        assert_eq!(report.expired, Vec::<u64>::new());
        assert_eq!(report.manifests_rewritten, 0);
        assert_eq!(store.get(5), Some(Json::Num(2.0)));
        assert!(root.join("objects").join("README").exists());
        // An idempotent second sweep is a no-op too.
        assert_eq!(store.gc(Duration::from_secs(60)).unwrap().expired, Vec::<u64>::new());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn puts_of_the_same_key_replace_atomically() {
        let root = scratch("replace");
        let store = Store::open(&root, "r0").unwrap();
        for i in 0..20u64 {
            store.put(42, "ns", "p", &Json::Num(i as f64));
            assert_eq!(store.get(42), Some(Json::Num(i as f64)));
        }
        // Temp files must not accumulate next to the objects.
        let strays = std::fs::read_dir(root.join("objects"))
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .count();
        assert_eq!(strays, 0);
        let _ = std::fs::remove_dir_all(&root);
    }
}
