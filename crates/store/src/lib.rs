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
//! manifests/<replica>.json     snapshot: {"replica": .., "entries": [{key, namespace, bytes}, ..]}
//! manifests/<replica>.log      journal: one {key, namespace, bytes} line per put since the snapshot
//! ```
//!
//! A write costs the object file plus one appended journal line, so it
//! does not grow with the store. The owner folds its journal into a new
//! snapshot (temp file + rename, then the journal is removed) when it
//! opens the store and when it runs [`Store::gc`]; readers replay the
//! journal over the snapshot and skip a torn line (see [`manifest`]).
//! `gc` marks pruned keys in *peer* manifests with tombstone lines
//! appended to their journals, since a live peer may be appending too.
//!
//! The store is a drop-in second tier: the cache's `ArtifactTier` hook
//! points here, reads that fail to parse count `store.corrupt` and fall
//! back to recompute, and the two cluster protocols built on top —
//! catch-up ([`catchup`]) and hedged reads (`cluster::ClusterClient`) —
//! only ever see complete artifacts because of the rename barrier.

use manifest::{journal_path, replica_names, snapshot_path};
use runtime::{atomic_write, ArtifactTier, Json};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, Write};
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
    /// Manifests updated to drop pruned keys: this replica's compacted
    /// snapshot, and each peer journal that got tombstones.
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
/// *this* replica lives on disk only, gains one journal line per update,
/// and its journal handle is guarded by an in-process mutex.
pub struct Store {
    root: PathBuf,
    replica: String,
    /// Append handle on this replica's journal, opened by the first
    /// `put` after a compaction; the lock also orders compactions.
    journal: Mutex<Option<File>>,
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
    /// relies on the manifest surviving the process. A journal left by
    /// the previous process is folded into a fresh snapshot here.
    ///
    /// # Errors
    ///
    /// When the store directories cannot be created, or a left-over
    /// journal cannot be compacted.
    pub fn open(root: impl Into<PathBuf>, replica: &str) -> io::Result<Store> {
        let root = root.into();
        std::fs::create_dir_all(root.join("objects"))?;
        std::fs::create_dir_all(root.join("manifests"))?;
        let store = Store {
            root,
            replica: replica.to_string(),
            journal: Mutex::new(None),
            writes: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
        };
        if store.journal_path().exists() {
            let manifest = store.load_own().unwrap_or_else(|| Manifest::new(replica));
            store.compact(&mut store.journal.lock().expect("journal lock"), &manifest)?;
        }
        Ok(store)
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

    fn manifest_dir(&self) -> PathBuf {
        self.root.join("manifests")
    }

    fn journal_path(&self) -> PathBuf {
        journal_path(&self.manifest_dir(), &self.replica)
    }

    /// This replica's manifest as it stands on disk: the snapshot with
    /// the journal replayed over it. `None` when neither file exists.
    fn load_own(&self) -> Option<Manifest> {
        Manifest::load_replica(&self.manifest_dir(), &self.replica)
    }

    /// Writes `manifest` as this replica's new snapshot, then removes the
    /// journal it supersedes; `journal` is the locked append handle. A
    /// crash in between leaves both, and the next replay of the journal
    /// over the snapshot changes nothing.
    fn compact(&self, journal: &mut Option<File>, manifest: &Manifest) -> io::Result<()> {
        let snapshot = snapshot_path(&self.manifest_dir(), &self.replica);
        atomic_write(&snapshot, manifest.to_json().to_string().as_bytes())?;
        *journal = None;
        match std::fs::remove_file(self.journal_path()) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
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
        let entry = ManifestEntry { key, namespace: namespace.to_string(), bytes: len };
        let line = entry.journal_line(false);
        let mut journal = self.journal.lock().expect("journal lock");
        if journal.is_none() {
            *journal = File::options().create(true).append(true).open(self.journal_path()).ok();
        }
        // One write of one whole line; on failure the handle is dropped
        // and the next put reopens it.
        if let Some(file) = journal.as_mut() {
            if file.write_all(line.as_bytes()).is_err() {
                *journal = None;
            }
        }
    }

    /// Reads the *value* of the object for `key`; `None` on a missing
    /// object or on one that fails to parse (counted as corrupt).
    pub fn get(&self, key: u64) -> Option<Json> {
        self.get_object(key).map(|(_, _, value)| value)
    }

    /// Reads the full object for `key`: `(namespace, params, value)`.
    pub fn get_object(&self, key: u64) -> Option<(String, String, Json)> {
        let _span = obs::span!("store.read");
        // One read, no `exists` probe first: an object that `gc` prunes
        // mid-read is a plain miss, not corruption.
        let parsed = match std::fs::read_to_string(self.object_path(key)) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Err(_) => None,
            Ok(text) => Json::parse(&text).and_then(|doc| {
                Some((
                    doc.get("namespace")?.as_str()?.to_string(),
                    doc.get("params")?.as_str()?.to_string(),
                    doc.get("value")?.clone(),
                ))
            }),
        };
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

    /// Every manifest in the store (snapshot plus journal), sorted by
    /// replica name — the view a rejoining member uses to enumerate the
    /// cluster's warm keys.
    pub fn manifests(&self) -> Vec<Manifest> {
        let dir = self.manifest_dir();
        let mut manifests: Vec<Manifest> = replica_names(&dir)
            .iter()
            .filter_map(|name| Manifest::load_replica(&dir, name))
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
    /// time — a re-`put` of a key refreshes its clock) and drops every
    /// pruned key from every manifest, so no manifest points at an
    /// object the sweep removed.
    ///
    /// This replica's manifest is compacted under its lock: the journal
    /// (with any tombstones peers appended to it) is replayed, pruned
    /// keys are dropped, and a new snapshot replaces snapshot and
    /// journal. A peer manifest may belong to a live process that is
    /// appending to it, so it is never rewritten; a tombstone line per
    /// pruned key it indexes is appended to its journal instead.
    ///
    /// Safe to run from any handle: object removal is idempotent and
    /// tombstones replay idempotently. A tombstone that lands while its
    /// peer is compacting can be lost; that manifest then still names
    /// the pruned key, which catch-up reads as a miss. In a live
    /// cluster each replica sweeps with the same TTL, so concurrently
    /// refreshed keys are simply re-recorded by their owner's next
    /// write.
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
        pruned.sort();
        report.bytes_reclaimed = pruned.iter().map(|&(_, _, bytes)| bytes).sum();
        report.expired = pruned.into_iter().map(|(_, key, _)| key).collect();

        // This handle's manifest first, under the journal lock, so a
        // concurrent `put` cannot append between the load and the
        // compaction and lose its line.
        {
            let mut journal = self.journal.lock().expect("journal lock");
            let had_journal = self.journal_path().exists();
            if let Some(mut manifest) = self.load_own() {
                let mut changed = false;
                for key in &report.expired {
                    changed |= manifest.remove(*key);
                }
                if changed || had_journal {
                    let compacted = self.compact(&mut journal, &manifest).is_ok();
                    report.manifests_rewritten += u64::from(compacted && changed);
                }
            }
        }
        if report.expired.is_empty() {
            return Ok(report);
        }
        // Then every peer manifest that still indexes a pruned key.
        let dir = self.manifest_dir();
        for name in replica_names(&dir) {
            if name == self.replica {
                continue;
            }
            let Some(manifest) = Manifest::load_replica(&dir, &name) else { continue };
            // The leading newline ends a torn line the peer may have
            // left, so the first tombstone parses; blank lines replay as
            // nothing.
            let mut tombstones = String::from("\n");
            for key in &report.expired {
                if let Some(entry) = manifest.get(*key) {
                    tombstones.push_str(&entry.journal_line(true));
                }
            }
            if tombstones.len() == 1 {
                continue;
            }
            let appended = File::options()
                .create(true)
                .append(true)
                .open(journal_path(&dir, &name))
                .and_then(|mut journal| journal.write_all(tombstones.as_bytes()));
            if appended.is_ok() {
                report.manifests_rewritten += 1;
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

    fn journal_of(root: &Path, replica: &str) -> PathBuf {
        journal_path(&root.join("manifests"), replica)
    }

    fn snapshot_of(root: &Path, replica: &str) -> PathBuf {
        snapshot_path(&root.join("manifests"), replica)
    }

    fn keys_of(manifest: &Manifest) -> Vec<u64> {
        manifest.entries().map(|e| e.key).collect()
    }

    /// Per-put cost is flat in the store's size: thousands of puts leave
    /// the snapshot byte-for-byte alone and each adds exactly one
    /// journal line of the same length, however many came before.
    #[test]
    fn a_put_appends_one_journal_line_and_never_touches_the_snapshot() {
        let root = scratch("flat");
        {
            let store = Store::open(&root, "r0").unwrap();
            for key in 0..50u64 {
                store.put(key, "ns", "p", &Json::Num(1.0));
            }
        }
        // The reopen folds those 50 into a snapshot.
        let store = Store::open(&root, "r0").unwrap();
        let snapshot = snapshot_of(&root, "r0");
        let journal = journal_of(&root, "r0");
        let before = std::fs::read(&snapshot).unwrap();
        let modified = std::fs::metadata(&snapshot).unwrap().modified().unwrap();
        assert!(!journal.exists(), "open compacts the journal away");

        const PUTS: u64 = 3_000;
        let mut line_len = None;
        let mut journal_len = 0;
        for i in 0..PUTS {
            // Full-range keys, so every hex key has all 16 digits.
            let key = (1 << 63) | i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 1;
            store.put(key, "ns", "p", &Json::Num(1.0));
            let len = std::fs::metadata(&journal).unwrap().len();
            let grew = len - journal_len;
            assert_eq!(*line_len.get_or_insert(grew), grew, "put {i} grew the journal by {grew}");
            journal_len = len;
        }
        assert_eq!(std::fs::read(&snapshot).unwrap(), before, "puts must not rewrite the snapshot");
        assert_eq!(std::fs::metadata(&snapshot).unwrap().modified().unwrap(), modified);
        let text = std::fs::read_to_string(&journal).unwrap();
        assert_eq!(text.lines().count() as u64, PUTS, "one journal line per put");
        assert_eq!(store.manifests()[0].len() as u64, 50 + PUTS);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_torn_journal_tail_is_ignored_by_readers_and_by_open() {
        use std::io::Write;
        let root = scratch("torn");
        {
            let store = Store::open(&root, "r0").unwrap();
            for key in [1u64, 2, 3] {
                store.put(key, "ns", "p", &Json::Num(key as f64));
            }
        }
        // The writer died mid-append: half a line, no newline.
        let mut journal =
            File::options().append(true).open(journal_of(&root, "r0")).unwrap();
        journal.write_all(b"{\"key\":\"00000000000000").unwrap();
        drop(journal);

        let observer = Store::open(&root, "observer").unwrap();
        let manifests = observer.manifests();
        assert_eq!(manifests.len(), 1);
        assert_eq!(keys_of(&manifests[0]), vec![1, 2, 3], "manifests() skips the torn line");

        let store = Store::open(&root, "r0").unwrap();
        assert_eq!(keys_of(&store.manifests()[0]), vec![1, 2, 3], "open skips the torn line");
        assert!(!journal_of(&root, "r0").exists(), "and compacts it away");
        let snapshot = Manifest::load(&snapshot_of(&root, "r0")).unwrap();
        assert_eq!(keys_of(&snapshot), vec![1, 2, 3]);
        store.put(4, "ns", "p", &Json::Num(4.0));
        assert_eq!(keys_of(&observer.manifests()[0]), vec![1, 2, 3, 4]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_store_in_the_snapshot_only_layout_opens_with_identical_entries() {
        let root = scratch("old-layout");
        std::fs::create_dir_all(root.join("manifests")).unwrap();
        // A manifest exactly as a store without a journal wrote it.
        let old = concat!(
            r#"{"replica":"r0","entries":["#,
            r#"{"key":"0000000000000007","namespace":"server-sweep","bytes":120},"#,
            r#"{"key":"fedcba9876543210","namespace":"server-montecarlo","bytes":4096}"#,
            r#"]}"#
        );
        std::fs::write(snapshot_of(&root, "r0"), old).unwrap();
        let expected = vec![
            ManifestEntry { key: 7, namespace: "server-sweep".into(), bytes: 120 },
            ManifestEntry {
                key: 0xFEDC_BA98_7654_3210,
                namespace: "server-montecarlo".into(),
                bytes: 4096,
            },
        ];

        let store = Store::open(&root, "r0").unwrap();
        let entries: Vec<ManifestEntry> = store.manifests()[0].entries().cloned().collect();
        assert_eq!(entries, expected);
        assert_eq!(std::fs::read_to_string(snapshot_of(&root, "r0")).unwrap(), old);
        // New writes land in the journal; a reopen folds them in.
        store.put(9, "ns", "p", &Json::Num(9.0));
        drop(store);
        let store = Store::open(&root, "r0").unwrap();
        assert_eq!(keys_of(&store.manifests()[0]), vec![7, 9, 0xFEDC_BA98_7654_3210]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn gc_tombstones_peer_journals_and_compacts_its_own() {
        use std::time::Duration;
        let root = scratch("gc-journal");
        let a = Store::open(&root, "r0").unwrap();
        let b = Store::open(&root, "r1").unwrap();
        a.put(1, "ns", "x", &Json::Num(1.0));
        b.put(2, "ns", "y", &Json::Num(2.0));
        b.put(3, "ns", "z", &Json::Num(3.0));
        backdate(&a, 1, 100);
        backdate(&b, 2, 100);
        let peer_snapshot = snapshot_of(&root, "r1");
        let report = a.gc(Duration::from_secs(10)).unwrap();
        assert_eq!(report.expired, vec![1, 2]);
        assert_eq!(report.manifests_rewritten, 2);
        // Own manifest: compacted into a snapshot, journal gone.
        assert!(!journal_of(&root, "r0").exists());
        assert!(Manifest::load(&snapshot_of(&root, "r0")).unwrap().is_empty());
        // Peer manifest: never rewritten, one tombstone appended.
        assert!(!peer_snapshot.exists(), "the live peer's snapshot is not written by gc");
        let journal = std::fs::read_to_string(journal_of(&root, "r1")).unwrap();
        assert_eq!(journal.lines().filter(|l| l.contains("\"removed\":true")).count(), 1);
        assert_eq!(keys_of(&b.manifests()[1]), vec![3]);
        // The peer's own next compaction agrees.
        b.gc(Duration::from_secs(3_600)).unwrap();
        assert_eq!(keys_of(&Manifest::load(&peer_snapshot).unwrap()), vec![3]);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Readers looping while another handle prunes everything (TTL 0)
    /// and re-writes it: a pruned object reads as a miss, never as
    /// corrupt.
    #[test]
    fn gc_racing_reads_never_counts_corrupt() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        use std::time::Duration;
        let root = scratch("gc-race");
        let writer = Arc::new(Store::open(&root, "writer").unwrap());
        let reader = Arc::new(Store::open(&root, "reader").unwrap());
        const KEYS: u64 = 32;
        let stop = Arc::new(AtomicBool::new(false));
        let sweeper = {
            let (writer, stop) = (Arc::clone(&writer), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut sweeps = 0;
                while !stop.load(Ordering::Relaxed) {
                    for key in 0..KEYS {
                        writer.put(key, "ns", "p", &Json::Num(key as f64));
                    }
                    writer.gc(Duration::ZERO).unwrap();
                    sweeps += 1;
                }
                sweeps
            })
        };
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let reader = Arc::clone(&reader);
                std::thread::spawn(move || {
                    for round in 0..4_000u64 {
                        if let Some(value) = reader.get(round % KEYS) {
                            assert_eq!(value, Json::Num((round % KEYS) as f64));
                        }
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        assert!(sweeper.join().unwrap() > 0);
        let stats = reader.stats();
        assert_eq!(stats.corrupt, 0, "a read that lost the race to gc is a miss: {stats:?}");
        assert_eq!(stats.reads + stats.misses, 8_000);
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
