//! Per-replica manifests: the index over the shared object directory.
//!
//! Each replica owns one manifest, stored as two files so that
//! recording a key costs one appended line, whatever the store's size:
//!
//! ```text
//! manifests/<replica>.json   snapshot: {"replica": .., "entries": [entry, ..]}
//! manifests/<replica>.log    journal: one entry per line, oldest first
//! ```
//!
//! The manifest is the snapshot with the journal replayed over it, in
//! order. A journal line is an entry's JSON (the same codec the snapshot
//! uses for its `entries`); a tombstone is that JSON with
//! `"removed":true`. Replay is an idempotent upsert or removal, so a
//! line applied twice changes nothing. A torn or unparseable line (a
//! writer died mid-append) and blank lines are skipped. Keys are
//! serialized as 16-digit hex strings — they are full-range `u64` FNV
//! identities and would lose bits above 2^53 as JSON numbers.
//!
//! A store directory that predates the journal holds only snapshots and
//! reads unchanged.

use runtime::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One warm key a replica has written to the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// The FNV cache identity (same key as `runtime::cache_key`).
    pub key: u64,
    /// The cache namespace the artifact belongs to (e.g.
    /// `server-montecarlo`) — catch-up planning dispatches on it.
    pub namespace: String,
    /// Encoded object size in bytes, for byte-budgeted catch-up.
    pub bytes: u64,
}

impl ManifestEntry {
    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("key", Json::Str(format!("{:016x}", self.key))),
            ("namespace", Json::Str(self.namespace.clone())),
            ("bytes", Json::Num(self.bytes as f64)),
        ]
    }

    fn to_json(&self) -> Json {
        Json::obj(self.fields())
    }

    /// The entry as one newline-terminated journal line; a tombstone
    /// when `removed`.
    pub(crate) fn journal_line(&self, removed: bool) -> String {
        let mut fields = self.fields();
        if removed {
            fields.push(("removed", Json::Bool(true)));
        }
        format!("{}\n", Json::obj(fields))
    }

    fn from_json(json: &Json) -> Option<ManifestEntry> {
        Some(ManifestEntry {
            key: u64::from_str_radix(json.get("key")?.as_str()?, 16).ok()?,
            namespace: json.get("namespace")?.as_str()?.to_string(),
            bytes: json.get("bytes")?.as_u64()?,
        })
    }
}

/// The warm-key index of one replica, keyed for O(log n) upsert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// The replica that owns (writes) this manifest.
    pub replica: String,
    entries: BTreeMap<u64, ManifestEntry>,
}

impl Manifest {
    /// An empty manifest for `replica`.
    pub fn new(replica: &str) -> Manifest {
        Manifest { replica: replica.to_string(), entries: BTreeMap::new() }
    }

    /// Records (or refreshes) one key and returns its entry.
    /// Re-recording an existing key replaces its entry — object writes
    /// are last-rename-wins, so the manifest mirrors that.
    pub fn record(&mut self, key: u64, namespace: &str, bytes: u64) -> &ManifestEntry {
        let entry = ManifestEntry { key, namespace: namespace.to_string(), bytes };
        self.entries.insert(key, entry);
        &self.entries[&key]
    }

    /// Drops `key` from the index; `true` when it was recorded. The
    /// GC sweep uses this to keep manifests consistent with the object
    /// directory after pruning.
    pub fn remove(&mut self, key: u64) -> bool {
        self.entries.remove(&key).is_some()
    }

    /// Entries in ascending key order.
    pub fn entries(&self) -> impl Iterator<Item = &ManifestEntry> {
        self.entries.values()
    }

    /// Number of recorded keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no key is recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when `key` is recorded.
    pub fn contains(&self, key: u64) -> bool {
        self.entries.contains_key(&key)
    }

    /// The entry recorded for `key`.
    pub fn get(&self, key: u64) -> Option<&ManifestEntry> {
        self.entries.get(&key)
    }

    /// Total recorded object bytes.
    pub fn total_bytes(&self) -> u64 {
        self.entries.values().map(|e| e.bytes).sum()
    }

    /// Encodes the manifest document.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("replica", Json::Str(self.replica.clone())),
            ("entries", Json::Arr(self.entries.values().map(ManifestEntry::to_json).collect())),
        ])
    }

    /// Decodes a manifest document; `None` on shape mismatch.
    pub fn from_json(json: &Json) -> Option<Manifest> {
        let replica = json.get("replica")?.as_str()?.to_string();
        let mut entries = BTreeMap::new();
        for entry in json.get("entries")?.as_arr()? {
            let entry = ManifestEntry::from_json(entry)?;
            entries.insert(entry.key, entry);
        }
        Some(Manifest { replica, entries })
    }

    /// Loads a snapshot file; `None` when missing or unparseable (a
    /// torn snapshot just means its replica looks cold — the objects
    /// themselves are still on disk and re-writable).
    pub fn load(path: &Path) -> Option<Manifest> {
        Manifest::from_json(&Json::parse(&std::fs::read_to_string(path).ok()?)?)
    }

    /// Applies journal text line by line, in order, skipping blank,
    /// torn and unparseable lines.
    pub(crate) fn replay(&mut self, journal: &str) {
        for line in journal.lines() {
            let Some(json) = Json::parse(line) else { continue };
            let Some(entry) = ManifestEntry::from_json(&json) else { continue };
            if json.get("removed").and_then(Json::as_bool) == Some(true) {
                self.entries.remove(&entry.key);
            } else {
                self.entries.insert(entry.key, entry);
            }
        }
    }

    /// Loads `replica`'s manifest from the manifest directory `dir`:
    /// its snapshot with its journal replayed over it. `None` when
    /// neither file can be read.
    pub(crate) fn load_replica(dir: &Path, replica: &str) -> Option<Manifest> {
        let snapshot = Manifest::load(&snapshot_path(dir, replica));
        let journal = std::fs::read_to_string(journal_path(dir, replica)).ok();
        if snapshot.is_none() && journal.is_none() {
            return None;
        }
        let mut manifest = snapshot.unwrap_or_else(|| Manifest::new(replica));
        if let Some(text) = journal {
            manifest.replay(&text);
        }
        Some(manifest)
    }
}

/// `replica`'s snapshot file in the manifest directory `dir`.
pub(crate) fn snapshot_path(dir: &Path, replica: &str) -> PathBuf {
    dir.join(format!("{replica}.json"))
}

/// `replica`'s journal file in the manifest directory `dir`.
pub(crate) fn journal_path(dir: &Path, replica: &str) -> PathBuf {
    dir.join(format!("{replica}.log"))
}

/// The replica names with a snapshot or a journal in `dir`, sorted
/// (temp files, which start with a dot, are skipped).
pub(crate) fn replica_names(dir: &Path) -> Vec<String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut names: Vec<String> = entries
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            if name.starts_with('.') {
                return None;
            }
            let replica = name.strip_suffix(".json").or_else(|| name.strip_suffix(".log"))?;
            Some(replica.to_string())
        })
        .collect();
    names.sort_unstable();
    names.dedup();
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trips_through_json() {
        let mut m = Manifest::new("r2");
        m.record(u64::MAX, "server-cohort", 4096);
        m.record(1, "server-sweep", 128);
        m.record(1 << 60, "server-montecarlo", 256);
        let back = Manifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.len(), 3);
        assert_eq!(back.total_bytes(), 4096 + 128 + 256);
    }

    #[test]
    fn full_range_keys_survive_the_hex_encoding() {
        // u64 keys above 2^53 would be mangled as JSON numbers; the hex
        // string encoding must keep every bit.
        let mut m = Manifest::new("r0");
        let key = 0xFEDC_BA98_7654_3210u64;
        m.record(key, "ns", 1);
        let back = Manifest::from_json(&m.to_json()).unwrap();
        assert!(back.contains(key));
        assert_eq!(back.entries().next().unwrap().key, key);
    }

    #[test]
    fn re_recording_a_key_replaces_its_entry() {
        let mut m = Manifest::new("r0");
        m.record(9, "ns", 100);
        m.record(9, "ns", 250);
        assert_eq!(m.len(), 1);
        assert_eq!(m.entries().next().unwrap().bytes, 250);
    }

    #[test]
    fn entries_iterate_in_ascending_key_order() {
        let mut m = Manifest::new("r0");
        for key in [5u64, 1, 9, 3] {
            m.record(key, "ns", 1);
        }
        let keys: Vec<u64> = m.entries().map(|e| e.key).collect();
        assert_eq!(keys, vec![1, 3, 5, 9]);
    }

    #[test]
    fn load_of_a_missing_or_torn_file_is_none() {
        let dir = std::env::temp_dir().join(format!("store-manifest-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(Manifest::load(&dir.join("absent.json")), None);
        std::fs::write(dir.join("torn.json"), "{\"replica\":\"r0\",\"ent").unwrap();
        assert_eq!(Manifest::load(&dir.join("torn.json")), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
