//! Catch-up planning: which warm keys a (re)joining replica pre-warms.
//!
//! A replica that rejoins after a kill — or joins a membership it has
//! never seen — starts with a cold [`runtime::ResultCache`]. Before it
//! takes traffic it walks the store's manifests, keeps the keys the
//! caller's HRW assignment says it now owns, orders them by a **seeded
//! shuffle** (so two replicas catching up against the same byte budget
//! don't pre-warm the same prefix, and so a replayed run pre-warms in
//! the same order), and truncates to the catch-up budget. The caller
//! then loads each planned key's object and
//! [`runtime::ResultCache::admit`]s it.
//!
//! Planning is pure over the manifest snapshot: same manifests, same
//! assignment, same seed, same budget → byte-identical plan.

use crate::Store;
use runtime::derive_seed;

/// Bounds on how much a replica pre-warms before taking traffic.
///
/// The default is unbounded — correctness never depends on the budget,
/// it only caps the time a rejoining replica spends Down-for-warming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatchupBudget {
    /// Maximum keys to pre-warm.
    pub max_keys: usize,
    /// Maximum cumulative object bytes to pre-warm.
    pub max_bytes: u64,
}

impl Default for CatchupBudget {
    fn default() -> Self {
        CatchupBudget { max_keys: usize::MAX, max_bytes: u64::MAX }
    }
}

/// One key the plan selected, with enough context to dispatch it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedKey {
    /// The FNV cache identity to pre-warm.
    pub key: u64,
    /// Cache namespace (selects the endpoint cache to admit into).
    pub namespace: String,
    /// Encoded object size, as recorded by the writer's manifest.
    pub bytes: u64,
    /// The replica whose manifest contributed the entry.
    pub owner: String,
}

/// The ordered, budget-truncated pre-warm schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatchupPlan {
    /// Keys to pre-warm, in seeded order.
    pub keys: Vec<PlannedKey>,
    /// Assigned keys the budget excluded.
    pub skipped_keys: u64,
    /// Bytes the budget excluded.
    pub skipped_bytes: u64,
    /// The seed the ordering was derived from (for replay).
    pub seed: u64,
}

impl CatchupPlan {
    /// Cumulative bytes of the planned keys.
    pub fn planned_bytes(&self) -> u64 {
        self.keys.iter().map(|k| k.bytes).sum()
    }
}

/// Plans a catch-up over `store` for the member whose ownership
/// predicate is `assign` (typically `rendezvous::pick(..) == me`).
///
/// Deterministic: the ordering mixes each key with `seed` through the
/// runtime's seed-derivation chain, so the schedule is replayable and
/// uncorrelated between different seeds.
pub fn plan(
    store: &Store,
    assign: impl Fn(u64) -> bool,
    seed: u64,
    budget: &CatchupBudget,
) -> CatchupPlan {
    let _span = obs::span!("store.catchup");
    let mut assigned: Vec<PlannedKey> = store
        .merged_entries()
        .into_iter()
        .filter(|(key, _)| assign(*key))
        .map(|(key, (owner, entry))| PlannedKey {
            key,
            namespace: entry.namespace,
            bytes: entry.bytes,
            owner,
        })
        .collect();
    // Seeded shuffle: order by the derived mix, keys as tiebreak. The
    // mix is a full 64-bit avalanche of (seed, key), so ties are only
    // possible for equal keys — which the merged map already deduped.
    assigned.sort_by_key(|k| (derive_seed(seed, k.key), k.key));
    let mut plan = CatchupPlan { keys: Vec::new(), skipped_keys: 0, skipped_bytes: 0, seed };
    let mut spent_bytes = 0u64;
    for key in assigned {
        let within_keys = plan.keys.len() < budget.max_keys;
        let within_bytes = spent_bytes.saturating_add(key.bytes) <= budget.max_bytes;
        if within_keys && within_bytes {
            spent_bytes += key.bytes;
            plan.keys.push(key);
        } else {
            plan.skipped_keys += 1;
            plan.skipped_bytes += key.bytes;
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use runtime::Json;
    use std::path::PathBuf;

    fn seeded_store(tag: &str, keys: &[u64]) -> (PathBuf, Store) {
        let root =
            std::env::temp_dir().join(format!("store-catchup-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = Store::open(&root, "r0").unwrap();
        for &key in keys {
            store.put(key, "ns", "p", &Json::Num(key as f64));
        }
        (root, store)
    }

    #[test]
    fn plan_keeps_only_assigned_keys() {
        let (root, store) = seeded_store("assign", &[1, 2, 3, 4, 5, 6]);
        let plan = plan(&store, |k| k % 2 == 0, 99, &CatchupBudget::default());
        let mut keys: Vec<u64> = plan.keys.iter().map(|k| k.key).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![2, 4, 6]);
        assert_eq!(plan.skipped_keys, 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn plan_order_is_seeded_and_replayable() {
        let (root, store) = seeded_store("order", &[10, 20, 30, 40, 50, 60, 70, 80]);
        let a = plan(&store, |_| true, 7, &CatchupBudget::default());
        let b = plan(&store, |_| true, 7, &CatchupBudget::default());
        assert_eq!(a, b, "same seed must replay the same plan");
        let c = plan(&store, |_| true, 8, &CatchupBudget::default());
        let order_a: Vec<u64> = a.keys.iter().map(|k| k.key).collect();
        let order_c: Vec<u64> = c.keys.iter().map(|k| k.key).collect();
        assert_ne!(order_a, order_c, "different seeds must shuffle differently");
        // Different order, same set.
        let mut sa = order_a.clone();
        let mut sc = order_c.clone();
        sa.sort_unstable();
        sc.sort_unstable();
        assert_eq!(sa, sc);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn key_budget_truncates_and_counts_the_remainder() {
        let (root, store) = seeded_store("keybudget", &[1, 2, 3, 4, 5]);
        let budget = CatchupBudget { max_keys: 2, ..CatchupBudget::default() };
        let p = plan(&store, |_| true, 3, &budget);
        assert_eq!(p.keys.len(), 2);
        assert_eq!(p.skipped_keys, 3);
        assert!(p.skipped_bytes > 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn byte_budget_truncates_by_cumulative_object_size() {
        let (root, store) = seeded_store("bytebudget", &[1, 2, 3, 4]);
        let per_object = store.merged_entries()[&1].1.bytes;
        let budget =
            CatchupBudget { max_bytes: per_object * 2 + per_object / 2, ..Default::default() };
        let p = plan(&store, |_| true, 11, &budget);
        assert_eq!(p.keys.len(), 2, "only two whole objects fit the byte budget");
        assert_eq!(p.skipped_keys, 2);
        assert!(p.planned_bytes() <= budget.max_bytes);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn planned_keys_attribute_their_owning_replica() {
        let root =
            std::env::temp_dir().join(format!("store-catchup-owner-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let a = Store::open(&root, "ra").unwrap();
        let b = Store::open(&root, "rb").unwrap();
        a.put(100, "ns", "p", &Json::Num(1.0));
        b.put(200, "ns", "q", &Json::Num(2.0));
        let p = plan(&a, |_| true, 0, &CatchupBudget::default());
        let mut owners: Vec<(u64, String)> =
            p.keys.iter().map(|k| (k.key, k.owner.clone())).collect();
        owners.sort();
        assert_eq!(owners, vec![(100, "ra".to_string()), (200, "rb".to_string())]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn zero_key_budget_plans_nothing() {
        let (root, store) = seeded_store("zero", &[1, 2, 3]);
        let budget = CatchupBudget { max_keys: 0, ..Default::default() };
        let p = plan(&store, |_| true, 5, &budget);
        assert!(p.keys.is_empty());
        assert_eq!(p.skipped_keys, 3);
        let _ = std::fs::remove_dir_all(&root);
    }
}
