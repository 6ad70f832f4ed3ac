//! The store catalog: named cohorts the service audits.
//!
//! A catalog entry wraps either an on-disk [`ShardStore`] (paged through its
//! LRU cache, shareable across request threads — the cache's interior
//! mutability sits behind its own lock with pin/evict semantics intact) or
//! an in-memory [`ShardedDataset`] (synthetic cohorts, fixtures). Both sides
//! are one [`CohortStore`], which implements [`ShardSource`] — so every
//! request handler and background job evaluates through the same sharded
//! kernels regardless of where the cohort lives.
//!
//! Entries are `Arc`-shared: a request thread resolves a name once and holds
//! the entry for the duration of its work, so deregistering a store never
//! pulls a cohort out from under an in-flight request or job.

use crate::error::ApiError;
use fair_core::{obs, SchemaRef, ShardSource, ShardView, ShardedDataset};
use fair_store::{CacheStats, ShardStore};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, RwLock};

/// A cohort the service can evaluate: resident or paged from disk.
#[derive(Debug)]
pub enum CohortStore {
    /// An in-memory sharded cohort (synthetic or loaded fixtures).
    Memory(ShardedDataset),
    /// An on-disk FSS1 file, decoded on demand through the shard cache.
    Disk(ShardStore),
}

impl CohortStore {
    /// `"memory"` or `"disk"` — the wire-format `kind` field.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Memory(_) => "memory",
            Self::Disk(_) => "disk",
        }
    }

    /// Cache counters for paged stores (`None` for resident cohorts).
    #[must_use]
    pub fn cache_stats(&self) -> Option<CacheStats> {
        match self {
            Self::Memory(_) => None,
            Self::Disk(s) => Some(s.cache_stats()),
        }
    }
}

impl ShardSource for CohortStore {
    fn schema(&self) -> &SchemaRef {
        match self {
            Self::Memory(d) => d.schema(),
            Self::Disk(s) => ShardSource::schema(s),
        }
    }

    fn len(&self) -> usize {
        match self {
            Self::Memory(d) => d.len(),
            Self::Disk(s) => ShardSource::len(s),
        }
    }

    fn shard_size(&self) -> usize {
        match self {
            Self::Memory(d) => d.shard_size(),
            Self::Disk(s) => ShardSource::shard_size(s),
        }
    }

    fn num_shards(&self) -> usize {
        match self {
            Self::Memory(d) => d.num_shards(),
            Self::Disk(s) => ShardSource::num_shards(s),
        }
    }

    fn with_shard<T>(&self, index: usize, f: impl FnOnce(ShardView<'_>) -> T) -> T {
        match self {
            Self::Memory(d) => d.with_shard(index, f),
            Self::Disk(s) => s.with_shard(index, f),
        }
    }

    fn paged(&self) -> bool {
        match self {
            Self::Memory(d) => d.paged(),
            Self::Disk(s) => s.paged(),
        }
    }
}

/// One registered cohort: its name, provenance, and the store itself.
#[derive(Debug)]
pub struct StoreEntry {
    /// The catalog name clients address the cohort by.
    pub name: String,
    /// The backing file for disk stores (`None` for in-memory cohorts).
    pub path: Option<PathBuf>,
    /// The cohort.
    pub store: CohortStore,
}

/// The named-store registry. All methods take `&self`: the map sits behind a
/// read-write lock, so lookups from concurrent request threads never
/// serialize on registrations.
#[derive(Debug, Default)]
pub struct Catalog {
    entries: RwLock<BTreeMap<String, Arc<StoreEntry>>>,
}

impl Catalog {
    /// An empty catalog.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an on-disk FSS1 file under `name`, opening it with the
    /// environment-resolved cache budget.
    ///
    /// # Errors
    /// `409` when the name is taken, `422` when the file fails to open
    /// (missing, a directory, corrupt, …).
    pub fn register_disk(
        &self,
        name: &str,
        path: impl Into<PathBuf>,
    ) -> Result<Arc<StoreEntry>, ApiError> {
        let path = path.into();
        validate_name(name)?;
        let store = ShardStore::open(&path).map_err(|e| {
            ApiError::unprocessable(format!("cannot open `{}`: {e}", path.display()))
        })?;
        self.insert(StoreEntry {
            name: name.to_string(),
            path: Some(path),
            store: CohortStore::Disk(store),
        })
    }

    /// Register an in-memory cohort under `name`.
    ///
    /// # Errors
    /// `409` when the name is taken, `400` on an invalid name.
    pub fn register_memory(
        &self,
        name: &str,
        data: ShardedDataset,
    ) -> Result<Arc<StoreEntry>, ApiError> {
        validate_name(name)?;
        self.insert(StoreEntry {
            name: name.to_string(),
            path: None,
            store: CohortStore::Memory(data),
        })
    }

    fn insert(&self, entry: StoreEntry) -> Result<Arc<StoreEntry>, ApiError> {
        let mut entries = self.entries.write().expect("catalog lock poisoned");
        if entries.contains_key(&entry.name) {
            return Err(ApiError::conflict(format!(
                "store `{}` is already registered",
                entry.name
            )));
        }
        let entry = Arc::new(entry);
        entries.insert(entry.name.clone(), entry.clone());
        obs::counter(
            "fair_serve_stores_registered_total",
            &[("kind", entry.store.kind())],
        )
        .inc();
        obs::Event::new("catalog.register")
            .field("name", &entry.name)
            .field("kind", entry.store.kind())
            .field("rows", entry.store.len())
            .field("shards", entry.store.num_shards())
            .emit();
        Ok(entry)
    }

    /// Resolve a name to its entry.
    ///
    /// # Errors
    /// `404` when no store carries the name.
    pub fn get(&self, name: &str) -> Result<Arc<StoreEntry>, ApiError> {
        self.entries
            .read()
            .expect("catalog lock poisoned")
            .get(name)
            .cloned()
            .ok_or_else(|| ApiError::not_found(format!("no store named `{name}`")))
    }

    /// Deregister a store. In-flight requests and jobs holding the entry's
    /// `Arc` keep evaluating; the name just becomes free.
    ///
    /// # Errors
    /// `404` when no store carries the name.
    pub fn remove(&self, name: &str) -> Result<(), ApiError> {
        self.entries
            .write()
            .expect("catalog lock poisoned")
            .remove(name)
            .map(|entry| {
                obs::Event::new("catalog.remove")
                    .field("name", name)
                    .field("kind", entry.store.kind())
                    .emit();
            })
            .ok_or_else(|| ApiError::not_found(format!("no store named `{name}`")))
    }

    /// All entries, name-ordered.
    #[must_use]
    pub fn list(&self) -> Vec<Arc<StoreEntry>> {
        self.entries
            .read()
            .expect("catalog lock poisoned")
            .values()
            .cloned()
            .collect()
    }

    /// Number of registered stores.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.read().expect("catalog lock poisoned").len()
    }

    /// Whether the catalog is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Which worker owns which contiguous shard range — the fleet coordinator's
/// placement map for one cohort.
///
/// Ranges are half-open `[lo, hi)`, disjoint, and cover `0..num_shards` in
/// order, so combining per-range partials by ascending range index is the
/// same fold as combining per-shard partials by ascending shard index — the
/// property the bit-identity contract of
/// [`fair_core::metrics::sharded::combine_disparity_partials`] rests on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementMap {
    /// `ranges[w]` is the shard range owned by worker `w`.
    ranges: Vec<std::ops::Range<usize>>,
}

impl PlacementMap {
    /// Split `num_shards` as evenly as possible across `workers` nodes, the
    /// first `num_shards % workers` ranges taking one extra shard. Workers
    /// beyond the shard count receive empty ranges.
    #[must_use]
    pub fn even(num_shards: usize, workers: usize) -> Self {
        let workers = workers.max(1);
        let base = num_shards / workers;
        let extra = num_shards % workers;
        let mut ranges = Vec::with_capacity(workers);
        let mut lo = 0;
        for w in 0..workers {
            let span = base + usize::from(w < extra);
            ranges.push(lo..lo + span);
            lo += span;
        }
        Self { ranges }
    }

    /// The shard range owned by worker `w`.
    #[must_use]
    pub fn range(&self, w: usize) -> std::ops::Range<usize> {
        self.ranges[w].clone()
    }

    /// Every `(worker, range)` pair with a non-empty range.
    #[must_use]
    pub fn assignments(&self) -> Vec<(usize, std::ops::Range<usize>)> {
        self.ranges
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.is_empty())
            .map(|(w, r)| (w, r.clone()))
            .collect()
    }

    /// Number of workers in the map (including empty-range workers).
    #[must_use]
    pub fn num_workers(&self) -> usize {
        self.ranges.len()
    }

    /// Total shard count covered by the map.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.ranges.last().map_or(0, |r| r.end)
    }
}

/// Catalog names travel in URL paths: keep them short and unambiguous.
fn validate_name(name: &str) -> Result<(), ApiError> {
    if name.is_empty() || name.len() > 128 {
        return Err(ApiError::bad_request(
            "store names must be 1–128 characters",
        ));
    }
    if !name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
    {
        return Err(ApiError::bad_request(format!(
            "store name `{name}` may only contain [A-Za-z0-9._-]"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fair_core::{DataObject, Schema};

    fn cohort(n: u64) -> ShardedDataset {
        let schema = Schema::from_names(&["s"], &["g"], &[]).unwrap();
        let objects = (0..n)
            .map(|i| {
                DataObject::new_unchecked(
                    i,
                    vec![i as f64],
                    vec![f64::from(u8::from(i % 3 == 0))],
                    None,
                )
            })
            .collect();
        ShardedDataset::from_objects(schema, objects, 8).unwrap()
    }

    #[test]
    fn register_lookup_list_remove() {
        let catalog = Catalog::new();
        assert!(catalog.is_empty());
        catalog.register_memory("alpha", cohort(20)).unwrap();
        catalog.register_memory("beta", cohort(10)).unwrap();
        assert_eq!(catalog.len(), 2);
        let names: Vec<String> = catalog.list().iter().map(|e| e.name.clone()).collect();
        assert_eq!(names, vec!["alpha", "beta"], "name-ordered");
        let entry = catalog.get("alpha").unwrap();
        assert_eq!(entry.store.len(), 20);
        assert_eq!(entry.store.kind(), "memory");
        assert!(entry.store.cache_stats().is_none());
        assert!(entry.path.is_none());

        catalog.remove("alpha").unwrap();
        assert_eq!(catalog.get("alpha").unwrap_err().status, 404);
        assert_eq!(catalog.remove("alpha").unwrap_err().status, 404);
        // The held Arc keeps evaluating after removal.
        assert_eq!(entry.store.num_shards(), 3);
    }

    #[test]
    fn duplicate_names_conflict() {
        let catalog = Catalog::new();
        catalog.register_memory("x", cohort(4)).unwrap();
        let err = catalog.register_memory("x", cohort(4)).unwrap_err();
        assert_eq!(err.status, 409);
    }

    #[test]
    fn names_are_validated() {
        let catalog = Catalog::new();
        for bad in ["", "has space", "semi;colon", "slash/y", &"x".repeat(200)] {
            let err = catalog.register_memory(bad, cohort(4)).unwrap_err();
            assert_eq!(err.status, 400, "{bad:?}");
        }
        catalog.register_memory("ok-name_1.fss", cohort(4)).unwrap();
    }

    #[test]
    fn disk_registration_requires_a_readable_store() {
        let catalog = Catalog::new();
        let err = catalog
            .register_disk("gone", "/nonexistent/file.fss")
            .unwrap_err();
        assert_eq!(err.status, 422);
        assert!(err.message.contains("cannot open"), "{}", err.message);
    }

    #[test]
    fn cohort_store_delegates_shard_source() {
        let store = CohortStore::Memory(cohort(20));
        assert_eq!(store.len(), 20);
        assert_eq!(store.shard_size(), 8);
        assert_eq!(store.num_shards(), 3);
        assert_eq!(store.schema().num_fairness(), 1);
        let first_id = store.with_shard(1, |view| view.data().row(0).id());
        assert_eq!(first_id.0, 8);
        assert!(!store.paged());

        // A disk store stays paged behind the wrapper, so metric plans and
        // Core-DCA gathers pick their paged strategies for served files.
        let path = std::env::temp_dir().join(format!(
            "fair_serve_catalog_paged_{}.fss",
            std::process::id()
        ));
        fair_store::write_source(&cohort(20), &path).unwrap();
        let store = CohortStore::Disk(ShardStore::open_with_budget(&path, 0).unwrap());
        assert!(store.paged());
        assert_eq!(store.with_shard(2, |view| view.data().row(0).id()).0, 16);
        drop(store);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn placement_map_covers_every_shard_exactly_once_in_order() {
        for (shards, workers) in [(10, 3), (3, 3), (2, 5), (0, 4), (17, 1), (16, 4)] {
            let map = PlacementMap::even(shards, workers);
            assert_eq!(map.num_workers(), workers);
            assert_eq!(map.num_shards(), shards, "({shards}, {workers})");
            let mut next = 0;
            for w in 0..workers {
                let r = map.range(w);
                assert_eq!(r.start, next, "gap or overlap at worker {w}");
                assert!(r.end >= r.start);
                // Even split: range sizes differ by at most one shard.
                assert!(r.len() <= shards / workers + 1);
                next = r.end;
            }
            assert_eq!(next, shards);
            let covered: usize = map.assignments().iter().map(|(_, r)| r.len()).sum();
            assert_eq!(covered, shards, "assignments drop empty ranges only");
        }
    }
}
