//! Sharded column store: the cohort split into fixed-size contiguous blocks.
//!
//! The shard is the unit of parallelism, of streaming ingest, of out-of-core
//! residency, and — eventually — of distributed placement. Two storage
//! backends provide shards today:
//!
//! * [`ShardedDataset`] (this module) holds every shard in RAM, each a
//!   self-contained [`Dataset`] (the same contiguous structure-of-arrays
//!   block the single-dataset path uses);
//! * `fair_store::ShardStore` (the `fair-store` crate) pages shards in from
//!   an on-disk columnar file through a byte-budgeted LRU cache.
//!
//! Both implement the [`ShardSource`] trait, which carries the shard-wise
//! **evaluation engine**: every metric, ranking kernel and DCA driver written
//! against `ShardSource` runs unchanged over in-RAM and out-of-core cohorts.
//!
//! ```text
//!   ShardSource (ShardedDataset | fair_store::ShardStore)
//!   ├── shard 0   rows [0, S)        ──┐
//!   ├── shard 1   rows [S, 2S)         │  map: per-shard kernel
//!   ├── …                              │  (parallel_map workers)
//!   └── shard m   rows [mS, n)       ──┘
//!                       │
//!                       ▼
//!          ordered reduce (shard 0, 1, …, m)  →  deterministic result
//! ```
//!
//! The engine methods ([`ShardSource::map_shards`],
//! [`ShardSource::reduce_shards`]) run one closure per shard on
//! [`crate::parallel_map`]'s scoped worker pool and always combine results
//! **in shard order**, so evaluation is deterministic
//! for a fixed shard size regardless of worker count, scheduling, or storage
//! backend. Metrics written against this engine (see
//! [`crate::metrics::sharded`]) are therefore parallel by construction —
//! parallelism is a property of the engine, not of each metric.
//!
//! ## Determinism and floating point
//!
//! Per-row computations (scoring) and integer reductions (group counts,
//! selection masks) are bit-for-bit identical to the serial single-`Dataset`
//! path for every shard size. Floating-point *sum* reductions (fairness
//! centroids) accumulate per shard and then combine partial sums in shard
//! order; for values on a dyadic grid — binary group indicators, and any
//! value set whose sums are exactly representable — this is bit-for-bit
//! identical to the serial left-to-right sum for every shard size. For
//! arbitrary continuous values the result is deterministic per shard size and
//! differs from the serial sum only by the usual reassociation ulps. Because
//! a paged shard decodes to exactly the bytes that were written, evaluation
//! over a `ShardStore` is bit-for-bit the in-memory evaluation at the same
//! shard size.

use crate::attributes::SchemaRef;
use crate::dataset::Dataset;
use crate::error::{FairError, Result};
use crate::object::{DataObject, ObjectView};
use crate::parallel::parallel_map;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The built-in default shard size (rows per shard) when the
/// `FAIR_SHARD_SIZE` environment variable is not set.
pub const DEFAULT_SHARD_SIZE: usize = 64 * 1024;

/// The default number of rows per shard: the `FAIR_SHARD_SIZE` environment
/// variable when set to a positive integer, [`DEFAULT_SHARD_SIZE`] otherwise.
///
/// CI exercises the suite with `FAIR_SHARD_SIZE=7` so the non-divisible
/// final-shard path is covered on every push.
#[must_use]
pub fn default_shard_size() -> usize {
    std::env::var("FAIR_SHARD_SIZE")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&v| v > 0)
        .unwrap_or(DEFAULT_SHARD_SIZE)
}

/// A borrowed view of one shard: its index, the global row offset of its
/// first row, and the underlying contiguous [`Dataset`] block.
#[derive(Debug, Clone, Copy)]
pub struct ShardView<'a> {
    index: usize,
    offset: usize,
    data: &'a Dataset,
}

impl<'a> ShardView<'a> {
    /// Assemble a shard view from its parts — the constructor storage
    /// backends ([`ShardSource::with_shard`] implementations) use to present
    /// a decoded block to the engine.
    #[must_use]
    pub fn new(index: usize, offset: usize, data: &'a Dataset) -> Self {
        Self {
            index,
            offset,
            data,
        }
    }

    /// Position of this shard within the sharded dataset.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Global row index of this shard's first row.
    #[must_use]
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// The shard's rows as a contiguous columnar [`Dataset`] block.
    #[must_use]
    pub fn data(&self) -> &'a Dataset {
        self.data
    }

    /// Number of rows in this shard.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the shard holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Global row index of the shard-local row `local`.
    #[must_use]
    pub fn global_index(&self, local: usize) -> usize {
        self.offset + local
    }
}

/// A cohort that can present itself one shard at a time — the storage
/// abstraction the shard-wise evaluation engine runs on.
///
/// A source describes a fixed shard layout (`len` rows cut into
/// `num_shards` blocks of `shard_size`, the last possibly short) and lends
/// out one decoded shard per [`ShardSource::with_shard`] call. In-memory
/// sources ([`ShardedDataset`]) lend a borrow at zero cost; out-of-core
/// sources (`fair_store::ShardStore`) page the shard in on a cache miss and
/// **pin it for the duration of the closure**, so a kernel can never observe
/// a shard being evicted under it.
///
/// Everything else — the parallel engine, whole-cohort statistics, and the
/// per-shard stratified sampler — is provided on top of those five methods,
/// which is what makes the evaluation layer storage-agnostic: the same
/// kernels drive in-RAM and beyond-RAM cohorts unchanged.
pub trait ShardSource: Sync {
    /// The shared schema.
    fn schema(&self) -> &SchemaRef;

    /// Total number of rows across all shards.
    fn len(&self) -> usize;

    /// The configured rows-per-shard (every shard but the last holds exactly
    /// this many rows).
    fn shard_size(&self) -> usize;

    /// Number of shards.
    fn num_shards(&self) -> usize;

    /// Lend shard `index` to `f`, returning `f`'s result. The shard stays
    /// valid (and, for caching backends, pinned) for the whole call.
    ///
    /// # Panics
    /// Panics if `index` is out of bounds. Storage backends also panic when
    /// the shard cannot be produced at all (I/O failure, corruption detected
    /// by a checksum); recoverable validation belongs to the backend's own
    /// fallible API (e.g. `ShardStore::read_shard`).
    fn with_shard<T>(&self, index: usize, f: impl FnOnce(ShardView<'_>) -> T) -> T;

    /// Whether [`Self::with_shard`] may be expensive to repeat — an
    /// out-of-core source that reads and decodes shards from storage (and may
    /// evict them again under a cache budget). Metric plans consult this to
    /// choose between re-walking shards, which is free for in-memory sources,
    /// and retaining the few columns their measurement phase needs during the
    /// scoring sweep so the storage layer pages each shard exactly once. The
    /// choice never changes results — both strategies are bit-identical.
    fn paged(&self) -> bool {
        false
    }

    // ------------------------------------------------------------------
    // Shard layout arithmetic.
    // ------------------------------------------------------------------

    /// Whether the source holds no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Global row index of shard `index`'s first row.
    fn shard_offset(&self, index: usize) -> usize {
        index * self.shard_size()
    }

    /// Number of rows in shard `index` — pure layout arithmetic, no shard is
    /// paged in.
    ///
    /// # Panics
    /// Panics if `index` is out of bounds.
    fn shard_len(&self, index: usize) -> usize {
        assert!(
            index < self.num_shards(),
            "shard {index} out of bounds ({})",
            self.num_shards()
        );
        (self.len() - self.shard_offset(index)).min(self.shard_size())
    }

    /// Split a global row index into `(shard index, shard-local row index)`.
    ///
    /// # Panics
    /// Panics if `global` is out of bounds.
    fn locate(&self, global: usize) -> (usize, usize) {
        assert!(
            global < self.len(),
            "row {global} out of bounds ({})",
            self.len()
        );
        (global / self.shard_size(), global % self.shard_size())
    }

    /// Lend the row at `global` index (insertion order) to `f`. Pages in the
    /// owning shard on caching backends; zero-copy on in-memory ones.
    ///
    /// # Panics
    /// Panics if `global` is out of bounds.
    fn with_row<T>(&self, global: usize, f: impl FnOnce(ObjectView<'_>) -> T) -> T {
        let (shard, local) = self.locate(global);
        self.with_shard(shard, |s| f(s.data().row(local)))
    }

    // ------------------------------------------------------------------
    // The shard-wise evaluation engine.
    // ------------------------------------------------------------------

    /// Apply `f` to every shard on the scoped worker pool, returning the
    /// per-shard results **in shard order**.
    fn map_shards<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(ShardView<'_>) -> T + Sync,
    {
        let indices: Vec<usize> = (0..self.num_shards()).collect();
        parallel_map(&indices, |&i| self.with_shard(i, &f))
    }

    /// Map every shard in parallel, then fold the per-shard results **in
    /// shard order** — the deterministic reduction every sharded metric is
    /// built on.
    fn reduce_shards<T, A, F, G>(&self, init: A, map: F, mut fold: G) -> A
    where
        T: Send,
        F: Fn(ShardView<'_>) -> T + Sync,
        G: FnMut(A, T) -> A,
    {
        self.map_shards(map).into_iter().fold(init, &mut fold)
    }

    // ------------------------------------------------------------------
    // Whole-cohort primitives built on the engine.
    // ------------------------------------------------------------------

    /// Fairness centroid over the whole cohort (`D_O` of Definition 3):
    /// per-shard sums combined in shard order, then divided once.
    ///
    /// # Errors
    /// Returns [`FairError::EmptyDataset`] on an empty dataset.
    fn fairness_centroid(&self) -> Result<Vec<f64>> {
        if self.is_empty() {
            return Err(FairError::EmptyDataset);
        }
        let dims = self.schema().num_fairness();
        if dims == 0 {
            return Ok(Vec::new());
        }
        let sums = self.reduce_shards(
            vec![0.0_f64; dims],
            |shard| {
                let mut acc = Vec::new();
                crate::kernel::col_sums_into(shard.data().fairness_matrix(), dims, &mut acc);
                acc
            },
            |mut acc, partial| {
                crate::kernel::add_row(&mut acc, &partial);
                acc
            },
        );
        Ok(sums.into_iter().map(|s| s / self.len() as f64).collect())
    }

    /// Fraction of rows belonging to the (binary) group at fairness index
    /// `dim` (value `>= 0.5`). Integer count reduction — exact for every
    /// shard size.
    fn group_frequency(&self, dim: usize) -> f64 {
        if self.is_empty() || dim >= self.schema().num_fairness() {
            return 0.0;
        }
        let dims = self.schema().num_fairness();
        let count = self.reduce_shards(
            0_usize,
            |shard| crate::kernel::count_ge_half(shard.data().fairness_matrix(), dims, dim),
            |acc, c| acc + c,
        );
        count as f64 / self.len() as f64
    }

    /// Frequency of the rarest non-empty fairness group — the `r` of the
    /// paper's sample-size rule.
    fn rarest_group_frequency(&self) -> f64 {
        (0..self.schema().num_fairness())
            .map(|d| self.group_frequency(d))
            .filter(|f| *f > 0.0)
            .fold(1.0_f64, f64::min)
    }

    /// Whether every row carries a ground-truth label.
    fn fully_labelled(&self) -> bool {
        !self.is_empty()
            && self.reduce_shards(
                true,
                |shard| shard.data().fully_labelled(),
                |acc, ok| acc && ok,
            )
    }

    // ------------------------------------------------------------------
    // Per-shard sampling (the distributed-DCA building block).
    // ------------------------------------------------------------------

    /// Draw a uniform-rate stratified sample of `size` rows: each shard
    /// contributes a quota proportional to its length (largest-remainder
    /// apportionment, deterministic), sampled **within the shard** with its
    /// own RNG stream split off `seed` — so shards can sample independently
    /// and in parallel, and a distributed deployment draws the identical
    /// sample without any cross-shard coordination.
    ///
    /// Only the shard *layout* is consulted — no shard data is paged in —
    /// so sampling an out-of-core cohort touches the disk not at all; the
    /// caller gathers exactly the sampled rows afterwards.
    ///
    /// Returns global row indices grouped by shard (ascending shard order,
    /// selection order within a shard). When `size >= len()` every row is
    /// returned in global order. This is [`sample_indices_range_into`] over
    /// every shard, so the whole sample and a fleet's range slices come from
    /// one sampler.
    ///
    /// # Errors
    /// Returns [`FairError::EmptyDataset`] on an empty dataset and
    /// [`FairError::InvalidConfig`] when `size == 0`.
    fn sample_indices_into(&self, seed: u64, size: usize, out: &mut Vec<usize>) -> Result<()> {
        sample_indices_range_into(self, seed, size, 0..self.num_shards(), out)
    }
}

/// Visit each shard that appears in `items` exactly once, handing `f` the
/// shard view and the contiguous run of items that live in it. `items` must
/// already be grouped by shard (`shard_of` constant within a run) — the
/// natural order of sample indices and of position lists sorted by shard.
/// This is the access pattern caching out-of-core sources want: one page-in
/// per shard instead of one per item.
pub fn for_each_shard_run<S, T>(
    data: &S,
    items: &[T],
    shard_of: impl Fn(&T) -> usize,
    mut f: impl FnMut(ShardView<'_>, &[T]),
) where
    S: ShardSource + ?Sized,
{
    let mut start = 0;
    while start < items.len() {
        let shard = shard_of(&items[start]);
        let mut end = start + 1;
        while end < items.len() && shard_of(&items[end]) == shard {
            end += 1;
        }
        data.with_shard(shard, |view| f(view, &items[start..end]));
        start = end;
    }
}

/// Largest-remainder apportionment of `size` sample slots across shards,
/// proportional to shard lengths; deterministic and clamped to shard
/// lengths. Layout arithmetic only — no shard data is touched.
fn shard_quotas<S: ShardSource + ?Sized>(data: &S, size: usize) -> Vec<usize> {
    let n = data.len() as f64;
    let num_shards = data.num_shards();
    let mut quotas: Vec<usize> = Vec::with_capacity(num_shards);
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(num_shards);
    let mut assigned = 0_usize;
    for i in 0..num_shards {
        let len = data.shard_len(i);
        let exact = size as f64 * len as f64 / n;
        let floor = (exact.floor() as usize).min(len);
        quotas.push(floor);
        remainders.push((i, exact - floor as f64));
        assigned += floor;
    }
    // Hand the remaining slots to the largest fractional remainders
    // (ties broken by shard index for determinism), skipping full shards.
    remainders.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    let mut left = size.saturating_sub(assigned);
    let mut cursor = 0;
    while left > 0 {
        let (idx, _) = remainders[cursor % remainders.len()];
        if quotas[idx] < data.shard_len(idx) {
            quotas[idx] += 1;
            left -= 1;
        }
        cursor += 1;
        assert!(
            cursor <= remainders.len() * (size + 1),
            "quota apportionment must terminate"
        );
    }
    quotas
}

/// The shard-range restriction of [`ShardSource::sample_indices_into`]: the
/// global row indices that sampler would emit for the shards in `shards`, in
/// the same order.
///
/// Quotas are apportioned over the **whole** layout and each shard samples
/// under its own [`shard_seed`]-split RNG stream, so a node that owns only
/// `shards` computes its slice of the global sample without seeing any other
/// node's rows — concatenating the outputs of disjoint ranges covering
/// `0..num_shards()` in ascending order reproduces `sample_indices_into`
/// exactly. This is the distributed-DCA sampling primitive.
///
/// # Errors
/// Returns [`FairError::EmptyDataset`] on an empty dataset,
/// [`FairError::InvalidConfig`] when `size == 0` or the range exceeds the
/// layout.
pub fn sample_indices_range_into<S: ShardSource + ?Sized>(
    data: &S,
    seed: u64,
    size: usize,
    shards: std::ops::Range<usize>,
    out: &mut Vec<usize>,
) -> Result<()> {
    if data.is_empty() {
        return Err(FairError::EmptyDataset);
    }
    if size == 0 {
        return Err(FairError::InvalidConfig {
            reason: "sample size must be positive".into(),
        });
    }
    if shards.start > shards.end || shards.end > data.num_shards() {
        return Err(FairError::InvalidConfig {
            reason: format!(
                "shard range {}..{} exceeds the {}-shard layout",
                shards.start,
                shards.end,
                data.num_shards()
            ),
        });
    }
    out.clear();
    if size >= data.len() {
        // The full-cohort branch of `sample_indices_into` emits every global
        // index in order; this range's slice of that is its own row span.
        for i in shards {
            let offset = data.shard_offset(i);
            out.extend(offset..offset + data.shard_len(i));
        }
        return Ok(());
    }
    let quotas = shard_quotas(data, size);
    let indices: Vec<usize> = shards.collect();
    let per_shard: Vec<Vec<usize>> = parallel_map(&indices, |&i| {
        let quota = quotas[i];
        if quota == 0 {
            return Vec::new();
        }
        let len = data.shard_len(i);
        let mut rng = StdRng::seed_from_u64(shard_seed(seed, i));
        let mut buf = rand::seq::index::IndexBuffer::new();
        if quota >= len {
            buf.fill_sequential(len);
        } else {
            rand::seq::index::sample_into(&mut rng, len, quota, &mut buf);
        }
        let offset = data.shard_offset(i);
        buf.as_slice().iter().map(|&x| offset + x).collect()
    });
    for indices in per_shard {
        out.extend(indices);
    }
    Ok(())
}

/// A cohort stored as fixed-size shards, each a contiguous columnar block —
/// the in-memory [`ShardSource`].
///
/// All rows except possibly the final shard's hold exactly
/// [`ShardedDataset::shard_size`] rows; the final shard holds the remainder.
/// Global row order is shard order, so flattening the shards
/// ([`ShardedDataset::to_dataset`]) reproduces the original insertion order.
#[derive(Debug, Clone)]
pub struct ShardedDataset {
    schema: SchemaRef,
    shard_size: usize,
    shards: Vec<Dataset>,
    len: usize,
}

impl ShardedDataset {
    /// Create an empty sharded dataset with the given shard size.
    ///
    /// # Errors
    /// Returns [`FairError::InvalidConfig`] if `shard_size == 0`.
    pub fn with_shard_size(schema: SchemaRef, shard_size: usize) -> Result<Self> {
        if shard_size == 0 {
            return Err(FairError::InvalidConfig {
                reason: "shard size must be positive".into(),
            });
        }
        Ok(Self {
            schema,
            shard_size,
            shards: Vec::new(),
            len: 0,
        })
    }

    /// Create an empty sharded dataset with the environment-resolved
    /// [`default_shard_size`].
    #[must_use]
    pub fn new(schema: SchemaRef) -> Self {
        Self::with_shard_size(schema, default_shard_size())
            .expect("the default shard size is positive")
    }

    /// Build a sharded dataset from owned objects.
    ///
    /// # Errors
    /// Returns [`FairError::InvalidConfig`] if `shard_size == 0`, or a
    /// dimension error if any object's vectors do not match the schema.
    pub fn from_objects(
        schema: SchemaRef,
        objects: Vec<DataObject>,
        shard_size: usize,
    ) -> Result<Self> {
        let mut this = Self::with_shard_size(schema, shard_size)?;
        for o in objects {
            this.push(o)?;
        }
        Ok(this)
    }

    /// Re-shard an existing contiguous dataset (copies the rows).
    ///
    /// # Errors
    /// Returns [`FairError::InvalidConfig`] if `shard_size == 0`.
    pub fn from_dataset(dataset: &Dataset, shard_size: usize) -> Result<Self> {
        if shard_size == 0 {
            return Err(FairError::InvalidConfig {
                reason: "shard size must be positive".into(),
            });
        }
        let schema = dataset.schema().clone();
        let n = dataset.len();
        let mut shards = Vec::with_capacity(n.div_ceil(shard_size));
        let mut start = 0;
        while start < n {
            let end = (start + shard_size).min(n);
            let indices: Vec<usize> = (start..end).collect();
            shards.push(dataset.subset(&indices));
            start = end;
        }
        Ok(Self {
            schema,
            shard_size,
            shards,
            len: n,
        })
    }

    /// The shared schema.
    #[must_use]
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// The configured rows-per-shard.
    #[must_use]
    pub fn shard_size(&self) -> usize {
        self.shard_size
    }

    /// Total number of rows across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the dataset holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// View of shard `i` — a zero-cost borrow of the resident block.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn shard(&self, i: usize) -> ShardView<'_> {
        ShardView {
            index: i,
            offset: i * self.shard_size,
            data: &self.shards[i],
        }
    }

    /// Iterate over all shards in order.
    pub fn shards(&self) -> impl Iterator<Item = ShardView<'_>> + '_ {
        (0..self.num_shards()).map(move |i| self.shard(i))
    }

    /// Split a global row index into `(shard index, shard-local row index)`.
    ///
    /// # Panics
    /// Panics if `global` is out of bounds.
    #[must_use]
    pub fn locate(&self, global: usize) -> (usize, usize) {
        assert!(
            global < self.len,
            "row {global} out of bounds ({})",
            self.len
        );
        (global / self.shard_size, global % self.shard_size)
    }

    /// Zero-copy view of the row at `global` index (insertion order).
    ///
    /// # Panics
    /// Panics if `global` is out of bounds.
    #[must_use]
    pub fn row(&self, global: usize) -> ObjectView<'_> {
        let (s, local) = self.locate(global);
        self.shards[s].row(local)
    }

    /// The fairness row at `global` index.
    ///
    /// # Panics
    /// Panics if `global` is out of bounds.
    #[must_use]
    pub fn fairness_row(&self, global: usize) -> &[f64] {
        let (s, local) = self.locate(global);
        self.shards[s].fairness_row(local)
    }

    /// The feature row at `global` index.
    ///
    /// # Panics
    /// Panics if `global` is out of bounds.
    #[must_use]
    pub fn feature_row(&self, global: usize) -> &[f64] {
        let (s, local) = self.locate(global);
        self.shards[s].feature_row(local)
    }

    /// Iterate over all rows in global order.
    pub fn iter(&self) -> impl Iterator<Item = ObjectView<'_>> + '_ {
        self.shards().flat_map(|s| {
            let d = s.data();
            (0..d.len()).map(move |i| d.row(i))
        })
    }

    /// Append a row, opening a new shard when the last one is full.
    ///
    /// # Errors
    /// Returns an error if the object's vectors do not match the schema.
    pub fn push(&mut self, object: DataObject) -> Result<()> {
        // Validate before touching the shard list, so a rejected object can
        // never leave an empty trailing shard behind.
        if object.features().len() != self.schema.num_features() {
            return Err(FairError::DimensionMismatch {
                what: "feature vector",
                expected: self.schema.num_features(),
                actual: object.features().len(),
            });
        }
        if object.fairness().len() != self.schema.num_fairness() {
            return Err(FairError::DimensionMismatch {
                what: "fairness vector",
                expected: self.schema.num_fairness(),
                actual: object.fairness().len(),
            });
        }
        let open = matches!(self.shards.last(), Some(last) if last.len() < self.shard_size);
        if !open {
            self.shards.push(Dataset::with_capacity(
                self.schema.clone(),
                self.shard_size.min(1 << 20),
            ));
        }
        let shard = self.shards.last_mut().expect("a shard was just ensured");
        shard.push(object)?;
        self.len += 1;
        Ok(())
    }

    /// Flatten the shards back into one contiguous [`Dataset`]
    /// (rows in global order). Intended for interop and tests.
    #[must_use]
    pub fn to_dataset(&self) -> Dataset {
        let mut out = Dataset::with_capacity(self.schema.clone(), self.len);
        for view in self.iter() {
            out.push(view.to_object())
                .expect("rows of a sharded dataset match its schema");
        }
        out
    }
}

impl ShardSource for ShardedDataset {
    fn schema(&self) -> &SchemaRef {
        ShardedDataset::schema(self)
    }

    fn len(&self) -> usize {
        ShardedDataset::len(self)
    }

    fn shard_size(&self) -> usize {
        ShardedDataset::shard_size(self)
    }

    fn num_shards(&self) -> usize {
        ShardedDataset::num_shards(self)
    }

    fn with_shard<T>(&self, index: usize, f: impl FnOnce(ShardView<'_>) -> T) -> T {
        f(self.shard(index))
    }
}

/// Derive the RNG seed of shard `index` from the base `seed`: a
/// SplitMix64-style mix so per-shard streams are decorrelated but fully
/// determined by `(seed, index)`.
#[must_use]
pub fn shard_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::Schema;

    fn schema() -> SchemaRef {
        Schema::from_names(&["score"], &["g"], &[]).unwrap()
    }

    fn objects(n: u64) -> Vec<DataObject> {
        (0..n)
            .map(|i| {
                DataObject::new_unchecked(
                    i,
                    vec![i as f64],
                    vec![f64::from(u8::from(i % 3 == 0))],
                    Some(i % 2 == 0),
                )
            })
            .collect()
    }

    #[test]
    fn sharding_splits_rows_with_a_short_final_shard() {
        let d = ShardedDataset::from_objects(schema(), objects(23), 7).unwrap();
        assert_eq!(d.len(), 23);
        assert_eq!(d.num_shards(), 4);
        assert_eq!(d.shard(0).len(), 7);
        assert_eq!(d.shard(3).len(), 2, "non-divisible final shard");
        assert_eq!(d.shard(2).offset(), 14);
        assert_eq!(d.shard(1).global_index(3), 10);
        assert!(!d.shard(0).is_empty());
        // Layout arithmetic agrees with the materialized shards.
        assert_eq!(d.shard_len(0), 7);
        assert_eq!(d.shard_len(3), 2);
        assert_eq!(d.shard_offset(2), 14);
    }

    #[test]
    fn global_rows_match_flat_dataset() {
        let objs = objects(23);
        let flat = Dataset::new(schema(), objs.clone()).unwrap();
        let sharded = ShardedDataset::from_objects(schema(), objs, 7).unwrap();
        for i in 0..flat.len() {
            assert_eq!(sharded.row(i), flat.row(i), "row {i}");
            sharded.with_row(i, |r| assert_eq!(r, flat.row(i)));
        }
        assert_eq!(sharded.iter().count(), flat.len());
        let back = sharded.to_dataset();
        assert_eq!(back.len(), flat.len());
        assert_eq!(back.row(22), flat.row(22));
    }

    #[test]
    fn from_dataset_reshards_identically() {
        let flat = Dataset::new(schema(), objects(23)).unwrap();
        let sharded = ShardedDataset::from_dataset(&flat, 5).unwrap();
        assert_eq!(sharded.num_shards(), 5);
        for i in 0..flat.len() {
            assert_eq!(sharded.row(i), flat.row(i));
        }
        assert_eq!(sharded.feature_row(13), flat.feature_row(13));
        assert_eq!(sharded.fairness_row(13), flat.fairness_row(13));
    }

    #[test]
    fn centroid_matches_serial_for_binary_attributes() {
        let flat = Dataset::new(schema(), objects(23)).unwrap();
        for size in [1, 7, 23, 1000] {
            let sharded = ShardedDataset::from_dataset(&flat, size).unwrap();
            assert_eq!(
                sharded.fairness_centroid().unwrap(),
                flat.fairness_centroid().unwrap(),
                "shard size {size}"
            );
        }
    }

    #[test]
    fn group_stats_match_serial() {
        let flat = Dataset::new(schema(), objects(23)).unwrap();
        let sharded = ShardedDataset::from_dataset(&flat, 4).unwrap();
        assert_eq!(sharded.group_frequency(0), flat.group_frequency(0));
        assert_eq!(sharded.group_frequency(9), 0.0);
        assert_eq!(
            sharded.rarest_group_frequency(),
            flat.rarest_group_frequency()
        );
        assert!(sharded.fully_labelled());
    }

    #[test]
    fn reduce_shards_folds_in_shard_order() {
        let d = ShardedDataset::from_objects(schema(), objects(10), 3).unwrap();
        let order = d.reduce_shards(
            Vec::new(),
            |s| s.index(),
            |mut acc, i| {
                acc.push(i);
                acc
            },
        );
        assert_eq!(order, vec![0, 1, 2, 3]);
        let lens = d.map_shards(|s| s.len());
        assert_eq!(lens, vec![3, 3, 3, 1]);
    }

    #[test]
    fn stratified_sample_is_deterministic_and_in_range() {
        let d = ShardedDataset::from_objects(schema(), objects(100), 9).unwrap();
        let mut a = Vec::new();
        let mut b = Vec::new();
        d.sample_indices_into(42, 30, &mut a).unwrap();
        d.sample_indices_into(42, 30, &mut b).unwrap();
        assert_eq!(a, b, "same seed, same sample");
        assert_eq!(a.len(), 30);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 30, "no duplicates");
        assert!(a.iter().all(|&i| i < 100));
        let mut c = Vec::new();
        d.sample_indices_into(43, 30, &mut c).unwrap();
        assert_ne!(a, c, "different seed, different sample");
    }

    #[test]
    fn sample_quotas_are_proportional() {
        let d = ShardedDataset::from_objects(schema(), objects(100), 25).unwrap();
        let mut out = Vec::new();
        d.sample_indices_into(7, 40, &mut out).unwrap();
        // 4 equal shards of 25 rows each must contribute exactly 10 apiece.
        for s in 0..4 {
            let in_shard = out
                .iter()
                .filter(|&&i| i >= s * 25 && i < (s + 1) * 25)
                .count();
            assert_eq!(in_shard, 10, "shard {s}");
        }
    }

    #[test]
    fn range_sampler_slices_concatenate_to_the_global_sample() {
        let d = ShardedDataset::from_objects(schema(), objects(101), 9).unwrap();
        let shards = d.num_shards();
        let mut whole = Vec::new();
        d.sample_indices_into(42, 37, &mut whole).unwrap();
        // Every split of the shard space, including degenerate empty ranges.
        for cut_a in 0..=shards {
            for cut_b in cut_a..=shards {
                let mut concat = Vec::new();
                for range in [0..cut_a, cut_a..cut_b, cut_b..shards] {
                    let mut part = Vec::new();
                    sample_indices_range_into(&d, 42, 37, range, &mut part).unwrap();
                    concat.extend(part);
                }
                assert_eq!(concat, whole, "split at {cut_a}/{cut_b}");
            }
        }
        // The oversized-sample branch slices the same way.
        let mut whole = Vec::new();
        d.sample_indices_into(1, 500, &mut whole).unwrap();
        let mut concat = Vec::new();
        for range in [0..3, 3..shards] {
            let mut part = Vec::new();
            sample_indices_range_into(&d, 1, 500, range, &mut part).unwrap();
            concat.extend(part);
        }
        assert_eq!(concat, whole, "oversized sample");
    }

    #[test]
    fn range_sampler_rejects_bad_ranges_and_inputs() {
        let d = ShardedDataset::from_objects(schema(), objects(20), 4).unwrap();
        let mut out = Vec::new();
        assert!(sample_indices_range_into(&d, 1, 5, 0..99, &mut out).is_err());
        #[allow(clippy::reversed_empty_ranges)]
        {
            assert!(sample_indices_range_into(&d, 1, 5, 3..1, &mut out).is_err());
        }
        assert!(sample_indices_range_into(&d, 1, 0, 0..1, &mut out).is_err());
        let empty = ShardedDataset::with_shard_size(schema(), 4).unwrap();
        assert!(matches!(
            sample_indices_range_into(&empty, 1, 5, 0..0, &mut out),
            Err(FairError::EmptyDataset)
        ));
    }

    #[test]
    fn oversized_sample_returns_every_row() {
        let d = ShardedDataset::from_objects(schema(), objects(10), 3).unwrap();
        let mut out = Vec::new();
        d.sample_indices_into(1, 99, &mut out).unwrap();
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn sample_errors_match_dataset_semantics() {
        let empty = ShardedDataset::with_shard_size(schema(), 4).unwrap();
        let mut out = Vec::new();
        assert!(matches!(
            empty.sample_indices_into(1, 5, &mut out),
            Err(FairError::EmptyDataset)
        ));
        let d = ShardedDataset::from_objects(schema(), objects(10), 3).unwrap();
        assert!(d.sample_indices_into(1, 0, &mut out).is_err());
        assert!(matches!(
            empty.fairness_centroid(),
            Err(FairError::EmptyDataset)
        ));
    }

    #[test]
    fn push_validates_and_opens_shards() {
        let mut d = ShardedDataset::with_shard_size(schema(), 2).unwrap();
        for o in objects(5) {
            d.push(o).unwrap();
        }
        assert_eq!(d.num_shards(), 3);
        let bad = DataObject::new_unchecked(9, vec![1.0, 2.0], vec![0.0], None);
        assert!(d.push(bad).is_err());
        assert_eq!(d.len(), 5, "failed push must not change the length");
    }

    #[test]
    fn rejected_push_never_opens_an_empty_trailing_shard() {
        // Fill shards exactly (4 rows, shard size 2), then push a
        // schema-mismatched object: the shard layout must be untouched.
        let mut d = ShardedDataset::from_objects(schema(), objects(4), 2).unwrap();
        assert_eq!(d.num_shards(), 2);
        let bad_features = DataObject::new_unchecked(9, vec![1.0, 2.0], vec![0.0], None);
        assert!(d.push(bad_features).is_err());
        let bad_fairness = DataObject::new_unchecked(9, vec![1.0], vec![0.0, 1.0], None);
        assert!(d.push(bad_fairness).is_err());
        assert_eq!(d.num_shards(), 2, "no empty shard may be opened");
        assert_eq!(d.len(), 4);
        assert!(d.shards().all(|s| !s.is_empty()));
    }

    #[test]
    fn shard_seed_is_stable_and_decorrelated() {
        assert_eq!(shard_seed(7, 3), shard_seed(7, 3));
        assert_ne!(shard_seed(7, 3), shard_seed(7, 4));
        assert_ne!(shard_seed(7, 3), shard_seed(8, 3));
    }

    #[test]
    fn default_shard_size_is_positive() {
        assert!(default_shard_size() > 0);
    }

    #[test]
    fn zero_shard_size_is_a_structured_error() {
        // Regression: every shard-size-taking constructor must reject 0 with
        // FairError::InvalidConfig instead of panicking.
        assert!(matches!(
            ShardedDataset::with_shard_size(schema(), 0),
            Err(FairError::InvalidConfig { .. })
        ));
        let flat = Dataset::new(schema(), objects(5)).unwrap();
        assert!(matches!(
            ShardedDataset::from_dataset(&flat, 0),
            Err(FairError::InvalidConfig { .. })
        ));
        assert!(matches!(
            ShardedDataset::from_objects(schema(), objects(5), 0),
            Err(FairError::InvalidConfig { .. })
        ));
        let err = ShardedDataset::with_shard_size(schema(), 0).unwrap_err();
        assert!(err.to_string().contains("shard size"), "{err}");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_row_panics() {
        let d = ShardedDataset::from_objects(schema(), objects(5), 2).unwrap();
        let _ = d.row(5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_shard_len_panics() {
        let d = ShardedDataset::from_objects(schema(), objects(5), 2).unwrap();
        let _ = d.shard_len(3);
    }
}
