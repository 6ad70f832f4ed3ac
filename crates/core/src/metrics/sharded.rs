//! Whole-cohort metric evaluation on the shard-wise parallel engine, on one
//! node or split across a fleet.
//!
//! Every function here is the sharded counterpart of a serial metric in this
//! module's siblings, decomposed into **per-shard kernels plus an ordered
//! combine** on the [`ShardSource`] engine — so the same code path serves
//! the in-memory [`crate::shard::ShardedDataset`] and the out-of-core
//! `fair_store::ShardStore`:
//!
//! 1. *score* — one per-shard scoring sweep, the same one
//!    [`crate::ranking::sharded::effective_scores`] runs (embarrassingly
//!    parallel, bit-for-bit the serial scores),
//! 2. *select* — per-shard partial top-`m` merged under the serial strict
//!    total order ([`crate::ranking::sharded::top_m`]), so the selected set
//!    and order are exactly the full sort's,
//! 3. *measure* — integer count reductions (exact for every shard size) or
//!    per-shard partial sums combined in shard order (bit-for-bit for
//!    binary/dyadic fairness values, reassociation-ulp-deterministic
//!    otherwise); selection centroids are accumulated serially in rank order,
//!    exactly as the serial metrics do.
//!
//! Unlike the serial metrics, which take a pre-built
//! [`RankedSelection`](crate::ranking::RankedSelection), these functions are
//! end-to-end: they take the ranker and bonus vector and perform scoring,
//! selection and measurement through the engine, because on large cohorts the
//! full sort the serial callers pre-pay is precisely the cost being removed.
//!
//! [`MetricPlan`] runs all three phases on one node. A fleet splits the
//! disparity metric: workers run [`disparity_partials`] (the scoring sweep
//! and a range-wide pre-selection) and the coordinator runs
//! [`combine_disparity_partials`] (the final selection and measurement).
//! Both halves call the plan's own sweep, keep-best selection and centroid
//! steps, so a combined fleet disparity is bit-identical to the plan's.

use crate::dca::scratch::EvalScratch;
use crate::error::{FairError, Result};
use crate::metrics::LogDiscountConfig;
use crate::parallel::parallel_map;
use crate::ranking::sharded::{
    descending_key, keep_best, keyed, prune_best, sweep_shard, top_m, SweepNeeds,
};
use crate::ranking::topk::selection_size;
use crate::ranking::Ranker;
use crate::shard::ShardSource;
use std::ops::Range;

/// Scratch buffers reused across sharded metric evaluations (scores,
/// selection, mask, and the paged-source column retention of
/// [`MetricPlan`]), so repeated evaluation — the sharded full-DCA loop —
/// avoids re-allocating cohort-sized vectors.
#[derive(Debug, Clone, Default)]
pub struct ShardedEvalScratch {
    /// Effective scores, global row order.
    pub(crate) scores: Vec<f64>,
    /// Base (zero-bonus) scores, global row order — filled only when the
    /// plan includes nDCG.
    pub(crate) base: Vec<f64>,
    /// Global top-k selection mask.
    pub(crate) mask: Vec<bool>,
    /// `(shard, rank)` pairs of the selection, sorted by shard — the
    /// shard-sequential gather plan.
    pub(crate) order: Vec<(usize, usize)>,
    /// Gathered fairness rows of the selection, in rank order.
    pub(crate) gathered: Vec<f64>,
    /// Fairness rows of the whole cohort, retained **per shard** during a
    /// paged-source sweep so measurement never re-pages a shard. The
    /// per-shard buffers are moved out of the sweep results as-is — never
    /// concatenated — and indexed through [`Retained`].
    pub(crate) fairness: Vec<Vec<f64>>,
    /// Labels retained per shard during a paged-source sweep (FPR metrics
    /// only).
    pub(crate) labels: Vec<Vec<Option<bool>>>,
}

/// Row lookup over the per-shard columns a paged-source sweep retained:
/// global row `p` lives in shard `p / shard_size` at row `p % shard_size`.
/// Avoiding the flat concatenation saves a second cohort-sized copy of the
/// fairness matrix per evaluation.
struct Retained<'a> {
    fairness: &'a [Vec<f64>],
    labels: &'a [Vec<Option<bool>>],
    shard_size: usize,
    dims: usize,
}

impl<'a> Retained<'a> {
    fn row(&self, p: usize) -> &'a [f64] {
        let off = (p % self.shard_size) * self.dims;
        &self.fairness[p / self.shard_size][off..off + self.dims]
    }
}

impl ShardedEvalScratch {
    /// Empty scratch; buffers grow on first use and are retained.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Copy the fairness rows at `positions` (global indices) into the dense
/// `positions.len() × num_fairness` buffer `gathered`, **visiting each shard
/// exactly once** ([`crate::shard::for_each_shard_run`]) — positions land in
/// rank order, which hops shards arbitrarily, so a caching out-of-core
/// source would otherwise re-page a shard per row. Only the copy is
/// regrouped; `gathered` is laid out in the given position order, so callers
/// accumulate in exactly the serial order (bit-for-bit) while the storage
/// layer sees a shard-sequential access pattern. `order` and `gathered` are
/// caller-owned so the DCA hot loop reuses them across steps.
fn gather_fairness_rows_into<S: ShardSource + ?Sized>(
    data: &S,
    positions: &[usize],
    order: &mut Vec<(usize, usize)>,
    gathered: &mut Vec<f64>,
) {
    let dims = data.schema().num_fairness();
    gathered.clear();
    gathered.resize(positions.len() * dims, 0.0);
    // (shard, rank) pairs sorted by shard: one with_shard per distinct shard.
    order.clear();
    order.extend(
        positions
            .iter()
            .enumerate()
            .map(|(rank, &p)| (p / data.shard_size(), rank)),
    );
    order.sort_unstable();
    crate::shard::for_each_shard_run(
        data,
        order,
        |t| t.0,
        |view, run| {
            let d = view.data();
            for &(_, rank) in run {
                let local = positions[rank] - view.offset();
                gathered[rank * dims..(rank + 1) * dims].copy_from_slice(d.fairness_row(local));
            }
        },
    );
}

/// The cohort's fairness centroid (`D_O` of Definition 3) from per-shard
/// column sums: folded in ascending shard order, divided once — exactly
/// [`ShardSource::fairness_centroid`]. An empty per-shard sum adds nothing.
fn population_centroid<'a>(
    dims: usize,
    rows: usize,
    shard_sums: impl Iterator<Item = &'a [f64]>,
) -> Vec<f64> {
    let mut sums = vec![0.0_f64; dims];
    for partial in shard_sums {
        crate::kernel::add_row(&mut sums, partial);
    }
    sums.iter().map(|s| s / rows as f64).collect()
}

/// Disparity of a selection (Definition 3) into `out`: the fairness rows of
/// ranks `0..selected`, lent by `row`, summed in rank order by the canonical
/// kernel walk and divided once, minus the population centroid `pop`. The
/// plan's retained and gathered paths and the fleet combine all end here.
fn selection_disparity<'a>(
    pop: &[f64],
    selected: usize,
    row: impl Fn(usize) -> &'a [f64],
    out: &mut Vec<f64>,
) {
    let dims = pop.len();
    out.clear();
    out.resize(dims, 0.0);
    if dims > 0 {
        crate::kernel::col_sums_rows_into(dims, (0..selected).map(row), out);
    }
    for a in out.iter_mut() {
        *a /= selected as f64;
    }
    for (s, a) in out.iter_mut().zip(pop) {
        *s -= a;
    }
}

// ---------------------------------------------------------------------
// The audit planner: every requested metric in one paged sweep.
// ---------------------------------------------------------------------

/// The closed set of whole-cohort audit metrics a [`MetricPlan`] can
/// evaluate. Names are the wire names the audit service accepts — a closed
/// static lookup, so no dynamic metric name ever needs to be materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// Selection-centroid disparity at `k` ([`disparity_at_k`]).
    Disparity,
    /// nDCG of the adjusted ranking against the original ([`ndcg_at_k`]).
    Ndcg,
    /// Logarithmically discounted disparity ([`log_discounted_disparity`]).
    LogDiscounted,
    /// FPR-difference vector at `k` ([`fpr_difference_at_k`]).
    FprDifference,
    /// Signed scaled disparate impact at `k`
    /// ([`scaled_disparate_impact_at_k`]).
    DisparateImpact,
}

impl MetricKind {
    /// Every metric, in canonical order.
    pub const ALL: [Self; 5] = [
        Self::Disparity,
        Self::Ndcg,
        Self::LogDiscounted,
        Self::FprDifference,
        Self::DisparateImpact,
    ];

    /// The static wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Disparity => "disparity",
            Self::Ndcg => "ndcg",
            Self::LogDiscounted => "log_discounted",
            Self::FprDifference => "fpr_difference",
            Self::DisparateImpact => "disparate_impact",
        }
    }

    /// Parse a wire name; `None` for anything outside the closed set.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|kind| kind.name() == name)
    }
}

/// One evaluated metric: per-fairness-dimension vector or scalar.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A single number (nDCG).
    Scalar(f64),
    /// One value per fairness dimension.
    Vector(Vec<f64>),
}

impl MetricValue {
    /// The scalar payload, if this is a scalar metric.
    #[must_use]
    pub fn as_scalar(&self) -> Option<f64> {
        match self {
            Self::Scalar(v) => Some(*v),
            Self::Vector(_) => None,
        }
    }

    /// The vector payload, if this is a vector metric.
    #[must_use]
    pub fn as_vector(&self) -> Option<&[f64]> {
        match self {
            Self::Scalar(_) => None,
            Self::Vector(v) => Some(v),
        }
    }
}

/// The result of one plan evaluation: `(kind, value)` pairs in plan order.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricReport {
    values: Vec<(MetricKind, MetricValue)>,
}

impl MetricReport {
    /// The evaluated `(kind, value)` pairs, in plan order.
    #[must_use]
    pub fn values(&self) -> &[(MetricKind, MetricValue)] {
        &self.values
    }

    /// The value for `kind`, if the plan included it.
    #[must_use]
    pub fn get(&self, kind: MetricKind) -> Option<&MetricValue> {
        self.values.iter().find(|(k, _)| *k == kind).map(|(_, v)| v)
    }

    /// Consume the report, yielding the `(kind, value)` pairs in plan order.
    #[must_use]
    pub fn into_values(self) -> Vec<(MetricKind, MetricValue)> {
        self.values
    }

    /// Remove and return the value for `kind`.
    fn take(&mut self, kind: MetricKind) -> Option<MetricValue> {
        let at = self.values.iter().position(|(k, _)| *k == kind)?;
        Some(self.values.remove(at).1)
    }
}

/// An audit plan: the set of metrics to evaluate together at one `k`.
///
/// Evaluation runs **one** [`ShardSource::map_shards`] sweep for the whole
/// request: the per-shard kernel computes every column-derived quantity any
/// requested metric needs (base and effective scores, population fairness
/// sums) and — on paged sources ([`ShardSource::paged`]) — retains the
/// fairness/label columns, so the storage layer pages each shard exactly
/// once no matter how many metrics are requested. Selection then runs on the
/// score vectors alone (pure layout arithmetic, nothing paged), and each
/// metric's measurement phase reuses the shared selection and retained
/// columns. Every value is bit-for-bit identical to the corresponding
/// standalone sharded metric function — which are themselves thin
/// single-metric plans.
#[derive(Debug, Clone)]
pub struct MetricPlan {
    kinds: Vec<MetricKind>,
    k: f64,
    log: LogDiscountConfig,
}

impl MetricPlan {
    /// Plan the given metrics at selection fraction `k`, deduplicated while
    /// preserving first-occurrence order. The log-discount configuration
    /// defaults to [`LogDiscountConfig::default`]; see
    /// [`Self::with_log_config`].
    #[must_use]
    pub fn new(kinds: &[MetricKind], k: f64) -> Self {
        let mut dedup = Vec::with_capacity(kinds.len().min(MetricKind::ALL.len()));
        for &kind in kinds {
            if !dedup.contains(&kind) {
                dedup.push(kind);
            }
        }
        Self {
            kinds: dedup,
            k,
            log: LogDiscountConfig::default(),
        }
    }

    /// Replace the log-discount configuration used by
    /// [`MetricKind::LogDiscounted`].
    #[must_use]
    pub fn with_log_config(mut self, config: LogDiscountConfig) -> Self {
        self.log = config;
        self
    }

    /// The planned metrics, deduplicated, in first-occurrence order.
    #[must_use]
    pub fn kinds(&self) -> &[MetricKind] {
        &self.kinds
    }

    /// Evaluate the plan with fresh scratch buffers.
    ///
    /// # Errors
    /// Returns an error on an empty dataset, an invalid `k` (only when a
    /// selection metric is planned), an invalid log-discount configuration
    /// (only when the log metric is planned), or missing labels (only when
    /// the FPR metric is planned).
    pub fn evaluate<S: ShardSource + ?Sized, R: Ranker + ?Sized>(
        &self,
        data: &S,
        ranker: &R,
        bonus: &[f64],
    ) -> Result<MetricReport> {
        self.evaluate_with(data, ranker, bonus, &mut ShardedEvalScratch::new())
    }

    /// [`Self::evaluate`] reusing caller-provided scratch buffers.
    ///
    /// # Errors
    /// As [`Self::evaluate`].
    ///
    /// # Panics
    /// Panics if `bonus.len()` differs from the schema's fairness
    /// dimensionality (the scoring-kernel contract).
    pub fn evaluate_with<S: ShardSource + ?Sized, R: Ranker + ?Sized>(
        &self,
        data: &S,
        ranker: &R,
        bonus: &[f64],
        scratch: &mut ShardedEvalScratch,
    ) -> Result<MetricReport> {
        let has = |kind| self.kinds.contains(&kind);
        let want_disparity = has(MetricKind::Disparity);
        let want_ndcg = has(MetricKind::Ndcg);
        let want_log = has(MetricKind::LogDiscounted);
        let want_fpr = has(MetricKind::FprDifference);
        let want_di = has(MetricKind::DisparateImpact);
        // Validation, in the standalone metrics' order: the log config
        // before the empty check, `k` only when a selection metric needs it.
        if want_log {
            self.log.validate()?;
        }
        if self.kinds.is_empty() {
            return Ok(MetricReport { values: Vec::new() });
        }
        if data.is_empty() {
            return Err(FairError::EmptyDataset);
        }
        let need_counts = want_fpr || want_di;
        let need_selected = want_disparity || want_ndcg || need_counts;
        let count = if need_selected {
            selection_size(data.len(), self.k)?
        } else {
            0
        };
        let checkpoints = if want_log {
            self.log.checkpoints(data.len())
        } else {
            Vec::new()
        };
        let log_last = checkpoints.last().copied().unwrap_or(0);

        let dims = data.schema().num_fairness();
        let need_pop = want_disparity || want_log;
        let need_fairness = want_disparity || want_log || need_counts;
        // Paged sources retain the measurement columns during the sweep so
        // nothing below re-pages a shard; in-memory sources re-walk shards
        // for free and skip the copies. Both paths are bit-identical.
        let retain = data.paged() && need_fairness;
        let retain_labels = data.paged() && want_fpr;

        assert_eq!(bonus.len(), dims, "bonus vector dimensionality mismatch");

        // --- Phase 1: the one combined sweep — the same per-shard kernel
        // `effective_scores` and the fleet partials run, so every derived
        // quantity is bit-for-bit theirs.
        let needs = SweepNeeds {
            base: want_ndcg,
            fair_sums: need_pop,
            fairness: retain,
            labels: retain_labels,
        };
        let per_shard = data.map_shards(|shard| sweep_shard(shard.data(), ranker, bonus, needs));

        // Deterministic in-order combine.
        let pop = population_centroid(
            dims,
            data.len(),
            per_shard.iter().map(|shard| &shard.fair_sums[..]),
        );
        scratch.scores.clear();
        scratch.scores.reserve(data.len());
        scratch.base.clear();
        if want_ndcg {
            scratch.base.reserve(data.len());
        }
        scratch.fairness.clear();
        scratch.labels.clear();
        for shard in per_shard {
            scratch.scores.extend_from_slice(&shard.scores);
            scratch.base.extend_from_slice(&shard.base);
            if retain {
                scratch.fairness.push(shard.fairness);
            }
            if retain_labels {
                scratch.labels.push(shard.labels);
            }
        }

        // --- Phase 2: shared selection — score vectors and shard layout
        // only, nothing paged. One top-`count` serves disparity, the rate
        // metrics, and nDCG's measured prefix (identical inputs, identical
        // canonical output).
        // The log-discounted prefix and the top-`count` selection are both
        // prefixes of the same canonical ranking (top_m of a larger count
        // starts with top_m of a smaller one, bit for bit), so one partial
        // selection at the larger cutoff serves both.
        let take = count.max(log_last);
        let ranked = if take > 0 {
            top_m(data, &scratch.scores, take)
        } else {
            Vec::new()
        };
        let selected = &ranked[..count];

        // --- Phase 3: per-metric measurement from the shared intermediates.
        let retained = Retained {
            fairness: &scratch.fairness,
            labels: &scratch.labels,
            shard_size: data.shard_size(),
            dims,
        };
        let mut counts: Option<GroupCounts> = None;
        if need_counts {
            scratch.mask.clear();
            scratch.mask.resize(data.len(), false);
            for &p in selected {
                scratch.mask[p] = true;
            }
            counts = Some(if retain {
                tally_retained(&retained, &scratch.mask, want_fpr)?
            } else {
                tally_counts(data, &scratch.mask, want_fpr)?
            });
        }

        let mut values = Vec::with_capacity(self.kinds.len());
        for &kind in &self.kinds {
            let value = match kind {
                MetricKind::Disparity => {
                    if selected.is_empty() {
                        return Err(FairError::EmptyDataset);
                    }
                    let mut out = Vec::new();
                    if retain {
                        selection_disparity(
                            &pop,
                            selected.len(),
                            |rank| retained.row(selected[rank]),
                            &mut out,
                        );
                    } else {
                        gather_fairness_rows_into(
                            data,
                            selected,
                            &mut scratch.order,
                            &mut scratch.gathered,
                        );
                        let gathered = &scratch.gathered;
                        selection_disparity(
                            &pop,
                            selected.len(),
                            |rank| &gathered[rank * dims..(rank + 1) * dims],
                            &mut out,
                        );
                    }
                    MetricValue::Vector(out)
                }
                MetricKind::Ndcg => {
                    // Same non-negativity shift as the serial metric,
                    // computed in the same left-to-right order.
                    let min = scratch.base.iter().copied().fold(f64::INFINITY, f64::min);
                    let shift = if min < 0.0 { -min } else { 0.0 };
                    let original = top_m(data, &scratch.base, count);
                    let ideal_weights: Vec<f64> =
                        original.iter().map(|&p| scratch.base[p] + shift).collect();
                    let measured_weights: Vec<f64> =
                        selected.iter().map(|&p| scratch.base[p] + shift).collect();
                    let ideal = crate::metrics::dcg(&ideal_weights);
                    MetricValue::Scalar(if ideal == 0.0 {
                        1.0
                    } else {
                        (crate::metrics::dcg(&measured_weights) / ideal).clamp(0.0, 1.0)
                    })
                }
                MetricKind::LogDiscounted => {
                    // The shared canonical ranking already extends to the
                    // last checkpoint.
                    let prefix = &ranked[..log_last];
                    if !retain {
                        // One shard-sequential gather for the whole ranked
                        // prefix, exactly like the standalone metric.
                        gather_fairness_rows_into(
                            data,
                            prefix,
                            &mut scratch.order,
                            &mut scratch.gathered,
                        );
                    }
                    let row = |rank: usize| -> &[f64] {
                        if retain {
                            retained.row(prefix[rank])
                        } else {
                            &scratch.gathered[rank * dims..(rank + 1) * dims]
                        }
                    };
                    let mut out = vec![0.0; dims];
                    let mut running = vec![0.0; dims];
                    let mut consumed = 0_usize;
                    let mut z = 0.0;
                    let mut empty = false;
                    for &cnt in &checkpoints {
                        debug_assert!(cnt >= consumed, "checkpoints must be increasing");
                        let weight = 1.0 / ((cnt as f64) + 1.0).log2();
                        for rank in consumed..cnt {
                            // Sequential prefix accumulation (element-wise,
                            // order-free) — parity with the serial metric.
                            crate::kernel::add_row(&mut running, row(rank));
                        }
                        consumed = cnt;
                        if cnt == 0 {
                            empty = true;
                            break;
                        }
                        for ((o, r), a) in out.iter_mut().zip(&running).zip(&pop) {
                            *o += weight * (r / cnt as f64 - a);
                        }
                        z += weight;
                    }
                    if empty {
                        return Err(FairError::EmptyDataset);
                    }
                    if z > 0.0 {
                        for a in out.iter_mut() {
                            *a /= z;
                        }
                    }
                    MetricValue::Vector(out)
                }
                MetricKind::FprDifference => {
                    let counts = counts.as_ref().expect("counts tallied");
                    let (per_group, overall) = fpr_rates(counts, dims);
                    MetricValue::Vector(per_group.into_iter().map(|f| f - overall).collect())
                }
                MetricKind::DisparateImpact => {
                    let counts = counts.as_ref().expect("counts tallied");
                    MetricValue::Vector(disparate_impact_from_counts(counts, dims))
                }
            };
            values.push((kind, value));
        }
        Ok(MetricReport { values })
    }
}

/// Disparity of the top-`k` selection (Definition 3): selection centroid
/// minus population centroid, the population side reduced shard-wise. A thin
/// single-metric [`MetricPlan`].
///
/// # Errors
/// Returns an error on an empty dataset or invalid `k`.
pub fn disparity_at_k<S: ShardSource + ?Sized, R: Ranker + ?Sized>(
    data: &S,
    ranker: &R,
    bonus: &[f64],
    k: f64,
) -> Result<Vec<f64>> {
    let mut out = Vec::new();
    disparity_at_k_into(
        data,
        ranker,
        bonus,
        k,
        &mut ShardedEvalScratch::new(),
        &mut out,
    )?;
    Ok(out)
}

/// [`disparity_at_k`] reusing caller-provided scratch buffers.
///
/// # Errors
/// Returns an error on an empty dataset or invalid `k`.
pub fn disparity_at_k_into<S: ShardSource + ?Sized, R: Ranker + ?Sized>(
    data: &S,
    ranker: &R,
    bonus: &[f64],
    k: f64,
    scratch: &mut ShardedEvalScratch,
    out: &mut Vec<f64>,
) -> Result<()> {
    let mut report =
        MetricPlan::new(&[MetricKind::Disparity], k).evaluate_with(data, ranker, bonus, scratch)?;
    match report.take(MetricKind::Disparity) {
        Some(MetricValue::Vector(v)) => {
            *out = v;
            Ok(())
        }
        _ => unreachable!("planned metric always reported"),
    }
}

/// nDCG@k of the bonus-adjusted ranking against the original (zero-bonus)
/// ranking — the sharded counterpart of [`crate::metrics::ndcg_at_k`], with
/// both top-`k` prefixes found by per-shard partial selection instead of full
/// sorts. A thin single-metric [`MetricPlan`].
///
/// # Errors
/// Returns an error on an empty dataset or invalid `k`.
pub fn ndcg_at_k<S: ShardSource + ?Sized, R: Ranker + ?Sized>(
    data: &S,
    ranker: &R,
    bonus: &[f64],
    k: f64,
) -> Result<f64> {
    let report = MetricPlan::new(&[MetricKind::Ndcg], k).evaluate(data, ranker, bonus)?;
    match report.get(MetricKind::Ndcg) {
        Some(MetricValue::Scalar(v)) => Ok(*v),
        _ => unreachable!("planned metric always reported"),
    }
}

/// Logarithmically discounted disparity (Section IV-E) — scoring and
/// checkpoint-prefix selection run shard-wise; the running prefix sums walk
/// the merged ranked prefix in rank order, exactly like the serial metric. A
/// thin single-metric [`MetricPlan`] (the selection fraction is unused).
///
/// # Errors
/// Returns an error on an empty dataset or invalid configuration.
pub fn log_discounted_disparity<S: ShardSource + ?Sized, R: Ranker + ?Sized>(
    data: &S,
    ranker: &R,
    bonus: &[f64],
    config: &LogDiscountConfig,
) -> Result<Vec<f64>> {
    let mut report = MetricPlan::new(&[MetricKind::LogDiscounted], 1.0)
        .with_log_config(*config)
        .evaluate(data, ranker, bonus)?;
    match report.take(MetricKind::LogDiscounted) {
        Some(MetricValue::Vector(v)) => Ok(v),
        _ => unreachable!("planned metric always reported"),
    }
}

/// Per-shard selection/label counts for the rate-based metrics, reduced by
/// exact integer addition.
#[derive(Clone, Default)]
struct GroupCounts {
    group_neg: Vec<usize>,
    group_fp: Vec<usize>,
    total_neg: usize,
    total_fp: usize,
    member_total: Vec<usize>,
    member_selected: Vec<usize>,
    other_total: Vec<usize>,
    other_selected: Vec<usize>,
}

impl GroupCounts {
    fn new(dims: usize) -> Self {
        Self {
            group_neg: vec![0; dims],
            group_fp: vec![0; dims],
            member_total: vec![0; dims],
            member_selected: vec![0; dims],
            other_total: vec![0; dims],
            other_selected: vec![0; dims],
            ..Self::default()
        }
    }

    fn merge(mut self, other: &Self) -> Self {
        for (a, b) in self.group_neg.iter_mut().zip(&other.group_neg) {
            *a += b;
        }
        for (a, b) in self.group_fp.iter_mut().zip(&other.group_fp) {
            *a += b;
        }
        for (a, b) in self.member_total.iter_mut().zip(&other.member_total) {
            *a += b;
        }
        for (a, b) in self.member_selected.iter_mut().zip(&other.member_selected) {
            *a += b;
        }
        for (a, b) in self.other_total.iter_mut().zip(&other.other_total) {
            *a += b;
        }
        for (a, b) in self.other_selected.iter_mut().zip(&other.other_selected) {
            *a += b;
        }
        self.total_neg += other.total_neg;
        self.total_fp += other.total_fp;
        self
    }
}

/// One shard's group and label tallies against its slice of the selection
/// `mask`. `fairness` is the shard's row-major matrix (`mask.len()` rows);
/// `labels` is read only when `need_labels`, which makes an unlabelled row
/// an error (the FPR metrics). Group membership is `in_group`'s: the
/// fairness value at `dim` is `>= 0.5`.
fn tally_shard(
    dims: usize,
    fairness: &[f64],
    labels: &[Option<bool>],
    mask: &[bool],
    need_labels: bool,
) -> Result<GroupCounts> {
    let mut counts = GroupCounts::new(dims);
    for (r, &selected) in mask.iter().enumerate() {
        let row = &fairness[r * dims..(r + 1) * dims];
        for (dim, value) in row.iter().enumerate() {
            if *value >= 0.5 {
                counts.member_total[dim] += 1;
                if selected {
                    counts.member_selected[dim] += 1;
                }
            } else {
                counts.other_total[dim] += 1;
                if selected {
                    counts.other_selected[dim] += 1;
                }
            }
        }
        if need_labels {
            let label = labels[r].ok_or(FairError::MissingLabels)?;
            if label {
                continue;
            }
            counts.total_neg += 1;
            if selected {
                counts.total_fp += 1;
            }
            for (dim, value) in row.iter().enumerate() {
                if *value >= 0.5 {
                    counts.group_neg[dim] += 1;
                    if selected {
                        counts.group_fp[dim] += 1;
                    }
                }
            }
        }
    }
    Ok(counts)
}

/// Fold per-shard tallies in shard order: exact integer addition, and the
/// first (lowest-shard) error wins, deterministically.
fn sum_counts(
    dims: usize,
    per_shard: impl IntoIterator<Item = Result<GroupCounts>>,
) -> Result<GroupCounts> {
    let mut total = GroupCounts::new(dims);
    for counts in per_shard {
        total = total.merge(&counts?);
    }
    Ok(total)
}

/// Tally per-group counts shard by shard against a global selection `mask`.
fn tally_counts<S: ShardSource + ?Sized>(
    data: &S,
    mask: &[bool],
    need_labels: bool,
) -> Result<GroupCounts> {
    let dims = data.schema().num_fairness();
    sum_counts(
        dims,
        data.map_shards(|shard| {
            let d = shard.data();
            let start = shard.offset();
            tally_shard(
                dims,
                d.fairness_matrix(),
                d.labels(),
                &mask[start..start + d.len()],
                need_labels,
            )
        }),
    )
}

/// [`tally_counts`] over the columns a paged-source sweep retained, walked
/// shard by shard in the same order — so the counts and the first missing
/// label are exactly the shard-wise reduction's.
fn tally_retained(
    retained: &Retained<'_>,
    mask: &[bool],
    need_labels: bool,
) -> Result<GroupCounts> {
    sum_counts(
        retained.dims,
        retained
            .fairness
            .iter()
            .zip(mask.chunks(retained.shard_size))
            .enumerate()
            .map(|(i, (fairness, mask))| {
                let labels = if need_labels {
                    &retained.labels[i][..]
                } else {
                    &[]
                };
                tally_shard(retained.dims, fairness, labels, mask, need_labels)
            }),
    )
}

/// Per-group and overall false-positive rates from tallied counts.
fn fpr_rates(counts: &GroupCounts, dims: usize) -> (Vec<f64>, f64) {
    let overall = if counts.total_neg == 0 {
        0.0
    } else {
        counts.total_fp as f64 / counts.total_neg as f64
    };
    let per_group = (0..dims)
        .map(|d| {
            if counts.group_neg[d] == 0 {
                0.0
            } else {
                counts.group_fp[d] as f64 / counts.group_neg[d] as f64
            }
        })
        .collect();
    (per_group, overall)
}

/// Signed scaled disparate impact per dimension from tallied counts.
fn disparate_impact_from_counts(counts: &GroupCounts, dims: usize) -> Vec<f64> {
    (0..dims)
        .map(|d| {
            let (p1, p0) = if counts.member_total[d] == 0 || counts.other_total[d] == 0 {
                (0.0, 0.0)
            } else {
                (
                    counts.member_selected[d] as f64 / counts.member_total[d] as f64,
                    counts.other_selected[d] as f64 / counts.other_total[d] as f64,
                )
            };
            let di = if p1 <= 0.0 || p0 <= 0.0 {
                if p1 == p0 {
                    1.0
                } else {
                    0.0
                }
            } else {
                (p1 / p0).min(p0 / p1)
            };
            let sign = if p1 >= p0 { 1.0 } else { -1.0 };
            sign * (1.0 - di)
        })
        .collect()
}

/// FPR-difference vector (`FPR_group − FPR_overall`) of the top-`k`
/// selection — the sharded counterpart of
/// [`crate::metrics::fpr_difference_at_k`]. A thin single-metric
/// [`MetricPlan`].
///
/// # Errors
/// Returns an error on empty datasets, invalid `k`, or missing labels.
pub fn fpr_difference_at_k<S: ShardSource + ?Sized, R: Ranker + ?Sized>(
    data: &S,
    ranker: &R,
    bonus: &[f64],
    k: f64,
) -> Result<Vec<f64>> {
    let mut report =
        MetricPlan::new(&[MetricKind::FprDifference], k).evaluate(data, ranker, bonus)?;
    match report.take(MetricKind::FprDifference) {
        Some(MetricValue::Vector(v)) => Ok(v),
        _ => unreachable!("planned metric always reported"),
    }
}

/// Signed, scaled disparate impact of the top-`k` selection — the sharded
/// counterpart of [`crate::metrics::scaled_disparate_impact_at_k`]. A thin
/// single-metric [`MetricPlan`].
///
/// # Errors
/// Returns an error on an empty dataset or invalid `k`.
pub fn scaled_disparate_impact_at_k<S: ShardSource + ?Sized, R: Ranker + ?Sized>(
    data: &S,
    ranker: &R,
    bonus: &[f64],
    k: f64,
) -> Result<Vec<f64>> {
    let mut report =
        MetricPlan::new(&[MetricKind::DisparateImpact], k).evaluate(data, ranker, bonus)?;
    match report.take(MetricKind::DisparateImpact) {
        Some(MetricValue::Vector(v)) => Ok(v),
        _ => unreachable!("planned metric always reported"),
    }
}

// ---------------------------------------------------------------------
// Distributed disparity: per-range partials and their combine.
// ---------------------------------------------------------------------

/// One shard's contribution to a distributed disparity evaluation.
///
/// `scores`/`positions`/`fairness` describe the shard's surviving selection
/// candidates in canonical rank order (descending score, ties by ascending
/// position); `fairness` is row-major, `scores.len() × dims`. `fair_sums` and
/// `rows` always describe the **whole** shard, whatever survived pruning.
#[derive(Debug, Clone, PartialEq)]
pub struct DisparityPartial {
    /// Global shard index.
    pub shard: usize,
    /// Rows in the shard.
    pub rows: usize,
    /// Per-dimension fairness column sums over the whole shard.
    pub fair_sums: Vec<f64>,
    /// Candidate effective scores, best first.
    pub scores: Vec<f64>,
    /// Candidate global row positions, aligned with `scores`.
    pub positions: Vec<usize>,
    /// Candidate fairness rows, row-major, aligned with `scores`.
    pub fairness: Vec<f64>,
}

/// Every candidate of `partials` as `(canonical key, (partial, candidate))`
/// — the keys the worker ranked by (scores cross the wire bit-exactly), each
/// tagged with where its row lives. Both the worker's range-wide prune and
/// the coordinator's selection partition this list. The tags are `u32`
/// pairs: with `usize` tags (32-byte entries) the fleet audit measured
/// 10-20% slower through the allocator's extra page faults.
fn tagged_candidates<P: std::borrow::Borrow<DisparityPartial>>(
    partials: &[P],
) -> Vec<((u64, u64), (u32, u32))> {
    let mut tagged = Vec::with_capacity(partials.iter().map(|p| p.borrow().scores.len()).sum());
    for (slot, p) in partials.iter().enumerate() {
        let p = p.borrow();
        for (idx, (&score, &pos)) in p.scores.iter().zip(&p.positions).enumerate() {
            tagged.push((
                (descending_key(score), pos as u64),
                (slot as u32, idx as u32),
            ));
        }
    }
    tagged
}

/// Compute the disparity partials for the shards in `shards` under `bonus`,
/// with selection candidates pruned range-wide to the global selection size
/// `count` — the compute half of a multi-node DCA coordinator.
///
/// Each shard runs the plan's scoring sweep and keeps its own canonical
/// top-`count`. Candidates are then pruned **range-wide** to the best
/// `count`: the global top-`count` can contain at most `count` rows from any
/// range, so the pruned set still covers every row that can be selected,
/// while the wire payload stays `O(count)` per worker instead of
/// `O(count × shards)`. Partials are pure functions of `(cohort, bonus,
/// count, shard range)` — no hidden state, no RNG — which is what makes
/// coordinator retries idempotent.
///
/// # Errors
/// Returns [`FairError::EmptyDataset`] on an empty cohort and
/// [`FairError::InvalidConfig`] when the range exceeds the layout or `count`
/// is not in `1..=len`.
///
/// # Panics
/// Panics if `bonus.len()` differs from the schema's fairness dimensionality
/// (the scoring-kernel contract).
pub fn disparity_partials<S, R>(
    data: &S,
    ranker: &R,
    bonus: &[f64],
    count: usize,
    shards: Range<usize>,
) -> Result<Vec<DisparityPartial>>
where
    S: ShardSource + ?Sized,
    R: Ranker + ?Sized,
{
    if data.is_empty() {
        return Err(FairError::EmptyDataset);
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
    if count == 0 || count > data.len() {
        return Err(FairError::InvalidConfig {
            reason: format!(
                "selection count {count} must be in 1..={} for this cohort",
                data.len()
            ),
        });
    }
    let dims = data.schema().num_fairness();
    assert_eq!(bonus.len(), dims, "bonus vector dimensionality mismatch");
    let needs = SweepNeeds {
        fair_sums: true,
        ..SweepNeeds::default()
    };

    let indices: Vec<usize> = shards.collect();
    let mut partials = parallel_map(&indices, |&i| {
        data.with_shard(i, |shard| {
            let d = shard.data();
            let offset = shard.offset();
            let sweep = sweep_shard(d, ranker, bonus, needs);
            let mut keys = keyed(&sweep.scores, offset);
            keep_best(&mut keys, count);
            let mut partial = DisparityPartial {
                shard: i,
                rows: d.len(),
                fair_sums: sweep.fair_sums,
                scores: Vec::with_capacity(keys.len()),
                positions: Vec::with_capacity(keys.len()),
                fairness: Vec::with_capacity(keys.len() * dims),
            };
            for &(_, pos) in &keys {
                let pos = pos as usize;
                partial.scores.push(sweep.scores[pos - offset]);
                partial.positions.push(pos);
                partial
                    .fairness
                    .extend_from_slice(d.fairness_row(pos - offset));
            }
            partial
        })
    });

    // Range-wide prune. Each shard's candidates are in canonical order, so
    // its survivors are a prefix: as many as it has among the range's best.
    // They move to right-sized buffers, so the pruned tails are freed before
    // the response is built rather than held through it.
    let mut best = tagged_candidates(&partials);
    if count < best.len() {
        prune_best(&mut best, count);
        let mut keep = vec![0_usize; partials.len()];
        for &(_, (slot, _)) in &best {
            keep[slot as usize] += 1;
        }
        for (p, keep) in partials.iter_mut().zip(keep) {
            p.scores = p.scores[..keep].to_vec();
            p.positions = p.positions[..keep].to_vec();
            p.fairness = p.fairness[..keep * dims].to_vec();
        }
    }
    Ok(partials)
}

/// Combine partials covering **every** shard of a `total_rows`-row cohort
/// into the disparity vector at selection size `count`, written into `out`.
///
/// The population centroid folds per-shard sums in ascending shard order,
/// the selection re-partitions the candidate keys under the canonical order
/// of [`top_m`], and the selection centroid accumulates fairness rows in rank
/// order — through the same helpers [`MetricPlan`] measures with, so the
/// result (and a Full-DCA trajectory driven by it through
/// [`crate::dca::full::run_full_descent`]) is bit-identical to
/// [`disparity_at_k_into`] on one node at the matching `k`.
///
/// Partials may arrive in any order; they are folded in ascending shard
/// order. A shard that is missing, supplied twice (a double-counted retry),
/// or internally inconsistent is an [`FairError::InvalidConfig`] — the
/// combine refuses to produce a silently wrong vector.
///
/// # Errors
/// Returns [`FairError::InvalidConfig`] on coverage or shape violations and
/// [`FairError::EmptyDataset`] when `count == 0`.
pub fn combine_disparity_partials(
    total_rows: usize,
    dims: usize,
    count: usize,
    partials: &[DisparityPartial],
    out: &mut Vec<f64>,
) -> Result<()> {
    if count == 0 {
        return Err(FairError::EmptyDataset);
    }
    let invalid = |reason: String| FairError::InvalidConfig { reason };
    let mut order: Vec<&DisparityPartial> = partials.iter().collect();
    order.sort_by_key(|p| p.shard);
    for (expected, p) in order.iter().enumerate() {
        if p.shard < expected {
            return Err(invalid(format!(
                "shard {} supplied twice — a retry double-counted a range",
                p.shard
            )));
        }
        if p.shard > expected {
            return Err(invalid(format!("no partial covers shard {expected}")));
        }
        if p.fair_sums.len() != dims
            || p.positions.len() != p.scores.len()
            || p.fairness.len() != p.scores.len() * dims
        {
            return Err(invalid(format!("malformed partial for shard {}", p.shard)));
        }
    }
    let rows: usize = order.iter().map(|p| p.rows).sum();
    if rows != total_rows {
        return Err(invalid(format!(
            "partials cover {rows} rows, cohort has {total_rows}"
        )));
    }
    if count > total_rows {
        return Err(invalid(format!(
            "selection count {count} exceeds the {total_rows}-row cohort"
        )));
    }

    let pop = population_centroid(dims, total_rows, order.iter().map(|p| &p.fair_sums[..]));
    let mut candidates = tagged_candidates(&order);
    if candidates.len() < count {
        return Err(invalid(format!(
            "{} candidates for a selection of {count} — partials were over-pruned",
            candidates.len()
        )));
    }
    keep_best(&mut candidates, count);
    selection_disparity(
        &pop,
        count,
        |rank| {
            let (_, (slot, idx)) = candidates[rank];
            let idx = idx as usize;
            &order[slot as usize].fairness[idx * dims..(idx + 1) * dims]
        },
        out,
    );
    Ok(())
}

/// The serial reference for a sharded evaluation: flatten and evaluate with
/// the single-`Dataset` metrics. Used by tests and the parity experiment;
/// exactly the pre-refactor code path.
///
/// # Errors
/// Returns an error on empty datasets or invalid `k`.
pub fn serial_disparity_at_k<R: Ranker + ?Sized>(
    dataset: &crate::dataset::Dataset,
    ranker: &R,
    bonus: &[f64],
    k: f64,
) -> Result<Vec<f64>> {
    let view = dataset.full_view();
    let mut scratch = EvalScratch::new();
    scratch.ranking.refill_with(None, |scores| {
        crate::ranking::effective_scores_into(&view, ranker, bonus, scores);
    });
    crate::metrics::disparity_at_k(&view, &scratch.ranking, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::Schema;
    use crate::dataset::Dataset;
    use crate::object::DataObject;
    use crate::ranking::topk::RankedSelection;
    use crate::ranking::{SingleFeatureRanker, WeightedSumRanker};
    use crate::shard::ShardedDataset;

    /// A labelled cohort with binary fairness attributes (exact sums) and
    /// tied scores (exercises the deterministic tie-break).
    fn cohort(n: u64) -> Dataset {
        let schema = Schema::from_names(&["s"], &["a", "b"], &[]).unwrap();
        let objects = (0..n)
            .map(|i| {
                let member = i % 3 == 0;
                let other = i % 5 == 0;
                let score = f64::from(u32::try_from((i * 11) % 17).unwrap())
                    - if member { 4.0 } else { 0.0 };
                DataObject::new_unchecked(
                    i,
                    vec![score],
                    vec![f64::from(u8::from(member)), f64::from(u8::from(other))],
                    Some(i % 4 == 0),
                )
            })
            .collect();
        Dataset::new(schema, objects).unwrap()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn sharded_disparity_matches_serial_bitwise() {
        let flat = cohort(61);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        for shard_size in [1, 7, 61, 4096] {
            let data = ShardedDataset::from_dataset(&flat, shard_size).unwrap();
            for k in [0.05, 0.2, 0.5, 1.0] {
                let serial = serial_disparity_at_k(&flat, &ranker, &[2.5, 0.5], k).unwrap();
                let sharded = disparity_at_k(&data, &ranker, &[2.5, 0.5], k).unwrap();
                assert_eq!(bits(&serial), bits(&sharded), "shard {shard_size} k {k}");
            }
        }
    }

    #[test]
    fn sharded_ndcg_matches_serial_bitwise() {
        let flat = cohort(61);
        let view = flat.full_view();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        for shard_size in [1, 7, 61, 4096] {
            let data = ShardedDataset::from_dataset(&flat, shard_size).unwrap();
            for bonus in [[0.0, 0.0], [3.0, 1.5]] {
                for k in [0.1, 0.3, 1.0] {
                    let ranking = RankedSelection::from_scores(crate::ranking::effective_scores(
                        &view, &ranker, &bonus,
                    ));
                    let serial = crate::metrics::ndcg_at_k(&view, &ranker, &ranking, k).unwrap();
                    let sharded = ndcg_at_k(&data, &ranker, &bonus, k).unwrap();
                    assert_eq!(
                        serial.to_bits(),
                        sharded.to_bits(),
                        "shard {shard_size} k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_log_discounted_matches_serial_bitwise() {
        let flat = cohort(83);
        let view = flat.full_view();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let cfg = LogDiscountConfig {
            step: 7,
            max_fraction: 0.6,
        };
        for shard_size in [1, 7, 83, 4096] {
            let data = ShardedDataset::from_dataset(&flat, shard_size).unwrap();
            let ranking = RankedSelection::from_scores(crate::ranking::effective_scores(
                &view,
                &ranker,
                &[1.0, 0.0],
            ));
            let serial = crate::metrics::log_discounted_disparity(&view, &ranking, &cfg).unwrap();
            let sharded = log_discounted_disparity(&data, &ranker, &[1.0, 0.0], &cfg).unwrap();
            assert_eq!(bits(&serial), bits(&sharded), "shard {shard_size}");
        }
    }

    #[test]
    fn sharded_fpr_and_di_match_serial_bitwise() {
        let flat = cohort(59);
        let view = flat.full_view();
        let ranker = SingleFeatureRanker::new(0);
        for shard_size in [1, 7, 59] {
            let data = ShardedDataset::from_dataset(&flat, shard_size).unwrap();
            for k in [0.2, 0.5] {
                let ranking = RankedSelection::from_scores(crate::ranking::effective_scores(
                    &view,
                    &ranker,
                    &[0.0, -1.0],
                ));
                let serial_fpr = crate::metrics::fpr_difference_at_k(&view, &ranking, k).unwrap();
                let sharded_fpr = fpr_difference_at_k(&data, &ranker, &[0.0, -1.0], k).unwrap();
                assert_eq!(bits(&serial_fpr), bits(&sharded_fpr), "fpr {shard_size}");
                let serial_di =
                    crate::metrics::scaled_disparate_impact_at_k(&view, &ranking, k).unwrap();
                let sharded_di =
                    scaled_disparate_impact_at_k(&data, &ranker, &[0.0, -1.0], k).unwrap();
                assert_eq!(bits(&serial_di), bits(&sharded_di), "di {shard_size}");
            }
        }
    }

    #[test]
    fn missing_labels_error_propagates_from_shards() {
        let schema = Schema::from_names(&["s"], &["g"], &[]).unwrap();
        let objects = (0..10_u64)
            .map(|i| {
                DataObject::new_unchecked(
                    i,
                    vec![i as f64],
                    vec![f64::from(u8::from(i % 2 == 0))],
                    // One unlabelled row in a late shard.
                    if i == 7 { None } else { Some(true) },
                )
            })
            .collect();
        let data = ShardedDataset::from_objects(schema, objects, 3).unwrap();
        let ranker = SingleFeatureRanker::new(0);
        assert!(matches!(
            fpr_difference_at_k(&data, &ranker, &[0.0], 0.5),
            Err(FairError::MissingLabels)
        ));
        // The label-free DI metric still works on the same data.
        assert!(scaled_disparate_impact_at_k(&data, &ranker, &[0.0], 0.5).is_ok());
    }

    #[test]
    fn empty_dataset_errors() {
        let schema = Schema::from_names(&["s"], &["g"], &[]).unwrap();
        let data = ShardedDataset::with_shard_size(schema, 4).unwrap();
        let ranker = SingleFeatureRanker::new(0);
        assert!(disparity_at_k(&data, &ranker, &[0.0], 0.5).is_err());
        assert!(ndcg_at_k(&data, &ranker, &[0.0], 0.5).is_err());
        assert!(
            log_discounted_disparity(&data, &ranker, &[0.0], &LogDiscountConfig::default())
                .is_err()
        );
        assert!(fpr_difference_at_k(&data, &ranker, &[0.0], 0.5).is_err());
    }

    /// The fleet partials and their combine.
    mod partials {
        use super::super::*;
        use crate::attributes::Schema;
        use crate::dca::config::DcaConfig;
        use crate::dca::control::RunControl;
        use crate::dca::full::run_full_descent;
        use crate::dca::objective::TopKDisparity;
        use crate::dca::sharded::run_full_dca_sharded;
        use crate::metrics::sharded as shmetrics;
        use crate::object::DataObject;
        use crate::ranking::{selection_size, WeightedSumRanker};
        use crate::shard::ShardedDataset;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// A biased cohort with *non*-dyadic scores and a two-dimensional
        /// fairness schema: bit-identity must come from identical operation
        /// order, not from exactly-representable values.
        fn cohort(n: u64, seed: u64, shard_size: usize) -> ShardedDataset {
            let schema = Schema::from_names(&["a", "b"], &["g", "h"], &[]).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let objects = (0..n)
                .map(|i| {
                    let g = rng.gen::<f64>() < 0.3;
                    let h = rng.gen::<f64>() < 0.5;
                    let a = rng.gen::<f64>() * 100.0 - if g { 13.7 } else { 0.0 };
                    let b = rng.gen::<f64>() * 10.0;
                    DataObject::new_unchecked(
                        i,
                        vec![a, b],
                        vec![f64::from(u8::from(g)), f64::from(u8::from(h))],
                        None,
                    )
                })
                .collect();
            ShardedDataset::from_objects(schema, objects, shard_size).unwrap()
        }

        fn split_partials(
            data: &ShardedDataset,
            ranker: &WeightedSumRanker,
            bonus: &[f64],
            count: usize,
            cuts: &[usize],
        ) -> Vec<DisparityPartial> {
            let mut partials = Vec::new();
            let mut start = 0;
            for &cut in cuts.iter().chain(std::iter::once(&data.num_shards())) {
                partials
                    .extend(disparity_partials(data, ranker, bonus, count, start..cut).unwrap());
                start = cut;
            }
            partials
        }

        #[test]
        fn combined_partials_match_local_disparity_bitwise() {
            let data = cohort(500, 7, 48);
            let ranker = WeightedSumRanker::new(vec![1.0, 0.25]).unwrap();
            let mut scratch = shmetrics::ShardedEvalScratch::new();
            for k in [0.02, 0.2, 0.9] {
                let count = selection_size(data.len(), k).unwrap();
                for bonus in [vec![0.0, 0.0], vec![3.3, -1.1]] {
                    let mut local = Vec::new();
                    shmetrics::disparity_at_k_into(
                        &data,
                        &ranker,
                        &bonus,
                        k,
                        &mut scratch,
                        &mut local,
                    )
                    .unwrap();
                    for cuts in [vec![], vec![4], vec![2, 7], vec![1, 2, 3]] {
                        let partials = split_partials(&data, &ranker, &bonus, count, &cuts);
                        let mut combined = Vec::new();
                        combine_disparity_partials(data.len(), 2, count, &partials, &mut combined)
                            .unwrap();
                        let a: Vec<u64> = local.iter().map(|v| v.to_bits()).collect();
                        let b: Vec<u64> = combined.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(a, b, "k={k} bonus={bonus:?} cuts={cuts:?}");
                    }
                }
            }
        }

        #[test]
        fn partials_are_order_insensitive_and_pure() {
            let data = cohort(300, 3, 32);
            let ranker = WeightedSumRanker::new(vec![1.0, 1.0]).unwrap();
            let count = selection_size(data.len(), 0.1).unwrap();
            let bonus = [2.0, 0.5];
            let mut partials = split_partials(&data, &ranker, &bonus, count, &[5]);
            let again = split_partials(&data, &ranker, &bonus, count, &[5]);
            assert_eq!(
                partials, again,
                "partials are pure — retries are idempotent"
            );
            let mut ordered = Vec::new();
            combine_disparity_partials(data.len(), 2, count, &partials, &mut ordered).unwrap();
            partials.reverse();
            let mut reversed = Vec::new();
            combine_disparity_partials(data.len(), 2, count, &partials, &mut reversed).unwrap();
            assert_eq!(ordered, reversed, "combine sorts by shard itself");
        }

        #[test]
        fn combine_rejects_double_counted_missing_and_malformed_shards() {
            let data = cohort(200, 1, 32);
            let ranker = WeightedSumRanker::new(vec![1.0, 1.0]).unwrap();
            let count = 20;
            let partials =
                disparity_partials(&data, &ranker, &[0.0; 2], count, 0..data.num_shards()).unwrap();
            let mut out = Vec::new();

            // A retried range slipped in twice: refused, not double-counted.
            let mut doubled = partials.clone();
            doubled.push(partials[2].clone());
            let err =
                combine_disparity_partials(data.len(), 2, count, &doubled, &mut out).unwrap_err();
            assert!(err.to_string().contains("twice"), "{err}");

            // A missing shard is refused.
            let missing: Vec<_> = partials[1..].to_vec();
            let err =
                combine_disparity_partials(data.len(), 2, count, &missing, &mut out).unwrap_err();
            assert!(err.to_string().contains("shard 0"), "{err}");

            // A row-count mismatch is refused.
            let err = combine_disparity_partials(999, 2, count, &partials, &mut out).unwrap_err();
            assert!(err.to_string().contains("rows"), "{err}");

            // Shape violations are refused.
            let mut torn = partials.clone();
            torn[0].fairness.pop();
            let err =
                combine_disparity_partials(data.len(), 2, count, &torn, &mut out).unwrap_err();
            assert!(err.to_string().contains("malformed"), "{err}");
        }

        #[test]
        fn partials_validate_range_count_and_emptiness() {
            let data = cohort(100, 2, 16);
            let ranker = WeightedSumRanker::new(vec![1.0, 1.0]).unwrap();
            assert!(disparity_partials(&data, &ranker, &[0.0; 2], 10, 0..99).is_err());
            assert!(disparity_partials(&data, &ranker, &[0.0; 2], 0, 0..1).is_err());
            assert!(disparity_partials(&data, &ranker, &[0.0; 2], 101, 0..1).is_err());
            let schema = Schema::from_names(&["a", "b"], &["g", "h"], &[]).unwrap();
            let empty = ShardedDataset::with_shard_size(schema, 8).unwrap();
            assert!(matches!(
                disparity_partials(&empty, &ranker, &[0.0; 2], 1, 0..0),
                Err(FairError::EmptyDataset)
            ));
        }

        #[test]
        fn full_descent_over_combined_partials_matches_the_sharded_runner_bitwise() {
            let data = cohort(400, 11, 64);
            let ranker = WeightedSumRanker::new(vec![1.0, 0.5]).unwrap();
            let k = 0.2;
            let config = DcaConfig {
                learning_rates: vec![10.0, 1.0],
                iterations_per_rate: 8,
                refinement_iterations: 0,
                seed: 5,
                ..DcaConfig::default()
            };
            let local =
                run_full_dca_sharded(&data, &ranker, &TopKDisparity::new(k), &config, None, true)
                    .unwrap();

            // Simulate a 3-worker coordinator: three disjoint ranges per step,
            // combined in shard order.
            let count = selection_size(data.len(), k).unwrap();
            let dims = 2;
            let distributed = run_full_descent(
                dims,
                data.len(),
                &config,
                None,
                true,
                &RunControl::new(),
                |bonus, out| {
                    let partials = split_partials(&data, &ranker, bonus, count, &[3, 5]);
                    combine_disparity_partials(data.len(), dims, count, &partials, out)
                },
            )
            .unwrap();
            let a: Vec<u64> = local.bonus.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = distributed.bonus.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "distributed Full DCA is bit-identical");
            assert_eq!(local.steps, distributed.steps);
            for (s, t) in local.trace.iter().zip(&distributed.trace) {
                assert_eq!(s.bonus, t.bonus, "step {}", s.step);
            }
        }
    }
}
