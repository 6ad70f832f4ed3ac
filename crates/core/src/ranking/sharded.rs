//! Shard-wise scoring and selection: the ranking-layer kernels of the
//! parallel evaluation engine.
//!
//! Every function is generic over [`ShardSource`], so the same kernels drive
//! the in-memory [`crate::shard::ShardedDataset`] and the out-of-core
//! `fair_store::ShardStore` unchanged. Scoring is embarrassingly parallel
//! (one kernel per shard, concatenated in shard order — bit-for-bit the
//! serial scores); `sweep_shard` is that kernel for every scoring caller in
//! the sharded layer. Selection runs a per-shard partial top-`m`
//! ([`slice::select_nth_unstable`]) and merges the candidate sets
//! under the same strict total order the serial
//! [`RankedSelection`](crate::ranking::topk::RankedSelection) uses
//! (descending [`f64::total_cmp`], ties by ascending global position), so the
//! selected positions — set *and* order — are identical to a full sort for
//! every shard size and worker count. The selection kernels ([`top_m`],
//! [`rank_of`]) consume only the score vector and the shard *layout* — no
//! shard data is paged in, which matters for cached out-of-core sources.

use crate::dataset::Dataset;
use crate::parallel::parallel_map;
use crate::ranking::topk::{rank_cmp, selection_size};
use crate::ranking::Ranker;
use crate::shard::ShardSource;

/// Which by-products of the scoring pass a [`sweep_shard`] caller keeps —
/// everything else is skipped, so each caller pays only for what it reads.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SweepNeeds {
    /// Keep the base (zero-bonus) scores.
    pub(crate) base: bool,
    /// Sum the fairness columns.
    pub(crate) fair_sums: bool,
    /// Copy the shard's fairness matrix out.
    pub(crate) fairness: bool,
    /// Copy the shard's labels out.
    pub(crate) labels: bool,
}

/// One shard's scoring pass. Only `scores` is always filled; the other
/// fields are empty unless the matching [`SweepNeeds`] flag was set.
pub(crate) struct ShardSweep {
    /// Effective (bonus-adjusted) scores, shard row order.
    pub(crate) scores: Vec<f64>,
    /// Base scores, shard row order.
    pub(crate) base: Vec<f64>,
    /// Fairness column sums in the canonical kernel order (empty for a
    /// fairness-free schema).
    pub(crate) fair_sums: Vec<f64>,
    /// The shard's row-major fairness matrix.
    pub(crate) fairness: Vec<f64>,
    /// The shard's labels.
    pub(crate) labels: Vec<Option<bool>>,
}

/// The one per-shard scoring kernel of the sharded layer: effective scores
/// `base + fairness_row · bonus` for every row of the shard `d`, plus the
/// column by-products `needs` asks for, all from the same page-in.
///
/// Linear rankers run the shard as blocked kernel passes; every other
/// ranker scores row by row. The per-row arithmetic is the same
/// `kernel::dot` pair either way (base first, increment added once), so
/// both paths — and every caller — produce bit-identical scores.
pub(crate) fn sweep_shard<R: Ranker + ?Sized>(
    d: &Dataset,
    ranker: &R,
    bonus: &[f64],
    needs: SweepNeeds,
) -> ShardSweep {
    let n = d.len();
    let nf = d.schema().num_features();
    let dims = bonus.len();
    let mut base = Vec::new();
    let mut scores = Vec::with_capacity(n);
    if let Some(w) = ranker
        .linear_weights()
        .filter(|w| !w.is_empty() && w.len() == nf)
    {
        if needs.base {
            crate::kernel::dot_rows_into(d.features_matrix(), nf, w, &mut base);
            scores.extend_from_slice(&base);
        } else {
            crate::kernel::dot_rows_into(d.features_matrix(), nf, w, &mut scores);
        }
        crate::kernel::add_dot_rows_into(d.fairness_matrix(), dims, bonus, &mut scores);
    } else {
        if needs.base {
            base.reserve(n);
        }
        scores.extend((0..n).map(|i| {
            let b = match ranker.feature_score(d.feature_row(i)) {
                Some(score) => score,
                None => ranker.base_score(d.row(i)),
            };
            if needs.base {
                base.push(b);
            }
            let increment = crate::kernel::dot(d.fairness_row(i), bonus);
            b + increment
        }));
    }
    let mut fair_sums = Vec::new();
    if needs.fair_sums && dims > 0 {
        crate::kernel::col_sums_into(d.fairness_matrix(), dims, &mut fair_sums);
    }
    let mut fairness = Vec::new();
    if needs.fairness {
        // The SoA fairness matrix is contiguous and row-major: one memcpy
        // keeps the whole shard.
        fairness.extend_from_slice(d.fairness_matrix());
    }
    let mut labels = Vec::new();
    if needs.labels {
        labels.extend_from_slice(d.labels());
    }
    ShardSweep {
        scores,
        base,
        fair_sums,
        fairness,
        labels,
    }
}

/// Effective (bonus-adjusted) scores of every row, in global row order —
/// per-shard scoring sweeps concatenated in shard order.
///
/// # Panics
/// Panics if `bonus.len()` differs from the schema's fairness dimensionality.
#[must_use]
pub fn effective_scores<S, R>(data: &S, ranker: &R, bonus: &[f64]) -> Vec<f64>
where
    S: ShardSource + ?Sized,
    R: Ranker + ?Sized,
{
    let mut out = Vec::new();
    effective_scores_into(data, ranker, bonus, &mut out);
    out
}

/// [`effective_scores`] writing into a caller-provided buffer.
///
/// # Panics
/// Panics if `bonus.len()` differs from the schema's fairness dimensionality.
pub fn effective_scores_into<S, R>(data: &S, ranker: &R, bonus: &[f64], out: &mut Vec<f64>)
where
    S: ShardSource + ?Sized,
    R: Ranker + ?Sized,
{
    assert_eq!(
        bonus.len(),
        data.schema().num_fairness(),
        "bonus vector dimensionality mismatch"
    );
    let per_shard = data
        .map_shards(|shard| sweep_shard(shard.data(), ranker, bonus, SweepNeeds::default()).scores);
    out.clear();
    out.reserve(data.len());
    for scores in per_shard {
        out.extend_from_slice(&scores);
    }
}

/// A `u64` whose natural ascending order equals **descending**
/// [`f64::total_cmp`] order of the score. The standard monotone IEEE-754 map
/// (flip all bits of negatives, flip the sign bit of non-negatives) turns
/// `total_cmp` into unsigned integer order; inverting it flips the direction.
/// Pairing the key with the position gives a POD tuple whose derived `Ord`
/// is exactly [`rank_cmp`] — descending score, ties by ascending position —
/// so partitions and sorts run on 16-byte values with branch-friendly
/// integer comparisons instead of chasing `scores[a]`/`scores[b]` gathers.
#[inline]
pub(crate) fn descending_key(score: f64) -> u64 {
    let bits = score.to_bits();
    let ascending = bits ^ ((((bits as i64) >> 63) as u64) | 0x8000_0000_0000_0000);
    !ascending
}

/// Canonical sort keys `(descending_key(score), global position)` for a run
/// of scores whose first row sits at global position `offset`.
pub(crate) fn keyed(scores: &[f64], offset: usize) -> Vec<(u64, u64)> {
    scores
        .iter()
        .enumerate()
        .map(|(i, &s)| (descending_key(s), (offset + i) as u64))
        .collect()
}

/// Shrink `keys` to its `m` smallest entries — the `m` best under the
/// canonical order — in unspecified order.
pub(crate) fn prune_best<T: Ord>(keys: &mut Vec<T>, m: usize) {
    if m < keys.len() {
        keys.select_nth_unstable(m);
        keys.truncate(m);
    }
}

/// Shrink `keys` to its `m` best entries, sorted best first: the canonical
/// top-`m` every selection in the sharded layer ends with. Keys are unique
/// (they carry the position), so the result is fully determined.
pub(crate) fn keep_best<T: Ord>(keys: &mut Vec<T>, m: usize) {
    prune_best(keys, m);
    keys.sort_unstable();
}

/// The global positions of the `m` best scores, best first — exactly the
/// prefix a full descending sort would produce (same strict total order, same
/// deterministic tie-break).
///
/// When per-shard pruning pays off (`m` well below the shard size), each
/// shard partial-selects its own top `min(m, len)` in parallel and only the
/// merged candidates are partitioned; otherwise a single global partition is
/// used. Both paths produce the canonical top-`m` under the strict total
/// order, so the choice is invisible to callers. Only `scores` and the shard
/// *layout* are consulted — no shard data is paged in.
///
/// `scores` must hold one score per global row; `m` is clamped to the row
/// count.
///
/// # Panics
/// Panics if `scores.len()` differs from `data.len()`.
#[must_use]
pub fn top_m<S>(data: &S, scores: &[f64], m: usize) -> Vec<usize>
where
    S: ShardSource + ?Sized,
{
    assert_eq!(scores.len(), data.len(), "one score per row required");
    let n = data.len();
    let m = m.min(n);
    if m == 0 {
        return Vec::new();
    }
    // Per-shard candidate pruning only helps when the surviving candidate set
    // is materially smaller than the cohort.
    let num_shards = data.num_shards();
    let candidate_total: usize = (0..num_shards).map(|i| data.shard_len(i).min(m)).sum();
    let mut candidates: Vec<(u64, u64)> = if candidate_total * 2 <= n {
        let indices: Vec<usize> = (0..num_shards).collect();
        let per_shard = parallel_map(&indices, |&i| {
            let offset = data.shard_offset(i);
            let mut local = keyed(&scores[offset..offset + data.shard_len(i)], offset);
            prune_best(&mut local, m);
            local
        });
        per_shard.into_iter().flatten().collect()
    } else {
        keyed(scores, 0)
    };
    keep_best(&mut candidates, m);
    candidates
        .into_iter()
        .map(|(_, p)| usize::try_from(p).expect("positions fit usize"))
        .collect()
}

/// The global positions of the top-`k`-fraction selection, best first.
///
/// # Errors
/// Returns an error for `k` outside `(0, 1]`.
///
/// # Panics
/// Panics if `scores.len()` differs from `data.len()`.
pub fn selected_at_k<S>(data: &S, scores: &[f64], k: f64) -> crate::error::Result<Vec<usize>>
where
    S: ShardSource + ?Sized,
{
    let m = selection_size(data.len(), k)?;
    Ok(top_m(data, scores, m))
}

/// The 0-based rank a full descending sort would assign to `position`: the
/// number of positions ordered strictly before it — counted shard by shard in
/// parallel (an exact integer reduction over the score vector; no shard data
/// is paged in).
///
/// # Panics
/// Panics if `scores.len()` differs from `data.len()` or `position` is out of
/// bounds.
#[must_use]
pub fn rank_of<S>(data: &S, scores: &[f64], position: usize) -> usize
where
    S: ShardSource + ?Sized,
{
    assert_eq!(scores.len(), data.len(), "one score per row required");
    assert!(position < data.len(), "position out of bounds");
    let indices: Vec<usize> = (0..data.num_shards()).collect();
    parallel_map(&indices, |&i| {
        let offset = data.shard_offset(i);
        (offset..offset + data.shard_len(i))
            .filter(|&p| p != position && rank_cmp(scores, p, position).is_lt())
            .count()
    })
    .into_iter()
    .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::Schema;
    use crate::object::DataObject;
    use crate::ranking::topk::RankedSelection;
    use crate::ranking::WeightedSumRanker;
    use crate::shard::ShardedDataset;

    fn sharded(n: u64, shard_size: usize) -> ShardedDataset {
        let schema = Schema::from_names(&["s"], &["g"], &[]).unwrap();
        let objects = (0..n)
            .map(|i| {
                // Non-monotone scores with ties to exercise the tie-break.
                let score = f64::from(u32::try_from((i * 7) % 13).unwrap());
                DataObject::new_unchecked(
                    i,
                    vec![score],
                    vec![f64::from(u8::from(i % 4 == 0))],
                    None,
                )
            })
            .collect();
        ShardedDataset::from_objects(schema, objects, shard_size).unwrap()
    }

    #[test]
    fn sharded_scores_match_serial_bitwise() {
        let data = sharded(53, 7);
        let flat = data.to_dataset();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let view = flat.full_view();
        let serial = crate::ranking::effective_scores(&view, &ranker, &[2.5]);
        let shardwise = effective_scores(&data, &ranker, &[2.5]);
        assert_eq!(serial, shardwise);
    }

    #[test]
    fn top_m_matches_full_sort_for_every_shard_size_and_m() {
        for shard_size in [1, 5, 7, 64, 1000] {
            let data = sharded(53, shard_size);
            let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
            let scores = effective_scores(&data, &ranker, &[0.0]);
            let full = RankedSelection::from_scores(scores.clone());
            for m in [0, 1, 2, 7, 26, 52, 53, 99] {
                let got = top_m(&data, &scores, m);
                assert_eq!(got, full.top(m), "shard {shard_size}, m {m}");
            }
        }
    }

    #[test]
    fn selected_at_k_matches_ranked_selection() {
        let data = sharded(40, 6);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let scores = effective_scores(&data, &ranker, &[1.0]);
        let full = RankedSelection::from_scores(scores.clone());
        for k in [0.05, 0.25, 0.5, 1.0] {
            assert_eq!(
                selected_at_k(&data, &scores, k).unwrap(),
                full.selected(k).unwrap(),
                "k {k}"
            );
        }
        assert!(selected_at_k(&data, &scores, 0.0).is_err());
    }

    #[test]
    fn rank_of_matches_full_sort() {
        let data = sharded(29, 4);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let scores = effective_scores(&data, &ranker, &[0.5]);
        let full = RankedSelection::from_scores(scores.clone());
        for p in 0..29 {
            assert_eq!(Some(rank_of(&data, &scores, p)), full.rank_of(p), "{p}");
        }
    }

    #[test]
    fn descending_key_order_is_exactly_total_cmp_descending() {
        let tricky = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            1.0,
            -1.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e300,
            -5e300,
        ];
        for &a in &tricky {
            for &b in &tricky {
                assert_eq!(
                    super::descending_key(a).cmp(&super::descending_key(b)),
                    b.total_cmp(&a),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn top_m_handles_nan_and_signed_zero_like_the_full_sort() {
        let schema = Schema::from_names(&["s"], &["g"], &[]).unwrap();
        let tricky = [f64::NAN, 1.0, -0.0, 0.0, f64::INFINITY, -1.0, f64::NAN];
        let objects = tricky
            .iter()
            .enumerate()
            .map(|(i, &s)| DataObject::new_unchecked(i as u64, vec![s], vec![0.0], None))
            .collect();
        let data = ShardedDataset::from_objects(schema, objects, 2).unwrap();
        let scores: Vec<f64> = tricky.to_vec();
        let full = RankedSelection::from_scores(scores.clone());
        for m in 1..=tricky.len() {
            assert_eq!(top_m(&data, &scores, m), full.top(m), "m {m}");
        }
    }

    #[test]
    #[should_panic(expected = "one score per row")]
    fn mismatched_scores_panic() {
        let data = sharded(10, 3);
        let _ = top_m(&data, &[1.0, 2.0], 1);
    }
}
