//! Shard-wise scoring and selection: the ranking-layer kernels of the
//! parallel evaluation engine.
//!
//! Every function is generic over [`ShardSource`], so the same kernels drive
//! the in-memory [`crate::shard::ShardedDataset`] and the out-of-core
//! `fair_store::ShardStore` unchanged. Scoring is embarrassingly parallel
//! (one kernel per shard, concatenated in shard order — bit-for-bit the
//! serial scores). Selection runs a per-shard partial top-`m`
//! ([`slice::select_nth_unstable_by`]) and merges the candidate sets
//! under the same strict total order the serial
//! [`RankedSelection`](crate::ranking::topk::RankedSelection) uses
//! (descending [`f64::total_cmp`], ties by ascending global position), so the
//! selected positions — set *and* order — are identical to a full sort for
//! every shard size and worker count. The selection kernels ([`top_m`],
//! [`rank_of`]) consume only the score vector and the shard *layout* — no
//! shard data is paged in, which matters for cached out-of-core sources.

use crate::parallel::parallel_map;
use crate::ranking::topk::{rank_cmp, selection_size};
use crate::ranking::Ranker;
use crate::shard::ShardSource;

/// Effective (bonus-adjusted) scores of every row, in global row order —
/// per-shard scoring kernels concatenated in shard order.
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
    let nf = data.schema().num_features();
    // Plain linear rankers run each shard as two blocked matrix passes; the
    // per-row arithmetic is the same kernel::dot pair as the fallback, so
    // both paths produce bit-identical scores.
    let linear = ranker
        .linear_weights()
        .filter(|w| !w.is_empty() && w.len() == nf);
    let per_shard = data.map_shards(|shard| {
        let d = shard.data();
        let mut scores = Vec::with_capacity(d.len());
        if let Some(w) = linear {
            crate::kernel::dot_rows_into(d.features_matrix(), nf, w, &mut scores);
            crate::kernel::add_dot_rows_into(d.fairness_matrix(), bonus.len(), bonus, &mut scores);
        } else {
            scores.extend((0..d.len()).map(|i| {
                let base = match ranker.feature_score(d.feature_row(i)) {
                    Some(score) => score,
                    None => ranker.base_score(d.row(i)),
                };
                let increment = crate::kernel::dot(d.fairness_row(i), bonus);
                base + increment
            }));
        }
        scores
    });
    out.clear();
    out.reserve(data.len());
    for scores in per_shard {
        out.extend_from_slice(&scores);
    }
}

/// Effective scores derived from already-computed base scores:
/// `adjusted[i] = base[i] + fairness_row(i) · bonus`, per shard. Exactly the
/// arithmetic of [`effective_scores`] (base term first, increment added
/// once), so the result is bit-for-bit identical — at half the work, since
/// the ranker is not re-run.
///
/// # Panics
/// Panics if `base.len()` differs from `data.len()` or `bonus.len()` from
/// the fairness dimensionality.
#[must_use]
pub fn adjust_base_scores<S>(data: &S, base: &[f64], bonus: &[f64]) -> Vec<f64>
where
    S: ShardSource + ?Sized,
{
    assert_eq!(base.len(), data.len(), "one base score per row required");
    assert_eq!(
        bonus.len(),
        data.schema().num_fairness(),
        "bonus vector dimensionality mismatch"
    );
    let per_shard = data.map_shards(|shard| {
        let d = shard.data();
        let mut scores = Vec::with_capacity(d.len());
        if !d.is_empty() {
            // Shards cover contiguous global ranges: seed with the base
            // slice, then add the increments in one blocked pass. The add
            // is the same kernel::dot per row as effective_scores'.
            let offset = shard.global_index(0);
            scores.extend_from_slice(&base[offset..offset + d.len()]);
            crate::kernel::add_dot_rows_into(d.fairness_matrix(), bonus.len(), bonus, &mut scores);
        }
        scores
    });
    let mut out = Vec::with_capacity(data.len());
    for scores in per_shard {
        out.extend_from_slice(&scores);
    }
    out
}

/// Base (unadjusted) scores of every row, in global row order.
#[must_use]
pub fn base_scores<S, R>(data: &S, ranker: &R) -> Vec<f64>
where
    S: ShardSource + ?Sized,
    R: Ranker + ?Sized,
{
    let nf = data.schema().num_features();
    let linear = ranker
        .linear_weights()
        .filter(|w| !w.is_empty() && w.len() == nf);
    let per_shard = data.map_shards(|shard| {
        let d = shard.data();
        let mut scores = Vec::with_capacity(d.len());
        if let Some(w) = linear {
            crate::kernel::dot_rows_into(d.features_matrix(), nf, w, &mut scores);
        } else {
            scores.extend(
                (0..d.len()).map(|i| match ranker.feature_score(d.feature_row(i)) {
                    Some(score) => score,
                    None => ranker.base_score(d.row(i)),
                }),
            );
        }
        scores
    });
    let mut out = Vec::with_capacity(data.len());
    for scores in per_shard {
        out.extend_from_slice(&scores);
    }
    out
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
    let keyed = |range: std::ops::Range<usize>| -> Vec<(u64, u64)> {
        range
            .map(|p| (descending_key(scores[p]), p as u64))
            .collect()
    };
    // Per-shard candidate pruning only helps when the surviving candidate set
    // is materially smaller than the cohort.
    let num_shards = data.num_shards();
    let candidate_total: usize = (0..num_shards).map(|i| data.shard_len(i).min(m)).sum();
    let mut candidates: Vec<(u64, u64)> = if candidate_total * 2 <= n {
        let indices: Vec<usize> = (0..num_shards).collect();
        let per_shard = parallel_map(&indices, |&i| {
            let offset = data.shard_offset(i);
            let mut local = keyed(offset..offset + data.shard_len(i));
            let keep = m.min(local.len());
            if keep < local.len() {
                local.select_nth_unstable(keep);
                local.truncate(keep);
            }
            local
        });
        per_shard.into_iter().flatten().collect()
    } else {
        keyed(0..n)
    };
    if m < candidates.len() {
        candidates.select_nth_unstable(m);
        candidates.truncate(m);
    }
    candidates.sort_unstable();
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
        let serial_base = crate::ranking::base_scores(&view, &ranker);
        assert_eq!(serial_base, base_scores(&data, &ranker));
    }

    #[test]
    fn adjusting_base_scores_matches_scoring_from_scratch_bitwise() {
        let data = sharded(53, 7);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let base = base_scores(&data, &ranker);
        for bonus in [[0.0], [2.5], [-1.75]] {
            let from_scratch = effective_scores(&data, &ranker, &bonus);
            let adjusted = adjust_base_scores(&data, &base, &bonus);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&from_scratch), bits(&adjusted), "bonus {bonus:?}");
        }
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
