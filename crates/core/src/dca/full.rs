//! Full DCA — the non-sampled variant used in the accuracy analysis
//! (Theorem 4.1).
//!
//! Full DCA runs the same descent as Core DCA but evaluates the objective on
//! the *entire* dataset at every step. It is linear in the dataset size per
//! step and therefore much slower on large populations, but it removes all
//! sampling noise; the paper uses it to prove that every step allocates more
//! additional bonus points to an object whose inclusion would reduce
//! disparity than to the object it would displace.

use crate::dataset::Dataset;
use crate::dca::config::DcaConfig;
use crate::dca::control::RunControl;
use crate::dca::core::{clamp_bonus, CoreTraceEntry};
use crate::dca::objective::Objective;
use crate::dca::scratch::DcaScratch;
use crate::error::{FairError, Result};
use crate::ranking::Ranker;

/// Output of a Full DCA run.
#[derive(Debug, Clone, PartialEq)]
pub struct FullDcaOutcome {
    /// Final (unrounded) bonus values.
    pub bonus: Vec<f64>,
    /// Number of descent steps executed.
    pub steps: usize,
    /// Number of objects scored across all steps (= steps × dataset size).
    pub objects_scored: usize,
    /// Optional per-step trace.
    pub trace: Vec<CoreTraceEntry>,
}

/// Run Full DCA: Algorithm 1 with the sample replaced by the whole dataset.
/// The `sample_size` field of the configuration is ignored.
///
/// # Errors
/// Returns an error for invalid configurations, empty datasets, or objective
/// failures.
pub fn run_full_dca<R, O>(
    dataset: &Dataset,
    ranker: &R,
    objective: &O,
    config: &DcaConfig,
    initial: Option<Vec<f64>>,
    trace: bool,
) -> Result<FullDcaOutcome>
where
    R: Ranker + ?Sized,
    O: Objective + ?Sized,
{
    let mut scratch = DcaScratch::new();
    run_full_dca_with(
        dataset,
        ranker,
        objective,
        config,
        initial,
        trace,
        &mut scratch,
    )
}

/// [`run_full_dca`] reusing a caller-provided [`DcaScratch`], so every step
/// is allocation-free.
///
/// # Errors
/// Returns an error for invalid configurations, empty datasets, or objective
/// failures.
pub fn run_full_dca_with<R, O>(
    dataset: &Dataset,
    ranker: &R,
    objective: &O,
    config: &DcaConfig,
    initial: Option<Vec<f64>>,
    trace: bool,
    scratch: &mut DcaScratch,
) -> Result<FullDcaOutcome>
where
    R: Ranker + ?Sized,
    O: Objective + ?Sized,
{
    let view = dataset.full_view();
    let eval = &mut scratch.eval;
    run_full_descent(
        dataset.schema().num_fairness(),
        dataset.len(),
        config,
        initial,
        trace,
        &RunControl::new(),
        |bonus, out| objective.evaluate_into(&view, ranker, bonus, eval, out),
    )
}

/// The one Full-DCA descent loop: CLT-bypassing validation, initial-bonus
/// clamp, the learning-rate schedule, and step/trace accounting. The serial
/// runner, [`crate::dca::run_full_dca_sharded`], and distributed coordinators
/// (via [`crate::metrics::sharded::combine_disparity_partials`]) all execute
/// exactly this driver, so their bonus trajectories can only differ through
/// the `evaluate` callback itself — which is what the
/// serial==sharded==distributed bit-for-bit guarantee rests on. `control` is consulted at every step boundary (cancellation) and
/// notified after every completed step (progress); the default control adds
/// one relaxed atomic load per step and nothing else.
///
/// # Errors
/// Returns an error for invalid configurations, empty cohorts, evaluation
/// failures, or a cancellation requested through `control`.
pub fn run_full_descent(
    dims: usize,
    cohort_len: usize,
    config: &DcaConfig,
    initial: Option<Vec<f64>>,
    trace: bool,
    control: &RunControl,
    mut evaluate: impl FnMut(&[f64], &mut Vec<f64>) -> Result<()>,
) -> Result<FullDcaOutcome> {
    // Full DCA ignores the sample size, so validate a copy with a size that
    // always passes the CLT check.
    let mut check = config.clone();
    check.sample_size = check.sample_size.max(crate::dca::config::CLT_MINIMUM);
    check.validate(dims)?;
    if cohort_len == 0 {
        return Err(FairError::EmptyDataset);
    }

    let mut bonus = initial.unwrap_or_else(|| vec![0.0; dims]);
    assert_eq!(bonus.len(), dims, "initial bonus dimensionality mismatch");
    clamp_bonus(&mut bonus, config.polarity, config.caps.as_ref());

    let mut direction = Vec::new();
    let mut trace_entries = Vec::new();
    let mut steps = 0_usize;
    let mut objects_scored = 0_usize;

    let total_steps = config.core_steps();
    for &lr in &config.learning_rates {
        for _ in 0..config.iterations_per_rate {
            control.checkpoint()?;
            evaluate(&bonus, &mut direction)?;
            debug_assert_eq!(direction.len(), dims);
            for (b, d) in bonus.iter_mut().zip(&direction) {
                *b -= lr * d;
            }
            clamp_bonus(&mut bonus, config.polarity, config.caps.as_ref());
            steps += 1;
            objects_scored += cohort_len;
            if trace {
                trace_entries.push(CoreTraceEntry {
                    step: steps - 1,
                    learning_rate: lr,
                    objective_norm: crate::metrics::norm(&direction),
                    bonus: bonus.clone(),
                });
            }
            control.report(steps, total_steps);
        }
    }

    Ok(FullDcaOutcome {
        bonus,
        steps,
        objects_scored,
        trace: trace_entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::Schema;
    use crate::dca::objective::{Objective, TopKDisparity};
    use crate::metrics::{disparity_at_k, norm};
    use crate::object::DataObject;
    use crate::ranking::topk::RankedSelection;
    use crate::ranking::{effective_scores, WeightedSumRanker};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn biased_dataset(n: u64, member_rate: f64, shift: f64, seed: u64) -> Dataset {
        let schema = Schema::from_names(&["score"], &["g"], &[]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let objects = (0..n)
            .map(|i| {
                let member = rng.gen::<f64>() < member_rate;
                let base: f64 = rng.gen::<f64>() * 100.0;
                let score = if member { base - shift } else { base };
                DataObject::new_unchecked(i, vec![score], vec![f64::from(u8::from(member))], None)
            })
            .collect();
        Dataset::new(schema, objects).unwrap()
    }

    fn config() -> DcaConfig {
        DcaConfig {
            learning_rates: vec![10.0, 1.0],
            iterations_per_rate: 30,
            refinement_iterations: 0,
            ..DcaConfig::default()
        }
    }

    #[test]
    fn full_dca_eliminates_disparity_without_sampling_noise() {
        let dataset = biased_dataset(2000, 0.3, 20.0, 11);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        let out = run_full_dca(&dataset, &ranker, &objective, &config(), None, false).unwrap();
        let view = dataset.full_view();
        let ranking = RankedSelection::from_scores(effective_scores(&view, &ranker, &out.bonus));
        let after = norm(&disparity_at_k(&view, &ranking, 0.2).unwrap());
        assert!(
            after < 0.05,
            "Full DCA should essentially eliminate disparity: {after}"
        );
    }

    #[test]
    fn full_dca_is_deterministic() {
        let dataset = biased_dataset(1000, 0.3, 10.0, 5);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        let a = run_full_dca(&dataset, &ranker, &objective, &config(), None, false).unwrap();
        let b = run_full_dca(&dataset, &ranker, &objective, &config(), None, false).unwrap();
        assert_eq!(a.bonus, b.bonus);
    }

    #[test]
    fn work_scales_with_dataset_size() {
        let small = biased_dataset(500, 0.3, 10.0, 5);
        let large = biased_dataset(2000, 0.3, 10.0, 5);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        let cfg = config();
        let a = run_full_dca(&small, &ranker, &objective, &cfg, None, false).unwrap();
        let b = run_full_dca(&large, &ranker, &objective, &cfg, None, false).unwrap();
        assert_eq!(a.objects_scored, cfg.core_steps() * 500);
        assert_eq!(b.objects_scored, cfg.core_steps() * 2000);
    }

    /// The property behind Theorem 4.1: at every Full DCA step, if swapping an
    /// unselected object p with a selected object q would reduce disparity,
    /// then p receives at least as much additional bonus as q.
    #[test]
    fn theorem_4_1_swap_property_holds_along_the_trajectory() {
        let dataset = biased_dataset(300, 0.3, 15.0, 23);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        let mut cfg = config();
        cfg.iterations_per_rate = 10;
        let out = run_full_dca(&dataset, &ranker, &objective, &cfg, None, true).unwrap();
        let view = dataset.full_view();
        let k = 0.2;

        let mut previous = vec![0.0; 1];
        for entry in &out.trace {
            // The direction used at this step was evaluated at `previous`.
            let direction = objective.evaluate(&view, &ranker, &previous).unwrap();
            let ranking = RankedSelection::from_scores(effective_scores(&view, &ranker, &previous));
            let selected = ranking.selected(k).unwrap().to_vec();
            let unselected = ranking.unselected(k).unwrap().to_vec();
            let centroid_all = view.fairness_centroid().unwrap();
            let centroid_sel = view.fairness_centroid_of(&selected).unwrap();
            let s = selected.len() as f64;

            // Check a handful of (p outside, q inside) pairs.
            for &p in unselected.iter().take(5) {
                for &q in selected.iter().take(5) {
                    let fp = view.object(p).fairness();
                    let fq = view.object(q).fairness();
                    // Disparity after swapping p in and q out.
                    let swapped: Vec<f64> = centroid_sel
                        .iter()
                        .zip(fp.iter().zip(fq))
                        .zip(&centroid_all)
                        .map(|((c, (vp, vq)), a)| c + (vp - vq) / s - a)
                        .collect();
                    let current: Vec<f64> = centroid_sel
                        .iter()
                        .zip(&centroid_all)
                        .map(|(c, a)| c - a)
                        .collect();
                    if norm(&swapped) < norm(&current) - 1e-12 {
                        // The additional bonus granted this step is
                        // L * (-direction) · F, so p must gain at least as much
                        // as q: -L*dir·Fp >= -L*dir·Fq  <=>  dir·(Fp - Fq) <= 0.
                        let dot: f64 = direction
                            .iter()
                            .zip(fp.iter().zip(fq))
                            .map(|(d, (vp, vq))| d * (vp - vq))
                            .sum();
                        assert!(
                            dot <= 1e-9,
                            "swap-improving pair must satisfy D·(Fp-Fq) <= 0, got {dot}"
                        );
                    }
                }
            }
            previous = entry.bonus.clone();
        }
    }

    #[test]
    fn empty_dataset_is_error() {
        let schema = Schema::from_names(&["score"], &["g"], &[]).unwrap();
        let dataset = Dataset::empty(schema);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        assert!(run_full_dca(&dataset, &ranker, &objective, &config(), None, false).is_err());
    }
}
