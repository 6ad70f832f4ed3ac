//! The DCA refinement step — Algorithm 2 of the paper.
//!
//! ```text
//! B <- output of Core DCA
//! A <- empty accumulator
//! for x in 1..=iterations:
//!     S   <- next sample from O
//!     D_k <- objective on S under B
//!     B   <- Adam.step(B, D_k)
//!     B   <- clamp(B)
//!     A   <- A + B
//! return ROUND(AVERAGE(A))
//! ```
//!
//! Adam gives every fairness dimension its own adaptive step size, which
//! absorbs the sampling noise; averaging the iterates and rounding to the
//! stakeholder-chosen granularity produces the final published bonus vector.

use crate::dataset::Dataset;
use crate::dca::config::DcaConfig;
use crate::dca::core::clamp_bonus;
use crate::dca::objective::Objective;
use crate::dca::scratch::DcaScratch;
use crate::error::Result;
use crate::ranking::Ranker;
use fair_opt::{Adam, RollingWindow};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Output of the refinement step.
#[derive(Debug, Clone, PartialEq)]
pub struct RefinementOutcome {
    /// The averaged, rounded, clamped bonus values — the published vector.
    pub bonus: Vec<f64>,
    /// The raw (unrounded) average of the refinement iterates.
    pub unrounded: Vec<f64>,
    /// Number of Adam steps executed.
    pub steps: usize,
    /// Number of objects scored across all samples.
    pub objects_scored: usize,
}

/// Run the refinement step starting from `initial` (normally the Core DCA
/// output).
///
/// # Errors
/// Returns an error for invalid configurations, empty datasets, or objective
/// failures.
pub fn run_refinement<R, O>(
    dataset: &Dataset,
    ranker: &R,
    objective: &O,
    config: &DcaConfig,
    initial: Vec<f64>,
) -> Result<RefinementOutcome>
where
    R: Ranker + ?Sized,
    O: Objective + ?Sized,
{
    let mut scratch = DcaScratch::new();
    run_refinement_with(dataset, ranker, objective, config, initial, &mut scratch)
}

/// [`run_refinement`] reusing a caller-provided [`DcaScratch`], so every
/// Adam step is allocation-free (apart from the dims-sized rolling-window
/// snapshots).
///
/// # Errors
/// Returns an error for invalid configurations, empty datasets, or objective
/// failures.
pub fn run_refinement_with<R, O>(
    dataset: &Dataset,
    ranker: &R,
    objective: &O,
    config: &DcaConfig,
    initial: Vec<f64>,
    scratch: &mut DcaScratch,
) -> Result<RefinementOutcome>
where
    R: Ranker + ?Sized,
    O: Objective + ?Sized,
{
    let dims = dataset.schema().num_fairness();
    config.validate(dims)?;
    if dataset.is_empty() {
        return Err(crate::error::FairError::EmptyDataset);
    }
    assert_eq!(initial.len(), dims, "initial bonus dimensionality mismatch");

    let mut bonus = initial;
    clamp_bonus(&mut bonus, config.polarity, config.caps.as_ref());

    // Offset the seed so the refinement does not replay the exact samples the
    // core phase already consumed.
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(0x5EED_0001));
    let mut adam = Adam::new(dims, config.adam);
    let mut window = RollingWindow::new(dims, config.rolling_window);
    let mut objects_scored = 0_usize;
    let mut steps = 0_usize;

    for _ in 0..config.refinement_iterations {
        dataset.sample_indices_into(&mut rng, config.sample_size, &mut scratch.indices)?;
        let sample = dataset.view_of(scratch.indices.as_slice());
        objective.evaluate_into(
            &sample,
            ranker,
            &bonus,
            &mut scratch.eval,
            &mut scratch.direction,
        )?;
        adam.step(&mut bonus, &scratch.direction);
        clamp_bonus(&mut bonus, config.polarity, config.caps.as_ref());
        window.push(bonus.clone());
        objects_scored += sample.len();
        steps += 1;
    }

    let unrounded = window.mean().unwrap_or_else(|| bonus.clone());
    let mut rounded = match config.granularity {
        Some(g) => unrounded.iter().map(|v| (v / g).round() * g).collect(),
        None => unrounded.clone(),
    };
    clamp_bonus(&mut rounded, config.polarity, config.caps.as_ref());

    Ok(RefinementOutcome {
        bonus: rounded,
        unrounded,
        steps,
        objects_scored,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::Schema;
    use crate::bonus::BonusPolarity;
    use crate::dca::core::run_core_dca;
    use crate::dca::objective::TopKDisparity;
    use crate::metrics::{disparity_at_k, norm};
    use crate::object::DataObject;
    use crate::ranking::topk::RankedSelection;
    use crate::ranking::{effective_scores, WeightedSumRanker};
    use rand::Rng;

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

    fn disparity_with_bonus(dataset: &Dataset, bonus: &[f64], k: f64) -> f64 {
        let view = dataset.full_view();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let ranking = RankedSelection::from_scores(effective_scores(&view, &ranker, bonus));
        norm(&disparity_at_k(&view, &ranking, k).unwrap())
    }

    fn config() -> DcaConfig {
        DcaConfig {
            sample_size: 200,
            learning_rates: vec![10.0, 1.0],
            iterations_per_rate: 40,
            refinement_iterations: 60,
            rolling_window: 60,
            seed: 7,
            ..DcaConfig::default()
        }
    }

    #[test]
    fn refinement_improves_or_matches_core_dca() {
        let dataset = biased_dataset(4000, 0.3, 20.0, 11);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        let cfg = config();
        let core = run_core_dca(&dataset, &ranker, &objective, &cfg, None, false).unwrap();
        let refined =
            run_refinement(&dataset, &ranker, &objective, &cfg, core.bonus.clone()).unwrap();
        let core_disp = disparity_with_bonus(&dataset, &core.bonus, 0.2);
        let refined_disp = disparity_with_bonus(&dataset, &refined.bonus, 0.2);
        // Refinement may be equal on easy instances but must not be much worse.
        assert!(
            refined_disp <= core_disp + 0.05,
            "refined {refined_disp} vs core {core_disp}"
        );
        let baseline = disparity_with_bonus(&dataset, &[0.0], 0.2);
        assert!(refined_disp < baseline * 0.5);
    }

    #[test]
    fn output_respects_granularity() {
        let dataset = biased_dataset(2000, 0.3, 15.0, 3);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        let cfg = config();
        let refined = run_refinement(&dataset, &ranker, &objective, &cfg, vec![5.0]).unwrap();
        for b in &refined.bonus {
            let scaled = b / 0.5;
            assert!(
                (scaled - scaled.round()).abs() < 1e-9,
                "{b} is not a multiple of 0.5"
            );
        }
    }

    #[test]
    fn no_granularity_leaves_values_unrounded() {
        let dataset = biased_dataset(2000, 0.3, 15.0, 3);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        let mut cfg = config();
        cfg.granularity = None;
        let refined = run_refinement(&dataset, &ranker, &objective, &cfg, vec![5.0]).unwrap();
        assert_eq!(refined.bonus, {
            let mut u = refined.unrounded.clone();
            clamp_bonus(&mut u, BonusPolarity::NonNegative, None);
            u
        });
    }

    #[test]
    fn polarity_is_enforced_on_the_final_vector() {
        let dataset = biased_dataset(2000, 0.3, 15.0, 3);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        let refined = run_refinement(&dataset, &ranker, &objective, &config(), vec![0.0]).unwrap();
        assert!(refined.bonus.iter().all(|b| *b >= 0.0));
        assert!(refined.unrounded.iter().all(|b| *b >= 0.0));
    }

    #[test]
    fn zero_refinement_iterations_returns_clamped_initial() {
        let dataset = biased_dataset(1000, 0.3, 10.0, 3);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        let mut cfg = config();
        cfg.refinement_iterations = 0;
        let refined = run_refinement(&dataset, &ranker, &objective, &cfg, vec![2.3]).unwrap();
        assert_eq!(refined.steps, 0);
        // Rounded to granularity 0.5.
        assert_eq!(refined.bonus, vec![2.5]);
    }

    #[test]
    fn work_accounting_matches_iterations() {
        let dataset = biased_dataset(1000, 0.3, 10.0, 3);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        let cfg = config();
        let refined = run_refinement(&dataset, &ranker, &objective, &cfg, vec![0.0]).unwrap();
        assert_eq!(refined.steps, cfg.refinement_iterations);
        assert_eq!(
            refined.objects_scored,
            cfg.refinement_iterations * cfg.sample_size
        );
    }

    #[test]
    fn reproducible_for_fixed_seed() {
        let dataset = biased_dataset(1500, 0.25, 15.0, 21);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.1);
        let a = run_refinement(&dataset, &ranker, &objective, &config(), vec![1.0]).unwrap();
        let b = run_refinement(&dataset, &ranker, &objective, &config(), vec![1.0]).unwrap();
        assert_eq!(a.bonus, b.bonus);
    }
}
