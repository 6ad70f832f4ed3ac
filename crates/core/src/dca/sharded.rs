//! DCA over the sharded column store — in memory or paged from disk.
//!
//! * [`run_full_dca_sharded`] — Full DCA whose per-step objective evaluation
//!   (scoring, selection, centroid accumulation) runs through the shard-wise
//!   parallel engine instead of one serial pass. For binary/dyadic fairness
//!   values the bonus trajectory is bit-for-bit the serial
//!   [`crate::dca::run_full_dca`] trajectory at every shard size (see the
//!   determinism notes on [`crate::shard`]).
//! * [`run_core_dca_sharded`] — Core DCA (Algorithm 1) drawing each step's
//!   sample **per shard**: quotas are apportioned proportionally and every
//!   shard samples its own rows with an RNG stream split deterministically
//!   off the step seed ([`crate::shard::shard_seed`]), so shards can sample
//!   independently — the building block for distributed DCA, where no node
//!   ever sees another node's rows. The sampled rows are gathered into
//!   reused scratch blocks and evaluated with the ordinary [`Objective`]s.
//!
//! ## Windowed gathers
//!
//! A step's sample depends only on `(config.seed, step)`, so the rows of
//! many steps are known before the first of them runs. The one Core-DCA
//! driver, [`run_core_dca_gathered`], therefore works a **window** of steps
//! at a time: it draws the window's step seeds, has the caller fill one
//! staging block per step in a single call, and then runs the steps in order
//! on those blocks. [`run_core_dca_sharded`] fills a window with one
//! ascending pass over the shards, lending each shard the window touches
//! once and appending each step's run of rows to that step's block.
//!
//! On a [paged](crate::shard::ShardSource::paged) source the window is
//! `max(1, shard_size / sample_size)` steps (capped at the steps left), so
//! the staged rows never exceed one shard's and a descent pages each shard
//! in about once per window instead of once per step. In-memory sources
//! keep a window of one: there is no page-in to save, and staged blocks
//! would fall out of cache. The window never changes the result: seeds are
//! drawn in step order and every block holds its step's rows in the order a
//! step-at-a-time gather produces, so trajectories are bit-identical.
//!
//! The sampled variant draws a *different* (but equally distributed,
//! seed-deterministic) sample stream than the serial
//! [`crate::dca::run_core_dca`], so their trajectories are not comparable
//! step for step; each is reproducible under its own seed.

use crate::attributes::SchemaRef;
use crate::dataset::Dataset;
use crate::dca::config::DcaConfig;
use crate::dca::control::RunControl;
use crate::dca::core::{clamp_bonus, CoreDcaOutcome, CoreTraceEntry};
use crate::dca::full::FullDcaOutcome;
use crate::dca::objective::Objective;
use crate::dca::scratch::DcaScratch;
use crate::error::{FairError, Result};
use crate::metrics::sharded::ShardedEvalScratch;
use crate::metrics::{sharded, LogDiscountConfig};
use crate::ranking::Ranker;
use crate::shard::ShardSource;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An [`Objective`] that can also be evaluated over any [`ShardSource`]
/// through the shard-wise engine — in-memory or paged from disk.
/// Implementations must compute the same mathematical quantity as their
/// serial `evaluate_into`; the built-in objectives delegate to
/// [`crate::metrics::sharded`].
pub trait ShardedObjective: Objective {
    /// Evaluate the measure over the whole sharded cohort under `bonus`,
    /// writing one entry per fairness attribute into `out`.
    ///
    /// # Errors
    /// Returns an error on empty datasets, invalid configurations, or missing
    /// labels (objective-dependent).
    fn evaluate_sharded<S: ShardSource + ?Sized, R: Ranker + ?Sized>(
        &self,
        data: &S,
        ranker: &R,
        bonus: &[f64],
        scratch: &mut ShardedEvalScratch,
        out: &mut Vec<f64>,
    ) -> Result<()>;
}

impl ShardedObjective for crate::dca::objective::TopKDisparity {
    fn evaluate_sharded<S: ShardSource + ?Sized, R: Ranker + ?Sized>(
        &self,
        data: &S,
        ranker: &R,
        bonus: &[f64],
        scratch: &mut ShardedEvalScratch,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        sharded::disparity_at_k_into(data, ranker, bonus, self.k, scratch, out)
    }
}

impl ShardedObjective for crate::dca::objective::LogDiscountedObjective {
    fn evaluate_sharded<S: ShardSource + ?Sized, R: Ranker + ?Sized>(
        &self,
        data: &S,
        ranker: &R,
        bonus: &[f64],
        _scratch: &mut ShardedEvalScratch,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        let config: &LogDiscountConfig = &self.config;
        *out = sharded::log_discounted_disparity(data, ranker, bonus, config)?;
        Ok(())
    }
}

impl ShardedObjective for crate::dca::objective::ScaledDisparateImpact {
    fn evaluate_sharded<S: ShardSource + ?Sized, R: Ranker + ?Sized>(
        &self,
        data: &S,
        ranker: &R,
        bonus: &[f64],
        _scratch: &mut ShardedEvalScratch,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        *out = sharded::scaled_disparate_impact_at_k(data, ranker, bonus, self.k)?;
        Ok(())
    }
}

impl ShardedObjective for crate::dca::objective::FprDifferenceObjective {
    fn evaluate_sharded<S: ShardSource + ?Sized, R: Ranker + ?Sized>(
        &self,
        data: &S,
        ranker: &R,
        bonus: &[f64],
        _scratch: &mut ShardedEvalScratch,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        *out = sharded::fpr_difference_at_k(data, ranker, bonus, self.k)?;
        Ok(())
    }
}

/// Run Full DCA with every step's whole-cohort evaluation on the shard-wise
/// engine. The descent itself is [`crate::dca::full`]'s shared driver — the
/// exact loop the serial [`crate::dca::run_full_dca`] executes — so the two
/// trajectories can only differ through the objective evaluation.
///
/// # Errors
/// Returns an error for invalid configurations, empty datasets, or objective
/// failures.
pub fn run_full_dca_sharded<S, R, O>(
    data: &S,
    ranker: &R,
    objective: &O,
    config: &DcaConfig,
    initial: Option<Vec<f64>>,
    trace: bool,
) -> Result<FullDcaOutcome>
where
    S: ShardSource + ?Sized,
    R: Ranker + ?Sized,
    O: ShardedObjective + ?Sized,
{
    run_full_dca_sharded_controlled(
        data,
        ranker,
        objective,
        config,
        initial,
        trace,
        &RunControl::new(),
    )
}

/// [`run_full_dca_sharded`] under a [`RunControl`]: the identical descent
/// loop, plus a cancellation check at every step boundary and a progress
/// report after every completed step. A run that is never cancelled produces
/// the bit-identical trajectory of the uncontrolled runner — which is what
/// lets a serving layer expose background Full-DCA jobs without forking the
/// algorithm.
///
/// # Errors
/// Returns an error for invalid configurations, empty datasets, objective
/// failures, or [`FairError::Cancelled`] when `control` is cancelled mid-run.
#[allow(clippy::too_many_arguments)]
pub fn run_full_dca_sharded_controlled<S, R, O>(
    data: &S,
    ranker: &R,
    objective: &O,
    config: &DcaConfig,
    initial: Option<Vec<f64>>,
    trace: bool,
    control: &RunControl,
) -> Result<FullDcaOutcome>
where
    S: ShardSource + ?Sized,
    R: Ranker + ?Sized,
    O: ShardedObjective + ?Sized,
{
    let mut scratch = ShardedEvalScratch::new();
    crate::dca::full::run_full_descent(
        data.schema().num_fairness(),
        data.len(),
        config,
        initial,
        trace,
        control,
        |bonus, out| {
            // Phase attribution wraps the whole shard-sweep evaluation (one
            // scope per step, outside every kernel); inert unless the caller
            // installed a job profile, and the clock never feeds back into
            // the descent, so trajectories stay bit-identical.
            let _score = crate::obs::profile::scope(crate::obs::Phase::Score);
            objective.evaluate_sharded(data, ranker, bonus, &mut scratch, out)
        },
    )
}

/// Run Core DCA (Algorithm 1) with per-shard sampling: each step draws its
/// sample shard by shard under a deterministically split seed stream, gathers
/// the sampled rows into a reused contiguous block, and evaluates the
/// ordinary sampled objective on it.
///
/// # Errors
/// Returns an error for invalid configurations, empty datasets, or objective
/// failures.
pub fn run_core_dca_sharded<S, R, O>(
    data: &S,
    ranker: &R,
    objective: &O,
    config: &DcaConfig,
    initial: Option<Vec<f64>>,
    trace: bool,
) -> Result<CoreDcaOutcome>
where
    S: ShardSource + ?Sized,
    R: Ranker + ?Sized,
    O: Objective + ?Sized,
{
    run_core_dca_sharded_controlled(
        data,
        ranker,
        objective,
        config,
        initial,
        trace,
        &RunControl::new(),
    )
}

/// [`run_core_dca_sharded`] under a [`RunControl`]: the identical per-shard
/// sampled descent, plus a cancellation check at every step boundary and a
/// progress report after every completed step. Never-cancelled runs draw the
/// identical seeded sample stream and produce the bit-identical trajectory.
///
/// A [paged](ShardSource::paged) source gathers a window of
/// `max(1, shard_size / sample_size)` steps at a time, so the window's
/// staged samples never hold more than one shard's rows; every other source
/// gathers step by step. Either way each step sees the same rows in the same
/// order (see the module docs).
///
/// # Errors
/// Returns an error for invalid configurations, empty datasets, objective
/// failures, or [`FairError::Cancelled`] when `control` is cancelled mid-run.
#[allow(clippy::too_many_arguments)]
pub fn run_core_dca_sharded_controlled<S, R, O>(
    data: &S,
    ranker: &R,
    objective: &O,
    config: &DcaConfig,
    initial: Option<Vec<f64>>,
    trace: bool,
    control: &RunControl,
) -> Result<CoreDcaOutcome>
where
    S: ShardSource + ?Sized,
    R: Ranker + ?Sized,
    O: Objective + ?Sized,
{
    // In memory a shard costs nothing to revisit, and staging many steps
    // only pushes their blocks out of cache.
    let window = if data.paged() {
        (data.shard_size() / config.sample_size.max(1)).max(1)
    } else {
        1
    };
    let mut samples: Vec<Vec<usize>> = Vec::new();
    run_core_dca_gathered(
        data.schema(),
        data.len(),
        ranker,
        objective,
        config,
        initial,
        trace,
        control,
        window,
        |step_seeds, blocks| {
            // One sample-phase scope per window covers the draws and the
            // shard pass; page-ins it triggers open nested scopes that
            // subtract themselves from this one on the same thread.
            let _sample = crate::obs::profile::scope(crate::obs::Phase::Sample);
            samples.resize_with(step_seeds.len(), Vec::new);
            for (&seed, indices) in step_seeds.iter().zip(&mut samples) {
                data.sample_indices_into(seed, config.sample_size, indices)?;
            }
            gather_rows_by_shard(data, &samples, blocks);
            Ok(())
        },
    )
}

/// Append every step's sampled rows to that step's block in **one
/// ascending pass over the shards**. Each sample comes back grouped by shard
/// in ascending shard order, so visiting the shards in that order and taking
/// each step's run of rows in turn calls [`ShardSource::with_shard`] once
/// per shard the window touches, and leaves each block's rows in the order a
/// step-at-a-time gather would produce.
fn gather_rows_by_shard<S: ShardSource + ?Sized>(
    data: &S,
    samples: &[Vec<usize>],
    blocks: &mut [Dataset],
) {
    let shard_size = data.shard_size();
    let mut cursors = vec![0_usize; samples.len()];
    loop {
        let next = samples
            .iter()
            .zip(cursors.iter())
            .filter_map(|(sample, &at)| sample.get(at))
            .map(|&g| g / shard_size)
            .min();
        let Some(shard) = next else { return };
        data.with_shard(shard, |view| {
            let rows = view.data();
            for ((sample, at), block) in samples.iter().zip(cursors.iter_mut()).zip(&mut *blocks) {
                let run = sample[*at..]
                    .iter()
                    .take_while(|&&g| g / shard_size == shard)
                    .count();
                for &g in &sample[*at..*at + run] {
                    block.push_row(rows.row(g - view.offset()));
                }
                *at += run;
            }
        });
    }
}

/// The one Core-DCA descent loop over a caller-supplied **window gather**:
/// the master RNG emits one step seed per step, `gather_window` receives the
/// seeds of the next `window` steps (fewer for the last window) together
/// with as many cleared, reused staging blocks and fills block `i` with step
/// `i`'s sample rows, and each step then evaluates the ordinary sampled
/// [`Objective`] on its block in place. Cancellation is checked and progress
/// reported once per step, never per window. The local sharded runner
/// ([`run_core_dca_sharded`]) and distributed coordinators both execute
/// exactly this driver, differing only in where the gather fetches rows and
/// how many steps it fetches at once. The seeds, and so the samples, do not
/// depend on `window`, which is why a coordinator that concatenates each
/// worker's [`crate::shard::sample_indices_range_into`] slice in ascending
/// shard order reproduces the local trajectory bit for bit.
///
/// # Errors
/// Returns an error for invalid configurations, empty cohorts, gather or
/// objective failures, or a cancellation requested through `control`.
#[allow(clippy::too_many_arguments)]
pub fn run_core_dca_gathered<R, O>(
    schema: &SchemaRef,
    cohort_len: usize,
    ranker: &R,
    objective: &O,
    config: &DcaConfig,
    initial: Option<Vec<f64>>,
    trace: bool,
    control: &RunControl,
    window: usize,
    mut gather_window: impl FnMut(&[u64], &mut [Dataset]) -> Result<()>,
) -> Result<CoreDcaOutcome>
where
    R: Ranker + ?Sized,
    O: Objective + ?Sized,
{
    let dims = schema.num_fairness();
    config.validate(dims)?;
    if cohort_len == 0 {
        return Err(FairError::EmptyDataset);
    }

    let mut bonus = initial.unwrap_or_else(|| vec![0.0; dims]);
    assert_eq!(bonus.len(), dims, "initial bonus dimensionality mismatch");
    clamp_bonus(&mut bonus, config.polarity, config.caps.as_ref());

    // The master stream only emits one step seed per step; every shard's
    // sampling RNG is split off that seed (shard_seed), so the sample a shard
    // draws is independent of how many other shards exist on this node — or
    // of which node holds them.
    let mut master = StdRng::seed_from_u64(config.seed);
    let total_steps = config.core_steps();
    let window = window.clamp(1, total_steps.max(1));
    let mut step_seeds = Vec::with_capacity(window);
    let mut blocks: Vec<Dataset> = (0..window)
        .map(|_| Dataset::with_capacity(schema.clone(), config.sample_size))
        .collect();
    let mut scratch = DcaScratch::new();
    let mut trace_entries = Vec::new();
    let mut objects_scored = 0_usize;

    for step in 0..total_steps {
        control.checkpoint()?;
        let slot = step % window;
        if slot == 0 {
            let len = window.min(total_steps - step);
            step_seeds.clear();
            step_seeds.extend((0..len).map(|_| master.gen::<u64>()));
            for block in &mut blocks[..len] {
                block.clear();
            }
            gather_window(&step_seeds, &mut blocks[..len])?;
        }
        let lr = config.learning_rates[step / config.iterations_per_rate];
        let sample = blocks[slot].full_view();
        {
            let _score = crate::obs::profile::scope(crate::obs::Phase::Score);
            objective.evaluate_into(
                &sample,
                ranker,
                &bonus,
                &mut scratch.eval,
                &mut scratch.direction,
            )?;
        }
        let direction = &scratch.direction;
        debug_assert_eq!(direction.len(), dims);
        for (b, d) in bonus.iter_mut().zip(direction) {
            *b -= lr * d;
        }
        clamp_bonus(&mut bonus, config.polarity, config.caps.as_ref());
        objects_scored += sample.len();
        if trace {
            trace_entries.push(CoreTraceEntry {
                step,
                learning_rate: lr,
                objective_norm: crate::metrics::norm(direction),
                bonus: bonus.clone(),
            });
        }
        control.report(step + 1, total_steps);
    }

    Ok(CoreDcaOutcome {
        bonus,
        steps: total_steps,
        objects_scored,
        trace: trace_entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::Schema;
    use crate::dca::full::run_full_dca;
    use crate::dca::objective::TopKDisparity;
    use crate::metrics::norm;
    use crate::object::DataObject;
    use crate::ranking::WeightedSumRanker;
    use crate::shard::ShardedDataset;

    /// Biased cohort whose scores and fairness values all sit on a dyadic
    /// grid, so every summation order produces identical bits.
    fn dyadic_biased(n: u64, seed: u64) -> Dataset {
        let schema = Schema::from_names(&["score"], &["g"], &[]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let objects = (0..n)
            .map(|i| {
                let member = rng.gen::<f64>() < 0.3;
                // Scores on a 1/64 grid in [0, 128).
                let base = f64::from(rng.gen_range(0_u32..8192)) / 64.0;
                let score = if member { base - 16.0 } else { base };
                DataObject::new_unchecked(i, vec![score], vec![f64::from(u8::from(member))], None)
            })
            .collect();
        Dataset::new(schema, objects).unwrap()
    }

    fn config() -> DcaConfig {
        DcaConfig {
            sample_size: 150,
            learning_rates: vec![10.0, 1.0],
            iterations_per_rate: 15,
            refinement_iterations: 0,
            seed: 11,
            ..DcaConfig::default()
        }
    }

    #[test]
    fn sharded_full_dca_matches_serial_bitwise_across_shard_sizes() {
        let flat = dyadic_biased(700, 3);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        let cfg = config();
        let serial = run_full_dca(&flat, &ranker, &objective, &cfg, None, true).unwrap();
        for shard_size in [1, 7, 700, 65_536] {
            let data = ShardedDataset::from_dataset(&flat, shard_size).unwrap();
            let sharded =
                run_full_dca_sharded(&data, &ranker, &objective, &cfg, None, true).unwrap();
            let a: Vec<u64> = serial.bonus.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = sharded.bonus.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "shard size {shard_size}");
            assert_eq!(serial.steps, sharded.steps);
            assert_eq!(serial.objects_scored, sharded.objects_scored);
            for (s, t) in serial.trace.iter().zip(&sharded.trace) {
                assert_eq!(s.bonus, t.bonus, "shard size {shard_size} step {}", s.step);
            }
        }
    }

    #[test]
    fn sharded_core_dca_reduces_disparity_and_is_reproducible() {
        let flat = dyadic_biased(3000, 5);
        let data = ShardedDataset::from_dataset(&flat, 256).unwrap();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        let mut cfg = config();
        cfg.iterations_per_rate = 40;
        let a = run_core_dca_sharded(&data, &ranker, &objective, &cfg, None, false).unwrap();
        let b = run_core_dca_sharded(&data, &ranker, &objective, &cfg, None, false).unwrap();
        assert_eq!(a.bonus, b.bonus, "same seed, same trajectory");
        assert_eq!(a.objects_scored, cfg.core_steps() * cfg.sample_size);

        let before = sharded::disparity_at_k(&data, &ranker, &[0.0], 0.2).unwrap();
        let after = sharded::disparity_at_k(&data, &ranker, &a.bonus, 0.2).unwrap();
        assert!(
            norm(&after) < norm(&before) * 0.5,
            "sharded-sampled DCA must reduce disparity: {} -> {}",
            norm(&before),
            norm(&after)
        );
        assert!(a.bonus[0] > 0.0);
    }

    #[test]
    fn sharded_core_dca_shard_layout_changes_samples_but_not_convergence() {
        let flat = dyadic_biased(2000, 9);
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        let mut cfg = config();
        cfg.iterations_per_rate = 40;
        for shard_size in [64, 500] {
            let data = ShardedDataset::from_dataset(&flat, shard_size).unwrap();
            let out = run_core_dca_sharded(&data, &ranker, &objective, &cfg, None, false).unwrap();
            let after = sharded::disparity_at_k(&data, &ranker, &out.bonus, 0.2).unwrap();
            assert!(
                norm(&after) < 0.1,
                "shard size {shard_size}: residual {}",
                norm(&after)
            );
        }
    }

    #[test]
    fn controlled_runs_match_uncontrolled_and_report_progress() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let flat = dyadic_biased(600, 21);
        let data = ShardedDataset::from_dataset(&flat, 64).unwrap();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        let cfg = config();

        let steps_seen = Arc::new(AtomicUsize::new(0));
        let captured = steps_seen.clone();
        let total = cfg.core_steps();
        let control = RunControl::with_progress(move |p| {
            assert_eq!(p.total_steps, total);
            captured.store(p.step, Ordering::Relaxed);
        });

        let plain = run_full_dca_sharded(&data, &ranker, &objective, &cfg, None, true).unwrap();
        let controlled =
            run_full_dca_sharded_controlled(&data, &ranker, &objective, &cfg, None, true, &control)
                .unwrap();
        assert_eq!(plain.bonus, controlled.bonus, "identical trajectory");
        assert_eq!(plain.trace.len(), controlled.trace.len());
        assert_eq!(steps_seen.load(Ordering::Relaxed), total);

        let plain = run_core_dca_sharded(&data, &ranker, &objective, &cfg, None, false).unwrap();
        let controlled = run_core_dca_sharded_controlled(
            &data,
            &ranker,
            &objective,
            &cfg,
            None,
            false,
            &RunControl::new(),
        )
        .unwrap();
        assert_eq!(plain.bonus, controlled.bonus, "identical sample stream");
    }

    #[test]
    fn cancellation_stops_both_runners_at_a_step_boundary() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::{Arc, Weak};

        let flat = dyadic_biased(500, 17);
        let data = ShardedDataset::from_dataset(&flat, 64).unwrap();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        let cfg = config();

        // Pre-cancelled: not a single step runs.
        let control = RunControl::new();
        control.cancel();
        assert!(matches!(
            run_full_dca_sharded_controlled(
                &data, &ranker, &objective, &cfg, None, false, &control
            ),
            Err(FairError::Cancelled)
        ));
        assert!(matches!(
            run_core_dca_sharded_controlled(
                &data, &ranker, &objective, &cfg, None, false, &control
            ),
            Err(FairError::Cancelled)
        ));

        // Mid-run: a progress hook that cancels its own control at step 3 —
        // the run must stop at the next step boundary, not run to completion.
        let last_step = Arc::new(AtomicUsize::new(0));
        let seen = last_step.clone();
        let control = Arc::new_cyclic(|weak: &Weak<RunControl>| {
            let weak = weak.clone();
            RunControl::with_progress(move |p| {
                seen.store(p.step, Ordering::Relaxed);
                if p.step == 3 {
                    if let Some(c) = weak.upgrade() {
                        c.cancel();
                    }
                }
            })
        });
        match run_core_dca_sharded_controlled(
            &data, &ranker, &objective, &cfg, None, false, &control,
        ) {
            Err(FairError::Cancelled) => {}
            other => panic!("expected mid-run cancellation, got {other:?}"),
        }
        assert_eq!(
            last_step.load(Ordering::Relaxed),
            3,
            "exactly 3 steps run before the cancellation takes effect"
        );
    }

    /// A coordinator gathering each step's sample from per-range workers
    /// (`sample_indices_range_into`, concatenated in ascending range order)
    /// reproduces the single-node sharded trajectory bit for bit.
    #[test]
    fn gathered_core_dca_over_range_samples_matches_the_sharded_runner_bitwise() {
        let flat = dyadic_biased(900, 13);
        let data = ShardedDataset::from_dataset(&flat, 64).unwrap();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        let cfg = config();
        let local = run_core_dca_sharded(&data, &ranker, &objective, &cfg, None, true).unwrap();

        let cuts = [0, 3, 5, data.num_shards()];
        let mut indices = Vec::new();
        // The driver's window only batches the gathers: any window size
        // (1, a divisor of the 30 steps, and one that is not) leaves the
        // trajectory unchanged.
        for window in [1, 5, 7] {
            let distributed = run_core_dca_gathered(
                data.schema(),
                data.len(),
                &ranker,
                &objective,
                &cfg,
                None,
                true,
                &RunControl::new(),
                window,
                |step_seeds, blocks| {
                    assert!(step_seeds.len() <= window);
                    assert_eq!(step_seeds.len(), blocks.len());
                    for (&step_seed, gather) in step_seeds.iter().zip(blocks) {
                        for range in cuts.windows(2) {
                            crate::shard::sample_indices_range_into(
                                &data,
                                step_seed,
                                cfg.sample_size,
                                range[0]..range[1],
                                &mut indices,
                            )?;
                            for &g in &indices {
                                data.with_row(g, |row| gather.push_row(row));
                            }
                        }
                    }
                    Ok(())
                },
            )
            .unwrap();
            let a: Vec<u64> = local.bonus.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = distributed.bonus.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                a, b,
                "window {window}: range-gathered Core DCA is bit-identical"
            );
            assert_eq!(local.trace.len(), distributed.trace.len());
            for (s, t) in local.trace.iter().zip(&distributed.trace) {
                assert_eq!(s.bonus, t.bonus, "window {window} step {}", s.step);
            }
        }
    }

    /// An in-memory cohort that reports itself paged (or not) and counts
    /// the two calls the Core-DCA gather makes on it.
    struct Counting<'a> {
        inner: &'a ShardedDataset,
        paged: bool,
        with_shard: std::sync::atomic::AtomicUsize,
        samples: std::sync::atomic::AtomicUsize,
    }

    impl Counting<'_> {
        fn counts(&self) -> (usize, usize) {
            use std::sync::atomic::Ordering::Relaxed;
            (self.with_shard.load(Relaxed), self.samples.load(Relaxed))
        }
    }

    impl ShardSource for Counting<'_> {
        fn schema(&self) -> &SchemaRef {
            self.inner.schema()
        }

        fn len(&self) -> usize {
            self.inner.len()
        }

        fn shard_size(&self) -> usize {
            self.inner.shard_size()
        }

        fn num_shards(&self) -> usize {
            self.inner.num_shards()
        }

        fn paged(&self) -> bool {
            self.paged
        }

        fn with_shard<T>(
            &self,
            index: usize,
            f: impl FnOnce(crate::shard::ShardView<'_>) -> T,
        ) -> T {
            self.with_shard
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.with_shard(index, f)
        }

        fn sample_indices_into(&self, seed: u64, size: usize, out: &mut Vec<usize>) -> Result<()> {
            self.samples
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.sample_indices_into(seed, size, out)
        }
    }

    #[test]
    fn paged_core_dca_lends_each_shard_once_per_window() {
        // 5 shards of 400 rows and 50-row samples: every shard has a quota
        // in every step, and a paged window is 400 / 50 = 8 steps, which
        // does not divide the 30 steps.
        let flat = dyadic_biased(2000, 23);
        let inner = ShardedDataset::from_dataset(&flat, 400).unwrap();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        let mut cfg = config();
        cfg.sample_size = 50;
        let steps = cfg.core_steps();
        let window = inner.shard_size() / cfg.sample_size;
        let reference =
            run_core_dca_sharded(&inner, &ranker, &objective, &cfg, None, true).unwrap();

        for paged in [true, false] {
            let data = Counting {
                inner: &inner,
                paged,
                with_shard: Default::default(),
                samples: Default::default(),
            };
            let out = run_core_dca_sharded(&data, &ranker, &objective, &cfg, None, true).unwrap();
            assert_eq!(bits(&out.bonus), bits(&reference.bonus), "paged {paged}");
            for (s, t) in reference.trace.iter().zip(&out.trace) {
                assert_eq!(
                    bits(&s.bonus),
                    bits(&t.bonus),
                    "paged {paged} step {}",
                    s.step
                );
            }
            let (lent, sampled) = data.counts();
            assert_eq!(sampled, steps, "one draw per step (paged {paged})");
            if paged {
                assert!(
                    lent <= inner.num_shards() * steps.div_ceil(window),
                    "{lent} shard loans for {steps} steps in windows of {window}"
                );
            } else {
                assert_eq!(lent, inner.num_shards() * steps, "one shard pass per step");
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn sharded_runs_reject_empty_and_invalid_inputs() {
        let schema = Schema::from_names(&["s"], &["g"], &[]).unwrap();
        let empty = ShardedDataset::with_shard_size(schema, 8).unwrap();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let objective = TopKDisparity::new(0.2);
        assert!(run_full_dca_sharded(&empty, &ranker, &objective, &config(), None, false).is_err());
        assert!(run_core_dca_sharded(&empty, &ranker, &objective, &config(), None, false).is_err());
        let flat = dyadic_biased(100, 1);
        let data = ShardedDataset::from_dataset(&flat, 16).unwrap();
        let mut bad = config();
        bad.sample_size = 5;
        assert!(run_core_dca_sharded(&data, &ranker, &objective, &bad, None, false).is_err());
    }
}
