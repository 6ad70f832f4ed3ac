//! The Core DCA workloads: `core_mem` (in-memory cohort) and `core_paged`
//! (the same cohort paged from an FSS1 file), plus the descent loop, output
//! checks and DCA-side metrics that `fleet_core` shares.

use crate::inputs::{self, Inputs, K, SCHOOL_DIMS};
use crate::layers::{self, Layers};
use crate::report::Outcome;
use crate::stats::{self, median, Summary};
use crate::sys::{self, ScratchDir, StealMeter, STEAL_LIMIT};
use crate::trace::{self, TracedObjective, TracedSource, Tracer};
use crate::Ctx;
use fair_core::dca::{
    run_core_dca_sharded, run_core_dca_sharded_controlled, RunControl, TopKDisparity,
};
use fair_core::metrics::norm;
use fair_core::metrics::sharded::disparity_at_k;
use fair_core::ranking::WeightedSumRanker;
use fair_core::{DcaConfig, ShardSource, ShardedDataset};
use fair_serve::Json;
use fair_store::{CacheStats, ShardStore};
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Descents a run makes even when they outlast `--seconds`: a paged
/// descent takes seconds, and `time_to_bonus_ms` is their median.
const MIN_DESCENTS: usize = 5;
/// Plain-and-traced descent pairs a traced run makes at least.
pub const MIN_TRACED: usize = 3;
/// Shares of a round's time spent on its descent and on what-if audits.
const DESCENT_SHARE: f64 = 0.7;
const AUDIT_SHARE: f64 = 0.3;
/// Longest audit slice of a round, as a share of `--seconds`: a paged
/// descent takes seconds, and its round's audits stop here.
const MAX_AUDIT_SLICE: f64 = 0.1;
/// Audits an in-process run makes at least, so that the p50 rests on a
/// hundred samples.
const MIN_AUDITS: usize = 100;

/// One timed descent.
pub struct Descent {
    pub seed: u64,
    pub bonus: Result<Vec<f64>, String>,
    pub ms: f64,
    /// The host's steal share while it ran.
    pub steal: f64,
}

/// One timed what-if audit: the full-cohort disparity vector under the
/// seeded bonus of audit `index`.
pub struct Audit {
    pub index: usize,
    pub disparity: Result<Vec<f64>, String>,
    pub ms: f64,
    /// The host's steal share over its audit slice.
    pub steal: f64,
}

/// What the rounds of an untraced DCA run measured.
#[derive(Default)]
pub struct Rounds {
    pub descents: Vec<Descent>,
    pub audits: Vec<Audit>,
    /// Audits per second of each round's audit slice, with the host's
    /// steal share over the slice.
    pub audit_rates: Vec<(f64, f64)>,
}

/// Run descents (each with a fresh seed) and what-if audits (each with its
/// own seeded bonus) in rounds for `--seconds`, and for at least
/// [`MIN_DESCENTS`] descents and `min_audits` audits. A round is one
/// descent and then audits for [`AUDIT_SHARE`]/[`DESCENT_SHARE`] of its
/// time (at least one audit, and at most [`MAX_AUDIT_SLICE`] of
/// `--seconds`). Interleaving spreads both kinds over the
/// whole run, so a burst of host load slows a few samples of each, not
/// every sample of one kind, and their medians hold. While fewer than
/// [`MIN_DESCENTS`] descents ran on a quiet host, rounds go on for up to
/// twice `--seconds`.
pub fn timed_rounds(
    ctx: &Ctx,
    dims: usize,
    min_audits: usize,
    mut descend: impl FnMut(u64) -> Result<Vec<f64>, String>,
    mut audit: impl FnMut(&[f64]) -> Result<Vec<f64>, String>,
) -> Rounds {
    let cap = ctx.seconds * MAX_AUDIT_SLICE;
    let start = Instant::now();
    let mut r = Rounds::default();
    let quiet = |r: &Rounds| r.descents.iter().filter(|d| d.steal <= STEAL_LIMIT).count();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let more = r.descents.len() < MIN_DESCENTS
            || elapsed < ctx.seconds
            || (quiet(&r) < MIN_DESCENTS && elapsed < 2.0 * ctx.seconds);
        if !more {
            break;
        }
        let seed = ctx.inputs.descent_seed(r.descents.len());
        let steal = StealMeter::start();
        let t = Instant::now();
        let bonus = descend(seed);
        let s = t.elapsed().as_secs_f64();
        r.descents.push(Descent {
            seed,
            bonus,
            ms: s * 1e3,
            steal: steal.share(),
        });
        r.audit_slice(
            ctx,
            dims,
            (s * AUDIT_SHARE / DESCENT_SHARE).min(cap),
            &mut audit,
        );
    }
    while r.audits.len() < min_audits {
        r.audit_slice(ctx, dims, 0.0, &mut audit);
    }
    r
}

impl Rounds {
    /// Audits, one after the other, for `seconds` (at least one).
    fn audit_slice(
        &mut self,
        ctx: &Ctx,
        dims: usize,
        seconds: f64,
        audit: &mut impl FnMut(&[f64]) -> Result<Vec<f64>, String>,
    ) {
        let steal = StealMeter::start();
        let start = Instant::now();
        let first = self.audits.len();
        loop {
            let index = self.audits.len();
            let bonus = ctx.inputs.audit_bonus(index, dims);
            let t = Instant::now();
            let disparity = audit(&bonus);
            self.audits.push(Audit {
                index,
                disparity,
                ms: t.elapsed().as_secs_f64() * 1e3,
                steal: 0.0,
            });
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        let rate = (self.audits.len() - first) as f64 / start.elapsed().as_secs_f64();
        let steal = steal.share();
        for a in &mut self.audits[first..] {
            a.steal = steal;
        }
        self.audit_rates.push((rate, steal));
    }
}

/// The in-memory reference every DCA output is checked against.
pub struct Reference<'a> {
    pub cohort: &'a ShardedDataset,
    ranker: WeightedSumRanker,
    /// The DCA configuration of the descent with a given seed.
    config: fn(u64) -> DcaConfig,
    baseline_norm: f64,
    /// Whether bonuses and audits come from another path (paged, fleet,
    /// service) and must match the in-memory ones bit for bit.
    recompute: bool,
}

impl<'a> Reference<'a> {
    pub fn new(
        cohort: &'a ShardedDataset,
        ranker: WeightedSumRanker,
        config: fn(u64) -> DcaConfig,
        recompute: bool,
    ) -> Self {
        let zero = vec![0.0; cohort.schema().num_fairness()];
        let baseline = disparity_at_k(cohort, &ranker, &zero, K)
            .expect("baseline disparity of a generated cohort");
        Self {
            cohort,
            ranker,
            config,
            baseline_norm: norm(&baseline),
            recompute,
        }
    }

    /// The in-memory Core DCA bonus for `seed`.
    pub fn bonus(&self, seed: u64) -> Vec<f64> {
        run_core_dca_sharded(
            self.cohort,
            &self.ranker,
            &inputs::objective(),
            &(self.config)(seed),
            None,
            false,
        )
        .expect("in-memory reference descent")
        .bonus
    }

    /// The full-cohort disparity vector under `bonus`.
    pub fn disparity(&self, bonus: &[f64]) -> Vec<f64> {
        disparity_at_k(self.cohort, &self.ranker, bonus, K).expect("in-memory disparity")
    }

    /// Check one descent; returns the full-cohort disparity norm under its
    /// bonus (computed here, untimed), or why the descent counts as failed.
    pub fn check(&self, d: &Descent) -> Result<f64, String> {
        let bonus = d
            .bonus
            .as_ref()
            .map_err(|e| format!("descent {}: {e}", d.seed))?;
        if self.recompute && !same_bits(bonus, &self.bonus(d.seed)) {
            return Err(format!("descent {}: bonus differs from in-memory", d.seed));
        }
        let after = norm(&self.disparity(bonus));
        if after.is_nan() || after >= self.baseline_norm {
            return Err(format!(
                "descent {}: disparity {after} not below baseline {}",
                d.seed, self.baseline_norm
            ));
        }
        Ok(after)
    }

    /// Check one audit against the in-memory disparity for its bonus.
    pub fn check_audit(&self, inputs: &Inputs, a: &Audit) -> Option<String> {
        let got = match &a.disparity {
            Ok(d) => d,
            Err(e) => return Some(format!("audit {}: {e}", a.index)),
        };
        let bonus = inputs.audit_bonus(a.index, self.cohort.schema().num_fairness());
        (self.recompute && !same_bits(got, &self.disparity(&bonus)))
            .then(|| format!("audit {}: differs from in-memory", a.index))
    }
}

pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Check every descent and audit and record the DCA end-to-end metrics.
pub fn dca_metrics(ctx: &Ctx, out: &mut Outcome, reference: &Reference<'_>, rounds: &Rounds) {
    let mut norms = Vec::new();
    for d in &rounds.descents {
        let checked = reference.check(d);
        if let Ok(n) = checked {
            norms.push(n);
        }
        out.op(checked.err());
    }
    for a in &rounds.audits {
        out.op(reference.check_audit(&ctx.inputs, a));
    }
    let ms: Vec<(f64, f64)> = rounds.descents.iter().map(|d| (d.ms, d.steal)).collect();
    time_to_bonus(out, "descents", &ms);
    out.metric("disparity_after", median(&norms), "l2_norm");
    let audit_ms: Vec<(f64, f64)> = rounds.audits.iter().map(|a| (a.ms, a.steal)).collect();
    audit_metrics(out, &audit_ms, &rounds.audit_rates);
}

/// `time_to_bonus_ms`: the median time of the descents (or jobs) that ran
/// on a quiet host; see [`stats::quiet`]. The config line counts those
/// left out.
pub fn time_to_bonus(out: &mut Outcome, what: &'static str, ms: &[(f64, f64)]) {
    let (kept, left_out) = stats::quiet(ms);
    out.metric("time_to_bonus_ms", median(&kept), "ms");
    out.setting(what, Json::num(ms.len() as f64));
    out.setting(
        match what {
            "jobs" => "jobs_disturbed",
            _ => "descents_disturbed",
        },
        Json::num(left_out as f64),
    );
}

/// `audit_ms_p50` over the latencies, and `audit_rps` as the median of the
/// audit slices' rates, each over the slices that ran on a quiet host (see
/// [`stats::quiet`]). No higher percentile is reported: on the 2-core
/// development host the open-loop p90 spread 25% to 35% across ten seeds in
/// three of four sets, beyond any bound a regression check could use.
pub fn audit_metrics(out: &mut Outcome, latencies_ms: &[(f64, f64)], rates: &[(f64, f64)]) {
    let (latencies, _) = stats::quiet(latencies_ms);
    let (rates, left_out) = stats::quiet(rates);
    let s = Summary::of(&latencies);
    out.metric("audit_ms_p50", s.map_or(0.0, |s| s.p50), "ms");
    out.metric("audit_rps", median(&rates), "audits/s");
    out.setting("audit_samples", Json::num(s.map_or(0, |s| s.n) as f64));
    out.setting("audit_slices_disturbed", Json::num(left_out as f64));
}

/// The cohort's column bytes (the payload a store's cache budget counts).
pub fn column_bytes(cohort: &ShardedDataset) -> usize {
    cohort
        .shards()
        .map(|s| fair_store::column_bytes(s.data()))
        .sum()
}

fn descend_on<S: ShardSource + ?Sized>(source: &S, seed: u64) -> Result<Vec<f64>, String> {
    run_core_dca_sharded(
        source,
        &inputs::school_ranker(),
        &inputs::objective(),
        &inputs::dca_config(seed),
        None,
        false,
    )
    .map(|o| o.bonus)
    .map_err(|e| e.to_string())
}

fn audit_on<S: ShardSource + ?Sized>(source: &S, bonus: &[f64]) -> Result<Vec<f64>, String> {
    disparity_at_k(source, &inputs::school_ranker(), bonus, K).map_err(|e| e.to_string())
}

/// `core_mem`: Core DCA on the in-memory 1M-row school cohort.
pub fn core_mem(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut cohort = None;
    for _ in 0..SETUP_REPS {
        drop(cohort.take());
        let t = Instant::now();
        cohort = Some(ctx.inputs.school());
        setups.push(t.elapsed().as_secs_f64());
    }
    let cohort = cohort.expect("at least one set-up");
    settings(&mut out, &cohort, None);
    if ctx.trace {
        let mut layers = Layers::default();
        layers.set("setup.generate_s", median(&setups));
        traced_core(ctx, &mut out, &mut layers, &cohort, None, &cohort);
        layers.emit(&mut out);
        return out;
    }
    out.metric("setup_s", median(&setups), "s");
    out.reset_peak_rss();
    let rounds = timed_rounds(
        ctx,
        SCHOOL_DIMS,
        MIN_AUDITS,
        |seed| descend_on(&cohort, seed),
        |b| audit_on(&cohort, b),
    );
    out.peak_rss = sys::peak_rss_bytes("self");
    let reference = Reference::new(&cohort, inputs::school_ranker(), inputs::dca_config, false);
    dca_metrics(ctx, &mut out, &reference, &rounds);
    out
}

/// `core_paged`: the same descents over the cohort written to an FSS1 file
/// and paged through a cache a quarter of its size.
pub fn core_paged(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let dir = match ScratchDir::new() {
        Ok(d) => d,
        Err(e) => {
            out.broken.push(format!("scratch dir: {e}"));
            return out;
        }
    };
    let path = dir.file("school.fss");
    let (mut generate, mut write, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    let mut state: Option<(ShardedDataset, ShardStore)> = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t = Instant::now();
        let cohort = ctx.inputs.school();
        generate.push(t.elapsed().as_secs_f64());
        let w = Instant::now();
        let budget = column_bytes(&cohort) / 4;
        let opened = fair_store::write_source(&cohort, &path).and_then(|_| {
            ShardStore::open_with_options(&path, budget, fair_store::default_prefetch())
        });
        write.push(w.elapsed().as_secs_f64());
        setups.push(t.elapsed().as_secs_f64());
        match opened {
            Ok(store) => state = Some((cohort, store)),
            Err(e) => {
                out.broken.push(format!("store set-up: {e}"));
                return out;
            }
        }
    }
    let (cohort, store) = state.expect("at least one set-up");
    settings(&mut out, &cohort, Some(&store));
    if ctx.trace {
        let mut layers = Layers::default();
        layers.set("setup.generate_s", median(&generate));
        layers.set("setup.store_write_s", median(&write));
        traced_core(ctx, &mut out, &mut layers, &store, Some(&store), &cohort);
        layers.emit(&mut out);
        return out;
    }
    out.metric("setup_s", median(&setups), "s");
    // The timed phase holds only the store: the in-memory cohort the checks
    // need is regenerated from the seed once the peak RSS has been read.
    drop(cohort);
    out.reset_peak_rss();
    let rounds = timed_rounds(
        ctx,
        SCHOOL_DIMS,
        MIN_AUDITS,
        |seed| descend_on(&store, seed),
        |b| audit_on(&store, b),
    );
    out.peak_rss = sys::peak_rss_bytes("self");
    let cohort = ctx.inputs.school();
    let reference = Reference::new(&cohort, inputs::school_ranker(), inputs::dca_config, true);
    dca_metrics(ctx, &mut out, &reference, &rounds);
    out
}

fn settings(out: &mut Outcome, cohort: &ShardedDataset, store: Option<&ShardStore>) {
    out.setting("rows", Json::num(cohort.len() as f64));
    out.setting("shard_size", Json::num(cohort.shard_size() as f64));
    let config = inputs::dca_config(0);
    out.setting("sample_size", Json::num(config.sample_size as f64));
    out.setting("steps", Json::num(config.core_steps() as f64));
    if let Some(store) = store {
        out.setting("cache_budget_bytes", Json::num(store.cache_budget() as f64));
        out.setting("prefetch_depth", Json::num(store.prefetch_depth() as f64));
    }
}

/// The traced run of a Core DCA workload: each seed descends once plain and
/// once through the tracing wrappers (alternating which goes first); the
/// two bonuses must match bit for bit, and their wall times give the
/// tracing overhead.
fn traced_core<S: ShardSource + ?Sized>(
    ctx: &Ctx,
    out: &mut Outcome,
    layers: &mut Layers,
    source: &S,
    store: Option<&ShardStore>,
    cohort: &ShardedDataset,
) {
    let tracer = Arc::new(Tracer::new());
    let traced_source = TracedSource::new(source, &tracer, "shard.gather");
    let objective = inputs::objective();
    let traced_objective = TracedObjective::new(&objective, &tracer);
    let hook = {
        let tracer = tracer.clone();
        RunControl::with_progress(move |p| tracer.step_done(p.step, p.total_steps))
    };
    let mut cache = CacheStats::default();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut i = 0;
    while i < MIN_TRACED || start.elapsed().as_secs_f64() < ctx.seconds {
        let seed = ctx.inputs.descent_seed(i);
        let traced = || {
            let before = store.map(ShardStore::cache_stats);
            let t = Instant::now();
            let r = descend_traced(&traced_source, &traced_objective, &hook, i as u64, seed);
            traced_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if let (Some(before), Some(store)) = (before, store) {
                cache =
                    layers::cache_sum(&cache, &layers::cache_delta(&before, &store.cache_stats()));
            }
            r
        };
        let plain = || {
            let t = Instant::now();
            let r = descend_on(source, seed);
            plain_ms.push(t.elapsed().as_secs_f64() * 1e3);
            r
        };
        let (a, b) = layers::alternate(i, plain, traced);
        let why = match (&a, &b) {
            (Ok(p), Ok(t)) if same_bits(p, t) => None,
            (Ok(_), Ok(_)) => Some(format!("seed {seed}: traced bonus differs from plain")),
            (Err(e), _) | (_, Err(e)) => Some(format!("seed {seed}: {e}")),
        };
        out.op(why);
        i += 1;
    }

    let spans = tracer.spans();
    let (n_steps, _) = layers.steps(&spans);
    let own = trace::self_times(&spans);
    let self_us = |name: &str| -> f64 {
        own.iter()
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| *t as f64 / 1e3)
            .sum()
    };
    let total_us = |name: &str| -> f64 {
        trace::durations(&spans, name)
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .sum()
    };
    layers.set("dca.driver_us", self_us("dca.step") / n_steps);
    layers.set("shard.sample_us", total_us("shard.sample") / n_steps);
    layers.set("shard.gather_us", total_us("shard.gather") / n_steps);
    layers.set(
        "shard.shards_per_step",
        traced_source.with_shard_calls() as f64 / n_steps,
    );
    layers.set("score.evaluate_us", total_us("score.evaluate") / n_steps);
    layers.set("score.rows", traced_objective.rows() as f64 / n_steps);
    if let Some(store) = store {
        layers.set("store.page_in_us", self_us("store.with_shard") / n_steps);
        let shard_bytes = column_bytes(cohort) as f64 / store.num_shards() as f64;
        layers.store(&cache, &store.cache_stats(), shard_bytes);
    }
    let root_ns: f64 = trace::durations(&spans, "dca.descent")
        .iter()
        .map(|&n| n as f64)
        .sum();
    layers.shares(&spans, root_ns);
    layers.finish(ctx, &tracer, &traced_ms, &plain_ms);
}

/// One descent through the tracing wrappers, as operation `op`; `hook`
/// must report steps to the wrappers' tracer.
fn descend_traced<S: ShardSource + ?Sized>(
    source: &TracedSource<'_, S>,
    objective: &TracedObjective<'_, TopKDisparity>,
    hook: &RunControl,
    op: u64,
    seed: u64,
) -> Result<Vec<f64>, String> {
    let tracer = source.tracer;
    let root = tracer.begin_op(op, "dca.descent");
    tracer.begin_steps();
    let r = run_core_dca_sharded_controlled(
        source,
        &inputs::school_ranker(),
        objective,
        &inputs::dca_config(seed),
        None,
        false,
        hook,
    );
    tracer.end_steps();
    root.close();
    r.map(|o| o.bonus).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fair_data::{SchoolConfig, SchoolGenerator};

    fn traced_matches_plain<S: ShardSource + ?Sized>(source: &S) {
        let tracer = Arc::new(Tracer::new());
        let traced_source = TracedSource::new(source, &tracer, "shard.gather");
        let objective = inputs::objective();
        let traced_objective = TracedObjective::new(&objective, &tracer);
        let hook = {
            let tracer = tracer.clone();
            RunControl::with_progress(move |p| tracer.step_done(p.step, p.total_steps))
        };
        for (op, seed) in [11_u64, 12].into_iter().enumerate() {
            let plain = descend_on(source, seed).unwrap();
            let traced =
                descend_traced(&traced_source, &traced_objective, &hook, op as u64, seed).unwrap();
            assert!(
                same_bits(&plain, &traced),
                "seed {seed}: {plain:?} != {traced:?}"
            );
        }
        let spans = tracer.spans();
        assert_eq!(trace::durations(&spans, "dca.step").len(), 400);
        assert_eq!(trace::durations(&spans, "dca.descent").len(), 2);
        assert_eq!(traced_objective.rows(), 400 * 500);
    }

    #[test]
    fn traced_descent_is_bit_identical_to_plain_in_memory_and_paged() {
        let cohort = SchoolGenerator::new(SchoolConfig::small(20_000, 3))
            .generate_sharded(4_096)
            .unwrap()
            .into_dataset();
        traced_matches_plain(&cohort);
        let dir = ScratchDir::new().unwrap();
        let path = dir.file("cohort.fss");
        fair_store::write_source(&cohort, &path).unwrap();
        let store = ShardStore::open_with_options(&path, column_bytes(&cohort) / 4, 2).unwrap();
        traced_matches_plain(&store);
    }
}
