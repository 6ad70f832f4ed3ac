//! Windowed Core-DCA gathers over the on-disk shard store.
//!
//! A paged `run_core_dca_sharded` gathers `shard_size / sample_size` steps
//! per pass over the shards. These cases pick shards at least twice the
//! sample, so the window is larger than one step, and step counts the window
//! does not divide, so the last window is short. Each paged run must equal
//! the in-memory `ShardedDataset` run bit for bit, bonus and per-step trace,
//! while running under a progress hook and an installed job profile the way
//! a served job does. One case opens its store with `ShardStore::open`, so
//! the environment's cache budget and readahead depth apply: a starved cache
//! (`FAIR_CACHE_BYTES=0`) evicts every shard between windows.

use fair_ranking::core::obs::{self, JobProfile};
use fair_ranking::prelude::*;
use fair_ranking::store::column_bytes;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

/// A biased cohort on dyadic grids: integer/64 scores, binary group flags and
/// need values in 1/256 steps, so every combine is exact.
fn cohort(n: u32) -> Dataset {
    let schema = Schema::from_names(&["score"], &["grp", "need"], &[]).unwrap();
    let objects = (0..n)
        .map(|i| {
            let member = i % 3 == 0;
            let base = f64::from((i * 517) % 8192) / 64.0;
            let score = if member { base - 24.0 } else { base };
            DataObject::new_unchecked(
                u64::from(i),
                vec![score],
                vec![
                    f64::from(u8::from(member)),
                    f64::from((i * 97) % 257) / 256.0,
                ],
                Some(i % 2 == 0),
            )
        })
        .collect();
    Dataset::new(schema, objects).unwrap()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("fair_window_property_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}_{}.fss", std::process::id()))
}

/// How a case opens its store.
enum Open {
    /// A budget of two shards, so the window pass keeps paging.
    TwoShards,
    /// `ShardStore::open`: budget and readahead from the environment.
    Env,
}

struct Case {
    name: &'static str,
    rows: u32,
    shard_size: usize,
    sample_size: usize,
    iterations_per_rate: usize,
    open: Open,
}

const CASES: [Case; 3] = [
    // Window 4; 26 steps leave a last window of 2.
    Case {
        name: "w4",
        rows: 1000,
        shard_size: 128,
        sample_size: 30,
        iterations_per_rate: 13,
        open: Open::TwoShards,
    },
    // Window 5 with a short final shard; 22 steps leave a last window of 2.
    Case {
        name: "w5_env",
        rows: 1130,
        shard_size: 200,
        sample_size: 40,
        iterations_per_rate: 11,
        open: Open::Env,
    },
    // Window 3 across a step-rate change; 28 steps leave a last window of 1.
    Case {
        name: "w3",
        rows: 700,
        shard_size: 96,
        sample_size: 30,
        iterations_per_rate: 14,
        open: Open::TwoShards,
    },
];

fn config(case: &Case) -> DcaConfig {
    DcaConfig {
        sample_size: case.sample_size,
        learning_rates: vec![8.0, 0.5],
        iterations_per_rate: case.iterations_per_rate,
        refinement_iterations: 0,
        seed: 29,
        ..DcaConfig::default()
    }
}

/// Write the case's cohort to disk and open it the way the case says.
fn store_for(case: &Case, mem: &ShardedDataset) -> (ShardStore, PathBuf) {
    let path = temp_path(case.name);
    write_source(mem, &path).unwrap();
    let store = match case.open {
        Open::TwoShards => {
            ShardStore::open_with_budget(&path, 2 * column_bytes(mem.shard(0).data())).unwrap()
        }
        Open::Env => ShardStore::open(&path).unwrap(),
    };
    (store, path)
}

#[test]
fn windowed_paged_core_dca_matches_memory_bitwise() {
    let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
    let objective = TopKDisparity::new(0.2);
    for case in &CASES {
        let flat = cohort(case.rows);
        let mem = ShardedDataset::from_dataset(&flat, case.shard_size).unwrap();
        let cfg = config(case);
        let steps = cfg.core_steps();
        let window = case.shard_size / case.sample_size;
        assert!(
            window >= 2,
            "{}: the window must exceed one step",
            case.name
        );
        assert_ne!(
            steps % window,
            0,
            "{}: the last window must be short",
            case.name
        );
        assert!(
            steps <= 32,
            "{}: the profile ring holds 32 steps",
            case.name
        );

        let reference = run_core_dca_sharded(&mem, &ranker, &objective, &cfg, None, true).unwrap();

        let (store, path) = store_for(case, &mem);
        let profile = JobProfile::new();
        let hook_profile = profile.clone();
        let reported = Arc::new(AtomicUsize::new(0));
        let seen = reported.clone();
        let control = RunControl::with_progress(move |p| {
            assert_eq!(p.step, seen.fetch_add(1, Ordering::Relaxed) + 1);
            hook_profile.end_step(p.step);
        });
        let before = store.cache_stats();
        let paged = {
            let _installed = obs::profile::install(profile.clone());
            run_core_dca_sharded_controlled(&store, &ranker, &objective, &cfg, None, true, &control)
                .unwrap()
        };
        let after = store.cache_stats();

        assert_eq!(bits(&reference.bonus), bits(&paged.bonus), "{}", case.name);
        assert_eq!(reference.steps, paged.steps);
        assert_eq!(reference.objects_scored, paged.objects_scored);
        assert_eq!(paged.trace.len(), steps);
        for (m, s) in reference.trace.iter().zip(&paged.trace) {
            assert_eq!(m.step, s.step);
            assert_eq!(m.learning_rate.to_bits(), s.learning_rate.to_bits());
            assert_eq!(m.objective_norm.to_bits(), s.objective_norm.to_bits());
            assert_eq!(
                bits(&m.bonus),
                bits(&s.bonus),
                "{} step {}",
                case.name,
                m.step
            );
        }
        assert_eq!(reported.load(Ordering::Relaxed), steps);
        assert_eq!(profile.steps().len(), steps, "{}", case.name);

        // Every shard access is a cache hit or a miss; a window lends each
        // shard at most once.
        let accesses = (after.hits + after.misses) - (before.hits + before.misses);
        let bound = store.num_shards() * steps.div_ceil(window);
        assert!(
            accesses as usize <= bound,
            "{}: {accesses} shard accesses for {steps} steps in windows of {window} (bound {bound})",
            case.name
        );
        assert_eq!(after.pinned_shards, 0, "no pins survive the descent");
        drop(store);
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn cancelling_mid_window_stops_at_the_next_step() {
    let case = &CASES[0];
    let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
    let objective = TopKDisparity::new(0.2);
    let mem = ShardedDataset::from_dataset(&cohort(case.rows), case.shard_size).unwrap();
    let (store, path) = store_for(case, &mem);
    assert!(
        case.shard_size / case.sample_size > 3,
        "step 3 must fall inside the first window"
    );

    let reported = Arc::new(AtomicUsize::new(0));
    let seen = reported.clone();
    let control = Arc::new_cyclic(|weak: &Weak<RunControl>| {
        let weak = weak.clone();
        RunControl::with_progress(move |p| {
            seen.fetch_add(1, Ordering::Relaxed);
            if p.step == 3 {
                if let Some(c) = weak.upgrade() {
                    c.cancel();
                }
            }
        })
    });
    let result = run_core_dca_sharded_controlled(
        &store,
        &ranker,
        &objective,
        &config(case),
        None,
        false,
        &control,
    );
    assert!(
        matches!(result, Err(FairError::Cancelled)),
        "expected a cancellation, got {result:?}"
    );
    assert_eq!(reported.load(Ordering::Relaxed), 3, "exactly 3 steps ran");
    drop(store);
    std::fs::remove_file(path).ok();
}
