//! Property and acceptance tests for the on-disk shard store (`fair-store`):
//!
//! 1. **Round trip** — `ShardedDataset → StoreWriter → ShardStore` is
//!    bit-for-bit identical per shard (ids, feature/fairness bit patterns,
//!    labels), for shard sizes 1, 7, and the production 64k, including short
//!    final shards.
//! 2. **Evaluation parity** — every sharded metric and a Full-DCA bonus
//!    trajectory computed over the `ShardStore` equals the in-memory
//!    `ShardedDataset` result bit for bit, which in turn equals the serial
//!    single-`Dataset` path (dyadic-grid data, see `properties_shard.rs`).
//!    A paged Core DCA descent run with a progress hook and a phase profile
//!    installed equals the plain in-memory descent.
//! 3. **Corruption** — wrong magic, truncated directories, and flipped data
//!    bytes are structured errors, never panics and never mis-decodes.
//! 4. **Bounded memory (acceptance)** — evaluating a cohort through a cache
//!    budget smaller than its column data keeps the cache's peak resident
//!    bytes under the budget, while still reproducing the in-memory results
//!    exactly.

use fair_ranking::core::metrics::sharded as shmetrics;
use fair_ranking::prelude::*;
use fair_ranking::store::column_bytes;
use proptest::collection::vec as pvec;
use proptest::prelude::*;

/// Shard sizes the checklist calls out: degenerate (1), a small prime that
/// rarely divides the cohort (7), and the production default.
const SHARD_SIZES: [usize; 3] = [1, 7, 64 * 1024];

/// One generated row: score numerator, binary group flag, continuous-need
/// numerator, outcome label — everything on dyadic grids so every combine is
/// exact and "bit-for-bit" is meaningful.
type Row = (u32, bool, u16, bool);

fn dataset_from_rows(rows: &[Row]) -> Dataset {
    let schema = Schema::from_names(&["score"], &["grp", "need"], &[]).unwrap();
    let objects: Vec<DataObject> = rows
        .iter()
        .enumerate()
        .map(|(i, &(score, member, need, label))| {
            DataObject::new_unchecked(
                i as u64,
                vec![f64::from(score) / 64.0],
                vec![f64::from(u8::from(member)), f64::from(need) / 256.0],
                Some(label),
            )
        })
        .collect();
    Dataset::new(schema, objects).unwrap()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn row_strategy() -> impl Strategy<Value = Vec<Row>> {
    pvec(
        (0_u32..8192, any::<bool>(), 0_u16..257, any::<bool>()),
        8..120,
    )
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("fair_store_property_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}_{}.fss", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Writing a sharded cohort to disk and paging it back reproduces every
    /// shard bit for bit, at every shard size (short final shards included).
    #[test]
    fn store_round_trip_is_bit_identical(rows in row_strategy()) {
        let flat = dataset_from_rows(&rows);
        let path = temp_path("round_trip");
        for shard_size in SHARD_SIZES {
            let mem = ShardedDataset::from_dataset(&flat, shard_size).unwrap();
            let summary = write_source(&mem, &path).unwrap();
            prop_assert_eq!(summary.rows, rows.len() as u64);
            prop_assert_eq!(summary.shards, mem.num_shards() as u64);

            let store = ShardStore::open_with_budget(&path, usize::MAX).unwrap();
            prop_assert_eq!(store.len(), mem.len());
            prop_assert_eq!(store.shard_size(), shard_size);
            prop_assert_eq!(store.num_shards(), mem.num_shards());
            for i in 0..mem.num_shards() {
                let disk = store.read_shard(i).unwrap();
                let shard = mem.shard(i);
                prop_assert_eq!(disk.len(), shard.len(), "shard {} rows", i);
                prop_assert_eq!(disk.ids(), shard.data().ids(), "shard {} ids", i);
                prop_assert_eq!(disk.labels(), shard.data().labels(), "shard {} labels", i);
                prop_assert_eq!(
                    bits(disk.features_matrix()),
                    bits(shard.data().features_matrix()),
                    "shard {} features", i
                );
                prop_assert_eq!(
                    bits(disk.fairness_matrix()),
                    bits(shard.data().fairness_matrix()),
                    "shard {} fairness", i
                );
            }
        }
        std::fs::remove_file(path).ok();
    }

    /// Every sharded metric — and a Full-DCA bonus trajectory — evaluated
    /// over the on-disk store equals the in-memory sharded path bit for bit,
    /// which equals the serial path (`ShardStore == ShardedDataset ==
    /// serial`).
    #[test]
    fn store_evaluation_matches_memory_and_serial(
        rows in row_strategy(),
        k in 0.02_f64..1.0,
    ) {
        let flat = dataset_from_rows(&rows);
        let view = flat.full_view();
        let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
        let bonus = [2.5_f64, 0.25];
        let ranking = RankedSelection::from_scores(effective_scores(&view, &ranker, &bonus));
        let log_cfg = LogDiscountConfig { step: 5, max_fraction: 0.5 };

        let serial_disp = disparity_at_k(&view, &ranking, k).unwrap();
        let serial_ndcg = ndcg_at_k(&view, &ranker, &ranking, k).unwrap();
        let serial_log = log_discounted_disparity(&view, &ranking, &log_cfg).unwrap();
        let serial_fpr = fpr_difference_at_k(&view, &ranking, k).unwrap();
        let serial_di =
            fair_ranking::core::metrics::scaled_disparate_impact_at_k(&view, &ranking, k).unwrap();

        let path = temp_path("parity");
        let mem = ShardedDataset::from_dataset(&flat, 7).unwrap();
        write_source(&mem, &path).unwrap();
        // A budget of two shards forces steady paging during evaluation.
        let two_shards = 2 * column_bytes(mem.shard(0).data());
        let store = ShardStore::open_with_budget(&path, two_shards).unwrap();

        let mem_disp = shmetrics::disparity_at_k(&mem, &ranker, &bonus, k).unwrap();
        let store_disp = shmetrics::disparity_at_k(&store, &ranker, &bonus, k).unwrap();
        prop_assert_eq!(&bits(&serial_disp), &bits(&mem_disp), "serial vs memory");
        prop_assert_eq!(&bits(&mem_disp), &bits(&store_disp), "memory vs store");

        let mem_ndcg = shmetrics::ndcg_at_k(&mem, &ranker, &bonus, k).unwrap();
        let store_ndcg = shmetrics::ndcg_at_k(&store, &ranker, &bonus, k).unwrap();
        prop_assert_eq!(serial_ndcg.to_bits(), mem_ndcg.to_bits());
        prop_assert_eq!(mem_ndcg.to_bits(), store_ndcg.to_bits());

        let mem_log = shmetrics::log_discounted_disparity(&mem, &ranker, &bonus, &log_cfg).unwrap();
        let store_log =
            shmetrics::log_discounted_disparity(&store, &ranker, &bonus, &log_cfg).unwrap();
        prop_assert_eq!(&bits(&serial_log), &bits(&mem_log));
        prop_assert_eq!(&bits(&mem_log), &bits(&store_log));

        let mem_fpr = shmetrics::fpr_difference_at_k(&mem, &ranker, &bonus, k).unwrap();
        let store_fpr = shmetrics::fpr_difference_at_k(&store, &ranker, &bonus, k).unwrap();
        prop_assert_eq!(&bits(&serial_fpr), &bits(&mem_fpr));
        prop_assert_eq!(&bits(&mem_fpr), &bits(&store_fpr));

        let mem_di = shmetrics::scaled_disparate_impact_at_k(&mem, &ranker, &bonus, k).unwrap();
        let store_di = shmetrics::scaled_disparate_impact_at_k(&store, &ranker, &bonus, k).unwrap();
        prop_assert_eq!(&bits(&serial_di), &bits(&mem_di));
        prop_assert_eq!(&bits(&mem_di), &bits(&store_di));

        // Full DCA: the whole bonus trajectory must agree across all three.
        let objective = TopKDisparity::new(k.clamp(0.05, 0.6));
        let config = DcaConfig {
            learning_rates: vec![8.0, 0.5],
            iterations_per_rate: 3,
            refinement_iterations: 0,
            ..DcaConfig::default()
        };
        let serial_dca = run_full_dca(&flat, &ranker, &objective, &config, None, true).unwrap();
        let mem_dca = run_full_dca_sharded(&mem, &ranker, &objective, &config, None, true).unwrap();
        let store_dca =
            run_full_dca_sharded(&store, &ranker, &objective, &config, None, true).unwrap();
        prop_assert_eq!(&bits(&serial_dca.bonus), &bits(&mem_dca.bonus));
        prop_assert_eq!(&bits(&mem_dca.bonus), &bits(&store_dca.bonus));
        prop_assert_eq!(mem_dca.steps, store_dca.steps);
        for (m, s) in mem_dca.trace.iter().zip(&store_dca.trace) {
            prop_assert_eq!(&bits(&m.bonus), &bits(&s.bonus), "trace step {}", m.step);
        }

        // Core DCA with per-shard sampling draws the same seed-split streams
        // regardless of the storage backend — and regardless of the
        // instrumentation a served job carries: the paged side runs under a
        // step-timing progress hook with a phase profile installed, as the
        // job manager runs it, and still matches the plain in-memory run.
        let core_cfg = DcaConfig {
            sample_size: 30,
            learning_rates: vec![4.0],
            iterations_per_rate: 3,
            refinement_iterations: 0,
            seed: 11,
            ..DcaConfig::default()
        };
        let mem_core =
            run_core_dca_sharded(&mem, &ranker, &objective, &core_cfg, None, false).unwrap();
        let step_us = fair_ranking::core::obs::histogram("properties_store_core_step_us", &[]);
        let timed_before = step_us.count();
        let step_timer = step_duration_hook(step_us.clone());
        let profile = fair_ranking::core::obs::JobProfile::new();
        let hook_profile = profile.clone();
        let control = RunControl::with_progress(move |p| {
            step_timer(p);
            hook_profile.end_step(p.step);
        });
        let store_core = {
            let _installed = fair_ranking::core::obs::profile::install(profile.clone());
            run_core_dca_sharded_controlled(
                &store, &ranker, &objective, &core_cfg, None, false, &control,
            )
            .unwrap()
        };
        prop_assert_eq!(&bits(&mem_core.bonus), &bits(&store_core.bonus));
        prop_assert_eq!(mem_core.steps, store_core.steps);
        prop_assert_eq!(mem_core.objects_scored, store_core.objects_scored);
        prop_assert_eq!(step_us.count() - timed_before, store_core.steps as u64);
        prop_assert_eq!(profile.steps().len(), store_core.steps);
        std::fs::remove_file(path).ok();
    }
}

/// The acceptance criterion: a cohort whose column data exceeds the cache
/// budget evaluates every sharded metric and a Full-DCA trajectory
/// identically to the in-memory path while the cache's peak resident bytes
/// stay under `FAIR_CACHE_BYTES` (here set programmatically, so the test is
/// immune to the environment).
#[test]
fn paged_evaluation_stays_under_the_cache_budget() {
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let shard_size = 64_usize;
    let num_shards = (8 * workers).max(64);
    let n = shard_size * num_shards;
    let rows: Vec<Row> = (0..n as u32)
        .map(|i| {
            (
                (i * 517) % 8192,
                i % 3 == 0,
                ((i * 97) % 257) as u16,
                i % 2 == 0,
            )
        })
        .collect();
    let flat = dataset_from_rows(&rows);
    let mem = ShardedDataset::from_dataset(&flat, shard_size).unwrap();
    let path = temp_path("budget");
    write_source(&mem, &path).unwrap();

    let shard_bytes = column_bytes(mem.shard(0).data());
    let total_bytes = num_shards * shard_bytes;
    // Big enough that the parallel workers' pinned working set fits, small
    // enough that the cohort cannot be resident all at once.
    let budget = (4 * workers * shard_bytes).max(8 * shard_bytes);
    assert!(
        budget < total_bytes,
        "test setup: budget {budget} must be smaller than the cohort's {total_bytes} column bytes"
    );
    let store = ShardStore::open_with_budget(&path, budget).unwrap();

    let ranker = WeightedSumRanker::new(vec![1.0]).unwrap();
    let bonus = [2.5_f64, 0.25];
    let k = 0.05;
    let log_cfg = LogDiscountConfig {
        step: 50,
        max_fraction: 0.5,
    };

    let mem_disp = shmetrics::disparity_at_k(&mem, &ranker, &bonus, k).unwrap();
    let store_disp = shmetrics::disparity_at_k(&store, &ranker, &bonus, k).unwrap();
    assert_eq!(bits(&mem_disp), bits(&store_disp), "disparity parity");
    assert_eq!(
        shmetrics::ndcg_at_k(&mem, &ranker, &bonus, k)
            .unwrap()
            .to_bits(),
        shmetrics::ndcg_at_k(&store, &ranker, &bonus, k)
            .unwrap()
            .to_bits(),
        "ndcg parity"
    );
    assert_eq!(
        bits(&shmetrics::log_discounted_disparity(&mem, &ranker, &bonus, &log_cfg).unwrap()),
        bits(&shmetrics::log_discounted_disparity(&store, &ranker, &bonus, &log_cfg).unwrap()),
        "log-discounted parity"
    );
    assert_eq!(
        bits(&shmetrics::fpr_difference_at_k(&mem, &ranker, &bonus, k).unwrap()),
        bits(&shmetrics::fpr_difference_at_k(&store, &ranker, &bonus, k).unwrap()),
        "fpr parity"
    );

    let objective = TopKDisparity::new(k);
    let config = DcaConfig {
        learning_rates: vec![8.0, 0.5],
        iterations_per_rate: 3,
        refinement_iterations: 0,
        ..DcaConfig::default()
    };
    let mem_dca = run_full_dca_sharded(&mem, &ranker, &objective, &config, None, true).unwrap();
    let store_dca = run_full_dca_sharded(&store, &ranker, &objective, &config, None, true).unwrap();
    assert_eq!(bits(&mem_dca.bonus), bits(&store_dca.bonus), "DCA parity");
    for (m, s) in mem_dca.trace.iter().zip(&store_dca.trace) {
        assert_eq!(bits(&m.bonus), bits(&s.bonus), "DCA trace step {}", m.step);
    }

    let stats = store.cache_stats();
    assert!(
        stats.peak_bytes <= budget,
        "peak resident bytes {} must stay under the budget {} \
         (shard {} B, {} shards, {} workers)",
        stats.peak_bytes,
        budget,
        shard_bytes,
        num_shards,
        workers
    );
    assert!(
        stats.misses >= num_shards as u64,
        "every shard must have been paged in at least once ({} misses)",
        stats.misses
    );
    assert!(
        stats.evictions > 0,
        "a budget below the cohort size must evict ({stats:?})"
    );
    assert_eq!(stats.budget_bytes, budget);
    assert_eq!(stats.pinned_shards, 0, "no pins survive the kernels");
    assert!(stats.resident_bytes <= budget);
    std::fs::remove_file(path).ok();
}

/// Concurrency regression for the serving layer: N request threads hammer
/// *one* shared `ShardStore` handle in different shard orders while the
/// budget forces continuous eviction. Every thread must observe every shard
/// bit-identical to the in-memory (serial) reference — a stale or
/// mid-eviction read would corrupt the comparison — and the pin-while-
/// borrowed accounting must keep `peak_bytes <= budget` even with all
/// threads pinning simultaneously.
#[test]
fn concurrent_paged_reads_are_bit_identical_and_stay_under_budget() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 4;
    let shard_size = 32_usize;
    let num_shards = 40_usize;
    let n = shard_size * num_shards;
    let rows: Vec<Row> = (0..n as u32)
        .map(|i| {
            (
                (i * 811) % 8192,
                i % 5 == 0,
                ((i * 31) % 257) as u16,
                i % 2 == 1,
            )
        })
        .collect();
    let flat = dataset_from_rows(&rows);
    let mem = ShardedDataset::from_dataset(&flat, shard_size).unwrap();
    let path = temp_path("concurrent");
    write_source(&mem, &path).unwrap();

    let shard_bytes = column_bytes(mem.shard(0).data());
    // Room for each thread's pinned shard plus one, far below the cohort —
    // every round of the hammer loop below must evict.
    let budget = (THREADS + 1) * shard_bytes;
    assert!(
        budget < num_shards * shard_bytes,
        "budget must force paging"
    );
    let store = std::sync::Arc::new(ShardStore::open_with_budget(&path, budget).unwrap());

    // Serial reference: per-shard bit patterns off the in-memory source.
    let reference: Vec<(Vec<u64>, Vec<u64>, u64)> = (0..num_shards)
        .map(|i| {
            let d = mem.shard(i).data();
            (
                bits(d.features_matrix()),
                bits(d.fairness_matrix()),
                d.ids().iter().map(|id| id.0).sum::<u64>(),
            )
        })
        .collect();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let store = store.clone();
            let reference = &reference;
            scope.spawn(move || {
                // Each thread walks the shards with a different coprime
                // stride, so at any instant the threads are pinning
                // different shards and evicting each other's.
                let stride = [1, 3, 7, 9, 11, 13, 17, 19][t];
                for round in 0..ROUNDS {
                    for j in 0..num_shards {
                        let i = (j * stride + round + t) % num_shards;
                        store.with_shard(i, |view| {
                            let d = view.data();
                            let (ref f, ref a, id_sum) = reference[i];
                            assert_eq!(&bits(d.features_matrix()), f, "shard {i} features");
                            assert_eq!(&bits(d.fairness_matrix()), a, "shard {i} fairness");
                            assert_eq!(
                                d.ids().iter().map(|id| id.0).sum::<u64>(),
                                id_sum,
                                "shard {i} ids"
                            );
                        });
                    }
                }
            });
        }
    });

    let stats = store.cache_stats();
    assert!(
        stats.peak_bytes <= budget,
        "concurrent pinning must never push the peak {} over the budget {budget}",
        stats.peak_bytes
    );
    assert!(
        stats.evictions > 0,
        "the hammer loop must continuously evict ({stats:?})"
    );
    assert!(
        stats.misses >= num_shards as u64,
        "every shard pages in at least once"
    );
    assert_eq!(stats.pinned_shards, 0, "no pins survive the threads");
    assert_eq!(
        stats.hits + stats.misses,
        (THREADS * ROUNDS * num_shards) as u64,
        "every access is either a hit or a miss"
    );
    std::fs::remove_file(path).ok();
}

/// Corrupted files must surface as structured `StoreError`s through the
/// public API — never a panic, never a silently wrong decode.
#[test]
fn corrupted_files_yield_structured_errors() {
    let flat = dataset_from_rows(
        &(0..40_u32)
            .map(|i| ((i * 31) % 8192, i % 2 == 0, (i % 257) as u16, i % 3 == 0))
            .collect::<Vec<Row>>(),
    );
    let mem = ShardedDataset::from_dataset(&flat, 8).unwrap();
    let path = temp_path("corrupt");
    write_source(&mem, &path).unwrap();
    let pristine = std::fs::read(&path).unwrap();

    // Wrong magic.
    let mut bad = pristine.clone();
    bad[..4].copy_from_slice(b"NOPE");
    std::fs::write(&path, &bad).unwrap();
    match ShardStore::open_with_budget(&path, 0) {
        Err(StoreError::Corrupt { what, reason, .. }) => {
            assert!(what.contains("header"), "{what}: {reason}");
        }
        other => panic!("wrong magic must be corrupt, got {other:?}"),
    }

    // Truncated directory: chop the tail off.
    std::fs::write(&path, &pristine[..pristine.len() - 7]).unwrap();
    match ShardStore::open_with_budget(&path, 0) {
        Err(StoreError::Corrupt { what, .. }) => {
            assert!(what.contains("directory"), "{what}");
        }
        other => panic!("truncated directory must be corrupt, got {other:?}"),
    }

    // A flipped byte in every single data position must never mis-decode:
    // each position either fails a checksum (structured error) or — for
    // bytes in CRC fields themselves — fails that block's verification.
    // Exhaustively flipping every byte is slow, so stride through the file.
    for flip in (60..pristine.len().saturating_sub(150)).step_by(131) {
        let mut bad = pristine.clone();
        bad[flip] ^= 0x20;
        std::fs::write(&path, &bad).unwrap();
        match ShardStore::open_with_budget(&path, 0) {
            // Header/schema/directory corruption: rejected at open.
            Err(e) => {
                assert!(
                    matches!(e, StoreError::Corrupt { .. }),
                    "flip at {flip}: {e}"
                );
            }
            // Shard-block corruption: rejected at page-in by verify().
            Ok(store) => {
                let err = store
                    .verify()
                    .expect_err(&format!("flip at byte {flip} must fail verification"));
                assert!(
                    matches!(err, StoreError::Corrupt { .. }),
                    "flip at {flip}: {err}"
                );
            }
        }
    }

    // The pristine bytes still open and verify cleanly.
    std::fs::write(&path, &pristine).unwrap();
    let store = ShardStore::open_with_budget(&path, 0).unwrap();
    store.verify().unwrap();
    std::fs::remove_file(path).ok();
}

/// Zero shard sizes are structured errors at every layer (regression for the
/// satellite fix: no panics).
#[test]
fn zero_shard_size_is_rejected_everywhere() {
    let flat = dataset_from_rows(&[(1, true, 3, false), (2, false, 5, true)]);
    assert!(matches!(
        ShardedDataset::from_dataset(&flat, 0),
        Err(FairError::InvalidConfig { .. })
    ));
    assert!(matches!(
        ShardedDataset::with_shard_size(flat.schema().clone(), 0),
        Err(FairError::InvalidConfig { .. })
    ));
    assert!(matches!(
        StoreWriter::create(temp_path("zero"), flat.schema().clone(), 0),
        Err(StoreError::InvalidConfig { .. })
    ));
    let generator = SchoolGenerator::new(SchoolConfig::small(10, 1));
    assert!(generator.generate_sharded(0).is_err());
    let compas = CompasGenerator::new(CompasConfig::small(10, 1));
    assert!(compas.generate_sharded(0).is_err());
}
