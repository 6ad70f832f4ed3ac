//! Everything a run feeds the program, derived from the workload seed.
//!
//! The seed is split into independent streams with splitmix64: one for the
//! cohort generator, one per descent seed and one per audit bonus vector.
//! The program only ever sees the generated values.

use fair_core::dca::TopKDisparity;
use fair_core::ranking::WeightedSumRanker;
use fair_core::{DcaConfig, ShardedDataset};
use fair_data::{CompasConfig, CompasGenerator, SchoolConfig, SchoolGenerator};

/// Rows of the school cohort behind every DCA workload.
pub const SCHOOL_ROWS: usize = 1_000_000;
/// Shard size of the school cohort (16 shards at 1M rows).
pub const SCHOOL_SHARD: usize = 65_536;
/// Fairness attributes of the school schema.
pub const SCHOOL_DIMS: usize = 4;
/// Rows of the COMPAS cohort the audit service serves.
pub const COMPAS_ROWS: usize = 100_000;
/// Shard size of the COMPAS store (13 shards at 100k rows).
pub const COMPAS_SHARD: usize = 8_192;
/// Fairness attributes of the COMPAS schema (one-hot race groups).
pub const COMPAS_DIMS: usize = 6;
/// Selection fraction of every objective and audit.
pub const K: f64 = 0.05;

const COHORT_STREAM: u64 = 1;
const DESCENT_STREAM: u64 = 2;
const BONUS_STREAM: u64 = 3;

/// One step of splitmix64: a bijective, well-mixed map of `x`.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The inputs of one run, all functions of the workload seed.
#[derive(Debug, Clone, Copy)]
pub struct Inputs {
    seed: u64,
}

impl Inputs {
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    fn stream(&self, stream: u64, index: u64) -> u64 {
        splitmix64(splitmix64(self.seed ^ splitmix64(stream)) ^ index)
    }

    /// Seed of the cohort generator.
    pub fn cohort_seed(&self) -> u64 {
        self.stream(COHORT_STREAM, 0)
    }

    /// A fresh descent seed for descent `i`: no two descents of a run share
    /// one, so no sample is ever requested twice.
    pub fn descent_seed(&self, i: usize) -> u64 {
        self.stream(DESCENT_STREAM, i as u64)
    }

    /// The bonus vector of audit `i`, distinct per audit: each entry is a
    /// bonus in `[0, 2)`, the range DCA itself returns on this cohort.
    pub fn audit_bonus(&self, i: usize, dims: usize) -> Vec<f64> {
        (0..dims)
            .map(|d| {
                let bits = self.stream(BONUS_STREAM, ((i as u64) << 8) | d as u64);
                (bits >> 11) as f64 / (1u64 << 53) as f64 * 2.0
            })
            .collect()
    }

    /// The 1M-row school cohort, in memory.
    pub fn school(&self) -> ShardedDataset {
        SchoolGenerator::new(SchoolConfig::small(SCHOOL_ROWS, self.cohort_seed()))
            .generate_sharded(SCHOOL_SHARD)
            .expect("shard size is positive")
            .into_dataset()
    }

    /// The 100k-row COMPAS cohort, in memory.
    pub fn compas(&self) -> ShardedDataset {
        CompasGenerator::new(CompasConfig::small(COMPAS_ROWS, self.cohort_seed()))
            .generate_sharded(COMPAS_SHARD)
            .expect("shard size is positive")
    }
}

/// The paper's Core DCA configuration: sample 500, rates `[1.0, 0.1]` with
/// 100 steps each, no refinement.
pub fn dca_config(seed: u64) -> DcaConfig {
    DcaConfig {
        sample_size: 500,
        learning_rates: vec![1.0, 0.1],
        iterations_per_rate: 100,
        refinement_iterations: 0,
        seed,
        ..DcaConfig::default()
    }
}

/// The Core DCA configuration of the COMPAS jobs: the paper's at half its
/// learning rates. The COMPAS ranker scores one feature with many ties, and
/// at the full rates a job overshot now and then: of 1,600 seeded in-memory
/// descents on 40 cohorts, 3 ended with a bonus that raised the full-cohort
/// disparity (up to 1.10 times the baseline), which the run counts as a
/// failed operation. At half the rates none of 4,000 on 100 cohorts did
/// (the worst ended at 0.90 times the baseline).
pub fn compas_job_config(seed: u64) -> DcaConfig {
    DcaConfig {
        learning_rates: vec![0.5, 0.05],
        ..dca_config(seed)
    }
}

/// The school admission rubric, the ranker of every school descent.
pub fn school_ranker() -> WeightedSumRanker {
    SchoolGenerator::rubric()
}

/// The feature weights of [`school_ranker`], for callers that take weights.
pub const SCHOOL_WEIGHTS: [f64; 2] = [0.55, 0.45];

/// The COMPAS ranker as the service builds it from no weights.
pub fn compas_ranker() -> WeightedSumRanker {
    WeightedSumRanker::new(vec![1.0]).expect("static weights are valid")
}

/// The objective of every descent.
pub fn objective() -> TopKDisparity {
    TopKDisparity::new(K)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(data: &ShardedDataset) -> Vec<u64> {
        (0..data.len())
            .step_by(997)
            .flat_map(|g| {
                let row = data.row(g);
                row.features()
                    .iter()
                    .chain(row.fairness())
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_same_inputs() {
        let (a, b) = (Inputs::new(7), Inputs::new(7));
        assert_eq!(a.cohort_seed(), b.cohort_seed());
        assert_eq!(a.descent_seed(3), b.descent_seed(3));
        assert_eq!(a.audit_bonus(5, 6), b.audit_bonus(5, 6));
        assert_eq!(fingerprint(&a.compas()), fingerprint(&b.compas()));
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        let (a, b) = (Inputs::new(7), Inputs::new(8));
        assert_ne!(a.cohort_seed(), b.cohort_seed());
        assert_ne!(a.descent_seed(0), b.descent_seed(0));
        assert_ne!(a.audit_bonus(0, 6), b.audit_bonus(0, 6));
        assert_ne!(fingerprint(&a.compas()), fingerprint(&b.compas()));
    }

    #[test]
    fn dims_match_the_schemas() {
        assert_eq!(CompasGenerator::schema().num_fairness(), COMPAS_DIMS);
        assert_eq!(SchoolGenerator::schema().num_fairness(), SCHOOL_DIMS);
    }

    #[test]
    fn descents_and_audits_never_repeat_within_a_run() {
        let inputs = Inputs::new(1);
        let seeds: std::collections::HashSet<u64> =
            (0..10_000).map(|i| inputs.descent_seed(i)).collect();
        assert_eq!(seeds.len(), 10_000);
        let bonuses: std::collections::HashSet<Vec<u64>> = (0..10_000)
            .map(|i| {
                inputs
                    .audit_bonus(i, 6)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            })
            .collect();
        assert_eq!(bonuses.len(), 10_000);
    }
}
