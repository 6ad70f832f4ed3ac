//! Crate-level property tests for the optimizer: Adam's convergence on random
//! convex quadratics and the rolling window's algebra.

use fair_opt::{Adam, AdamConfig, RollingWindow};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Adam converges to the minimizer of any well-scaled convex quadratic.
    #[test]
    fn adam_converges_on_random_quadratics(
        target in proptest::collection::vec(-20.0_f64..20.0, 1..5),
    ) {
        let mut adam = Adam::new(target.len(), AdamConfig { learning_rate: 0.2, ..Default::default() });
        let mut x = vec![0.0; target.len()];
        for _ in 0..4_000 {
            let grad: Vec<f64> = x.iter().zip(&target).map(|(a, t)| a - t).collect();
            adam.step(&mut x, &grad);
        }
        for (a, t) in x.iter().zip(&target) {
            prop_assert!((a - t).abs() < 0.05, "{a} vs {t}");
        }
    }

    /// The rolling window mean equals the arithmetic mean of the retained
    /// entries.
    #[test]
    fn rolling_window_matches_direct_computation(
        values in proptest::collection::vec(-50.0_f64..50.0, 1..60),
        capacity in 1_usize..20,
    ) {
        let mut window = RollingWindow::new(1, capacity);
        for v in &values {
            window.push(vec![*v]);
        }
        let tail: Vec<f64> = values.iter().rev().take(capacity).copied().collect();
        let expected_window = tail.iter().sum::<f64>() / tail.len() as f64;
        prop_assert!((window.mean().unwrap()[0] - expected_window).abs() < 1e-6);
    }
}
