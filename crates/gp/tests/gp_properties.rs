//! Property-based tests of Gaussian-Process inference invariants.

use proptest::prelude::*;

use mtm_gp::kernel::{Kernel, Matern52Ard, SquaredExpArd};
use mtm_gp::GpRegression;

fn arb_dataset() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>)> {
    (2usize..15, 1usize..4, any::<u64>()).prop_map(|(n, d, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 10_000) as f64 / 10_000.0
        };
        let xs: Vec<Vec<f64>> = (0..n).map(|_| (0..d).map(|_| next()).collect()).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| (x.iter().sum::<f64>() * 3.0).sin() + 0.1 * next())
            .collect();
        (xs, ys)
    })
}

/// Two points and log-hyperparameters anywhere in the fit's clamp
/// `[-9, 9]`, for a kernel of 1 to 7 inputs. Every third case repeats
/// `a` as `b` (the diagonal of a Gram matrix).
fn arb_kernel_case() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Vec<f64>)> {
    (1usize..8, 0usize..3).prop_flat_map(|(d, same)| {
        (
            prop::collection::vec(-2.0f64..2.0, d),
            prop::collection::vec(-2.0f64..2.0, d),
            prop::collection::vec(-9.0f64..=9.0, d + 1),
        )
            .prop_map(move |(a, b, p)| {
                let b = if same == 0 { a.clone() } else { b };
                (a, b, p)
            })
    })
}

/// `k(a, b)` and `k(b, a)` are bit-equal, and `eval_grad` returns
/// `eval`'s value bit for bit: the Gram build mirrors each pair and the
/// LML gradient sweep relies on both.
fn assert_kernel_bitwise<K: Kernel>(mut k: K, a: &[f64], b: &[f64], p: &[f64]) {
    k.set_params(p);
    let kab = k.eval(a, b);
    prop_assert_eq!(kab.to_bits(), k.eval(b, a).to_bits(), "k(a,b) = {kab}");
    let mut grad = vec![0.0; k.n_params()];
    let kg = k.eval_grad(a, b, &mut grad);
    prop_assert_eq!(kg.to_bits(), kab.to_bits(), "eval_grad {kg} vs eval {kab}");
    let mut grad_ba = vec![0.0; k.n_params()];
    k.eval_grad(b, a, &mut grad_ba);
    for (g1, g2) in grad.iter().zip(&grad_ba) {
        prop_assert_eq!(g1.to_bits(), g2.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kernels_are_bitwise_symmetric_and_grad_matches_eval((a, b, p) in arb_kernel_case()) {
        let d = a.len();
        assert_kernel_bitwise(Matern52Ard::new(d, 1.0, 1.0), &a, &b, &p);
        assert_kernel_bitwise(SquaredExpArd::new(d, 1.0, 1.0), &a, &b, &p);
    }

    #[test]
    fn posterior_variance_is_bounded_by_prior((xs, ys) in arb_dataset()) {
        let d = xs[0].len();
        let kernel = Matern52Ard::new(d, 1.0, 0.5);
        let prior_var = kernel.diag();
        let gp = GpRegression::fit(kernel, xs, ys, 1e-3).unwrap();
        for q in [vec![0.5; d], vec![0.1; d], vec![2.5; d]] {
            let p = gp.predict(&q);
            prop_assert!(p.var >= 0.0, "variance must be nonnegative");
            prop_assert!(
                p.var <= prior_var + 1e-9,
                "posterior variance {} exceeds prior {prior_var}",
                p.var
            );
        }
    }

    #[test]
    fn conditioning_on_a_point_shrinks_its_variance((xs, ys) in arb_dataset()) {
        let d = xs[0].len();
        let query = vec![0.3; d];
        let kernel = SquaredExpArd::new(d, 1.0, 0.5);
        let mut gp = GpRegression::fit(kernel, xs, ys, 1e-3).unwrap();
        let before = gp.predict(&query);
        gp.add_observation(query.clone(), 0.0).unwrap();
        let after = gp.predict(&query);
        prop_assert!(
            after.var <= before.var + 1e-9,
            "observing a point must not increase its variance: {} -> {}",
            before.var,
            after.var
        );
        prop_assert!(after.var < 1e-2, "observed point is nearly pinned");
    }

    #[test]
    fn lml_is_finite_and_decreases_with_absurd_noise((xs, ys) in arb_dataset()) {
        let d = xs[0].len();
        let gp_small =
            GpRegression::fit(Matern52Ard::new(d, 1.0, 0.5), xs.clone(), ys.clone(), 1e-4)
                .unwrap();
        let gp_huge =
            GpRegression::fit(Matern52Ard::new(d, 1.0, 0.5), xs, ys, 1e6).unwrap();
        let a = gp_small.log_marginal_likelihood();
        let b = gp_huge.log_marginal_likelihood();
        prop_assert!(a.is_finite() && b.is_finite());
        // A noise floor of 1e6 on O(1) targets is always a worse model.
        prop_assert!(a > b, "small-noise LML {a} should beat huge-noise {b}");
    }

    #[test]
    fn kernel_gram_matrices_are_symmetric_psd_diagonal((xs, _ys) in arb_dataset()) {
        let d = xs[0].len();
        let kernel = Matern52Ard::new(d, 2.0, 0.7);
        for a in &xs {
            for b in &xs {
                let kab = kernel.eval(a, b);
                let kba = kernel.eval(b, a);
                prop_assert!((kab - kba).abs() < 1e-12, "symmetry");
                // Cauchy-Schwarz for kernels.
                let kaa = kernel.eval(a, a);
                let kbb = kernel.eval(b, b);
                prop_assert!(kab * kab <= kaa * kbb + 1e-9);
            }
        }
    }

    #[test]
    fn predictions_interpolate_up_to_noise((xs, ys) in arb_dataset()) {
        let d = xs[0].len();
        let gp = GpRegression::fit(SquaredExpArd::new(d, 1.0, 0.5), xs.clone(), ys.clone(), 1e-8)
            .unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            let p = gp.predict(x);
            // Duplicated inputs with differing targets can pull the mean;
            // tolerate a generous band.
            prop_assert!(
                (p.mean - y).abs() < 0.6,
                "interpolation too loose: {} vs {y}",
                p.mean
            );
        }
    }
}
