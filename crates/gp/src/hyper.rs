//! Type-II maximum-likelihood hyperparameter fitting.
//!
//! We maximize the log marginal likelihood (optionally plus a log-prior,
//! giving MAP estimation) with Adam in log-hyperparameter space, restarted
//! from several random initializations. Adam is a good fit here: the LML
//! surface is cheap to differentiate analytically (see
//! [`crate::gp::GpRegression::lml_with_grad`]) but multimodal and poorly
//! scaled across parameters, which adaptive per-coordinate steps absorb.
//!
//! One Adam iteration is one [`GpRegression::set_hyperparameters`] and one
//! [`GpRegression::lml_with_grad`]: the kernel refreshes its cached scales
//! (`d + 1` `exp`s), the Gram matrix is built over the `n(n+1)/2` pairs
//! `j ≤ i` and factored once, the lower triangle of `K⁻¹` is formed
//! ([`mtm_linalg::Cholesky::inverse_lower`]), and one gradient sweep
//! visits the same pairs. Every step computes exactly what the full
//! Gram, full inverse and per-pair `exp` form would, bit for bit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::gp::GpRegression;
use crate::kernel::Kernel;
use crate::priors::IndependentPriors;

/// Options controlling the hyperparameter fit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FitOptions {
    /// Number of random restarts in addition to the current parameters.
    pub restarts: usize,
    /// Adam iterations per restart.
    pub max_iters: usize,
    /// Adam learning rate (log space).
    pub learning_rate: f64,
    /// Clamp for each log-hyperparameter, symmetric around 0.
    pub log_bound: f64,
    /// RNG seed for restart initialization.
    pub seed: u64,
    /// Optional log-priors turning ML into MAP estimation.
    pub priors: Option<IndependentPriors>,
}

impl Default for FitOptions {
    fn default() -> Self {
        FitOptions {
            restarts: 2,
            max_iters: 80,
            learning_rate: 0.08,
            log_bound: 9.0,
            seed: 0x5EED,
            priors: None,
        }
    }
}

impl FitOptions {
    /// A cheaper configuration for inner loops and tests.
    pub fn fast() -> Self {
        FitOptions {
            restarts: 1,
            max_iters: 50,
            ..Default::default()
        }
    }

    /// A thorough configuration for final fits.
    pub fn thorough() -> Self {
        FitOptions {
            restarts: 4,
            max_iters: 160,
            ..Default::default()
        }
    }
}

/// Maximize the (penalized) log marginal likelihood of `gp` in place.
/// Returns the best LML value reached (excluding the prior term).
pub fn optimize<K: Kernel>(gp: &mut GpRegression<K>, opts: &FitOptions) -> f64 {
    let start = gp.hyperparameters();
    let mut rng = StdRng::seed_from_u64(opts.seed);

    let mut best_params = start.clone();
    let mut best_lml = gp.log_marginal_likelihood();

    for restart in 0..=opts.restarts {
        let init: Vec<f64> = if restart == 0 {
            start.clone()
        } else if restart == 1 {
            // First restart is always unit scale with optimistic (small)
            // noise: a canonical start that doesn't depend on the RNG
            // stream, so a badly-scaled incoming point can never strand
            // the whole fit. Noise starts low because a large initial
            // noise floor pulls Adam into the "everything is noise"
            // basin before the signal parameters can adapt; from below,
            // the noise gradient recovers quickly if the data really is
            // noisy.
            let mut p = vec![0.0; start.len()];
            if let Some(last) = p.last_mut() {
                *last = -6.0;
            }
            p
        } else {
            // Remaining restarts around unit scale rather than around
            // the incoming point: a bad starting point would otherwise
            // anchor every restart inside the same bad basin.
            start.iter().map(|_| rng.random_range(-3.0..3.0)).collect()
        };
        if gp.set_hyperparameters(&init).is_err() {
            continue;
        }
        let final_params = adam_ascent(gp, opts);
        if gp.set_hyperparameters(&final_params).is_ok() {
            let lml = gp.log_marginal_likelihood();
            if lml > best_lml && lml.is_finite() {
                best_lml = lml;
                best_params = final_params;
            }
        }
    }

    // Leave the GP at the best parameters found (fall back to the original
    // ones, which are always refittable).
    if gp.set_hyperparameters(&best_params).is_err() {
        let _ = gp.set_hyperparameters(&start);
    }
    gp.log_marginal_likelihood()
}

/// One Adam ascent run from the GP's current hyperparameters. Returns the
/// best parameter vector visited.
fn adam_ascent<K: Kernel>(gp: &mut GpRegression<K>, opts: &FitOptions) -> Vec<f64> {
    const BETA1: f64 = 0.9;
    const BETA2: f64 = 0.999;
    const EPS: f64 = 1e-8;

    let mut params = gp.hyperparameters();
    let dim = params.len();
    let mut m = vec![0.0; dim];
    let mut v = vec![0.0; dim];
    let mut best = params.clone();
    let mut best_obj = f64::NEG_INFINITY;

    for t in 1..=opts.max_iters {
        let (lml, mut grad) = gp.lml_with_grad();
        let mut obj = lml;
        if let Some(priors) = &opts.priors {
            obj += priors.log_density(&params);
            priors.add_grad(&params, &mut grad);
        }
        if obj > best_obj && obj.is_finite() {
            best_obj = obj;
            best.copy_from_slice(&params);
        }
        if !grad.iter().all(|g| g.is_finite()) {
            break;
        }
        let mut max_step = 0.0_f64;
        for i in 0..dim {
            m[i] = BETA1 * m[i] + (1.0 - BETA1) * grad[i];
            v[i] = BETA2 * v[i] + (1.0 - BETA2) * grad[i] * grad[i];
            let m_hat = m[i] / (1.0 - BETA1.powi(t as i32));
            let v_hat = v[i] / (1.0 - BETA2.powi(t as i32));
            let step = opts.learning_rate * m_hat / (v_hat.sqrt() + EPS);
            params[i] = (params[i] + step).clamp(-opts.log_bound, opts.log_bound);
            max_step = max_step.max(step.abs());
        }
        if gp.set_hyperparameters(&params).is_err() {
            // Stepped into an unfactorable region: stop this restart and
            // report the best point seen so far.
            break;
        }
        if max_step < 1e-5 {
            break; // converged
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SquaredExpArd;
    use crate::priors::{IndependentPriors, Prior};

    fn noisy_quadratic() -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..15).map(|i| vec![i as f64 / 14.0]).collect();
        // Deterministic pseudo-noise so the test is stable.
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| {
                let noise = if i % 2 == 0 { 0.02 } else { -0.02 };
                -(x[0] - 0.5) * (x[0] - 0.5) + noise
            })
            .collect();
        (xs, ys)
    }

    #[test]
    fn fit_recovers_sensible_noise() {
        let (xs, ys) = noisy_quadratic();
        let mut gp = GpRegression::fit(SquaredExpArd::new(1, 1.0, 1.0), xs, ys, 0.5).unwrap();
        gp.optimize_hyperparameters(&FitOptions::default());
        // Noise of 0.5 is far too big for +-0.02 jitter; the fit should
        // shrink it by orders of magnitude.
        assert!(gp.noise_var() < 0.05, "noise_var = {}", gp.noise_var());
    }

    #[test]
    fn restarts_do_not_hurt() {
        let (xs, ys) = noisy_quadratic();
        let mut gp1 =
            GpRegression::fit(SquaredExpArd::new(1, 1.0, 1.0), xs.clone(), ys.clone(), 0.1)
                .unwrap();
        let one = gp1.optimize_hyperparameters(&FitOptions {
            restarts: 0,
            ..Default::default()
        });
        let mut gp4 = GpRegression::fit(SquaredExpArd::new(1, 1.0, 1.0), xs, ys, 0.1).unwrap();
        let four = gp4.optimize_hyperparameters(&FitOptions {
            restarts: 3,
            ..Default::default()
        });
        assert!(
            four >= one - 1e-6,
            "more restarts can't do worse: {four} vs {one}"
        );
    }

    #[test]
    fn map_fit_respects_priors() {
        let (xs, ys) = noisy_quadratic();
        // Very tight prior pinning the noise to a large value.
        let n_params = 3; // signal + 1 lengthscale + noise
        let mut priors = IndependentPriors::flat(n_params);
        priors.set(2, Prior::log_normal((0.3_f64).ln(), 0.01));
        let opts = FitOptions {
            priors: Some(priors),
            ..Default::default()
        };
        let mut gp = GpRegression::fit(SquaredExpArd::new(1, 1.0, 1.0), xs, ys, 0.3).unwrap();
        gp.optimize_hyperparameters(&opts);
        // MAP fit should keep the noise near 0.3 despite the likelihood
        // preferring something tiny.
        assert!(
            gp.noise_var() > 0.1,
            "prior should have held the noise up, got {}",
            gp.noise_var()
        );
    }
}
