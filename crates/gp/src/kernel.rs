//! Covariance functions (kernels) with ARD lengthscales.
//!
//! All hyperparameters are handled in **log space** (`log σ_f^2`,
//! `log ℓ_i`): that keeps them positive under unconstrained optimization
//! and makes the marginal-likelihood surface much better behaved. The
//! gradient methods therefore return `∂k/∂(log θ_j)`.
//!
//! Each kernel caches its linear-space scales (`σ_f²` and every `1/ℓ_i`)
//! when its parameters are set, so the pair loops of a Gram build or a
//! cross-covariance block do no per-dimension `exp`.

use serde::{Deserialize, Serialize};

/// A stationary covariance function with tunable log-hyperparameters.
pub trait Kernel: Send + Sync + Clone {
    /// Number of tunable hyperparameters (signal variance + lengthscales).
    fn n_params(&self) -> usize;

    /// Current hyperparameters in log space.
    fn params(&self) -> Vec<f64>;

    /// Overwrite hyperparameters from a log-space vector.
    ///
    /// # Panics
    /// Panics if `p.len() != self.n_params()`.
    fn set_params(&mut self, p: &[f64]);

    /// Covariance `k(a, b)`.
    fn eval(&self, a: &[f64], b: &[f64]) -> f64;

    /// Covariance and gradient with respect to each log-hyperparameter.
    /// `grad` must have length `n_params()`; returns `k(a, b)`.
    fn eval_grad(&self, a: &[f64], b: &[f64], grad: &mut [f64]) -> f64;

    /// Prior variance at any point, `k(x, x)`.
    fn diag(&self) -> f64;

    /// Input dimensionality this kernel was built for.
    fn input_dim(&self) -> usize;
}

/// Log-space ARD hyperparameters shared by both kernels, with the
/// linear-space scales the pair loops read.
///
/// `sf2 = exp(log σ_f²)` and `inv_l[i] = exp(-log ℓ_i)` are computed
/// once per [`Kernel::set_params`] (and at construction or
/// deserialization) rather than once per pair and dimension inside
/// `eval`. They are the same `exp` calls on the same inputs, so every
/// kernel value is bit-equal to evaluating them inline. Only the two
/// log-space fields are serialized.
#[derive(Debug, Clone)]
struct Ard {
    log_signal_var: f64,
    log_lengthscales: Vec<f64>,
    sf2: f64,
    inv_l: Vec<f64>,
}

impl Ard {
    fn new(dim: usize, signal_var: f64, lengthscale: f64) -> Self {
        assert!(dim > 0 && signal_var > 0.0 && lengthscale > 0.0);
        Ard::from_logs(signal_var.ln(), vec![lengthscale.ln(); dim])
    }

    fn from_logs(log_signal_var: f64, log_lengthscales: Vec<f64>) -> Self {
        let mut ard = Ard {
            log_signal_var,
            inv_l: log_lengthscales.clone(),
            log_lengthscales,
            sf2: 0.0,
        };
        ard.refresh_scales();
        ard
    }

    /// Rebuild the linear-space cache from the log-space parameters, in
    /// place.
    fn refresh_scales(&mut self) {
        self.sf2 = self.log_signal_var.exp();
        for (s, l) in self.inv_l.iter_mut().zip(&self.log_lengthscales) {
            *s = (-l).exp();
        }
    }

    fn n_params(&self) -> usize {
        1 + self.log_lengthscales.len()
    }

    fn params(&self) -> Vec<f64> {
        let mut p = Vec::with_capacity(self.n_params());
        p.push(self.log_signal_var);
        p.extend_from_slice(&self.log_lengthscales);
        p
    }

    fn set_params(&mut self, p: &[f64]) {
        assert_eq!(p.len(), self.n_params());
        self.log_signal_var = p[0];
        self.log_lengthscales.copy_from_slice(&p[1..]);
        self.refresh_scales();
    }

    fn lengthscales(&self) -> Vec<f64> {
        self.log_lengthscales.iter().map(|l| l.exp()).collect()
    }

    /// Scaled squared distance `r² = Σ_i ((a_i - b_i) / ℓ_i)²`.
    fn r2(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert!(a.len() == self.inv_l.len() && b.len() == self.inv_l.len());
        let mut r2 = 0.0;
        for ((x, y), s) in a.iter().zip(b).zip(&self.inv_l) {
            let d = (x - y) * s;
            r2 += d * d;
        }
        r2
    }

    /// [`r2`](Self::r2), also writing each dimension's term into `per_dim`.
    fn r2_per_dim(&self, a: &[f64], b: &[f64], per_dim: &mut [f64]) -> f64 {
        debug_assert!(a.len() == self.inv_l.len() && b.len() == self.inv_l.len());
        debug_assert_eq!(per_dim.len(), self.inv_l.len());
        let mut r2 = 0.0;
        for (((x, y), s), out) in a.iter().zip(b).zip(&self.inv_l).zip(per_dim) {
            let d = (x - y) * s;
            let d2 = d * d;
            *out = d2;
            r2 += d2;
        }
        r2
    }

    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("log_signal_var".to_string(), self.log_signal_var.to_value()),
            (
                "log_lengthscales".to_string(),
                self.log_lengthscales.to_value(),
            ),
        ])
    }

    fn from_value(v: &serde::Value, ty: &str) -> Result<Self, serde::DeError> {
        let pairs = v
            .as_object()
            .ok_or_else(|| serde::DeError::custom(format!("{ty}: expected object")))?;
        let field = |name: &str| {
            serde::__get(pairs, name).ok_or_else(|| serde::DeError::missing_field(name, ty))
        };
        Ok(Ard::from_logs(
            Deserialize::from_value(field("log_signal_var")?)?,
            Deserialize::from_value(field("log_lengthscales")?)?,
        ))
    }
}

/// Squared-exponential (RBF) kernel with Automatic Relevance Determination:
///
/// ```text
/// k(a, b) = σ_f² exp( -½ Σ_i (a_i - b_i)² / ℓ_i² )
/// ```
#[derive(Debug, Clone)]
pub struct SquaredExpArd {
    ard: Ard,
}

impl SquaredExpArd {
    /// Create with uniform `lengthscale` across `dim` inputs and signal
    /// variance `signal_var`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero or either scale parameter is not positive.
    pub fn new(dim: usize, signal_var: f64, lengthscale: f64) -> Self {
        SquaredExpArd {
            ard: Ard::new(dim, signal_var, lengthscale),
        }
    }

    /// Current lengthscales (linear space).
    pub fn lengthscales(&self) -> Vec<f64> {
        self.ard.lengthscales()
    }
}

// Hand-written (de)serialization: the vendored derive cannot skip a
// field, and the wire form stays the two log-space fields. Deserializing
// rebuilds the scale cache.
impl Serialize for SquaredExpArd {
    fn to_value(&self) -> serde::Value {
        self.ard.to_value()
    }
}

impl Deserialize for SquaredExpArd {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ard::from_value(v, "SquaredExpArd").map(|ard| SquaredExpArd { ard })
    }
}

impl Kernel for SquaredExpArd {
    fn n_params(&self) -> usize {
        self.ard.n_params()
    }

    fn params(&self) -> Vec<f64> {
        self.ard.params()
    }

    fn set_params(&mut self, p: &[f64]) {
        self.ard.set_params(p);
    }

    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        let s = self.ard.r2(a, b);
        self.ard.sf2 * (-0.5 * s).exp()
    }

    fn eval_grad(&self, a: &[f64], b: &[f64], grad: &mut [f64]) -> f64 {
        debug_assert_eq!(grad.len(), self.n_params());
        // Scaled squared distances per dimension, reused for the gradient.
        let s = self.ard.r2_per_dim(a, b, &mut grad[1..]);
        let k = self.ard.sf2 * (-0.5 * s).exp();
        // ∂k/∂ log σ_f² = k ;  ∂k/∂ log ℓ_i = k * d_i²
        grad[0] = k;
        for g in grad[1..].iter_mut() {
            *g *= k;
        }
        k
    }

    fn diag(&self) -> f64 {
        self.ard.sf2
    }

    fn input_dim(&self) -> usize {
        self.ard.inv_l.len()
    }
}

/// Matérn 5/2 kernel with ARD — the covariance Spearmint uses by default
/// for hyperparameter tuning (Snoek et al. 2012 argue the SE kernel is too
/// smooth for real objective surfaces):
///
/// ```text
/// r²   = Σ_i (a_i - b_i)² / ℓ_i²
/// k    = σ_f² (1 + √5 r + 5r²/3) exp(-√5 r)
/// ```
#[derive(Debug, Clone)]
pub struct Matern52Ard {
    ard: Ard,
}

impl Matern52Ard {
    /// Create with uniform `lengthscale` across `dim` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero or either scale parameter is not positive.
    pub fn new(dim: usize, signal_var: f64, lengthscale: f64) -> Self {
        Matern52Ard {
            ard: Ard::new(dim, signal_var, lengthscale),
        }
    }

    /// Current lengthscales (linear space).
    pub fn lengthscales(&self) -> Vec<f64> {
        self.ard.lengthscales()
    }
}

// Same wire form as `SquaredExpArd`: the two log-space fields.
impl Serialize for Matern52Ard {
    fn to_value(&self) -> serde::Value {
        self.ard.to_value()
    }
}

impl Deserialize for Matern52Ard {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ard::from_value(v, "Matern52Ard").map(|ard| Matern52Ard { ard })
    }
}

impl Kernel for Matern52Ard {
    fn n_params(&self) -> usize {
        self.ard.n_params()
    }

    fn params(&self) -> Vec<f64> {
        self.ard.params()
    }

    fn set_params(&mut self, p: &[f64]) {
        self.ard.set_params(p);
    }

    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        let r2 = self.ard.r2(a, b);
        let r = r2.sqrt();
        let sqrt5_r = 5.0_f64.sqrt() * r;
        self.ard.sf2 * (1.0 + sqrt5_r + 5.0 * r2 / 3.0) * (-sqrt5_r).exp()
    }

    fn eval_grad(&self, a: &[f64], b: &[f64], grad: &mut [f64]) -> f64 {
        debug_assert_eq!(grad.len(), self.n_params());
        let sf2 = self.ard.sf2;
        // Per-dim scaled squared distances land in grad[1..].
        let r2 = self.ard.r2_per_dim(a, b, &mut grad[1..]);
        let r = r2.sqrt();
        let sqrt5 = 5.0_f64.sqrt();
        let e = (-sqrt5 * r).exp();
        let k = sf2 * (1.0 + sqrt5 * r + 5.0 * r2 / 3.0) * e;
        grad[0] = k; // ∂k/∂ log σ_f²

        // dk/dr = -(5 σ_f²/3) r (1 + √5 r) e^{-√5 r};
        // ∂r/∂ log ℓ_i = -d_i² / r  (r > 0), so
        // ∂k/∂ log ℓ_i = (5 σ_f²/3)(1 + √5 r) e^{-√5 r} d_i².
        let factor = (5.0 * sf2 / 3.0) * (1.0 + sqrt5 * r) * e;
        for g in grad[1..].iter_mut() {
            *g *= factor; // d_i² * factor; at r = 0 every d_i² = 0 → grad 0
        }
        k
    }

    fn diag(&self) -> f64 {
        self.ard.sf2
    }

    fn input_dim(&self) -> usize {
        self.ard.inv_l.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fd_grad<K: Kernel>(k: &K, a: &[f64], b: &[f64]) -> Vec<f64> {
        let p0 = k.params();
        let h = 1e-6;
        (0..k.n_params())
            .map(|j| {
                let mut kp = k.clone();
                let mut p = p0.clone();
                p[j] += h;
                kp.set_params(&p);
                let up = kp.eval(a, b);
                p[j] -= 2.0 * h;
                kp.set_params(&p);
                let dn = kp.eval(a, b);
                (up - dn) / (2.0 * h)
            })
            .collect()
    }

    #[test]
    fn se_kernel_basics() {
        let k = SquaredExpArd::new(2, 2.0, 0.5);
        let x = [0.3, 0.7];
        assert!((k.eval(&x, &x) - 2.0).abs() < 1e-12);
        assert_eq!(k.diag(), k.eval(&x, &x));
        // Symmetry and decay.
        let y = [0.5, 0.1];
        assert_eq!(k.eval(&x, &y), k.eval(&y, &x));
        assert!(k.eval(&x, &y) < k.eval(&x, &x));
    }

    #[test]
    fn matern_kernel_basics() {
        let k = Matern52Ard::new(3, 1.5, 1.0);
        let x = [0.0, 0.0, 0.0];
        let y = [1.0, -1.0, 0.5];
        assert!((k.eval(&x, &x) - 1.5).abs() < 1e-12);
        assert_eq!(k.eval(&x, &y), k.eval(&y, &x));
        assert!(k.eval(&x, &y) > 0.0 && k.eval(&x, &y) < 1.5);
    }

    #[test]
    fn se_gradient_matches_finite_differences() {
        let mut k = SquaredExpArd::new(3, 1.0, 1.0);
        k.set_params(&[0.3, -0.2, 0.1, 0.5]);
        let a = [0.1, 0.9, 0.4];
        let b = [0.7, 0.2, 0.3];
        let mut g = vec![0.0; k.n_params()];
        let kv = k.eval_grad(&a, &b, &mut g);
        assert!((kv - k.eval(&a, &b)).abs() < 1e-14);
        let fd = fd_grad(&k, &a, &b);
        for (an, num) in g.iter().zip(&fd) {
            assert!((an - num).abs() < 1e-6, "analytic {an} vs fd {num}");
        }
    }

    #[test]
    fn matern_gradient_matches_finite_differences() {
        let mut k = Matern52Ard::new(2, 1.0, 1.0);
        k.set_params(&[-0.4, 0.2, -0.6]);
        let a = [0.8, 0.1];
        let b = [0.25, 0.65];
        let mut g = vec![0.0; k.n_params()];
        let kv = k.eval_grad(&a, &b, &mut g);
        assert!((kv - k.eval(&a, &b)).abs() < 1e-14);
        let fd = fd_grad(&k, &a, &b);
        for (an, num) in g.iter().zip(&fd) {
            assert!((an - num).abs() < 1e-6, "analytic {an} vs fd {num}");
        }
    }

    #[test]
    fn matern_gradient_at_zero_distance_is_finite() {
        let k = Matern52Ard::new(2, 1.0, 1.0);
        let a = [0.5, 0.5];
        let mut g = vec![0.0; 3];
        let kv = k.eval_grad(&a, &a, &mut g);
        assert!((kv - 1.0).abs() < 1e-12);
        assert!(g.iter().all(|v| v.is_finite()));
        assert!((g[1]).abs() < 1e-12 && (g[2]).abs() < 1e-12);
    }

    fn assert_bit_equal<K: Kernel>(k1: &K, k2: &K, a: &[f64], b: &[f64]) {
        assert_eq!(k1.eval(a, b).to_bits(), k2.eval(a, b).to_bits());
        let mut g1 = vec![0.0; k1.n_params()];
        let mut g2 = vec![0.0; k2.n_params()];
        let v1 = k1.eval_grad(a, b, &mut g1);
        let v2 = k2.eval_grad(a, b, &mut g2);
        assert_eq!(v1.to_bits(), v2.to_bits());
        let bits = |g: &[f64]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&g1), bits(&g2));
        assert_eq!(k1.diag().to_bits(), k2.diag().to_bits());
    }

    fn json_keys(json: &str) -> Vec<String> {
        let v: serde::Value = serde_json::from_str(json).unwrap();
        v.as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.clone())
            .collect()
    }

    #[test]
    fn serde_keeps_wire_form_and_rebuilds_scales() {
        let p = [0.7, -1.3, 0.2, 2.5];
        let a = [0.1, 0.9, 0.4];
        let b = [0.7, 0.2, 0.3];

        let mut se = SquaredExpArd::new(3, 1.0, 1.0);
        se.set_params(&p);
        let json = serde_json::to_string(&se).unwrap();
        assert_eq!(json_keys(&json), ["log_signal_var", "log_lengthscales"]);
        let back: SquaredExpArd = serde_json::from_str(&json).unwrap();
        assert_eq!(back.params(), se.params());
        assert_bit_equal(&se, &back, &a, &b);

        let mut m52 = Matern52Ard::new(3, 1.0, 1.0);
        m52.set_params(&p);
        let json = serde_json::to_string(&m52).unwrap();
        assert_eq!(json_keys(&json), ["log_signal_var", "log_lengthscales"]);
        let back: Matern52Ard = serde_json::from_str(&json).unwrap();
        assert_eq!(back.params(), m52.params());
        assert_bit_equal(&m52, &back, &a, &b);

        let missing: Result<Matern52Ard, _> = serde_json::from_str(r#"{"log_signal_var": 0.0}"#);
        assert!(missing.is_err());
    }

    #[test]
    fn params_round_trip() {
        let mut k = SquaredExpArd::new(4, 1.0, 1.0);
        let p = vec![0.1, -0.2, 0.3, -0.4, 0.5];
        k.set_params(&p);
        assert_eq!(k.params(), p);
        assert_eq!(k.input_dim(), 4);
        let ls = k.lengthscales();
        assert!((ls[0] - (-0.2_f64).exp()).abs() < 1e-12);
    }
}
