//! Differentiable κ-stereographic operations, composed from tape primitives.
//!
//! These mirror `amcad_manifold::ops` (the plain-`f64` reference
//! implementations) but operate on tape [`Var`]s so gradients flow through
//! the curved geometry — including into the trainable curvature scalars.
//! Property tests verify the forward values against the reference crate and
//! gradient checks verify the backward pass.

use crate::tape::{Tape, Var};

/// Numerical guard added under square roots of norms.
const NORM_EPS: f64 = 1e-12;

/// Möbius addition `x ⊕_κ y` on row-vector variables.
pub fn mobius_add(t: &mut Tape, x: Var, y: Var, kappa: Var) -> Var {
    let xy = t.dot(x, y);
    let x2 = t.norm_sq(x);
    let y2 = t.norm_sq(y);

    // num_x = 1 - 2κ⟨x,y⟩ - κ‖y‖²
    let two_k_xy = {
        let k_xy = t.mul(kappa, xy);
        t.scale(k_xy, 2.0)
    };
    let k_y2 = t.mul(kappa, y2);
    let num_x_coeff = {
        let a = t.neg(two_k_xy);
        let b = t.sub(a, k_y2);
        t.add_const(b, 1.0)
    };
    // num_y = 1 + κ‖x‖²
    let k_x2 = t.mul(kappa, x2);
    let num_y_coeff = t.add_const(k_x2, 1.0);
    // denom = 1 - 2κ⟨x,y⟩ + κ²‖x‖²‖y‖²
    let k2 = t.mul(kappa, kappa);
    let x2y2 = t.mul(x2, y2);
    let k2x2y2 = t.mul(k2, x2y2);
    let denom = {
        let k_xy = t.mul(kappa, xy);
        let two_k_xy = t.scale(k_xy, 2.0);
        let a = t.neg(two_k_xy);
        let b = t.add(a, k2x2y2);
        t.add_const(b, 1.0)
    };

    let term_x = t.mul_scalar(x, num_x_coeff);
    let term_y = t.mul_scalar(y, num_y_coeff);
    let num = t.add(term_x, term_y);
    t.div_scalar(num, denom)
}

/// Exponential map at the origin: `exp^κ_0(v) = tan_κ(‖v‖)·v/‖v‖`.
pub fn exp0(t: &mut Tape, v: Var, kappa: Var) -> Var {
    let n = t.norm(v, NORM_EPS);
    let tn = t.tan_kappa(n, kappa);
    let scale = t.div(tn, n);
    mul_by_scalar_tensor(t, v, scale)
}

/// Logarithmic map at the origin: `log^κ_0(y) = tan⁻¹_κ(‖y‖)·y/‖y‖`.
pub fn log0(t: &mut Tape, y: Var, kappa: Var) -> Var {
    let n = t.norm(y, NORM_EPS);
    let an = t.atan_kappa(n, kappa);
    let scale = t.div(an, n);
    mul_by_scalar_tensor(t, y, scale)
}

/// Geodesic distance `d_κ(x, y) = 2·tan⁻¹_κ(‖-x ⊕_κ y‖)`.
pub fn distance(t: &mut Tape, x: Var, y: Var, kappa: Var) -> Var {
    let neg_x = t.neg(x);
    let w = mobius_add(t, neg_x, y, kappa);
    let n = t.norm(w, NORM_EPS);
    let an = t.atan_kappa(n, kappa);
    t.scale(an, 2.0)
}

/// Fermi–Dirac similarity `σ(temp·(radius − d))` used by the triplet loss
/// (Eq. 15 of the paper).
pub fn fermi_dirac(t: &mut Tape, dist: Var, radius: f64, temperature: f64) -> Var {
    let neg_d = t.neg(dist);
    let shifted = t.add_const(neg_d, radius);
    let scaled = t.scale(shifted, temperature);
    t.sigmoid(scaled)
}

/// Multiply a row vector by a `1 × 1` scalar tensor variable.
fn mul_by_scalar_tensor(t: &mut Tape, v: Var, scale: Var) -> Var {
    t.mul_scalar(v, scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use amcad_manifold as reference;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    fn assert_vec_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn forward_values_match_reference_implementation() {
        let xs = [0.12, -0.2, 0.3];
        let ys = [-0.05, 0.15, 0.22];
        for &kappa in &[-1.0, -0.4, 0.0, 0.5, 1.0] {
            let mut t = Tape::new();
            let x = t.row(xs.to_vec());
            let y = t.row(ys.to_vec());
            let k = t.scalar(kappa);

            let madd = mobius_add(&mut t, x, y, k);
            assert_vec_close(
                &t.value(madd).data,
                &reference::mobius_add(&xs, &ys, kappa),
                1e-9,
            );

            let e = exp0(&mut t, x, k);
            assert_vec_close(
                &t.value(e).data,
                &reference::exp_map_origin(&xs, kappa),
                1e-9,
            );

            let l = log0(&mut t, y, k);
            assert_vec_close(
                &t.value(l).data,
                &reference::log_map_origin(&ys, kappa),
                1e-9,
            );

            let d = distance(&mut t, x, y, k);
            assert_close(
                t.value(d).scalar_value(),
                reference::distance(&xs, &ys, kappa),
                1e-9,
            );
        }
    }

    #[test]
    fn kappa_linear_matches_reference_matmul() {
        let xs = [0.1, -0.05, 0.2];
        let w = [0.3, -0.2, 0.1, 0.4, -0.1, 0.2]; // 3x2 (d_in x d_out), row-major
        for &kappa in &[-0.7, 0.0, 0.7] {
            let mut t = Tape::new();
            let x = t.row(xs.to_vec());
            let wv = t.leaf(Tensor::new(3, 2, w.to_vec()));
            let k = t.scalar(kappa);
            // W ⊗_κ x = exp^κ_0(log^κ_0(x)·W), composed on the tape
            let tangent = log0(&mut t, x, k);
            let product = t.matmul(tangent, wv);
            let out = exp0(&mut t, product, k);
            // reference kappa_matmul expects a (rows x cols) matrix applied as M·x
            // with M = Wᵀ (2x3).
            let wt = [0.3, 0.1, -0.1, -0.2, 0.4, 0.2];
            let expected = reference::kappa_matmul(&wt, 2, 3, &xs, kappa);
            assert_vec_close(&t.value(out).data, &expected, 1e-9);
        }
    }

    #[test]
    fn exp0_log0_roundtrip_in_tape() {
        for &kappa in &[-1.0, 0.0, 1.0] {
            let mut t = Tape::new();
            let v = t.row(vec![0.2, -0.1, 0.15]);
            let k = t.scalar(kappa);
            let p = exp0(&mut t, v, k);
            let back = log0(&mut t, p, k);
            assert_vec_close(&t.value(back).data, &t.value(v).data.clone(), 1e-7);
        }
    }

    #[test]
    fn distance_gradient_matches_finite_difference() {
        let base_x = vec![0.15, -0.1, 0.2];
        let base_y = vec![-0.05, 0.25, 0.1];
        for &kappa in &[-0.8, -0.2, 0.0, 0.4, 0.9] {
            let eval = |xv: &[f64], yv: &[f64], kv: f64| -> f64 {
                let mut t = Tape::new();
                let x = t.row(xv.to_vec());
                let y = t.row(yv.to_vec());
                let k = t.scalar(kv);
                let d = distance(&mut t, x, y, k);
                t.value(d).scalar_value()
            };
            let mut t = Tape::new();
            let x = t.row(base_x.clone());
            let y = t.row(base_y.clone());
            let k = t.scalar(kappa);
            let d = distance(&mut t, x, y, k);
            let grads = t.backward(d);
            let h = 1e-6;

            // gradient w.r.t. x
            let gx = grads.wrt(x).unwrap();
            for j in 0..base_x.len() {
                let mut plus = base_x.clone();
                plus[j] += h;
                let mut minus = base_x.clone();
                minus[j] -= h;
                let fd = (eval(&plus, &base_y, kappa) - eval(&minus, &base_y, kappa)) / (2.0 * h);
                assert!((gx.data[j] - fd).abs() < 1e-4, "kappa {kappa} dx[{j}]");
            }
            // gradient w.r.t. κ (the adaptive-curvature path)
            let gk = grads.wrt(k).unwrap().scalar_value();
            let fd =
                (eval(&base_x, &base_y, kappa + h) - eval(&base_x, &base_y, kappa - h)) / (2.0 * h);
            assert!((gk - fd).abs() < 1e-4, "kappa {kappa} dκ: {gk} vs {fd}");
        }
    }

    #[test]
    fn fermi_dirac_is_between_zero_and_one_and_decreasing() {
        let mut t = Tape::new();
        let d_small = t.scalar(0.1);
        let d_large = t.scalar(3.0);
        let s_small = fermi_dirac(&mut t, d_small, 1.0, 5.0);
        let s_large = fermi_dirac(&mut t, d_large, 1.0, 5.0);
        let vs = t.value(s_small).scalar_value();
        let vl = t.value(s_large).scalar_value();
        assert!(vs > vl, "similarity must decrease with distance");
        assert!((0.0..=1.0).contains(&vs));
        assert!((0.0..=1.0).contains(&vl));
    }

    #[test]
    fn transport_preserves_tangent_representation() {
        let mut t = Tape::new();
        let v = t.row(vec![0.2, -0.1]);
        let k1 = t.scalar(-1.0);
        let k2 = t.scalar(1.0);
        let p = exp0(&mut t, v, k1);
        // move the point to curvature k2 through the shared tangent space
        let tangent = log0(&mut t, p, k1);
        let q = exp0(&mut t, tangent, k2);
        let back = log0(&mut t, q, k2);
        assert_vec_close(&t.value(back).data, &t.value(v).data.clone(), 1e-7);
    }
}
