//! Differentiable κ-stereographic operations, composed from tape primitives.
//!
//! These mirror `amcad_manifold::ops` (the plain-`f64` reference
//! implementations) but operate on tape [`Var`]s so gradients flow through
//! the curved geometry — including into the trainable curvature scalars.
//! [`distance`] runs the serving scan's formula,
//! `amcad_manifold::distance_gram`, operation for operation, so training
//! scores an edge with the distance the indices are built from. Property
//! tests verify the forward values against the reference crate and
//! gradient checks verify the backward pass.

use crate::tape::{Tape, Var};

/// Numerical guard added under square roots of norms.
const NORM_EPS: f64 = 1e-12;

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

/// Geodesic distance `d_κ(x, y) = 2·tan⁻¹_κ(‖(−x) ⊕_κ y‖)` in the Gram
/// form of `amcad_manifold::diff_norm_gram`:
/// `‖(−x) ⊕_κ y‖² = ((x2 + y2) − 2·xy) / (1 + 2κ·xy + κ²·(x2·y2))`.
/// Its value is symmetric in bits, and has `distance_gram`'s bits on the
/// same Gram quantities wherever the scan leaves `denom` unclamped
/// (`denom ≥ MIN_NORM`). [`Tape::sqrt`] clamps the quotient at 0 like
/// the scan, where rounding takes it for nearly coincident points, and
/// passes no gradient back through the clamp.
pub fn distance(t: &mut Tape, x: Var, y: Var, kappa: Var) -> Var {
    let x2 = t.norm_sq(x);
    let y2 = t.norm_sq(y);
    let xy = t.dot(x, y);
    let sum_sq = t.add(x2, y2);
    let two_xy = t.scale(xy, 2.0);
    let dd = t.sub(sum_sq, two_xy);
    let k_xy = t.mul(kappa, xy);
    let two_k_xy = t.scale(k_xy, 2.0);
    let linear = t.add_const(two_k_xy, 1.0);
    let k2 = t.mul(kappa, kappa);
    let x2y2 = t.mul(x2, y2);
    let k2x2y2 = t.mul(k2, x2y2);
    let denom = t.add(linear, k2x2y2);
    let w2 = t.div(dd, denom);
    let w = t.sqrt(w2);
    let an = t.atan_kappa(w, kappa);
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

    /// Hyperbolic, both sides of each `KAPPA_EPS` seam, flat and spherical.
    const KAPPAS: [f64; 9] = [
        -0.8,
        -0.2,
        -1.0000001e-7,
        -1e-7,
        0.0,
        1e-7,
        1.0000001e-7,
        0.4,
        0.9,
    ];

    /// The tape distance and its gradients `(∂x, ∂κ)`.
    fn distance_and_gradients(xv: &[f64], yv: &[f64], kappa: f64) -> (f64, Vec<f64>, f64) {
        let mut t = Tape::new();
        let x = t.row(xv.to_vec());
        let y = t.row(yv.to_vec());
        let k = t.scalar(kappa);
        let d = distance(&mut t, x, y, k);
        let grads = t.backward(d);
        (
            t.value(d).scalar_value(),
            grads.wrt(x).unwrap().data.clone(),
            grads.wrt(k).unwrap().scalar_value(),
        )
    }

    /// `∂x` and `∂κ` of the tape distance against central differences of
    /// steps `hx` and `hk`, within `tolerance(fd)` of each difference `fd`.
    fn check_gradient(
        x: &[f64],
        y: &[f64],
        kappa: f64,
        (hx, hk): (f64, f64),
        tolerance: impl Fn(f64) -> f64,
    ) {
        let value = |xv: &[f64], kv: f64| distance_and_gradients(xv, y, kv).0;
        let close = |analytic: f64, fd: f64| (analytic - fd).abs() < tolerance(fd);
        let (_, gx, gk) = distance_and_gradients(x, y, kappa);
        for j in 0..x.len() {
            let mut plus = x.to_vec();
            plus[j] += hx;
            let mut minus = x.to_vec();
            minus[j] -= hx;
            let fd = (value(&plus, kappa) - value(&minus, kappa)) / (2.0 * hx);
            assert!(
                close(gx[j], fd),
                "kappa {kappa} {x:?} {y:?} dx[{j}]: {} vs {fd}",
                gx[j]
            );
        }
        let fd = kappa_difference(|k| value(x, k), kappa, hk);
        assert!(close(gk, fd), "kappa {kappa} {x:?} {y:?} dκ: {gk} vs {fd}");
    }

    /// `∂f/∂κ` by a central difference of step `h`, or, where that would
    /// cross a `KAPPA_EPS` seam into another branch of `tan⁻¹_κ`, by the
    /// second-order one-sided difference on `κ`'s own side.
    fn kappa_difference(f: impl Fn(f64) -> f64, kappa: f64, h: f64) -> f64 {
        let eps = amcad_manifold::KAPPA_EPS;
        let branch = |k: f64| i8::from(k > eps) - i8::from(k < -eps);
        if branch(kappa - h) == branch(kappa) && branch(kappa + h) == branch(kappa) {
            return (f(kappa + h) - f(kappa - h)) / (2.0 * h);
        }
        let d = if branch(kappa + 2.0 * h) == branch(kappa) {
            h
        } else {
            -h
        };
        (-3.0 * f(kappa) + 4.0 * f(kappa + d) - f(kappa + 2.0 * d)) / (2.0 * d)
    }

    /// `v` scaled to `|κ|·‖v‖² = rho2`.
    fn at_rho2(v: &[f64], rho2: f64, kappa: f64) -> Vec<f64> {
        let r = (rho2 / kappa.abs() / reference::norm_sq(v)).sqrt();
        v.iter().map(|c| c * r).collect()
    }

    #[test]
    fn distance_gradient_matches_finite_difference() {
        let base_x = [0.15, -0.1, 0.2];
        let base_y = [-0.05, 0.25, 0.1];
        for kappa in KAPPAS {
            let hk = if kappa.abs() > amcad_manifold::KAPPA_EPS {
                1e-6
            } else {
                1e-9
            };
            check_gradient(&base_x, &base_y, kappa, (1e-6, hk), |_| 1e-4);
        }
    }

    /// The same check with `x` just inside the edge of the triangle
    /// domain (`|κ|·‖x‖² = 1 − 1e-4` on a curved component, `1e-4` in the
    /// Taylor window), where the conformal factor and the Taylor terms are
    /// largest.
    #[test]
    fn distance_gradient_matches_finite_difference_at_the_domain_edge() {
        let base_x = [0.15, -0.1, 0.2];
        let base_y = [-0.05, 0.25, 0.1];
        for kappa in KAPPAS.into_iter().filter(|&k| k != 0.0) {
            let edge = if kappa.abs() > amcad_manifold::KAPPA_EPS {
                1.0 - 1e-4
            } else {
                1e-4
            };
            let x = at_rho2(&base_x, edge * (1.0 - 1e-9), kappa);
            let y = at_rho2(&base_y, edge * 0.5, kappa);
            // steps small against the room to the edge: |κ|·‖x‖² moves by
            // about 2e-7 of itself
            let hx = 1e-7 * reference::norm(&x);
            let hk = if kappa.abs() > amcad_manifold::KAPPA_EPS {
                1e-9 * kappa.abs()
            } else {
                1e-10
            };
            // relative above 1: the derivatives here reach 1e4–3e14
            let tolerance = |fd: f64| 1e-4 * fd.abs().max(1.0);
            check_gradient(&x, &base_y, kappa, (hx, hk), tolerance);
            check_gradient(&x, &y, kappa, (hx, hk), tolerance);
        }
    }

    /// With both points at the edge, `f64` differences drown in rounding,
    /// so `∂x` is checked against an identity instead: the distance has unit
    /// gradient in the metric `(λ^κ_x)²·I`, so its Euclidean gradient has
    /// norm `λ^κ_x = 2 / (1 + κ‖x‖²)`, 2e4 at the hyperbolic edge.
    #[test]
    fn distance_gradient_has_the_conformal_norm_with_both_points_at_the_edge() {
        for kappa in KAPPAS
            .into_iter()
            .filter(|&k| k.abs() > amcad_manifold::KAPPA_EPS)
        {
            let rho2 = (1.0 - 1e-4) * (1.0 - 1e-9);
            let x = at_rho2(&[0.15, -0.1, 0.2], rho2, kappa);
            let y = at_rho2(&[-0.05, 0.25, 0.1], rho2, kappa);
            let (_, gx, _) = distance_and_gradients(&x, &y, kappa);
            let lambda = reference::lambda_x(&x, kappa);
            let norm = reference::norm(&gx);
            assert!(
                (norm - lambda).abs() < 1e-6 * lambda,
                "kappa {kappa}: ‖∂x‖ {norm} vs λ {lambda}"
            );
        }
    }

    /// Points from one ulp to 2⁻²⁶ apart: the Gram form's `‖x‖² + ‖y‖² − 2⟨x,y⟩`
    /// cancels to rounding noise and often to 0 or below, where the
    /// distance is clamped to 0. The gradient must stay finite, within
    /// twice the conformal factor `λ^κ_x` (its norm away from the noise),
    /// and be 0 where the value is.
    #[test]
    fn distance_gradient_stays_bounded_where_the_points_coincide() {
        let base = [0.15, -0.1, 0.2];
        let mut clamped = 0;
        for kappa in KAPPAS {
            let lambda = reference::lambda_x(&base, kappa);
            for j in 0..base.len() {
                // offsets from 2⁻⁵² to 2⁻²⁶ of the coordinate, where the
                // true ‖x − y‖² is down at the Gram form's rounding noise
                for step in 0..=104 {
                    let mut y = base;
                    y[j] += (f64::from(step) / 4.0 - 52.0).exp2() * base[j].abs();
                    let (d, gx, gk) = distance_and_gradients(&base, &y, kappa);
                    let norm = reference::norm(&gx);
                    assert!(gk.is_finite(), "kappa {kappa} {y:?}: dκ {gk}");
                    assert!(norm <= 2.0 * lambda, "kappa {kappa} {y:?}: ‖∂x‖ {norm}");
                    if d == 0.0 {
                        clamped += 1;
                        assert_eq!((norm, gk), (0.0, 0.0), "kappa {kappa} {y:?}");
                    }
                }
            }
        }
        assert!(clamped > 0, "no probe pair reached the clamp");
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
