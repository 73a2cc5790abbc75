//! Gyrovector-space point operations in the unified κ-stereographic model.
//!
//! These are the closed-form expressions of Table II in the paper: Möbius
//! addition, exponential/logarithmic maps, geodesic distance, κ-matrix
//! multiplication and κ-activations.  All functions operate on plain `&[f64]`
//! slices and return freshly allocated `Vec<f64>` (the hot retrieval paths
//! in `amcad-mnn` use the `*_into` / scalar variants to avoid allocation).

use crate::scalar::{atan_kappa, tan_kappa};
use crate::{dot, norm, norm_sq, BOUNDARY_EPS, MIN_NORM};

/// Conformal factor `λ^κ_x = 2 / (1 + κ‖x‖²)` at point `x`.
#[inline]
pub fn lambda_x(x: &[f64], kappa: f64) -> f64 {
    2.0 / (1.0 + kappa * norm_sq(x)).max(MIN_NORM)
}

/// Möbius addition `x ⊕_κ y` (Table II).
///
/// For `κ = 0` this reduces to ordinary vector addition; for `κ < 0` it is
/// the Poincaré-ball gyro-addition; for `κ > 0` the stereographic-sphere
/// counterpart.
pub fn mobius_add(x: &[f64], y: &[f64], kappa: f64) -> Vec<f64> {
    debug_assert_eq!(x.len(), y.len());
    let xy = dot(x, y);
    let x2 = norm_sq(x);
    let y2 = norm_sq(y);
    let num_x = 1.0 - 2.0 * kappa * xy - kappa * y2;
    let num_y = 1.0 + kappa * x2;
    let denom = 1.0 - 2.0 * kappa * xy + kappa * kappa * x2 * y2;
    let denom = if denom.abs() < MIN_NORM {
        MIN_NORM.copysign(denom)
    } else {
        denom
    };
    x.iter()
        .zip(y)
        .map(|(&xi, &yi)| (num_x * xi + num_y * yi) / denom)
        .collect()
}

/// Möbius negation: the additive inverse of `x`, i.e. `(-x) ⊕_κ x = 0`.
#[inline]
pub fn mobius_neg(x: &[f64]) -> Vec<f64> {
    x.iter().map(|v| -v).collect()
}

/// Project a point back into the valid region of the space.
///
/// For `κ < 0` the model lives on the open ball of radius `1/√(-κ)`; points
/// pushed outside by gradient updates are rescaled onto a slightly smaller
/// ball (the paper's out-of-boundary stabilisation, Section V-B).  For
/// `κ ≥ 0` the point is returned unchanged.
pub fn project_to_ball(x: &[f64], kappa: f64) -> Vec<f64> {
    if kappa >= 0.0 {
        return x.to_vec();
    }
    let max_norm = (1.0 - BOUNDARY_EPS) / (-kappa).sqrt();
    let n = norm(x);
    if n <= max_norm {
        x.to_vec()
    } else {
        let scale = max_norm / n;
        x.iter().map(|v| v * scale).collect()
    }
}

/// Exponential map at the origin: `exp^κ_0(v) = tan_κ(‖v‖) · v/‖v‖`.
///
/// For `κ > 0` the tangent norm is clamped just below the pole of `tan` so
/// that antipodal blow-ups cannot occur.
pub fn exp_map_origin(v: &[f64], kappa: f64) -> Vec<f64> {
    let n = norm(v);
    if n < MIN_NORM {
        return v.to_vec();
    }
    let mut arg = n;
    if kappa > crate::KAPPA_EPS {
        let limit = std::f64::consts::FRAC_PI_2 / kappa.sqrt() * (1.0 - BOUNDARY_EPS);
        if arg > limit {
            arg = limit;
        }
    }
    let scale = tan_kappa(arg, kappa) / n;
    let out: Vec<f64> = v.iter().map(|vi| vi * scale).collect();
    project_to_ball(&out, kappa)
}

/// Logarithmic map at the origin: `log^κ_0(y) = tan⁻¹_κ(‖y‖) · y/‖y‖`.
pub fn log_map_origin(y: &[f64], kappa: f64) -> Vec<f64> {
    let n = norm(y);
    if n < MIN_NORM {
        return y.to_vec();
    }
    let scale = atan_kappa(n, kappa) / n;
    y.iter().map(|yi| yi * scale).collect()
}

/// Exponential map at an arbitrary base point `x` (Table II):
/// `exp^κ_x(v) = x ⊕_κ ( tan_κ(λ^κ_x ‖v‖ / 2) · v/‖v‖ )`.
pub fn exp_map(x: &[f64], v: &[f64], kappa: f64) -> Vec<f64> {
    let n = norm(v);
    if n < MIN_NORM {
        return project_to_ball(x, kappa);
    }
    let lam = lambda_x(x, kappa);
    let scale = tan_kappa(lam * n / 2.0, kappa) / n;
    let step: Vec<f64> = v.iter().map(|vi| vi * scale).collect();
    project_to_ball(&mobius_add(x, &step, kappa), kappa)
}

/// Logarithmic map at an arbitrary base point `x` (Table II):
/// `log^κ_x(y) = (2/λ^κ_x) · tan⁻¹_κ(‖-x ⊕_κ y‖) · (-x ⊕_κ y)/‖-x ⊕_κ y‖`.
pub fn log_map(x: &[f64], y: &[f64], kappa: f64) -> Vec<f64> {
    let w = mobius_add(&mobius_neg(x), y, kappa);
    let n = norm(&w);
    if n < MIN_NORM {
        return vec![0.0; x.len()];
    }
    let lam = lambda_x(x, kappa);
    let scale = 2.0 / lam * atan_kappa(n, kappa) / n;
    w.iter().map(|wi| wi * scale).collect()
}

/// Geodesic distance `d_κ(x, y) = 2 · tan⁻¹_κ(‖-x ⊕_κ y‖)` (Table II).
///
/// For `κ = 0` this equals `2‖x - y‖` (the κ-stereographic convention).
pub fn distance(x: &[f64], y: &[f64], kappa: f64) -> f64 {
    let w = mobius_add(&mobius_neg(x), y, kappa);
    2.0 * atan_kappa(norm(&w), kappa)
}

/// `‖(−x) ⊕_κ y‖` from the Gram quantities `x2 = ‖x‖²`, `y2 = ‖y‖²` and
/// `xy = ⟨x, y⟩` alone — the arithmetic half of [`distance_gram`]: a few
/// multiplies, one division and one square root, no transcendental. The
/// bound-and-prune scan in `amcad-mnn` stops here for every candidate,
/// bounds the distance from this norm with
/// [`atan_kappa_minorant`](crate::scalar::atan_kappa_minorant), and calls
/// [`atan_kappa`] on it only for the candidates the bound cannot reject.
///
/// It is the closed form of the κ-stereographic model (Bachmann, Bécigneul
/// and Ganea, ICML 2020; Skopek, Ganea and Bécigneul, ICLR 2020):
///
/// ```text
/// ‖(−x) ⊕_κ y‖² = ‖x − y‖² / (1 + 2κ·⟨x, y⟩ + κ²·‖x‖²·‖y‖²)
/// ```
///
/// computed as `((x2 + y2) − 2·xy) / denom`, with `denom` clamped at
/// [`MIN_NORM`] from below: over the reals `denom ≥ (1 − |κ|·‖x‖·‖y‖)² ≥
/// 0`, so a `denom` that rounds to 0 or below belongs to a nearly
/// antipodal pair on a sphere (`κ > 0`), whose norm is then large and
/// whose distance comes out as the antipodal `π/√κ`, not 0. Every
/// operation is symmetric in `x2` and `y2`, so swapping the two points
/// gives the same bits; identical Gram
/// inputs (`x2 == xy == y2` bitwise) give exactly 0, since `t + t` and
/// `2·t` round alike. The squared norm is clamped at 0 before the square
/// root, so the result is never negative — nor `NaN`: `f64::max` answers 0
/// for a `NaN` squared norm. The training tape's
/// `amcad_autodiff::manifold_ops::distance` runs the same operations.
#[inline]
pub fn diff_norm_gram(x2: f64, y2: f64, xy: f64, kappa: f64) -> f64 {
    let dd = (x2 + y2) - 2.0 * xy;
    let denom = (1.0 + 2.0 * kappa * xy + kappa * kappa * (x2 * y2)).max(MIN_NORM);
    (dd / denom).max(0.0).sqrt()
}

/// Geodesic distance `2 · tan⁻¹_κ(‖(−x) ⊕_κ y‖)` from the Gram quantities
/// alone — the allocation-free form of [`distance`] every scattered
/// evaluation in `amcad-mnn` calls per candidate. It is exactly
/// [`diff_norm_gram`] followed by [`atan_kappa`] and a doubling, so a
/// kernel that runs the two halves at different times (norm now,
/// `tan⁻¹_κ` only if the candidate survives a bound) produces the same
/// bits as this call:
///
/// ```text
/// d_κ(x, y) = 2 · tan⁻¹_κ(√(‖x − y‖² / (1 + 2κ·⟨x, y⟩ + κ²·‖x‖²·‖y‖²)))
/// ```
///
/// the κ-stereographic closed form (Bachmann, Bécigneul and Ganea, ICML
/// 2020; Skopek, Ganea and Bécigneul, ICLR 2020), with
/// `distance_gram(x2, y2, xy, κ)` and `distance_gram(y2, x2, xy, κ)` equal
/// in bits.
#[inline]
pub fn distance_gram(x2: f64, y2: f64, xy: f64, kappa: f64) -> f64 {
    2.0 * atan_kappa(diff_norm_gram(x2, y2, xy, kappa), kappa)
}

/// Largest `|κ|·‖x‖²` of a point of the triangle domain on a curved
/// component (`|κ| > KAPPA_EPS`): inside the ball with room to spare
/// (`κ < 0`), on the open upper hemisphere (`κ > 0`). Two such points are
/// never antipodal, so [`diff_norm_gram`]'s `denom` stays above
/// `(1 − |κ|·‖x‖·‖y‖)² ≥ 1e-8`, far above its rounding error, and the
/// hyperbolic `artanh` argument stays below `1 − 1e-9`, far from
/// [`atan_kappa`]'s clamp.
const TRIANGLE_RHO2: f64 = 1.0 - 1e-4;

/// Largest `|κ|·‖x‖²` in the Taylor window `|κ| ≤ KAPPA_EPS`: there
/// [`atan_kappa`] is `y − κ·y³/3`, which stays within `(κ·y²)² ≤ 2e-7` of
/// the curved `tan⁻¹_κ` (and increasing) only while `κ·y²` is small.
const TRIANGLE_TAYLOR_RHO2: f64 = 1e-4;

/// What [`triangle_slack`] multiplies its scale by. The computed
/// distances are off by rounding, and [`diff_norm_gram`]'s Gram form
/// loses the most where two points nearly coincide: `(x2 + y2) − 2·xy`
/// rounds in steps of `ε·‖x‖²`, so the norm it feeds is off by up to
/// `√ε·‖x‖ ≈ 1.5e-8·‖x‖`, stretched by the conformal factor
/// `1/(1 − |κ|·‖x‖²)` near the hyperbolic boundary. Measured by the
/// property test `tests/triangle_contract.rs` (κ from −2 to 2 across both
/// `KAPPA_EPS` seams, dims 1–16, points at the domain's edge, nearly
/// coincident or nearly antipodal), the computed triangle inequality
/// falls short by at most 2.3e-8 of the scale over 200 cases; the
/// constant leaves over 40× of room, and the test fails if the measured
/// shortfall comes within 10× of it.
pub const TRIANGLE_SLACK: f64 = 1e-6;

/// Whether a point with squared norm `x2` on a component of curvature
/// `kappa` lies in the *triangle domain*: finite, and where, for any
/// three points `q`, `c`, `a` of it, the computed distance keeps the
/// triangle inequality up to [`triangle_slack`]:
///
/// ```text
/// distance_gram(q, a) ≥ distance_gram(q, c) − distance_gram(c, a) − triangle_slack(…)
/// ```
///
/// Outside it the computed distance is no metric: a non-finite norm makes
/// `NaN`; a point off the ball (`κ < 0`) is off the manifold; near the
/// ball's edge [`atan_kappa`] clamps its `artanh`; two nearly antipodal
/// points (`κ > 0`) bring `denom` down to its rounding error, where the
/// distance is the antipodal `π/√κ` only to within `√ε`. The spherical bound
/// stays at the open upper hemisphere, where [`TRIANGLE_SLACK`] was
/// measured.
#[inline]
pub fn in_triangle_domain(x2: f64, kappa: f64) -> bool {
    let limit = if kappa.abs() > crate::KAPPA_EPS {
        TRIANGLE_RHO2
    } else {
        TRIANGLE_TAYLOR_RHO2
    };
    x2.is_finite() && kappa.abs() * x2 <= limit
}

/// How far the computed distance of triangle-domain points may fall short
/// of the triangle inequality (see [`in_triangle_domain`]): `norm_sum` is
/// `‖q‖ + ‖c‖ + ‖a‖` (or an upper bound on it), `max_x2` the largest of
/// the three squared norms (or an upper bound on it). Increasing in both,
/// so one slack computed from a cluster's largest norms covers every
/// member.
#[inline]
pub fn triangle_slack(norm_sum: f64, max_x2: f64, kappa: f64) -> f64 {
    TRIANGLE_SLACK * norm_sum * triangle_stretch(max_x2, kappa)
}

/// The conformal stretch [`triangle_slack`] scales by: `1/(1 − |κ|·x2)`
/// on a hyperbolic component, 1 elsewhere. At least 1, and increasing in
/// `x2`, so the stretch of the largest of several squared norms is the
/// largest of their stretches, and never more than their product.
#[inline]
pub fn triangle_stretch(x2: f64, kappa: f64) -> f64 {
    1.0 / (1.0 - (-kappa).max(0.0) * x2)
}

/// κ-matrix multiplication `M ⊗_κ x = exp^κ_0(M · log^κ_0(x))` (Table II).
///
/// `mat` is row-major with `rows × cols` entries, `cols == x.len()`.
pub fn kappa_matmul(mat: &[f64], rows: usize, cols: usize, x: &[f64], kappa: f64) -> Vec<f64> {
    debug_assert_eq!(mat.len(), rows * cols);
    debug_assert_eq!(cols, x.len());
    let t = log_map_origin(x, kappa);
    let mut out = vec![0.0; rows];
    for (r, o) in out.iter_mut().enumerate() {
        *o = dot(&mat[r * cols..(r + 1) * cols], &t);
    }
    exp_map_origin(&out, kappa)
}

/// κ-activation `σ_{κ1→κ2}(x) = exp^{κ2}_0(σ(log^{κ1}_0(x)))` (Table II).
///
/// The Euclidean non-linearity `sigma` is applied pointwise in the tangent
/// space of the source curvature and the result re-mapped into the target
/// curvature — this is also how heterogeneous edge-space projection moves a
/// point between two different curvatures.
pub fn kappa_activation<F: Fn(f64) -> f64>(
    x: &[f64],
    kappa_from: f64,
    kappa_to: f64,
    sigma: F,
) -> Vec<f64> {
    let t = log_map_origin(x, kappa_from);
    let activated: Vec<f64> = t.iter().map(|&v| sigma(v)).collect();
    exp_map_origin(&activated, kappa_to)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_vec_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() <= tol, "{a:?} != {b:?}");
        }
    }

    #[test]
    fn mobius_add_is_vector_addition_at_zero_curvature() {
        let x = [0.1, -0.2, 0.3];
        let y = [0.05, 0.4, -0.1];
        let sum = mobius_add(&x, &y, 0.0);
        assert_vec_close(&sum, &[0.15, 0.2, 0.2], 1e-12);
    }

    #[test]
    fn mobius_add_with_origin_is_identity() {
        let x = [0.2, -0.3];
        let zero = [0.0, 0.0];
        for &kappa in &[-1.0, -0.3, 0.0, 0.5, 1.0] {
            assert_vec_close(&mobius_add(&zero, &x, kappa), &x, 1e-12);
            assert_vec_close(&mobius_add(&x, &zero, kappa), &x, 1e-12);
        }
    }

    #[test]
    fn mobius_neg_is_left_inverse() {
        let x = [0.3, -0.1, 0.25];
        for &kappa in &[-1.0, -0.2, 0.0, 0.4, 1.0] {
            let z = mobius_add(&mobius_neg(&x), &x, kappa);
            assert!(norm(&z) < 1e-10, "kappa={kappa} residual {z:?}");
        }
    }

    #[test]
    fn exp_log_origin_roundtrip() {
        let v = [0.21, -0.13, 0.09];
        for &kappa in &[-2.0, -1.0, -0.1, 0.0, 0.1, 1.0, 2.0] {
            let p = exp_map_origin(&v, kappa);
            let back = log_map_origin(&p, kappa);
            assert_vec_close(&back, &v, 1e-8);
        }
    }

    #[test]
    fn exp_log_roundtrip_at_base_point() {
        let x = exp_map_origin(&[0.1, 0.05, -0.08], -1.0);
        let v = [0.12, -0.07, 0.2];
        for &kappa in &[-1.0, -0.3, 0.0, 0.6] {
            let y = exp_map(&x, &v, kappa);
            let back = log_map(&x, &y, kappa);
            assert_vec_close(&back, &v, 1e-6);
        }
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_diagonal() {
        let x = [0.2, -0.1];
        let y = [-0.15, 0.3];
        for &kappa in &[-1.5, -0.5, 0.0, 0.5, 1.5] {
            let dxy = distance(&x, &y, kappa);
            let dyx = distance(&y, &x, kappa);
            assert!((dxy - dyx).abs() < 1e-10);
            assert!(distance(&x, &x, kappa).abs() < 1e-10);
            assert!(dxy > 0.0);
        }
    }

    #[test]
    fn distance_gram_matches_the_vector_form_across_curvatures() {
        let xs = [
            vec![0.2, -0.1, 0.4],
            vec![0.0, 0.0, 0.0],
            vec![0.31, 0.17, -0.05],
        ];
        let ys = [
            vec![-0.15, 0.3, 0.1],
            vec![0.2, -0.1, 0.4],
            vec![0.0, 0.0, 0.0],
        ];
        for x in &xs {
            for y in &ys {
                for &kappa in &[-1.5, -1.0, -0.3, 0.0, 0.3, 1.0, 1.5] {
                    let reference = distance(x, y, kappa);
                    let gram = distance_gram(norm_sq(x), norm_sq(y), dot(x, y), kappa);
                    assert!(
                        (reference - gram).abs() < 1e-10,
                        "kappa={kappa} x={x:?} y={y:?}: {reference} vs {gram}"
                    );
                }
            }
        }
    }

    #[test]
    fn distance_gram_is_exactly_zero_on_identical_points() {
        // identical points present identical Gram quantities (x2 == y2 == xy);
        // the factored form makes dd — and so the distance — exactly zero,
        // which downstream self-distance asserts (nearest neighbour of a key
        // present in the candidates is itself, at < 1e-9) rely on
        for &kappa in &[-2.0, -1.0, 0.0, 1.0, 2.0] {
            for &t in &[0.0, 1e-12, 0.04, 0.21, 0.73] {
                assert_eq!(distance_gram(t, t, t, kappa), 0.0, "kappa={kappa} t={t}");
            }
        }
    }

    #[test]
    fn distance_at_zero_curvature_is_twice_euclidean() {
        let x = [0.2, -0.1, 0.4];
        let y = [-0.15, 0.3, 0.1];
        let eu: f64 = x
            .iter()
            .zip(&y)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!((distance(&x, &y, 0.0) - 2.0 * eu).abs() < 1e-10);
    }

    #[test]
    fn distance_matches_poincare_formula_for_unit_negative_curvature() {
        // For κ = -1 the κ-stereographic distance is the Poincaré distance
        // d(x,y) = 2 artanh(‖-x ⊕ y‖).
        let x = [0.3, 0.1];
        let y = [-0.2, 0.4];
        let w = mobius_add(&mobius_neg(&x), &y, -1.0);
        let expected = 2.0 * norm(&w).atanh();
        assert!((distance(&x, &y, -1.0) - expected).abs() < 1e-12);
    }

    #[test]
    fn distance_from_origin_equals_log_norm_times_two_over_lambda() {
        // d_κ(0, y) = 2·tan⁻¹_κ(‖y‖) and ‖log_0(y)‖ = tan⁻¹_κ(‖y‖).
        let y = [0.25, -0.3];
        let zero = [0.0, 0.0];
        for &kappa in &[-1.0, 0.0, 1.0] {
            let d = distance(&zero, &y, kappa);
            let l = norm(&log_map_origin(&y, kappa));
            assert!((d - 2.0 * l).abs() < 1e-10);
        }
    }

    #[test]
    fn projection_keeps_points_inside_the_ball() {
        let kappa = -1.0;
        let far = [5.0, 5.0, 5.0];
        let p = project_to_ball(&far, kappa);
        assert!(norm(&p) < 1.0);
        // κ ≥ 0 is untouched
        assert_vec_close(&project_to_ball(&far, 0.5), &far, 0.0);
    }

    #[test]
    fn exp_map_positive_curvature_is_bounded() {
        // A huge tangent vector must not blow up through the tan pole.
        let v = [100.0, -50.0];
        let p = exp_map_origin(&v, 1.0);
        assert!(p.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn kappa_matmul_reduces_to_matmul_at_zero_curvature() {
        let mat = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2x3
        let x = [0.1, 0.2, 0.3];
        let out = kappa_matmul(&mat, 2, 3, &x, 0.0);
        assert_vec_close(&out, &[1.4, 3.2], 1e-9);
    }

    #[test]
    fn kappa_activation_moves_point_between_curvatures() {
        let x = exp_map_origin(&[0.2, -0.1], -1.0);
        let y = kappa_activation(&x, -1.0, 1.0, |v| v); // identity activation
                                                        // identity in tangent space: log_0^{κ2}(y) == log_0^{κ1}(x)
        let tx = log_map_origin(&x, -1.0);
        let ty = log_map_origin(&y, 1.0);
        assert_vec_close(&tx, &ty, 1e-9);
    }

    #[test]
    fn lambda_at_origin_is_two() {
        let zero = [0.0; 4];
        for &kappa in &[-1.0, 0.0, 1.0] {
            assert!((lambda_x(&zero, kappa) - 2.0).abs() < 1e-12);
        }
    }

    /// A pair `δ` short of antipodal on a sphere, `y = −x/(κ‖x‖²)·(1 + δ)`,
    /// is at `π/√κ` up to `δ/√κ`. Its exact `denom` is `δ²`, which rounds
    /// to 0 or below for the smallest `δ`: the clamp must then give the
    /// antipodal distance, never 0.
    #[test]
    fn a_nearly_antipodal_pair_is_at_the_antipodal_distance() {
        let mut state = 0x5eed_u64;
        let mut uniform = || {
            // splitmix64, top 53 bits to [−1, 1)
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        };
        for kappa in [0.6f64, 1.0, 2.0] {
            let antipodal = std::f64::consts::PI / kappa.sqrt();
            for dim in 1..=16 {
                for exponent in -17..=-6 {
                    for _ in 0..20 {
                        let delta = 10f64.powi(exponent) * (1.0 + uniform().abs());
                        let x: Vec<f64> = (0..dim).map(|_| uniform()).collect();
                        let scale = -(1.0 + delta) / (kappa * norm_sq(&x));
                        let y: Vec<f64> = x.iter().map(|xi| xi * scale).collect();
                        let d = distance_gram(norm_sq(&x), norm_sq(&y), dot(&x, &y), kappa);
                        assert!(
                            (d - antipodal).abs() <= (delta + 1e-7) / kappa.sqrt(),
                            "κ {kappa}, dim {dim}, δ {delta:e}: distance {d}, antipodal {antipodal}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn triangle_inequality_holds_in_hyperbolic_space() {
        let a = exp_map_origin(&[0.1, 0.2], -1.0);
        let b = exp_map_origin(&[-0.3, 0.05], -1.0);
        let c = exp_map_origin(&[0.2, -0.25], -1.0);
        let ab = distance(&a, &b, -1.0);
        let bc = distance(&b, &c, -1.0);
        let ac = distance(&a, &c, -1.0);
        assert!(ac <= ab + bc + 1e-9);
    }
}
