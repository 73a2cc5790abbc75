//! Curvature-dependent scalar trigonometry.
//!
//! The unified κ-stereographic model replaces ordinary `tan`/`arctan` with
//! curvature generalisations (`tan_κ`, `tan⁻¹_κ` in Table II of the paper)
//! that interpolate smoothly between hyperbolic (`κ < 0`), Euclidean
//! (`κ = 0`) and spherical (`κ > 0`) behaviour.  Near `κ = 0` the closed
//! forms are numerically unstable (`0/0`), so a third-order Taylor expansion
//! is used inside `|κ| < KAPPA_EPS`; the expansion agrees with both branches
//! to `O(κ²)`.

/// Threshold below which curvature is treated as (numerically) zero.
pub const KAPPA_EPS: f64 = 1e-7;

/// Curvature-dependent tangent `tan_κ(x)`.
///
/// * `κ < 0`: `tanh(√(-κ)·x)/√(-κ)`
/// * `κ ≈ 0`: `x + κ·x³/3` (Taylor)
/// * `κ > 0`: `tan(√κ·x)/√κ`
#[inline]
pub fn tan_kappa(x: f64, kappa: f64) -> f64 {
    if kappa < -KAPPA_EPS {
        let s = (-kappa).sqrt();
        (s * x).tanh() / s
    } else if kappa > KAPPA_EPS {
        let s = kappa.sqrt();
        (s * x).tan() / s
    } else {
        x + kappa * x * x * x / 3.0
    }
}

/// Curvature-dependent arc tangent `tan⁻¹_κ(y)`, the inverse of
/// [`tan_kappa`] on its principal branch.
///
/// * `κ < 0`: `artanh(√(-κ)·y)/√(-κ)` (argument clamped into `(-1, 1)`)
/// * `κ ≈ 0`: `y - κ·y³/3` (Taylor)
/// * `κ > 0`: `arctan(√κ·y)/√κ`
#[inline]
pub fn atan_kappa(y: f64, kappa: f64) -> f64 {
    if kappa < -KAPPA_EPS {
        let s = (-kappa).sqrt();
        let a = (s * y).clamp(-1.0 + 1e-15, 1.0 - 1e-15);
        a.atanh() / s
    } else if kappa > KAPPA_EPS {
        let s = kappa.sqrt();
        (s * y).atan() / s
    } else {
        y - kappa * y * y * y / 3.0
    }
}

/// A cheap minorant of [`atan_kappa`] on `y ≥ 0` — no transcendental, the
/// same three curvature branches — for bound-and-prune scans that only
/// need to know a distance is *at least* something:
///
/// * `κ < 0`, `s = √(−κ)`: `artanh(s·y)/s ≥ min(y, 1/s)`. `artanh(t) ≥ t`
///   gives the first arm; past the clamp [`atan_kappa`] returns
///   `artanh(1 − 1e-15)/s ≈ 17.6/s ≥ 1/s`, which the second arm covers.
/// * `κ > 0`, `s = √κ`: `arctan(s·y)/s ≥ y/√(1 + κ·y²)` — with
///   `θ = arctan(s·y)`, `sin θ ≤ θ` and `sin θ = s·y/√(1 + κ·y²)`.
/// * `|κ| ≤ KAPPA_EPS`: the Taylor value [`atan_kappa`] itself returns,
///   where that is non-negative.
///
/// The result is `≥ 0`, or `−∞` ("no bound") where the Taylor value is
/// negative — a sum of these therefore never cancels — and a `NaN`
/// argument comes back `NaN`.
///
/// The inequalities are exact over the reals; in `f64` each side rounds a
/// few times, so what holds (and what the sweep test below pins) is
/// `atan_kappa(y, κ) ≥ minorant·(1 − 1e-13)` for `y = 0` and every
/// `y ≥ 1e-300` — measured, the shortfall stays under two ulps, so a
/// caller that sums weighted bounds and shrinks the sum by `1e-12` (the
/// scan kernel's margin) has room for its own roundings. A smaller
/// positive `y` makes `s·y` subnormal, where [`atan_kappa`] rounds in
/// absolute steps and may return anything down to 0; the norms a scan
/// feeds both functions are square roots of `f64`s, so never a positive
/// number below `2.2e-162`.
#[inline]
pub fn atan_kappa_minorant(y: f64, kappa: f64) -> f64 {
    if kappa < -KAPPA_EPS {
        let inv_s = 1.0 / (-kappa).sqrt();
        // written so that a NaN `y` falls through as NaN (f64::min drops it)
        if y > inv_s {
            inv_s
        } else {
            y
        }
    } else if kappa > KAPPA_EPS {
        y / (1.0 + kappa * y * y).sqrt()
    } else {
        let taylor = y - kappa * y * y * y / 3.0;
        if taylor < 0.0 {
            f64::NEG_INFINITY
        } else {
            taylor
        }
    }
}

/// Curvature-dependent sine `sin_κ(x)` (used by a few geometric helpers and
/// by tests as an independent cross-check of `tan_κ = sin_κ / cos_κ`).
#[inline]
pub fn sin_kappa(x: f64, kappa: f64) -> f64 {
    if kappa < -KAPPA_EPS {
        let s = (-kappa).sqrt();
        (s * x).sinh() / s
    } else if kappa > KAPPA_EPS {
        let s = kappa.sqrt();
        (s * x).sin() / s
    } else {
        x + kappa * x * x * x / 6.0
    }
}

/// Curvature-dependent cosine `cos_κ(x)`.
#[inline]
pub fn cos_kappa(x: f64, kappa: f64) -> f64 {
    if kappa < -KAPPA_EPS {
        ((-kappa).sqrt() * x).cosh()
    } else if kappa > KAPPA_EPS {
        (kappa.sqrt() * x).cos()
    } else {
        1.0 + kappa * x * x / 2.0
    }
}

/// Partial derivative of [`tan_kappa`] with respect to `x`.
///
/// Used by the autodiff primitive so that curvature-trigonometry gradients
/// have a single authoritative implementation.
#[inline]
pub fn tan_kappa_dx(x: f64, kappa: f64) -> f64 {
    if kappa < -KAPPA_EPS {
        let t = ((-kappa).sqrt() * x).tanh();
        1.0 - t * t
    } else if kappa > KAPPA_EPS {
        let c = (kappa.sqrt() * x).cos();
        1.0 / (c * c)
    } else {
        1.0 + kappa * x * x
    }
}

/// Partial derivative of [`tan_kappa`] with respect to `κ`.
#[inline]
pub fn tan_kappa_dkappa(x: f64, kappa: f64) -> f64 {
    if kappa.abs() <= KAPPA_EPS {
        // d/dκ [x + κ x³/3] = x³/3
        return x * x * x / 3.0;
    }
    if kappa < 0.0 {
        // f = tanh(s x)/s with s = sqrt(-κ), ds/dκ = -1/(2s)
        let s = (-kappa).sqrt();
        let t = (s * x).tanh();
        let df_ds = (x * (1.0 - t * t) * s - t) / (s * s);
        df_ds * (-1.0 / (2.0 * s))
    } else {
        // f = tan(s x)/s with s = sqrt(κ), ds/dκ = 1/(2s)
        let s = kappa.sqrt();
        let c = (s * x).cos();
        let t = (s * x).tan();
        let df_ds = (x / (c * c) * s - t) / (s * s);
        df_ds * (1.0 / (2.0 * s))
    }
}

/// Partial derivative of [`atan_kappa`] with respect to `y`.
#[inline]
pub fn atan_kappa_dy(y: f64, kappa: f64) -> f64 {
    if kappa < -KAPPA_EPS {
        let s2 = -kappa;
        1.0 / (1.0 - s2 * y * y).max(1e-15)
    } else if kappa > KAPPA_EPS {
        1.0 / (1.0 + kappa * y * y)
    } else {
        1.0 - kappa * y * y
    }
}

/// Partial derivative of [`atan_kappa`] with respect to `κ`.
#[inline]
pub fn atan_kappa_dkappa(y: f64, kappa: f64) -> f64 {
    if kappa.abs() <= KAPPA_EPS {
        // d/dκ [y - κ y³/3] = -y³/3
        return -y * y * y / 3.0;
    }
    if kappa < 0.0 {
        // f = artanh(s y)/s, s = sqrt(-κ), ds/dκ = -1/(2s)
        let s = (-kappa).sqrt();
        let a = (s * y).clamp(-1.0 + 1e-12, 1.0 - 1e-12);
        let df_ds = (y / (1.0 - a * a) * s - a.atanh()) / (s * s);
        df_ds * (-1.0 / (2.0 * s))
    } else {
        // f = atan(s y)/s, s = sqrt(κ), ds/dκ = 1/(2s)
        let s = kappa.sqrt();
        let df_ds = (y / (1.0 + s * s * y * y) * s - (s * y).atan()) / (s * s);
        df_ds * (1.0 / (2.0 * s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!(
            (a - b).abs() <= tol,
            "expected {a} ≈ {b} (diff {})",
            (a - b).abs()
        );
    }

    #[test]
    fn tan_kappa_reduces_to_identity_at_zero_curvature() {
        for &x in &[-2.0, -0.5, 0.0, 0.3, 1.7] {
            assert_close(tan_kappa(x, 0.0), x, 1e-12);
            assert_close(atan_kappa(x, 0.0), x, 1e-12);
        }
    }

    #[test]
    fn tan_kappa_matches_tanh_for_unit_negative_curvature() {
        for &x in &[-1.5, -0.2, 0.0, 0.4, 2.0] {
            assert_close(tan_kappa(x, -1.0), x.tanh(), 1e-12);
            assert_close(sin_kappa(x, -1.0), x.sinh(), 1e-12);
            assert_close(cos_kappa(x, -1.0), x.cosh(), 1e-12);
        }
    }

    #[test]
    fn tan_kappa_matches_tan_for_unit_positive_curvature() {
        for &x in &[-1.0, -0.2, 0.0, 0.4, 1.2] {
            assert_close(tan_kappa(x, 1.0), x.tan(), 1e-12);
            assert_close(sin_kappa(x, 1.0), x.sin(), 1e-12);
            assert_close(cos_kappa(x, 1.0), x.cos(), 1e-12);
        }
    }

    #[test]
    fn atan_is_inverse_of_tan() {
        for &kappa in &[-2.0, -1.0, -0.1, 0.0, 0.1, 1.0, 2.0] {
            for &x in &[-0.7, -0.3, 0.0, 0.2, 0.6] {
                let y = tan_kappa(x, kappa);
                assert_close(atan_kappa(y, kappa), x, 1e-9);
            }
        }
    }

    #[test]
    fn minorant_never_exceeds_atan_kappa() {
        let kappas: [f64; 15] = [
            -2.0,
            2.0,
            -0.8,
            0.8,
            -0.6,
            0.6,
            -1e-3,
            1e-3,
            -1.0000001e-7,
            1.0000001e-7,
            -1e-7,
            1e-7,
            -9e-8,
            9e-8,
            0.0,
        ];
        // 0, subnormals, the smallest norms a scan can produce (square roots
        // of subnormal squares), then a dense geometric ladder up to 1e6
        let mut ys = vec![
            0.0,
            5e-324,
            3.5e-323,
            1e-310,
            f64::MIN_POSITIVE,
            2.3e-162,
            1e-160,
            1e-150,
        ];
        let mut y = 1e-140;
        while y < 1e6 {
            ys.push(y);
            y *= 1.003;
        }
        ys.push(1e6);
        for &kappa in &kappas {
            let mut sweep = ys.clone();
            if kappa.abs() > KAPPA_EPS {
                // s·y within 1e-15 of 1 from both sides, and on it: the
                // artanh clamp for κ < 0, nothing special for κ > 0
                let edge = 1.0 / kappa.abs().sqrt();
                for ulps in -8i64..=8 {
                    sweep.push(f64::from_bits((edge.to_bits() as i64 + ulps) as u64));
                }
                sweep.extend([edge * (1.0 - 1e-15), edge * (1.0 + 1e-15), edge * 1e3]);
            }
            for &y in &sweep {
                let bound = atan_kappa_minorant(y, kappa);
                let value = atan_kappa(y, kappa);
                assert!(
                    bound >= 0.0 || bound == f64::NEG_INFINITY,
                    "kappa={kappa} y={y:e}: bound {bound:e} is neither ≥ 0 nor −∞"
                );
                if y == 0.0 || y >= 1e-300 {
                    assert!(
                        value >= bound * (1.0 - 1e-13),
                        "kappa={kappa} y={y:e}: atan_kappa {value:e} < minorant {bound:e}"
                    );
                } else {
                    // s·y underflows: whatever atan_kappa makes of it, it is
                    // short of the bound by less than 1e-300
                    assert!(
                        value >= 0.0 && bound <= y,
                        "kappa={kappa} y={y:e}: atan_kappa {value:e}, minorant {bound:e}"
                    );
                }
            }
        }
        for kappa in kappas {
            assert!(atan_kappa_minorant(f64::NAN, kappa).is_nan(), "{kappa}");
        }
    }

    #[test]
    fn taylor_branch_is_continuous_with_closed_forms() {
        // Values just inside and just outside the Taylor window must agree.
        let x = 0.37;
        for sign in [-1.0, 1.0] {
            let just_out = sign * (KAPPA_EPS * 1.01);
            let just_in = sign * (KAPPA_EPS * 0.99);
            assert_close(tan_kappa(x, just_out), tan_kappa(x, just_in), 1e-9);
            assert_close(atan_kappa(x, just_out), atan_kappa(x, just_in), 1e-9);
        }
    }

    #[test]
    fn tan_equals_sin_over_cos() {
        for &kappa in &[-1.3, -0.4, 0.5, 1.7] {
            for &x in &[-0.6, 0.1, 0.5] {
                assert_close(
                    tan_kappa(x, kappa),
                    sin_kappa(x, kappa) / cos_kappa(x, kappa),
                    1e-10,
                );
            }
        }
    }

    #[test]
    fn derivative_wrt_x_matches_finite_difference() {
        // Points kept inside the hyperbolic domain |x|·√(-κ) < 1.
        let h = 1e-6;
        for &kappa in &[-1.5, -0.3, 0.0, 0.3, 1.5] {
            for &x in &[-0.6, -0.1, 0.25, 0.6] {
                let fd = (tan_kappa(x + h, kappa) - tan_kappa(x - h, kappa)) / (2.0 * h);
                assert_close(tan_kappa_dx(x, kappa), fd, 1e-5);
                let fd = (atan_kappa(x + h, kappa) - atan_kappa(x - h, kappa)) / (2.0 * h);
                assert_close(atan_kappa_dy(x, kappa), fd, 1e-5);
            }
        }
    }

    #[test]
    fn derivative_wrt_kappa_matches_finite_difference() {
        // Points kept inside the hyperbolic domain |x|·√(-κ) < 1.
        let h = 1e-6;
        for &kappa in &[-1.5, -0.3, 0.3, 1.5] {
            for &x in &[-0.6, -0.1, 0.25, 0.6] {
                let fd = (tan_kappa(x, kappa + h) - tan_kappa(x, kappa - h)) / (2.0 * h);
                assert_close(tan_kappa_dkappa(x, kappa), fd, 1e-4);
                let fd = (atan_kappa(x, kappa + h) - atan_kappa(x, kappa - h)) / (2.0 * h);
                assert_close(atan_kappa_dkappa(x, kappa), fd, 1e-4);
            }
        }
    }

    #[test]
    fn derivative_wrt_kappa_near_zero_uses_taylor() {
        let x = 0.4;
        assert_close(tan_kappa_dkappa(x, 0.0), x * x * x / 3.0, 1e-12);
        assert_close(atan_kappa_dkappa(x, 0.0), -x * x * x / 3.0, 1e-12);
    }
}
