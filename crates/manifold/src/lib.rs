//! # amcad-manifold
//!
//! Constant-curvature geometry for the AMCAD reproduction (ICDE 2022).
//!
//! The paper represents graph entities in a *product of unified
//! κ-stereographic spaces* `U^d_κ`: a single smooth model that degenerates to
//! the Poincaré ball for `κ < 0`, to (rescaled) Euclidean space for `κ = 0`
//! and to the stereographic sphere for `κ > 0` (Table I / Table II of the
//! paper).  This crate provides:
//!
//! * the curvature-dependent trigonometry [`scalar::tan_kappa`] /
//!   [`scalar::atan_kappa`] with smooth behaviour across `κ = 0`,
//! * gyrovector-space point operations on slices — Möbius addition,
//!   exponential/logarithmic maps, geodesic distance, κ-matrix
//!   multiplication and κ-activations ([`ops`]),
//! * the [`SpaceKind`] restriction of a single constant-curvature
//!   subspace and [`ProductManifold`] for the mixed-curvature product space
//!   used by the node encoder and the MNN retrieval index,
//! * plain-`f64` reference implementations that the autodiff crate is
//!   property-tested against.
//!
//! Everything here is dependency-free scalar/slice math so it can be reused
//! by the offline trainer, the nearest-neighbour index builder and the
//! online retrieval simulator alike.

pub mod ops;
pub mod product;
pub mod scalar;
pub mod space;

pub use ops::{
    diff_norm_gram, distance, distance_gram, exp_map, exp_map_origin, kappa_activation,
    kappa_matmul, lambda_x, log_map, log_map_origin, mobius_add, mobius_neg, project_to_ball,
};
pub use product::{ProductManifold, SubspaceSpec};
pub use scalar::{
    atan_kappa, atan_kappa_minorant, atan_kappa_minorant_flat, atan_kappa_minorant_hyperbolic,
    atan_kappa_minorant_spherical, cos_kappa, sin_kappa, tan_kappa, KAPPA_EPS,
};
pub use space::SpaceKind;

/// Numerical guard used when projecting points back inside the Poincaré ball
/// (the paper's "out of boundary" stability issue, Section V-B).
pub const BOUNDARY_EPS: f64 = 1e-5;

/// Minimum norm under which direction vectors are treated as zero.
pub const MIN_NORM: f64 = 1e-15;

/// Euclidean dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Four dot products of `a` against `b[0..4]`, each bit-identical to
/// [`dot`]: every lane starts at `-0.0` (where `f64`'s `Sum` starts) and
/// adds `a[k] * b[l][k]` for `k` ascending, with no reassociation and no
/// fused multiply-add. The four lanes are independent chains, so the loop
/// runs four multiply-adds per step where `dot` runs one after another —
/// the instruction-level half of the exact scan's kernel.
#[inline]
pub fn dot4(a: &[f64], b: [&[f64]; 4]) -> [f64; 4] {
    let n = a.len();
    let b = b.map(|row| &row[..n]);
    let mut acc = [-0.0f64; 4];
    for k in 0..n {
        let x = a[k];
        for (lane, row) in acc.iter_mut().zip(&b) {
            *lane += x * row[k];
        }
    }
    acc
}

/// Euclidean (L2) norm of a slice.
#[inline]
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Squared Euclidean norm of a slice.
#[inline]
pub fn norm_sq(a: &[f64]) -> f64 {
    dot(a, a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm_agree() {
        let a = [3.0, 4.0];
        assert!((norm(&a) - 5.0).abs() < 1e-12);
        assert!((norm_sq(&a) - 25.0).abs() < 1e-12);
        assert!((dot(&a, &a) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn dot_of_orthogonal_vectors_is_zero() {
        let a = [1.0, 0.0, 0.0];
        let b = [0.0, 1.0, 0.0];
        assert_eq!(dot(&a, &b), 0.0);
    }

    #[test]
    fn dot4_lanes_equal_dot_bit_for_bit() {
        // signed zeros (an all-(-0.0)-product sum keeps its sign only if
        // the lane starts where `Sum` does), NaN, infinities, subnormals,
        // and magnitudes whose sum depends on the addition order
        let values = [
            -0.0,
            0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            5e-324,
            -2.5e-310,
            1e16,
            -1e16,
            1.0,
            0.1,
            -3.7,
        ];
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut pick = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            values[(state % values.len() as u64) as usize]
        };
        for len in 0..=9 {
            for _trial in 0..64 {
                let a: Vec<f64> = (0..len).map(|_| pick()).collect();
                let rows: Vec<Vec<f64>> =
                    (0..4).map(|_| (0..len).map(|_| pick()).collect()).collect();
                let got = dot4(&a, [&rows[0], &rows[1], &rows[2], &rows[3]]);
                for (lane, row) in rows.iter().enumerate() {
                    let want = dot(&a, row);
                    // Rust leaves a NaN result's sign and payload
                    // unspecified (it follows operand order in registers),
                    // so a NaN lane must be NaN; every other lane, the bits
                    if want.is_nan() {
                        assert!(
                            got[lane].is_nan(),
                            "len {len}, lane {lane}: {a:?} · {row:?}"
                        );
                    } else {
                        assert_eq!(
                            got[lane].to_bits(),
                            want.to_bits(),
                            "len {len}, lane {lane}: {a:?} · {row:?}"
                        );
                    }
                }
            }
        }
        // the all-negative-zero case explicitly: both must stay -0.0
        let z = [-0.0; 3];
        let one = [1.0; 3];
        assert_eq!(dot4(&z, [&one; 4])[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(dot(&z, &one).to_bits(), (-0.0f64).to_bits());
    }
}
