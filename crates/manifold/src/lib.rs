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
pub use scalar::{atan_kappa, atan_kappa_minorant, cos_kappa, sin_kappa, tan_kappa, KAPPA_EPS};
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
}
