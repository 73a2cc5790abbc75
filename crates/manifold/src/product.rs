//! Mixed-curvature product manifolds.
//!
//! The paper's node representations live in a Cartesian product
//! `U^d_{κ1} × … × U^d_{κM}` of unified subspaces (Eq. 2).  A point of the
//! product is stored as one contiguous `f64` slice of length `Σ dims`,
//! split into per-subspace segments.  Distances can be the plain sum of
//! per-subspace geodesics (Eq. 3, the classical product-space definition) or
//! the attention-weighted combination the edge-level scorer uses (Eq. 14).

use crate::ops;

/// Specification of one subspace inside a product manifold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubspaceSpec {
    /// Dimension of the subspace.
    pub dim: usize,
    /// Curvature of the subspace.
    pub kappa: f64,
}

impl SubspaceSpec {
    /// Convenience constructor.
    pub fn new(dim: usize, kappa: f64) -> Self {
        SubspaceSpec { dim, kappa }
    }
}

/// A product of constant-curvature subspaces.
#[derive(Debug, Clone, PartialEq)]
pub struct ProductManifold {
    subspaces: Vec<SubspaceSpec>,
    offsets: Vec<usize>,
    total_dim: usize,
}

impl ProductManifold {
    /// Build a product manifold from subspace specifications.
    pub fn new(subspaces: Vec<SubspaceSpec>) -> Self {
        assert!(!subspaces.is_empty(), "product manifold needs ≥ 1 subspace");
        let mut offsets = Vec::with_capacity(subspaces.len());
        let mut total = 0;
        for s in &subspaces {
            assert!(s.dim > 0, "subspace dimension must be positive");
            offsets.push(total);
            total += s.dim;
        }
        ProductManifold {
            subspaces,
            offsets,
            total_dim: total,
        }
    }

    /// Number of subspaces `M`.
    #[inline]
    pub fn num_subspaces(&self) -> usize {
        self.subspaces.len()
    }

    /// Total ambient dimension (sum of subspace dimensions).
    #[inline]
    pub fn total_dim(&self) -> usize {
        self.total_dim
    }

    /// Subspace specifications.
    #[inline]
    pub fn subspaces(&self) -> &[SubspaceSpec] {
        &self.subspaces
    }

    /// The coordinate range of subspace `m` within a concatenated point.
    #[inline]
    pub fn range(&self, m: usize) -> std::ops::Range<usize> {
        let start = self.offsets[m];
        start..start + self.subspaces[m].dim
    }

    /// Borrow the coordinates of subspace `m` from a concatenated point.
    #[inline]
    pub fn component<'a>(&self, point: &'a [f64], m: usize) -> &'a [f64] {
        &point[self.range(m)]
    }

    /// Per-subspace geodesic distances between two concatenated points.
    pub fn component_distances(&self, x: &[f64], y: &[f64]) -> Vec<f64> {
        debug_assert_eq!(x.len(), self.total_dim);
        debug_assert_eq!(y.len(), self.total_dim);
        self.subspaces
            .iter()
            .enumerate()
            .map(|(m, s)| ops::distance(self.component(x, m), self.component(y, m), s.kappa))
            .collect()
    }

    /// Product-space distance: the unweighted sum of per-subspace geodesics
    /// (Eq. 3 — what Gu et al.'s product space and the `- comb` ablation
    /// use).
    pub fn distance(&self, x: &[f64], y: &[f64]) -> f64 {
        self.component_distances(x, y).iter().sum()
    }

    /// Attention-weighted distance (Eq. 14): `Σ_m w_m · d_m(x, y)`.
    pub fn weighted_distance(&self, x: &[f64], y: &[f64], weights: &[f64]) -> f64 {
        debug_assert_eq!(weights.len(), self.num_subspaces());
        self.component_distances(x, y)
            .iter()
            .zip(weights)
            .map(|(d, w)| d * w)
            .sum()
    }

    /// Map a concatenated tangent vector through the per-subspace exponential
    /// maps at the origin.
    pub fn exp0(&self, v: &[f64]) -> Vec<f64> {
        debug_assert_eq!(v.len(), self.total_dim);
        let mut out = Vec::with_capacity(self.total_dim);
        for (m, s) in self.subspaces.iter().enumerate() {
            out.extend(ops::exp_map_origin(self.component(v, m), s.kappa));
        }
        out
    }

    /// Map a concatenated point through the per-subspace logarithmic maps at
    /// the origin.
    pub fn log0(&self, y: &[f64]) -> Vec<f64> {
        debug_assert_eq!(y.len(), self.total_dim);
        let mut out = Vec::with_capacity(self.total_dim);
        for (m, s) in self.subspaces.iter().enumerate() {
            out.extend(ops::log_map_origin(self.component(y, m), s.kappa));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_manifold() -> ProductManifold {
        ProductManifold::new(vec![SubspaceSpec::new(2, -1.0), SubspaceSpec::new(3, 1.0)])
    }

    #[test]
    fn layout_offsets_and_ranges() {
        let m = sample_manifold();
        assert_eq!(m.num_subspaces(), 2);
        assert_eq!(m.total_dim(), 5);
        assert_eq!(m.range(0), 0..2);
        assert_eq!(m.range(1), 2..5);
    }

    #[test]
    fn component_views_the_right_slice() {
        let m = sample_manifold();
        let p = [0.1, 0.2, 0.3, 0.4, 0.5];
        assert_eq!(m.component(&p, 0), &[0.1, 0.2]);
        assert_eq!(m.component(&p, 1), &[0.3, 0.4, 0.5]);
    }

    #[test]
    fn product_distance_is_sum_of_components() {
        let m = sample_manifold();
        let x = m.exp0(&[0.1, -0.2, 0.05, 0.1, -0.1]);
        let y = m.exp0(&[-0.05, 0.1, 0.2, -0.1, 0.02]);
        let comps = m.component_distances(&x, &y);
        assert_eq!(comps.len(), 2);
        assert!((m.distance(&x, &y) - comps.iter().sum::<f64>()).abs() < 1e-12);
    }

    #[test]
    fn weighted_distance_with_uniform_weights_matches_mean_scaling() {
        let m = sample_manifold();
        let x = m.exp0(&[0.1, -0.2, 0.05, 0.1, -0.1]);
        let y = m.exp0(&[-0.05, 0.1, 0.2, -0.1, 0.02]);
        let w = [0.5, 0.5];
        let wd = m.weighted_distance(&x, &y, &w);
        assert!((wd - 0.5 * m.distance(&x, &y)).abs() < 1e-12);
    }

    #[test]
    fn exp0_log0_roundtrip_per_component() {
        let m = sample_manifold();
        let v = [0.11, -0.07, 0.2, 0.05, -0.12];
        let p = m.exp0(&v);
        let back = m.log0(&p);
        for (a, b) in v.iter().zip(&back) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    #[should_panic]
    fn empty_product_panics() {
        ProductManifold::new(vec![]);
    }
}
