//! The kinds of constant-curvature subspace.
//!
//! The paper distinguishes three *fixed* space kinds (Table I) plus the
//! *unified* space whose curvature is a trainable parameter and can converge
//! to any of the three.  [`SpaceKind`] captures which restriction a model
//! configuration imposes: its default curvature, whether training may
//! change it, and the range a trained value is clamped back into.

/// Which family of constant-curvature space a subspace is restricted to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpaceKind {
    /// Negative curvature (Poincaré-ball-like); suited to hierarchical data.
    Hyperbolic,
    /// Zero curvature; the classical flat embedding space.
    Euclidean,
    /// Positive curvature (stereographic sphere); suited to cyclic data.
    Spherical,
    /// Unified κ-stereographic space: curvature is learned and may take any
    /// sign — the paper's "adaptive" choice.
    Unified,
}

impl SpaceKind {
    /// Default initial curvature used when a subspace of this kind is
    /// created without an explicit value.
    pub fn default_curvature(self) -> f64 {
        match self {
            SpaceKind::Hyperbolic => -1.0,
            SpaceKind::Euclidean => 0.0,
            SpaceKind::Spherical => 1.0,
            // Small negative initialisation: empirically the paper's graphs
            // are hierarchy-dominated, and a near-flat start keeps early
            // training stable.
            SpaceKind::Unified => -0.1,
        }
    }

    /// Whether the curvature of this kind of space may be updated by
    /// training.
    pub fn trainable(self) -> bool {
        matches!(self, SpaceKind::Unified)
    }

    /// Clamp a (possibly trained) curvature back into the admissible range
    /// of this kind.  Unified spaces are returned unchanged.
    pub fn clamp(self, kappa: f64) -> f64 {
        match self {
            SpaceKind::Hyperbolic => kappa.min(-1e-4),
            SpaceKind::Euclidean => 0.0,
            SpaceKind::Spherical => kappa.max(1e-4),
            SpaceKind::Unified => kappa,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_curvatures_match_kinds() {
        assert!(SpaceKind::Hyperbolic.default_curvature() < 0.0);
        assert_eq!(SpaceKind::Euclidean.default_curvature(), 0.0);
        assert!(SpaceKind::Spherical.default_curvature() > 0.0);
        assert!(SpaceKind::Unified.trainable());
        assert!(!SpaceKind::Hyperbolic.trainable());
    }

    #[test]
    fn clamp_respects_kind() {
        assert!(SpaceKind::Hyperbolic.clamp(0.7) < 0.0);
        assert_eq!(SpaceKind::Euclidean.clamp(0.7), 0.0);
        assert!(SpaceKind::Spherical.clamp(-0.7) > 0.0);
        assert_eq!(SpaceKind::Unified.clamp(0.7), 0.7);
    }
}
