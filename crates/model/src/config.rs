//! Model configuration and the preset family.
//!
//! One configuration type covers the full AMCAD model *and* every restricted
//! variant the paper evaluates: the Euclidean / hyperbolic / spherical /
//! unified single-space models (Table VI "C" block and the `- mixed` /
//! `- curv` ablations), fixed-curvature product spaces (Table VIII), the
//! M2GNN-like global-weight variant, and the `- fusion` / `- proj` / `- comb`
//! ablations of Table VII.  Experiments therefore differ only in the preset
//! they instantiate, never in separate model code paths.

use amcad_autodiff::OptimizerConfig;
use amcad_manifold::SpaceKind;

/// Specification of one subspace of the mixed-curvature product space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubspaceCfg {
    /// Dimension of the subspace.
    pub dim: usize,
    /// Space-kind restriction.
    pub kind: SpaceKind,
}

impl SubspaceCfg {
    /// A unified (adaptive-curvature) subspace.
    pub fn unified(dim: usize) -> Self {
        SubspaceCfg {
            dim,
            kind: SpaceKind::Unified,
        }
    }

    /// A fixed-kind subspace with its default curvature.
    pub fn fixed(dim: usize, kind: SpaceKind) -> Self {
        SubspaceCfg { dim, kind }
    }
}

/// Loss hyper-parameters (Eq. 15–16 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossConfig {
    /// Triplet margin (paper: 0.5).
    pub margin: f64,
    /// Fermi–Dirac radius `r` (paper: 1).
    pub fermi_radius: f64,
    /// Fermi–Dirac temperature `t` (paper: 5).
    pub fermi_temperature: f64,
    /// Weight of the curved-space regulariser pulling points toward the
    /// origin (paper: 1e-3).
    pub origin_reg_weight: f64,
}

impl Default for LossConfig {
    fn default() -> Self {
        LossConfig {
            margin: 0.5,
            fermi_radius: 1.0,
            fermi_temperature: 5.0,
            origin_reg_weight: 1e-3,
        }
    }
}

/// Full configuration of the AMCAD model family.
#[derive(Debug, Clone, PartialEq)]
pub struct AmcadConfig {
    /// Human-readable name used in experiment reports.
    pub name: String,
    /// The subspaces of the product space (node-level encoder).
    pub subspaces: Vec<SubspaceCfg>,
    /// Dimension of the ID-feature embedding per subspace.
    pub id_dim: usize,
    /// Dimension of the category-feature embedding per subspace.
    pub category_dim: usize,
    /// Dimension of the term-feature embedding per subspace.
    pub term_dim: usize,
    /// Number of GCN context-encoding layers (0 disables context encoding).
    pub gcn_layers: usize,
    /// Neighbours sampled per neighbour type per layer.
    pub gcn_fanout: usize,
    /// Enable the space-fusion stage (Eq. 7–8).  Disabled in the `- fusion`
    /// ablation.
    pub space_fusion: bool,
    /// Enable per-relation edge-space projection (Eq. 9–10).  Disabled in
    /// the `- proj` ablation (all relations share one edge space).
    pub edge_projection: bool,
    /// Enable attention-based subspace-distance combination (Eq. 11–14).
    /// Disabled in the `- comb` ablation (uniform weights).
    pub attention_combination: bool,
    /// Loss hyper-parameters.
    pub loss: LossConfig,
    /// Optimiser hyper-parameters.
    pub optimizer: OptimizerConfig,
    /// Number of negatives per positive pair (paper: 6).
    pub negatives_per_positive: usize,
    /// Fraction of hard negatives (paper uses easy:hard = 2:1 → 1/3).
    pub hard_negative_fraction: f64,
    /// RNG seed for parameter initialisation and sampling.
    pub seed: u64,
}

impl AmcadConfig {
    /// Per-subspace total embedding dimension (ID + category + terms).
    pub fn subspace_dim(&self) -> usize {
        self.id_dim + self.category_dim + self.term_dim
    }

    /// Number of subspaces M.
    pub fn num_subspaces(&self) -> usize {
        self.subspaces.len()
    }

    /// Total embedding dimension across subspaces.
    pub fn total_dim(&self) -> usize {
        self.subspace_dim() * self.num_subspaces()
    }

    /// Baseline configuration shared by all presets; `dims` controls the
    /// per-feature embedding dimensions so tests can stay tiny.
    fn base(name: &str, subspaces: Vec<SubspaceCfg>, feature_dim: usize, seed: u64) -> Self {
        AmcadConfig {
            name: name.to_string(),
            subspaces,
            id_dim: feature_dim,
            category_dim: feature_dim / 2,
            term_dim: feature_dim / 2,
            gcn_layers: 1,
            gcn_fanout: 2,
            space_fusion: true,
            edge_projection: true,
            attention_combination: true,
            loss: LossConfig::default(),
            optimizer: OptimizerConfig::default(),
            negatives_per_positive: 6,
            hard_negative_fraction: 1.0 / 3.0,
            seed,
        }
    }

    /// Full AMCAD: two adaptive unified subspaces (the paper's best
    /// configuration, M = 2).
    pub fn amcad(feature_dim: usize, seed: u64) -> Self {
        Self::base(
            "AMCAD",
            vec![
                SubspaceCfg::unified(2 * feature_dim),
                SubspaceCfg::unified(2 * feature_dim),
            ],
            feature_dim,
            seed,
        )
    }

    /// AMCAD_E: identical architecture restricted to Euclidean space
    /// (Table VI / the `- curv` ablation).
    pub fn euclidean(feature_dim: usize, seed: u64) -> Self {
        Self::base(
            "AMCAD_E",
            vec![SubspaceCfg::fixed(2 * feature_dim, SpaceKind::Euclidean)],
            feature_dim,
            seed,
        )
    }

    /// AMCAD_H: single hyperbolic space (κ = −1).
    pub fn hyperbolic(feature_dim: usize, seed: u64) -> Self {
        Self::base(
            "AMCAD_H",
            vec![SubspaceCfg::fixed(2 * feature_dim, SpaceKind::Hyperbolic)],
            feature_dim,
            seed,
        )
    }

    /// AMCAD_S: single spherical space (κ = +1).
    pub fn spherical(feature_dim: usize, seed: u64) -> Self {
        Self::base(
            "AMCAD_S",
            vec![SubspaceCfg::fixed(2 * feature_dim, SpaceKind::Spherical)],
            feature_dim,
            seed,
        )
    }

    /// AMCAD_U: single unified (adaptive-curvature) space — also the
    /// `- mixed` ablation.
    pub fn unified_single(feature_dim: usize, seed: u64) -> Self {
        Self::base(
            "AMCAD_U",
            vec![SubspaceCfg::unified(2 * feature_dim)],
            feature_dim,
            seed,
        )
    }

    /// A fixed-curvature product space (Table VIII rows, e.g. H×S).  The
    /// subspace distance combination is the unweighted sum and curvatures
    /// are frozen, matching Gu et al.'s product-space model.
    pub fn product_space(kinds: &[SpaceKind], feature_dim: usize, seed: u64) -> Self {
        let name = format!(
            "Product({})",
            kinds
                .iter()
                .map(|k| match k {
                    SpaceKind::Hyperbolic => "H",
                    SpaceKind::Euclidean => "E",
                    SpaceKind::Spherical => "S",
                    SpaceKind::Unified => "U",
                })
                .collect::<Vec<_>>()
                .join("x")
        );
        let mut cfg = Self::base(
            &name,
            kinds
                .iter()
                .map(|k| SubspaceCfg::fixed(feature_dim, *k))
                .collect(),
            feature_dim,
            seed,
        );
        cfg.attention_combination = false;
        cfg.edge_projection = false;
        cfg
    }

    /// The `- fusion` ablation: no space-fusion stage.
    pub fn without_fusion(feature_dim: usize, seed: u64) -> Self {
        let mut cfg = Self::amcad(feature_dim, seed);
        cfg.name = "AMCAD -fusion".into();
        cfg.space_fusion = false;
        cfg
    }

    /// The `- proj` ablation: heterogeneous relations share one edge space.
    pub fn without_projection(feature_dim: usize, seed: u64) -> Self {
        let mut cfg = Self::amcad(feature_dim, seed);
        cfg.name = "AMCAD -proj".into();
        cfg.edge_projection = false;
        cfg
    }

    /// The `- comb` ablation: subspace distances combined with uniform
    /// weights instead of attention.
    pub fn without_combination(feature_dim: usize, seed: u64) -> Self {
        let mut cfg = Self::amcad(feature_dim, seed);
        cfg.name = "AMCAD -comb".into();
        cfg.attention_combination = false;
        cfg
    }

    /// A GIL-like baseline: hyperbolic × Euclidean interaction (documented
    /// substitution — see DESIGN.md §1).
    pub fn gil_like(feature_dim: usize, seed: u64) -> Self {
        let mut cfg = Self::base(
            "GIL (H x E interaction)",
            vec![
                SubspaceCfg::fixed(feature_dim, SpaceKind::Hyperbolic),
                SubspaceCfg::fixed(feature_dim, SpaceKind::Euclidean),
            ],
            feature_dim,
            seed,
        );
        cfg.edge_projection = false;
        cfg
    }

    /// An M2GNN-like baseline: fixed mixed-curvature manifold with global
    /// (non-attentive) subspace weights (documented substitution).
    pub fn m2gnn_like(feature_dim: usize, seed: u64) -> Self {
        let mut cfg = Self::base(
            "M2GNN (fixed mixed, global weights)",
            vec![
                SubspaceCfg::fixed(feature_dim, SpaceKind::Hyperbolic),
                SubspaceCfg::fixed(feature_dim, SpaceKind::Spherical),
            ],
            feature_dim,
            seed,
        );
        cfg.attention_combination = false;
        cfg
    }

    /// HyperML-like baseline: hyperbolic metric learning without context
    /// encoding (documented substitution).
    pub fn hyperml_like(feature_dim: usize, seed: u64) -> Self {
        let mut cfg = Self::hyperbolic(feature_dim, seed);
        cfg.name = "HyperML (hyperbolic, no GCN)".into();
        cfg.gcn_layers = 0;
        cfg
    }

    /// A tiny configuration for fast unit tests: small dimensions, a single
    /// neighbour per type, an aggressive learning rate and a short warm-up
    /// so a handful of steps already shows learning progress.
    pub fn test_tiny(seed: u64) -> Self {
        let mut cfg = Self::amcad(4, seed);
        cfg.name = "AMCAD (test)".into();
        cfg.gcn_fanout = 1;
        cfg.negatives_per_positive = 3;
        cfg.optimizer.learning_rate = 0.1;
        cfg.optimizer.warmup_steps = 5;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimensions_add_up() {
        let cfg = AmcadConfig::amcad(8, 1);
        assert_eq!(cfg.subspace_dim(), 8 + 4 + 4);
        assert_eq!(cfg.num_subspaces(), 2);
        assert_eq!(cfg.total_dim(), 2 * 16);
        // each subspace's dim must match the concatenated feature dims
        for s in &cfg.subspaces {
            assert_eq!(s.dim, cfg.subspace_dim());
        }
    }

    #[test]
    fn presets_toggle_the_right_components() {
        assert!(!AmcadConfig::without_fusion(4, 1).space_fusion);
        assert!(!AmcadConfig::without_projection(4, 1).edge_projection);
        assert!(!AmcadConfig::without_combination(4, 1).attention_combination);
        assert_eq!(AmcadConfig::euclidean(4, 1).num_subspaces(), 1);
        assert_eq!(AmcadConfig::hyperml_like(4, 1).gcn_layers, 0);
    }

    #[test]
    fn product_space_freezes_curvature_and_weights() {
        let cfg = AmcadConfig::product_space(&[SpaceKind::Hyperbolic, SpaceKind::Spherical], 4, 1);
        assert!(!cfg.attention_combination);
        assert!(!cfg.edge_projection);
        assert_eq!(cfg.name, "Product(HxS)");
        assert!(cfg.subspaces.iter().all(|s| !s.kind.trainable()));
    }

    #[test]
    fn subspace_cfg_kappa_defaults() {
        assert_eq!(
            SubspaceCfg::fixed(4, SpaceKind::Hyperbolic)
                .kind
                .default_curvature(),
            -1.0
        );
        assert!(SubspaceCfg::unified(4).kind.trainable());
        assert!(!SubspaceCfg::fixed(4, SpaceKind::Spherical).kind.trainable());
    }

    /// Every named preset is a different model, not another's config under
    /// a new name: a renamed duplicate trains one model twice and prints
    /// two identical table rows.
    #[test]
    fn named_presets_are_pairwise_distinct_ignoring_their_names() {
        let presets = [
            AmcadConfig::euclidean(4, 1),
            AmcadConfig::hyperbolic(4, 1),
            AmcadConfig::spherical(4, 1),
            AmcadConfig::unified_single(4, 1),
            AmcadConfig::hyperml_like(4, 1),
            AmcadConfig::gil_like(4, 1),
            AmcadConfig::m2gnn_like(4, 1),
            AmcadConfig::amcad(4, 1),
            AmcadConfig::without_fusion(4, 1),
            AmcadConfig::without_projection(4, 1),
            AmcadConfig::without_combination(4, 1),
        ];
        let unnamed = |cfg: &AmcadConfig| AmcadConfig {
            name: String::new(),
            ..cfg.clone()
        };
        for (i, a) in presets.iter().enumerate() {
            for b in &presets[i + 1..] {
                assert_ne!(unnamed(a), unnamed(b), "{} and {}", a.name, b.name);
            }
        }
    }

    #[test]
    fn loss_defaults_match_the_paper() {
        let l = LossConfig::default();
        assert_eq!(l.margin, 0.5);
        assert_eq!(l.fermi_radius, 1.0);
        assert_eq!(l.fermi_temperature, 5.0);
        assert_eq!(l.origin_reg_weight, 1e-3);
    }
}
