//! Configuration and scale presets for the synthetic e-commerce world.
//!
//! The paper evaluates on Taobao behaviour logs whose size ranges from
//! "1 hour" (2.7M nodes) to "7 days" (300M nodes, Table IX).  Those logs are
//! proprietary and far beyond laptop scale, so the generator exposes the
//! same *relative* scale ladder at a few thousand nodes: each preset keeps
//! the paper's rough proportions between queries, items, ads and the edge /
//! node ratio, so scaling experiments (Table IX) retain their shape.

/// Parameters of the synthetic world and behaviour simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldConfig {
    /// RNG seed; every derived artefact is deterministic given the seed.
    pub seed: u64,
    /// Number of leaf categories in the category tree.
    pub num_categories: usize,
    /// Branching factor of the (3-level) category tree.
    pub category_branching: usize,
    /// Queries generated per leaf category.
    pub queries_per_category: usize,
    /// Items generated per leaf category.
    pub items_per_category: usize,
    /// Ads generated per leaf category.
    pub ads_per_category: usize,
    /// Number of simulated users.
    pub num_users: usize,
    /// Number of search sessions to simulate for the *training* window.
    pub train_sessions: usize,
    /// Number of search sessions to simulate for the *evaluation* (next-day)
    /// window.
    pub eval_sessions: usize,
    /// Maximum clicks per session.
    pub max_clicks_per_session: usize,
    /// Vocabulary terms per category (query/item/ad titles draw from these).
    pub terms_per_category: usize,
    /// Bid keywords per category.
    pub keywords_per_category: usize,
    /// Number of brands across the world.
    pub num_brands: usize,
    /// Number of shops across the world.
    pub num_shops: usize,
    /// Jaccard threshold for semantic (query–query) edges.
    pub semantic_threshold: f64,
    /// Number of co-click "style clusters" per category: items/ads inside a
    /// cluster are frequently co-clicked, planting the cyclic structure the
    /// spherical subspace should capture.
    pub clusters_per_category: usize,
}

impl WorldConfig {
    /// A minimal world for unit tests (hundreds of nodes, very fast).
    pub fn tiny(seed: u64) -> Self {
        WorldConfig {
            seed,
            num_categories: 4,
            category_branching: 2,
            queries_per_category: 12,
            items_per_category: 16,
            ads_per_category: 6,
            num_users: 40,
            train_sessions: 800,
            eval_sessions: 300,
            max_clicks_per_session: 4,
            terms_per_category: 14,
            keywords_per_category: 6,
            num_brands: 12,
            num_shops: 16,
            semantic_threshold: 0.34,
            clusters_per_category: 3,
        }
    }

    /// The default offline-evaluation world (≈ a few thousand nodes) —
    /// plays the role of the paper's "1 day" log window.
    pub fn one_day(seed: u64) -> Self {
        WorldConfig {
            seed,
            num_categories: 12,
            category_branching: 3,
            queries_per_category: 40,
            items_per_category: 60,
            ads_per_category: 12,
            num_users: 400,
            train_sessions: 12_000,
            eval_sessions: 4_000,
            max_clicks_per_session: 5,
            terms_per_category: 24,
            keywords_per_category: 10,
            num_brands: 60,
            num_shops: 90,
            semantic_threshold: 0.34,
            clusters_per_category: 4,
        }
    }

    /// Scale a configuration's node and session counts by `factor` (used by
    /// the Table IX scalability sweep: 1 hour / 1 day / 3 days / 7 days).
    pub fn scaled(&self, factor: f64) -> Self {
        let scale = |x: usize| ((x as f64 * factor).round() as usize).max(1);
        WorldConfig {
            seed: self.seed,
            num_categories: scale(self.num_categories),
            queries_per_category: self.queries_per_category,
            items_per_category: self.items_per_category,
            ads_per_category: self.ads_per_category,
            num_users: scale(self.num_users),
            train_sessions: scale(self.train_sessions),
            eval_sessions: scale(self.eval_sessions),
            ..self.clone()
        }
    }

    /// Scale ladder mirroring Table IX: (label, config) pairs of increasing
    /// size.
    pub fn scale_ladder(seed: u64) -> Vec<(&'static str, WorldConfig)> {
        let base = WorldConfig::one_day(seed);
        vec![
            ("1 hour", base.scaled(1.0 / 24.0)),
            ("1 day", base.clone()),
            ("3 days", base.scaled(3.0)),
            ("7 days", base.scaled(7.0)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_sane_proportions() {
        for cfg in [WorldConfig::tiny(1), WorldConfig::one_day(1)] {
            assert!(cfg.items_per_category >= cfg.ads_per_category);
            assert!(cfg.train_sessions > cfg.eval_sessions);
            assert!(cfg.semantic_threshold > 0.0 && cfg.semantic_threshold < 1.0);
        }
    }

    #[test]
    fn scaling_changes_session_and_category_counts() {
        let base = WorldConfig::one_day(7);
        let bigger = base.scaled(3.0);
        assert_eq!(bigger.num_categories, base.num_categories * 3);
        assert_eq!(bigger.train_sessions, base.train_sessions * 3);
        // per-category density is unchanged
        assert_eq!(bigger.items_per_category, base.items_per_category);
    }

    #[test]
    fn scale_ladder_is_monotone_in_expected_nodes() {
        let ladder = WorldConfig::scale_ladder(3);
        assert_eq!(ladder.len(), 4);
        let entities = |c: &WorldConfig| {
            c.num_categories * (c.queries_per_category + c.items_per_category + c.ads_per_category)
        };
        let sizes: Vec<usize> = ladder.iter().map(|(_, c)| entities(c)).collect();
        for w in sizes.windows(2) {
            assert!(w[0] <= w[1], "{sizes:?}");
        }
    }
}
