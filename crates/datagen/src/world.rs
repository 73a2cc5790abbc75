//! The latent e-commerce world: category tree, entities and relevance.
//!
//! The generator plants exactly the two structures the paper's Fig. 1
//! motivates:
//!
//! * a **hierarchy** over queries — every query is a node of a term-refinement
//!   tree inside its leaf category (broad "canvas shoes" → narrower
//!   "canvas shoes women" → "canvas shoes women summer"), which the
//!   hyperbolic subspace should capture, and
//! * **cyclic co-click clusters** over items and ads — products of one
//!   category are grouped into style clusters whose members are frequently
//!   clicked together and bid on the same keywords, which the spherical
//!   subspace should capture.
//!
//! Ground-truth relevance between a query and a product is a deterministic
//! function of this latent structure; it drives both the behaviour
//! simulation and the online A/B click model, so offline and online
//! experiments are consistent with each other.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use amcad_graph::jaccard;

use crate::config::WorldConfig;

/// A query entity of the latent world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryEntity {
    /// Leaf category.
    pub category: u32,
    /// Term IDs (category head term plus refinements).
    pub terms: Vec<u32>,
    /// Depth in the query-refinement hierarchy (0 = broadest).
    pub level: u8,
    /// Index of the parent query in the refinement tree, if any.
    pub parent: Option<usize>,
    /// Style cluster this query leans towards (None for broad queries).
    pub preferred_cluster: Option<u32>,
}

/// An item (organic product) entity.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemEntity {
    /// Leaf category.
    pub category: u32,
    /// Title term IDs.
    pub terms: Vec<u32>,
    /// Brand ID.
    pub brand: u32,
    /// Shop ID.
    pub shop: u32,
    /// Style cluster within the category.
    pub cluster: u32,
    /// Popularity weight (long-tailed).
    pub popularity: f64,
}

/// An advertisement entity.
#[derive(Debug, Clone, PartialEq)]
pub struct AdEntity {
    /// Leaf category.
    pub category: u32,
    /// Title term IDs.
    pub terms: Vec<u32>,
    /// Brand ID.
    pub brand: u32,
    /// Shop ID.
    pub shop: u32,
    /// Style cluster within the category.
    pub cluster: u32,
    /// Bid keyword IDs (shared within category/cluster → co-bid edges).
    pub bid_words: Vec<u32>,
    /// Popularity weight.
    pub popularity: f64,
    /// Bid price (used by the RPM computation of the A/B simulator).
    pub bid_price: f64,
}

/// A simulated user with long-term category interests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserProfile {
    /// Categories the user is interested in.
    pub interests: Vec<u32>,
}

/// A three-level category tree (root → parents → leaf categories).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CategoryTree {
    /// Parent (mid-level) index per leaf category.
    pub parent_of_leaf: Vec<u32>,
}

impl CategoryTree {
    /// Build a tree over `num_leaves` leaf categories with the given
    /// branching factor at the mid level.
    pub fn new(num_leaves: usize, branching: usize) -> Self {
        let branching = branching.max(1);
        CategoryTree {
            parent_of_leaf: (0..num_leaves).map(|i| (i / branching) as u32).collect(),
        }
    }

    /// Tree distance between two leaf categories: 0 (same), 1 (siblings
    /// under the same mid-level node) or 2 (otherwise).
    pub fn distance(&self, a: u32, b: u32) -> u32 {
        if a == b {
            0
        } else if self.parent_of_leaf[a as usize] == self.parent_of_leaf[b as usize] {
            1
        } else {
            2
        }
    }
}

/// The full latent world.
#[derive(Debug, Clone)]
pub struct World {
    /// The generating configuration.
    pub config: WorldConfig,
    /// Category tree over leaf categories.
    pub categories: CategoryTree,
    /// Query entities.
    pub queries: Vec<QueryEntity>,
    /// Item entities.
    pub items: Vec<ItemEntity>,
    /// Ad entities.
    pub ads: Vec<AdEntity>,
    /// Simulated users.
    pub users: Vec<UserProfile>,
}

/// Either an item or an ad, used by the relevance function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProductRef {
    /// Index into [`World::items`].
    Item(usize),
    /// Index into [`World::ads`].
    Ad(usize),
}

impl World {
    /// Generate a world deterministically from a configuration.
    pub fn generate(config: &WorldConfig) -> World {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let categories = CategoryTree::new(config.num_categories, config.category_branching);

        // --- term vocabulary -------------------------------------------------
        // terms are globally numbered: category c owns terms
        // [c*T, (c+1)*T) with index 0 being the category head term.
        let term_base = |cat: usize| (cat * config.terms_per_category) as u32;

        // --- queries: a refinement tree per category -------------------------
        let mut queries = Vec::new();
        for cat in 0..config.num_categories {
            let head = term_base(cat);
            let n = config.queries_per_category;
            // level-0 (broad) query
            let root_index = queries.len();
            queries.push(QueryEntity {
                category: cat as u32,
                terms: vec![head],
                level: 0,
                parent: None,
                preferred_cluster: None,
            });
            // level-1 queries: head + one refinement term each
            let num_level1 = ((n - 1) / 3).max(1);
            let mut level1_indices = Vec::new();
            for j in 0..num_level1 {
                if queries.len() - root_index >= n {
                    break;
                }
                let refine = head + 1 + (j as u32 % (config.terms_per_category as u32 - 1));
                level1_indices.push(queries.len());
                queries.push(QueryEntity {
                    category: cat as u32,
                    terms: vec![head, refine],
                    level: 1,
                    parent: Some(root_index),
                    preferred_cluster: Some(j as u32 % config.clusters_per_category as u32),
                });
            }
            // level-2 queries: parent terms + one more refinement
            while queries.len() - root_index < n {
                let parent_idx = level1_indices[rng.gen_range(0..level1_indices.len())];
                let parent = queries[parent_idx].clone();
                let extra = head + 1 + rng.gen_range(0..(config.terms_per_category as u32 - 1));
                let mut terms = parent.terms.clone();
                if !terms.contains(&extra) {
                    terms.push(extra);
                }
                queries.push(QueryEntity {
                    category: cat as u32,
                    terms,
                    level: 2,
                    parent: Some(parent_idx),
                    preferred_cluster: parent.preferred_cluster,
                });
            }
        }

        // --- items & ads: style clusters per category ------------------------
        let mut items = Vec::new();
        let mut ads = Vec::new();
        let keyword_base = |cat: usize| (cat * config.keywords_per_category) as u32;
        for cat in 0..config.num_categories {
            let head = term_base(cat);
            for k in 0..config.items_per_category {
                let cluster = (k % config.clusters_per_category) as u32;
                let cluster_term = head + 1 + cluster % (config.terms_per_category as u32 - 1);
                let extra = head + 1 + rng.gen_range(0..(config.terms_per_category as u32 - 1));
                items.push(ItemEntity {
                    category: cat as u32,
                    terms: dedup(vec![head, cluster_term, extra]),
                    brand: rng.gen_range(0..config.num_brands) as u32,
                    shop: rng.gen_range(0..config.num_shops) as u32,
                    cluster,
                    popularity: zipf_weight(&mut rng),
                });
            }
            for k in 0..config.ads_per_category {
                let cluster = (k % config.clusters_per_category) as u32;
                let cluster_term = head + 1 + cluster % (config.terms_per_category as u32 - 1);
                let kw_cat = keyword_base(cat);
                let kw_cluster = kw_cat + 1 + cluster % (config.keywords_per_category as u32 - 1);
                ads.push(AdEntity {
                    category: cat as u32,
                    terms: dedup(vec![head, cluster_term]),
                    brand: rng.gen_range(0..config.num_brands) as u32,
                    shop: rng.gen_range(0..config.num_shops) as u32,
                    cluster,
                    bid_words: vec![kw_cat, kw_cluster],
                    popularity: zipf_weight(&mut rng),
                    bid_price: 0.5 + rng.gen::<f64>() * 2.0,
                });
            }
        }

        // --- users ------------------------------------------------------------
        let users = (0..config.num_users)
            .map(|_| {
                let primary = rng.gen_range(0..config.num_categories) as u32;
                let mut interests = vec![primary];
                if rng.gen_bool(0.4) && config.num_categories > 1 {
                    let mut second = rng.gen_range(0..config.num_categories) as u32;
                    if second == primary {
                        second = (second + 1) % config.num_categories as u32;
                    }
                    interests.push(second);
                }
                UserProfile { interests }
            })
            .collect();

        World {
            config: config.clone(),
            categories,
            queries,
            items,
            ads,
            users,
        }
    }

    /// Ground-truth relevance of a product for a query, in `[0, 1]`.
    ///
    /// Combines category affinity (tree distance), term overlap, style-cluster
    /// preference and a mild popularity prior.
    pub fn relevance(&self, query_idx: usize, product: ProductRef) -> f64 {
        let q = &self.queries[query_idx];
        let (category, terms, cluster, popularity) = match product {
            ProductRef::Item(i) => {
                let it = &self.items[i];
                (it.category, &it.terms, it.cluster, it.popularity)
            }
            ProductRef::Ad(i) => {
                let ad = &self.ads[i];
                (ad.category, &ad.terms, ad.cluster, ad.popularity)
            }
        };
        let cat_score = match self.categories.distance(q.category, category) {
            0 => 1.0,
            1 => 0.15,
            _ => 0.02,
        };
        let term_score = jaccard(&q.terms, terms);
        let cluster_score = match q.preferred_cluster {
            Some(c) if c == cluster => 0.5,
            Some(_) => 0.0,
            None => 0.2, // broad queries spread interest over clusters
        };
        let raw = cat_score * (0.5 + 0.5 * term_score + cluster_score) * (0.5 + 0.5 * popularity);
        raw.clamp(0.0, 1.0)
    }
}

fn dedup(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v.dedup();
    v
}

/// A crude long-tailed popularity weight in `(0, 1]`.
fn zipf_weight<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u: f64 = rng.gen_range(0.05..1.0);
    u * u
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_world() -> World {
        World::generate(&WorldConfig::tiny(42))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = World::generate(&WorldConfig::tiny(42));
        let b = World::generate(&WorldConfig::tiny(42));
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.items, b.items);
        assert_eq!(a.users, b.users);
    }

    #[test]
    fn entity_counts_match_config() {
        let w = tiny_world();
        let cfg = &w.config;
        assert_eq!(
            w.queries.len(),
            cfg.num_categories * cfg.queries_per_category
        );
        assert_eq!(w.items.len(), cfg.num_categories * cfg.items_per_category);
        assert_eq!(w.ads.len(), cfg.num_categories * cfg.ads_per_category);
        assert_eq!(w.users.len(), cfg.num_users);
    }

    #[test]
    fn query_hierarchy_is_well_formed() {
        let w = tiny_world();
        for (i, q) in w.queries.iter().enumerate() {
            match q.level {
                0 => assert!(q.parent.is_none()),
                _ => {
                    let p = q.parent.expect("non-root query needs a parent");
                    assert!(p < i, "parent must precede child");
                    let parent = &w.queries[p];
                    assert_eq!(parent.category, q.category);
                    assert_eq!(parent.level + 1, q.level);
                    // child terms contain all parent terms (term refinement)
                    for t in &parent.terms {
                        assert!(q.terms.contains(t));
                    }
                }
            }
        }
    }

    #[test]
    fn category_tree_distance_is_a_valid_ultrametric() {
        let t = CategoryTree::new(9, 3);
        assert_eq!(t.distance(0, 0), 0);
        assert_eq!(t.distance(0, 1), 1); // same parent (0,1,2)
        assert_eq!(t.distance(0, 5), 2);
        assert_eq!(t.distance(5, 0), 2);
    }

    #[test]
    fn relevance_prefers_same_category_and_cluster() {
        let w = tiny_world();
        // pick a level-1 query with a preferred cluster
        let (qi, q) = w
            .queries
            .iter()
            .enumerate()
            .find(|(_, q)| q.preferred_cluster.is_some())
            .unwrap();
        let same_cat_same_cluster = w
            .items
            .iter()
            .position(|it| it.category == q.category && Some(it.cluster) == q.preferred_cluster)
            .unwrap();
        let other_cat = w
            .items
            .iter()
            .position(|it| w.categories.distance(it.category, q.category) == 2)
            .unwrap();
        let r_good = w.relevance(qi, ProductRef::Item(same_cat_same_cluster));
        let r_bad = w.relevance(qi, ProductRef::Item(other_cat));
        assert!(
            r_good > r_bad * 3.0,
            "same-category/cluster item should be much more relevant: {r_good} vs {r_bad}"
        );
        assert!((0.0..=1.0).contains(&r_good));
        assert!((0.0..=1.0).contains(&r_bad));
    }

    #[test]
    fn ads_share_bid_keywords_within_category() {
        let w = tiny_world();
        let cat0_ads: Vec<&AdEntity> = w.ads.iter().filter(|a| a.category == 0).collect();
        assert!(cat0_ads.len() >= 2);
        let shared = cat0_ads[0]
            .bid_words
            .iter()
            .any(|k| cat0_ads[1].bid_words.contains(k));
        assert!(
            shared,
            "ads of one category must share at least one keyword"
        );
    }

    #[test]
    fn users_have_at_least_one_interest() {
        let w = tiny_world();
        assert!(w.users.iter().all(|u| !u.interests.is_empty()));
        assert!(w.users.iter().all(|u| u
            .interests
            .iter()
            .all(|c| (*c as usize) < w.config.num_categories)));
    }
}
