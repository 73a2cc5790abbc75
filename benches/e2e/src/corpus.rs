//! The fixed corpus: queries, items and ads in five mixed-curvature edge
//! spaces, and the ad churn (deltas) applied to it — all a pure function
//! of the seed.

use std::sync::Arc;

use amcad_manifold::{ProductManifold, SubspaceSpec};
use amcad_mnn::MixedPointSet;
use amcad_retrieval::{IndexBuildInputs, IndexDelta};

use crate::rng::Rng;

/// Entities of one category sit around one tangent-space centre per edge
/// space, so nearest neighbours are mostly same-category and a request's
/// pre-click items (drawn from the query's category) share keys with it.
pub const CATEGORIES: u32 = 64;
pub const ITEM_BASE: u32 = 1_000_000;
pub const AD_BASE: u32 = 2_000_000;
/// Ads on-boarded by deltas get fresh ids from here.
pub const NEW_AD_BASE: u32 = 3_000_000;

/// Curvatures of the three 8-dim components of every edge space: one
/// negative, one zero, one positive, so all three `distance_gram`
/// branches run on every distance.
pub const KAPPAS: [f64; 3] = [-0.8, 0.0, 0.6];
pub const COMPONENT_DIM: usize = 8;

/// Corpus and request-pool sizes. Multiples of [`CATEGORIES`] keep every
/// category equally populated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub name: &'static str,
    pub queries: u32,
    pub items: u32,
    pub ads: u32,
    pub pool: usize,
}

impl Scale {
    /// The measured corpus.
    pub const C6K: Scale = Scale {
        name: "c6k",
        queries: 512,
        items: 1536,
        ads: 4096,
        pool: 50_000,
    };
    /// `--quick`: same code paths, a tenth of the entities.
    pub const QUICK: Scale = Scale {
        name: "c600",
        queries: 64,
        items: 128,
        ads: 384,
        pool: 5_000,
    };

    /// Key x candidate distance evaluations of one full exact build.
    pub fn build_pairs(&self) -> u64 {
        let (q, i, a) = (self.queries as u64, self.items as u64, self.ads as u64);
        q * q + 2 * q * i + i * i + q * a + i * a
    }
}

pub fn manifold() -> ProductManifold {
    ProductManifold::new(
        KAPPAS
            .iter()
            .map(|&kappa| SubspaceSpec::new(COMPONENT_DIM, kappa))
            .collect(),
    )
}

/// Per-category tangent-space centres of one edge space.
struct Centres(Vec<Vec<f64>>);

impl Centres {
    fn new(rng: &mut Rng, dim: usize) -> Self {
        Centres(
            (0..CATEGORIES)
                .map(|_| (0..dim).map(|_| rng.symmetric(0.4)).collect())
                .collect(),
        )
    }

    /// `exp0(category centre + U(±0.1))` for each id, with attention
    /// weights drawn from the simplex.
    fn points(&self, rng: &mut Rng, manifold: &ProductManifold, ids: &[u32]) -> MixedPointSet {
        let mut set = MixedPointSet::new(manifold.clone());
        for &id in ids {
            let centre = &self.0[(id % CATEGORIES) as usize];
            let tangent: Vec<f64> = centre.iter().map(|c| c + rng.symmetric(0.1)).collect();
            let mut weight: Vec<f64> = KAPPAS.iter().map(|_| 0.05 + rng.unit()).collect();
            let total: f64 = weight.iter().sum();
            weight.iter_mut().for_each(|w| *w /= total);
            set.push(id, &manifold.exp0(&tangent), &weight);
        }
        set
    }
}

/// The generated corpus plus the state its deltas are drawn from.
pub struct Corpus {
    pub inputs: IndexBuildInputs,
    manifold: ProductManifold,
    centres_qa: Centres,
    centres_ia: Centres,
    live_ads: Vec<u32>,
    next_ad: u32,
    delta_rng: Rng,
}

impl Corpus {
    pub fn generate(seed: u64, scale: Scale) -> Corpus {
        let manifold = manifold();
        let dim = manifold.total_dim();
        let mut rng = Rng::new(seed, 1);
        let queries: Vec<u32> = (0..scale.queries).collect();
        let items: Vec<u32> = (ITEM_BASE..ITEM_BASE + scale.items).collect();
        let ads: Vec<u32> = (AD_BASE..AD_BASE + scale.ads).collect();

        let qq = Centres::new(&mut rng, dim);
        let qi = Centres::new(&mut rng, dim);
        let qa = Centres::new(&mut rng, dim);
        let ii = Centres::new(&mut rng, dim);
        let ia = Centres::new(&mut rng, dim);
        let inputs = IndexBuildInputs {
            queries_qq: Arc::new(qq.points(&mut rng, &manifold, &queries)),
            queries_qi: Arc::new(qi.points(&mut rng, &manifold, &queries)),
            items_qi: Arc::new(qi.points(&mut rng, &manifold, &items)),
            queries_qa: Arc::new(qa.points(&mut rng, &manifold, &queries)),
            ads_qa: qa.points(&mut rng, &manifold, &ads),
            items_ii: Arc::new(ii.points(&mut rng, &manifold, &items)),
            items_ia: Arc::new(ia.points(&mut rng, &manifold, &items)),
            ads_ia: ia.points(&mut rng, &manifold, &ads),
        };
        Corpus {
            inputs,
            manifold,
            centres_qa: qa,
            centres_ia: ia,
            live_ads: ads,
            next_ad: NEW_AD_BASE,
            delta_rng: Rng::new(seed, 2),
        }
    }

    /// The next churn step: retire `share` of the live ads (chosen at
    /// random) and on-board as many new ones. Applying the returned
    /// deltas in order to `inputs` (`IndexDelta::apply_to`) gives the
    /// corpus the deployment must serve afterwards.
    pub fn next_delta(&mut self, share: f64) -> IndexDelta {
        let count = ((self.live_ads.len() as f64 * share).round() as usize).max(1);
        let mut retired = Vec::with_capacity(count);
        for _ in 0..count {
            let at = self.delta_rng.below(self.live_ads.len());
            retired.push(self.live_ads.swap_remove(at));
        }
        let added: Vec<u32> = (self.next_ad..self.next_ad + count as u32).collect();
        self.next_ad += count as u32;
        self.live_ads.extend_from_slice(&added);
        IndexDelta {
            added_ads_qa: self
                .centres_qa
                .points(&mut self.delta_rng, &self.manifold, &added),
            added_ads_ia: self
                .centres_ia
                .points(&mut self.delta_rng, &self.manifold, &added),
            retired_ads: retired,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every id, coordinate and weight of a point set, bit for bit.
    fn fingerprint(set: &MixedPointSet) -> Vec<u64> {
        let mut bits = Vec::new();
        for i in 0..set.len() {
            bits.push(set.id(i) as u64);
            bits.extend(set.point(i).iter().map(|x| x.to_bits()));
            bits.extend(set.weight(i).iter().map(|x| x.to_bits()));
        }
        bits
    }

    fn corpus_bits(c: &Corpus) -> Vec<Vec<u64>> {
        let i = &c.inputs;
        [
            &*i.queries_qq,
            &*i.queries_qi,
            &*i.items_qi,
            &*i.queries_qa,
            &i.ads_qa,
            &*i.items_ii,
            &*i.items_ia,
            &i.ads_ia,
        ]
        .iter()
        .map(|s| fingerprint(s))
        .collect()
    }

    fn delta_bits(d: &IndexDelta) -> (Vec<u64>, Vec<u64>, Vec<u32>) {
        (
            fingerprint(&d.added_ads_qa),
            fingerprint(&d.added_ads_ia),
            d.retired_ads.clone(),
        )
    }

    #[test]
    fn same_seed_gives_byte_identical_points_and_deltas() {
        let (mut a, mut b) = (
            Corpus::generate(42, Scale::QUICK),
            Corpus::generate(42, Scale::QUICK),
        );
        assert_eq!(corpus_bits(&a), corpus_bits(&b));
        for _ in 0..3 {
            assert_eq!(
                delta_bits(&a.next_delta(0.02)),
                delta_bits(&b.next_delta(0.02))
            );
        }
        let mut c = Corpus::generate(43, Scale::QUICK);
        assert_ne!(corpus_bits(&a), corpus_bits(&c));
        assert_ne!(
            delta_bits(&a.next_delta(0.02)).2,
            delta_bits(&c.next_delta(0.02)).2
        );
    }

    #[test]
    fn corpus_has_the_stated_shape_and_valid_inputs() {
        let c = Corpus::generate(1, Scale::QUICK);
        assert_eq!(c.inputs.queries_qa.len(), 64);
        assert_eq!(c.inputs.items_ia.len(), 128);
        assert_eq!(c.inputs.ads_qa.len(), 384);
        assert_eq!(c.inputs.ads_ia.ids(), c.inputs.ads_qa.ids());
        assert!(c.inputs.validate().is_ok());
        assert_eq!(c.inputs.ads_qa.manifold().total_dim(), 24);
        // weights lie on the simplex
        let w = c.inputs.ads_qa.weight(5);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12 && w.iter().all(|&x| x > 0.0));
        assert_eq!(
            Scale::QUICK.build_pairs(),
            64 * 64 + 2 * 64 * 128 + 128 * 128 + 192 * 384
        );
    }

    #[test]
    fn deltas_retire_live_ads_once_and_keep_the_corpus_size() {
        let mut c = Corpus::generate(9, Scale::QUICK);
        let mut inputs = c.inputs.clone();
        let mut seen_retired = std::collections::HashSet::new();
        for _ in 0..5 {
            let delta = c.next_delta(0.02);
            assert_eq!(delta.retired_ads.len(), 8);
            assert_eq!(delta.added_ads_qa.len(), 8);
            assert_eq!(delta.added_ads_qa.ids(), delta.added_ads_ia.ids());
            for ad in &delta.retired_ads {
                assert!(inputs.ads_qa.contains_id(*ad), "retired ad must be live");
                assert!(seen_retired.insert(*ad), "an ad is retired at most once");
            }
            delta.apply_to(&mut inputs);
            assert_eq!(inputs.ads_qa.len(), 384);
            assert!(inputs.validate().is_ok());
        }
    }
}
