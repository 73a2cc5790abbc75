//! The request mix `mix90`: a pre-generated pool the load phases cycle.
//!
//! 90 % of requests pose a *seen* query, drawn Zipf(1.0) over a seeded
//! permutation of the query ids, with 0–4 pre-click items from the
//! query's category — the mix shares keys between requests, which is what
//! batch scan-dedup feeds on. 10 % pose an *unseen* query id with 1–4
//! pre-click items: the paper's second-layer coverage case, answerable
//! only through I2Q / I2I / I2A. Every request is coverable, so a
//! `NoCoverage` answer is a failure.

use amcad_retrieval::Request;

use crate::corpus::{Scale, CATEGORIES, ITEM_BASE};
use crate::rng::{Rng, Zipf};

/// Unseen query ids start here (no corpus query id reaches it).
pub const UNSEEN_QUERY_BASE: u32 = 900_000;
const SEEN_SHARE: f64 = 0.9;

pub fn is_unseen(request: &Request) -> bool {
    request.query >= UNSEEN_QUERY_BASE
}

fn items_of_category(rng: &mut Rng, scale: Scale, category: u32, count: usize) -> Vec<u32> {
    let per_category = scale.items / CATEGORIES;
    (0..count)
        .map(|_| ITEM_BASE + category + CATEGORIES * rng.below(per_category as usize) as u32)
        .collect()
}

pub fn pool(seed: u64, scale: Scale) -> Vec<Request> {
    let mut rng = Rng::new(seed, 3);
    let mut by_rank: Vec<u32> = (0..scale.queries).collect();
    rng.shuffle(&mut by_rank);
    let zipf = Zipf::new(by_rank.len(), 1.0);
    (0..scale.pool)
        .map(|_| {
            if rng.unit() < SEEN_SHARE {
                let query = by_rank[zipf.sample(&mut rng)];
                let count = rng.below(5);
                Request {
                    query,
                    preclick_items: items_of_category(&mut rng, scale, query % CATEGORIES, count),
                }
            } else {
                let query = UNSEEN_QUERY_BASE + rng.below(100_000) as u32;
                let category = rng.below(CATEGORIES as usize) as u32;
                let count = 1 + rng.below(4);
                Request {
                    query,
                    preclick_items: items_of_category(&mut rng, scale, category, count),
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_pool_other_seed_other_pool() {
        assert_eq!(pool(5, Scale::QUICK), pool(5, Scale::QUICK));
        assert_ne!(pool(5, Scale::QUICK), pool(6, Scale::QUICK));
    }

    #[test]
    fn pool_has_the_stated_mix() {
        let scale = Scale::QUICK;
        let requests = pool(17, scale);
        assert_eq!(requests.len(), scale.pool);
        let unseen = requests.iter().filter(|r| is_unseen(r)).count();
        let share = unseen as f64 / requests.len() as f64;
        assert!((share - 0.1).abs() < 0.02, "unseen share {share}");
        for r in &requests {
            assert!(r.preclick_items.len() <= 4);
            assert!(r
                .preclick_items
                .iter()
                .all(|i| (ITEM_BASE..ITEM_BASE + scale.items).contains(i)));
            if is_unseen(r) {
                assert!(!r.preclick_items.is_empty(), "unseen needs pre-clicks");
            } else {
                assert!(r.query < scale.queries);
                let category = r.query % CATEGORIES;
                assert!(r.preclick_items.iter().all(|i| i % CATEGORIES == category));
            }
        }
        // Zipf skew: the most popular query is posed far more often than
        // a uniform draw would (1/64 of the seen requests)
        let mut counts = vec![0usize; scale.queries as usize];
        requests
            .iter()
            .filter(|r| !is_unseen(r))
            .for_each(|r| counts[r.query as usize] += 1);
        let top = *counts.iter().max().unwrap() as f64 / (requests.len() - unseen) as f64;
        assert!(top > 0.15, "top query share {top}");
    }
}
