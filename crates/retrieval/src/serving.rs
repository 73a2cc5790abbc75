//! Open-loop load description and reporting (Fig. 9 of the paper).
//!
//! The paper reports ad-retrieval response time as the offered load grows
//! from 1K to 50K queries per second on the production iGraph cluster.  The
//! same *shape* — response time grows slowly with offered QPS until the
//! workers saturate — is reproduced with an open-loop load: a [`Scenario`]
//! says when requests arrive (fixed-rate phases derived from the offered
//! QPS, never slowed down by completions) and which templates they use
//! ([`TrafficPattern`]); [`crate::ServingRuntime::run_scenario`] drives it
//! through the runtime's admission queue and workers and returns one
//! [`LoadReport`] per phase. Reported latency runs from a request's
//! scheduled arrival to its own completion, so it includes queueing delay
//! and overload shows up as a steep latency increase, exactly like the
//! paper's figure.

use rand::{Rng, SeedableRng};

/// Latency statistics of one load level.
///
/// The tail is reported at p90 / p95 / p99, not p50 → p99 alone: the
/// saturation knee of the Fig. 9 curve shows up in the intermediate
/// percentiles first (queueing delay hits the slowest decile long before
/// it moves the median).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadReport {
    /// Offered load in requests per second.
    pub offered_qps: f64,
    /// Number of requests completed (including no-coverage responses).
    pub completed: usize,
    /// Requests answered with [`crate::RetrievalError::NoCoverage`].
    pub no_coverage: usize,
    /// Mean response time (including queueing) in milliseconds.
    pub mean_ms: f64,
    /// Median response time in milliseconds.
    pub p50_ms: f64,
    /// 90th-percentile response time in milliseconds.
    pub p90_ms: f64,
    /// 95th-percentile response time in milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile response time in milliseconds.
    pub p99_ms: f64,
    /// Achieved throughput in requests per second.
    pub achieved_qps: f64,
    /// Requests shed by admission control or deadline enforcement
    /// ([`crate::RetrievalError::Overloaded`]).
    pub shed: usize,
    /// Requests that completed but only after their deadline had passed
    /// (late answers — completed, but not goodput).
    pub timed_out: usize,
    /// Throughput counting only requests answered within their deadline,
    /// in requests per second.
    pub goodput_qps: f64,
}

/// Nearest-rank percentile over an ascending sample:
/// `idx = round((n - 1) · p)`, 0 for an empty sample.
pub(crate) fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx]
}

/// How a traffic scenario picks request templates.
///
/// Production ad traffic is heavily skewed — a few hot queries dominate —
/// which is exactly the load shape that makes cross-request batch dedup
/// and per-replica caching pay off. The uniform pattern cycles templates
/// round-robin; the Zipf pattern samples template ranks from a power law.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficPattern {
    /// Cycle through the templates in order (every template equally hot).
    Uniform,
    /// Zipf-distributed template popularity: template at rank `r`
    /// (0-indexed) is drawn with weight `1 / (r + 1)^exponent`.
    /// Deterministic for a fixed seed.
    Zipf {
        /// The skew exponent `s` (1.0 is the classic Zipf shape; larger
        /// concentrates more of the traffic on the top templates).
        exponent: f64,
        /// RNG seed — the same seed replays the same arrival sequence.
        seed: u64,
    },
}

impl TrafficPattern {
    /// Build a sampler over `templates` request templates.
    pub(crate) fn sampler(&self, templates: usize) -> TemplateSampler {
        assert!(templates > 0, "need at least one request template");
        match *self {
            TrafficPattern::Uniform => TemplateSampler::RoundRobin(templates),
            TrafficPattern::Zipf { exponent, seed } => {
                let mut cumulative = Vec::with_capacity(templates);
                let mut total = 0.0;
                for rank in 0..templates {
                    total += 1.0 / ((rank + 1) as f64).powf(exponent);
                    cumulative.push(total);
                }
                TemplateSampler::Zipf {
                    cumulative,
                    rng: rand::rngs::StdRng::seed_from_u64(seed),
                }
            }
        }
    }
}

/// Stateful template chooser produced by [`TrafficPattern::sampler`].
pub(crate) enum TemplateSampler {
    /// `i % templates`.
    RoundRobin(usize),
    /// Inverse-CDF sampling over precomputed cumulative Zipf weights.
    Zipf {
        cumulative: Vec<f64>,
        rng: rand::rngs::StdRng,
    },
}

impl TemplateSampler {
    /// Template index for the `i`-th request of the phase.
    pub(crate) fn next(&mut self, i: usize) -> usize {
        match self {
            TemplateSampler::RoundRobin(templates) => i % *templates,
            TemplateSampler::Zipf { cumulative, rng } => {
                let total = *cumulative.last().expect("sampler has >= 1 template");
                let u = rng.gen_range(0.0..total);
                cumulative
                    .partition_point(|&c| c <= u)
                    .min(cumulative.len() - 1)
            }
        }
    }
}

/// One constant-rate segment of a [`Scenario`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioPhase {
    /// Label for reports ("pre-spike", "flash crowd", ...).
    pub label: &'static str,
    /// Offered load during this phase, requests per second.
    pub offered_qps: f64,
    /// How many requests this phase issues.
    pub requests: usize,
}

/// A multi-phase open-loop traffic scenario for the serving runtime:
/// each phase offers a constant rate, phases run back to back against
/// the same runtime so queue state carries across phase boundaries
/// (a flash crowd's backlog drains into the recovery phase).
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// How request templates are chosen across the whole scenario.
    pub pattern: TrafficPattern,
    /// The phases, executed in order.
    pub phases: Vec<ScenarioPhase>,
}

impl Scenario {
    /// Sustained open-loop load: one phase at a constant rate.
    pub fn sustained(offered_qps: f64, requests: usize) -> Self {
        Scenario {
            pattern: TrafficPattern::Uniform,
            phases: vec![ScenarioPhase {
                label: "sustained",
                offered_qps,
                requests,
            }],
        }
    }

    /// A flash crowd: steady base load, a spike at `spike_qps`, then a
    /// recovery phase back at the base rate. The interesting assertions
    /// are "the spike sheds" and "the recovery does not".
    pub fn flash_crowd(
        base_qps: f64,
        spike_qps: f64,
        base_requests: usize,
        spike_requests: usize,
    ) -> Self {
        Scenario {
            pattern: TrafficPattern::Uniform,
            phases: vec![
                ScenarioPhase {
                    label: "pre-spike",
                    offered_qps: base_qps,
                    requests: base_requests,
                },
                ScenarioPhase {
                    label: "flash crowd",
                    offered_qps: spike_qps,
                    requests: spike_requests,
                },
                ScenarioPhase {
                    label: "recovery",
                    offered_qps: base_qps,
                    requests: base_requests,
                },
            ],
        }
    }

    /// Replace the template-popularity pattern (builder style).
    pub fn with_pattern(mut self, pattern: TrafficPattern) -> Self {
        self.pattern = pattern;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_helper_handles_edges() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        let v = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
    }

    /// Pins the percentile *convention*: nearest rank over the sorted
    /// sample by `idx = round((n - 1) · p)`, 0-indexed, rounding half
    /// away from zero. If the convention ever drifts (interpolation,
    /// ceil-based nearest rank, 1-indexed ranks) these hand-computed
    /// ladders catch it.
    #[test]
    fn percentile_follows_the_rounded_nearest_rank_convention() {
        // 100-rung ladder 1..=100: idx = round(99 p)
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.50), 51.0); // round(49.5)  = 50
        assert_eq!(percentile(&hundred, 0.90), 90.0); // round(89.1)  = 89
        assert_eq!(percentile(&hundred, 0.99), 99.0); // round(98.01) = 98
                                                      // 10-rung ladder 1..=10: idx = round(9 p)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.50), 6.0); // round(4.5)  = 5
        assert_eq!(percentile(&ten, 0.90), 9.0); // round(8.1)  = 8
        assert_eq!(percentile(&ten, 0.99), 10.0); // round(8.91) = 9
                                                  // 5-rung ladder with uneven gaps: values, not interpolations
        let gaps = vec![1.0, 1.5, 2.0, 50.0, 1000.0];
        assert_eq!(percentile(&gaps, 0.50), 2.0); // round(2.0) = 2
        assert_eq!(percentile(&gaps, 0.90), 1000.0); // round(3.6) = 4
        assert_eq!(percentile(&gaps, 0.99), 1000.0); // round(3.96) = 4
    }

    #[test]
    fn zipf_sampler_is_deterministic_and_skewed() {
        let pattern = TrafficPattern::Zipf {
            exponent: 1.2,
            seed: 7,
        };
        let mut a = pattern.sampler(20);
        let mut b = pattern.sampler(20);
        let draws_a: Vec<usize> = (0..500).map(|i| a.next(i)).collect();
        let draws_b: Vec<usize> = (0..500).map(|i| b.next(i)).collect();
        assert_eq!(draws_a, draws_b, "same seed must replay the same stream");
        assert!(draws_a.iter().all(|&t| t < 20));
        // rank 0 must dominate: with s=1.2 over 20 templates its weight is
        // ~30% of the total — far above the 5% a uniform draw would give
        let top = draws_a.iter().filter(|&&t| t == 0).count();
        let mid = draws_a.iter().filter(|&&t| t == 10).count();
        assert!(top > 100, "rank 0 drew {top}/500 — not Zipf-skewed");
        assert!(top > mid, "rank 0 ({top}) must outdraw rank 10 ({mid})");
    }

    #[test]
    fn uniform_sampler_cycles_through_the_templates() {
        let mut s = TrafficPattern::Uniform.sampler(3);
        let draws: Vec<usize> = (0..7).map(|i| s.next(i)).collect();
        assert_eq!(draws, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn scenario_constructors_shape_their_phases() {
        let s = Scenario::sustained(5_000.0, 400);
        assert_eq!(s.phases.len(), 1);
        assert_eq!(s.phases[0].offered_qps, 5_000.0);
        assert_eq!(s.phases[0].requests, 400);
        let f =
            Scenario::flash_crowd(1_000.0, 50_000.0, 200, 800).with_pattern(TrafficPattern::Zipf {
                exponent: 1.0,
                seed: 1,
            });
        assert_eq!(f.phases.len(), 3);
        assert_eq!(f.phases[0].label, "pre-spike");
        assert_eq!(f.phases[1].label, "flash crowd");
        assert_eq!(f.phases[2].label, "recovery");
        assert_eq!(f.phases[0].offered_qps, f.phases[2].offered_qps);
        assert!(f.phases[1].offered_qps > f.phases[0].offered_qps);
        assert!(matches!(f.pattern, TrafficPattern::Zipf { .. }));
    }
}
