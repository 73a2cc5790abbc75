//! The numerical contract a covering-radius bound rests on: for points of
//! the triangle domain, the *computed* distance keeps the triangle
//! inequality up to `triangle_slack`, per component,
//!
//! ```text
//! distance_gram(q, a) ≥ distance_gram(q, c) − distance_gram(c, a) − slack,
//! ```
//!
//! and the domain rule turns away every point where it does not hold.
//! `TRIANGLE_SLACK` is set from the worst shortfall measured here.

use amcad_manifold::{
    distance_gram, dot, in_triangle_domain, norm_sq, triangle_slack, KAPPA_EPS, TRIANGLE_SLACK,
};
use proptest::prelude::*;

/// The curvatures the contract is checked at: hyperbolic, both sides of
/// each `KAPPA_EPS` seam, flat and spherical.
const KAPPAS: [f64; 12] = [
    -2.0,
    -0.8,
    -1e-3,
    -1.0000001e-7,
    -1e-7,
    0.0,
    1e-7,
    1.0000001e-7,
    1e-3,
    0.6,
    1.0,
    2.0,
];

/// splitmix64: a seedable stream without a dependency.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// `|κ|·‖x‖²` at the edge of the domain: the largest squared
/// stereographic radius a point may have.
fn edge(kappa: f64) -> f64 {
    if kappa.abs() > KAPPA_EPS {
        1.0 - 1e-4
    } else {
        1e-4
    }
}

/// Length that `|κ|·‖x‖² = ρ²` turns into a norm: `ρ / √|κ|`, or `ρ · 100`
/// at κ = 0, where every finite point is in the domain.
fn radius(rho2: f64, kappa: f64) -> f64 {
    if kappa == 0.0 {
        rho2.sqrt() * 100.0
    } else {
        (rho2 / kappa.abs()).sqrt()
    }
}

fn scaled(v: &[f64], r: f64) -> Vec<f64> {
    let n = norm_sq(v).sqrt();
    v.iter().map(|x| x / n * r).collect()
}

/// Pull a point that lies past the domain's edge back onto it, along its
/// ray.
fn into_domain(mut p: Vec<f64>, kappa: f64) -> Vec<f64> {
    let full = radius(edge(kappa), kappa);
    if norm_sq(&p) > full * full {
        p = scaled(&p, full);
    }
    // rounding may leave the rescaled point an ulp outside
    while !in_triangle_domain(norm_sq(&p), kappa) {
        p.iter_mut().for_each(|x| *x *= 1.0 - 1e-15);
    }
    p
}

/// A random direction in `dim` dimensions.
fn direction(s: &mut Stream, dim: usize) -> Vec<f64> {
    loop {
        let v: Vec<f64> = (0..dim).map(|_| s.uniform(-1.0, 1.0)).collect();
        if norm_sq(&v) > 1e-6 {
            return v;
        }
    }
}

/// A point of the domain, picked to stress the Gram form: anywhere, at
/// the domain's edge, within `10^-12 … 10^-1` of `near`, or mirrored
/// through the origin from `near` (nearly antipodal on the sphere when
/// `near` is at the edge).
fn point(s: &mut Stream, dim: usize, kappa: f64, near: Option<&[f64]>) -> Vec<f64> {
    let full = radius(edge(kappa), kappa);
    let mode = if near.is_some() {
        s.below(4)
    } else {
        s.below(2)
    };
    let p = match (mode, near) {
        (0, _) => scaled(&direction(s, dim), full * s.uniform(0.0, 1.0)),
        (1, _) => scaled(&direction(s, dim), full * (1.0 - s.uniform(0.0, 1e-6))),
        (2, Some(base)) => {
            let step = full * 10f64.powf(s.uniform(-12.0, -1.0));
            let d = scaled(&direction(s, dim), step);
            base.iter().zip(&d).map(|(b, d)| b + d).collect()
        }
        (_, Some(base)) => {
            let step = full * 10f64.powf(s.uniform(-12.0, -3.0));
            let d = scaled(&direction(s, dim), step);
            base.iter().zip(&d).map(|(b, d)| -b + d).collect()
        }
        (_, None) => unreachable!("modes 2 and 3 need a base point"),
    };
    into_domain(p, kappa)
}

fn dist(x: &[f64], y: &[f64], kappa: f64) -> f64 {
    distance_gram(norm_sq(x), norm_sq(y), dot(x, y), kappa)
}

/// The triangle shortfall of `(q, c, a)` as a share of its slack's scale:
/// `(d(q,c) − d(c,a) − d(q,a)) / (slack / TRIANGLE_SLACK)`.
fn shortfall(q: &[f64], c: &[f64], a: &[f64], kappa: f64) -> f64 {
    let (q2, c2, a2) = (norm_sq(q), norm_sq(c), norm_sq(a));
    let norm_sum = q2.sqrt() + c2.sqrt() + a2.sqrt();
    let scale = triangle_slack(norm_sum, q2.max(c2).max(a2), kappa) / TRIANGLE_SLACK;
    (dist(q, c, kappa) - dist(c, a, kappa) - dist(q, a, kappa)) / scale
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Per component, in the domain: `d(q,a) ≥ d(q,c) − d(c,a) − slack`
    /// over a few thousand triples per case, and the worst shortfall seen
    /// stays a tenth of `TRIANGLE_SLACK` or less, so the constant keeps
    /// its room.
    #[test]
    fn computed_distance_keeps_the_triangle_inequality_within_the_slack(seed in 0u64..u64::MAX) {
        let mut s = Stream(seed);
        for &kappa in &KAPPAS {
            let mut worst = f64::NEG_INFINITY;
            for _ in 0..400 {
                let dim = 1 + s.below(16) as usize;
                let q = point(&mut s, dim, kappa, None);
                let c = point(&mut s, dim, kappa, Some(&q));
                let base = if s.below(2) == 0 { c.clone() } else { q.clone() };
                let a = point(&mut s, dim, kappa, Some(&base));
                for p in [&q, &c, &a] {
                    prop_assert!(in_triangle_domain(norm_sq(p), kappa));
                }
                // every ordering: each point plays the centre once
                for (x, y, z) in [(&q, &c, &a), (&a, &c, &q), (&c, &q, &a), (&q, &a, &c)] {
                    worst = worst.max(shortfall(x, y, z, kappa));
                }
            }
            prop_assert!(
                worst <= TRIANGLE_SLACK / 10.0,
                "kappa {}: shortfall {:e} of the scale, slack {:e}",
                kappa, worst, TRIANGLE_SLACK
            );
        }
    }
}

/// The domain rule turns away what the contract cannot cover: non-finite
/// points, points off the ball, points where `artanh` clamps, the lower
/// hemisphere of a sphere (where antipodal pairs live), and the far
/// Taylor window.
#[test]
fn the_domain_rule_rejects_nan_off_manifold_and_clamp_reaching_points() {
    for &kappa in &KAPPAS {
        assert!(in_triangle_domain(0.0, kappa), "kappa {kappa}: the origin");
        assert!(!in_triangle_domain(f64::NAN, kappa), "kappa {kappa}: NaN");
        assert!(
            !in_triangle_domain(f64::INFINITY, kappa),
            "kappa {kappa}: inf"
        );
        let x = [0.1, f64::NAN, 0.2];
        assert!(
            !in_triangle_domain(norm_sq(&x), kappa),
            "kappa {kappa}: NaN coordinate"
        );
        if kappa != 0.0 {
            let limit = edge(kappa) / kappa.abs();
            assert!(
                in_triangle_domain(limit * (1.0 - 1e-12), kappa),
                "kappa {kappa}"
            );
            assert!(
                !in_triangle_domain(limit * (1.0 + 1e-12), kappa),
                "kappa {kappa}"
            );
        }
    }
    for kappa in [-2.0, -0.8, -1e-3] {
        // off the ball, on its edge, and where artanh(1 − 1e-15) clamps
        for rho2 in [4.0, 1.0, 1.0 - 1e-15, 1.0 - 1e-9] {
            assert!(
                !in_triangle_domain(rho2 / -kappa, kappa),
                "kappa {kappa}: ρ² {rho2}"
            );
        }
    }
    for kappa in [0.6, 1.0, 2.0] {
        // the equator and the lower hemisphere: antipodes of domain points
        for rho2 in [1.0, 4.0, 1e6] {
            assert!(
                !in_triangle_domain(rho2 / kappa, kappa),
                "kappa {kappa}: ρ² {rho2}"
            );
        }
    }
    // the flat component has no edge
    assert!(in_triangle_domain(1e300, 0.0));
}

/// The rule is not vacuous: outside it the contract breaks, by a whole
/// antipodal distance on the sphere (the `denom` clamp) and past any slack
/// at the hyperbolic clamp.
#[test]
fn outside_the_domain_the_triangle_inequality_fails() {
    // κ > 0: c and its near-antipode a, q beside a. d(q,c) ≈ π/√κ, but
    // the clamped Gram form puts d(c,a) far below it.
    let kappa = 1.0;
    let c = [0.6, -0.8, 0.0];
    let antipode: Vec<f64> = c.iter().map(|x| -x / (kappa * norm_sq(&c))).collect();
    let a: Vec<f64> = antipode.iter().map(|x| x * (1.0 + 1e-16)).collect();
    let q: Vec<f64> = antipode.iter().map(|x| x * (1.0 + 1e-3)).collect();
    assert!(!in_triangle_domain(norm_sq(&a), kappa));
    let worst = [shortfall(&q, &c, &a, kappa), shortfall(&a, &c, &q, kappa)]
        .into_iter()
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(worst > 1e-3, "antipodal shortfall {worst:e}");

    // κ < 0: two points at the ball's edge, clamped to the same distance
    // from a third, though one is much farther away
    let kappa = -1.0;
    let edge_point = |x: f64, y: f64| vec![x * (1.0 - 1e-17), y * (1.0 - 1e-17)];
    let c = edge_point(1.0, 0.0);
    let q = edge_point(-1.0, 0.0);
    let a = edge_point(0.0, 1.0);
    assert!(!in_triangle_domain(norm_sq(&c), kappa));
    let d_qc = dist(&q, &c, kappa);
    let d_ca = dist(&c, &a, kappa);
    assert_eq!(
        d_qc.to_bits(),
        d_ca.to_bits(),
        "the clamp caps both distances alike"
    );
}
