//! Property-based tests for the κ-stereographic operations.
//!
//! These check metric-space invariants (symmetry, identity, triangle
//! inequality), inverse relations (exp/log, tan/atan, Möbius negation) and
//! the consistency of the unified model across the three curvature regimes.

use amcad_manifold::{
    atan_kappa, distance, exp_map_origin, log_map_origin, mobius_add, mobius_neg, norm,
    project_to_ball, tan_kappa, ProductManifold, SubspaceSpec,
};
use proptest::prelude::*;

/// Curvatures spanning hyperbolic, (near-)flat and spherical regimes.
fn kappa_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![-2.0f64..-0.01, Just(0.0), -1e-9f64..1e-9, 0.01f64..2.0,]
}

/// Small tangent vectors (kept well away from the spherical tan pole and the
/// hyperbolic boundary so round-trips are numerically exact).
fn tangent_strategy(dim: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-0.4f64..0.4, dim)
}

proptest! {
    #[test]
    fn tan_atan_roundtrip(x in -0.8f64..0.8, kappa in kappa_strategy()) {
        let y = tan_kappa(x, kappa);
        let back = atan_kappa(y, kappa);
        prop_assert!((back - x).abs() < 1e-6, "x={x} kappa={kappa} back={back}");
    }

    #[test]
    fn tan_kappa_is_odd(x in -0.8f64..0.8, kappa in kappa_strategy()) {
        let pos = tan_kappa(x, kappa);
        let neg = tan_kappa(-x, kappa);
        prop_assert!((pos + neg).abs() < 1e-10);
    }

    #[test]
    fn tan_kappa_is_monotone(a in -0.7f64..0.7, b in -0.7f64..0.7, kappa in kappa_strategy()) {
        prop_assume!((a - b).abs() > 1e-9);
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        prop_assert!(tan_kappa(lo, kappa) < tan_kappa(hi, kappa));
    }

    #[test]
    fn exp_log_origin_roundtrip(v in tangent_strategy(4), kappa in kappa_strategy()) {
        let p = exp_map_origin(&v, kappa);
        let back = log_map_origin(&p, kappa);
        for (a, b) in v.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-6, "v={v:?} kappa={kappa} back={back:?}");
        }
    }

    #[test]
    fn distance_symmetry_and_identity(
        u in tangent_strategy(3),
        v in tangent_strategy(3),
        kappa in kappa_strategy(),
    ) {
        let x = exp_map_origin(&u, kappa);
        let y = exp_map_origin(&v, kappa);
        let dxy = distance(&x, &y, kappa);
        let dyx = distance(&y, &x, kappa);
        prop_assert!((dxy - dyx).abs() < 1e-8);
        prop_assert!(distance(&x, &x, kappa).abs() < 1e-8);
        prop_assert!(dxy >= -1e-12);
    }

    #[test]
    fn triangle_inequality(
        u in tangent_strategy(3),
        v in tangent_strategy(3),
        w in tangent_strategy(3),
        kappa in kappa_strategy(),
    ) {
        let a = exp_map_origin(&u, kappa);
        let b = exp_map_origin(&v, kappa);
        let c = exp_map_origin(&w, kappa);
        let ab = distance(&a, &b, kappa);
        let bc = distance(&b, &c, kappa);
        let ac = distance(&a, &c, kappa);
        prop_assert!(ac <= ab + bc + 1e-7, "ac={ac} ab={ab} bc={bc} kappa={kappa}");
    }

    #[test]
    fn mobius_left_inverse(u in tangent_strategy(3), kappa in kappa_strategy()) {
        let x = exp_map_origin(&u, kappa);
        let z = mobius_add(&mobius_neg(&x), &x, kappa);
        prop_assert!(norm(&z) < 1e-7, "residual {z:?} for kappa={kappa}");
    }

    #[test]
    fn mobius_identity_element(u in tangent_strategy(3), kappa in kappa_strategy()) {
        let x = exp_map_origin(&u, kappa);
        let zero = vec![0.0; x.len()];
        let left = mobius_add(&zero, &x, kappa);
        let right = mobius_add(&x, &zero, kappa);
        for ((l, r), xi) in left.iter().zip(&right).zip(&x) {
            prop_assert!((l - xi).abs() < 1e-10);
            prop_assert!((r - xi).abs() < 1e-10);
        }
    }

    #[test]
    fn projection_is_idempotent(v in prop::collection::vec(-5.0f64..5.0, 3), kappa in kappa_strategy()) {
        let once = project_to_ball(&v, kappa);
        let twice = project_to_ball(&once, kappa);
        for (a, b) in once.iter().zip(&twice) {
            prop_assert!((a - b).abs() < 1e-12);
        }
        if kappa < 0.0 {
            prop_assert!(norm(&once) <= 1.0 / (-kappa).sqrt());
        }
    }

    #[test]
    fn product_distance_dominates_each_component(
        u in tangent_strategy(6),
        v in tangent_strategy(6),
        k1 in kappa_strategy(),
        k2 in kappa_strategy(),
    ) {
        let m = ProductManifold::new(vec![SubspaceSpec::new(3, k1), SubspaceSpec::new(3, k2)]);
        let x = m.exp0(&u);
        let y = m.exp0(&v);
        let comps = m.component_distances(&x, &y);
        let total = m.distance(&x, &y);
        for c in comps {
            prop_assert!(total + 1e-9 >= c);
        }
    }

    #[test]
    fn weighted_distance_is_between_zero_and_sum(
        u in tangent_strategy(4),
        v in tangent_strategy(4),
        w0 in 0.0f64..1.0,
    ) {
        let m = ProductManifold::new(vec![SubspaceSpec::new(2, -1.0), SubspaceSpec::new(2, 1.0)]);
        let x = m.exp0(&u);
        let y = m.exp0(&v);
        let weights = [w0, 1.0 - w0];
        let wd = m.weighted_distance(&x, &y, &weights);
        prop_assert!(wd >= -1e-12);
        prop_assert!(wd <= m.distance(&x, &y) + 1e-9);
    }
}
