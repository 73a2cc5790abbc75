//! The bench regression gate: diff a fresh `BENCH_table9.json` against a
//! committed baseline and fail CI when quality regresses.
//!
//! The gate reads both artefacts through [`crate::json::Json::parse`] and
//! checks recall + footprint, the two numbers that are properties of the
//! *code*, not the machine: at a fixed scale and seed the whole pipeline
//! — world generation, training, index build — is deterministic, so the
//! ad-side recall of every frontier configuration and the quantised
//! bytes/ad are pinned tightly. A small absolute recall tolerance absorbs
//! intentional re-baselining noise; anything beyond it is a real quality
//! regression. Timings are not compared here: the reference benchmark
//! (`benches/e2e`) is the one place that does, with paired runs.
//!
//! [`compare`] returns the violations as strings (empty = pass) so the
//! `bench_gate` binary stays a thin argv/exit-code wrapper and the
//! policy itself is unit-tested.

use crate::json::Json;

/// Tolerances for [`compare`].
#[derive(Debug, Clone, Copy)]
pub struct GateConfig {
    /// Absolute recall drop allowed per frontier row.
    pub recall_abs_tol: f64,
    /// Minimum full-precision / quantised bytes-per-ad ratio.
    pub min_footprint_ratio: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            recall_abs_tol: 0.05,
            min_footprint_ratio: 4.0,
        }
    }
}

fn num(row: &Json, field: &str) -> Option<f64> {
    row.get(field).and_then(Json::as_f64)
}

fn text<'a>(row: &'a Json, field: &str) -> &'a str {
    row.get(field).and_then(Json::as_str).unwrap_or("?")
}

/// Compare a fresh table9 artefact against the committed baseline.
/// Returns one message per violation; an empty vector means the gate
/// passes. Structural problems (missing sections, mismatched scale) are
/// violations too — a gate that silently skips checks is no gate.
pub fn compare(baseline: &Json, fresh: &Json, cfg: &GateConfig) -> Vec<String> {
    let mut violations = Vec::new();

    let base_scale = text(baseline, "scale");
    let fresh_scale = text(fresh, "scale");
    if base_scale != fresh_scale {
        violations.push(format!(
            "scale mismatch: baseline ran at '{base_scale}', fresh at '{fresh_scale}' — \
             the comparison is meaningless across presets"
        ));
        return violations;
    }

    // -- frontier: recall pinned per row ----------------------------------
    match (
        baseline.get("frontier").and_then(Json::as_arr),
        fresh.get("frontier").and_then(Json::as_arr),
    ) {
        (Some(base_rows), Some(fresh_rows)) => {
            for base_row in base_rows {
                let backend = text(base_row, "backend");
                let knob = text(base_row, "knob");
                let Some(fresh_row) = fresh_rows
                    .iter()
                    .find(|r| text(r, "backend") == backend && text(r, "knob") == knob)
                else {
                    violations.push(format!(
                        "frontier row {backend}/{knob} present in the baseline but missing \
                         from the fresh run"
                    ));
                    continue;
                };
                match (
                    num(base_row, "recall_at_20"),
                    num(fresh_row, "recall_at_20"),
                ) {
                    (Some(base_recall), Some(fresh_recall)) => {
                        if fresh_recall < base_recall - cfg.recall_abs_tol {
                            violations.push(format!(
                                "frontier {backend}/{knob}: recall@20 regressed \
                                 {base_recall:.3} -> {fresh_recall:.3} \
                                 (tolerance {:.3})",
                                cfg.recall_abs_tol
                            ));
                        }
                    }
                    _ => violations.push(format!(
                        "frontier {backend}/{knob}: recall_at_20 missing or non-numeric"
                    )),
                }
            }
        }
        _ => violations.push("'frontier' section missing from an artefact".to_string()),
    }

    // -- memory footprint: a structural property, pinned exactly ----------
    match (
        baseline.get("memory_footprint"),
        fresh.get("memory_footprint"),
    ) {
        (Some(base_fp), Some(fresh_fp)) => {
            match (
                num(base_fp, "quantised_bytes_per_ad"),
                num(fresh_fp, "quantised_bytes_per_ad"),
            ) {
                (Some(base_bpa), Some(fresh_bpa)) => {
                    if fresh_bpa > base_bpa {
                        violations.push(format!(
                            "memory footprint grew: {base_bpa:.0} -> {fresh_bpa:.0} \
                             quantised bytes/ad"
                        ));
                    }
                }
                _ => violations.push("memory_footprint.quantised_bytes_per_ad missing".to_string()),
            }
            match num(fresh_fp, "ratio") {
                Some(ratio) => {
                    if ratio < cfg.min_footprint_ratio {
                        violations.push(format!(
                            "memory footprint ratio {ratio:.2}x is below the pinned \
                             {:.0}x minimum",
                            cfg.min_footprint_ratio
                        ));
                    }
                }
                None => violations.push("memory_footprint.ratio missing".to_string()),
            }
        }
        _ => violations.push("'memory_footprint' section missing from an artefact".to_string()),
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artefact(recall: f64, bpa: f64, ratio: f64) -> Json {
        Json::obj(vec![
            ("bench", Json::from("table9_scalability")),
            ("scale", Json::from("tiny")),
            (
                "frontier",
                Json::Arr(vec![
                    Json::obj(vec![
                        ("backend", Json::from("exact")),
                        ("knob", Json::from("-")),
                        ("recall_at_20", Json::from(1.0)),
                    ]),
                    Json::obj(vec![
                        ("backend", Json::from("quant")),
                        ("knob", Json::from("rerank=48")),
                        ("recall_at_20", Json::from(recall)),
                    ]),
                ]),
            ),
            (
                "memory_footprint",
                Json::obj(vec![
                    ("quantised_bytes_per_ad", Json::from(bpa)),
                    ("full_precision_bytes_per_ad", Json::from(bpa * ratio)),
                    ("ratio", Json::from(ratio)),
                ]),
            ),
        ])
    }

    #[test]
    fn identical_runs_pass() {
        let base = artefact(0.9, 10.0, 6.4);
        assert_eq!(
            compare(&base, &base.clone(), &GateConfig::default()),
            Vec::<String>::new()
        );
    }

    #[test]
    fn small_recall_noise_and_slower_machines_pass() {
        let base = artefact(0.9, 10.0, 6.4);
        let fresh = artefact(0.87, 10.0, 6.4); // -0.03 recall, inside the tolerance
        assert!(compare(&base, &fresh, &GateConfig::default()).is_empty());
    }

    #[test]
    fn recall_regressions_fail() {
        let base = artefact(0.9, 10.0, 6.4);
        let fresh = artefact(0.7, 10.0, 6.4);
        let violations = compare(&base, &fresh, &GateConfig::default());
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].contains("recall@20 regressed"),
            "{violations:?}"
        );
    }

    #[test]
    fn footprint_growth_and_broken_ratio_fail() {
        let base = artefact(0.9, 10.0, 6.4);
        let grown = artefact(0.9, 16.0, 6.4);
        assert!(compare(&base, &grown, &GateConfig::default())
            .iter()
            .any(|v| v.contains("memory footprint grew")));
        let thin = artefact(0.9, 10.0, 3.0);
        assert!(compare(&base, &thin, &GateConfig::default())
            .iter()
            .any(|v| v.contains("below the pinned")));
    }

    #[test]
    fn missing_rows_sections_and_scale_mismatch_fail() {
        let base = artefact(0.9, 10.0, 6.4);
        // a fresh run that silently dropped the quant frontier row
        let mut fresh = artefact(0.9, 10.0, 6.4);
        if let Json::Obj(pairs) = &mut fresh {
            if let Some(Json::Arr(rows)) = pairs
                .iter_mut()
                .find(|(k, _)| k == "frontier")
                .map(|(_, v)| v)
            {
                rows.pop();
            }
        }
        assert!(compare(&base, &fresh, &GateConfig::default())
            .iter()
            .any(|v| v.contains("missing from the fresh run")));

        let empty = Json::obj(vec![("scale", Json::from("tiny"))]);
        let violations = compare(&base, &empty, &GateConfig::default());
        assert!(violations
            .iter()
            .any(|v| v.contains("'frontier' section missing")));
        assert!(violations
            .iter()
            .any(|v| v.contains("'memory_footprint' section missing")));

        let day = Json::obj(vec![("scale", Json::from("day"))]);
        let violations = compare(&base, &day, &GateConfig::default());
        assert_eq!(
            violations.len(),
            1,
            "scale mismatch short-circuits: {violations:?}"
        );
        assert!(violations[0].contains("scale mismatch"));
    }

    /// The committed baseline parses, passes against itself, and holds
    /// only what table9 still reports: the seven frontier rows with a
    /// recall each, the footprint, and no serving-latency, deployment-timing
    /// or deleted-feature sections.
    #[test]
    fn the_committed_baseline_passes_against_itself_and_holds_no_serving_sections() {
        let text = include_str!("../baselines/BENCH_table9_tiny.json");
        let baseline = Json::parse(text).expect("the committed baseline is valid JSON");
        assert_eq!(
            compare(&baseline, &baseline, &GateConfig::default()),
            Vec::<String>::new()
        );
        let rows = baseline
            .get("frontier")
            .and_then(Json::as_arr)
            .expect("the baseline has a frontier");
        assert_eq!(rows.len(), 7);
        for row in rows {
            let recall = num(row, "recall_at_20").expect("every row has a recall");
            assert!(
                (0.0..=1.0).contains(&recall),
                "recall {recall} out of range"
            );
        }
        for gone in [
            "serving_topologies",
            "runtime_ladder",
            "hedges",
            "fanout_threads",
            "parallel_build",
            "delta_vs_rebuild",
            "warm_restart",
        ] {
            assert!(!text.contains(gone), "the baseline still carries {gone:?}");
        }
    }
}
