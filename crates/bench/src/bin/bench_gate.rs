//! CI bench regression gate — compare a fresh `BENCH_table9.json` against
//! the committed baseline and exit non-zero on regressions.
//!
//! ```text
//! bench_gate <baseline.json> <fresh.json>
//! ```
//!
//! The policy lives (unit-tested) in `amcad_bench::gate`: recall +
//! footprint — recall and the quantised memory footprint are pinned with
//! a small absolute tolerance (both are deterministic at a fixed scale
//! and seed); timings are compared only by the reference benchmark
//! (`benches/e2e`). Re-baselining is deliberate and visible: re-run
//! `table9_scalability` at the baseline's scale and commit the new file.

use std::process::ExitCode;

use amcad_bench::gate::{compare, GateConfig};
use amcad_bench::json::Json;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, fresh_path] = args.as_slice() else {
        eprintln!("usage: bench_gate <baseline.json> <fresh.json>");
        return ExitCode::from(2);
    };
    let (baseline, fresh) = match (load(baseline_path), load(fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (b, f) => {
            for err in [b.err(), f.err()].into_iter().flatten() {
                eprintln!("bench gate: {err}");
            }
            return ExitCode::from(2);
        }
    };
    let config = GateConfig::default();
    let violations = compare(&baseline, &fresh, &config);
    if violations.is_empty() {
        println!(
            "bench gate: PASS — {fresh_path} holds the line against {baseline_path} \
             (recall tol {:.3}, footprint >= {:.0}x)",
            config.recall_abs_tol, config.min_footprint_ratio
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "bench gate: FAIL — {} violation(s) against {baseline_path}:",
            violations.len()
        );
        for v in &violations {
            eprintln!("  - {v}");
        }
        eprintln!(
            "If this change is intentional, re-run table9_scalability at the baseline \
             scale and commit the refreshed baseline."
        );
        ExitCode::FAILURE
    }
}
