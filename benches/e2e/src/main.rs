//! `amcad-e2e`: the reference benchmark of the AMCAD serving stack.
//!
//! ```text
//! amcad-e2e --workload <name|all> --seed <u64> [--seconds <n>] [--trace <0|1>] [--quick]
//! ```
//!
//! One run generates its inputs from the seed, measures one workload,
//! checks the outputs and prints every metric by name with its unit; the
//! last line of standard output is the machine-readable result. With
//! `--trace 0` (the default) the metrics are the end-to-end ones, with
//! `--trace 1` the per-layer ones, taken in a separate serial run with the
//! tracer on. See README.md for what each workload and metric is for.

mod checks;
mod corpus;
mod deploy;
mod layers;
mod loadgen;
mod requests;
mod rng;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use corpus::Scale;
use workloads::{Outcome, PLANS};

pub type Error = Box<dyn std::error::Error + Send + Sync>;

const USAGE: &str =
    "usage: amcad-e2e --workload <serve_single|serve_sharded|index_build|churn|all> --seed <u64> \
     [--seconds <n>] [--trace <0|1>] [--quick]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, Error> {
    let (mut workload, mut seed, mut seconds, mut trace, mut quick) =
        (None, None, None, false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>()?),
            "--seconds" => seconds = Some(value()?.parse::<f64>()?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}").into()),
                }
            }
            "--quick" => quick = true,
            other => return Err(format!("unknown argument {other}").into()),
        }
    }
    let seconds = seconds.unwrap_or(if quick { 1.0 } else { 16.0 });
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must lie in (0, 60]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        quick,
    })
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or("unknown".into(), |out| {
            String::from_utf8_lossy(&out.stdout).trim().to_string()
        })
}

/// Run every workload in a process of its own, so that `setup_s` and
/// `rss_mb` are per workload.
fn run_all(args: &Args) -> Result<bool, Error> {
    let exe = std::env::current_exe()?;
    let mut all_ok = true;
    for plan in &PLANS {
        let mut child = std::process::Command::new(&exe);
        child
            .args(["--workload", plan.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.quick {
            child.arg("--quick");
        }
        all_ok &= child.status()?.success();
    }
    Ok(all_ok)
}

fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.tally.failed == 0,
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics.join(", ")
    )
}

fn run(args: &Args) -> Result<bool, Error> {
    if args.workload == "all" {
        return run_all(args);
    }
    let plan = workloads::plan(&args.workload)
        .ok_or_else(|| format!("unknown workload {}\n{USAGE}", args.workload))?;
    let scale = if args.quick { Scale::QUICK } else { Scale::C6K };
    println!(
        "# amcad-e2e workload {} seed {} seconds {} trace {} corpus {} ({} queries, {} items, {} ads)",
        plan.name, args.seed, args.seconds, u8::from(args.trace), scale.name, scale.queries, scale.items, scale.ads
    );
    println!(
        "# available_parallelism {} profile {} {}",
        std::thread::available_parallelism().map_or(0, usize::from),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        rustc_version()
    );
    let outcome = if args.trace {
        layers::run(plan, args.seed, scale, args.seconds)?
    } else {
        workloads::run(plan, args.seed, scale, args.seconds)?
    };
    for (name, unit, value) in &outcome.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}").into());
        }
        println!("{name:<34} {value:>16.6} {unit}");
    }
    println!(
        "# operations and output checks: {} failed of {} attempted",
        outcome.tally.failed, outcome.tally.attempted
    );
    println!("{}", result_line(&outcome));
    Ok(outcome.tally.failed == 0)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"key": "value"` string pair of BENCHMARK.json with the
    /// given key, in file order.
    fn values_of(spec: &str, key: &str) -> Vec<String> {
        let marker = format!("\"{key}\": \"");
        spec.match_indices(&marker)
            .map(|(at, _)| {
                let rest = &spec[at + marker.len()..];
                rest[..rest.find('"').expect("closing quote")].to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_reports() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let reported = workloads::END_TO_END.iter().chain(&layers::PER_LAYER);
        let mut names: Vec<&str> = PLANS.iter().map(|p| p.name).collect();
        names.extend(reported.clone().map(|(name, _)| *name));
        assert_eq!(values_of(&spec, "name"), names);
        let units: Vec<&str> = reported.map(|(_, unit)| *unit).collect();
        assert_eq!(values_of(&spec, "unit"), units);
    }

    #[test]
    fn arguments_are_parsed_as_the_driver_passes_them() {
        let parse = |line: &str| parse_args(line.split_whitespace().map(String::from));
        let args = parse("--workload churn --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (
                args.workload.as_str(),
                args.seed,
                args.seconds,
                args.trace,
                args.quick
            ),
            ("churn", 7, 10.0, true, false)
        );
        assert!(parse("--workload churn").is_err(), "the seed is required");
        assert!(parse("--workload churn --seed 1 --trace 2").is_err());
        assert!(parse("--workload churn --seed 1 --seconds 0").is_err());
        assert!(parse("--workload churn --seed x").is_err());
    }
}
