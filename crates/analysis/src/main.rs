//! CLI driver: `cargo run -p amcad-lint -- --deny [paths…]`
//!
//! Walks the workspace (or the given files/directories), prints every
//! diagnostic plus a per-rule summary, and — with `--deny` — exits
//! nonzero if any unwaived diagnostic remains. CI runs this ahead of
//! the test jobs. `--list-allows` prints the standing-waiver inventory
//! instead; `--format github` emits workflow annotations and
//! `--format json` a machine-readable report (uploaded as a CI
//! artifact next to the `BENCH_*.json` files).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use amcad_lint::{AllowRecord, Diagnostic};

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Github,
    Json,
}

fn main() -> ExitCode {
    let mut deny = false;
    let mut list_allows = false;
    let mut format = Format::Text;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--list-allows" => list_allows = true,
            "--format" => {
                format = match args.next().as_deref() {
                    Some("text") => Format::Text,
                    Some("github") => Format::Github,
                    Some("json") => Format::Json,
                    other => {
                        eprintln!(
                            "amcad-lint: --format expects text|github|json, got {:?}",
                            other.unwrap_or("<nothing>")
                        );
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--help" | "-h" => {
                println!("usage: amcad-lint [--deny] [--list-allows] [--format text|github|json] [paths…]");
                println!("lints the workspace (default: all .rs files under the workspace root,");
                println!("skipping target/, crates/compat/, and dotdirs); --deny exits nonzero");
                println!(
                    "on any diagnostic not waived by `// amcad-lint: allow(<rule>) — <reason>`."
                );
                println!("--list-allows prints the standing-waiver inventory instead of linting;");
                println!("--format github emits ::error workflow annotations, --format json a");
                println!("machine-readable report of diagnostics and waivers.");
                return ExitCode::SUCCESS;
            }
            other => paths.push(PathBuf::from(other)),
        }
    }

    let cwd = match std::env::current_dir() {
        Ok(cwd) => cwd,
        Err(err) => {
            eprintln!("amcad-lint: cannot determine working directory: {err}");
            return ExitCode::FAILURE;
        }
    };
    let root = amcad_lint::find_workspace_root(&cwd);

    if list_allows {
        let allows = amcad_lint::workspace_allows(&root, &paths);
        match format {
            Format::Json => println!("{}", allows_json(&allows)),
            _ => {
                for a in &allows {
                    println!("{a}");
                }
                println!();
                println!("{} standing waiver(s)", allows.len());
            }
        }
        return ExitCode::SUCCESS;
    }

    let diagnostics = amcad_lint::lint_workspace(&root, &paths);
    let allows = amcad_lint::workspace_allows(&root, &paths);

    // per-rule tallies: (unwaived, waived)
    let mut tally: BTreeMap<&'static str, (usize, usize)> = BTreeMap::new();
    for d in &diagnostics {
        let entry = tally.entry(d.rule).or_insert((0, 0));
        if d.waived {
            entry.1 += 1;
        } else {
            entry.0 += 1;
        }
    }
    let unwaived: usize = tally.values().map(|(u, _)| u).sum();
    let waived: usize = tally.values().map(|(_, w)| w).sum();

    match format {
        Format::Json => println!("{}", report_json(&diagnostics, &allows, unwaived, waived)),
        Format::Github => {
            for d in diagnostics.iter().filter(|d| !d.waived) {
                // newline-free by construction: messages are single-line
                println!(
                    "::error file={},line={},title=amcad-lint[{}]::{}",
                    d.path, d.line, d.rule, d.message
                );
            }
        }
        Format::Text => {
            for d in diagnostics.iter().filter(|d| !d.waived) {
                println!("{d}");
            }
            println!();
            println!("rule summary ({} unwaived, {} waived):", unwaived, waived);
            for (rule, (u, w)) in &tally {
                println!("  {rule:<24} {u} unwaived, {w} waived");
            }
            if tally.is_empty() {
                println!("  (no diagnostics)");
            }
        }
    }

    if deny && unwaived > 0 {
        eprintln!("amcad-lint --deny: {unwaived} unwaived diagnostic(s)");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Minimal JSON string escaping — the workspace has no serialization crate,
/// and diagnostic text is plain ASCII-ish prose.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn diag_json(d: &Diagnostic) -> String {
    format!(
        "{{\"path\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\",\"waived\":{}}}",
        json_escape(&d.path),
        d.line,
        json_escape(d.rule),
        json_escape(&d.message),
        d.waived
    )
}

fn allow_json(a: &AllowRecord) -> String {
    format!(
        "{{\"path\":\"{}\",\"line\":{},\"target_line\":{},\"rule\":\"{}\",\"reason\":\"{}\"}}",
        json_escape(&a.path),
        a.line,
        a.target_line,
        json_escape(&a.rule),
        json_escape(&a.reason)
    )
}

fn allows_json(allows: &[AllowRecord]) -> String {
    let items: Vec<String> = allows.iter().map(allow_json).collect();
    format!("{{\"allows\":[{}]}}", items.join(","))
}

fn report_json(
    diagnostics: &[Diagnostic],
    allows: &[AllowRecord],
    unwaived: usize,
    waived: usize,
) -> String {
    let diags: Vec<String> = diagnostics.iter().map(diag_json).collect();
    let allow_items: Vec<String> = allows.iter().map(allow_json).collect();
    format!(
        "{{\"summary\":{{\"unwaived\":{unwaived},\"waived\":{waived}}},\"diagnostics\":[{}],\"allows\":[{}]}}",
        diags.join(","),
        allow_items.join(",")
    )
}
