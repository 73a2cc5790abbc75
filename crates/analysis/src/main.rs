//! CLI driver: `cargo run -p amcad-lint -- --deny [paths…]`
//!
//! Walks the workspace (or the given files/directories), prints every
//! diagnostic plus a per-rule summary, and — with `--deny` — exits
//! nonzero if any diagnostic remains. CI runs this ahead of the test
//! jobs; `--format github` emits workflow annotations.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Github,
}

fn main() -> ExitCode {
    let mut deny = false;
    let mut format = Format::Text;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--format" => {
                format = match args.next().as_deref() {
                    Some("text") => Format::Text,
                    Some("github") => Format::Github,
                    other => {
                        eprintln!(
                            "amcad-lint: --format expects text|github, got {:?}",
                            other.unwrap_or("<nothing>")
                        );
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--help" | "-h" => {
                println!("usage: amcad-lint [--deny] [--format text|github] [paths…]");
                println!("lints the workspace (default: all .rs files under the workspace root,");
                println!("skipping target/, crates/compat/, and dotdirs); --deny exits nonzero");
                println!("on any diagnostic. --format github emits ::error workflow annotations.");
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

    let diagnostics = amcad_lint::lint_workspace(&root, &paths);
    match format {
        Format::Github => {
            for d in &diagnostics {
                // newline-free by construction: messages are single-line
                println!(
                    "::error file={},line={},title=amcad-lint[{}]::{}",
                    d.path, d.line, d.rule, d.message
                );
            }
        }
        Format::Text => {
            let mut tally: BTreeMap<&'static str, usize> = BTreeMap::new();
            for d in &diagnostics {
                println!("{d}");
                *tally.entry(d.rule).or_insert(0) += 1;
            }
            println!();
            println!("rule summary ({} diagnostic(s)):", diagnostics.len());
            for (rule, n) in &tally {
                println!("  {rule:<24} {n}");
            }
            if tally.is_empty() {
                println!("  (no diagnostics)");
            }
        }
    }

    if deny && !diagnostics.is_empty() {
        eprintln!("amcad-lint --deny: {} diagnostic(s)", diagnostics.len());
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
