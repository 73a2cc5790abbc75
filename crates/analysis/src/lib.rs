//! `amcad-lint` — the workspace's offline invariant checker.
//!
//! `cargo test` samples behaviour; the contracts this crate enforces
//! must hold at every site: the snapshot decoder must be panic-free on
//! hostile bytes, every `Ordering::Relaxed` says why no happens-before
//! edge is needed, NaN-unsafe float orderings stay out, threads are
//! spawned only by the runtime's pool, and locks come from the
//! poison-ignoring `parking_lot` stub. Clippy cannot express
//! project-specific rules and this environment has no registry access
//! (no dylint), so — like the `crates/compat/` stubs — the analyzer is
//! built in-workspace: a hand-rolled lexer ([`lexer`]) feeds five
//! token-pattern rules ([`rules`]), whose findings are resolved against
//! the file's waivers. Every finding depends on one file alone. No
//! parser, no type inference, no dependencies. (`// SAFETY:` comments
//! on `unsafe` are clippy's `undocumented_unsafe_blocks`, denied in the
//! root `Cargo.toml`.)
//!
//! A violation a human has vetted is waived in place:
//!
//! ```text
//! // amcad-lint: allow(no-std-sync-primitives) — Condvar requires std MutexGuard
//! ```
//!
//! The reason text after the rule name is **mandatory**; an allow
//! without one is itself an (unwaivable) diagnostic, as is an allow
//! naming a rule that does not exist and an allow whose target line has
//! no finding for its rule. `--list-allows` prints the full
//! standing-waiver inventory. See `src/README.md` for the contract
//! behind each rule.

pub mod lexer;
pub mod rules;

use std::fmt;
use std::path::{Path, PathBuf};

use lexer::{LexedFile, LineKind};
use rules::RawDiagnostic;

/// One finding, resolved against the file's allow directives.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-indexed line.
    pub line: usize,
    /// Rule name, or a meta rule (`allow-missing-reason`,
    /// `allow-unknown-rule`, `allow-unused`) for malformed or stale
    /// directives.
    pub rule: &'static str,
    pub message: String,
    /// Whether a well-formed `allow(...)` waiver directive with a
    /// reason covers this finding. Meta diagnostics are never waived.
    pub waived: bool,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// A parsed, well-formed `allow(<rule>) — <reason>` waiver directive.
#[derive(Debug, Clone)]
struct Allow {
    rule: String,
    reason: String,
    /// Line the directive itself starts on.
    line: usize,
    /// The code line the directive shields: the directive's own line
    /// for a trailing comment, else the next code line below it.
    target_line: usize,
}

/// One standing waiver, for the `--list-allows` inventory and the JSON
/// report.
#[derive(Debug, Clone)]
pub struct AllowRecord {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-indexed line the directive starts on.
    pub line: usize,
    /// 1-indexed code line the directive shields.
    pub target_line: usize,
    pub rule: String,
    pub reason: String,
}

impl fmt::Display for AllowRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: allow({}) — {}",
            self.path, self.line, self.rule, self.reason
        )
    }
}

/// Meta rule name: an allow directive without the mandatory reason.
pub const META_MISSING_REASON: &str = "allow-missing-reason";
/// Meta rule name: an allow directive naming an unknown rule.
pub const META_UNKNOWN_RULE: &str = "allow-unknown-rule";
/// Meta rule name: a well-formed allow whose target line has no finding
/// for the rule it names.
pub const META_UNUSED_ALLOW: &str = "allow-unused";

const DIRECTIVE: &str = "amcad-lint:";

/// Extract allow directives (and meta diagnostics for malformed ones)
/// from a file's comments.
fn parse_allows(file: &LexedFile) -> (Vec<Allow>, Vec<RawDiagnostic>) {
    let mut allows = Vec::new();
    let mut meta = Vec::new();
    for comment in &file.comments {
        if comment.is_doc() {
            continue; // docs may *mention* directives without arming them
        }
        let mut rest = comment.text.as_str();
        while let Some(at) = rest.find(DIRECTIVE) {
            rest = &rest[at + DIRECTIVE.len()..];
            let Some(args) = rest.trim_start().strip_prefix("allow(") else {
                meta.push(RawDiagnostic {
                    rule: META_UNKNOWN_RULE,
                    line: comment.start_line,
                    message: format!(
                        "malformed directive — expected `{DIRECTIVE} allow(<rule>) — <reason>`"
                    ),
                });
                continue;
            };
            let Some(close) = args.find(')') else {
                meta.push(RawDiagnostic {
                    rule: META_UNKNOWN_RULE,
                    line: comment.start_line,
                    message: "unclosed allow( directive".to_string(),
                });
                break;
            };
            let rule = args[..close].trim();
            rest = &args[close + 1..];
            if !rules::RULE_NAMES.contains(&rule) {
                meta.push(RawDiagnostic {
                    rule: META_UNKNOWN_RULE,
                    line: comment.start_line,
                    message: format!("allow({rule}) names no known rule"),
                });
                continue;
            }
            // the reason is mandatory: strip the separator the
            // convention uses (— or - or :) and demand nonempty text
            // up to the end of the comment / the next directive
            let upto = rest.find(DIRECTIVE).unwrap_or(rest.len());
            let reason = rest[..upto]
                .trim_start_matches(|c: char| {
                    c.is_whitespace() || c == '\u{2014}' || c == '\u{2013}' || c == '-' || c == ':'
                })
                .trim_end_matches(['*', '/'])
                .trim();
            if reason.is_empty() {
                meta.push(RawDiagnostic {
                    rule: META_MISSING_REASON,
                    line: comment.start_line,
                    message: format!(
                        "allow({rule}) has no reason — waivers must say why the rule does not apply"
                    ),
                });
                continue;
            }
            let target_line = if file.line_kind(comment.start_line) == LineKind::Code {
                comment.start_line // trailing comment shields its own line
            } else {
                file.next_code_line(comment.end_line + 1)
                    .unwrap_or(comment.end_line)
            };
            allows.push(Allow {
                rule: rule.to_string(),
                reason: reason.to_string(),
                line: comment.start_line,
                target_line,
            });
        }
    }
    (allows, meta)
}

/// One source file handed to [`lint_sources`].
pub struct SourceUnit {
    /// Workspace-relative path with `/` separators, used for
    /// location-scoped rules and reporting.
    pub path: String,
    pub source: String,
    /// Marks files under `tests/` / `benches/` (everything in them is
    /// test code).
    pub all_test: bool,
}

/// Lint one file: run the rules, resolve the file's waivers against
/// the findings, and report malformed or unused waivers.
fn lint_unit(unit: &SourceUnit) -> Vec<Diagnostic> {
    let lexed = lexer::lex(&unit.source);
    let (allows, mut meta) = parse_allows(&lexed);
    let raw = rules::run_rules(&unit.path, &lexed, unit.all_test);
    let covers = |a: &Allow, r: &RawDiagnostic| a.rule == r.rule && a.target_line == r.line;
    meta.extend(
        allows
            .iter()
            .filter(|a| !raw.iter().any(|r| covers(a, r)))
            .map(|a| RawDiagnostic {
                rule: META_UNUSED_ALLOW,
                line: a.line,
                message: format!(
                    "allow({}) covers no {} finding on line {} — delete the stale waiver",
                    a.rule, a.rule, a.target_line
                ),
            }),
    );
    let mut out: Vec<Diagnostic> = raw
        .into_iter()
        .map(|raw| Diagnostic {
            waived: allows.iter().any(|a| covers(a, &raw)),
            path: unit.path.clone(),
            line: raw.line,
            rule: raw.rule,
            message: raw.message,
        })
        .collect();
    if !unit.all_test {
        out.extend(meta.into_iter().map(|raw| Diagnostic {
            path: unit.path.clone(),
            line: raw.line,
            rule: raw.rule,
            message: raw.message,
            waived: false,
        }));
    }
    out.sort_by(|a, b| a.line.cmp(&b.line).then_with(|| a.rule.cmp(b.rule)));
    out
}

/// Lint a set of source files, each on its own: every finding depends
/// on its file alone. `lint_workspace` feeds it the files on disk,
/// `lint_source` a single string.
pub fn lint_sources(units: &[SourceUnit]) -> Vec<Diagnostic> {
    units.iter().flat_map(lint_unit).collect()
}

/// Lint one source string.
pub fn lint_source(path: &str, source: &str, all_test: bool) -> Vec<Diagnostic> {
    lint_sources(&[SourceUnit {
        path: path.to_string(),
        source: source.to_string(),
        all_test,
    }])
}

/// The standing-waiver inventory of a set of sources: every
/// well-formed `allow(<rule>) — <reason>` directive.
pub fn allows_in_sources(units: &[SourceUnit]) -> Vec<AllowRecord> {
    let mut out = Vec::new();
    for unit in units {
        let lexed = lexer::lex(&unit.source);
        let (allows, _meta) = parse_allows(&lexed);
        out.extend(allows.into_iter().map(|a| AllowRecord {
            path: unit.path.clone(),
            line: a.line,
            target_line: a.target_line,
            rule: a.rule,
            reason: a.reason,
        }));
    }
    out
}

/// Directories never descended into: build output, VCS metadata, and
/// the compat stubs (vendored stand-ins for external crates — they
/// mirror *other* projects' APIs, including `std::sync` re-exports, so
/// the workspace rules do not apply to them).
fn skip_dir(path: &Path) -> bool {
    let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
        return true;
    };
    if name == "target" || name.starts_with('.') {
        return true;
    }
    name == "compat"
        && path
            .parent()
            .and_then(|p| p.file_name())
            .and_then(|n| n.to_str())
            == Some("crates")
}

/// Recursively collect every `.rs` file under `dir`.
pub fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if !skip_dir(&path) {
                collect_rs_files(&path, out);
            }
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

/// Whether a path component marks the file as wholly test code.
fn is_test_path(rel: &str) -> bool {
    rel.split('/').any(|c| c == "tests" || c == "benches")
}

/// Read the files selected by `root` + `paths` into [`SourceUnit`]s
/// (unreadable / non-UTF-8 sources are skipped — they never reach
/// rustc either).
fn load_units(root: &Path, paths: &[PathBuf]) -> Vec<SourceUnit> {
    let mut files = Vec::new();
    if paths.is_empty() {
        collect_rs_files(root, &mut files);
    } else {
        for p in paths {
            let p = if p.is_absolute() {
                p.clone()
            } else {
                root.join(p)
            };
            if p.is_dir() {
                collect_rs_files(&p, &mut files);
            } else {
                files.push(p);
            }
        }
    }
    files
        .into_iter()
        .filter_map(|path| {
            let rel: String = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let source = std::fs::read_to_string(&path).ok()?;
            let all_test = is_test_path(&rel);
            Some(SourceUnit {
                path: rel,
                source,
                all_test,
            })
        })
        .collect()
}

/// Lint one file on disk. `root` anchors the workspace-relative path
/// used in reports.
pub fn lint_file(root: &Path, path: &Path) -> Vec<Diagnostic> {
    lint_sources(&load_units(root, &[path.to_path_buf()]))
}

/// Lint every `.rs` file under `root` (or, if `paths` is nonempty,
/// under each given file/directory).
pub fn lint_workspace(root: &Path, paths: &[PathBuf]) -> Vec<Diagnostic> {
    lint_sources(&load_units(root, paths))
}

/// The standing-waiver inventory of the workspace on disk.
pub fn workspace_allows(root: &Path, paths: &[PathBuf]) -> Vec<AllowRecord> {
    allows_in_sources(&load_units(root, paths))
}

/// Locate the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> PathBuf {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return start.to_path_buf();
        }
    }
}
