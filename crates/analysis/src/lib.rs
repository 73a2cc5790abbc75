//! `amcad-lint` — the workspace's offline invariant checker.
//!
//! `cargo test` samples behaviour; the contracts this crate enforces
//! must hold at every site: the snapshot decoder must be panic-free on
//! hostile bytes, every `Ordering::Relaxed` says why no happens-before
//! edge is needed, and NaN-unsafe float orderings stay out. Clippy
//! cannot express these project-specific rules and this environment has
//! no registry access (no dylint), so — like the `crates/compat/` stubs
//! — the analyzer is built in-workspace: a hand-rolled lexer
//! ([`lexer`]) feeds three token-pattern rules ([`rules`]). Every
//! finding depends on one file alone. No parser, no type inference, no
//! dependencies, and no waivers: a finding is fixed at its site.
//!
//! The contracts clippy can check on resolved paths live in the root
//! `clippy.toml`: threads are spawned only by the serving runtime's
//! park/wake protocol and the build fork/join (`disallowed-methods`),
//! and locks come from the poison-ignoring `parking_lot` stub
//! (`disallowed-types`). Their waivers are
//! `#[expect(clippy::…, reason = "…")]` attributes, and `// SAFETY:`
//! comments on `unsafe` are clippy's `undocumented_unsafe_blocks`, all
//! denied in the root `Cargo.toml`. See `src/README.md` for the
//! contract behind each rule.

pub mod lexer;
pub mod rules;

use std::fmt;
use std::path::{Path, PathBuf};

/// One finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-indexed line.
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
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

/// One source file to lint.
pub struct SourceUnit {
    /// Workspace-relative path with `/` separators, used for
    /// location-scoped rules and reporting.
    pub path: String,
    pub source: String,
    /// Marks files under `tests/` / `benches/` (everything in them is
    /// test code).
    pub all_test: bool,
}

/// Lint one file: every finding depends on its file alone.
fn lint_unit(unit: &SourceUnit) -> Vec<Diagnostic> {
    let lexed = lexer::lex(&unit.source);
    rules::run_rules(&unit.path, &lexed, unit.all_test)
        .into_iter()
        .map(|raw| Diagnostic {
            path: unit.path.clone(),
            line: raw.line,
            rule: raw.rule,
            message: raw.message,
        })
        .collect()
}

/// Lint one source string.
pub fn lint_source(path: &str, source: &str, all_test: bool) -> Vec<Diagnostic> {
    lint_unit(&SourceUnit {
        path: path.to_string(),
        source: source.to_string(),
        all_test,
    })
}

/// Directories never descended into: build output, VCS metadata, and
/// the compat stubs (vendored stand-ins for external crates — they
/// mirror *other* projects' APIs, so the workspace rules do not apply
/// to them).
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
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
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

/// Read every `.rs` file under `root` (or, if `paths` is nonempty,
/// under each given file/directory) into [`SourceUnit`]s (unreadable /
/// non-UTF-8 sources are skipped — they never reach rustc either).
pub fn workspace_units(root: &Path, paths: &[PathBuf]) -> Vec<SourceUnit> {
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

/// Lint every `.rs` file [`workspace_units`] selects.
pub fn lint_workspace(root: &Path, paths: &[PathBuf]) -> Vec<Diagnostic> {
    workspace_units(root, paths)
        .iter()
        .flat_map(lint_unit)
        .collect()
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
