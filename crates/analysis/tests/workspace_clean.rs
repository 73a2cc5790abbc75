//! The enforcement test: the workspace itself must be clean under
//! every rule. This is the same walk `cargo run -p amcad-lint -- --deny`
//! performs in CI, wired into `cargo test --workspace` so the contract
//! cannot drift even where CI is not run.

use std::path::{Path, PathBuf};

/// Standing waivers (what `amcad-lint --list-allows` prints) the
/// workspace may carry. A ratchet: lower it whenever a waiver goes, never
/// raise it — a new exception has to retire an old one.
const MAX_STANDING_WAIVERS: usize = 3;

fn workspace_root() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/analysis sits two levels below the workspace root")
        .to_path_buf();
    assert!(
        root.join("Cargo.toml").exists(),
        "workspace root not found at {}",
        root.display()
    );
    root
}

#[test]
fn workspace_has_zero_unwaived_diagnostics() {
    let root = workspace_root();
    let diagnostics = amcad_lint::lint_workspace(&root, &[]);
    let unwaived: Vec<String> = diagnostics
        .iter()
        .filter(|d| !d.waived)
        .map(|d| d.to_string())
        .collect();
    assert!(
        unwaived.is_empty(),
        "the workspace violates its own invariants:\n{}\nfix the site or add an \
         `amcad-lint: allow(<rule>)` waiver with a reason",
        unwaived.join("\n")
    );
}

#[test]
fn standing_waivers_only_ever_go_down() {
    let allows = amcad_lint::workspace_allows(&workspace_root(), &[]);
    assert!(
        allows.len() <= MAX_STANDING_WAIVERS,
        "{} standing waivers, the ratchet allows {MAX_STANDING_WAIVERS}: fix the new site \
         instead of waiving it (or retire another waiver) — MAX_STANDING_WAIVERS may only \
         be lowered",
        allows.len()
    );
}
