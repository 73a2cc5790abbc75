//! The enforcement test: the workspace itself must be clean under
//! every rule. This is the same walk `cargo run -p amcad-lint -- --deny`
//! performs in CI, wired into `cargo test --workspace` so the contract
//! cannot drift even where CI is not run. It also guards the clippy
//! side of the contracts: the root `clippy.toml` keeps its disallowed
//! paths, and the waivers of them only ever go down.

use std::path::{Path, PathBuf};

use amcad_lint::lexer::{attribute_end, lex};

/// Standing waivers of `clippy::disallowed_methods | disallowed_types`
/// (any attribute naming either lint) outside test code the workspace
/// may carry. A ratchet:
/// lower it whenever a waiver goes, never raise it — a new exception
/// has to retire an old one.
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
fn workspace_has_zero_diagnostics() {
    let diagnostics = amcad_lint::lint_workspace(&workspace_root(), &[]);
    let shown: Vec<String> = diagnostics.iter().map(|d| d.to_string()).collect();
    assert!(
        shown.is_empty(),
        "the workspace violates its own invariants:\n{}",
        shown.join("\n")
    );
}

#[test]
fn clippy_config_keeps_the_thread_and_lock_contracts() {
    let config = std::fs::read_to_string(workspace_root().join("clippy.toml"))
        .expect("the root clippy.toml holds the thread and lock contracts");
    for path in [
        "std::thread::spawn",
        "std::thread::scope",
        "std::sync::Mutex",
        "std::sync::RwLock",
    ] {
        assert!(
            config.contains(&format!("path = \"{path}\"")),
            "clippy.toml no longer disallows {path}"
        );
    }
}

/// The one file whose waiver may be an inner `#![expect]`: the park/wake
/// protocol owns the whole module. Anywhere else a waiver sits on the
/// item it excuses, so one attribute cannot silently cover new sites.
const MODULE_WIDE_WAIVER_FILE: &str = "crates/retrieval/src/runtime/park_pool.rs";

/// Every attribute outside test code that names `disallowed_methods` or
/// `disallowed_types`, however it is spelled (`expect`, `allow`, nested
/// in a `cfg_attr`), as `(line, is_inner_attribute)`.
fn waivers_in(source: &str) -> Vec<(usize, bool)> {
    let tokens = lex(source).tokens;
    let mut found = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.in_test {
            continue;
        }
        if let Some(end) = attribute_end(&tokens, i) {
            let attr = &tokens[i..=end];
            if attr
                .iter()
                .any(|a| a.is_ident("disallowed_methods") || a.is_ident("disallowed_types"))
            {
                found.push((t.line, attr[1].is_punct('!')));
            }
        }
    }
    found
}

/// The standing waivers across `(path, source)` files of non-test code,
/// or why they break the ratchet.
fn standing_waivers<'a>(
    files: impl IntoIterator<Item = (&'a str, &'a str)>,
) -> Result<Vec<String>, String> {
    let mut waivers = Vec::new();
    for (path, source) in files {
        for (line, inner) in waivers_in(source) {
            if inner && path != MODULE_WIDE_WAIVER_FILE {
                return Err(format!(
                    "{path}:{line}: a module-wide #![...] waiver of the clippy.toml contracts \
                     covers every later site in its module; put the waiver on the item it excuses"
                ));
            }
            waivers.push(format!("{path}:{line}"));
        }
    }
    if waivers.len() > MAX_STANDING_WAIVERS {
        return Err(format!(
            "{} standing waivers of the clippy.toml contracts, the ratchet allows \
             {MAX_STANDING_WAIVERS}: fix the new site instead of waiving it (or retire another \
             waiver) — MAX_STANDING_WAIVERS may only be lowered\n{}",
            waivers.len(),
            waivers.join("\n")
        ));
    }
    Ok(waivers)
}

#[test]
fn standing_waivers_only_ever_go_down() {
    let units: Vec<_> = amcad_lint::workspace_units(&workspace_root(), &[])
        .into_iter()
        .filter(|u| !u.all_test)
        .collect();
    if let Err(why) = standing_waivers(units.iter().map(|u| (u.path.as_str(), u.source.as_str()))) {
        panic!("{why}");
    }
}

#[test]
fn waivers_are_found_however_they_are_spelled() {
    let source = r#"
#![cfg_attr(all(), expect(clippy::disallowed_types, reason = "a"))]
#[expect(clippy::disallowed_methods, reason = "b")]
fn a() {}
#[cfg_attr(all(), expect(clippy::disallowed_methods, reason = "c"))]
fn b() {}
#[allow(clippy::disallowed_types)]
fn c() {}
#[expect(clippy::too_many_arguments, reason = "not a contract waiver")]
fn d() {}
#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "test code")]
mod tests {}
"#;
    assert_eq!(
        waivers_in(source),
        vec![(2, true), (3, false), (5, false), (7, false)]
    );
}

#[test]
fn a_cfg_attr_waiver_counts_against_the_ratchet() {
    let item = "#[expect(clippy::disallowed_methods, reason = \"r\")]\nfn f() {}\n";
    let hidden =
        "#[cfg_attr(all(), expect(clippy::disallowed_methods, reason = \"r\"))]\nfn g() {}\n";
    let full: Vec<(&str, &str)> = (0..MAX_STANDING_WAIVERS).map(|_| ("a.rs", item)).collect();
    assert!(standing_waivers(full.iter().copied()).is_ok());
    let over = full.iter().copied().chain([("b.rs", hidden)]);
    assert!(standing_waivers(over).is_err());
}

#[test]
fn a_module_wide_waiver_is_refused_outside_the_park_pool() {
    let inner = "#![expect(clippy::disallowed_types, reason = \"r\")]\nuse std::sync::Mutex;\n";
    assert!(standing_waivers([(MODULE_WIDE_WAIVER_FILE, inner)]).is_ok());
    let err = standing_waivers([("crates/mnn/src/lib.rs", inner)]).unwrap_err();
    assert!(err.starts_with("crates/mnn/src/lib.rs:1:"), "{err}");
    let hidden = "#![cfg_attr(all(), expect(clippy::disallowed_methods, reason = \"r\"))]\n";
    assert!(standing_waivers([("crates/mnn/src/lib.rs", hidden)]).is_err());
}
