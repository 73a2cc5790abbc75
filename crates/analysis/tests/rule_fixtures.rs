//! Fixture tests: every rule gets at least one firing and one
//! non-firing source fragment, plus the waiver-directive semantics
//! (allow with a reason waives; without one it is itself a diagnostic)
//! and the `#[cfg(test)]` / test-path exemptions.
//!
//! The fragments live in raw strings, so nothing here is linted as
//! real workspace code (`tests/` paths are all-test and skipped by the
//! workspace walk anyway).

use amcad_lint::{
    lint_source, Diagnostic, META_MISSING_REASON, META_UNKNOWN_RULE, META_UNUSED_ALLOW,
};

/// Lint a fragment as a normal (non-test-path) source file.
fn lint(path: &str, src: &str) -> Vec<Diagnostic> {
    lint_source(path, src, false)
}

/// `(rule, line)` pairs of the unwaived diagnostics.
fn unwaived(path: &str, src: &str) -> Vec<(&'static str, usize)> {
    lint(path, src)
        .into_iter()
        .filter(|d| !d.waived)
        .map(|d| (d.rule, d.line))
        .collect()
}

fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = unwaived(path, src).into_iter().map(|(r, _)| r).collect();
    rules.dedup();
    rules
}

const STORE_PATH: &str = "crates/retrieval/src/store/format.rs";
const PLAIN_PATH: &str = "crates/retrieval/src/engine.rs";

// ---------------------------------------------------------------- panic-free-decode

#[test]
fn panic_free_decode_fires_on_unwrap_expect_panic_and_indexing() {
    let src = r#"
fn decode(bytes: &[u8]) -> u64 {
    let n = parse(bytes).unwrap();
    let m = parse(bytes).expect("valid");
    if n == 0 { panic!("empty"); }
    if m == 0 { unreachable!(); }
    let first = bytes[0];
    u64::from(first)
}
"#;
    let hits = unwaived(STORE_PATH, src);
    let lines: Vec<usize> = hits
        .iter()
        .filter(|(r, _)| *r == "panic-free-decode")
        .map(|&(_, l)| l)
        .collect();
    assert_eq!(lines, vec![3, 4, 5, 6, 7], "one diagnostic per hazard");
}

#[test]
fn panic_free_decode_is_scoped_to_store_paths() {
    let src = "fn f(v: &[u8]) -> u8 { v[0] }\n";
    assert!(unwaived(STORE_PATH, src)
        .iter()
        .any(|(r, _)| *r == "panic-free-decode"));
    assert!(
        unwaived(PLAIN_PATH, src).is_empty(),
        "only store/ is decode-critical"
    );
}

#[test]
fn panic_free_decode_exempts_cfg_test_and_slice_patterns() {
    let src = r#"
fn decode(bytes: &[u8]) -> Option<u8> {
    let [a] = bytes.get(..1)?.try_into().ok()?;
    Some(a)
}

#[cfg(test)]
mod tests {
    #[test]
    fn round_trip() {
        let v = vec![1u8];
        assert_eq!(v[0], super::decode(&v).unwrap());
    }
}
"#;
    assert!(
        unwaived(STORE_PATH, src).is_empty(),
        "let [a] = .. is a pattern, not an index, and tests may unwrap"
    );
}

// ---------------------------------------------------------------- nan-ordering

#[test]
fn nan_ordering_fires_on_partial_cmp_unwrap_and_comparators() {
    let src = r#"
fn rank(v: &mut Vec<(u32, f64)>, a: f64, b: f64) {
    let _ = a.partial_cmp(&b).unwrap();
    v.sort_by(|x, y| y.1.partial_cmp(&x.1).expect("no NaN"));
}
"#;
    let hits = unwaived(PLAIN_PATH, src);
    assert!(hits.iter().any(|&(r, l)| r == "nan-ordering" && l == 3));
    assert!(
        hits.iter().any(|&(r, l)| r == "nan-ordering" && l == 4),
        "a comparator built on partial_cmp is flagged even through sort_by"
    );
}

#[test]
fn nan_ordering_accepts_total_cmp_and_bare_partial_cmp() {
    let src = r#"
fn rank(v: &mut Vec<(u32, f64)>, a: f64, b: f64) -> Option<std::cmp::Ordering> {
    v.sort_by(|x, y| y.1.total_cmp(&x.1));
    v.sort_unstable_by(|x, y| x.1.total_cmp(&y.1));
    a.partial_cmp(&b)
}
"#;
    assert!(unwaived(PLAIN_PATH, src).is_empty());
}

// ---------------------------------------------------------------- relaxed-justified

#[test]
fn relaxed_justified_fires_on_bare_relaxed() {
    let src = r#"
fn bump(c: &std::sync::atomic::AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}
"#;
    assert_eq!(unwaived(PLAIN_PATH, src), vec![("relaxed-justified", 3)]);
}

#[test]
fn relaxed_justified_accepts_trailing_above_and_shared_comments() {
    let src = r#"
fn bump(c: &Counters) {
    c.a.fetch_add(1, Ordering::Relaxed); // monotonic telemetry only
    // these counters are read after the join, which orders the writes
    c.b.fetch_add(1, Ordering::Relaxed);
    c.c.fetch_add(1, Ordering::Relaxed);
}
"#;
    assert!(
        unwaived(PLAIN_PATH, src).is_empty(),
        "trailing, above, and block-shared justification comments all count"
    );
}

// ---------------------------------------------------------------- thread-discipline

#[test]
fn thread_discipline_fires_on_spawn_and_scope() {
    let src = r#"
fn fan_out() {
    std::thread::spawn(|| {});
    std::thread::scope(|_s| {});
}
"#;
    let hits: Vec<usize> = unwaived(PLAIN_PATH, src)
        .into_iter()
        .filter(|(r, _)| *r == "thread-discipline")
        .map(|(_, l)| l)
        .collect();
    assert_eq!(hits, vec![3, 4]);
}

#[test]
fn thread_discipline_exempts_runtime_and_tests() {
    let src = r#"
fn fan_out() {
    std::thread::spawn(|| {});
}
"#;
    let in_pool = "crates/retrieval/src/runtime/park_pool.rs";
    let in_runtime = "crates/retrieval/src/runtime/worker.rs";
    let outside = "crates/retrieval/src/pool.rs";
    assert!(
        rules_hit(in_pool, src).is_empty(),
        "the park/wake protocol owns the runtime's threads"
    );
    assert!(
        !rules_hit(in_runtime, src).is_empty(),
        "the rest of runtime/ is not exempt: its workers are spawned in park_pool.rs"
    );
    assert!(
        !rules_hit(outside, src).is_empty(),
        "a pool outside runtime/ is not exempt"
    );

    let in_test = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn spawns() {
        std::thread::spawn(|| {}).join().unwrap();
    }
}
"#;
    assert!(
        rules_hit(PLAIN_PATH, in_test).is_empty(),
        "tests may spawn probes"
    );
}

// ---------------------------------------------------------------- no-std-sync-primitives

#[test]
fn no_std_sync_primitives_fires_on_direct_and_grouped_uses() {
    let src = r#"
use std::sync::Mutex;
use std::sync::{Arc, RwLock};

fn guard(m: &std::sync::Mutex<u32>) -> u32 {
    *m.lock().unwrap()
}
"#;
    let hits: Vec<usize> = unwaived(PLAIN_PATH, src)
        .into_iter()
        .filter(|(r, _)| *r == "no-std-sync-primitives")
        .map(|(_, l)| l)
        .collect();
    assert_eq!(
        hits,
        vec![2, 3, 5],
        "direct path, use-group, and type position all flagged"
    );
}

#[test]
fn no_std_sync_primitives_accepts_arc_atomics_and_parking_lot() {
    let src = r#"
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, MutexGuard, PoisonError};
use parking_lot::{Mutex, RwLock};
"#;
    assert!(
        unwaived(PLAIN_PATH, src).is_empty(),
        "Arc, guards, atomics, and the parking_lot stub are all fine"
    );
}

// ---------------------------------------------------------------- allow directives

#[test]
fn allow_with_reason_waives_exactly_the_target_line() {
    let above = r#"
fn fan_out() {
    // amcad-lint: allow(thread-discipline) — fixture: probe thread vetted by hand
    std::thread::spawn(|| {});
    std::thread::spawn(|| {});
}
"#;
    let diags = lint(PLAIN_PATH, above);
    assert!(
        diags.iter().any(|d| d.line == 4 && d.waived),
        "the line under the directive is waived (the diagnostic is still recorded)"
    );
    assert_eq!(
        unwaived(PLAIN_PATH, above),
        vec![("thread-discipline", 5)],
        "the waiver shields only its target line"
    );

    let trailing = r#"
fn fan_out() {
    std::thread::spawn(|| {}); // amcad-lint: allow(thread-discipline) — fixture probe thread
}
"#;
    assert!(unwaived(PLAIN_PATH, trailing).is_empty());
}

#[test]
fn allow_without_reason_is_itself_a_diagnostic() {
    let src = r#"
fn fan_out() {
    // amcad-lint: allow(thread-discipline)
    std::thread::spawn(|| {});
}
"#;
    let hits = unwaived(PLAIN_PATH, src);
    assert!(
        hits.iter()
            .any(|&(r, l)| r == META_MISSING_REASON && l == 3),
        "a reasonless allow is reported"
    );
    assert!(
        hits.iter()
            .any(|&(r, l)| r == "thread-discipline" && l == 4),
        "and it waives nothing"
    );
}

#[test]
fn allow_naming_an_unknown_rule_is_itself_a_diagnostic() {
    let src = r#"
// amcad-lint: allow(made-up-rule) — no such rule exists
fn f() {}
"#;
    assert_eq!(unwaived(PLAIN_PATH, src), vec![(META_UNKNOWN_RULE, 2)]);

    let deleted = r#"
// amcad-lint: allow(alloc-in-hot-loop) — the structural rules are gone
fn f() {}
"#;
    assert_eq!(unwaived(PLAIN_PATH, deleted), vec![(META_UNKNOWN_RULE, 2)]);
}

#[test]
fn allow_for_a_different_rule_does_not_waive() {
    let src = r#"
fn fan_out() {
    // amcad-lint: allow(relaxed-justified) — fixture: names the wrong rule
    std::thread::spawn(|| {});
}
"#;
    assert_eq!(
        unwaived(PLAIN_PATH, src),
        vec![(META_UNUSED_ALLOW, 3), ("thread-discipline", 4)],
        "the finding stands, and the misdirected waiver is reported as unused"
    );
}

#[test]
fn allow_covering_no_finding_is_itself_a_diagnostic() {
    let src = r#"
fn fan_out() {
    // amcad-lint: allow(thread-discipline) — fixture: the spawn it covered is gone
    let _ = 1;
    std::thread::spawn(|| {}); // amcad-lint: allow(thread-discipline) — fixture probe thread
}
"#;
    assert_eq!(
        unwaived(PLAIN_PATH, src),
        vec![(META_UNUSED_ALLOW, 3)],
        "a stale waiver is reported; the one that covers its spawn is not"
    );
}

// ---------------------------------------------------------------- file-level exemptions

#[test]
fn test_path_files_produce_no_diagnostics() {
    let src = r#"
fn helper() {
    std::thread::spawn(|| {});
    let _ = 1.0f64.partial_cmp(&2.0).unwrap();
}
"#;
    assert!(
        lint_source("crates/retrieval/tests/hot_swap.rs", src, true).is_empty(),
        "integration tests and benches are wholly test code"
    );
}

#[test]
fn compat_stub_files_produce_no_diagnostics() {
    let src = r#"
pub use std::sync::Mutex;
fn f() { std::thread::spawn(|| {}); }
"#;
    assert!(
        lint("crates/compat/parking_lot/src/lib.rs", src).is_empty(),
        "the compat stubs mirror external APIs and are exempt"
    );
}

// ---------------------------------------------------------------- allow enumeration

#[test]
fn allows_are_enumerated_with_reasons_and_targets() {
    use amcad_lint::{allows_in_sources, SourceUnit};
    let src = r#"
fn fan_out() {
    // amcad-lint: allow(thread-discipline) — fixture: vetted probe thread
    std::thread::spawn(|| {});
}
"#;
    let units = vec![SourceUnit {
        path: PLAIN_PATH.to_string(),
        source: src.to_string(),
        all_test: false,
    }];
    let allows = allows_in_sources(&units);
    assert_eq!(allows.len(), 1);
    let a = &allows[0];
    assert_eq!(a.rule, "thread-discipline");
    assert_eq!(a.line, 3);
    assert_eq!(a.target_line, 4);
    assert_eq!(a.reason, "fixture: vetted probe thread");
    assert_eq!(
        a.to_string(),
        format!("{PLAIN_PATH}:3: allow(thread-discipline) — fixture: vetted probe thread")
    );
}
