//! Fixture tests: every rule gets at least one firing and one
//! non-firing source fragment, plus the `#[cfg(test)]` / test-path /
//! compat exemptions.
//!
//! The fragments live in raw strings, so nothing here is linted as
//! real workspace code (`tests/` paths are all-test and skipped by the
//! workspace walk anyway).

use amcad_lint::lint_source;

/// `(rule, line)` pairs of the diagnostics for a fragment linted as a
/// normal (non-test-path) source file.
fn hits(path: &str, src: &str) -> Vec<(&'static str, usize)> {
    lint_source(path, src, false)
        .into_iter()
        .map(|d| (d.rule, d.line))
        .collect()
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
    let hits = hits(STORE_PATH, src);
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
    assert!(hits(STORE_PATH, src)
        .iter()
        .any(|(r, _)| *r == "panic-free-decode"));
    assert!(
        hits(PLAIN_PATH, src).is_empty(),
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
        hits(STORE_PATH, src).is_empty(),
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
    let hits = hits(PLAIN_PATH, src);
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
    assert!(hits(PLAIN_PATH, src).is_empty());
}

// ---------------------------------------------------------------- relaxed-justified

#[test]
fn relaxed_justified_fires_on_bare_relaxed() {
    let src = r#"
fn bump(c: &std::sync::atomic::AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}
"#;
    assert_eq!(hits(PLAIN_PATH, src), vec![("relaxed-justified", 3)]);
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
        hits(PLAIN_PATH, src).is_empty(),
        "trailing, above, and block-shared justification comments all count"
    );
}

// ---------------------------------------------------------------- file-level exemptions

#[test]
fn test_path_files_produce_no_diagnostics() {
    let src = r#"
fn helper() {
    let _ = 1.0f64.partial_cmp(&2.0).unwrap();
    COUNT.fetch_add(1, Ordering::Relaxed);
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
fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }
fn g(a: f64, b: f64) -> bool { a.partial_cmp(&b).unwrap().is_lt() }
"#;
    assert!(
        hits("crates/compat/parking_lot/src/lib.rs", src).is_empty(),
        "the compat stubs mirror external APIs and are exempt"
    );
}
