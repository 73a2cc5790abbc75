//! Fixture tests: every rule gets at least one firing and one
//! non-firing source fragment, plus the waiver-directive semantics
//! (allow with a reason waives; without one it is itself a diagnostic)
//! and the `#[cfg(test)]` / test-path exemptions.
//!
//! The fragments live in raw strings, so nothing here is linted as
//! real workspace code (`tests/` paths are all-test and skipped by the
//! workspace walk anyway).

use amcad_lint::{lint_source, Diagnostic, META_MISSING_REASON, META_UNKNOWN_RULE};

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

// ---------------------------------------------------------------- safety-comments

#[test]
fn safety_comments_fires_on_bare_unsafe_block_and_impl() {
    let src = r#"
fn read(p: *const u8) -> u8 {
    unsafe { *p }
}

unsafe impl Send for Wrapper {}
"#;
    let hits = unwaived(PLAIN_PATH, src);
    assert!(hits.iter().any(|&(r, l)| r == "safety-comments" && l == 3));
    assert!(hits.iter().any(|&(r, l)| r == "safety-comments" && l == 6));
}

#[test]
fn safety_comments_accepts_preceding_trailing_and_shared_comments() {
    let src = r#"
fn read(p: *const u8) -> u8 {
    // SAFETY: the caller guarantees p is valid for reads
    unsafe { *p }
}

fn read2(p: *const u8) -> u8 {
    unsafe { *p } // SAFETY: ditto, trailing form
}

// SAFETY: Wrapper owns its pointer exclusively
unsafe impl Send for Wrapper {}
unsafe impl Sync for Wrapper {}

unsafe fn declared_contract(p: *const u8) -> u8 {
    // SAFETY: unsafe_op_in_unsafe_fn forces this inner block
    unsafe { *p }
}
"#;
    assert!(
        unwaived(PLAIN_PATH, src).is_empty(),
        "above / trailing / stacked-impl-shared SAFETY comments all count, and unsafe fn decls are exempt"
    );
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
fn thread_discipline_fires_on_spawn_scope_and_crossbeam() {
    let src = r#"
fn fan_out() {
    std::thread::spawn(|| {});
    std::thread::scope(|_s| {});
    crossbeam::scope(|_s| {}).unwrap();
}
"#;
    let hits: Vec<usize> = unwaived(PLAIN_PATH, src)
        .into_iter()
        .filter(|(r, _)| *r == "thread-discipline")
        .map(|(_, l)| l)
        .collect();
    assert_eq!(hits, vec![3, 4, 5]);
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
        "the persistent pool owns its threads"
    );
    assert!(
        !rules_hit(in_runtime, src).is_empty(),
        "the rest of runtime/ is not exempt: its workers are pool workers"
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
}

#[test]
fn allow_for_a_different_rule_does_not_waive() {
    let src = r#"
fn fan_out() {
    // amcad-lint: allow(relaxed-justified) — fixture: names the wrong rule
    std::thread::spawn(|| {});
}
"#;
    assert_eq!(unwaived(PLAIN_PATH, src), vec![("thread-discipline", 4)]);
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

// ---------------------------------------------------------------- alloc-in-hot-loop

#[test]
fn alloc_in_hot_loop_fires_only_in_hot_reachable_fns() {
    let src = r#"
// amcad-lint: hot-path — fixture serving loop
fn serve(keys: &[u32]) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    for _key in keys {
        let mut list = Vec::new();
        list.push(1);
        out.push(list);
    }
    out
}

fn cold(keys: &[u32]) {
    for _key in keys {
        let _v: Vec<u32> = Vec::new();
    }
}
"#;
    let hits: Vec<usize> = unwaived(PLAIN_PATH, src)
        .into_iter()
        .filter(|(r, _)| *r == "alloc-in-hot-loop")
        .map(|(_, l)| l)
        .collect();
    assert_eq!(
        hits,
        vec![6, 7, 8],
        "ctor, push into a non-scratch local, and push into an unsized \
         local all fire inside the marked fn; the cold fn is untouched"
    );
}

#[test]
fn alloc_in_hot_loop_propagates_through_the_call_graph() {
    let src = r#"
struct Engine;

impl Retrieve for Engine {
    fn retrieve(&self, keys: &[u32]) -> usize {
        helper(keys)
    }
}

fn helper(keys: &[u32]) -> usize {
    let mut n = 0;
    for key in keys {
        let label = format!("{key}");
        n += label.len();
    }
    n
}
"#;
    let hits = unwaived(PLAIN_PATH, src);
    assert!(
        hits.iter()
            .any(|&(r, l)| r == "alloc-in-hot-loop" && l == 13),
        "helper is hot because the Retrieve impl calls it: {hits:?}"
    );
}

#[test]
fn alloc_in_hot_loop_accepts_hoisted_scratch_buffers() {
    let src = r#"
// amcad-lint: hot-path — fixture serving loop
fn serve(keys: &[u32], out: &mut Vec<u32>) {
    let mut scratch = Vec::with_capacity(keys.len());
    for key in keys {
        scratch.push(*key);
        out.push(*key);
    }
}
"#;
    assert!(
        unwaived(PLAIN_PATH, src).is_empty(),
        "&mut-param and with_capacity-local pushes are the hoisted pattern"
    );
}

#[test]
fn alloc_in_hot_loop_exempts_test_fns_and_never_seeds_from_them() {
    let src = r#"
#[cfg(test)]
mod tests {
    #[test]
    // amcad-lint: hot-path — markers on test code never seed
    fn probe() {
        let keys = [1u32];
        for _k in &keys {
            let _v: Vec<u32> = Vec::new();
        }
    }
}
"#;
    assert!(
        unwaived(PLAIN_PATH, src).is_empty(),
        "test fns are skipped and never seed hotness"
    );
}

#[test]
fn alloc_in_hot_loop_waives_with_reason() {
    let src = r#"
// amcad-lint: hot-path — fixture serving loop
fn serve(keys: &[u32]) -> usize {
    let mut n = 0;
    for key in keys {
        // amcad-lint: allow(alloc-in-hot-loop) — fixture: output strings are owned per key
        let label = format!("{key}");
        n += label.len();
    }
    n
}
"#;
    let diags = lint(PLAIN_PATH, src);
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "alloc-in-hot-loop" && d.waived),
        "the diagnostic is still recorded, waived"
    );
    assert!(unwaived(PLAIN_PATH, src).is_empty());
}

// ---------------------------------------------------------------- soa-layout

#[test]
fn soa_layout_fires_on_per_point_accessors_in_hot_loops() {
    let src = r#"
// amcad-lint: hot-path — fixture distance loop
fn scan(set: &MixedPointSet, query: &[f64]) -> f64 {
    let mut best = f64::INFINITY;
    for i in 0..set.len() {
        let p = set.point(i);
        let w = set.weight(i);
        best = best.min(dist(query, p, w));
    }
    best
}

fn build(set: &MixedPointSet) {
    for i in 0..set.len() {
        index(set.point(i));
    }
}
"#;
    let hits: Vec<usize> = unwaived(PLAIN_PATH, src)
        .into_iter()
        .filter(|(r, _)| *r == "soa-layout")
        .map(|(_, l)| l)
        .collect();
    assert_eq!(
        hits,
        vec![6, 7],
        ".point(i) and .weight(i) fire inside the hot loop; the cold \
         build fn stays free to use the accessors"
    );
}

#[test]
fn soa_layout_accepts_the_gathered_kernel_pattern_and_out_of_loop_accessors() {
    let src = r#"
// amcad-lint: hot-path — fixture distance loop
fn scan(set: &MixedPointSet, query: &[f64], qw: &[f64], out: &mut Vec<f64>) {
    let blocks = set.blocks();
    let grams = blocks.query_grams(query);
    let anchor = set.point(0);
    let mut start = 0;
    while start < set.len() {
        blocks.scan_range_into(&grams, query, qw, start, out);
        start += out.len();
    }
    consume(anchor);
}
"#;
    assert!(
        unwaived(PLAIN_PATH, src).is_empty(),
        "blocked SoA sweeps and loop-external accessors pass"
    );
}

#[test]
fn soa_layout_propagates_through_the_call_graph_and_waives_with_reason() {
    let src = r#"
struct Engine;

impl AnnIndex for Engine {
    fn search(&self, set: &MixedPointSet) -> f64 {
        helper(set)
    }
}

fn helper(set: &MixedPointSet) -> f64 {
    let mut best = f64::INFINITY;
    for i in 0..set.len() {
        // amcad-lint: allow(soa-layout) — fixture: one-off probe vetted by hand
        best = best.min(peek(set.point(i)));
        best = best.min(peek(set.weight(i)));
    }
    best
}
"#;
    let diags = lint(PLAIN_PATH, src);
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "soa-layout" && d.line == 14 && d.waived),
        "helper is hot through the AnnIndex impl, and the directive waives its line"
    );
    assert_eq!(
        unwaived(PLAIN_PATH, src),
        vec![("soa-layout", 15)],
        "the waiver shields only its target line"
    );
}

// ---------------------------------------------------------------- guard-across-park

#[test]
fn guard_across_park_fires_when_a_second_guard_outlives_the_handoff() {
    let src = r#"
fn drain(q: &Queue) {
    let stats = lock(&q.stats);
    let mut items = lock(&q.items);
    while items.is_empty() {
        items = q.ready.wait(items).unwrap();
    }
    consume(&stats);
}
"#;
    let hits = unwaived(PLAIN_PATH, src);
    assert!(
        hits.iter()
            .any(|&(r, l)| r == "guard-across-park" && l == 6),
        "`stats` is live across the wait; only the handed-off guard is exempt: {hits:?}"
    );
}

#[test]
fn guard_across_park_accepts_the_condvar_handoff_and_dropped_guards() {
    let src = r#"
fn drain(q: &Queue) {
    let stats = lock(&q.stats);
    record(&stats);
    drop(stats);
    let mut items = lock(&q.items);
    while items.is_empty() {
        items = q.ready.wait(items).unwrap();
    }
}
"#;
    assert!(
        unwaived(PLAIN_PATH, src).is_empty(),
        "wait(guard) consumes its guard, and drop(..) ends the other's liveness"
    );
}

#[test]
fn guard_across_park_sees_parks_through_the_call_graph() {
    let src = r#"
fn parky(q: &Queue) {
    let mut g = lock(&q.items);
    g = q.ready.wait(g).unwrap();
    drop(g);
}

fn caller(q: &Queue) {
    let held = lock(&q.stats);
    parky(q);
    consume(&held);
}
"#;
    let hits = unwaived(PLAIN_PATH, src);
    assert!(
        hits.iter()
            .any(|&(r, l)| r == "guard-across-park" && l == 10),
        "parky() can park, so holding `held` across the call fires: {hits:?}"
    );
}

// ---------------------------------------------------------------- unbounded-fanout

const RUNTIME_PATH: &str = "crates/retrieval/src/runtime/worker.rs";

#[test]
fn unbounded_fanout_fires_on_structurally_unbounded_loops() {
    let src = r#"
fn dispatch() {
    loop {
        step();
    }
}

fn drain(q: &Q) {
    while q.busy() {
        step();
    }
    for i in 0.. {
        probe(i);
    }
}
"#;
    let hits: Vec<usize> = unwaived(RUNTIME_PATH, src)
        .into_iter()
        .filter(|(r, _)| *r == "unbounded-fanout")
        .map(|(_, l)| l)
        .collect();
    assert_eq!(
        hits,
        vec![3, 9, 12],
        "bare loop, while, and open-range for all lack a structural bound"
    );
}

#[test]
fn unbounded_fanout_accepts_bounded_for_and_is_scoped_to_fanout_files() {
    let bounded = r#"
fn fan_out(shards: &[Shard]) {
    for shard in shards {
        probe(shard);
    }
    for r in 0..shards.len() {
        probe_idx(r);
    }
}
"#;
    assert!(
        unwaived(RUNTIME_PATH, bounded).is_empty(),
        "for over a collection or closed range is bounded by construction"
    );

    let spin = "fn spin() { loop { step(); } }\n";
    assert!(
        unwaived(PLAIN_PATH, spin).is_empty(),
        "the rule is scoped to runtime/ and shard.rs"
    );
    assert!(
        unwaived("crates/retrieval/src/shard.rs", spin)
            .iter()
            .any(|(r, _)| *r == "unbounded-fanout"),
        "shard.rs is fan-out code"
    );
}

#[test]
fn unbounded_fanout_waives_with_reason() {
    let src = r#"
fn dispatch() {
    // amcad-lint: allow(unbounded-fanout) — fixture: exits via the shutdown flag
    loop {
        step();
    }
}
"#;
    assert!(unwaived(RUNTIME_PATH, src).is_empty());
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
