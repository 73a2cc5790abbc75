//! The six token-pattern deny-by-default rules. Each is a pattern
//! check over a [`LexedFile`]; see `src/README.md` for the contract
//! behind each rule and the incident that motivated it. The four
//! structural rules (`alloc-in-hot-loop`, `guard-across-park`,
//! `unbounded-fanout`, `soa-layout`) live in [`crate::structural`].

use crate::lexer::{LexedFile, LineKind, Token, TokenKind};
use std::collections::BTreeSet;

/// Every rule name an `allow(<rule>)` waiver directive may name.
pub const RULE_NAMES: &[&str] = &[
    "panic-free-decode",
    "nan-ordering",
    "safety-comments",
    "relaxed-justified",
    "thread-discipline",
    "no-std-sync-primitives",
    "alloc-in-hot-loop",
    "guard-across-park",
    "unbounded-fanout",
    "soa-layout",
];

/// One rule violation before waiver resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawDiagnostic {
    pub rule: &'static str,
    /// 1-indexed line.
    pub line: usize,
    pub message: String,
}

fn diag(out: &mut Vec<RawDiagnostic>, rule: &'static str, line: usize, message: impl Into<String>) {
    out.push(RawDiagnostic {
        rule,
        line,
        message: message.into(),
    });
}

/// Run every applicable rule over one lexed file. `path` is the
/// workspace-relative path with `/` separators — several rules are
/// scoped by location. Files that are test-only (`tests/`, `benches/`)
/// or inside `crates/compat/` produce no diagnostics.
pub fn run_rules(path: &str, file: &LexedFile, all_test: bool) -> Vec<RawDiagnostic> {
    if all_test || path.contains("crates/compat/") {
        return Vec::new();
    }
    let mut out = Vec::new();
    if path.contains("/store/") || path.starts_with("store/") {
        panic_free_decode(file, &mut out);
    }
    nan_ordering(file, &mut out);
    safety_comments(file, &mut out);
    relaxed_justified(file, &mut out);
    if !in_thread_sanctioned_location(path) {
        thread_discipline(file, &mut out);
    }
    no_std_sync_primitives(file, &mut out);
    out.sort_by(|a, b| a.line.cmp(&b.line).then_with(|| a.rule.cmp(b.rule)));
    out
}

/// The one location where spawning OS threads is the module's actual
/// job: the persistent pool, whose workers are every resident thread
/// (the serving runtime's included).
fn in_thread_sanctioned_location(path: &str) -> bool {
    path.ends_with("runtime/park_pool.rs")
}

/// Identifiers that precede `[` without it being an index expression
/// (slice patterns, loop bodies after keywords, ...).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "in", "if", "else", "match", "return", "mut", "ref", "move", "as", "while", "for",
    "loop", "box", "dyn", "where", "impl", "fn", "use", "pub", "const", "static", "type", "struct",
    "enum", "union", "trait", "unsafe", "break", "continue", "yield",
];

/// **panic-free-decode** — the PR 6 contract: snapshot decode must
/// return `Err` on hostile bytes, never panic. Inside `store/`,
/// non-test code may not call `.unwrap()` / `.expect()`, invoke
/// `panic!` / `unreachable!`, or index into a slice (`x[i]` panics on
/// out-of-range; use `.get()`).
fn panic_free_decode(file: &LexedFile, out: &mut Vec<RawDiagnostic>) {
    const RULE: &str = "panic-free-decode";
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        match &t.kind {
            TokenKind::Ident(name)
                if (name == "unwrap" || name == "expect") && i > 0 && toks[i - 1].is_punct('.') =>
            {
                diag(
                    out,
                    RULE,
                    t.line,
                    format!(
                        ".{name}() can panic — store/ decode paths must return Err on hostile bytes"
                    ),
                );
            }
            TokenKind::Ident(name)
                if (name == "panic" || name == "unreachable")
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('!')) =>
            {
                diag(
                    out,
                    RULE,
                    t.line,
                    format!(
                        "{name}! is forbidden in store/ — decode paths must return Err, not abort"
                    ),
                );
            }
            TokenKind::Punct('[') if i > 0 => {
                let indexing = match &toks[i - 1].kind {
                    TokenKind::Ident(name) => !NON_INDEX_KEYWORDS.contains(&name.as_str()),
                    TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('?') => true,
                    _ => false,
                };
                if indexing {
                    diag(
                        out,
                        RULE,
                        t.line,
                        "slice indexing panics on out-of-range — use .get()/.get_mut() in store/ decode paths",
                    );
                }
            }
            _ => {}
        }
    }
}

/// **nan-ordering** — the PR 3 regression guard: `.partial_cmp(..)
/// .unwrap()` panics the first time a NaN score appears, and
/// float comparators built on `partial_cmp` inside `sort_by` /
/// `max_by` / `min_by` silently bypass the `total_cmp` convention.
fn nan_ordering(file: &LexedFile, out: &mut Vec<RawDiagnostic>) {
    const RULE: &str = "nan-ordering";
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        let Some(name) = t.ident() else { continue };
        let is_method_call = i > 0 && toks[i - 1].is_punct('.');
        if name == "partial_cmp" && is_method_call {
            if let Some(close) = matching_delim(toks, i + 1, '(', ')') {
                let chained_unwrap = toks.get(close + 1).is_some_and(|n| n.is_punct('.'))
                    && toks
                        .get(close + 2)
                        .is_some_and(|n| n.is_ident("unwrap") || n.is_ident("expect"));
                if chained_unwrap {
                    diag(
                        out,
                        RULE,
                        t.line,
                        ".partial_cmp(..).unwrap() panics on NaN — use f32::total_cmp/f64::total_cmp",
                    );
                }
            }
        }
        let is_comparator_sink = matches!(
            name,
            "sort_by" | "sort_unstable_by" | "max_by" | "min_by" | "binary_search_by"
        );
        if is_comparator_sink && is_method_call {
            if let Some(close) = matching_delim(toks, i + 1, '(', ')') {
                let group = &toks[i + 1..close];
                let uses_partial = group.iter().any(|g| g.is_ident("partial_cmp"));
                let uses_total = group.iter().any(|g| g.is_ident("total_cmp"));
                if uses_partial && !uses_total {
                    diag(
                        out,
                        RULE,
                        t.line,
                        format!("{name} comparator built on partial_cmp — NaN breaks the ordering; use total_cmp"),
                    );
                }
            }
        }
    }
}

/// **safety-comments** — every `unsafe` block or `unsafe impl` must be
/// immediately preceded by (or carry on its line) a comment containing
/// `SAFETY:` stating the invariant that makes it sound. Stacked
/// `unsafe impl` lines (`Send` + `Sync` for the same type) may share
/// one comment. `unsafe fn` declarations are exempt — their bodies are
/// covered by the denied `unsafe_op_in_unsafe_fn` rustc lint, which
/// forces an inner `unsafe {}` block that this rule then checks.
fn safety_comments(file: &LexedFile, out: &mut Vec<RawDiagnostic>) {
    const RULE: &str = "safety-comments";
    let toks = &file.tokens;
    // lines on which an `unsafe impl` item starts, so a stacked pair can
    // share the comment above the first
    let unsafe_impl_lines: BTreeSet<usize> = toks
        .iter()
        .enumerate()
        .filter(|(i, t)| {
            t.is_ident("unsafe") && toks.get(i + 1).is_some_and(|n| n.is_ident("impl"))
        })
        .map(|(_, t)| t.line)
        .collect();
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || !t.is_ident("unsafe") {
            continue;
        }
        let next = toks.get(i + 1);
        let is_block = next.is_some_and(|n| n.is_punct('{'));
        let is_impl = next.is_some_and(|n| n.is_ident("impl"));
        if !(is_block || is_impl) {
            continue; // `unsafe fn` / `unsafe trait` declarations
        }
        if !has_safety_comment(file, t.line, &unsafe_impl_lines) {
            let what = if is_impl {
                "unsafe impl"
            } else {
                "unsafe block"
            };
            diag(
                out,
                RULE,
                t.line,
                format!("{what} without an immediately preceding // SAFETY: comment"),
            );
        }
    }
}

fn line_has_comment_with(file: &LexedFile, line: usize, needle: &str) -> bool {
    file.comments
        .iter()
        .any(|c| c.start_line <= line && line <= c.end_line && c.text.contains(needle))
}

fn has_safety_comment(file: &LexedFile, line: usize, unsafe_impl_lines: &BTreeSet<usize>) -> bool {
    if line_has_comment_with(file, line, "SAFETY:") {
        return true;
    }
    let mut l = line;
    while l > 1 {
        l -= 1;
        match file.line_kind(l) {
            LineKind::CommentOnly => {
                if line_has_comment_with(file, l, "SAFETY:") {
                    return true;
                }
                // keep walking up through a multi-line comment whose
                // SAFETY: sentence may be on an earlier line
            }
            LineKind::Code => {
                if unsafe_impl_lines.contains(&l) {
                    continue; // stacked unsafe impls share one comment
                }
                return line_has_comment_with(file, l, "SAFETY:");
            }
            LineKind::Blank => return false,
        }
    }
    false
}

/// **relaxed-justified** — every `Ordering::Relaxed` use must carry a
/// same-line comment or sit directly under a comment explaining why no
/// synchronisation edge is needed. Consecutive Relaxed lines (a block
/// of monitoring counters) may share the comment above the first.
fn relaxed_justified(file: &LexedFile, out: &mut Vec<RawDiagnostic>) {
    const RULE: &str = "relaxed-justified";
    let toks = &file.tokens;
    let mut relaxed_lines: BTreeSet<usize> = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        if t.is_ident("Ordering")
            && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 3).is_some_and(|n| n.is_ident("Relaxed"))
        {
            relaxed_lines.insert(t.line);
        }
    }
    'site: for &line in &relaxed_lines {
        if file.comment_on_line(line) {
            continue;
        }
        // walk upward through other Relaxed lines (a shared-comment
        // counter block) until a comment or something else
        let mut l = line;
        for _ in 0..10 {
            if l <= 1 {
                break;
            }
            l -= 1;
            if file.comment_on_line(l) {
                continue 'site; // justified by the comment above
            }
            if !relaxed_lines.contains(&l) {
                break;
            }
        }
        diag(
            out,
            RULE,
            line,
            "Ordering::Relaxed without a justification comment — state why no happens-before edge is needed, or use Acquire/Release",
        );
    }
}

/// **thread-discipline** — OS threads are spawned only by the persistent
/// pool (`runtime/park_pool.rs`) and tests. Everything else — the serving
/// runtime included — must submit work to `PersistentPool` so thread
/// counts stay bounded and observable.
fn thread_discipline(file: &LexedFile, out: &mut Vec<RawDiagnostic>) {
    const RULE: &str = "thread-discipline";
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        let pair = |a: &str, b: &str| {
            t.is_ident(a)
                && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
                && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
                && toks.get(i + 3).is_some_and(|n| n.is_ident(b))
        };
        let hit = if pair("thread", "spawn") {
            Some("thread::spawn")
        } else if pair("thread", "scope") {
            Some("thread::scope")
        } else if pair("crossbeam", "scope") {
            Some("crossbeam::scope")
        } else {
            None
        };
        if let Some(what) = hit {
            let line = toks[i + 3].line;
            diag(
                out,
                RULE,
                line,
                format!("{what} outside runtime/park_pool.rs — route work through PersistentPool"),
            );
        }
    }
}

/// **no-std-sync-primitives** — locks come from the workspace
/// `parking_lot` stub (`crates/compat/parking_lot`), which ignores
/// poisoning the way the real crate does: a panicking worker must not
/// turn every later `lock()` into a second panic. `std::sync::Mutex`
/// is allowed only where a `Condvar` is involved (std condvars only
/// accept std guards) — and such sites must say so with an allow.
fn no_std_sync_primitives(file: &LexedFile, out: &mut Vec<RawDiagnostic>) {
    const RULE: &str = "no-std-sync-primitives";
    let toks = &file.tokens;
    let colon2 = |i: usize| {
        toks.get(i).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
    };
    let flag = |out: &mut Vec<RawDiagnostic>, name: &str, line: usize| {
        diag(
            out,
            RULE,
            line,
            format!("std::sync::{name} — use the poison-ignoring parking_lot stub (crates/compat/parking_lot)"),
        );
    };
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || !t.is_ident("std") {
            continue;
        }
        if !(colon2(i + 1) && toks.get(i + 3).is_some_and(|n| n.is_ident("sync")) && colon2(i + 4))
        {
            continue;
        }
        match toks.get(i + 6).map(|n| &n.kind) {
            Some(TokenKind::Ident(name)) if name == "Mutex" || name == "RwLock" => {
                flag(out, name, toks[i + 6].line);
            }
            Some(TokenKind::Punct('{')) => {
                if let Some(close) = matching_delim(toks, i + 6, '{', '}') {
                    for g in &toks[i + 6..close] {
                        if let Some(name) = g.ident() {
                            if name == "Mutex" || name == "RwLock" {
                                flag(out, name, g.line);
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

/// Index of the delimiter closing the one opened at `open_idx` (which
/// must hold `open`), or `None` if `open_idx` is not an opener or the
/// file ends first.
fn matching_delim(toks: &[Token], open_idx: usize, open: char, close: char) -> Option<usize> {
    if !toks.get(open_idx).is_some_and(|t| t.is_punct(open)) {
        return None;
    }
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}
