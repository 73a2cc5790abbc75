//! The three deny-by-default rules. Each is a token-pattern check over
//! one [`LexedFile`], so every finding depends on that file alone; see
//! `src/README.md` for the contract behind each rule and the incident
//! that motivated it.

use crate::lexer::{LexedFile, Token, TokenKind};
use std::collections::BTreeSet;

/// One rule violation, before [`crate::lint_source`] attaches its path.
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
    relaxed_justified(file, &mut out);
    out.sort_by(|a, b| a.line.cmp(&b.line).then_with(|| a.rule.cmp(b.rule)));
    out
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
