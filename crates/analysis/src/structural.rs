//! The four structural rules built on the parser + call graph:
//! `alloc-in-hot-loop`, `guard-across-park`, `unbounded-fanout`,
//! `soa-layout`. See `src/README.md` for each rule's contract and
//! motivating incident; the token-pattern rules live in
//! [`crate::rules`].

use crate::callgraph::CallGraph;
use crate::parser::{CallSite, Callee, FnItem, LoopKind, Node, ParsedFile};
use crate::rules::RawDiagnostic;

/// Container types whose `::new` / `::with_capacity` constructors
/// allocate (or set up to allocate) on the heap.
const CONTAINERS: &[&str] = &[
    "Vec",
    "VecDeque",
    "String",
    "HashMap",
    "HashSet",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
];

/// Run the structural rules over one parsed file. `file_idx` indexes
/// this file inside the [`CallGraph`]'s unit list.
pub fn run_rules(
    path: &str,
    parsed: &ParsedFile,
    file_idx: usize,
    graph: &CallGraph,
    all_test: bool,
) -> Vec<RawDiagnostic> {
    if all_test || path.contains("crates/compat/") {
        return Vec::new();
    }
    let fanout_scoped = in_fanout_scope(path);
    let mut out = Vec::new();
    for (fn_idx, item) in parsed.fns.iter().enumerate() {
        if item.in_test {
            continue;
        }
        let hot = graph.is_hot(file_idx, fn_idx);
        if hot {
            alloc_in_hot_loop(item, &mut out);
            soa_layout(item, &mut out);
        }
        guard_across_park(item, file_idx, fn_idx, graph, &mut out);
        if fanout_scoped {
            unbounded_fanout(&item.body, &mut out);
        }
    }
    out.sort_by(|a, b| a.line.cmp(&b.line).then_with(|| a.rule.cmp(b.rule)));
    out
}

/// Files the `unbounded-fanout` rule applies to: the serving runtime
/// and the shard fan-out layer.
fn in_fanout_scope(path: &str) -> bool {
    path.contains("/runtime/") || path.starts_with("runtime/") || path.ends_with("shard.rs")
}

// ---------------------------------------------------------------- alloc-in-hot-loop

/// **alloc-in-hot-loop** — inside a loop body of a hot-reachable fn,
/// no `Vec::new` / `with_capacity` / `.push` / `.to_vec` / `.clone()`
/// / `format!` / `vec!`: hoist the allocation to a reused scratch
/// buffer outside the loop, the way `retrieve_batch` does. Pushes
/// into a `&mut` parameter (the caller-owned scratch convention) or
/// into a local pre-sized with `with_capacity` in the same fn are the
/// *hoisted* pattern and pass. Closures handed to iterator adapters
/// (`.map(|x| ..)`) run once per element and count as loop bodies.
fn alloc_in_hot_loop(item: &FnItem, out: &mut Vec<RawDiagnostic>) {
    let mut scratch: Vec<String> = item.mut_ref_params.clone();
    collect_with_capacity_locals(&item.body, &mut scratch);
    let mut ctx = AllocCtx {
        fn_name: &item.name,
        scratch: &scratch,
        out,
    };
    walk_alloc(&item.body, 0, &mut ctx);
}

struct AllocCtx<'a> {
    fn_name: &'a str,
    scratch: &'a [String],
    out: &'a mut Vec<RawDiagnostic>,
}

fn collect_with_capacity_locals(nodes: &[Node], out: &mut Vec<String>) {
    for node in nodes {
        match node {
            Node::Let(l) => {
                if l.is_with_capacity {
                    if let Some(name) = &l.name {
                        out.push(name.clone());
                    }
                }
                collect_with_capacity_locals(&l.init, out);
            }
            Node::Loop(l) => {
                collect_with_capacity_locals(&l.header, out);
                collect_with_capacity_locals(&l.body, out);
            }
            Node::Closure(c) => collect_with_capacity_locals(&c.body, out),
            Node::Block { body, .. } => collect_with_capacity_locals(body, out),
            Node::Call(c) => collect_with_capacity_locals(&c.args, out),
            Node::DropCall { .. } => {}
        }
    }
}

fn walk_alloc(nodes: &[Node], depth: usize, ctx: &mut AllocCtx<'_>) {
    for node in nodes {
        match node {
            Node::Loop(l) => {
                // a `for` header is evaluated once, a `while` header
                // re-evaluates every iteration
                let header_depth = match l.kind {
                    LoopKind::While => depth + 1,
                    _ => depth,
                };
                walk_alloc(&l.header, header_depth, ctx);
                walk_alloc(&l.body, depth + 1, ctx);
            }
            Node::Closure(c) => {
                let body_depth = if c.iter_adapter { depth + 1 } else { depth };
                walk_alloc(&c.body, body_depth, ctx);
            }
            Node::Block { body, .. } => walk_alloc(body, depth, ctx),
            Node::Let(l) => walk_alloc(&l.init, depth, ctx),
            Node::Call(site) => {
                if depth > 0 {
                    check_alloc_site(site, ctx);
                }
                walk_alloc(&site.args, depth, ctx);
            }
            Node::DropCall { .. } => {}
        }
    }
}

fn check_alloc_site(site: &CallSite, ctx: &mut AllocCtx<'_>) {
    const RULE: &str = "alloc-in-hot-loop";
    let flagged: Option<String> = match &site.callee {
        Callee::Path(segs) if segs.len() >= 2 => {
            let (ty, ctor) = (&segs[segs.len() - 2], &segs[segs.len() - 1]);
            if CONTAINERS.contains(&ty.as_str()) && (ctor == "new" || ctor == "with_capacity") {
                Some(format!("{ty}::{ctor}"))
            } else {
                None
            }
        }
        Callee::Method { name, recv } if name == "push" => {
            let exempt = recv
                .as_deref()
                .is_some_and(|r| ctx.scratch.iter().any(|s| s == r));
            if exempt {
                None
            } else {
                Some(".push(..) into a non-scratch target".to_string())
            }
        }
        Callee::Method { name, .. } if name == "to_vec" => Some(".to_vec()".to_string()),
        Callee::Method { name, .. } if name == "clone" => Some(".clone()".to_string()),
        Callee::Macro(name) if name == "format" || name == "vec" => Some(format!("{name}!")),
        _ => None,
    };
    if let Some(what) = flagged {
        ctx.out.push(RawDiagnostic {
            rule: RULE,
            line: site.line,
            message: format!(
                "{what} inside a loop of hot-path fn `{}` — hoist to a reused scratch \
                 buffer (&mut param or with_capacity local) outside the loop",
                ctx.fn_name
            ),
        });
    }
}

// ---------------------------------------------------------------- soa-layout

/// Per-point AoS accessors on the mixed-curvature point sets: each call
/// re-derives one point's slice (or weight row) from the packed storage,
/// which defeats the contiguous SoA sweep the distance kernels are built
/// around.
const AOS_ACCESSORS: &[&str] = &["point", "weight"];

/// **soa-layout** — inside a loop body of a hot-reachable fn, no
/// per-point AoS accessor (`.point(i)` / `.weight(i)`): a distance loop
/// that touches candidates one point at a time defeats the contiguous
/// structure-of-arrays layout the kernels vectorise over. Gather the
/// slots and evaluate through the blocked kernels
/// (`scan_range_into` / `scan_indices_into`), the way the exact scan,
/// the IVF probes and the HNSW beam do. Build- and insert-time loops are
/// not hot-reachable and stay free to use the accessors.
fn soa_layout(item: &FnItem, out: &mut Vec<RawDiagnostic>) {
    walk_soa(&item.body, 0, &item.name, out);
}

fn walk_soa(nodes: &[Node], depth: usize, fn_name: &str, out: &mut Vec<RawDiagnostic>) {
    const RULE: &str = "soa-layout";
    for node in nodes {
        match node {
            Node::Loop(l) => {
                let header_depth = match l.kind {
                    LoopKind::While => depth + 1,
                    _ => depth,
                };
                walk_soa(&l.header, header_depth, fn_name, out);
                walk_soa(&l.body, depth + 1, fn_name, out);
            }
            Node::Closure(c) => {
                let body_depth = if c.iter_adapter { depth + 1 } else { depth };
                walk_soa(&c.body, body_depth, fn_name, out);
            }
            Node::Block { body, .. } => walk_soa(body, depth, fn_name, out),
            Node::Let(l) => walk_soa(&l.init, depth, fn_name, out),
            Node::Call(site) => {
                if depth > 0 {
                    if let Callee::Method { name, .. } = &site.callee {
                        if AOS_ACCESSORS.contains(&name.as_str()) {
                            out.push(RawDiagnostic {
                                rule: RULE,
                                line: site.line,
                                message: format!(
                                    "per-point accessor .{name}(..) inside a loop of hot-path \
                                     fn `{fn_name}` — gather the slots and evaluate through the \
                                     SoA kernels (scan_range_into / scan_indices_into) instead \
                                     of touching points one at a time"
                                ),
                            });
                        }
                    }
                }
                walk_soa(&site.args, depth, fn_name, out);
            }
            Node::DropCall { .. } => {}
        }
    }
}

// ---------------------------------------------------------------- guard-across-park

/// **guard-across-park** — no lock guard may be live across a call
/// that can reach a condvar park (`Condvar::wait` and the fns that
/// wrap it, the pool's worker loop included): a parked thread holding a
/// lock is the runtime's deadlock shape. The condvar handoff itself
/// (`cv.wait(guard)`) is exempt — the wait *consumes* that guard —
/// but only for the guard actually passed in. Guards die at the end
/// of their enclosing block or at an explicit `drop(guard)`.
fn guard_across_park(
    item: &FnItem,
    file_idx: usize,
    fn_idx: usize,
    graph: &CallGraph,
    out: &mut Vec<RawDiagnostic>,
) {
    let mut scopes: Vec<Vec<String>> = vec![Vec::new()];
    walk_guards(
        &item.body,
        &mut scopes,
        &mut GuardCtx {
            file_idx,
            fn_idx,
            graph,
            out,
        },
    );
}

struct GuardCtx<'a> {
    file_idx: usize,
    fn_idx: usize,
    graph: &'a CallGraph,
    out: &'a mut Vec<RawDiagnostic>,
}

fn walk_guards(nodes: &[Node], scopes: &mut Vec<Vec<String>>, ctx: &mut GuardCtx<'_>) {
    for node in nodes {
        match node {
            Node::Let(l) => {
                // the initializer runs before the binding exists
                walk_guards(&l.init, scopes, ctx);
                if l.is_guard {
                    if let Some(name) = &l.name {
                        if let Some(top) = scopes.last_mut() {
                            top.push(name.clone());
                        }
                    }
                }
            }
            Node::DropCall { name, .. } => {
                for scope in scopes.iter_mut() {
                    scope.retain(|g| g != name);
                }
            }
            Node::Block { body, .. } => {
                scopes.push(Vec::new());
                walk_guards(body, scopes, ctx);
                scopes.pop();
            }
            Node::Loop(l) => {
                walk_guards(&l.header, scopes, ctx);
                scopes.push(Vec::new());
                walk_guards(&l.body, scopes, ctx);
                scopes.pop();
            }
            Node::Closure(c) => {
                scopes.push(Vec::new());
                walk_guards(&c.body, scopes, ctx);
                scopes.pop();
            }
            Node::Call(site) => {
                // arguments evaluate before the call itself
                walk_guards(&site.args, scopes, ctx);
                check_park_site(site, scopes, ctx);
            }
        }
    }
}

fn check_park_site(site: &CallSite, scopes: &[Vec<String>], ctx: &mut GuardCtx<'_>) {
    const RULE: &str = "guard-across-park";
    let any_live = scopes.iter().any(|s| !s.is_empty());
    if !any_live {
        return;
    }
    if !ctx.graph.site_reaches_park(ctx.file_idx, ctx.fn_idx, site) {
        return;
    }
    for scope in scopes {
        for guard in scope {
            // the condvar handoff: the wait consumes this guard
            if site.arg_idents.iter().any(|a| a == guard) {
                continue;
            }
            ctx.out.push(RawDiagnostic {
                rule: RULE,
                line: site.line,
                message: format!(
                    "lock guard `{guard}` is live across {} which can reach a condvar \
                     park — scope the guard (or drop(..) it) before parking",
                    CallGraph::describe_callee(site)
                ),
            });
        }
    }
}

// ---------------------------------------------------------------- unbounded-fanout

/// **unbounded-fanout** — in the serving runtime (`runtime/`) and the
/// shard fan-out layer (`shard.rs`), every loop must have a bound that
/// traces to a named config knob. `for` over a collection or closed
/// range is bounded by construction (shard/replica/hedge counts are
/// config); bare `loop`, `while` / `while let`, and open-range `for`
/// carry no structural bound — restructure to a bounded `for`, or
/// waive with the argument that bounds the iteration.
fn unbounded_fanout(nodes: &[Node], out: &mut Vec<RawDiagnostic>) {
    const RULE: &str = "unbounded-fanout";
    for node in nodes {
        match node {
            Node::Loop(l) => {
                let what = match l.kind {
                    LoopKind::Loop => Some("bare `loop`"),
                    LoopKind::While => Some("`while` loop"),
                    LoopKind::ForOpenRange => Some("open-range `for`"),
                    LoopKind::For => None,
                };
                if let Some(what) = what {
                    out.push(RawDiagnostic {
                        rule: RULE,
                        line: l.line,
                        message: format!(
                            "{what} in fan-out code has no structural bound — iterate a \
                             config-bounded collection/range, or waive with the bounding \
                             argument"
                        ),
                    });
                }
                unbounded_fanout(&l.header, out);
                unbounded_fanout(&l.body, out);
            }
            Node::Closure(c) => unbounded_fanout(&c.body, out),
            Node::Block { body, .. } => unbounded_fanout(body, out),
            Node::Let(l) => unbounded_fanout(&l.init, out),
            Node::Call(site) => unbounded_fanout(&site.args, out),
            Node::DropCall { .. } => {}
        }
    }
}
