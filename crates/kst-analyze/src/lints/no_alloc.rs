//! `no-alloc`: source-level allocation-freedom for the serve hot path.
//!
//! Builds a call-graph approximation rooted at the hot-path entry points
//! (`serve`, `restructure`, `splay_until`, `distance_lca`, the engine's
//! round function `serve_round`, its lane drain `drain_lane`, per-shard
//! `shard_step` and router booking, and the
//! kst-obs recorders `Histogram::record`, `Tracer::record`,
//! `ObsCollector::observe` and friends) and flags every transitive call
//! to an allocating API. On a whole-workspace run a root that names no
//! non-test library function is a finding too, so a deleted or renamed
//! hot-path entry cannot leave a stale root behind.
//! Resolution is by name — an over-approximation that trades precision
//! for zero dependencies — so every cold-by-design boundary (epoch
//! rebuilds, ledger growth) is cut explicitly with a
//! `// ksan-allow: no-alloc <reason>` at the call site, which both
//! silences the finding and prunes traversal into the callee.
//!
//! This complements the runtime `kst_core::alloc_probe` counters: the
//! probe proves the paths that *executed* stayed allocation-free; this
//! pass covers the branches a test run never took.

use crate::parse::{extract_calls, CallEvent, CallKind, FileClass, FnIndex, Model};
use crate::report::Finding;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Lint id.
pub const ID: &str = "no-alloc";

/// Functions whose bodies anchor the hot-path call graph, as
/// `(name, impl-type)` pairs; `None` matches the name in any impl (or as
/// a free function). The observability recorders are anchored with their
/// impl type because the bare names collide with cold-path fns — e.g.
/// the demand ledgers' allocating `record` — that must stay outside the
/// hot graph.
const ROOT_NAMES: &[(&str, Option<&str>)] = &[
    ("serve", None),
    ("restructure", None),
    ("splay_until", None),
    ("distance_lca", None),
    ("serve_round", Some("ShardedEngine")),
    ("drain_lane", None),
    ("shard_step", None),
    // The prefetch hint issued on every climb step of `distance_lca`
    // and of `splay_until`'s walk.
    ("prefetch_read", None),
    // kst-engine round helpers: the shared ShardMap routing
    // decomposition, the router booking, and the one-request serve entry
    // point must stay allocation-free outside the documented cold paths
    // (epoch-boundary resharding, the per-round spawn and join).
    ("route_request", None),
    ("book_router", None),
    ("serve_one", Some("ShardedEngine")),
    ("shard_of", Some("ShardMap")),
    ("gateway", Some("ShardMap")),
    // kst-obs: everything a serve loop touches when a collector is
    // attached must be allocation-free, whether or not a test executed
    // that branch (the rebuild spans, the wrapped ring, ...).
    ("record", Some("Histogram")),
    ("record_n", Some("Histogram")),
    ("record", Some("CostHistograms")),
    ("record", Some("Tracer")),
    ("record_timed", Some("Tracer")),
    ("observe", Some("ObsCollector")),
];

/// Macros that always allocate.
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// Methods that allocate unconditionally (or, for `clone`, are a no-op
/// on `Copy` data and therefore always either wrong or allocating in hot
/// code).
const ALLOC_METHODS: &[&str] = &[
    "collect",
    "to_vec",
    "to_owned",
    "to_string",
    "clone",
    "insert",
    "entry",
    "reserve",
    "reserve_exact",
    "with_capacity",
];

/// `Type::fn` associated constructors that allocate.
const ALLOC_QUALIFIED: &[(&str, &str)] = &[
    ("Box", "new"),
    ("Rc", "new"),
    ("Arc", "new"),
    ("String", "from"),
    ("Vec", "from"),
    ("CString", "new"),
];

/// Methods that grow a container and therefore allocate when the
/// receiver was never reserved. Only flagged on locals proven unreserved
/// (`let v = Vec::new()` in the same function) — growth on persistent
/// scratch is the reserved-arena pattern the runtime probe enforces.
const GROWTH_METHODS: &[&str] = &["push", "extend", "extend_from_slice", "append"];

fn alloc_violation(ev: &CallEvent) -> Option<String> {
    match ev.kind {
        CallKind::Macro if ALLOC_MACROS.contains(&ev.callee.as_str()) => {
            Some(format!("`{}!` allocates", ev.callee))
        }
        CallKind::Method if ALLOC_METHODS.contains(&ev.callee.as_str()) => {
            Some(format!("`.{}()` allocates", ev.callee))
        }
        CallKind::Fn => {
            if ev.callee == "with_capacity" {
                return Some("`with_capacity` allocates".to_string());
            }
            let q = ev.qualifier.as_deref()?;
            ALLOC_QUALIFIED
                .iter()
                .find(|&&(ty, f)| ty == q && f == ev.callee)
                .map(|&(ty, f)| format!("`{ty}::{f}` allocates"))
        }
        _ => None,
    }
}

/// Runs the lint over the model.
pub fn run(model: &Model, out: &mut Vec<Finding>) {
    let index = FnIndex::build(model);

    // Per-function call events, with nested fn bodies carved out.
    let mut calls: BTreeMap<(usize, usize), Vec<CallEvent>> = BTreeMap::new();
    let mut roots: Vec<(usize, usize)> = Vec::new();
    let mut matched = vec![false; ROOT_NAMES.len()];
    for (fi, file) in model.files.iter().enumerate() {
        if file.class != FileClass::Core {
            continue;
        }
        for (ni, f) in file.fns.iter().enumerate() {
            if f.in_test_mod {
                continue;
            }
            let nested: Vec<(usize, usize)> = file
                .fns
                .iter()
                .filter(|g| g.body.0 > f.body.0 && g.body.1 <= f.body.1)
                .map(|g| g.body)
                .collect();
            calls.insert((fi, ni), extract_calls(&file.lx.tokens, f.body, &nested));
            let mut is_root = false;
            for (m, &(name, qual)) in matched.iter_mut().zip(ROOT_NAMES) {
                if name == f.name && (qual.is_none() || qual == f.qual.as_deref()) {
                    *m = true;
                    is_root = true;
                }
            }
            if is_root {
                roots.push((fi, ni));
            }
        }
    }
    if model.workspace {
        stale_roots(model, &matched, out);
    }

    // BFS from the roots; `parent` reconstructs the reach chain for
    // diagnostics.
    let mut parent: BTreeMap<(usize, usize), (usize, usize)> = BTreeMap::new();
    let mut visited: BTreeSet<(usize, usize)> = roots.iter().copied().collect();
    let mut queue: VecDeque<(usize, usize)> = roots.into_iter().collect();

    while let Some(key) = queue.pop_front() {
        let file = &model.files[key.0];
        let fndef = &file.fns[key.1];
        let Some(events) = calls.get(&key) else {
            continue;
        };

        // Locals grown without a reservation, tracked per function.
        let unreserved = unreserved_locals(file, fndef.body);

        for ev in events {
            // A no-alloc allow at the call site both suppresses the
            // finding and cuts the call graph (cold-by-design boundary).
            if file.allowed(ID, ev.line) {
                continue;
            }
            if let Some(what) = alloc_violation(ev) {
                out.push(Finding {
                    file: file.rel.clone(),
                    line: ev.line,
                    lint: ID,
                    message: format!("{what} on the hot path ({})", chain(model, &parent, key)),
                });
                continue;
            }
            if ev.kind == CallKind::Method
                && GROWTH_METHODS.contains(&ev.callee.as_str())
                && ev
                    .receiver
                    .as_deref()
                    .is_some_and(|r| unreserved.contains(r))
            {
                out.push(Finding {
                    file: file.rel.clone(),
                    line: ev.line,
                    lint: ID,
                    message: format!(
                        "`.{}()` grows an unreserved local Vec on the hot path ({})",
                        ev.callee,
                        chain(model, &parent, key)
                    ),
                });
                continue;
            }
            for &next in index.resolve(ev, fndef.qual.as_deref()) {
                if visited.insert(next) {
                    parent.insert(next, key);
                    queue.push_back(next);
                }
            }
        }
    }
}

/// Reports every `ROOT_NAMES` entry that matched no non-test library
/// function, pinned to the `ROOT_NAMES` table (line 1 when this file is
/// not in the model).
fn stale_roots(model: &Model, matched: &[bool], out: &mut Vec<Finding>) {
    const TABLE_FILE: &str = "crates/kst-analyze/src/lints/no_alloc.rs";
    let line = model
        .files
        .iter()
        .find(|f| f.rel == TABLE_FILE)
        .and_then(|f| f.lx.tokens.iter().find(|t| t.text == "ROOT_NAMES"))
        .map_or(1, |t| t.line);
    for (&(name, qual), &hit) in ROOT_NAMES.iter().zip(matched) {
        if hit {
            continue;
        }
        let what = match qual {
            Some(q) => format!("{q}::{name}"),
            None => name.to_string(),
        };
        out.push(Finding {
            file: TABLE_FILE.to_string(),
            line,
            lint: ID,
            message: format!("hot-path root `{what}` matches no non-test library function"),
        });
    }
}

/// Names of locals initialized as `Vec::new()`/`Vec::default()` inside
/// the body — growth on these is unreserved allocation.
fn unreserved_locals(file: &crate::parse::SourceFile, body: (usize, usize)) -> BTreeSet<String> {
    use crate::lexer::TokKind;
    let toks = &file.lx.tokens;
    let mut out = BTreeSet::new();
    let mut i = body.0;
    while i + 6 < body.1 {
        if toks[i].kind == TokKind::Ident && toks[i].text == "let" {
            let mut j = i + 1;
            if toks[j].kind == TokKind::Ident && toks[j].text == "mut" {
                j += 1;
            }
            if toks[j].kind == TokKind::Ident
                && j + 5 < body.1
                && toks[j + 1].kind == TokKind::Punct
                && toks[j + 1].text == "="
                && toks[j + 2].text == "Vec"
                && toks[j + 3].text == ":"
                && toks[j + 4].text == ":"
                && (toks[j + 5].text == "new" || toks[j + 5].text == "default")
            {
                out.insert(toks[j].text.clone());
            }
        }
        i += 1;
    }
    out
}

/// Renders the root → ... → fn reach chain for a finding message.
fn chain(
    model: &Model,
    parent: &BTreeMap<(usize, usize), (usize, usize)>,
    mut key: (usize, usize),
) -> String {
    let mut names = vec![model.files[key.0].fns[key.1].display()];
    while let Some(&p) = parent.get(&key) {
        names.push(model.files[p.0].fns[p.1].display());
        key = p;
    }
    names.reverse();
    if names.len() > 6 {
        let tail = names.split_off(names.len() - 2);
        names.truncate(2);
        names.push("…".to_string());
        names.extend(tail);
    }
    format!("reached via {}", names.join(" → "))
}
