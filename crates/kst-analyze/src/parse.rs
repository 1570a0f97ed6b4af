//! Token-stream parsing: files, items, functions, calls, and the
//! `ksan-allow` suppression model.
//!
//! This is deliberately **not** a Rust parser. The lint passes need four
//! structural facts the lexer alone can't give:
//!
//! 1. which function a token belongs to (and which `impl` block that
//!    function sits in), so the no-alloc pass can build a call graph;
//! 2. which lines live inside `#[cfg(test)]` modules, so library-code
//!    lints skip test code;
//! 3. which identifiers are bound to hash-based containers, so the
//!    determinism pass can flag their iteration;
//! 4. which findings are suppressed by an adjacent
//!    `// ksan-allow: <lint-id> <reason>` comment.
//!
//! Everything here is an approximation that errs toward simplicity; the
//! fixture self-tests under `tests/fixtures/` pin the behaviour the lints
//! rely on.

use crate::lexer::{lex, Lexed, Tok, TokKind};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Coarse role of a file in the workspace, driving per-lint scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Shipped library code: the six kst crates, `splaynet-classic`, and
    /// the root `ksan` facade. All lints apply.
    Core,
    /// The analyzer itself — holds itself to the panic-surface and
    /// unsafe-hygiene contracts.
    Tool,
    /// Bench harness and offline `crates/compat/*` stand-ins: only
    /// unsafe hygiene applies (they print, time, and allocate by design).
    Harness,
    /// Tests, benches, examples, fixtures — never scanned in workspace
    /// mode.
    Excluded,
}

/// One parsed function definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, when any.
    pub qual: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Body as a token index range `[start, end)` (inside the braces).
    pub body: (usize, usize),
    /// True when the function lives under `#[cfg(test)]` (or is itself
    /// a `#[test]`).
    pub in_test_mod: bool,
}

impl FnDef {
    /// `Type::name` when the impl type is known, else the bare name.
    pub fn display(&self) -> String {
        match &self.qual {
            Some(q) => format!("{q}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One `// ksan-allow: <lint-id> <reason>` suppression.
#[derive(Debug, Clone)]
pub struct Allow {
    /// First line of the carrying comment.
    pub line_start: u32,
    /// Last line of the carrying comment.
    pub line_end: u32,
    /// Lint id the suppression targets.
    pub lint: String,
    /// Mandatory human reason (empty reasons are themselves findings).
    pub reason: String,
}

/// A fully parsed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Scope class.
    pub class: FileClass,
    /// Owning crate name (`kst-core`, `ksan`, ...).
    pub krate: String,
    /// Lexer output.
    pub lx: Lexed,
    /// All function definitions, in source order.
    pub fns: Vec<FnDef>,
    /// Identifiers bound to `HashMap`/`HashSet` anywhere in the file.
    pub hash_bound: Vec<String>,
    /// Line ranges (inclusive) covered by `#[cfg(test)]` modules.
    pub cfg_test_spans: Vec<(u32, u32)>,
    /// All suppression comments.
    pub allows: Vec<Allow>,
    /// True for `src/lib.rs`, `src/main.rs`, and `src/bin/*.rs`.
    pub is_crate_root: bool,
    /// True when the file carries `#![forbid(unsafe_code)]`.
    pub has_forbid_unsafe: bool,
}

impl SourceFile {
    /// True when `line` falls inside a `#[cfg(test)]` module.
    pub fn in_cfg_test(&self, line: u32) -> bool {
        self.cfg_test_spans
            .iter()
            .any(|&(lo, hi)| lo <= line && line <= hi)
    }

    /// True when a `ksan-allow` for `lint` covers `line`: either a
    /// trailing comment on the line itself, or a comment in the
    /// contiguous comment-only block directly above it.
    pub fn allowed(&self, lint: &str, line: u32) -> bool {
        let hit = |l: u32| {
            self.allows
                .iter()
                .any(|a| a.lint == lint && (a.line_end == l || a.line_start == l))
        };
        if hit(line) {
            return true;
        }
        let mut j = line.saturating_sub(1);
        while j >= 1 && self.lx.is_comment_only(j) {
            if hit(j) {
                return true;
            }
            j -= 1;
        }
        false
    }
}

/// The parsed workspace (or fixture set) every lint runs against.
#[derive(Debug)]
pub struct Model {
    /// Workspace root directory.
    pub root: PathBuf,
    /// Parsed files, sorted by relative path.
    pub files: Vec<SourceFile>,
    /// True for a whole-workspace load; checks that need every library
    /// file in view (stale no-alloc roots) run only then.
    pub workspace: bool,
}

/// Classifies a workspace-relative path.
pub fn classify(rel: &str) -> (FileClass, String) {
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.first() == Some(&"crates") && parts.len() >= 3 {
        let krate = if parts[1] == "compat" {
            parts[2]
        } else {
            parts[1]
        };
        // Only files under the crate's src/ are library code.
        let src_idx = if parts[1] == "compat" { 3 } else { 2 };
        if parts.get(src_idx) != Some(&"src") {
            return (FileClass::Excluded, krate.to_string());
        }
        let class = match krate {
            "bench" | "rand" | "proptest" | "criterion" => FileClass::Harness,
            "kst-analyze" => FileClass::Tool,
            _ => FileClass::Core,
        };
        (class, krate.to_string())
    } else if parts.first() == Some(&"src") {
        (FileClass::Core, "ksan".to_string())
    } else {
        (FileClass::Excluded, String::new())
    }
}

fn is_crate_root_rel(rel: &str) -> bool {
    if rel.ends_with("src/lib.rs") || rel.ends_with("src/main.rs") {
        return true;
    }
    // src/bin/<name>.rs binaries are crate roots too.
    if let Some(idx) = rel.find("src/bin/") {
        let tail = &rel[idx + "src/bin/".len()..];
        return tail.ends_with(".rs") && !tail.contains('/');
    }
    false
}

impl Model {
    /// Loads every library source file of the workspace rooted at `root`.
    ///
    /// Walks `src/` and `crates/` skipping `target`, VCS metadata, and
    /// all test/bench/example/fixture directories; the scan set is the
    /// **library code** of every workspace member.
    pub fn load_workspace(root: &Path) -> io::Result<Model> {
        let mut rels: Vec<String> = Vec::new();
        walk(root, root, &mut rels)?;
        rels.sort();
        let mut files = Vec::new();
        for rel in rels {
            let (class, krate) = classify(&rel);
            if class == FileClass::Excluded {
                continue;
            }
            let src = fs::read_to_string(root.join(&rel))?;
            files.push(parse_file(&rel, class, krate, &src));
        }
        Ok(Model {
            root: root.to_path_buf(),
            files,
            workspace: true,
        })
    }

    /// Loads a single file with a forced class/crate — the fixture-test
    /// entry point, letting known-bad snippets outside the workspace scan
    /// set be analyzed as if they were core library code.
    pub fn load_file_as(
        root: &Path,
        rel: &str,
        class: FileClass,
        krate: &str,
    ) -> io::Result<Model> {
        let src = fs::read_to_string(root.join(rel))?;
        Ok(Model {
            root: root.to_path_buf(),
            files: vec![parse_file(rel, class, krate.to_string(), &src)],
            workspace: false,
        })
    }
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = match path.file_name().and_then(|n| n.to_str()) {
            Some(n) => n.to_string(),
            None => continue,
        };
        if path.is_dir() {
            if matches!(
                name.as_str(),
                "target" | ".git" | "tests" | "benches" | "examples" | "fixtures" | "results"
            ) {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                let rel = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push(rel);
            }
        }
    }
    Ok(())
}

/// Parses one file into the model.
pub fn parse_file(rel: &str, class: FileClass, krate: String, src: &str) -> SourceFile {
    let lx = lex(src);
    let mut fns = Vec::new();
    let mut spans = Vec::new();
    scan_items(
        &lx.tokens,
        0,
        lx.tokens.len(),
        None,
        false,
        &mut fns,
        &mut spans,
    );
    let allows = parse_allows(&lx);
    let hash_bound = hash_bound_names(&lx.tokens);
    SourceFile {
        rel: rel.to_string(),
        class,
        krate,
        has_forbid_unsafe: has_forbid_unsafe(&lx.tokens),
        is_crate_root: is_crate_root_rel(rel),
        lx,
        fns,
        hash_bound,
        cfg_test_spans: spans,
        allows,
    }
}

fn parse_allows(lx: &Lexed) -> Vec<Allow> {
    let mut out = Vec::new();
    for c in &lx.comments {
        // Doc comments describe the mechanism; only plain comments enact it.
        if c.text.starts_with("///")
            || c.text.starts_with("//!")
            || c.text.starts_with("/**")
            || c.text.starts_with("/*!")
        {
            continue;
        }
        let Some(pos) = c.text.find("ksan-allow:") else {
            continue;
        };
        let rest = c.text[pos + "ksan-allow:".len()..]
            .trim_end_matches("*/")
            .trim();
        let mut words = rest.splitn(2, char::is_whitespace);
        let lint = words.next().unwrap_or("").to_string();
        let reason = words.next().unwrap_or("").trim().to_string();
        out.push(Allow {
            line_start: c.start_line,
            line_end: c.end_line,
            lint,
            reason,
        });
    }
    out
}

fn has_forbid_unsafe(toks: &[Tok]) -> bool {
    toks.iter().enumerate().any(|(i, t)| {
        t.kind == TokKind::Ident
            && t.text == "unsafe_code"
            && toks[i.saturating_sub(4)..i]
                .iter()
                .any(|p| p.kind == TokKind::Ident && p.text == "forbid")
    })
}

fn is_punct(t: &Tok, c: char) -> bool {
    t.kind == TokKind::Punct && t.text.as_bytes() == [c as u8]
}

fn is_ident(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Ident && t.text == s
}

/// Index just past the bracket group opening at `open` (which must hold
/// the opening delimiter); tolerant of truncated input.
fn skip_group(toks: &[Tok], open: usize, oc: char, cc: char) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        if is_punct(&toks[i], oc) {
            depth += 1;
        } else if is_punct(&toks[i], cc) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    toks.len()
}

/// Recursive item scanner: records functions (with impl/trait context and
/// test-gating) and `#[cfg(test)]` module line spans. Inside function
/// bodies it keeps scanning so nested items are still discovered;
/// non-item statement tokens simply fall through.
#[allow(clippy::too_many_arguments)]
fn scan_items(
    toks: &[Tok],
    start: usize,
    end: usize,
    qual: Option<&str>,
    in_test: bool,
    fns: &mut Vec<FnDef>,
    spans: &mut Vec<(u32, u32)>,
) {
    let mut i = start;
    let mut pending_test = false;
    while i < end {
        let t = &toks[i];
        // Attributes: `#[...]` may gate the next item behind cfg(test);
        // inner `#![...]` attributes never do.
        if is_punct(t, '#') {
            let mut j = i + 1;
            let inner = j < end && is_punct(&toks[j], '!');
            if inner {
                j += 1;
            }
            if j < end && is_punct(&toks[j], '[') {
                let close = skip_group(toks, j, '[', ']');
                if !inner {
                    let body = &toks[j..close];
                    let has = |s: &str| body.iter().any(|t| is_ident(t, s));
                    if (has("test") || has("bench")) && !has("not") {
                        pending_test = true;
                    }
                }
                i = close;
                continue;
            }
            i += 1;
            continue;
        }
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "fn" => {
                let (fn_line, mut j) = (t.line, i + 1);
                let name = if j < end && toks[j].kind == TokKind::Ident {
                    let n = toks[j].text.clone();
                    j += 1;
                    n
                } else {
                    i += 1;
                    continue;
                };
                // Scan the signature to the body `{` or a decl-only `;`.
                let (mut pd, mut bd) = (0i32, 0i32);
                let mut body_open = None;
                while j < end {
                    let s = &toks[j];
                    if is_punct(s, '(') {
                        pd += 1;
                    } else if is_punct(s, ')') {
                        pd -= 1;
                    } else if is_punct(s, '[') {
                        bd += 1;
                    } else if is_punct(s, ']') {
                        bd -= 1;
                    } else if pd == 0 && bd == 0 && is_punct(s, '{') {
                        body_open = Some(j);
                        break;
                    } else if pd == 0 && bd == 0 && is_punct(s, ';') {
                        break;
                    }
                    j += 1;
                }
                match body_open {
                    Some(open) => {
                        let close = skip_group(toks, open, '{', '}');
                        fns.push(FnDef {
                            name,
                            qual: qual.map(|q| q.to_string()),
                            line: fn_line,
                            body: (open + 1, close.saturating_sub(1)),
                            in_test_mod: in_test || pending_test,
                        });
                        // Keep scanning inside for nested items.
                        scan_items(
                            toks,
                            open + 1,
                            close.saturating_sub(1),
                            None,
                            in_test || pending_test,
                            fns,
                            spans,
                        );
                        i = close;
                    }
                    None => i = j + 1,
                }
                pending_test = false;
            }
            "impl" | "trait" => {
                let header_start = i + 1;
                let mut j = header_start;
                let (mut pd, mut bd) = (0i32, 0i32);
                while j < end {
                    let s = &toks[j];
                    if is_punct(s, '(') {
                        pd += 1;
                    } else if is_punct(s, ')') {
                        pd -= 1;
                    } else if is_punct(s, '[') {
                        bd += 1;
                    } else if is_punct(s, ']') {
                        bd -= 1;
                    } else if pd == 0 && bd == 0 && (is_punct(s, '{') || is_punct(s, ';')) {
                        break;
                    }
                    j += 1;
                }
                if j >= end || is_punct(&toks[j], ';') {
                    i = j + 1;
                    pending_test = false;
                    continue;
                }
                let name = impl_type_name(&toks[header_start..j]);
                let close = skip_group(toks, j, '{', '}');
                scan_items(
                    toks,
                    j + 1,
                    close.saturating_sub(1),
                    name.as_deref(),
                    in_test || pending_test,
                    fns,
                    spans,
                );
                i = close;
                pending_test = false;
            }
            "mod" => {
                let j = i + 1;
                if j + 1 < end && toks[j].kind == TokKind::Ident && is_punct(&toks[j + 1], '{') {
                    let open = j + 1;
                    let close = skip_group(toks, open, '{', '}');
                    let becomes_test = pending_test && !in_test;
                    if becomes_test {
                        let end_line = toks
                            .get(close.saturating_sub(1))
                            .map(|t| t.line)
                            .unwrap_or(t.line);
                        spans.push((t.line, end_line));
                    }
                    scan_items(
                        toks,
                        open + 1,
                        close.saturating_sub(1),
                        None,
                        in_test || pending_test,
                        fns,
                        spans,
                    );
                    i = close;
                } else {
                    // `mod name;`
                    i = j + 1;
                }
                pending_test = false;
            }
            "macro_rules" => {
                // macro_rules! name { ... } — skip the whole definition.
                let mut j = i + 1;
                while j < end
                    && !(is_punct(&toks[j], '{')
                        || is_punct(&toks[j], '(')
                        || is_punct(&toks[j], '['))
                {
                    j += 1;
                }
                i = if j < end {
                    let (oc, cc) = match toks[j].text.as_bytes()[0] {
                        b'(' => ('(', ')'),
                        b'[' => ('[', ']'),
                        _ => ('{', '}'),
                    };
                    skip_group(toks, j, oc, cc)
                } else {
                    j
                };
                pending_test = false;
            }
            "struct" | "enum" | "union" => {
                // Skip to `;` (tuple/unit struct) or the matching `{...}`.
                let mut j = i + 1;
                let (mut pd, mut bd) = (0i32, 0i32);
                while j < end {
                    let s = &toks[j];
                    if is_punct(s, '(') {
                        pd += 1;
                    } else if is_punct(s, ')') {
                        pd -= 1;
                    } else if is_punct(s, '[') {
                        bd += 1;
                    } else if is_punct(s, ']') {
                        bd -= 1;
                    } else if pd == 0 && bd == 0 && is_punct(s, ';') {
                        j += 1;
                        break;
                    } else if pd == 0 && bd == 0 && is_punct(s, '{') {
                        j = skip_group(toks, j, '{', '}');
                        break;
                    }
                    j += 1;
                }
                i = j;
                pending_test = false;
            }
            "use" | "static" | "type" | "extern" => {
                // Skip to `;` at brace depth 0 (initializers may brace).
                let mut j = i + 1;
                let mut depth = 0i32;
                while j < end {
                    let s = &toks[j];
                    if is_punct(s, '{') {
                        depth += 1;
                    } else if is_punct(s, '}') {
                        depth -= 1;
                        if depth < 0 {
                            break;
                        }
                    } else if depth == 0 && is_punct(s, ';') {
                        j += 1;
                        break;
                    }
                    j += 1;
                }
                i = j;
                pending_test = false;
            }
            _ => {
                i += 1;
            }
        }
    }
}

/// Extracts the self-type name from an impl/trait header: the last
/// generic-depth-0 identifier after `for` when present, else overall.
fn impl_type_name(header: &[Tok]) -> Option<String> {
    let mut angle = 0i32;
    let mut after_for = false;
    let mut last: Option<String> = None;
    let mut last_after_for: Option<String> = None;
    let mut prev_minus = false;
    for t in header {
        if is_punct(t, '<') {
            angle += 1;
        } else if is_punct(t, '>') {
            if !prev_minus {
                angle = (angle - 1).max(0);
            }
        } else if angle == 0 && t.kind == TokKind::Ident {
            if t.text == "for" {
                after_for = true;
            } else if t.text != "where" && t.text != "dyn" {
                if after_for {
                    last_after_for = Some(t.text.clone());
                } else {
                    last = Some(t.text.clone());
                }
            }
            // `where` ends the type part of the header.
            if t.text == "where" {
                break;
            }
        }
        prev_minus = is_punct(t, '-');
    }
    last_after_for.or(last)
}

/// Collects identifiers bound to `HashMap`/`HashSet` anywhere in a file:
/// struct fields and `let`/assignment bindings via type ascription
/// (`name: HashMap<...>`) or construction (`name = HashMap::new()`).
fn hash_bound_names(toks: &[Tok]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        // Walk back over a path prefix (`std::collections::`) and
        // reference sigils to find the binding position.
        let mut k = i;
        loop {
            if k >= 2 && is_punct(&toks[k - 1], ':') && is_punct(&toks[k - 2], ':') {
                k -= 2;
                if k >= 1 && toks[k - 1].kind == TokKind::Ident {
                    k -= 1;
                }
                continue;
            }
            if k >= 1 && (is_punct(&toks[k - 1], '&') || is_ident(&toks[k - 1], "mut")) {
                k -= 1;
                continue;
            }
            break;
        }
        if k == 0 {
            continue;
        }
        let prev = &toks[k - 1];
        let binder = if is_punct(prev, ':') && !(k >= 2 && is_punct(&toks[k - 2], ':')) {
            // `name: HashMap<...>` (field, let ascription, or parameter).
            toks.get(k.wrapping_sub(2))
        } else if is_punct(prev, '=') && !(k >= 2 && is_punct(&toks[k - 2], '=')) {
            // `name = HashMap::new()` / `let name = HashMap::...`.
            toks.get(k.wrapping_sub(2))
        } else {
            None
        };
        if let Some(b) = binder {
            if b.kind == TokKind::Ident && !out.contains(&b.text) {
                out.push(b.text.clone());
            }
        }
    }
    out.sort();
    out
}

/// How a call site invokes its callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `name(...)` or `Type::name(...)`.
    Fn,
    /// `recv.name(...)`.
    Method,
    /// `name!(...)`.
    Macro,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallEvent {
    /// 1-based source line.
    pub line: u32,
    /// Call form.
    pub kind: CallKind,
    /// Called name (method/function/macro identifier).
    pub callee: String,
    /// `Type` in `Type::callee(...)`, when syntactically evident.
    pub qualifier: Option<String>,
    /// Receiver identifier in `recv.callee(...)` / `self.recv.callee(...)`.
    pub receiver: Option<String>,
}

/// Extracts call events from a token range, skipping the given
/// sub-ranges (nested function bodies, attributed to their own `FnDef`).
pub fn extract_calls(
    toks: &[Tok],
    range: (usize, usize),
    skip: &[(usize, usize)],
) -> Vec<CallEvent> {
    let mut out = Vec::new();
    let mut i = range.0;
    while i < range.1 {
        if let Some(&(_, e)) = skip.iter().find(|&&(s, e)| s <= i && i < e) {
            i = e;
            continue;
        }
        let t = &toks[i];
        if t.kind == TokKind::Ident && i + 1 < range.1 {
            let keyword = matches!(
                t.text.as_str(),
                "if" | "while" | "for" | "match" | "return" | "in" | "fn" | "move" | "let" | "as"
            );
            let after_fn_kw = i >= 1 && is_ident(&toks[i - 1], "fn");
            if !keyword && !after_fn_kw && is_punct(&toks[i + 1], '(') {
                let (kind, qualifier, receiver) = if i >= 1 && is_punct(&toks[i - 1], '.') {
                    let recv = toks
                        .get(i.wrapping_sub(2))
                        .filter(|r| r.kind == TokKind::Ident);
                    (CallKind::Method, None, recv.map(|r| r.text.clone()))
                } else {
                    let q = if i >= 3
                        && is_punct(&toks[i - 1], ':')
                        && is_punct(&toks[i - 2], ':')
                        && toks[i - 3].kind == TokKind::Ident
                    {
                        Some(toks[i - 3].text.clone())
                    } else {
                        None
                    };
                    (CallKind::Fn, q, None)
                };
                out.push(CallEvent {
                    line: t.line,
                    kind,
                    callee: t.text.clone(),
                    qualifier,
                    receiver,
                });
            } else if !keyword
                && is_punct(&toks[i + 1], '!')
                && i + 2 < range.1
                && (is_punct(&toks[i + 2], '(')
                    || is_punct(&toks[i + 2], '[')
                    || is_punct(&toks[i + 2], '{'))
            {
                out.push(CallEvent {
                    line: t.line,
                    kind: CallKind::Macro,
                    callee: t.text.clone(),
                    qualifier: None,
                    receiver: None,
                });
            }
        }
        i += 1;
    }
    out
}

/// Index over every non-test function in the model, for call resolution.
pub struct FnIndex {
    by_simple: BTreeMap<String, Vec<(usize, usize)>>,
    by_qual: BTreeMap<String, Vec<(usize, usize)>>,
}

impl FnIndex {
    /// Builds the index over all `Core`-class, non-test functions.
    pub fn build(model: &Model) -> FnIndex {
        let mut by_simple: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
        let mut by_qual: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
        for (fi, file) in model.files.iter().enumerate() {
            if file.class != FileClass::Core {
                continue;
            }
            for (ni, f) in file.fns.iter().enumerate() {
                if f.in_test_mod {
                    continue;
                }
                by_simple.entry(f.name.clone()).or_default().push((fi, ni));
                if f.qual.is_some() {
                    by_qual.entry(f.display()).or_default().push((fi, ni));
                }
            }
        }
        FnIndex { by_simple, by_qual }
    }

    /// Resolves a call event to candidate workspace functions. Qualified
    /// calls (`Type::name`) resolve exactly — a qualifier that names no
    /// workspace type is an external call (`Vec::new`, `Box::new`) and
    /// resolves to nothing. Unqualified and method calls match by simple
    /// name — a deliberate over-approximation since receiver types are
    /// unknown at the token level.
    pub fn resolve(&self, ev: &CallEvent, caller_qual: Option<&str>) -> &[(usize, usize)] {
        if ev.kind == CallKind::Macro {
            return &[];
        }
        if let Some(q) = &ev.qualifier {
            let q = if q == "Self" {
                caller_qual.unwrap_or(q.as_str())
            } else {
                q.as_str()
            };
            return self
                .by_qual
                .get(&format!("{q}::{}", ev.callee))
                .map(|v| v.as_slice())
                .unwrap_or(&[]);
        }
        self.by_simple
            .get(&ev.callee)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        parse_file(
            "crates/kst-core/src/x.rs",
            FileClass::Core,
            "kst-core".into(),
            src,
        )
    }

    #[test]
    fn fns_and_impl_context() {
        let f = parse(
            "impl<R: Rebuild> Network for LazyKaryNet<R> {\n fn serve(&mut self) {}\n}\n\
             impl KstTree { fn restructure(&mut self) { helper(); } }\n\
             fn helper() {}\n",
        );
        let names: Vec<String> = f.fns.iter().map(|x| x.display()).collect();
        assert_eq!(
            names,
            ["LazyKaryNet::serve", "KstTree::restructure", "helper"]
        );
    }

    #[test]
    fn cfg_test_mod_is_spanned_and_fns_marked() {
        let f = parse(
            "fn lib_code() {}\n#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { lib_code(); }\n}\n",
        );
        assert!(!f.fns[0].in_test_mod);
        assert!(f.fns[1].in_test_mod);
        assert_eq!(f.cfg_test_spans.len(), 1);
        assert!(f.in_cfg_test(5));
        assert!(!f.in_cfg_test(1));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_gate() {
        let f = parse("#[cfg(not(test))]\nmod m { fn x() {} }\n");
        assert!(f.cfg_test_spans.is_empty());
        assert!(!f.fns[0].in_test_mod);
    }

    #[test]
    fn hash_bindings_found() {
        let f = parse(
            "struct S { counts: HashMap<u64, u64> }\n\
             fn f(seen: &HashSet<u32>) {\n  let mut w: HashMap<u32, u64> = HashMap::new();\n  let d = std::collections::HashMap::new();\n}\n",
        );
        assert_eq!(f.hash_bound, ["counts", "d", "seen", "w"]);
    }

    #[test]
    fn calls_extracted_with_kinds() {
        let f = parse(
            "fn outer() {\n  helper(1);\n  self.demand.record(u, v);\n  Vec::with_capacity(9);\n  format!(\"x\");\n  let x = y != z;\n}\n",
        );
        let calls = extract_calls(&f.lx.tokens, f.fns[0].body, &[]);
        let summary: Vec<(CallKind, &str)> =
            calls.iter().map(|c| (c.kind, c.callee.as_str())).collect();
        assert_eq!(
            summary,
            [
                (CallKind::Fn, "helper"),
                (CallKind::Method, "record"),
                (CallKind::Fn, "with_capacity"),
                (CallKind::Macro, "format"),
            ]
        );
        assert_eq!(calls[1].receiver.as_deref(), Some("demand"));
        assert_eq!(calls[2].qualifier.as_deref(), Some("Vec"));
    }

    #[test]
    fn allows_parsed_and_adjacency() {
        let f = parse(
            "fn f() {\n  // ksan-allow: no-alloc cold path by design\n  x.collect();\n  y.collect(); // ksan-allow: determinism trailing\n}\n",
        );
        assert_eq!(f.allows.len(), 2);
        assert!(f.allowed("no-alloc", 3));
        assert!(!f.allowed("determinism", 3));
        assert!(f.allowed("determinism", 4));
    }

    #[test]
    fn forbid_unsafe_detected() {
        let f = parse("#![forbid(unsafe_code)]\nfn x() {}\n");
        assert!(f.has_forbid_unsafe);
        let g = parse("#![warn(missing_docs)]\nfn x() {}\n");
        assert!(!g.has_forbid_unsafe);
    }
}
