//! Fixture self-tests: every lint must flag its known-bad fixture and
//! stay silent on the known-good one. The fixtures live under
//! `tests/fixtures/` — outside the workspace scan set — and are loaded
//! with a forced `FileClass::Core` so they are analyzed as if they were
//! core library code.

use std::path::Path;

use kst_analyze::{run_all, FileClass, Finding, Model};

fn analyze(rel: &str, krate: &str) -> Vec<Finding> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let model = match Model::load_file_as(root, rel, FileClass::Core, krate) {
        Ok(m) => m,
        Err(e) => panic!("fixture {rel} unreadable: {e}"),
    };
    run_all(&model)
}

fn of_lint<'a>(findings: &'a [Finding], lint: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.lint == lint).collect()
}

#[test]
fn no_alloc_bad_is_flagged() {
    let findings = analyze("tests/fixtures/no_alloc_bad.rs", "kst-core");
    let hits = of_lint(&findings, "no-alloc");
    assert!(
        hits.len() >= 3,
        "expected format!/collect/push all flagged, got: {findings:?}"
    );
    let msgs: Vec<&str> = hits.iter().map(|f| f.message.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("format!")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("collect")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("push")), "{msgs:?}");
}

#[test]
fn no_alloc_good_is_clean() {
    let findings = analyze("tests/fixtures/no_alloc_good.rs", "kst-core");
    assert!(
        of_lint(&findings, "no-alloc").is_empty(),
        "clean fixture flagged: {findings:?}"
    );
    assert!(
        of_lint(&findings, "bad-suppression").is_empty(),
        "allow in good fixture rejected: {findings:?}"
    );
}

#[test]
fn obs_record_bad_is_flagged() {
    let findings = analyze("tests/fixtures/obs_record_bad.rs", "kst-obs");
    let hits = of_lint(&findings, "no-alloc");
    assert!(
        hits.len() >= 3,
        "expected format!/to_vec/push all flagged, got: {findings:?}"
    );
    let msgs: Vec<&str> = hits.iter().map(|f| f.message.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("format!")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("to_vec")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("push")), "{msgs:?}");
    // The roots are anchored by impl type, so the chains name them.
    assert!(
        msgs.iter().any(|m| m.contains("Histogram::record")),
        "{msgs:?}"
    );
}

#[test]
fn obs_record_good_is_clean() {
    let findings = analyze("tests/fixtures/obs_record_good.rs", "kst-obs");
    assert!(
        of_lint(&findings, "no-alloc").is_empty(),
        "clean fixture flagged (the allocating Ledger::record shares only \
         a simple name with the hot recorders): {findings:?}"
    );
    assert!(
        of_lint(&findings, "bad-suppression").is_empty(),
        "allow in good fixture rejected: {findings:?}"
    );
}

#[test]
fn determinism_bad_is_flagged() {
    let findings = analyze("tests/fixtures/determinism_bad.rs", "kst-workloads");
    let hits = of_lint(&findings, "determinism");
    let msgs: Vec<&str> = hits.iter().map(|f| f.message.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("Instant")), "{findings:?}");
    assert!(msgs.iter().any(|m| m.contains("counts")), "{findings:?}");
}

#[test]
fn determinism_good_is_clean() {
    let findings = analyze("tests/fixtures/determinism_good.rs", "kst-workloads");
    assert!(
        of_lint(&findings, "determinism").is_empty(),
        "clean fixture flagged: {findings:?}"
    );
    assert!(
        of_lint(&findings, "bad-suppression").is_empty(),
        "allow in good fixture rejected: {findings:?}"
    );
}

#[test]
fn unsafe_bad_is_flagged() {
    let findings = analyze("tests/fixtures/unsafe_bad.rs", "kst-core");
    let hits = of_lint(&findings, "unsafe-hygiene");
    assert_eq!(hits.len(), 1, "{findings:?}");
    assert!(hits[0].message.contains("SAFETY"), "{findings:?}");
}

#[test]
fn unsafe_good_is_clean() {
    let findings = analyze("tests/fixtures/unsafe_good.rs", "kst-core");
    assert!(
        of_lint(&findings, "unsafe-hygiene").is_empty(),
        "clean fixture flagged: {findings:?}"
    );
}

#[test]
fn prefetch_without_safety_comment_is_flagged() {
    let findings = analyze("tests/fixtures/prefetch_bad.rs", "kst-core");
    let hits = of_lint(&findings, "unsafe-hygiene");
    assert_eq!(hits.len(), 1, "{findings:?}");
    assert!(hits[0].message.contains("SAFETY"), "{findings:?}");
}

#[test]
fn prefetch_with_safety_comment_is_clean() {
    // Pins the shipped `kst_core::prefetch_read` shape: the hygiene lint
    // must accept the intrinsic exactly as written there (SAFETY comment
    // adjacent to the sole unsafe block) and nothing else may fire —
    // `prefetch_read` is also a no-alloc root.
    let findings = analyze("tests/fixtures/prefetch_good.rs", "kst-core");
    assert!(
        of_lint(&findings, "unsafe-hygiene").is_empty(),
        "clean fixture flagged: {findings:?}"
    );
    assert!(
        of_lint(&findings, "no-alloc").is_empty(),
        "prefetch helper must stay allocation-free: {findings:?}"
    );
}

#[test]
fn forbid_missing_is_flagged() {
    let findings = analyze("tests/fixtures/forbid_missing/src/lib.rs", "demo");
    let hits = of_lint(&findings, "unsafe-hygiene");
    assert_eq!(hits.len(), 1, "{findings:?}");
    assert!(
        hits[0].message.contains("forbid(unsafe_code)"),
        "{findings:?}"
    );
}

#[test]
fn forbid_present_is_clean() {
    let findings = analyze("tests/fixtures/forbid_present/src/lib.rs", "demo");
    assert!(findings.is_empty(), "clean fixture flagged: {findings:?}");
}

#[test]
fn panic_bad_is_flagged() {
    let findings = analyze("tests/fixtures/panic_bad.rs", "kst-core");
    let hits = of_lint(&findings, "panic-surface");
    assert_eq!(hits.len(), 3, "{findings:?}");
    let msgs: Vec<&str> = hits.iter().map(|f| f.message.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("unwrap")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("expect")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("as usize")), "{msgs:?}");
}

#[test]
fn panic_good_is_clean() {
    let findings = analyze("tests/fixtures/panic_good.rs", "kst-core");
    assert!(
        of_lint(&findings, "panic-surface").is_empty(),
        "clean fixture flagged: {findings:?}"
    );
    assert!(
        of_lint(&findings, "bad-suppression").is_empty(),
        "allow in good fixture rejected: {findings:?}"
    );
}

#[test]
fn bad_suppressions_are_flagged() {
    let findings = analyze("tests/fixtures/suppression_bad.rs", "kst-core");
    let bad = of_lint(&findings, "bad-suppression");
    assert_eq!(bad.len(), 2, "{findings:?}");
    let msgs: Vec<&str> = bad.iter().map(|f| f.message.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("no-such-lint")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("reason")), "{msgs:?}");
    // The reason-less allow still names a real lint, so it suppresses its
    // site; the misspelled one does not, so that unwrap stays flagged.
    assert_eq!(of_lint(&findings, "panic-surface").len(), 1, "{findings:?}");
}

#[test]
fn stale_no_alloc_roots_are_flagged_in_workspace_mode() {
    // A workspace load of a crate that defines none of the hot-path
    // roots: every root is stale, and each is named. The single-file
    // fixture runs above never report stale roots.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/forbid_present");
    let findings = kst_analyze::analyze_workspace(&root).expect("fixture readable");
    let hits = of_lint(&findings, "no-alloc");
    let msgs: Vec<&str> = hits.iter().map(|f| f.message.as_str()).collect();
    for root in ["`distance_lca`", "`splay_until`", "`ShardMap::shard_of`"] {
        assert!(
            msgs.iter()
                .any(|m| m.contains(root) && m.contains("matches no")),
            "{root} not reported stale: {msgs:?}"
        );
    }
}
