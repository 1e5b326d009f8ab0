//! Gate tests for the concurrency-protocol passes: each deliberately
//! broken fixture must be caught by its pass with the right `file:line`,
//! and the committed lock-order snapshot must match the live graph.

use analyzer::scan::{scan_str, ScannedFile};
use analyzer::{atomics, condvar, lockorder, Pass};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Scan a fixture file but report it under a pretend path inside the
/// concurrency-pass scope (`crates/{serve,parallel,obs}`).
fn scan_as(fixture: &str, pretend_path: &str) -> ScannedFile {
    let src = std::fs::read_to_string(fixtures_dir().join(fixture)).unwrap();
    ScannedFile {
        rel_path: pretend_path.to_string(),
        lines: scan_str(&src),
    }
}

#[test]
fn lock_cycle_fixture_is_flagged() {
    let f = scan_as("lock_cycle.rs", "crates/serve/src/lib.rs");
    let (findings, graph) = lockorder::run(
        &[f],
        Some(&lockorder::render_snapshot(
            &lockorder::collect(&[scan_as("lock_cycle.rs", "crates/serve/src/lib.rs")]).1,
        )),
        "lock_order.snap",
    );
    // Both AB and BA edges exist, so the graph is cyclic…
    assert!(graph.edges.contains_key(&("serve::alpha".into(), "serve::beta".into())));
    assert!(graph.edges.contains_key(&("serve::beta".into(), "serve::alpha".into())));
    assert_eq!(
        graph.cyclic_locks().into_iter().collect::<Vec<_>>(),
        vec!["serve::alpha".to_string(), "serve::beta".to_string()]
    );
    // …and the pass reports exactly the cycle (both sites carry LOCK ORDER
    // comments, so nothing else fires).
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].pass, Pass::LockOrder);
    assert_eq!(findings[0].file, "crates/serve/src/lib.rs");
    assert!(findings[0].message.contains("cycle"), "{}", findings[0].message);
}

#[test]
fn lock_cycle_fixture_is_ignored_outside_scope() {
    // The same content in a non-serving-stack crate contributes nothing.
    let f = scan_as("lock_cycle.rs", "crates/core/src/lib.rs");
    let (sites, graph) = lockorder::collect(&[f]);
    assert!(sites.is_empty());
    assert!(graph.edges.is_empty());
}

#[test]
fn bare_wait_fixture_is_flagged() {
    let f = scan_as("bare_wait.rs", "crates/serve/src/lib.rs");
    let (findings, summary) = condvar::lint_condvars(&[f]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].pass, Pass::CondvarDiscipline);
    assert_eq!(findings[0].file, "crates/serve/src/lib.rs");
    assert_eq!(findings[0].line, 14, "the un-looped wait line");
    assert!(findings[0].message.contains("predicate"), "{}", findings[0].message);
    // The producer's notify and guarded mutation were still seen.
    assert_eq!(summary.waits, 1);
    assert_eq!(summary.notifies, 1);
    assert!(summary.guarded_mutations >= 1);
}

#[test]
fn split_wait_fixture_is_flagged() {
    // The wait's receiver sits on the line above `.wait_while(`, and the
    // guard's binding spans three lines; both still resolve.
    let f = scan_as("split_wait.rs", "crates/serve/src/lib.rs");
    let (findings, summary) = condvar::lint_condvars(&[f]);
    assert_eq!(summary.waits, 1);
    assert_eq!(summary.guarded_mutations, 2);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].line, 28, "the un-notified mutation");
    assert!(findings[0].message.contains("paired notify"), "{}", findings[0].message);
}

#[test]
fn relaxed_handoff_fixture_is_flagged() {
    let f = scan_as("relaxed_handoff.rs", "crates/serve/src/lib.rs");
    let (findings, sites) = atomics::lint_atomics_classified(&[f]);
    assert_eq!(findings.len(), 2, "both claimed-handoff sites fire: {findings:?}");
    for f in &findings {
        assert_eq!(f.pass, Pass::AtomicsLint);
        assert!(f.message.contains("Relaxed"), "{}", f.message);
    }
    assert_eq!(findings[0].line, 12);
    assert_eq!(findings[1].line, 17);
    assert!(sites
        .iter()
        .all(|s| s.relaxed && s.class == Some(atomics::SiteClass::Handoff)));
}

#[test]
fn committed_lock_snapshot_matches_live_graph() {
    let committed = std::fs::read_to_string(workspace_root().join(analyzer::LOCK_SNAPSHOT_REL_PATH)).unwrap();
    let files = analyzer::scan_sources(&workspace_root()).unwrap();
    let (findings, graph) = lockorder::run(&files, Some(&committed), analyzer::LOCK_SNAPSHOT_REL_PATH);
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(lockorder::render_snapshot(&graph), committed);
    // Tampering with the committed order is reported as staleness at the
    // first differing line.
    let tampered = committed.replacen("parallel::submit_lock -> parallel::state", "parallel::state", 1);
    assert_ne!(tampered, committed);
    let (findings, _) = lockorder::run(&files, Some(&tampered), analyzer::LOCK_SNAPSHOT_REL_PATH);
    assert_eq!(findings.len(), 1);
    assert!(findings[0].message.contains("stale"), "{}", findings[0].message);
    // A missing snapshot is reported as such.
    let (findings, _) = lockorder::run(&files, None, analyzer::LOCK_SNAPSHOT_REL_PATH);
    assert_eq!(findings.len(), 1);
    assert!(findings[0].message.contains("missing"), "{}", findings[0].message);
}
