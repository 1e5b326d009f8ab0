//! Integration net for the analyzer: the real workspace must come out
//! clean, and each deliberately-broken fixture must be caught by its lint
//! with the right `file:line`.

use analyzer::scan::{scan_file, scan_str, ScannedFile};
use analyzer::{analyze_workspace, atomics, symbolic, unsafe_audit, Options, Pass};
use iwino_rational::Rational;
use iwino_transforms::{Matrix, WinogradTransform};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Scan a fixture file but report it under an arbitrary pretend path, so
/// allowlist-dependent rules can be exercised from fixture content.
fn scan_as(fixture: &str, pretend_path: &str) -> ScannedFile {
    let src = std::fs::read_to_string(fixtures_dir().join(fixture)).unwrap();
    ScannedFile {
        rel_path: pretend_path.to_string(),
        lines: scan_str(&src),
    }
}

#[test]
fn real_workspace_is_clean() {
    let analysis = analyze_workspace(&Options {
        root: workspace_root(),
        fix_snapshot: false,
    })
    .unwrap();
    let rendered: Vec<String> = analysis.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        analysis.findings.is_empty(),
        "the workspace must stay analyzer-clean; findings:\n{}",
        rendered.join("\n")
    );
    assert!(analysis.is_clean());
    // Coverage floor: r ∈ 2..=9 with both α-preference flags yields 16
    // distinct planner-reachable (n, r) pairs, every one proven.
    assert_eq!(analysis.pairs_verified, 16);
    assert!(analysis.files_scanned > 50, "scanned {}", analysis.files_scanned);
    let json = analysis.to_json().pretty();
    // The report inherits whatever schema version obs currently exports —
    // hard-coding the number here would silently pin it.
    assert!(json.contains(&format!("\"schema_version\": {}", iwino_obs::SCHEMA_VERSION)));
    assert!(json.contains("\"kind\": \"analysis\""));
    assert!(json.contains("\"clean\": true"));
    assert!(json.contains("\"transform_bounds\""));
    // The concurrency passes actually saw the serving stack: the lock graph
    // and condvar protocol are non-trivial in this workspace.
    assert!(!analysis.lock_graph.locks.is_empty());
    assert!(!analysis.lock_graph.edges.is_empty());
    assert!(
        analysis.atomic_sites.len() > 20,
        "sites: {}",
        analysis.atomic_sites.len()
    );
    assert!(
        analysis.condvar_summary.waits >= 3,
        "waits: {}",
        analysis.condvar_summary.waits
    );
    assert!(analysis.condvar_summary.notifies >= 3);
    assert!(json.contains("\"concurrency\""));
}

#[test]
fn missing_safety_fixture_is_flagged() {
    // In an allowlisted file, the undocumented unsafe block trips the
    // SAFETY-adjacency rule…
    let f = scan_as("missing_safety.rs", "crates/parallel/src/lib.rs");
    let findings = unsafe_audit::audit_unsafe(&[f]);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].pass, Pass::UnsafeAudit);
    assert_eq!(findings[0].file, "crates/parallel/src/lib.rs");
    assert_eq!(findings[0].line, 5);
    assert!(findings[0].message.contains("SAFETY:"));
    // …and anywhere else the allowlist rule fires instead.
    let f = scan_as("missing_safety.rs", "crates/core/src/kernel.rs");
    let findings = unsafe_audit::audit_unsafe(&[f]);
    assert_eq!(findings.len(), 1);
    assert!(findings[0].message.contains("allowlist"));
    // The documented twin is clean in an allowlisted file.
    let f = scan_as("documented_safety.rs", "crates/parallel/src/lib.rs");
    assert!(unsafe_audit::audit_unsafe(&[f]).is_empty());
}

#[test]
fn safetyless_gemm_kernel_fixture_is_flagged() {
    // The register tile lives in crates/simd's lane files, which are
    // allowlisted, so an undocumented unsafe site there trips the
    // SAFETY-adjacency rule (one finding per site: the dispatch call and
    // the raw-pointer impl)…
    let f = scan_as("gemm_kernel_no_safety.rs", "crates/simd/src/avx2.rs");
    let findings = unsafe_audit::audit_unsafe(&[f]);
    assert_eq!(findings.len(), 2, "{findings:?}");
    for finding in &findings {
        assert_eq!(finding.pass, Pass::UnsafeAudit);
        assert_eq!(finding.file, "crates/simd/src/avx2.rs");
        assert!(finding.message.contains("SAFETY:"));
    }
    // …while crates/gemm is unsafe-free: the allowlist rule fires on every
    // file of it, the old kernel file included.
    for path in ["crates/gemm/src/avx2.rs", "crates/gemm/src/lib.rs"] {
        let f = scan_as("gemm_kernel_no_safety.rs", path);
        let findings = unsafe_audit::audit_unsafe(&[f]);
        assert_eq!(findings.len(), 2, "{path}: {findings:?}");
        assert!(findings
            .iter()
            .all(|f| f.file == path && f.message.contains("allowlist")));
    }
}

#[test]
fn undocumented_relaxed_fixture_is_flagged() {
    let root = fixtures_dir();
    let f = scan_file(&root, &root.join("undocumented_relaxed.rs")).unwrap();
    let findings = atomics::lint_atomics(&[f]);
    assert_eq!(findings.len(), 1, "only the undocumented site fires: {findings:?}");
    assert_eq!(findings[0].pass, Pass::AtomicsLint);
    assert_eq!(findings[0].file, "undocumented_relaxed.rs");
    assert_eq!(findings[0].line, 13);
}

#[test]
fn missing_forbid_fixture_is_flagged() {
    let root = fixtures_dir().join("ws_no_forbid");
    let f = scan_file(&root, &root.join("src/lib.rs")).unwrap();
    let findings = unsafe_audit::audit_forbid(&[f]);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].file, "src/lib.rs");
    assert!(findings[0].message.contains("forbid(unsafe_code)"));
}

/// Parse the `# AT` / `# G` / `# DT` sections of a transform fixture.
fn parse_transform_fixture(name: &str) -> (Matrix, Matrix, Matrix) {
    let src = std::fs::read_to_string(fixtures_dir().join(name)).unwrap();
    let mut sections: Vec<Vec<&str>> = Vec::new();
    for line in src.lines() {
        if let Some(header) = line.strip_prefix('#') {
            let header = header.trim();
            if matches!(header, "AT" | "G" | "DT") {
                sections.push(Vec::new());
            }
        } else if !line.trim().is_empty() {
            sections.last_mut().expect("row before any section header").push(line);
        }
    }
    assert_eq!(sections.len(), 3, "fixture needs AT, G and DT sections");
    let mut mats = sections.iter().map(|rows| Matrix::parse(rows));
    (mats.next().unwrap(), mats.next().unwrap(), mats.next().unwrap())
}

#[test]
fn typod_transform_fixture_fails_symbolic_verification() {
    let (at, g, dt) = parse_transform_fixture("bad_g63_transform.txt");
    let err = symbolic::verify_matrices(6, 3, &at, &g, &dt).unwrap_err();
    assert!(err.contains("F(6,3)"), "err: {err}");
    // Repairing the single typo'd coefficient makes the same triple pass —
    // the fixture is broken by exactly that entry.
    let mut g_fixed = g.clone();
    g_fixed[(3, 1)] = Rational::new(1, 45);
    symbolic::verify_matrices(6, 3, &at, &g_fixed, &dt).unwrap();
    // And it matches the generated transform entry for entry.
    let t = WinogradTransform::generate(6, 3);
    assert_eq!(g_fixed, t.g);
    assert_eq!(at, t.at);
    assert_eq!(dt, t.dt);
}

#[test]
fn stale_snapshot_is_reported_with_first_differing_line() {
    let committed = std::fs::read_to_string(workspace_root().join(analyzer::SNAPSHOT_REL_PATH)).unwrap();
    // Unchanged snapshot: only identity findings could appear, and there
    // are none.
    let (findings, rows) = symbolic::run(Some(&committed), analyzer::SNAPSHOT_REL_PATH);
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(rows.len(), 16);
    // Tampered snapshot: exactly one staleness finding pointing at the
    // first differing line.
    let tampered = committed.replacen("max_coeff=32 ", "max_coeff=33 ", 1);
    assert_ne!(committed, tampered);
    let (findings, _) = symbolic::run(Some(&tampered), analyzer::SNAPSHOT_REL_PATH);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].pass, Pass::TransformVerify);
    assert!(findings[0].line > 0);
    assert!(findings[0].message.contains("stale"));
    // Missing snapshot: reported as such.
    let (findings, _) = symbolic::run(None, analyzer::SNAPSHOT_REL_PATH);
    assert_eq!(findings.len(), 1);
    assert!(findings[0].message.contains("missing"));
}
