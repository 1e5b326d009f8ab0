//! `iwino-analyze` — the workspace static-analysis suite.
//!
//! Five passes, run offline with no external tooling:
//!
//! 1. **Symbolic transform verification** ([`symbolic`]) — proves, over
//!    exact rationals with indeterminate inputs, the Winograd identity and
//!    the Γ-decomposition FH-accumulation identity for every `(n, r)` pair
//!    the planner can select, and snapshots the per-pair coefficient /
//!    error-amplification bounds.
//! 2. **Unsafe audit** ([`unsafe_audit`]) — `unsafe` only in the
//!    [`unsafe_audit::UNSAFE_ALLOWLIST`] files (`crates/parallel` and
//!    simd's AVX2/NEON lane files), always with an adjacent `// SAFETY:`
//!    comment; every other crate root carries `#![forbid(unsafe_code)]`.
//! 3. **Atomics lint** ([`atomics`]) — every atomic-ordering site in
//!    production code carries a `// ORDERING:` justification that
//!    *classifies* it (counter / flag / handoff / external-hb); `Relaxed`
//!    on an implied Release/Acquire handoff is flagged.
//! 4. **Lock order** ([`lockorder`]) — the static lock-nesting graph of
//!    `crates/{serve,parallel,obs}` must be acyclic, every multi-lock
//!    site carries a `// LOCK ORDER:` comment, and the total order is
//!    committed to `crates/analyzer/lock_order.snap`.
//! 5. **Condvar discipline** ([`condvar`]) — waits re-check their
//!    predicate, waited-on condvars are notified, and predicate mutations
//!    pair with a notify (or an explicit `// NO-NOTIFY:` justification).
//!
//! The static passes prove shape properties; their dynamic complement is
//! `crates/modelcheck`, which searches the interleavings of
//! serve's own protocol code (`iwino_serve::protocol`) under a
//! deterministic scheduler.
//!
//! Findings print rustc-style to stderr and export as JSON (schema v2,
//! `"kind": "analysis"`) for `scripts/check.sh`, which fails the gate on
//! any finding.

#![forbid(unsafe_code)]

pub mod atomics;
pub mod condvar;
pub mod diag;
pub mod lockorder;
pub mod scan;
pub mod symbolic;
pub mod unsafe_audit;

pub use diag::{Finding, Pass};

use iwino_obs::Json;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Workspace-relative location of the committed coefficient-bound snapshot.
pub const SNAPSHOT_REL_PATH: &str = "crates/analyzer/transform_bounds.snap";

/// Workspace-relative location of the committed lock-order snapshot.
pub const LOCK_SNAPSHOT_REL_PATH: &str = "crates/analyzer/lock_order.snap";

/// Analyzer configuration.
pub struct Options {
    /// Workspace root to scan.
    pub root: PathBuf,
    /// Rewrite the coefficient-bound snapshot instead of diffing it.
    pub fix_snapshot: bool,
}

/// The result of one full analysis run.
pub struct Analysis {
    pub findings: Vec<Finding>,
    pub bounds: Vec<symbolic::BoundsRow>,
    pub files_scanned: usize,
    pub pairs_verified: usize,
    /// Set when `--fix-snapshot` rewrote the snapshot file(s).
    pub snapshot_written: bool,
    /// Static lock-nesting graph of the serving-stack crates.
    pub lock_graph: lockorder::LockGraph,
    /// Classified atomic-ordering sites.
    pub atomic_sites: Vec<atomics::AtomicSite>,
    /// Condvar wait/notify/mutation counts.
    pub condvar_summary: condvar::CondvarSummary,
}

impl Analysis {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// JSON report. Schema v2 documents carry a `"kind"` discriminator;
    /// analyzer reports use `"analysis"` (the obs metrics exporter uses
    /// `"metrics"`).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::from(iwino_obs::SCHEMA_VERSION)),
            ("kind", Json::from("analysis")),
            ("files_scanned", Json::from(self.files_scanned)),
            ("pairs_verified", Json::from(self.pairs_verified)),
            ("clean", Json::from(self.is_clean())),
            (
                "findings",
                Json::Arr(self.findings.iter().map(Finding::to_json).collect()),
            ),
            (
                "concurrency",
                Json::obj(vec![
                    ("locks", Json::from(self.lock_graph.locks.len())),
                    (
                        "lock_edges",
                        Json::Arr(
                            self.lock_graph
                                .edges
                                .keys()
                                .map(|(o, i)| Json::from(format!("{o} -> {i}").as_str()))
                                .collect(),
                        ),
                    ),
                    ("atomic_sites", Json::from(self.atomic_sites.len())),
                    (
                        "relaxed_sites",
                        Json::from(self.atomic_sites.iter().filter(|s| s.relaxed).count()),
                    ),
                    ("condvar_waits", Json::from(self.condvar_summary.waits)),
                    ("condvar_notifies", Json::from(self.condvar_summary.notifies)),
                    ("guarded_mutations", Json::from(self.condvar_summary.guarded_mutations)),
                ]),
            ),
            (
                "transform_bounds",
                Json::Arr(
                    self.bounds
                        .iter()
                        .map(|b| {
                            Json::obj(vec![
                                ("alpha", Json::from(b.alpha)),
                                ("n", Json::from(b.n)),
                                ("r", Json::from(b.r)),
                                ("max_coeff", Json::from(b.max_coeff.to_string())),
                                ("amp", Json::from(b.amp.to_string())),
                                ("amp_f64", Json::from(b.amp.to_f64())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Run all five passes over the workspace at `opts.root`.
pub fn analyze_workspace(opts: &Options) -> io::Result<Analysis> {
    let snapshot_path = opts.root.join(SNAPSHOT_REL_PATH);
    let mut findings = Vec::new();
    let mut snapshot_written = false;

    // Pass 1 — symbolic verification + bounds snapshot.
    let (sym_findings, bounds) = if opts.fix_snapshot {
        let (mut f, rows) = symbolic::run(None, SNAPSHOT_REL_PATH);
        // The missing/stale snapshot finding is the one we are here to fix;
        // genuine identity failures must still be reported.
        f.retain(|x| !x.message.contains("snapshot"));
        fs::write(&snapshot_path, symbolic::render_snapshot(&rows))?;
        snapshot_written = true;
        (f, rows)
    } else {
        let committed = fs::read_to_string(&snapshot_path).ok();
        symbolic::run(committed.as_deref(), SNAPSHOT_REL_PATH)
    };
    let pairs_verified = bounds.len();
    findings.extend(sym_findings);

    // Passes 2 and 3 — source scanning.
    let files = scan_sources(&opts.root)?;
    findings.extend(unsafe_audit::audit_unsafe(&files));
    findings.extend(unsafe_audit::audit_forbid(&files));
    let (atomic_findings, atomic_sites) = atomics::lint_atomics_classified(&files);
    findings.extend(atomic_findings);

    // Pass 4 — lock order + snapshot.
    let lock_snapshot_path = opts.root.join(LOCK_SNAPSHOT_REL_PATH);
    let (lock_findings, lock_graph) = if opts.fix_snapshot {
        let (mut f, graph) = lockorder::run(&files, None, LOCK_SNAPSHOT_REL_PATH);
        f.retain(|x| !x.message.contains("snapshot"));
        fs::write(&lock_snapshot_path, lockorder::render_snapshot(&graph))?;
        snapshot_written = true;
        (f, graph)
    } else {
        let committed = fs::read_to_string(&lock_snapshot_path).ok();
        lockorder::run(&files, committed.as_deref(), LOCK_SNAPSHOT_REL_PATH)
    };
    findings.extend(lock_findings);

    // Pass 5 — condvar discipline.
    let (cv_findings, condvar_summary) = condvar::lint_condvars(&files);
    findings.extend(cv_findings);

    // Deterministic report order: pass, then file, then line.
    findings.sort_by(|a, b| (a.pass.code(), &a.file, a.line).cmp(&(b.pass.code(), &b.file, b.line)));

    Ok(Analysis {
        findings,
        bounds,
        files_scanned: files.len(),
        pairs_verified,
        snapshot_written,
        lock_graph,
        atomic_sites,
        condvar_summary,
    })
}

/// Collect and lex every workspace `.rs` file.
pub fn scan_sources(root: &Path) -> io::Result<Vec<scan::ScannedFile>> {
    scan::workspace_rs_files(root)?
        .iter()
        .map(|p| scan::scan_file(root, p))
        .collect()
}
