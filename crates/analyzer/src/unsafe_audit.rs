//! Pass 2 — the `unsafe` audit.
//!
//! Three rules, mirroring the workspace's safety story (`crates/parallel`
//! and `crates/simd` are the only crates allowed to hold `unsafe`: parallel
//! because the scoped thread-pool lifetime erasure and the disjoint-slice
//! splitter cannot be expressed in safe Rust without rayon, simd because
//! explicit AVX2/NEON intrinsics are `unsafe fn` behind
//! `#[target_feature]` and raw-pointer microkernel loops — including the
//! packed GEMM's register tile, which `iwino-gemm` reaches through simd's
//! dispatch table):
//!
//! 1. the token `unsafe` may appear only in [`UNSAFE_ALLOWLIST`] files;
//! 2. every line containing `unsafe` in an allowlisted file must carry a
//!    `// SAFETY:` justification on the same line or within the
//!    [`DOC_WINDOW`] preceding lines;
//! 3. every other workspace crate root must declare
//!    `#![forbid(unsafe_code)]`, so the compiler — not just this audit —
//!    rejects regressions.

use crate::diag::{Finding, Pass};
use crate::scan::{documented, has_word, ScannedFile};

/// The only files in which `unsafe` is tolerated (workspace-relative).
pub const UNSAFE_ALLOWLIST: &[&str] = &[
    "crates/parallel/src/lib.rs",
    "crates/parallel/src/slice_parts.rs",
    "crates/simd/src/avx2.rs",
    "crates/simd/src/neon.rs",
];

/// How many preceding *code* lines a `// SAFETY:` (or `// ORDERING:`)
/// marker may sit above its site (comment and blank lines are free — see
/// [`crate::scan::documented`]). Three code lines lets one justification
/// cover a small cluster of adjacent sites without letting unrelated
/// comments far above count.
pub const DOC_WINDOW: usize = 3;

/// Crates whose root is exempt from the `#![forbid(unsafe_code)]`
/// requirement — exactly the crates owning allowlisted unsafe files.
const FORBID_EXEMPT_PREFIXES: &[&str] = &["crates/parallel/", "crates/simd/"];

/// Rules 1 and 2: allowlist membership and `// SAFETY:` adjacency.
pub fn audit_unsafe(files: &[ScannedFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        let allowlisted = UNSAFE_ALLOWLIST.contains(&file.rel_path.as_str());
        for (idx, line) in file.lines.iter().enumerate() {
            if !has_word(&line.code, "unsafe") {
                continue;
            }
            if !allowlisted {
                findings.push(Finding::new(
                    Pass::UnsafeAudit,
                    &file.rel_path,
                    idx + 1,
                    "`unsafe` outside the allowlist (only crates/parallel and crates/simd may use it)",
                ));
            } else if !documented(&file.lines, idx, "SAFETY:", DOC_WINDOW) {
                findings.push(Finding::new(
                    Pass::UnsafeAudit,
                    &file.rel_path,
                    idx + 1,
                    format!("`unsafe` without an adjacent `// SAFETY:` justification (within {DOC_WINDOW} lines)"),
                ));
            }
        }
    }
    findings
}

/// Rule 3: every non-exempt crate root carries `#![forbid(unsafe_code)]`.
///
/// Crate roots are recognised structurally: `src/lib.rs` at the workspace
/// root (the umbrella crate) and `crates/<name>/src/lib.rs`.
pub fn audit_forbid(files: &[ScannedFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        if !is_crate_root(&file.rel_path) {
            continue;
        }
        if FORBID_EXEMPT_PREFIXES.iter().any(|p| file.rel_path.starts_with(p)) {
            continue;
        }
        let has_forbid = file
            .lines
            .iter()
            .any(|l| l.code.replace(' ', "").contains("#![forbid(unsafe_code)]"));
        if !has_forbid {
            findings.push(Finding::new(
                Pass::UnsafeAudit,
                &file.rel_path,
                1,
                "crate root is missing `#![forbid(unsafe_code)]`",
            ));
        }
    }
    findings
}

fn is_crate_root(rel_path: &str) -> bool {
    if rel_path == "src/lib.rs" {
        return true;
    }
    let parts: Vec<&str> = rel_path.split('/').collect();
    parts.len() == 4 && parts[0] == "crates" && parts[2] == "src" && parts[3] == "lib.rs"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_str;

    fn file(rel_path: &str, src: &str) -> ScannedFile {
        ScannedFile {
            rel_path: rel_path.to_string(),
            lines: scan_str(src),
        }
    }

    #[test]
    fn flags_unsafe_outside_allowlist() {
        let f = file("crates/core/src/kernel.rs", "fn f() {\n    unsafe { danger() }\n}\n");
        let findings = audit_unsafe(&[f]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 2);
        assert!(findings[0].message.contains("allowlist"));
    }

    #[test]
    fn allowlisted_unsafe_needs_safety_comment() {
        let undocumented = file("crates/parallel/src/lib.rs", "fn f() {\n    unsafe { danger() }\n}\n");
        assert_eq!(audit_unsafe(&[undocumented]).len(), 1);
        let documented = file(
            "crates/parallel/src/lib.rs",
            "fn f() {\n    // SAFETY: danger() is fine because …\n    unsafe { danger() }\n}\n",
        );
        assert!(audit_unsafe(&[documented]).is_empty());
    }

    #[test]
    fn comments_and_strings_never_fire() {
        let f = file(
            "crates/core/src/lib.rs",
            "// unsafe in prose is fine\nlet msg = \"unsafe in a string\";\n/* unsafe in a block */\n",
        );
        assert!(audit_unsafe(&[f]).is_empty());
    }

    #[test]
    fn forbid_attr_required_on_crate_roots() {
        let missing = file("crates/tensor/src/lib.rs", "pub mod shape;\n");
        let present = file("crates/obs/src/lib.rs", "#![forbid(unsafe_code)]\npub mod json;\n");
        let exempt = file("crates/parallel/src/lib.rs", "pub mod slice_parts;\n");
        let not_root = file("crates/tensor/src/shape.rs", "pub struct S;\n");
        let findings = audit_forbid(&[missing, present, exempt, not_root]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].file, "crates/tensor/src/lib.rs");
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn umbrella_root_is_a_crate_root() {
        assert!(is_crate_root("src/lib.rs"));
        assert!(is_crate_root("crates/nn/src/lib.rs"));
        assert!(!is_crate_root("crates/nn/src/layers.rs"));
        assert!(!is_crate_root("src/main.rs"));
    }
}
