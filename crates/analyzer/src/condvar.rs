//! Pass 5 — condvar discipline for the serving-stack crates.
//!
//! Three rules over `crates/{serve,parallel,obs}` production code:
//!
//! 1. **Waits re-check their predicate** — every `Condvar::wait` /
//!    `wait_timeout` must either be `wait_while` or sit lexically inside a
//!    `loop`/`while` block, so a spurious or stolen wakeup re-evaluates
//!    the condition instead of proceeding on stale state.
//! 2. **Waited-on condvars are notified somewhere** — a condvar with a
//!    wait site but no `notify_one`/`notify_all` anywhere in the crate's
//!    production code can only ever wake spuriously.
//! 3. **Predicate mutations pair with a notify** — the mutex a condvar
//!    waits with guards the predicate; any mutation made through that
//!    mutex's guard is a state change a waiter may be sleeping on. A
//!    function that mutates such state must also notify one of the
//!    associated condvars, or carry an explicit `// NO-NOTIFY:`
//!    justification (within [`crate::unsafe_audit::DOC_WINDOW`] code
//!    lines) saying why no sleeper cares — e.g. a consumer-side drain
//!    nobody waits on. This is the classic missed-wakeup shape: flip the
//!    flag, forget the notify.
//!
//! Mutation detection is lexical (assignments and a list of mutating
//! collection methods through a guard binding or a
//! `.lock().unwrap()`-temporary) and deliberately conservative: derived
//! borrows (`let q = &mut guard.field; q.push(…)`) are not chased, so the
//! pass under-reports rather than spraying false positives. The protocols
//! it cannot see are exactly what `crates/modelcheck` explores
//! dynamically.

use crate::diag::{Finding, Pass};
use crate::lockorder::{crate_of, in_scope};
use crate::scan::{
    chained, documented, fn_spans, ident_after, ident_before, innermost_fn, production_len, receiver_before,
    ScannedFile,
};
use crate::unsafe_audit::DOC_WINDOW;
use std::collections::{BTreeMap, BTreeSet};

/// Methods that mutate the receiver — through a guard, a predicate change.
const MUT_METHODS: &[&str] = &[
    "push",
    "push_back",
    "push_front",
    "pop",
    "pop_back",
    "pop_front",
    "insert",
    "remove",
    "swap_remove",
    "drain",
    "clear",
    "take",
    "replace",
    "extend",
    "truncate",
];

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// One `cv.wait(guard)`-shaped site.
#[derive(Clone, Debug)]
struct WaitSite {
    file: usize,
    line: usize,
    cv: String,
    guard: Option<String>,
    in_loop: bool,
    wait_while: bool,
}

#[derive(Clone, Debug)]
struct NotifySite {
    file: usize,
    line: usize,
    cv: String,
}

/// Aggregate counts for the JSON report (proof the pass saw something).
#[derive(Clone, Copy, Debug, Default)]
pub struct CondvarSummary {
    pub waits: usize,
    pub notifies: usize,
    pub guarded_mutations: usize,
}

/// Word-boundary occurrences of `pat` (a `.method(`-shaped pattern) in
/// `code`, as byte offsets of the leading `.`.
fn method_sites(code: &str, pat: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = code[from..].find(pat) {
        out.push(from + p);
        from = from + p + 1;
    }
    out
}

/// Does an assignment operator (`=`, `+=`, `-=`, … but not `==`, `!=`,
/// `<=`, `>=`, `=>`) appear in `code[from..]`?
fn has_assignment_after(code: &str, from: usize) -> bool {
    let bytes = code.as_bytes();
    for i in from..bytes.len() {
        if bytes[i] != b'=' {
            continue;
        }
        let prev = if i > 0 { bytes[i - 1] } else { b' ' };
        let next = bytes.get(i + 1).copied().unwrap_or(b' ');
        if next == b'=' || matches!(prev, b'=' | b'!' | b'<' | b'>') || next == b'>' {
            continue;
        }
        return true;
    }
    false
}

/// Does `code[from..]` (the tail after a guard reference) call a mutating
/// method — `.push_back(`, `.take(`, …? The leading `.` and trailing `(`
/// in the pattern give exact-method matching (`.pop_front(` is its own
/// entry and never counts as `.pop(`).
fn has_mut_method_after(code: &str, from: usize) -> bool {
    MUT_METHODS.iter().any(|m| code[from..].contains(&format!(".{m}(")))
}

/// Lint the in-scope files; returns findings plus summary counts.
pub fn lint_condvars(files: &[ScannedFile]) -> (Vec<Finding>, CondvarSummary) {
    let mut findings = Vec::new();
    let mut summary = CondvarSummary::default();
    let mut waits: Vec<WaitSite> = Vec::new();
    let mut notifies: Vec<NotifySite> = Vec::new();
    // (crate, guard-binding mutex) → condvars waited with it.
    let mut assoc: BTreeMap<(String, String), BTreeSet<String>> = BTreeMap::new();

    // Phase 1: collect wait / notify sites with loop context.
    for (fidx, file) in files.iter().enumerate() {
        if !in_scope(&file.rel_path) {
            continue;
        }
        let n = production_len(&file.lines);
        let spans = fn_spans(&file.lines[..n]);
        let mut depth = 0usize;
        // Depths at which `loop`/`while` blocks are currently open.
        let mut loop_blocks: Vec<usize> = Vec::new();
        let mut armed_loop = false;
        for (idx, line) in file.lines[..n].iter().enumerate() {
            let code = &line.code;
            let bytes = code.as_bytes();
            let mut word = String::new();
            let mut i = 0usize;
            while i < bytes.len() {
                let c = bytes[i] as char;
                if is_ident(c) {
                    word.push(c);
                    i += 1;
                    continue;
                }
                if word == "loop" || word == "while" {
                    armed_loop = true;
                } else if word == "fn" {
                    armed_loop = false;
                }
                word.clear();
                for (pat, wait_while) in [(".wait(", false), (".wait_timeout(", false), (".wait_while(", true)] {
                    if code[i..].starts_with(pat) {
                        if let Some(cv) = receiver_before(&file.lines, idx, i) {
                            waits.push(WaitSite {
                                file: fidx,
                                line: idx + 1,
                                cv: format!("{}::{cv}", crate_of(&file.rel_path)),
                                guard: ident_after(code, i + pat.len()),
                                in_loop: !loop_blocks.is_empty() || armed_loop,
                                wait_while,
                            });
                        }
                    }
                }
                for pat in [".notify_one(", ".notify_all("] {
                    if code[i..].starts_with(pat) {
                        if let Some(cv) = receiver_before(&file.lines, idx, i) {
                            notifies.push(NotifySite {
                                file: fidx,
                                line: idx + 1,
                                cv: format!("{}::{cv}", crate_of(&file.rel_path)),
                            });
                        }
                    }
                }
                match c {
                    '{' => {
                        if armed_loop {
                            loop_blocks.push(depth);
                            armed_loop = false;
                        }
                        depth += 1;
                    }
                    '}' => {
                        depth = depth.saturating_sub(1);
                        while loop_blocks.last().is_some_and(|d| *d >= depth) {
                            loop_blocks.pop();
                        }
                    }
                    ';' => armed_loop = false,
                    _ => {}
                }
                i += 1;
            }
            if word == "loop" || word == "while" {
                armed_loop = true;
            }
        }

        // Associate each wait's guard with the mutex it was locked from,
        // searching upward within the innermost function.
        for w in waits.iter().filter(|w| w.file == fidx) {
            let Some(guard) = &w.guard else { continue };
            let idx = w.line - 1;
            let span = innermost_fn(&spans, idx);
            let start = span.map(|s| s.open).unwrap_or(0);
            for k in (start..=idx).rev() {
                let code = &chained(&file.lines, k);
                let binds = code
                    .trim_start()
                    .strip_prefix("let ")
                    .map(|r| {
                        r.trim_start()
                            .strip_prefix("mut ")
                            .unwrap_or(r.trim_start())
                            .trim_start()
                    })
                    .is_some_and(|r| r.starts_with(guard.as_str()) && !r[guard.len()..].starts_with(is_ident));
                if binds {
                    // `let guard = cv.wait(guard)…` (or `wait_while`) rebinds
                    // the same guard — transparent for association; keep
                    // searching upward for the `.lock()` that created it.
                    if (code.contains(".wait(") || code.contains(".wait_while(")) && !code.contains(".lock()") {
                        continue;
                    }
                    if let Some(p) = code.find(".lock()") {
                        if let Some(mutex) = ident_before(code, p) {
                            assoc
                                .entry((crate_of(&file.rel_path).to_string(), mutex))
                                .or_default()
                                .insert(w.cv.clone());
                        }
                    }
                    break;
                }
            }
        }
    }
    summary.waits = waits.len();
    summary.notifies = notifies.len();

    // Rule 1: waits re-check their predicate.
    for w in &waits {
        if !w.wait_while && !w.in_loop {
            findings.push(Finding::new(
                Pass::CondvarDiscipline,
                &files[w.file].rel_path,
                w.line,
                format!(
                    "bare `{}.wait(…)` outside a predicate loop — use `wait_while` or re-check the \
                     predicate in a `loop`/`while`",
                    w.cv.rsplit("::").next().unwrap_or(&w.cv),
                ),
            ));
        }
    }

    // Rule 2: every waited-on condvar is notified somewhere in scope.
    let notified: BTreeSet<&str> = notifies.iter().map(|n| n.cv.as_str()).collect();
    let mut reported: BTreeSet<&str> = BTreeSet::new();
    for w in &waits {
        if !notified.contains(w.cv.as_str()) && reported.insert(w.cv.as_str()) {
            findings.push(Finding::new(
                Pass::CondvarDiscipline,
                &files[w.file].rel_path,
                w.line,
                format!("Condvar `{}` is waited on but never notified in production code", w.cv),
            ));
        }
    }

    // Rule 3: guard mutations of waited-on state pair with a notify.
    for (fidx, file) in files.iter().enumerate() {
        if !in_scope(&file.rel_path) {
            continue;
        }
        let krate = crate_of(&file.rel_path).to_string();
        let watched: Vec<(&String, &BTreeSet<String>)> = assoc
            .iter()
            .filter(|((c, _), _)| *c == krate)
            .map(|((_, m), cvs)| (m, cvs))
            .collect();
        if watched.is_empty() {
            continue;
        }
        let n = production_len(&file.lines);
        let spans = fn_spans(&file.lines[..n]);
        for (idx, line) in file.lines[..n].iter().enumerate() {
            let code = &line.code;
            let mut hit: Option<(&String, &BTreeSet<String>)> = None;

            // Temporary-guard form: `….mutex.lock().unwrap()` followed by
            // an assignment or a mutating method in the same statement.
            for p in method_sites(code, ".lock()") {
                let Some(mutex) = ident_before(code, p) else { continue };
                let Some(entry) = watched.iter().find(|(m, _)| **m == mutex) else {
                    continue;
                };
                let after = p + ".lock()".len();
                if has_assignment_after(code, after) || has_mut_method_after(code, after) {
                    hit = Some(*entry);
                }
            }

            // Named-guard form: find a guard binding of a watched mutex in
            // the enclosing function, then look for mutations through it.
            if hit.is_none() {
                if let Some(span) = innermost_fn(&spans, idx) {
                    for (mutex, cvs) in &watched {
                        let guard = (span.open..idx).rev().find_map(|k| {
                            let c = &file.lines[k].code;
                            let name = c.trim_start().strip_prefix("let ").and_then(|r| {
                                let r = r.trim_start();
                                let r = r.strip_prefix("mut ").unwrap_or(r).trim_start();
                                let end = r.find(|ch: char| !is_ident(ch)).unwrap_or(r.len());
                                (end > 0).then(|| r[..end].to_string())
                            })?;
                            let p = c.find(".lock()")?;
                            (ident_before(c, p)? == **mutex).then_some(name)
                        });
                        let Some(guard) = guard else { continue };
                        // Occurrences of the guard name followed by `.` and
                        // a mutation, or `*guard = …`.
                        let mut from = 0;
                        while let Some(p) = code[from..].find(guard.as_str()) {
                            let start = from + p;
                            let end = start + guard.len();
                            from = start + 1;
                            let left = start == 0 || !is_ident(code.as_bytes()[start - 1] as char);
                            let right_char = code.as_bytes().get(end).map(|b| *b as char);
                            if !left || right_char.is_some_and(is_ident) {
                                continue;
                            }
                            let deref = start > 0 && code.as_bytes()[start - 1] == b'*';
                            match right_char {
                                Some('.') if has_assignment_after(code, end) || has_mut_method_after(code, end) => {
                                    hit = Some((mutex, cvs));
                                }
                                _ if deref && has_assignment_after(code, end) => hit = Some((mutex, cvs)),
                                _ => {}
                            }
                        }
                    }
                }
            }

            let Some((mutex, cvs)) = hit else { continue };
            summary.guarded_mutations += 1;
            let span = innermost_fn(&spans, idx);
            let fn_has_notify = notifies.iter().any(|nt| {
                nt.file == fidx
                    && cvs.contains(&nt.cv)
                    && span.map(|s| s.open < nt.line && nt.line - 1 <= s.close).unwrap_or(true)
            });
            if fn_has_notify || documented(&file.lines, idx, "NO-NOTIFY:", DOC_WINDOW) {
                continue;
            }
            let cv_list: Vec<&str> = cvs.iter().map(String::as_str).collect();
            findings.push(Finding::new(
                Pass::CondvarDiscipline,
                &file.rel_path,
                idx + 1,
                format!(
                    "mutation through `{}::{mutex}` guard — state waited on by {{{}}} — without a paired \
                     notify in this function; add a `notify_*` or a `// NO-NOTIFY:` justification",
                    krate,
                    cv_list.join(", "),
                ),
            ));
        }
    }

    (findings, summary)
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
    fn bare_wait_is_flagged_loop_wait_is_not() {
        let bare = file(
            "crates/serve/src/x.rs",
            "fn f(&self) {\n    let mut g = self.state.lock().unwrap();\n    g = self.cv.wait(g).unwrap();\n    self.cv.notify_all();\n}\n",
        );
        let (findings, s) = lint_condvars(&[bare]);
        assert_eq!(s.waits, 1);
        assert!(
            findings.iter().any(|f| f.line == 3 && f.message.contains("bare")),
            "{findings:?}"
        );

        let looped = file(
            "crates/serve/src/x.rs",
            "fn f(&self) {\n    let mut g = self.state.lock().unwrap();\n    while !g.ready {\n        g = self.cv.wait(g).unwrap();\n    }\n    self.cv.notify_all();\n}\n",
        );
        let (findings, _) = lint_condvars(&[looped]);
        assert!(findings.iter().all(|f| !f.message.contains("bare")), "{findings:?}");

        let wait_while = file(
            "crates/serve/src/x.rs",
            "fn f(&self) {\n    let g = self.state.lock().unwrap();\n    let g = self.cv.wait_while(g, |s| !s.ready).unwrap();\n    self.cv.notify_all();\n}\n",
        );
        let (findings, _) = lint_condvars(&[wait_while]);
        assert!(findings.iter().all(|f| !f.message.contains("bare")), "{findings:?}");
    }

    #[test]
    fn never_notified_condvar_is_flagged() {
        let f = file(
            "crates/serve/src/x.rs",
            "fn f(&self) {\n    let mut g = self.state.lock().unwrap();\n    loop {\n        g = self.cv.wait(g).unwrap();\n    }\n}\n",
        );
        let (findings, _) = lint_condvars(&[f]);
        assert!(
            findings.iter().any(|f| f.message.contains("never notified")),
            "{findings:?}"
        );
    }

    #[test]
    fn unpaired_predicate_mutation_is_flagged() {
        // One fn waits on state via cv; another mutates state without
        // notifying and without a NO-NOTIFY justification.
        let src = "fn w(&self) {\n    let mut g = self.state.lock().unwrap();\n    while !g.done {\n        g = self.cv.wait(g).unwrap();\n    }\n}\nfn m(&self) {\n    self.state.lock().unwrap().done = true;\n}\nfn ok(&self) {\n    self.state.lock().unwrap().done = true;\n    self.cv.notify_all();\n}\n";
        let f = file("crates/serve/src/x.rs", src);
        let (findings, s) = lint_condvars(&[f]);
        assert_eq!(s.guarded_mutations, 2);
        let flagged: Vec<usize> = findings
            .iter()
            .filter(|f| f.message.contains("paired"))
            .map(|f| f.line)
            .collect();
        assert_eq!(flagged, vec![8], "{findings:?}");
        // A NO-NOTIFY justification silences it.
        let src = src.replace(
            "fn m(&self) {\n    self.state.lock().unwrap().done = true;",
            "fn m(&self) {\n    // NO-NOTIFY: consumer-side take; nobody sleeps on `done` becoming true.\n    self.state.lock().unwrap().done = true;",
        );
        let f = file("crates/serve/src/x.rs", src.as_str());
        let (findings, _) = lint_condvars(&[f]);
        assert!(findings.iter().all(|f| !f.message.contains("paired")), "{findings:?}");
    }

    #[test]
    fn named_guard_mutations_and_rebinding() {
        // Rebinding the guard through wait() is not a mutation; a real
        // field assignment through the named guard is.
        let src = "fn w(&self) {\n    let mut g = self.state.lock().unwrap();\n    while !g.done {\n        g = self.cv.wait(g).unwrap();\n    }\n}\nfn m(&self) {\n    let mut g = self.state.lock().unwrap();\n    g.count += 1;\n}\n";
        let f = file("crates/serve/src/x.rs", src);
        let (findings, s) = lint_condvars(&[f]);
        assert_eq!(s.guarded_mutations, 1, "{findings:?}");
        assert!(findings.iter().any(|f| f.line == 9), "{findings:?}");
        // Comparisons and reads through the guard are not mutations.
        let src = "fn w(&self) {\n    let mut g = self.state.lock().unwrap();\n    while !g.done {\n        g = self.cv.wait(g).unwrap();\n    }\n    self.cv.notify_all();\n}\nfn r(&self) {\n    let g = self.state.lock().unwrap();\n    let _n = g.queue.len();\n    if g.count == 3 {}\n}\n";
        let f = file("crates/serve/src/x.rs", src);
        let (_, s) = lint_condvars(&[f]);
        assert_eq!(s.guarded_mutations, 0);
    }

    #[test]
    fn wait_while_rebinding_keeps_the_guard_association() {
        // The guard re-bound through `wait_while` still belongs to `state`,
        // so an unpaired mutation of `state` elsewhere is flagged.
        let src = "fn w(&self) {\n    let g = self.state.lock();\n    let mut g = self.state.wait_while(g, |s| !s.done);\n    g.done = false;\n}\nfn m(&self) {\n    self.state.lock().done = true;\n}\n";
        let f = file("crates/serve/src/x.rs", src);
        let (findings, s) = lint_condvars(&[f]);
        assert_eq!(s.guarded_mutations, 2, "{findings:?}");
        let flagged: Vec<usize> = findings
            .iter()
            .filter(|f| f.message.contains("paired"))
            .map(|f| f.line)
            .collect();
        assert_eq!(flagged, vec![4, 7], "{findings:?}");
    }

    #[test]
    fn out_of_scope_files_are_ignored() {
        let f = file(
            "crates/engine/src/lib.rs",
            "fn f(&self) { let g = self.state.lock().unwrap(); let g = self.cv.wait(g).unwrap(); }\n",
        );
        let (findings, s) = lint_condvars(&[f]);
        assert!(findings.is_empty());
        assert_eq!(s.waits, 0);
    }
}
