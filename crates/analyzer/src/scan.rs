//! Comment- and string-aware source scanning (no `syn`, offline).
//!
//! The audits must not fire on the word `unsafe` inside a doc comment or a
//! diagnostic string, and must *find* markers like `// SAFETY:` that live
//! only in comments. So every file is split, line by line, into the code
//! text (comments stripped, string/char-literal *contents* blanked) and the
//! comment text (everything inside `//…`, `/*…*/`, including doc comments).
//! The lexer handles nested block comments, escaped quotes, raw strings
//! (`r"…"`, `r#"…"#`, byte variants) and distinguishes char literals from
//! lifetimes — the constructs that break naive `grep`-based audits.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One source line split into its code and comment constituents.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SourceLine {
    /// Code with comments removed and literal contents blanked (the
    /// delimiting quotes are kept so the line still reads as code).
    pub code: String,
    /// Concatenated comment text appearing on this line.
    pub comment: String,
}

/// A scanned file: workspace-relative path plus its line decomposition.
#[derive(Clone, Debug)]
pub struct ScannedFile {
    /// `/`-separated path relative to the scan root.
    pub rel_path: String,
    pub lines: Vec<SourceLine>,
}

#[derive(PartialEq, Eq, Clone, Copy)]
enum State {
    Code,
    LineComment,
    /// Nesting depth of `/* … */`.
    BlockComment(u32),
    Str,
    /// Number of `#`s that close the raw string.
    RawStr(usize),
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Split `src` into per-line code/comment text. Total — never fails; an
/// unterminated literal simply runs to end of file.
pub fn scan_str(src: &str) -> Vec<SourceLine> {
    let chars: Vec<char> = src.chars().collect();
    let mut lines = Vec::new();
    let mut cur = SourceLine::default();
    let mut st = State::Code;
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            lines.push(std::mem::take(&mut cur));
            if st == State::LineComment {
                st = State::Code;
            }
            i += 1;
            continue;
        }
        match st {
            State::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    st = State::LineComment;
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    st = State::BlockComment(1);
                    i += 2;
                } else if c == '"' {
                    cur.code.push('"');
                    st = State::Str;
                    i += 1;
                } else if (c == 'r' || c == 'b') && !cur.code.ends_with(is_ident_char) {
                    // Possible raw / byte / raw-byte string prefix.
                    let mut j = i + 1;
                    if c == 'b' && chars.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let hash_start = j;
                    while chars.get(j) == Some(&'#') {
                        j += 1;
                    }
                    let hashes = j - hash_start;
                    let raw = (c == 'r' || j > i + 1) && chars.get(j) == Some(&'"');
                    if raw && (c == 'r' || hashes > 0 || chars.get(i + 1) == Some(&'r')) {
                        cur.code.push('"');
                        st = State::RawStr(hashes);
                        i = j + 1;
                    } else if c == 'b' && chars.get(i + 1) == Some(&'"') {
                        cur.code.push('"');
                        st = State::Str;
                        i += 2;
                    } else {
                        cur.code.push(c);
                        i += 1;
                    }
                } else if c == '\'' {
                    // Char literal vs lifetime. `'\…'` and `'x'` are
                    // literals; anything else (`'a`, `'static`) is a
                    // lifetime and stays code.
                    if chars.get(i + 1) == Some(&'\\') {
                        // Skip the backslash and the escaped character
                        // (covers `'\''`, `'\\'`, `'\n'`, `'\u{…}'`).
                        let mut j = i + 3;
                        while j < chars.len() && chars[j] != '\'' {
                            j += 1;
                        }
                        cur.code.push_str("''");
                        i = j + 1;
                    } else if chars.get(i + 2) == Some(&'\'') {
                        cur.code.push_str("''");
                        i += 3;
                    } else {
                        cur.code.push('\'');
                        i += 1;
                    }
                } else {
                    cur.code.push(c);
                    i += 1;
                }
            }
            State::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    st = State::BlockComment(depth + 1);
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    st = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    i += 2;
                } else if c == '"' {
                    cur.code.push('"');
                    st = State::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                let closes = c == '"' && (1..=hashes).all(|k| chars.get(i + k) == Some(&'#'));
                if closes {
                    cur.code.push('"');
                    st = State::Code;
                    i += 1 + hashes;
                } else {
                    i += 1;
                }
            }
        }
    }
    if !cur.code.is_empty() || !cur.comment.is_empty() {
        lines.push(cur);
    }
    lines
}

/// Word-boundary search: `word` occurs in `code` with no identifier
/// character on either side (so `unsafe` does not match `unsafe_code`).
pub fn has_word(code: &str, word: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let left_ok = start == 0 || !is_ident_char(bytes[start - 1] as char);
        let right_ok = end == bytes.len() || !is_ident_char(bytes[end] as char);
        if left_ok && right_ok {
            return true;
        }
        from = start + 1;
    }
    false
}

/// True if a justification `marker` (e.g. `"SAFETY:"`) appears in the
/// comment text of line `idx` or above it within `window` preceding *code*
/// lines. Pure-comment and blank lines are free — a marker at the top of a
/// multi-line justification block still counts — but crossing more than
/// `window` lines that contain code stops the search, so unrelated comments
/// far above a site never excuse it.
pub fn documented(lines: &[SourceLine], idx: usize, marker: &str, window: usize) -> bool {
    if lines[idx].comment.contains(marker) {
        return true;
    }
    let mut budget = window;
    for line in lines[..idx].iter().rev() {
        if line.comment.contains(marker) {
            return true;
        }
        if !line.code.trim().is_empty() {
            budget -= 1;
            if budget == 0 {
                return false;
            }
        }
    }
    false
}

/// A function body span: `open` is the line of the opening brace, `close`
/// the line of its matching close (0-based, inclusive). Spans nest for
/// nested `fn` items; closures do not open a span (they belong to their
/// enclosing function, which is the right scope for justification rules).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FnSpan {
    pub open: usize,
    pub close: usize,
}

/// Extract every `fn` body span from the code text of `lines`. Purely
/// lexical: the `fn` keyword arms the next `{` (a `;` before it disarms,
/// so trait-method declarations without bodies don't capture the following
/// item's brace).
pub fn fn_spans(lines: &[SourceLine]) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    // Stack of (depth-at-open, open-line) for braces that opened fn bodies.
    let mut fn_stack: Vec<(usize, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut armed = false;
    for (ln, line) in lines.iter().enumerate() {
        let mut word = String::new();
        for c in line.code.chars() {
            if c.is_ascii_alphanumeric() || c == '_' {
                word.push(c);
                continue;
            }
            if word == "fn" {
                armed = true;
            }
            word.clear();
            match c {
                ';' => armed = false,
                '{' => {
                    if armed {
                        fn_stack.push((depth, ln));
                        armed = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if let Some(&(d, open)) = fn_stack.last() {
                        if d == depth {
                            fn_stack.pop();
                            spans.push(FnSpan { open, close: ln });
                        }
                    }
                }
                _ => {}
            }
        }
        if word == "fn" {
            armed = true;
        }
    }
    spans.sort_by_key(|s| (s.open, s.close));
    spans
}

/// The innermost function span containing line `idx`, if any.
pub fn innermost_fn(spans: &[FnSpan], idx: usize) -> Option<FnSpan> {
    spans
        .iter()
        .filter(|s| s.open <= idx && idx <= s.close)
        .min_by_key(|s| s.close - s.open)
        .copied()
}

/// The justification text attached to a `marker` covering line `idx`, if
/// any: the marker line's comment from the marker onward, plus the comment
/// text of the immediately following code-free comment lines (a multi-line
/// justification block). Same search discipline as [`documented`].
pub fn justification(lines: &[SourceLine], idx: usize, marker: &str, window: usize) -> Option<(usize, String)> {
    let start = marker_line(lines, idx, marker, window)?;
    let mut text = lines[start].comment[lines[start].comment.find(marker)? + marker.len()..].to_string();
    // The continuation block: comment-only lines directly below the marker
    // (the first code line — at latest the site itself — ends it).
    for line in lines.iter().skip(start + 1) {
        if !line.code.trim().is_empty() || line.comment.is_empty() {
            break;
        }
        text.push(' ');
        text.push_str(&line.comment);
    }
    Some((start, text))
}

/// The line where the `marker` covering site `idx` lives (same rules as
/// [`documented`]): `idx` itself, or an earlier line within `window`
/// preceding code lines.
pub fn marker_line(lines: &[SourceLine], idx: usize, marker: &str, window: usize) -> Option<usize> {
    if lines[idx].comment.contains(marker) {
        return Some(idx);
    }
    let mut budget = window;
    for (k, line) in lines[..idx].iter().enumerate().rev() {
        if line.comment.contains(marker) {
            return Some(k);
        }
        if !line.code.trim().is_empty() {
            budget -= 1;
            if budget == 0 {
                return None;
            }
        }
    }
    None
}

/// Path components that mark a file as test/bench/example code, exempt
/// from the production-code-only lints.
pub const TEST_DIRS: &[&str] = &["tests", "benches", "examples"];

/// True for files under a [`TEST_DIRS`] directory component.
pub fn is_test_path(rel_path: &str) -> bool {
    rel_path.split('/').any(|part| TEST_DIRS.contains(&part))
}

/// Number of leading production-code lines: everything at or below the
/// first `#[cfg(test)]` line is test code (workspace convention keeps the
/// tests module at the end of the file; the heuristic can only under-lint
/// test code, never skip production code).
pub fn production_len(lines: &[SourceLine]) -> usize {
    lines
        .iter()
        .position(|l| l.code.contains("#[cfg(test)]"))
        .unwrap_or(lines.len())
}

/// The identifier immediately preceding byte offset `pos` in `code`, with
/// one trailing `()` call stripped — so for `shared.state.lock()` at the
/// offset of `.lock()` this yields `state`, and for `trace_registry().lock()`
/// it yields `trace_registry`.
pub fn ident_before(code: &str, pos: usize) -> Option<String> {
    let bytes = code.as_bytes();
    let mut end = pos;
    if end >= 2 && &bytes[end - 2..end] == b"()" {
        end -= 2;
    }
    let mut start = end;
    while start > 0 && is_ident_char(bytes[start - 1] as char) {
        start -= 1;
    }
    if start == end || bytes[start].is_ascii_digit() {
        None
    } else {
        Some(code[start..end].to_string())
    }
}

/// The receiver of the `.method(` call at byte offset `pos` of line `idx`:
/// [`ident_before`] on that line or, when rustfmt moved the call to the
/// start of its own line, the identifier ending the previous code line —
/// `self.ready` then `.wait_while(…)` yields `ready`.
pub fn receiver_before(lines: &[SourceLine], idx: usize, pos: usize) -> Option<String> {
    let code = &lines[idx].code;
    if !code[..pos].trim().is_empty() {
        return ident_before(code, pos);
    }
    let prev = lines[..idx]
        .iter()
        .rev()
        .map(|l| l.code.trim_end())
        .find(|c| !c.is_empty())?;
    ident_before(prev, prev.len())
}

/// Line `idx`'s code with the method-chain lines rustfmt split off it
/// (lines starting with `.` or `?`) appended, so a statement such as
/// `let g = self` / `.state` / `.lock()` reads as one line.
pub fn chained(lines: &[SourceLine], idx: usize) -> String {
    let mut code = lines[idx].code.trim_end().to_string();
    for line in &lines[idx + 1..] {
        let next = line.code.trim();
        if !next.starts_with(['.', '?']) {
            break;
        }
        code.push_str(next);
    }
    code
}

/// The first identifier at or after byte offset `pos` in `code`, skipping
/// whitespace, `&` and the `mut` keyword — used to read the guard argument
/// out of `cv.wait(guard)`.
pub fn ident_after(code: &str, pos: usize) -> Option<String> {
    let mut rest = code.get(pos..)?.trim_start();
    loop {
        if let Some(r) = rest.strip_prefix('&') {
            rest = r.trim_start();
        } else if let Some(r) = rest.strip_prefix("mut ") {
            rest = r.trim_start();
        } else {
            break;
        }
    }
    let end = rest.find(|c: char| !is_ident_char(c)).unwrap_or(rest.len());
    if end == 0 {
        None
    } else {
        Some(rest[..end].to_string())
    }
}

/// Directories never scanned, by path component: build output, the
/// offline vendored crates (they mirror upstream APIs, not our rules) and
/// deliberately-broken analyzer test fixtures.
const SKIP_COMPONENTS: &[&str] = &["target", "vendored", ".git", "fixtures", "repro_results"];

/// Recursively collect every `.rs` file under `root`, skipping
/// `SKIP_COMPONENTS`, sorted by relative path for deterministic reports.
pub fn workspace_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    walk(root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_COMPONENTS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scan one file into its line decomposition, with a root-relative path.
pub fn scan_file(root: &Path, path: &Path) -> io::Result<ScannedFile> {
    let src = fs::read_to_string(path)?;
    let rel = path.strip_prefix(root).unwrap_or(path);
    let rel_path = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/");
    Ok(ScannedFile {
        rel_path,
        lines: scan_str(&src),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(src: &str) -> Vec<String> {
        scan_str(src).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn line_comments_are_separated() {
        let lines = scan_str("let x = 1; // SAFETY: not really code\nlet y = 2;\n");
        assert_eq!(lines[0].code, "let x = 1; ");
        assert!(lines[0].comment.contains("SAFETY: not really code"));
        assert_eq!(lines[1].comment, "");
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let lines = scan_str("a /* one /* two */ still */ b\nc /* open\nunsafe here\n*/ d\n");
        assert_eq!(lines[0].code, "a  b");
        assert!(lines[0].comment.contains("one"));
        assert!(lines[0].comment.contains("still"));
        assert_eq!(lines[1].code, "c ");
        assert_eq!(lines[2].code, "");
        assert!(lines[2].comment.contains("unsafe here"));
        assert_eq!(lines[3].code, " d");
    }

    #[test]
    fn string_contents_are_blanked() {
        let lines = codes("let m = \"unsafe // not a comment\"; call();\n");
        assert_eq!(lines[0], "let m = \"\"; call();");
        // Escaped quote does not close the string early.
        let lines = codes("let m = \"a\\\"unsafe\"; tail\n");
        assert_eq!(lines[0], "let m = \"\"; tail");
    }

    #[test]
    fn raw_strings_are_blanked() {
        assert_eq!(codes("let p = r\"C:\\unsafe\"; x\n")[0], "let p = \"\"; x");
        assert_eq!(codes("let p = r#\"has \"quote\" unsafe\"#; x\n")[0], "let p = \"\"; x");
        assert_eq!(codes("let p = br#\"bytes unsafe\"#; x\n")[0], "let p = \"\"; x");
        // An identifier ending in `r` followed by a call is untouched.
        assert_eq!(codes("for x in iter() {}\n")[0], "for x in iter() {}");
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        assert_eq!(
            codes("let c = 'u'; let l: &'static str;\n")[0],
            "let c = ''; let l: &'static str;"
        );
        assert_eq!(codes("let c = '\\''; rest\n")[0], "let c = ''; rest");
        assert_eq!(codes("fn f<'a>(x: &'a u8) {}\n")[0], "fn f<'a>(x: &'a u8) {}");
    }

    #[test]
    fn word_boundaries() {
        assert!(has_word("unsafe impl Send for X {}", "unsafe"));
        assert!(!has_word("#![forbid(unsafe_code)]", "unsafe"));
        assert!(!has_word("my_unsafe_helper()", "unsafe"));
        assert!(has_word("Ordering::Relaxed", "Relaxed"));
        assert!(!has_word("RelaxedPlus", "Relaxed"));
        assert!(has_word("unsafe", "unsafe"));
    }

    #[test]
    fn documented_window() {
        let lines = scan_str("// SAFETY: fine\nlet a = 0;\nlet b = 0;\nlet c = 0;\nunsafe {}\n");
        assert!(documented(&lines, 1, "SAFETY:", 3));
        assert!(documented(&lines, 3, "SAFETY:", 3));
        assert!(
            !documented(&lines, 4, "SAFETY:", 3),
            "three code lines separate the comment from the site"
        );
    }

    #[test]
    fn documented_skips_comment_and_blank_lines() {
        // A long justification block with the marker on its first line
        // still covers the site: comment/blank lines don't consume the
        // window.
        let block = scan_str("// SAFETY: long argument\n// spanning\n// several\n// lines\n\nunsafe {}\n");
        assert!(documented(&block, 5, "SAFETY:", 3));
        // …and a site after a comment block *plus* too many code lines is
        // still undocumented.
        let far = scan_str("// SAFETY: far\nlet a = 0;\nlet b = 0;\nlet c = 0;\nlet d = 0;\nunsafe {}\n");
        assert!(!documented(&far, 5, "SAFETY:", 3));
    }

    #[test]
    fn unterminated_literal_runs_to_eof() {
        let lines = scan_str("let s = \"open\nunsafe\n");
        assert_eq!(lines.len(), 2);
        assert!(!has_word(&lines[1].code, "unsafe"));
    }
}
