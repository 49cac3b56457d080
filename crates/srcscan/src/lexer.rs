//! The hand-rolled source lexer.
//!
//! [`FileScan`] turns one Rust source file into the shape the scans
//! operate on: a *blanked* copy of the code where string/char literal
//! contents and comments are replaced by spaces (so token searches never
//! match inside them), plus side tables of the extracted string literals
//! and comments, per-line test-region flags, and brace depth. This is a
//! deliberate line-based approximation — no `syn`, no proc-macro
//! expansion — which is exactly enough for [`FileScan::obs_names`], the
//! item parser in [`crate::parser`], and keeps the crate dependency-free.
//!
//! Handled Rust surface: line comments (`//`, `///`, `//!`), nested block
//! comments, plain/byte strings with escapes, raw strings with any hash
//! count (`r"…"`, `r#"…"#`, `br##"…"##`), char and byte-char literals
//! (disambiguated from lifetimes), and `#[cfg(test)]` / `mod tests`
//! region tracking via brace depth.

/// One extracted string literal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrLit {
    /// Byte offset of the opening quote in the blanked code.
    pub offset: usize,
    /// 1-based line of the opening quote.
    pub line: usize,
    /// The literal's (unescaped-as-written) content, escapes left as-is.
    pub content: String,
}

/// One extracted comment (line or block), with position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: usize,
    /// Comment text without the `//` / `/*` markers.
    pub text: String,
}

/// An observability name referenced from code with a string literal:
/// the first literal argument of `.emit(`, `.open_span(`, `.add(`, or
/// `.observe(`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsName {
    /// `"event"`, `"counter"`, or `"gauge"`.
    pub category: &'static str,
    /// The literal name.
    pub name: String,
    /// File the call lives in (workspace-relative).
    pub path: String,
    /// 1-based line of the call.
    pub line: usize,
}

/// A lexed source file.
#[derive(Debug)]
pub struct FileScan {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// Original source, for snippets.
    pub raw: String,
    /// Source with string/char contents and comments blanked to spaces.
    /// Same byte length as `raw`; newlines preserved; the opening and
    /// closing quotes of string literals are kept as `"` markers.
    pub code: String,
    /// Byte offset of the start of each line (0-based index = line - 1).
    pub line_starts: Vec<usize>,
    /// Whether each line is inside a test region (`#[cfg(test)]` item or
    /// `mod tests`), or the whole file is test/example code.
    pub test_line: Vec<bool>,
    /// Extracted string literals in source order.
    pub strings: Vec<StrLit>,
    /// Extracted comments in source order.
    pub comments: Vec<Comment>,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    Block(u32),
    Str { raw_hashes: Option<u32> },
}

impl FileScan {
    /// Lexes `text` (the contents of `rel`).
    pub fn new(rel: &str, text: &str) -> Self {
        let bytes = text.as_bytes();
        let mut code = vec![b' '; bytes.len()];
        let mut strings = Vec::new();
        let mut comments = Vec::new();
        let mut line_starts = vec![0usize];
        let mut line = 1usize;
        let mut state = State::Code;
        let mut lit: Vec<u8> = Vec::new();
        let mut lit_start = (0usize, 0usize);
        let mut comment: Vec<u8> = Vec::new();
        let mut comment_line = 0usize;
        let mut i = 0usize;
        while i < bytes.len() {
            let b = bytes[i];
            if b == b'\n' {
                code[i] = b'\n';
                if state == State::LineComment {
                    comments.push(Comment { line: comment_line, text: take_utf8(&mut comment) });
                    state = State::Code;
                }
                line += 1;
                line_starts.push(i + 1);
                i += 1;
                continue;
            }
            match state {
                State::Code => {
                    if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
                        state = State::LineComment;
                        comment_line = line;
                        comment.clear();
                        i += 2;
                        continue;
                    }
                    if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        state = State::Block(1);
                        comment_line = line;
                        comment.clear();
                        i += 2;
                        continue;
                    }
                    if b == b'"' {
                        code[i] = b'"';
                        lit.clear();
                        lit_start = (i, line);
                        state = State::Str { raw_hashes: None };
                        i += 1;
                        continue;
                    }
                    // Raw / byte strings: r", r#", b", br", br#" ...
                    if (b == b'r' || b == b'b') && !prev_is_ident(&code, i) {
                        if let Some((hashes, skip)) = raw_string_open(bytes, i) {
                            code[i] = b'"'; // marker at the prefix start
                            lit.clear();
                            lit_start = (i, line);
                            state = State::Str { raw_hashes: Some(hashes) };
                            i += skip;
                            continue;
                        }
                        if b == b'b' && bytes.get(i + 1) == Some(&b'"') {
                            code[i + 1] = b'"';
                            lit.clear();
                            lit_start = (i + 1, line);
                            state = State::Str { raw_hashes: None };
                            i += 2;
                            continue;
                        }
                    }
                    if b == b'\'' && (!prev_is_ident(&code, i) || byte_char_prefix(&code, i)) {
                        if let Some(len) = char_literal_len(bytes, i) {
                            // Blank the whole literal (it is never a
                            // token the lints care about).
                            i += len;
                            state = State::Code;
                            continue;
                        }
                        // A lifetime: keep the tick, it is harmless.
                        code[i] = b'\'';
                        i += 1;
                        continue;
                    }
                    code[i] = b;
                    i += 1;
                }
                State::LineComment => {
                    comment.push(b);
                    i += 1;
                }
                State::Block(depth) => {
                    if b == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        if depth == 1 {
                            comments.push(Comment {
                                line: comment_line,
                                text: take_utf8(&mut comment),
                            });
                            state = State::Code;
                        } else {
                            state = State::Block(depth - 1);
                        }
                        i += 2;
                        continue;
                    }
                    if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        state = State::Block(depth + 1);
                        i += 2;
                        continue;
                    }
                    comment.push(b);
                    i += 1;
                }
                State::Str { raw_hashes: None } => {
                    if b == b'\\' && i + 1 < bytes.len() {
                        lit.push(b);
                        lit.push(bytes[i + 1]);
                        i += 2;
                        continue;
                    }
                    if b == b'"' {
                        code[i] = b'"';
                        strings.push(StrLit {
                            offset: lit_start.0,
                            line: lit_start.1,
                            content: take_utf8(&mut lit),
                        });
                        state = State::Code;
                        i += 1;
                        continue;
                    }
                    lit.push(b);
                    i += 1;
                }
                State::Str { raw_hashes: Some(h) } => {
                    if b == b'"' && raw_string_closes(bytes, i, h) {
                        code[i] = b'"';
                        strings.push(StrLit {
                            offset: lit_start.0,
                            line: lit_start.1,
                            content: take_utf8(&mut lit),
                        });
                        state = State::Code;
                        i += 1 + h as usize;
                        continue;
                    }
                    lit.push(b);
                    i += 1;
                }
            }
        }
        if state == State::LineComment || matches!(state, State::Block(_)) {
            comments.push(Comment { line: comment_line, text: take_utf8(&mut comment) });
        }
        let code = String::from_utf8_lossy(&code).into_owned();
        let whole_file_test = rel.contains("/tests/")
            || rel.starts_with("tests/")
            || rel.contains("/examples/")
            || rel.contains("/benches/");
        let test_line = test_regions(&code, line_starts.len(), whole_file_test);
        FileScan {
            rel: rel.to_string(),
            raw: text.to_string(),
            code,
            line_starts,
            test_line,
            strings,
            comments,
        }
    }

    /// 1-based line number of a byte offset into `code`.
    pub fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// Whether the (1-based) line is test code.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_line.get(line - 1).copied().unwrap_or(false)
    }

    /// The blanked code of one (1-based) line.
    pub fn code_line(&self, line: usize) -> &str {
        self.slice_line(&self.code, line)
    }

    /// The raw text of one (1-based) line, for snippets.
    pub fn raw_line(&self, line: usize) -> &str {
        self.slice_line(&self.raw, line)
    }

    fn slice_line<'a>(&self, s: &'a str, line: usize) -> &'a str {
        let start = self.line_starts[line - 1];
        let end = self
            .line_starts
            .get(line)
            .map_or(s.len(), |&e| e.saturating_sub(1));
        &s[start..end.max(start)]
    }

    /// The first string literal at or after byte offset `from` in `code`,
    /// if it begins within `within` bytes.
    pub fn string_after(&self, from: usize, within: usize) -> Option<&StrLit> {
        self.strings
            .iter()
            .find(|s| s.offset >= from && s.offset - from <= within)
    }

    /// Observability names referenced from non-test code: the first
    /// string-literal argument of `.emit(` / `.open_span(` (event kinds),
    /// `.add(` (counters), and `.observe(` (gauges). Calls whose first
    /// argument is not a string literal are skipped — a documented
    /// limitation of the line-based scanner.
    pub fn obs_names(&self) -> Vec<ObsName> {
        let mut out = Vec::new();
        for (needle, category) in [
            (".emit(", "event"),
            (".open_span(", "event"),
            (".add(", "counter"),
            (".observe(", "gauge"),
        ] {
            let mut from = 0;
            while let Some(pos) = self.code[from..].find(needle) {
                let at = from + pos;
                from = at + needle.len();
                let line = self.line_of(at);
                if self.is_test_line(line) {
                    continue;
                }
                // The first argument must start with a string literal
                // (only whitespace/newlines between the paren and it).
                // Scanned as bytes: the code after the paren may hold
                // multi-byte UTF-8, where a fixed-width `str` window
                // could end inside a character.
                let args_at = at + needle.len();
                let first = self.code.as_bytes()[args_at..].iter().find(|b| !b.is_ascii_whitespace());
                if first != Some(&b'"') {
                    continue;
                }
                if let Some(lit) = self.string_after(args_at, 200) {
                    out.push(ObsName {
                        category,
                        name: lit.content.clone(),
                        path: self.rel.clone(),
                        line,
                    });
                }
            }
        }
        out
    }
}

/// Drains an accumulated byte buffer into a `String`. Literals and
/// comments are collected byte-by-byte (the lexer walks bytes, not
/// chars), so multi-byte UTF-8 must be reassembled at the flush point —
/// pushing each byte `as char` would mangle it into Latin-1 mojibake.
fn take_utf8(buf: &mut Vec<u8>) -> String {
    String::from_utf8_lossy(&std::mem::take(buf)).into_owned()
}

fn prev_is_ident(code: &[u8], i: usize) -> bool {
    i > 0 && (code[i - 1].is_ascii_alphanumeric() || code[i - 1] == b'_')
}

/// Whether the `'` at `i` follows a lone `b` — the opening of a byte-char
/// literal like `b'"'`. Without this, `b'"'` would leak its quote into the
/// blanked code and flip string parity for the rest of the file.
fn byte_char_prefix(code: &[u8], i: usize) -> bool {
    i >= 1 && code[i - 1] == b'b' && !prev_is_ident(code, i - 1)
}

/// If `bytes[i..]` opens a raw string (`r"`, `r#"`, `br##"` …), returns
/// `(hash_count, bytes_to_skip_past_opening_quote)`.
fn raw_string_open(bytes: &[u8], i: usize) -> Option<(u32, usize)> {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if bytes.get(j) != Some(&b'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if bytes.get(j) == Some(&b'"') {
        Some((hashes, j + 1 - i))
    } else {
        None
    }
}

/// Whether the `"` at `i` closes a raw string with `hashes` hashes.
fn raw_string_closes(bytes: &[u8], i: usize, hashes: u32) -> bool {
    (0..hashes as usize).all(|k| bytes.get(i + 1 + k) == Some(&b'#'))
}

/// If `bytes[i]` (a `'`) opens a char literal, returns its total byte
/// length; `None` means it is a lifetime tick. A char literal holds
/// exactly one character (or one escape) between the quotes; a lifetime
/// is a tick followed by an identifier with no closing quote.
fn char_literal_len(bytes: &[u8], i: usize) -> Option<usize> {
    let next = *bytes.get(i + 1)?;
    if next == b'\\' {
        // Escaped char: scan to the closing quote.
        let mut j = i + 2;
        while j < bytes.len() && bytes[j] != b'\'' && bytes[j] != b'\n' {
            j += 1;
        }
        return (bytes.get(j) == Some(&b'\'')).then_some(j + 1 - i);
    }
    if next == b'\'' {
        return None; // `''` — not valid Rust; leave it alone.
    }
    // One UTF-8 character, then the closing quote.
    let char_len = match next {
        b if b < 0x80 => 1,
        b if b >= 0xF0 => 4,
        b if b >= 0xE0 => 3,
        _ => 2,
    };
    (bytes.get(i + 1 + char_len) == Some(&b'\'')).then_some(char_len + 2)
}

/// Computes per-line test flags: lines inside an item guarded by
/// `#[cfg(test)]` (or a `mod tests { … }` block), tracked by brace depth.
fn test_regions(code: &str, n_lines: usize, whole_file: bool) -> Vec<bool> {
    let mut flags = vec![whole_file; n_lines];
    if whole_file {
        return flags;
    }
    let bytes = code.as_bytes();
    let mut depth = 0usize;
    let mut line = 0usize; // 0-based
    let mut pending = false;
    let mut region_depth: Option<usize> = None;
    let mut line_start = 0usize;
    for i in 0..bytes.len() {
        let b = bytes[i];
        if b == b'\n' {
            let text = &code[line_start..i];
            if region_depth.is_none()
                && (text.contains("cfg(test") || trimmed_starts_mod_tests(text))
            {
                pending = true;
                flags[line] = true; // the attribute / mod line itself
            }
            line += 1;
            line_start = i + 1;
            continue;
        }
        // Mid-line detection so `#[cfg(test)] mod t { … }` on one line
        // still opens at the right brace.
        if b == b'{' {
            if region_depth.is_none() && !pending {
                let text = &code[line_start..i];
                if text.contains("cfg(test") || trimmed_starts_mod_tests(text) {
                    pending = true;
                }
            }
            if pending && region_depth.is_none() {
                region_depth = Some(depth);
                pending = false;
            }
            depth += 1;
        } else if b == b'}' {
            depth = depth.saturating_sub(1);
            if region_depth == Some(depth) {
                region_depth = None;
                if line < flags.len() {
                    flags[line] = true; // closing line still test code
                }
            }
        } else if b == b';' && pending && region_depth.is_none() {
            // `#[cfg(test)] use …;` — a braceless item.
            pending = false;
            if line < flags.len() {
                flags[line] = true;
            }
        }
        if region_depth.is_some() && line < flags.len() {
            flags[line] = true;
        }
    }
    flags
}

fn trimmed_starts_mod_tests(text: &str) -> bool {
    let t = text.trim_start();
    t.starts_with("mod tests") || t.starts_with("pub mod tests")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let src = "let x = \"HashMap inside\"; // Instant::now in comment\nlet y = 1;\n";
        let scan = FileScan::new("crates/core/src/x.rs", src);
        assert!(!scan.code.contains("HashMap"));
        assert!(!scan.code.contains("Instant"));
        assert_eq!(scan.strings.len(), 1);
        assert_eq!(scan.strings[0].content, "HashMap inside");
        assert_eq!(scan.comments.len(), 1);
        assert!(scan.comments[0].text.contains("Instant::now"));
        assert_eq!(scan.code.len(), src.len());
    }

    #[test]
    fn raw_strings_and_escapes() {
        let src = r####"let a = r#"unwrap() "quoted" inside"#; let b = "esc \" still string"; let c = b"bytes";"####;
        let scan = FileScan::new("crates/core/src/x.rs", src);
        assert!(!scan.code.contains("unwrap"));
        assert!(!scan.code.contains("esc"));
        assert!(!scan.code.contains("bytes"));
        assert_eq!(scan.strings.len(), 3);
        assert!(scan.strings[0].content.contains("\"quoted\""));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let src = "fn f<'a>(x: &'a str) -> char { let c = 'x'; let d = '\\n'; let e = '\\''; c }\n";
        let scan = FileScan::new("crates/core/src/x.rs", src);
        // Lifetimes survive, char literal contents are blanked.
        assert!(scan.code.contains("'a>"));
        assert!(!scan.code.contains("'x'"));
        assert!(!scan.code.contains("\\n"));
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner unwrap() */ still comment */ let x = 1;\n";
        let scan = FileScan::new("crates/core/src/x.rs", src);
        assert!(!scan.code.contains("unwrap"));
        assert!(scan.code.contains("let x = 1;"));
        assert_eq!(scan.comments.len(), 1);
    }

    #[test]
    fn cfg_test_regions_cover_mod_tests() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\nfn live2() {}\n";
        let scan = FileScan::new("crates/core/src/x.rs", src);
        assert!(!scan.is_test_line(1));
        assert!(scan.is_test_line(2));
        assert!(scan.is_test_line(3));
        assert!(scan.is_test_line(4));
        assert!(scan.is_test_line(5));
        assert!(!scan.is_test_line(6));
    }

    #[test]
    fn bare_mod_tests_is_a_test_region() {
        let src = "mod tests {\n    fn t() {}\n}\nfn live() {}\n";
        let scan = FileScan::new("crates/core/src/x.rs", src);
        assert!(scan.is_test_line(1));
        assert!(scan.is_test_line(2));
        assert!(!scan.is_test_line(4));
    }

    #[test]
    fn files_under_tests_are_all_test() {
        let scan = FileScan::new("crates/core/tests/props.rs", "fn x() { y.unwrap(); }\n");
        assert!(scan.is_test_line(1));
    }

    #[test]
    fn obs_names_extracts_literal_kinds() {
        let src = "fn f(o: &ObsSink) {\n    o.emit(\n        \"round\",\n        &[],\n    );\n    o.add(\"rounds\", 1);\n    o.observe(\"psi\", 0.5);\n    o.observe(v);\n}\n";
        let scan = FileScan::new("crates/core/src/x.rs", src);
        let names = scan.obs_names();
        let got: Vec<(&str, &str)> =
            names.iter().map(|n| (n.category, n.name.as_str())).collect();
        assert_eq!(got, vec![("event", "round"), ("counter", "rounds"), ("gauge", "psi")]);
        assert_eq!(names[0].line, 2, "multi-line call reports the call line");
    }

    #[test]
    fn obs_names_skips_test_regions() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(o: &ObsSink) { o.emit(\"fake\", &[]); }\n}\n";
        let scan = FileScan::new("crates/core/src/x.rs", src);
        assert!(scan.obs_names().is_empty());
    }

    #[test]
    fn line_of_maps_offsets() {
        let scan = FileScan::new("x.rs", "a\nbb\nccc\n");
        assert_eq!(scan.line_of(0), 1);
        assert_eq!(scan.line_of(2), 2);
        assert_eq!(scan.line_of(5), 3);
    }
}
