//! Property fuzz of the source lexer (and the item parser on top of it)
//! over adversarial token soups: raw strings with hash fences,
//! byte/char escapes, comment markers inside literals, unterminated
//! literals at EOF, and multi-byte UTF-8. The lexer's core contract is
//! that blanking is *byte-preserving* — `code` is the same length as
//! `raw` with literal and comment bytes turned to spaces — because every
//! downstream span indexes `raw` through offsets found in `code`.
//!
//! The named tests at the bottom are promoted fuzz findings / known
//! adversarial shapes pinned as exact-behavior regressions.

use srcscan::lexer::FileScan;
use srcscan::parser::parse_items;
use proptest::prelude::*;

/// Adversarial source fragments. Concatenations of these reach the
/// lexer states that hand-written tests tend to miss: fence-counted raw
/// strings, escapes that end literals early, markers nested in other
/// markers, and multi-byte UTF-8 adjacent to delimiter bytes.
const FRAGMENTS: &[&str] = &[
    "fn f() {",
    "}",
    "let s = ",
    ";\n",
    "\"",
    "\\\"",
    "\\\\",
    "'",
    "b'",
    "b\"",
    "r\"",
    "r#\"",
    "\"#",
    "br##\"",
    "\"##",
    "#",
    "'\\''",
    "'\\u{41}'",
    "//",
    "/*",
    "*/",
    "\n",
    "#[cfg(test)]\n",
    "mod tests {",
    "obs.emit(\"round\", &[])",
    "// note(P001): reason\n",
    "#[expect(clippy::unwrap_used, reason = \"x\")]",
    "π≠∅",
    "日本語",
    "x.unwrap()",
    "Instant::now()",
    "::",
    "!",
    "(",
    ")",
];

/// Everything a scan computes up front for one file; the
/// property is simply that none of it panics and the byte-preserving
/// blanking contract holds for arbitrary input.
fn scan_invariants(src: &str) {
    let scan = FileScan::new("crates/core/src/fuzz.rs", src);
    assert_eq!(
        scan.code.len(),
        scan.raw.len(),
        "blanked code must be byte-for-byte as long as the raw text\nraw: {src:?}"
    );
    assert_eq!(scan.raw, src);
    let n_lines = scan.line_starts.len();
    assert_eq!(scan.test_line.len(), n_lines);
    for line in 1..=n_lines {
        // Slicing accessors must stay in bounds on every line.
        let _ = scan.code_line(line);
        let _ = scan.raw_line(line);
        let _ = scan.is_test_line(line);
    }
    for s in &scan.strings {
        assert!(s.offset <= scan.raw.len(), "string offset out of range\nraw: {src:?}");
        assert!(
            (1..=n_lines).contains(&s.line),
            "string line out of range\nraw: {src:?}"
        );
        assert_eq!(scan.line_of(s.offset), s.line, "raw: {src:?}");
    }
    for c in &scan.comments {
        assert!((1..=n_lines).contains(&c.line), "comment line out of range\nraw: {src:?}");
    }
    let _ = scan.obs_names();
    // The parser above the lexer must hold up on the same soup.
    let items = parse_items(&scan);
    for e in &items.enums {
        let _ = srcscan::parser::enum_variants(&scan, e);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn lexer_never_panics_and_blanking_is_byte_preserving(
        picks in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..64)
    ) {
        let src: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        scan_invariants(&src);
    }
}

// ---- promoted adversarial shapes, pinned as exact-behavior tests ----

#[test]
fn nested_raw_byte_string_with_hash_fences_is_blanked() {
    let src = "let s = br##\"quote \" and fence \"# stay inside\"##;\nlet y = live();\n";
    let scan = FileScan::new("crates/core/src/fuzz.rs", src);
    assert!(!scan.code.contains("stay inside"), "contents must be blanked: {:?}", scan.code);
    assert!(scan.code.contains("live"), "code after the literal must survive");
    assert_eq!(scan.strings.len(), 1);
    assert!(scan.strings[0].content.contains("\"# stay inside"));
}

#[test]
fn escaped_quote_in_byte_char_does_not_open_a_string() {
    let src = "let c = b'\\''; let d = '\"'; let live = after();\n";
    let scan = FileScan::new("crates/core/src/fuzz.rs", src);
    assert!(
        scan.code.contains("after"),
        "a quote inside a char literal must not swallow the rest: {:?}",
        scan.code
    );
    assert!(scan.strings.is_empty(), "char literals are not string literals");
}

#[test]
fn unterminated_string_at_eof_blanks_to_the_end() {
    let src = "let s = \"runs off the end";
    let scan = FileScan::new("crates/core/src/fuzz.rs", src);
    assert_eq!(scan.code.len(), scan.raw.len());
    assert!(!scan.code.contains("runs off"));
}

#[test]
fn unterminated_raw_string_at_eof_blanks_to_the_end() {
    let src = "let s = r#\"never closed\nfn not_code() { x.unwrap() }\n";
    let scan = FileScan::new("crates/core/src/fuzz.rs", src);
    assert_eq!(scan.code.len(), scan.raw.len());
    assert!(!scan.code.contains("unwrap"), "everything after the open fence is literal");
}

#[test]
fn unterminated_block_comment_at_eof_blanks_to_the_end() {
    let src = "fn live() {}\n/* trailing comment never closes\nx.unwrap()";
    let scan = FileScan::new("crates/core/src/fuzz.rs", src);
    assert_eq!(scan.code.len(), scan.raw.len());
    assert!(scan.code.contains("live"));
    assert!(!scan.code.contains("unwrap"));
}

#[test]
fn multibyte_utf8_survives_blanking_byte_for_byte() {
    let src = "// π≠∅ comment\nlet s = \"日本語\";\nlet live = 1;\n";
    let scan = FileScan::new("crates/core/src/fuzz.rs", src);
    assert_eq!(scan.code.len(), scan.raw.len());
    assert!(scan.code.contains("live"));
    assert!(!scan.code.contains("日本語"));
    assert_eq!(scan.strings.len(), 1);
    assert_eq!(scan.strings[0].content, "日本語");
}
