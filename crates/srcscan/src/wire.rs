//! W001: the wire-format contract check, read from the source.
//!
//! `docs/COMPRESSION.md` is the normative spec for the codec registry —
//! the `--codec` keys, the magic byte each codec tags its `WireModel`
//! buffers with, and the layout constants. This check parses *both*
//! sides — the doc's codec table and the `lbchat::compress` source — and
//! cross-references them in both directions. It complements the
//! behavioural checks in `core/tests/wire_golden.rs` (which encode with
//! every codec): this one names the source line a registry entry is
//! missing from.
//!
//! * every doc table key must have a `Codec::from_key` arm and vice
//!   versa;
//! * the doc's magic byte per key must equal the value the code's
//!   `magic()` arm resolves to through `mod magic`;
//! * every enum variant must appear in `Codec::ALL`, have a `magic()`
//!   arm, a `from_key` arm, and a decode arm in `WireModel::decode`;
//! * every backticked `` `NAME = VALUE` `` layout constant in the doc
//!   must match the `const NAME` initializer in the source.
//!
//! The whole check is skipped when [`WIRE_CODE`] is not among the scanned
//! files, so it never fires spuriously on a partial tree.

use std::collections::BTreeMap;

use crate::lexer::FileScan;
use crate::parser::{enum_variants, ItemSet};

/// The workspace-relative file that defines the codec registry.
pub const WIRE_CODE: &str = "crates/core/src/compress.rs";

/// The workspace-relative normative spec of the registry.
pub const WIRE_DOC: &str = "docs/COMPRESSION.md";

/// One disagreement between the registry source and its spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative file the disagreement is reported in.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// The check's id, `"W001"`.
    pub lint: String,
    /// Human message.
    pub message: String,
    /// The offending source line, trimmed (empty for doc lines).
    pub snippet: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {} {}", self.path, self.line, self.lint, self.message)
    }
}

/// Runs the W001 cross-reference over the scanned `files` (the one whose
/// `rel` is [`WIRE_CODE`] is checked). `doc` is [`WIRE_DOC`]'s text when
/// it was readable.
pub fn check_wire(files: &[(FileScan, ItemSet)], doc: Option<&str>) -> Vec<Finding> {
    let mut out = Vec::new();
    let Some((scan, items)) = files.iter().find(|(s, _)| s.rel == WIRE_CODE) else {
        return out; // partial tree: nothing to check against
    };
    let mut push = |path: &str, line: usize, message: String, snippet: String| {
        out.push(Finding {
            path: path.to_string(),
            line,
            lint: "W001".to_string(),
            message,
            snippet,
        });
    };
    let Some(doc) = doc else {
        push(
            WIRE_DOC,
            1,
            format!("wire doc {WIRE_DOC} is missing but {WIRE_CODE} defines the codec registry"),
            String::new(),
        );
        return out;
    };

    let consts = magic_consts(scan, items);
    let variants = codec_variants(scan, items);
    let from_key = match_arms(scan, items, "from_key", "Codec");
    let magic_arms = magic_fn_arms(scan, items);
    let decode_vars = decode_variants(scan, items);
    let all_vars = all_const_variants(scan);
    let doc_rows = doc_codec_rows(doc);
    let doc_consts = doc_layout_consts(doc);

    // Doc keys ↔ from_key keys, both directions; magic values per key.
    for row in &doc_rows {
        match from_key.iter().find(|(_, k, _)| k == &row.key) {
            None => push(
                WIRE_DOC,
                row.line,
                format!("codec key `{}` is documented but has no Codec::from_key arm", row.key),
                String::new(),
            ),
            Some((_, _, variant)) => {
                let code_magic = magic_arms
                    .get(variant.as_str())
                    .and_then(|name| consts.get(name.as_str()))
                    .copied();
                if code_magic != Some(row.magic) {
                    push(
                        WIRE_DOC,
                        row.line,
                        format!(
                            "codec `{}` documents magic 0x{:02X} but the code resolves {}",
                            row.key,
                            row.magic,
                            match code_magic {
                                Some(m) => format!("0x{m:02X}"),
                                None => "no magic at all".to_string(),
                            }
                        ),
                        String::new(),
                    );
                }
            }
        }
    }
    for (line, key, _) in &from_key {
        if !doc_rows.iter().any(|r| &r.key == key) {
            push(
                WIRE_CODE,
                *line,
                format!("codec key `{key}` parses via Codec::from_key but is not in the {WIRE_DOC} table"),
                scan.raw_line(*line).trim().to_string(),
            );
        }
    }

    // Every variant is registered everywhere it must be.
    for (variant, line) in &variants {
        let snippet = scan.raw_line(*line).trim().to_string();
        if !all_vars.contains(variant) {
            push(
                WIRE_CODE,
                *line,
                format!("Codec::{variant} is missing from Codec::ALL"),
                snippet.clone(),
            );
        }
        if !magic_arms.contains_key(variant.as_str()) {
            push(
                WIRE_CODE,
                *line,
                format!("Codec::{variant} has no magic() arm"),
                snippet.clone(),
            );
        }
        if !from_key.iter().any(|(_, _, v)| v == variant) {
            push(
                WIRE_CODE,
                *line,
                format!("Codec::{variant} has no Codec::from_key arm"),
                snippet.clone(),
            );
        }
        if !decode_vars.contains(variant) {
            push(
                WIRE_CODE,
                *line,
                format!("Codec::{variant} has no decode arm in WireModel::decode"),
                snippet,
            );
        }
    }

    // Layout constants quoted by the doc must match the source.
    for (line, name, value) in &doc_consts {
        match const_initializer(scan, name) {
            None => push(
                WIRE_DOC,
                *line,
                format!("`{name} = {value}` is documented but `const {name}` is not in {WIRE_CODE}"),
                String::new(),
            ),
            Some(code_value) if &code_value != value => push(
                WIRE_DOC,
                *line,
                format!("`{name}` is documented as {value} but defined as {code_value}"),
                String::new(),
            ),
            Some(_) => {}
        }
    }
    out
}

/// `mod magic`'s `const NAME: u8 = 0xHH;` table.
fn magic_consts(scan: &FileScan, items: &ItemSet) -> BTreeMap<String, u8> {
    let mut out = BTreeMap::new();
    let Some(m) = items.mods.iter().find(|m| m.name == "magic") else {
        return out;
    };
    for line in scan.line_of(m.span.0)..=scan.line_of(m.span.1) {
        let code = scan.code_line(line);
        let Some(rest) = code.trim_start().strip_prefix("pub const ").or_else(|| code.trim_start().strip_prefix("const ")) else {
            continue;
        };
        let name: String = rest.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
        let Some(init) = code.split('=').nth(1) else { continue };
        if let Some(v) = parse_u8(init.split(';').next().unwrap_or("").trim()) {
            out.insert(name, v);
        }
    }
    out
}

fn parse_u8(text: &str) -> Option<u8> {
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u8::from_str_radix(hex, 16).ok()
    } else {
        text.parse().ok()
    }
}

/// The `Codec` enum's variant names and declaration lines.
fn codec_variants(scan: &FileScan, items: &ItemSet) -> Vec<(String, usize)> {
    items
        .enums
        .iter()
        .find(|e| e.name == "Codec")
        .map(|e| enum_variants(scan, e))
        .unwrap_or_default()
}

/// Match arms of the shape `"key" => Some(Codec::Variant)` inside the fn
/// `name` of `impl impl_type`: `(line, key, variant)` triples.
fn match_arms(
    scan: &FileScan,
    items: &ItemSet,
    name: &str,
    impl_type: &str,
) -> Vec<(usize, String, String)> {
    let mut out = Vec::new();
    for (lo, hi) in fn_body_lines(scan, items, name, impl_type) {
        for line in lo..=hi {
            let code = scan.code_line(line);
            let Some(variant) = word_after(code, "Codec::") else { continue };
            if !code.contains("=>") {
                continue;
            }
            let Some(lit) = scan.strings.iter().find(|s| s.line == line) else {
                continue;
            };
            out.push((line, lit.content.clone(), variant));
        }
    }
    out
}

/// `magic()` arms: variant → magic const name (`Codec::X => magic::NAME`).
fn magic_fn_arms(scan: &FileScan, items: &ItemSet) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for (lo, hi) in fn_body_lines(scan, items, "magic", "Codec") {
        for line in lo..=hi {
            let code = scan.code_line(line);
            if let (Some(variant), Some(const_name)) =
                (word_after(code, "Codec::"), word_after(code, "magic::"))
            {
                out.insert(variant, const_name);
            }
        }
    }
    out
}

/// Variants mentioned anywhere in `WireModel::decode`'s body.
fn decode_variants(scan: &FileScan, items: &ItemSet) -> Vec<String> {
    let mut out = Vec::new();
    for (lo, hi) in fn_body_lines(scan, items, "decode", "WireModel") {
        for line in lo..=hi {
            let mut code = scan.code_line(line);
            while let Some(v) = word_after(code, "Codec::") {
                let at = code.find("Codec::").unwrap_or(0);
                if !out.contains(&v) {
                    out.push(v);
                }
                code = &code[at + "Codec::".len()..];
            }
        }
    }
    out
}

/// Variants listed in the `const ALL` initializer.
fn all_const_variants(scan: &FileScan) -> Vec<String> {
    let Some(at) = scan.code.find("const ALL") else {
        return Vec::new();
    };
    // Skip the `[Codec; N]` type annotation: the list starts after `=`.
    let at = scan.code[at..].find('=').map_or(at, |e| at + e);
    let end = scan.code[at..].find(']').map_or(scan.code.len(), |e| at + e);
    let mut out = Vec::new();
    let mut slice = &scan.code[at..end];
    while let Some(p) = slice.find("Codec::") {
        slice = &slice[p + "Codec::".len()..];
        let v: String = slice
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if !v.is_empty() && !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// Body line range(s) of the named fn under the named impl type.
fn fn_body_lines(
    scan: &FileScan,
    items: &ItemSet,
    name: &str,
    impl_type: &str,
) -> Vec<(usize, usize)> {
    items
        .fns
        .iter()
        .filter(|f| f.name == name && f.impl_type.as_deref() == Some(impl_type))
        .filter_map(|f| f.body)
        .map(|(lo, hi)| (scan.line_of(lo), scan.line_of(hi)))
        .collect()
}

/// The identifier-shaped word right after `prefix` in `code`.
fn word_after(code: &str, prefix: &str) -> Option<String> {
    let at = code.find(prefix)? + prefix.len();
    let w: String = code[at..]
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    (!w.is_empty()).then_some(w)
}

/// One codec row of the doc's registry table.
struct DocRow {
    line: usize,
    key: String,
    magic: u8,
}

/// Rows of the doc's codec table: `| `key` | `0xHH` … |`. The hex magic
/// in the second cell is what distinguishes the registry table from the
/// byte-accounting tables that also lead with codec keys.
fn doc_codec_rows(doc: &str) -> Vec<DocRow> {
    let mut out = Vec::new();
    for (idx, line) in doc.lines().enumerate() {
        let t = line.trim();
        let cells: Vec<&str> = t.split('|').map(str::trim).collect();
        if cells.len() < 3 {
            continue;
        }
        let (Some(key), Some(second)) = (backticked(cells[1]), backticked(cells[2])) else {
            continue;
        };
        let Some(magic) = second.strip_prefix("0x").and_then(|h| u8::from_str_radix(h, 16).ok())
        else {
            continue;
        };
        out.push(DocRow { line: idx + 1, key, magic });
    }
    out
}

/// Backticked `` `NAME = VALUE` `` spans where NAME is an ALL_CAPS
/// identifier: `(line, name, value)`.
fn doc_layout_consts(doc: &str) -> Vec<(usize, String, String)> {
    let mut out = Vec::new();
    let mut fenced = false;
    for (idx, line) in doc.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            continue;
        }
        let mut rest = line;
        while let Some(open) = rest.find('`') {
            let Some(close) = rest[open + 1..].find('`') else { break };
            let span = &rest[open + 1..open + 1 + close];
            if let Some((name, value)) = span.split_once(" = ") {
                let caps = !name.is_empty()
                    && name.chars().all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_');
                if caps {
                    out.push((idx + 1, name.to_string(), value.trim().to_string()));
                }
            }
            rest = &rest[open + 2 + close..];
        }
    }
    out
}

/// The leading backticked span of a table cell.
fn backticked(cell: &str) -> Option<String> {
    let rest = cell.strip_prefix('`')?;
    let end = rest.find('`')?;
    Some(rest[..end].to_string())
}

/// The initializer text of a file-level `const NAME`.
fn const_initializer(scan: &FileScan, name: &str) -> Option<String> {
    for line in 1..=scan.line_starts.len() {
        let code = scan.code_line(line);
        let t = code.trim_start();
        let Some(rest) = t.strip_prefix("pub const ").or_else(|| t.strip_prefix("const "))
        else {
            continue;
        };
        if !rest.starts_with(name)
            || rest[name.len()..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_')
        {
            continue;
        }
        let init = code.split('=').nth(1)?;
        return Some(init.split(';').next()?.trim().to_string());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_items;

    const GOOD_CODE: &str = r#"
mod magic {
    pub const TOPK: u8 = 0x4B;
    pub const INT8: u8 = 0x38;
}
pub const CHUNK: usize = 64;
pub enum Codec {
    TopK,
    Int8,
}
impl Codec {
    pub const ALL: [Codec; 2] = [Codec::TopK, Codec::Int8];
    pub fn from_key(key: &str) -> Option<Codec> {
        match key {
            "topk" => Some(Codec::TopK),
            "int8" => Some(Codec::Int8),
            _ => None,
        }
    }
    pub fn magic(self) -> u8 {
        match self {
            Codec::TopK => magic::TOPK,
            Codec::Int8 => magic::INT8,
        }
    }
}
pub struct WireModel;
impl WireModel {
    pub fn decode(&self) {
        match self.codec() {
            Codec::TopK => {}
            Codec::Int8 => {}
        }
    }
}
"#;

    const GOOD_DOC: &str = "# Codecs\n\n| Key | Magic | What |\n| --- | --- | --- |\n| `topk` | `0x4B` (`'K'`) | top-k |\n| `int8` | `0x38` (`'8'`) | int8 |\n\nChunks of `CHUNK = 64` components.\n";

    fn run(code: &str, doc: Option<&str>) -> Vec<Finding> {
        let scan = FileScan::new(WIRE_CODE, code);
        let items = parse_items(&scan);
        check_wire(&[(scan, items)], doc)
    }

    #[test]
    fn consistent_registry_is_clean() {
        assert!(run(GOOD_CODE, Some(GOOD_DOC)).is_empty());
    }

    #[test]
    fn magic_mismatch_fires_once_at_the_doc_row() {
        let doc = GOOD_DOC.replace("`0x38`", "`0x39`");
        let f = run(GOOD_CODE, Some(&doc));
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, "W001");
        assert!(f[0].message.contains("0x39"));
        assert!(f[0].message.contains("0x38"));
    }

    #[test]
    fn undocumented_key_and_orphan_row_both_fire() {
        let doc = GOOD_DOC.replace("| `int8` | `0x38` (`'8'`) | int8 |\n", "");
        let f = run(GOOD_CODE, Some(&doc));
        assert!(f.iter().any(|x| x.message.contains("`int8`") && x.path.ends_with("compress.rs")), "{f:?}");
        let doc2 = format!("{GOOD_DOC}| `zstd` | `0x7A` | nope |\n");
        let f = run(GOOD_CODE, Some(&doc2));
        assert!(f.iter().any(|x| x.message.contains("`zstd`") && x.path.ends_with("COMPRESSION.md")), "{f:?}");
    }

    #[test]
    fn missing_decode_arm_and_missing_all_entry_fire() {
        let code = GOOD_CODE
            .replace("Codec::Int8 => {}\n", "")
            .replace("[Codec::TopK, Codec::Int8]", "[Codec::TopK]")
            .replace("[Codec; 2]", "[Codec; 1]");
        let f = run(&code, Some(GOOD_DOC));
        assert!(f.iter().any(|x| x.message.contains("no decode arm")), "{f:?}");
        assert!(f.iter().any(|x| x.message.contains("missing from Codec::ALL")), "{f:?}");
    }

    #[test]
    fn layout_constant_drift_fires() {
        let doc = GOOD_DOC.replace("`CHUNK = 64`", "`CHUNK = 32`");
        let f = run(GOOD_CODE, Some(&doc));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("documented as 32"));
    }

    #[test]
    fn partial_tree_skips_silently() {
        let scan = FileScan::new("crates/core/src/runtime.rs", "fn f() {}\n");
        let items = parse_items(&scan);
        assert!(check_wire(&[(scan, items)], None).is_empty());
    }
}
