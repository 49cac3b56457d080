//! Golden wire-format fixtures: one committed encoded [`WireModel`] per
//! codec, proving the byte layouts documented in `docs/COMPRESSION.md`
//! never drift silently. The pinned input, ψ, and rng seed are fixed, so
//! every codec — including the stochastic quantizers — is deterministic.
//! The document itself is held to the code as well: its codec table (key
//! and magic byte per row, parsed by `Codec::from_key` and tagged by
//! `Codec::magic` on the encoded bytes), its per-layout size formulas and
//! its inline layout constants must describe what `Codec` actually emits.
//!
//! To regenerate after an *intentional* wire-format change, run
//! `LBCHAT_GOLDEN_WRITE=1 cargo test -p lbchat --test wire_golden`, commit
//! the diff, and update `docs/COMPRESSION.md` to match.

use lbchat::compress::{Codec, SKETCH_CHUNK};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use vnn::ParamVec;

const FIXTURE: &str = "wire_models.txt";
const GOLDEN_PSI: f32 = 0.3;
const GOLDEN_SEED: u64 = 7;

/// The pinned input: 37 values (an odd, non-chunk-aligned length so the
/// int4 nibble padding and the sketch's short tail chunk are exercised)
/// with sign structure and enough magnitude spread for distinct top-k
/// survivors.
fn golden_params() -> ParamVec {
    params_of_len(37)
}

/// The golden input's formula at any length (a longer vector spans more
/// than one sketch chunk).
fn params_of_len(n: usize) -> ParamVec {
    let data: Vec<f32> = (0..n)
        .map(|i| {
            let x = i as f32;
            (x * 0.7).sin() * (1.0 + x / 10.0) * if i % 3 == 0 { -1.0 } else { 1.0 }
        })
        .collect();
    ParamVec::from_vec(data)
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(FIXTURE)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn encode_all() -> Vec<(&'static str, Vec<u8>)> {
    let params = golden_params();
    Codec::ALL
        .into_iter()
        .map(|codec| {
            let mut rng = StdRng::seed_from_u64(GOLDEN_SEED);
            let wire = codec.encode(&params, GOLDEN_PSI, &mut rng);
            (codec.name(), wire.as_bytes().to_vec())
        })
        .collect()
}

#[test]
fn every_codec_matches_its_pinned_wire_bytes() {
    let encoded = encode_all();
    let path = fixture_path();
    if std::env::var_os("LBCHAT_GOLDEN_WRITE").is_some_and(|v| v == "1") {
        let mut text = String::new();
        for (name, bytes) in &encoded {
            text.push_str(&format!("{name} {}\n", hex(bytes)));
        }
        std::fs::write(&path, text).expect("write wire fixture");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path)
        .expect("missing tests/fixtures/wire_models.txt — regenerate with LBCHAT_GOLDEN_WRITE=1");
    let pinned: Vec<(&str, &str)> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| l.split_once(' ').expect("fixture line is `name hex`"))
        .collect();
    assert_eq!(
        pinned.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        encoded.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        "fixture must pin every codec in Codec::ALL order"
    );
    for ((name, want_hex), (_, got)) in pinned.iter().zip(&encoded) {
        assert_eq!(
            hex(got),
            *want_hex,
            "{name}: encoded bytes drifted from the pinned wire format \
             (docs/COMPRESSION.md); if intentional, regenerate with \
             LBCHAT_GOLDEN_WRITE=1 and update the docs"
        );
    }
}

#[test]
fn pinned_buffers_still_decode_to_the_apply_output() {
    let params = golden_params();
    for (codec, (_, bytes)) in Codec::ALL.into_iter().zip(encode_all()) {
        let wire = lbchat::prelude::WireModel::from_bytes(bytes);
        let mut rng = StdRng::seed_from_u64(GOLDEN_SEED);
        assert_eq!(
            wire.decode().expect("pinned buffer decodes").as_slice(),
            codec.apply(&params, GOLDEN_PSI, &mut rng).as_slice(),
            "{codec}: decode must reproduce apply bit for bit"
        );
    }
}

/// The normative codec spec, read from the repository.
fn compression_doc() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../docs/COMPRESSION.md");
    std::fs::read_to_string(&path).expect("docs/COMPRESSION.md is the normative codec spec")
}

/// The rows of the codec table (`| Key | Magic | …`): each row's key and
/// magic byte, with its 1-based line for messages.
fn doc_codec_rows(doc: &str) -> Vec<(String, u8, usize)> {
    let mut rows = Vec::new();
    let mut in_table = false;
    for (i, line) in doc.lines().enumerate() {
        let t = line.trim();
        if t.starts_with("| Key | Magic |") {
            in_table = true;
            continue;
        }
        if !in_table || t.starts_with("| ---") {
            continue;
        }
        if !t.starts_with('|') {
            break;
        }
        let cells: Vec<&str> = t.split('|').map(str::trim).collect();
        let key = cells[1].trim_matches('`').to_string();
        let hex = cells[2].split('`').nth(1).and_then(|m| m.strip_prefix("0x"));
        let magic = hex
            .and_then(|h| u8::from_str_radix(h, 16).ok())
            .unwrap_or_else(|| panic!("COMPRESSION.md:{}: magic cell `{}` is not 0xNN", i + 1, cells[2]));
        rows.push((key, magic, i + 1));
    }
    rows
}

/// Every variant by its position in [`Codec::ALL`]. The match is
/// exhaustive, so a new variant fails to compile here until it is placed
/// in `ALL` (and so in the table and the fixture).
fn position_in_all(codec: Codec) -> usize {
    match codec {
        Codec::TopK => 0,
        Codec::TopKQuantized => 1,
        Codec::Int8 => 2,
        Codec::Int4 => 3,
        Codec::Sketch => 4,
    }
}

#[test]
fn codec_table_rows_match_the_registry() {
    for (i, codec) in Codec::ALL.into_iter().enumerate() {
        assert_eq!(position_in_all(codec), i, "{codec} is out of place in Codec::ALL");
    }
    let doc = compression_doc();
    let rows = doc_codec_rows(&doc);
    assert_eq!(
        rows.iter().map(|(key, _, _)| key.as_str()).collect::<Vec<_>>(),
        Codec::ALL.map(Codec::name),
        "the codec table must list exactly Codec::ALL, in order"
    );
    let params = golden_params();
    for ((key, magic, line), codec) in rows.iter().zip(Codec::ALL) {
        assert_eq!(Codec::from_key(key), Some(codec), "COMPRESSION.md:{line}: `{key}` does not parse");
        assert_eq!(
            *magic,
            codec.magic(),
            "COMPRESSION.md:{line}: `{key}` documents magic {magic:#04x}, the code tags {:#04x}",
            codec.magic()
        );
        let wire = codec.encode(&params, GOLDEN_PSI, &mut StdRng::seed_from_u64(GOLDEN_SEED));
        assert_eq!(wire.as_bytes()[0], *magic, "{key}: the encoded first byte is not its magic");
        assert_eq!(wire.codec(), Ok(codec), "{key}: the magic does not resolve back to the codec");
    }
}

/// An encoded size from `k` survivors and `rows` sketch latents.
type SizeFormula = fn(usize, usize) -> usize;

/// The per-layout size formulas of the "Wire layouts" headings
/// (`` ### `topk` — size 5 + 8k ``), written as code.
const LAYOUT_SIZES: [(Codec, &str, SizeFormula); 5] = [
    (Codec::TopK, "5 + 8k", |k, _| 5 + 8 * k),
    (Codec::TopKQuantized, "9 + 5k", |k, _| 9 + 5 * k),
    (Codec::Int8, "9 + 5k", |k, _| 9 + 5 * k),
    (Codec::Int4, "13 + 4k + ceil(k/2)", |k, _| 13 + 4 * k + k.div_ceil(2)),
    (Codec::Sketch, "13 + 4 · total_rows", |_, rows| 13 + 4 * rows),
];

/// `top_k_count(n, ψ) = min(ceil(ψ·n), n)`, as the document defines it.
fn survivors(n: usize, psi: f32) -> usize {
    ((f64::from(psi) * n as f64).ceil() as usize).min(n)
}

#[test]
fn documented_sizes_and_layout_constants_hold() {
    let doc = compression_doc();
    for (codec, formula, size) in LAYOUT_SIZES {
        let heading = doc
            .lines()
            .find(|l| l.starts_with("### ") && l.contains(&format!("`{}`", codec.name())))
            .unwrap_or_else(|| panic!("COMPRESSION.md has no layout heading for `{codec}`"));
        assert!(
            heading.ends_with(&format!("— size {formula}")),
            "COMPRESSION.md: `{heading}` does not state `{codec}`'s size as {formula}"
        );
        for n in [37, 2 * SKETCH_CHUNK + 9] {
            let params = params_of_len(n);
            let k = survivors(n, GOLDEN_PSI);
            let rows: usize = (0..n)
                .step_by(SKETCH_CHUNK)
                .map(|start| survivors((n - start).min(SKETCH_CHUNK), GOLDEN_PSI))
                .sum();
            let wire = codec.encode(&params, GOLDEN_PSI, &mut StdRng::seed_from_u64(GOLDEN_SEED));
            assert_eq!(wire.len(), size(k, rows), "{codec} at n = {n}: size is not {formula}");
            assert_eq!(wire.len(), codec.encoded_wire_bytes(n, GOLDEN_PSI), "{codec} at n = {n}");
            let mut rng = StdRng::seed_from_u64(GOLDEN_SEED);
            assert_eq!(
                wire.decode(),
                Ok(codec.apply(&params, GOLDEN_PSI, &mut rng)),
                "{codec} at n = {n}: decode(encode) must equal apply"
            );
        }
    }
    // Inline layout constants (`` `NAME = value` ``) must be the code's.
    let constants = [("SKETCH_CHUNK", SKETCH_CHUNK)];
    let mut pinned = 0;
    for token in doc.split('`').skip(1).step_by(2) {
        let Some((name, value)) = token.split_once(" = ") else { continue };
        if !name.chars().all(|c| c.is_ascii_uppercase() || c == '_') {
            continue;
        }
        let (_, code_value) = constants
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("COMPRESSION.md names `{token}`, a constant this test does not know"));
        assert_eq!(value.parse::<usize>().ok(), Some(*code_value), "COMPRESSION.md: `{token}`");
        pinned += 1;
    }
    assert_eq!(SKETCH_CHUNK, 64);
    assert!(pinned >= 1, "COMPRESSION.md must state `SKETCH_CHUNK = 64`");
}
