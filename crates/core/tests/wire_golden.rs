//! Golden wire-format fixture: one committed encoded [`WireModel`],
//! proving the byte layout documented in `docs/COMPRESSION.md` never
//! drifts silently. The pinned input and ψ are fixed. The document itself
//! is held to the code as well: its header layout and its size formula
//! must describe what `Codec::encode` actually emits.
//!
//! To regenerate after an *intentional* wire-format change, run
//! `LBCHAT_GOLDEN_WRITE=1 cargo test -p lbchat --test wire_golden`, commit
//! the diff, and update `docs/COMPRESSION.md` to match.

use lbchat::compress::{top_k, Codec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use vnn::ParamVec;

const FIXTURE: &str = "wire_models.txt";
const GOLDEN_PSI: f32 = 0.3;
const GOLDEN_SEED: u64 = 7;

/// The pinned input: 37 values with sign structure and enough magnitude
/// spread for distinct top-k survivors.
fn golden_params() -> ParamVec {
    params_of_len(37)
}

/// The golden input's formula at any length.
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

/// The fixture's one line: `topk` and the pinned buffer.
fn encode_all() -> Vec<(&'static str, Vec<u8>)> {
    let wire = Codec::TopK.encode(&golden_params(), GOLDEN_PSI, &mut StdRng::seed_from_u64(GOLDEN_SEED));
    vec![("topk", wire.as_bytes().to_vec())]
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
        "fixture must pin exactly the topk buffer"
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
    for (name, bytes) in encode_all() {
        let wire = lbchat::prelude::WireModel::from_bytes(bytes);
        let mut rng = StdRng::seed_from_u64(GOLDEN_SEED);
        assert_eq!(
            wire.decode().expect("pinned buffer decodes").as_slice(),
            Codec::TopK.apply(&params, GOLDEN_PSI, &mut rng).as_slice(),
            "{name}: decode must reproduce apply bit for bit"
        );
    }
}

/// The normative codec spec, read from the repository.
fn compression_doc() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../docs/COMPRESSION.md");
    std::fs::read_to_string(&path).expect("docs/COMPRESSION.md is the normative codec spec")
}

#[test]
fn documented_sizes_and_layout_constants_hold() {
    let doc = compression_doc();
    let header = "[magic: u8 = 0x4B][dense_len: u32]";
    assert!(doc.contains(header), "COMPRESSION.md must state the header as `{header}`");
    let heading = "### `topk` — size 5 + 8k";
    assert!(doc.lines().any(|l| l == heading), "COMPRESSION.md must head the layout `{heading}`");
    for n in [37, 137] {
        let params = params_of_len(n);
        let k = top_k(&params, GOLDEN_PSI).nnz();
        assert_eq!(k, ((f64::from(GOLDEN_PSI) * n as f64).ceil() as usize).min(n), "k = min(ceil(ψ·n), n)");
        let wire = Codec::TopK.encode(&params, GOLDEN_PSI, &mut StdRng::seed_from_u64(GOLDEN_SEED));
        assert_eq!(wire.len(), 5 + 8 * k, "n = {n}: size is not 5 + 8k");
        assert_eq!(wire.as_bytes()[0], 0x4B, "n = {n}: the first byte is not the magic");
        assert_eq!(wire.as_bytes()[1..5], (n as u32).to_le_bytes(), "n = {n}: dense_len");
        let mut rng = StdRng::seed_from_u64(GOLDEN_SEED);
        assert_eq!(
            wire.decode(),
            Ok(Codec::TopK.apply(&params, GOLDEN_PSI, &mut rng)),
            "n = {n}: decode(encode) must equal apply"
        );
    }
}
