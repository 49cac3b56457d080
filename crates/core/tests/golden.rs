//! Golden-value regression tests: pinned fixtures prove the optimized
//! coreset path still produces the exact output it did when the fixtures
//! were recorded, and that valuation scores have not drifted.
//!
//! Fixtures live in `tests/fixtures/` and are committed. To regenerate
//! after an *intentional* output change, run
//! `LBCHAT_GOLDEN_WRITE=1 cargo test -p lbchat --test golden` and commit
//! the diff. Sample coordinates and weights are compared exactly (f32 →
//! f64 widening and the writer's shortest-round-trip formatting are both
//! lossless); scalar loss scores are compared within `1e-6` relative, the
//! documented tolerance for cross-platform `powf`/`exp` drift.

mod reference;

use lbchat::coreset::{construct, reduce, CoresetConfig};
use lbchat::penalty::PenaltyConfig;
use lbchat::valuation::{coreset_loss, peer_model_value};
use lbchat::{Learner, WeightedDataset};
use lbchat::obs::json::{parse, Json};
use rand::SeedableRng;
use std::path::PathBuf;
use vnn::ParamVec;

#[derive(Debug, Clone)]
struct Line(ParamVec);

#[derive(Debug, Clone, Copy, PartialEq)]
struct Pt(f32, f32);

impl Learner for Line {
    type Sample = Pt;
    fn params(&self) -> &ParamVec {
        &self.0
    }
    fn set_params(&mut self, p: ParamVec) {
        self.0 = p;
    }
    fn loss_with(&self, p: &ParamVec, s: &Pt) -> f32 {
        let w = p.as_slice();
        let r = w[0] * s.0 + w[1] - s.1;
        r * r
    }
    fn train_step(&mut self, _b: &[(&Pt, f32)]) -> f32 {
        0.0
    }
    fn group_of(&self, _s: &Pt) -> usize {
        0
    }
    fn n_groups(&self) -> usize {
        1
    }
}

/// The pinned input: 400 points on a noisy-ish deterministic curve with
/// non-uniform weights, enough loss spread to fill several layers.
fn golden_dataset() -> WeightedDataset<Pt> {
    let samples: Vec<Pt> = (0..400)
        .map(|i| {
            let x = i as f32 / 400.0;
            Pt(x, (x * 7.0).sin() * 0.5 + (i % 13) as f32 / 13.0)
        })
        .collect();
    let weights: Vec<f32> = (0..400).map(|i| 0.25 + ((i * 31) % 17) as f32 / 8.0).collect();
    WeightedDataset::new(samples, weights)
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn regenerate() -> bool {
    std::env::var_os("LBCHAT_GOLDEN_WRITE").is_some_and(|v| v == "1")
}

fn write_fixture(path: &PathBuf, v: &Json) {
    std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("create fixtures dir");
    let mut text = String::new();
    v.write(&mut text);
    text.push('\n');
    std::fs::write(path, text).expect("write fixture");
}

fn read_fixture(path: &PathBuf) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nrun `LBCHAT_GOLDEN_WRITE=1 cargo test -p lbchat --test golden` to record it",
            path.display()
        )
    });
    parse(&text).expect("fixture parses")
}

fn coreset_to_json(c: &WeightedDataset<Pt>) -> Json {
    Json::Obj(vec![
        (
            "samples".into(),
            Json::Arr(
                c.samples()
                    .iter()
                    .map(|p| Json::Arr(vec![p.0.into(), p.1.into()]))
                    .collect(),
            ),
        ),
        (
            "weights".into(),
            Json::Arr(c.weights().iter().map(|&w| w.into()).collect()),
        ),
    ])
}

const REL_TOL: f64 = 1e-6;

fn assert_close(actual: f64, expected: f64, what: &str) {
    let scale = expected.abs().max(1e-12);
    assert!(
        ((actual - expected) / scale).abs() < REL_TOL,
        "{what}: {actual} != pinned {expected}"
    );
}

#[test]
fn coreset_construct_matches_golden_fixture() {
    let learner = Line(ParamVec::from_vec(vec![1.0, 0.0]));
    let data = golden_dataset();
    let cfg = CoresetConfig { size: 60 };
    let c = construct(&learner, &data, &cfg, &mut rand::rngs::StdRng::seed_from_u64(42));

    // The optimized path must also still agree with the pinned reference.
    let r = reference::construct(&learner, &data, &cfg, &mut rand::rngs::StdRng::seed_from_u64(42));
    assert_eq!(c.samples(), r.samples(), "optimized construct diverged from reference");
    assert_eq!(c.weights(), r.weights(), "optimized construct diverged from reference");
    // So must reduce, on the pinned coreset.
    let fast = reduce(c.clone(), 20, &mut rand::rngs::StdRng::seed_from_u64(42));
    let slow = reference::reduce(c.clone(), 20, &mut rand::rngs::StdRng::seed_from_u64(42));
    assert_eq!(fast, slow, "optimized reduce diverged from reference");

    let path = fixture_path("coreset_construct.json");
    let actual = coreset_to_json(&c);
    if regenerate() {
        write_fixture(&path, &actual);
        return;
    }
    let golden = read_fixture(&path);
    let g_samples = golden.get("samples").and_then(Json::as_arr).expect("samples array");
    let g_weights = golden.get("weights").and_then(Json::as_arr).expect("weights array");
    assert_eq!(c.len(), g_samples.len(), "coreset size changed");
    for (i, (p, g)) in c.samples().iter().zip(g_samples).enumerate() {
        let g = g.as_arr().expect("point array");
        // Selected samples are copied inputs: exact match required.
        assert_eq!(p.0 as f64, g[0].as_f64().unwrap(), "sample {i}.x changed");
        assert_eq!(p.1 as f64, g[1].as_f64().unwrap(), "sample {i}.y changed");
    }
    for (i, (&w, g)) in c.weights().iter().zip(g_weights).enumerate() {
        assert_close(w as f64, g.as_f64().unwrap(), &format!("weight {i}"));
    }
}

#[test]
fn valuation_scores_match_golden_fixture() {
    // Two models, two coresets, the four cross-losses and both directed
    // peer values — the exact quantities the chat protocol exchanges.
    let local = Line(ParamVec::from_vec(vec![2.0, -1.0]));
    let peer = Line(ParamVec::from_vec(vec![-1.5, 2.0]));
    let data = golden_dataset();
    let cfg = CoresetConfig { size: 80 };
    let c_local =
        construct(&local, &data, &cfg, &mut rand::rngs::StdRng::seed_from_u64(7));
    let c_peer =
        construct(&peer, &data, &cfg, &mut rand::rngs::StdRng::seed_from_u64(8));
    let pen = PenaltyConfig::none();

    let local_on_peer = coreset_loss(&local, local.params(), &c_peer, &pen);
    let peer_on_peer = coreset_loss(&peer, peer.params(), &c_peer, &pen);
    let peer_on_local = coreset_loss(&peer, peer.params(), &c_local, &pen);
    let local_on_local = coreset_loss(&local, local.params(), &c_local, &pen);
    let scores = [
        ("local_on_peer", local_on_peer),
        ("peer_on_peer", peer_on_peer),
        ("peer_on_local", peer_on_local),
        ("local_on_local", local_on_local),
        ("value_of_peer", peer_model_value(local_on_peer, peer_on_peer)),
        ("value_of_local", peer_model_value(peer_on_local, local_on_local)),
    ];

    let path = fixture_path("valuation_scores.json");
    let actual = Json::Obj(scores.iter().map(|&(k, v)| (k.to_string(), v.into())).collect());
    if regenerate() {
        write_fixture(&path, &actual);
        return;
    }
    let golden = read_fixture(&path);
    for (key, value) in scores {
        let pinned = golden.get(key).and_then(Json::as_f64).unwrap_or_else(|| {
            panic!("fixture missing `{key}`")
        });
        assert_close(value as f64, pinned, key);
    }
}
