//! Model compression for exchange (§III-C) — the pluggable codec layer.
//!
//! The paper transmits top-k-sparsified models: "the component's k-largest
//! magnitudes in x are transmitted", encoded as index–value pairs when k is
//! small. The *compression ratio* is `φ = S / S_c` and its reciprocal
//! `ψ = 1/φ ∈ [0, 1]`: `ψ = 0` sends nothing, `ψ = 1` sends the dense
//! model. The paper notes "other biased/unbiased model compression methods
//! can also be applied"; this module makes that pluggable as the [`Codec`]
//! registry (top-k, its quantized variants, a random-sign sketch) with a
//! tagged byte encoding ([`WireModel`]) built on the vnn wire primitives.
//!
//! docs/COMPRESSION.md is the normative spec: byte-for-byte wire layouts,
//! the ψ/φ notation mapping and both wire-size accountings. Keep the two
//! in sync.

use rand::rngs::StdRng;
use rand::RngExt;
use vnn::wire::{SparseModel, WireError, WireReader};
use vnn::ParamVec;

/// The magnitude order of a parameter vector — components by `|v|`
/// descending, ties by index ascending — settled only as far as it is
/// asked about. The top-k selection at any ψ is a prefix of that order, and
/// no caller reads the order *inside* a prefix, so each requested cut costs
/// one partition of the segment it falls in instead of a share of a full
/// sort: sampling a whole ψ grid ([`crate::phi::PhiCurve::sample`]) from the
/// largest ψ down partitions ever shorter prefixes. Keys are distinct (they
/// end in the index), so the survivor set of a cut does not depend on the
/// cuts settled before it. Non-finite parameters order by their IEEE total
/// order (NaN sorts past every finite magnitude), so any input is accepted.
#[derive(Debug)]
pub struct MagnitudeOrder<'a> {
    params: &'a ParamVec,
    /// One packed key per component, ascending key = descending magnitude;
    /// unordered between two consecutive `cuts`.
    keys: Vec<u64>,
    /// Settled cut points, ascending: `keys[..c]` holds the `c` smallest
    /// keys. Always contains `0` and `keys.len()`.
    cuts: Vec<usize>,
}

impl<'a> MagnitudeOrder<'a> {
    /// Packs the components of `params` for ordering by magnitude.
    pub fn new(params: &'a ParamVec) -> Self {
        // One packed key per component: the complement of `|v|`'s bits above
        // the index. With the sign cleared, IEEE total order is the unsigned
        // order of the bits, so ascending keys are `|v|` descending by
        // `total_cmp`, ties by index ascending — what a stable sort through
        // the indices gives, without an indirect load per comparison.
        let keys: Vec<u64> = params
            .as_slice()
            .iter()
            .enumerate()
            .map(|(i, v)| u64::from(!(v.to_bits() & 0x7fff_ffff)) << 32 | i as u64)
            .collect();
        let cuts = vec![0, keys.len()];
        Self { params, keys, cuts }
    }

    /// The keys of the `ceil(psi * n)` largest-magnitude components (the
    /// index is a key's low half), in no particular order.
    ///
    /// # Panics
    /// Panics if `psi` is outside `[0, 1]`.
    fn survivors(&mut self, psi: f32) -> &[u64] {
        assert!((0.0..=1.0).contains(&psi), "psi must be in [0, 1]");
        let k = top_k_count(self.keys.len(), psi);
        if let Err(at) = self.cuts.binary_search(&k) {
            // `0 < k < n`, so a settled cut lies on either side.
            let (lo, hi) = (self.cuts[at - 1], self.cuts[at]);
            self.keys[lo..hi].select_nth_unstable(k - lo);
            self.cuts.insert(at, k);
        }
        &self.keys[..k]
    }

    /// [`top_k`] of the vector at `psi`.
    ///
    /// # Panics
    /// Panics if `psi` is outside `[0, 1]`.
    pub fn top_k(&mut self, psi: f32) -> SparseModel {
        let mut indices: Vec<u32> = self.survivors(psi).iter().map(|&key| key as u32).collect();
        indices.sort_unstable();
        let p = self.params.as_slice();
        let values = indices.iter().map(|&i| p[i as usize]).collect();
        SparseModel::new(p.len(), indices, values)
    }

    /// [`compress_dense`] of the vector at `psi` — the survivors scattered
    /// over zeros, bit-identical to `self.top_k(psi).to_dense()` without
    /// ordering the indices first.
    ///
    /// # Panics
    /// Panics if `psi` is outside `[0, 1]`.
    pub fn dense(&mut self, psi: f32) -> ParamVec {
        let p = self.params.as_slice();
        let mut data = vec![0.0f32; p.len()];
        for &key in self.survivors(psi) {
            let i = key as u32 as usize;
            data[i] = p[i];
        }
        ParamVec::from_vec(data)
    }
}

/// Top-k sparsification at reciprocal compression ratio `psi`: keeps the
/// `ceil(psi * n)` largest-magnitude components.
///
/// `psi = 0` yields an empty sparse model; `psi = 1` keeps everything.
/// Non-finite parameters order by their IEEE total order (NaN sorts past
/// every finite magnitude), so any input is accepted.
///
/// # Panics
/// Panics if `psi` is outside `[0, 1]`.
pub fn top_k(params: &ParamVec, psi: f32) -> SparseModel {
    assert!((0.0..=1.0).contains(&psi), "psi must be in [0, 1]");
    if top_k_count(params.len(), psi) == 0 {
        // Nothing survives: skip packing the keys.
        return SparseModel::new(params.len(), Vec::new(), Vec::new());
    }
    MagnitudeOrder::new(params).top_k(psi)
}

/// Survivor count of top-k at `psi` over `n` components: `ceil(ψ·n)`,
/// except exactly 0 at `ψ = 0`.
fn top_k_count(n: usize, psi: f32) -> usize {
    if psi == 0.0 {
        0
    } else {
        ((f64::from(psi) * n as f64).ceil() as usize).min(n)
    }
}

/// Applies top-k and densifies in one step — the receiver's view `x̂^ψ`.
pub fn compress_dense(params: &ParamVec, psi: f32) -> ParamVec {
    top_k(params, psi).to_dense()
}

/// Bytes on the wire for a model whose *dense* wire size is `wire_bytes`,
/// compressed at `psi` — the **paper's** accounting.
///
/// The paper's time model (Eq. 7) charges `S·ψ` for a model of size `S`;
/// index–value pairs double the per-component cost but are only used when
/// `ψ ≤ 1/2` (below that the dense encoding is smaller and a sender would
/// pick it), so the effective wire size is `min(2ψ, 1) · S`... which the
/// paper simplifies to `ψ·S`. We follow the paper exactly — `ψ·S` — and
/// expose the pair-encoding size as [`pair_wire_bytes`].
pub fn wire_bytes(dense_wire_bytes: usize, psi: f32) -> usize {
    assert!((0.0..=1.0).contains(&psi), "psi must be in [0, 1]");
    ((dense_wire_bytes as f64) * f64::from(psi)).ceil() as usize
}

/// Bytes on the wire under the *honest* index–value pair accounting:
/// `min(2ψ, 1) · S`.
///
/// Each retained f32 drags a u32 index, so k pairs cost `2·ψ·S`; past
/// `ψ = 1/2` a sender falls back to the dense encoding at `S`. This is the
/// documented divergence from the paper's simplified `ψ·S` ([`wire_bytes`])
/// — the microbench report prints both so the table does not understate
/// sparse-encoding cost.
pub fn pair_wire_bytes(dense_wire_bytes: usize, psi: f32) -> usize {
    assert!((0.0..=1.0).contains(&psi), "psi must be in [0, 1]");
    let factor = (2.0 * f64::from(psi)).min(1.0);
    ((dense_wire_bytes as f64) * factor).ceil() as usize
}

/// An int8-quantized model: per-tensor affine quantization with
/// deterministic round-to-nearest (the biased legacy quantizer behind
/// [`Codec::TopKQuantized`]).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedModel {
    /// Quantized components.
    pub codes: Vec<i8>,
    /// Dequantization scale.
    pub scale: f32,
}

impl QuantizedModel {
    /// Quantizes a parameter vector to int8 symmetric codes.
    pub fn quantize(params: &ParamVec) -> Self {
        let max = params
            .as_slice()
            .iter()
            .fold(0.0f32, |m, &v| m.max(v.abs()));
        let scale = if max == 0.0 { 1.0 } else { max / 127.0 };
        let codes = params
            .as_slice()
            .iter()
            .map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8)
            .collect();
        Self { codes, scale }
    }

    /// Reconstructs the (lossy) dense vector.
    pub fn dequantize(&self) -> ParamVec {
        ParamVec::from_vec(self.codes.iter().map(|&c| f32::from(c) * self.scale).collect())
    }

    /// Wire size: one byte per component plus the scale.
    pub fn wire_bytes(&self) -> usize {
        self.codes.len() + 4
    }
}

// ---------------------------------------------------------------------------
// Chunked quantize/dequantize inner loops
// ---------------------------------------------------------------------------

/// Lanes per quantize/dequantize inner-loop block. The loops below stage
/// one block at a time (noise first, then arithmetic) so the compiler can
/// keep a block in vector registers while the stochastic draws stay in
/// strict element order — the order the determinism tests pin.
const QUANT_BLOCK: usize = 8;

/// Stochastic-rounding quantization of `values / scale` to integer codes in
/// `[-levels, levels]`: each value rounds down, then up with probability
/// equal to its fractional part, one uniform draw per element in element
/// order. Unbiased in expectation, exactly reproducible from the rng seed.
fn quantize_stochastic(values: &[f32], levels: f32, scale: f32, rng: &mut StdRng) -> Vec<i8> {
    let inv = 1.0 / scale;
    let mut codes = Vec::with_capacity(values.len());
    let mut noise = [0.0f32; QUANT_BLOCK];
    for block in values.chunks(QUANT_BLOCK) {
        for slot in noise.iter_mut().take(block.len()) {
            *slot = rng.random::<f32>();
        }
        for (t, &v) in block.iter().enumerate() {
            let x = (v * inv).clamp(-levels, levels);
            let floor = x.floor();
            let up = if noise[t] < x - floor { 1.0 } else { 0.0 };
            codes.push((floor + up).clamp(-levels, levels) as i8);
        }
    }
    codes
}

/// Dequantizes integer codes back to f32 at `scale`, blocked like
/// [`quantize_stochastic`].
fn dequantize_codes(codes: &[i8], scale: f32) -> Vec<f32> {
    let mut out = Vec::with_capacity(codes.len());
    for block in codes.chunks(QUANT_BLOCK) {
        for &c in block {
            out.push(f32::from(c) * scale);
        }
    }
    out
}

/// Symmetric quantization scale for `values` at `levels`: `max|v| / levels`,
/// or 1 for an all-zero input.
fn symmetric_scale(values: &[f32], levels: f32) -> f32 {
    let max = values.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    if max == 0.0 {
        1.0
    } else {
        max / levels
    }
}

// ---------------------------------------------------------------------------
// Sketch codec internals
// ---------------------------------------------------------------------------

/// Chunk width of the sketch codec: parameters are split into chunks of up
/// to this many components and each chunk is projected onto
/// `ceil(ψ · chunk_len)` random-sign rows. 64 so a single hash word
/// supplies every sign of one row.
pub const SKETCH_CHUNK: usize = 64;

/// Sign word for sketch row `row` of chunk `chunk`: a splitmix64-style
/// finalizer over the pair; bit `t` gives the sign of component `t`. Pure
/// function of the coordinates — sender and receiver regenerate the same
/// basis without shipping it.
fn sketch_sign_word(chunk: u64, row: u64) -> u64 {
    let mut z = chunk
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(row.wrapping_mul(0xD1B5_4A32_D192_ED03).wrapping_add(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Latent rows kept for a chunk of `chunk_len` components at `psi`.
fn sketch_rows(chunk_len: usize, psi: f32) -> usize {
    top_k_count(chunk_len, psi)
}

/// Total latent count over a `dense_len`-component model at `psi`.
fn sketch_total_rows(dense_len: usize, psi: f32) -> usize {
    let full = dense_len / SKETCH_CHUNK;
    let tail = dense_len % SKETCH_CHUNK;
    let mut total = full * sketch_rows(SKETCH_CHUNK, psi);
    if tail > 0 {
        total += sketch_rows(tail, psi);
    }
    total
}

/// Projects one chunk onto its sign rows: `y_r = Σ_t a_r[t] · x[t]`,
/// accumulated in fixed component order.
fn sketch_encode_chunk(chunk_idx: usize, values: &[f32], rows: usize, out: &mut Vec<f32>) {
    for r in 0..rows {
        let word = sketch_sign_word(chunk_idx as u64, r as u64);
        let mut acc = 0.0f32;
        for (t, &v) in values.iter().enumerate() {
            acc += if (word >> t) & 1 == 1 { v } else { -v };
        }
        out.push(acc);
    }
}

/// Back-projects one chunk's latents: `x̂[t] = (1/rows) Σ_r y_r · a_r[t]`.
/// With zero rows the chunk reconstructs to zeros.
fn sketch_decode_chunk(chunk_idx: usize, latents: &[f32], chunk_len: usize, out: &mut Vec<f32>) {
    if latents.is_empty() {
        out.resize(out.len() + chunk_len, 0.0);
        return;
    }
    let inv = 1.0 / latents.len() as f32;
    let mut acc = [0.0f32; SKETCH_CHUNK];
    for slot in acc.iter_mut().take(chunk_len) {
        *slot = 0.0;
    }
    for (r, &y) in latents.iter().enumerate() {
        let word = sketch_sign_word(chunk_idx as u64, r as u64);
        for (t, slot) in acc.iter_mut().enumerate().take(chunk_len) {
            *slot += if (word >> t) & 1 == 1 { y } else { -y };
        }
    }
    for &slot in acc.iter().take(chunk_len) {
        out.push(slot * inv);
    }
}

// ---------------------------------------------------------------------------
// The Codec enum
// ---------------------------------------------------------------------------

/// Wire-format magic byte of each codec (first byte of every
/// [`WireModel`]).
mod magic {
    pub const TOPK: u8 = 0x4B; // 'K'
    pub const TOPK_Q8: u8 = 0x51; // 'Q'
    pub const INT8: u8 = 0x38; // '8'
    pub const INT4: u8 = 0x34; // '4'
    pub const SKETCH: u8 = 0x53; // 'S'
}

/// Integer range of the int8 stochastic quantizer.
const INT8_LEVELS: f32 = 127.0;
/// Integer range of the int4 stochastic quantizer (codes in `[-7, 7]`).
const INT4_LEVELS: f32 = 7.0;
/// Bias added to an int4 code to form its wire nibble (`code + 7 ∈ [0, 14]`).
const INT4_BIAS: i16 = 7;
/// Nibble value reserved for padding the final half-byte when k is odd.
const INT4_PAD: u8 = 0xF;

/// The built-in codecs — the single entry point every share path (LbChat
/// and all four baselines) routes model exchange through. `TopK` is the
/// default and reproduces the paper's §III-C share path bit-for-bit.
///
/// The three views stay consistent by construction: [`Codec::apply`] is
/// bit-identical to `encode(..).decode()` under the same rng state, and
/// [`Codec::wire_bytes`] is the simulation's cost-model figure for the same
/// send. Codecs that use randomness (stochastic rounding) draw only from
/// the `rng` argument — the seeded per-session generator — never from
/// ambient entropy; deterministic codecs draw nothing, which is what keeps
/// the default top-k path bit-identical to the historical output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Codec {
    /// Magnitude top-k sparsification only (the paper's main choice).
    /// Deterministic; draws no randomness.
    #[default]
    TopK,
    /// Top-k followed by deterministic round-to-nearest int8 quantization
    /// of the survivors — the legacy "such as quantization" variant of
    /// §III-C. Biased (rounding always pulls toward the grid).
    TopKQuantized,
    /// Top-k followed by int8 quantization with *stochastic rounding*
    /// drawn from the seeded per-session RNG — unbiased in expectation.
    Int8,
    /// Top-k followed by int4 stochastic-rounding quantization: half the
    /// payload of `int8` at four extra quantization-noise bits.
    Int4,
    /// Chunked random-sign sketch (LACO-style latent communication): each
    /// 64-component chunk is projected onto `ceil(ψ·64)` sign rows
    /// regenerated from a hash on both ends. Dense in latent space — no
    /// index overhead — but lossy even at ψ = 1.
    Sketch,
}

impl Codec {
    /// Every codec, in wire-format order (the order docs and sweeps use).
    pub const ALL: [Codec; 5] = [
        Codec::TopK,
        Codec::TopKQuantized,
        Codec::Int8,
        Codec::Int4,
        Codec::Sketch,
    ];

    /// The four-codec accuracy-vs-bytes sweep set (one representative per
    /// compression family; `topk-q8` is subsumed by `int8`).
    pub const SWEEP: [Codec; 4] = [Codec::TopK, Codec::Int8, Codec::Int4, Codec::Sketch];

    /// Parses a `--codec` CLI key.
    pub fn from_key(key: &str) -> Option<Codec> {
        match key {
            "topk" => Some(Codec::TopK),
            "topk-q8" => Some(Codec::TopKQuantized),
            "int8" => Some(Codec::Int8),
            "int4" => Some(Codec::Int4),
            "sketch" => Some(Codec::Sketch),
            _ => None,
        }
    }

    /// Stable lowercase key (inverse of [`Codec::from_key`]).
    pub fn name(self) -> &'static str {
        match self {
            Codec::TopK => "topk",
            Codec::TopKQuantized => "topk-q8",
            Codec::Int8 => "int8",
            Codec::Int4 => "int4",
            Codec::Sketch => "sketch",
        }
    }

    /// Wire-format magic byte (first byte of every encoded model).
    pub fn magic(self) -> u8 {
        match self {
            Codec::TopK => magic::TOPK,
            Codec::TopKQuantized => magic::TOPK_Q8,
            Codec::Int8 => magic::INT8,
            Codec::Int4 => magic::INT4,
            Codec::Sketch => magic::SKETCH,
        }
    }

    /// The codec owning a magic byte.
    fn from_magic(byte: u8) -> Option<Codec> {
        Codec::ALL.into_iter().find(|c| c.magic() == byte)
    }

    /// The receiver's reconstructed dense model for a given ψ — bit-identical
    /// to `self.encode(params, psi, rng).decode()` at the same rng state.
    ///
    /// # Panics
    /// Panics if `psi` is outside `[0, 1]`.
    pub fn apply(self, params: &ParamVec, psi: f32, rng: &mut StdRng) -> ParamVec {
        match self {
            Codec::TopK => compress_dense(params, psi),
            Codec::TopKQuantized => {
                let sparse_dense = compress_dense(params, psi);
                QuantizedModel::quantize(&sparse_dense).dequantize()
            }
            Codec::Int8 | Codec::Int4 => {
                let sparse = top_k(params, psi);
                let levels = if self == Codec::Int8 { INT8_LEVELS } else { INT4_LEVELS };
                let scale = symmetric_scale(&sparse.values, levels);
                let codes = quantize_stochastic(&sparse.values, levels, scale, rng);
                let values = dequantize_codes(&codes, scale);
                let mut out = vec![0.0f32; sparse.dense_len];
                for (&i, &v) in sparse.indices.iter().zip(&values) {
                    out[i as usize] = v;
                }
                ParamVec::from_vec(out)
            }
            Codec::Sketch => {
                assert!((0.0..=1.0).contains(&psi), "psi must be in [0, 1]");
                let mut dense = Vec::with_capacity(params.len());
                for (c, chunk) in params.as_slice().chunks(SKETCH_CHUNK).enumerate() {
                    let rows = sketch_rows(chunk.len(), psi);
                    let mut latents = Vec::with_capacity(rows);
                    sketch_encode_chunk(c, chunk, rows, &mut latents);
                    sketch_decode_chunk(c, &latents, chunk.len(), &mut dense);
                }
                ParamVec::from_vec(dense)
            }
        }
    }

    /// Encodes `params` at ψ into the tagged byte layout of
    /// docs/COMPRESSION.md. Exactly [`Codec::encoded_wire_bytes`] long.
    ///
    /// # Panics
    /// Panics if `psi` is outside `[0, 1]` or the model exceeds `u32::MAX`
    /// components.
    pub fn encode(self, params: &ParamVec, psi: f32, rng: &mut StdRng) -> WireModel {
        assert!((0.0..=1.0).contains(&psi), "psi must be in [0, 1]");
        #[expect(
            clippy::expect_used,
            reason = "documented contract (# Panics): the wire layout has no length field wider than u32"
        )]
        let dense_len = u32::try_from(params.len()).expect("model fits u32 components");
        let mut bytes = Vec::with_capacity(self.encoded_wire_bytes(params.len(), psi));
        bytes.push(self.magic());
        bytes.extend_from_slice(&dense_len.to_le_bytes());
        match self {
            Codec::TopK => {
                let sparse = top_k(params, psi);
                for (&i, &v) in sparse.indices.iter().zip(&sparse.values) {
                    bytes.extend_from_slice(&i.to_le_bytes());
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
            }
            Codec::TopKQuantized => {
                // Same math as the legacy dense path: scale over the
                // survivors (zeros never win the max), round-to-nearest.
                let sparse = top_k(params, psi);
                let scale = symmetric_scale(&sparse.values, INT8_LEVELS);
                bytes.extend_from_slice(&scale.to_le_bytes());
                for (&i, &v) in sparse.indices.iter().zip(&sparse.values) {
                    let code = (v / scale).round().clamp(-INT8_LEVELS, INT8_LEVELS) as i8;
                    bytes.extend_from_slice(&i.to_le_bytes());
                    bytes.push(code as u8);
                }
            }
            Codec::Int8 => {
                let sparse = top_k(params, psi);
                let scale = symmetric_scale(&sparse.values, INT8_LEVELS);
                let codes = quantize_stochastic(&sparse.values, INT8_LEVELS, scale, rng);
                bytes.extend_from_slice(&scale.to_le_bytes());
                for (&i, &c) in sparse.indices.iter().zip(&codes) {
                    bytes.extend_from_slice(&i.to_le_bytes());
                    bytes.push(c as u8);
                }
            }
            Codec::Int4 => {
                let sparse = top_k(params, psi);
                let scale = symmetric_scale(&sparse.values, INT4_LEVELS);
                let codes = quantize_stochastic(&sparse.values, INT4_LEVELS, scale, rng);
                bytes.extend_from_slice(&(sparse.nnz() as u32).to_le_bytes());
                bytes.extend_from_slice(&scale.to_le_bytes());
                for &i in &sparse.indices {
                    bytes.extend_from_slice(&i.to_le_bytes());
                }
                for pair in codes.chunks(2) {
                    let lo = (i16::from(pair[0]) + INT4_BIAS) as u8;
                    let hi = pair.get(1).map_or(INT4_PAD, |&c| (i16::from(c) + INT4_BIAS) as u8);
                    bytes.push(lo | (hi << 4));
                }
            }
            Codec::Sketch => {
                bytes.extend_from_slice(&(SKETCH_CHUNK as u32).to_le_bytes());
                bytes.extend_from_slice(&psi.to_le_bytes());
                let mut latents = Vec::new();
                for (c, chunk) in params.as_slice().chunks(SKETCH_CHUNK).enumerate() {
                    let rows = sketch_rows(chunk.len(), psi);
                    sketch_encode_chunk(c, chunk, rows, &mut latents);
                }
                for &y in &latents {
                    bytes.extend_from_slice(&y.to_le_bytes());
                }
            }
        }
        WireModel { bytes }
    }

    /// Exact encoded size in bytes of [`Codec::encode`] for a
    /// `dense_len`-component model at ψ (header included).
    ///
    /// # Panics
    /// Panics if `psi` is outside `[0, 1]`.
    pub fn encoded_wire_bytes(self, dense_len: usize, psi: f32) -> usize {
        assert!((0.0..=1.0).contains(&psi), "psi must be in [0, 1]");
        let k = top_k_count(dense_len, psi);
        match self {
            Codec::TopK => 5 + 8 * k,
            Codec::TopKQuantized | Codec::Int8 => 9 + 5 * k,
            Codec::Int4 => 13 + 4 * k + k.div_ceil(2),
            Codec::Sketch => 13 + 4 * sketch_total_rows(dense_len, psi),
        }
    }

    /// Simulation cost-model bytes — the paper-style `ψ·S` family. Always 0
    /// at ψ = 0 (nothing is sent). See docs/COMPRESSION.md for the table.
    ///
    /// # Panics
    /// Panics if `psi` is outside `[0, 1]`.
    pub fn wire_bytes(self, dense_wire_bytes: usize, psi: f32) -> usize {
        assert!((0.0..=1.0).contains(&psi), "psi must be in [0, 1]");
        if psi == 0.0 {
            return 0;
        }
        match self {
            Codec::TopK => wire_bytes(dense_wire_bytes, psi),
            // Values shrink 4x; indices still cost their share, so the
            // blended factor is ~0.45 of the float encoding.
            Codec::TopKQuantized => {
                (wire_bytes(dense_wire_bytes, psi) as f64 * 0.45).ceil() as usize
            }
            // One byte per survivor instead of four, plus the scale.
            Codec::Int8 => wire_bytes(dense_wire_bytes, psi).div_ceil(4) + 4,
            // Half a byte per survivor, plus the scale.
            Codec::Int4 => wire_bytes(dense_wire_bytes, psi).div_ceil(8) + 4,
            // ψ·S of latent floats plus the 13-byte header; no indices.
            Codec::Sketch => wire_bytes(dense_wire_bytes, psi) + 13,
        }
    }

    /// Honest pair-accounting bytes — the `min(2ψ, 1)·S` family ([`pair_wire_bytes`]
    /// free function for the plain top-k case). Sparse codecs pay a u32
    /// index per survivor until the dense fallback is cheaper; the sketch
    /// carries no indices, so both accountings agree for it.
    ///
    /// # Panics
    /// Panics if `psi` is outside `[0, 1]`.
    pub fn pair_wire_bytes(self, dense_wire_bytes: usize, psi: f32) -> usize {
        assert!((0.0..=1.0).contains(&psi), "psi must be in [0, 1]");
        if psi == 0.0 {
            return 0;
        }
        let s = dense_wire_bytes as f64;
        let p = f64::from(psi);
        match self {
            Codec::TopK => pair_wire_bytes(dense_wire_bytes, psi),
            // 5 bytes per pair vs 4 per dense f32 → 5/4·ψ·S, dense-int8
            // fallback at S/4.
            Codec::TopKQuantized | Codec::Int8 => ((1.25 * p).min(0.25) * s).ceil() as usize + 4,
            // 4.5 bytes per pair → 9/8·ψ·S, dense-int4 fallback at S/8.
            Codec::Int4 => ((1.125 * p).min(0.125) * s).ceil() as usize + 4,
            Codec::Sketch => wire_bytes(dense_wire_bytes, psi) + 13,
        }
    }
}

impl std::fmt::Display for Codec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// ---------------------------------------------------------------------------
// WireModel: the tagged byte encoding
// ---------------------------------------------------------------------------

/// An encoded model: one magic byte tagging the codec, then the codec's
/// layout (docs/COMPRESSION.md, all integers/floats little-endian).
/// Produced by [`Codec::encode`]; decoded with [`WireModel::decode`], which
/// dispatches on the tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireModel {
    bytes: Vec<u8>,
}

impl WireModel {
    /// Wraps raw received bytes (no validation until [`WireModel::decode`]).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Self { bytes }
    }

    /// The raw encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Encoded size in bytes — the figure the honest accounting tracks.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True for a zero-length buffer (never produced by [`Codec::encode`]).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The codec that produced this buffer, from the magic byte.
    ///
    /// # Errors
    /// [`WireError::Truncated`] on an empty buffer, [`WireError::BadMagic`]
    /// on an unknown tag.
    pub fn codec(&self) -> Result<Codec, WireError> {
        let &first = self.bytes.first().ok_or(WireError::Truncated)?;
        Codec::from_magic(first).ok_or(WireError::BadMagic { got: first })
    }

    /// Decodes to the receiver's dense model — the same vector the
    /// sender's [`Codec::apply`] produced, bit for bit.
    ///
    /// # Errors
    /// A [`WireError`] naming the structural mismatch: unknown magic,
    /// truncation mid-field, an out-of-range index/code/ψ, or trailing
    /// bytes after the last record.
    pub fn decode(&self) -> Result<ParamVec, WireError> {
        let codec = self.codec()?;
        let mut r = WireReader::new(&self.bytes);
        let _magic = r.u8()?;
        let dense_len = r.u32()? as usize;
        let dense = match codec {
            Codec::TopK => {
                let mut out = vec![0.0f32; dense_len];
                while r.remaining() > 0 {
                    let idx = r.u32()? as usize;
                    let val = r.f32()?;
                    let slot = out.get_mut(idx).ok_or(WireError::BadValue {
                        field: "index",
                        got: idx as u32,
                    })?;
                    *slot = val;
                }
                out
            }
            Codec::TopKQuantized | Codec::Int8 => {
                let scale = r.f32()?;
                let mut out = vec![0.0f32; dense_len];
                while r.remaining() > 0 {
                    let idx = r.u32()? as usize;
                    let code = r.u8()? as i8;
                    let slot = out.get_mut(idx).ok_or(WireError::BadValue {
                        field: "index",
                        got: idx as u32,
                    })?;
                    *slot = f32::from(code) * scale;
                }
                out
            }
            Codec::Int4 => {
                let k = r.u32()? as usize;
                let scale = r.f32()?;
                let mut indices = Vec::with_capacity(k);
                for _ in 0..k {
                    indices.push(r.u32()? as usize);
                }
                let packed = r.take(k.div_ceil(2))?;
                let mut out = vec![0.0f32; dense_len];
                for (slot, &idx) in indices.iter().enumerate() {
                    let byte = packed[slot / 2];
                    let nibble = if slot % 2 == 0 { byte & 0x0F } else { byte >> 4 };
                    if nibble == INT4_PAD {
                        return Err(WireError::BadValue {
                            field: "int4 code",
                            got: u32::from(nibble),
                        });
                    }
                    let code = i16::from(nibble) - INT4_BIAS;
                    let dst = out.get_mut(idx).ok_or(WireError::BadValue {
                        field: "index",
                        got: idx as u32,
                    })?;
                    *dst = f32::from(code) * scale;
                }
                // An odd survivor count must pad its final high nibble.
                if k % 2 == 1 {
                    let last = packed[k / 2] >> 4;
                    if last != INT4_PAD {
                        return Err(WireError::BadValue {
                            field: "int4 padding",
                            got: u32::from(last),
                        });
                    }
                }
                out
            }
            Codec::Sketch => {
                let chunk = r.u32()? as usize;
                if chunk != SKETCH_CHUNK {
                    return Err(WireError::BadValue {
                        field: "sketch chunk",
                        got: chunk as u32,
                    });
                }
                let psi = r.f32()?;
                if !(0.0..=1.0).contains(&psi) {
                    return Err(WireError::BadValue {
                        field: "sketch psi",
                        got: psi.to_bits(),
                    });
                }
                let mut out = Vec::with_capacity(dense_len);
                let mut offset = 0usize;
                let mut chunk_idx = 0usize;
                while offset < dense_len {
                    let chunk_len = SKETCH_CHUNK.min(dense_len - offset);
                    let rows = sketch_rows(chunk_len, psi);
                    let mut latents = Vec::with_capacity(rows);
                    for _ in 0..rows {
                        latents.push(r.f32()?);
                    }
                    sketch_decode_chunk(chunk_idx, &latents, chunk_len, &mut out);
                    offset += chunk_len;
                    chunk_idx += 1;
                }
                out
            }
        };
        r.finish()?;
        Ok(ParamVec::from_vec(dense))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn sample_params() -> ParamVec {
        ParamVec::from_vec(vec![0.1, -5.0, 0.3, 2.0, -0.05, 1.0, 0.0, -0.2])
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0DEC)
    }

    #[test]
    fn psi_one_keeps_everything() {
        let p = sample_params();
        let s = top_k(&p, 1.0);
        assert_eq!(s.nnz(), p.len());
        assert_eq!(s.to_dense(), p);
    }

    #[test]
    fn psi_zero_sends_nothing() {
        let p = sample_params();
        let s = top_k(&p, 0.0);
        assert_eq!(s.nnz(), 0);
        assert!(s.to_dense().as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn top_k_keeps_largest_magnitudes() {
        let p = sample_params();
        let s = top_k(&p, 0.25); // k = 2 of 8
        assert_eq!(s.nnz(), 2);
        let dense = s.to_dense();
        assert_eq!(dense.as_slice()[1], -5.0);
        assert_eq!(dense.as_slice()[3], 2.0);
        assert_eq!(dense.as_slice()[0], 0.0);
    }

    #[test]
    fn top_k_tolerates_non_finite_values() {
        // total_cmp sorts NaN past +inf in magnitude order: NaN, then inf,
        // then the finite values. No panic either way.
        let p = ParamVec::from_vec(vec![1.0, f32::NAN, -3.0, f32::INFINITY]);
        let s = top_k(&p, 0.5);
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.indices, vec![1, 3]);
    }

    /// Top-k as first implemented: a stable `|v|`-descending sort per call.
    fn top_k_dense_oracle(p: &ParamVec, psi: f32) -> ParamVec {
        let v = p.as_slice();
        let mut order: Vec<usize> = (0..v.len()).collect();
        order.sort_by(|&a, &b| v[b].abs().total_cmp(&v[a].abs()));
        let mut out = vec![0.0f32; v.len()];
        for &i in &order[..top_k_count(v.len(), psi)] {
            out[i] = v[i];
        }
        ParamVec::from_vec(out)
    }

    #[test]
    fn magnitude_order_prefixes_match_top_k_on_ties() {
        // ±v pairs, repeated values, zeros and -0.0: every cut of the grid
        // lands inside a run of equal magnitudes somewhere, where only the
        // stable index-ascending tie-break decides who survives.
        // Next to them the values whose order only `total_cmp` defines: NaNs
        // of either sign and payload, ±inf, subnormals.
        let odd = [
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fc0_0001),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE / 2.0,
        ];
        let mut values = Vec::new();
        for i in 0..120 {
            let m = ((i * 7) % 11) as f32 * 0.25;
            values.extend_from_slice(&[m, -m, 0.0, -0.0, m, odd[i % odd.len()]]);
        }
        let p = ParamVec::from_vec(values);
        let bits = |v: &ParamVec| v.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // The order settles one cut per request, inside whatever segment the
        // earlier requests left: ask ascending, descending (the φ walk), and
        // with repeats and interleaving, each through one `MagnitudeOrder`.
        let mut asked: Vec<f32> =
            crate::phi::DEFAULT_PSI_GRID.iter().copied().chain([1.0, 0.0, 0.013]).collect();
        let ascending = asked.clone();
        asked.sort_by(f32::total_cmp);
        let descending: Vec<f32> = asked.iter().rev().copied().collect();
        let repeated = [0.4, 0.4, 0.02, 1.0, 0.4, 0.013, 0.7, 0.02, 0.0, 0.7];
        for requests in [&ascending[..], &asked, &descending, &repeated] {
            let mut order = MagnitudeOrder::new(&p);
            for &psi in requests {
                let dense = order.dense(psi);
                assert_eq!(bits(&dense), bits(&compress_dense(&p, psi)), "psi={psi}");
                assert_eq!(bits(&dense), bits(&top_k_dense_oracle(&p, psi)), "psi={psi}");
                // NaN survivors: compare the sparse form through its bits too.
                let (a, b) = (order.top_k(psi), top_k(&p, psi));
                assert_eq!((a.dense_len, &a.indices), (b.dense_len, &b.indices), "psi={psi}");
                assert_eq!(bits(&a.to_dense()), bits(&dense), "psi={psi}");
            }
        }
    }

    #[test]
    fn indices_are_sorted() {
        let p = sample_params();
        let s = top_k(&p, 0.5);
        for w in s.indices.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn wire_bytes_follow_paper_model() {
        assert_eq!(wire_bytes(52 * 1024 * 1024, 1.0), 52 * 1024 * 1024);
        assert_eq!(wire_bytes(1000, 0.5), 500);
        assert_eq!(wire_bytes(1000, 0.0), 0);
    }

    #[test]
    fn pair_accounting_doubles_until_the_dense_fallback() {
        // Exactly representable ψ so the doubling is bit-exact.
        assert_eq!(pair_wire_bytes(1000, 0.125), 250);
        assert_eq!(pair_wire_bytes(1000, 0.25), 500);
        assert_eq!(pair_wire_bytes(1000, 0.5), 1000);
        assert_eq!(pair_wire_bytes(1000, 0.9), 1000);
        assert_eq!(pair_wire_bytes(1000, 0.0), 0);
        // The honest figure is never below the paper's.
        for psi in [0.0, 0.05, 0.25, 0.5, 0.75, 1.0] {
            assert!(pair_wire_bytes(4096, psi) >= wire_bytes(4096, psi));
        }
    }

    #[test]
    fn quantization_roundtrip_is_close() {
        let p = sample_params();
        let q = QuantizedModel::quantize(&p);
        let back = q.dequantize();
        for (a, b) in p.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= q.scale, "{a} vs {b}");
        }
        assert_eq!(q.wire_bytes(), 8 + 4);
    }

    #[test]
    fn quantizing_zero_vector_is_safe() {
        let p = ParamVec::zeros(4);
        let q = QuantizedModel::quantize(&p);
        assert_eq!(q.dequantize(), p);
    }

    #[test]
    #[should_panic(expected = "psi must be in [0, 1]")]
    fn invalid_psi_panics() {
        let _ = top_k(&sample_params(), 1.5);
    }

    #[test]
    fn codec_keys_roundtrip() {
        for codec in Codec::ALL {
            assert_eq!(Codec::from_key(codec.name()), Some(codec));
            assert_eq!(Codec::from_magic(codec.magic()), Some(codec));
            assert_eq!(format!("{codec}"), codec.name());
        }
        assert_eq!(Codec::from_key("gzip"), None);
        assert_eq!(Codec::default(), Codec::TopK);
    }

    #[test]
    fn default_codec_matches_the_free_functions() {
        // The acceptance bar: the default share path draws no randomness
        // and reproduces the historical top-k output bit for bit.
        let p = ParamVec::from_vec((0..200).map(|i| ((i * 31) % 97) as f32 / 48.0 - 1.0).collect());
        for psi in [0.0, 0.2, 0.7, 1.0] {
            let mut r = rng();
            let before = r.clone();
            assert_eq!(Codec::TopK.apply(&p, psi, &mut r), compress_dense(&p, psi));
            assert_eq!(r, before, "topk must not advance the rng");
            assert_eq!(Codec::TopK.wire_bytes(1 << 20, psi), wire_bytes(1 << 20, psi));
        }
    }

    #[test]
    fn quantized_method_is_cheaper_but_lossier() {
        let p = ParamVec::from_vec((0..512).map(|i| ((i * 31) % 97) as f32 / 48.0 - 1.0).collect());
        let plain = Codec::TopK;
        let quant = Codec::TopKQuantized;
        assert!(quant.wire_bytes(1_000_000, 0.5) < plain.wire_bytes(1_000_000, 0.5));
        let err_plain = p.distance(&plain.apply(&p, 0.5, &mut rng()));
        let err_quant = p.distance(&quant.apply(&p, 0.5, &mut rng()));
        assert!(err_quant >= err_plain, "quantization adds error: {err_quant} vs {err_plain}");
        // But the error stays bounded by the quantization step.
        assert!(err_quant < err_plain + p.l2_norm() * 0.05);
    }

    #[test]
    fn codecs_agree_at_psi_zero() {
        let p = sample_params();
        for codec in Codec::ALL {
            let mut r = rng();
            assert!(codec.apply(&p, 0.0, &mut r).as_slice().iter().all(|&v| v == 0.0));
            assert_eq!(codec.wire_bytes(1000, 0.0), 0);
            assert_eq!(codec.pair_wire_bytes(1000, 0.0), 0);
        }
    }

    #[test]
    fn encode_length_matches_the_declared_size() {
        let p = ParamVec::from_vec((0..150).map(|i| (i as f32 * 0.37).sin()).collect());
        for codec in Codec::ALL {
            for psi in [0.0, 0.13, 0.5, 1.0] {
                let wire = codec.encode(&p, psi, &mut rng());
                assert_eq!(
                    wire.len(),
                    codec.encoded_wire_bytes(p.len(), psi),
                    "{codec} at psi={psi}"
                );
                assert_eq!(wire.codec().expect("tagged"), codec);
            }
        }
    }

    #[test]
    fn decode_matches_apply_for_every_codec() {
        let p = ParamVec::from_vec((0..150).map(|i| (i as f32 * 0.61).cos()).collect());
        for codec in Codec::ALL {
            for psi in [0.0, 0.13, 0.5, 1.0] {
                let wire = codec.encode(&p, psi, &mut rng());
                let decoded = wire.decode().expect("valid encode");
                let applied = codec.apply(&p, psi, &mut rng());
                assert_eq!(decoded, applied, "{codec} at psi={psi}");
            }
        }
    }

    #[test]
    fn decode_rejects_corrupt_buffers() {
        let p = sample_params();
        let wire = Codec::TopK.encode(&p, 0.5, &mut rng());
        let mut bad = wire.as_bytes().to_vec();
        bad[0] = 0x7E;
        assert_eq!(
            WireModel::from_bytes(bad).decode(),
            Err(WireError::BadMagic { got: 0x7E })
        );
        let truncated = wire.as_bytes()[..wire.len() - 2].to_vec();
        assert_eq!(WireModel::from_bytes(truncated).decode(), Err(WireError::Truncated));
        assert_eq!(WireModel::from_bytes(Vec::new()).decode(), Err(WireError::Truncated));
        // Out-of-range index.
        let mut oob = wire.as_bytes().to_vec();
        oob[5..9].copy_from_slice(&100u32.to_le_bytes());
        assert_eq!(
            WireModel::from_bytes(oob).decode(),
            Err(WireError::BadValue { field: "index", got: 100 })
        );
        // Trailing garbage past the last sketch latent.
        let mut long = Codec::Sketch.encode(&p, 0.5, &mut rng()).as_bytes().to_vec();
        long.extend_from_slice(&[0, 0, 0, 0]);
        assert_eq!(
            WireModel::from_bytes(long).decode(),
            Err(WireError::Trailing { extra: 4 })
        );
    }

    #[test]
    fn stochastic_rounding_is_seed_reproducible() {
        let p = ParamVec::from_vec((0..64).map(|i| (i as f32 * 0.17).sin() * 3.0).collect());
        for codec in [Codec::Int8, Codec::Int4] {
            let a = codec.encode(&p, 0.6, &mut StdRng::seed_from_u64(7));
            let b = codec.encode(&p, 0.6, &mut StdRng::seed_from_u64(7));
            assert_eq!(a, b, "{codec} must be a pure function of (input, seed)");
        }
    }

    #[test]
    fn stochastic_quantizers_stay_within_one_level() {
        let p = ParamVec::from_vec((0..96).map(|i| (i as f32 * 0.23).cos() * 2.0).collect());
        for (codec, levels) in [(Codec::Int8, INT8_LEVELS), (Codec::Int4, INT4_LEVELS)] {
            let sparse = top_k(&p, 0.5);
            let scale = symmetric_scale(&sparse.values, levels);
            let hat = codec.apply(&p, 0.5, &mut rng());
            let reference = compress_dense(&p, 0.5);
            for (a, b) in reference.as_slice().iter().zip(hat.as_slice()) {
                assert!((a - b).abs() <= scale + 1e-6, "{codec}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn sketch_is_deterministic_and_lossy() {
        let p = ParamVec::from_vec((0..200).map(|i| (i as f32 * 0.11).sin()).collect());
        let a = Codec::Sketch.apply(&p, 0.5, &mut rng());
        let b = Codec::Sketch.apply(&p, 0.5, &mut rng());
        assert_eq!(a, b);
        // Latent projection loses information even at psi = 1 — documented.
        let full = Codec::Sketch.apply(&p, 1.0, &mut rng());
        assert!(p.distance(&full) > 0.0);
        // But it tracks the signal: closer at psi=1 than at psi=0.1.
        let coarse = Codec::Sketch.apply(&p, 0.1, &mut rng());
        assert!(p.distance(&full) < p.distance(&coarse));
    }
}
