//! Model compression for exchange (§III-C): magnitude top-k.
//!
//! The paper transmits top-k-sparsified models: "the component's k-largest
//! magnitudes in x are transmitted", encoded as index–value pairs when k is
//! small. The *compression ratio* is `φ = S / S_c` and its reciprocal
//! `ψ = 1/φ ∈ [0, 1]`: `ψ = 0` sends nothing, `ψ = 1` sends the dense
//! model. Share paths call [`compress_dense`] for the receiver's view and
//! [`wire_bytes`] / [`pair_wire_bytes`] for its cost; [`WireModel`] is the
//! one byte encoding of a compressed model, built on the vnn wire
//! primitives.
//!
//! docs/COMPRESSION.md is the normative spec: the byte-for-byte wire
//! layout, the ψ/φ notation mapping and both wire-size accountings. Keep
//! the two in sync.

use rand::rngs::StdRng;
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

    /// Narrows `dense` in place from the cut at `from` to the cut at `psi`
    /// by zeroing the components `from` keeps and `psi` drops. Applied to
    /// the vector itself at `from = 1`, and then along any descending ψ
    /// walk, it leaves `top_k(..).to_dense()` of the vector at each ψ bit
    /// for bit, so a whole grid ([`crate::phi::PhiCurve::sample`]) reuses
    /// one buffer, and [`compress_dense`] is one narrowed clone.
    ///
    /// # Panics
    /// Panics if `psi` or `from` is outside `[0, 1]`, or if `psi > from`.
    pub fn narrow(&mut self, dense: &mut ParamVec, from: f32, psi: f32) {
        assert!(psi <= from, "narrowing cannot widen the cut");
        let kept = self.survivors(from).len();
        let k = self.survivors(psi).len();
        let d = dense.as_mut_slice();
        for &key in &self.keys[k..kept] {
            d[key as u32 as usize] = 0.0;
        }
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

/// Applies top-k and densifies in one step — the receiver's view `x̂^ψ`,
/// bit-identical to `top_k(params, psi).to_dense()`: the clone of
/// `params` narrowed to the cut at `psi` ([`MagnitudeOrder::narrow`]),
/// so no sparse form is built. `ψ = 1` is a plain clone and `ψ = 0` all
/// zeros; neither orders the components.
///
/// # Panics
/// Panics if `psi` is outside `[0, 1]`.
pub fn compress_dense(params: &ParamVec, psi: f32) -> ParamVec {
    assert!((0.0..=1.0).contains(&psi), "psi must be in [0, 1]");
    match top_k_count(params.len(), psi) {
        0 => ParamVec::zeros(params.len()),
        k if k == params.len() => params.clone(),
        _ => {
            let mut dense = params.clone();
            MagnitudeOrder::new(params).narrow(&mut dense, 1.0, psi);
            dense
        }
    }
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
/// — LbChat records both per send (`compress.model_bytes` /
/// `compress.pair_bytes`) so a run manifest does not understate
/// sparse-encoding cost.
pub fn pair_wire_bytes(dense_wire_bytes: usize, psi: f32) -> usize {
    assert!((0.0..=1.0).contains(&psi), "psi must be in [0, 1]");
    let factor = (2.0 * f64::from(psi)).min(1.0);
    ((dense_wire_bytes as f64) * factor).ceil() as usize
}

/// Wire-format magic byte of an encoded model (first byte of every
/// [`WireModel`]).
const MAGIC: u8 = 0x4B; // 'K'

/// The model codec every share path uses: magnitude top-k, the paper's
/// §III-C choice and the only one. LbChat and the baselines call
/// [`compress_dense`], [`wire_bytes`] and [`pair_wire_bytes`] directly;
/// the enum names the codec of a [`WireModel`].
///
/// [`Codec::apply`] is bit-identical to `encode(..).decode()`. Top-k draws
/// no randomness, so the `rng` argument of both is never read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Codec {
    /// Magnitude top-k sparsification. Deterministic; draws no randomness.
    #[default]
    TopK,
}

impl Codec {
    /// The receiver's reconstructed dense model for a given ψ —
    /// [`compress_dense`], bit-identical to `self.encode(params, psi,
    /// rng).decode()`.
    ///
    /// # Panics
    /// Panics if `psi` is outside `[0, 1]`.
    pub fn apply(self, params: &ParamVec, psi: f32, _rng: &mut StdRng) -> ParamVec {
        compress_dense(params, psi)
    }

    /// Encodes `params` at ψ into the byte layout of docs/COMPRESSION.md:
    /// the `'K'` magic, the dense length, then one `[u32 index][f32 value]`
    /// record per survivor, indices ascending — `5 + 8k` bytes.
    ///
    /// # Panics
    /// Panics if `psi` is outside `[0, 1]` or the model exceeds `u32::MAX`
    /// components.
    pub fn encode(self, params: &ParamVec, psi: f32, _rng: &mut StdRng) -> WireModel {
        let sparse = top_k(params, psi);
        #[expect(
            clippy::expect_used,
            reason = "documented contract (# Panics): the wire layout has no length field wider than u32"
        )]
        let dense_len = u32::try_from(params.len()).expect("model fits u32 components");
        let mut bytes = Vec::with_capacity(5 + 8 * sparse.nnz());
        bytes.push(MAGIC);
        bytes.extend_from_slice(&dense_len.to_le_bytes());
        for (&i, &v) in sparse.indices.iter().zip(&sparse.values) {
            bytes.extend_from_slice(&i.to_le_bytes());
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        WireModel { bytes }
    }
}

// ---------------------------------------------------------------------------
// WireModel: the byte encoding
// ---------------------------------------------------------------------------

/// An encoded model: the `'K'` magic byte, the dense length, then the
/// top-k records (docs/COMPRESSION.md, all integers/floats
/// little-endian). Produced by [`Codec::encode`]; decoded with
/// [`WireModel::decode`].
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

    /// Encoded size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True for a zero-length buffer (never produced by [`Codec::encode`]).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Decodes to the receiver's dense model — the same vector the
    /// sender's [`Codec::apply`] produced, bit for bit.
    ///
    /// # Errors
    /// A [`WireError`] naming the structural mismatch: `BadMagic` for a
    /// first byte other than `'K'`, `Truncated` for a buffer that ends
    /// inside the header or a record, `BadValue` for an index at or past
    /// the header's dense length.
    ///
    /// # Allocation
    /// Sized by the header's `dense_len`, unchecked: bounding it needs the receiver's own model length.
    pub fn decode(&self) -> Result<ParamVec, WireError> {
        let mut r = WireReader::new(&self.bytes);
        let magic = r.u8()?;
        if magic != MAGIC {
            return Err(WireError::BadMagic { got: magic });
        }
        let mut out = vec![0.0f32; r.u32()? as usize];
        while r.remaining() > 0 {
            let index = r.u32()?;
            let value = r.f32()?;
            let slot = out
                .get_mut(index as usize)
                .ok_or(WireError::BadValue { field: "index", got: index })?;
            *slot = value;
        }
        Ok(ParamVec::from_vec(out))
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
                let mut dense = p.clone();
                order.narrow(&mut dense, 1.0, psi);
                assert_eq!(bits(&dense), bits(&top_k(&p, psi).to_dense()), "psi={psi}");
                assert_eq!(bits(&compress_dense(&p, psi)), bits(&dense), "psi={psi}");
                assert_eq!(bits(&dense), bits(&top_k_dense_oracle(&p, psi)), "psi={psi}");
                // NaN survivors: compare the sparse form through its bits too.
                let (a, b) = (order.top_k(psi), top_k(&p, psi));
                assert_eq!((a.dense_len, &a.indices), (b.dense_len, &b.indices), "psi={psi}");
                assert_eq!(bits(&a.to_dense()), bits(&dense), "psi={psi}");
            }
        }
        // The φ walk: one buffer narrowed down the descending requests.
        let mut order = MagnitudeOrder::new(&p);
        let (mut dense, mut from) = (p.clone(), 1.0);
        for &psi in &descending {
            order.narrow(&mut dense, from, psi);
            from = psi;
            assert_eq!(bits(&dense), bits(&top_k_dense_oracle(&p, psi)), "walk psi={psi}");
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
    #[should_panic(expected = "psi must be in [0, 1]")]
    fn invalid_psi_panics() {
        let _ = top_k(&sample_params(), 1.5);
    }

    #[test]
    fn default_codec_matches_the_free_functions() {
        // The share path draws no randomness and reproduces the free
        // top-k function bit for bit.
        let p = ParamVec::from_vec((0..200).map(|i| ((i * 31) % 97) as f32 / 48.0 - 1.0).collect());
        assert_eq!(Codec::default(), Codec::TopK);
        for psi in [0.0, 0.2, 0.7, 1.0] {
            let mut r = rng();
            let before = r.clone();
            assert_eq!(Codec::TopK.apply(&p, psi, &mut r), compress_dense(&p, psi));
            let _ = Codec::TopK.encode(&p, psi, &mut r);
            assert_eq!(r, before, "topk must not advance the rng");
        }
    }

    #[test]
    fn codecs_agree_at_psi_zero() {
        // ψ = 0 sends nothing under every view: an all-zero model, zero
        // bytes in both accountings, and a header-only buffer.
        let p = sample_params();
        assert!(Codec::TopK.apply(&p, 0.0, &mut rng()).as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(wire_bytes(1000, 0.0), 0);
        assert_eq!(pair_wire_bytes(1000, 0.0), 0);
        assert_eq!(Codec::TopK.encode(&p, 0.0, &mut rng()).len(), 5);
    }

    #[test]
    fn encode_length_matches_the_declared_size() {
        let p = ParamVec::from_vec((0..150).map(|i| (i as f32 * 0.37).sin()).collect());
        for psi in [0.0, 0.13, 0.5, 1.0] {
            let wire = Codec::TopK.encode(&p, psi, &mut rng());
            assert_eq!(wire.len(), 5 + 8 * top_k(&p, psi).nnz(), "psi={psi}");
            assert_eq!(wire.as_bytes()[0], b'K');
        }
    }

    #[test]
    fn decode_matches_apply_for_every_codec() {
        let p = ParamVec::from_vec((0..150).map(|i| (i as f32 * 0.61).cos()).collect());
        for psi in [0.0, 0.13, 0.5, 1.0] {
            let wire = Codec::TopK.encode(&p, psi, &mut rng());
            let decoded = wire.decode().expect("valid encode");
            assert_eq!(decoded, Codec::TopK.apply(&p, psi, &mut rng()), "psi={psi}");
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
        // Bytes past the last record start a record they cannot finish.
        let mut long = wire.as_bytes().to_vec();
        long.extend_from_slice(&[0, 0, 0, 0]);
        assert_eq!(WireModel::from_bytes(long).decode(), Err(WireError::Truncated));
    }
}
