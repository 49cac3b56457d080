//! Property tests for the model codec (`lbchat::compress`): top-k through
//! `Codec` is bit-identical to the free function the share paths call and
//! draws no randomness, `decode(encode(x))` reproduces `apply(x)` exactly,
//! and the one decoder answers any damage to a valid buffer with `Ok` or a
//! typed `WireError`, never a panic.

use lbchat::compress::{compress_dense, top_k, Codec, WireModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vnn::wire::WireError;
use vnn::ParamVec;

fn params_strategy() -> impl Strategy<Value = ParamVec> {
    prop::collection::vec(-10.0f32..10.0, 1..200).prop_map(ParamVec::from_vec)
}

/// Header bytes before the first record: `[magic: u8][dense_len: u32]`.
const HEADER: usize = 5;

/// What `decode` may answer for `bytes`, a valid buffer's header over an
/// arbitrary body: `Ok` only for whole records whose indices all fall
/// below `dense_len`, a typed error otherwise — and never a panic.
fn decode_is_typed(bytes: Vec<u8>, dense_len: usize) -> Result<(), TestCaseError> {
    let body = &bytes[HEADER.min(bytes.len())..];
    let whole_in_range = bytes.len() >= HEADER
        && body.len() % 8 == 0
        && body.chunks(8).all(|r| (u32::from_le_bytes([r[0], r[1], r[2], r[3]]) as usize) < dense_len);
    match WireModel::from_bytes(bytes).decode() {
        Ok(dense) => {
            prop_assert!(whole_in_range, "Ok for a body that is ragged or indexes past {}", dense_len);
            prop_assert_eq!(dense.len(), dense_len);
        }
        Err(e) => {
            prop_assert!(!whole_in_range, "{:?} for whole in-range records", e);
            prop_assert!(matches!(e, WireError::Truncated | WireError::BadValue { field: "index", .. }));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn topk_codec_is_bit_identical_to_the_free_path(
        params in params_strategy(),
        psi in (0u32..=20).prop_map(|p| p as f32 / 20.0),
        seed in 0u64..1 << 48,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let via_codec = Codec::TopK.apply(&params, psi, &mut rng);
        let via_free = compress_dense(&params, psi);
        prop_assert_eq!(via_codec.as_slice(), via_free.as_slice());
        // The codec must not consume entropy: a fresh same-seed rng still
        // agrees with the one threaded through it.
        let mut fresh = StdRng::seed_from_u64(seed);
        let wire = Codec::TopK.encode(&params, psi, &mut rng);
        let wire2 = Codec::TopK.encode(&params, psi, &mut fresh);
        prop_assert_eq!(wire.as_bytes(), wire2.as_bytes());
        prop_assert_eq!(rng, fresh);
    }

    #[test]
    fn decode_of_encode_reproduces_apply_for_every_codec(
        params in params_strategy(),
        psi in (0u32..=20).prop_map(|p| p as f32 / 20.0),
        seed in 0u64..1 << 48,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let wire = Codec::TopK.encode(&params, psi, &mut rng);
        prop_assert_eq!(wire.len(), HEADER + 8 * top_k(&params, psi).nnz(), "size is 5 + 8k");
        let decoded = wire.decode().expect("own encode must decode");
        let applied = Codec::TopK.apply(&params, psi, &mut rng);
        prop_assert_eq!(
            decoded.as_slice(),
            applied.as_slice(),
            "receiver and sender views must match bit for bit"
        );
    }

    /// Every prefix, every 1–16-byte extension and every single-byte flip
    /// of the record bytes of a valid buffer, with the header's `dense_len`
    /// left intact.
    #[test]
    fn damaged_buffers_decode_to_ok_or_a_typed_error(
        params in params_strategy(),
        psi in (0u32..=20).prop_map(|p| p as f32 / 20.0),
        extension in prop::collection::vec(0u8..=255, 16),
        flip in 1u8..=255,
    ) {
        let bytes = Codec::TopK.encode(&params, psi, &mut StdRng::seed_from_u64(0)).as_bytes().to_vec();
        let n = params.len();
        for cut in 0..bytes.len() {
            decode_is_typed(bytes[..cut].to_vec(), n)?;
        }
        for extra in 1..=extension.len() {
            decode_is_typed([&bytes[..], &extension[..extra]].concat(), n)?;
        }
        for at in HEADER..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= flip;
            decode_is_typed(flipped, n)?;
        }
    }
}
