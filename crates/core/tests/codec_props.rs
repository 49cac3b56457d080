//! Property tests for the pluggable model codecs (`lbchat::compress`):
//! the default top-k codec is bit-identical to the free functions the
//! paper path always used, lossy quantizers stay within one quantization
//! level of the top-k reference, stochastic rounding is a pure function of
//! the seed, and `decode(encode(x))` reproduces `apply(x)` exactly for
//! every codec.

use lbchat::compress::{compress_dense, Codec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vnn::ParamVec;

fn params_strategy() -> impl Strategy<Value = ParamVec> {
    prop::collection::vec(-10.0f32..10.0, 1..200).prop_map(ParamVec::from_vec)
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
        // The default codec must not consume entropy: a fresh same-seed rng
        // still agrees with the one threaded through the codec.
        let mut fresh = StdRng::seed_from_u64(seed);
        let wire = Codec::TopK.encode(&params, psi, &mut rng);
        let wire2 = Codec::TopK.encode(&params, psi, &mut fresh);
        prop_assert_eq!(wire.as_bytes(), wire2.as_bytes());
    }

    #[test]
    fn quantizers_stay_within_one_level_of_topk(
        params in params_strategy(),
        psi in (0u32..=20).prop_map(|p| p as f32 / 20.0),
        seed in 0u64..1 << 48,
    ) {
        let reference = compress_dense(&params, psi);
        let max_abs = reference.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        for (codec, levels) in [
            (Codec::TopKQuantized, 127.0f32),
            (Codec::Int8, 127.0),
            (Codec::Int4, 7.0),
        ] {
            let scale = if max_abs > 0.0 { max_abs / levels } else { 1.0 };
            let mut rng = StdRng::seed_from_u64(seed);
            let decoded = codec.apply(&params, psi, &mut rng);
            for (d, r) in decoded.as_slice().iter().zip(reference.as_slice()) {
                prop_assert!(
                    (d - r).abs() <= scale * 1.0001,
                    "{codec}: |{d} - {r}| > one level ({scale})"
                );
                // Dropped coordinates stay dropped under every codec.
                if *r == 0.0 {
                    prop_assert_eq!(*d, 0.0);
                }
            }
        }
    }

    #[test]
    fn stochastic_rounding_is_a_function_of_the_seed(
        params in params_strategy(),
        psi in (0u32..=20).prop_map(|p| p as f32 / 20.0),
        seed in 0u64..1 << 48,
    ) {
        for codec in [Codec::TopKQuantized, Codec::Int8, Codec::Int4] {
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            let out_a = codec.apply(&params, psi, &mut a);
            let out_b = codec.apply(&params, psi, &mut b);
            prop_assert_eq!(out_a.as_slice(), out_b.as_slice(), "{} must be seed-pure", codec);
            let mut c = StdRng::seed_from_u64(seed);
            let wire = codec.encode(&params, psi, &mut c);
            let decoded = wire.decode().expect("own encode must decode");
            prop_assert_eq!(
                decoded.as_slice(),
                out_a.as_slice(),
                "{} wire bytes must carry the same rounding decisions",
                codec
            );
        }
    }

    #[test]
    fn decode_of_encode_reproduces_apply_for_every_codec(
        params in params_strategy(),
        psi in (0u32..=20).prop_map(|p| p as f32 / 20.0),
        seed in 0u64..1 << 48,
    ) {
        for codec in Codec::ALL {
            let mut enc_rng = StdRng::seed_from_u64(seed);
            let mut app_rng = StdRng::seed_from_u64(seed);
            let wire = codec.encode(&params, psi, &mut enc_rng);
            prop_assert_eq!(wire.codec(), Ok(codec));
            prop_assert_eq!(
                wire.len(),
                codec.encoded_wire_bytes(params.len(), psi),
                "{} must declare its exact encoded size",
                codec
            );
            let decoded = wire.decode().expect("own encode must decode");
            let applied = codec.apply(&params, psi, &mut app_rng);
            prop_assert_eq!(
                decoded.as_slice(),
                applied.as_slice(),
                "{}: receiver and sender views must match bit for bit",
                codec
            );
        }
    }
}
