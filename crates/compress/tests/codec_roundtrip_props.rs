//! Property tests: codec round-trips on adversarial floating-point inputs —
//! signed zeros, subnormals, magnitude extremes, and values engineered to
//! straddle the SZ quantization-bin edges. Lossless codecs must be bit-exact
//! (including the sign of -0.0); the lossy codec must honour its bound on
//! every component, no matter how hostile the input.

use mq_compress::{
    compress_complex, decompress_complex, AutoCodec, Codec, CodecSpec, Precision, SzCodec,
};
use mq_num::Complex64;
use proptest::prelude::*;

/// Floats weighted toward the representations codecs get wrong: both zeros,
/// the subnormal range, the smallest/largest normals, and plain values.
fn adversarial_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        6 => -1.0f64..1.0,
        1 => Just(0.0f64),
        1 => Just(-0.0f64),
        1 => Just(f64::MIN_POSITIVE),
        1 => Just(-f64::MIN_POSITIVE),
        1 => Just(f64::MIN_POSITIVE / 2.0),
        1 => Just(-f64::MIN_POSITIVE / 1024.0),
        1 => Just(f64::from_bits(1)), // smallest positive subnormal
        1 => Just(-f64::from_bits(1)),
        1 => -1e300f64..1e300,
        1 => -1e-300f64..1e-300,
    ]
}

/// Chunks the probe-guided codec sees in practice: adversarial mixtures,
/// plus the all-zero chunks a fresh state vector is mostly made of.
fn adversarial_chunk() -> impl Strategy<Value = Vec<f64>> {
    prop_oneof![
        4 => prop::collection::vec(adversarial_f64(), 0..256),
        1 => (0usize..256).prop_map(|n| vec![0.0f64; n]),
    ]
}

/// One run of a block-structured plane: what the SZ class scan tells apart.
#[derive(Debug, Clone)]
enum Run {
    /// One value, repeated.
    Flat(f64),
    /// Values within half the bound of a level.
    Jitter(f64),
    /// Values nowhere near each other.
    Noise,
    /// A level with the values codecs fold away sprinkled in: those of
    /// [`ODD`] the mask selects.
    Sprinkled(f64, u8),
}

const ODD: [f64; 6] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, -0.0, 0.0];

fn run() -> impl Strategy<Value = (Run, usize)> {
    let level = || prop_oneof![3 => -1.0f64..1.0, 1 => Just(0.0f64), 1 => Just(4.8828125e-4f64)];
    let kind = prop_oneof![
        3 => level().prop_map(Run::Flat),
        2 => level().prop_map(Run::Jitter),
        2 => Just(Run::Noise),
        2 => (level(), 1u8..64).prop_map(|(level, mask)| Run::Sprinkled(level, mask)),
    ];
    // Run lengths around the 128-value block: shorter, equal, longer.
    (kind, prop_oneof![1usize..40, 100usize..160, 250usize..700])
}

/// A plane of runs as its recipe — length, runs (taken in turn, as often as
/// it takes), value seed — at lengths that straddle the SZ block (128
/// values) and lane (a quarter of the input, in whole blocks) edges.
fn block_structured_recipe() -> impl Strategy<Value = (usize, Vec<(Run, usize)>, u64)> {
    let edges = [
        1usize,
        127,
        128,
        129,
        511,
        512,
        513,
        4 * 128 - 1,
        4 * 128 + 1,
    ];
    let length = prop_oneof![
        12 => (0..edges.len()).prop_map(move |i| edges[i]),
        3 => 1usize..2048,
        1 => Just(1usize << 17),
    ];
    (length, prop::collection::vec(run(), 1..12), any::<u64>())
}

/// The plane of a recipe, its jitter `eb / 2` wide.
fn block_structured_plane(n: usize, runs: &[(Run, usize)], seed: u64, eb: f64) -> Vec<f64> {
    let mut state = seed;
    let mut uniform = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    };
    let mut plane = Vec::with_capacity(n);
    for (kind, len) in runs.iter().cycle() {
        for i in 0..*len {
            if plane.len() == n {
                return plane;
            }
            plane.push(match *kind {
                Run::Flat(level) => level,
                Run::Jitter(level) => level + uniform() * eb / 4.0,
                Run::Noise => uniform(),
                Run::Sprinkled(level, mask) => match (i + len) % 9 {
                    k if k < ODD.len() && mask >> k & 1 == 1 => ODD[k],
                    _ => level,
                },
            });
        }
    }
    unreachable!("a recipe has a run, and no run is empty")
}

fn lossless_specs() -> [CodecSpec; 4] {
    [
        CodecSpec::Null,
        CodecSpec::ZeroRle,
        CodecSpec::Fpc,
        CodecSpec::ShuffleLzss,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lossless_codecs_are_bit_exact_on_adversarial_values(
        data in prop::collection::vec(adversarial_f64(), 0..256),
    ) {
        for spec in lossless_specs() {
            let codec = spec.build();
            let bytes = codec.compress(&data);
            let mut out = vec![0.0f64; data.len()];
            codec.decompress(&bytes, &mut out).unwrap();
            for (a, b) in data.iter().zip(&out) {
                // to_bits distinguishes 0.0 from -0.0 and every subnormal.
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{:?}", spec);
            }
        }
    }

    #[test]
    fn auto_codec_is_bit_exact_without_an_allowance(
        data in adversarial_chunk(),
    ) {
        // No allowance, f64 precision: every candidate the probe admits is
        // lossless, so the self-describing payload must round-trip exactly.
        let codec = AutoCodec::lossless();
        let bytes = codec.compress(&data);
        let meta = codec.payload_meta(&bytes).expect("auto payloads self-describe");
        prop_assert!(meta.lossless, "lossless-only codec produced {meta:?}");
        let mut out = vec![1.0f64; data.len()];
        codec.decompress(&bytes, &mut out).unwrap();
        for (a, b) in data.iter().zip(&out) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn auto_codec_honours_the_stage_allowance_it_was_given(
        data in adversarial_chunk(),
        eb_exp in -14i32..-2,
        adaptive in any::<bool>(),
    ) {
        // The probe may hand the chunk to SZ or demote it to f32 pairs, but
        // only when the backend's declared worst case fits the allowance —
        // so the round-trip error never exceeds it, and any payload whose
        // header claims lossless must still be bit-exact.
        let eb = 10f64.powi(eb_exp);
        let precision = if adaptive { Precision::Adaptive } else { Precision::F64 };
        let codec = AutoCodec::new(Some(eb), precision);
        let bytes = codec.compress(&data);
        let meta = codec.payload_meta(&bytes).expect("auto payloads self-describe");
        let mut out = vec![1.0f64; data.len()];
        codec.decompress(&bytes, &mut out).unwrap();
        if meta.lossless {
            for (a, b) in data.iter().zip(&out) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{:?}", meta);
            }
        } else {
            for (a, b) in data.iter().zip(&out) {
                prop_assert!((a - b).abs() <= eb, "{:?}: |{} - {}| > {}", meta, a, b, eb);
            }
        }
        if meta.f32_packed {
            prop_assert!(adaptive, "f32 demotion without Precision::Adaptive");
        }
    }

    #[test]
    fn auto_dynamic_bound_overrides_and_clears(
        data in prop::collection::vec(adversarial_f64(), 1..256),
        eb_exp in -12i32..-2,
    ) {
        // The engine retargets one codec instance per stage through
        // set_dynamic_bound; clearing it must restore lossless behaviour.
        let eb = 10f64.powi(eb_exp);
        let codec = AutoCodec::lossless();
        prop_assert!(codec.set_dynamic_bound(Some(eb)));
        let bytes = codec.compress(&data);
        let mut out = vec![0.0f64; data.len()];
        codec.decompress(&bytes, &mut out).unwrap();
        for (a, b) in data.iter().zip(&out) {
            prop_assert!((a - b).abs() <= eb, "|{} - {}| > {}", a, b, eb);
        }
        prop_assert!(codec.set_dynamic_bound(None));
        let bytes = codec.compress(&data);
        let meta = codec.payload_meta(&bytes).unwrap();
        prop_assert!(meta.lossless);
        let mut out = vec![0.0f64; data.len()];
        codec.decompress(&bytes, &mut out).unwrap();
        for (a, b) in data.iter().zip(&out) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn auto_complex_round_trip_respects_the_bound(
        reim in prop::collection::vec((adversarial_f64(), adversarial_f64()), 0..128),
        eb_exp in -14i32..-2,
    ) {
        let eb = 10f64.powi(eb_exp);
        let amps: Vec<Complex64> = reim.iter().map(|&(r, i)| Complex64::new(r, i)).collect();
        let codec = AutoCodec::new(Some(eb), Precision::Adaptive);
        let bytes = compress_complex(&codec, &amps);
        let mut out = vec![Complex64::ZERO; amps.len()];
        decompress_complex(&codec, &bytes, &mut out).unwrap();
        for (a, b) in amps.iter().zip(&out) {
            prop_assert!((a.re - b.re).abs() <= eb, "re |{} - {}| > {}", a.re, b.re, eb);
            prop_assert!((a.im - b.im).abs() <= eb, "im |{} - {}| > {}", a.im, b.im, eb);
        }
    }

    #[test]
    fn sz_respects_its_bound_on_adversarial_values(
        data in prop::collection::vec(adversarial_f64(), 1..256),
        eb_exp in -14i32..-2,
    ) {
        let eb = 10f64.powi(eb_exp);
        let codec = SzCodec::new(eb);
        let bytes = codec.compress(&data);
        let mut out = vec![0.0f64; data.len()];
        codec.decompress(&bytes, &mut out).unwrap();
        for (a, b) in data.iter().zip(&out) {
            prop_assert!((a - b).abs() <= eb, "|{} - {}| > {}", a, b, eb);
        }
    }

    #[test]
    fn sz_respects_its_bound_on_block_structured_planes(
        recipe in block_structured_recipe(),
    ) {
        let (n, runs, seed) = recipe;
        // Whatever class a block lands in — constant, repeat, verbatim,
        // quantised — and wherever blocks and lanes end: finite values come
        // back within the bound, the others bit for bit.
        for eb in [1e-4, 1e-10, 1e-13] {
            let data = block_structured_plane(n, &runs, seed, eb);
            let codec = SzCodec::new(eb);
            let bytes = codec.compress(&data);
            let mut out = vec![0.5f64; data.len()];
            codec.decompress(&bytes, &mut out).unwrap();
            for (i, (a, b)) in data.iter().zip(&out).enumerate() {
                if a.is_finite() {
                    prop_assert!((a - b).abs() <= eb, "[{}] |{} - {}| > {}", i, a, b, eb);
                } else {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "[{}] of {}", i, n);
                }
            }
        }
    }

    #[test]
    fn sz_respects_its_bound_on_bin_edge_straddlers(
        // Values placed a hair on either side of quantization-bin centres
        // k * 2eb: the rounding direction must never cost more than eb.
        bins in prop::collection::vec((-200i32..200, -0.55f64..0.55), 1..256),
        eb_exp in -12i32..-4,
    ) {
        let eb = 10f64.powi(eb_exp);
        let data: Vec<f64> = bins
            .iter()
            .map(|&(k, frac)| (k as f64 + frac) * 2.0 * eb)
            .collect();
        let codec = SzCodec::new(eb);
        let bytes = codec.compress(&data);
        let mut out = vec![0.0f64; data.len()];
        codec.decompress(&bytes, &mut out).unwrap();
        for (a, b) in data.iter().zip(&out) {
            prop_assert!((a - b).abs() <= eb, "|{} - {}| > {}", a, b, eb);
        }
    }

    #[test]
    fn complex_round_trip_interleaves_components_faithfully(
        reim in prop::collection::vec((adversarial_f64(), adversarial_f64()), 0..128),
    ) {
        let amps: Vec<Complex64> = reim.iter().map(|&(r, i)| Complex64::new(r, i)).collect();
        for spec in lossless_specs() {
            let codec = spec.build();
            let bytes = compress_complex(codec.as_ref(), &amps);
            let mut out = vec![Complex64::ZERO; amps.len()];
            decompress_complex(codec.as_ref(), &bytes, &mut out).unwrap();
            for (a, b) in amps.iter().zip(&out) {
                prop_assert_eq!(a.re.to_bits(), b.re.to_bits(), "{:?}", spec);
                prop_assert_eq!(a.im.to_bits(), b.im.to_bits(), "{:?}", spec);
            }
        }
    }

    #[test]
    fn complex_sz_bounds_both_components(
        reim in prop::collection::vec((adversarial_f64(), adversarial_f64()), 1..128),
        eb_exp in -12i32..-4,
    ) {
        let eb = 10f64.powi(eb_exp);
        let amps: Vec<Complex64> = reim.iter().map(|&(r, i)| Complex64::new(r, i)).collect();
        let codec = SzCodec::new(eb);
        let bytes = compress_complex(&codec, &amps);
        let mut out = vec![Complex64::ZERO; amps.len()];
        decompress_complex(&codec, &bytes, &mut out).unwrap();
        for (a, b) in amps.iter().zip(&out) {
            prop_assert!((a.re - b.re).abs() <= eb, "re |{} - {}| > {}", a.re, b.re, eb);
            prop_assert!((a.im - b.im).abs() <= eb, "im |{} - {}| > {}", a.im, b.im, eb);
        }
    }
}
