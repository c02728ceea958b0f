//! Property tests: codec round-trips on adversarial floating-point inputs —
//! signed zeros, subnormals, magnitude extremes, and values engineered to
//! straddle the SZ quantization-bin edges. Lossless codecs must be bit-exact
//! (including the sign of -0.0); the lossy codec must honour its bound on
//! every component, no matter how hostile the input.

use mq_compress::{
    compress_complex, decompress_complex, varint, AutoCodec, Codec, CodecError, CodecSpec,
    Precision, SzCodec,
};
use mq_num::Complex64;
use proptest::prelude::*;

/// Every codec the library builds, by name: the sweep set, and the adaptive
/// codec without a bound and under two, f32 demotion allowed.
fn every_codec() -> Vec<(String, Box<dyn Codec>)> {
    let mut all: Vec<(String, Box<dyn Codec>)> = CodecSpec::sweep_set()
        .into_iter()
        .map(|spec| (spec.to_string(), spec.build()))
        .collect();
    for eb in [None, Some(1e-9), Some(1e-6)] {
        let spec = CodecSpec::Auto { eb };
        all.push((
            format!("{spec} (adaptive precision)"),
            spec.build_with_precision(Precision::Adaptive),
        ));
    }
    all
}

/// The plane order of `amps`: every real part, then every imaginary part.
fn planes(amps: &[Complex64]) -> Vec<f64> {
    amps.iter()
        .map(|a| a.re)
        .chain(amps.iter().map(|a| a.im))
        .collect()
}

/// Bit patterns with every NaN folded onto one: the sign and payload of a
/// NaN the decoder computes are unspecified.
fn bit_key(values: &[f64]) -> Vec<u64> {
    let key = |x: f64| if x.is_nan() { u64::MAX } else { x.to_bits() };
    values.iter().map(|&x| key(x)).collect()
}

/// Chunks of `n` amplitudes in the shapes the codecs tell apart: sparse,
/// constant, random, and one that cycles through the values codecs get
/// wrong (both zeros, NaN, both infinities, subnormals, 1e±300).
fn amplitude_chunks(n: usize, seed: u64) -> Vec<(&'static str, Vec<Complex64>)> {
    let mut state = seed;
    let mut uniform = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    };
    const ODD: [f64; 11] = [
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE / 2.0,
        -5e-324,
        1e300,
        -1e-300,
        0.25,
        -0.7,
    ];
    let mut sparse = vec![Complex64::ZERO; n];
    sparse[n / 3] = Complex64::new(std::f64::consts::FRAC_1_SQRT_2, -0.5);
    sparse[n - 1] = Complex64::new(-0.0, 1e-300);
    vec![
        ("sparse", sparse),
        ("constant", vec![Complex64::new(4.8828125e-4, -0.125); n]),
        (
            "random",
            (0..n)
                .map(|_| Complex64::new(uniform() * 1e-3, uniform() * 1e-3))
                .collect(),
        ),
        (
            "adversarial",
            (0..n)
                .map(|i| Complex64::new(ODD[i % ODD.len()], ODD[(i * 7 + 3) % ODD.len()]))
                .collect(),
        ),
    ]
}

#[test]
fn amplitude_entries_match_the_plane_entries_byte_for_byte() {
    // The amplitude entries read and write the planes in place; what they
    // produce must be what the plane entries produce on the planes laid end
    // to end, for every codec, chunk shape and length — odd lengths whose
    // SZ blocks straddle the re/im boundary included.
    for n in [1usize, 2, 3, 127, 128, 129, 1 << 10, 1 << 13] {
        for (shape, amps) in amplitude_chunks(n, n as u64) {
            let planes = planes(&amps);
            for (name, codec) in every_codec() {
                let what = format!("{name}, {shape} chunk of {n}");
                let payload = codec.compress_amps(&amps);
                assert!(
                    payload == codec.compress(&planes),
                    "{what}: payloads differ"
                );
                assert!(
                    payload == compress_complex(codec.as_ref(), &amps),
                    "{what}: compress_complex is not compress_amps"
                );
                let mut via_planes = vec![0.5; 2 * n];
                codec.decompress(&payload, &mut via_planes).unwrap();
                let mut in_place = vec![Complex64::ONE; n];
                codec.decompress_amps(&payload, &mut in_place).unwrap();
                assert_eq!(
                    bit_key(&self::planes(&in_place)),
                    bit_key(&via_planes),
                    "{what}: decodes differ"
                );
            }
        }
    }
}

/// The error both entries return for `bytes`, checked to be the same one,
/// and the same decoded bits when both succeed.
fn decode_both(codec: &dyn Codec, bytes: &[u8], n: usize) -> Result<(), CodecError> {
    let mut via_planes = vec![0.0; 2 * n];
    let mut in_place = vec![Complex64::ZERO; n];
    let flat = codec.decompress(bytes, &mut via_planes);
    let amps = codec.decompress_amps(bytes, &mut in_place);
    assert_eq!(flat, amps, "{}: the two entries disagree", codec.name());
    if flat.is_ok() {
        assert_eq!(bit_key(&planes(&in_place)), bit_key(&via_planes));
    }
    flat
}

#[test]
fn mutated_payloads_fail_alike_through_both_entries_and_never_panic() {
    // Truncations and byte flips of valid payloads, for the codecs without
    // a mutation loop of their own (SZ has one in `szlike`).
    let codecs: Vec<Box<dyn Codec>> = vec![
        CodecSpec::ZeroRle.build(),
        CodecSpec::Fpc.build(),
        CodecSpec::ShuffleLzss.build(),
        CodecSpec::Auto { eb: None }.build(),
        CodecSpec::Auto { eb: Some(1e-6) }.build_with_precision(Precision::Adaptive),
    ];
    for codec in &codecs {
        for n in [5usize, 129] {
            for (_, amps) in amplitude_chunks(n, 7) {
                let valid = codec.compress_amps(&amps);
                for cut in 0..valid.len() {
                    let _ = decode_both(codec.as_ref(), &valid[..cut], n);
                }
                for at in 0..valid.len() {
                    for flip in [0x01, 0x80, 0xFF] {
                        let mut bytes = valid.clone();
                        bytes[at] ^= flip;
                        let _ = decode_both(codec.as_ref(), &bytes, n);
                    }
                }
                assert_eq!(decode_both(codec.as_ref(), &valid, n), Ok(()));
            }
        }
    }
}

#[test]
fn crafted_lengths_that_wrap_a_sum_are_typed_errors() {
    // Two amplitudes, so four values in plane order.
    let stream = |words: &[u64], tail: &[u8]| {
        let mut buf = Vec::new();
        for &w in words {
            varint::write_u64(&mut buf, w);
        }
        buf.extend_from_slice(tail);
        buf
    };
    let corrupt = |r: Result<(), CodecError>| matches!(r, Err(CodecError::Corrupt(_)));
    let zero_rle = CodecSpec::ZeroRle.build();
    let fpc = CodecSpec::Fpc.build();
    let auto = CodecSpec::Auto { eb: None }.build();
    let mut one_literal = stream(&[4, 0, 1], &1.5f64.to_le_bytes());
    varint::write_u64(&mut one_literal, u64::MAX);
    let cases = [
        // A zero run of u64::MAX after one decoded value.
        (zero_rle.as_ref(), one_literal),
        // A literal run of u64::MAX.
        (zero_rle.as_ref(), stream(&[4, 0, u64::MAX], &[0; 32])),
        // A payload length that wraps `pos + payload_len`.
        (fpc.as_ref(), stream(&[4, u64::MAX], &[0; 16])),
    ];
    for (codec, bytes) in cases {
        assert!(corrupt(decode_both(codec, &bytes, 2)), "{}", codec.name());
        // The same streams behind the adaptive codec's header byte, whose
        // backend tag is 1 for zero-RLE and 2 for FPC.
        let tag = if codec.name() == "fpc" { 2 } else { 1 };
        let wrapped = [&[tag][..], &bytes].concat();
        assert!(corrupt(decode_both(auto.as_ref(), &wrapped, 2)));
    }
}

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
