//! # mq-compress — compression substrate for the MEMQSIM reproduction
//!
//! The paper leverages "a state-of-the-art data compressor" (SZ) to shrink
//! state-vector chunks resident in CPU memory. This crate builds that
//! substrate from scratch:
//!
//! * primitives — [`bitstream`], [`varint`], [`huffman`], [`lzss`],
//!   [`rle`], [`shuffle`];
//! * codecs — [`szlike`] (error-bounded lossy, the headline compressor),
//!   [`fpc`] (lossless XOR-predictor), zero-RLE, byte-shuffle+LZSS, and a
//!   null codec, all behind the [`Codec`] trait;
//! * [`CodecSpec`] — a parseable registry so harness binaries can sweep
//!   codecs by name (`"sz:1e-8"`, `"fpc"`, ...); it also implements
//!   [`std::str::FromStr`], so `"auto:1e-9".parse()` works anywhere;
//! * [`AutoCodec`] — per-chunk adaptive selection: a cheap [`probe`] pass
//!   picks among zero-RLE / FPC / shuffle-LZSS / SZ (and an optional f32
//!   demotion) per chunk, recording the choice in a one-byte payload
//!   header so decode is self-describing;
//! * complex-amplitude helpers — [`compress_complex`] /
//!   [`decompress_complex`] split interleaved amplitudes into re/im planes
//!   (prediction works far better within a plane).

//!
//! ## Example
//!
//! ```
//! use mq_compress::{Codec, CodecSpec};
//!
//! let codec = CodecSpec::parse("sz:1e-8").unwrap().build();
//! let data: Vec<f64> = (0..1024).map(|i| (i as f64 * 1e-4).sin() * 0.01).collect();
//! let compressed = codec.compress(&data);
//! assert!(compressed.len() * 4 < data.len() * 8);
//!
//! let mut out = vec![0.0; data.len()];
//! codec.decompress(&compressed, &mut out).unwrap();
//! for (a, b) in data.iter().zip(&out) {
//!     assert!((a - b).abs() <= 1e-8);
//! }
//! ```

pub mod bitstream;
pub mod fpc;
pub mod huffman;
pub mod lzss;
pub mod probe;
pub mod rle;
pub mod shuffle;
pub mod szlike;
pub mod varint;

use mq_num::Complex64;
use std::fmt;

/// Unified codec error.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecError {
    /// The compressed stream is malformed or truncated.
    Corrupt(String),
    /// Output buffer length disagrees with the stream header.
    LengthMismatch {
        /// Element count recorded in the stream.
        expected: usize,
        /// Length of the caller's output buffer.
        got: usize,
    },
    /// A caller-supplied chunk buffer has the wrong length for the store's
    /// chunk geometry (amplitude counts, not bytes).
    BufferMismatch {
        /// Amplitudes the store's chunks hold.
        expected: usize,
        /// Length of the caller's buffer.
        got: usize,
    },
    /// A storage-tier I/O operation failed (e.g. a spill file).
    Io(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Corrupt(m) => write!(f, "corrupt compressed stream: {m}"),
            CodecError::LengthMismatch { expected, got } => {
                write!(f, "length mismatch: stream has {expected}, buffer {got}")
            }
            CodecError::BufferMismatch { expected, got } => {
                write!(
                    f,
                    "chunk buffer mismatch: store chunks hold {expected} amplitudes, buffer has {got}"
                )
            }
            CodecError::Io(m) => write!(f, "storage i/o error: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A floating-point array codec.
///
/// Implementations are stateless and `Send + Sync`, so one boxed codec can
/// serve every pipeline thread concurrently.
pub trait Codec: Send + Sync {
    /// Short registry name (`"sz"`, `"fpc"`, ...).
    fn name(&self) -> &'static str;

    /// True if decompression is bit-exact.
    fn is_lossless(&self) -> bool;

    /// The pointwise absolute error bound, `None` for lossless codecs.
    fn error_bound(&self) -> Option<f64> {
        None
    }

    /// Compresses `data` into a fresh byte buffer.
    fn compress(&self, data: &[f64]) -> Vec<u8>;

    /// Decompresses into `out`; `out.len()` must equal the original length.
    fn decompress(&self, bytes: &[u8], out: &mut [f64]) -> Result<(), CodecError>;

    /// Describes a payload this codec produced, when the payload format is
    /// self-describing (see [`AutoCodec`]). `None` for codecs whose payloads
    /// carry no selection header — which is every static codec.
    fn payload_meta(&self, _payload: &[u8]) -> Option<PayloadMeta> {
        None
    }

    /// Updates the codec's error allowance at run time (e.g. per pipeline
    /// stage, from a fidelity budget). Returns `false` when the codec has no
    /// dynamic bound — static codecs ignore the call. `None` clears a
    /// previously set bound.
    fn set_dynamic_bound(&self, _eb: Option<f64>) -> bool {
        false
    }
}

/// What an adaptive, self-describing payload header declares: which backend
/// codec encoded the chunk and at what precision. Read back via
/// [`Codec::payload_meta`] by stores (pick histograms), the device model
/// (codec-aware kernel times) and audits (lossy-encode tracking).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadMeta {
    /// Registry name of the backend codec that encoded this payload.
    pub codec: &'static str,
    /// True when the chunk was demoted to packed f32 pairs before encoding.
    pub f32_packed: bool,
    /// True when the payload decodes bit-exactly (no SZ, no f32 demotion).
    pub lossless: bool,
}

/// Storage precision policy for adaptive encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Always store full f64 amplitudes (the default).
    #[default]
    F64,
    /// Allow [`AutoCodec`] to demote a chunk to packed f32 pairs when the
    /// chunk's magnitude spread fits the f32 mantissa within the current
    /// error allowance — halving raw bytes before the codec runs.
    Adaptive,
}

/// Appends `values` to `out` as little-endian bytes.
fn extend_le_bytes(out: &mut Vec<u8>, values: &[f64]) {
    let start = out.len();
    out.resize(start + values.len() * 8, 0);
    for (bytes, x) in out[start..].chunks_exact_mut(8).zip(values) {
        bytes.copy_from_slice(&x.to_le_bytes());
    }
}

/// Reads `out.len()` values back from the little-endian `bytes` (eight a
/// value, as [`extend_le_bytes`] wrote them).
fn fill_from_le_bytes(bytes: &[u8], out: &mut [f64]) {
    debug_assert_eq!(bytes.len(), out.len() * 8);
    for (slot, bytes) in out.iter_mut().zip(bytes.chunks_exact(8)) {
        *slot = f64::from_le_bytes(bytes.try_into().expect("chunks of eight"));
    }
}

// --- codec implementations --------------------------------------------------

/// Identity codec: raw little-endian bytes. The "no compression" baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullCodec;

impl Codec for NullCodec {
    fn name(&self) -> &'static str {
        "null"
    }
    fn is_lossless(&self) -> bool {
        true
    }
    fn compress(&self, data: &[f64]) -> Vec<u8> {
        let mut out = Vec::with_capacity(10 + data.len() * 8);
        varint::write_u64(&mut out, data.len() as u64);
        extend_le_bytes(&mut out, data);
        out
    }
    fn decompress(&self, bytes: &[u8], out: &mut [f64]) -> Result<(), CodecError> {
        let mut pos = 0;
        let n = varint::read_u64(bytes, &mut pos).map_err(|e| CodecError::Corrupt(e.to_string()))?
            as usize;
        if n != out.len() {
            return Err(CodecError::LengthMismatch {
                expected: n,
                got: out.len(),
            });
        }
        let raw = bytes
            .get(pos..pos + n * 8)
            .ok_or_else(|| CodecError::Corrupt("truncated raw payload".into()))?;
        fill_from_le_bytes(raw, out);
        Ok(())
    }
}

/// Zero run-length codec (lossless): exploits exact-zero sparsity.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZeroRleCodec;

impl Codec for ZeroRleCodec {
    fn name(&self) -> &'static str {
        "zero-rle"
    }
    fn is_lossless(&self) -> bool {
        true
    }
    fn compress(&self, data: &[f64]) -> Vec<u8> {
        let mut out = Vec::new();
        rle::encode(data, &mut out);
        out
    }
    fn decompress(&self, bytes: &[u8], out: &mut [f64]) -> Result<(), CodecError> {
        rle::decode(bytes, out).map_err(|e| match e {
            rle::RleError::LengthMismatch { expected, got } => {
                CodecError::LengthMismatch { expected, got }
            }
            other => CodecError::Corrupt(other.to_string()),
        })
    }
}

/// FPC-style lossless XOR-predictive codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct FpcCodec;

impl Codec for FpcCodec {
    fn name(&self) -> &'static str {
        "fpc"
    }
    fn is_lossless(&self) -> bool {
        true
    }
    fn compress(&self, data: &[f64]) -> Vec<u8> {
        let mut out = Vec::new();
        fpc::encode(data, &mut out);
        out
    }
    fn decompress(&self, bytes: &[u8], out: &mut [f64]) -> Result<(), CodecError> {
        fpc::decode(bytes, out).map_err(|e| match e {
            fpc::FpcError::LengthMismatch { expected, got } => {
                CodecError::LengthMismatch { expected, got }
            }
            other => CodecError::Corrupt(other.to_string()),
        })
    }
}

/// Byte-shuffle + LZSS (lossless): dictionary coding over byte planes.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShuffleLzssCodec;

impl Codec for ShuffleLzssCodec {
    fn name(&self) -> &'static str {
        "shuffle-lzss"
    }
    fn is_lossless(&self) -> bool {
        true
    }
    fn compress(&self, data: &[f64]) -> Vec<u8> {
        let mut planes = Vec::new();
        shuffle::shuffle(data, &mut planes);
        let mut out = Vec::new();
        varint::write_u64(&mut out, data.len() as u64);
        lzss::encode(&planes, &mut out);
        out
    }
    fn decompress(&self, bytes: &[u8], out: &mut [f64]) -> Result<(), CodecError> {
        let mut pos = 0;
        let n = varint::read_u64(bytes, &mut pos).map_err(|e| CodecError::Corrupt(e.to_string()))?
            as usize;
        if n != out.len() {
            return Err(CodecError::LengthMismatch {
                expected: n,
                got: out.len(),
            });
        }
        let mut planes = vec![0u8; n * 8];
        lzss::decode(&bytes[pos..], &mut planes).map_err(|e| match e {
            lzss::LzssError::LengthMismatch { expected, got } => CodecError::LengthMismatch {
                expected: expected / 8,
                got: got / 8,
            },
            other => CodecError::Corrupt(other.to_string()),
        })?;
        shuffle::unshuffle(&planes, out);
        Ok(())
    }
}

/// SZ-style error-bounded lossy codec.
#[derive(Debug, Clone, Copy)]
pub struct SzCodec {
    /// Pointwise absolute error bound (> 0).
    pub eb: f64,
}

impl SzCodec {
    /// Creates a codec with the given absolute error bound.
    ///
    /// # Panics
    /// Panics unless `eb` is finite and positive.
    pub fn new(eb: f64) -> SzCodec {
        assert!(eb.is_finite() && eb > 0.0, "error bound must be positive");
        SzCodec { eb }
    }
}

impl Codec for SzCodec {
    fn name(&self) -> &'static str {
        "sz"
    }
    fn is_lossless(&self) -> bool {
        false
    }
    fn error_bound(&self) -> Option<f64> {
        Some(self.eb)
    }
    fn compress(&self, data: &[f64]) -> Vec<u8> {
        let mut out = Vec::new();
        szlike::encode(data, self.eb, &mut out);
        out
    }
    fn decompress(&self, bytes: &[u8], out: &mut [f64]) -> Result<(), CodecError> {
        szlike::decode(bytes, out).map(|_| ()).map_err(|e| match e {
            szlike::SzError::LengthMismatch { expected, got } => {
                CodecError::LengthMismatch { expected, got }
            }
            other => CodecError::Corrupt(other.to_string()),
        })
    }
}

// --- registry ----------------------------------------------------------------

/// A parseable codec specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CodecSpec {
    /// Raw bytes.
    Null,
    /// Zero run-length.
    ZeroRle,
    /// FPC-style lossless.
    Fpc,
    /// Byte-shuffle + LZSS lossless.
    ShuffleLzss,
    /// SZ-style lossy with absolute bound.
    Sz {
        /// Pointwise absolute error bound.
        eb: f64,
    },
    /// Per-chunk adaptive selection ([`AutoCodec`]): a probe picks the
    /// backend codec per chunk; lossy picks are allowed only within the
    /// static `eb` here or a dynamic bound set at run time.
    Auto {
        /// Static error allowance; `None` restricts picks to lossless
        /// backends until a dynamic bound is installed.
        eb: Option<f64>,
    },
}

impl CodecSpec {
    /// Instantiates the codec (full-f64 precision; see
    /// [`build_with_precision`](CodecSpec::build_with_precision)).
    pub fn build(&self) -> Box<dyn Codec> {
        self.build_with_precision(Precision::F64)
    }

    /// Instantiates the codec with a storage [`Precision`] policy. Only
    /// [`CodecSpec::Auto`] honors `precision`; every static codec stores
    /// full f64 planes regardless.
    pub fn build_with_precision(&self, precision: Precision) -> Box<dyn Codec> {
        match *self {
            CodecSpec::Null => Box::new(NullCodec),
            CodecSpec::ZeroRle => Box::new(ZeroRleCodec),
            CodecSpec::Fpc => Box::new(FpcCodec),
            CodecSpec::ShuffleLzss => Box::new(ShuffleLzssCodec),
            CodecSpec::Sz { eb } => Box::new(SzCodec::new(eb)),
            CodecSpec::Auto { eb } => Box::new(AutoCodec::new(eb, precision)),
        }
    }

    /// Parses `"null" | "zero-rle" | "fpc" | "shuffle-lzss" | "sz:<eb>" |
    /// "auto" | "auto:<eb>"`. Also available as the [`std::str::FromStr`]
    /// impl, so `"sz:1e-6".parse::<CodecSpec>()` works too.
    pub fn parse(s: &str) -> Result<CodecSpec, String> {
        fn parse_eb(text: &str) -> Result<f64, String> {
            let eb: f64 = text
                .parse()
                .map_err(|_| format!("invalid error bound '{text}'"))?;
            if !(eb.is_finite() && eb > 0.0) {
                return Err(format!("error bound must be positive, got {eb}"));
            }
            Ok(eb)
        }
        match s {
            "null" => Ok(CodecSpec::Null),
            "zero-rle" => Ok(CodecSpec::ZeroRle),
            "fpc" => Ok(CodecSpec::Fpc),
            "shuffle-lzss" => Ok(CodecSpec::ShuffleLzss),
            "auto" => Ok(CodecSpec::Auto { eb: None }),
            _ => {
                if let Some(eb_text) = s.strip_prefix("sz:") {
                    Ok(CodecSpec::Sz {
                        eb: parse_eb(eb_text)?,
                    })
                } else if let Some(eb_text) = s.strip_prefix("auto:") {
                    Ok(CodecSpec::Auto {
                        eb: Some(parse_eb(eb_text)?),
                    })
                } else {
                    Err(format!("unknown codec '{s}'"))
                }
            }
        }
    }

    /// The default sweep set used by the codec-comparison experiment.
    pub fn sweep_set() -> Vec<CodecSpec> {
        vec![
            CodecSpec::Null,
            CodecSpec::ZeroRle,
            CodecSpec::Fpc,
            CodecSpec::ShuffleLzss,
            CodecSpec::Sz { eb: 1e-4 },
            CodecSpec::Sz { eb: 1e-6 },
            CodecSpec::Sz { eb: 1e-8 },
            CodecSpec::Sz { eb: 1e-10 },
        ]
    }
}

impl fmt::Display for CodecSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecSpec::Null => write!(f, "null"),
            CodecSpec::ZeroRle => write!(f, "zero-rle"),
            CodecSpec::Fpc => write!(f, "fpc"),
            CodecSpec::ShuffleLzss => write!(f, "shuffle-lzss"),
            CodecSpec::Sz { eb } => write!(f, "sz:{eb:e}"),
            CodecSpec::Auto { eb: None } => write!(f, "auto"),
            CodecSpec::Auto { eb: Some(eb) } => write!(f, "auto:{eb:e}"),
        }
    }
}

impl std::str::FromStr for CodecSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<CodecSpec, String> {
        CodecSpec::parse(s)
    }
}

// --- stats --------------------------------------------------------------------

/// Aggregate compression accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CompressionStats {
    /// Uncompressed bytes processed.
    pub raw_bytes: usize,
    /// Compressed bytes produced.
    pub compressed_bytes: usize,
    /// Number of compress calls.
    pub blocks: usize,
}

impl CompressionStats {
    /// Records one compressed block.
    pub fn record(&mut self, raw: usize, compressed: usize) {
        self.raw_bytes += raw;
        self.compressed_bytes += compressed;
        self.blocks += 1;
    }

    /// Overall ratio `raw / compressed` (1.0 when nothing was recorded).
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            return 1.0;
        }
        self.raw_bytes as f64 / self.compressed_bytes as f64
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &CompressionStats) {
        self.raw_bytes += other.raw_bytes;
        self.compressed_bytes += other.compressed_bytes;
        self.blocks += other.blocks;
    }
}

// --- complex helpers ------------------------------------------------------------

thread_local! {
    /// The plane buffer of [`compress_complex`] / [`decompress_complex`]:
    /// two f64 per amplitude, kept per thread so a chunk-sized call neither
    /// allocates nor zeroes it again.
    static PLANES: std::cell::Cell<Vec<f64>> = const { std::cell::Cell::new(Vec::new()) };
}

/// Runs `f` on this thread's plane buffer resized to `len` values (contents
/// unspecified). The buffer is out of its slot meanwhile, so a codec that
/// re-enters these helpers gets a fresh one.
fn with_planes<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    let mut planes = PLANES.take();
    planes.resize(len, 0.0);
    let result = f(&mut planes);
    PLANES.set(planes);
    result
}

/// Compresses interleaved complex amplitudes by first splitting them into a
/// real plane followed by an imaginary plane (predictors behave much better
/// within a plane than across the re/im interleave).
pub fn compress_complex(codec: &dyn Codec, amps: &[Complex64]) -> Vec<u8> {
    with_planes(amps.len() * 2, |planes| {
        let (re, im) = planes.split_at_mut(amps.len());
        for ((a, re), im) in amps.iter().zip(re).zip(im) {
            *re = a.re;
            *im = a.im;
        }
        codec.compress(planes)
    })
}

/// Inverse of [`compress_complex`].
pub fn decompress_complex(
    codec: &dyn Codec,
    bytes: &[u8],
    out: &mut [Complex64],
) -> Result<(), CodecError> {
    with_planes(out.len() * 2, |planes| {
        codec.decompress(bytes, planes)?;
        let (re, im) = planes.split_at(out.len());
        for ((a, &re), &im) in out.iter_mut().zip(re).zip(im) {
            *a = Complex64 { re, im };
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_num::complex::{as_f64_slice, c64};

    fn sample_data() -> Vec<f64> {
        (0..4096)
            .map(|i| (i as f64 * 0.01).sin() * 0.1 + if i % 97 == 0 { 1.0 } else { 0.0 })
            .collect()
    }

    fn all_specs() -> Vec<CodecSpec> {
        CodecSpec::sweep_set()
    }

    #[test]
    fn every_codec_round_trips_within_bound() {
        let data = sample_data();
        for spec in all_specs() {
            let codec = spec.build();
            let bytes = codec.compress(&data);
            let mut out = vec![0.0f64; data.len()];
            codec.decompress(&bytes, &mut out).unwrap();
            let bound = codec.error_bound().unwrap_or(0.0);
            for (a, b) in data.iter().zip(&out) {
                assert!((a - b).abs() <= bound, "{spec}: |{a}-{b}| > {bound}");
            }
            if codec.is_lossless() {
                for (a, b) in data.iter().zip(&out) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{spec} not bit-exact");
                }
            }
        }
    }

    #[test]
    fn every_codec_rejects_length_mismatch() {
        let data = sample_data();
        for spec in all_specs() {
            let codec = spec.build();
            let bytes = codec.compress(&data);
            let mut out = vec![0.0f64; data.len() + 1];
            assert!(
                matches!(
                    codec.decompress(&bytes, &mut out),
                    Err(CodecError::LengthMismatch { .. })
                ),
                "{spec}"
            );
        }
    }

    #[test]
    fn every_codec_detects_truncation() {
        let data = sample_data();
        for spec in all_specs() {
            let codec = spec.build();
            let mut bytes = codec.compress(&data);
            bytes.truncate(bytes.len() / 3);
            let mut out = vec![0.0f64; data.len()];
            assert!(codec.decompress(&bytes, &mut out).is_err(), "{spec}");
        }
    }

    #[test]
    fn spec_parsing_round_trips() {
        for spec in all_specs() {
            let s = spec.to_string();
            let back = CodecSpec::parse(&s).unwrap();
            match (spec, back) {
                (CodecSpec::Sz { eb: a }, CodecSpec::Sz { eb: b }) => assert_eq!(a, b),
                (x, y) => assert_eq!(x, y),
            }
        }
        assert!(CodecSpec::parse("bogus").is_err());
        assert!(CodecSpec::parse("sz:abc").is_err());
        assert!(CodecSpec::parse("sz:-1").is_err());
        assert!(CodecSpec::parse("sz:0").is_err());
    }

    #[test]
    fn sz_beats_lossless_on_smooth_data() {
        let data: Vec<f64> = (0..32768).map(|i| (i as f64 * 1e-3).sin() * 0.01).collect();
        let sz = SzCodec::new(1e-8).compress(&data).len();
        let fpc = FpcCodec.compress(&data).len();
        let raw = data.len() * 8;
        assert!(sz < fpc, "sz {sz} vs fpc {fpc}");
        assert!(sz * 4 < raw, "sz ratio too low: {}", raw as f64 / sz as f64);
    }

    #[test]
    fn stats_accumulate_and_merge() {
        let mut a = CompressionStats::default();
        a.record(1000, 100);
        a.record(1000, 300);
        assert_eq!(a.blocks, 2);
        assert!((a.ratio() - 5.0).abs() < 1e-12);
        let mut b = CompressionStats::default();
        b.record(500, 500);
        a.merge(&b);
        assert_eq!(a.blocks, 3);
        assert_eq!(a.raw_bytes, 2500);
        assert_eq!(CompressionStats::default().ratio(), 1.0);
    }

    #[test]
    fn complex_round_trip_planes() {
        let amps: Vec<Complex64> = (0..2048)
            .map(|i| c64((i as f64 * 0.01).cos() * 0.1, (i as f64 * 0.01).sin() * 0.1))
            .collect();
        for spec in all_specs() {
            let codec = spec.build();
            let bytes = compress_complex(codec.as_ref(), &amps);
            let mut out = vec![Complex64::ZERO; amps.len()];
            decompress_complex(codec.as_ref(), &bytes, &mut out).unwrap();
            let bound = codec.error_bound().unwrap_or(0.0);
            for (a, b) in amps.iter().zip(&out) {
                assert!((a.re - b.re).abs() <= bound, "{spec}");
                assert!((a.im - b.im).abs() <= bound, "{spec}");
            }
        }
    }

    #[test]
    fn plane_split_helps_sz_on_complex_data() {
        // Interleaved re/im breaks the Lorenzo predictor; planes restore it.
        let amps: Vec<Complex64> = (0..8192)
            .map(|i| {
                let t = i as f64 * 1e-3;
                c64(t.cos() * 0.01, (t * 0.5).sin() * 0.02)
            })
            .collect();
        let codec = SzCodec::new(1e-9);
        let planes = compress_complex(&codec, &amps).len();
        let interleaved = codec.compress(as_f64_slice(&amps)).len();
        assert!(
            planes < interleaved,
            "planes {planes} vs interleaved {interleaved}"
        );
    }

    #[test]
    fn codecs_are_object_safe_and_shareable() {
        fn takes_dyn(c: &dyn Codec) -> usize {
            c.compress(&[1.0, 2.0]).len()
        }
        let boxed: Vec<Box<dyn Codec>> = all_specs().iter().map(|s| s.build()).collect();
        for c in &boxed {
            assert!(takes_dyn(c.as_ref()) > 0);
        }
        // Send + Sync: share across scoped threads.
        let codec = SzCodec::new(1e-6);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let bytes = codec.compress(&[0.5; 64]);
                    let mut out = [0.0f64; 64];
                    codec.decompress(&bytes, &mut out).unwrap();
                });
            }
        });
    }
}

// --- auto codec (probe-guided, self-describing) ---------------------------------

const TAG_ZERO_RLE: u8 = 1;
const TAG_FPC: u8 = 2;
const TAG_SZ: u8 = 3;
const TAG_SHUFFLE_LZSS: u8 = 4;
const TAG_NULL: u8 = 5;
/// Low bits of the header byte carry the backend tag...
const TAG_MASK: u8 = 0x07;
/// ...and this bit marks a chunk demoted to packed f32 pairs.
const FLAG_F32: u8 = 0x08;

/// Packs adjacent f64 pairs as two f32s in one f64's bit pattern, halving
/// the element count. `data.len()` must be even.
fn pack_f32_pairs(data: &[f64]) -> Vec<f64> {
    debug_assert!(data.len().is_multiple_of(2));
    data.chunks_exact(2)
        .map(|pair| {
            let lo = (pair[0] as f32).to_bits() as u64;
            let hi = (pair[1] as f32).to_bits() as u64;
            f64::from_bits(lo | (hi << 32))
        })
        .collect()
}

/// Inverse of [`pack_f32_pairs`]: `out.len() == packed.len() * 2`.
fn unpack_f32_pairs(packed: &[f64], out: &mut [f64]) {
    debug_assert_eq!(out.len(), packed.len() * 2);
    for (i, word) in packed.iter().enumerate() {
        let bits = word.to_bits();
        out[2 * i] = f32::from_bits(bits as u32) as f64;
        out[2 * i + 1] = f32::from_bits((bits >> 32) as u32) as f64;
    }
}

/// The adaptive per-chunk codec behind [`CodecSpec::Auto`].
///
/// Per `compress` call, a cheap [`probe`] pass classifies the chunk (zero
/// sparsity, magnitude spread, sign/exponent diversity) and prunes the
/// candidate set down to the backends that can win on that shape: zero-RLE
/// for sparse chunks, FPC / shuffle-LZSS for the lossless dense cases, SZ
/// when an error allowance is available, and — under
/// [`Precision::Adaptive`] — the same candidates over an f32 pair-packed
/// demotion of the chunk whenever `max_abs * 2^-23` fits the allowance.
/// The surviving candidates are encoded and the smallest payload wins; a
/// one-byte header (backend tag + f32 flag) makes every payload
/// self-describing, so decode needs no out-of-band state and payloads
/// travel unchanged through payload passthrough and device codec kernels.
///
/// The error allowance has a static part (the spec's `eb`) and a dynamic
/// part installed via [`Codec::set_dynamic_bound`] — the engine points the
/// dynamic bound at each stage's slice of a run-level fidelity budget. The
/// dynamic bound, when set, overrides the static one.
#[derive(Debug)]
pub struct AutoCodec {
    eb: Option<f64>,
    precision: Precision,
    /// Bits of the dynamic bound; `u64::MAX` (a NaN pattern no valid bound
    /// produces) means "not set".
    dynamic_eb: std::sync::atomic::AtomicU64,
}

const DYNAMIC_UNSET: u64 = u64::MAX;

impl AutoCodec {
    /// Creates an adaptive codec with an optional static error allowance.
    ///
    /// # Panics
    /// Panics if `eb` is `Some` but not finite and positive.
    pub fn new(eb: Option<f64>, precision: Precision) -> AutoCodec {
        if let Some(eb) = eb {
            assert!(eb.is_finite() && eb > 0.0, "error bound must be positive");
        }
        AutoCodec {
            eb,
            precision,
            dynamic_eb: std::sync::atomic::AtomicU64::new(DYNAMIC_UNSET),
        }
    }

    /// Lossless-only adaptive codec (until a dynamic bound is installed).
    pub fn lossless() -> AutoCodec {
        AutoCodec::new(None, Precision::F64)
    }

    /// The allowance currently in effect: the dynamic bound if set, the
    /// static `eb` otherwise.
    pub fn allowance(&self) -> Option<f64> {
        let bits = self.dynamic_eb.load(std::sync::atomic::Ordering::Relaxed);
        if bits == DYNAMIC_UNSET {
            self.eb
        } else {
            Some(f64::from_bits(bits))
        }
    }

    fn encode_backend(tag: u8, f32_packed: bool, data: &[f64], eb: Option<f64>) -> Vec<u8> {
        let mut out = vec![tag | if f32_packed { FLAG_F32 } else { 0 }];
        match tag {
            TAG_ZERO_RLE => rle::encode(data, &mut out),
            TAG_FPC => fpc::encode(data, &mut out),
            TAG_SHUFFLE_LZSS => {
                let mut planes = Vec::new();
                shuffle::shuffle(data, &mut planes);
                varint::write_u64(&mut out, data.len() as u64);
                lzss::encode(&planes, &mut out);
            }
            TAG_SZ => szlike::encode(data, eb.expect("sz candidate requires a bound"), &mut out),
            _ => unreachable!("unknown encode tag {tag}"),
        }
        out
    }

    fn decode_backend(tag: u8, body: &[u8], out: &mut [f64]) -> Result<(), CodecError> {
        match tag {
            TAG_ZERO_RLE => ZeroRleCodec.decompress(body, out),
            TAG_FPC => FpcCodec.decompress(body, out),
            TAG_SHUFFLE_LZSS => ShuffleLzssCodec.decompress(body, out),
            TAG_SZ => SzCodec::new(1.0).decompress(body, out),
            TAG_NULL => NullCodec.decompress(body, out),
            t => Err(CodecError::Corrupt(format!("unknown auto tag {t}"))),
        }
    }
}

impl Codec for AutoCodec {
    fn name(&self) -> &'static str {
        "auto"
    }

    /// Conservative: `true` only when no lossy pick is currently possible
    /// (no allowance in effect and full-f64 precision).
    fn is_lossless(&self) -> bool {
        self.allowance().is_none() && self.precision == Precision::F64
    }

    fn error_bound(&self) -> Option<f64> {
        self.allowance()
    }

    fn compress(&self, data: &[f64]) -> Vec<u8> {
        let eb = self.allowance();
        let p = probe::probe(data);
        let packed = (self.precision == Precision::Adaptive && !data.is_empty() && p.f32_fits(eb))
            .then(|| pack_f32_pairs(data));

        let mut best: Option<Vec<u8>> = None;
        let mut consider = |candidate: Vec<u8>| {
            if best.as_ref().is_none_or(|b| candidate.len() < b.len()) {
                best = Some(candidate);
            }
        };

        if p.is_sparse() || data.is_empty() {
            // Zero-dominated chunks: zero-RLE wins by orders of magnitude;
            // the only question is whether the literals shrink further as
            // f32 pairs (exact zeros pack to exact zero words).
            consider(Self::encode_backend(TAG_ZERO_RLE, false, data, None));
            if let Some(pk) = &packed {
                consider(Self::encode_backend(TAG_ZERO_RLE, true, pk, None));
            }
        } else {
            consider(Self::encode_backend(TAG_FPC, false, data, None));
            if p.is_plane_repetitive() {
                consider(Self::encode_backend(TAG_SHUFFLE_LZSS, false, data, None));
            }
            if let Some(pk) = &packed {
                consider(Self::encode_backend(TAG_FPC, true, pk, None));
                if p.is_plane_repetitive() {
                    consider(Self::encode_backend(TAG_SHUFFLE_LZSS, true, pk, None));
                }
            }
            if eb.is_some() {
                consider(Self::encode_backend(TAG_SZ, false, data, eb));
            }
        }
        best.expect("at least one candidate was encoded")
    }

    fn decompress(&self, bytes: &[u8], out: &mut [f64]) -> Result<(), CodecError> {
        let (&header, body) = bytes
            .split_first()
            .ok_or_else(|| CodecError::Corrupt("empty auto payload".into()))?;
        let tag = header & TAG_MASK;
        if header & FLAG_F32 != 0 {
            if !out.len().is_multiple_of(2) {
                return Err(CodecError::Corrupt(format!(
                    "f32-packed payload cannot fill an odd-length buffer ({})",
                    out.len()
                )));
            }
            let mut half = vec![0.0f64; out.len() / 2];
            Self::decode_backend(tag, body, &mut half).map_err(|e| match e {
                // The inner stream counts packed words; report amplitudes.
                CodecError::LengthMismatch { expected, got } => CodecError::LengthMismatch {
                    expected: expected * 2,
                    got: got * 2,
                },
                other => other,
            })?;
            unpack_f32_pairs(&half, out);
            Ok(())
        } else {
            Self::decode_backend(tag, body, out)
        }
    }

    fn payload_meta(&self, payload: &[u8]) -> Option<PayloadMeta> {
        let header = *payload.first()?;
        let f32_packed = header & FLAG_F32 != 0;
        let codec = match header & TAG_MASK {
            TAG_ZERO_RLE => "zero-rle",
            TAG_FPC => "fpc",
            TAG_SZ => "sz",
            TAG_SHUFFLE_LZSS => "shuffle-lzss",
            TAG_NULL => "null",
            _ => return None,
        };
        Some(PayloadMeta {
            codec,
            f32_packed,
            lossless: (header & TAG_MASK) != TAG_SZ && !f32_packed,
        })
    }

    /// Installs (or clears, with `None`) the dynamic error allowance. A
    /// non-finite or non-positive bound is treated as `None`.
    fn set_dynamic_bound(&self, eb: Option<f64>) -> bool {
        let bits = match eb {
            Some(e) if e.is_finite() && e > 0.0 => e.to_bits(),
            _ => DYNAMIC_UNSET,
        };
        self.dynamic_eb
            .store(bits, std::sync::atomic::Ordering::Relaxed);
        true
    }
}

#[cfg(test)]
mod auto_tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trips_f32_values() {
        let data: Vec<f64> = (0..64).map(|i| (i as f32 as f64) * 0.25 - 4.0).collect();
        let packed = pack_f32_pairs(&data);
        assert_eq!(packed.len(), 32);
        let mut out = vec![0.0f64; 64];
        unpack_f32_pairs(&packed, &mut out);
        assert_eq!(data, out, "f32-representable values survive exactly");
    }

    #[test]
    fn picks_zero_rle_on_sparse_chunks() {
        let mut data = vec![0.0f64; 2048];
        data[17] = 0.5;
        let auto = AutoCodec::lossless();
        let bytes = auto.compress(&data);
        let meta = auto.payload_meta(&bytes).unwrap();
        assert_eq!(meta.codec, "zero-rle");
        assert!(meta.lossless);
        let mut out = vec![1.0f64; 2048];
        auto.decompress(&bytes, &mut out).unwrap();
        for (a, b) in data.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn all_zero_chunk_round_trips() {
        let data = vec![0.0f64; 512];
        let auto = AutoCodec::new(Some(1e-8), Precision::Adaptive);
        let bytes = auto.compress(&data);
        assert!(bytes.len() < 32, "all-zero chunk must stay tiny");
        let mut out = vec![1.0f64; 512];
        auto.decompress(&bytes, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn picks_sz_on_smooth_data_within_allowance() {
        let data: Vec<f64> = (0..8192).map(|i| (i as f64 * 1e-3).sin() * 0.01).collect();
        let auto = AutoCodec::new(Some(1e-8), Precision::F64);
        let bytes = auto.compress(&data);
        let meta = auto.payload_meta(&bytes).unwrap();
        assert_eq!(meta.codec, "sz");
        assert!(!meta.lossless);
        let mut out = vec![0.0f64; data.len()];
        auto.decompress(&bytes, &mut out).unwrap();
        for (a, b) in data.iter().zip(&out) {
            assert!((a - b).abs() <= 1e-8);
        }
    }

    #[test]
    fn lossless_mode_never_picks_a_lossy_backend() {
        let data: Vec<f64> = (0..4096).map(|i| (i as f64 * 1e-3).sin()).collect();
        let auto = AutoCodec::lossless();
        assert!(auto.is_lossless());
        let bytes = auto.compress(&data);
        let meta = auto.payload_meta(&bytes).unwrap();
        assert!(meta.lossless, "picked {}", meta.codec);
        let mut out = vec![0.0f64; data.len()];
        auto.decompress(&bytes, &mut out).unwrap();
        for (a, b) in data.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn adaptive_precision_demotes_within_allowance() {
        // Magnitudes around 0.7; f32 rounding error ~ 0.7 * 2^-23 ≈ 8e-8
        // fits a 1e-6 allowance, so the f32 variants compete and win on
        // this incompressible-mantissa data.
        let data: Vec<f64> = (0..4096)
            .map(|i| 0.5 + ((i * 2654435761usize) % 1000) as f64 * 2e-4)
            .collect();
        let auto = AutoCodec::new(Some(1e-6), Precision::Adaptive);
        let bytes = auto.compress(&data);
        let meta = auto.payload_meta(&bytes).unwrap();
        assert!(meta.f32_packed, "picked {meta:?}");
        assert!(!meta.lossless);
        assert!(
            bytes.len() < data.len() * 8 * 6 / 10,
            "f32 demotion should cut well below raw: {} of {}",
            bytes.len(),
            data.len() * 8
        );
        let mut out = vec![0.0f64; data.len()];
        auto.decompress(&bytes, &mut out).unwrap();
        for (a, b) in data.iter().zip(&out) {
            assert!((a - b).abs() <= 1e-6);
        }
    }

    #[test]
    fn adaptive_precision_refuses_when_allowance_too_tight() {
        let data: Vec<f64> = (0..1024)
            .map(|i| 0.5 + ((i * 37) % 100) as f64 * 1e-3)
            .collect();
        // 0.6 * 2^-23 ≈ 7e-8 > 1e-12: demotion would exceed the allowance.
        let auto = AutoCodec::new(Some(1e-12), Precision::Adaptive);
        let meta = auto.payload_meta(&auto.compress(&data)).unwrap();
        assert!(!meta.f32_packed);
    }

    #[test]
    fn dynamic_bound_overrides_and_clears() {
        let data: Vec<f64> = (0..8192).map(|i| (i as f64 * 1e-3).sin() * 0.01).collect();
        let auto = AutoCodec::lossless();
        assert!(auto.payload_meta(&auto.compress(&data)).unwrap().lossless);
        assert!(auto.set_dynamic_bound(Some(1e-6)));
        assert_eq!(auto.error_bound(), Some(1e-6));
        assert!(!auto.is_lossless());
        let lossy = auto.compress(&data);
        assert_eq!(auto.payload_meta(&lossy).unwrap().codec, "sz");
        let mut out = vec![0.0f64; data.len()];
        auto.decompress(&lossy, &mut out).unwrap();
        for (a, b) in data.iter().zip(&out) {
            assert!((a - b).abs() <= 1e-6);
        }
        assert!(auto.set_dynamic_bound(None));
        assert!(auto.is_lossless());
        assert!(auto.payload_meta(&auto.compress(&data)).unwrap().lossless);
    }

    #[test]
    fn static_codecs_have_no_dynamic_bound_or_meta() {
        let data = [1.0f64, 2.0, 3.0, 4.0];
        for spec in CodecSpec::sweep_set() {
            let codec = spec.build();
            assert!(!codec.set_dynamic_bound(Some(1e-6)), "{spec}");
            let payload = codec.compress(&data);
            assert_eq!(codec.payload_meta(&payload), None, "{spec}");
        }
    }

    #[test]
    fn auto_specs_parse_display_and_build() {
        for (text, spec) in [
            ("auto", CodecSpec::Auto { eb: None }),
            ("auto:1e-9", CodecSpec::Auto { eb: Some(1e-9) }),
        ] {
            assert_eq!(CodecSpec::parse(text).unwrap(), spec);
            assert_eq!(text.parse::<CodecSpec>().unwrap(), spec);
            assert_eq!(CodecSpec::parse(&spec.to_string()).unwrap(), spec);
            assert_eq!(spec.build().name(), "auto");
        }
        assert!(CodecSpec::parse("auto:0").is_err());
        assert!(CodecSpec::parse("auto:nan").is_err());
        assert!("auto:-2".parse::<CodecSpec>().is_err());
        let adaptive = CodecSpec::Auto { eb: Some(1e-6) }.build_with_precision(Precision::Adaptive);
        assert_eq!(adaptive.name(), "auto");
        assert_eq!(adaptive.error_bound(), Some(1e-6));
    }

    #[test]
    fn rejects_malformed_payloads() {
        let auto = AutoCodec::lossless();
        let mut out = vec![0.0f64; 4];
        assert!(auto.decompress(&[], &mut out).is_err());
        assert!(auto.decompress(&[0x07, 0, 0], &mut out).is_err());
        // Length mismatch surfaces typed, with amplitude counts doubled
        // back out of the f32-packed stream. A sparse chunk with paired
        // literals makes the f32-packed zero-RLE candidate the clear win.
        let mut data = vec![0.0f64; 640];
        for pair in data.chunks_exact_mut(2).take(10) {
            pair[0] = 0.5;
            pair[1] = -0.25;
        }
        let adaptive = AutoCodec::new(Some(1e-6), Precision::Adaptive);
        let packed_payload = adaptive.compress(&data);
        assert!(adaptive.payload_meta(&packed_payload).unwrap().f32_packed);
        let mut wrong = vec![0.0f64; 1280];
        assert_eq!(
            adaptive.decompress(&packed_payload, &mut wrong),
            Err(CodecError::LengthMismatch {
                expected: 640,
                got: 1280
            })
        );
        let mut odd = vec![0.0f64; 639];
        assert!(matches!(
            adaptive.decompress(&packed_payload, &mut odd),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn auto_beats_or_matches_every_static_codec_per_shape() {
        // The probe must land within a header byte of the best static
        // candidate on each of the three canonical shapes.
        let sparse = {
            let mut v = vec![0.0f64; 4096];
            v[7] = std::f64::consts::FRAC_1_SQRT_2;
            v
        };
        let smooth: Vec<f64> = (0..4096).map(|i| (i as f64 * 1e-3).sin() * 0.01).collect();
        let repetitive: Vec<f64> = (0..4096).map(|i| 0.25 + (i % 8) as f64 * 1e-13).collect();
        let auto = AutoCodec::new(Some(1e-9), Precision::F64);
        for data in [&sparse, &smooth, &repetitive] {
            let auto_len = auto.compress(data).len();
            let best = [
                ZeroRleCodec.compress(data).len(),
                FpcCodec.compress(data).len(),
                ShuffleLzssCodec.compress(data).len(),
                SzCodec::new(1e-9).compress(data).len(),
            ]
            .into_iter()
            .min()
            .unwrap();
            assert!(auto_len <= best + 1, "auto {auto_len} vs best {best}");
        }
    }
}
