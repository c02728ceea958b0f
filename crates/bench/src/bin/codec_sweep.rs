//! **Experiment A3 — compressor comparison.**
//!
//! The paper claims MEMQSIM is "adaptable to accommodate various
//! compression algorithms". This harness sweeps every codec in the registry
//! over mid-circuit state-vector snapshots (the actual data the store
//! compresses) and reports ratio, throughput and worst-case error.
//!
//! A second table times the SZ codec alone from 2^7 to 2^17 values per call:
//! the store calls it once per chunk, and a small chunk must not pay for
//! tables sized for a large one.
//!
//! For the SZ rows both tables also say what the codec decided: how many of
//! the stream's 128-value blocks it stored as a constant, copied verbatim,
//! or quantised ([`szlike::block_mix`]).
//!
//! Usage: `cargo run -p mq-bench --release --bin codec_sweep [--qubits 16]`

use mq_bench::workloads::codec_workloads;
use mq_bench::{Args, Table};
use mq_compress::{szlike, Codec, CodecSpec, SzCodec};
use mq_num::stats::format_throughput;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Median over five batches of the time one call of `f` takes per value,
/// in ns; a batch makes enough calls to cover 2^22 values.
fn ns_per_value(values: usize, mut f: impl FnMut()) -> f64 {
    let calls = (1usize << 22) / values;
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e9 / (calls * values) as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[2]
}

/// The `const / verbatim / quantised` cell of an SZ payload: blocks per class,
/// a repeat counted with the constants it repeats.
fn block_mix_cell(payload: &[u8]) -> String {
    let mix = szlike::block_mix(payload).expect("a stream the encoder just wrote");
    format!(
        "{} / {} / {}",
        mix.constant + mix.repeat,
        mix.verbatim,
        mix.quantised
    )
}

/// SZ encode/decode cost per value against the input length, on the three
/// shapes a chunk takes: untouched (zeros), one amplitude value per plane
/// (constant), and incompressible (random, every block copied verbatim).
fn sz_cost_by_input_length() {
    let codec = SzCodec::new(1e-10);
    let mut t = Table::new(&[
        "values",
        "shape",
        "bytes",
        "const / verbatim / quantised",
        "encode ns/value",
        "decode ns/value",
    ]);
    for values in [1usize << 7, 1 << 12, 1 << 17] {
        let mut rng = StdRng::seed_from_u64(7);
        let random = (0..values).map(|_| rng.gen_range(-1e-3..1e-3)).collect();
        let constant = (0..values)
            .map(|i| if i < values / 2 { 4.8828125e-4 } else { 0.0 })
            .collect();
        let shapes: [(&str, Vec<f64>); 3] = [
            ("zeros", vec![0.0; values]),
            ("constant", constant),
            ("random", random),
        ];
        for (shape, data) in shapes {
            let bytes = codec.compress(&data);
            let mut out = vec![0.0f64; values];
            let encode = ns_per_value(values, || {
                black_box(codec.compress(black_box(&data)));
            });
            let decode = ns_per_value(values, || {
                codec
                    .decompress(black_box(&bytes), &mut out)
                    .expect("round trip failed");
                black_box(&out);
            });
            t.row(&[
                values.to_string(),
                shape.to_string(),
                bytes.len().to_string(),
                block_mix_cell(&bytes),
                format!("{encode:.1}"),
                format!("{decode:.1}"),
            ]);
        }
    }
    println!("## sz:1e-10 cost per value against input length\n");
    println!("{t}\n");
}

fn main() {
    let args = Args::capture();
    let n: u32 = args.get("qubits", 16u32);

    println!("# A3 — codec sweep over mid-circuit state vectors ({n} qubits)\n");

    for w in codec_workloads(n) {
        let raw_bytes = w.data.len() * 8;
        println!("## workload: {} ({} doubles)\n", w.name, w.data.len());
        let mut t = Table::new(&[
            "codec",
            "ratio",
            "compress",
            "decompress",
            "max |err|",
            "bound",
            "const / verbatim / quantised",
        ]);
        for spec in CodecSpec::sweep_set() {
            let codec = spec.build();
            let t0 = Instant::now();
            let bytes = codec.compress(&w.data);
            let t_c = t0.elapsed().as_secs_f64();
            let mut out = vec![0.0f64; w.data.len()];
            let t0 = Instant::now();
            codec
                .decompress(&bytes, &mut out)
                .expect("round trip failed");
            let t_d = t0.elapsed().as_secs_f64();
            let max_err = mq_num::metrics::max_abs_err(&w.data, &out);
            let bound = codec.error_bound();
            if let Some(b) = bound {
                assert!(max_err <= b, "{spec}: bound violated ({max_err} > {b})");
            } else {
                assert_eq!(max_err, 0.0, "{spec}: lossless codec lost data");
            }
            t.row(&[
                spec.to_string(),
                format!("{:.2}x", raw_bytes as f64 / bytes.len() as f64),
                format_throughput(raw_bytes, t_c),
                format_throughput(raw_bytes, t_d),
                format!("{max_err:.1e}"),
                bound
                    .map(|b| format!("{b:.0e}"))
                    .unwrap_or_else(|| "exact".into()),
                match spec {
                    CodecSpec::Sz { .. } => block_mix_cell(&bytes),
                    _ => "-".into(),
                },
            ]);
        }
        println!("{t}\n");
    }
    sz_cost_by_input_length();
    println!("Reading: sparse/structured states compress by orders of magnitude (GHZ, W);");
    println!("smooth superpositions favor the SZ-style predictor; Porter–Thomas random");
    println!("states barely compress — the compressibility spectrum behind the paper's");
    println!("\"on average\" qubit-extension phrasing.");
}
