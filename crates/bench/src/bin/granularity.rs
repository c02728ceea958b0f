//! **Experiment A1 — design challenge (2): compression frequency &
//! granularity.**
//!
//! "Excessive compression/decompression could result in substantial
//! overhead ... a coarser granularity could precipitate a significant
//! memory footprint issue, while excessively fine granularity could lead to
//! a lower compression ratio."
//!
//! Two sweeps on the compressed CPU engine:
//! 1. **frequency** — MEMQSIM's per-stage scheduling vs the per-gate
//!    baseline (Wu et al.\[6\]): chunk visits and wall time;
//! 2. **granularity** — chunk size sweep: compression ratio vs working-set
//!    footprint.
//!
//! Usage: `cargo run -p mq-bench --release --bin granularity [--qubits 16]`

use memqsim_core::{build_store, ChunkStore, Counter, Granularity, MemQSimConfig};
use mq_bench::{write_results_json, Args, Table};
use mq_circuit::library;
use mq_compress::CodecSpec;
use mq_num::stats::format_bytes;

fn run_once(
    n: u32,
    chunk_bits: u32,
    granularity: Granularity,
) -> (memqsim_core::engine::RunReport, f64) {
    run_once_with(n, chunk_bits, granularity, 0)
}

/// Half the working set (dense state + one group staging buffer) — the
/// residency-cache budget used by the cache sweep.
fn half_working_set(n: u32, chunk_bits: u32) -> usize {
    ((1usize << n) * 16 + (1usize << (chunk_bits + 2)) * 16) / 2
}

fn run_once_with(
    n: u32,
    chunk_bits: u32,
    granularity: Granularity,
    cache_bytes: usize,
) -> (memqsim_core::engine::RunReport, f64) {
    let cfg = MemQSimConfig {
        chunk_bits,
        max_high_qubits: 2,
        codec: CodecSpec::Sz { eb: 1e-10 },
        workers: 1,
        cache_bytes,
        ..Default::default()
    };
    let circuit = library::qft(n);
    let store = build_store(n, &cfg).expect("store construction failed");
    let report = memqsim_core::engine::cpu::run(&store, &circuit, &cfg, granularity)
        .expect("engine run failed");
    (report, store.current_ratio())
}

fn main() {
    let args = Args::capture();
    let n: u32 = args.get("qubits", 16u32);

    println!("# A1 — compression frequency & granularity (qft{n})\n");

    // Sweep 1: per-stage vs per-gate at a fixed chunk size.
    let chunk_bits = (n - 4).min(12);
    println!("## Scheduling frequency (chunks of 2^{chunk_bits} amps)\n");
    let mut t = Table::new(&[
        "scheduling",
        "stages",
        "chunk visits",
        "wall",
        "decompress",
        "compress",
    ]);
    let mut visits = Vec::new();
    for (label, g) in [
        ("per-stage (MEMQSIM)", Granularity::Staged),
        ("per-gate (Wu et al. [6])", Granularity::PerGate),
    ] {
        let (r, _) = run_once(n, chunk_bits, g);
        visits.push(r.chunk_visits);
        t.row(&[
            label.to_string(),
            r.stages.to_string(),
            r.chunk_visits.to_string(),
            format!("{:.1} ms", r.wall.as_secs_f64() * 1e3),
            format!("{:.1} ms", r.decompress.as_secs_f64() * 1e3),
            format!("{:.1} ms", r.compress.as_secs_f64() * 1e3),
        ]);
    }
    println!("{t}");
    let reduction = visits[1] as f64 / visits[0] as f64;
    println!(
        "\nStage fusion reduces decompress/recompress rounds by {reduction:.1}x. [{}]",
        if reduction > 1.5 { "OK" } else { "FAIL" }
    );

    // Sweep 2: chunk-size granularity.
    println!("\n## Chunk-size granularity (per-stage scheduling)\n");
    let mut t = Table::new(&[
        "chunk amps",
        "chunks",
        "ratio",
        "working set/group",
        "chunk visits",
        "wall",
    ]);
    for cb in [6u32, 8, 10, 12, n.min(14)] {
        let (r, ratio) = run_once(n, cb, Granularity::Staged);
        t.row(&[
            format!("2^{cb}"),
            format!("2^{}", n - cb),
            format!("{ratio:.1}x"),
            format_bytes((1usize << (cb + 2)) * 16),
            r.chunk_visits.to_string(),
            format!("{:.1} ms", r.wall.as_secs_f64() * 1e3),
        ]);
    }
    println!("{t}");

    // Sweep 3: the hot-chunk residency cache across the same chunk sizes —
    // codec traffic with the cache off vs sized for half the working set.
    println!("\n## Residency cache (per-stage scheduling, budget = half working set)\n");
    let mut t = Table::new(&[
        "chunk amps",
        "cache",
        "wall",
        "decompressed",
        "compressed",
        "hits",
        "misses",
        "skipped",
    ]);
    let mut json_rows = Vec::new();
    for cb in [6u32, 8, 10, 12] {
        for cached in [false, true] {
            let cache_bytes = if cached { half_working_set(n, cb) } else { 0 };
            let (r, _) = run_once_with(n, cb, Granularity::Staged, cache_bytes);
            t.row(&[
                format!("2^{cb}"),
                if cached {
                    format_bytes(cache_bytes)
                } else {
                    "off".to_string()
                },
                format!("{:.1} ms", r.wall.as_secs_f64() * 1e3),
                format_bytes(r.telemetry.counter(Counter::BytesDecompressed) as usize),
                format_bytes(r.telemetry.counter(Counter::BytesCompressed) as usize),
                r.telemetry.counter(Counter::CacheHits).to_string(),
                r.telemetry.counter(Counter::CacheMisses).to_string(),
                r.telemetry.counter(Counter::RecompressSkipped).to_string(),
            ]);
            json_rows.push(format!(
                "    {{\"chunk_bits\": {cb}, \"cache_bytes\": {cache_bytes}, \
                 \"seconds\": {:.6}, \"telemetry\": {}}}",
                r.wall.as_secs_f64(),
                r.telemetry.to_json(false)
            ));
        }
    }
    println!("{t}");
    let json = format!(
        "{{\n  \"experiment\": \"granularity\",\n  \"circuit\": \"qft{n}\",\n  \
         \"sweep\": [\n{}\n  ]\n}}",
        json_rows.join(",\n")
    );
    match write_results_json("BENCH_granularity", &json) {
        Ok(path) => println!("\nCache sweep written to {}.", path.display()),
        Err(e) => eprintln!("\ncould not write results JSON: {e}"),
    }

    println!("\nCoarser chunks: fewer visits & bigger transient working set;");
    println!("finer chunks: more per-chunk overhead and lower ratio — the paper's");
    println!("granularity trade-off, quantified.");
}
