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
//! Usage: `cargo run -p mq-bench --release --bin granularity
//!         [--qubits 16] [--check]`
//!
//! `--check` exits non-zero when per-stage scheduling cuts chunk visits by
//! less than `MIN_VISIT_CUT` (1.5x) against per-gate — the CI smoke gate. Visit
//! counts are deterministic, so the gate does not depend on the host.

use memqsim_core::{build_store, ChunkStore, Granularity, MemQSimConfig};
use mq_bench::{Args, Table};
use mq_circuit::library;
use mq_compress::CodecSpec;
use mq_num::stats::format_bytes;

/// The smallest per-gate / per-stage chunk-visit ratio `--check` accepts.
const MIN_VISIT_CUT: f64 = 1.5;

fn run_once(
    n: u32,
    chunk_bits: u32,
    granularity: Granularity,
) -> (memqsim_core::engine::RunReport, f64) {
    let cfg = MemQSimConfig {
        chunk_bits,
        max_high_qubits: 2,
        codec: CodecSpec::Sz { eb: 1e-10 },
        workers: 1,
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
    let check = args.has("check");

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
    let cut_ok = reduction >= MIN_VISIT_CUT;
    println!(
        "\nStage fusion reduces decompress/recompress rounds by {reduction:.1}x. [{}]",
        if cut_ok { "OK" } else { "FAIL" }
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

    println!("\nCoarser chunks: fewer visits & bigger transient working set;");
    println!("finer chunks: more per-chunk overhead and lower ratio — the paper's");
    println!("granularity trade-off, quantified.");

    if check && !cut_ok {
        std::process::exit(1);
    }
}
