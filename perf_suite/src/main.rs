//! `perf_suite`: the wall-clock benchmark for MEMQSim.
//!
//! One invocation measures one workload: it generates the inputs from
//! `--seed`, times set-up, runs the dense oracle, runs untraced timed reps
//! for `--seconds`, checks every result against the oracle, and prints a
//! table and (as the last line) one JSON object. With `--trace 1` it then
//! makes one traced run through the wrappers of [`wrappers`] and the
//! isolated probes of [`probes`], and the JSON carries the per-layer
//! metrics instead of the end-to-end ones. See `README.md` beside this
//! package.

mod json;
mod metrics;
mod probes;
mod trace;
mod workload;
mod wrappers;

use json::Json;
use memqsim_core::engine::cpu::CpuWorkerExecutor;
use memqsim_core::engine::hybrid::DevicePipelineExecutor;
use memqsim_core::engine::{
    self, run_with_executor, ChunkExecutor, Granularity, RunReport, SerialAdapter,
};
use memqsim_core::store::{build_store, ChunkStore, CompressedTier, TelemetryTier};
use metrics::{Def, Values, END_TO_END, PER_LAYER, RUN_SECONDS};
use mq_compress::Codec;
use mq_device::{Device, DeviceSpec};
use mq_num::Complex64;
use mq_statevec::{run_circuit, CpuConfig};
use probes::median;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use trace::{Recorder, Summary};
use workload::{verify, Engine, Instance, Workload, WORKLOADS};
use wrappers::{TracingCodec, TracingExecutor, TracingStore, CAPTURE_PER_STATE};

/// Set-ups timed per run, at least; `setup_s` is their median.
const SETUP_REPS: usize = 10;
/// The set-ups also span at least this long, so that a burst of host noise
/// shorter than a second cannot cover most of a 50 ms workload's samples.
const SETUP_MIN_S: f64 = 2.0;

struct Opts {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    /// Fixed number of timed reps, overriding `--seconds`.
    reps: Option<usize>,
    trace: bool,
    selfcheck: bool,
    smoke: bool,
}

const USAGE: &str = "usage: perf_suite --workload <name|all> [--seed N] [--seconds S | --reps N] \
[--trace 0|1] [--selfcheck] | --print-benchmark-json";

fn parse_args(args: &[String]) -> Result<Option<Opts>, String> {
    let mut opts = Opts {
        workloads: Vec::new(),
        seed: 11,
        seconds: RUN_SECONDS as f64,
        reps: None,
        trace: false,
        selfcheck: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let bad = |v: &str| format!("bad value '{v}' for {flag}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                if v == "all" {
                    opts.workloads = WORKLOADS.iter().collect();
                } else {
                    let w = workload::find(v).ok_or_else(|| {
                        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                        format!("unknown workload '{v}' (have: {})", names.join(", "))
                    })?;
                    opts.workloads.push(w);
                }
            }
            "--seed" => opts.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let v = value()?;
                opts.seconds = v.parse().map_err(|_| bad(v))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err(bad(v));
                }
            }
            "--reps" => {
                let v = value()?;
                opts.reps = Some(v.parse().ok().filter(|r| *r >= 1).ok_or_else(|| bad(v))?);
            }
            "--trace" => {
                opts.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--selfcheck" => opts.selfcheck = true,
            "--smoke" => opts.smoke = true,
            "--print-benchmark-json" => {
                print!("{}", metrics::benchmark_json());
                return Ok(None);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if opts.workloads.is_empty() {
        return Err("no --workload given".into());
    }
    Ok(Some(opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Some(opts)) => opts,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perf_suite: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for w in &opts.workloads {
        let first = measure(w, &opts);
        ok &= first.report(w, &opts);
        if opts.selfcheck {
            let second = measure(w, &opts);
            ok &= second.report(w, &opts);
            ok &= selfcheck(w, &first, &second);
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Everything one measurement of one workload produced.
#[derive(Default)]
struct Outcome {
    end_to_end: Values,
    per_layer: Values,
    /// Ungated numbers printed beside the end-to-end metrics.
    derived: Vec<(&'static str, f64, &'static str)>,
    /// Timed reps (and the traced run): attempted, and failed on an `Err`
    /// or a wrong answer.
    attempted: u64,
    failed: u64,
    /// Benchmark errors: a self-check of the harness that did not hold.
    errors: Vec<String>,
    notes: Vec<String>,
    trace_summary: Option<Summary>,
}

fn measure(w: &Workload, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = measure_into(w, opts, &mut out) {
        out.errors.push(e);
    }
    out
}

fn run_untraced(
    inst: &Instance,
    store: &Arc<dyn ChunkStore>,
) -> Result<(f64, RunReport), engine::EngineError> {
    match inst.engine {
        Engine::Cpu => {
            let start = Instant::now();
            let report = engine::cpu::run(store, &inst.circuit, &inst.cfg, Granularity::Staged)?;
            Ok((start.elapsed().as_secs_f64(), report))
        }
        Engine::Hybrid => {
            let device = Device::new(DeviceSpec::pcie_gen3());
            let start = Instant::now();
            let report = engine::hybrid::run(store, &inst.circuit, &inst.cfg, &device, true)?;
            Ok((start.elapsed().as_secs_f64(), report))
        }
    }
}

fn measure_into(w: &Workload, opts: &Opts, out: &mut Outcome) -> Result<(), String> {
    // Set-up: circuit generation + build_store, as a user pays it.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let inst = loop {
        let start = Instant::now();
        let inst = w.instance(opts.seed, opts.smoke);
        let store = build_store(inst.circuit.n_qubits(), &inst.cfg).map_err(|e| e.to_string())?;
        setup.push(start.elapsed().as_secs_f64());
        drop(store);
        if setup.len() >= SETUP_REPS && (opts.smoke || setup.iter().sum::<f64>() >= SETUP_MIN_S) {
            break inst;
        }
    };
    let n = inst.circuit.n_qubits();
    let dense_bytes = (1usize << n) * std::mem::size_of::<Complex64>();

    // The plain single-threaded dense run of the same problem: the oracle
    // for every check below, and the baseline of the slowdown figure.
    let start = Instant::now();
    let oracle = run_circuit(&inst.circuit, &CpuConfig::default());
    let dense_wall_s = start.elapsed().as_secs_f64();

    // Timed reps, tracing wrappers off. A traced invocation needs only a
    // baseline for the tracing overhead, so it takes a third of the time.
    let budget = if opts.trace {
        opts.seconds / 3.0
    } else {
        opts.seconds
    };
    let mut walls = Vec::new();
    let mut footprint = 0usize;
    let mut last = None;
    while opts
        .reps
        .map_or(walls.iter().sum::<f64>() < budget, |r| walls.len() < r)
    {
        let store = build_store(n, &inst.cfg).map_err(|e| e.to_string())?;
        out.attempted += 1;
        match run_untraced(&inst, &store) {
            Err(e) => {
                out.failed += 1;
                out.notes.push(format!("rep {} failed: {e}", out.attempted));
                break;
            }
            Ok((wall, report)) => {
                walls.push(wall);
                footprint = footprint.max(report.peak_resident_bytes + report.peak_working_bytes());
                let verdict =
                    verify(&*store, oracle.amplitudes(), inst.check).map_err(|e| e.to_string())?;
                if !verdict.ok {
                    out.failed += 1;
                    out.notes
                        .push(format!("rep {} wrong: {verdict:?}", out.attempted));
                }
                last = Some((verdict, report.device.modeled.as_secs_f64()));
            }
        }
    }
    let Some((v, device_modeled_s)) = last else {
        return Err("no timed rep completed".into());
    };
    let (samples, setups) = (walls.len(), setup.len());
    out.notes.push(format!("rep walls: {walls:.3?} s"));
    let wall_s = median(&mut walls);
    out.notes.push(format!(
        "last rep against the dense oracle: fidelity {}, norm {}, max_amp_err {:e}",
        v.fidelity, v.norm, v.max_amp_err
    ));
    out.notes.push(format!(
        "wall_s: median of {samples} reps; setup_s: median of {setups}; dense: 1 run; \
         cores available: {}",
        std::thread::available_parallelism().map_or(0, usize::from)
    ));
    out.end_to_end.set("wall_s", wall_s);
    out.end_to_end.set("setup_s", median(&mut setup));
    out.end_to_end.set("peak_footprint_bytes", footprint as f64);

    let gates = inst.circuit.len();
    out.derived = vec![
        ("derived.dense_wall_s", dense_wall_s, "s"),
        ("derived.slowdown_x", wall_s / dense_wall_s, "x"),
        (
            "derived.mem_saving_x",
            dense_bytes as f64 / footprint as f64,
            "x",
        ),
        (
            "derived.qubits_gained",
            (dense_bytes as f64 / footprint as f64).log2(),
            "qubits",
        ),
        (
            "derived.ns_per_amp_gate",
            wall_s * 1e9 / ((1usize << n) * gates) as f64,
            "ns/amp/gate",
        ),
        ("derived.device_modeled_s", device_modeled_s, "s"),
    ];

    if opts.trace {
        out.per_layer.set("statevec.dense_wall_s", dense_wall_s);
        traced(w, opts, &inst, oracle.amplitudes(), wall_s, out)?;
    }
    Ok(())
}

/// The traced run and the isolated probes: fills `out.per_layer`.
fn traced(
    w: &Workload,
    opts: &Opts,
    inst: &Instance,
    oracle: &[Complex64],
    untraced_wall_s: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let (circuit, cfg) = (&inst.circuit, &inst.cfg);
    let n = circuit.n_qubits();
    let chunk_bits = cfg.effective_chunk_bits(n);
    let m = &mut out.per_layer;

    let cp = probes::circuit(w, opts.seed, opts.smoke, circuit, cfg);
    m.set("circuit.build_s", cp.build_s);
    m.set("circuit.gates", circuit.len() as f64);
    m.set("circuit.plan_s", cp.plan_s);
    m.set("circuit.plan_stages", cp.plan_stages as f64);
    m.set("circuit.plan_chunk_visits", cp.plan_chunk_visits as f64);
    m.set("circuit.plan_gates", cp.plan_gates as f64);

    // The same stack `build_store` assembles, built by hand so each seam
    // carries its wrapper: Tracing(Telemetry(Compressed(TracingCodec))).
    let rec = Recorder::new(w.name);
    let codec = Arc::new(TracingCodec::new(
        cfg.codec.build_with_precision(cfg.precision),
        Arc::clone(&rec),
    ));
    let base = CompressedTier::zero_state(n, chunk_bits, Arc::clone(&codec) as Arc<dyn Codec>);
    let tier: Arc<dyn ChunkStore> = Arc::new(TelemetryTier::new(Arc::new(base)));
    let tstore = Arc::new(TracingStore::new(
        tier,
        Arc::clone(&rec),
        (cp.plan_stages / 2) as u32,
    ));
    let store: Arc<dyn ChunkStore> = Arc::clone(&tstore) as Arc<dyn ChunkStore>;
    let blocks_before = store.cumulative_stats().blocks;
    let visits_before = store.counters().chunk_visits;

    out.attempted += 1;
    let root = rec.start();
    // The executor each untraced entry point constructs, behind the wrapper.
    let (device, mut cpu, mut hybrid);
    let inner: &mut dyn ChunkExecutor = match inst.engine {
        Engine::Cpu => {
            cpu = CpuWorkerExecutor::new();
            &mut cpu
        }
        Engine::Hybrid => {
            device = Device::new(DeviceSpec::pcie_gen3());
            hybrid = SerialAdapter::new(DevicePipelineExecutor::new(&device, true));
            &mut hybrid
        }
    };
    let mut exec = TracingExecutor::new(inner, Arc::clone(&rec));
    let result = run_with_executor(&store, circuit, cfg, Granularity::Staged, &mut exec);
    drop(root);
    rec.stop();
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            out.failed += 1;
            return Err(format!("traced run failed: {e}"));
        }
    };
    let blocks = store.cumulative_stats().blocks - blocks_before;
    let visits = store.counters().chunk_visits - visits_before;
    let verdict = verify(&*store, oracle, inst.check).map_err(|e| e.to_string())?;
    if !verdict.ok {
        out.failed += 1;
        out.notes.push(format!("traced run wrong: {verdict:?}"));
    }

    let spans = rec.spans();
    let s = Summary::of(&spans);
    let load = s.name("store.load");
    let stor = s.name("store.store");
    let payload_loads = s.name("store.load_payload").calls;
    let payload_calls = payload_loads + s.name("store.store_payload").calls;
    let enc = s.name("compress.encode");
    let dec = s.name("compress.decode");
    let chunk_amps = (1usize << chunk_bits) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let count = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::SeqCst) as f64;

    // Self-checks of the harness: a mismatch is a benchmark error.
    let mut check = |ok: bool, what: String| {
        if !ok {
            out.errors.push(what);
        }
    };
    check(
        rec.opened() == rec.closed(),
        format!("spans opened {} != closed {}", rec.opened(), rec.closed()),
    );
    check(
        s.min_self_ns >= 0,
        format!("a span has negative self time ({} ns)", s.min_self_ns),
    );
    check(
        (load.calls + payload_loads) as usize == report.chunk_visits,
        format!(
            "store.load_calls {} + payload loads {payload_loads} != report.chunk_visits {}",
            load.calls, report.chunk_visits
        ),
    );
    check(
        enc.calls as usize == blocks,
        format!(
            "compress.encode_calls {} != store cumulative_stats blocks {blocks}",
            enc.calls
        ),
    );
    check(
        dec.calls + payload_loads == visits,
        format!(
            "compress.decode_calls {} + payload loads {payload_loads} != store counters chunk_visits {visits}",
            dec.calls
        ),
    );
    let accounted = ratio(s.root_thread_self_ns as f64, s.run_ns as f64);
    check(
        (accounted - 1.0).abs() <= 0.02,
        format!("self times on the run's thread cover {accounted:.4} of the run span"),
    );

    m.set("compress.encode_calls", enc.calls as f64);
    m.set("compress.decode_calls", dec.calls as f64);
    m.set("compress.encode_busy_s", enc.busy_s());
    m.set("compress.decode_busy_s", dec.busy_s());
    m.set(
        "compress.encode_ns_per_amp",
        ratio(enc.busy_ns as f64, count(&codec.bytes_in) / 16.0),
    );
    m.set(
        "compress.decode_ns_per_amp",
        ratio(dec.busy_ns as f64, dec.calls as f64 * chunk_amps),
    );
    m.set("compress.bytes_in", count(&codec.bytes_in));
    m.set("compress.bytes_out", count(&codec.bytes_out));
    m.set(
        "compress.ratio",
        ratio(count(&codec.bytes_in), count(&codec.bytes_out)),
    );
    m.set(
        "compress.zero_input_share",
        ratio(count(&codec.zero_inputs), enc.calls as f64),
    );

    m.set("store.load_calls", load.calls as f64);
    m.set("store.store_calls", stor.calls as f64);
    m.set("store.payload_calls", payload_calls as f64);
    m.set("store.swap_calls", s.name("store.swap").calls as f64);
    m.set("store.flush_calls", s.name("store.flush").calls as f64);
    m.set("store.load_busy_s", load.busy_s());
    m.set("store.store_busy_s", stor.busy_s());
    m.set("store.load_self_s", load.self_s());
    m.set("store.store_self_s", stor.self_s());
    m.set(
        "store.self_ns_per_amp",
        ratio(
            (load.self_ns + stor.self_ns) as f64,
            (load.calls + stor.calls) as f64 * chunk_amps,
        ),
    );
    m.set(
        "store.unchanged_store_share",
        ratio(count(&tstore.unchanged_stores), stor.calls as f64),
    );
    m.set(
        "store.zero_store_share",
        ratio(count(&tstore.zero_stores), stor.calls as f64),
    );
    let counters = store.counters();
    m.set(
        "store.cache_hit_rate",
        ratio(
            counters.cache_hits as f64,
            (counters.cache_hits + counters.cache_misses) as f64,
        ),
    );
    m.set("store.peak_state_bytes", store.peak_state_bytes() as f64);
    m.set("store.final_ratio", store.current_ratio());

    let submit = s.name("engine.submit");
    let end_stage = s.name("engine.end_stage");
    let exec_self_ns = ["engine.prepare", "engine.remap", "engine.finish"]
        .iter()
        .map(|n| s.name(n).self_ns)
        .sum::<i64>()
        + submit.self_ns
        + end_stage.self_ns;
    m.set("engine.stages", s.name("engine.stage").calls as f64);
    m.set("engine.groups", submit.calls as f64);
    m.set("engine.chunk_visits", report.chunk_visits as f64);
    m.set("engine.submit_busy_s", submit.busy_s());
    m.set("engine.submit_self_s", submit.self_s());
    m.set("engine.end_stage_busy_s", end_stage.busy_s());
    m.set("engine.barrier_wait_s", end_stage.self_s());
    m.set("engine.exec_self_s", exec_self_ns as f64 * 1e-9);
    m.set(
        "engine.driver_self_s",
        s.name("run").self_s() + s.name("engine.stage").self_s(),
    );
    m.set("engine.report_decode_s", report.decompress.as_secs_f64());
    m.set("engine.report_apply_s", report.cpu_apply.as_secs_f64());
    m.set("engine.report_encode_s", report.compress.as_secs_f64());
    m.set(
        "engine.apply_ns_per_amp_gate",
        ratio(
            report.cpu_apply.as_nanos() as f64,
            (1usize << n) as f64 * cp.plan_gates as f64,
        ),
    );
    m.set(
        "engine.role_overlap_s",
        report.telemetry.overlap().as_secs_f64(),
    );
    m.set("engine.peak_buffer_bytes", report.peak_buffer_bytes as f64);

    let d = &report.device;
    m.set("device.modeled_s", d.modeled.as_secs_f64());
    m.set("device.modeled_h2d_s", d.modeled_h2d.as_secs_f64());
    m.set("device.modeled_d2h_s", d.modeled_d2h.as_secs_f64());
    m.set("device.modeled_kernel_s", d.modeled_kernel.as_secs_f64());
    m.set("device.modeled_wait_s", d.modeled_wait.as_secs_f64());
    m.set("device.real_s", d.real.as_secs_f64());
    m.set("device.commands", d.commands as f64);
    m.set("device.bytes_h2d", d.bytes_h2d as f64);
    m.set("device.bytes_d2h", d.bytes_d2h as f64);
    m.set("device.pinned_bytes", report.pinned_bytes as f64);
    m.set("device.buffer_bytes", report.device_buffer_bytes as f64);

    let span_ns = probes::telemetry_span_ns();
    let telemetry_spans = report.telemetry.spans().len() as f64;
    m.set("telemetry.spans", telemetry_spans);
    m.set("telemetry.span_ns", span_ns);
    m.set(
        "telemetry.est_share",
        telemetry_spans * span_ns * 1e-9 / untraced_wall_s,
    );
    let traced_wall_s = s.run_ns as f64 * 1e-9;
    m.set("trace.spans", s.spans as f64);
    m.set("trace.probe_s", s.name("trace.probe").busy_s());
    m.set(
        "trace.overhead_share",
        (traced_wall_s - untraced_wall_s) / untraced_wall_s,
    );
    m.set("trace.accounted_share", accounted);

    // Codec replay over chunks of this workload's own mid-run and final
    // states, on a fresh codec of the same spec.
    let mut chunks = std::mem::take(&mut *tstore.captured.lock().expect("capture poisoned"));
    let stride = (store.chunk_count() / CAPTURE_PER_STATE).max(1);
    for i in (0..store.chunk_count())
        .step_by(stride)
        .take(CAPTURE_PER_STATE)
    {
        let mut buf = vec![Complex64::ZERO; store.chunk_amps()];
        store.load_chunk(i, &mut buf).map_err(|e| e.to_string())?;
        chunks.push(buf);
    }
    let fresh = cfg.codec.build_with_precision(cfg.precision);
    let (replay_enc, replay_dec) = probes::codec_replay(fresh.as_ref(), &chunks);
    m.set("compress.replay_encode_ns_per_amp", replay_enc);
    m.set("compress.replay_decode_ns_per_amp", replay_dec);
    out.notes.push(format!(
        "codec replay over {} captured chunks ({} mid-run, stage {})",
        chunks.len(),
        chunks.len().saturating_sub(CAPTURE_PER_STATE),
        cp.plan_stages / 2
    ));
    drop(chunks);
    drop(store);
    drop(tstore);

    // The unit tests do not wait for gigabyte arrays to fault in.
    let llc_bytes = if opts.smoke {
        1 << 18
    } else {
        probes::llc_bytes()
    };
    let sv = probes::statevec(n, chunk_bits, llc_bytes);
    m.set("statevec.h_ns_per_amp", sv.h_ns_per_amp);
    m.set("statevec.cx_ns_per_amp", sv.cx_ns_per_amp);
    m.set("statevec.cphase_ns_per_amp", sv.cphase_ns_per_amp);
    m.set("statevec.h_group_ns_per_amp", sv.h_group_ns_per_amp);
    m.set(
        "statevec.apply_all_group_ns_per_amp_gate",
        sv.apply_all_group_ns_per_amp_gate,
    );
    m.set("statevec.copy_gb_s", sv.copy_gb_s);
    m.set("statevec.h_gb_s_computed", sv.h_gb_s_computed);
    m.set("statevec.h_bw_share", sv.h_gb_s_computed / sv.copy_gb_s);
    m.set("statevec.copy_array_bytes", sv.copy_array_bytes as f64);
    m.set("statevec.llc_bytes", sv.llc_bytes as f64);
    if sv.copy_array_bytes < 4 * sv.llc_bytes {
        out.notes.push(format!(
            "copy arrays ({} B) are under 4x the last-level cache ({} B): memory is short",
            sv.copy_array_bytes, sv.llc_bytes
        ));
    }

    if let Err(e) = write_trace(&rec.workload, &spans) {
        out.notes.push(format!("trace not written: {e}"));
    }
    out.trace_summary = Some(s);
    Ok(())
}

/// Writes the Chrome trace beside the build output (an untracked
/// directory): `<target dir>/perf_suite/<workload>.trace.json`.
fn write_trace(workload: &str, spans: &[trace::SpanRec]) -> std::io::Result<()> {
    let exe = std::env::current_exe()?;
    let target = exe
        .parent()
        .and_then(|profile| profile.parent())
        .ok_or_else(|| std::io::Error::other("executable is not inside a target directory"))?;
    let dir = target.join("perf_suite");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}.trace.json"));
    std::fs::write(&path, trace::chrome_trace(workload, spans).to_string())?;
    println!("trace: {}", path.display());
    Ok(())
}

fn print_row(name: &str, value: f64, unit: &str, note: &str) {
    println!("{name:<44} {value:>18.9} {unit:<12} {note}");
}

impl Outcome {
    /// Prints the table and, as the last line, the result object. Returns
    /// whether the measurement is clean: no failed op, no benchmark error.
    fn report(&self, w: &Workload, opts: &Opts) -> bool {
        println!(
            "== {} seed {} ({})",
            w.name,
            opts.seed,
            if opts.trace { "traced" } else { "untraced" }
        );
        for note in &self.notes {
            println!("note: {note}");
        }
        let rows = |defs: &[Def], values: &Values| {
            for d in defs {
                if let Some(v) = values.get(d.name) {
                    let note = d
                        .bound
                        .map(|b| format!("bound {:.0}%", b * 100.0))
                        .unwrap_or_default();
                    print_row(d.name, v, d.unit, &note);
                }
            }
        };
        rows(END_TO_END, &self.end_to_end);
        for (name, value, unit) in &self.derived {
            print_row(name, *value, unit, "ungated");
        }
        println!(
            "ops_attempted {} ops_failed {}",
            self.attempted, self.failed
        );
        if let Some(s) = &self.trace_summary {
            rows(PER_LAYER, &self.per_layer);
            println!("-- traced run, spans by name (all threads)");
            let mut layers: std::collections::BTreeMap<&str, f64> = Default::default();
            for (name, t) in s.names() {
                println!(
                    "{name:<24} calls {:>7} busy {:>12.6} s self {:>12.6} s",
                    t.calls,
                    t.busy_s(),
                    t.self_s()
                );
                let layer = match name.split('.').next() {
                    Some("run") => "engine",
                    Some(l) => l,
                    None => name,
                };
                *layers.entry(layer).or_default() += t.self_s();
            }
            let dominant = layers.iter().max_by(|a, b| a.1.total_cmp(b.1));
            for (layer, self_s) in &layers {
                println!("layer {layer:<10} self {self_s:>12.6} s");
            }
            if let Some((layer, _)) = dominant {
                println!("dominant layer by self time: {layer}");
            }
        }
        for e in &self.errors {
            println!("BENCHMARK ERROR: {e}");
        }
        let (defs, values) = if opts.trace {
            (PER_LAYER, &self.per_layer)
        } else {
            (END_TO_END, &self.end_to_end)
        };
        match values.to_json(defs) {
            Err(e) => {
                println!("BENCHMARK ERROR: {e}");
                false
            }
            Ok(metrics) => {
                let clean = self.failed == 0 && self.errors.is_empty();
                println!(
                    "{}",
                    Json::object([
                        ("correct", Json::Bool(clean)),
                        ("attempted", Json::Num(self.attempted as f64)),
                        ("failed", Json::Num(self.failed as f64)),
                        ("metrics", metrics),
                    ])
                );
                clean
            }
        }
    }
}

/// A/A check: two measurements of one commit must agree within every
/// end-to-end bound, and to the digit on the metrics that repeat exactly.
fn selfcheck(w: &Workload, a: &Outcome, b: &Outcome) -> bool {
    println!("== {} A/A self-check", w.name);
    let mut ok = true;
    for d in END_TO_END {
        let (Some(x), Some(y)) = (a.end_to_end.get(d.name), b.end_to_end.get(d.name)) else {
            println!("{:<24} missing", d.name);
            ok = false;
            continue;
        };
        let diff = (y - x) / x;
        let bound = d.bound.unwrap_or(0.0);
        let pass = if d.exact { x == y } else { diff.abs() <= bound };
        println!(
            "{:<24} first {x:>16.6} second {y:>16.6} diff {:>+8.3}% bound {}{:.0}% {}",
            d.name,
            diff * 100.0,
            if d.exact { "exact, " } else { "" },
            bound * 100.0,
            if pass { "ok" } else { "FAIL" }
        );
        ok &= pass;
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_opts(w: &'static Workload, trace: bool) -> Opts {
        Opts {
            workloads: vec![w],
            seed: 5,
            seconds: 0.05,
            reps: Some(2),
            trace,
            selfcheck: false,
            smoke: true,
        }
    }

    #[test]
    fn every_workload_measures_cleanly_at_smoke_scale() {
        for w in &WORKLOADS {
            let opts = smoke_opts(w, false);
            let out = measure(w, &opts);
            assert!(out.errors.is_empty(), "{}: {:?}", w.name, out.errors);
            assert_eq!((out.attempted, out.failed), (2, 0), "{}", w.name);
            out.end_to_end.to_json(END_TO_END).unwrap();
            assert!(out.end_to_end.get("wall_s").unwrap() > 0.0);
            assert!(out.end_to_end.get("peak_footprint_bytes").unwrap() > 0.0);
        }
    }

    #[test]
    fn traced_run_fills_every_per_layer_metric_and_passes_its_self_checks() {
        for w in &WORKLOADS {
            let opts = smoke_opts(w, true);
            let out = measure(w, &opts);
            assert!(out.errors.is_empty(), "{}: {:?}", w.name, out.errors);
            assert_eq!(out.failed, 0, "{}: {:?}", w.name, out.notes);
            out.per_layer.to_json(PER_LAYER).unwrap();
            let get = |n: &str| out.per_layer.get(n).unwrap();
            assert_eq!(
                get("store.load_calls") + get("store.payload_calls"),
                get("engine.chunk_visits"),
                "{}",
                w.name
            );
            assert_eq!(get("circuit.plan_stages"), get("engine.stages"));
            let hybrid = w.name.ends_with("hybrid");
            assert_eq!(get("device.modeled_s") > 0.0, hybrid, "{}", w.name);
            assert!(get("trace.accounted_share") > 0.98);
        }
    }

    #[test]
    fn selfcheck_flags_an_exact_metric_that_moved_and_a_timing_beyond_its_bound() {
        let outcome = |wall: f64, bytes: f64| {
            let mut o = Outcome::default();
            o.end_to_end.set("wall_s", wall);
            o.end_to_end.set("setup_s", 0.2);
            o.end_to_end.set("peak_footprint_bytes", bytes);
            o
        };
        let w = &WORKLOADS[0];
        assert!(selfcheck(w, &outcome(5.0, 1024.0), &outcome(5.2, 1024.0)));
        assert!(!selfcheck(w, &outcome(5.0, 1024.0), &outcome(7.0, 1024.0)));
        assert!(!selfcheck(w, &outcome(5.0, 1024.0), &outcome(5.0, 1025.0)));
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let o = parse_args(&args(
            "--workload random20_default --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap()
        .unwrap();
        assert_eq!(
            (o.workloads[0].name, o.seed, o.seconds, o.trace),
            ("random20_default", 7, 3.0, true)
        );
        assert_eq!(
            parse_args(&args("--workload all"))
                .unwrap()
                .unwrap()
                .workloads
                .len(),
            4
        );
        for bad in [
            "",
            "--workload nope",
            "--workload all --trace 2",
            "--workload all --seconds 0",
            "--workload all --reps 0",
            "--workload all --frobnicate",
            "--workload",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
