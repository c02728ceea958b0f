//! Adaptive-codec parity: `CodecSpec::Auto` without an error allowance may
//! pick a different backend per chunk, but every pick is lossless — so the
//! run must be an observational no-op relative to each static lossless
//! codec: same bits, same work accounting. Only
//! payload sizes (and therefore link traffic) are allowed to move.
//!
//! With a fidelity budget configured, the run-level error ledger must stay
//! within the budget and the end state must actually hit the target.

use memqsim_core::engine::{cpu, hybrid, Granularity};
use memqsim_core::{build_store, ChunkStore, MemQSimConfig, RunReport};
use mq_circuit::{library, Circuit};
use mq_compress::CodecSpec;
use mq_device::{Device, DeviceSpec, DeviceTopology};
use mq_num::metrics::fidelity;
use mq_num::Complex64;
use mq_telemetry::Counter;

fn config(codec: CodecSpec) -> MemQSimConfig {
    MemQSimConfig {
        chunk_bits: 3,
        max_high_qubits: 2,
        codec,
        workers: 1,
        ..Default::default()
    }
}

#[derive(Clone, Copy)]
enum Engine {
    Cpu(Granularity),
    Hybrid { pipelined: bool },
}

impl Engine {
    fn label(&self) -> String {
        match self {
            Engine::Cpu(g) => format!("cpu/{g:?}"),
            Engine::Hybrid { pipelined } => format!("hybrid/pipelined={pipelined}"),
        }
    }
}

fn run(circuit: &Circuit, codec: CodecSpec, engine: Engine) -> (Vec<Complex64>, RunReport) {
    let cfg = config(codec);
    let store = build_store(circuit.n_qubits(), &cfg).expect("store");
    let report = match engine {
        Engine::Cpu(granularity) => cpu::run(&store, circuit, &cfg, granularity).expect("cpu run"),
        Engine::Hybrid { pipelined } => {
            let device = Device::new(DeviceSpec::tiny_test(1 << 12));
            hybrid::run(&store, circuit, &cfg, &device, pipelined).expect("hybrid run")
        }
    };
    (store.to_dense().expect("dense"), report)
}

const ENGINES: [Engine; 4] = [
    Engine::Cpu(Granularity::Staged),
    Engine::Cpu(Granularity::PerGate),
    Engine::Hybrid { pipelined: true },
    Engine::Hybrid { pipelined: false },
];

const STATIC_LOSSLESS: [CodecSpec; 3] =
    [CodecSpec::ZeroRle, CodecSpec::Fpc, CodecSpec::ShuffleLzss];

/// Every workload, both granularities, CPU and hybrid engines: lossless
/// Auto computes the same bits with the same accounting as every static
/// lossless codec.
#[test]
fn lossless_auto_matches_every_static_codec() {
    for engine in ENGINES {
        for circuit in library::standard_suite(7) {
            let (auto_state, auto) = run(&circuit, CodecSpec::Auto { eb: None }, engine);
            let auto_tag = format!("{} auto {}", circuit.name(), engine.label());
            for spec in STATIC_LOSSLESS {
                let (state, r) = run(&circuit, spec, engine);
                let tag = format!("{} {spec} {}", circuit.name(), engine.label());
                assert_eq!(auto_state, state, "state diverged: {tag}");
                assert_eq!(auto.gates_applied, r.gates_applied, "{tag}");
                assert_eq!(auto.scalars_applied, r.scalars_applied, "{tag}");
                assert_eq!(auto.chunk_visits, r.chunk_visits, "{tag}");
                assert_eq!(auto.stages, r.stages, "{tag}");
                assert_eq!(auto.groups_device, r.groups_device, "{tag}");
                assert_eq!(auto.groups_cpu, r.groups_cpu, "{tag}");
            }
            // Lossless-only selection must never record a lossy encode or
            // an f32 demotion, and the budget fields stay inert.
            assert_eq!(
                auto.telemetry.counter(Counter::LossyEncodes),
                0,
                "{auto_tag}"
            );
            assert_eq!(
                auto.telemetry.counter(Counter::MixedPrecisionChunks),
                0,
                "{auto_tag}"
            );
            assert_eq!(auto.fidelity_budget, None, "{auto_tag}");
            assert_eq!(auto.error_spent, 0.0, "{auto_tag}");
        }
    }
}

/// On a device fleet the aggregate stream accounting must equal the sum of
/// the per-device lanes, and sharded Auto stays bit-identical to one device.
#[test]
fn auto_fleet_accounting_sums_per_device() {
    let circuit = library::qft(7);
    let spec = CodecSpec::Auto { eb: None };
    let cfg = config(spec);
    let single = {
        let store = build_store(7, &cfg).expect("store");
        let device = Device::new(DeviceSpec::tiny_test(1 << 12));
        hybrid::run(&store, &circuit, &cfg, &device, true).expect("run");
        store.to_dense().expect("dense")
    };
    for devices in [2usize, 4] {
        let store = build_store(7, &cfg).expect("store");
        let fleet = DeviceTopology::homogeneous(devices, DeviceSpec::tiny_test(1 << 12)).build();
        let r = hybrid::run_fleet(&store, &circuit, &cfg, &fleet, true).expect("run");
        assert_eq!(single, store.to_dense().expect("dense"), "x{devices}");
        assert_eq!(r.per_device.len(), devices, "x{devices}");
        for (field, total, per) in [
            (
                "bytes_h2d",
                r.device.bytes_h2d,
                r.per_device.iter().map(|d| d.bytes_h2d).sum::<usize>(),
            ),
            (
                "bytes_d2h",
                r.device.bytes_d2h,
                r.per_device.iter().map(|d| d.bytes_d2h).sum(),
            ),
            (
                "bytes_h2d_compressed",
                r.device.bytes_h2d_compressed,
                r.per_device.iter().map(|d| d.bytes_h2d_compressed).sum(),
            ),
            (
                "bytes_d2h_compressed",
                r.device.bytes_d2h_compressed,
                r.per_device.iter().map(|d| d.bytes_d2h_compressed).sum(),
            ),
        ] {
            assert_eq!(total, per, "{field} aggregate != per-device sum x{devices}");
        }
    }
}

/// A fidelity budget turns into a per-stage error ledger that sums within
/// the run-level allowance, and the end state actually meets the target
/// against the lossless reference.
#[test]
fn fidelity_budget_ledger_stays_within_budget() {
    let circuit = library::qft(7);
    let (reference, _) = run(
        &circuit,
        CodecSpec::Auto { eb: None },
        Engine::Cpu(Granularity::Staged),
    );
    let target = 0.999;
    let cfg = MemQSimConfig {
        fidelity_budget: Some(target),
        ..config(CodecSpec::Auto { eb: None })
    };
    let store = build_store(7, &cfg).expect("store");
    let report = cpu::run(&store, &circuit, &cfg, Granularity::Staged).expect("budgeted run");
    let state = store.to_dense().expect("dense");

    assert_eq!(report.fidelity_budget, Some(target));
    assert!(report.error_budget > 0.0);
    let ledger = report.telemetry.error_spend();
    assert_eq!(ledger.len(), report.stages, "one ledger entry per stage");
    let allocated: f64 = ledger.iter().map(|s| s.allocated).sum();
    assert!(
        (allocated - report.error_budget).abs() <= report.error_budget * 1e-12,
        "allocations must exhaust the budget: {allocated} vs {}",
        report.error_budget
    );
    for s in ledger {
        assert!(
            s.spent == 0.0 || s.spent == s.allocated,
            "stage {} spent {} outside {{0, {}}}",
            s.stage,
            s.spent,
            s.allocated
        );
    }
    assert!(
        report.error_spent <= report.error_budget,
        "spent {} exceeds budget {}",
        report.error_spent,
        report.error_budget
    );
    let f = fidelity(&reference, &state);
    assert!(f >= target, "fidelity {f} below target {target}");
}

/// The ledger and the pick histogram come from what was encoded, not from
/// where the payload landed: a spilling store books the same lossy encodes,
/// the same picks and the same error spend as the in-memory tier.
#[test]
fn fidelity_ledger_and_codec_picks_do_not_depend_on_the_store_kind() {
    use memqsim_core::{StoreCounters, StoreKind};
    let circuit = library::qft(12);
    let run_on = |store_kind| {
        let cfg = MemQSimConfig {
            chunk_bits: 6,
            fidelity_budget: Some(0.999),
            store_kind,
            ..config(CodecSpec::Auto { eb: None })
        };
        let store = build_store(12, &cfg).expect("store");
        let report = cpu::run(&store, &circuit, &cfg, Granularity::Staged).expect("run");
        (store.to_dense().expect("dense"), report, store.counters())
    };
    let (state, report, counters) = run_on(StoreKind::Compressed);
    // Well under the 2.3 KiB of payloads the run peaks at, so chunks do go
    // to disk.
    let (spill_state, spill_report, spill_counters) = run_on(StoreKind::Spill {
        resident_budget: 256,
    });
    assert!(spill_counters.spill_bytes_written > 0, "nothing spilled");
    assert_eq!(state, spill_state);
    assert!(counters.lossy_encodes > 0 && report.error_spent > 0.0);
    assert_eq!(report.error_spent, spill_report.error_spent);
    assert_eq!(
        report.telemetry.error_spend(),
        spill_report.telemetry.error_spend()
    );
    // Everything but the spill traffic itself: visits, codec bytes, the
    // pick histogram, mixed-precision and lossy encodes.
    assert_eq!(
        counters,
        StoreCounters {
            spill_bytes_written: 0,
            spill_bytes_read: 0,
            ..spill_counters
        }
    );
    for counter in [
        Counter::LossyEncodes,
        Counter::CodecPicksSz,
        Counter::CodecPicksZeroRle,
    ] {
        assert_eq!(
            report.telemetry.counter(counter),
            spill_report.telemetry.counter(counter),
            "{counter:?}"
        );
    }
}
