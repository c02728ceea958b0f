//! Report parity between executors: a CPU run and a hybrid run of the same
//! circuit must agree on everything the shared driver accounts for — the
//! [`RunReport`] shape is unified, so the numbers must be comparable too.

use memqsim_core::engine::{cpu, hybrid, Granularity, RunReport};
use memqsim_core::{build_store, ChunkStore, Counter, MemQSimConfig, StoreKind};
use memqsim_suite::{circuit::library, circuit::Circuit, CodecSpec, DeviceSpec};

fn cfg() -> MemQSimConfig {
    MemQSimConfig {
        chunk_bits: 3,
        max_high_qubits: 2,
        codec: CodecSpec::Fpc,
        workers: 1,
        ..Default::default()
    }
}

fn run_cpu(circuit: &Circuit, config: &MemQSimConfig) -> RunReport {
    let store = build_store(circuit.n_qubits(), config).expect("store construction failed");
    cpu::run(&store, circuit, config, Granularity::Staged).unwrap()
}

fn run_hybrid(circuit: &Circuit, config: &MemQSimConfig) -> RunReport {
    let store = build_store(circuit.n_qubits(), config).expect("store construction failed");
    let device = memqsim_suite::device::Device::new(DeviceSpec::tiny_test(1 << 16));
    hybrid::run(&store, circuit, config, &device, true).unwrap()
}

#[test]
fn cpu_and_hybrid_reports_agree_on_driver_accounting() {
    let config = cfg();
    for circuit in [library::qft(7), library::ghz(7), library::w_state(7)] {
        let c = run_cpu(&circuit, &config);
        let h = run_hybrid(&circuit, &config);

        // The shared driver does the plan building and visit accounting, so
        // these are identical regardless of the executor.
        assert_eq!(c.stages, h.stages, "{}", circuit.name());
        assert_eq!(c.chunk_visits, h.chunk_visits, "{}", circuit.name());

        // Both lanes run the one apply body, so both name the kernel copy
        // the dispatch picks on this CPU.
        let isa = memqsim_suite::statevec::apply::kernel_isa();
        assert_eq!((c.kernel_isa, h.kernel_isa), (isa, isa));

        // Both executors specialize the same plan against the same state, so
        // they apply exactly the same gates and scalars.
        assert_eq!(c.gates_applied, h.gates_applied, "{}", circuit.name());
        assert_eq!(c.scalars_applied, h.scalars_applied, "{}", circuit.name());
        assert_eq!(
            c.groups_cpu,
            h.groups_cpu + h.groups_device,
            "{}",
            circuit.name()
        );

        // Lossless codec + identical state trajectory: codec traffic
        // matches byte for byte.
        for counter in [Counter::BytesDecompressed, Counter::BytesCompressed] {
            assert_eq!(
                c.telemetry.counter(counter),
                h.telemetry.counter(counter),
                "{}: {counter:?}",
                circuit.name()
            );
        }

        // Executor identity is the only expected difference in shape.
        assert_eq!(c.executor, "cpu-workers");
        assert_eq!(h.executor, "device-pipeline[pipelined]");
    }
}

#[test]
fn cache_identity_holds_for_both_executors() {
    // With the residency cache on, every chunk visit is either a hit or a
    // miss — on both executors, because the store-side accounting is shared.
    let config = MemQSimConfig {
        cache_bytes: 8 * (1 << 3) * 16,
        ..cfg()
    };
    let circuit = library::qft(7);
    for report in [run_cpu(&circuit, &config), run_hybrid(&circuit, &config)] {
        let visits = report.telemetry.counter(Counter::ChunkVisits);
        assert_eq!(visits, report.chunk_visits as u64, "{}", report.executor);
        assert_eq!(
            report.telemetry.counter(Counter::CacheHits)
                + report.telemetry.counter(Counter::CacheMisses),
            visits,
            "{}",
            report.executor
        );
        assert!(report.telemetry.counter(Counter::CacheHits) > 0);
    }
}

#[test]
fn driver_accounting_is_identical_across_store_kinds() {
    // The store tier must be invisible to the driver: dense, compressed and
    // disk-spilling stores see the same plan, the same visits and the same
    // gate/scalar work — and (with a lossless codec) the same final state.
    let circuit = library::qft(7);
    let kinds = [
        StoreKind::Compressed,
        StoreKind::Dense,
        StoreKind::Spill {
            // Far below the 2 KiB dense state: forces mid-run disk traffic.
            resident_budget: 512,
        },
    ];
    let mut reports = Vec::new();
    let mut states = Vec::new();
    for kind in kinds {
        let config = MemQSimConfig {
            store_kind: kind,
            ..cfg()
        };
        let store = build_store(circuit.n_qubits(), &config).expect("store construction failed");
        let report = cpu::run(&store, &circuit, &config, Granularity::Staged).unwrap();
        states.push(store.to_dense().unwrap());
        reports.push(report);
    }
    let base = &reports[0];
    for (r, kind) in reports.iter().zip(kinds).skip(1) {
        assert_eq!(base.stages, r.stages, "{kind:?}");
        assert_eq!(base.chunk_visits, r.chunk_visits, "{kind:?}");
        assert_eq!(base.gates_applied, r.gates_applied, "{kind:?}");
        assert_eq!(base.scalars_applied, r.scalars_applied, "{kind:?}");
        assert_eq!(base.groups_cpu, r.groups_cpu, "{kind:?}");
        assert_eq!(
            base.telemetry.counter(Counter::ChunkVisits),
            r.telemetry.counter(Counter::ChunkVisits),
            "{kind:?}"
        );
    }
    for (s, kind) in states.iter().zip(kinds).skip(1) {
        let err = memqsim_suite::num::metrics::max_amp_err(&states[0], s);
        assert!(err < 1e-12, "{kind:?} drifted from compressed run by {err}");
    }
}

#[test]
fn byte_accounting_is_internally_consistent() {
    let config = cfg();
    let circuit = library::random_circuit(7, 6, 9);
    let c = run_cpu(&circuit, &config);
    let h = run_hybrid(&circuit, &config);

    // CPU-only: no staging, no device buffers, no device time.
    assert_eq!(c.pinned_bytes, 0);
    assert_eq!(c.device_buffer_bytes, 0);
    assert_eq!(c.peak_working_bytes(), c.peak_buffer_bytes);
    assert_eq!(c.groups_device, 0);

    // Hybrid: staging buffers on both sides of the bus, sized identically.
    assert!(h.pinned_bytes > 0);
    assert_eq!(h.pinned_bytes, h.device_buffer_bytes);
    assert_eq!(h.peak_working_bytes(), h.peak_buffer_bytes + h.pinned_bytes);
    assert!(h.groups_device > 0);

    // Both runs held the same compressed state at peak (same trajectory).
    assert_eq!(c.peak_compressed_bytes, h.peak_compressed_bytes);
}
