//! Sharded-execution parity: an N-device fleet must be an observational
//! no-op relative to one device — same bits, same accounting — because
//! chunk groups within a stage touch disjoint chunk sets, so *where* a
//! group runs can never change *what* it computes. Only the modeled
//! makespan (max over device lanes) is allowed to move.

use memqsim_core::engine::hybrid;
use memqsim_core::{build_store, ChunkStore, MemQSimConfig, RunReport};
use mq_circuit::{library, Circuit};
use mq_compress::CodecSpec;
use mq_device::{Device, DeviceSpec};
use mq_num::Complex64;

fn run_fleet(circuit: &Circuit, devices: usize, pipelined: bool) -> (Vec<Complex64>, RunReport) {
    run_fleet_at(circuit, 3, devices, pipelined)
}

fn run_fleet_at(
    circuit: &Circuit,
    chunk_bits: u32,
    devices: usize,
    pipelined: bool,
) -> (Vec<Complex64>, RunReport) {
    let cfg = MemQSimConfig {
        chunk_bits,
        max_high_qubits: 2,
        codec: CodecSpec::Fpc,
        workers: 1,
        ..Default::default()
    };
    let store = build_store(circuit.n_qubits(), &cfg).expect("store");
    let fleet: Vec<Device> = (0..devices)
        .map(|_| Device::new(DeviceSpec::tiny_test(1 << 12)))
        .collect();
    let report = hybrid::run_fleet(&store, circuit, &cfg, &fleet, pipelined).expect("run");
    (store.to_dense().expect("dense"), report)
}

/// Every workload, pipelined and serial, 2 and 4 devices: bit-identical
/// states and identical work accounting against the single-device run.
#[test]
fn sharded_runs_are_bit_identical_to_single_device() {
    for pipelined in [true, false] {
        for circuit in library::standard_suite(7) {
            let (one_state, one) = run_fleet(&circuit, 1, pipelined);
            for devices in [2usize, 4] {
                let (state, r) = run_fleet(&circuit, devices, pipelined);
                let tag = format!("{} x{devices} pipelined={pipelined}", circuit.name());
                assert_eq!(one_state, state, "state diverged: {tag}");
                assert_eq!(r.gates_applied, one.gates_applied, "{tag}");
                assert_eq!(r.scalars_applied, one.scalars_applied, "{tag}");
                assert_eq!(r.chunk_visits, one.chunk_visits, "{tag}");
                assert_eq!(r.stages, one.stages, "{tag}");
                assert_eq!(r.groups_device, one.groups_device, "{tag}");
                assert_eq!(r.groups_cpu, one.groups_cpu, "{tag}");
            }
        }
    }
}

/// Every fleet size — including one that does not divide the group count —
/// routes differently but computes identically.
#[test]
fn every_fleet_size_is_a_semantic_noop() {
    let circuit = library::random_circuit(7, 6, 11);
    let (reference, _) = run_fleet(&circuit, 1, true);
    for devices in [2usize, 3, 4] {
        let (state, _) = run_fleet(&circuit, devices, true);
        assert_eq!(reference, state, "x{devices}");
    }
}

/// The fleet aggregate in the report is exactly the fold of the per-device
/// lanes: `modeled` is the makespan (max), every other column sums.
#[test]
fn per_device_stats_sum_to_fleet_totals() {
    for devices in [1usize, 2, 3, 4] {
        let (_, r) = run_fleet(&library::qft(7), devices, true);
        let lanes = &r.per_device;
        assert_eq!(lanes.len(), devices);
        let makespan = lanes.iter().map(|s| s.modeled).max().expect("lanes");
        assert_eq!(r.device.modeled, makespan, "x{devices}");
        assert_eq!(
            r.device.modeled_h2d,
            lanes.iter().map(|s| s.modeled_h2d).sum(),
            "x{devices}"
        );
        assert_eq!(
            r.device.modeled_d2h,
            lanes.iter().map(|s| s.modeled_d2h).sum(),
            "x{devices}"
        );
        assert_eq!(
            r.device.modeled_kernel,
            lanes.iter().map(|s| s.modeled_kernel).sum(),
            "x{devices}"
        );
        assert_eq!(
            r.device.bytes_h2d,
            lanes.iter().map(|s| s.bytes_h2d).sum::<usize>(),
            "x{devices}"
        );
        assert_eq!(
            r.device.bytes_d2h,
            lanes.iter().map(|s| s.bytes_d2h).sum::<usize>(),
            "x{devices}"
        );
        assert_eq!(
            r.device.commands,
            lanes.iter().map(|s| s.commands).sum::<usize>(),
            "x{devices}"
        );
        // Telemetry lanes mirror the stream stats and account for every
        // device-routed group.
        let tl = r.telemetry.device_lanes();
        assert_eq!(tl.len(), devices);
        assert_eq!(
            tl.iter().map(|l| l.groups).sum::<u64>() as usize,
            r.groups_device,
            "x{devices}"
        );
        for (i, lane) in tl.iter().enumerate() {
            assert_eq!(lane.device, i);
            assert_eq!(lane.bytes_h2d as usize, lanes[i].bytes_h2d);
            assert_eq!(lane.bytes_d2h as usize, lanes[i].bytes_d2h);
            assert_eq!(lane.modeled_ns as u128, lanes[i].modeled.as_nanos());
            assert_eq!(
                lane.kernel_time_ns as u128,
                lanes[i].modeled_kernel.as_nanos()
            );
        }
        assert!(r.telemetry.load_imbalance() >= 1.0, "x{devices}");
    }
}

/// The single-device configuration through the fleet entry point must
/// reproduce the pre-refactor single-device report shape: the old executor
/// name, one lane equal to the aggregate, neutral imbalance.
#[test]
fn one_device_fleet_reproduces_the_single_device_report() {
    let (_, r) = run_fleet(&library::qft(7), 1, true);
    assert_eq!(r.executor, "device-pipeline[pipelined]");
    assert_eq!(r.per_device.len(), 1);
    assert_eq!(r.per_device[0], r.device);
    assert_eq!(r.telemetry.load_imbalance(), 1.0);

    let (_, serial) = run_fleet(&library::qft(7), 1, false);
    assert_eq!(serial.executor, "device-pipeline[serial]");
    assert!(!serial.telemetry.has_role_overlap());
}

/// Spreading the same groups over more devices shortens the modeled
/// makespan — the whole point of sharding.
#[test]
fn more_devices_shrink_the_modeled_makespan() {
    let circuit = library::qft(8);
    let (_, r1) = run_fleet(&circuit, 1, true);
    let (_, r2) = run_fleet(&circuit, 2, true);
    let (_, r4) = run_fleet(&circuit, 4, true);
    assert!(r2.device.modeled < r1.device.modeled);
    assert!(r4.device.modeled < r2.device.modeled);
}

/// The routing rule, pinned: each stage's groups, in ascending base chunk,
/// split into contiguous per-device ranges. These are the groups and H2D
/// bytes each device took (a group that loads as all zero counts but ships
/// nothing); a changed split fails here even where sums, makespan and
/// imbalance would not notice. On qft and random a round-robin split
/// happens to give the same pairs; on the W state it does not.
#[test]
fn each_device_takes_the_groups_of_its_contiguous_range() {
    let qft = library::qft(12);
    let random = library::random_circuit(12, 8, 11);
    let w = library::w_state(12);
    let cases: [(&Circuit, &[(u64, u64)]); 7] = [
        (&qft, &[(30, 94208), (30, 90112)]),
        (&qft, &[(23, 73728), (19, 57344), (18, 53248)]),
        (&qft, &[(15, 49152), (15, 45056), (15, 45056), (15, 45056)]),
        (&random, &[(74, 241664), (74, 237568)]),
        (&random, &[(55, 182272), (47, 149504), (46, 147456)]),
        (
            &random,
            &[(37, 122880), (37, 118784), (37, 118784), (37, 118784)],
        ),
        (&w, &[(9, 20480), (7, 10240), (8, 12288), (6, 6144)]),
    ];
    for (circuit, want) in cases {
        let (_, r) = run_fleet_at(circuit, 6, want.len(), true);
        let lanes = r.telemetry.device_lanes();
        let got: Vec<(u64, u64)> = lanes.iter().map(|l| (l.groups, l.bytes_h2d)).collect();
        assert_eq!(got, want, "{} x{}", circuit.name(), want.len());
    }
}
