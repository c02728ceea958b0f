//! Integration: OpenQASM text through the whole stack — parse, plan,
//! simulate compressed, compare against the dense oracle — plus emitter
//! round trips of generated circuits.

use memqsim_core::engine::cpu::CpuWorkerExecutor;
use memqsim_core::engine::{build_plan, Granularity};
use memqsim_core::{
    build_store, run_plan_with_executor, Backend, CompressedCpuBackend, MemQSimConfig,
};
use mq_circuit::partition::{partition, PartitionConfig};
use mq_circuit::schedule::schedule;
use mq_circuit::unitary::run_dense;
use mq_circuit::{library, qasm};
use mq_compress::CodecSpec;
use mq_num::metrics::max_amp_err;

fn backend() -> CompressedCpuBackend {
    CompressedCpuBackend::new(MemQSimConfig {
        chunk_bits: 3,
        max_high_qubits: 2,
        codec: CodecSpec::Sz { eb: 1e-12 },
        ..Default::default()
    })
}

#[test]
fn handwritten_qasm_runs_compressed() {
    let src = r#"
        OPENQASM 2.0;
        include "qelib1.inc";
        qreg q[6];
        creg c[6];
        h q;
        cx q[0],q[5];
        rz(pi/3) q[2];
        cp(-pi/4) q[1],q[4];
        ccx q[0],q[1],q[3];
        swap q[2],q[5];
        u3(0.3,0.2,0.1) q[4];
        barrier q;
        measure q[0] -> c[0];
    "#;
    let program = qasm::parse(src).expect("parse failed");
    assert_eq!(program.circuit.n_qubits(), 6);
    assert_eq!(program.measurements, vec![(0, 0)]);

    let run = backend().run(&program.circuit).expect("run failed");
    let oracle = run_dense(&program.circuit, 0);
    assert!(max_amp_err(&oracle, &run.amplitudes) < 1e-8);
}

#[test]
fn emitted_circuits_reparse_to_equivalent_unitaries() {
    // Emit a library circuit, re-parse it, and check both run to the same
    // state through the compressed engine.
    for circuit in [
        library::qft(5),
        library::ghz(5),
        library::bernstein_vazirani(4, 0b1010),
    ] {
        let text = qasm::emit(&circuit).expect("emit failed");
        let reparsed = qasm::parse(&text).expect("reparse failed").circuit;
        let a = run_dense(&circuit, 0);
        let b = run_dense(&reparsed, 0);
        assert!(
            max_amp_err(&a, &b) < 1e-10,
            "{}: round trip changed the state",
            circuit.name()
        );
        // And the compressed engine agrees on the reparsed circuit.
        let run = backend().run(&reparsed).expect("run failed");
        assert!(max_amp_err(&a, &run.amplitudes) < 1e-8);
    }
}

/// A parsed QASM program through the shipped planner: bit-identical to the
/// hand-built fixed-layout plan of the scheduler's own gate order and within
/// rounding of the dense oracle. QASM swap statements become `Gate::Swap`s
/// the scheduler may absorb, so this exercises the parse → absorb → swap in
/// stage → restore chain end to end.
#[test]
fn parsed_qasm_under_greedy_layout_matches_fixed_and_oracle() {
    let src = r#"
        OPENQASM 2.0;
        include "qelib1.inc";
        qreg q[7];
        h q[0];
        cx q[0],q[6];
        cx q[0],q[5];
        cx q[0],q[4];
        swap q[4],q[6];
        cx q[0],q[6];
        cx q[0],q[5];
        cx q[0],q[4];
        rz(pi/5) q[3];
        cx q[0],q[6];
        cx q[0],q[5];
        cx q[0],q[4];
    "#;
    let circuit = qasm::parse(src).expect("parse failed").circuit;

    // Lossless: the two plans cut the circuit into stages at different
    // places, and a lossy codec rounds at every stage boundary.
    let cfg = MemQSimConfig {
        chunk_bits: 3,
        max_high_qubits: 2,
        codec: CodecSpec::Fpc,
        ..Default::default()
    };
    let pcfg = PartitionConfig {
        chunk_bits: cfg.chunk_bits,
        max_high_qubits: cfg.max_high_qubits,
    };
    let scheduled = schedule(&circuit, &pcfg);
    let fixed_plan = partition(&scheduled.linearized(&circuit), &pcfg);
    let store = build_store(circuit.n_qubits(), &cfg).expect("store");
    let fixed = run_plan_with_executor(&store, fixed_plan, &cfg, &mut CpuWorkerExecutor::new())
        .expect("fixed run");
    let fixed_amplitudes = store.to_dense().expect("dense");
    let greedy = CompressedCpuBackend::new(cfg)
        .run(&circuit)
        .expect("greedy run");

    assert_eq!(fixed_amplitudes, greedy.amplitudes);
    let oracle = run_dense(&circuit, 0);
    assert!(max_amp_err(&oracle, &greedy.amplitudes) < 1e-12);
    // The rotating targets are swapped below the chunk boundary inside a
    // stage, which cuts the visits the plan asks for (performed + elided);
    // how many of them find an all-zero group depends on where each layout
    // leaves this sparse state.
    let shipped = build_plan(&circuit, &cfg, Granularity::Staged);
    assert_eq!(shipped, scheduled.plan);
    assert!(
        shipped.gate_count() > scheduled.order.len(),
        "no swap inserted"
    );
    assert!(shipped.chunk_visits() < fixed.planned_visits());
    use memqsim_core::Counter;
    assert!(greedy.telemetry.counter(Counter::ChunkVisits) <= shipped.chunk_visits() as u64);
}

#[test]
fn qasm_errors_are_line_accurate_not_panics() {
    let cases: Vec<(&str, usize)> = vec![
        ("OPENQASM 2.0;\nqreg q[2];\nh q[9];\n", 3),
        ("OPENQASM 2.0;\nqreg q[2];\nmystery q[0];\n", 3),
        ("OPENQASM 2.0;\nqreg q[2];\nrz(1/0) q[0];\n", 3),
        ("OPENQASM 2.0;\nqreg q[2];\nqreg r[2];\n", 3),
        ("OPENQASM 2.0;\nh q[0];\n", 2),
    ];
    for (src, line) in cases {
        let err = qasm::parse(src).expect_err("should fail");
        assert_eq!(err.line, line, "{src:?} -> {err}");
    }
}

#[test]
fn rzz_lowering_survives_the_full_stack() {
    let mut c = mq_circuit::Circuit::new(4);
    c.h(0).rzz(0, 3, 0.7).rzz(1, 2, -0.4).h(3);
    let text = qasm::emit(&c).expect("emit failed");
    let reparsed = qasm::parse(&text).expect("parse failed").circuit;
    // Lowered circuit has more gates but the same unitary action.
    assert!(reparsed.len() > c.len());
    let a = run_dense(&c, 0);
    let b = run_dense(&reparsed, 0);
    assert!(max_amp_err(&a, &b) < 1e-12);
}
