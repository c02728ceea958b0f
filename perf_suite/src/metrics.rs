//! The metric tables: every name the benchmark prints, with its unit, its
//! direction and (end to end) its regression bound. `BENCHMARK.json` is
//! generated from these tables and a unit test holds the committed file to
//! them, so the contract and the harness cannot drift apart.

use crate::json::Json;
use crate::workload::WORKLOADS;
use std::collections::BTreeMap;

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; `None` for per-layer metrics.
    pub bound: Option<f64>,
    /// Whether two runs of one commit on one seed must agree to the digit.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64, exact: bool) -> Def {
    Def {
        name,
        unit,
        higher_is_better: false,
        bound: Some(bound),
        exact,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        higher_is_better: false,
        bound: None,
        exact: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        higher_is_better: true,
        bound: None,
        exact: false,
    }
}

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u32 = 15;

/// What a user of the simulator sees. All lower-is-better.
pub const END_TO_END: &[Def] = &[
    e2e("wall_s", "s", 0.25, false),
    e2e("setup_s", "s", 0.25, false),
    e2e("peak_footprint_bytes", "bytes", 0.01, true),
];

/// One layer each; the prefix is the layer (= module) name.
pub const PER_LAYER: &[Def] = &[
    lower("circuit.build_s", "s"),
    lower("circuit.gates", "count"),
    lower("circuit.plan_s", "s"),
    lower("circuit.plan_stages", "count"),
    lower("circuit.plan_chunk_visits", "count"),
    lower("circuit.plan_gates", "count"),
    lower("compress.encode_calls", "count"),
    lower("compress.decode_calls", "count"),
    lower("compress.encode_busy_s", "s"),
    lower("compress.decode_busy_s", "s"),
    lower("compress.encode_ns_per_amp", "ns/amp"),
    lower("compress.decode_ns_per_amp", "ns/amp"),
    lower("compress.bytes_in", "bytes"),
    lower("compress.bytes_out", "bytes"),
    higher("compress.ratio", "x"),
    lower("compress.zero_input_share", "share"),
    lower("compress.replay_encode_ns_per_amp", "ns/amp"),
    lower("compress.replay_decode_ns_per_amp", "ns/amp"),
    lower("store.load_calls", "count"),
    lower("store.store_calls", "count"),
    lower("store.payload_calls", "count"),
    lower("store.swap_calls", "count"),
    lower("store.flush_calls", "count"),
    lower("store.load_busy_s", "s"),
    lower("store.store_busy_s", "s"),
    lower("store.load_self_s", "s"),
    lower("store.store_self_s", "s"),
    lower("store.self_ns_per_amp", "ns/amp"),
    lower("store.unchanged_store_share", "share"),
    lower("store.zero_store_share", "share"),
    higher("store.cache_hit_rate", "share"),
    lower("store.peak_state_bytes", "bytes"),
    higher("store.final_ratio", "x"),
    lower("engine.stages", "count"),
    lower("engine.groups", "count"),
    lower("engine.chunk_visits", "count"),
    lower("engine.submit_busy_s", "s"),
    lower("engine.submit_self_s", "s"),
    lower("engine.end_stage_busy_s", "s"),
    lower("engine.barrier_wait_s", "s"),
    lower("engine.exec_self_s", "s"),
    lower("engine.driver_self_s", "s"),
    lower("engine.report_decode_s", "s"),
    lower("engine.report_apply_s", "s"),
    lower("engine.report_encode_s", "s"),
    lower("engine.apply_ns_per_amp_gate", "ns/amp/gate"),
    higher("engine.role_overlap_s", "s"),
    lower("engine.peak_buffer_bytes", "bytes"),
    lower("statevec.dense_wall_s", "s"),
    lower("statevec.h_ns_per_amp", "ns/amp"),
    lower("statevec.cx_ns_per_amp", "ns/amp"),
    lower("statevec.cphase_ns_per_amp", "ns/amp"),
    lower("statevec.h_group_ns_per_amp", "ns/amp"),
    lower("statevec.apply_all_group_ns_per_amp_gate", "ns/amp/gate"),
    higher("statevec.copy_gb_s", "GB/s"),
    higher("statevec.h_gb_s_computed", "GB/s"),
    higher("statevec.h_bw_share", "share"),
    higher("statevec.copy_array_bytes", "bytes"),
    higher("statevec.llc_bytes", "bytes"),
    lower("device.modeled_s", "s"),
    lower("device.modeled_h2d_s", "s"),
    lower("device.modeled_d2h_s", "s"),
    lower("device.modeled_kernel_s", "s"),
    lower("device.modeled_wait_s", "s"),
    lower("device.real_s", "s"),
    lower("device.commands", "count"),
    lower("device.bytes_h2d", "bytes"),
    lower("device.bytes_d2h", "bytes"),
    lower("device.pinned_bytes", "bytes"),
    lower("device.buffer_bytes", "bytes"),
    lower("telemetry.spans", "count"),
    lower("telemetry.span_ns", "ns"),
    lower("telemetry.est_share", "share"),
    lower("trace.spans", "count"),
    lower("trace.probe_s", "s"),
    lower("trace.overhead_share", "share"),
    higher("trace.accounted_share", "share"),
];

/// Measured values by metric name, checked against a table on the way out.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let previous = self.0.insert(name, value);
        assert!(previous.is_none(), "metric {name} set twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `metrics` object of the result line: every metric of `defs`, in
    /// table order, and nothing else.
    pub fn to_json(&self, defs: &[Def]) -> Result<Json, String> {
        if let Some(extra) = self.0.keys().find(|k| defs.iter().all(|d| d.name != **k)) {
            return Err(format!("metric {extra} is not in the table"));
        }
        let mut fields = Vec::with_capacity(defs.len());
        for d in defs {
            let v = self
                .get(d.name)
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is {v}", d.name));
            }
            fields.push((
                d.name,
                Json::object([("value", Json::Num(v)), ("unit", Json::str(d.unit))]),
            ));
        }
        Ok(Json::object(fields))
    }
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let better = |d: &Def| {
        Json::str(if d.higher_is_better {
            "higher"
        } else {
            "lower"
        })
    };
    Json::object([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "perf_suite/Cargo.toml",
                    "--",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("perf_suite")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::object([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|d| {
                        Json::object([
                            ("name", Json::str(d.name)),
                            ("unit", Json::str(d.unit)),
                            ("better", better(d)),
                            (
                                "bound",
                                Json::Num(d.bound.expect("end-to-end metrics are bounded")),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|d| {
                        Json::object([
                            ("name", Json::str(d.name)),
                            ("unit", Json::str(d.unit)),
                            ("better", better(d)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(d.name, 64, "_.-"), "{}", d.name);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name_ok(d.unit, 16, "_/%.-"), "{} unit {}", d.name, d.unit);
            assert!(seen.insert(d.name), "{} listed twice", d.name);
        }
        for w in &WORKLOADS {
            assert!(name_ok(w.name, 64, "_.-") && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25) && !d.higher_is_better));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!(setup.unit, "s");
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
        assert!(benchmark_json().len() < 64 << 10);
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with: cargo run --release --offline --manifest-path perf_suite/Cargo.toml -- --print-benchmark-json > BENCHMARK.json"
        );
        crate::json::parse::parse(&committed).expect("BENCHMARK.json parses");
    }

    #[test]
    fn values_reject_missing_and_unknown_metrics() {
        let mut v = Values::default();
        v.set("wall_s", 1.5);
        assert!(v.to_json(END_TO_END).unwrap_err().contains("setup_s"));
        v.set("setup_s", 0.25);
        v.set("peak_footprint_bytes", 1024.0);
        let json = v.to_json(END_TO_END).unwrap().to_string();
        assert!(json.starts_with("{\"wall_s\":{\"value\":1.5,\"unit\":\"s\"}"));
        v.set("circuit.gates", 3.0);
        assert!(v.to_json(END_TO_END).unwrap_err().contains("circuit.gates"));
    }
}
