//! Checks of the benchmark itself. In the tiny mode: every metric
//! `BENCHMARK.json` declares is emitted with its unit for every workload,
//! and the request stream and its simulated results repeat exactly for a
//! seed. Through the binary: `--workload all` runs each workload in a
//! process of its own.

use rescc_obs::{parse_json, JsonValue};
use rescc_perfbench::{run, Options, Outcome, Scale, Workload};

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse_json(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let root = benchmark_json();
    let mut out: Vec<(String, String)> = root
        .get(section)
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .expect("metric name and unit")
            };
            (field("name").to_string(), field("unit").to_string())
        })
        .collect();
    out.sort();
    out
}

fn smoke(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let out = run(&Options {
        workload,
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::Smoke,
    });
    assert!(
        out.correct,
        "{} seed {seed} trace {trace} failed its checks: {:?}",
        workload.name(),
        out.notes
    );
    out
}

#[test]
fn declared_workloads_are_the_implemented_ones() {
    let root = benchmark_json();
    let names: Vec<&str> = root
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .expect("workloads list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("workload name")
        })
        .collect();
    let implemented: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, implemented);
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    for (section, trace) in [("end_to_end", false), ("per_layer", true)] {
        let want = declared(section);
        for w in Workload::ALL {
            let out = smoke(w, 1, trace);
            let mut got: Vec<(String, String)> = out
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            got.sort();
            assert_eq!(got, want, "{} {section}", w.name());
            for m in &out.metrics {
                assert!(m.value.is_finite(), "{} {}: {}", w.name(), m.name, m.value);
            }
        }
    }
}

#[test]
fn a_seed_repeats_exactly_and_another_seed_changes_the_stream() {
    let sim_metrics = |o: &Outcome| -> Vec<(&'static str, f64)> {
        o.metrics
            .iter()
            .filter(|m| matches!(m.name, "sim_time_ms" | "algbw_gbps" | "success_frac"))
            .map(|m| (m.name, m.value))
            .collect()
    };
    for w in Workload::ALL {
        let a = smoke(w, 5, false);
        let b = smoke(w, 5, false);
        assert_eq!(a.stream_digest, b.stream_digest, "{}", w.name());
        assert_eq!(a.tally, b.tally, "{}: counts and simulated times", w.name());
        assert_eq!(sim_metrics(&a), sim_metrics(&b), "{}", w.name());
        assert_eq!(sim_metrics(&a).len(), 3);
        let c = smoke(w, 6, false);
        assert_ne!(
            a.stream_digest,
            c.stream_digest,
            "{}: seed must change the stream",
            w.name()
        );
    }
}

#[test]
fn all_runs_every_workload_in_a_process_of_its_own() {
    // Peak memory (VmHWM) and the allocator's retained memory belong to a
    // process, so `--workload all` must not run two workloads in one.
    // This runs the full-scale workloads once each (about a minute in a
    // release build).
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_rescc-perfbench"))
        .args([
            "--workload",
            "all",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ])
        .output()
        .expect("run the benchmark binary");
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "--workload all failed:\n{text}");
    let lines: Vec<JsonValue> = text
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| parse_json(l).unwrap_or_else(|e| panic!("{l}: {e}")))
        .collect();
    let mut pids: Vec<u64> = lines
        .iter()
        .filter_map(|v| v.get("meta")?.get("pid")?.as_f64())
        .map(|p| p as u64)
        .collect();
    pids.sort_unstable();
    pids.dedup();
    assert_eq!(pids.len(), Workload::ALL.len(), "one process per workload");
    let want: Vec<String> = declared("end_to_end").into_iter().map(|(n, _)| n).collect();
    let results: Vec<&JsonValue> = lines
        .iter()
        .filter(|v| v.get("correct").is_some())
        .collect();
    assert_eq!(results.len(), Workload::ALL.len());
    for r in results {
        let metrics = r.get("metrics").expect("metrics");
        for name in &want {
            assert!(metrics.get(name).is_some(), "{name} missing:\n{text}");
        }
    }
}
