//! **Simbench** — simulator wall-time benchmark behind `BENCH_sim.json`.
//!
//! Regression fix: the committed `BENCH_sim.json` used to be produced by
//! a single-iteration benchmark, so scheduler noise could (and did, for
//! the `table3-2x8` and `table3-4x4` scenarios) make the *warm* path —
//! which skips compilation entirely — look slower than the cold path.
//! This generator runs every scenario `N = 5` times per configuration
//! and reports the **median with min/max spread**, making the committed
//! numbers robust to single-run outliers; it also asserts the sane
//! ordering (warm median ≤ cold median) that the old file violated.
//!
//! * **cold** — full pipeline per iteration: compile the spec, then
//!   simulate.
//! * **warm** — the plan compiled once up front, per-iteration cost is
//!   simulation only.
//!
//! `Minv/s` is the engine's throughput on the warm path: simulated
//! primitive invocations per second of warm wall time. The `hm-*` rows
//! run one shape, the 64 MB hm AllReduce, at 32, 128 and 256 ranks (512
//! under the stress gate), so a throughput that falls with scale shows
//! here; the 256-rank over 32-rank `Minv/s` ratio is printed.
//!
//! The 512-rank row and the 1024-rank stress scenario take minutes and
//! are gated behind `RESCC_BENCH_STRESS=1`; when the gate is off that is
//! logged, not silently skipped.

use super::observability::median_min_max;
use crate::{print_table, MB};
use rescc_algos::{hm_allreduce, ring_allgather};
use rescc_core::Compiler;
use rescc_lang::AlgoSpec;
use rescc_sim::SimConfig;
use rescc_topology::{ClusterSpec, FabricParams, LinkParams, Topology};

const ITERS: usize = 5;

struct Scenario {
    name: &'static str,
    topo: Topology,
    spec: AlgoSpec,
    buffer: u64,
}

/// The oversubscribed single-NIC P2P fabric of Figure 4.
fn fig4_topo() -> Topology {
    Topology::new(
        "fig4-p2p",
        ClusterSpec {
            n_nodes: 2,
            gpus_per_node: 1,
            nics_per_node: 1,
        },
        FabricParams {
            inter: LinkParams::new(25.0, 10.0, 4),
            ..FabricParams::a100()
        },
    )
}

fn scenarios(stress: bool) -> Vec<Scenario> {
    let mut out = vec![
        Scenario {
            name: "fig4-oversub",
            topo: fig4_topo(),
            spec: ring_allgather(2),
            buffer: 256 * MB,
        },
        Scenario {
            name: "table3-2x4",
            topo: Topology::a100(2, 4),
            spec: hm_allreduce(2, 4),
            buffer: 128 * MB,
        },
        Scenario {
            name: "table3-2x8",
            topo: Topology::a100(2, 8),
            spec: hm_allreduce(2, 8),
            buffer: 64 * MB,
        },
        Scenario {
            name: "table3-4x4",
            topo: Topology::a100(4, 4),
            spec: hm_allreduce(4, 4),
            buffer: 64 * MB,
        },
        Scenario {
            name: "table3-4x8",
            topo: Topology::a100(4, 8),
            spec: hm_allreduce(4, 8),
            buffer: 32 * MB,
        },
        Scenario {
            name: "hm-4x8",
            topo: Topology::a100(4, 8),
            spec: hm_allreduce(4, 8),
            buffer: 64 * MB,
        },
        Scenario {
            name: "hm-16x8",
            topo: Topology::a100(16, 8),
            spec: hm_allreduce(16, 8),
            buffer: 64 * MB,
        },
        Scenario {
            name: "hm-32x8",
            topo: Topology::a100(32, 8),
            spec: hm_allreduce(32, 8),
            buffer: 64 * MB,
        },
    ];
    if stress {
        out.push(Scenario {
            name: "hm-64x8-stress",
            topo: Topology::a100(64, 8),
            spec: hm_allreduce(64, 8),
            buffer: 64 * MB,
        });
        out.push(Scenario {
            name: "table3-128x8-stress",
            topo: Topology::a100(128, 8),
            spec: hm_allreduce(128, 8),
            buffer: 32 * MB,
        });
    }
    out
}

/// Run the simulator benchmark and write `BENCH_sim.json`.
pub fn run() {
    let stress = std::env::var("RESCC_BENCH_STRESS").map(|v| v == "1") == Ok(true);
    if !stress {
        println!("simbench: stress scenarios skipped (set RESCC_BENCH_STRESS=1 to include)");
    }
    let compiler = Compiler::new();
    let cfg = SimConfig::default().without_validation();
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    // Warm `Minv/s` of the 32- and 256-rank hm rows.
    let (mut minv_32, mut minv_256) = (f64::NAN, f64::NAN);

    for sc in scenarios(stress) {
        let warm_plan = compiler
            .compile_spec(&sc.spec, &sc.topo)
            .unwrap_or_else(|e| panic!("simbench: compile '{}': {e}", sc.name));
        let reference = warm_plan
            .run_with(sc.buffer, MB, &cfg)
            .unwrap_or_else(|e| panic!("simbench: run '{}': {e}", sc.name));

        let mut cold_s = Vec::with_capacity(ITERS);
        let mut warm_s = Vec::with_capacity(ITERS);
        let mut identical = true;
        for _ in 0..ITERS {
            let t = std::time::Instant::now();
            let plan = compiler.compile_spec(&sc.spec, &sc.topo).expect("compile");
            let rep = plan.run_with(sc.buffer, MB, &cfg).expect("cold run");
            cold_s.push(t.elapsed().as_secs_f64());
            identical &= rep == reference;

            let t = std::time::Instant::now();
            let rep = warm_plan.run_with(sc.buffer, MB, &cfg).expect("warm run");
            warm_s.push(t.elapsed().as_secs_f64());
            identical &= rep == reference;
        }
        assert!(identical, "'{}': replays diverged", sc.name);

        let (cold_med, cold_min, cold_max) = median_min_max(&mut cold_s);
        let (warm_med, warm_min, warm_max) = median_min_max(&mut warm_s);
        let minv_per_s = reference.n_invocations as f64 / warm_med / 1e6;
        match sc.name {
            "hm-4x8" => minv_32 = minv_per_s,
            "hm-32x8" => minv_256 = minv_per_s,
            _ => {}
        }
        // The regression this file guards against: warm skips the whole
        // compile pipeline, so its median can never legitimately exceed
        // the cold median.
        assert!(
            warm_med <= cold_med,
            "'{}': warm median {warm_med:.6}s slower than cold {cold_med:.6}s",
            sc.name
        );

        rows.push(vec![
            sc.name.to_string(),
            sc.topo.n_ranks().to_string(),
            reference.n_invocations.to_string(),
            format!(
                "{:.3}ms [{:.3}, {:.3}]",
                cold_med * 1e3,
                cold_min * 1e3,
                cold_max * 1e3
            ),
            format!(
                "{:.3}ms [{:.3}, {:.3}]",
                warm_med * 1e3,
                warm_min * 1e3,
                warm_max * 1e3
            ),
            format!("{:.2}x", cold_med / warm_med),
            format!("{minv_per_s:.3}"),
        ]);
        json_rows.push(format!(
            "    {{\"name\": \"{}\", \"ranks\": {}, \"invocations\": {}, \
             \"cold_s\": {{\"median\": {cold_med:.6}, \"min\": {cold_min:.6}, \"max\": {cold_max:.6}}}, \
             \"warm_s\": {{\"median\": {warm_med:.6}, \"min\": {warm_min:.6}, \"max\": {warm_max:.6}}}, \
             \"cold_over_warm\": {:.3}, \"minv_per_s\": {minv_per_s:.4}, \"identical\": true}}",
            sc.name,
            sc.topo.n_ranks(),
            reference.n_invocations,
            cold_med / warm_med,
        ));
    }

    print_table(
        "Simbench: cold (compile+sim) vs warm (cached plan) wall time, median of 5 [min, max]",
        &[
            "scenario",
            "ranks",
            "invocations",
            "cold",
            "warm",
            "cold/warm",
            "Minv/s",
        ],
        &rows,
    );
    println!("medians over {ITERS} iterations; warm ≤ cold is asserted, not assumed.");
    let scale_ratio = minv_256 / minv_32;
    println!("hm 64 MB AllReduce, Minv/s at 256 ranks / 32 ranks: {scale_ratio:.3}");

    let json = format!(
        "{{\n  \"iters\": {ITERS},\n  \"minv_256_over_32\": {scale_ratio:.4},\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n"),
    );
    match std::fs::write("BENCH_sim.json", &json) {
        Ok(()) => println!("wrote BENCH_sim.json"),
        Err(e) => eprintln!("could not write BENCH_sim.json: {e}"),
    }
}
