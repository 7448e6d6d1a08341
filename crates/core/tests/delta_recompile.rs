//! Property grid for [`Compiler::recompile_delta`]: every workload ×
//! Table-3 topology × fault site must either produce a *valid* degraded
//! plan (schedule, allocation, and program all re-validate against the
//! rerouted DAG, and the simulator delivers correct data on it) or be
//! denied by the sanitize gate with an RA005 finding. Unchanged-mask
//! deltas must be byte-equivalent to the cached plan without re-running
//! any phase.

use rescc_core::Compiler;
use rescc_ir::DepDag;
use rescc_lang::AlgoSpec;
use rescc_topology::{NicId, Rank, Topology, TopologyHealth};
use std::time::Duration;

const MB: u64 = 1 << 20;

/// The workload axis: one expert, one multi-ring, one synthesized
/// algorithm per topology shape.
fn workloads(topo: &Topology) -> Vec<(&'static str, AlgoSpec)> {
    let (nodes, g) = (topo.n_nodes(), topo.gpus_per_node());
    vec![
        ("hm_allreduce", rescc_algos::hm_allreduce(nodes, g)),
        (
            "nccl_rings_allgather",
            rescc_algos::nccl_rings_allgather(nodes, g, 2),
        ),
        (
            "taccl_like_allgather",
            rescc_algos::taccl_like_allgather(nodes, g),
        ),
    ]
}

/// The fault axis: intra-node NVLink channels at different offsets plus a
/// NIC transmit direction.
fn fault_sites(topo: &Topology) -> Vec<(String, TopologyHealth)> {
    let g = topo.gpus_per_node();
    let mut sites = Vec::new();
    let chan = |a: u32, b: u32| {
        let mut h = TopologyHealth::default();
        h.mask(topo.pair_chan(Rank::new(a), Rank::new(b)));
        (format!("chan({a},{b})"), h)
    };
    sites.push(chan(0, 1));
    sites.push(chan(g - 2, g - 1));
    // A channel on the second node, crossing NIC-sharing pairs.
    sites.push(chan(g, g + 2));
    let mut h = TopologyHealth::default();
    h.mask(topo.nic_tx(NicId::new(0)));
    sites.push(("nic_tx(0)".into(), h));
    sites
}

#[test]
fn unchanged_mask_is_byte_equivalent_across_grid() {
    let compiler = Compiler::new();
    for i in 1..=4 {
        let topo = Topology::table3_topo(i).unwrap();
        for (name, spec) in workloads(&topo) {
            let plan = compiler.compile_spec(&spec, &topo).unwrap();
            let delta = compiler.recompile_delta(&plan, plan.topo.health()).unwrap();
            assert!(
                delta.semantic_eq(&plan),
                "{name} on {}: unchanged-mask delta diverged",
                topo.name()
            );
            // The delta's own phase timings, not the process-global phase
            // counters, which sibling tests in this binary bump concurrently.
            assert_eq!(
                delta.timings.total(),
                Duration::ZERO,
                "{name} on {}: identity delta re-ran a phase",
                topo.name()
            );
        }
    }
}

#[test]
fn unchanged_mask_delta_equals_a_full_recompile() {
    // Compilation is deterministic, so for an unchanged mask the delta
    // (which returns the cached plan) must be byte-identical to a fresh
    // full compile against the same degraded topology — including when
    // the cached plan itself already carries a non-empty mask.
    let compiler = Compiler::new();
    for i in 1..=4 {
        let topo = Topology::table3_topo(i).unwrap();
        for (name, spec) in workloads(&topo) {
            let mut health = TopologyHealth::default();
            health.mask(topo.pair_chan(Rank::new(0), Rank::new(1)));
            let degraded = topo.clone().with_health(health.clone());
            let Ok(cached) = compiler.compile_spec(&spec, &degraded) else {
                // Workloads with no healthy route under this mask are
                // covered by the RA005 tests.
                continue;
            };
            let delta = compiler.recompile_delta(&cached, &health).unwrap();
            let full = compiler.compile_spec(&spec, &degraded).unwrap();
            assert!(
                delta.semantic_eq(&full),
                "{name} on {}: unchanged-mask delta differs from a full recompile",
                topo.name()
            );
        }
    }
}

#[test]
fn delta_plans_are_valid_or_denied_with_ra005() {
    let compiler = Compiler::new();
    for i in 1..=4 {
        let topo = Topology::table3_topo(i).unwrap();
        for (name, spec) in workloads(&topo) {
            let plan = compiler.compile_spec(&spec, &topo).unwrap();
            for (site, health) in fault_sites(&topo) {
                let ctx = format!("{name} on {} with {site}", topo.name());
                match compiler.recompile_delta(&plan, &health) {
                    Ok(delta) => {
                        assert_eq!(delta.topo.health(), &health, "{ctx}: health not applied");
                        delta
                            .schedule
                            .validate(&delta.dag)
                            .unwrap_or_else(|e| panic!("{ctx}: invalid schedule: {e}"));
                        delta
                            .alloc
                            .validate(&delta.dag, &delta.schedule)
                            .unwrap_or_else(|e| panic!("{ctx}: invalid allocation: {e}"));
                        delta
                            .program
                            .validate(&delta.dag)
                            .unwrap_or_else(|e| panic!("{ctx}: invalid program: {e}"));
                        assert!(
                            delta.diagnostics.is_clean(),
                            "{ctx}: delta plan carries diagnostics: {}",
                            delta.diagnostics.render_human()
                        );
                        let report = delta
                            .run(64 * MB, MB)
                            .unwrap_or_else(|e| panic!("{ctx}: sim failed: {e}"));
                        assert_eq!(report.data_valid, Some(true), "{ctx}: wrong data");
                    }
                    Err(e) => {
                        // The only legitimate refusal is the lint gate
                        // catching a route over a masked resource.
                        assert!(
                            e.to_string().contains("RA005"),
                            "{ctx}: denied without an RA005 finding: {e}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn delta_dag_matches_fresh_build_on_degraded_topology() {
    let compiler = Compiler::new();
    for i in 1..=4 {
        let topo = Topology::table3_topo(i).unwrap();
        for (name, spec) in workloads(&topo) {
            let plan = compiler.compile_spec(&spec, &topo).unwrap();
            for (site, health) in fault_sites(&topo) {
                let Ok(delta) = compiler.recompile_delta(&plan, &health) else {
                    continue;
                };
                let degraded = topo.clone().with_health(health);
                let fresh = DepDag::build(&spec, &degraded)
                    .unwrap_or_else(|e| panic!("{name} {site}: fresh build failed: {e}"));
                assert_eq!(
                    delta.dag,
                    fresh,
                    "{name} on {} with {site}: rerouted DAG diverges from a fresh build",
                    topo.name()
                );
            }
        }
    }
}

#[test]
fn masking_every_nic_tx_on_a_node_is_denied() {
    let compiler = Compiler::new();
    for i in 1..=4 {
        let topo = Topology::table3_topo(i).unwrap();
        let spec = rescc_algos::hm_allreduce(topo.n_nodes(), topo.gpus_per_node());
        let plan = compiler.compile_spec(&spec, &topo).unwrap();
        let mut health = TopologyHealth::default();
        for nic in 0..topo.spec().nics_per_node {
            health.mask(topo.nic_tx(NicId::new(nic)));
        }
        let err = compiler
            .recompile_delta(&plan, &health)
            .expect_err("a node with no transmit NIC cannot host inter-node transfers");
        assert!(
            err.to_string().contains("RA005"),
            "{}: expected an RA005 denial, got: {err}",
            topo.name()
        );
    }
}
