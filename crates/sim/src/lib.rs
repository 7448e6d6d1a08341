//! # rescc-sim
//!
//! Deterministic discrete-event simulator for collective communication on a
//! GPU cluster. This crate substitutes for the paper's physical testbed
//! (A100/V100 servers, NVSwitch, RoCE Clos): it executes generated
//! [`KernelProgram`](rescc_kernel::KernelProgram)s primitive-by-primitive,
//! arbitrates link bandwidth with the α–β–γ cost model of Eq. (1), and
//! accounts exactly the quantities the paper measures — per-TB busy / sync /
//! release times, per-link activity, completion time, and machine-checked
//! collective correctness.
//!
//! ```
//! use rescc_alloc::TbAllocation;
//! use rescc_ir::{DepDag, MicroBatchPlan};
//! use rescc_kernel::{ExecMode, KernelProgram, LoopOrder};
//! use rescc_lang::{AlgoBuilder, OpType};
//! use rescc_sched::hpds;
//! use rescc_sim::{simulate, SimConfig};
//! use rescc_topology::Topology;
//!
//! // Ring AllGather over one 4-GPU server.
//! let mut b = AlgoBuilder::new("Ring", OpType::AllGather, 4);
//! for r in 0..4u32 {
//!     for step in 0..3u32 {
//!         b.recv(r, (r + 1) % 4, step, (r + 4 - step) % 4);
//!     }
//! }
//! let topo = Topology::a100(1, 4);
//! let dag = DepDag::build(&b.build().unwrap(), &topo).unwrap();
//! let sched = hpds(&dag);
//! let alloc = TbAllocation::state_based(&dag, &sched);
//! let prog = KernelProgram::generate("Ring", &dag, &alloc,
//!     LoopOrder::SlotMajor, ExecMode::DirectKernel);
//! let plan = MicroBatchPlan::plan(64 << 20, 4, 1 << 20);
//! let report = simulate(&topo, &dag, &prog, &plan, OpType::AllGather,
//!     &SimConfig::default()).unwrap();
//! assert_eq!(report.data_valid, Some(true));
//! assert!(report.completion_ns > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod error;
mod fault;
mod frontier;
mod metrics;
mod obs;
mod queue;
mod trace;
mod value;

pub use config::SimConfig;
pub use engine::simulate;
pub use error::{SimError, SimResult};
pub use fault::{Fault, FaultEvent, FaultTimeline};
pub use frontier::{FaultFrontier, ReplayOp, ResumeState};
pub use metrics::{ResourceStat, SimReport, TbStat};
pub use obs::{BubbleCause, BubbleInterval, LinkTimeline, SimObservability, TbTimeline};
pub use trace::{
    render_gantt, render_gantt_directed, BottleneckReport, FaultRecord, GanttDirection, TraceEvent,
};
pub use value::{expected_final, initial_value, ChunkValue};

#[cfg(test)]
mod tests {
    use super::*;
    use rescc_alloc::TbAllocation;
    use rescc_ir::{DepDag, MicroBatchPlan};
    use rescc_kernel::{ExecMode, KernelProgram, LoopOrder};
    use rescc_lang::{AlgoBuilder, OpType};
    use rescc_sched::hpds;
    use rescc_topology::{Rank, Topology};

    fn ring_ag(n: u32) -> rescc_lang::AlgoSpec {
        let mut b = AlgoBuilder::new("Ring", OpType::AllGather, n);
        for r in 0..n {
            for step in 0..n - 1 {
                b.recv(r, (r + 1) % n, step, (r + n - step) % n);
            }
        }
        b.build().unwrap()
    }

    fn build_all(
        spec: &rescc_lang::AlgoSpec,
        topo: &Topology,
        order: LoopOrder,
        exec: ExecMode,
    ) -> (DepDag, KernelProgram) {
        let dag = DepDag::build(spec, topo).unwrap();
        let sched = hpds(&dag);
        let alloc = TbAllocation::state_based(&dag, &sched);
        let prog = KernelProgram::generate(spec.name(), &dag, &alloc, order, exec);
        (dag, prog)
    }

    #[test]
    fn single_transfer_takes_alpha_plus_c_beta() {
        // One task, one micro-batch: completion must equal the serial cost.
        let mut b = AlgoBuilder::new("p2p", OpType::AllGather, 2);
        b.recv(0, 1, 0, 0);
        // For a 2-rank AllGather the reverse direction is also needed for
        // correctness — disable validation and check pure timing.
        let spec = b.build().unwrap();
        let topo = Topology::a100(1, 2);
        let (dag, prog) = build_all(&spec, &topo, LoopOrder::SlotMajor, ExecMode::DirectKernel);
        let plan = MicroBatchPlan::plan(2 << 20, 2, 1 << 20); // 1 MiB chunks, 1 mb
        let cfg = SimConfig::default().without_validation();
        let rep = simulate(&topo, &dag, &prog, &plan, OpType::AllGather, &cfg).unwrap();
        // A single TB drives the pair channel at its TB-limited rate
        // (`bandwidth / saturation_tbs` — one 16-warp TB cannot saturate
        // the 300 GB/s NVSwitch pair on its own).
        let conn = topo.connection(Rank::new(0), Rank::new(1));
        let expect = conn.params.shared_cost_ns(1 << 20, 1);
        assert!(
            (rep.completion_ns - expect).abs() < 1e-6,
            "got {}, expected {}",
            rep.completion_ns,
            expect
        );
    }

    #[test]
    fn ring_allgather_is_correct_and_timed() {
        let topo = Topology::a100(1, 8);
        let spec = ring_ag(8);
        let (dag, prog) = build_all(&spec, &topo, LoopOrder::SlotMajor, ExecMode::DirectKernel);
        let plan = MicroBatchPlan::plan(256 << 20, 8, 1 << 20); // 32 micro-batches
        let rep = simulate(
            &topo,
            &dag,
            &prog,
            &plan,
            OpType::AllGather,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(rep.data_valid, Some(true));
        assert_eq!(rep.n_invocations, 56 * 32);
        // Sanity: bandwidth positive and below NVLink line rate.
        let bw = rep.algo_bandwidth_gbps(256 << 20);
        assert!(bw > 1.0 && bw < 300.0, "bandwidth {bw} out of range");
    }

    #[test]
    fn ring_allgather_multi_node_correct() {
        let topo = Topology::a100(2, 4);
        let spec = ring_ag(8);
        let (dag, prog) = build_all(&spec, &topo, LoopOrder::SlotMajor, ExecMode::DirectKernel);
        let plan = MicroBatchPlan::plan(64 << 20, 8, 1 << 20);
        let rep = simulate(
            &topo,
            &dag,
            &prog,
            &plan,
            OpType::AllGather,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(rep.data_valid, Some(true));
    }

    #[test]
    fn reduce_scatter_ring_is_correct() {
        // Ring ReduceScatter: rank r sends chunk (r - step) around; rrc.
        let n = 4u32;
        let mut b = AlgoBuilder::new("RingRS", OpType::ReduceScatter, n);
        for r in 0..n {
            for step in 0..n - 1 {
                // Standard ring RS: chunk c starts its journey at rank c+1
                // and accumulates around the ring, ending at rank c. Rank r
                // at step s forwards chunk (r - s - 1) mod n.
                b.rrc(r, (r + 1) % n, step, (r + n - step - 1) % n);
            }
        }
        let spec = b.build().unwrap();
        let topo = Topology::a100(1, 4);
        let (dag, prog) = build_all(&spec, &topo, LoopOrder::SlotMajor, ExecMode::DirectKernel);
        let plan = MicroBatchPlan::plan(16 << 20, 4, 1 << 20);
        let rep = simulate(
            &topo,
            &dag,
            &prog,
            &plan,
            OpType::ReduceScatter,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(rep.data_valid, Some(true));
    }

    #[test]
    fn wrong_algorithm_fails_validation() {
        // An "AllGather" that only moves one chunk cannot validate.
        let mut b = AlgoBuilder::new("broken", OpType::AllGather, 4);
        b.recv(0, 1, 0, 0).recv(1, 2, 1, 0).recv(2, 3, 2, 0);
        let spec = b.build().unwrap();
        let topo = Topology::a100(1, 4);
        let (dag, prog) = build_all(&spec, &topo, LoopOrder::SlotMajor, ExecMode::DirectKernel);
        let plan = MicroBatchPlan::plan(4 << 20, 4, 1 << 20);
        let err = simulate(
            &topo,
            &dag,
            &prog,
            &plan,
            OpType::AllGather,
            &SimConfig::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("wrong data"), "{err}");
    }

    #[test]
    fn interpreter_is_slower_than_direct_kernel() {
        let topo = Topology::a100(1, 8);
        let spec = ring_ag(8);
        let plan = MicroBatchPlan::plan(256 << 20, 8, 1 << 20);
        let cfg = SimConfig::default().without_validation();
        let (dag, direct) = build_all(&spec, &topo, LoopOrder::SlotMajor, ExecMode::DirectKernel);
        let (_, interp) = build_all(
            &spec,
            &topo,
            LoopOrder::SlotMajor,
            ExecMode::default_interpreter(),
        );
        let td = simulate(&topo, &dag, &direct, &plan, OpType::AllGather, &cfg)
            .unwrap()
            .completion_ns;
        let ti = simulate(&topo, &dag, &interp, &plan, OpType::AllGather, &cfg)
            .unwrap()
            .completion_ns;
        assert!(ti > td * 1.05, "interpreter {ti} vs direct {td}");
    }

    /// Hierarchical-mesh AllGather for a 2-node × 2-GPU cluster: intra
    /// full-mesh broadcast + inter ring, then intra rebroadcast of the
    /// remote chunks (the HM-AllGather of Appendix A at its smallest size).
    fn hm_ag_2x2() -> rescc_lang::AlgoSpec {
        let mut b = AlgoBuilder::new("HM-AG", OpType::AllGather, 4);
        // Stage 1: local mesh + cross-node exchange of the own chunk.
        b.recv(0, 1, 0, 0)
            .recv(1, 0, 0, 1)
            .recv(2, 3, 0, 2)
            .recv(3, 2, 0, 3)
            .recv(0, 2, 0, 0)
            .recv(2, 0, 0, 2)
            .recv(1, 3, 0, 1)
            .recv(3, 1, 0, 3);
        // Stage 2: rebroadcast the chunk received from the remote peer.
        b.recv(2, 3, 1, 0)
            .recv(3, 2, 1, 1)
            .recv(0, 1, 1, 2)
            .recv(1, 0, 1, 3);
        b.build().unwrap()
    }

    #[test]
    fn hm_allgather_2x2_is_correct() {
        let topo = Topology::a100(2, 2);
        let spec = hm_ag_2x2();
        let (dag, prog) = build_all(&spec, &topo, LoopOrder::SlotMajor, ExecMode::DirectKernel);
        let plan = MicroBatchPlan::plan(32 << 20, 4, 1 << 20);
        let rep = simulate(
            &topo,
            &dag,
            &prog,
            &plan,
            OpType::AllGather,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(rep.data_valid, Some(true));
    }

    #[test]
    fn slot_major_pipelines_better_than_mb_major_across_nodes() {
        // Task-level execution masks the bubbles a hierarchical algorithm
        // suffers under lazy execution: the fast NVLink rebroadcast phase
        // must wait for the slow NIC exchange every micro-batch, while
        // task-level execution overlaps phase 2 of micro-batch m with
        // phase 1 of micro-batch m+1.
        let topo = Topology::a100(2, 2);
        let spec = hm_ag_2x2();
        let plan = MicroBatchPlan::plan(512 << 20, 4, 1 << 20); // 128 mbs
        let cfg = SimConfig::default().without_validation();
        let (dag, slot) = build_all(&spec, &topo, LoopOrder::SlotMajor, ExecMode::DirectKernel);
        let (_, mbm) = build_all(
            &spec,
            &topo,
            LoopOrder::MicroBatchMajor,
            ExecMode::DirectKernel,
        );
        // Lazy algorithm-level execution: a barrier between micro-batches.
        let mbm = mbm.with_global_barrier(dag.len());
        let ts = simulate(&topo, &dag, &slot, &plan, OpType::AllGather, &cfg)
            .unwrap()
            .completion_ns;
        let tm = simulate(&topo, &dag, &mbm, &plan, OpType::AllGather, &cfg)
            .unwrap()
            .completion_ns;
        assert!(
            ts < tm,
            "task-level {ts} must beat algorithm-level {tm} on multi-node rings"
        );
    }

    #[test]
    fn determinism() {
        let topo = Topology::a100(2, 4);
        let spec = ring_ag(8);
        let (dag, prog) = build_all(&spec, &topo, LoopOrder::SlotMajor, ExecMode::DirectKernel);
        let plan = MicroBatchPlan::plan(64 << 20, 8, 1 << 20);
        let cfg = SimConfig::default();
        let a = simulate(&topo, &dag, &prog, &plan, OpType::AllGather, &cfg).unwrap();
        let b = simulate(&topo, &dag, &prog, &plan, OpType::AllGather, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn jitter_changes_times_but_not_correctness() {
        let topo = Topology::a100(1, 4);
        let spec = ring_ag(4);
        let (dag, prog) = build_all(&spec, &topo, LoopOrder::SlotMajor, ExecMode::DirectKernel);
        let plan = MicroBatchPlan::plan(16 << 20, 4, 1 << 20);
        let base = simulate(
            &topo,
            &dag,
            &prog,
            &plan,
            OpType::AllGather,
            &SimConfig::default(),
        )
        .unwrap();
        let jit = simulate(
            &topo,
            &dag,
            &prog,
            &plan,
            OpType::AllGather,
            &SimConfig::default().with_jitter(0.5, 42),
        )
        .unwrap();
        assert_eq!(jit.data_valid, Some(true));
        assert!(jit.completion_ns > base.completion_ns);
    }

    #[test]
    fn degraded_link_slows_the_run() {
        let topo = Topology::a100(2, 4);
        let spec = ring_ag(8);
        let (dag, prog) = build_all(&spec, &topo, LoopOrder::SlotMajor, ExecMode::DirectKernel);
        let plan = MicroBatchPlan::plan(128 << 20, 8, 1 << 20);
        let cfg = SimConfig::default().without_validation();
        let base = simulate(&topo, &dag, &prog, &plan, OpType::AllGather, &cfg).unwrap();
        // Degrade the NIC the ring crosses (rank 3 -> rank 4).
        let nic = topo.nic_tx(topo.nic_of(Rank::new(3)));
        let slow_cfg = cfg.clone().with_degraded(nic, 0.25);
        let slow = simulate(&topo, &dag, &prog, &plan, OpType::AllGather, &slow_cfg).unwrap();
        assert!(slow.completion_ns > base.completion_ns * 1.5);
    }

    #[test]
    fn early_release_shrinks_occupancy() {
        let topo = Topology::a100(1, 8);
        let spec = ring_ag(8);
        let (dag, prog) = build_all(&spec, &topo, LoopOrder::SlotMajor, ExecMode::DirectKernel);
        let plan = MicroBatchPlan::plan(64 << 20, 8, 1 << 20);
        let flex = simulate(
            &topo,
            &dag,
            &prog,
            &plan,
            OpType::AllGather,
            &SimConfig::default(),
        )
        .unwrap();
        let rigid = simulate(
            &topo,
            &dag,
            &prog,
            &plan,
            OpType::AllGather,
            &SimConfig::rigid(),
        )
        .unwrap();
        let occ_flex: f64 = flex.tb_stats.iter().map(|t| t.occupancy_ns).sum();
        let occ_rigid: f64 = rigid.tb_stats.iter().map(|t| t.occupancy_ns).sum();
        assert!(occ_flex <= occ_rigid);
        assert_eq!(flex.completion_ns, rigid.completion_ns);
    }

    #[test]
    fn channel_barrier_stride_keeps_streams_independent() {
        // Intra-node ring with 4 channels: the pair channels saturate at
        // exactly 4 concurrent TBs, so channel streams add parallelism
        // without contention — stride = 4 (independent streams) must beat
        // stride = 1 (micro-batch lockstep), and a barrier-free run must
        // not lose to the strided one.
        let topo = Topology::a100(1, 4);
        let spec = ring_ag(4);
        let dag = DepDag::build(&spec, &topo).unwrap();
        let sched = hpds(&dag);
        let plan = MicroBatchPlan::plan(256 << 20, 4, 1 << 20); // 64 mbs
        let cfg = SimConfig::rigid().without_validation();
        let run = |stride: Option<u32>| {
            let alloc = rescc_alloc::TbAllocation::connection_based(&dag, &sched, 4);
            let mut prog = KernelProgram::generate(
                "ring4",
                &dag,
                &alloc,
                LoopOrder::MicroBatchMajor,
                ExecMode::DirectKernel,
            );
            if let Some(k) = stride {
                prog = prog.with_global_barrier(dag.len()).with_barrier_stride(k);
            }
            simulate(&topo, &dag, &prog, &plan, spec.op(), &cfg)
                .unwrap()
                .completion_ns
        };
        let free = run(None);
        let strided = run(Some(4));
        let serial = run(Some(1));
        assert!(free <= strided * 1.001, "free {free} vs strided {strided}");
        assert!(
            strided < serial,
            "4 channel streams {strided} must beat lockstep {serial}"
        );
    }

    #[test]
    fn trace_records_every_invocation() {
        let topo = Topology::a100(1, 4);
        let spec = ring_ag(4);
        let (dag, prog) = build_all(&spec, &topo, LoopOrder::SlotMajor, ExecMode::DirectKernel);
        let plan = MicroBatchPlan::plan(16 << 20, 4, 1 << 20);
        let cfg = SimConfig::default().with_trace();
        let rep = simulate(&topo, &dag, &prog, &plan, OpType::AllGather, &cfg).unwrap();
        assert_eq!(rep.trace.len() as u64, rep.n_invocations);
        for e in &rep.trace {
            assert!(e.start_ns <= e.drain_start_ns && e.drain_start_ns <= e.end_ns);
            assert!(e.bytes > 0);
        }
    }

    #[test]
    fn link_death_mid_run_fails_with_typed_error() {
        let topo = Topology::a100(1, 4);
        let spec = ring_ag(4);
        let (dag, prog) = build_all(&spec, &topo, LoopOrder::SlotMajor, ExecMode::DirectKernel);
        let plan = MicroBatchPlan::plan(64 << 20, 4, 1 << 20);
        let base = simulate(
            &topo,
            &dag,
            &prog,
            &plan,
            OpType::AllGather,
            &SimConfig::default(),
        )
        .unwrap();
        let chan = topo.pair_chan(Rank::new(0), Rank::new(1));
        let at = base.completion_ns * 0.4;
        let cfg = SimConfig::default().with_faults(FaultTimeline::new().kill(chan, at));
        let err = simulate(&topo, &dag, &prog, &plan, OpType::AllGather, &cfg).unwrap_err();
        match err {
            SimError::ResourceDown {
                resource,
                at_ns,
                permanent,
                ..
            } => {
                assert_eq!(resource, chan.0);
                assert!(permanent, "kill() with no recovery is permanent");
                assert!(
                    (at_ns as f64 - at).abs() <= at * 0.5 + 1.0,
                    "failed at {at_ns}"
                );
            }
            other => panic!("expected ResourceDown, got {other}"),
        }
        assert!(!err.is_transient());
    }

    /// A no-prune resume state built straight from a frontier: every
    /// completed invocation marked done, with its buffer effect replayed
    /// in per-chunk dependency order.
    fn resume_from(dag: &DepDag, n_mb: u32, frontier: &FaultFrontier) -> ResumeState {
        use rescc_topology::ChunkId;
        let mut rs = ResumeState::new(dag.len() as u32, n_mb);
        for c in 0..dag.n_chunks() {
            for &t in dag.chunk_tasks(ChunkId::new(c)) {
                for mb in 0..n_mb {
                    if frontier.is_done(t.0, mb) {
                        rs.mark_done(t.0, mb);
                        let task = dag.task(t);
                        rs.replay.push(ReplayOp {
                            src: task.src.0,
                            dst: task.dst.0,
                            chunk: c,
                            mb,
                            reduce: task.comm == rescc_lang::CommType::Rrc,
                        });
                    }
                }
            }
        }
        rs
    }

    #[test]
    fn resume_from_frontier_finishes_with_valid_data_in_residual_time() {
        let topo = Topology::a100(1, 4);
        let spec = ring_ag(4);
        let (dag, prog) = build_all(&spec, &topo, LoopOrder::SlotMajor, ExecMode::DirectKernel);
        let plan = MicroBatchPlan::plan(64 << 20, 4, 1 << 20);
        let base = simulate(
            &topo,
            &dag,
            &prog,
            &plan,
            OpType::AllGather,
            &SimConfig::default(),
        )
        .unwrap();
        // Kill a channel at 60% of the healthy run.
        let chan = topo.pair_chan(Rank::new(0), Rank::new(1));
        let cfg = SimConfig::default()
            .with_faults(FaultTimeline::new().kill(chan, base.completion_ns * 0.6));
        let err = simulate(&topo, &dag, &prog, &plan, OpType::AllGather, &cfg).unwrap_err();
        let frontier = err.frontier().expect("abort carries a frontier").clone();
        assert!(frontier.completed() > 0, "60% kill must leave progress");
        assert!(
            frontier.completed() < base.n_invocations,
            "aborted run cannot have finished"
        );
        // Resume on a healthy fabric (the link was restored): only the
        // residual work runs, data still validates, and the residual run
        // is strictly cheaper than restarting from byte zero.
        let resume = resume_from(&dag, plan.n_micro_batches, &frontier);
        let rcfg = SimConfig::default().with_resume(resume);
        let rep = simulate(&topo, &dag, &prog, &plan, OpType::AllGather, &rcfg).unwrap();
        assert_eq!(rep.data_valid, Some(true));
        assert_eq!(rep.n_invocations, base.n_invocations);
        assert!(
            rep.completion_ns < base.completion_ns,
            "residual {} must be cheaper than a full run {}",
            rep.completion_ns,
            base.completion_ns
        );
    }

    #[test]
    fn resume_with_mismatched_dimensions_is_rejected() {
        let topo = Topology::a100(1, 4);
        let spec = ring_ag(4);
        let (dag, prog) = build_all(&spec, &topo, LoopOrder::SlotMajor, ExecMode::DirectKernel);
        let plan = MicroBatchPlan::plan(16 << 20, 4, 1 << 20);
        let cfg = SimConfig::default().with_resume(ResumeState::new(3, 99));
        let err = simulate(&topo, &dag, &prog, &plan, OpType::AllGather, &cfg).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn flapping_link_is_transient() {
        let topo = Topology::a100(1, 4);
        let spec = ring_ag(4);
        let (dag, prog) = build_all(&spec, &topo, LoopOrder::SlotMajor, ExecMode::DirectKernel);
        let plan = MicroBatchPlan::plan(64 << 20, 4, 1 << 20);
        let chan = topo.pair_chan(Rank::new(0), Rank::new(1));
        // Down for a window in the middle of the run, then back up.
        let cfg = SimConfig::default()
            .with_faults(FaultTimeline::new().flap(chan, 50_000.0, 100_000.0, 100_000.0, 1));
        let err = simulate(&topo, &dag, &prog, &plan, OpType::AllGather, &cfg).unwrap_err();
        assert!(err.is_transient(), "{err}");
        // A retry after the flap window (timeline shifted into the past)
        // sees the recovered link and completes correctly.
        let retry_cfg = SimConfig::default().with_faults(
            FaultTimeline::new()
                .flap(chan, 50_000.0, 100_000.0, 100_000.0, 1)
                .advanced(300_000.0),
        );
        let rep = simulate(&topo, &dag, &prog, &plan, OpType::AllGather, &retry_cfg).unwrap();
        assert_eq!(rep.data_valid, Some(true));
    }

    #[test]
    fn brownout_slows_but_completes() {
        let topo = Topology::a100(1, 4);
        let spec = ring_ag(4);
        let (dag, prog) = build_all(&spec, &topo, LoopOrder::SlotMajor, ExecMode::DirectKernel);
        let plan = MicroBatchPlan::plan(64 << 20, 4, 1 << 20);
        let cfg = SimConfig::default();
        let base = simulate(&topo, &dag, &prog, &plan, OpType::AllGather, &cfg).unwrap();
        let chan = topo.pair_chan(Rank::new(0), Rank::new(1));
        let brown = cfg.clone().with_faults(FaultTimeline::new().brownout(
            chan,
            0.0,
            0.1,
            base.completion_ns * 2.0,
        ));
        let rep = simulate(&topo, &dag, &prog, &plan, OpType::AllGather, &brown).unwrap();
        assert_eq!(rep.data_valid, Some(true));
        assert!(
            rep.completion_ns > base.completion_ns * 1.2,
            "brownout {} vs healthy {}",
            rep.completion_ns,
            base.completion_ns
        );
        assert!(!rep.faults.is_empty(), "transitions must be reported");
    }

    #[test]
    fn straggler_rank_slows_issue() {
        let topo = Topology::a100(1, 4);
        let spec = ring_ag(4);
        let (dag, prog) = build_all(&spec, &topo, LoopOrder::SlotMajor, ExecMode::DirectKernel);
        // Many small micro-batches so issue latency matters.
        let plan = MicroBatchPlan::plan(4 << 20, 4, 64 << 10);
        let cfg = SimConfig::default();
        let base = simulate(&topo, &dag, &prog, &plan, OpType::AllGather, &cfg).unwrap();
        let slow = cfg.clone().with_faults(FaultTimeline::new().straggler(
            2,
            0.0,
            20.0,
            base.completion_ns * 2.0,
        ));
        let rep = simulate(&topo, &dag, &prog, &plan, OpType::AllGather, &slow).unwrap();
        assert_eq!(rep.data_valid, Some(true));
        assert!(rep.completion_ns > base.completion_ns);
    }

    #[test]
    fn deadline_fires_when_too_tight() {
        let topo = Topology::a100(1, 4);
        let spec = ring_ag(4);
        let (dag, prog) = build_all(&spec, &topo, LoopOrder::SlotMajor, ExecMode::DirectKernel);
        let plan = MicroBatchPlan::plan(64 << 20, 4, 1 << 20);
        let base = simulate(
            &topo,
            &dag,
            &prog,
            &plan,
            OpType::AllGather,
            &SimConfig::default(),
        )
        .unwrap();
        let tight = SimConfig::default().with_deadline_ns(base.completion_ns * 0.5);
        let err = simulate(&topo, &dag, &prog, &plan, OpType::AllGather, &tight).unwrap_err();
        assert!(
            matches!(err, SimError::DeadlineExceeded { completed, total, .. }
                if completed < total),
            "{err}"
        );
        // A generous deadline never fires.
        let loose = SimConfig::default().with_deadline_ns(base.completion_ns * 2.0);
        let rep = simulate(&topo, &dag, &prog, &plan, OpType::AllGather, &loose).unwrap();
        assert_eq!(rep.data_valid, Some(true));
    }

    #[test]
    fn invalid_config_rejected_at_run_time() {
        let topo = Topology::a100(1, 4);
        let spec = ring_ag(4);
        let (dag, prog) = build_all(&spec, &topo, LoopOrder::SlotMajor, ExecMode::DirectKernel);
        let plan = MicroBatchPlan::plan(4 << 20, 4, 1 << 20);
        let cfg = SimConfig::default().with_jitter(3.0, 0);
        let err = simulate(&topo, &dag, &prog, &plan, OpType::AllGather, &cfg).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)), "{err}");
        let cfg = SimConfig::default().with_degraded(rescc_topology::ResourceId::new(0), 2.0);
        let err = simulate(&topo, &dag, &prog, &plan, OpType::AllGather, &cfg).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn fault_runs_replay_deterministically() {
        let topo = Topology::a100(1, 4);
        let spec = ring_ag(4);
        let (dag, prog) = build_all(&spec, &topo, LoopOrder::SlotMajor, ExecMode::DirectKernel);
        let plan = MicroBatchPlan::plan(64 << 20, 4, 1 << 20);
        let chan = topo.pair_chan(Rank::new(1), Rank::new(2));
        let cfg = SimConfig::default()
            .with_jitter(0.2, 7)
            .with_faults(FaultTimeline::new().brownout(chan, 10_000.0, 0.5, 500_000.0));
        let a = simulate(&topo, &dag, &prog, &plan, OpType::AllGather, &cfg).unwrap();
        let b = simulate(&topo, &dag, &prog, &plan, OpType::AllGather, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn link_utilization_bounded() {
        let topo = Topology::a100(2, 8);
        let spec = ring_ag(16);
        let (dag, prog) = build_all(&spec, &topo, LoopOrder::SlotMajor, ExecMode::DirectKernel);
        let plan = MicroBatchPlan::plan(256 << 20, 16, 1 << 20);
        let rep = simulate(
            &topo,
            &dag,
            &prog,
            &plan,
            OpType::AllGather,
            &SimConfig::default().without_validation(),
        )
        .unwrap();
        let u = rep.global_link_utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
    }
}
