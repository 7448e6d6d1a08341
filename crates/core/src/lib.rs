//! # rescc-core
//!
//! The public facade of the ResCCL backend: a four-phase offline compiler
//! (the workflow of Fig. 5 / Fig. 10(a)) that turns an algorithm — ResCCLang
//! source or a validated [`AlgoSpec`] — into an executable lightweight
//! kernel program, plus the plumbing to run the result on the simulated
//! cluster and to emit the generated pseudo-CUDA.
//!
//! Phases (timed individually, matching the Fig. 10(a) breakdown):
//!
//! 1. **Parsing** — DSL text → AST → validated `AlgoSpec`,
//! 2. **Analysis** — `AlgoSpec` → dependency DAG (`G_A`),
//! 3. **Scheduling** — HPDS (or round-robin) → task pipeline,
//! 4. **Lowering** — TB allocation + kernel generation,
//! 5. **Sanitize** — cross-phase static analysis (`rescc-analyze` lints
//!    RA001–RA005) over the finished artifact stack, gated by
//!    [`LintGate`] (deny by default: `Error`-severity findings fail the
//!    compile).
//!
//! ```
//! use rescc_core::Compiler;
//! use rescc_topology::Topology;
//! use rescc_algos::hm_allreduce;
//!
//! let topo = Topology::a100(2, 4);
//! let plan = Compiler::new().compile_spec(&hm_allreduce(2, 4), &topo).unwrap();
//! let report = plan.run(64 << 20, 1 << 20).unwrap();
//! assert_eq!(report.data_valid, Some(true));
//! println!("compiled in {:?}, ran at {:.1} GB/s",
//!     plan.timings.total(), report.algo_bandwidth_gbps(64 << 20));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod residual;

pub use cache::{
    plan_cost_bytes, plan_fingerprint, CacheEvent, CacheEventKind, CacheStats, PlanCache,
    SingleMutexPlanCache, DEFAULT_JOURNAL_CAPACITY, SHARD_COUNT,
};
pub use residual::ResidualPlan;

use rescc_alloc::TbAllocation;
use rescc_analyze::{analyze, analyze_rerouted, AnalysisConfig, AnalysisInput, AnalysisReport};
use rescc_ir::{DepDag, MicroBatchPlan};
use rescc_kernel::{emit_all, ExecMode, KernelProgram, LoopOrder};
use rescc_lang::{eval, parse, verify_collective_with_threads, AlgoSpec};
use rescc_sched::{hpds_with_threads, round_robin_with_threads, Schedule};
use rescc_sim::{simulate, SimConfig, SimError, SimReport, SimResult};
use rescc_topology::{Topology, TopologyHealth};
use std::time::{Duration, Instant};

/// Scheduler selection for the compiler.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SchedulerChoice {
    /// Hierarchical priority-based dynamic scheduling (Algorithm 1).
    #[default]
    Hpds,
    /// Round-robin (the Fig. 10(b) baseline).
    RoundRobin,
}

/// Wall-clock duration of each compiler phase (Fig. 10(a)).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    /// DSL text → AST → validated spec. Zero when compiling from a spec.
    pub parsing: Duration,
    /// Spec → dependency DAG.
    pub analysis: Duration,
    /// DAG → task pipeline (HPDS / RR).
    pub scheduling: Duration,
    /// Pipeline → TB allocation → kernel program.
    pub lowering: Duration,
    /// Static analysis over the finished artifact stack. Zero when the
    /// lint gate is [`LintGate::Off`].
    pub sanitize: Duration,
}

impl PhaseTimings {
    /// End-to-end compile time.
    pub fn total(&self) -> Duration {
        self.parsing + self.analysis + self.scheduling + self.lowering + self.sanitize
    }

    /// The phases in pipeline order with their stable names, for
    /// observability consumers that render one span per phase.
    pub fn phases(&self) -> [(&'static str, Duration); 5] {
        [
            ("parsing", self.parsing),
            ("analysis", self.analysis),
            ("scheduling", self.scheduling),
            ("lowering", self.lowering),
            ("sanitize", self.sanitize),
        ]
    }
}

/// What the compiler does with the sanitize phase's findings.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LintGate {
    /// Skip the sanitize phase entirely.
    Off,
    /// Run the lints and attach the report, but never fail the compile.
    Warn,
    /// Run the lints; `Error`-severity findings fail the compile. `Warn`
    /// findings are attached to the plan but do not fail it.
    #[default]
    Deny,
}

/// The ResCCL offline compiler.
#[derive(Clone, Debug)]
pub struct Compiler {
    /// Scheduler to use.
    pub scheduler: SchedulerChoice,
    /// Statically verify the algorithm implements its declared collective
    /// during the Analysis phase. On by default; automatically skipped
    /// above 256 ranks, where the symbolic state (O(ranks³)) would dominate
    /// compile memory — the simulator's runtime check still covers those.
    pub verify: bool,
    /// Worker threads for the embarrassingly-parallel phases: per-chunk
    /// static verification, per-chunk dependency analysis, and per-rank
    /// kernel lowering. The output is bit-identical for any value; 1
    /// (the default) compiles fully serially.
    pub threads: usize,
    /// What to do with the sanitize phase's findings (deny by default).
    pub lint_gate: LintGate,
    /// Tunables for the sanitize phase's lints.
    pub lint_config: AnalysisConfig,
}

impl Default for Compiler {
    fn default() -> Self {
        Self {
            scheduler: SchedulerChoice::default(),
            verify: true,
            threads: 1,
            lint_gate: LintGate::default(),
            lint_config: AnalysisConfig::default(),
        }
    }
}

impl Compiler {
    /// A compiler with the default (HPDS) configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Use the round-robin scheduler instead of HPDS.
    pub fn with_round_robin(mut self) -> Self {
        self.scheduler = SchedulerChoice::RoundRobin;
        self
    }

    /// Fan the parallel compile phases out over `threads` worker threads
    /// (0 is treated as 1). Output is identical for any thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Set the sanitize-phase gate (deny / warn / off).
    pub fn with_lint_gate(mut self, gate: LintGate) -> Self {
        self.lint_gate = gate;
        self
    }

    /// Compile ResCCLang source text for `topo`.
    pub fn compile_source(&self, source: &str, topo: &Topology) -> SimResult<CompiledPlan> {
        let t0 = Instant::now();
        let program = parse(source).map_err(|e| SimError::new(e.to_string()))?;
        let spec = eval(&program).map_err(|e| SimError::new(e.to_string()))?;
        let parsing = t0.elapsed();
        let mut plan = self.compile_spec(&spec, topo)?;
        plan.timings.parsing = parsing;
        Ok(plan)
    }

    /// Compile a validated algorithm spec for `topo`.
    pub fn compile_spec(&self, spec: &AlgoSpec, topo: &Topology) -> SimResult<CompiledPlan> {
        let mut timings = PhaseTimings::default();
        let threads = self.threads.max(1);

        let t0 = Instant::now();
        if self.verifies(spec) {
            verify_collective_with_threads(spec, threads)
                .map_err(|e| SimError::new(e.to_string()))?;
        }
        let dag = DepDag::build_with_threads(spec, topo, threads)
            .map_err(|e| SimError::new(e.to_string()))?;
        timings.analysis = t0.elapsed();

        let (schedule, alloc, program) =
            self.schedule_and_lower(spec.name(), &dag, &mut timings)?;
        let diagnostics = self.sanitize("plan", &mut timings, || {
            analyze(
                &AnalysisInput {
                    spec,
                    dag: &dag,
                    schedule: &schedule,
                    alloc: &alloc,
                    program: &program,
                    topo,
                },
                &self.lint_config,
            )
        })?;

        Ok(CompiledPlan {
            topo: topo.clone(),
            spec: spec.clone(),
            dag,
            schedule,
            alloc,
            program,
            timings,
            diagnostics,
        })
    }

    /// Incrementally recompile a cached plan for a changed topology health
    /// mask — the fault-recovery fast path.
    ///
    /// A full [`compile_spec`](Self::compile_spec) after a fault repeats
    /// every phase even though the algorithm, the topology shape, and
    /// almost every route are unchanged. This entry point reuses the cached
    /// artifacts instead:
    ///
    /// 1. **Identity** — if `health` equals the cached plan's mask, the
    ///    cached plan *is* the answer (returned as a clone, no phase
    ///    re-runs).
    /// 2. **Reroute** — [`DepDag::reroute`] re-resolves each task's route
    ///    against the masked topology and reports the *dirty* set: tasks
    ///    whose contention resources actually changed. Dependency edges are
    ///    topology-independent, so the DAG's adjacency is reused outright.
    /// 3. **Splice (fast path)** — if no task went dirty, or the cached
    ///    schedule still validates with the rerouted conflict sets (loads
    ///    under saturation in every sub-pipeline), the schedule is kept.
    ///    TB allocation and kernel generation read only each task's
    ///    endpoints and chunk — never its route — so the cached allocation
    ///    and program are byte-valid as-is and are spliced unchanged.
    /// 4. **Reschedule (slow path)** — otherwise scheduling and lowering
    ///    re-run (threaded, per [`Self::with_threads`]) on the rerouted
    ///    DAG.
    ///
    /// The sanitize phase re-runs in **every** non-identity case (subject
    /// to [`LintGate::Off`]): splicing must not skip the lints, or a
    /// spliced plan routing over a masked resource would sail through
    /// where a full compile would be denied. On the splice path the re-run
    /// is itself incremental ([`rescc_analyze::analyze_rerouted`]): the
    /// DAG adjacency, task tuples, schedule, and program are identical to
    /// the cached plan's, so the routing-insensitive lints (RA001, RA002,
    /// RA004, RA006) splice their cached diagnostics through and only the
    /// route-reading ones — RA003 on the dirtied sub-pipelines, RA005,
    /// and RA007 (whose α–β–γ certificate depends on per-route
    /// parameters) — re-run.
    ///
    /// The plan's [`PhaseTimings`] reflect what actually ran: all zero on
    /// the identity path; `scheduling` the revalidation of the cached
    /// schedule plus, on the slow path only, the reschedule; `lowering`
    /// only on the slow path; `sanitize` on every non-identity call with
    /// the gate on; `parsing` never.
    pub fn recompile_delta(
        &self,
        cached: &CompiledPlan,
        health: &TopologyHealth,
    ) -> SimResult<CompiledPlan> {
        let mut timings = PhaseTimings::default();

        if cached.topo.health() == health {
            let mut plan = cached.clone();
            plan.timings = timings;
            return Ok(plan);
        }

        let t0 = Instant::now();
        let degraded = cached.topo.clone().with_health(health.clone());
        let (dag, dirty) = cached
            .dag
            .reroute(&degraded)
            .map_err(|e| SimError::new(e.to_string()))?;
        timings.analysis = t0.elapsed();

        let t0 = Instant::now();
        // `keep` carries the dirty sub-pipeline indices when the cached
        // schedule stays feasible (rule 3 rechecked only where conflict
        // sets moved — structure cannot break under a reroute), `None`
        // when the reroute oversubscribed one and a real reschedule is due.
        let keep: Option<Vec<u32>> = if dirty.is_empty() {
            Some(Vec::new())
        } else {
            cached.schedule.revalidate_dirty(&dag, &dirty).ok()
        };
        timings.scheduling = t0.elapsed();
        let (schedule, alloc, program) = if keep.is_some() {
            // Lowering is route-independent: `lower_rank` and the TB
            // allocator read only task endpoints, chunks, and schedule
            // positions, all unchanged — the cached artifacts stay valid.
            (
                cached.schedule.clone(),
                cached.alloc.clone(),
                cached.program.clone(),
            )
        } else {
            self.schedule_and_lower(cached.spec.name(), &dag, &mut timings)?
        };

        let diagnostics = self.sanitize("plan", &mut timings, || {
            let input = AnalysisInput {
                spec: &cached.spec,
                dag: &dag,
                schedule: &schedule,
                alloc: &alloc,
                program: &program,
                topo: &degraded,
            };
            match &keep {
                // Spliced plan: structure identical to the cached one, only
                // routes differ — the routing-sensitive lints re-run (RA003
                // scoped to the dirty sub-pipelines), the rest splice their
                // cached verdicts.
                Some(dirty_sps) => {
                    analyze_rerouted(&input, &self.lint_config, &cached.diagnostics, dirty_sps)
                }
                None => analyze(&input, &self.lint_config),
            }
        })?;

        Ok(CompiledPlan {
            topo: degraded,
            spec: cached.spec.clone(),
            dag,
            schedule,
            alloc,
            program,
            timings,
            diagnostics,
        })
    }

    /// Whether the analysis phase statically verifies `spec`: when
    /// [`Compiler::verify`] is set and the group has at most 256 ranks.
    fn verifies(&self, spec: &AlgoSpec) -> bool {
        self.verify && spec.n_ranks() <= 256
    }

    /// The scheduling and lowering phases over `dag`: schedule, allocate
    /// TBs and generate the kernel program, validating each artifact.
    /// Scheduling time is added to `timings.scheduling` (a delta
    /// recompile has already charged its failed revalidation there).
    fn schedule_and_lower(
        &self,
        name: &str,
        dag: &DepDag,
        timings: &mut PhaseTimings,
    ) -> SimResult<(Schedule, TbAllocation, KernelProgram)> {
        let threads = self.threads.max(1);

        let t0 = Instant::now();
        let schedule = match self.scheduler {
            SchedulerChoice::Hpds => hpds_with_threads(dag, threads),
            SchedulerChoice::RoundRobin => round_robin_with_threads(dag, threads),
        };
        schedule.validate(dag).map_err(SimError::SchedulerBug)?;
        timings.scheduling += t0.elapsed();

        let t0 = Instant::now();
        let alloc = TbAllocation::state_based_with_threads(dag, &schedule, threads);
        alloc
            .validate(dag, &schedule)
            .map_err(SimError::AllocationBug)?;
        let program = KernelProgram::generate_with_threads(
            name,
            dag,
            &alloc,
            LoopOrder::SlotMajor,
            ExecMode::DirectKernel,
            threads,
        );
        program.validate(dag).map_err(SimError::LoweringBug)?;
        timings.lowering = t0.elapsed();
        Ok((schedule, alloc, program))
    }

    /// The sanitize phase: run `lints` over the finished artifact stack
    /// unless the gate is [`LintGate::Off`] (then the report is empty and
    /// the phase records zero time). Under [`LintGate::Deny`], a report
    /// with errors rejects the `what` being compiled.
    fn sanitize(
        &self,
        what: &str,
        timings: &mut PhaseTimings,
        lints: impl FnOnce() -> AnalysisReport,
    ) -> SimResult<AnalysisReport> {
        if self.lint_gate == LintGate::Off {
            return Ok(AnalysisReport::default());
        }
        let t0 = Instant::now();
        let report = lints();
        if self.lint_gate == LintGate::Deny && report.has_errors() {
            return Err(SimError::new(format!(
                "sanitize: {what} rejected by lint gate\n{}",
                report.render_human()
            )));
        }
        timings.sanitize = t0.elapsed();
        Ok(report)
    }
}

/// A fully-compiled, executable collective plan.
#[derive(Clone, Debug)]
pub struct CompiledPlan {
    /// The topology the plan was compiled for.
    pub topo: Topology,
    /// The validated algorithm the plan implements: its operator and
    /// chunking drive every run, and incremental recompiles
    /// ([`Compiler::recompile_delta`]) re-run the sanitize phase over it.
    pub spec: AlgoSpec,
    /// The dependency DAG.
    pub dag: DepDag,
    /// The HPDS/RR task pipeline.
    pub schedule: Schedule,
    /// The state-based TB allocation.
    pub alloc: TbAllocation,
    /// The generated lightweight kernel program.
    pub program: KernelProgram,
    /// Per-phase compile timings.
    pub timings: PhaseTimings,
    /// Sanitize-phase findings. Empty when the plan is clean or the lint
    /// gate was [`LintGate::Off`]; under [`LintGate::Warn`] this may carry
    /// `Error`-severity findings the gate let through.
    pub diagnostics: AnalysisReport,
}

impl CompiledPlan {
    /// Run the plan: synchronize `buffer_bytes` per rank moving
    /// `chunk_bytes` per invocation, with data validation on.
    pub fn run(&self, buffer_bytes: u64, chunk_bytes: u64) -> SimResult<SimReport> {
        self.run_with(buffer_bytes, chunk_bytes, &SimConfig::default())
    }

    /// Run with a custom simulator configuration.
    pub fn run_with(
        &self,
        buffer_bytes: u64,
        chunk_bytes: u64,
        config: &SimConfig,
    ) -> SimResult<SimReport> {
        let plan = MicroBatchPlan::plan(buffer_bytes, self.spec.n_chunks(), chunk_bytes);
        simulate(
            &self.topo,
            &self.dag,
            &self.program,
            &plan,
            self.spec.op(),
            config,
        )
    }

    /// Emit the generated pseudo-CUDA kernels for all ranks.
    pub fn emit_kernels(&self) -> String {
        emit_all(&self.program)
    }

    /// The α–β–γ makespan lower bound certified by the sanitize phase for
    /// a run over `buffer_bytes` at `chunk_bytes` per invocation:
    /// `max(critical-path α-chain, bottleneck-link bytes·β)`. No run of
    /// this plan — degraded, jittered, or contended — can legitimately
    /// finish faster; a [`SimReport`] undercutting it indicates a cost
    /// model or engine bug. `None` when the lint gate was off (the
    /// sanitize phase never ran, so nothing was certified).
    pub fn makespan_floor_ns(&self, buffer_bytes: u64, chunk_bytes: u64) -> Option<f64> {
        let mb = MicroBatchPlan::plan(buffer_bytes, self.spec.n_chunks(), chunk_bytes);
        self.diagnostics
            .certificate()
            .map(|c| c.lower_bound_ns(mb.chunk_total_bytes()))
    }

    /// Total TBs the plan launches.
    pub fn total_tbs(&self) -> usize {
        self.alloc.total_tbs()
    }

    /// Whether two plans are the same compiled artifact: identical DAG,
    /// schedule, TB allocation and kernel program for the same operator,
    /// chunking, and topology shape. Phase timings are deliberately
    /// ignored — they are measurement metadata, not part of the artifact.
    /// Used to assert that parallel compilation is bit-identical to serial.
    pub fn semantic_eq(&self, other: &Self) -> bool {
        self.spec.op() == other.spec.op()
            && self.spec.n_chunks() == other.spec.n_chunks()
            && self.topo.name() == other.topo.name()
            && self.topo.spec() == other.topo.spec()
            && self.dag == other.dag
            && self.schedule == other.schedule
            && self.alloc == other.alloc
            && self.program == other.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescc_algos::{hm_allreduce, ring_allgather_source};

    #[test]
    fn compile_from_source_and_run() {
        let topo = Topology::a100(1, 8);
        let plan = Compiler::new()
            .compile_source(&ring_allgather_source(8), &topo)
            .unwrap();
        assert!(plan.timings.parsing > Duration::ZERO);
        assert_eq!(plan.dag.len(), 56);
        let rep = plan.run(64 << 20, 1 << 20).unwrap();
        assert_eq!(rep.data_valid, Some(true));
    }

    #[test]
    fn compile_spec_times_all_phases() {
        let topo = Topology::a100(2, 8);
        let plan = Compiler::new()
            .compile_spec(&hm_allreduce(2, 8), &topo)
            .unwrap();
        assert_eq!(plan.timings.parsing, Duration::ZERO);
        assert!(plan.timings.total() > Duration::ZERO);
        assert!(plan.total_tbs() > 0);
    }

    #[test]
    fn emitted_kernels_cover_all_ranks() {
        let topo = Topology::a100(2, 4);
        let plan = Compiler::new()
            .compile_spec(&hm_allreduce(2, 4), &topo)
            .unwrap();
        let cuda = plan.emit_kernels();
        for r in 0..8 {
            assert!(cuda.contains(&format!("resccl_kernel_r{r}")));
        }
    }

    #[test]
    fn round_robin_compiler_variant() {
        let topo = Topology::a100(2, 4);
        let plan = Compiler::new()
            .with_round_robin()
            .compile_spec(&hm_allreduce(2, 4), &topo)
            .unwrap();
        assert_eq!(plan.schedule.policy, "rr");
        let rep = plan.run(16 << 20, 1 << 20).unwrap();
        assert_eq!(rep.data_valid, Some(true));
    }

    #[test]
    fn statically_broken_collective_is_rejected_before_scheduling() {
        use rescc_lang::{AlgoBuilder, OpType};
        let topo = Topology::a100(1, 4);
        let mut b = AlgoBuilder::new("broken", OpType::AllGather, 4);
        b.recv(0, 1, 0, 0); // only one chunk ever moves
        let err = Compiler::new()
            .compile_spec(&b.build().unwrap(), &topo)
            .unwrap_err();
        assert!(err.to_string().contains("does not implement"), "{err}");
    }

    #[test]
    fn verification_can_be_disabled() {
        use rescc_lang::{AlgoBuilder, OpType};
        let topo = Topology::a100(1, 4);
        let mut b = AlgoBuilder::new("partial", OpType::AllGather, 4);
        b.recv(0, 1, 0, 0);
        let mut compiler = Compiler::new();
        compiler.verify = false;
        // Compiles (the runtime check would still catch it when run).
        compiler.compile_spec(&b.build().unwrap(), &topo).unwrap();
    }

    #[test]
    fn sanitize_phase_runs_and_is_clean_on_seed_algorithms() {
        // Evidence carried by this plan alone: only the sanitize phase
        // certifies a makespan floor.
        let topo = Topology::a100(2, 4);
        let plan = Compiler::new()
            .compile_spec(&hm_allreduce(2, 4), &topo)
            .unwrap();
        assert!(
            plan.diagnostics.is_clean(),
            "{}",
            plan.diagnostics.render_human()
        );
        assert!(plan.makespan_floor_ns(16 << 20, 1 << 20).is_some());
        assert!(plan.timings.sanitize > Duration::ZERO);
    }

    #[test]
    fn certificate_floor_is_never_undercut_by_the_engine() {
        use rescc_algos::{dbtree_allreduce, ring_allgather};
        let buffer: u64 = 16 << 20;
        let chunk: u64 = 1 << 20;
        let cases: Vec<(rescc_lang::AlgoSpec, Topology)> = vec![
            (hm_allreduce(2, 4), Topology::a100(2, 4)),
            (ring_allgather(8), Topology::a100(1, 8)),
            (dbtree_allreduce(8), Topology::a100(2, 4)),
        ];
        for (spec, topo) in cases {
            let plan = Compiler::new().compile_spec(&spec, &topo).unwrap();
            let floor = plan
                .makespan_floor_ns(buffer, chunk)
                .expect("lint gate on => certificate present");
            assert!(floor > 0.0, "{}: degenerate floor {floor}", spec.name());
            let rep = plan.run(buffer, chunk).unwrap();
            assert!(
                !rep.undercuts_floor(floor),
                "{}: run finished at {} ns, under its certified floor {} ns",
                spec.name(),
                rep.completion_ns,
                floor
            );
        }
    }

    #[test]
    fn lint_gate_applies_on_every_entry_point() {
        use rescc_sim::FaultFrontier;
        use rescc_topology::{NicId, Rank, TopologyHealth};
        // One dead pair channel: on one 8-GPU node the relay fits under the
        // NVLink saturation (splice), on 2x4 it oversubscribes (reschedule).
        let off = Compiler::new().with_lint_gate(LintGate::Off);
        let compile_masked = |nodes, gpus| {
            let topo = Topology::a100(nodes, gpus);
            let plan = off.compile_spec(&hm_allreduce(nodes, gpus), &topo).unwrap();
            let mut health = TopologyHealth::healthy();
            health.mask(topo.pair_chan(Rank::new(0), Rank::new(1)));
            let delta = off.recompile_delta(&plan, &health).unwrap();
            (plan, delta)
        };
        let (_, splice) = compile_masked(1, 8);
        let (full, reschedule) = compile_masked(2, 4);
        let frontier = FaultFrontier::new(full.dag.len() as u32, 2, 0);
        let residual = off.residual_plan(&full, &frontier).unwrap().plan;
        assert_eq!(splice.timings.lowering, Duration::ZERO, "splice path");
        assert!(reschedule.timings.lowering > Duration::ZERO, "slow path");
        for (entry, plan) in [
            ("compile_spec", &full),
            ("recompile_delta splice", &splice),
            ("recompile_delta reschedule", &reschedule),
            ("residual_plan", &residual),
        ] {
            assert!(plan.diagnostics.is_clean(), "{entry}");
            assert_eq!(plan.timings.sanitize, Duration::ZERO, "{entry}");
            assert!(
                plan.makespan_floor_ns(16 << 20, 1 << 20).is_none(),
                "{entry}"
            );
        }

        // A dead NIC with no sibling leaves only the dead route (RA005):
        // deny refuses a full compile and a delta recompile with the same
        // text, warn lets the plan through carrying the finding.
        let topo = Topology::a100(2, 2);
        let mut health = TopologyHealth::healthy();
        health.mask(topo.nic_tx(NicId::new(0)));
        let degraded = topo.clone().with_health(health.clone());
        let (spec, deny) = (hm_allreduce(2, 2), Compiler::new());
        let healthy = deny.compile_spec(&spec, &topo).unwrap();
        for err in [
            deny.compile_spec(&spec, &degraded).unwrap_err(),
            deny.recompile_delta(&healthy, &health).unwrap_err(),
        ] {
            assert!(
                matches!(&err, SimError::InvalidProgram(msg)
                    if msg.starts_with("sanitize: plan rejected by lint gate\n")
                        && msg.contains("RA005")),
                "{err}"
            );
        }
        let warn = Compiler::new().with_lint_gate(LintGate::Warn);
        assert!(warn
            .compile_spec(&spec, &degraded)
            .unwrap()
            .diagnostics
            .has_errors());
    }

    #[test]
    fn recompile_delta_with_unchanged_health_is_byte_equivalent() {
        let topo = Topology::a100(2, 4);
        let compiler = Compiler::new();
        let plan = compiler.compile_spec(&hm_allreduce(2, 4), &topo).unwrap();
        let delta = compiler.recompile_delta(&plan, plan.topo.health()).unwrap();
        assert!(delta.semantic_eq(&plan));
        // Identity path: no phase re-ran, not even sanitize.
        assert_eq!(delta.timings.total(), Duration::ZERO);
    }

    #[test]
    fn recompile_delta_splices_schedule_for_survivable_intra_fault() {
        use rescc_topology::{Rank, TopologyHealth};
        let topo = Topology::a100(1, 8);
        let compiler = Compiler::new();
        let plan = compiler.compile_spec(&hm_allreduce(1, 8), &topo).unwrap();
        // Mask one intra-node pair channel: the router relays through a
        // third rank, and the extra load fits under the NVLink saturation,
        // so the cached schedule must be spliced, not rebuilt.
        let mut health = TopologyHealth::healthy();
        health.mask(topo.pair_chan(Rank::new(0), Rank::new(1)));
        let delta = compiler.recompile_delta(&plan, &health).unwrap();
        // The slow path always times lowering, and only a sanitize run
        // records time.
        assert_eq!(delta.schedule, plan.schedule, "schedule must be reused");
        assert_eq!(delta.program, plan.program, "lowering is route-independent");
        assert_eq!(
            delta.timings.lowering,
            Duration::ZERO,
            "fast path must not reschedule or re-lower"
        );
        assert!(
            delta.timings.sanitize > Duration::ZERO,
            "sanitize must re-run on the splice"
        );
        assert_eq!(delta.topo.health(), &health);
        assert!(
            delta.diagnostics.is_clean(),
            "{}",
            delta.diagnostics.render_human()
        );
        // The spliced plan still runs and validates its data.
        let rep = delta.run(16 << 20, 1 << 20).unwrap();
        assert_eq!(rep.data_valid, Some(true));
    }

    #[test]
    fn bad_source_is_rejected() {
        let topo = Topology::a100(1, 4);
        let err = Compiler::new()
            .compile_source("def Broken(:\n", &topo)
            .unwrap_err();
        assert!(err.to_string().contains("error"));
    }
}
