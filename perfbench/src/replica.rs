//! The traced dispatch: a step-for-step mirror of `Communicator::run`
//! built only from the library's public functions, with a timer around
//! each layer a dispatch passes through.
//!
//! The program itself carries no tracing. Instead this mirror issues the
//! same calls in the same order — select, clone, key, lookup or compile,
//! simulate, validate, recovery — against the same shared [`PlanCache`],
//! and the harness checks that every traced call returns exactly what the
//! untraced `Communicator` call returned (outcome, simulated time,
//! recovery counts, cache counters). A mismatch means the mirror no longer
//! follows the library and fails the run.

use rescc_algos::{
    hm_allgather, hm_allreduce, hm_reduce_scatter, recursive_halving_doubling_allreduce,
};
use rescc_backends::{FaultPolicy, RecoveryStats, RunReport, DEFAULT_CHUNK_BYTES};
use rescc_core::{plan_fingerprint, CompiledPlan, Compiler, PlanCache, ResidualPlan};
use rescc_ir::MicroBatchPlan;
use rescc_lang::{AlgoSpec, OpType};
use rescc_sim::{FaultFrontier, FaultTimeline, SimConfig, SimError, SimResult};
use rescc_topology::{ResourceId, Topology, TopologyHealth};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Host time spent in each layer, summed over traced calls, with the
/// number of times each layer ran.
#[derive(Debug, Default)]
pub struct LayerTimes {
    /// `AlgoSpec` + `Topology`/health clones done on every call.
    pub clone: Duration,
    /// `plan_fingerprint`.
    pub key: Duration,
    pub keys: u64,
    /// `get_or_compile_keyed` on a resident key.
    pub lookup_hit: Duration,
    pub lookup_hits: u64,
    /// Cache bookkeeping around a compile (the lookup minus the compile).
    pub lookup_miss: Duration,
    /// `compile_spec` measured from outside, split by the phase shares of
    /// the `PhaseTimings` it returns.
    pub analysis: Duration,
    pub scheduling: Duration,
    pub lowering: Duration,
    pub sanitize: Duration,
    pub compiles: u64,
    /// Unvalidated `run_with` of a full plan.
    pub simulate: Duration,
    pub simulates: u64,
    /// Invocations of the successful unvalidated runs, for throughput.
    pub simulate_ok: Duration,
    pub simulate_ok_invocations: u64,
    /// Validated run minus unvalidated run.
    pub validate: Duration,
    pub validates: u64,
    /// `Compiler::recompile_delta`.
    pub delta: Duration,
    pub deltas: u64,
    /// `Compiler::residual_plan`.
    pub residual: Duration,
    pub residuals: u64,
    /// The resumed `run_with` of a residual plan.
    pub resume: Duration,
    pub resumes: u64,
    /// Whole traced dispatches, for the tracing overhead.
    pub dispatch: Duration,
    pub dispatches: u64,
}

impl LayerTimes {
    /// Host time of every named layer (everything but `dispatch`).
    pub fn attributed(&self) -> Duration {
        self.clone
            + self.key
            + self.lookup_hit
            + self.lookup_miss
            + self.analysis
            + self.scheduling
            + self.lowering
            + self.sanitize
            + self.simulate
            + self.validate
            + self.delta
            + self.residual
            + self.resume
    }
}

/// Time `f`, adding its wall time to `acc`.
fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed();
    out
}

/// The traced twin of one `Communicator` tenant.
pub struct Replica {
    topo: Topology,
    compiler: Compiler,
    cache: Arc<PlanCache>,
    specs: HashMap<(OpType, bool), AlgoSpec>,
    faults: FaultTimeline,
    policy: FaultPolicy,
    health: TopologyHealth,
    validate: bool,
}

impl Replica {
    /// A replica with the library defaults of `Communicator::new`,
    /// dispatching through `cache`.
    pub fn new(topo: Topology, cache: Arc<PlanCache>, validate: bool) -> Self {
        Self {
            topo,
            compiler: Compiler::new(),
            cache,
            specs: HashMap::new(),
            faults: FaultTimeline::new(),
            policy: FaultPolicy::default(),
            health: TopologyHealth::healthy(),
            validate,
        }
    }

    /// The resources masked dead (`Communicator::health`).
    pub fn health(&self) -> &TopologyHealth {
        &self.health
    }

    /// Re-arm the fault schedule (`Communicator::set_faults`).
    pub fn set_faults(&mut self, faults: FaultTimeline) {
        self.faults = faults;
    }

    /// The algorithm selection policy of `Communicator::select`: builds
    /// the spec on first use and returns its memo key.
    fn select(&mut self, op: OpType, buffer_bytes: u64) -> (OpType, bool) {
        let nodes = self.topo.n_nodes();
        let g = self.topo.gpus_per_node();
        let n = self.topo.n_ranks();
        let small = buffer_bytes <= (n as u64) * DEFAULT_CHUNK_BYTES * 2;
        self.specs.entry((op, small)).or_insert_with(|| match op {
            OpType::AllGather => hm_allgather(nodes, g),
            OpType::ReduceScatter => hm_reduce_scatter(nodes, g),
            OpType::AllReduce => {
                if small && n.is_power_of_two() && nodes == 1 {
                    recursive_halving_doubling_allreduce(n)
                } else {
                    hm_allreduce(nodes, g)
                }
            }
        });
        (op, small)
    }

    /// One traced collective call, mirroring `Communicator::run`.
    pub fn run(
        &mut self,
        op: OpType,
        buffer_bytes: u64,
        t: &mut LayerTimes,
    ) -> SimResult<RunReport> {
        let t0 = Instant::now();
        let out = self.run_inner(op, buffer_bytes, t);
        t.dispatch += t0.elapsed();
        t.dispatches += 1;
        out
    }

    fn run_inner(
        &mut self,
        op: OpType,
        buffer_bytes: u64,
        t: &mut LayerTimes,
    ) -> SimResult<RunReport> {
        let chunk = DEFAULT_CHUNK_BYTES;
        let memo = self.select(op, buffer_bytes);
        let spec = timed(&mut t.clone, || self.specs[&memo].clone());
        let mb = MicroBatchPlan::plan(buffer_bytes, spec.n_chunks(), chunk);
        let engaged =
            !self.faults.is_empty() || self.policy.deadline_ns.is_some() || !self.health.is_empty();
        let mut stats = RecoveryStats::default();
        let restored: Vec<ResourceId> = self
            .health
            .dead()
            .iter()
            .copied()
            .filter(|r| !self.faults.is_permanent_down(*r))
            .collect();
        for r in restored {
            self.health.unmask(r);
            stats.heals += 1;
        }
        let mut elapsed = 0.0f64;
        let mut acc: Option<FaultFrontier> = None;
        loop {
            let topo = timed(&mut t.clone, || {
                self.topo.clone().with_health(self.health.clone())
            });
            let key = timed(&mut t.key, || {
                plan_fingerprint(&self.compiler, &spec, &topo, &mb)
            });
            t.keys += 1;
            let mut compile_wall = Duration::ZERO;
            let t_lookup = Instant::now();
            let (plan, ev) = self.cache.get_or_compile_keyed(key, || {
                timed(&mut compile_wall, || {
                    self.compiler.compile_spec(&spec, &topo)
                })
            })?;
            let lookup = t_lookup.elapsed();
            if ev.is_hit() {
                t.lookup_hit += lookup;
                t.lookup_hits += 1;
            } else {
                t.lookup_miss += lookup.saturating_sub(compile_wall);
                split_compile(t, compile_wall, &plan);
            }
            let fingerprint = ev.fingerprint;
            if stats.recompiles > 0 && plan.diagnostics.has_errors() {
                return Err(SimError::new(format!(
                    "recovery: degraded plan rejected by static analysis\n{}",
                    plan.diagnostics.render_human()
                )));
            }
            let mut cfg = if self.validate {
                SimConfig::default()
            } else {
                SimConfig::default().without_validation()
            };
            if !self.faults.is_empty() {
                cfg = cfg.with_faults(self.faults.advanced(elapsed));
            }
            if let Some(d) = self.policy.deadline_ns {
                cfg = cfg.with_deadline_ns(d);
            }
            let residual: Option<ResidualPlan> = match &acc {
                Some(f) if !f.is_empty() => {
                    t.residuals += 1;
                    timed(&mut t.residual, || {
                        self.compiler.residual_plan(&plan, f).ok()
                    })
                }
                _ => None,
            };
            let attempt = match &residual {
                Some(r) => {
                    stats.resumes += 1;
                    let cfg = cfg.clone().with_resume(r.resume.clone());
                    t.resumes += 1;
                    timed(&mut t.resume, || r.plan.run_with(buffer_bytes, chunk, &cfg))
                }
                None => self.simulate(&plan, buffer_bytes, &cfg, t),
            };
            let exec_plan: &CompiledPlan = residual.as_ref().map_or(&plan, |r| &r.plan);
            match attempt {
                Ok(sim) => {
                    stats.recovery_ns = elapsed;
                    stats.dead_resources = self.health.dead().iter().map(|r| r.0).collect();
                    stats.plan_fingerprint = fingerprint;
                    stats.lint_diagnostics = plan.diagnostics.diagnostics().len() as u32;
                    let certificate_undercut = (residual.is_none()
                        && self.faults.is_empty()
                        && self.health.is_empty()
                        && elapsed == 0.0)
                        .then(|| {
                            plan.makespan_floor_ns(buffer_bytes, chunk)
                                .is_some_and(|floor| sim.undercuts_floor(floor))
                        });
                    return Ok(RunReport {
                        backend: "resccl".to_string(),
                        algo: spec.name().to_string(),
                        buffer_bytes,
                        total_tbs: exec_plan.alloc.total_tbs(),
                        max_rank_tbs: exec_plan.alloc.max_rank_tbs(),
                        sim,
                        cache: Some(self.cache.stats()),
                        recovery: engaged.then_some(stats),
                        certificate_undercut,
                        obs: None,
                    });
                }
                Err(err) if err.is_transient() => {
                    stats.retries += 1;
                    if stats.retries > self.policy.max_retries {
                        return Err(err);
                    }
                    let failed_at = err.at_ns().unwrap_or(0) as f64;
                    absorb_frontier(err.frontier(), &residual, plan.dag.len() as u32, &mut acc);
                    let p = &self.policy;
                    elapsed += failed_at
                        + p.backoff_base_ns * p.backoff_factor.powi(stats.retries as i32 - 1);
                }
                Err(SimError::ResourceDown {
                    resource,
                    task,
                    at_ns,
                    permanent: true,
                    frontier,
                }) => {
                    stats.recompiles += 1;
                    if stats.recompiles > self.policy.max_recompiles
                        || !self.health.mask(ResourceId::new(resource))
                    {
                        return Err(SimError::ResourceDown {
                            resource,
                            task,
                            at_ns,
                            permanent: true,
                            frontier,
                        });
                    }
                    absorb_frontier(
                        frontier.as_deref(),
                        &residual,
                        plan.dag.len() as u32,
                        &mut acc,
                    );
                    t.deltas += 1;
                    let delta = timed(&mut t.delta, || {
                        self.compiler.recompile_delta(&plan, &self.health)
                    });
                    if let Ok(delta) = delta {
                        let degraded = self.topo.clone().with_health(self.health.clone());
                        let fp = plan_fingerprint(&self.compiler, &spec, &degraded, &mb);
                        stats.delta_recompiles += 1;
                        self.cache.insert(fp, Arc::new(delta));
                    }
                    elapsed += at_ns as f64 + self.policy.backoff_base_ns;
                }
                Err(err) => return Err(err),
            }
        }
    }

    /// A fresh (non-resumed) attempt: the unvalidated run is the simulate
    /// layer; on a validating tenant the validated run follows and its
    /// extra time is the validate layer. The validated result is returned,
    /// as the `Communicator` would.
    fn simulate(
        &self,
        plan: &CompiledPlan,
        buffer_bytes: u64,
        cfg: &SimConfig,
        t: &mut LayerTimes,
    ) -> SimResult<rescc_sim::SimReport> {
        let chunk = DEFAULT_CHUNK_BYTES;
        let plain = if self.validate {
            cfg.clone().without_validation()
        } else {
            cfg.clone()
        };
        let mut sim_time = Duration::ZERO;
        let unvalidated = timed(&mut sim_time, || plan.run_with(buffer_bytes, chunk, &plain));
        t.simulate += sim_time;
        t.simulates += 1;
        if let Ok(rep) = &unvalidated {
            t.simulate_ok += sim_time;
            t.simulate_ok_invocations += rep.n_invocations;
        }
        if !self.validate {
            return unvalidated;
        }
        let mut validated_time = Duration::ZERO;
        let validated = timed(&mut validated_time, || {
            plan.run_with(buffer_bytes, chunk, cfg)
        });
        t.validate += validated_time.saturating_sub(sim_time);
        t.validates += 1;
        validated
    }
}

/// Attribute one compile's outside-measured wall time to the phases, in
/// proportion to the `PhaseTimings` the compiler recorded.
fn split_compile(t: &mut LayerTimes, wall: Duration, plan: &CompiledPlan) {
    let p = &plan.timings;
    let total = p.total().as_secs_f64();
    let share = |d: Duration| {
        if total > 0.0 {
            wall.mul_f64(d.as_secs_f64() / total)
        } else {
            Duration::ZERO
        }
    };
    t.analysis += share(p.analysis + p.parsing);
    t.scheduling += share(p.scheduling);
    t.lowering += share(p.lowering);
    t.sanitize += share(p.sanitize);
    t.compiles += 1;
}

/// `Communicator`'s frontier accumulation across aborted attempts.
fn absorb_frontier(
    frontier: Option<&FaultFrontier>,
    residual: &Option<ResidualPlan>,
    full_n_tasks: u32,
    acc: &mut Option<FaultFrontier>,
) {
    if let Some(f) = frontier {
        let mapped = match residual {
            Some(r) => r.frontier_to_original(f, full_n_tasks),
            None => f.clone(),
        };
        match acc {
            Some(a) => {
                a.union(&mapped);
            }
            None => *acc = Some(mapped),
        }
    }
}
