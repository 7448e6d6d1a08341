//! A NCCL-style convenience API: create a [`Communicator`] for a cluster
//! once, then issue collectives by operator and size — algorithm selection,
//! compilation and plan caching happen inside, the way a downstream user
//! would actually consume the library.
//!
//! Algorithm selection policy (mirroring how vendor libraries pick):
//!
//! * single node → hierarchical mesh (full-mesh phases use every pair
//!   channel; latency-optimal recursive variants for power-of-two small
//!   buffers),
//! * multi-node → the HM family of Appendix A (hierarchical:
//!   intra-mesh + inter-ring) — the paper's expert choice for Clos
//!   clusters.

use crate::{RecoveryAction, RecoveryEvent, RecoveryStats, RunReport, DEFAULT_CHUNK_BYTES};
use rescc_algos::{
    hm_allgather, hm_allreduce, hm_reduce_scatter, recursive_halving_doubling_allreduce,
};
use rescc_core::{plan_fingerprint, CacheStats, CompiledPlan, Compiler, PlanCache, ResidualPlan};
use rescc_ir::MicroBatchPlan;
use rescc_lang::{AlgoSpec, OpType};
use rescc_obs::ObsStats;
use rescc_sim::{FaultFrontier, FaultTimeline, SimConfig, SimError, SimResult};
use rescc_topology::{ResourceId, Topology, TopologyHealth};
use std::collections::HashMap;
use std::sync::Arc;

/// Watchdog/retry knobs for collectives on a faulty fabric.
///
/// Transient failures (a flapping link, an expired deadline) are retried up
/// to [`max_retries`](Self::max_retries) times; each failed attempt burns
/// its failure time plus an exponentially growing backoff of *sim* time, and
/// the fault timeline is replayed shifted by the total elapsed time — a
/// flap that already passed stays passed. Permanent failures mask the dead
/// resource in a [`TopologyHealth`] overlay and recompile against the
/// degraded topology, at most [`max_recompiles`](Self::max_recompiles)
/// times per call.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPolicy {
    /// Per-attempt sim-time deadline (ns); `None` disables the watchdog.
    pub deadline_ns: Option<f64>,
    /// Transient-fault retries before giving up.
    pub max_retries: u32,
    /// Degraded-topology recompiles before giving up.
    pub max_recompiles: u32,
    /// First retry waits this long (sim ns) before relaunching.
    pub backoff_base_ns: f64,
    /// Backoff multiplier per further retry.
    pub backoff_factor: f64,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        Self {
            deadline_ns: None,
            max_retries: 8,
            max_recompiles: 4,
            backoff_base_ns: 200_000.0,
            backoff_factor: 2.0,
        }
    }
}

impl FaultPolicy {
    /// The backoff before retry number `retry` (1-based).
    fn backoff_ns(&self, retry: u32) -> f64 {
        self.backoff_base_ns * self.backoff_factor.powi(retry.saturating_sub(1) as i32)
    }
}

/// A handle for issuing collectives on a fixed cluster.
///
/// Dispatch goes through a [`PlanCache`]: the first call of each distinct
/// (operator, algorithm, micro-batch shape) configuration compiles, every
/// repeat is a fingerprint lookup — none of the compile phases run again
/// (observable as an unchanged [`CacheStats::misses`]). Each [`RunReport`]
/// carries the cache counters at the time of the call.
///
/// The cache is held through an `Arc`: by default each communicator owns a
/// private one (today's behavior), and
/// [`with_shared_cache`](Self::with_shared_cache) opts a group of
/// communicators — across threads — into one shared plan service, so a
/// plan compiled by any tenant serves all of them.
pub struct Communicator {
    topo: Topology,
    compiler: Compiler,
    cache: Arc<PlanCache>,
    chunk_bytes: u64,
    /// Cached specs per (op, small) bucket — algorithm construction is
    /// cheap but deterministic reuse keeps behaviour predictable.
    specs: HashMap<(OpType, bool), AlgoSpec>,
    /// Fault schedule injected into every collective issued through this
    /// communicator (sim-time timestamps relative to each call's start).
    faults: FaultTimeline,
    /// Watchdog/retry configuration.
    policy: FaultPolicy,
    /// Resources masked dead by permanent-fault recovery; sticky across
    /// calls, the way a real communicator remembers a dead link.
    health: TopologyHealth,
    /// Validate collective data in the simulator (off by default, matching
    /// the dispatch path's large-sweep configuration).
    validate: bool,
    /// Collect cross-layer observability: compile-phase and watchdog
    /// spans on [`RunReport::obs`], bubble attribution on the sim report.
    observe: bool,
}

impl Communicator {
    /// Create a communicator over `topo` with the default ResCCL backend.
    pub fn new(topo: Topology) -> Self {
        Self {
            topo,
            compiler: Compiler::new(),
            cache: Arc::new(PlanCache::new()),
            chunk_bytes: DEFAULT_CHUNK_BYTES,
            specs: HashMap::new(),
            faults: FaultTimeline::new(),
            policy: FaultPolicy::default(),
            health: TopologyHealth::healthy(),
            validate: false,
            observe: false,
        }
    }

    /// Override the transfer chunk size (default 1 MB).
    pub fn with_chunk_bytes(mut self, chunk_bytes: u64) -> Self {
        assert!(chunk_bytes > 0);
        self.chunk_bytes = chunk_bytes;
        self
    }

    /// Inject a fault schedule into every collective issued through this
    /// communicator. Timestamps are sim time relative to each call's start.
    pub fn with_faults(mut self, faults: FaultTimeline) -> Self {
        self.faults = faults;
        self
    }

    /// Replace the fault schedule in place — the chaos harness re-arms the
    /// same communicator between collectives, and healing reacts to it: a
    /// masked resource whose *current* schedule no longer declares it
    /// permanently dead is un-masked at the next collective boundary.
    pub fn set_faults(&mut self, faults: FaultTimeline) {
        self.faults = faults;
    }

    /// Override the watchdog/retry policy.
    pub fn with_fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enable machine-checked data validation on every collective.
    pub fn with_validation(mut self) -> Self {
        self.validate = true;
        self
    }

    /// Collect cross-layer observability on every collective: compiler
    /// phase spans, cache hit/miss events and watchdog recovery spans
    /// ride on [`RunReport::obs`]; the simulator runs with a transfer
    /// trace and bubble attribution
    /// ([`SimReport::obs`](rescc_sim::SimReport)). Off by default — the
    /// wall-clock compile spans make observed reports nondeterministic,
    /// so replay-comparison consumers must not enable this.
    pub fn with_observability(mut self) -> Self {
        self.observe = true;
        self
    }

    /// The current health mask (resources masked by permanent-fault
    /// recovery so far).
    pub fn health(&self) -> &TopologyHealth {
        &self.health
    }

    /// Fan compilation out over `threads` worker threads (the compiled
    /// plans are bit-identical to serial compilation for any value).
    pub fn with_compile_threads(mut self, threads: usize) -> Self {
        self.compiler = self.compiler.with_threads(threads);
        self
    }

    /// The topology this communicator serves.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Share a plan cache with other communicators (multi-tenant
    /// dispatch). All tenants must agree on compiler configuration for
    /// sharing to pay off — the fingerprint covers compiler options, so a
    /// mismatched tenant simply misses into its own entries. Concurrent
    /// tenants are safe: warm dispatches take only a shared per-shard
    /// lock, and cold dispatches of the same fingerprint are coalesced
    /// into one compile.
    pub fn with_shared_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.cache = cache;
        self
    }

    /// The plan cache this communicator dispatches through — clone the
    /// `Arc` to share it with another tenant.
    pub fn cache_handle(&self) -> Arc<PlanCache> {
        Arc::clone(&self.cache)
    }

    /// Plan-cache counters (hits, misses, resident entries). Under a
    /// shared cache these are service-wide, not per-tenant.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Pick the algorithm for an operator and buffer size.
    fn select(&mut self, op: OpType, buffer_bytes: u64) -> AlgoSpec {
        let nodes = self.topo.n_nodes();
        let g = self.topo.gpus_per_node();
        let n = self.topo.n_ranks();
        // "Small" = latency-dominated: few micro-batches to pipeline.
        let small = buffer_bytes <= (n as u64) * self.chunk_bytes * 2;
        if let Some(spec) = self.specs.get(&(op, small)) {
            return spec.clone();
        }
        let spec = match op {
            OpType::AllGather => hm_allgather(nodes, g),
            OpType::ReduceScatter => hm_reduce_scatter(nodes, g),
            OpType::AllReduce => {
                if small && n.is_power_of_two() && nodes == 1 {
                    // Log-depth butterfly wins when α dominates.
                    recursive_halving_doubling_allreduce(n)
                } else {
                    hm_allreduce(nodes, g)
                }
            }
        };
        self.specs.insert((op, small), spec.clone());
        spec
    }

    /// AllReduce `buffer_bytes` per rank.
    pub fn all_reduce(&mut self, buffer_bytes: u64) -> SimResult<RunReport> {
        self.run(OpType::AllReduce, buffer_bytes)
    }

    /// AllGather `buffer_bytes` per rank (the gathered size).
    pub fn all_gather(&mut self, buffer_bytes: u64) -> SimResult<RunReport> {
        self.run(OpType::AllGather, buffer_bytes)
    }

    /// ReduceScatter `buffer_bytes` per rank.
    pub fn reduce_scatter(&mut self, buffer_bytes: u64) -> SimResult<RunReport> {
        self.run(OpType::ReduceScatter, buffer_bytes)
    }

    fn run(&mut self, op: OpType, buffer_bytes: u64) -> SimResult<RunReport> {
        let spec = self.select(op, buffer_bytes);
        let chunk = self.chunk_bytes;
        let mb = MicroBatchPlan::plan(buffer_bytes, spec.n_chunks(), chunk);
        // The watchdog only reports recovery accounting when it could have
        // done something — otherwise the report stays byte-compatible with
        // a plain healthy dispatch.
        let engaged =
            !self.faults.is_empty() || self.policy.deadline_ns.is_some() || !self.health.is_empty();
        let mut stats = RecoveryStats::default();
        let mut obs = self.observe.then(ObsStats::default);
        // Healing: a masked resource whose current fault schedule no
        // longer declares it permanently dead has been restored — un-mask
        // it and fail back to the healthier plan at this collective
        // boundary (the dispatch below picks it up via the fingerprint).
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
            stats.journal.push(RecoveryEvent {
                attempt: 0,
                cause: format!("{r} restored"),
                at_ns: 0.0,
                action: RecoveryAction::Heal,
            });
            if let Some(o) = obs.as_mut() {
                o.add_heal(0.0, 0.0);
            }
        }
        // Wall-clock offset on the compiler track where the next
        // compile's phase spans start (successive recompiles stack).
        let mut compile_at = 0.0f64;
        // Sim time burned by failed attempts + backoff so far. Each retry
        // replays the fault timeline shifted into the past by this much,
        // so a flap that already passed stays passed.
        let mut elapsed = 0.0f64;
        // Completed invocations accumulated across aborted attempts, in
        // the id space of the full (non-residual) plan — stable across
        // delta recompiles (reroutes preserve task ids) and across full
        // recompiles (the DAG is rebuilt deterministically from the same
        // spec). While non-empty, each attempt resumes from it.
        let mut acc: Option<FaultFrontier> = None;
        loop {
            let topo = self.topo.clone().with_health(self.health.clone());
            // The traced dispatch hands back the CacheEvent for *this*
            // call, so attribution is exact even when the cache is shared
            // across threads (reading `journal().last()` here used to
            // attribute whichever tenant dispatched most recently — and
            // panicked outright with a zero-capacity journal).
            let (plan, ev) = self
                .cache
                .get_or_compile_traced(&self.compiler, &spec, &topo, &mb)?;
            let fingerprint = ev.fingerprint;
            if let Some(o) = obs.as_mut() {
                o.add_cache_event(&ev, compile_at);
                if !ev.is_hit() {
                    compile_at = o.add_compile(&plan.timings, "compiler", compile_at);
                }
            }
            // Every post-fault recompile is analyzed before the collective
            // resumes: the compiler's sanitize phase already ran (the
            // communicator's gate is deny), and RA005 specifically proves
            // no task routes over a masked resource. Refuse to resume on a
            // plan that somehow still carries errors (e.g. a caller-tuned
            // warn gate) rather than fail mid-collective.
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
            if self.observe {
                cfg = cfg.with_trace().with_observability();
            }
            // Partial-progress resume: while the accumulated frontier is
            // non-empty, compile the residual plan (pruned + re-rooted,
            // sanitize re-run, provenance verified) and run only the
            // remainder. A frontier the residual compiler refuses falls
            // back to a plain restart — correctness never depends on the
            // resume succeeding.
            let residual: Option<ResidualPlan> = match &acc {
                Some(f) if !f.is_empty() => self.compiler.residual_plan(&plan, f).ok(),
                _ => None,
            };
            let attempt = match &residual {
                Some(r) => {
                    stats.resumes += 1;
                    if let Some(o) = obs.as_mut() {
                        o.add_resume(stats.resumes as u64, elapsed, 0.0);
                    }
                    let cfg = cfg.clone().with_resume(r.resume.clone());
                    r.plan.run_with(buffer_bytes, chunk, &cfg)
                }
                None => plan.run_with(buffer_bytes, chunk, &cfg),
            };
            let exec_plan: &CompiledPlan = residual.as_ref().map_or(&plan, |r| &r.plan);
            match attempt {
                Ok(sim) => {
                    stats.recovery_ns = elapsed;
                    stats.dead_resources = self.health.dead().iter().map(|r| r.0).collect();
                    stats.plan_fingerprint = fingerprint;
                    stats.lint_diagnostics = plan.diagnostics.diagnostics().len() as u32;
                    // Certificate cross-check, fresh fault-free runs only:
                    // a resumed attempt skips completed work and a
                    // degraded/faulted one runs against parameters the
                    // certificate was not computed for, so neither bounds
                    // from below.
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
                        obs,
                    });
                }
                Err(err) if err.is_transient() => {
                    stats.retries += 1;
                    if stats.retries > self.policy.max_retries {
                        return Err(err);
                    }
                    let failed_at = err.at_ns().unwrap_or(0) as f64;
                    let resumable =
                        absorb_frontier(err.frontier(), &residual, plan.dag.len() as u32, &mut acc);
                    let backoff = self.policy.backoff_ns(stats.retries);
                    if let Some(o) = obs.as_mut() {
                        o.add_retry(stats.retries as u64, elapsed, failed_at);
                        o.add_backoff(elapsed + failed_at, backoff);
                    }
                    stats.journal.push(RecoveryEvent {
                        attempt: stats.retries + stats.recompiles,
                        cause: match &err {
                            SimError::ResourceDown { resource, .. } => {
                                format!("transient r{resource} down")
                            }
                            SimError::DeadlineExceeded { .. } => "deadline".to_string(),
                            _ => "transient".to_string(),
                        },
                        at_ns: elapsed + failed_at,
                        action: if resumable {
                            RecoveryAction::Resume
                        } else {
                            RecoveryAction::Retry
                        },
                    });
                    elapsed += failed_at + backoff;
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
                        // Budget exhausted, or the resource was already
                        // masked (routing could not avoid it): no progress
                        // is possible.
                        return Err(SimError::ResourceDown {
                            resource,
                            task,
                            at_ns,
                            permanent: true,
                            frontier,
                        });
                    }
                    // Fold the aborted attempt's completed work in before
                    // the plan changes under us — the post-recompile
                    // dispatch resumes from it instead of restarting.
                    absorb_frontier(
                        frontier.as_deref(),
                        &residual,
                        plan.dag.len() as u32,
                        &mut acc,
                    );
                    // Incremental recompile: reroute the just-failed plan
                    // around the freshly-masked resource and splice
                    // (`Compiler::recompile_delta`), caching the result
                    // under the degraded fingerprint so the dispatch at the
                    // top of the loop hits instead of compiling the whole
                    // pipeline again. Residual plans never go through the
                    // delta path — the recompile always starts from the
                    // full cached plan, and the next dispatch re-prunes.
                    // If the splice is denied (no healthy route — the deny
                    // gate fires), fall through: the full compile at the
                    // top of the loop reports the identical lint error.
                    let mut action = RecoveryAction::FullRecompile;
                    if let Ok(delta) = self.compiler.recompile_delta(&plan, &self.health) {
                        let degraded = self.topo.clone().with_health(self.health.clone());
                        let fp = plan_fingerprint(&self.compiler, &spec, &degraded, &mb);
                        stats.delta_recompiles += 1;
                        action = RecoveryAction::DeltaRecompile;
                        if let Some(o) = obs.as_mut() {
                            compile_at =
                                o.add_compile(&delta.timings, "compiler-delta", compile_at);
                            o.add_delta_recompile(elapsed + at_ns as f64, 0.0);
                        }
                        self.cache.insert(fp, std::sync::Arc::new(delta));
                    }
                    if let Some(o) = obs.as_mut() {
                        o.add_recompile(elapsed + at_ns as f64, self.policy.backoff_base_ns);
                    }
                    stats.journal.push(RecoveryEvent {
                        attempt: stats.retries + stats.recompiles,
                        cause: format!("r{resource} dead"),
                        at_ns: elapsed + at_ns as f64,
                        action,
                    });
                    elapsed += at_ns as f64 + self.policy.backoff_base_ns;
                }
                // Invalid program/config, wrong data, deadlock, …: not
                // recoverable by retrying or rerouting.
                Err(err) => return Err(err),
            }
        }
    }
}

/// Fold a just-aborted attempt's frontier into the accumulated one, mapping
/// residual-space task ids back to the full plan's id space when the
/// attempt ran a residual plan. Returns whether the accumulated frontier is
/// now non-empty (i.e. the next attempt can resume).
fn absorb_frontier(
    frontier: Option<&FaultFrontier>,
    residual: &Option<ResidualPlan>,
    full_n_tasks: u32,
    acc: &mut Option<FaultFrontier>,
) -> bool {
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
    acc.as_ref().is_some_and(|a| !a.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    #[test]
    fn issues_all_three_collectives() {
        let mut comm = Communicator::new(Topology::a100(2, 4));
        for rep in [
            comm.all_reduce(64 * MB).unwrap(),
            comm.all_gather(64 * MB).unwrap(),
            comm.reduce_scatter(64 * MB).unwrap(),
        ] {
            assert!(rep.algbw_gbps() > 0.0);
            assert_eq!(rep.backend, "resccl");
        }
    }

    #[test]
    fn small_single_node_allreduce_uses_butterfly() {
        let mut comm = Communicator::new(Topology::a100(1, 8));
        let small = comm.all_reduce(4 * MB).unwrap();
        assert!(small.algo.starts_with("rechd-ar"));
        let large = comm.all_reduce(1024 * MB).unwrap();
        assert!(large.algo.starts_with("hm-ar"));
    }

    #[test]
    fn multi_node_uses_hierarchical_mesh() {
        let mut comm = Communicator::new(Topology::a100(4, 8));
        let rep = comm.all_reduce(256 * MB).unwrap();
        assert!(rep.algo.starts_with("hm-ar"));
    }

    #[test]
    fn spec_cache_is_stable() {
        let mut comm = Communicator::new(Topology::a100(2, 4));
        let a = comm.all_gather(128 * MB).unwrap();
        let b = comm.all_gather(128 * MB).unwrap();
        assert_eq!(a.sim, b.sim);
    }

    #[test]
    fn custom_chunk_size() {
        let mut comm = Communicator::new(Topology::a100(1, 4)).with_chunk_bytes(4 * MB);
        let rep = comm.all_gather(64 * MB).unwrap();
        assert!(rep.sim.n_micro_batches <= 4);
    }

    #[test]
    fn healthy_run_reports_no_recovery() {
        let mut comm = Communicator::new(Topology::a100(2, 4));
        let rep = comm.all_reduce(64 * MB).unwrap();
        assert_eq!(rep.recovery, None);
        assert_eq!(rep.total_completion_ns(), rep.sim.completion_ns);
    }

    #[test]
    fn transient_flap_is_retried_to_success() {
        let topo = Topology::a100(2, 4);
        let chan = topo.pair_chan(rescc_topology::Rank::new(0), rescc_topology::Rank::new(1));
        let mut comm = Communicator::new(topo)
            .with_validation()
            .with_faults(FaultTimeline::new().flap(chan, 50_000.0, 80_000.0, 80_000.0, 1));
        let rep = comm.all_reduce(64 * MB).unwrap();
        assert_eq!(rep.sim.data_valid, Some(true));
        let rec = rep.recovery.clone().expect("watchdog engaged");
        assert!(rec.retries >= 1, "flap must force at least one retry");
        assert_eq!(rec.recompiles, 0, "transient faults never recompile");
        assert!(rec.dead_resources.is_empty());
        assert!(rec.recovery_ns > 0.0);
        assert!(rep.total_completion_ns() > rep.sim.completion_ns);
        assert!(comm.health().is_empty(), "no permanent masking");
    }

    #[test]
    fn permanent_link_death_masks_and_recompiles() {
        let topo = Topology::a100(2, 4);
        let chan = topo.pair_chan(rescc_topology::Rank::new(0), rescc_topology::Rank::new(1));
        let mut comm = Communicator::new(topo)
            .with_validation()
            .with_faults(FaultTimeline::new().kill(chan, 100_000.0));
        let healthy_fp = {
            let mut h = Communicator::new(Topology::a100(2, 4)).with_validation();
            h.all_reduce(64 * MB)
                .unwrap()
                .recovery
                .map(|r| r.plan_fingerprint)
        };
        let rep = comm.all_reduce(64 * MB).unwrap();
        assert_eq!(rep.sim.data_valid, Some(true));
        let rec = rep.recovery.expect("watchdog engaged");
        assert!(rec.recompiles >= 1, "link death must recompile");
        assert_eq!(
            rec.delta_recompiles, rec.recompiles,
            "a surviving intra-node reroute must be served incrementally"
        );
        assert_eq!(rec.dead_resources, vec![chan.0]);
        // The degraded plan was re-analyzed (deny gate) and came out clean.
        assert_eq!(rec.lint_diagnostics, 0);
        assert!(comm.health().is_dead(chan));
        // The degraded plan's fingerprint differs from any healthy plan's.
        assert_ne!(Some(rec.plan_fingerprint), healthy_fp);
        assert_ne!(rec.plan_fingerprint, 0);
        // The mask is sticky: a second call reuses the degraded plan
        // without failing again (the kill at 100µs re-fires, but the dead
        // channel is no longer on any path).
        let again = comm.all_reduce(64 * MB).unwrap();
        assert_eq!(again.sim.data_valid, Some(true));
        assert_eq!(again.recovery.expect("engaged").recompiles, 0);
    }

    #[test]
    fn deadline_bounds_each_attempt() {
        let mut healthy = Communicator::new(Topology::a100(2, 4));
        let base = healthy.all_reduce(64 * MB).unwrap().sim.completion_ns;
        // A deadline below the healthy completion can never be met; the
        // watchdog retries it max_retries times, then gives up.
        let mut comm = Communicator::new(Topology::a100(2, 4)).with_fault_policy(FaultPolicy {
            deadline_ns: Some(base * 0.5),
            max_retries: 2,
            ..FaultPolicy::default()
        });
        let err = comm.all_reduce(64 * MB).unwrap_err();
        assert!(matches!(err, SimError::DeadlineExceeded { .. }), "{err}");
        // A generous deadline passes and reports zero retries.
        let mut comm = Communicator::new(Topology::a100(2, 4)).with_fault_policy(FaultPolicy {
            deadline_ns: Some(base * 2.0),
            ..FaultPolicy::default()
        });
        let rep = comm.all_reduce(64 * MB).unwrap();
        let rec = rep.recovery.expect("deadline engages the watchdog");
        assert_eq!(rec.retries, 0);
    }

    #[test]
    fn observability_is_off_by_default() {
        let mut comm = Communicator::new(Topology::a100(2, 4));
        let rep = comm.all_reduce(64 * MB).unwrap();
        assert_eq!(rep.obs, None);
        assert_eq!(rep.sim.obs, None);
        assert!(rep.sim.trace.is_empty());
    }

    #[test]
    fn observability_collects_compile_cache_and_watchdog_spans() {
        use rescc_obs::SpanCategory;
        let topo = Topology::a100(2, 4);
        let chan = topo.pair_chan(rescc_topology::Rank::new(0), rescc_topology::Rank::new(1));
        let mut comm = Communicator::new(topo)
            .with_observability()
            .with_faults(FaultTimeline::new().flap(chan, 50_000.0, 80_000.0, 80_000.0, 1));
        let rep = comm.all_reduce(64 * MB).unwrap();
        let obs = rep.obs.as_ref().expect("observability enabled");
        // First dispatch compiles; phase spans rode along.
        assert_eq!(obs.cache_misses, 1);
        assert!(obs.compile_total_ns() > 0.0);
        assert!(obs
            .spans
            .iter()
            .any(|s| s.category == SpanCategory::Compile));
        assert!(obs.spans.iter().any(|s| s.category == SpanCategory::Cache));
        // The flap forced at least one retry; watchdog spans and counters
        // agree with the recovery accounting.
        let rec = rep.recovery.as_ref().expect("watchdog engaged");
        assert_eq!(obs.retries, rec.retries as u64);
        assert!(obs.retries >= 1);
        assert!(obs.backoff_ns > 0.0);
        assert!(obs
            .spans
            .iter()
            .any(|s| s.category == SpanCategory::Recovery && s.name == "backoff"));
        // The simulator ran with trace + bubble attribution.
        assert!(rep.sim.obs.is_some());
        assert!(!rep.sim.trace.is_empty());
        // A second identical call hits the cache (once per attempt — the
        // flap timeline re-fires, so the retry dispatches again): no new
        // compile time.
        let rep2 = comm.all_reduce(64 * MB).unwrap();
        let obs2 = rep2.obs.as_ref().unwrap();
        assert!(obs2.cache_hits >= 1);
        assert_eq!(obs2.cache_misses, 0);
        assert_eq!(obs2.compile_total_ns(), 0.0);
    }

    #[test]
    fn observability_stacks_recompile_spans() {
        use rescc_obs::SpanCategory;
        let topo = Topology::a100(2, 4);
        let chan = topo.pair_chan(rescc_topology::Rank::new(0), rescc_topology::Rank::new(1));
        let mut comm = Communicator::new(topo)
            .with_observability()
            .with_faults(FaultTimeline::new().kill(chan, 100_000.0));
        let rep = comm.all_reduce(64 * MB).unwrap();
        let obs = rep.obs.as_ref().unwrap();
        let rec = rep.recovery.as_ref().unwrap();
        assert!(rec.recompiles >= 1);
        assert_eq!(obs.recompiles, rec.recompiles as u64);
        assert_eq!(obs.delta_recompiles, rec.delta_recompiles as u64);
        // The degraded plan was spliced incrementally and inserted into the
        // cache, so only the healthy plan ever missed; the post-fault
        // dispatch hits.
        assert_eq!(obs.cache_misses, 1);
        assert!(obs.cache_hits >= 1);
        assert!(obs
            .spans
            .iter()
            .any(|s| s.category == SpanCategory::Recovery && s.name == "mask+recompile"));
        assert!(obs
            .spans
            .iter()
            .any(|s| s.category == SpanCategory::Recovery && s.name == "splice-delta"));
        // Compile spans from the two compiles stack without overlap.
        let mut compile_spans: Vec<_> = obs
            .spans
            .iter()
            .filter(|s| s.category == SpanCategory::Compile)
            .collect();
        compile_spans.sort_by(|a, b| a.start_ns.total_cmp(&b.start_ns));
        for w in compile_spans.windows(2) {
            assert!(w[0].end_ns() <= w[1].start_ns + 1e-6);
        }
    }

    #[test]
    fn permanent_fault_resumes_from_frontier() {
        let topo = Topology::a100(2, 4);
        let chan = topo.pair_chan(rescc_topology::Rank::new(0), rescc_topology::Rank::new(1));
        let healthy_ns = {
            let mut h = Communicator::new(Topology::a100(2, 4)).with_validation();
            h.all_reduce(64 * MB).unwrap().sim.completion_ns
        };
        // Kill well past the halfway point: most invocations completed,
        // so the post-recompile attempt must resume, not restart.
        let mut comm = Communicator::new(topo)
            .with_validation()
            .with_faults(FaultTimeline::new().kill(chan, healthy_ns * 0.6));
        let rep = comm.all_reduce(64 * MB).unwrap();
        assert_eq!(rep.sim.data_valid, Some(true));
        let rec = rep.recovery.expect("watchdog engaged");
        assert!(rec.recompiles >= 1);
        assert!(
            rec.resumes >= 1,
            "late fault must resume from the frontier: {rec:?}"
        );
        assert!(
            rep.sim.completion_ns < healthy_ns,
            "residual attempt {} must be shorter than a full run {healthy_ns}",
            rep.sim.completion_ns
        );
        assert!(!rec.journal.is_empty());
        assert_eq!(rec.journal[0].action, crate::RecoveryAction::DeltaRecompile);
        assert!(rec.journal[0].cause.contains("dead"), "{rec:?}");
        assert!(rec.journal[0].at_ns > 0.0);
    }

    #[test]
    fn transient_kill_with_restore_resumes_without_masking() {
        let topo = Topology::a100(2, 4);
        let chan = topo.pair_chan(rescc_topology::Rank::new(0), rescc_topology::Rank::new(1));
        // Down at 300µs, restored 200µs later: the timeline declares the
        // outage non-permanent, so the abort is transient and recovery
        // resumes on the *same* (unmasked) plan.
        let mut comm = Communicator::new(topo).with_validation().with_faults(
            FaultTimeline::new()
                .kill(chan, 300_000.0)
                .restore(chan, 500_000.0),
        );
        let rep = comm.all_reduce(64 * MB).unwrap();
        assert_eq!(rep.sim.data_valid, Some(true));
        let rec = rep.recovery.expect("watchdog engaged");
        assert!(rec.retries >= 1);
        assert_eq!(rec.recompiles, 0, "restored outage must not recompile");
        assert!(
            rec.resumes >= 1,
            "mid-run outage must resume from the frontier: {rec:?}"
        );
        assert!(comm.health().is_empty(), "no masking for restored faults");
        assert!(rec
            .journal
            .iter()
            .any(|e| e.action == crate::RecoveryAction::Resume));
    }

    #[test]
    fn restored_resource_heals_back_to_healthy_plan() {
        let topo = Topology::a100(2, 4);
        let chan = topo.pair_chan(rescc_topology::Rank::new(0), rescc_topology::Rank::new(1));
        let healthy_fp = {
            // A generous deadline engages the watchdog on a healthy twin,
            // exposing the healthy plan's fingerprint.
            let mut h = Communicator::new(Topology::a100(2, 4)).with_fault_policy(FaultPolicy {
                deadline_ns: Some(1e12),
                ..FaultPolicy::default()
            });
            h.all_reduce(64 * MB)
                .unwrap()
                .recovery
                .unwrap()
                .plan_fingerprint
        };
        let mut comm = Communicator::new(topo)
            .with_validation()
            .with_faults(FaultTimeline::new().kill(chan, 100_000.0));
        let first = comm.all_reduce(64 * MB).unwrap();
        assert!(comm.health().is_dead(chan), "kill masks the channel");
        let degraded_fp = first.recovery.unwrap().plan_fingerprint;
        assert_ne!(degraded_fp, healthy_fp);
        // The link comes back: the schedule no longer declares it dead.
        comm.set_faults(FaultTimeline::new());
        let healed = comm.all_reduce(64 * MB).unwrap();
        assert!(comm.health().is_empty(), "heal must clear the mask");
        let rec = healed.recovery.expect("heal engages the watchdog");
        assert_eq!(rec.heals, 1);
        assert_eq!(rec.recompiles, 0);
        assert_eq!(rec.retries, 0);
        assert_eq!(
            rec.plan_fingerprint, healthy_fp,
            "heal must fail back to the cached healthy plan"
        );
        assert_eq!(rec.journal.len(), 1);
        assert_eq!(rec.journal[0].action, crate::RecoveryAction::Heal);
        assert!(rec.journal[0].cause.contains("restored"));
        // Fully healthy again: the next call reports no recovery at all.
        let clean = comm.all_reduce(64 * MB).unwrap();
        assert_eq!(clean.recovery, None);
    }

    #[test]
    fn journal_orders_attempts_and_observability_counts_resumes() {
        let topo = Topology::a100(2, 4);
        let chan = topo.pair_chan(rescc_topology::Rank::new(0), rescc_topology::Rank::new(1));
        let mut comm = Communicator::new(topo)
            .with_observability()
            .with_validation()
            .with_faults(
                FaultTimeline::new()
                    .kill(chan, 300_000.0)
                    .restore(chan, 500_000.0),
            );
        let rep = comm.all_reduce(64 * MB).unwrap();
        let rec = rep.recovery.expect("watchdog engaged");
        assert!(!rec.journal.is_empty());
        for (i, ev) in rec.journal.iter().enumerate() {
            assert_eq!(ev.attempt, i as u32 + 1, "attempts must be ordered");
            assert!(ev.at_ns >= 0.0);
        }
        let obs = rep.obs.expect("observability enabled");
        assert_eq!(obs.resumes, rec.resumes as u64);
        assert!(obs
            .spans
            .iter()
            .any(|s| s.name.starts_with("resume#")
                && s.category == rescc_obs::SpanCategory::Recovery));
    }

    #[test]
    fn recovery_replays_byte_identically() {
        let run = || {
            let topo = Topology::a100(2, 4);
            let chan = topo.pair_chan(rescc_topology::Rank::new(1), rescc_topology::Rank::new(2));
            let mut comm = Communicator::new(topo).with_validation().with_faults(
                FaultTimeline::new()
                    .kill(chan, 150_000.0)
                    .straggler(0, 0.0, 2.0, 400_000.0),
            );
            comm.all_reduce(64 * MB).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed/timeline must replay byte-identically");
        assert!(a.recovery.is_some());
    }
}
