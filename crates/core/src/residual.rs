//! Residual-plan construction — the partial-progress half of fault
//! recovery.
//!
//! When a run aborts, the engine's [`FaultFrontier`] names exactly which
//! `(task, micro-batch)` invocations completed. Restarting from scratch
//! throws that work away; [`Compiler::residual_plan`] instead compiles the
//! *remainder*:
//!
//! 1. **Prune** — tasks whose every micro-batch invocation completed are
//!    removed from the DAG ([`DepDag::residual`]), which re-roots the
//!    surviving chains at the frontier.
//! 2. **Recompile** — scheduling and lowering re-run on the residual DAG
//!    (the pruned shape changes priorities and TB shapes), and the
//!    sanitize lints re-run via [`rescc_analyze::analyze_residual`].
//!    Dead-transfer coverage comes from RA008, which replays the
//!    completed prefix from the fault frontier before judging the
//!    surviving transfers (plain RA004 would mis-replay a plan whose
//!    chunk histories start mid-flight).
//! 3. **Resume state** — a [`ResumeState`] carries the still-incomplete
//!    tasks' finished micro-batches plus the ordered buffer replay that
//!    reconstructs everything the aborted run already moved.
//! 4. **Provenance** — before the plan is handed back, a static per-chunk
//!    value replay proves that *replayed prefix + residual remainder*
//!    reaches the collective's postcondition in every micro-batch, i.e.
//!    that resuming is byte-equivalent to a fault-free run.

use crate::{CompiledPlan, Compiler, PhaseTimings};
use rescc_analyze::{analyze_residual, AnalysisInput, ResidualContext};
use rescc_ir::{DepDag, TaskId};
use rescc_lang::CommType;
use rescc_sim::{
    expected_final, initial_value, ChunkValue, FaultFrontier, ReplayOp, ResumeState, SimError,
    SimResult,
};
use rescc_topology::ChunkId;
use std::time::Instant;

/// The compiled remainder of a faulted run: a [`CompiledPlan`] over the
/// unfinished tasks plus the [`ResumeState`] that makes running it
/// equivalent to finishing the original run.
#[derive(Clone, Debug)]
pub struct ResidualPlan {
    /// The residual plan (fully-completed tasks pruned, chains re-rooted,
    /// scheduling/lowering/sanitize re-run on the remainder).
    pub plan: CompiledPlan,
    /// Resume state to run the plan with
    /// ([`SimConfig::with_resume`](rescc_sim::SimConfig::with_resume)):
    /// completed micro-batches of surviving tasks plus the buffer replay
    /// of everything the aborted run finished.
    pub resume: ResumeState,
    /// Map from residual task index to the original plan's [`TaskId`],
    /// for translating later frontiers back into the original id space.
    pub orig_ids: Vec<TaskId>,
}

impl ResidualPlan {
    /// Fraction of the original run's invocations the resume skips.
    pub fn carried_fraction(&self, frontier: &FaultFrontier) -> f64 {
        frontier.fraction_complete()
    }

    /// Translate a frontier captured while *running this residual plan*
    /// back into the original plan's id space, so successive faults can be
    /// accumulated ([`FaultFrontier::union`]) against one baseline.
    pub fn frontier_to_original(
        &self,
        residual: &FaultFrontier,
        original_n_tasks: u32,
    ) -> FaultFrontier {
        let mut out = FaultFrontier::new(original_n_tasks, residual.n_mb, residual.at_ns);
        for (ri, oid) in self.orig_ids.iter().enumerate() {
            for mb in 0..residual.n_mb {
                if residual.is_done(ri as u32, mb) {
                    out.mark(oid.0, mb);
                }
            }
        }
        out
    }
}

impl Compiler {
    /// Compile the residual plan for a faulted run: prune the frontier's
    /// fully-completed tasks, re-schedule and re-lower the remainder, re-run
    /// the sanitize lints, build the resume state, and statically verify
    /// provenance (replayed prefix + remainder ≡ the full collective).
    ///
    /// The returned plan targets the *same* topology as `cached` — mask the
    /// health first (via [`Compiler::recompile_delta`]) when the fault was
    /// permanent, then build the residual from the recompiled plan.
    ///
    /// Provenance verification mirrors the static-verify policy of
    /// [`Compiler::compile_spec`]: it runs when [`Compiler::verify`] is set
    /// and the group has at most 256 ranks (the simulator's runtime data
    /// check still covers larger groups).
    pub fn residual_plan(
        &self,
        cached: &CompiledPlan,
        frontier: &FaultFrontier,
    ) -> SimResult<ResidualPlan> {
        let mut timings = PhaseTimings::default();
        let n_tasks = cached.dag.len() as u32;
        if frontier.n_tasks != n_tasks {
            return Err(SimError::InvalidConfig(format!(
                "frontier covers {} tasks, plan has {n_tasks}",
                frontier.n_tasks
            )));
        }

        let t0 = Instant::now();
        let keep: Vec<bool> = (0..n_tasks).map(|t| !frontier.task_fully_done(t)).collect();
        let (dag, orig_ids) = cached
            .dag
            .residual(&keep, &cached.topo)
            .map_err(|e| SimError::new(e.to_string()))?;
        timings.analysis = t0.elapsed();

        // Resume state: completed micro-batches of surviving tasks in the
        // residual id space, plus the replay of *every* completed
        // invocation (pruned tasks included) in per-chunk dependency
        // order — buffer effects never cross chunks, so per-chunk order is
        // exactly the order the engine produced them in.
        let n_mb = frontier.n_mb;
        let mut resume = ResumeState::new(dag.len() as u32, n_mb);
        let mut new_id = vec![u32::MAX; cached.dag.len()];
        for (ri, oid) in orig_ids.iter().enumerate() {
            new_id[oid.index()] = ri as u32;
        }
        for c in 0..cached.dag.n_chunks() {
            for &tid in cached.dag.chunk_tasks(ChunkId::new(c)) {
                let task = cached.dag.task(tid);
                for mb in 0..n_mb {
                    if !frontier.is_done(tid.0, mb) {
                        continue;
                    }
                    resume.replay.push(ReplayOp {
                        src: task.src.0,
                        dst: task.dst.0,
                        chunk: task.chunk.0,
                        mb,
                        reduce: task.comm == CommType::Rrc,
                    });
                    if new_id[tid.index()] != u32::MAX {
                        resume.mark_done(new_id[tid.index()], mb);
                    }
                }
            }
        }

        let (schedule, alloc, program) =
            self.schedule_and_lower(cached.spec.name(), &dag, &mut timings)?;
        let diagnostics = self.sanitize("residual plan", &mut timings, || {
            let completed: Vec<bool> = keep.iter().map(|&k| !k).collect();
            analyze_residual(
                &AnalysisInput {
                    spec: &cached.spec,
                    dag: &dag,
                    schedule: &schedule,
                    alloc: &alloc,
                    program: &program,
                    topo: &cached.topo,
                },
                &self.lint_config,
                &ResidualContext {
                    orig_dag: &cached.dag,
                    orig_ids: &orig_ids,
                    completed: &completed,
                },
            )
        })?;

        if self.verifies(&cached.spec) {
            verify_provenance(cached, &dag, &resume)?;
        }

        let plan = CompiledPlan {
            topo: cached.topo.clone(),
            spec: cached.spec.clone(),
            dag,
            schedule,
            alloc,
            program,
            timings,
            diagnostics,
        };
        Ok(ResidualPlan {
            plan,
            resume,
            orig_ids,
        })
    }
}

/// Statically prove frontier + residual ≡ full run: per micro-batch,
/// replay the completed prefix's buffer effects and then the residual
/// tasks' (in per-chunk dependency order) over the collective's initial
/// values, and check every rank/chunk slot reaches the postcondition.
fn verify_provenance(
    cached: &CompiledPlan,
    residual: &DepDag,
    resume: &ResumeState,
) -> SimResult<()> {
    let n_ranks = cached.spec.n_ranks();
    let n_chunks = cached.dag.n_chunks();
    let op = cached.spec.op();
    for mb in 0..resume.n_mb {
        let mut buf: Vec<ChunkValue> = (0..n_ranks)
            .flat_map(|r| (0..n_chunks).map(move |c| initial_value(op, n_ranks, r, c)))
            .collect();
        let apply = |src: u32, dst: u32, chunk: u32, reduce: bool, buf: &mut Vec<ChunkValue>| {
            let s = (src * n_chunks + chunk) as usize;
            let d = (dst * n_chunks + chunk) as usize;
            let v = buf[s].clone();
            if reduce {
                buf[d].reduce_from(&v);
            } else {
                buf[d].copy_from(&v);
            }
        };
        for rop in resume.replay.iter().filter(|o| o.mb == mb) {
            apply(rop.src, rop.dst, rop.chunk, rop.reduce, &mut buf);
        }
        for c in 0..n_chunks {
            for &tid in residual.chunk_tasks(ChunkId::new(c)) {
                if resume.is_done(tid.0, mb) {
                    continue;
                }
                let t = residual.task(tid);
                apply(
                    t.src.0,
                    t.dst.0,
                    t.chunk.0,
                    t.comm == CommType::Rrc,
                    &mut buf,
                );
            }
        }
        for r in 0..n_ranks {
            for c in 0..n_chunks {
                if let Some(exp) = expected_final(op, n_ranks, r, c) {
                    if buf[(r * n_chunks + c) as usize] != exp {
                        return Err(SimError::new(format!(
                            "residual provenance violated: rank {r} chunk {c} \
                             micro-batch {mb} would not reach the collective's \
                             final value — frontier and residual disagree"
                        )));
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescc_algos::hm_allreduce;
    use rescc_topology::Topology;

    fn frontier_at(plan: &CompiledPlan, n_mb: u32, fraction: f64) -> FaultFrontier {
        // Deterministic synthetic frontier: complete a downward-closed
        // prefix of each chunk chain across all micro-batches, plus the
        // first micro-batch of the next task in the chain.
        let mut f = FaultFrontier::new(plan.dag.len() as u32, n_mb, 1_000_000);
        for c in 0..plan.dag.n_chunks() {
            let chain = plan.dag.chunk_tasks(ChunkId::new(c));
            let full = ((chain.len() as f64) * fraction) as usize;
            for (i, tid) in chain.iter().enumerate() {
                if i < full {
                    for mb in 0..n_mb {
                        f.mark(tid.0, mb);
                    }
                } else if i == full && n_mb > 1 {
                    f.mark(tid.0, 0);
                }
            }
        }
        f
    }

    #[test]
    fn residual_plan_prunes_verifies_and_finishes_the_run() {
        let topo = Topology::a100(2, 4);
        let compiler = Compiler::new();
        let plan = compiler.compile_spec(&hm_allreduce(2, 4), &topo).unwrap();
        let buffer: u64 = 16 << 20;
        let chunk: u64 = 1 << 20;
        let n_mb = (buffer / (plan.spec.n_chunks() as u64 * chunk)).max(1) as u32;
        let frontier = frontier_at(&plan, n_mb, 0.5);
        assert!(frontier.fraction_complete() > 0.3);

        let residual = compiler.residual_plan(&plan, &frontier).unwrap();
        assert!(residual.plan.dag.len() < plan.dag.len(), "must prune");
        assert_eq!(residual.orig_ids.len(), residual.plan.dag.len());

        let base = plan.run(buffer, chunk).unwrap();
        let cfg = rescc_sim::SimConfig::default().with_resume(residual.resume.clone());
        let rep = residual.plan.run_with(buffer, chunk, &cfg).unwrap();
        assert_eq!(rep.data_valid, Some(true));
        assert!(
            rep.completion_ns < base.completion_ns,
            "residual {} must finish sooner than full {}",
            rep.completion_ns,
            base.completion_ns
        );
    }

    #[test]
    fn residual_plan_rejects_mismatched_frontier() {
        let topo = Topology::a100(1, 4);
        let compiler = Compiler::new();
        let plan = compiler
            .compile_spec(&rescc_algos::ring_allgather(4), &topo)
            .unwrap();
        let bad = FaultFrontier::new(3, 2, 0);
        assert!(compiler.residual_plan(&plan, &bad).is_err());
    }

    #[test]
    fn residual_frontier_translates_back_to_original_ids() {
        let topo = Topology::a100(1, 8);
        let compiler = Compiler::new();
        let plan = compiler
            .compile_spec(&rescc_algos::ring_allgather(8), &topo)
            .unwrap();
        let frontier = frontier_at(&plan, 2, 0.4);
        let residual = compiler.residual_plan(&plan, &frontier).unwrap();
        // A second fault mid-residual: mark the first residual task done.
        let mut f2 = FaultFrontier::new(residual.plan.dag.len() as u32, 2, 500);
        f2.mark(0, 0);
        f2.mark(0, 1);
        let mapped = residual.frontier_to_original(&f2, plan.dag.len() as u32);
        assert_eq!(mapped.completed(), 2);
        assert!(mapped.task_fully_done(residual.orig_ids[0].0));
        // Union with the first frontier accumulates progress (the mapped
        // task may already have some micro-batches done in the original).
        let orig = residual.orig_ids[0].0;
        let fresh = (0..2).filter(|&mb| !frontier.is_done(orig, mb)).count() as u64;
        let mut acc = frontier.clone();
        assert!(acc.union(&mapped));
        assert_eq!(acc.completed(), frontier.completed() + fresh);
    }
}
