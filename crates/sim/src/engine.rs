//! The discrete-event simulation engine.
//!
//! Executes a generated [`KernelProgram`] on a [`Topology`] with fluid
//! (processor-sharing) bandwidth arbitration implementing Eq. (1):
//!
//! * every transfer first spends its startup latency `α` (plus interpreter
//!   overhead and cross-rack hops) without occupying link capacity,
//! * it then *drains* its bytes at a dynamic rate — the minimum, over all
//!   capacity resources on its path, of that resource's effective bandwidth
//!   divided by the number of concurrent drains (`effective_bandwidth(z)`
//!   already folds in the `γ·L(z)` contention penalty),
//! * whenever a resource's load changes, the rates of every transfer
//!   sharing it are settled and re-projected.
//!
//! TBs are state machines walking their slot/micro-batch invocation
//! sequence; an invocation starts when the sender TB and the receiver TB
//! have both arrived **and** all data dependencies of that micro-batch are
//! complete (the `wait_deps` flags of the generated kernel). Blocked time
//! is accounted as sync; transfer time as busy. Source values are captured
//! at transfer start (the FIFO-slot semantics of real CCL buffers), and the
//! receiver applies copy/reduce at completion, so the final buffers can be
//! checked against the collective's contract.

use crate::config::SimConfig;
use crate::error::{SimError, SimResult};
use crate::fault::{Fault, FaultEvent};
use crate::frontier::FaultFrontier;
use crate::metrics::{ResourceStat, SimReport, TbStat};
use crate::obs::{
    add_interval, BubbleCause, BubbleInterval, LinkTimeline, SimObservability, TbTimeline,
};
use crate::queue::{key_cmp, TransferQueue};
use crate::trace::{FaultRecord, TraceEvent};
use crate::value::{expected_final, initial_value, ChunkValue};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rescc_ir::{DepDag, MicroBatchPlan, TaskId};
use rescc_kernel::{KernelProgram, LoopOrder};
use rescc_lang::{CommType, OpType};
use rescc_topology::{LinkParams, ResourceId, ResourceSet, Topology};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Run one collective call end to end.
pub fn simulate(
    topo: &Topology,
    dag: &DepDag,
    program: &KernelProgram,
    plan: &MicroBatchPlan,
    op: OpType,
    config: &SimConfig,
) -> SimResult<SimReport> {
    Engine::new(topo, dag, program, plan, op, config)?.run()
}

const NONE: u32 = u32::MAX;

/// An event outside the transfer queue. Transfer events (latency done,
/// drain done) live in [`TransferQueue`], one per transfer slot, and are
/// told apart by [`Transfer::draining`].
#[derive(Clone, Copy, Debug)]
enum EvKind {
    /// A scheduled fault transition (index into the sorted schedule).
    Fault(u32),
    /// The watchdog deadline.
    Deadline,
}

/// The event the loop handles next.
enum Next {
    Transfer(u32),
    Side(EvKind),
}

#[derive(Clone, Copy, Debug)]
struct Ev {
    t: f64,
    seq: u64,
    kind: EvKind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.seq == other.seq
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap: smaller time first; stable tie-break on sequence.
        key_cmp(other.t, other.seq, self.t, self.seq)
    }
}

/// One issue group of a TB: `len` slots starting at `first_slot`, all
/// issued together for micro-batch `mb`. A fused `recv -> send` pair forms
/// a 2-slot group (cut-through: both transfers in flight concurrently);
/// unfused slots are singleton groups.
#[derive(Clone, Copy)]
struct IssueGroup {
    first_slot: u32,
    len: u32,
    mb: u32,
}

struct TbState {
    rank: u32,
    tb: u32,
    prog_rank: usize,
    prog_tb: usize,
    groups: Vec<IssueGroup>,
    group_idx: usize,
    group_remaining: u32,
    /// Fused forwards issued but not yet drained. They never gate
    /// `group_remaining` — the TB advances to its next micro-batch as soon
    /// as the gating slots retire — but the TB is not released until they
    /// finish.
    async_outstanding: u32,
    busy: f64,
    sync: f64,
    release: f64,
    n_inv: u64,
}

#[derive(Clone, Copy)]
struct InvState {
    deps_remaining: u32,
    send_tb: u32,
    send_arrival: f64,
    recv_tb: u32,
    recv_arrival: f64,
    started: bool,
    done: bool,
    /// Transfer slot while in flight (`NONE` before start and after
    /// completion — the slot is recycled then).
    transfer: u32,
}

struct Transfer {
    task: TaskId,
    /// The task's path, copied at issue: the per-event handlers read it
    /// here instead of from the DAG's task array.
    path: ResourceSet,
    mb: u32,
    bytes: u64,
    remaining: f64,
    rate: f64,
    last_update: f64,
    /// Past the startup latency: the pending queue event is the drain's
    /// end, not the latency's.
    draining: bool,
    send_tb: u32,
    recv_tb: u32,
    start: f64,
    drain_start: f64,
    captured: Option<ChunkValue>,
    /// A fused forward that finished draining before its feeding receive
    /// completed: its completion effects run when the feeder finishes
    /// (cut-through causality).
    pending_complete: bool,
}

/// A classified idle interval keyed by engine TB id (resolved to
/// rank/tb when the report is built).
struct RawBubble {
    tb: u32,
    task: u32,
    mb: u32,
    cause: BubbleCause,
    start: f64,
    end: f64,
}

/// Bubble-attribution accumulator, allocated only when
/// [`SimConfig::attribute_bubbles`] is set so the hot path stays free of
/// observability work otherwise. Recording is strictly read-only with
/// respect to simulation state: enabling it cannot change any timing.
#[derive(Default)]
struct ObsAcc {
    bubbles: Vec<RawBubble>,
    /// Line-rate drain segments per TB: `(tb, drain_start, line_end)`.
    xfer_segments: Vec<(u32, f64, f64)>,
    /// Closed busy intervals per resource (openings mirror
    /// `ResState::active_since`).
    res_intervals: Vec<Vec<(f64, f64)>>,
}

struct ResState {
    params: LinkParams,
    load: u32,
    active_since: f64,
    active_ns: f64,
    bytes: u64,
    draining: Vec<u32>,
    /// Fault state: carrying traffic at all?
    up: bool,
    /// Fault state: brownout bandwidth multiplier (1.0 = nominal).
    factor: f64,
    /// Per-drain rate share `effective_bandwidth(load) · factor / load`,
    /// refreshed whenever `load` or `factor` changes; meaningful only
    /// while `load > 0`.
    share: f64,
    /// The lone-drain rate `effective_bandwidth(1)`, after degradation —
    /// the line rate bubble attribution measures contention against.
    solo: f64,
}

impl ResState {
    fn refresh_share(&mut self) {
        // Brownout factor scales the momentary capacity.
        self.share = self.params.effective_bandwidth(self.load) * self.factor / self.load as f64;
    }
}

struct Engine<'a> {
    dag: &'a DepDag,
    program: &'a KernelProgram,
    plan: &'a MicroBatchPlan,
    op: OpType,
    config: &'a SimConfig,
    n_mb: u32,
    n_ranks: u32,
    now: f64,
    seq: u64,
    tbs: Vec<TbState>,
    invs: Vec<InvState>,
    /// Transfer slots; completed slots are recycled through `free`.
    transfers: Vec<Transfer>,
    free: Vec<u32>,
    /// Bytes of every transfer issued so far.
    total_bytes: u64,
    resources: Vec<ResState>,
    /// One pending event per in-flight transfer.
    queue: TransferQueue,
    /// Fault transitions and the deadline.
    side: BinaryHeap<Ev>,
    /// Reusable buffer for the transfers a load change affects.
    affected: Vec<u32>,
    /// Buffer values: `buffers[mb][rank * n_chunks + chunk]`.
    buffers: Vec<Vec<ChunkValue>>,
    rng: StdRng,
    inv_done: u64,
    inv_total: u64,
    completion: f64,
    /// Barrier bookkeeping: group of each task, tasks of each group, and
    /// remaining incomplete tasks per (group, micro-batch).
    barrier_group_of: Vec<u32>,
    barrier_members: Vec<Vec<TaskId>>,
    barrier_remaining: Vec<Vec<u32>>,
    trace: Vec<TraceEvent>,
    /// Tasks whose send slot is fused with the preceding receive
    /// (`recvCopySend` — startup latency elided).
    fused_task: Vec<bool>,
    /// For a fused forward B: the feeding receive task A (or NONE).
    fused_pred: Vec<u32>,
    /// For a receive A: the fused forwards gated on it.
    fused_next: Vec<Vec<TaskId>>,
    /// Fault schedule, stably sorted by timestamp.
    fault_sched: Vec<FaultEvent>,
    /// Transitions applied so far (reported for post-mortems).
    fault_log: Vec<FaultRecord>,
    /// Per-rank issue-latency multiplier (straggler state).
    straggle: Vec<f64>,
    /// A fault the run cannot survive; the event loop aborts on it.
    fatal: Option<SimError>,
    /// Bubble attribution (None unless `config.attribute_bubbles`).
    obs: Option<Box<ObsAcc>>,
}

impl<'a> Engine<'a> {
    fn new(
        topo: &Topology,
        dag: &'a DepDag,
        program: &'a KernelProgram,
        plan: &'a MicroBatchPlan,
        op: OpType,
        config: &'a SimConfig,
    ) -> SimResult<Self> {
        program
            .validate(dag)
            .map_err(|e| SimError::new(format!("invalid kernel program: {e}")))?;
        config.validate(topo.n_resources(), topo.n_ranks())?;
        let n_mb = plan.n_micro_batches;
        let n_ranks = topo.n_ranks();
        let n_tasks = dag.len();
        let inv_total = n_tasks as u64 * n_mb as u64;
        if inv_total > config.max_invocations {
            return Err(SimError::InvalidConfig(format!(
                "run would execute {inv_total} invocations, above the safety cap {}",
                config.max_invocations
            )));
        }

        // Resources with degradation applied.
        let mut resources: Vec<ResState> = (0..topo.n_resources())
            .map(|r| {
                Ok(ResState {
                    params: topo
                        .resource_params(ResourceId::new(r))
                        .map_err(|e| SimError::new(e.to_string()))?,
                    load: 0,
                    active_since: 0.0,
                    active_ns: 0.0,
                    bytes: 0,
                    draining: Vec::new(),
                    up: true,
                    factor: 1.0,
                    share: 0.0,
                    solo: 0.0,
                })
            })
            .collect::<SimResult<_>>()?;
        for (res, factor) in &config.degraded {
            let p = &mut resources[res.index()].params;
            // Degrade capacity: stretch β and shrink the per-TB rate.
            p.beta_ns_per_byte /= factor;
            p.tb_bw_bytes_per_ns *= factor;
        }
        for rs in &mut resources {
            rs.solo = rs.params.effective_bandwidth(1);
        }

        // TB states.
        let mut tbs = Vec::new();
        for (pr, rank_prog) in program.ranks.iter().enumerate() {
            for (pt, tb_prog) in rank_prog.tbs.iter().enumerate() {
                let stride = tb_prog.mb_stride.max(1);
                let offset = tb_prog.mb_offset;
                let window = if offset >= n_mb {
                    0
                } else {
                    (n_mb - offset - 1) / stride + 1
                };
                // Issue groups: fused slots glue to their predecessor and
                // are issued per micro-batch together; plain slot-major
                // iterates each segment over its micro-batch window;
                // micro-batch-major iterates all slots per micro-batch.
                let mut groups: Vec<IssueGroup> = Vec::new();
                match program.loop_order {
                    LoopOrder::SlotMajor => {
                        let mut segments: Vec<(u32, u32)> = Vec::new();
                        for (si, slot) in tb_prog.slots.iter().enumerate() {
                            match segments.last_mut() {
                                Some(last) if slot.fused_with_prev => last.1 += 1,
                                _ => segments.push((si as u32, 1)),
                            }
                        }
                        for (first_slot, len) in segments {
                            for k in 0..window {
                                groups.push(IssueGroup {
                                    first_slot,
                                    len,
                                    mb: offset + k * stride,
                                });
                            }
                        }
                    }
                    LoopOrder::MicroBatchMajor => {
                        // Each micro-batch walks the pipeline; fused pairs
                        // issue together as one recvCopySend.
                        let mut segments: Vec<(u32, u32)> = Vec::new();
                        for (si, slot) in tb_prog.slots.iter().enumerate() {
                            match segments.last_mut() {
                                Some(last) if slot.fused_with_prev => last.1 += 1,
                                _ => segments.push((si as u32, 1)),
                            }
                        }
                        for k in 0..window {
                            for &(first_slot, len) in &segments {
                                groups.push(IssueGroup {
                                    first_slot,
                                    len,
                                    mb: offset + k * stride,
                                });
                            }
                        }
                    }
                }
                tbs.push(TbState {
                    rank: rank_prog.rank.0,
                    tb: pt as u32,
                    prog_rank: pr,
                    prog_tb: pt,
                    groups,
                    group_idx: 0,
                    group_remaining: 0,
                    async_outstanding: 0,
                    busy: 0.0,
                    sync: 0.0,
                    release: 0.0,
                    n_inv: 0,
                });
            }
        }

        // Fusion marks (per task) and the feeder relation.
        let mut fused_task = vec![false; n_tasks];
        let mut fused_pred = vec![NONE; n_tasks];
        let mut fused_next: Vec<Vec<TaskId>> = vec![Vec::new(); n_tasks];
        for rp in &program.ranks {
            for tb in &rp.tbs {
                for (si, slot) in tb.slots.iter().enumerate() {
                    if slot.fused_with_prev {
                        fused_task[slot.task.index()] = true;
                        let feeder = tb.slots[si - 1].task;
                        fused_pred[slot.task.index()] = feeder.0;
                        fused_next[feeder.index()].push(slot.task);
                    }
                }
            }
        }

        // Invocation states.
        let mut invs = vec![
            InvState {
                deps_remaining: 0,
                send_tb: NONE,
                send_arrival: 0.0,
                recv_tb: NONE,
                recv_arrival: 0.0,
                started: false,
                done: false,
                transfer: NONE,
            };
            n_tasks * n_mb as usize
        ];
        for t in 0..n_tasks {
            let mut preds = dag.preds(TaskId::new(t as u32)).len() as u32;
            // A fused forward's dependency on its feeder is replaced by the
            // cut-through start gate.
            if fused_pred[t] != NONE
                && dag
                    .preds(TaskId::new(t as u32))
                    .contains(&TaskId::new(fused_pred[t]))
            {
                preds -= 1;
            }
            for mb in 0..n_mb {
                invs[t * n_mb as usize + mb as usize].deps_remaining = preds;
            }
        }

        // Barrier groups.
        let (barrier_group_of, barrier_members, mut barrier_remaining) =
            if let Some(groups) = &program.barrier_groups {
                if groups.len() != n_tasks {
                    return Err(SimError::new(format!(
                        "barrier groups cover {} tasks, DAG has {n_tasks}",
                        groups.len()
                    )));
                }
                let n_groups = groups.iter().copied().max().unwrap_or(0) as usize + 1;
                let mut members: Vec<Vec<TaskId>> = vec![Vec::new(); n_groups];
                for (t, &g) in groups.iter().enumerate() {
                    members[g as usize].push(TaskId::new(t as u32));
                }
                let remaining: Vec<Vec<u32>> = members
                    .iter()
                    .map(|m| vec![m.len() as u32; n_mb as usize])
                    .collect();
                (groups.clone(), members, remaining)
            } else {
                (Vec::new(), Vec::new(), Vec::new())
            };

        // Buffers.
        let n_chunks = dag.n_chunks();
        let mut buffers: Vec<Vec<ChunkValue>> = if config.validate_data {
            (0..n_mb)
                .map(|_| {
                    (0..n_ranks)
                        .flat_map(|r| (0..n_chunks).map(move |c| initial_value(op, n_ranks, r, c)))
                        .collect()
                })
                .collect()
        } else {
            Vec::new()
        };

        // Partial-progress resume: replay the aborted attempt's completed
        // transfers into the value buffers, mark completed invocations
        // done, and pre-propagate their dependency / barrier effects so
        // the remaining work starts exactly where the abort left off —
        // without re-running any (non-idempotent) reduction.
        let mut inv_done_init = 0u64;
        if let Some(rs) = &config.resume {
            rs.validate(n_tasks as u32, n_mb, n_ranks, n_chunks)
                .map_err(SimError::InvalidConfig)?;
            if config.validate_data {
                for op_ in &rs.replay {
                    let src = (op_.src * n_chunks + op_.chunk) as usize;
                    let dst = (op_.dst * n_chunks + op_.chunk) as usize;
                    let v = buffers[op_.mb as usize][src].clone();
                    let slot = &mut buffers[op_.mb as usize][dst];
                    if op_.reduce {
                        slot.reduce_from(&v);
                    } else {
                        slot.copy_from(&v);
                    }
                }
            }
            for t in 0..n_tasks {
                for mb in 0..n_mb {
                    if !rs.is_done(t as u32, mb) {
                        continue;
                    }
                    let inv = &mut invs[t * n_mb as usize + mb as usize];
                    inv.started = true;
                    inv.done = true;
                    inv_done_init += 1;
                    for &s in dag.succs(TaskId::new(t as u32)) {
                        // The fused forward's dependency on its feeder was
                        // lifted at initialization, mirroring completion.
                        if fused_pred[s.index()] == t as u32 {
                            continue;
                        }
                        invs[s.index() * n_mb as usize + mb as usize].deps_remaining -= 1;
                    }
                    if !barrier_group_of.is_empty() {
                        let g = barrier_group_of[t] as usize;
                        barrier_remaining[g][mb as usize] -= 1;
                    }
                }
            }
        }

        Ok(Self {
            dag,
            program,
            plan,
            op,
            config,
            n_mb,
            n_ranks,
            now: 0.0,
            seq: 0,
            tbs,
            invs,
            transfers: Vec::new(),
            free: Vec::new(),
            total_bytes: 0,
            resources,
            queue: TransferQueue::default(),
            side: BinaryHeap::new(),
            affected: Vec::new(),
            buffers,
            rng: StdRng::seed_from_u64(config.seed),
            inv_done: inv_done_init,
            inv_total,
            completion: 0.0,
            barrier_group_of,
            barrier_members,
            barrier_remaining,
            trace: Vec::new(),
            fused_task,
            fused_pred,
            fused_next,
            fault_sched: Vec::new(),
            fault_log: Vec::new(),
            straggle: vec![1.0; n_ranks as usize],
            fatal: None,
            obs: config.attribute_bubbles.then(|| {
                Box::new(ObsAcc {
                    res_intervals: vec![Vec::new(); topo.n_resources() as usize],
                    ..ObsAcc::default()
                })
            }),
        })
    }

    /// Is task `task` allowed to start micro-batch `mb` under the
    /// program's barrier discipline?
    fn barrier_ok(&self, task: TaskId, mb: u32) -> bool {
        let stride = self.program.barrier_stride.max(1);
        if self.barrier_group_of.is_empty() || mb < stride {
            return true;
        }
        let g = self.barrier_group_of[task.index()] as usize;
        self.barrier_remaining[g][(mb - stride) as usize] == 0
    }

    fn run(mut self) -> SimResult<SimReport> {
        // Fault schedule: stable-sort by timestamp. Transitions at or
        // before t = 0 — already in the past, e.g. after a retry shifted
        // the timeline with [`FaultTimeline::advanced`] — apply before
        // launch; the rest enter the side heap. Fault events are pushed
        // before any transfer event, so at equal timestamps they fire
        // first (stable `seq` tie-break) — replay is deterministic.
        let mut sched = self.config.faults.events().to_vec();
        sched.sort_by(|a, b| a.at_ns.total_cmp(&b.at_ns));
        self.fault_sched = sched;
        for i in 0..self.fault_sched.len() as u32 {
            let at = self.fault_sched[i as usize].at_ns;
            if at <= 0.0 {
                self.apply_fault(i);
            } else {
                self.push_event(at, EvKind::Fault(i));
            }
        }
        if let Some(d) = self.config.deadline_ns {
            self.push_event(d, EvKind::Deadline);
        }

        // Kernel launch: every TB arrives at its first invocation at t = 0.
        for tb_id in 0..self.tbs.len() as u32 {
            self.tb_arrive(tb_id);
        }
        if let Some(err) = self.fatal.take() {
            return Err(err);
        }

        // The next event is the earlier head, by `(t, seq)`, of the
        // transfer queue and the side heap. Only `pop` raises the queue's
        // floor: a side event that fires first may re-key transfers to
        // finish before the queue's current head.
        loop {
            let side_next = self.side.peek().is_some_and(|s| {
                self.queue
                    .peek()
                    .is_none_or(|q| key_cmp(s.t, s.seq, q.t, q.seq) == Ordering::Less)
            });
            let (t, next) = if side_next {
                let e = self.side.pop().expect("peeked");
                (e.t, Next::Side(e.kind))
            } else {
                match self.queue.pop() {
                    Some(e) => (e.t, Next::Transfer(e.slot)),
                    None => break,
                }
            };
            // Monotonicity tolerance must scale with the clock: at f64 ns
            // magnitudes a second-long run sits near 1e9, where rounding
            // noise dwarfs any fixed absolute epsilon. Allow one part in
            // 1e12 of the current time (≈1ms worth of ULPs at 1e9 ns),
            // with a small absolute floor for clocks near zero.
            debug_assert!(
                t >= self.now - 1e-9f64.max(self.now.abs() * 1e-12),
                "time went backwards: event at {} ns behind clock {} ns",
                t,
                self.now
            );
            self.now = t.max(self.now);
            match next {
                Next::Transfer(x) if self.transfers[x as usize].draining => self.on_drain_done(x),
                Next::Transfer(x) => self.on_latency_done(x),
                Next::Side(EvKind::Fault(i)) => self.apply_fault(i),
                Next::Side(EvKind::Deadline) => {
                    if self.inv_done < self.inv_total {
                        self.fatal.get_or_insert(SimError::DeadlineExceeded {
                            deadline_ns: self.config.deadline_ns.unwrap_or(self.now).round() as u64,
                            completed: self.inv_done,
                            total: self.inv_total,
                        });
                    }
                }
            }
            if let Some(err) = self.fatal.take() {
                return Err(err);
            }
        }

        if self.inv_done != self.inv_total {
            return Err(self.deadlock_report());
        }

        let data_valid = if self.config.validate_data {
            Some(self.check_data()?)
        } else {
            None
        };

        let completion = self.completion;
        let tb_stats = self
            .tbs
            .iter()
            .map(|tb| TbStat {
                rank: tb.rank,
                tb: tb.tb,
                busy_ns: tb.busy,
                sync_ns: tb.sync,
                release_ns: tb.release,
                occupancy_ns: if self.config.early_release {
                    tb.release
                } else {
                    completion
                },
                n_invocations: tb.n_inv,
            })
            .collect();
        let resource_stats = self
            .resources
            .iter()
            .enumerate()
            .filter(|(_, r)| r.bytes > 0)
            .map(|(i, r)| ResourceStat {
                resource: i as u32,
                active_ns: r.active_ns,
                bytes: r.bytes,
                capacity: r.params.bandwidth(),
            })
            .collect();
        let obs = self.obs.take().map(|acc| self.build_obs(*acc, completion));

        Ok(SimReport {
            completion_ns: completion,
            total_bytes: self.total_bytes,
            tb_stats,
            resource_stats,
            data_valid,
            n_micro_batches: self.n_mb,
            n_invocations: self.inv_done,
            trace: self.trace,
            faults: self.fault_log,
            obs,
        })
    }

    /// Resolve the raw attribution accumulator into the public payload:
    /// map engine TB ids to (rank, tb), and bucketize the per-TB state
    /// decomposition and per-link active intervals over the run.
    fn build_obs(&self, acc: ObsAcc, completion: f64) -> SimObservability {
        let n_buckets = self.config.obs_buckets.max(1);
        let bucket_ns = if completion > 0.0 {
            completion / n_buckets as f64
        } else {
            0.0
        };
        let mut tb_timelines: Vec<TbTimeline> = self
            .tbs
            .iter()
            .map(|tb| TbTimeline {
                rank: tb.rank,
                tb: tb.tb,
                transfer: vec![0.0; n_buckets as usize],
                startup: vec![0.0; n_buckets as usize],
                contention: vec![0.0; n_buckets as usize],
                rendezvous: vec![0.0; n_buckets as usize],
                dep_wait: vec![0.0; n_buckets as usize],
            })
            .collect();
        for &(tb, s, e) in &acc.xfer_segments {
            add_interval(&mut tb_timelines[tb as usize].transfer, bucket_ns, s, e);
        }
        let bubbles: Vec<BubbleInterval> = acc
            .bubbles
            .iter()
            .map(|b| {
                let tl = &mut tb_timelines[b.tb as usize];
                let buf = match b.cause {
                    BubbleCause::RendezvousWait => &mut tl.rendezvous,
                    BubbleCause::DepWait => &mut tl.dep_wait,
                    BubbleCause::LinkContention => &mut tl.contention,
                    BubbleCause::Startup => &mut tl.startup,
                };
                add_interval(buf, bucket_ns, b.start, b.end);
                let tb = &self.tbs[b.tb as usize];
                BubbleInterval {
                    tb_index: b.tb,
                    rank: tb.rank,
                    tb: tb.tb,
                    task: b.task,
                    mb: b.mb,
                    cause: b.cause,
                    start_ns: b.start,
                    end_ns: b.end,
                }
            })
            .collect();
        // Link timelines mirror the `resource_stats` population (resources
        // that carried traffic, in index order).
        let link_timelines = self
            .resources
            .iter()
            .enumerate()
            .filter(|(_, r)| r.bytes > 0)
            .map(|(i, _)| {
                let mut active = vec![0.0; n_buckets as usize];
                for &(s, e) in &acc.res_intervals[i] {
                    add_interval(&mut active, bucket_ns, s, e);
                }
                LinkTimeline {
                    resource: i as u32,
                    active,
                }
            })
            .collect();
        SimObservability {
            n_buckets,
            bucket_ns,
            bubbles,
            tb_timelines,
            link_timelines,
        }
    }

    /// Classify the wait `[arrival, now)` of one gating side of a starting
    /// invocation. The portion before the peer's arrival is a rendezvous
    /// wait; whatever remains after both sides are present was spent on
    /// dependencies (DAG predecessors, barrier groups, or the cut-through
    /// gate). The two pieces tile `[arrival, now)` exactly, so per-TB hard
    /// bubbles reconcile with `sync_ns`.
    fn record_wait(&mut self, tb: u32, arrival: f64, peer_arrival: f64, task: TaskId, mb: u32) {
        let now = self.now;
        if now <= arrival {
            return;
        }
        let obs = self
            .obs
            .as_mut()
            .expect("record_wait only when attributing");
        let split = peer_arrival.clamp(arrival, now);
        if split > arrival {
            obs.bubbles.push(RawBubble {
                tb,
                task: task.0,
                mb,
                cause: BubbleCause::RendezvousWait,
                start: arrival,
                end: split,
            });
        }
        if now > split {
            obs.bubbles.push(RawBubble {
                tb,
                task: task.0,
                mb,
                cause: BubbleCause::DepWait,
                start: split,
                end: now,
            });
        }
    }

    /// Apply one scheduled fault transition to the live resource/rank
    /// state. A link death with transfers draining on the resource is
    /// fatal: the typed error names the first victim so the watchdog can
    /// decide between retry and recompile.
    fn apply_fault(&mut self, i: u32) {
        let FaultEvent { at_ns, fault } = self.fault_sched[i as usize];
        self.fault_log.push(FaultRecord { at_ns, fault });
        match fault {
            Fault::LinkDown(r) => {
                self.resources[r.index()].up = false;
                if let Some(&x) = self.resources[r.index()].draining.first() {
                    let task = self.transfers[x as usize].task;
                    self.fail_on_dead(task, r);
                }
            }
            Fault::LinkUp(r) => self.resources[r.index()].up = true,
            Fault::Brownout(r, f) => self.set_factor(r, f),
            Fault::BrownoutEnd(r) => self.set_factor(r, 1.0),
            Fault::Straggler(rank, m) => self.straggle[rank as usize] = m,
        }
    }

    /// Change `r`'s brownout factor and re-project every transfer
    /// draining on it.
    fn set_factor(&mut self, r: ResourceId, factor: f64) {
        let rs = &mut self.resources[r.index()];
        rs.factor = factor;
        rs.refresh_share();
        for i in 0..self.resources[r.index()].draining.len() {
            let x = self.resources[r.index()].draining[i];
            self.reproject(x);
        }
    }

    /// The first dead resource on `path`, if any.
    fn dead_on_path(&self, path: ResourceSet) -> Option<ResourceId> {
        path.iter().find(|r| !self.resources[r.index()].up)
    }

    /// Record a typed [`SimError::ResourceDown`] for `task` hitting dead
    /// resource `r`, carrying the fault frontier — the completed
    /// invocation set a recovery layer can resume from; the event loop
    /// aborts at the next check.
    fn fail_on_dead(&mut self, task: TaskId, r: ResourceId) {
        if self.fatal.is_some() {
            return;
        }
        let frontier = self.capture_frontier();
        self.fatal = Some(SimError::ResourceDown {
            resource: r.0,
            task: task.0,
            at_ns: self.now.max(0.0).round() as u64,
            permanent: self.config.faults.is_permanent_down(r),
            frontier: Some(Box::new(frontier)),
        });
    }

    /// Snapshot the set of completed invocations at the current instant —
    /// the same `done` flags data validation tracks, so the frontier is
    /// deterministic for a deterministic run. `try_start` refuses to issue
    /// new transfers once `fatal` is set, so the set is stable at capture.
    fn capture_frontier(&self) -> FaultFrontier {
        let mut f = FaultFrontier::new(
            self.dag.len() as u32,
            self.n_mb,
            self.now.max(0.0).round() as u64,
        );
        for (i, inv) in self.invs.iter().enumerate() {
            if inv.done {
                f.mark(
                    (i / self.n_mb as usize) as u32,
                    (i % self.n_mb as usize) as u32,
                );
            }
        }
        f
    }

    /// The TB (re-)arrives at its current issue group: every invocation of
    /// the group registers its side and may start. Invocations a
    /// partial-progress resume already completed retire instantly — a
    /// group whose gating slots are all complete is skipped outright (the
    /// loop), so a resumed TB fast-forwards to its first remaining work.
    fn tb_arrive(&mut self, tb_id: u32) {
        loop {
            let now = self.now;
            let tb = &mut self.tbs[tb_id as usize];
            if tb.group_idx >= tb.groups.len() {
                // Released only once every asynchronous fused forward it
                // issued has drained (otherwise the last completion sets
                // release).
                if tb.async_outstanding == 0 {
                    tb.release = now;
                }
                return;
            }
            let group = tb.groups[tb.group_idx];
            let (prog_rank, prog_tb) = (tb.prog_rank, tb.prog_tb);
            // Fused forwards are issued asynchronously: they register their
            // sender side now but do not gate the group, so the TB moves on
            // to the next micro-batch as soon as its gating slots retire —
            // the cut-through pipelining real fused kernels get from
            // sub-chunk FIFO slices. Segments always start with an unfused
            // slot, so every group keeps at least one gating member.
            let mut gating = 0;
            let mut live_gating = 0;
            let mut live_fused = 0;
            for si in group.first_slot..group.first_slot + group.len {
                let slot = self.program.ranks[prog_rank].tbs[prog_tb].slots[si as usize];
                let done =
                    self.invs[slot.task.index() * self.n_mb as usize + group.mb as usize].done;
                if slot.fused_with_prev {
                    if !done {
                        live_fused += 1;
                    }
                } else {
                    gating += 1;
                    if !done {
                        live_gating += 1;
                    }
                }
            }
            debug_assert!(gating > 0, "issue group with no gating slot");
            let tb = &mut self.tbs[tb_id as usize];
            tb.group_remaining = live_gating;
            tb.async_outstanding += live_fused;
            for si in group.first_slot..group.first_slot + group.len {
                let slot = self.program.ranks[prog_rank].tbs[prog_tb].slots[si as usize];
                let idx = slot.task.index() * self.n_mb as usize + group.mb as usize;
                let inv = &mut self.invs[idx];
                if inv.done {
                    continue; // already complete before this attempt
                }
                if slot.is_send() {
                    debug_assert_eq!(inv.send_tb, NONE, "two senders for one invocation");
                    inv.send_tb = tb_id;
                    inv.send_arrival = now;
                } else {
                    debug_assert_eq!(inv.recv_tb, NONE, "two receivers for one invocation");
                    inv.recv_tb = tb_id;
                    inv.recv_arrival = now;
                }
                self.try_start(slot.task, group.mb);
            }
            if live_gating > 0 {
                return;
            }
            // Every gating slot had completed before this attempt: the
            // group is already retired — advance and look at the next.
            self.tbs[tb_id as usize].group_idx += 1;
        }
    }

    fn try_start(&mut self, task: TaskId, mb: u32) {
        if self.fatal.is_some() {
            return; // aborting — don't issue new transfers
        }
        let idx = task.index() * self.n_mb as usize + mb as usize;
        let inv = self.invs[idx];
        if inv.started
            || inv.send_tb == NONE
            || inv.recv_tb == NONE
            || inv.deps_remaining > 0
            || !self.barrier_ok(task, mb)
        {
            return;
        }
        // Cut-through gate: a fused forward starts once its feeding receive
        // is in flight (the feeder's completion dependency was lifted).
        let fp = self.fused_pred[task.index()];
        if fp != NONE {
            let fidx = fp as usize * self.n_mb as usize + mb as usize;
            if !self.invs[fidx].started {
                return;
            }
        }
        // A transfer cannot cross a dead resource: surface the typed
        // failure so the Communicator's watchdog can retry or recompile.
        let t = self.dag.task(task);
        if let Some(r) = self.dead_on_path(t.path) {
            self.fail_on_dead(task, r);
            return;
        }
        self.invs[idx].started = true;
        let now = self.now;

        // Sync (blocked) time for both sides. A fused forward's sender side
        // is asynchronous — its TB was never actually blocked on it.
        if fp == NONE {
            self.tbs[inv.send_tb as usize].sync += now - inv.send_arrival;
        }
        self.tbs[inv.recv_tb as usize].sync += now - inv.recv_arrival;
        if self.obs.is_some() {
            // Attribute exactly the intervals the sync accounting above
            // charged, split by which gate resolved last.
            if fp == NONE {
                self.record_wait(inv.send_tb, inv.send_arrival, inv.recv_arrival, task, mb);
            }
            self.record_wait(inv.recv_tb, inv.recv_arrival, inv.send_arrival, task, mb);
        }

        let bytes = self.plan.invocation_bytes(mb);
        // Fused forwards capture at completion instead (their payload is
        // the feeder's freshly-delivered value, applied by then).
        let captured = if self.config.validate_data && fp == NONE {
            Some(self.buffers[mb as usize][self.buffer_idx(t.src.0, t.chunk.0)].clone())
        } else {
            None
        };

        // Startup latency: α of the slowest conflict resource + extra path
        // latency + interpreter overhead + optional jitter.
        let alpha = if self.fused_task[task.index()] {
            // Fused recvCopySend: the forward starts inside the previous
            // primitive's epilogue — no fresh startup latency.
            0.0
        } else {
            t.conflict
                .iter()
                .map(|r| self.resources[r.index()].params.alpha_ns)
                .fold(0.0, f64::max)
        };
        let mut latency = (alpha + self.program.exec.overhead_ns()) * self.straggle[t.src.index()];
        if self.config.jitter_frac > 0.0 {
            latency *= 1.0 + self.config.jitter_frac * self.rng.gen::<f64>();
        }

        let transfer = Transfer {
            task,
            path: t.path,
            mb,
            bytes,
            remaining: bytes as f64,
            rate: 0.0,
            last_update: now,
            draining: false,
            send_tb: inv.send_tb,
            recv_tb: inv.recv_tb,
            start: now,
            drain_start: now,
            captured,
            pending_complete: false,
        };
        let x = match self.free.pop() {
            Some(x) => {
                debug_assert!(!self.queue.contains(x), "recycled slot still queued");
                self.transfers[x as usize] = transfer;
                x
            }
            None => {
                self.transfers.push(transfer);
                self.transfers.len() as u32 - 1
            }
        };
        self.total_bytes += bytes;
        self.invs[idx].transfer = x;
        let seq = self.next_seq();
        self.queue.set(x, now + latency, seq);

        // Wake fused followers gated on this start.
        for i in 0..self.fused_next[task.index()].len() {
            let b = self.fused_next[task.index()][i];
            self.try_start(b, mb);
        }
    }

    fn buffer_idx(&self, rank: u32, chunk: u32) -> usize {
        (rank * self.dag.n_chunks() + chunk) as usize
    }

    fn on_latency_done(&mut self, x: u32) {
        let now = self.now;
        let Transfer { task, path, .. } = self.transfers[x as usize];
        // The resource may have died during the startup latency: fail the
        // transfer before it registers on the path.
        if let Some(r) = self.dead_on_path(path) {
            self.fail_on_dead(task, r);
            return;
        }
        self.transfers[x as usize].draining = true;
        self.transfers[x as usize].last_update = now;
        self.transfers[x as usize].drain_start = now;
        let mut affected = std::mem::take(&mut self.affected);
        for r in path.iter() {
            let rs = &mut self.resources[r.index()];
            if rs.load == 0 {
                rs.active_since = now;
            }
            rs.load += 1;
            rs.refresh_share();
            for &other in &rs.draining {
                if !affected.contains(&other) {
                    affected.push(other);
                }
            }
            rs.draining.push(x);
        }
        self.reproject(x);
        self.reproject_all(affected);
    }

    /// Re-project every transfer in `affected`, then keep the emptied
    /// buffer for the next load change.
    fn reproject_all(&mut self, mut affected: Vec<u32>) {
        for &other in &affected {
            self.reproject(other);
        }
        affected.clear();
        self.affected = affected;
    }

    /// Settle a draining transfer's progress and re-project its finish.
    fn reproject(&mut self, x: u32) {
        let now = self.now;
        let t = &mut self.transfers[x as usize];
        debug_assert!(t.draining);
        t.remaining -= t.rate * (now - t.last_update);
        t.remaining = t.remaining.max(0.0);
        t.last_update = now;
        let mut rate = f64::INFINITY;
        for r in t.path.iter() {
            rate = rate.min(self.resources[r.index()].share);
        }
        debug_assert!(rate.is_finite() && rate > 0.0);
        t.rate = rate;
        let finish = now + t.remaining / rate;
        let seq = self.next_seq();
        self.queue.set(x, finish, seq);
    }

    fn on_drain_done(&mut self, x: u32) {
        let now = self.now;
        let Transfer {
            task,
            path,
            mb,
            bytes,
            ..
        } = self.transfers[x as usize];

        // Free resources and settle peers.
        let mut affected = std::mem::take(&mut self.affected);
        let observing = self.obs.is_some();
        // Busy intervals closed on this event ((resource, open time));
        // stays unallocated unless attribution is on.
        let mut closed: Vec<(usize, f64)> = Vec::new();
        for r in path.iter() {
            let rs = &mut self.resources[r.index()];
            rs.load -= 1;
            rs.refresh_share();
            rs.bytes += bytes;
            if rs.load == 0 {
                rs.active_ns += now - rs.active_since;
                if observing {
                    closed.push((r.index(), rs.active_since));
                }
            }
            match rs.draining.iter().position(|&o| o == x) {
                Some(posn) => {
                    rs.draining.swap_remove(posn);
                }
                // A transfer missing from its own path's drain list means
                // the engine's bookkeeping is inconsistent; surface a
                // typed fatal error instead of poisoning the run with a
                // panic (the event loop aborts on `fatal`).
                None => {
                    self.fatal.get_or_insert(SimError::new(format!(
                        "engine bug: transfer of task {task} (mb {mb}) not \
                         registered on resource {r} it drains"
                    )));
                    return;
                }
            }
            for &other in &rs.draining {
                if !affected.contains(&other) {
                    affected.push(other);
                }
            }
        }
        self.transfers[x as usize].draining = false;
        if let Some(obs) = self.obs.as_mut() {
            for (ri, since) in closed {
                obs.res_intervals[ri].push((since, now));
            }
        }
        self.reproject_all(affected);

        // Cut-through causality: a fused forward cannot complete before the
        // receive that feeds it.
        let fp = self.fused_pred[task.index()];
        if fp != NONE {
            let fidx = fp as usize * self.n_mb as usize + mb as usize;
            if !self.invs[fidx].done {
                self.transfers[x as usize].pending_complete = true;
                return;
            }
        }
        self.complete_invocation(x);
    }

    /// Completion effects of a drained transfer: data application, trace,
    /// accounting, dependency propagation, barrier release, TB advance —
    /// possibly deferred for fused forwards.
    fn complete_invocation(&mut self, x: u32) {
        let now = self.now;
        let (task, mb, bytes, start, send_tb, recv_tb) = {
            let t = &self.transfers[x as usize];
            (t.task, t.mb, t.bytes, t.start, t.send_tb, t.recv_tb)
        };

        // Apply data semantics. Fused forwards (no capture at start) read
        // the source slot now — the feeding receive has already applied.
        if self.config.validate_data {
            let captured = match self.transfers[x as usize].captured.take() {
                Some(v) => v,
                None => {
                    let t = self.dag.task(task);
                    self.buffers[mb as usize][self.buffer_idx(t.src.0, t.chunk.0)].clone()
                }
            };
            let t = self.dag.task(task);
            let di = self.buffer_idx(t.dst.0, t.chunk.0);
            let dst = &mut self.buffers[mb as usize][di];
            match t.comm {
                CommType::Recv => dst.copy_from(&captured),
                CommType::Rrc => dst.reduce_from(&captured),
            }
        }

        if self.config.record_trace {
            let t = self.dag.task(task);
            let ev = TraceEvent {
                task: task.0,
                mb,
                src: t.src.0,
                dst: t.dst.0,
                start_ns: start,
                drain_start_ns: self.transfers[x as usize].drain_start,
                end_ns: now,
                bytes,
            };
            debug_assert!(
                ev.start_ns <= ev.drain_start_ns && ev.drain_start_ns <= ev.end_ns,
                "trace event phases out of order: task {task} mb {mb} \
                 start {} drain {} end {}",
                ev.start_ns,
                ev.drain_start_ns,
                ev.end_ns
            );
            self.trace.push(ev);
        }

        if self.obs.is_some() {
            self.record_soft_bubbles(x, task, mb, bytes, start, send_tb, recv_tb);
        }

        // Account busy time on both TBs.
        let dur = now - start;
        self.tbs[send_tb as usize].busy += dur;
        self.tbs[recv_tb as usize].busy += dur;
        self.tbs[send_tb as usize].n_inv += 1;
        self.tbs[recv_tb as usize].n_inv += 1;

        // Mark done, recycle the transfer slot, propagate dependencies.
        let idx = task.index() * self.n_mb as usize + mb as usize;
        self.invs[idx].done = true;
        self.invs[idx].transfer = NONE;
        self.free.push(x);
        self.inv_done += 1;
        self.completion = self.completion.max(now);
        let dag = self.dag;
        for &s in dag.succs(task) {
            // The fused forward's dependency on this feeder was lifted at
            // initialization; everything else decrements normally.
            if self.fused_pred[s.index()] == task.0 {
                continue;
            }
            let sidx = s.index() * self.n_mb as usize + mb as usize;
            self.invs[sidx].deps_remaining -= 1;
            self.try_start(s, mb);
        }

        // Barrier release: when the whole group finishes this micro-batch,
        // its tasks may start the next one.
        if !self.barrier_group_of.is_empty() {
            let g = self.barrier_group_of[task.index()] as usize;
            self.barrier_remaining[g][mb as usize] -= 1;
            let stride = self.program.barrier_stride.max(1);
            if self.barrier_remaining[g][mb as usize] == 0 && mb + stride < self.n_mb {
                for i in 0..self.barrier_members[g].len() {
                    let m = self.barrier_members[g][i];
                    self.try_start(m, mb + stride);
                }
            }
        }

        // Release fused forwards that drained before this feeder finished.
        for i in 0..self.fused_next[task.index()].len() {
            let b = self.fused_next[task.index()][i];
            let bidx = b.index() * self.n_mb as usize + mb as usize;
            let bx = self.invs[bidx].transfer;
            if bx != NONE && self.transfers[bx as usize].pending_complete {
                self.transfers[bx as usize].pending_complete = false;
                self.complete_invocation(bx);
            }
        }

        // Advance the participating TBs. The sender side of a fused forward
        // is asynchronous — it never gated its issue group, so its
        // completion only settles the outstanding count (and the release
        // time, once the TB has walked off its groups). A gating side
        // retires one invocation of its current group; when the group
        // drains, the next one is entered.
        let send_is_fused = self.fused_task[task.index()];
        for (tb_id, is_async) in [(send_tb, send_is_fused), (recv_tb, false)] {
            let tb = &mut self.tbs[tb_id as usize];
            if is_async {
                debug_assert!(tb.async_outstanding > 0, "async retire without issue");
                tb.async_outstanding -= 1;
                if tb.async_outstanding == 0 && tb.group_idx >= tb.groups.len() {
                    tb.release = now;
                }
            } else {
                debug_assert!(tb.group_remaining > 0, "TB retired with no open group");
                tb.group_remaining -= 1;
                if tb.group_remaining == 0 {
                    tb.group_idx += 1;
                    self.tb_arrive(tb_id);
                }
            }
        }
    }

    /// Attribute the soft (in-busy) bubbles of a completed invocation:
    /// the startup-latency phase, plus any drain time beyond the lone-TB
    /// ideal (`bytes / min over path of effective_bandwidth(1)`) — the
    /// slowdown fair-sharing and the γ·L(z) over-saturation penalty of
    /// Eq. 1 imposed. Both participating TBs experience the interval, so
    /// both timelines carry it (mirroring the busy accounting).
    #[allow(clippy::too_many_arguments)]
    fn record_soft_bubbles(
        &mut self,
        x: u32,
        task: TaskId,
        mb: u32,
        bytes: u64,
        start: f64,
        send_tb: u32,
        recv_tb: u32,
    ) {
        let now = self.now;
        let Transfer {
            path, drain_start, ..
        } = self.transfers[x as usize];
        let rate0 = path
            .iter()
            .map(|r| self.resources[r.index()].solo)
            .fold(f64::INFINITY, f64::min);
        debug_assert!(rate0.is_finite() && rate0 > 0.0);
        let line_end = (drain_start + bytes as f64 / rate0).min(now);
        let obs = self.obs.as_mut().expect("checked by caller");
        // A fused forward's sender side never blocked, but it does spend
        // the transfer window busy — both sides get the same soft bubbles.
        for tb in [send_tb, recv_tb] {
            if drain_start > start {
                obs.bubbles.push(RawBubble {
                    tb,
                    task: task.0,
                    mb,
                    cause: BubbleCause::Startup,
                    start,
                    end: drain_start,
                });
            }
            if now > line_end {
                obs.bubbles.push(RawBubble {
                    tb,
                    task: task.0,
                    mb,
                    cause: BubbleCause::LinkContention,
                    start: line_end,
                    end: now,
                });
            }
            obs.xfer_segments.push((tb, drain_start, line_end));
        }
    }

    /// The next event sequence number. Every transfer event scheduled or
    /// moved and every side event pushed takes one, so equal-time events
    /// fire in the order they were (re)scheduled.
    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn push_event(&mut self, t: f64, kind: EvKind) {
        let seq = self.next_seq();
        self.side.push(Ev { t, seq, kind });
    }

    fn check_data(&self) -> SimResult<bool> {
        let n_chunks = self.dag.n_chunks();
        for mb in 0..self.n_mb {
            for rank in 0..self.n_ranks {
                for chunk in 0..n_chunks {
                    if let Some(expect) = expected_final(self.op, self.n_ranks, rank, chunk) {
                        let got = &self.buffers[mb as usize][self.buffer_idx(rank, chunk)];
                        if *got != expect {
                            return Err(SimError::Validation(format!(
                                "collective produced wrong data: micro-batch {mb}, rank r{rank}, \
                                 chunk c{chunk}: counts {:?}, expected {:?}",
                                got.counts(),
                                expect.counts()
                            )));
                        }
                    }
                }
            }
        }
        Ok(true)
    }

    fn deadlock_report(&self) -> SimError {
        // Find a representative blocked invocation for the diagnosis.
        let mut detail = String::new();
        for (i, inv) in self.invs.iter().enumerate() {
            if !inv.done && inv.started {
                continue; // in flight — impossible here (queue empty)
            }
            if !inv.done {
                let task = TaskId::new((i / self.n_mb as usize) as u32);
                let mb = i % self.n_mb as usize;
                detail = format!(
                    "first blocked invocation: task {task} micro-batch {mb} \
                     (deps remaining {}, sender {}, receiver {})",
                    inv.deps_remaining,
                    if inv.send_tb == NONE {
                        "absent"
                    } else {
                        "arrived"
                    },
                    if inv.recv_tb == NONE {
                        "absent"
                    } else {
                        "arrived"
                    },
                );
                break;
            }
        }
        // Dump each unfinished TB's head group for cycle diagnosis.
        let mut heads = String::new();
        for (i, tb) in self.tbs.iter().enumerate() {
            if tb.group_idx >= tb.groups.len() {
                continue;
            }
            let g = tb.groups[tb.group_idx];
            let prog = &self.program.ranks[tb.prog_rank].tbs[tb.prog_tb];
            let slots: Vec<String> = (g.first_slot..g.first_slot + g.len)
                .map(|si| {
                    let slot = &prog.slots[si as usize];
                    let idx = slot.task.index() * self.n_mb as usize + g.mb as usize;
                    let inv = &self.invs[idx];
                    format!(
                        "{}({:?},started={},done={},deps={})",
                        slot.task, slot.primitive, inv.started, inv.done, inv.deps_remaining
                    )
                })
                .collect();
            heads.push_str(&format!(
                "\n  tb#{i} r{} idx{} group{} mb{} rem{}: {}",
                tb.rank,
                tb.tb,
                tb.group_idx,
                g.mb,
                tb.group_remaining,
                slots.join(", ")
            ));
        }
        SimError::Deadlock(format!(
            "deadlock: {}/{} invocations completed; {detail}{heads}",
            self.inv_done, self.inv_total
        ))
    }
}
