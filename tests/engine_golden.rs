//! Golden engine output: pins the simulator's reports bit for bit on a
//! small grid, so a rewrite of the engine's internals (event queue,
//! bandwidth bookkeeping, transfer storage) can prove it changed no
//! result. Each row pins `completion_ns.to_bits()`, `n_invocations`,
//! `total_bytes` and an FNV-1a digest of the `Debug` rendering of
//! `tb_stats`, `resource_stats`, `trace`, `faults` and `obs` (`Debug`
//! prints every `f64` in round-trip form, so the digest sees every bit).
//!
//! The grid covers fused ResCCL hm AllReduce in both loop orders, the
//! NCCL and MSCCL backends (barrier groups, interpreter overhead),
//! latency jitter, a brownout + straggler timeline, a flap that aborts
//! with a frontier, a residual resume from that frontier, and a fused
//! forward whose follower drains before its feeder. Data validation and
//! bubble attribution are on wherever the run supports them.
//!
//! If a change is *meant* to alter simulated results, each failure
//! prints the new pin; update it and say why in the change log.

use rescc::algos::{hm_allgather, hm_allreduce, ring_allgather};
use rescc::alloc::TbAllocation;
use rescc::backends::{Backend, MscclBackend, NcclBackend};
use rescc::core::Compiler;
use rescc::ir::{DepDag, MicroBatchPlan};
use rescc::kernel::{fuse, ExecMode, KernelProgram, LoopOrder};
use rescc::sched::hpds;
use rescc::sim::{simulate, FaultTimeline, SimConfig, SimError, SimReport};
use rescc::topology::{Rank, Topology};

const MB: u64 = 1 << 20;

/// FNV-1a, 64-bit.
fn fnv(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One pinned row: `(completion bits, invocations, total bytes, digest)`.
type Pin = (u64, u64, u64, u64);

fn pin_of(rep: &SimReport) -> Pin {
    let mut h = 0xcbf2_9ce4_8422_2325;
    h = fnv(format!("{:?}", rep.tb_stats).as_bytes(), h);
    h = fnv(format!("{:?}", rep.resource_stats).as_bytes(), h);
    h = fnv(format!("{:?}", rep.trace).as_bytes(), h);
    h = fnv(format!("{:?}", rep.faults).as_bytes(), h);
    h = fnv(format!("{:?}", rep.obs).as_bytes(), h);
    h = fnv(format!("{:?}", rep.data_valid).as_bytes(), h);
    (
        rep.completion_ns.to_bits(),
        rep.n_invocations,
        rep.total_bytes,
        h,
    )
}

fn check(name: &str, rep: &SimReport, expect: Pin) {
    let got = pin_of(rep);
    assert_eq!(
        got, expect,
        "{name}: engine output drifted (completion {} ns); new pin: \
         (0x{:016x}, {}, {}, 0x{:016x})",
        rep.completion_ns, got.0, got.1, got.2, got.3
    );
}

/// Every observer on: data validation, trace, bubble attribution.
fn full() -> SimConfig {
    SimConfig::default().with_trace().with_observability()
}

/// A fused ResCCL program (HPDS, chained state-based allocation, the
/// `recvCopySend` pass) in the given loop order.
fn fused_program(topo: &Topology, order: LoopOrder) -> (DepDag, KernelProgram) {
    let spec = hm_allreduce(topo.n_nodes(), topo.gpus_per_node());
    let dag = DepDag::build(&spec, topo).unwrap();
    let sched = hpds(&dag);
    let alloc = TbAllocation::state_based_chained(&dag, &sched);
    let mut prog =
        KernelProgram::generate(spec.name(), &dag, &alloc, order, ExecMode::DirectKernel);
    assert!(fuse(&mut prog, &dag).total() > 0, "grid needs fused slots");
    (dag, prog)
}

fn run_fused(topo: &Topology, order: LoopOrder, cfg: &SimConfig) -> SimReport {
    let (dag, prog) = fused_program(topo, order);
    let spec = hm_allreduce(topo.n_nodes(), topo.gpus_per_node());
    let plan = MicroBatchPlan::plan(16 * MB, spec.n_chunks(), MB);
    simulate(topo, &dag, &prog, &plan, spec.op(), cfg).unwrap()
}

#[test]
fn fused_resccl_slot_major() {
    let topo = Topology::a100(2, 4);
    let rep = run_fused(&topo, LoopOrder::SlotMajor, &full());
    assert_eq!(rep.data_valid, Some(true));
    check(
        "fused_slot_major",
        &rep,
        (0x41276bcfaff95038, 224, 234881024, 0x17e2a8f6b6675bd1),
    );
}

#[test]
fn fused_resccl_micro_batch_major() {
    let topo = Topology::a100(2, 4);
    let rep = run_fused(&topo, LoopOrder::MicroBatchMajor, &full());
    assert_eq!(rep.data_valid, Some(true));
    check(
        "fused_mb_major",
        &rep,
        (0x41276bcfaff95037, 224, 234881024, 0x6b0ceee26dff6817),
    );
}

#[test]
fn nccl_and_msccl_backends() {
    let topo = Topology::a100(2, 4);
    let spec = hm_allreduce(2, 4);
    let nccl = NcclBackend::default()
        .run(&spec, &topo, 16 * MB, MB)
        .unwrap();
    check(
        "nccl",
        &nccl.sim,
        (0x412186ca5e6da595, 224, 234881024, 0x00c0370297a7b12e),
    );
    let msccl = MscclBackend::default()
        .run(&spec, &topo, 16 * MB, MB)
        .unwrap();
    check(
        "msccl",
        &msccl.sim,
        (0x4123b94a5e6da595, 224, 234881024, 0x07f86d0ccf120494),
    );
}

#[test]
fn jittered_latencies() {
    let topo = Topology::a100(2, 4);
    let plan = Compiler::new()
        .compile_spec(&hm_allgather(2, 4), &topo)
        .unwrap();
    let rep = plan
        .run_with(32 * MB, MB, &full().with_jitter(0.5, 7))
        .unwrap();
    check(
        "jitter",
        &rep,
        (0x411d71968e9720c2, 224, 234881024, 0xc27e653ca1ab7bc2),
    );
}

#[test]
fn brownout_and_straggler() {
    let topo = Topology::a100(2, 4);
    let plan = Compiler::new()
        .compile_spec(&hm_allreduce(2, 4), &topo)
        .unwrap();
    let nic = topo.nic_tx(topo.nic_of(Rank::new(1)));
    let chan = topo.pair_chan(Rank::new(4), Rank::new(5));
    let faults = FaultTimeline::new()
        .brownout(nic, 20_000.0, 0.3, 200_000.0)
        .brownout(chan, 50_000.0, 0.5, 80_000.0)
        .straggler(6, 10_000.0, 2.5, 150_000.0);
    let rep = plan
        .run_with(32 * MB, MB, &full().with_faults(faults))
        .unwrap();
    assert_eq!(
        rep.faults.len(),
        6,
        "every transition applies and is logged"
    );
    check(
        "brownout_straggler",
        &rep,
        (0x412e79f628a6d9ca, 448, 469762048, 0x6f64593be51662a7),
    );
}

#[test]
fn flap_aborts_then_residual_resume_finishes() {
    let topo = Topology::a100(2, 4);
    let compiler = Compiler::new();
    let plan = compiler.compile_spec(&hm_allreduce(2, 4), &topo).unwrap();
    let chan = topo.pair_chan(Rank::new(0), Rank::new(1));
    let cfg = full().with_faults(FaultTimeline::new().flap(chan, 60_000.0, 40_000.0, 40_000.0, 2));
    let err = plan.run_with(32 * MB, MB, &cfg).unwrap_err();
    let SimError::ResourceDown {
        resource,
        task,
        at_ns,
        permanent,
        frontier: Some(frontier),
    } = err
    else {
        panic!("expected a ResourceDown with a frontier, got {err}");
    };
    let abort = (resource, task, at_ns, permanent, frontier.completed());
    assert_eq!(abort, (24, 0, 60_000, false, 48), "flap abort drifted");

    let residual = compiler.residual_plan(&plan, &frontier).unwrap();
    let rcfg = full().with_resume(residual.resume.clone());
    let rep = residual.plan.run_with(32 * MB, MB, &rcfg).unwrap();
    assert_eq!(rep.data_valid, Some(true));
    check(
        "residual_resume",
        &rep,
        (0x412ba2f07103b184, 448, 419430400, 0x91be2ab086f982fe),
    );
}

/// A fused forward whose follower finishes draining before its feeding
/// receive: the follower's completion is deferred to the feeder's, and
/// while the follower is in flight other transfers complete and new ones
/// start after them (so transfer slots are freed and reused around the
/// waiting follower). The feeder's inter-node path is degraded so its
/// drains are slow; the forward rides an NVLink channel.
#[test]
fn fused_follower_drains_before_its_feeder() {
    let topo = Topology::a100(2, 4);
    let (dag, prog) = fused_program(&topo, LoopOrder::SlotMajor);
    let spec = hm_allreduce(2, 4);
    let plan = MicroBatchPlan::plan(16 * MB, spec.n_chunks(), MB);
    let mut cfg = full();
    for node in 0..2 {
        let nic = topo.nic_of(Rank::new(node * 4));
        cfg = cfg
            .with_degraded(topo.nic_tx(nic), 0.2)
            .with_degraded(topo.nic_rx(nic), 0.2);
    }
    let rep = simulate(&topo, &dag, &prog, &plan, spec.op(), &cfg).unwrap();
    assert_eq!(rep.data_valid, Some(true));

    // A deferred follower completes at exactly its feeder's completion
    // instant. Inside its flight window, some transfer must complete and
    // a later one start.
    let recycled = |lo: f64, hi: f64| {
        rep.trace.iter().any(|done| {
            done.end_ns > lo
                && done.end_ns < hi
                && rep
                    .trace
                    .iter()
                    .any(|next| next.start_ns >= done.end_ns && next.start_ns < hi)
        })
    };
    let end_of = |task: u32, mb: u32| {
        rep.trace
            .iter()
            .find(|e| e.task == task && e.mb == mb)
            .expect("every invocation is traced")
    };
    let mut deferred = 0;
    for rp in &prog.ranks {
        for tb in &rp.tbs {
            for (si, slot) in tb.slots.iter().enumerate() {
                if !slot.fused_with_prev {
                    continue;
                }
                let feeder = tb.slots[si - 1].task;
                for mb in 0..plan.n_micro_batches {
                    let f = end_of(feeder.0, mb);
                    let b = end_of(slot.task.0, mb);
                    if b.end_ns == f.end_ns && recycled(b.start_ns, f.end_ns) {
                        deferred += 1;
                    }
                }
            }
        }
    }
    assert!(deferred > 0, "scenario must defer a fused follower");
    check(
        "fused_follower_first",
        &rep,
        (0x414023e0a9fe7a31, 224, 234881024, 0x551cc2a5c8e2d226),
    );
}

/// A ring AllGather on two 2-GPU nodes: symmetric ring steps finish
/// together, so events tie on time and pop by sequence number.
#[test]
fn equal_time_ties() {
    let topo = Topology::a100(2, 2);
    let plan = Compiler::new()
        .compile_spec(&ring_allgather(4), &topo)
        .unwrap();
    let rep = plan.run_with(8 * MB, MB, &full()).unwrap();
    let mut ends: Vec<u64> = rep.trace.iter().map(|e| e.end_ns.to_bits()).collect();
    ends.sort_unstable();
    ends.dedup();
    assert!(ends.len() < rep.trace.len(), "grid needs equal-time events");
    check(
        "ring_ties",
        &rep,
        (0x411305a8f5c28f5c, 24, 25165824, 0xc92b204115229017),
    );
}

/// A 32-rank hm AllReduce: hundreds of transfers in flight at once.
#[test]
fn hm_allreduce_32_ranks() {
    let topo = Topology::a100(4, 8);
    let plan = Compiler::new()
        .compile_spec(&hm_allreduce(4, 8), &topo)
        .unwrap();
    let rep = plan
        .run_with(32 * MB, MB, &SimConfig::default().with_trace())
        .unwrap();
    assert_eq!(rep.data_valid, Some(true));
    check(
        "hm_32",
        &rep,
        (0x412906948b5fc88d, 1984, 2080374784, 0x84d40716bc65c402),
    );
}

/// A 64 MB hm AllReduce under `FaultTimeline::seeded_chaos` on the bare
/// engine (no watchdog), with the fault horizon set to the healthy
/// completion. Chaos may end the run with a typed fault; then the
/// digest of the error, frontier included, is pinned instead.
fn chaos_outcome(topo: &Topology, seed: u64) -> Result<Pin, u64> {
    let plan = Compiler::new()
        .compile_spec(&hm_allreduce(topo.n_nodes(), topo.gpus_per_node()), topo)
        .unwrap();
    let base = SimConfig::default().without_validation().with_trace();
    let horizon = plan.run_with(64 * MB, MB, &base).unwrap().completion_ns;
    let faults = FaultTimeline::seeded_chaos(seed, topo.n_resources(), topo.n_ranks(), horizon);
    match plan.run_with(64 * MB, MB, &base.with_faults(faults)) {
        Ok(rep) => Ok(pin_of(&rep)),
        Err(e) => Err(fnv(format!("{e:?}").as_bytes(), 0xcbf2_9ce4_8422_2325)),
    }
}

/// Seeded chaos timelines. On seeds 817 and 949 a fault transition that
/// fires before the transfer queue's head re-projects drains to finish
/// earlier than that head: a queue that raised its ordering floor on
/// `peek` rather than on `pop` reorders events on these two. Seeds 39
/// and 38 are ordinary timelines the run survives.
#[test]
fn seeded_chaos_timelines() {
    let cases: [(u32, u32, u64, Result<Pin, u64>); 4] = [
        (2, 4, 817, Err(0x4c6e33d7b90b0a71)),
        (
            2,
            8,
            949,
            Ok((0x4132871bb4814a0b, 1920, 2013265920, 0x42b51770d28b1ab0)),
        ),
        (
            2,
            4,
            39,
            Ok((0x4140fd2fa3485905, 896, 939524096, 0x234501976f0ba652)),
        ),
        (
            2,
            8,
            38,
            Ok((0x41321422b78eb26f, 1920, 2013265920, 0xf51605bd466058de)),
        ),
    ];
    for (nodes, gpus, seed, expect) in cases {
        let topo = Topology::a100(nodes, gpus);
        let got = chaos_outcome(&topo, seed);
        let new_pin = match got {
            Ok(p) => format!("Ok((0x{:016x}, {}, {}, 0x{:016x}))", p.0, p.1, p.2, p.3),
            Err(d) => format!("Err(0x{d:016x})"),
        };
        assert_eq!(
            got, expect,
            "chaos a100({nodes}, {gpus}) seed {seed}: engine output drifted; new pin: {new_pin}"
        );
    }
}
