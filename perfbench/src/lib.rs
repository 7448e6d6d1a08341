//! End-to-end benchmark of `rescc_backends::Communicator` dispatch.
//!
//! One client thread drives a closed loop: the next collective is issued
//! only after the previous one returns, as a training framework would.
//! The compiler keeps its default of one thread. Each workload turns the
//! seed into a fixed request stream; one *epoch* builds fresh state
//! (timed as set-up), then issues that stream. A run repeats epochs until
//! its time is used up, and every epoch of a run must reproduce the same
//! simulated times and counts exactly.
//!
//! Host times of the end-to-end metrics are scaled by the machine's
//! slowness, measured with the fixed `reference` kernel run between calls
//! (see that module), so that the drift of a shared machine's speed does
//! not swamp them.
//!
//! With tracing off the run reports the end-to-end metrics. With tracing
//! on it alternates untraced epochs with epochs sent through the
//! `replica::Replica` mirror, which times each layer from outside, and
//! reports the per-layer metrics.
//!
//! See `README.md` next to this crate for the workloads, the metric
//! definitions and the layer-to-end-to-end map.

mod reference;
mod replica;

use reference::{Reference, NOMINAL_PASS_MS};
use replica::{LayerTimes, Replica};
use rescc_backends::{Communicator, RunReport};
use rescc_core::PlanCache;
use rescc_lang::OpType;
use rescc_sim::{FaultTimeline, SimError, SimResult};
use rescc_topology::Topology;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MB: u64 = 1 << 20;
const OPS: [OpType; 3] = [OpType::AllReduce, OpType::AllGather, OpType::ReduceScatter];
/// Seed of the fixed pool of fault timelines the chaos mix issues.
const CHAOS_POOL_SEED: u64 = 0x00C4_A05C_4A05;
/// Percentiles the tail metric may report, highest last.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One 128-rank communicator dispatching a warm plan set.
    Steady,
    /// Sub-group communicators sharing one byte-budgeted plan cache.
    Churn,
    /// One validating communicator per Table-3 topology under seeded faults.
    Chaos,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::Steady, Workload::Churn, Workload::Chaos];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::Churn => "churn",
            Workload::Chaos => "chaos",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work one epoch does: the benchmark proper, or the tiny smoke
/// mode (a few requests on small shapes) the crate's test runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// One collective call of the stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Request {
    /// Index of the communicator that issues it.
    tenant: usize,
    op: OpType,
    bytes: u64,
    /// Seed of the chaos fault timeline armed before the call (chaos only).
    chaos_seed: Option<u64>,
}

/// SplitMix64: a small, fixed generator, so a seed means the same stream
/// on every platform and in every later version of the benchmark.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// What a workload issues at a scale, fixed before the seed is applied.
struct Scenario {
    /// One topology per communicator.
    topos: Vec<Topology>,
    /// Byte budget of the one shared cache; `None` gives every
    /// communicator a private, unbounded cache.
    shared_budget: Option<u64>,
    /// Communicators validate every collective's data.
    validate: bool,
    /// Calls made through a validating twin at set-up; their completion
    /// times are the steady references and the chaos fault horizons.
    warmup: Vec<Request>,
    /// The mix every epoch issues, in seeded order.
    mix: Vec<Request>,
    /// Requests the seeded tail draws from.
    tail_pool: Vec<Request>,
    /// Length of the seeded tail.
    tail: usize,
    /// Chaos: arm a seeded fault timeline before every call.
    chaos: bool,
}

fn req(tenant: usize, op: OpType, bytes: u64) -> Request {
    Request {
        tenant,
        op,
        bytes,
        chaos_seed: None,
    }
}

impl Scenario {
    fn new(w: Workload, scale: Scale) -> Scenario {
        let smoke = scale == Scale::Smoke;
        match w {
            // A training loop in steady state: the 64 MB gradient-bucket
            // AllReduce is more than half of each step (so the median call
            // is a bucket whatever the order) and every other warm plan
            // appears once. The tail adds one seeded 16 MB AllGather or
            // ReduceScatter per step, small enough to leave the stream's
            // simulated time and bandwidth nearly unchanged.
            Workload::Steady => {
                let (topo, sizes, bucket_bytes, bucket_reps, steps) = if smoke {
                    (Topology::a100(2, 4), vec![4 * MB, 16 * MB], 16 * MB, 2, 1)
                } else {
                    (
                        Topology::a100(16, 8),
                        vec![4 * MB, 16 * MB, 64 * MB, 256 * MB],
                        64 * MB,
                        14,
                        2,
                    )
                };
                let bucket = req(0, OpType::AllReduce, bucket_bytes);
                let warmup: Vec<Request> = sizes
                    .iter()
                    .flat_map(|&b| OPS.map(|op| req(0, op, b)))
                    .collect();
                let mut step = warmup.clone();
                step.extend(std::iter::repeat_n(bucket, bucket_reps - 1));
                let mix = std::iter::repeat_n(step, steps).flatten().collect();
                let tail_pool = warmup
                    .iter()
                    .copied()
                    .filter(|r| r.bytes == 16 * MB && r.op != OpType::AllReduce)
                    .collect();
                Scenario {
                    topos: vec![topo],
                    shared_budget: None,
                    validate: false,
                    warmup,
                    mix,
                    tail_pool,
                    tail: steps,
                    chaos: false,
                }
            }
            // Sub-group communicators whose distinct plans outgrow the
            // shared cache's budget: every (group, op, size) is issued
            // four times, so a plan is reused only if it survives
            // eviction. Four rounds rather than two average out which
            // reuses the seeded order happens to let hit. The tail adds
            // seeded 4 MB calls on the 16-rank groups, cheap enough not to
            // move the host-time metrics.
            Workload::Churn => {
                const ROUNDS: usize = 4;
                let (shapes, sizes, budget): (&[(u32, u32)], Vec<u64>, u64) = if smoke {
                    (&[(2, 4), (4, 4)], vec![4 * MB, 16 * MB], 256 << 10)
                } else {
                    (
                        &[(2, 8), (4, 8), (8, 8), (8, 4), (16, 4), (16, 8), (4, 4)],
                        vec![4 * MB, 16 * MB, 64 * MB],
                        64 * MB,
                    )
                };
                let topos: Vec<Topology> =
                    shapes.iter().map(|&(n, g)| Topology::a100(n, g)).collect();
                let once: Vec<Request> = (0..topos.len())
                    .flat_map(|t| sizes.iter().flat_map(move |&b| OPS.map(|op| req(t, op, b))))
                    .collect();
                let tail_pool = once
                    .iter()
                    .copied()
                    .filter(|r| r.bytes == sizes[0] && topos[r.tenant].n_ranks() == 16)
                    .collect();
                Scenario {
                    warmup: (0..topos.len())
                        .map(|t| req(t, OpType::AllReduce, sizes[0]))
                        .collect(),
                    topos,
                    shared_budget: Some(budget),
                    validate: true,
                    mix: std::iter::repeat_n(once, ROUNDS).flatten().collect(),
                    tail_pool,
                    tail: 3,
                    chaos: false,
                }
            }
            // Every Table-3 topology × operator cell, 64 MB, re-armed
            // with its own chaos timeline before each call. The mix's
            // timelines are one fixed pool, the same for every seed, so
            // the share of calls that give up barely depends on the seed;
            // the seed orders the mix (masks carry over between calls)
            // and draws a short tail of calls with fresh timelines.
            Workload::Chaos => {
                let (topo_ids, reps): (&[usize], usize) = if smoke {
                    (&[1], 2)
                } else {
                    (&[1, 2, 3, 4], 120)
                };
                let topos: Vec<Topology> = topo_ids
                    .iter()
                    .map(|&i| Topology::table3_topo(i).expect("Table-3 topology"))
                    .collect();
                let cells: Vec<Request> = (0..topos.len())
                    .flat_map(|t| OPS.map(|op| req(t, op, 64 * MB)))
                    .collect();
                let mut pool = Rng(CHAOS_POOL_SEED);
                let mix = std::iter::repeat_n(cells.clone(), reps)
                    .flatten()
                    .map(|r| Request {
                        chaos_seed: Some(pool.next()),
                        ..r
                    })
                    .collect();
                Scenario {
                    topos,
                    shared_budget: None,
                    validate: true,
                    warmup: cells.clone(),
                    mix,
                    tail_pool: cells,
                    tail: if smoke { 1 } else { 12 },
                    chaos: true,
                }
            }
        }
    }

    /// The epoch's request stream for `seed`: the mix in seeded order,
    /// then the seeded tail, whose chaos calls get seeded fault timelines.
    fn stream(&self, seed: u64) -> Vec<Request> {
        let mut rng = Rng(seed);
        let mut s = self.mix.clone();
        rng.shuffle(&mut s);
        for _ in 0..self.tail {
            let mut r = self.tail_pool[rng.below(self.tail_pool.len())];
            if self.chaos {
                r.chaos_seed = Some(rng.next());
            }
            s.push(r);
        }
        s
    }
}

/// FNV-1a over the stream, so runs can show which requests they issued.
fn stream_digest(stream: &[Request]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in stream {
        let op = OPS.iter().position(|&o| o == r.op).expect("known op") as u64;
        for x in [r.tenant as u64, op, r.bytes, r.chaos_seed.unwrap_or(0)] {
            for b in x.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// The state one epoch runs against, built by set-up.
struct Fleet {
    comms: Vec<Communicator>,
    /// Completion time of every warm-up call, by request.
    warm_ns: HashMap<Request, f64>,
}

/// Either way of issuing a call: the library's `Communicator`, or the
/// traced mirror.
enum Tenants {
    Plain(Vec<Communicator>),
    Traced(Vec<Replica>),
}

fn issue(comm: &mut Communicator, op: OpType, bytes: u64) -> SimResult<RunReport> {
    match op {
        OpType::AllReduce => comm.all_reduce(bytes),
        OpType::AllGather => comm.all_gather(bytes),
        OpType::ReduceScatter => comm.reduce_scatter(bytes),
    }
}

/// Build the communicators and run the warm-up through a validating twin
/// of each that shares its cache. `traced` routes the warm-up through the
/// mirror instead, collecting its compile-phase times.
fn setup(sc: &Scenario, traced: Option<&mut LayerTimes>) -> Fleet {
    let shared = sc
        .shared_budget
        .map(|b| Arc::new(PlanCache::new().with_byte_budget(b)));
    let comms: Vec<Communicator> = sc
        .topos
        .iter()
        .map(|topo| {
            let comm = Communicator::new(topo.clone());
            let comm = match &shared {
                Some(cache) => comm.with_shared_cache(Arc::clone(cache)),
                None => comm,
            };
            if sc.validate {
                comm.with_validation()
            } else {
                comm
            }
        })
        .collect();
    let mut warm_ns = HashMap::new();
    let mut layers = traced;
    for r in &sc.warmup {
        let comm = &comms[r.tenant];
        let rep = match layers.as_deref_mut() {
            Some(t) => Replica::new(comm.topology().clone(), comm.cache_handle(), true)
                .run(r.op, r.bytes, t),
            None => issue(
                &mut Communicator::new(comm.topology().clone())
                    .with_validation()
                    .with_shared_cache(comm.cache_handle()),
                r.op,
                r.bytes,
            ),
        }
        .unwrap_or_else(|e| panic!("warm-up {r:?} failed: {e}"));
        assert_eq!(
            rep.sim.data_valid,
            Some(true),
            "warm-up {r:?} produced wrong data"
        );
        warm_ns.insert(*r, rep.sim.completion_ns);
    }
    Fleet { comms, warm_ns }
}

/// What one epoch produced that must repeat exactly: simulated times and
/// counts. Two epochs of the same stream, traced or not, must be equal.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Tally {
    pub calls: u64,
    /// Calls that delivered correct data.
    pub ok: u64,
    /// Chaos calls the watchdog abandoned with a typed error.
    pub gave_up: u64,
    /// Calls with a wrong result or an unexplained error.
    pub wrong: u64,
    /// Summed `total_completion_ns` of the successful calls.
    pub sim_ns: f64,
    /// Summed `ln(algbw)` of the successful calls.
    pub ln_algbw: f64,
    pub invocations: u64,
    pub idle_ratio_sum: f64,
    pub link_util_sum: f64,
    pub max_rank_tbs: usize,
    pub retries: u64,
    pub recompiles: u64,
    pub delta_recompiles: u64,
    pub resumes: u64,
    pub heals: u64,
    /// Calls whose completion undercut the certified makespan floor
    /// (also counted in `wrong`).
    pub cert_undercuts: u64,
    /// Cache counters over the stream (set-up excluded).
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    /// Resident plans and their charged bytes when the stream ends.
    pub cache_entries: u64,
    pub cache_resident_bytes: u64,
    /// First wrong call's description.
    pub first_error: Option<String>,
}

/// A give-up the chaos workload accepts: the watchdog ran out of its
/// recompile budget on a permanent fault, refused a recompiled plan that
/// still carries lint errors, or the compiler's lint gate refused the plan
/// for a topology with masked resources (`degraded`). Anything else is a
/// wrong result.
fn typed_give_up(err: &SimError, degraded: bool) -> bool {
    match err {
        SimError::ResourceDown { permanent, .. } => *permanent,
        SimError::InvalidProgram(msg) => {
            msg.starts_with("recovery: degraded plan rejected by static analysis")
                || (degraded && msg.starts_with("sanitize: plan rejected by lint gate"))
        }
        _ => false,
    }
}

impl Tally {
    fn record(
        &mut self,
        sc: &Scenario,
        warm_ns: &HashMap<Request, f64>,
        r: &Request,
        res: SimResult<RunReport>,
        degraded: bool,
    ) {
        self.calls += 1;
        let rep = match res {
            Ok(rep) => rep,
            Err(e) if sc.chaos && typed_give_up(&e, degraded) => {
                self.gave_up += 1;
                return;
            }
            Err(e) => return self.fail(format!("{r:?}: {e}")),
        };
        if sc.validate && rep.sim.data_valid != Some(true) {
            return self.fail(format!("{r:?}: data_valid = {:?}", rep.sim.data_valid));
        }
        if !sc.chaos {
            let reference = warm_ns.get(r).copied();
            if reference.is_some_and(|ns| ns != rep.sim.completion_ns) {
                return self.fail(format!(
                    "{r:?}: completion {} ns differs from reference {reference:?}",
                    rep.sim.completion_ns
                ));
            }
        }
        if rep.certificate_undercut == Some(true) {
            self.cert_undercuts += 1;
            return self.fail(format!(
                "{r:?}: completion undercuts the certified makespan floor"
            ));
        }
        self.ok += 1;
        self.sim_ns += rep.total_completion_ns();
        self.ln_algbw += rep.algbw_gbps().ln();
        self.invocations += rep.sim.n_invocations;
        self.idle_ratio_sum += rep.sim.avg_idle_ratio();
        self.link_util_sum += rep.sim.global_link_utilization();
        self.max_rank_tbs = self.max_rank_tbs.max(rep.max_rank_tbs);
        if let Some(rec) = &rep.recovery {
            self.retries += u64::from(rec.retries);
            self.recompiles += u64::from(rec.recompiles);
            self.delta_recompiles += u64::from(rec.delta_recompiles);
            self.resumes += u64::from(rec.resumes);
            self.heals += u64::from(rec.heals);
        }
    }

    fn fail(&mut self, msg: String) {
        self.wrong += 1;
        self.first_error.get_or_insert(msg);
    }
}

/// The distinct caches a set of communicators dispatches through.
fn caches(comms: &[Communicator]) -> Vec<Arc<PlanCache>> {
    let mut out: Vec<Arc<PlanCache>> = Vec::new();
    for c in comms {
        let h = c.cache_handle();
        if !out.iter().any(|o| Arc::ptr_eq(o, &h)) {
            out.push(h);
        }
    }
    out
}

/// One epoch's results.
struct Epoch {
    setup: Duration,
    /// Wall time of each call, in stream order.
    walls: Vec<Duration>,
    tally: Tally,
    traced: bool,
    /// The machine's slowness over the epoch's stream, from the reference
    /// passes between its calls.
    slowness: f64,
}

/// Layer times summed over a run's traced epochs, for the stream and for
/// set-up (whose compiles feed the compile-phase metrics).
#[derive(Default)]
struct Traces {
    stream: LayerTimes,
    setup: LayerTimes,
}

/// One epoch; `traces` sends it through the traced mirror. A reference
/// pass follows every call, outside its timer.
fn run_epoch(
    sc: &Scenario,
    stream: &[Request],
    mut traces: Option<&mut Traces>,
    reference: &mut Reference,
) -> Epoch {
    let traced = traces.is_some();
    let t0 = Instant::now();
    let Fleet { comms, warm_ns } = setup(sc, traces.as_deref_mut().map(|t| &mut t.setup));
    let setup_time = t0.elapsed();
    let caches = caches(&comms);
    let before: Vec<_> = caches.iter().map(|c| c.stats()).collect();
    let mut tenants = if traced {
        let replicas = comms
            .iter()
            .map(|c| Replica::new(c.topology().clone(), c.cache_handle(), sc.validate))
            .collect();
        Tenants::Traced(replicas)
    } else {
        Tenants::Plain(comms)
    };
    let mut tally = Tally::default();
    let mut walls = Vec::with_capacity(stream.len());
    for r in stream {
        let faults = r.chaos_seed.map(|seed| {
            let topo = &sc.topos[r.tenant];
            let horizon = warm_ns[&req(r.tenant, r.op, r.bytes)];
            FaultTimeline::seeded_chaos(seed, topo.n_resources(), topo.n_ranks(), horizon)
        });
        let t0 = Instant::now();
        // The call's result, and whether its tenant left it with masked
        // resources.
        let (res, degraded) = match &mut tenants {
            Tenants::Plain(comms) => {
                let comm = &mut comms[r.tenant];
                if let Some(f) = faults {
                    comm.set_faults(f);
                }
                let res = issue(comm, r.op, r.bytes);
                (res, !comm.health().is_empty())
            }
            Tenants::Traced(replicas) => {
                let rep = &mut replicas[r.tenant];
                if let Some(f) = faults {
                    rep.set_faults(f);
                }
                let t = traces.as_deref_mut().expect("traced epoch");
                let res = rep.run(r.op, r.bytes, &mut t.stream);
                (res, !rep.health().is_empty())
            }
        };
        walls.push(t0.elapsed());
        reference.pass();
        tally.record(sc, &warm_ns, r, res, degraded);
    }
    for (c, b) in caches.iter().zip(&before) {
        let s = c.stats();
        tally.cache_hits += s.hits - b.hits;
        tally.cache_misses += s.misses - b.misses;
        tally.cache_evictions += s.evictions - b.evictions;
        tally.cache_entries += s.entries as u64;
        tally.cache_resident_bytes += s.resident_bytes;
    }
    Epoch {
        setup: setup_time,
        walls,
        tally,
        traced,
        slowness: reference.take(),
    }
}

/// A run's options.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Wall time the run's epochs should fit in, past the minimum number.
    pub seconds: f64,
    /// Report per-layer metrics from traced epochs.
    pub trace: bool,
    pub scale: Scale,
}

/// One metric of the result line.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A finished run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// The tally every epoch reproduced.
    pub tally: Tally,
    pub stream_digest: u64,
    pub epochs: usize,
    /// Percentile `dispatch_tail_ms` reports.
    pub tail_pct: f64,
    /// Human-readable lines: problems found and, when traced, the
    /// layer-share table.
    pub notes: Vec<String>,
}

/// Untraced epochs every run makes at least, so set-up is timed several
/// times and the tail percentile is fixed by the stream length.
const MIN_EPOCHS: usize = 3;
/// Untraced and traced epochs a traced run makes at least, each.
const MIN_TRACED_PAIRS: usize = 2;

/// The highest ladder percentile with at least 10 of `n` samples above it.
fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .rev()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Peak resident memory of this process (VmHWM), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Mean of a layer's time over its `n` runs, in `scale` units per second.
fn per(d: Duration, n: u64, scale: f64) -> f64 {
    if n == 0 {
        0.0
    } else {
        d.as_secs_f64() * scale / n as f64
    }
}

/// Run one workload.
pub fn run(opts: &Options) -> Outcome {
    let sc = Scenario::new(opts.workload, opts.scale);
    let stream = sc.stream(opts.seed);
    let start = Instant::now();
    let mut epochs: Vec<Epoch> = Vec::new();
    let mut traces = Traces::default();
    let mut reference = Reference::default();
    // Peak memory is read after the first epoch, so it covers one set-up
    // and one stream whatever the run's length. It is the whole process's
    // peak: the command line runs one workload per process.
    let mut peak_rss = 0.0;
    // Tracing alternates untraced and traced epochs, so both see the same
    // machine conditions. After the minimum, an epoch starts only if one
    // more of average length still ends within the run's time.
    let min = if opts.trace {
        2 * MIN_TRACED_PAIRS
    } else {
        MIN_EPOCHS
    };
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let n = epochs.len();
        if n >= min && elapsed * (n + 1) as f64 / n as f64 > opts.seconds {
            break;
        }
        let traced = opts.trace && n % 2 == 1;
        epochs.push(run_epoch(
            &sc,
            &stream,
            traced.then_some(&mut traces),
            &mut reference,
        ));
        if epochs.len() == 1 {
            peak_rss = peak_rss_mb();
        }
    }

    let tally = epochs[0].tally.clone();
    let mut notes = Vec::new();
    let mut failed: u64 = epochs.iter().map(|e| e.tally.wrong).sum();
    if let Some(msg) = &tally.first_error {
        notes.push(format!("wrong result: {msg}"));
    }
    let diverged = epochs.iter().filter(|e| e.tally != tally).count() as u64;
    if diverged > 0 {
        notes.push(format!(
            "{diverged} epoch(s) did not reproduce the first epoch's simulated times and counts"
        ));
        failed += diverged;
    }
    let plain: Vec<&Epoch> = epochs.iter().filter(|e| !e.traced).collect();
    let raw_walls: Vec<f64> = plain
        .iter()
        .flat_map(|e| e.walls.iter().map(|&d| ms(d)))
        .collect();
    let slowness: Vec<f64> = plain.iter().map(|e| e.slowness).collect();
    let raw_setups: Vec<f64> = plain.iter().map(|e| e.setup.as_secs_f64()).collect();
    notes.push(format!(
        "machine slowness {:.4} (median over epochs; 1 = the reference kernel's nominal \
         {NOMINAL_PASS_MS} ms); unscaled: setup_s {:.4}, dispatch_p50_ms {:.4}, \
         dispatches_per_s {:.4}",
        median(&slowness),
        median(&raw_setups),
        median(&raw_walls),
        raw_walls.len() as f64 * 1e3 / raw_walls.iter().sum::<f64>(),
    ));
    let tail_pct = tail_percentile(MIN_EPOCHS * stream.len());
    let metrics = if opts.trace {
        layer_metrics(&tally, &traces, &raw_walls, &mut notes)
    } else {
        // Host times scaled by their epoch's slowness.
        let walls: Vec<f64> = plain
            .iter()
            .flat_map(|e| e.walls.iter().map(|&d| ms(d) / e.slowness))
            .collect();
        let mut sorted = walls.clone();
        sorted.sort_by(f64::total_cmp);
        let setups: Vec<f64> = plain
            .iter()
            .map(|e| e.setup.as_secs_f64() / e.slowness)
            .collect();
        let m = |name, value, unit| Metric { name, value, unit };
        vec![
            m("setup_s", median(&setups), "s"),
            m("dispatch_p50_ms", median(&walls), "ms"),
            m("dispatch_tail_ms", percentile(&sorted, tail_pct), "ms"),
            m(
                "dispatches_per_s",
                walls.len() as f64 * 1e3 / walls.iter().sum::<f64>(),
                "1/s",
            ),
            m("sim_time_ms", tally.sim_ns / 1e6, "ms"),
            m(
                "algbw_gbps",
                (tally.ln_algbw / tally.ok.max(1) as f64).exp(),
                "GB/s",
            ),
            m("success_frac", tally.ok as f64 / tally.calls as f64, "frac"),
            m("peak_rss_mb", peak_rss, "MB"),
        ]
    };
    Outcome {
        correct: failed == 0,
        attempted: epochs.iter().map(|e| e.tally.calls).sum(),
        failed,
        metrics,
        tally,
        stream_digest: stream_digest(&stream),
        epochs: epochs.len(),
        tail_pct,
        notes,
    }
}

/// Per-layer metrics of a traced run, plus the layer-share table.
fn layer_metrics(
    tally: &Tally,
    traces: &Traces,
    walls: &[f64],
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let t = &traces.stream;
    // Mean per compile of one phase, set-up compiles included.
    let phase_ms = |phase: fn(&LayerTimes) -> Duration| {
        let s = &traces.setup;
        per(phase(t) + phase(s), t.compiles + s.compiles, 1e3)
    };
    let calls = t.dispatches.max(1) as f64;
    let untraced_ms = walls.iter().sum::<f64>() / walls.len().max(1) as f64;
    let traced_ms = ms(t.dispatch) / calls;
    let unattributed_ms = untraced_ms - ms(t.attributed()) / calls;
    let ok = tally.ok.max(1) as f64;

    let rows = [
        ("backends.clone", t.clone),
        ("cache.key", t.key),
        ("cache.lookup", t.lookup_hit + t.lookup_miss),
        ("ir.analysis", t.analysis),
        ("sched.scheduling", t.scheduling),
        ("kernel.lowering", t.lowering),
        ("analyze.sanitize", t.sanitize),
        ("sim.simulate", t.simulate),
        ("sim.validate", t.validate),
        ("core.delta", t.delta),
        ("residual.plan", t.residual),
        ("sim.resume", t.resume),
    ];
    // Shares are of the untraced dispatch, the time a caller waits for.
    // Its epochs alternate with the traced ones, so machine noise between
    // them can make the unattributed remainder slightly negative.
    notes.push(format!(
        "layer shares of an untraced dispatch ({untraced_ms:.3} ms per call, host time):"
    ));
    let rows = rows.map(|(name, d)| (name, ms(d) / calls));
    for (name, per_call) in rows.into_iter().chain([("unattributed", unattributed_ms)]) {
        notes.push(format!(
            "  {name:<18} {per_call:>10.4} ms  {:>6.2}%",
            100.0 * per_call / untraced_ms
        ));
    }
    notes.push(format!(
        "  traced dispatch {traced_ms:.3} ms per call, tracing overhead {:+.2}%",
        100.0 * (traced_ms / untraced_ms - 1.0)
    ));

    let m = |name, value, unit| Metric { name, value, unit };
    let lookups = tally.cache_hits + tally.cache_misses;
    vec![
        m("backends.clone_us", per(t.clone, t.dispatches, 1e6), "us"),
        m("backends.retries", tally.retries as f64, "count"),
        m("backends.recompiles", tally.recompiles as f64, "count"),
        m(
            "backends.delta_recompiles",
            tally.delta_recompiles as f64,
            "count",
        ),
        m("backends.resumes", tally.resumes as f64, "count"),
        m("backends.heals", tally.heals as f64, "count"),
        m("backends.gave_up", tally.gave_up as f64, "count"),
        m("cache.key_us", per(t.key, t.keys, 1e6), "us"),
        m(
            "cache.lookup_us",
            per(t.lookup_hit, t.lookup_hits, 1e6),
            "us",
        ),
        m(
            "cache.hit_rate",
            if lookups == 0 {
                0.0
            } else {
                tally.cache_hits as f64 / lookups as f64
            },
            "frac",
        ),
        m("cache.misses", tally.cache_misses as f64, "count"),
        m("cache.evictions", tally.cache_evictions as f64, "count"),
        m(
            "cache.resident_mb",
            tally.cache_resident_bytes as f64 / 1e6,
            "MB",
        ),
        m(
            "cache.plan_mb",
            tally.cache_resident_bytes as f64 / 1e6 / tally.cache_entries.max(1) as f64,
            "MB",
        ),
        m("ir.analysis_ms", phase_ms(|l| l.analysis), "ms"),
        m("sched.scheduling_ms", phase_ms(|l| l.scheduling), "ms"),
        m("kernel.lowering_ms", phase_ms(|l| l.lowering), "ms"),
        m("analyze.sanitize_ms", phase_ms(|l| l.sanitize), "ms"),
        m(
            "analyze.cert_undercuts",
            tally.cert_undercuts as f64,
            "count",
        ),
        m("sim.simulate_ms", per(t.simulate, t.simulates, 1e3), "ms"),
        m("sim.invocations", tally.invocations as f64, "count"),
        m(
            "sim.minv_per_s",
            if t.simulate_ok.is_zero() {
                0.0
            } else {
                t.simulate_ok_invocations as f64 / t.simulate_ok.as_secs_f64() / 1e6
            },
            "Minv/s",
        ),
        m("sim.validate_ms", per(t.validate, t.validates, 1e3), "ms"),
        m("sim.idle_ratio", tally.idle_ratio_sum / ok, "frac"),
        m("sim.link_util", tally.link_util_sum / ok, "frac"),
        m("sim.max_rank_tbs", tally.max_rank_tbs as f64, "count"),
        m("core.delta_ms", per(t.delta, t.deltas, 1e3), "ms"),
        m("residual.plan_ms", per(t.residual, t.residuals, 1e3), "ms"),
        m("sim.resume_ms", per(t.resume, t.resumes, 1e3), "ms"),
        m("dispatch.unattributed_ms", unattributed_ms, "ms"),
        m("trace.overhead_frac", traced_ms / untraced_ms - 1.0, "frac"),
    ]
}

/// The result line the benchmark prints last.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|Metric { name, value, unit }| {
            let v = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
