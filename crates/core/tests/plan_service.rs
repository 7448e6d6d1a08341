//! Concurrency property suite for the sharded plan service
//! (`PlanCache`): singleflight dedup, stats/journal coherence, bounded
//! memory, and differential agreement with the single-mutex reference.
//!
//! Every proof reads evidence local to its own test — a counter inside
//! the compile closure, the cache's own stats and journal — so the tests
//! run concurrently under the default parallel harness.

use rescc_algos::hm_allreduce;
use rescc_core::{
    plan_fingerprint, CacheEventKind, CacheStats, Compiler, PlanCache, SingleMutexPlanCache,
};
use rescc_ir::MicroBatchPlan;
use rescc_lang::AlgoSpec;
use rescc_sim::SimError;
use rescc_topology::Topology;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::thread;
use std::time::Duration;

/// A dispatchable configuration; distinct `i` → distinct fingerprint
/// (the micro-batch chunk size is part of the plan key).
struct Config {
    spec: AlgoSpec,
    topo: Topology,
    mb: MicroBatchPlan,
}

fn config(i: u64) -> Config {
    let spec = hm_allreduce(1, 4);
    let mb = MicroBatchPlan::plan(16 << 20, spec.n_chunks(), (1 << 20) + i * 8192);
    Config {
        spec,
        topo: Topology::a100(1, 4),
        mb,
    }
}

fn dispatch(cache: &PlanCache, compiler: &Compiler, c: &Config) -> rescc_core::CacheEvent {
    cache
        .get_or_compile_traced(compiler, &c.spec, &c.topo, &c.mb)
        .expect("dispatch")
        .1
}

/// The satellite-bug regression: K threads racing one cold fingerprint
/// must produce exactly one compile (closure counter), one journaled
/// miss, and K−1 hits — the pre-singleflight cache compiled once per
/// racer ("last insert wins"). The leader's compile is gated so the
/// race is deterministic, not a scheduler accident.
#[test]
fn racing_cold_dispatches_coalesce_to_one_compile() {
    const K: usize = 8;
    let compiler = Compiler::new();
    let c = config(0);
    let key = plan_fingerprint(&compiler, &c.spec, &c.topo, &c.mb);
    let cache = PlanCache::new();
    let compiles = AtomicU64::new(0);
    let gate = Barrier::new(2);
    let (arrived_tx, arrived_rx) = mpsc::channel::<()>();

    let events = thread::scope(|s| {
        // Leader: its compile blocks on the gate, guaranteeing the other
        // K−1 dispatches arrive while the compile is still in flight.
        let leader = s.spawn(|| {
            cache
                .get_or_compile_keyed(key, || {
                    compiles.fetch_add(1, Ordering::SeqCst);
                    gate.wait();
                    compiler.compile_spec(&c.spec, &c.topo)
                })
                .expect("leader dispatch")
        });
        while compiles.load(Ordering::SeqCst) == 0 {
            thread::yield_now();
        }
        let cache = &cache;
        let followers: Vec<_> = (0..K - 1)
            .map(|_| {
                let tx = arrived_tx.clone();
                s.spawn(move || {
                    tx.send(()).unwrap();
                    // A follower's closure runs only if it were elected
                    // leader — impossible while the gated compile holds
                    // the in-flight slot, and unnecessary after it
                    // publishes. Either way: never.
                    cache
                        .get_or_compile_keyed(key, || panic!("duplicate concurrent compile"))
                        .expect("follower dispatch")
                })
            })
            .collect();
        for _ in 0..K - 1 {
            arrived_rx.recv().unwrap();
        }
        // Let the followers reach the in-flight table before releasing
        // the leader's compile.
        thread::sleep(Duration::from_millis(100));
        gate.wait();
        let mut out = vec![leader.join().expect("leader")];
        out.extend(followers.into_iter().map(|f| f.join().expect("follower")));
        out
    });

    assert_eq!(compiles.load(Ordering::SeqCst), 1, "compile closure reran");
    for (plan, _) in &events[1..] {
        assert!(
            Arc::ptr_eq(plan, &events[0].0),
            "all racers must share the leader's artifact"
        );
    }
    let misses = events.iter().filter(|(_, e)| !e.is_hit()).count();
    assert_eq!(misses, 1, "exactly one dispatch may count as the miss");
    let stats = cache.stats();
    assert_eq!((stats.misses, stats.hits), (1, (K - 1) as u64));
    assert!(
        stats.coalesced >= 1 && stats.coalesced <= (K - 1) as u64,
        "gated racers must coalesce: {stats:?}"
    );
    // The journal tells the same story as the counters.
    let journal = cache.journal();
    assert_eq!(journal.len(), K);
    assert_eq!(
        journal
            .iter()
            .filter(|e| e.kind == CacheEventKind::Miss)
            .count(),
        1
    );
    assert!(journal.iter().all(|e| e.fingerprint == key));
}

/// A failed compile is propagated to the caller and cached nowhere, so
/// the next dispatch retries (and can succeed).
#[test]
fn failed_compile_is_propagated_and_not_cached() {
    let compiler = Compiler::new();
    let c = config(0);
    let key = plan_fingerprint(&compiler, &c.spec, &c.topo, &c.mb);
    let cache = PlanCache::new();
    let err = cache
        .get_or_compile_keyed(key, || Err(SimError::new("transient tooling failure")))
        .expect_err("erroring compile must propagate");
    assert!(matches!(err, SimError::InvalidProgram(_)));
    assert!(!cache.contains(key), "failures must not be cached");
    assert_eq!(cache.stats().misses, 0, "failures are not misses");
    let (_, ev) = cache
        .get_or_compile_keyed(key, || compiler.compile_spec(&c.spec, &c.topo))
        .expect("retry must be allowed to succeed");
    assert!(!ev.is_hit());
    assert!(cache.contains(key));
}

/// N threads over mixed hot/cold fingerprints produce exactly the plans
/// a serial compiler produces, and the service's books stay balanced:
/// every dispatch is a hit or a miss, every miss is one run of the
/// compile closure, journal seqs are unique, and the stats identity
/// holds.
#[test]
fn mixed_hot_cold_traffic_matches_serial_compiles() {
    const THREADS: usize = 4;
    const OPS: usize = 32;
    const DISTINCT: u64 = 6;
    let compiler = Compiler::new();
    let cache = PlanCache::new();
    let start = Barrier::new(THREADS);
    let compiles = AtomicU64::new(0);

    thread::scope(|s| {
        for t in 0..THREADS {
            let (cache, compiler, start, compiles) = (&cache, &compiler, &start, &compiles);
            s.spawn(move || {
                start.wait();
                for i in 0..OPS {
                    // Interleave so every thread touches every config,
                    // hot (repeated) and cold (first toucher compiles).
                    let c = config(((t + i) as u64) % DISTINCT);
                    let key = plan_fingerprint(compiler, &c.spec, &c.topo, &c.mb);
                    cache
                        .get_or_compile_keyed(key, || {
                            compiles.fetch_add(1, Ordering::SeqCst);
                            compiler.compile_spec(&c.spec, &c.topo)
                        })
                        .expect("dispatch");
                }
            });
        }
    });

    // Byte-identical artifacts: whatever thread won each compile race,
    // the cached plan equals a fresh serial compile.
    for i in 0..DISTINCT {
        let c = config(i);
        let (cached, ev) = cache
            .get_or_compile_traced(&compiler, &c.spec, &c.topo, &c.mb)
            .expect("post-run dispatch");
        assert!(ev.is_hit(), "config {i} must be resident");
        let serial_plan = compiler.compile_spec(&c.spec, &c.topo).expect("serial");
        assert!(
            cached.semantic_eq(&serial_plan),
            "config {i}: cached plan diverged from serial compile"
        );
    }

    let total = (THREADS * OPS + DISTINCT as usize) as u64;
    let stats = cache.stats();
    assert_eq!(stats.hits + stats.misses, total);
    assert_eq!(stats.misses, DISTINCT, "one compile per distinct config");
    assert_eq!(
        stats.misses,
        compiles.load(Ordering::SeqCst),
        "every miss is exactly one compile-closure run"
    );
    assert_eq!(stats.entries as u64, DISTINCT);
    assert_eq!(
        stats.entries as u64,
        stats.misses + stats.inserts - stats.evictions
    );
    let journal = cache.journal();
    assert_eq!(journal.len(), total as usize);
    let mut seqs: Vec<u64> = journal.iter().map(|e| e.seq).collect();
    let sorted = seqs.windows(2).all(|w| w[0] < w[1]);
    assert!(sorted, "merged journal must be strictly seq-ordered");
    seqs.dedup();
    assert_eq!(seqs.len(), total as usize, "seq numbers must be unique");
}

/// The tearing regression: `stats()` snapshots taken *during* concurrent
/// dispatch must satisfy `entries == misses + inserts − evictions` —
/// each shard updates counters and entry accounting in one critical
/// section, and the identity is linear, so it survives summation. The
/// pre-PR cache bumped `misses` before inserting into the map under a
/// different lock, so a mid-dispatch snapshot could violate this.
#[test]
fn stats_snapshots_stay_coherent_during_dispatch() {
    const WRITERS: usize = 3;
    const OPS: usize = 24;
    let compiler = Compiler::new();
    let cache = PlanCache::new();
    let done = AtomicU64::new(0);
    let start = Barrier::new(WRITERS + 1);

    thread::scope(|s| {
        for t in 0..WRITERS {
            let (cache, compiler, done, start) = (&cache, &compiler, &done, &start);
            s.spawn(move || {
                start.wait();
                for i in 0..OPS {
                    let c = config(((t * OPS + i) as u64) % 8);
                    dispatch(cache, compiler, &c);
                }
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Sampler: hammer snapshots while the writers dispatch. It is
        // released with the writers and samples before the release and at
        // least once after it (do-while), so the check never depends on
        // the OS running this thread before the writers finish.
        let (cache, done, start) = (&cache, &done, &start);
        s.spawn(move || {
            let coherent = |st: CacheStats| {
                assert_eq!(
                    st.entries as u64,
                    st.misses + st.inserts - st.evictions,
                    "torn snapshot: {st:?}"
                );
            };
            coherent(cache.stats());
            start.wait();
            loop {
                let writing = done.load(Ordering::SeqCst) < WRITERS as u64;
                coherent(cache.stats());
                if !writing {
                    break;
                }
            }
        });
    });

    let st = cache.stats();
    assert_eq!(st.hits + st.misses, (WRITERS * OPS) as u64);
}

/// Bounded memory: a byte budget caps residency via LRU eviction, the
/// books count every eviction, and the entry being published — including
/// an explicitly inserted degraded plan a resuming watchdog is about to
/// dispatch — is never its own victim. (In-flight compiles cannot be
/// evicted at all: they are not resident until published.)
#[test]
fn byte_budget_evicts_lru_and_spares_fresh_inserts() {
    let compiler = Compiler::new();
    // 1-byte budget → every shard's slice is 0 → maximum pressure.
    let cache = PlanCache::new().with_byte_budget(1);
    for i in 0..10 {
        let c = config(i);
        let (_, ev) = cache
            .get_or_compile_traced(&compiler, &c.spec, &c.topo, &c.mb)
            .expect("dispatch");
        let key = plan_fingerprint(&compiler, &c.spec, &c.topo, &c.mb);
        assert!(!ev.is_hit());
        assert!(
            cache.contains(key),
            "a just-published plan must survive its own insert"
        );
    }
    let st = cache.stats();
    assert!(st.evictions > 0, "budget must have evicted: {st:?}");
    assert_eq!(
        st.entries as u64,
        st.misses + st.inserts - st.evictions,
        "eviction accounting out of balance: {st:?}"
    );

    // A degraded-plan insert under the same pressure: resident
    // immediately after, and journaled as an explicit insert (the pre-PR
    // cache silently bypassed the journal here).
    let c = config(99);
    let degraded = Arc::new(compiler.compile_spec(&c.spec, &c.topo).expect("compile"));
    let key = plan_fingerprint(&compiler, &c.spec, &c.topo, &c.mb);
    cache.insert(key, degraded);
    assert!(
        cache.contains(key),
        "fresh insert evicted out from under us"
    );
    let (_, ev) = cache
        .get_or_compile_traced(&compiler, &c.spec, &c.topo, &c.mb)
        .expect("dispatch of inserted plan");
    assert!(
        ev.is_hit(),
        "the inserted plan must serve the next dispatch"
    );
    assert!(cache
        .journal()
        .iter()
        .any(|e| e.kind == CacheEventKind::Insert && e.fingerprint == key));
}

/// A publish that lands while eviction pressure is active still wins: a
/// gated leader compiles while other traffic evicts everything, and its
/// artifact is resident and served once published.
#[test]
fn in_flight_compile_publishes_despite_eviction_pressure() {
    let compiler = Compiler::new();
    let cache = PlanCache::new().with_byte_budget(1);
    let c = config(0);
    let key = plan_fingerprint(&compiler, &c.spec, &c.topo, &c.mb);
    let entered = AtomicU64::new(0);
    let gate = Barrier::new(2);

    thread::scope(|s| {
        let leader = s.spawn(|| {
            cache
                .get_or_compile_keyed(key, || {
                    entered.fetch_add(1, Ordering::SeqCst);
                    gate.wait();
                    compiler.compile_spec(&c.spec, &c.topo)
                })
                .expect("leader")
        });
        while entered.load(Ordering::SeqCst) == 0 {
            thread::yield_now();
        }
        // While the compile is in flight, churn the cache hard.
        for i in 1..8 {
            let other = config(i);
            dispatch(&cache, &compiler, &other);
        }
        gate.wait();
        let (plan, _) = leader.join().expect("leader join");
        let (served, ev) = cache
            .get_or_compile_traced(&compiler, &c.spec, &c.topo, &c.mb)
            .expect("re-dispatch");
        assert!(ev.is_hit(), "published artifact must be resident");
        assert!(Arc::ptr_eq(&plan, &served));
    });
}

/// Zero journal capacity must never panic, resident plans and counters
/// must be unaffected, and every event must be counted as dropped — under
/// concurrency, not just serially.
#[test]
fn zero_capacity_journal_never_panics_under_concurrency() {
    const THREADS: usize = 4;
    const OPS: usize = 16;
    let compiler = Compiler::new();
    let cache = PlanCache::with_journal_capacity(0);
    let start = Barrier::new(THREADS);
    thread::scope(|s| {
        for t in 0..THREADS {
            let (cache, compiler, start) = (&cache, &compiler, &start);
            s.spawn(move || {
                start.wait();
                for i in 0..OPS {
                    let c = config(((t + i) as u64) % 3);
                    dispatch(cache, compiler, &c);
                }
            });
        }
    });
    assert_eq!(cache.journal_len(), 0);
    assert!(cache.journal().is_empty());
    assert_eq!(cache.dropped_events(), (THREADS * OPS) as u64);
    let st = cache.stats();
    assert_eq!(st.hits + st.misses, (THREADS * OPS) as u64);
}

/// Differential oracle: on serial traffic the sharded service and the
/// single-mutex reference agree on every counter and serve semantically
/// identical plans — sharding changes the concurrency envelope, not the
/// cache semantics.
#[test]
fn sharded_service_agrees_with_single_mutex_reference() {
    let compiler = Compiler::new();
    let sharded = PlanCache::new();
    let reference = SingleMutexPlanCache::new();
    for i in [0u64, 1, 2, 0, 1, 3, 0, 4, 2] {
        let c = config(i);
        let key = plan_fingerprint(&compiler, &c.spec, &c.topo, &c.mb);
        let (a, _) = sharded
            .get_or_compile_keyed(key, || compiler.compile_spec(&c.spec, &c.topo))
            .expect("sharded");
        let b = reference
            .get_or_compile_keyed(key, || compiler.compile_spec(&c.spec, &c.topo))
            .expect("reference");
        assert!(a.semantic_eq(&b), "config {i}: artifacts diverged");
    }
    let (s, r) = (sharded.stats(), reference.stats());
    assert_eq!((s.hits, s.misses, s.entries), (r.hits, r.misses, r.entries));
}
