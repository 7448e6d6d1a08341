//! Plan-cache behaviour of the [`Communicator`] dispatcher: warm calls
//! must not compile, and must return the same simulation result the cold
//! call produced.
//!
//! "Did not compile" is read from the cache's own `misses` counter, which
//! counts exactly the compile-closure runs of that cache (pinned by the
//! core plan-service suite), so the tests need no process-wide state and
//! run concurrently.

use rescc_backends::Communicator;
use rescc_core::PlanCache;
use rescc_topology::Topology;
use std::sync::{Arc, Barrier};

const MB: u64 = 1 << 20;

#[test]
fn warm_dispatch_skips_all_compile_phases() {
    let mut comm = Communicator::new(Topology::a100(2, 4));

    let cold = comm.all_reduce(64 * MB).unwrap();
    let cold_stats = cold.cache.expect("communicator reports cache stats");
    assert_eq!((cold_stats.hits, cold_stats.misses), (0, 1));

    let warm = comm.all_reduce(64 * MB).unwrap();
    let warm_stats = warm.cache.unwrap();
    assert_eq!(
        (warm_stats.hits, warm_stats.misses),
        (1, 1),
        "a warm dispatch must not compile"
    );
    assert_eq!(cold.sim, warm.sim, "cached run must match the cold run");
}

#[test]
fn distinct_configurations_miss_repeats_hit() {
    let mut comm = Communicator::new(Topology::a100(2, 4));
    comm.all_reduce(256 * MB).unwrap();
    comm.all_gather(256 * MB).unwrap();
    let rep = comm.all_reduce(256 * MB).unwrap();
    let stats = rep.cache.unwrap();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 2));
    assert_eq!(comm.cache_stats(), stats);
}

/// Multi-tenant dispatch: a plan compiled by one communicator serves
/// every other tenant of the shared cache, with no further compile.
#[test]
fn shared_cache_serves_across_communicators() {
    let service = Arc::new(PlanCache::new());
    let mut a = Communicator::new(Topology::a100(2, 4)).with_shared_cache(Arc::clone(&service));
    let mut b = Communicator::new(Topology::a100(2, 4)).with_shared_cache(Arc::clone(&service));
    let cold = a.all_reduce(64 * MB).unwrap();

    let warm = b.all_reduce(64 * MB).unwrap();
    assert_eq!(cold.sim, warm.sim);
    let stats = service.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.entries),
        (1, 1, 1),
        "tenant B must be served by tenant A's compile"
    );
    assert_eq!(a.cache_stats(), b.cache_stats());
}

/// Regression (pre-PR panic): with a zero-capacity journal, the
/// observability path used to read `journal().last().expect(...)` and
/// die. Attribution now rides on the event returned by the dispatch
/// itself, so an unjournaled cache still observes correctly.
#[test]
fn zero_capacity_journal_with_observability_does_not_panic() {
    let service = Arc::new(PlanCache::with_journal_capacity(0));
    let mut comm = Communicator::new(Topology::a100(2, 4))
        .with_shared_cache(Arc::clone(&service))
        .with_observability();
    let cold = comm.all_reduce(64 * MB).unwrap();
    let warm = comm.all_reduce(64 * MB).unwrap();
    let (cold_obs, warm_obs) = (cold.obs.unwrap(), warm.obs.unwrap());
    assert_eq!((cold_obs.cache_hits, cold_obs.cache_misses), (0, 1));
    assert_eq!((warm_obs.cache_hits, warm_obs.cache_misses), (1, 0));
    assert_eq!(service.journal_len(), 0);
    assert_eq!(service.dropped_events(), 2);
}

/// Regression (pre-PR misattribution): under a shared cache, each
/// tenant's observability must report *its own* dispatch outcome —
/// reading the shared journal's tail reports whichever tenant dispatched
/// last. Two threads race one configuration: together they must observe
/// exactly one miss (the single compile) and one hit/coalesced serve.
#[test]
fn concurrent_tenants_attribute_their_own_dispatch() {
    let service = Arc::new(PlanCache::new());
    let start = Barrier::new(2);
    let reports: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let service = Arc::clone(&service);
                let start = &start;
                s.spawn(move || {
                    let mut comm = Communicator::new(Topology::a100(2, 4))
                        .with_shared_cache(service)
                        .with_observability();
                    start.wait();
                    comm.all_reduce(64 * MB).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let obs: Vec<_> = reports.into_iter().map(|r| r.obs.unwrap()).collect();
    for o in &obs {
        assert_eq!(
            o.cache_hits + o.cache_misses,
            1,
            "each tenant observes exactly its own dispatch"
        );
    }
    let misses: u64 = obs.iter().map(|o| o.cache_misses).sum();
    let hits: u64 = obs.iter().map(|o| o.cache_hits).sum();
    assert_eq!((misses, hits), (1, 1));
    assert_eq!(
        service.stats().misses,
        1,
        "racing tenants must share one compile"
    );
}

#[test]
fn parallel_compilation_serves_identical_plans() {
    let mut serial = Communicator::new(Topology::a100(2, 4));
    let mut parallel = Communicator::new(Topology::a100(2, 4)).with_compile_threads(4);
    let a = serial.reduce_scatter(128 * MB).unwrap();
    let b = parallel.reduce_scatter(128 * MB).unwrap();
    assert_eq!(a.sim, b.sim);
    assert_eq!(a.total_tbs, b.total_tbs);
}
