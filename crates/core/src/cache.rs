//! Content-addressed, sharded, concurrency-safe cache of compiled plans —
//! the plan service behind every dispatcher.
//!
//! Compiling an algorithm is orders of magnitude slower than dispatching
//! it, and training loops issue the *same* collective (same algorithm,
//! same topology, same micro-batch shape) thousands of times — across
//! many streams and many communicators at once. [`PlanCache`] memoizes
//! [`CompiledPlan`]s behind a content fingerprint so only the first call
//! of each distinct configuration pays for Analysis, Scheduling and
//! Lowering; every subsequent call, from any thread, is a hash lookup
//! plus an `Arc` clone.
//!
//! Concurrency architecture (DESIGN.md §13):
//!
//! * **Sharding** — entries live in [`SHARD_COUNT`] independent shards
//!   selected by a mixed fingerprint, so dispatches of distinct plans
//!   touch distinct locks.
//! * **Read-mostly hit path** — each shard's map sits behind an
//!   `RwLock`; a hit takes only the *shared* lock (never exclusive), so
//!   concurrent warm dispatches of any number of threads proceed in
//!   parallel. Recency for eviction is stamped through an atomic on the
//!   entry, not by mutating the map.
//! * **Singleflight** — concurrent cold dispatches of the *same*
//!   fingerprint are deduplicated: the first thread compiles, the rest
//!   block on a shard-local in-flight table and are handed the leader's
//!   artifact. Exactly one miss is counted per actual compile; the
//!   waiters count as coalesced hits.
//! * **Bounded memory** — an optional byte budget
//!   ([`with_byte_budget`](PlanCache::with_byte_budget)) triggers
//!   cost-aware LRU eviction at insert time. Plans are charged by task /
//!   program size ([`plan_cost_bytes`]); the entry being inserted is
//!   never its own victim, so a just-inserted degraded plan survives for
//!   the watchdog that produced it.
//! * **Per-shard journal rings** — dispatch-order journaling is a
//!   bounded ring per shard; [`journal`](PlanCache::journal) merges the
//!   rings by globally-assigned `seq`, so concurrent dispatches stay
//!   attributable and ordered.
//!
//! The fingerprint covers everything the compiled artifact depends on:
//!
//! * the full algorithm spec (name, operator, ranks, chunks, and every
//!   transfer tuple),
//! * the topology (name, cluster shape, all fabric cost parameters, and
//!   the health mask — a plan compiled around a dead link must never alias
//!   the healthy plan),
//! * the micro-batch plan *shape* (logical chunks, per-invocation chunk
//!   bytes, invocation count) — buffer sizes that produce the same shape
//!   share an entry,
//! * the compiler options that change output (scheduler choice and the
//!   verify flag). The thread count is deliberately excluded: parallel
//!   compilation is bit-identical to serial, so it must not split entries.
//!
//! Anything that changes one of these — a different chunking, another
//! topology, a tweaked fabric parameter — changes the key and misses.

use crate::{CompiledPlan, Compiler, LintGate, SchedulerChoice};
use rescc_ir::MicroBatchPlan;
use rescc_lang::{AlgoSpec, CommType, OpType};
use rescc_sim::SimResult;
use rescc_topology::{LinkParams, Topology};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

/// Journal entries retained **per shard** by default. Long-running
/// training loops dispatch millions of times; the journal exists for
/// observability tails, not full history, so each shard's ring is bounded
/// and drops its oldest entries first.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 4096;

/// Number of cache shards (fixed, power of two). Dispatches of distinct
/// fingerprints land on independent locks with probability
/// `1 − 1/SHARD_COUNT`.
pub const SHARD_COUNT: usize = 16;

/// Snapshot of a cache's counters.
///
/// Each shard updates its counters and its entry/byte accounting inside
/// one critical section, so a snapshot is **coherent per shard**: the
/// identity `entries == misses + inserts − evictions` holds exactly for
/// every shard's contribution (eviction counts cover budget evictions,
/// replacements, and [`clear`](PlanCache::clear)). Across shards the
/// snapshot is a sum of per-shard snapshots taken in shard order — each
/// internally consistent, mutually skewed by at most the dispatches that
/// landed between the reads. Because the identity is linear, it holds for
/// the summed snapshot too.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Dispatches served from the cache (includes `coalesced`).
    pub hits: u64,
    /// Dispatches that actually compiled. With singleflight dedup this
    /// counts *compiles*, not cold arrivals: concurrent requesters of an
    /// in-flight fingerprint land in `coalesced`, not here.
    pub misses: u64,
    /// The subset of `hits` that were served by waiting on another
    /// thread's in-flight compile of the same fingerprint.
    pub coalesced: u64,
    /// Plans installed via [`PlanCache::insert`] (degraded-plan inserts
    /// from watchdog recovery; includes replacements of existing keys).
    pub inserts: u64,
    /// Distinct plans currently cached.
    pub entries: usize,
    /// Entries removed: cost-budget LRU evictions, replacements of an
    /// existing key, and entries dropped by [`PlanCache::clear`].
    pub evictions: u64,
    /// Estimated bytes currently charged to resident plans
    /// ([`plan_cost_bytes`]).
    pub resident_bytes: u64,
}

impl CacheStats {
    /// Fraction of dispatches served from the cache (0 when empty).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// What a journaled cache event records about its dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheEventKind {
    /// Served from the resident map on the shared-lock fast path.
    Hit,
    /// This dispatch compiled and published the plan.
    Miss,
    /// Served by waiting on another dispatch's in-flight compile of the
    /// same fingerprint (singleflight).
    Coalesced,
    /// A plan was installed or replaced via [`PlanCache::insert`] —
    /// e.g. a degraded plan from watchdog recovery. Not a dispatch.
    Insert,
}

/// One recorded cache event, in dispatch order.
///
/// The journal is the cache's event log for observability consumers: a
/// deterministic record of which fingerprints were dispatched (or
/// explicitly inserted) and whether each dispatch compiled, independent
/// of wall-clock timing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheEvent {
    /// Position in global dispatch order (0-based; assigned from one
    /// cache-wide counter inside the owning shard's critical section, so
    /// concurrent dispatches get distinct numbers and each shard's ring
    /// is seq-sorted).
    pub seq: u64,
    /// The plan fingerprint that was looked up or inserted.
    pub fingerprint: u64,
    /// How the event was served.
    pub kind: CacheEventKind,
}

impl CacheEvent {
    /// Whether the dispatch was served without compiling (a map hit or a
    /// coalesced wait on another thread's compile).
    pub fn is_hit(&self) -> bool {
        matches!(self.kind, CacheEventKind::Hit | CacheEventKind::Coalesced)
    }
}

/// A resident entry: the plan, its byte charge, and an atomically
/// stamped recency so the hit path never needs the exclusive map lock.
#[derive(Debug)]
struct CacheSlot {
    plan: Arc<CompiledPlan>,
    cost: u64,
    last_used: AtomicU64,
}

/// Rendezvous for one in-flight compile: the leader fills `done` and
/// notifies; followers wait. Shared out of the shard's in-flight table.
#[derive(Debug, Default)]
struct Inflight {
    done: Mutex<Option<SimResult<Arc<CompiledPlan>>>>,
    cv: Condvar,
}

impl Inflight {
    fn wait(&self) -> SimResult<Arc<CompiledPlan>> {
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        while done.is_none() {
            done = self.cv.wait(done).unwrap_or_else(|e| e.into_inner());
        }
        done.as_ref().expect("filled").clone()
    }

    fn fill(&self, result: SimResult<Arc<CompiledPlan>>) {
        *self.done.lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
        self.cv.notify_all();
    }
}

/// Counters, entry accounting, and the journal ring of one shard — all
/// mutated under one mutex so snapshots cannot tear (the satellite bug
/// this replaces: hits/misses atomics and `map.len()` were read under no
/// common lock).
#[derive(Debug)]
struct ShardState {
    hits: u64,
    misses: u64,
    coalesced: u64,
    inserts: u64,
    evictions: u64,
    entries: usize,
    resident_bytes: u64,
    ring: VecDeque<CacheEvent>,
    capacity: usize,
    dropped: u64,
}

impl ShardState {
    fn new(capacity: usize) -> Self {
        Self {
            hits: 0,
            misses: 0,
            coalesced: 0,
            inserts: 0,
            evictions: 0,
            entries: 0,
            resident_bytes: 0,
            ring: VecDeque::new(),
            capacity,
            dropped: 0,
        }
    }

    fn record(&mut self, ev: CacheEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev);
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            coalesced: self.coalesced,
            inserts: self.inserts,
            entries: self.entries,
            evictions: self.evictions,
            resident_bytes: self.resident_bytes,
        }
    }
}

#[derive(Debug)]
struct Shard {
    map: RwLock<HashMap<u64, CacheSlot>>,
    state: Mutex<ShardState>,
    inflight: Mutex<HashMap<u64, Arc<Inflight>>>,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Self {
            map: RwLock::new(HashMap::new()),
            state: Mutex::new(ShardState::new(capacity)),
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// Lock order: `map` may be acquired while holding `inflight`;
    /// `state` may be acquired while holding `map`; nothing is acquired
    /// while holding `state`. All three recover from poisoning — entries
    /// are only ever whole values written inside a critical section, so
    /// inheriting the structures is always safe.
    fn state(&self) -> std::sync::MutexGuard<'_, ShardState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn read_map(&self) -> std::sync::RwLockReadGuard<'_, HashMap<u64, CacheSlot>> {
        self.map.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_map(&self) -> std::sync::RwLockWriteGuard<'_, HashMap<u64, CacheSlot>> {
        self.map.write().unwrap_or_else(|e| e.into_inner())
    }
}

/// A thread-safe, sharded memo table from plan fingerprints to compiled
/// plans, with singleflight compile dedup and optional cost-bounded LRU
/// eviction. Designed to be shared: wrap it in an `Arc` and hand it to
/// any number of dispatching threads or `Communicator`s.
///
/// ```
/// use rescc_core::{Compiler, PlanCache};
/// use rescc_ir::MicroBatchPlan;
/// use rescc_topology::Topology;
/// use rescc_algos::hm_allreduce;
///
/// let cache = PlanCache::new();
/// let compiler = Compiler::new();
/// let topo = Topology::a100(2, 4);
/// let spec = hm_allreduce(2, 4);
/// let mb = MicroBatchPlan::plan(64 << 20, spec.n_chunks(), 1 << 20);
/// let first = cache.get_or_compile(&compiler, &spec, &topo, &mb).unwrap();
/// let second = cache.get_or_compile(&compiler, &spec, &topo, &mb).unwrap();
/// assert!(std::sync::Arc::ptr_eq(&first, &second));
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// ```
#[derive(Debug)]
pub struct PlanCache {
    shards: Vec<Shard>,
    /// Global dispatch-order sequence, shared by every shard's journal.
    next_seq: AtomicU64,
    /// Global recency clock for LRU stamps (bumped on every hit/insert).
    clock: AtomicU64,
    /// Total byte budget, split evenly across shards; `None` = unbounded.
    byte_budget: Option<u64>,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::with_journal_capacity(DEFAULT_JOURNAL_CAPACITY)
    }
}

impl PlanCache {
    /// An empty cache with the default per-shard journal capacity
    /// ([`DEFAULT_JOURNAL_CAPACITY`]) and unbounded memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache retaining at most `capacity` journal events per
    /// shard (0 disables journaling entirely; every event counts as
    /// dropped). Total retention is at most `SHARD_COUNT × capacity`;
    /// each shard's stream is individually contiguous, so after merging,
    /// a gap in `seq` marks events another shard (or this one) shed.
    pub fn with_journal_capacity(capacity: usize) -> Self {
        Self {
            shards: (0..SHARD_COUNT).map(|_| Shard::new(capacity)).collect(),
            next_seq: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            byte_budget: None,
        }
    }

    /// Bound resident plan memory to roughly `bytes` (charged via
    /// [`plan_cost_bytes`], split evenly across shards). When a shard
    /// overflows its slice of the budget, least-recently-used entries are
    /// evicted at insert time — never the entry being inserted, so a
    /// just-published plan (e.g. a degraded plan a resuming watchdog is
    /// about to dispatch) always survives its own insert even if it alone
    /// exceeds the budget.
    pub fn with_byte_budget(mut self, bytes: u64) -> Self {
        self.byte_budget = Some(bytes);
        self
    }

    /// The configured byte budget, if any.
    pub fn byte_budget(&self) -> Option<u64> {
        self.byte_budget
    }

    fn shard_budget(&self) -> Option<u64> {
        self.byte_budget.map(|b| b / SHARD_COUNT as u64)
    }

    fn shard(&self, fingerprint: u64) -> &Shard {
        // Fibonacci mix, then take the top bits: FNV's low bits carry the
        // last-hashed bytes' structure, the mixed high bits do not.
        let mixed = fingerprint.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(mixed >> 60) as usize & (SHARD_COUNT - 1)]
    }

    fn stamp(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Shared-lock lookup: returns the plan and stamps recency without
    /// ever taking an exclusive lock.
    fn try_hit(&self, shard: &Shard, fingerprint: u64) -> Option<Arc<CompiledPlan>> {
        let map = shard.read_map();
        map.get(&fingerprint).map(|slot| {
            slot.last_used.store(self.stamp(), Ordering::Relaxed);
            Arc::clone(&slot.plan)
        })
    }

    /// Count and journal a served dispatch on its shard.
    fn record_served(&self, shard: &Shard, fingerprint: u64, kind: CacheEventKind) -> CacheEvent {
        let mut st = shard.state();
        match kind {
            CacheEventKind::Hit => st.hits += 1,
            CacheEventKind::Coalesced => {
                st.hits += 1;
                st.coalesced += 1;
            }
            CacheEventKind::Miss | CacheEventKind::Insert => {
                unreachable!("publishes go through publish()")
            }
        }
        let ev = CacheEvent {
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
            fingerprint,
            kind,
        };
        st.record(ev);
        ev
    }

    /// Install `plan` under `fingerprint`, evict over budget, and update
    /// counters + journal in one coherent critical section. `kind` is
    /// [`CacheEventKind::Miss`] for a compile publish,
    /// [`CacheEventKind::Insert`] for an explicit insert.
    fn publish(
        &self,
        shard: &Shard,
        fingerprint: u64,
        plan: Arc<CompiledPlan>,
        kind: CacheEventKind,
    ) -> CacheEvent {
        let cost = plan_cost_bytes(&plan);
        let mut map = shard.write_map();
        let replaced = map.insert(
            fingerprint,
            CacheSlot {
                plan,
                cost,
                last_used: AtomicU64::new(self.stamp()),
            },
        );
        let mut evicted = Vec::new();
        if let Some(budget) = self.shard_budget() {
            let mut total: u64 = map.values().map(|s| s.cost).sum();
            while total > budget && map.len() > 1 {
                // Cost-aware LRU: evict the stalest entry that is not the
                // one just inserted. Ties break on the fingerprint so
                // replays evict deterministically.
                let victim = map
                    .iter()
                    .filter(|(k, _)| **k != fingerprint)
                    .map(|(k, s)| (s.last_used.load(Ordering::Relaxed), *k))
                    .min();
                match victim {
                    Some((_, k)) => {
                        let slot = map.remove(&k).expect("victim came from this map");
                        total -= slot.cost;
                        evicted.push(slot.cost);
                    }
                    None => break,
                }
            }
        }
        // State updates while still holding the map write lock: entry
        // count, byte charge, and counters move together.
        let mut st = shard.state();
        match kind {
            CacheEventKind::Miss => st.misses += 1,
            CacheEventKind::Insert => st.inserts += 1,
            _ => unreachable!("serves go through record_served()"),
        }
        if let Some(old) = replaced {
            st.evictions += 1;
            st.resident_bytes -= old.cost;
        } else {
            st.entries += 1;
        }
        st.resident_bytes += cost;
        for c in &evicted {
            st.evictions += 1;
            st.entries -= 1;
            st.resident_bytes -= c;
        }
        debug_assert_eq!(st.entries, map.len());
        let ev = CacheEvent {
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
            fingerprint,
            kind,
        };
        st.record(ev);
        ev
    }

    /// Return the cached plan for this configuration, compiling (and
    /// caching) it on first sight. See
    /// [`get_or_compile_traced`](Self::get_or_compile_traced) for the
    /// variant that also returns this dispatch's journal event.
    pub fn get_or_compile(
        &self,
        compiler: &Compiler,
        spec: &AlgoSpec,
        topo: &Topology,
        mb: &MicroBatchPlan,
    ) -> SimResult<Arc<CompiledPlan>> {
        self.get_or_compile_traced(compiler, spec, topo, mb)
            .map(|(plan, _)| plan)
    }

    /// [`get_or_compile`](Self::get_or_compile), additionally returning
    /// the [`CacheEvent`] journaled for **this** dispatch — the handle an
    /// observability consumer needs to attribute its own dispatch without
    /// reading the shared journal (whose tail belongs to whichever thread
    /// dispatched last).
    pub fn get_or_compile_traced(
        &self,
        compiler: &Compiler,
        spec: &AlgoSpec,
        topo: &Topology,
        mb: &MicroBatchPlan,
    ) -> SimResult<(Arc<CompiledPlan>, CacheEvent)> {
        let key = plan_fingerprint(compiler, spec, topo, mb);
        self.get_or_compile_keyed(key, || compiler.compile_spec(spec, topo))
    }

    /// The service fast path: dispatch by a precomputed fingerprint.
    ///
    /// `fingerprint` must come from [`plan_fingerprint`] for the
    /// configuration `compile` builds — callers that dispatch the same
    /// shape repeatedly (a training loop, a communicator) compute it once
    /// and skip re-hashing the spec on every call. `compile` runs at most
    /// once across all concurrent callers of this fingerprint
    /// (singleflight): the leader compiles with no cache lock held,
    /// concurrent requesters block on the shard's in-flight table and
    /// are handed the leader's artifact as [`CacheEventKind::Coalesced`]
    /// hits. A failed compile is propagated to every waiter and cached
    /// nowhere, so the next dispatch retries.
    pub fn get_or_compile_keyed(
        &self,
        fingerprint: u64,
        compile: impl FnOnce() -> SimResult<CompiledPlan>,
    ) -> SimResult<(Arc<CompiledPlan>, CacheEvent)> {
        let shard = self.shard(fingerprint);
        if let Some(plan) = self.try_hit(shard, fingerprint) {
            let ev = self.record_served(shard, fingerprint, CacheEventKind::Hit);
            return Ok((plan, ev));
        }

        enum Role {
            Leader(Arc<Inflight>),
            Follower(Arc<Inflight>),
            Hit(Arc<CompiledPlan>),
        }
        let role = {
            let mut inflight = shard.inflight.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(slot) = inflight.get(&fingerprint) {
                Role::Follower(Arc::clone(slot))
            } else if let Some(plan) = self.try_hit(shard, fingerprint) {
                // Published between our fast-path miss and taking the
                // in-flight lock: a plain hit after all.
                Role::Hit(plan)
            } else {
                let slot = Arc::new(Inflight::default());
                inflight.insert(fingerprint, Arc::clone(&slot));
                Role::Leader(slot)
            }
        };

        match role {
            Role::Hit(plan) => {
                let ev = self.record_served(shard, fingerprint, CacheEventKind::Hit);
                Ok((plan, ev))
            }
            Role::Follower(slot) => {
                let plan = slot.wait()?;
                let ev = self.record_served(shard, fingerprint, CacheEventKind::Coalesced);
                Ok((plan, ev))
            }
            Role::Leader(slot) => {
                // Ensure the in-flight entry never outlives this call:
                // if `compile` panics, waiters are released with an error
                // and the next dispatch elects a fresh leader instead of
                // blocking forever.
                struct Unpark<'a> {
                    shard: &'a Shard,
                    fingerprint: u64,
                    slot: &'a Inflight,
                    result: Option<SimResult<Arc<CompiledPlan>>>,
                }
                impl Drop for Unpark<'_> {
                    fn drop(&mut self) {
                        self.slot.fill(self.result.take().unwrap_or_else(|| {
                            Err(rescc_sim::SimError::new(
                                "plan cache: in-flight compile panicked",
                            ))
                        }));
                        self.shard
                            .inflight
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .remove(&self.fingerprint);
                    }
                }
                let mut unpark = Unpark {
                    shard,
                    fingerprint,
                    slot: &slot,
                    result: None,
                };
                // Compile with no cache lock held: cold compiles of
                // *distinct* fingerprints run fully in parallel.
                match compile() {
                    Ok(plan) => {
                        let plan = Arc::new(plan);
                        let ev = self.publish(
                            shard,
                            fingerprint,
                            Arc::clone(&plan),
                            CacheEventKind::Miss,
                        );
                        unpark.result = Some(Ok(Arc::clone(&plan)));
                        drop(unpark);
                        Ok((plan, ev))
                    }
                    Err(e) => {
                        unpark.result = Some(Err(e.clone()));
                        drop(unpark);
                        Err(e)
                    }
                }
            }
        }
    }

    /// Insert a plan compiled outside the cache — e.g. a delta-recompiled
    /// plan for a degraded topology (see `Compiler::recompile_delta`) —
    /// under its [`plan_fingerprint`] key, so later dispatches against the
    /// same degraded configuration hit. Replaces any existing entry, and
    /// journals a [`CacheEventKind::Insert`] event: explicit inserts are
    /// part of the deterministic record of which fingerprints were made
    /// dispatchable, exactly like misses.
    pub fn insert(&self, fingerprint: u64, plan: Arc<CompiledPlan>) {
        let shard = self.shard(fingerprint);
        self.publish(shard, fingerprint, plan, CacheEventKind::Insert);
    }

    /// Whether a plan is currently resident for `fingerprint` (no journal
    /// event, no recency bump — a diagnostic peek).
    pub fn contains(&self, fingerprint: u64) -> bool {
        self.shard(fingerprint)
            .read_map()
            .contains_key(&fingerprint)
    }

    /// Snapshot of the *retained* dispatch journal, merged across shards
    /// and sorted by global `seq` (one [`CacheEvent`] per
    /// [`get_or_compile`](Self::get_or_compile) call or
    /// [`insert`](Self::insert)). Each shard keeps a bounded ring of its
    /// own most recent events; when more than a ring's capacity landed on
    /// one shard, that shard's oldest events are gone — `seq` numbers
    /// stay globally unique and ordered, so drops appear as gaps.
    pub fn journal(&self) -> Vec<CacheEvent> {
        let mut out: Vec<CacheEvent> = self
            .shards
            .iter()
            .flat_map(|s| s.state().ring.iter().copied().collect::<Vec<_>>())
            .collect();
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Number of journal events currently retained across all shards
    /// (cheaper than cloning the journal).
    pub fn journal_len(&self) -> usize {
        self.shards.iter().map(|s| s.state().ring.len()).sum()
    }

    /// Journal events shed to the bounded per-shard rings so far. Total
    /// events ever journaled = `dropped_events() + journal_len()`.
    pub fn dropped_events(&self) -> u64 {
        self.shards.iter().map(|s| s.state().dropped).sum()
    }

    /// Counter snapshot — coherent per shard, summed across shards (see
    /// [`CacheStats`] for the exact guarantee).
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let s = shard.state().stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.coalesced += s.coalesced;
            total.inserts += s.inserts;
            total.entries += s.entries;
            total.evictions += s.evictions;
            total.resident_bytes += s.resident_bytes;
        }
        total
    }

    /// Drop every cached plan. Hit/miss counters and the journal are
    /// kept; the dropped entries are counted as evictions so the
    /// [`CacheStats`] identity keeps holding.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut map = shard.write_map();
            let mut st = shard.state();
            st.evictions += map.len() as u64;
            st.entries = 0;
            st.resident_bytes = 0;
            map.clear();
        }
    }
}

/// Estimated resident cost of a compiled plan, in bytes — the charge
/// [`PlanCache::with_byte_budget`] evicts against. A deterministic
/// size-model (tasks, kernel slots, spec transfers, fixed overhead)
/// rather than a true allocator measurement, so budgets behave
/// identically across platforms and replays.
pub fn plan_cost_bytes(plan: &CompiledPlan) -> u64 {
    let tasks = plan.dag.len() as u64;
    let slots = plan.program.total_slots() as u64;
    let transfers = plan.spec.transfers().len() as u64;
    4096 + tasks * 160 + slots * 48 + transfers * 24
}

/// The pre-sharding cache: one mutex around one map, kept verbatim as the
/// **reference oracle** for the `plan-service` benchmark (BENCH_service.
/// json compares the sharded hit path against this under contention) and
/// for differential tests. Faithfully preserves the old concurrency
/// behavior, bugs included: concurrent cold dispatches of the same
/// fingerprint each compile ("last insert wins") and each count a miss.
/// Do not use in new code — this is a measurement baseline.
#[derive(Debug, Default)]
pub struct SingleMutexPlanCache {
    map: Mutex<HashMap<u64, Arc<CompiledPlan>>>,
    journal: Mutex<VecDeque<CacheEvent>>,
    hits: AtomicU64,
    misses: AtomicU64,
    next_seq: AtomicU64,
}

impl SingleMutexPlanCache {
    /// An empty reference cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Old-architecture dispatch by precomputed fingerprint: exclusive
    /// map lock on every lookup, duplicate concurrent compiles of one
    /// fingerprint, last insert wins.
    pub fn get_or_compile_keyed(
        &self,
        fingerprint: u64,
        compile: impl FnOnce() -> SimResult<CompiledPlan>,
    ) -> SimResult<Arc<CompiledPlan>> {
        if let Some(hit) = self
            .map
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&fingerprint)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.record(fingerprint, CacheEventKind::Hit);
            return Ok(Arc::clone(hit));
        }
        let compiled = Arc::new(compile()?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.map
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(fingerprint, Arc::clone(&compiled));
        self.record(fingerprint, CacheEventKind::Miss);
        Ok(compiled)
    }

    /// Old-architecture full dispatch (fingerprint computed per call).
    pub fn get_or_compile(
        &self,
        compiler: &Compiler,
        spec: &AlgoSpec,
        topo: &Topology,
        mb: &MicroBatchPlan,
    ) -> SimResult<Arc<CompiledPlan>> {
        let key = plan_fingerprint(compiler, spec, topo, mb);
        self.get_or_compile_keyed(key, || compiler.compile_spec(spec, topo))
    }

    fn record(&self, fingerprint: u64, kind: CacheEventKind) {
        let mut journal = self.journal.lock().unwrap_or_else(|e| e.into_inner());
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        if journal.len() == DEFAULT_JOURNAL_CAPACITY {
            journal.pop_front();
        }
        journal.push_back(CacheEvent {
            seq,
            fingerprint,
            kind,
        });
    }

    /// Counter snapshot in the shared [`CacheStats`] shape (the fields
    /// the old cache never had stay zero). Subject to the tearing the
    /// sharded cache fixed: hits/misses/entries are read under no common
    /// lock.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.map.lock().unwrap_or_else(|e| e.into_inner()).len(),
            ..CacheStats::default()
        }
    }
}

/// The content fingerprint keying [`PlanCache`] entries (FNV-1a, 64-bit).
pub fn plan_fingerprint(
    compiler: &Compiler,
    spec: &AlgoSpec,
    topo: &Topology,
    mb: &MicroBatchPlan,
) -> u64 {
    let mut h = Fnv::new();

    // Compiler options that change the artifact.
    h.u32(match compiler.scheduler {
        SchedulerChoice::Hpds => 0,
        SchedulerChoice::RoundRobin => 1,
    });
    h.u32(compiler.verify as u32);
    // The lint gate changes whether a plan exists at all (deny) and what
    // diagnostics ride on it, so gated and ungated plans must not alias.
    h.u32(match compiler.lint_gate {
        LintGate::Off => 0,
        LintGate::Warn => 1,
        LintGate::Deny => 2,
    });
    h.u32(compiler.lint_config.tb_budget_per_rank);

    // Algorithm spec.
    h.str(spec.name());
    h.u32(match spec.op() {
        OpType::AllGather => 0,
        OpType::AllReduce => 1,
        OpType::ReduceScatter => 2,
    });
    h.u32(spec.n_ranks());
    h.u32(spec.n_chunks());
    h.u64(spec.transfers().len() as u64);
    for t in spec.transfers() {
        h.u32(t.src.0);
        h.u32(t.dst.0);
        h.u32(t.step.0);
        h.u32(t.chunk.0);
        h.u32(match t.comm {
            CommType::Recv => 0,
            CommType::Rrc => 1,
        });
    }

    // Topology: shape and every fabric cost parameter.
    h.str(topo.name());
    let s = topo.spec();
    h.u32(s.n_nodes);
    h.u32(s.gpus_per_node);
    h.u32(s.nics_per_node);
    let f = topo.fabric();
    for link in [&f.intra, &f.port, &f.inter] {
        h.link(link);
    }
    h.f64(f.cross_rack_extra_ns);
    h.u32(f.servers_per_rack);
    // Health mask: recompiling around a dead resource must produce a
    // distinct entry.
    h.u64(topo.health().dead().len() as u64);
    for r in topo.health().dead() {
        h.u32(r.0);
    }

    // Micro-batch plan shape (not the raw buffer size: two buffers with
    // the same chunking and invocation count share a plan).
    h.u32(mb.n_chunks);
    h.u64(mb.chunk_bytes);
    h.u32(mb.n_micro_batches);

    h.finish()
}

/// Incremental FNV-1a (64-bit).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn link(&mut self, l: &LinkParams) {
        self.f64(l.alpha_ns);
        self.f64(l.beta_ns_per_byte);
        self.f64(l.gamma_ns);
        self.f64(l.tb_bw_bytes_per_ns);
        self.u32(l.saturation_tbs);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescc_algos::{hm_allgather, hm_allreduce};

    fn mb(buffer: u64, chunks: u32) -> MicroBatchPlan {
        MicroBatchPlan::plan(buffer, chunks, 1 << 20)
    }

    #[test]
    fn identical_configuration_hits() {
        let cache = PlanCache::new();
        let compiler = Compiler::new();
        let topo = Topology::a100(2, 4);
        let spec = hm_allreduce(2, 4);
        let plan = mb(64 << 20, spec.n_chunks());
        let a = cache
            .get_or_compile(&compiler, &spec, &topo, &plan)
            .unwrap();
        let b = cache
            .get_or_compile(&compiler, &spec, &topo, &plan)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!((stats.coalesced, stats.inserts, stats.evictions), (0, 0, 0));
        assert_eq!(stats.resident_bytes, plan_cost_bytes(&a));
    }

    #[test]
    fn changed_chunking_misses() {
        let cache = PlanCache::new();
        let compiler = Compiler::new();
        let topo = Topology::a100(2, 4);
        let spec = hm_allreduce(2, 4);
        let coarse = MicroBatchPlan::plan(64 << 20, spec.n_chunks(), 1 << 20);
        let fine = MicroBatchPlan::plan(64 << 20, spec.n_chunks(), 512 << 10);
        cache
            .get_or_compile(&compiler, &spec, &topo, &coarse)
            .unwrap();
        cache
            .get_or_compile(&compiler, &spec, &topo, &fine)
            .unwrap();
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn changed_topology_or_algorithm_misses() {
        let cache = PlanCache::new();
        let compiler = Compiler::new();
        let ar = hm_allreduce(2, 4);
        let plan = mb(64 << 20, ar.n_chunks());
        cache
            .get_or_compile(&compiler, &ar, &Topology::a100(2, 4), &plan)
            .unwrap();
        // Same shape, different fabric.
        cache
            .get_or_compile(&compiler, &ar, &Topology::v100(2, 4), &plan)
            .unwrap();
        // Same topology, different algorithm.
        let ag = hm_allgather(2, 4);
        let plan_ag = mb(64 << 20, ag.n_chunks());
        cache
            .get_or_compile(&compiler, &ag, &Topology::a100(2, 4), &plan_ag)
            .unwrap();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 3, 3));
    }

    #[test]
    fn masked_topology_fingerprints_distinctly() {
        use rescc_topology::{Rank, TopologyHealth};
        let spec = hm_allreduce(2, 4);
        let plan = mb(64 << 20, spec.n_chunks());
        let compiler = Compiler::new();
        let healthy = Topology::a100(2, 4);
        let chan = healthy.pair_chan(Rank::new(0), Rank::new(1));
        let mut mask = TopologyHealth::healthy();
        mask.mask(chan);
        let degraded = Topology::a100(2, 4).with_health(mask);
        assert_ne!(
            plan_fingerprint(&compiler, &spec, &healthy, &plan),
            plan_fingerprint(&compiler, &spec, &degraded, &plan)
        );
        // An explicit empty mask is the healthy fingerprint.
        let empty = Topology::a100(2, 4).with_health(TopologyHealth::healthy());
        assert_eq!(
            plan_fingerprint(&compiler, &spec, &healthy, &plan),
            plan_fingerprint(&compiler, &spec, &empty, &plan)
        );
    }

    #[test]
    fn journal_records_dispatches_in_order() {
        let cache = PlanCache::new();
        let compiler = Compiler::new();
        let topo = Topology::a100(2, 4);
        let spec = hm_allreduce(2, 4);
        let plan = mb(64 << 20, spec.n_chunks());
        assert_eq!(cache.journal_len(), 0);
        cache
            .get_or_compile(&compiler, &spec, &topo, &plan)
            .unwrap();
        cache
            .get_or_compile(&compiler, &spec, &topo, &plan)
            .unwrap();
        let journal = cache.journal();
        assert_eq!(journal.len(), 2);
        let fp = plan_fingerprint(&compiler, &spec, &topo, &plan);
        assert_eq!(
            journal[0],
            CacheEvent {
                seq: 0,
                fingerprint: fp,
                kind: CacheEventKind::Miss
            }
        );
        assert_eq!(
            journal[1],
            CacheEvent {
                seq: 1,
                fingerprint: fp,
                kind: CacheEventKind::Hit
            }
        );
        assert!(!journal[0].is_hit());
        assert!(journal[1].is_hit());
    }

    #[test]
    fn journal_is_a_bounded_ring() {
        let cache = PlanCache::with_journal_capacity(3);
        let compiler = Compiler::new();
        let topo = Topology::a100(1, 4);
        let spec = hm_allreduce(1, 4);
        let plan = mb(16 << 20, spec.n_chunks());
        for _ in 0..5 {
            cache
                .get_or_compile(&compiler, &spec, &topo, &plan)
                .unwrap();
        }
        // One fingerprint → one shard → its ring behaves exactly like the
        // old global ring.
        assert_eq!(cache.journal_len(), 3, "ring must stay at capacity");
        assert_eq!(cache.dropped_events(), 2);
        let journal = cache.journal();
        // Oldest retained first, globally consecutive seq numbers, and the
        // gap before the first retained event equals the drop count.
        assert_eq!(
            journal.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(journal[0].seq, cache.dropped_events());
        // Stats are unaffected by journal truncation.
        assert_eq!(cache.stats().hits, 4);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn zero_capacity_journal_drops_everything() {
        let cache = PlanCache::with_journal_capacity(0);
        let compiler = Compiler::new();
        let topo = Topology::a100(1, 4);
        let spec = hm_allreduce(1, 4);
        let plan = mb(16 << 20, spec.n_chunks());
        cache
            .get_or_compile(&compiler, &spec, &topo, &plan)
            .unwrap();
        assert_eq!(cache.journal_len(), 0);
        assert!(cache.journal().is_empty());
        assert_eq!(cache.dropped_events(), 1);
    }

    #[test]
    fn inserted_plan_is_served_on_next_dispatch_and_journaled() {
        let cache = PlanCache::new();
        let compiler = Compiler::new();
        let topo = Topology::a100(2, 4);
        let spec = hm_allreduce(2, 4);
        let plan = mb(64 << 20, spec.n_chunks());
        let compiled = Arc::new(compiler.compile_spec(&spec, &topo).unwrap());
        let fp = plan_fingerprint(&compiler, &spec, &topo, &plan);
        cache.insert(fp, Arc::clone(&compiled));
        let served = cache
            .get_or_compile(&compiler, &spec, &topo, &plan)
            .unwrap();
        assert!(Arc::ptr_eq(&served, &compiled));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 0, 1));
        // The explicit insert is part of the dispatch record (the old
        // cache silently bypassed the journal here).
        let journal = cache.journal();
        assert_eq!(journal.len(), 2);
        assert_eq!(journal[0].kind, CacheEventKind::Insert);
        assert_eq!(journal[0].fingerprint, fp);
        assert_eq!(journal[1].kind, CacheEventKind::Hit);
        // Replacing the entry journals another insert and counts the
        // displaced entry as evicted, keeping the stats identity.
        cache.insert(fp, Arc::clone(&compiled));
        let stats = cache.stats();
        assert_eq!((stats.inserts, stats.evictions, stats.entries), (2, 1, 1));
        assert_eq!(
            stats.entries as u64,
            stats.misses + stats.inserts - stats.evictions
        );
    }

    #[test]
    fn fingerprint_ignores_thread_count() {
        let topo = Topology::a100(2, 4);
        let spec = hm_allreduce(2, 4);
        let plan = mb(64 << 20, spec.n_chunks());
        let serial = Compiler::new();
        let parallel = Compiler::new().with_threads(8);
        assert_eq!(
            plan_fingerprint(&serial, &spec, &topo, &plan),
            plan_fingerprint(&parallel, &spec, &topo, &plan)
        );
    }

    #[test]
    fn byte_budget_evicts_lru_but_never_the_newest_entry() {
        // Budget of 1 byte total → every shard's slice rounds to 0, so
        // each publish evicts everything except the entry being inserted.
        let cache = PlanCache::with_journal_capacity(64).with_byte_budget(1);
        let compiler = Compiler::new();
        let topo = Topology::a100(1, 4);
        let spec = hm_allreduce(1, 4);
        let mut last_fp = 0;
        for i in 0..6 {
            let plan = MicroBatchPlan::plan(16 << 20, spec.n_chunks(), (1 << 20) + i * 4096);
            cache
                .get_or_compile(&compiler, &spec, &topo, &plan)
                .unwrap();
            last_fp = plan_fingerprint(&compiler, &spec, &topo, &plan);
            // The just-inserted plan always survives its own insert.
            assert!(cache.contains(last_fp));
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 6);
        assert!(
            stats.entries <= SHARD_COUNT && stats.evictions > 0,
            "zero budget must evict: {stats:?}"
        );
        assert_eq!(
            stats.entries as u64,
            stats.misses + stats.inserts - stats.evictions
        );
        // An evicted configuration recompiles (counts a fresh miss).
        let first = MicroBatchPlan::plan(16 << 20, spec.n_chunks(), 1 << 20);
        let first_fp = plan_fingerprint(&compiler, &spec, &topo, &first);
        if !cache.contains(first_fp) {
            cache
                .get_or_compile(&compiler, &spec, &topo, &first)
                .unwrap();
            assert_eq!(cache.stats().misses, 7);
        }
        let _ = last_fp;
    }

    #[test]
    fn unbudgeted_cache_never_evicts() {
        let cache = PlanCache::new();
        assert_eq!(cache.byte_budget(), None);
        let compiler = Compiler::new();
        let topo = Topology::a100(1, 4);
        let spec = hm_allreduce(1, 4);
        for i in 0..4 {
            let plan = MicroBatchPlan::plan(16 << 20, spec.n_chunks(), (1 << 20) + i * 4096);
            cache
                .get_or_compile(&compiler, &spec, &topo, &plan)
                .unwrap();
        }
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (4, 0));
        assert!(stats.resident_bytes > 0);
    }

    #[test]
    fn clear_counts_dropped_entries_as_evictions() {
        let cache = PlanCache::new();
        let compiler = Compiler::new();
        let topo = Topology::a100(1, 4);
        let spec = hm_allreduce(1, 4);
        let plan = mb(16 << 20, spec.n_chunks());
        cache
            .get_or_compile(&compiler, &spec, &topo, &plan)
            .unwrap();
        cache.clear();
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (0, 1));
        assert_eq!(stats.resident_bytes, 0);
        assert_eq!(
            stats.entries as u64,
            stats.misses + stats.inserts - stats.evictions
        );
    }

    #[test]
    fn single_mutex_reference_matches_on_serial_traffic() {
        let sharded = PlanCache::new();
        let reference = SingleMutexPlanCache::new();
        let compiler = Compiler::new();
        let topo = Topology::a100(1, 4);
        let spec = hm_allreduce(1, 4);
        for i in [0u64, 1, 0, 2, 1, 0] {
            let plan = MicroBatchPlan::plan(16 << 20, spec.n_chunks(), (1 << 20) + i * 4096);
            let a = sharded
                .get_or_compile(&compiler, &spec, &topo, &plan)
                .unwrap();
            let b = reference
                .get_or_compile(&compiler, &spec, &topo, &plan)
                .unwrap();
            assert!(a.semantic_eq(&b));
        }
        let (s, r) = (sharded.stats(), reference.stats());
        assert_eq!((s.hits, s.misses, s.entries), (r.hits, r.misses, r.entries));
    }
}
