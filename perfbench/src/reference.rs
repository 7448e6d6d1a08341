//! The fixed reference kernel that host times are scaled by.
//!
//! The benchmark runs on shared machines whose speed drifts with the load
//! of their neighbours: the same build, timed minutes apart, can differ by
//! 40% or more, far past any bound a regression check could use. So after
//! every call, outside the call's timer, the benchmark runs one pass of
//! this kernel and times it too. The kernel is the benchmark's own code
//! and never changes with the program, so its time measures only how fast
//! the machine is running at that point. Each epoch's host times are
//! divided by the epoch's *slowness*, the mean pass time over
//! [`NOMINAL_PASS_MS`], which turns them into the times the machine would
//! have shown running at the speed that constant records.
//!
//! The kernel does what the simulator and the compiler spend their time
//! on: a binary heap of events, a hash map, and nested vectors rewritten
//! in place. All its storage is allocated once, so it does not depend on
//! the allocator state the program leaves behind, and each timed pass
//! follows an untimed one, so it does not depend on how much of the cache
//! the call before it used.

use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Mean time of one pass, in ms, on the 2-core x86-64 VM the benchmark
/// was defined on, while that machine ran at its fast speed.
pub const NOMINAL_PASS_MS: f64 = 0.23;

/// Events pushed per pass.
const EVENTS: u64 = 4_000;
/// Distinct hash-map keys.
const KEYS: usize = 4_096;
/// Shape of the nested vectors.
const ROWS: usize = 512;
const ROW_LEN: usize = 64;

/// The kernel's storage, allocated once per run.
pub struct Reference {
    heap: BinaryHeap<u64>,
    map: HashMap<u64, u64>,
    rows: Vec<Vec<u32>>,
    /// Summed pass time and passes since the last [`Reference::take`].
    busy: Duration,
    passes: u64,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            heap: BinaryHeap::with_capacity(EVENTS as usize),
            map: HashMap::with_capacity(KEYS),
            rows: vec![vec![0; ROW_LEN]; ROWS],
            busy: Duration::ZERO,
            passes: 0,
        }
    }
}

impl Reference {
    /// One untimed pass, to bring the kernel's storage back into the
    /// cache, then one timed pass.
    pub fn pass(&mut self) {
        self.kernel();
        let t0 = Instant::now();
        self.kernel();
        self.busy += t0.elapsed();
        self.passes += 1;
    }

    /// The kernel. Within a process every run of it does exactly the same
    /// work (the hash map's seed is drawn per process).
    fn kernel(&mut self) {
        self.heap.clear();
        self.map.clear();
        // SplitMix64 from a fixed seed, as the stream generator uses.
        let mut x = 0x5EED_u64;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for i in 0..EVENTS {
            let r = next();
            self.heap.push(r >> 16);
            *self.map.entry(r % KEYS as u64).or_default() += i;
            if i % 3 == 0 {
                self.heap.pop();
            }
        }
        let mut acc = 0u64;
        for (i, row) in self.rows.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = v.wrapping_mul(31) ^ (i ^ j) as u32;
                acc = acc.wrapping_add(u64::from(*v));
            }
        }
        black_box((self.heap.peek(), self.map.len(), acc));
    }

    /// Slowness since the last call: mean pass time over
    /// [`NOMINAL_PASS_MS`] (above 1 when the machine runs slower than the
    /// nominal speed). Resets the sums.
    pub fn take(&mut self) -> f64 {
        assert!(self.passes > 0, "no reference pass since the last take");
        let mean_ms = self.busy.as_secs_f64() * 1e3 / self.passes as f64;
        self.busy = Duration::ZERO;
        self.passes = 0;
        mean_ms / NOMINAL_PASS_MS
    }
}
