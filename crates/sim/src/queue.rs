//! The engine's transfer event queue: an indexed binary min-heap keyed by
//! `(t, seq)` that holds **at most one entry per transfer slot**.
//!
//! A transfer has exactly one pending event at any instant — the end of
//! its startup latency, or the projected end of its drain — and every
//! bandwidth change moves that event. [`TransferQueue::set`] therefore
//! inserts *or* re-keys the slot's entry in place (sift up or down)
//! instead of pushing a second one, so no stale generation is ever
//! popped. `pos` maps a slot to its heap index, so a re-key is
//! O(log live) with no search.

use std::cmp::Ordering;

const ABSENT: u32 = u32::MAX;

/// Event order: earlier time first; equal times by issue sequence (the
/// engine assigns `seq` monotonically, so ties pop in issue order).
pub(crate) fn key_cmp(a_t: f64, a_seq: u64, b_t: f64, b_seq: u64) -> Ordering {
    a_t.total_cmp(&b_t).then(a_seq.cmp(&b_seq))
}

/// One pending transfer event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Entry {
    pub t: f64,
    pub seq: u64,
    pub slot: u32,
}

impl Entry {
    fn precedes(&self, other: &Entry) -> bool {
        key_cmp(self.t, self.seq, other.t, other.seq) == Ordering::Less
    }
}

#[derive(Default)]
pub(crate) struct TransferQueue {
    heap: Vec<Entry>,
    /// `pos[slot]`: the slot's index in `heap`, or `ABSENT`.
    pos: Vec<u32>,
}

impl TransferQueue {
    /// Schedule `slot`'s event at `(t, seq)`, replacing its pending event
    /// if it has one.
    pub fn set(&mut self, slot: u32, t: f64, seq: u64) {
        let s = slot as usize;
        if s >= self.pos.len() {
            self.pos.resize(s + 1, ABSENT);
        }
        let e = Entry { t, seq, slot };
        match self.pos[s] {
            ABSENT => {
                self.heap.push(e);
                self.sift_up(self.heap.len() - 1, e);
            }
            i => {
                let i = i as usize;
                if e.precedes(&self.heap[i]) {
                    self.sift_up(i, e);
                } else {
                    self.sift_down(i, e);
                }
            }
        }
    }

    /// The earliest pending event.
    pub fn peek(&self) -> Option<&Entry> {
        self.heap.first()
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<Entry> {
        let top = *self.heap.first()?;
        self.pos[top.slot as usize] = ABSENT;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.sift_down(0, last);
        }
        Some(top)
    }

    /// Does `slot` have a pending event?
    pub fn contains(&self, slot: u32) -> bool {
        self.pos.get(slot as usize).is_some_and(|&p| p != ABSENT)
    }

    /// Place `e` at hole `i`, moving it towards the root while it
    /// precedes its parent.
    fn sift_up(&mut self, mut i: usize, e: Entry) {
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if !e.precedes(&p) {
                break;
            }
            self.heap[i] = p;
            self.pos[p.slot as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = e;
        self.pos[e.slot as usize] = i as u32;
    }

    /// Place `e` at hole `i`, moving it towards the leaves while a child
    /// precedes it.
    fn sift_down(&mut self, mut i: usize, e: Entry) {
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && self.heap[right].precedes(&self.heap[left]) {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if !c.precedes(&e) {
                break;
            }
            self.heap[i] = c;
            self.pos[c.slot as usize] = i as u32;
            i = child;
        }
        self.heap[i] = e;
        self.pos[e.slot as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BinaryHeap;

    /// The reference: the lazy heap the engine used before — every update
    /// pushes a fresh `(t, seq)` and superseded entries are skipped on
    /// pop by comparing against the slot's live `seq`.
    #[derive(PartialEq)]
    struct Ref(f64, u64, u32);
    impl Eq for Ref {}
    impl PartialOrd for Ref {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Ref {
        fn cmp(&self, other: &Self) -> Ordering {
            key_cmp(other.0, other.1, self.0, self.1)
        }
    }

    fn check_invariants(q: &TransferQueue) {
        for (i, e) in q.heap.iter().enumerate() {
            assert_eq!(q.pos[e.slot as usize], i as u32, "pos out of sync");
            if i > 0 {
                assert!(!e.precedes(&q.heap[(i - 1) / 2]), "heap order broken");
            }
        }
        let live = q.pos.iter().filter(|&&p| p != ABSENT).count();
        assert_eq!(live, q.heap.len(), "one entry per slot");
    }

    #[test]
    fn pops_match_the_lazy_reference_heap() {
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n_slots = 1 + rng.gen_range(0..24) as u32;
            // Few distinct times, so equal-`t` ties are frequent.
            let n_times = 1 + rng.gen_range(0..6);
            let mut q = TransferQueue::default();
            let mut reference = BinaryHeap::new();
            let mut live_seq = vec![None; n_slots as usize];
            let mut seq = 0u64;
            let mut now = 0.0f64;
            for step in 0..2_000 {
                if rng.gen_range(0..3) == 0 {
                    let got = q.pop();
                    let want = loop {
                        match reference.pop() {
                            Some(Ref(t, s, slot)) if live_seq[slot as usize] == Some(s) => {
                                live_seq[slot as usize] = None;
                                break Some(Entry { t, seq: s, slot });
                            }
                            Some(_) => continue, // superseded
                            None => break None,
                        }
                    };
                    assert_eq!(got, want, "seed {seed} step {step}");
                    if let Some(e) = got {
                        now = e.t;
                    }
                } else {
                    // Insert or update; like the engine, never schedule
                    // into the past.
                    let slot = rng.gen_range(0..n_slots as u64) as u32;
                    let t = now + rng.gen_range(0..n_times) as f64;
                    seq += 1;
                    q.set(slot, t, seq);
                    reference.push(Ref(t, seq, slot));
                    live_seq[slot as usize] = Some(seq);
                }
                check_invariants(&q);
                for (slot, s) in live_seq.iter().enumerate() {
                    assert_eq!(q.contains(slot as u32), s.is_some());
                }
            }
        }
    }

    #[test]
    fn update_moves_an_entry_both_ways() {
        let mut q = TransferQueue::default();
        q.set(0, 5.0, 1);
        q.set(1, 3.0, 2);
        q.set(2, 4.0, 3);
        q.set(1, 9.0, 4); // later: sifts down
        q.set(2, 1.0, 5); // earlier: sifts up
        q.set(0, 1.0, 6); // equal time: loses the tie to seq 5
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.slot)).collect();
        assert_eq!(order, vec![2, 0, 1]);
        assert!(q.peek().is_none());
    }
}
