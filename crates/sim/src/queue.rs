//! The engine's transfer event queue: a monotone radix heap over packed
//! `(t, seq)` keys that holds **at most one entry per transfer slot**.
//!
//! A transfer has exactly one pending event at any instant — the end of
//! its startup latency, or the projected end of its drain — and every
//! bandwidth change moves that event. [`TransferQueue::set`] therefore
//! inserts *or* re-keys the slot's entry in place instead of pushing a
//! second one, so no stale generation is ever popped.
//!
//! Each key packs exactly into one `u128`, `(t.to_bits() << 64) | seq`.
//! For `t ≥ 0` the bits of `t` sort like its value, so integer order is
//! the `(t, seq)` order of [`key_cmp`]. The queue is *monotone*: no key
//! is ever below the **floor**, the last key popped. Bucket `b > 0` holds
//! the keys whose highest bit differing from the floor is bit `b − 1`;
//! bucket 0 holds a key equal to the floor. Every key of a bucket is
//! smaller than every key of a higher bucket, so the minimum sits in the
//! lowest non-empty bucket. Bit 127 is the sign of `t` and never differs
//! from the floor, so 128 buckets suffice and a `u128` mask tracks which
//! are occupied.
//!
//! A re-key that stays in its bucket — the common case: every one that
//! keeps a `t` other than the floor's — is a plain store. `pop` scans the lowest bucket for
//! its minimum, raises the floor to it, and redistributes the rest of
//! that bucket into lower ones; higher buckets are unaffected. `peek`
//! leaves the floor alone: a side event that fires before the head may
//! re-key transfers to finish earlier than that head.

use std::cmp::Ordering;

const N_BUCKETS: usize = 128;
const ABSENT: u32 = u32::MAX;

/// Event order: earlier time first; equal times by issue sequence (the
/// engine assigns `seq` monotonically, so ties pop in issue order).
pub(crate) fn key_cmp(a_t: f64, a_seq: u64, b_t: f64, b_seq: u64) -> Ordering {
    a_t.total_cmp(&b_t).then(a_seq.cmp(&b_seq))
}

/// Pack `(t, seq)` into one integer that orders like [`key_cmp`].
///
/// # Panics
/// Panics unless `t` is a non-negative number (`-0.0` included among
/// the rejects): negative and NaN bit patterns do not sort by value.
fn pack(t: f64, seq: u64) -> u128 {
    assert!(
        t >= 0.0 && t.is_sign_positive(),
        "event time {t} is not a non-negative number"
    );
    (u128::from(t.to_bits()) << 64) | u128::from(seq)
}

/// One pending transfer event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Entry {
    pub t: f64,
    pub seq: u64,
    pub slot: u32,
}

impl Entry {
    fn unpack(key: u128, slot: u32) -> Self {
        Self {
            t: f64::from_bits((key >> 64) as u64),
            seq: key as u64,
            slot,
        }
    }
}

/// A queued key and the slot it belongs to.
#[derive(Clone, Copy)]
struct Item {
    key: u128,
    slot: u32,
}

/// Where a slot's entry lives: `buckets[bucket][idx]`.
#[derive(Clone, Copy)]
struct Loc {
    bucket: u32,
    idx: u32,
}

impl Loc {
    const ABSENT: Loc = Loc {
        bucket: ABSENT,
        idx: ABSENT,
    };
}

pub(crate) struct TransferQueue {
    buckets: Vec<Vec<Item>>,
    /// Bit `b` is set iff `buckets[b]` is non-empty.
    occupied: u128,
    /// The last key popped; every queued key is at least this.
    floor: u128,
    /// `loc[slot]`: the slot's entry, or `Loc::ABSENT`.
    loc: Vec<Loc>,
}

impl Default for TransferQueue {
    fn default() -> Self {
        Self {
            buckets: (0..N_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: 0,
            floor: 0,
            loc: Vec::new(),
        }
    }
}

impl TransferQueue {
    /// Schedule `slot`'s event at `(t, seq)`, replacing its pending event
    /// if it has one.
    ///
    /// # Panics
    /// Panics if `t` is negative or NaN, or if `(t, seq)` precedes the
    /// last popped event: pop order depends on both.
    pub fn set(&mut self, slot: u32, t: f64, seq: u64) {
        let key = pack(t, seq);
        assert!(
            key >= self.floor,
            "event ({t}, {seq}) scheduled before the last popped one"
        );
        let b = self.bucket_of(key);
        let s = slot as usize;
        if s >= self.loc.len() {
            self.loc.resize(s + 1, Loc::ABSENT);
        }
        let Loc { bucket, idx } = self.loc[s];
        if bucket == b as u32 {
            self.buckets[b][idx as usize].key = key;
            return;
        }
        if bucket != ABSENT {
            self.remove(bucket as usize, idx as usize);
        }
        self.push(b, key, slot);
    }

    /// The earliest pending event. The floor does not move.
    pub fn peek(&self) -> Option<Entry> {
        let (b, i) = self.head()?;
        let Item { key, slot } = self.buckets[b][i];
        Some(Entry::unpack(key, slot))
    }

    /// Remove and return the earliest pending event; it becomes the
    /// floor.
    pub fn pop(&mut self) -> Option<Entry> {
        let (b, i) = self.head()?;
        if b == 0 {
            // Equal to the floor already: nothing to redistribute.
            let (key, slot) = self.remove(0, i);
            return Some(Entry::unpack(key, slot));
        }
        let mut bucket = std::mem::take(&mut self.buckets[b]);
        self.occupied &= !(1 << b);
        let Item { key, slot } = bucket[i];
        self.loc[slot as usize] = Loc::ABSENT;
        self.floor = key;
        // The rest of the bucket agrees with the new floor down to bit
        // `b − 1`, so each lands in a lower bucket.
        for (j, it) in bucket.iter().enumerate() {
            if j != i {
                self.push(self.bucket_of(it.key), it.key, it.slot);
            }
        }
        bucket.clear();
        self.buckets[b] = bucket;
        Some(Entry::unpack(key, slot))
    }

    /// Does `slot` have a pending event?
    pub fn contains(&self, slot: u32) -> bool {
        self.loc
            .get(slot as usize)
            .is_some_and(|l| l.bucket != ABSENT)
    }

    /// The bucket `key` belongs in under the current floor.
    fn bucket_of(&self, key: u128) -> usize {
        (u128::BITS - (key ^ self.floor).leading_zeros()) as usize
    }

    /// The lowest non-empty bucket and the index of its minimum.
    fn head(&self) -> Option<(usize, usize)> {
        if self.occupied == 0 {
            return None;
        }
        let b = self.occupied.trailing_zeros() as usize;
        let bucket = &self.buckets[b];
        let (mut min, mut min_key) = (0, bucket[0].key);
        for (i, it) in bucket.iter().enumerate().skip(1) {
            if it.key < min_key {
                (min, min_key) = (i, it.key);
            }
        }
        Some((b, min))
    }

    // Inlined: `pop` redistributes through it, the queue's hottest path.
    #[inline(always)]
    fn push(&mut self, b: usize, key: u128, slot: u32) {
        let bucket = &mut self.buckets[b];
        self.loc[slot as usize] = Loc {
            bucket: b as u32,
            idx: bucket.len() as u32,
        };
        bucket.push(Item { key, slot });
        self.occupied |= 1 << b;
    }

    /// Take entry `idx` out of bucket `b`, moving the bucket's last entry
    /// into its place.
    fn remove(&mut self, b: usize, idx: usize) -> (u128, u32) {
        let bucket = &mut self.buckets[b];
        let Item { key, slot } = bucket.swap_remove(idx);
        if let Some(moved) = bucket.get(idx) {
            self.loc[moved.slot as usize].idx = idx as u32;
        }
        if bucket.is_empty() {
            self.occupied &= !(1 << b);
        }
        self.loc[slot as usize] = Loc::ABSENT;
        (key, slot)
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
        let mut live = 0;
        for (b, bucket) in q.buckets.iter().enumerate() {
            assert_eq!(
                (q.occupied >> b) & 1 == 1,
                !bucket.is_empty(),
                "occupancy bit {b} out of sync"
            );
            for (i, it) in bucket.iter().enumerate() {
                assert!(it.key >= q.floor, "key below the floor");
                assert_eq!(q.bucket_of(it.key), b, "key in the wrong bucket");
                let l = q.loc[it.slot as usize];
                assert_eq!((l.bucket, l.idx), (b as u32, i as u32), "loc out of sync");
                live += 1;
            }
        }
        let located = q.loc.iter().filter(|l| l.bucket != ABSENT).count();
        assert_eq!(located, live, "one entry per slot");
    }

    #[test]
    fn pops_match_the_lazy_reference_heap() {
        for seed in 0..48u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Up to 2,048 slots, log-uniformly: most seeds stay small.
            let width = 1 << rng.gen_range(1..12);
            let n_slots = 1 + rng.gen_range(0..width) as u32;
            let mut q = TransferQueue::default();
            let mut reference = BinaryHeap::new();
            let mut live_seq = vec![None; n_slots as usize];
            // Times handed out so far, reused to force equal-`t` ties.
            let mut times: Vec<f64> = Vec::new();
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
                    // into the past. Fresh times spread over many
                    // binades; a third repeat an earlier one.
                    let slot = rng.gen_range(0..n_slots as u64) as u32;
                    let pick = rng.gen_range(0..3 * times.len().max(1) as u64) as usize;
                    let t = match times.get(pick) {
                        Some(&t) if t >= now => t,
                        _ => {
                            let k = rng.gen_range(0..48) as i32 - 8;
                            let t = now + 2f64.powi(k) * rng.gen::<f64>();
                            times.push(t);
                            t
                        }
                    };
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
        q.set(1, 9.0, 4); // later
        q.set(2, 1.0, 5); // earlier
        q.set(0, 1.0, 6); // equal time: loses the tie to seq 5
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.slot)).collect();
        assert_eq!(order, vec![2, 0, 1]);
        assert!(q.peek().is_none());
    }

    /// A side event between the last pop and the head re-keys a transfer
    /// to finish before that head; `peek` must not have raised the floor
    /// past it.
    #[test]
    fn rekey_below_the_peeked_head_pops_first() {
        let mut q = TransferQueue::default();
        q.set(0, 1.0, 1);
        q.set(1, 10.0, 2);
        q.set(2, 20.0, 3);
        assert_eq!(q.pop().map(|e| e.slot), Some(0));
        assert_eq!(q.peek().map(|e| e.slot), Some(1));
        q.set(2, 5.0, 4);
        check_invariants(&q);
        let order: Vec<(u32, f64)> =
            std::iter::from_fn(|| q.pop().map(|e| (e.slot, e.t))).collect();
        assert_eq!(order, vec![(2, 5.0), (1, 10.0)]);
    }

    #[test]
    #[should_panic(expected = "before the last popped one")]
    fn rejects_a_key_below_the_floor() {
        let mut q = TransferQueue::default();
        q.set(0, 5.0, 1);
        q.set(1, 6.0, 2);
        q.pop();
        q.set(1, 4.0, 3);
    }
}
