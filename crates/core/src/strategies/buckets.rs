//! The thread-safe buckets structure backing the Δ-stepping strategy.
//!
//! "The Δ-stepping strategy, for example, has to provide a thread-safe
//! buckets data structure" (§II-A). A bucket `B[i]` holds vertices whose
//! bucketing value falls in `[i·Δ, (i+1)·Δ)`. Work hooks insert from
//! handler threads while the strategy's main loop pops, so everything is
//! behind a lock (a single mutex — bucket operations are tiny compared to
//! the actions they schedule).
//!
//! The buckets are *sets*, as in Meyer and Sanders' Δ-stepping: a vertex
//! is queued at most once, in one bucket. Each rank-local vertex records
//! the bucket it is queued in. Re-inserting a queued vertex into a lower
//! bucket moves it there (decrease-key by lazy deletion: the old entry
//! stays behind as a stale entry that [`Buckets::pop`] skips); inserting
//! it at the same or a higher bucket does nothing. Popping a vertex
//! dequeues it, so a later improvement queues it again. Emptiness and
//! lengths count live entries only, so a bucket holding nothing but
//! stale entries is empty.

use dgp_graph::{Distribution, VertexId};
use parking_lot::Mutex;

/// `Inner::queued` value of a vertex that is in no bucket.
const NOT_QUEUED: u32 = u32::MAX;

struct Inner {
    /// Entries per bucket, live and stale.
    buckets: Vec<Vec<VertexId>>,
    /// Live entries per bucket.
    live: Vec<usize>,
    /// The bucket each rank-local vertex is queued in, or `NOT_QUEUED`.
    queued: Vec<u32>,
    /// Live entries over all buckets.
    len: usize,
}

impl Inner {
    /// Drop one live entry from bucket `i`, clearing the bucket's stale
    /// entries once no live one is left.
    fn unlive(&mut self, i: usize) {
        self.live[i] -= 1;
        if self.live[i] == 0 {
            self.buckets[i].clear();
        }
    }
}

/// Thread-safe Δ-buckets over one rank's local vertices.
pub struct Buckets {
    delta: f64,
    dist: Distribution,
    inner: Mutex<Inner>,
}

impl Buckets {
    /// Buckets of width `delta` (> 0) for the `num_local` vertices a rank
    /// owns under `dist`.
    pub fn new(delta: f64, dist: Distribution, num_local: usize) -> Buckets {
        assert!(delta > 0.0, "Δ must be positive");
        Buckets {
            delta,
            dist,
            inner: Mutex::new(Inner {
                buckets: Vec::new(),
                live: Vec::new(),
                queued: vec![NOT_QUEUED; num_local],
                len: 0,
            }),
        }
    }

    /// The bucket index of value `x`.
    pub fn index_of(&self, x: f64) -> usize {
        assert!(x >= 0.0 && x.is_finite(), "bucket value {x} out of domain");
        (x / self.delta) as usize
    }

    /// Queue rank-local `v` with bucketing value `x` (e.g. its tentative
    /// distance), unless it is already queued at that bucket or a lower
    /// one.
    ///
    /// Moves only go down: with several handler threads, two hooks can
    /// read a vertex's value out of order, and the later insert must not
    /// park the vertex above its current value.
    pub fn insert(&self, v: VertexId, x: f64) {
        let idx = self.index_of(x);
        assert!(idx < NOT_QUEUED as usize, "bucket index {idx} out of range");
        let slot = idx as u32;
        let li = self.dist.local(v);
        let mut g = self.inner.lock();
        let at = g.queued[li];
        if at == NOT_QUEUED {
            g.len += 1;
        } else if at <= slot {
            return;
        } else {
            g.unlive(at as usize);
        }
        if g.buckets.len() <= idx {
            g.buckets.resize_with(idx + 1, Vec::new);
            g.live.resize(idx + 1, 0);
        }
        g.buckets[idx].push(v);
        g.live[idx] += 1;
        g.queued[li] = slot;
    }

    /// Pop one vertex queued at bucket `i`, skipping stale entries.
    pub fn pop(&self, i: usize) -> Option<VertexId> {
        let mut g = self.inner.lock();
        loop {
            let v = g.buckets.get_mut(i)?.pop()?;
            let li = self.dist.local(v);
            if g.queued[li] as usize == i {
                g.queued[li] = NOT_QUEUED;
                g.len -= 1;
                g.unlive(i);
                return Some(v);
            }
        }
    }

    /// Whether bucket `i` has no queued vertex.
    pub fn is_empty_at(&self, i: usize) -> bool {
        self.inner.lock().live.get(i).is_none_or(|&n| n == 0)
    }

    /// Lowest index at or after `from` of a bucket with a queued vertex.
    pub fn first_nonempty_from(&self, from: usize) -> Option<usize> {
        let g = self.inner.lock();
        (from..g.live.len()).find(|&i| g.live[i] > 0)
    }

    /// Total queued vertices.
    pub fn len(&self) -> usize {
        self.inner.lock().len
    }

    /// Whether no vertex is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Buckets over all `n` vertices of a one-rank distribution.
    fn buckets(delta: f64, n: u64) -> Buckets {
        Buckets::new(delta, Distribution::block(n, 1), n as usize)
    }

    fn pop_all(b: &Buckets, i: usize) -> Vec<VertexId> {
        std::iter::from_fn(|| b.pop(i)).collect()
    }

    #[test]
    fn indexes_by_delta() {
        let b = buckets(2.0, 1);
        assert_eq!(b.index_of(0.0), 0);
        assert_eq!(b.index_of(1.999), 0);
        assert_eq!(b.index_of(2.0), 1);
        assert_eq!(b.index_of(9.5), 4);
    }

    #[test]
    fn insert_pop() {
        let b = buckets(1.0, 16);
        b.insert(10, 0.5);
        b.insert(11, 0.9);
        b.insert(12, 3.2);
        assert_eq!(b.len(), 3);
        assert_eq!(b.first_nonempty_from(0), Some(0));
        assert_eq!(b.first_nonempty_from(1), Some(3));
        assert!(b.pop(0).is_some());
        assert_eq!(pop_all(&b, 0).len(), 1);
        assert!(b.is_empty_at(0));
        assert_eq!(pop_all(&b, 3), vec![12]);
        assert!(b.is_empty());
    }

    #[test]
    fn pop_from_missing_bucket_is_none() {
        let b = buckets(1.0, 1);
        assert_eq!(b.pop(7), None);
        assert!(b.is_empty_at(7));
        assert_eq!(b.first_nonempty_from(0), None);
    }

    #[test]
    fn duplicate_insert_collapses() {
        let b = buckets(1.0, 4);
        b.insert(2, 1.5);
        b.insert(2, 1.5);
        b.insert(2, 1.2);
        assert_eq!(b.len(), 1);
        assert_eq!(pop_all(&b, 1), vec![2]);
        assert!(b.is_empty());
    }

    #[test]
    fn lower_insert_moves_and_stale_entry_is_invisible() {
        let b = buckets(1.0, 4);
        b.insert(1, 5.5);
        b.insert(3, 5.1);
        b.insert(1, 2.5);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty_at(2));
        // Bucket 5 keeps vertex 1's stale entry but counts only vertex 3.
        assert!(!b.is_empty_at(5));
        assert_eq!(b.first_nonempty_from(3), Some(5));
        assert_eq!(pop_all(&b, 5), vec![3]);
        assert_eq!(pop_all(&b, 2), vec![1]);
        assert!(b.is_empty());
    }

    #[test]
    fn higher_insert_of_queued_vertex_is_ignored() {
        let b = buckets(1.0, 4);
        b.insert(0, 1.0);
        b.insert(0, 7.0);
        assert_eq!(b.len(), 1);
        assert!(b.is_empty_at(7));
        assert_eq!(b.first_nonempty_from(0), Some(1));
        assert_eq!(pop_all(&b, 1), vec![0]);
    }

    #[test]
    fn popped_vertex_can_be_requeued() {
        let b = buckets(1.0, 4);
        b.insert(2, 3.0);
        assert_eq!(b.pop(3), Some(2));
        assert!(b.is_empty());
        // Same bucket, then a higher one: both queue again after a pop.
        b.insert(2, 3.0);
        assert_eq!(b.pop(3), Some(2));
        b.insert(2, 6.0);
        assert_eq!(b.first_nonempty_from(0), Some(6));
        assert_eq!(b.pop(6), Some(2));
        assert!(b.is_empty());
    }

    #[test]
    fn bucket_of_only_stale_entries_is_empty() {
        let b = buckets(1.0, 4);
        b.insert(0, 4.0);
        b.insert(1, 4.0);
        b.insert(0, 1.0);
        b.insert(1, 2.0);
        assert!(b.is_empty_at(4));
        assert_eq!(b.first_nonempty_from(3), None);
        assert_eq!(b.first_nonempty_from(0), Some(1));
        assert_eq!(b.pop(4), None);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn stale_entry_behind_a_requeue_is_skipped() {
        // Vertex 1: queued at 5, moved to 2, popped, queued at 5 again.
        // Bucket 5 then holds its stale entry and its live one.
        let b = buckets(1.0, 4);
        b.insert(1, 5.0);
        b.insert(3, 5.0);
        b.insert(1, 2.0);
        assert_eq!(b.pop(2), Some(1));
        b.insert(1, 5.0);
        assert_eq!(b.len(), 2);
        let mut got = pop_all(&b, 5);
        got.sort_unstable();
        assert_eq!(got, vec![1, 3]);
        assert!(b.is_empty());
    }

    #[test]
    fn concurrent_insert_pop_balances() {
        // Four threads insert 1000 vertices each at values 9, 8, ..., 0;
        // thread pairs share vertices, so each vertex ends in the lowest
        // bucket it was offered.
        let b = Arc::new(buckets(1.0, 2000));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let b = b.clone();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        b.insert((t % 2) * 1000 + i, (9 - (i + t) % 10) as f64);
                    }
                });
            }
        });
        assert_eq!(b.len(), 2000);
        let mut popped = 0;
        for i in 0..10 {
            for v in pop_all(&b, i) {
                let t = v / 1000;
                let lowest = (9 - (v % 1000 + t + 2) % 10).min(9 - (v % 1000 + t) % 10);
                assert_eq!(i as u64, lowest, "vertex {v}");
                popped += 1;
            }
        }
        assert_eq!(popped, 2000);
        assert!(b.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn invalid_value_rejected() {
        buckets(1.0, 1).insert(0, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "Δ must be positive")]
    fn zero_delta_rejected() {
        buckets(0.0, 1);
    }
}
