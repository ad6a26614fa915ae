//! The fully-associative LRU tagged table: its miss ratio is the sum of
//! compulsory and capacity aliasing (sections 3.2 and 5.2).
//!
//! "Because it bases its decisions solely on past information, the LRU
//! policy gives a reasonable base value of the amount of conflict aliasing
//! that can be removed by a hardware-only scheme."

use bpred_core::pair::{PairMap, PairSet};

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node {
    key: (u64, u64),
    prev: usize,
    next: usize,
}

/// An identity-only, fully-associative table with LRU replacement.
///
/// All operations are O(1) (hash map + intrusive recency list).
#[derive(Debug, Clone)]
pub struct TaggedFullyAssociative {
    capacity: usize,
    map: PairMap<usize>,
    nodes: Vec<Node>,
    head: usize,
    tail: usize,
    accesses: u64,
    misses: u64,
    cold_misses: u64,
    seen: PairSet,
}

impl TaggedFullyAssociative {
    /// A table holding at most `capacity` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be nonzero");
        TaggedFullyAssociative {
            capacity,
            map: PairMap::with_capacity_and_hasher(capacity.min(1 << 20), Default::default()),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            accesses: 0,
            misses: 0,
            cold_misses: 0,
            seen: PairSet::default(),
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Reference the table with `pair`; returns `true` on a miss
    /// (compulsory or capacity).
    pub fn access(&mut self, pair: (u64, u64)) -> bool {
        self.accesses += 1;
        if let Some(&i) = self.map.get(&pair) {
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            return false;
        }
        self.misses += 1;
        if self.seen.insert(pair) {
            self.cold_misses += 1;
        }
        let slot = if self.map.len() >= self.capacity {
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.nodes[victim].key);
            self.nodes[victim].key = pair;
            victim
        } else {
            self.nodes.push(Node {
                key: pair,
                prev: NIL,
                next: NIL,
            });
            self.nodes.len() - 1
        };
        self.push_front(slot);
        self.map.insert(pair, slot);
        true
    }

    /// Number of references so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses (compulsory + capacity).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// First-reference (compulsory) misses.
    pub fn cold_misses(&self) -> u64 {
        self.cold_misses
    }

    /// Capacity misses alone (total minus compulsory).
    pub fn capacity_misses(&self) -> u64 {
        self.misses - self.cold_misses
    }

    /// Miss ratio over all references.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Table capacity in pairs.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_within_capacity() {
        let mut t = TaggedFullyAssociative::new(4);
        for i in 0..4u64 {
            assert!(t.access((i, 0)), "first touch misses");
        }
        for i in 0..4u64 {
            assert!(!t.access((i, 0)), "resident pair hits");
        }
        assert_eq!(t.misses(), 4);
        assert_eq!(t.cold_misses(), 4);
        assert_eq!(t.capacity_misses(), 0);
    }

    #[test]
    fn lru_eviction_order() {
        let mut t = TaggedFullyAssociative::new(2);
        t.access((1, 0));
        t.access((2, 0));
        t.access((1, 0)); // touch 1; LRU = 2
        t.access((3, 0)); // evicts 2
        assert!(!t.access((1, 0)));
        assert!(t.access((2, 0)), "2 was evicted (capacity miss)");
        assert_eq!(t.cold_misses(), 3);
        assert_eq!(t.capacity_misses(), 1);
    }

    #[test]
    fn cyclic_overflow_thrashes() {
        // The classic LRU pathology: a cyclic working set one larger than
        // capacity misses every time.
        let mut t = TaggedFullyAssociative::new(3);
        for round in 0..5 {
            for i in 0..4u64 {
                assert!(t.access((i, 0)), "round {round}, pair {i}");
            }
        }
        assert_eq!(t.misses(), 20);
        assert_eq!(t.cold_misses(), 4);
    }

    #[test]
    fn distinguishes_histories() {
        let mut t = TaggedFullyAssociative::new(8);
        assert!(t.access((1, 0b01)));
        assert!(t.access((1, 0b10)), "same address, new history = new pair");
        assert!(!t.access((1, 0b01)));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        let _ = TaggedFullyAssociative::new(0);
    }
}
