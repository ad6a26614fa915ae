//! Process-wide memoization of benchmark traces as [`TraceColumns`].
//!
//! The synthetic workloads are deterministic but expensive to generate:
//! every sweep cell that re-walks the same `(benchmark, len, seed)` stream
//! would pay the full CFG-walk cost again. This module builds a
//! benchmark's trace *once*, straight from the generator into the
//! structure-of-arrays [`TraceColumns`] layout, and hands the same
//! `Arc<TraceColumns>` to every subsequent caller. The columns are the
//! only resident copy: kernels walk them directly, and everything that
//! wants records iterates them ([`TraceColumns::records`],
//! [`TraceColumns::into_records`]), so an N-row sweep generates each
//! trace once and holds it in about 9.4 bytes a record.
//!
//! Properties:
//!
//! * **Thread-safe** — lookups take a mutex briefly; generation happens
//!   *outside* the lock, so concurrent misses on different keys build in
//!   parallel. If two threads race on the same key, the first insert wins
//!   and the other adopts it (streams are deterministic, so the two
//!   builds are identical).
//! * **Bounded** — resident bytes are capped (1 GiB by default); the
//!   least-recently-used entry is evicted when an insert would exceed the
//!   cap. A trace larger than the whole cap is returned uncached.
//! * **Observable** — global hit/miss/eviction counters feed the CLI's
//!   `--verbose` summaries ([`stats`]).
//! * **Bypassable** — [`set_enabled]`(false)` (the CLI's
//!   `--no-trace-cache`) rebuilds the trace on every request without
//!   storing it. The switch is process-global: only single-threaded entry
//!   points (the CLI `main`) should flip it; tests must not, as test
//!   binaries run threads concurrently.

use crate::soa::TraceColumns;
use crate::stream::TraceSourceExt;
use crate::workload::{IbsBenchmark, DEFAULT_SEED_BASE};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default resident-byte bound: at about 9.4 bytes per record this holds
/// some 110 M records — the six default-length benchmark traces together
/// are roughly 13 M conditionals plus interleaved unconditionals, so whole
/// `experiment all` runs fit without eviction.
pub const DEFAULT_CAPACITY_BYTES: usize = 1 << 30;

/// One cached trace keyed by `(benchmark, conditional-branch length,
/// workload seed base)`.
type Key = (IbsBenchmark, u64, u64);

struct Entry {
    columns: Arc<TraceColumns>,
    /// Logical timestamp of the last hit; smallest is evicted first.
    stamp: u64,
}

/// The bounded LRU map (generation-agnostic: callers insert ready-made
/// traces, which keeps eviction unit-testable without workloads).
struct LruCache {
    capacity_bytes: usize,
    resident_bytes: usize,
    clock: u64,
    map: HashMap<Key, Entry>,
    evictions: u64,
}

impl LruCache {
    fn new(capacity_bytes: usize) -> Self {
        LruCache {
            capacity_bytes,
            resident_bytes: 0,
            clock: 0,
            map: HashMap::new(),
            evictions: 0,
        }
    }

    fn get(&mut self, key: &Key) -> Option<Arc<TraceColumns>> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(key).map(|e| {
            e.stamp = clock;
            Arc::clone(&e.columns)
        })
    }

    /// Insert `columns`, evicting least-recently-used entries until the
    /// byte bound holds. A trace larger than the whole capacity is not
    /// stored at all.
    fn insert(&mut self, key: Key, columns: Arc<TraceColumns>) {
        let bytes = columns.heap_bytes();
        if bytes > self.capacity_bytes {
            return;
        }
        while self.resident_bytes + bytes > self.capacity_bytes {
            let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k)
            else {
                break;
            };
            let evicted = self.map.remove(&oldest).expect("key just found");
            self.resident_bytes -= evicted.columns.heap_bytes();
            self.evictions += 1;
        }
        self.clock += 1;
        self.resident_bytes += bytes;
        self.map.insert(
            key,
            Entry {
                columns,
                stamp: self.clock,
            },
        );
    }
}

static CACHE: OnceLock<Mutex<LruCache>> = OnceLock::new();
static ENABLED: AtomicBool = AtomicBool::new(true);
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

fn cache() -> &'static Mutex<LruCache> {
    CACHE.get_or_init(|| Mutex::new(LruCache::new(DEFAULT_CAPACITY_BYTES)))
}

/// Enable or disable the process-wide cache. While disabled,
/// [`columns_seeded`] rebuilds the trace on every call and stores nothing
/// (existing entries are kept but not served).
///
/// This is a process-global switch intended for single-threaded entry
/// points (the CLI's `--no-trace-cache`); tests should leave it alone
/// because test binaries run threads concurrently.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether the cache currently serves and stores entries.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A snapshot of the cache's counters, for `--verbose` run summaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from a resident entry.
    pub hits: u64,
    /// Lookups that had to generate the trace (bypassed lookups while the
    /// cache is disabled are not counted).
    pub misses: u64,
    /// Entries dropped to respect the byte bound.
    pub evictions: u64,
    /// Resident traces right now.
    pub entries: usize,
    /// Bytes held by resident traces right now.
    pub resident_bytes: usize,
}

impl CacheStats {
    /// `hits / (hits + misses)`, or 0 when nothing was looked up.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Snapshot the global counters.
pub fn stats() -> CacheStats {
    let guard = cache().lock().expect("trace cache poisoned");
    CacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        evictions: guard.evictions,
        entries: guard.map.len(),
        resident_bytes: guard.resident_bytes,
    }
}

fn generate(bench: IbsBenchmark, len: u64, seed_base: u64) -> TraceColumns {
    bench
        .spec_seeded(seed_base)
        .build()
        .take_conditionals(len)
        .collect()
}

/// The benchmark's trace bounded to `len` conditional branches, under
/// the default workload seed — see [`columns_seeded`].
pub fn columns(bench: IbsBenchmark, len: u64) -> Arc<TraceColumns> {
    columns_seeded(bench, len, DEFAULT_SEED_BASE)
}

/// The benchmark's trace bounded to `len` conditional branches and
/// generated under workload seed base `seed_base`, built at most once per
/// process: every caller passing the same `(bench, len, seed_base)`
/// receives a clone of the same `Arc` allocation (test this with
/// [`Arc::ptr_eq`]), so a repeat lookup costs a reference-count bump.
/// With the cache disabled the trace is rebuilt per call.
pub fn columns_seeded(bench: IbsBenchmark, len: u64, seed_base: u64) -> Arc<TraceColumns> {
    if !is_enabled() {
        return Arc::new(generate(bench, len, seed_base));
    }
    let key = (bench, len, seed_base);
    if let Some(columns) = cache().lock().expect("trace cache poisoned").get(&key) {
        HITS.fetch_add(1, Ordering::Relaxed);
        return columns;
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    // Generate outside the lock so other keys make progress; on a same-key
    // race the first insert wins and the loser adopts it.
    let generated = Arc::new(generate(bench, len, seed_base));
    let mut guard = cache().lock().expect("trace cache poisoned");
    if let Some(columns) = guard.get(&key) {
        return columns;
    }
    guard.insert(key, Arc::clone(&generated));
    generated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::BranchRecord;

    fn dummy_columns(n: usize, base_pc: u64) -> Arc<TraceColumns> {
        Arc::new(
            (0..n)
                .map(|i| BranchRecord::conditional(base_pc + 4 * i as u64, i % 2 == 0))
                .collect(),
        )
    }

    #[test]
    fn lru_evicts_oldest_first() {
        let entry_bytes = dummy_columns(4, 0).heap_bytes();
        let mut lru = LruCache::new(2 * entry_bytes + entry_bytes / 2);
        let a = (IbsBenchmark::Groff, 4, DEFAULT_SEED_BASE);
        let b = (IbsBenchmark::Gs, 4, DEFAULT_SEED_BASE);
        let c = (IbsBenchmark::Nroff, 4, DEFAULT_SEED_BASE);
        lru.insert(a, dummy_columns(4, 0x1000));
        lru.insert(b, dummy_columns(4, 0x2000));
        // Touch `a` so `b` is the LRU entry, then overflow.
        assert!(lru.get(&a).is_some());
        lru.insert(c, dummy_columns(4, 0x3000));
        assert_eq!(lru.evictions, 1);
        assert!(lru.get(&a).is_some(), "recently used entry survives");
        assert!(lru.get(&b).is_none(), "LRU entry was evicted");
        assert!(lru.get(&c).is_some());
        assert_eq!(lru.resident_bytes, 2 * entry_bytes);
    }

    #[test]
    fn lru_rejects_oversized_entry() {
        let mut lru = LruCache::new(dummy_columns(2, 0).heap_bytes());
        lru.insert(
            (IbsBenchmark::Groff, 100, DEFAULT_SEED_BASE),
            dummy_columns(100, 0),
        );
        assert_eq!(lru.map.len(), 0);
        assert_eq!(lru.resident_bytes, 0);
        assert_eq!(lru.evictions, 0, "nothing resident, nothing evicted");
    }

    #[test]
    fn seed_is_part_of_the_key() {
        let default = columns(IbsBenchmark::Groff, 1_500);
        let same = columns_seeded(IbsBenchmark::Groff, 1_500, DEFAULT_SEED_BASE);
        assert!(
            Arc::ptr_eq(&default, &same),
            "default-seeded lookups share the default entry"
        );
        let reseeded = columns_seeded(IbsBenchmark::Groff, 1_500, 0x1234);
        assert!(!Arc::ptr_eq(&default, &reseeded));
        assert_ne!(default, reseeded);
    }

    #[test]
    fn repeat_lookups_count_hits() {
        let before = stats();
        let _ = columns(IbsBenchmark::MpegPlay, 1_234);
        let _ = columns(IbsBenchmark::MpegPlay, 1_234);
        let after = stats();
        // Other tests in this binary share the counters, so only assert
        // monotonic deltas: at least one hit, at least one lookup stored.
        assert!(after.hits > before.hits);
        assert!(after.misses >= before.misses);
        assert!(after.entries >= 1);
        assert!(after.resident_bytes > 0);
        assert!(after.hit_ratio() > 0.0);
    }
}
