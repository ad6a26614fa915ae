//! Process-wide engine throughput counters.
//!
//! The engine's two simulation paths — the monomorphized [`kernel`]
//! path every cell runs on and the `Box<dyn BranchPredictor>` reference
//! engine of [`engine`], which only tests and examples drive — report
//! how many record applications they executed and how long they spent,
//! so the CLI can print records/sec under `--verbose` and the benchmark
//! can read both paths' counters.
//!
//! One *record application* is one record driven through one predictor:
//! a pass over `R` records with `P` predictors counts `R * P`
//! applications, whichever path runs it. Durations are summed across
//! worker threads, so the reported rate is a per-core throughput, not
//! wall clock.
//!
//! [`kernel`]: crate::kernel
//! [`engine`]: crate::engine

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

static KERNEL_APPLICATIONS: AtomicU64 = AtomicU64::new(0);
static KERNEL_NANOS: AtomicU64 = AtomicU64::new(0);
static DYN_APPLICATIONS: AtomicU64 = AtomicU64::new(0);
static DYN_NANOS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the engine's per-path throughput counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineTiming {
    /// Record applications executed by the kernel fast path.
    pub kernel_applications: u64,
    /// CPU nanoseconds spent in the kernel fast path (summed across
    /// workers).
    pub kernel_nanos: u64,
    /// Record applications executed through `dyn BranchPredictor`.
    pub dyn_applications: u64,
    /// CPU nanoseconds spent in the dyn path (summed across workers).
    pub dyn_nanos: u64,
}

impl EngineTiming {
    /// Kernel-path throughput in record applications per second, or 0
    /// when the path never ran.
    pub fn kernel_rate(&self) -> f64 {
        rate(self.kernel_applications, self.kernel_nanos)
    }

    /// Dyn-path throughput in record applications per second, or 0 when
    /// the path never ran.
    pub fn dyn_rate(&self) -> f64 {
        rate(self.dyn_applications, self.dyn_nanos)
    }

    /// Seconds spent in the kernel path.
    pub fn kernel_seconds(&self) -> f64 {
        self.kernel_nanos as f64 / 1e9
    }
}

fn rate(applications: u64, nanos: u64) -> f64 {
    if nanos == 0 {
        0.0
    } else {
        applications as f64 / (nanos as f64 / 1e9)
    }
}

/// Credit `applications` record applications over `elapsed` to the
/// kernel fast path.
pub fn record_kernel(applications: u64, elapsed: Duration) {
    KERNEL_APPLICATIONS.fetch_add(applications, Ordering::Relaxed);
    KERNEL_NANOS.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
}

/// Credit `applications` record applications over `elapsed` to the dyn
/// path.
pub fn record_dyn(applications: u64, elapsed: Duration) {
    DYN_APPLICATIONS.fetch_add(applications, Ordering::Relaxed);
    DYN_NANOS.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
}

/// Snapshot the global counters.
pub fn stats() -> EngineTiming {
    EngineTiming {
        kernel_applications: KERNEL_APPLICATIONS.load(Ordering::Relaxed),
        kernel_nanos: KERNEL_NANOS.load(Ordering::Relaxed),
        dyn_applications: DYN_APPLICATIONS.load(Ordering::Relaxed),
        dyn_nanos: DYN_NANOS.load(Ordering::Relaxed),
    }
}

/// Zero the counters (single-threaded entry points only, like the other
/// process-global switches).
pub fn reset() {
    KERNEL_APPLICATIONS.store(0, Ordering::Relaxed);
    KERNEL_NANOS.store(0, Ordering::Relaxed);
    DYN_APPLICATIONS.store(0, Ordering::Relaxed);
    DYN_NANOS.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_and_accumulation() {
        // Counters are process-global and shared with other tests, so
        // assert on monotonic deltas only.
        let before = stats();
        record_kernel(1_000, Duration::from_micros(10));
        record_dyn(2_000, Duration::from_micros(40));
        let after = stats();
        assert_eq!(
            after.kernel_applications - before.kernel_applications,
            1_000
        );
        assert_eq!(after.dyn_applications - before.dyn_applications, 2_000);
        assert!(after.kernel_nanos > before.kernel_nanos);
        assert!(after.dyn_nanos > before.dyn_nanos);
        assert!(after.kernel_rate() > 0.0);
        assert!(after.dyn_rate() > 0.0);
        assert!(after.kernel_seconds() > 0.0);
    }

    #[test]
    fn zero_time_rate_is_zero() {
        assert_eq!(EngineTiming::default().kernel_rate(), 0.0);
        assert_eq!(EngineTiming::default().dyn_rate(), 0.0);
    }
}
