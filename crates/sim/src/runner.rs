//! Order-preserving parallel execution of independent simulation tasks.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// Apply `f` to every item on up to `threads` worker threads, returning
/// results in input order.
///
/// Tasks are pulled from a shared index, so long tasks (large tables) are
/// naturally balanced. Items live in one shared vector guarded by a
/// single mutex — a worker holds the lock just long enough to `take` its
/// claimed slot — and results flow back over a channel tagged with their
/// input index, so there is no per-slot lock traffic on either side.
/// With `threads <= 1` the map runs inline.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Mutex<Vec<Option<T>>> = Mutex::new(items.into_iter().map(Some).collect());
    let next = AtomicUsize::new(0);
    let workers = threads.min(n);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        let (slots, next, f) = (&slots, &next, &f);
        for _ in 0..workers {
            let tx = tx.clone();
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots.lock().expect("task queue poisoned")[i]
                    .take()
                    .expect("each slot is taken exactly once");
                // Send only fails when the receiver is gone, which
                // cannot happen while the scope holds `rx` alive.
                let _ = tx.send((i, f(item)));
            });
        }
    });
    drop(tx);
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in rx {
        results[i] = Some(r);
    }
    results
        .into_iter()
        .map(|r| r.expect("every task ran"))
        .collect()
}

/// A sensible default worker count: the available parallelism, capped
/// so laptop runs stay responsive.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = parallel_map((0..100).collect(), 8, |x: i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_inline() {
        let out = parallel_map(vec![1, 2, 3], 1, |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), 4, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let out = parallel_map(vec![5], 16, |x| x * x);
        assert_eq!(out, vec![25]);
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            parallel_map(vec![1, 2, 3], 2, |x| {
                if x == 2 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(result.is_err(), "a worker panic must not be swallowed");
    }

    #[test]
    fn heavy_and_light_tasks_balance() {
        // Just a smoke check that mixed-duration tasks all complete and
        // keep their slots.
        let out = parallel_map((0..40u64).collect(), 4, |x| {
            if x % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x * x
        });
        assert_eq!(out, (0..40u64).map(|x| x * x).collect::<Vec<_>>());
    }
}
