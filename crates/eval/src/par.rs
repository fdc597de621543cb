//! A minimal worker pool for embarrassingly parallel sweeps and batches.
//!
//! The figure binaries and probes solve many independent `(n, α, property-set)`
//! LPs, and the serving engine shards a batch's draws; [`parallel_map`] fans
//! either out with work-stealing by atomic index — no ordering requirements
//! on task cost, no dependencies beyond `std` and the workspace's
//! [`cpm_sys::pool`].  Results come back in input order, and a panic in any
//! task propagates to the caller, so error handling with `Result` items
//! behaves exactly as in the serial loop it replaces.
//!
//! Fixed costs are kept off the per-call path, because the serving engine
//! calls this once per privatize batch, most of which are a single draw:
//!
//! * A map over at most one item runs inline and never asks how many
//!   workers there are.
//! * The machine's available parallelism is read once per process and
//!   cached (`std::thread::available_parallelism` reads cgroup files on
//!   Linux, tens of µs a call).
//! * The `CPM_THREADS` environment variable is read on every call, so it can
//!   be changed at runtime (the serving probe's thread sweep does this).
//!   When set and positive it pins the worker count; `CPM_THREADS=1`
//!   recovers fully serial execution, e.g. for clean per-task timing.
//! * Multi-task maps run on one persistent, lazily started, process-wide
//!   pool ([`cpm_sys::pool::broadcast`]) instead of spawning threads per
//!   call.  The calling thread runs tasks too, so a map with `w` workers
//!   wakes `w - 1` pool threads.  Concurrent maps each get their own
//!   `w - 1` pool threads, as they would with scoped threads; the pool
//!   only starts threads when that many are not already free.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// [`std::thread::available_parallelism`], read once per process.
fn available_parallelism() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

/// Number of worker threads to use: `CPM_THREADS` when set and positive
/// (read on every call), otherwise the machine's available parallelism
/// (read once per process), never more than `tasks`.
pub fn worker_count(tasks: usize) -> usize {
    #[cfg(test)]
    tests::WORKER_COUNT_CALLS.with(|calls| calls.set(calls.get() + 1));
    let configured = std::env::var("CPM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t > 0);
    configured
        .unwrap_or_else(available_parallelism)
        .max(1)
        .min(tasks.max(1))
}

/// Apply `f` to every item on the shared worker pool, returning the results
/// in input order.
///
/// Tasks are claimed by atomic counter, so long and short tasks interleave
/// without static partitioning — exactly what the LP sweeps need, where solve
/// time varies by orders of magnitude across the parameter grid.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let tasks = items.len();
    let workers = if tasks <= 1 { 1 } else { worker_count(tasks) };
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    cpm_sys::pool::broadcast(workers - 1, &|| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= tasks {
            break;
        }
        let item = slots[i]
            .lock()
            .expect("task slot poisoned")
            .take()
            .expect("task claimed twice");
        let result = f(item);
        *results[i].lock().expect("result slot poisoned") = Some(result);
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every task completed")
        })
        .collect()
}

/// [`parallel_map`] for fallible tasks: apply `f` to every item on the pool
/// and collect the results in input order, returning the first error (by input
/// order) if any task failed.  This is the shape every LP sweep needs, so the
/// grid-build / fan-out / `?`-collect boilerplate lives here once.
pub fn try_parallel_map<T, R, E, F>(items: Vec<T>, f: F) -> Result<Vec<R>, E>
where
    T: Send,
    R: Send,
    E: Send,
    F: Fn(T) -> Result<R, E> + Sync,
{
    parallel_map(items, f).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Calls to [`worker_count`] made on this thread.
        pub(super) static WORKER_COUNT_CALLS: Cell<usize> = const { Cell::new(0) };
    }

    #[test]
    fn maps_in_order_regardless_of_task_cost() {
        let items: Vec<usize> = (0..64).collect();
        let out = parallel_map(items, |i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i * i
        });
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn propagates_result_errors_like_the_serial_loop() {
        let items = vec![1i32, 2, 3, 4];
        let out = try_parallel_map(items, |i| {
            if i == 3 {
                Err("three".to_string())
            } else {
                Ok(i * 10)
            }
        });
        assert_eq!(out, Err("three".to_string()));
        assert_eq!(
            try_parallel_map(vec![1i32, 2], |i| Ok::<_, String>(i * 10)),
            Ok(vec![10, 20])
        );
    }

    #[test]
    fn worker_count_is_bounded_by_tasks() {
        assert_eq!(worker_count(0), 1);
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(1_000_000) >= 1);
    }

    #[test]
    fn empty_and_single_item_inputs_short_circuit() {
        let empty: Vec<i32> = Vec::new();
        assert!(parallel_map(empty, |x: i32| x).is_empty());
        assert_eq!(parallel_map(vec![9], |x| x + 1), vec![10]);
    }

    #[test]
    fn single_item_maps_never_reach_worker_count() {
        let calls = || WORKER_COUNT_CALLS.with(Cell::get);
        let before = calls();
        assert_eq!(parallel_map(vec![9], |x| x + 1), vec![10]);
        assert_eq!(
            parallel_map(Vec::<i32>::new(), |x| x + 1),
            Vec::<i32>::new()
        );
        assert_eq!(
            calls(),
            before,
            "a lone task must not ask for a worker count"
        );
        assert_eq!(parallel_map(vec![1, 2], |x| x + 1), vec![2, 3]);
        assert_eq!(calls(), before + 1, "two tasks do ask");
    }

    #[test]
    fn nested_maps_complete_and_keep_order() {
        let out = parallel_map((0..8).collect::<Vec<usize>>(), |i| {
            parallel_map((0..8).collect::<Vec<usize>>(), |j| i * 8 + j)
        });
        let flat: Vec<usize> = out.into_iter().flatten().collect();
        assert_eq!(flat, (0..64).collect::<Vec<_>>());
    }
}
