//! `cpm_eval::par` semantics that depend on process-wide state: the
//! `CPM_THREADS` variable and the persistent worker pool.  Every test holds
//! [`SERIAL`], so no two of them change the variable or spawn threads at the
//! same time.

use std::collections::HashSet;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use cpm_eval::par::{parallel_map, worker_count};

static SERIAL: Mutex<()> = Mutex::new(());

/// Holds [`SERIAL`] and sets `CPM_THREADS` for the test's duration.
struct Threads {
    _serial: MutexGuard<'static, ()>,
}

impl Threads {
    fn set(value: Option<&str>) -> Self {
        let serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        Threads::put(value);
        Threads { _serial: serial }
    }

    fn put(value: Option<&str>) {
        match value {
            Some(value) => std::env::set_var("CPM_THREADS", value),
            None => std::env::remove_var("CPM_THREADS"),
        }
    }
}

impl Drop for Threads {
    fn drop(&mut self) {
        Threads::put(None);
    }
}

#[test]
fn worker_count_follows_cpm_threads_changed_after_the_first_call() {
    let _threads = Threads::set(Some("3"));
    assert_eq!(worker_count(64), 3);
    Threads::put(Some("5"));
    assert_eq!(worker_count(64), 5);
    assert_eq!(worker_count(2), 2, "never more workers than tasks");
    Threads::put(Some("1"));
    assert_eq!(worker_count(64), 1);
    Threads::put(Some("not a number"));
    let available = std::thread::available_parallelism().map_or(1, |p| p.get());
    assert_eq!(worker_count(64), available.min(64));
}

#[test]
fn a_panic_in_a_pooled_task_reaches_the_caller() {
    let _threads = Threads::set(Some("4"));
    let outcome = std::panic::catch_unwind(|| {
        parallel_map((0..16).collect::<Vec<u32>>(), |i| {
            if i == 11 {
                panic!("task {i} failed");
            }
            i
        })
    });
    let payload = outcome.expect_err("the task's panic must reach the caller");
    assert_eq!(
        payload.downcast_ref::<String>().map(String::as_str),
        Some("task 11 failed")
    );
    // The pool survives the panic.
    assert_eq!(
        parallel_map((0..16).collect::<Vec<u32>>(), |i| i * 2),
        (0..16).map(|i| i * 2).collect::<Vec<_>>()
    );
}

/// Pool threads in this process: tasks under `/proc/self/task` named
/// `cpm-pool-*`.  Counting the whole process would also count the test
/// harness's own threads, which come and go while this test runs.
#[cfg(target_os = "linux")]
fn pool_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("cpm-pool-"))
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn the_pool_is_reused_across_calls() {
    let _threads = Threads::set(Some("4"));
    let runners = Mutex::new(HashSet::new());
    let batch = || {
        parallel_map((0..8).collect::<Vec<u64>>(), |x| {
            runners.lock().unwrap().insert(std::thread::current().id());
            x * x
        })
    };
    // Four workers are the caller and three pool threads.  A pool thread
    // names itself when it first runs, which may be after the map that
    // started it has returned, so wait for the names.
    batch();
    let deadline = Instant::now() + Duration::from_secs(10);
    while pool_threads() < 3 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(pool_threads(), 3, "the first map starts three pool threads");
    for _ in 0..1000 {
        assert_eq!(batch(), [0, 1, 4, 9, 16, 25, 36, 49]);
    }
    assert_eq!(pool_threads(), 3, "the pool must not grow per call");
    // The caller plus at most three pool threads ran every task: no thread
    // was started per call.
    let runners = runners.into_inner().unwrap().len();
    assert!(runners <= 4, "{runners} distinct threads ran tasks");
}
