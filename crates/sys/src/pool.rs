//! A persistent helper-thread pool for borrowed (scoped) work.
//!
//! [`broadcast`] runs one `Fn() + Sync` closure on the calling thread and, at
//! the same time, on up to `helpers` pool threads, and returns only after
//! every invocation has returned.  That is the contract of
//! `std::thread::scope`, minus the thread spawn per call: pool threads start
//! lazily, on the first call that asks for them, and then park on a condvar
//! for the life of the process.  A call that finds fewer free threads than
//! it asks for starts the difference, so concurrent callers each get their
//! helpers, as they would with their own scoped threads, and one caller's
//! long task never takes a helper from another.  The pool therefore holds
//! as many threads as the peak concurrent demand and never shrinks.
//!
//! The closure is expected to claim its own work items (an atomic index, say),
//! so the calling thread can always finish a job alone.  A helper that wakes
//! late just finds nothing left to claim.  This is also why nested and
//! concurrent calls cannot deadlock: no caller ever waits for a job that no
//! thread has started, only for helpers already running its closure.
//!
//! A panic in any invocation is caught, the remaining invocations run to
//! completion, and the first payload is re-raised on the calling thread.
//!
//! # Why this needs `unsafe`
//!
//! Pool threads are `'static`, but the closure borrows the caller's stack.
//! [`broadcast`] erases the borrow's lifetime so a helper can hold it.  That
//! is sound because a helper only reaches the closure through a posted job it
//! has joined under the pool lock, and the caller does not return (or unwind)
//! until it has retracted the job under that lock *and* seen its last helper
//! leave.  After that no thread can still call the closure.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

type Work<'a> = dyn Fn() + Sync + 'a;
type Payload = Box<dyn Any + Send>;

struct Pool {
    state: Mutex<State>,
    /// Signalled when a job is posted; idle helpers wait here.
    posted: Condvar,
    /// Signalled when a job's last helper leaves; callers wait here.
    left: Condvar,
}

#[derive(Default)]
struct State {
    /// Helper threads parked or about to park, inside no job.
    idle: usize,
    /// Helper threads ever started, for their names.
    next_thread: usize,
    next_id: u64,
    jobs: Vec<Job>,
}

struct Job {
    id: u64,
    /// Only valid while the posting caller is inside [`broadcast`].
    work: &'static Work<'static>,
    /// Helpers still wanted; the caller zeroes it when it retracts the job.
    wanted: usize,
    /// Helpers currently running `work`.
    inside: usize,
    panic: Option<Payload>,
}

impl Pool {
    fn lock(&self) -> MutexGuard<'_, State> {
        // No code panics while holding the lock, so poisoning cannot carry a
        // broken invariant; recover rather than cascade.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Start helper threads until `helpers` idle ones are left over after
    /// every posted job's outstanding wants.  A failed spawn just leaves the
    /// pool smaller: callers finish their jobs alone.
    fn grow(&'static self, state: &mut State, helpers: usize) {
        let wanted: usize = state.jobs.iter().map(|job| job.wanted).sum();
        while state.idle < wanted + helpers {
            let spawned = std::thread::Builder::new()
                .name(format!("cpm-pool-{}", state.next_thread))
                .spawn(move || self.help());
            if spawned.is_err() {
                break;
            }
            state.next_thread += 1;
            state.idle += 1;
        }
    }

    fn help(&self) {
        let mut state = self.lock();
        loop {
            let Some(job) = state.jobs.iter_mut().find(|job| job.wanted > 0) else {
                state = self
                    .posted
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            job.wanted -= 1;
            job.inside += 1;
            let (id, work) = (job.id, job.work);
            state.idle -= 1;
            drop(state);
            let outcome = panic::catch_unwind(AssertUnwindSafe(work));
            state = self.lock();
            let job = state
                .jobs
                .iter_mut()
                .find(|job| job.id == id)
                .expect("a job stays posted while a helper is inside it");
            job.inside -= 1;
            if let Err(payload) = outcome {
                job.panic.get_or_insert(payload);
            }
            if job.inside == 0 {
                self.left.notify_all();
            }
            state.idle += 1;
        }
    }
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(State::default()),
        posted: Condvar::new(),
        left: Condvar::new(),
    })
}

/// Run `work` on the calling thread and on up to `helpers` pool threads at
/// once; return when every invocation has returned.  `helpers == 0` is a
/// plain call that never touches the pool.
///
/// # Panics
///
/// Re-raises the first panic of any invocation, after all have finished.
pub fn broadcast(helpers: usize, work: &(dyn Fn() + Sync)) {
    if helpers == 0 {
        work();
        return;
    }
    let pool = pool();
    // SAFETY: the erased reference is only called by helpers that joined the
    // job under the pool lock, and this function does not return or unwind
    // until the job is retracted and its `inside` count is zero (see the
    // module docs), so every call happens while `work` is still borrowed.
    let erased = unsafe { std::mem::transmute::<&Work<'_>, &'static Work<'static>>(work) };
    let id = {
        let mut state = pool.lock();
        pool.grow(&mut state, helpers);
        let id = state.next_id;
        state.next_id += 1;
        state.jobs.push(Job {
            id,
            work: erased,
            wanted: helpers,
            inside: 0,
            panic: None,
        });
        id
    };
    for _ in 0..helpers {
        pool.posted.notify_one();
    }

    let own = panic::catch_unwind(AssertUnwindSafe(work));

    let mut state = pool.lock();
    let job = loop {
        let at = state
            .jobs
            .iter()
            .position(|job| job.id == id)
            .expect("only the posting caller removes a job");
        if state.jobs[at].inside == 0 {
            break state.jobs.remove(at);
        }
        state.jobs[at].wanted = 0;
        state = pool
            .left
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner);
    };
    drop(state);
    if let Err(payload) = own {
        panic::resume_unwind(payload);
    }
    if let Some(payload) = job.panic {
        panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Claim-by-index work: every index is handled exactly once, whichever
    /// threads join.
    fn sum_by_claim(helpers: usize, items: usize) -> usize {
        let next = AtomicUsize::new(0);
        let total = AtomicUsize::new(0);
        broadcast(helpers, &|| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= items {
                break;
            }
            total.fetch_add(i, Ordering::Relaxed);
        });
        total.into_inner()
    }

    #[test]
    fn every_item_is_claimed_once_for_any_helper_count() {
        for helpers in 0..4 {
            assert_eq!(sum_by_claim(helpers, 1000), 999 * 1000 / 2);
        }
    }

    #[test]
    fn nested_and_concurrent_broadcasts_complete() {
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        let inner = AtomicUsize::new(0);
                        broadcast(2, &|| {
                            inner.fetch_add(sum_by_claim(1, 10), Ordering::Relaxed);
                        });
                        // The caller and each helper that joined added 45.
                        let got = inner.into_inner();
                        assert!(got >= 45 && got.is_multiple_of(45), "{got}");
                    }
                });
            }
        });
    }

    #[test]
    fn concurrent_callers_each_get_their_helpers() {
        // Two callers asking for one helper each must run four invocations
        // at once, however many threads earlier calls left in the pool.
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let work = || {
            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while peak.load(Ordering::SeqCst) < 4 && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
            running.fetch_sub(1, Ordering::SeqCst);
        };
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| broadcast(1, &work));
            }
        });
        assert_eq!(peak.into_inner(), 4);
    }

    #[test]
    fn a_helper_panic_reaches_the_caller_and_the_pool_survives() {
        let caller = std::thread::current().id();
        let helper_joined = std::sync::atomic::AtomicBool::new(false);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            broadcast(1, &|| {
                if std::thread::current().id() != caller {
                    helper_joined.store(true, Ordering::SeqCst);
                    panic!("helper failed");
                }
                // Keep the caller inside the job until the helper has joined.
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                while !helper_joined.load(Ordering::SeqCst) && std::time::Instant::now() < deadline
                {
                    std::thread::yield_now();
                }
            })
        }));
        assert!(helper_joined.load(Ordering::SeqCst), "no helper joined");
        let payload = outcome.expect_err("the helper's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"helper failed"));
        assert_eq!(sum_by_claim(1, 100), 99 * 100 / 2);
    }
}
