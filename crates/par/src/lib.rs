//! # btc-par
//!
//! A hermetic, std-only work-stealing thread pool for the experiment
//! sweeps of the reproduction. Every reproduced artifact (Figure 6/8/10,
//! Table II/III, the evasion sweep, the detection baselines) is a list of
//! *independent, deterministically-seeded* runs; this crate fans such a
//! list across cores without changing a single output byte.
//!
//! ## Why not rayon/crossbeam
//!
//! The workspace builds offline with zero external crates (PR 1 shimmed
//! the externals out deliberately). The pool here is built from
//! `std::thread::scope`, `Mutex`/`Condvar`-guarded deques and per-index `Mutex`
//! result slots only.
//!
//! ## Determinism contract
//!
//! [`par_map`] writes the result of input `i` into output slot `i`
//! (per-index slots, no reordering reduction), so for a pure `f` the
//! returned vector is **identical for every `jobs` value** — byte for
//! byte, regardless of how the OS schedules the workers. The serial path
//! (`jobs <= 1` or a single item) runs `f` inline on the caller's thread
//! with no pool at all, which makes `--jobs 1` the exact pre-parallelism
//! code path.
//!
//! ## Stealing discipline
//!
//! Tasks are dealt round-robin into one `Mutex<VecDeque>` per worker.
//! A worker pops its *own* deque from the back (LIFO: the most recently
//! dealt — and thus cache-warmest — task) and steals from *other* deques
//! at the front (FIFO: the oldest task, the one its owner would reach
//! last), the classic Chase–Lev discipline approximated with locks. A
//! worker that finds every deque empty while tasks are still running
//! parks on a `Condvar` rather than spinning; it is woken when the last
//! task completes (or, in future use, when new work is pushed).
//!
//! ## Panics
//!
//! A panic inside `f` aborts the sweep: remaining queued tasks are
//! skipped, the pool drains, and the *first* panic payload is re-raised
//! on the caller's thread — the same observable behavior as a panic in a
//! serial `map` loop, minus any later side effects.

#![warn(missing_docs)]

pub mod phase;

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};

/// The default worker count: `std::thread::available_parallelism`, or 1
/// when the parallelism cannot be queried (the serial path).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A task queued for the pool: the input index plus its payload.
type Task<T> = (usize, T);

/// Shared pool state for one [`par_map`] invocation.
struct Shared<T> {
    /// One lock-guarded deque per worker (owner pops back, thieves pop
    /// front).
    deques: Vec<Mutex<VecDeque<Task<T>>>>,
    /// Tasks not yet *completed* (queued + running), guarded for `work`.
    pending: Mutex<usize>,
    /// Parking spot for workers that find every deque empty while tasks
    /// are still in flight; notified on completion of the last task.
    work: Condvar,
    /// Set by the first panicking task; stops idle workers from picking
    /// up further work.
    poisoned: AtomicBool,
}

impl<T> Shared<T> {
    /// Pops work for worker `me`: own deque from the back, then a sweep
    /// of the other deques from the front.
    fn find_task(&self, me: usize) -> Option<Task<T>> {
        // lint:allow(panic-path): pool locks poison only if pool code panics while holding one; tasks run under catch_unwind with no lock held
        if let Some(t) = self.deques[me].lock().expect("deque lock").pop_back() {
            return Some(t);
        }
        let n = self.deques.len();
        for k in 1..n {
            let victim = (me + k) % n;
            // lint:allow(panic-path): pool lock poisoning, unreachable (see find_task)
            if let Some(t) = self.deques[victim].lock().expect("deque lock").pop_front() {
                return Some(t);
            }
        }
        None
    }

    /// Marks one task complete, waking parked workers when it was the
    /// last one.
    fn complete_one(&self) {
        // lint:allow(panic-path): pool lock poisoning, unreachable (see find_task)
        let mut pending = self.pending.lock().expect("pending lock");
        *pending -= 1;
        if *pending == 0 {
            self.work.notify_all();
        }
    }
}

/// Runs `f` over `items` on `jobs` worker threads, returning the results
/// in **input order**. See the crate docs for the determinism contract.
///
/// `jobs <= 1` (or fewer than two items) executes serially on the
/// caller's thread.
///
/// # Panics
///
/// Re-raises the first panic raised by any invocation of `f`.
pub fn par_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if jobs <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n_tasks = items.len();
    let workers = jobs.min(n_tasks);

    // Per-index result slots: each task writes exactly its own slot, so
    // no ordering pass is needed afterwards (and the per-slot locks are
    // uncontended — one writer each).
    let slots: Vec<Mutex<Option<R>>> = (0..n_tasks).map(|_| Mutex::new(None)).collect();
    let first_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    let mut deques: Vec<VecDeque<Task<T>>> = (0..workers).map(|_| VecDeque::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        deques[i % workers].push_back((i, item));
    }
    let shared = Shared {
        deques: deques.into_iter().map(Mutex::new).collect(),
        pending: Mutex::new(n_tasks),
        work: Condvar::new(),
        poisoned: AtomicBool::new(false),
    };

    std::thread::scope(|scope| {
        for me in 0..workers {
            let shared = &shared;
            let slots = &slots;
            let f = &f;
            let first_panic = &first_panic;
            scope.spawn(move || loop {
                match shared.find_task(me) {
                    Some((idx, item)) => {
                        if !shared.poisoned.load(Ordering::Acquire) {
                            match catch_unwind(AssertUnwindSafe(|| f(item))) {
                                Ok(r) => {
                                    // Each index is dealt to exactly one
                                    // deque and popped once.
                                    // lint:allow(panic-path): pool lock poisoning, unreachable (see find_task)
                                    *slots[idx].lock().expect("slot lock") = Some(r);
                                }
                                Err(payload) => {
                                    shared.poisoned.store(true, Ordering::Release);
                                    let mut slot =
                                        // lint:allow(panic-path): pool lock poisoning, unreachable (see find_task)
                                        first_panic.lock().expect("panic slot lock");
                                    if slot.is_none() {
                                        *slot = Some(payload);
                                    }
                                }
                            }
                        }
                        shared.complete_one();
                    }
                    None => {
                        // Every deque is empty. Park until the in-flight
                        // tasks finish; with a fixed task set no new work
                        // can appear, so pending == 0 is the exit signal.
                        // lint:allow(panic-path): pool lock poisoning, unreachable (see find_task)
                        let mut pending = shared.pending.lock().expect("pending lock");
                        while *pending > 0 {
                            // lint:allow(panic-path): pool lock poisoning, unreachable (see find_task)
                            pending = shared.work.wait(pending).expect("pool wait");
                        }
                        return;
                    }
                }
            });
        }
    });

    // lint:allow(panic-path): pool lock poisoning, unreachable (see find_task)
    if let Some(payload) = first_panic.into_inner().expect("panic slot lock") {
        resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock") // lint:allow(panic-path): see find_task; every slot is written before the scope joins
                .expect("every task completed")
        })
        .collect()
}

/// [`par_map`] for side-effecting work without a result value.
///
/// # Panics
///
/// Re-raises the first panic raised by any invocation of `f`.
pub fn par_for_each<T, F>(jobs: usize, items: Vec<T>, f: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    par_map(jobs, items, f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_input_order_for_every_job_count() {
        let items: Vec<u64> = (0..101).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for jobs in [1, 2, 3, 7, 32] {
            let got = par_map(jobs, items.clone(), |x| x * x + 1);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(par_map(8, empty, |x| x + 1), Vec::<u32>::new());
        assert_eq!(par_map(8, vec![41], |x| x + 1), vec![42]);
    }

    #[test]
    fn more_jobs_than_items() {
        assert_eq!(par_map(64, vec![1, 2, 3], |x| x * 10), vec![10, 20, 30]);
    }

    #[test]
    fn runs_every_task_exactly_once() {
        let hits = AtomicUsize::new(0);
        let out = par_map(4, (0..1000).collect::<Vec<usize>>(), |i| {
            hits.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
        assert_eq!(out, (0..1000).collect::<Vec<usize>>());
    }

    #[test]
    fn propagates_the_panic_payload() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            par_map(4, (0..64).collect::<Vec<u32>>(), |i| {
                if i == 13 {
                    panic!("boom at {i}");
                }
                i
            })
        }))
        .unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "?".into());
        assert!(msg.contains("boom at"), "payload {msg:?}");
    }

    #[test]
    fn serial_path_panics_too() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            par_map(1, vec![1u8], |_| -> u8 { panic!("serial boom") })
        }));
        assert!(err.is_err());
    }

    #[test]
    fn par_for_each_visits_everything() {
        let sum = AtomicUsize::new(0);
        par_for_each(3, (1..=100).collect::<Vec<usize>>(), |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
