//! The shared-counter batch scheduler.
//!
//! Grid points are independent, so the only scheduling concern is load
//! balance: run lengths vary by orders of magnitude across a grid (a Figure 7
//! multi-programming point simulates billions of cycles, a Figure 6 point
//! none at all).  Every worker takes the next unclaimed job index from one
//! shared atomic counter, so a worker that finishes early simply claims
//! more.
//!
//! Determinism: every job writes its result into its own pre-allocated slot,
//! so the output order is the input order no matter which worker ran what
//! when.  Combined with a deterministic job function this makes the batch
//! output independent of the thread count — the property
//! [`crate::run_grid`] asserts.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `count` jobs across `threads` OS threads and returns their results in
/// job order.  `job(i)` must be safe to call from any thread; results land in
/// slot `i` regardless of which worker executed the job.
///
/// With `threads <= 1` the batch runs inline on the caller's thread, which is
/// the serial reference the parallel path must reproduce bit-for-bit.
pub fn run_batch<T, F>(count: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || count <= 1 {
        return (0..count).map(job).collect();
    }

    // The counter only hands out distinct indices, which `fetch_add` does at
    // any ordering; results travel through the slot mutexes and the scope's
    // join, so `Relaxed` publishes nothing else.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads.min(count) {
            let (next, slots, job) = (&next, &slots, &job);
            scope.spawn(move || loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= count {
                    break;
                }
                let result = job(index);
                *slots[index].lock().expect("slot lock poisoned") = Some(result);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock poisoned")
                .expect("every job index was executed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_job_order_for_any_thread_count() {
        let serial = run_batch(17, 1, |i| i * i);
        for threads in [2, 3, 8, 32] {
            assert_eq!(run_batch(17, threads, |i| i * i), serial);
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let executions = AtomicUsize::new(0);
        let out = run_batch(100, 4, |i| {
            executions.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(executions.load(Ordering::Relaxed), 100);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_job_lengths_complete_in_job_order() {
        // One long job claimed first plus many short ones: the batch must
        // still complete with correct results (peers keep claiming the rest).
        let out = run_batch(33, 4, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i + 1
        });
        assert_eq!(out, (1..=33).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_batches() {
        assert_eq!(run_batch(0, 8, |i| i), Vec::<usize>::new());
        assert_eq!(run_batch(1, 8, |i| i + 41), vec![41]);
    }
}
