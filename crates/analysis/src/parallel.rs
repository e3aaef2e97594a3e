//! Chunked work-stealing fan-out for independent simulation jobs.
//!
//! Lives in `gcs-analysis` so both the experiment harness (`gcs-bench`)
//! and the scenario campaign runner (`gcs-scenarios`) share one
//! implementation; `gcs-bench` re-exports it as `gcs_bench::parallel_map`.
//!
//! A fixed pool of workers (at most the machine's parallelism) pulls
//! chunks of job indexes from a shared atomic queue until it drains, so a
//! campaign with hundreds of scenario × seed jobs never spawns hundreds
//! of threads, and a straggler job cannot idle the rest of the pool:
//! whichever worker finishes its chunk first steals the next one.
//!
//! Fan-outs nest — a conformance campaign fans scenario × seed jobs out
//! here, and the oracle inside each job fans its gradient sweep out here
//! again — so every worker is claimed from one process-wide
//! `WorkerBudget`: an inner call gets what the outer ones left and runs
//! on its caller's thread when that is nothing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Upper bound on pool size; beyond this, more threads only add
/// scheduler pressure for the simulation-sized jobs this runs.
const MAX_WORKERS: usize = 64;

/// How many chunks each worker would get if jobs were split evenly.
/// Smaller chunks balance stragglers better; larger ones amortize the
/// queue traffic. 4 chunks per worker keeps the tail short while touching
/// the shared counter O(workers) times, not O(jobs).
const CHUNKS_PER_WORKER: usize = 4;

/// The most workers any one fan-out may ask for: the machine's
/// parallelism, capped at [`MAX_WORKERS`].
pub(crate) fn parallelism() -> usize {
    std::thread::available_parallelism()
        .map_or(4, std::num::NonZeroUsize::get)
        .min(MAX_WORKERS)
}

/// Count of fan-out workers currently running, against a limit. The
/// thread that called the fan-out is not counted: it only waits.
struct WorkerBudget {
    // Relaxed everywhere: the count publishes no data, it only sizes pools.
    busy: AtomicUsize,
}

/// The one budget every [`run_workers`] call in the process draws from.
static BUDGET: WorkerBudget = WorkerBudget {
    busy: AtomicUsize::new(0),
};

/// Workers claimed from a [`WorkerBudget`], returned when dropped (so a
/// propagating job panic returns them too).
struct Claim<'a> {
    budget: &'a WorkerBudget,
    workers: usize,
}

impl WorkerBudget {
    /// Claims up to `want` of the `limit − busy` free workers. One worker
    /// is no fan-out — the caller's own thread does that for free — so
    /// fewer than two claims nothing.
    fn claim(&self, want: usize, limit: usize) -> Claim<'_> {
        let mut workers = 0;
        let _ = self
            .busy
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |busy| {
                workers = want.min(limit.saturating_sub(busy));
                if workers < 2 {
                    workers = 0;
                }
                (workers > 0).then_some(busy + workers)
            });
        Claim {
            budget: self,
            workers,
        }
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.budget.busy.fetch_sub(self.workers, Ordering::Relaxed);
    }
}

/// Runs `worker` on `workers` scoped threads, joins them all, and
/// re-raises the first panic payload (in spawn order). Joining by hand
/// matters: a scope left to join on its own replaces the job's payload
/// with its own "a scoped thread panicked".
pub(crate) fn spawn_workers(workers: usize, worker: impl Fn() + Sync) {
    let panic = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(&worker)).collect();
        handles
            .into_iter()
            .fold(None, |first, handle| first.or(handle.join().err()))
    });
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
}

/// Runs `worker` — a loop that drains a shared queue — on up to `want`
/// threads, as many as the process-wide budget still has, or on the
/// calling thread when it has none: nested fan-outs never put more than
/// [`parallelism`] workers on the machine, and a lone one gets every core.
pub(crate) fn run_workers(want: usize, worker: impl Fn() + Sync) {
    run_workers_within(&BUDGET, parallelism(), want, worker);
}

fn run_workers_within(budget: &WorkerBudget, limit: usize, want: usize, worker: impl Fn() + Sync) {
    let claim = budget.claim(want, limit);
    if claim.workers == 0 {
        worker();
    } else {
        spawn_workers(claim.workers, worker);
    }
}

/// Runs independent jobs on a fixed worker pool and returns results in
/// input order (used to parallelize sweep rows and scenario × seed
/// campaigns; each item is typically a whole simulation).
///
/// Workers claim contiguous index chunks from a shared queue, so the
/// thread count is at most `min(parallelism, jobs)` regardless of how many
/// jobs are submitted, and results are bit-identical to the sequential
/// `items.into_iter().map(f)` — scheduling never changes *what* runs,
/// only *where*.
///
/// # Panics
///
/// Propagates the first panic of any job.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_progress(items, f, |_, _| {})
}

/// [`parallel_map`] plus a completion callback invoked **in input order**:
/// `on_done(i, &result)` fires for job `i` only after jobs `0..i` have all
/// fired, as soon as the contiguous done-prefix reaches it. The pool still
/// completes jobs in whatever order the workers get to them — a reorder
/// buffer (the result slots themselves) canonicalizes the reporting, so
/// progress output (e.g. one CI log line per finished scenario × seed) is
/// deterministic even though scheduling is not.
///
/// # Panics
///
/// Propagates the first panic of any job or of the callback.
pub fn parallel_map_progress<T, R, F, P>(items: Vec<T>, f: F, on_done: P) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
    P: Fn(usize, &R) + Sync,
{
    let n = items.len();
    let workers = parallelism().min(n);
    let chunk = n.div_ceil(workers.max(1) * CHUNKS_PER_WORKER).max(1);

    // Jobs and result slots live behind per-index mutexes (the workspace
    // forbids unsafe code); each lock is taken exactly once per job, so
    // contention is nil next to simulation-sized work.
    let jobs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    // Next index to report; the holder of this lock flushes the contiguous
    // prefix of finished results. Lock order is cursor → result slot, and
    // storing a result never holds another lock, so there is no cycle.
    let cursor = Mutex::new(0usize);

    run_workers(workers, || loop {
        let start = next.fetch_add(chunk, Ordering::Relaxed);
        if start >= n {
            break;
        }
        for i in start..(start + chunk).min(n) {
            let item = jobs[i]
                .lock()
                .expect("job slot poisoned")
                .take()
                .expect("job index claimed twice");
            let r = f(item);
            *results[i].lock().expect("result slot poisoned") = Some(r);
            // The callback runs only under the cursor, so a poisoned cursor
            // means a callback panicked on another worker: that one carries
            // the payload to propagate, this one just stops.
            let Ok(mut at) = cursor.lock() else { return };
            while *at < n {
                let slot = results[*at].lock().expect("result slot poisoned");
                match slot.as_ref() {
                    Some(done) => {
                        on_done(*at, done);
                        *at += 1;
                    }
                    None => break,
                }
            }
        }
    });

    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("parallel job dropped")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallel_map_preserves_order() {
        let xs = vec![3u64, 1, 4, 1, 5, 9, 2, 6];
        let ys = parallel_map(xs.clone(), |x| x * 2);
        assert_eq!(ys, xs.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_input() {
        let ys: Vec<u64> = parallel_map(Vec::<u64>::new(), |x| x);
        assert!(ys.is_empty());
    }

    #[test]
    fn parallel_map_matches_sequential_for_large_inputs() {
        // Far more jobs than workers: every chunk boundary is exercised
        // and the output must still be the sequential map, in order.
        let xs: Vec<u64> = (0..1000).collect();
        let ys = parallel_map(xs.clone(), |x| x.wrapping_mul(2_654_435_761) ^ 0x9e37);
        let expected: Vec<u64> = xs
            .iter()
            .map(|x| x.wrapping_mul(2_654_435_761) ^ 0x9e37)
            .collect();
        assert_eq!(ys, expected);
    }

    #[test]
    fn parallel_map_runs_every_job_exactly_once() {
        let calls = AtomicUsize::new(0);
        let ys = parallel_map((0..257u64).collect(), |x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(calls.load(Ordering::Relaxed), 257);
        assert_eq!(ys, (0..257).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_single_item() {
        assert_eq!(parallel_map(vec![7u64], |x| x + 1), vec![8]);
    }

    #[test]
    fn parallel_map_progress_reports_in_input_order() {
        let seen = Mutex::new(Vec::new());
        let ys = parallel_map_progress(
            (0..257u64).collect(),
            |x| x * 3,
            |i, r| {
                seen.lock().unwrap().push((i, *r));
            },
        );
        assert_eq!(ys, (0..257).map(|x| x * 3).collect::<Vec<_>>());
        let seen = seen.into_inner().unwrap();
        // Every job reported exactly once, in canonical input order,
        // regardless of completion order.
        assert_eq!(
            seen,
            (0..257).map(|i| (i as usize, i * 3)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn parallel_map_progress_handles_empty_and_single() {
        let ys: Vec<u64> = parallel_map_progress(Vec::new(), |x| x, |_, _| {});
        assert!(ys.is_empty());
        let count = AtomicUsize::new(0);
        let ys = parallel_map_progress(
            vec![9u64],
            |x| x,
            |i, r| {
                assert_eq!((i, *r), (0, 9));
                count.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(ys, vec![9]);
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn budget_hands_out_what_is_left_and_takes_it_back() {
        let budget = WorkerBudget {
            busy: AtomicUsize::new(0),
        };
        let outer = budget.claim(3, 4);
        assert_eq!(outer.workers, 3);
        // One worker left: not a fan-out, so nothing is claimed.
        assert_eq!(budget.claim(4, 4).workers, 0);
        assert_eq!(budget.busy.load(Ordering::Relaxed), 3);
        drop(outer);
        assert_eq!(budget.busy.load(Ordering::Relaxed), 0);
        let all = budget.claim(9, 4);
        assert_eq!(all.workers, 4);
        assert_eq!(budget.claim(2, 4).workers, 0);
    }

    #[test]
    fn nested_fan_out_runs_on_the_outer_workers() {
        let budget = WorkerBudget {
            busy: AtomicUsize::new(0),
        };
        let caller = std::thread::current().id();
        let leaves = AtomicUsize::new(0);
        run_workers_within(&budget, 2, 2, || {
            let outer = std::thread::current().id();
            assert_ne!(outer, caller, "a free budget fans out");
            assert_eq!(budget.busy.load(Ordering::Relaxed), 2);
            // The budget is spent, so the inner fan-out must not spawn.
            run_workers_within(&budget, 2, 2, || {
                assert_eq!(std::thread::current().id(), outer);
                leaves.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(leaves.load(Ordering::Relaxed), 2);
        assert_eq!(budget.busy.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn budget_is_returned_when_a_worker_panics() {
        let budget = WorkerBudget {
            busy: AtomicUsize::new(0),
        };
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_workers_within(&budget, 2, 2, || panic!("boom"));
        }));
        assert!(caught.is_err());
        assert_eq!(budget.busy.load(Ordering::Relaxed), 0);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn parallel_map_propagates_job_panics() {
        let _ = parallel_map(vec![1u64, 2, 3], |x| {
            assert!(x != 2, "boom");
            x
        });
    }
}
