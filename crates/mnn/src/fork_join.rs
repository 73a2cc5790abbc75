//! The workspace's one fork/join: `jobs` indexed closures run on scoped
//! threads that borrow the caller's stack, the results handed back in job
//! order.
//!
//! Index builds are the main fork/join work in the system — the exact
//! scan's key ranges here, and a deployment's `4 + 2·shards` cold index
//! builds in `amcad-retrieval` — besides a snapshot save, which checksums
//! its payload while writing it. All run off the request path, once per
//! call, so a scoped spawn per call costs nothing that matters and needs
//! no resident threads, no lifetime erasure and no `unsafe`. Job order in,
//! job order out is what makes a build at any width byte-identical to the
//! sequential loop.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Run `f(0)`, …, `f(jobs - 1)` on `width` threads — `width - 1` scoped
/// threads plus the caller — and return the results in job order.
///
/// `width` is clamped to `1..=jobs`; width 1 runs every job inline on the
/// caller. Threads claim job indices from one shared counter, so a long
/// job never holds its siblings behind a static partition. Every job runs
/// even when another panics: once all have finished, the panic of the
/// lowest panicking index is re-raised on the caller.
pub fn fork_join<T, F>(width: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let width = width.clamp(1, jobs.max(1));
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            // index claim only: the RMW hands out each index exactly once,
            // and the results travel back through the scope's joins, so
            // no other data is published by it — Relaxed
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= jobs {
                return done;
            }
            done.push((i, catch_unwind(AssertUnwindSafe(|| f(i)))));
        }
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "the workspace's one fork/join, joined before return: the exact scan and the cold build borrow their inputs for one build and need no resident thread, and amcad-mnn sits below amcad-retrieval, so this is where both can reach it"
    )]
    let mut done = thread::scope(|scope| {
        let helpers: Vec<_> = (1..width).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for helper in helpers {
            // every job is caught above, so a helper itself never panics
            done.extend(
                helper
                    .join()
                    .unwrap_or_else(|payload| resume_unwind(payload)),
            );
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter()
        .map(|(_, result)| result.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_come_back_in_job_order_at_every_width() {
        for width in [0, 1, 2, 7, 40] {
            let out = fork_join(width, 13, |i| i * i);
            let expect: Vec<usize> = (0..13).map(|i| i * i).collect();
            assert_eq!(out, expect, "width={width}");
        }
    }

    #[test]
    fn zero_jobs_return_nothing() {
        for width in [0, 1, 4] {
            let out: Vec<usize> = fork_join(width, 0, |i| i);
            assert!(out.is_empty(), "width={width}");
        }
    }

    #[test]
    fn jobs_borrow_the_callers_state() {
        let data: Vec<u64> = (0..32).map(|i| i * 3).collect();
        let runs: Vec<AtomicU64> = (0..32).map(|_| AtomicU64::new(0)).collect();
        let out = fork_join(4, 32, |i| {
            runs[i].fetch_add(1, Ordering::Relaxed);
            data[i] + 1
        });
        assert_eq!(out, (0..32).map(|i| i * 3 + 1).collect::<Vec<u64>>());
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(r.load(Ordering::Relaxed), 1, "job {i} ran once");
        }
    }

    #[test]
    fn a_job_can_fork_join_again() {
        let out = fork_join(2, 4, |i| {
            fork_join(3, 3, |j| i * 10 + j).iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..4).map(|i| (0..3).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn the_lowest_panicking_job_is_re_raised_after_every_job_ran() {
        for width in [1, 3] {
            let ran = AtomicU64::new(0);
            let result = catch_unwind(AssertUnwindSafe(|| {
                fork_join(width, 8, |i| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if i == 2 || i == 5 {
                        panic!("job {i} exploded");
                    }
                    i
                })
            }));
            let payload = result.expect_err("a job panic must reach the caller");
            let msg = payload
                .downcast_ref::<String>()
                .map_or("<non-String payload>", String::as_str);
            assert_eq!(msg, "job 2 exploded", "width={width}");
            assert_eq!(ran.load(Ordering::Relaxed), 8, "width={width}");
        }
    }
}
