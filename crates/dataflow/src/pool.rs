//! Scoped worker-thread execution.
//!
//! Two helpers drive everything. [`par_map_indexed`] fans a vector of
//! work items out to `workers` threads with dynamic (atomic-counter)
//! scheduling, so skewed partitions — e.g. popular blocking keys — don't
//! serialize a stage behind one thread. [`try_par_map_indexed`] is the
//! fault-tolerant variant used by the job path: each task runs under
//! `catch_unwind`, failed attempts are retried with backoff up to the
//! engine's [`FaultPolicy`], and a task that exhausts its budget turns
//! into a typed [`Error::Task`] instead of tearing down the process.

use crate::fault::{FaultInjector, FaultPolicy};
use crate::govern::CancellationToken;
use bigdansing_common::error::Error;
use bigdansing_common::metrics::{swap_deep_clones, Metrics};
use bigdansing_common::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Apply `f` to every item, in parallel across up to `workers` threads,
/// preserving item order in the result.
///
/// With `workers <= 1` (or a single item) the items run inline on the
/// calling thread, which keeps the Sequential engine free of thread
/// overhead and makes it a deterministic oracle.
pub fn par_map_indexed<I, R, F>(workers: usize, items: Vec<I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(usize, I) -> R + Sync,
{
    let n = items.len();
    if workers <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, it)| f(i, it))
            .collect();
    }
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers.min(n) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // The atomic counter hands each index to exactly one
                // worker, so the slot is always populated here.
                let Some(item) = slots[i].lock().take() else {
                    continue;
                };
                let r = f(i, item);
                *results[i].lock() = Some(r);
            });
        }
    });
    let out: Vec<R> = results.into_iter().flat_map(Mutex::into_inner).collect();
    debug_assert_eq!(out.len(), n, "pool: missing result slot");
    out
}

/// Per-stage execution context for the fault-tolerant task runner:
/// which policy bounds retries, which injector (if any) perturbs
/// attempts, the stage id that keys the injector's deterministic rolls,
/// and where to report counters.
pub(crate) struct TaskCtx {
    pub(crate) policy: FaultPolicy,
    pub(crate) injector: Option<FaultInjector>,
    pub(crate) stage: u64,
    pub(crate) metrics: Arc<Metrics>,
    /// The running job's cancellation token, checked between partition
    /// tasks and between retry attempts — never mid-task.
    pub(crate) cancel: CancellationToken,
}

/// Extract a human-readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked (non-string payload)".to_string()
    }
}

/// Sleep for `backoff`, waking early if the job's token trips so a
/// cancel or deadline is honoured within milliseconds instead of after
/// the whole (possibly capped-at-a-second) backoff.
fn backoff_sleep(cancel: &CancellationToken, backoff: std::time::Duration) {
    const SLICE: std::time::Duration = std::time::Duration::from_millis(2);
    let mut remaining = backoff;
    while !remaining.is_zero() && !cancel.is_cancelled() {
        let nap = remaining.min(SLICE);
        std::thread::sleep(nap);
        remaining = remaining.saturating_sub(nap);
    }
}

/// Run one task to completion under the retry policy. Every attempt —
/// including the injector's contribution — executes under
/// `catch_unwind`, so a panicking partition is isolated to this task
/// and surfaces as a retriable failure rather than an abort.
///
/// Retries are reserved for failures that can plausibly clear: a typed
/// error that is not [transient](Error::is_transient), or a panic
/// repeating the same payload on the same partition, short-circuits the
/// rest of the budget (counted in `retries_short_circuited`) instead of
/// sleeping through backoffs that cannot help.
fn run_task<I, R, F>(ctx: &TaskCtx, i: usize, item: &I, f: &F) -> Result<R, Error>
where
    F: Fn(usize, &I) -> Result<R, Error>,
{
    let mut attempt = 0u32;
    let mut last_panic: Option<String> = None;
    loop {
        // Cooperative cancellation point: a tripped token surfaces as
        // Error::Cancelled directly (not a retriable task failure).
        ctx.cancel.check()?;
        attempt += 1;
        // Deep copies are tallied per thread: this attempt's go to the
        // task's engine, and an enclosing inline task gets its own back.
        let outer = swap_deep_clones(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(inj) = &ctx.injector {
                inj.inject_task(ctx.stage, i, attempt);
            }
            f(i, item)
        }));
        let made = swap_deep_clones(outer);
        if made > 0 {
            Metrics::add(&ctx.metrics.tuples_cloned, made);
        }
        let (cause, deterministic) = match outcome {
            Ok(Ok(r)) => return Ok(r),
            Ok(Err(e @ Error::Cancelled { .. })) => return Err(e),
            // A rule-guard abort (soft time budget, strict-mode
            // straggler block) is already typed and attributed to its
            // rule; the guard's verdict is deterministic, so it
            // propagates unwrapped and unretried.
            Ok(Err(e @ Error::Rule { .. })) => return Err(e),
            Ok(Err(e)) => (e.to_string(), !e.is_transient()),
            Err(payload) => {
                Metrics::add(&ctx.metrics.panics_caught, 1);
                let msg = panic_message(payload);
                let repeat = last_panic.as_deref() == Some(msg.as_str());
                last_panic = Some(msg.clone());
                (msg, repeat)
            }
        };
        if attempt >= ctx.policy.max_attempts.max(1) {
            return Err(Error::Task {
                partition: i,
                attempts: attempt,
                cause,
            });
        }
        if deterministic {
            Metrics::add(&ctx.metrics.retries_short_circuited, 1);
            return Err(Error::Task {
                partition: i,
                attempts: attempt,
                cause,
            });
        }
        Metrics::add(&ctx.metrics.tasks_retried, 1);
        let backoff = ctx.policy.backoff_for(attempt);
        if !backoff.is_zero() {
            backoff_sleep(&ctx.cancel, backoff);
        }
    }
}

/// Fault-tolerant variant of [`par_map_indexed`]: items are borrowed
/// (so a failed attempt can be re-run against the same input), each
/// task is retried per the context's policy with panic isolation, and
/// result order matches item order. The first error — by partition
/// index, deterministically — fails the stage; once any task exhausts
/// its budget the remaining queue is abandoned.
pub(crate) fn try_par_map_indexed<I, R, F>(
    workers: usize,
    items: &[I],
    ctx: &TaskCtx,
    f: F,
) -> Result<Vec<R>, Error>
where
    I: Sync,
    R: Send,
    F: Fn(usize, &I) -> Result<R, Error> + Sync,
{
    let n = items.len();
    if workers <= 1 || n <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, it)| run_task(ctx, i, it, &f))
            .collect();
    }
    let results: Vec<Mutex<Option<Result<R, Error>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let aborted = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..workers.min(n) {
            s.spawn(|| loop {
                if aborted.load(Ordering::Relaxed) || ctx.cancel.is_cancelled() {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = run_task(ctx, i, &items[i], &f);
                if r.is_err() {
                    aborted.store(true, Ordering::Relaxed);
                }
                *results[i].lock() = Some(r);
            });
        }
    });
    // Cancellation dominates any per-task outcome: a tripped token
    // means the stage was abandoned, not that a partition failed.
    ctx.cancel.check()?;
    let mut out = Vec::with_capacity(n);
    let mut first_err: Option<Error> = None;
    for slot in results {
        match slot.into_inner() {
            Some(Ok(r)) => out.push(r),
            Some(Err(e)) => {
                first_err = Some(e);
                break;
            }
            // A later-indexed task failed and aborted the queue before
            // this slot ran; the error is found below.
            None => {}
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    if out.len() == n {
        Ok(out)
    } else {
        // Unreachable by construction (a missing slot implies an error
        // was recorded), but never panic in the fallible path.
        Err(Error::Task {
            partition: out.len(),
            attempts: 0,
            cause: "stage aborted without a recorded error".into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    fn quiet_ctx(max_attempts: u32) -> TaskCtx {
        TaskCtx {
            policy: FaultPolicy {
                max_attempts,
                backoff: Duration::ZERO,
            },
            injector: None,
            stage: 0,
            metrics: Metrics::new_shared(),
            cancel: CancellationToken::new("test", None),
        }
    }

    #[test]
    fn preserves_order() {
        let out = par_map_indexed(4, (0..100).collect::<Vec<i32>>(), |i, x| (i, x * 2));
        for (i, (idx, v)) in out.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*v, (i as i32) * 2);
        }
    }

    #[test]
    fn sequential_path_matches_parallel() {
        let items: Vec<u64> = (0..57).collect();
        let seq = par_map_indexed(1, items.clone(), |_, x| x * x);
        let par = par_map_indexed(8, items, |_, x| x * x);
        assert_eq!(seq, par);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let count = AtomicU64::new(0);
        let _ = par_map_indexed(6, vec![(); 500], |_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn handles_empty_and_single() {
        let out: Vec<i32> = par_map_indexed(4, Vec::<i32>::new(), |_, x| x);
        assert!(out.is_empty());
        let out = par_map_indexed(4, vec![9], |_, x: i32| x + 1);
        assert_eq!(out, vec![10]);
    }

    #[test]
    fn uses_multiple_threads_when_asked() {
        use std::collections::HashSet;
        use std::sync::Mutex as StdMutex;
        let ids = StdMutex::new(HashSet::new());
        // enough items with a small sleep so several threads participate
        par_map_indexed(4, vec![(); 64], |_, _| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            ids.lock().unwrap().insert(std::thread::current().id());
        });
        assert!(ids.lock().unwrap().len() > 1, "expected >1 worker thread");
    }

    #[test]
    fn try_variant_preserves_order() {
        let items: Vec<i32> = (0..100).collect();
        let ctx = quiet_ctx(1);
        let out = try_par_map_indexed(4, &items, &ctx, |i, x| Ok((i, *x * 2))).unwrap();
        for (i, (idx, v)) in out.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*v, (i as i32) * 2);
        }
    }

    #[test]
    fn panics_are_isolated_and_retried() {
        let attempts = AtomicU64::new(0);
        let items = vec![(); 8];
        let ctx = quiet_ctx(3);
        let out = try_par_map_indexed(2, &items, &ctx, |i, _| {
            // partition 5 panics on its first attempt only
            if i == 5 && attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("boom once");
            }
            Ok(i)
        })
        .unwrap();
        assert_eq!(out, (0..8).collect::<Vec<usize>>());
        assert_eq!(Metrics::get(&ctx.metrics.panics_caught), 1);
        assert_eq!(Metrics::get(&ctx.metrics.tasks_retried), 1);
    }

    #[test]
    fn exhausted_retries_become_task_error() {
        let items = vec![(); 4];
        let ctx = quiet_ctx(2);
        let err = try_par_map_indexed(2, &items, &ctx, |i, _| -> Result<(), Error> {
            if i == 3 {
                panic!("always fails");
            }
            Ok(())
        })
        .unwrap_err();
        match err {
            Error::Task {
                partition,
                attempts,
                cause,
            } => {
                assert_eq!(partition, 3);
                assert_eq!(attempts, 2);
                assert!(cause.contains("always fails"), "{cause}");
            }
            other => panic!("expected Error::Task, got {other:?}"),
        }
        assert_eq!(Metrics::get(&ctx.metrics.panics_caught), 2);
    }

    #[test]
    fn first_error_by_partition_index_wins() {
        let items = vec![(); 16];
        let ctx = quiet_ctx(1);
        let err = try_par_map_indexed(4, &items, &ctx, |i, _| -> Result<(), Error> {
            if i >= 2 {
                Err(Error::Io(format!("part {i}")))
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        // inline path is deterministic; parallel path reports the
        // lowest-indexed recorded failure
        assert!(matches!(err, Error::Task { partition, .. } if partition >= 2));
    }

    #[test]
    fn inner_errors_count_attempts_without_panics() {
        let items = vec![(); 1];
        let ctx = quiet_ctx(3);
        let err = try_par_map_indexed(1, &items, &ctx, |_, _| -> Result<(), Error> {
            Err(Error::Io("disk on fire".into()))
        })
        .unwrap_err();
        match err {
            Error::Task {
                attempts, cause, ..
            } => {
                assert_eq!(attempts, 3);
                assert!(cause.contains("disk on fire"), "{cause}");
            }
            other => panic!("expected Error::Task, got {other:?}"),
        }
        assert_eq!(Metrics::get(&ctx.metrics.panics_caught), 0);
        assert_eq!(Metrics::get(&ctx.metrics.tasks_retried), 2);
    }

    #[test]
    fn cancellation_preempts_the_stage_with_a_typed_error() {
        use bigdansing_common::error::CancelReason;
        let items = vec![(); 64];
        let ctx = quiet_ctx(3);
        ctx.cancel.cancel(CancelReason::User);
        for workers in [1, 4] {
            let err = try_par_map_indexed(workers, &items, &ctx, |i, _| Ok(i)).unwrap_err();
            assert!(
                matches!(
                    err,
                    Error::Cancelled {
                        reason: CancelReason::User,
                        ..
                    }
                ),
                "workers={workers}: {err:?}"
            );
        }
        // No retries are burned on a cancelled job.
        assert_eq!(Metrics::get(&ctx.metrics.tasks_retried), 0);
    }

    #[test]
    fn repeated_panic_payload_short_circuits_retries() {
        let items = vec![(); 1];
        let ctx = quiet_ctx(6);
        let err = try_par_map_indexed(1, &items, &ctx, |_, _| -> Result<(), Error> {
            panic!("deterministic boom");
        })
        .unwrap_err();
        match err {
            Error::Task {
                attempts, cause, ..
            } => {
                // The second identical payload proves determinism; the
                // remaining four attempts are skipped.
                assert_eq!(attempts, 2);
                assert!(cause.contains("deterministic boom"), "{cause}");
            }
            other => panic!("expected Error::Task, got {other:?}"),
        }
        assert_eq!(Metrics::get(&ctx.metrics.panics_caught), 2);
        assert_eq!(Metrics::get(&ctx.metrics.tasks_retried), 1);
        assert_eq!(Metrics::get(&ctx.metrics.retries_short_circuited), 1);
    }

    #[test]
    fn varying_panic_payloads_still_use_the_full_budget() {
        let n = AtomicU64::new(0);
        let items = vec![(); 1];
        let ctx = quiet_ctx(3);
        let err = try_par_map_indexed(1, &items, &ctx, |_, _| -> Result<(), Error> {
            let k = n.fetch_add(1, Ordering::SeqCst);
            panic!("flaky boom #{k}");
        })
        .unwrap_err();
        assert!(matches!(err, Error::Task { attempts: 3, .. }), "{err:?}");
        assert_eq!(Metrics::get(&ctx.metrics.retries_short_circuited), 0);
    }

    #[test]
    fn deterministic_typed_errors_fail_fast() {
        let items = vec![(); 1];
        let ctx = quiet_ctx(5);
        let err = try_par_map_indexed(1, &items, &ctx, |_, _| -> Result<(), Error> {
            Err(Error::Parse("schema will never match".into()))
        })
        .unwrap_err();
        match err {
            Error::Task {
                attempts, cause, ..
            } => {
                assert_eq!(attempts, 1, "no retry for a deterministic error");
                assert!(cause.contains("never match"), "{cause}");
            }
            other => panic!("expected Error::Task, got {other:?}"),
        }
        assert_eq!(Metrics::get(&ctx.metrics.tasks_retried), 0);
        assert_eq!(Metrics::get(&ctx.metrics.retries_short_circuited), 1);
    }

    #[test]
    fn backoff_sleep_wakes_on_cancellation() {
        use bigdansing_common::error::CancelReason;
        let items = vec![(); 1];
        let mut ctx = quiet_ctx(3);
        ctx.policy.backoff = Duration::from_millis(2000);
        let cancel = ctx.cancel.clone();
        let start = std::time::Instant::now();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            cancel.cancel(CancelReason::User);
        });
        // Transient failures keep the task in its backoff sleep; the
        // cancel must cut that sleep short instead of waiting 2s.
        let err = try_par_map_indexed(1, &items, &ctx, |_, _| -> Result<(), Error> {
            Err(Error::Io("still flaky".into()))
        })
        .unwrap_err();
        canceller.join().unwrap();
        assert!(matches!(err, Error::Cancelled { .. }), "{err:?}");
        assert!(
            start.elapsed() < Duration::from_millis(1000),
            "backoff ignored cancellation: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn injected_panics_recover_within_budget() {
        // 30% panic probability with 5 attempts: each attempt rolls
        // fresh, so every partition recovers deterministically.
        let items: Vec<usize> = (0..32).collect();
        let ctx = TaskCtx {
            policy: FaultPolicy {
                max_attempts: 5,
                backoff: Duration::ZERO,
            },
            injector: Some(FaultInjector::seeded(1234).with_task_panics(0.3)),
            stage: 7,
            metrics: Metrics::new_shared(),
            cancel: CancellationToken::new("test", None),
        };
        let out = try_par_map_indexed(4, &items, &ctx, |_, x| Ok(*x * 10)).unwrap();
        assert_eq!(out, items.iter().map(|x| x * 10).collect::<Vec<_>>());
        assert!(Metrics::get(&ctx.metrics.panics_caught) > 0);
        assert_eq!(
            Metrics::get(&ctx.metrics.panics_caught),
            Metrics::get(&ctx.metrics.tasks_retried)
        );
    }
}
