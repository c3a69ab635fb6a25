//! A real two-worker overlap executor.
//!
//! The simulator predicts schedules; this executor *runs* them: computing
//! closures execute on the caller thread (the "GPU") while communication
//! closures execute on a dedicated thread (the "network"), with the same
//! dependency discipline as [`crate::Schedule::makespan`]. It is how the
//! functional ScheMoE pipeline gets genuine wall-clock comm/comp overlap.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

/// Which worker a task runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Worker {
    /// The caller's thread (computing tasks).
    Compute,
    /// The background thread (communication tasks).
    Comm,
}

/// A worker died mid-pipeline: one task panicked before it could record a
/// typed error.
///
/// The executor converts the panic into this value instead of propagating
/// it through `thread::scope` (which would abort the whole rank thread and
/// poison nothing useful): remaining tasks are skipped but still marked
/// complete, so the other worker drains and joins cleanly, and the caller
/// gets the failure as a `Result` it can map onto its own error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    /// The worker whose task died.
    pub worker: Worker,
    /// Index of the dead task in the submitted vector.
    pub task: usize,
    /// The panic payload, stringified.
    pub detail: String,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} worker died in task {}: {}",
            self.worker, self.task, self.detail
        )
    }
}

impl std::error::Error for ExecError {}

/// Stringifies a panic payload (the common `&str` / `String` cases).
fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

/// One executable task.
///
/// The `'a` lifetime lets task closures borrow from the submitting stack
/// frame (tensors, rank handles), which is what the functional MoE pipeline
/// needs; `run_overlapped` joins every worker before returning, so the
/// borrows cannot escape. `D` holds the dependencies: a `Vec` of its own
/// by default, or a slice of one list a whole graph shares.
pub struct ExecTask<'a, D = Vec<usize>> {
    /// Worker assignment.
    pub worker: Worker,
    /// Indices of tasks (within the submitted vector) that must complete
    /// first.
    pub deps: D,
    /// Observability label: `(category, name)` of the span the executor
    /// records around `run` when the recorder is enabled. `None` runs
    /// unrecorded.
    pub span: Option<(&'static str, String)>,
    /// The work itself.
    pub run: Box<dyn FnOnce() + Send + 'a>,
}

/// A task staged on one worker's queue: (index, deps, span, work).
type Queued<'a, D> = (
    usize,
    D,
    Option<(&'static str, String)>,
    Box<dyn FnOnce() + Send + 'a>,
);

/// Runs one queued task, recording its labeled span if the recorder is on.
fn run_task(span: Option<(&'static str, String)>, run: Box<dyn FnOnce() + Send + '_>) {
    let _span = match span {
        Some((cat, name)) if schemoe_obs::enabled() => Some(schemoe_obs::span(cat, name)),
        _ => None,
    };
    run();
}

struct DoneBoard {
    done: Mutex<Vec<bool>>,
    cv: Condvar,
}

impl DoneBoard {
    /// Blocks until every task in `deps` is done. Time actually spent
    /// blocked — a worker idle because the other has not delivered yet,
    /// which on the compute worker is exposed communication — is a `wait`
    /// span; a dependency already met records nothing.
    fn wait_for(&self, deps: &[usize]) {
        let mut done = self.done.lock();
        if deps.iter().all(|&d| done[d]) {
            return;
        }
        let _wait = schemoe_obs::span("wait", "deps");
        while !deps.iter().all(|&d| done[d]) {
            self.cv.wait(&mut done);
        }
    }

    fn mark(&self, idx: usize) {
        let mut done = self.done.lock();
        done[idx] = true;
        self.cv.notify_all();
    }
}

/// Runs `tasks` to completion with real overlap.
///
/// Tasks assigned to the same worker run in submission order; a task
/// blocks until its dependencies complete. The caller is responsible for
/// submitting a deadlock-free order (e.g. one produced by
/// [`crate::schedules::optsche`]); validating orders up front is the
/// simulator's job.
///
/// A panicking task does not take the pipeline down: the first panic is
/// captured as an [`ExecError`], every not-yet-run task is skipped (but
/// still marked complete so neither worker blocks on a dependency), and
/// the error is returned after both workers join.
pub fn run_overlapped(tasks: Vec<ExecTask<'_>>) -> Result<(), ExecError> {
    run_overlapped_cancellable(tasks, &AtomicBool::new(false))
}

/// Like [`run_overlapped`], but the submitter's task closures can call the
/// rest of the pipeline off by setting `cancel`.
///
/// Once the flag is set, every not-yet-started task is skipped — still
/// marked complete, so neither worker ever blocks on a dependency — and
/// both workers join promptly. This is how the fault-tolerant MoE forward
/// bounds a degraded step: the first lane that hits a dead peer records
/// its typed error and cancels the remaining comm lanes, instead of
/// letting each of them burn a full receive deadline against a peer that
/// is already known to be gone. Cancellation is cooperative and racy by
/// design — a task already running is never interrupted — and a cancelled
/// pipeline returns `Ok`; the submitter reports its own reason for the
/// cancel (the executor has no channel to carry it).
pub fn run_overlapped_cancellable<D: AsRef<[usize]> + Send>(
    tasks: Vec<ExecTask<'_, D>>,
    cancel: &AtomicBool,
) -> Result<(), ExecError> {
    let n = tasks.len();
    let board = Arc::new(DoneBoard {
        done: Mutex::new(vec![false; n]),
        cv: Condvar::new(),
    });
    let failure: Arc<Mutex<Option<ExecError>>> = Arc::new(Mutex::new(None));

    let mut comp: Vec<Queued<'_, D>> = Vec::new();
    let mut comm: Vec<Queued<'_, D>> = Vec::new();
    for (i, t) in tasks.into_iter().enumerate() {
        match t.worker {
            Worker::Compute => comp.push((i, t.deps, t.span, t.run)),
            Worker::Comm => comm.push((i, t.deps, t.span, t.run)),
        }
    }

    let drain = |worker: Worker, queue: Vec<Queued<'_, D>>| {
        for (idx, deps, span, run) in queue {
            board.wait_for(deps.as_ref());
            if failure.lock().is_none() && !cancel.load(Ordering::Acquire) {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run_task(span, run))) {
                    let mut slot = failure.lock();
                    if slot.is_none() {
                        *slot = Some(ExecError {
                            worker,
                            task: idx,
                            detail: panic_detail(payload),
                        });
                    }
                }
            }
            board.mark(idx);
        }
    };

    // The comm thread is a fresh OS thread with no recorder identity; hand
    // it the submitting rank so its spans land on the right Perfetto track.
    let rank = schemoe_obs::thread_rank();
    std::thread::scope(|scope| {
        let drain = &drain;
        let comm_worker = scope.spawn(move || {
            if schemoe_obs::enabled() {
                if let Some(r) = rank {
                    schemoe_obs::set_thread_rank(r);
                    schemoe_obs::set_thread_name(format!("rank{r}/comm"));
                }
            }
            drain(Worker::Comm, comm);
        });
        drain(Worker::Compute, comp);
        // The caller is done; what the comm worker still has queued is
        // exposed communication too.
        let _wait = (!comm_worker.is_finished()).then(|| schemoe_obs::span("wait", "join"));
        if let Err(panic) = comm_worker.join() {
            std::panic::resume_unwind(panic);
        }
    });

    let err = failure.lock().take();
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Runs `tasks` in submission order on the calling thread: the degenerate
/// schedule of the same graph, for submitters with nothing to overlap (one
/// chunk, or no live peer). No thread is spawned and worker assignments are
/// ignored, so the submission order must itself respect every dependency.
///
/// Panics and `cancel` behave as in [`run_overlapped_cancellable`]: the
/// first panic comes back as an [`ExecError`], and once the flag is set the
/// remaining tasks are skipped and the run returns `Ok`.
///
/// # Panics
///
/// Panics if a task depends on one submitted after it.
pub fn run_inline_cancellable<D: AsRef<[usize]>>(
    tasks: Vec<ExecTask<'_, D>>,
    cancel: &AtomicBool,
) -> Result<(), ExecError> {
    for (idx, t) in tasks.into_iter().enumerate() {
        assert!(
            t.deps.as_ref().iter().all(|&d| d < idx),
            "task {idx} depends on a later task; inline runs need a topological order"
        );
        if cancel.load(Ordering::Acquire) {
            break;
        }
        let (worker, span, run) = (t.worker, t.span, t.run);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run_task(span, run))) {
            return Err(ExecError {
                worker,
                task: idx,
                detail: panic_detail(payload),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    #[test]
    fn overlap_saves_wall_clock_time() {
        // Comp: 2 × 30 ms; comm: 2 × 30 ms, dependent on the matching comp
        // task. Sequential would be 120 ms; overlapped ≈ 90 ms.
        let mk = |d: u64| -> Box<dyn FnOnce() + Send> {
            Box::new(move || std::thread::sleep(Duration::from_millis(d)))
        };
        let tasks = vec![
            ExecTask {
                worker: Worker::Compute,
                deps: vec![],
                span: None,
                run: mk(30),
            },
            ExecTask {
                worker: Worker::Comm,
                deps: vec![0],
                span: None,
                run: mk(30),
            },
            ExecTask {
                worker: Worker::Compute,
                deps: vec![],
                span: None,
                run: mk(30),
            },
            ExecTask {
                worker: Worker::Comm,
                deps: vec![2],
                span: None,
                run: mk(30),
            },
        ];
        let start = Instant::now();
        run_overlapped(tasks).unwrap();
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(85),
            "too fast: {elapsed:?}"
        );
        assert!(
            elapsed < Duration::from_millis(115),
            "no overlap: {elapsed:?}"
        );
    }

    #[test]
    fn dependencies_are_respected() {
        let counter = Arc::new(AtomicUsize::new(0));
        let order = Arc::new(Mutex::new(Vec::new()));
        let mk = |id: usize, counter: &Arc<AtomicUsize>, order: &Arc<Mutex<Vec<usize>>>| {
            let (c, o) = (Arc::clone(counter), Arc::clone(order));
            Box::new(move || {
                c.fetch_add(1, Ordering::SeqCst);
                o.lock().push(id);
            }) as Box<dyn FnOnce() + Send>
        };
        let tasks = vec![
            ExecTask {
                worker: Worker::Compute,
                deps: vec![],
                span: None,
                run: mk(0, &counter, &order),
            },
            ExecTask {
                worker: Worker::Comm,
                deps: vec![0],
                span: None,
                run: mk(1, &counter, &order),
            },
            ExecTask {
                worker: Worker::Compute,
                deps: vec![1],
                span: None,
                run: mk(2, &counter, &order),
            },
        ];
        run_overlapped(tasks).unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 3);
        assert_eq!(*order.lock(), vec![0, 1, 2]);
    }

    #[test]
    fn blocked_time_is_recorded_as_wait_spans_and_met_dependencies_record_nothing() {
        fn task<'a>(worker: Worker, deps: Vec<usize>, ms: u64) -> ExecTask<'a> {
            ExecTask {
                worker,
                deps,
                span: None,
                run: Box::new(move || std::thread::sleep(Duration::from_millis(ms))),
            }
        }
        // Ranks nobody else uses: the recorder is process-wide, and the
        // comm worker inherits the submitter's rank.
        let waits = |rank: usize, tasks: Vec<ExecTask<'_>>| -> Vec<(String, String, f64)> {
            schemoe_obs::set_thread_rank(rank);
            run_overlapped(tasks).unwrap();
            schemoe_obs::take()
                .spans
                .into_iter()
                .filter(|s| s.rank == rank && s.cat == "wait")
                .map(|s| (s.name, s.thread, s.dur_us))
                .collect()
        };
        schemoe_obs::enable();
        // Comm waits ~20 ms for the compute task, then runs ~20 ms while
        // the caller has nothing left to do but join it.
        let blocked = waits(
            7_701,
            vec![
                task(Worker::Compute, vec![], 20),
                task(Worker::Comm, vec![0], 20),
            ],
        );
        // Same worker, so task 0 is done before task 1 asks; and the comm
        // worker has nothing queued to be joined on.
        let met = waits(
            7_702,
            vec![
                task(Worker::Compute, vec![], 1),
                task(Worker::Compute, vec![0], 20),
            ],
        );
        schemoe_obs::disable();
        let find = |name: &str| blocked.iter().find(|(n, _, _)| n == name);
        let (_, thread, dur_us) = find("deps").expect("the comm worker blocked on task 0");
        assert!(thread.ends_with("/comm"), "deps wait on {thread}");
        assert!(*dur_us > 10_000.0, "deps wait of {dur_us} us");
        let (_, thread, dur_us) = find("join").expect("the caller blocked on the comm worker");
        assert!(!thread.ends_with("/comm"), "join wait on {thread}");
        assert!(*dur_us > 10_000.0, "join wait of {dur_us} us");
        assert_eq!(blocked.len(), 2, "{blocked:?}");
        assert!(met.iter().all(|(n, _, _)| n != "deps"), "{met:?}");
    }

    #[test]
    fn empty_task_list_is_a_noop() {
        run_overlapped(Vec::new()).unwrap();
    }

    #[test]
    fn comm_worker_panic_returns_a_typed_error_and_join_survives() {
        let ran_after = Arc::new(AtomicUsize::new(0));
        let tasks = vec![
            ExecTask {
                worker: Worker::Compute,
                deps: vec![],
                span: None,
                run: Box::new(|| {}),
            },
            ExecTask {
                worker: Worker::Comm,
                deps: vec![0],
                span: None,
                run: Box::new(|| panic!("lane 3 failed: peer rank 2 disconnected")),
            },
            // Depends on the dead task: must be skipped, not run, not hung.
            ExecTask {
                worker: Worker::Compute,
                deps: vec![1],
                span: None,
                run: {
                    let c = Arc::clone(&ran_after);
                    Box::new(move || {
                        c.fetch_add(1, Ordering::SeqCst);
                    })
                },
            },
        ];
        let err = run_overlapped(tasks).unwrap_err();
        assert_eq!(err.worker, Worker::Comm);
        assert_eq!(err.task, 1);
        assert!(
            err.detail.contains("disconnected"),
            "detail: {}",
            err.detail
        );
        assert_eq!(ran_after.load(Ordering::SeqCst), 0, "dependent task ran");
    }

    #[test]
    fn compute_worker_panic_is_reported_too() {
        let tasks = vec![ExecTask {
            worker: Worker::Compute,
            deps: vec![],
            span: None,
            run: Box::new(|| panic!("expert kernel died")),
        }];
        let err = run_overlapped(tasks).unwrap_err();
        assert_eq!(err.worker, Worker::Compute);
        assert!(err.detail.contains("expert kernel died"));
    }

    #[test]
    fn cancel_skips_the_remaining_tasks_without_wedging_either_worker() {
        // Task 1 (comm) cancels the pipeline; task 2 (compute, dependent on
        // a comm task that never produces) must be skipped — not run, not
        // hung on the dependency — and the run still returns Ok: cancelling
        // is the submitter's verdict, not the executor's.
        let cancel = AtomicBool::new(false);
        let ran_after = Arc::new(AtomicUsize::new(0));
        let tasks = vec![
            ExecTask {
                worker: Worker::Compute,
                deps: vec![],
                span: None,
                run: Box::new(|| {}),
            },
            ExecTask {
                worker: Worker::Comm,
                deps: vec![0],
                span: None,
                run: Box::new(|| cancel.store(true, Ordering::Release)),
            },
            ExecTask {
                worker: Worker::Comm,
                deps: vec![1],
                span: None,
                run: {
                    let c = Arc::clone(&ran_after);
                    Box::new(move || {
                        c.fetch_add(1, Ordering::SeqCst);
                    })
                },
            },
            ExecTask {
                worker: Worker::Compute,
                deps: vec![2],
                span: None,
                run: {
                    let c = Arc::clone(&ran_after);
                    Box::new(move || {
                        c.fetch_add(1, Ordering::SeqCst);
                    })
                },
            },
        ];
        run_overlapped_cancellable(tasks, &cancel).unwrap();
        assert_eq!(ran_after.load(Ordering::SeqCst), 0, "cancelled task ran");
    }

    #[test]
    fn inline_run_keeps_submission_order_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        let mk = |id: usize, worker: Worker, deps: Vec<usize>| ExecTask {
            worker,
            deps,
            span: None,
            run: Box::new({
                let order = &order;
                move || {
                    assert_eq!(std::thread::current().id(), caller);
                    order.lock().push(id);
                }
            }),
        };
        let tasks = vec![
            mk(0, Worker::Compute, vec![]),
            mk(1, Worker::Comm, vec![0]),
            mk(2, Worker::Compute, vec![1]),
        ];
        run_inline_cancellable(tasks, &AtomicBool::new(false)).unwrap();
        assert_eq!(*order.lock(), vec![0, 1, 2]);
    }

    #[test]
    fn inline_run_stops_at_cancel_and_types_a_panic() {
        fn comm<'a>(run: impl FnOnce() + Send + 'a) -> ExecTask<'a> {
            ExecTask {
                worker: Worker::Comm,
                deps: vec![],
                span: None,
                run: Box::new(run),
            }
        }
        let cancel = AtomicBool::new(false);
        let ran_after = AtomicUsize::new(0);
        let tasks = vec![
            comm(|| cancel.store(true, Ordering::Release)),
            comm(|| {
                ran_after.fetch_add(1, Ordering::SeqCst);
            }),
        ];
        run_inline_cancellable(tasks, &cancel).unwrap();
        assert_eq!(ran_after.load(Ordering::SeqCst), 0, "cancelled task ran");

        let tasks = vec![comm(|| {}), comm(|| panic!("lane died"))];
        let err = run_inline_cancellable(tasks, &AtomicBool::new(false)).unwrap_err();
        assert_eq!((err.worker, err.task), (Worker::Comm, 1));
        assert!(err.detail.contains("lane died"));
    }

    #[test]
    fn first_failure_wins_and_the_rest_are_skipped() {
        let tasks = vec![
            ExecTask {
                worker: Worker::Compute,
                deps: vec![],
                span: None,
                run: Box::new(|| panic!("first")),
            },
            ExecTask {
                worker: Worker::Compute,
                deps: vec![0],
                span: None,
                run: Box::new(|| panic!("second")),
            },
        ];
        let err = run_overlapped(tasks).unwrap_err();
        assert_eq!(err.task, 0);
        assert!(err.detail.contains("first"));
    }
}
