//! The evaluator: real computation on worker threads, delivery in
//! simulated-time order.

use crate::des::{EvalFate, Placement, SimQueue, SimTime, SubmitOpts};
use crate::fault::FaultPlan;
use agebo_telemetry::Telemetry;
use crossbeam::channel::{unbounded, Receiver, Sender};

/// Sending half of an external compute pool's result channel: one
/// `(id, result)` per submission handed to [`Evaluator::external`].
pub type ResultSender<R> = Sender<(u64, Result<R, String>)>;
/// Receiving half handed to [`Evaluator::external`].
pub type ResultReceiver<R> = Receiver<(u64, Result<R, String>)>;

/// The channel pair wiring an external compute pool back into an
/// [`Evaluator::external`].
pub fn result_channel<R>() -> (ResultSender<R>, ResultReceiver<R>) {
    unbounded()
}
use std::collections::{BinaryHeap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// How an evaluation ended, as seen by the manager.
///
/// Structured counterpart of the bare result the pre-chaos evaluator
/// returned: the happy path carries the worker's value; the other
/// variants describe the distinct failure modes the manager must react
/// to (outage kill, worker panic, deadline expiry).
#[derive(Debug, Clone, PartialEq)]
pub enum EvalOutcome<R> {
    /// The evaluation completed and computed `R`.
    Ok(R),
    /// Killed by a simulated worker-slot outage; no result exists.
    Faulted {
        /// Slot that went down.
        worker: usize,
        /// Simulated time the outage began.
        down_at: f64,
        /// Simulated time the slot comes back online.
        up_at: f64,
    },
    /// The worker function panicked; `message` is the panic payload.
    Crashed {
        /// Panic message (best-effort downcast of the payload).
        message: String,
    },
    /// Killed by the deadline passed via [`SubmitOpts`].
    TimedOut,
}

impl<R> EvalOutcome<R> {
    /// The computed value, if the evaluation completed.
    pub fn ok(self) -> Option<R> {
        match self {
            EvalOutcome::Ok(r) => Some(r),
            _ => None,
        }
    }

    /// True when the evaluation completed normally.
    pub fn is_ok(&self) -> bool {
        matches!(self, EvalOutcome::Ok(_))
    }
}

/// A finished evaluation as returned by
/// [`Evaluator::get_finished_evaluations`].
#[derive(Debug, Clone)]
pub struct Finished<R> {
    /// The id returned by `submit_evaluation`.
    pub id: u64,
    /// Simulated start time on its worker slot.
    pub started_at: f64,
    /// Simulated delivery time (natural completion, or the moment the
    /// evaluation was killed), in seconds since search start.
    pub finished_at: f64,
    /// Modeled (requested) simulated duration of the evaluation.
    pub duration: f64,
    /// How the evaluation ended, with its result when it completed.
    pub outcome: EvalOutcome<R>,
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic".to_string()
    }
}

/// Where an evaluator's real compute happens.
///
/// The classic shape ([`ComputeBackend::Owned`]) spawns a private pool of
/// OS threads. The serving layer instead shares one machine-wide pool
/// across many concurrent searches ([`ComputeBackend::External`]): task
/// dispatch goes through a caller-supplied closure and results come back
/// on a caller-supplied channel, so the evaluator neither owns threads
/// nor decides which session's work runs next.
enum ComputeBackend<T> {
    /// A private worker pool owned by the evaluator: fed in delivery
    /// order through a [`DueQueue`], stopped and joined by
    /// [`Evaluator::close`].
    Owned {
        queue: Arc<DueQueue<T>>,
        threads: Vec<JoinHandle<()>>,
    },
    /// Dispatch into an external pool; whoever owns the pool must
    /// eventually send exactly one `(id, result)` per submitted id, and
    /// cancels what it still holds when the search ends.
    External {
        submit: Box<dyn FnMut(u64, T, Arc<AtomicBool>) + Send>,
    },
}

/// A dispatched evaluation no compute thread has started yet.
struct DueTask<T> {
    /// `(placement.finish, id)`: the key [`SimQueue`] pops completions
    /// by, so the smallest is the evaluation the manager blocks on next.
    due: (SimTime, u64),
    task: T,
    cancel: Arc<AtomicBool>,
}

impl<T> PartialEq for DueTask<T> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due
    }
}

impl<T> Eq for DueTask<T> {}

impl<T> PartialOrd for DueTask<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for DueTask<T> {
    /// Reversed: `BinaryHeap` is a max-heap and the earliest due goes
    /// first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.due.cmp(&self.due)
    }
}

/// The owned pool's task queue: compute threads take the earliest-due
/// task, so real compute runs in the order results are handed out, and
/// what the run will never collect sinks to the back — where
/// [`DueQueue::close`] discards it.
struct DueQueue<T> {
    state: Mutex<DueState<T>>,
    /// Signalled on every push and on close.
    wake: Condvar,
}

struct DueState<T> {
    queued: BinaryHeap<DueTask<T>>,
    /// `(id, cancel flag)` of the tasks compute threads are running now.
    running: Vec<(u64, Arc<AtomicBool>)>,
    closed: bool,
}

impl<T> DueQueue<T> {
    fn new() -> Self {
        DueQueue {
            state: Mutex::new(DueState {
                queued: BinaryHeap::new(),
                running: Vec::new(),
                closed: false,
            }),
            wake: Condvar::new(),
        }
    }

    /// Every update under the lock is one push, pop or flag store, so the
    /// state stays valid even if a holder panicked.
    fn lock(&self) -> MutexGuard<'_, DueState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, task: DueTask<T>) {
        let mut state = self.lock();
        assert!(!state.closed, "evaluation submitted after close");
        state.queued.push(task);
        drop(state);
        self.wake.notify_one();
    }

    /// Blocks for the earliest-due task and marks it running; `None` once
    /// the queue is closed.
    fn pop(&self) -> Option<DueTask<T>> {
        let mut state = self.lock();
        loop {
            if state.closed {
                return None;
            }
            if let Some(next) = state.queued.pop() {
                state.running.push((next.due.1, Arc::clone(&next.cancel)));
                return Some(next);
            }
            state = self.wake.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The compute thread running `id` is done with it.
    fn finished(&self, id: u64) {
        self.lock().running.retain(|(running, _)| *running != id);
    }

    /// Discards every unstarted task, flags every running one and wakes
    /// the idle threads so they exit.
    fn close(&self) -> Closed {
        let mut state = self.lock();
        state.closed = true;
        let abandoned = state.queued.len();
        state.queued.clear();
        // A doomed task's flag is already up: the cluster cancelled it,
        // not the stop.
        let cancelled = state
            .running
            .iter()
            .filter(|(_, cancel)| !cancel.swap(true, Ordering::Relaxed))
            .count();
        drop(state);
        self.wake.notify_all();
        Closed { abandoned, cancelled }
    }
}

/// What [`Evaluator::close`] cut short.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Closed {
    /// Dispatched evaluations discarded before a compute thread started
    /// them.
    pub abandoned: usize,
    /// Evaluations that were computing and had their cancel flag flipped.
    pub cancelled: usize,
}

/// Manager-side handle implementing the paper's two scheduling interfaces.
///
/// `T` is the task payload shipped to a worker; `R` the result shipped
/// back. The worker function runs on a pool of OS threads; the *order* in
/// which results are handed back to the manager is governed purely by the
/// simulated durations, so runs are reproducible regardless of thread
/// scheduling. The owned pool computes in that same order: it always
/// starts next the evaluation the manager will block on next.
pub struct Evaluator<T: Send + 'static, R: Send + 'static> {
    sim: SimQueue,
    backend: ComputeBackend<T>,
    result_rx: Receiver<(u64, Result<R, String>)>,
    ready: HashMap<u64, Result<R, String>>,
    durations: HashMap<u64, (f64, f64, f64)>, // id -> (start, finish, duration)
    outstanding: usize,
    next_id: u64,
}

impl<T: Send + 'static, R: Send + 'static> Evaluator<T, R> {
    /// Creates an evaluator with `n_workers` *simulated* worker slots and
    /// `n_threads` real compute threads running `worker_fn`.
    ///
    /// On a many-core host set `n_threads` near the core count; the
    /// simulated behaviour is identical for any positive value.
    pub fn new<F>(n_workers: usize, n_threads: usize, worker_fn: F) -> Self
    where
        F: Fn(&T) -> R + Send + Sync + 'static,
    {
        Self::new_cancellable(n_workers, n_threads, move |task, _cancel| worker_fn(task))
    }

    /// [`Evaluator::new`] with a cancellation-aware worker function: the
    /// second argument is a per-task flag that flips to `true` when the
    /// simulated cluster has already decided the evaluation will be
    /// killed (outage or deadline). A worker that polls it at safe points
    /// (e.g. epoch boundaries) can abort a doomed computation early
    /// instead of burning real compute on a result nobody will see; its
    /// return value is discarded either way, so aborting never changes
    /// delivered results.
    pub fn new_cancellable<F>(n_workers: usize, n_threads: usize, worker_fn: F) -> Self
    where
        F: Fn(&T, &AtomicBool) -> R + Send + Sync + 'static,
    {
        assert!(n_threads > 0);
        let queue = Arc::new(DueQueue::new());
        let (result_tx, result_rx) = unbounded::<(u64, Result<R, String>)>();
        let worker_fn = Arc::new(worker_fn);
        let threads = (0..n_threads)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let tx = result_tx.clone();
                let f = worker_fn.clone();
                std::thread::spawn(move || {
                    while let Some(DueTask { due: (_, id), task, cancel }) = queue.pop() {
                        // A panicking worker_fn must become a delivered
                        // outcome, not a dead pool thread that leaves the
                        // manager waiting forever.
                        let result = catch_unwind(AssertUnwindSafe(|| f(&task, &cancel)))
                            .map_err(|payload| panic_message(payload.as_ref()));
                        queue.finished(id);
                        if tx.send((id, result)).is_err() {
                            break; // manager dropped
                        }
                    }
                })
            })
            .collect();
        Evaluator {
            sim: SimQueue::new(n_workers),
            backend: ComputeBackend::Owned { queue, threads },
            result_rx,
            ready: HashMap::new(),
            durations: HashMap::new(),
            outstanding: 0,
            next_id: 0,
        }
    }

    /// An evaluator whose real compute lives in an *external* shared pool
    /// (the serving layer's): `submit` is called once per submission with
    /// `(id, task, cancel)`, and the pool must deliver exactly one
    /// `(id, result)` on the channel behind `results` — in any real-time
    /// order. The simulated cluster (`n_workers` slots, completion order,
    /// utilization) is still owned by this evaluator, so a search driven
    /// through an external backend keeps the exact trajectory of one
    /// driven through [`Evaluator::new`].
    pub fn external<F>(
        n_workers: usize,
        submit: F,
        results: Receiver<(u64, Result<R, String>)>,
    ) -> Self
    where
        F: FnMut(u64, T, Arc<AtomicBool>) + Send + 'static,
    {
        Evaluator {
            sim: SimQueue::new(n_workers),
            backend: ComputeBackend::External { submit: Box::new(submit) },
            result_rx: results,
            ready: HashMap::new(),
            durations: HashMap::new(),
            outstanding: 0,
            next_id: 0,
        }
    }

    /// Registers the underlying queue's metrics (depth gauge,
    /// wait/latency histograms, per-worker busy gauges) on `tel`.
    pub fn attach_telemetry(&mut self, tel: &Telemetry) {
        self.sim.attach_telemetry(tel);
    }

    /// Nonblocking submission (the paper's `submit_evaluation`):
    /// dispatches `task` to the compute pool and schedules its completion
    /// at `now + queueing + duration` on the simulated cluster.
    pub fn submit_evaluation(&mut self, task: T, duration: f64) -> u64 {
        self.submit_evaluation_traced(task, duration).0
    }

    /// Like [`Evaluator::submit_evaluation`], also reporting where and
    /// when the evaluation was scheduled.
    pub fn submit_evaluation_traced(&mut self, task: T, duration: f64) -> (u64, Placement) {
        self.submit_evaluation_opts(task, duration, SubmitOpts::default())
    }

    /// Like [`Evaluator::submit_evaluation_traced`] with per-submission
    /// constraints (deadline, earliest start).
    pub fn submit_evaluation_opts(
        &mut self,
        task: T,
        duration: f64,
        opts: SubmitOpts,
    ) -> (u64, Placement) {
        let id = self.next_id;
        self.next_id += 1;
        let placement = self.sim.submit_traced_opts(id, duration, opts);
        self.durations.insert(id, (placement.start, placement.finish, duration));
        self.outstanding += 1;
        let cancel = Arc::new(AtomicBool::new(false));
        // Fates are decided at submission: an evaluation the cluster will
        // kill gets its flag flipped before its real computation starts.
        if self.sim.is_doomed(id) {
            cancel.store(true, Ordering::Relaxed);
        }
        match &mut self.backend {
            ComputeBackend::Owned { queue, .. } => {
                queue.push(DueTask { due: (SimTime(placement.finish), id), task, cancel });
            }
            ComputeBackend::External { submit } => submit(id, task, cancel),
        }
        (id, placement)
    }

    /// Installs a seeded [`FaultPlan`] on the simulated cluster (see
    /// [`SimQueue::install_faults`]).
    pub fn install_faults(&mut self, plan: &FaultPlan, seed: u64) {
        self.sim.install_faults(plan, seed);
    }

    /// Bars `worker` from new placements before simulated time `until`
    /// (see [`SimQueue::quarantine`]).
    pub fn quarantine_worker(&mut self, worker: usize, until: f64) {
        self.sim.quarantine(worker, until);
    }

    /// Blocks until at least one evaluation completes in simulated time and
    /// returns everything finished by then (the paper's
    /// `get_finished_evaluations`). Empty when nothing is running.
    ///
    /// Evaluations killed by an outage or deadline are still drained from
    /// the compute pool so no orphan results accumulate; their fate
    /// arrives as [`EvalOutcome::Faulted`] / [`EvalOutcome::TimedOut`].
    /// Their per-task cancellation flag was flipped at submission, so a
    /// cancellation-aware worker ([`Evaluator::new_cancellable`]) aborts
    /// the doomed computation at its next safe point instead of running
    /// it to completion; whatever it returns is discarded.
    pub fn get_finished_evaluations(&mut self) -> Vec<Finished<R>> {
        let finished = self.sim.pop_finished_detailed();
        finished
            .into_iter()
            .map(|(id, fate)| {
                let computed = self.wait_for(id);
                let (started_at, finished_at, duration) =
                    self.durations.remove(&id).expect("known id");
                self.outstanding -= 1;
                let outcome = match fate {
                    EvalFate::Done => match computed {
                        Ok(r) => EvalOutcome::Ok(r),
                        Err(message) => EvalOutcome::Crashed { message },
                    },
                    EvalFate::Outage { worker, down_at, up_at } => {
                        EvalOutcome::Faulted { worker, down_at, up_at }
                    }
                    EvalFate::TimedOut => EvalOutcome::TimedOut,
                };
                Finished { id, started_at, finished_at, duration, outcome }
            })
            .collect()
    }

    fn wait_for(&mut self, id: u64) -> Result<R, String> {
        if let Some(r) = self.ready.remove(&id) {
            return r;
        }
        loop {
            let (got, result) = self.result_rx.recv().expect("worker pool alive");
            if got == id {
                return result;
            }
            self.ready.insert(got, result);
        }
    }

    /// Ends the owned pool's work, for when the search will collect
    /// nothing more: every unstarted task is discarded, every running
    /// one has its cancel flag flipped (a cancellation-aware worker
    /// returns at its next safe point) and the compute threads are
    /// joined. Idempotent — `Drop` calls it too, and a second call
    /// reports zeros. The simulated cluster is untouched, so the clock
    /// and utilization stay readable; submitting or collecting after
    /// `close` panics.
    ///
    /// An external backend is left alone: its pool outlives this
    /// evaluator, and its owner cancels what it still holds.
    pub fn close(&mut self) -> Closed {
        let ComputeBackend::Owned { queue, threads } = &mut self.backend else {
            return Closed::default();
        };
        let closed = queue.close();
        for t in threads.drain(..) {
            let _ = t.join();
        }
        closed
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> f64 {
        self.sim.now()
    }

    /// Evaluations submitted but not yet returned.
    pub fn n_outstanding(&self) -> usize {
        self.outstanding
    }

    /// Number of simulated worker slots.
    pub fn n_workers(&self) -> usize {
        self.sim.n_workers()
    }

    /// Busy fraction of the simulated cluster so far.
    pub fn utilization(&self) -> f64 {
        self.sim.utilization()
    }
}

impl<T: Send + 'static, R: Send + 'static> Drop for Evaluator<T, R> {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_evaluator(workers: usize) -> Evaluator<u64, u64> {
        Evaluator::new(workers, 2, |&x| x * x)
    }

    #[test]
    fn results_are_computed_and_ordered_by_sim_time() {
        let mut ev = square_evaluator(4);
        // Long task submitted first, short second: short must return first.
        let long = ev.submit_evaluation(7, 100.0);
        let short = ev.submit_evaluation(3, 1.0);
        let first = ev.get_finished_evaluations();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].id, short);
        assert_eq!(first[0].outcome, EvalOutcome::Ok(9));
        assert_eq!(ev.now(), 1.0);
        let second = ev.get_finished_evaluations();
        assert_eq!(second[0].id, long);
        assert_eq!(second[0].outcome, EvalOutcome::Ok(49));
        assert_eq!(ev.now(), 100.0);
    }

    #[test]
    fn empty_when_nothing_running() {
        let mut ev = square_evaluator(2);
        assert!(ev.get_finished_evaluations().is_empty());
    }

    #[test]
    fn saturated_manager_loop_keeps_utilization_high() {
        let mut ev = square_evaluator(8);
        for i in 0..8 {
            ev.submit_evaluation(i, 10.0 + i as f64);
        }
        let mut done = 0;
        while done < 64 {
            let finished = ev.get_finished_evaluations();
            done += finished.len();
            for f in finished {
                if done < 64 {
                    let r = f.outcome.ok().expect("no faults installed");
                    ev.submit_evaluation(r % 10, 5.0 + (f.id % 3) as f64);
                }
            }
        }
        assert!(ev.utilization() > 0.85, "{}", ev.utilization());
    }

    #[test]
    fn deterministic_results_independent_of_thread_count() {
        let run = |threads: usize| -> Vec<(u64, u64, u64)> {
            let mut ev: Evaluator<u64, u64> = Evaluator::new(4, threads, |&x| x + 1);
            for i in 0..12 {
                ev.submit_evaluation(i, ((i * 7) % 13 + 1) as f64);
            }
            let mut out = Vec::new();
            loop {
                let finished = ev.get_finished_evaluations();
                if finished.is_empty() {
                    break;
                }
                for f in finished {
                    out.push((f.id, f.outcome.ok().unwrap(), f.finished_at as u64));
                }
            }
            out
        };
        assert_eq!(run(1), run(4));
    }

    /// Real work (an LCG hash loop) for the heavy-compute test — one
    /// definition shared by the worker and the expectation.
    fn hash_loop(x: u64) -> u64 {
        let mut h = x;
        for _ in 0..10_000 {
            h = h.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        }
        h
    }

    #[test]
    fn heavy_compute_results_are_correct() {
        // Worker function that does real work to exercise cross-thread
        // delivery.
        let mut ev: Evaluator<u64, u64> = Evaluator::new(3, 3, |&x: &u64| hash_loop(x));
        for i in 0..9 {
            ev.submit_evaluation(i, 1.0 + i as f64);
        }
        let mut seen = 0;
        loop {
            let finished = ev.get_finished_evaluations();
            if finished.is_empty() {
                break;
            }
            for f in finished {
                assert_eq!(f.outcome, EvalOutcome::Ok(hash_loop(f.id)));
                seen += 1;
            }
        }
        assert_eq!(seen, 9);
    }

    #[test]
    fn panicking_worker_surfaces_as_crashed_instead_of_hanging() {
        // Regression: a panic in worker_fn used to kill the pool thread,
        // leaving wait_for blocked forever on a result that never comes.
        let mut ev: Evaluator<u64, u64> = Evaluator::new(2, 1, |&x| {
            if x == 13 {
                panic!("unlucky task {x}");
            }
            x * 2
        });
        ev.submit_evaluation(13, 5.0);
        ev.submit_evaluation(4, 9.0);
        let first = ev.get_finished_evaluations();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].id, 0);
        let EvalOutcome::Crashed { message } = &first[0].outcome else {
            panic!("expected Crashed, got {:?}", first[0].outcome);
        };
        assert!(message.contains("unlucky task 13"), "payload preserved: {message}");
        // The pool survives: the next task completes normally on the
        // same single compute thread.
        let second = ev.get_finished_evaluations();
        assert_eq!(second[0].outcome, EvalOutcome::Ok(8));
    }

    #[test]
    fn killed_evaluations_surface_their_fate_not_a_result() {
        let plan =
            FaultPlan { mtbf: 1.0, mttr: 5.0, straggler_fraction: 0.0, straggler_factor: 1.0 };
        let mut ev = square_evaluator(1);
        ev.install_faults(&plan, 77);
        ev.submit_evaluation(6, 1000.0);
        let got = ev.get_finished_evaluations();
        assert_eq!(got.len(), 1);
        assert!(
            matches!(got[0].outcome, EvalOutcome::Faulted { worker: 0, .. }),
            "expected outage fate, got {:?}",
            got[0].outcome
        );
        assert_eq!(ev.n_outstanding(), 0, "killed evals are fully drained");
    }

    #[test]
    fn deadline_timeout_flows_through_the_evaluator() {
        let mut ev = square_evaluator(1);
        ev.submit_evaluation_opts(
            5,
            100.0,
            SubmitOpts { deadline: Some(25.0), not_before: None },
        );
        let got = ev.get_finished_evaluations();
        assert_eq!(got[0].outcome, EvalOutcome::TimedOut);
        assert_eq!(got[0].finished_at, 25.0);
    }

    #[test]
    fn doomed_evaluations_see_their_cancellation_flag() {
        use std::sync::atomic::AtomicUsize;
        let cancelled_seen = Arc::new(AtomicUsize::new(0));
        let seen = cancelled_seen.clone();
        let mut ev: Evaluator<u64, u64> = Evaluator::new_cancellable(1, 1, move |&x, cancel| {
            if cancel.load(Ordering::Relaxed) {
                seen.fetch_add(1, Ordering::Relaxed);
            }
            x
        });
        // Deadline expires long before the 100s duration: doomed at submit.
        ev.submit_evaluation_opts(
            1,
            100.0,
            SubmitOpts { deadline: Some(25.0), not_before: None },
        );
        // Healthy evaluation: flag must stay false.
        ev.submit_evaluation(2, 5.0);
        let mut fates = Vec::new();
        loop {
            let finished = ev.get_finished_evaluations();
            if finished.is_empty() {
                break;
            }
            fates.extend(finished.into_iter().map(|f| f.outcome.is_ok()));
        }
        assert_eq!(fates, vec![false, true]);
        assert_eq!(cancelled_seen.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn compute_runs_in_due_order_whatever_the_submission_order() {
        use std::sync::Mutex;
        const GATE: u64 = u64::MAX;
        // Simulated durations by payload; 8 idle slots, so finish ==
        // duration. Payloads 1 and 3 tie and must run in id order.
        let durations = [9.0, 3.0, 7.0, 3.0, 1.0, 8.0];
        let executed = Arc::new(Mutex::new(Vec::new()));
        let (started_tx, started_rx) = unbounded::<()>();
        let (release_tx, release_rx) = unbounded::<()>();
        let log = Arc::clone(&executed);
        let mut ev: Evaluator<u64, u64> = Evaluator::new(8, 1, move |&x| {
            if x == GATE {
                // Hold the only compute thread until the queue is full.
                started_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            } else {
                log.lock().unwrap().push(x);
            }
            x
        });
        ev.submit_evaluation(GATE, 100.0);
        started_rx.recv().unwrap();
        for (x, &d) in durations.iter().enumerate() {
            ev.submit_evaluation(x as u64, d);
        }
        release_tx.send(()).unwrap();
        while !ev.get_finished_evaluations().is_empty() {}
        assert_eq!(*executed.lock().unwrap(), vec![4, 1, 3, 2, 5, 0]);
    }

    /// An evaluator whose worker counts itself in on `started`, then
    /// blocks until its cancel flag flips.
    fn blocking_evaluator(
        workers: usize,
        threads: usize,
        started: &Arc<std::sync::atomic::AtomicUsize>,
    ) -> Evaluator<u64, u64> {
        let started = Arc::clone(started);
        Evaluator::new_cancellable(workers, threads, move |&x, cancel| {
            started.fetch_add(1, Ordering::SeqCst);
            while !cancel.load(Ordering::Relaxed) {
                std::thread::yield_now();
            }
            x
        })
    }

    #[test]
    fn close_abandons_the_queue_and_cancels_what_runs() {
        let started = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut ev = blocking_evaluator(10, 2, &started);
        for x in 0..10 {
            ev.submit_evaluation(x, 5.0 + x as f64);
        }
        while started.load(Ordering::SeqCst) < 2 {
            std::thread::yield_now();
        }
        assert_eq!(ev.close(), Closed { abandoned: 8, cancelled: 2 });
        assert_eq!(started.load(Ordering::SeqCst), 2, "an abandoned task was started");
        assert_eq!(ev.close(), Closed::default(), "close is idempotent");
        // The simulated cluster is still readable.
        assert_eq!(ev.n_outstanding(), 10);
        assert_eq!(ev.now(), 0.0);
    }

    #[test]
    fn dropping_an_evaluator_does_not_train_its_queue() {
        let started = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut ev = blocking_evaluator(10, 2, &started);
        for x in 0..10 {
            ev.submit_evaluation(x, 5.0 + x as f64);
        }
        // Returns only because drop flips the running tasks' flags.
        drop(ev);
        assert!(started.load(Ordering::SeqCst) <= 2, "drop started queued tasks");
    }

    #[test]
    fn doomed_task_returns_at_once() {
        // Doomed at submission: the flag is up before the worker looks,
        // so the blocking worker falls straight through.
        let started = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut ev = blocking_evaluator(1, 1, &started);
        ev.submit_evaluation_opts(
            1,
            100.0,
            SubmitOpts { deadline: Some(25.0), not_before: None },
        );
        let got = ev.get_finished_evaluations();
        assert_eq!(got[0].outcome, EvalOutcome::TimedOut);
        // Nothing was left for the stop to cut short.
        assert_eq!(ev.close(), Closed::default());
    }

    #[test]
    fn external_backend_matches_owned_pool() {
        // The same submissions through a private pool and through an
        // external compute channel must produce identical trajectories:
        // the simulated cluster is evaluator-owned either way.
        let run_owned = || -> Vec<(u64, u64, u64)> {
            let mut ev = square_evaluator(3);
            for i in 0..10u64 {
                ev.submit_evaluation(i, ((i * 5) % 11 + 1) as f64);
            }
            drain(&mut ev)
        };
        let run_external = || -> Vec<(u64, u64, u64)> {
            let (task_tx, task_rx) = unbounded::<(u64, u64, Arc<AtomicBool>)>();
            let (result_tx, result_rx) = unbounded();
            let pool = std::thread::spawn(move || {
                while let Ok((id, x, _cancel)) = task_rx.recv() {
                    if result_tx.send((id, Ok(x * x))).is_err() {
                        break;
                    }
                }
            });
            let mut ev: Evaluator<u64, u64> = Evaluator::external(
                3,
                move |id, task, cancel| {
                    let _ = task_tx.send((id, task, cancel));
                },
                result_rx,
            );
            for i in 0..10u64 {
                ev.submit_evaluation(i, ((i * 5) % 11 + 1) as f64);
            }
            let out = drain(&mut ev);
            drop(ev); // closes the task channel, letting the pool exit
            pool.join().unwrap();
            out
        };
        fn drain(ev: &mut Evaluator<u64, u64>) -> Vec<(u64, u64, u64)> {
            let mut out = Vec::new();
            loop {
                let finished = ev.get_finished_evaluations();
                if finished.is_empty() {
                    break;
                }
                for f in finished {
                    out.push((f.id, f.outcome.ok().unwrap(), f.finished_at.to_bits()));
                }
            }
            out
        }
        assert_eq!(run_owned(), run_external());
    }

    #[test]
    fn outstanding_count_tracks_lifecycle() {
        let mut ev = square_evaluator(2);
        assert_eq!(ev.n_outstanding(), 0);
        ev.submit_evaluation(1, 5.0);
        ev.submit_evaluation(2, 6.0);
        assert_eq!(ev.n_outstanding(), 2);
        ev.get_finished_evaluations();
        assert_eq!(ev.n_outstanding(), 1);
        ev.get_finished_evaluations();
        assert_eq!(ev.n_outstanding(), 0);
    }
}
