//! The benchmark-owned compute pool plugged into the core's
//! [`ExternalCompute`] seam for the traced run: the same
//! `evaluate_task_pooled` the search's private pool calls, wrapped in a
//! `core.evaluate` span per call.

use crate::procfs;
use crate::trace::Tracer;
use agebo_core::{evaluate_task_pooled, EvalContext, EvalScratch, EvalTask, ExternalCompute};
use agebo_dataparallel::TrainerTelemetry;
use agebo_scheduler::{result_channel, ScratchPool};
use agebo_telemetry::Telemetry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// One `evaluate_task_pooled` call as the pool saw it.
#[derive(Debug, Clone)]
pub struct EvalSample {
    pub id: u64,
    /// Applied (not labelled) rank count.
    pub n: usize,
    /// Served from the memo / replay map without training.
    pub cached: bool,
    /// Submit → dispatch.
    pub queue_wait_s: f64,
    pub busy_s: f64,
}

struct Job {
    id: u64,
    task: EvalTask,
    cancel: Arc<AtomicBool>,
    queued: Instant,
}

pub struct TracedPool {
    workers: Vec<JoinHandle<(Vec<EvalSample>, u64)>>,
}

impl TracedPool {
    /// Spawns `threads` workers and returns the compute handle to give to
    /// `run_search_served` / `run_search_durable`. Trainer metrics and the
    /// scratch-pool counters land on `tel`'s registry under the names the
    /// search's private pool uses.
    pub fn spawn(
        threads: usize,
        ctx: Arc<EvalContext>,
        failure_rate: f64,
        tel: &Telemetry,
        tracer: Arc<Tracer>,
        parent: u64,
    ) -> (TracedPool, ExternalCompute) {
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (result_tx, result_rx) = result_channel();
        let tt = TrainerTelemetry::register(tel);
        let scratch_pool = Arc::new(ScratchPool::register(tel, "eval_scratch", EvalScratch::new));
        let workers = (0..threads)
            .map(|_| {
                let (job_rx, result_tx) = (Arc::clone(&job_rx), result_tx.clone());
                let (ctx, tt, tracer) = (Arc::clone(&ctx), tt.clone(), Arc::clone(&tracer));
                let scratch_pool = Arc::clone(&scratch_pool);
                std::thread::spawn(move || {
                    let switches0 = procfs::thread_invol_switches();
                    let mut samples = Vec::new();
                    loop {
                        // The guard is a temporary: it is released as
                        // soon as a job (or the hang-up) is in hand.
                        let job = job_rx.lock().expect("job queue lock poisoned").recv();
                        let Ok(job) = job else { break };
                        let queue_wait_s = job.queued.elapsed().as_secs_f64();
                        let applied = ctx.applied_hp(job.task.hp);
                        let params = ctx.space.to_graph(&job.task.arch).param_count();
                        let cached = job.task.cached.is_some();
                        let attrs = vec![
                            ("eval_id", job.id as f64),
                            ("n", applied.n as f64),
                            ("bs1", applied.bs1 as f64),
                            ("params", params as f64),
                            ("cached", f64::from(u8::from(cached))),
                        ];
                        let (output, busy_s) =
                            tracer.time(Some(parent), "core.evaluate", attrs, || {
                                // Like the private pool: a panic becomes a
                                // delivered outcome, not a search that waits
                                // forever.
                                catch_unwind(AssertUnwindSafe(|| {
                                    let mut scratch = scratch_pool.checkout();
                                    evaluate_task_pooled(
                                        &ctx,
                                        &job.task,
                                        failure_rate,
                                        &tt,
                                        &mut scratch,
                                        Some(&job.cancel),
                                    )
                                }))
                                .map_err(|_| "evaluation panicked".to_string())
                            });
                        samples.push(EvalSample {
                            id: job.id,
                            n: applied.n,
                            cached,
                            queue_wait_s,
                            busy_s,
                        });
                        // The search is gone once it stops listening;
                        // keep draining like its private pool does.
                        let _ = result_tx.send((job.id, output));
                    }
                    (samples, procfs::thread_invol_switches() - switches0)
                })
            })
            .collect();
        let submit = move |id: u64, task: EvalTask, cancel: Arc<AtomicBool>| {
            job_tx
                .send(Job {
                    id,
                    task,
                    cancel,
                    queued: Instant::now(),
                })
                .expect("traced pool workers outlive the search");
        };
        (
            TracedPool { workers },
            ExternalCompute {
                submit: Box::new(submit),
                results: result_rx,
            },
        )
    }

    /// Waits for the queue to drain (the search has returned and dropped
    /// its submit handle) and returns every sample, ordered by evaluation
    /// id, plus the workers' involuntary context switches.
    pub fn join(self) -> (Vec<EvalSample>, u64) {
        let mut samples = Vec::new();
        let mut switches = 0;
        for w in self.workers {
            let (s, sw) = w.join().expect("traced pool worker panicked");
            samples.extend(s);
            switches += sw;
        }
        samples.sort_by_key(|s| s.id);
        (samples, switches)
    }
}
