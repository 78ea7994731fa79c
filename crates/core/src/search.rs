//! Algorithm 1: the AgE / AgEBO manager loop.
//!
//! The loop is a faithful transcription of the paper's pseudocode. The
//! black lines (AgE) always run; the blue lines (`optimizer.tell` /
//! `optimizer.ask`) run only for the AgEBO variants:
//!
//! 1. submit `W` random (architecture, hyperparameter) evaluations;
//! 2. collect finished results (`get_finished_evaluations`);
//! 3. push them into the aging population; `tell` the BO their
//!    hyperparameters and accuracies;
//! 4. `ask` the BO for `|results|` new hyperparameter configurations;
//! 5. for each: if the population is full, tournament-sample `S`, mutate
//!    the winner; otherwise sample a random architecture;
//! 6. submit and repeat until the simulated wall time is exhausted.

use crate::config::{CachePolicy, SearchConfig, Variant};
use crate::durable::{CheckpointMeta, DurableStore, Recovered};
use crate::evaluation::{
    component_rng, content_seed, evaluate_task_pooled, EvalContext, EvalScratch, EvalTask,
    TaskOutput,
};
use agebo_dataparallel::TrainerTelemetry;
use crate::history::{EvalRecord, SearchHistory};
use crate::population::{Member, Population};
use agebo_bo::{BoConfig, BoOptimizer, HpPoint, Space};
use agebo_dataparallel::DataParallelHp;
use agebo_scheduler::{EvalOutcome, Evaluator, ResultReceiver, ScratchPool, SubmitOpts};
use agebo_searchspace::ArchVector;
use agebo_telemetry::{Counter, Gauge, Histogram, RunEvent, SpanStats, Telemetry, SCHEMA_VERSION};
use agebo_tensor::Stream;
use rand::rngs::StdRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Converts a BO point `[bs₁, lr₁, n]` into training hyperparameters.
fn hp_of_point(p: &HpPoint) -> DataParallelHp {
    DataParallelHp { bs1: p[0].round() as usize, lr1: p[1] as f32, n: p[2].round() as usize }
}

/// Converts training hyperparameters back into a BO point, clamping the
/// f32→f64 learning rate into the space bounds. A clamp that actually
/// changes the value means the caller fed an out-of-space learning rate
/// to the surrogate; it is counted on `lr_clamped` rather than silently
/// swallowed.
fn point_of_hp(hp: DataParallelHp, lr_clamped: &Counter) -> HpPoint {
    let lr = hp.lr1 as f64;
    debug_assert!(lr.is_finite(), "non-finite lr1 {lr} fed to point_of_hp");
    let clamped = lr.clamp(0.001, 0.1);
    if clamped != lr {
        lr_clamped.inc();
    }
    vec![hp.bs1 as f64, clamped, hp.n as f64]
}

/// Manager-side bookkeeping for an in-flight evaluation.
struct PendingEval {
    arch: ArchVector,
    hp: DataParallelHp,
    submitted_at: f64,
    cache_hit: bool,
    /// 0 for a fresh submission; bumped on every infrastructure retry.
    attempt: u32,
    /// Worker slot the evaluation was placed on (for quarantine streaks).
    worker: usize,
}

/// Pre-registered manager-loop metrics.
struct SearchTelemetry {
    /// `search_lr_clamped_total`: out-of-space learning rates clamped by
    /// [`point_of_hp`].
    lr_clamped: Arc<Counter>,
    /// `search_evals_submitted_total`.
    submitted: Arc<Counter>,
    /// `search_evals_finished_total` (recorded evaluations).
    finished: Arc<Counter>,
    /// `search_evals_failed_total` (faulted, resubmitted).
    failed: Arc<Counter>,
    /// `search_cache_hits_total` (served from the duplicate memo-cache).
    cache_hits: Arc<Counter>,
    /// `search_best_objective`: best validation accuracy so far.
    best: Arc<Gauge>,
    /// `search_utilization`: simulated-cluster busy fraction.
    utilization: Arc<Gauge>,
    /// `bo_rejected_total`: observations the BO skipped for a non-finite
    /// objective instead of panicking.
    bo_rejected: Arc<Counter>,
    /// `bo_ask_hidden_seconds`: wall-clock seconds of each `ask` that ran
    /// concurrently with manager-side architecture generation (the
    /// overlap won by the pipelined loop).
    bo_ask_hidden: Arc<Histogram>,
    /// Dual-clock spans around `optimizer.ask` / `optimizer.tell`.
    bo_ask: SpanStats,
    bo_tell: SpanStats,
    /// `bo_window_evictions_total`: observations displaced from the
    /// bounded surrogate training window by the seeded reservoir (stays
    /// zero with `surrogate_window = 0` or while the history fits).
    bo_window_evictions: Arc<Counter>,
    /// `bo_fit_seconds`: wall-clock seconds of each surrogate forest
    /// refit inside `ask` (diagnostic only — never feeds the trajectory).
    bo_fit: Arc<Histogram>,
    /// `ckpt_bytes_written_total`: frame bytes appended to the durable
    /// store (manifest rewrites excluded — they are O(#segments)).
    ckpt_bytes: Arc<Counter>,
    /// `ckpt_segments_total`: durable segments opened by this run.
    ckpt_segments: Arc<Counter>,
    /// `resume_asks_fast_forwarded_total`: asks of a resumed run answered
    /// from the recovered records without fitting the surrogate.
    asks_fast_forwarded: Arc<Counter>,
    /// `resume_asks_recomputed_total`: asks of a resumed run computed for
    /// real — they feed an evaluation with no record (in flight, faulted
    /// or retried at the stop). Both stay zero on a fresh run.
    asks_recomputed: Arc<Counter>,
    /// `search_trainings_abandoned_total`: evaluations dispatched to the
    /// owned compute pool and discarded unstarted when the loop ended.
    trainings_abandoned: Arc<Counter>,
    /// `search_trainings_cancelled_total`: evaluations the owned pool was
    /// computing when the loop ended, flagged to abort. Both depend on
    /// real-time scheduling (metrics only) and stay zero under an
    /// external pool.
    trainings_cancelled: Arc<Counter>,
}

impl SearchTelemetry {
    fn register(tel: &Telemetry) -> Self {
        SearchTelemetry {
            lr_clamped: tel.registry().counter("search_lr_clamped_total"),
            submitted: tel.registry().counter("search_evals_submitted_total"),
            finished: tel.registry().counter("search_evals_finished_total"),
            failed: tel.registry().counter("search_evals_failed_total"),
            cache_hits: tel.registry().counter("search_cache_hits_total"),
            best: tel.registry().gauge("search_best_objective"),
            utilization: tel.registry().gauge("search_utilization"),
            bo_rejected: tel.registry().counter("bo_rejected_total"),
            bo_ask_hidden: tel
                .registry()
                .histogram("bo_ask_hidden_seconds", &Histogram::seconds_bounds()),
            bo_ask: SpanStats::register(tel, "bo_ask"),
            bo_tell: SpanStats::register(tel, "bo_tell"),
            bo_window_evictions: tel.registry().counter("bo_window_evictions_total"),
            bo_fit: tel.registry().histogram("bo_fit_seconds", &Histogram::seconds_bounds()),
            ckpt_bytes: tel.registry().counter("ckpt_bytes_written_total"),
            ckpt_segments: tel.registry().counter("ckpt_segments_total"),
            asks_fast_forwarded: tel.registry().counter("resume_asks_fast_forwarded_total"),
            asks_recomputed: tel.registry().counter("resume_asks_recomputed_total"),
            trainings_abandoned: tel.registry().counter("search_trainings_abandoned_total"),
            trainings_cancelled: tel.registry().counter("search_trainings_cancelled_total"),
        }
    }
}

/// Why a search run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The simulated wall-time budget was exhausted or the cluster
    /// drained — the ordinary end of a search.
    Completed,
    /// The external evaluation allowance ([`RunControl::with_allowance`])
    /// reached zero.
    BudgetExhausted,
    /// The real wall-clock deadline ([`RunControl::with_deadline`])
    /// passed.
    DeadlineExceeded,
    /// The cooperative stop flag ([`RunControl::stop_flag`]) was raised.
    Stopped,
}

impl StopReason {
    /// Stable lowercase name for reports and serialization.
    pub fn label(self) -> &'static str {
        match self {
            StopReason::Completed => "completed",
            StopReason::BudgetExhausted => "budget_exhausted",
            StopReason::DeadlineExceeded => "deadline_exceeded",
            StopReason::Stopped => "stopped",
        }
    }
}

/// External control of a running search, checked once per manager-loop
/// round (after results are processed, before replacements are
/// generated). A default control never triggers, and the checks emit no
/// events, so a controlled run that finishes naturally is bitwise
/// identical to an uncontrolled one — the property the serving layer's
/// single-session equivalence rests on.
#[derive(Debug, Clone, Default)]
pub struct RunControl {
    /// Remaining evaluation allowance, shared across every search charged
    /// against the same budget (a tenant's sessions). Decremented by each
    /// recorded completion; at zero the run stops with
    /// [`StopReason::BudgetExhausted`].
    allowance: Option<Arc<AtomicU64>>,
    /// Real wall-clock deadline.
    deadline: Option<Instant>,
    /// Cooperative stop flag (admin cancellation).
    stop: Arc<AtomicBool>,
}

impl RunControl {
    /// A control that never triggers.
    pub fn unlimited() -> RunControl {
        RunControl::default()
    }

    /// Charges recorded completions against `allowance` (saturating at
    /// zero) and stops the run once it is spent. The counter may be
    /// shared by several concurrent searches.
    pub fn with_allowance(mut self, allowance: Arc<AtomicU64>) -> Self {
        self.allowance = Some(allowance);
        self
    }

    /// Stops the run at the first round boundary after `deadline`.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The cooperative stop flag; store `true` to end the run at its next
    /// round boundary.
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Deducts `n` recorded completions from the allowance, saturating at
    /// zero.
    fn charge(&self, n: usize) {
        if n == 0 {
            return;
        }
        if let Some(allowance) = &self.allowance {
            let n = n as u64;
            let _ = allowance
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| Some(v.saturating_sub(n)));
        }
    }

    /// The stop decision for this round, if any.
    fn should_stop(&self) -> Option<StopReason> {
        if self.stop.load(Ordering::Relaxed) {
            return Some(StopReason::Stopped);
        }
        if let Some(allowance) = &self.allowance {
            if allowance.load(Ordering::Acquire) == 0 {
                return Some(StopReason::BudgetExhausted);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(StopReason::DeadlineExceeded);
            }
        }
        None
    }
}

/// Runs one search and returns its history.
///
/// Real trainings execute on `cfg.n_threads` OS threads; completion order,
/// the clock and utilization follow the paper-scale simulated durations
/// from `cfg.cost`.
pub fn run_search(ctx: Arc<EvalContext>, cfg: &SearchConfig) -> SearchHistory {
    run_search_full(ctx, cfg, &Telemetry::disabled(), None, None, None).0
}

/// [`run_search`] with observability: the manager loop emits the
/// structured run-event stream on `tel` and records its metrics
/// (counters, BO spans, scheduler queue stats) on `tel`'s registry.
///
/// Events are emitted only from the manager thread, in loop order, so
/// their *content* is deterministic for a seeded config — two runs
/// differ only in the envelope's wall-clock field.
pub fn run_search_instrumented(
    ctx: Arc<EvalContext>,
    cfg: &SearchConfig,
    tel: &Telemetry,
) -> SearchHistory {
    run_search_full(ctx, cfg, tel, None, None, None).0
}

/// [`run_search_instrumented`] under external control: budgets,
/// deadlines and cooperative cancellation from `control` are checked at
/// every round boundary, and the reason the run ended is returned
/// alongside the history. With [`RunControl::unlimited`] the result is
/// bitwise identical to [`run_search_instrumented`].
pub fn run_search_controlled(
    ctx: Arc<EvalContext>,
    cfg: &SearchConfig,
    tel: &Telemetry,
    control: &RunControl,
) -> (SearchHistory, StopReason) {
    run_search_full(ctx, cfg, tel, Some(control), None, None)
}

/// External compute for a search whose real trainings run in a shared
/// pool (the serving layer): `submit` is invoked once per evaluation
/// with `(id, task, cancel)`, and the pool must deliver exactly one
/// `(id, result)` on the channel `results` was created from — in any
/// real-time order. See [`Evaluator::external`].
pub struct ExternalCompute {
    /// Task dispatch into the shared pool.
    pub submit: Box<dyn FnMut(u64, EvalTask, Arc<AtomicBool>) + Send>,
    /// Completions coming back from the shared pool.
    pub results: ResultReceiver<TaskOutput>,
}

/// [`run_search_controlled`] with real compute delegated to an external
/// shared pool. The simulated cluster — and with it the entire search
/// trajectory — stays owned by this call, so the returned history and
/// event stream are bitwise identical to [`run_search_instrumented`]
/// with the same `ctx`/`cfg`, no matter how the pool schedules tenants.
pub fn run_search_served(
    ctx: Arc<EvalContext>,
    cfg: &SearchConfig,
    tel: &Telemetry,
    control: &RunControl,
    compute: ExternalCompute,
) -> (SearchHistory, StopReason) {
    run_search_full(ctx, cfg, tel, Some(control), Some(compute), None)
}

/// Durable-store wiring for one run: where delta checkpoints go, plus
/// the recovered state to replay for an exactly-once resume.
pub struct DurableRun<'a> {
    /// Open segmented store. A delta of records completed since the last
    /// append is committed at every checkpoint boundary and once more
    /// when the run ends, so the store always holds a prefix of the
    /// run's record sequence.
    pub store: &'a mut DurableStore,
    /// Recovery result from [`DurableStore::open`] when resuming; `None`
    /// for a fresh run.
    pub recovered: Option<&'a Recovered>,
}

/// [`run_search_instrumented`] with durable checkpointing and
/// exactly-once resume.
///
/// With `durable.recovered = None` the run behaves exactly like the
/// plain instrumented run (same history, same event stream plus the
/// durability events) while committing O(delta) record batches to
/// `durable.store` at every checkpoint boundary.
///
/// With `durable.recovered = Some(...)`, the search **replays**: it
/// re-runs the full trajectory from simulated time zero with the same
/// seeds, but every evaluation whose content key matches a recovered
/// record is served its recorded objective instead of retraining —
/// charged the *full* modeled duration, so the simulated trajectory is
/// bitwise identical to the uninterrupted run. Evaluations that were
/// in flight at the crash are simply reached again by the replayed
/// trajectory and re-issued with their original content-derived seeds,
/// and records already committed to the store are never re-appended
/// (appends start past `committed_records`): each evaluation lands in
/// the durable history exactly once. An `ask` whose answers are all on
/// record replays them through [`BoOptimizer::ask_recorded`] instead of
/// fitting the surrogate (same rng consumption, same hyperparameters —
/// DESIGN.md §15); asks feeding an unrecorded evaluation run for real.
///
/// `control` and `compute` make the same entry usable standalone (both
/// `None`) and inside the serving layer (tenant control + shared pool).
pub fn run_search_durable(
    ctx: Arc<EvalContext>,
    cfg: &SearchConfig,
    tel: &Telemetry,
    control: Option<&RunControl>,
    compute: Option<ExternalCompute>,
    durable: DurableRun<'_>,
) -> (SearchHistory, StopReason) {
    run_search_full(ctx, cfg, tel, control, compute, Some(durable))
}

fn run_search_full(
    ctx: Arc<EvalContext>,
    cfg: &SearchConfig,
    tel: &Telemetry,
    control: Option<&RunControl>,
    compute: Option<ExternalCompute>,
    mut durable: Option<DurableRun<'_>>,
) -> (SearchHistory, StopReason) {
    assert!(cfg.workers >= 1 && cfg.population >= 1 && cfg.sample_size >= 1);
    let stream = Stream::new(cfg.seed);
    let mut arch_rng = component_rng(cfg.seed, 1);

    let stel = SearchTelemetry::register(tel);
    tel.emit(RunEvent::RunManifest {
        schema: SCHEMA_VERSION,
        label: cfg.variant.label(),
        dataset: ctx.meta.name.to_string(),
        seed: cfg.seed,
        workers: cfg.workers,
        population: cfg.population,
        wall_time_budget: cfg.wall_time,
        cache_policy: cfg.cache.label().to_string(),
        resumed: durable.as_ref().is_some_and(|d| d.recovered.is_some()),
    });
    if let Some(rec) = durable.as_ref().and_then(|d| d.recovered) {
        tel.emit(RunEvent::ResumeRecovered {
            replayed: rec.records.len(),
            reissued: rec.in_flight,
            discarded_tail_bytes: rec.discarded_tail_bytes,
        });
    }

    let mut bo = match &cfg.variant {
        Variant::Age { .. } | Variant::RandomSearch => None,
        Variant::AgeBo { freeze_bs, freeze_n, kappa } => Some(BoOptimizer::new(
            Space::paper_hm_frozen(*freeze_bs, *freeze_n),
            BoConfig {
                kappa: *kappa,
                n_initial: cfg.bo_n_initial,
                n_candidates: cfg.bo_candidates,
                n_trees: cfg.bo_trees,
                seed: stream.labeled(2),
                use_liar: cfg.bo_constant_liar,
                surrogate: cfg.bo_surrogate,
                surrogate_window: cfg.surrogate_window,
            },
        )),
    };

    // Clone of the (atomic-handle) trainer telemetry moves into the
    // worker closure: worker threads record only metrics, never events,
    // keeping the event stream deterministic. Registered in both compute
    // modes so the registry layout does not depend on where compute runs.
    let worker_tt = TrainerTelemetry::register(tel);
    // Cross-evaluation buffer pool: each compute thread checks a scratch
    // out per evaluation and returns it on completion, so the steady
    // state of the whole search allocates no training buffers
    // (`eval_scratch_hits_total` / `_misses_total`). The per-task cancel
    // flag lets a training the cluster already killed — or the end of
    // the search overtook — stop at its next step boundary instead of
    // running to completion.
    let scratch_pool: Arc<ScratchPool<EvalScratch>> =
        Arc::new(ScratchPool::register(tel, "eval_scratch", EvalScratch::new));
    let mut evaluator: Evaluator<EvalTask, TaskOutput> = match compute {
        // The classic shape: a private pool of compute threads.
        None => {
            let worker_ctx = Arc::clone(&ctx);
            let failure_rate = cfg.failure_rate;
            Evaluator::new_cancellable(cfg.workers, cfg.n_threads.max(1), move |task, cancel| {
                let mut scratch = scratch_pool.checkout();
                evaluate_task_pooled(
                    &worker_ctx,
                    task,
                    failure_rate,
                    &worker_tt,
                    &mut scratch,
                    Some(cancel),
                )
            })
        }
        // The serving layer's shape: real compute happens in a shared
        // external pool, while this evaluator keeps full ownership of the
        // *simulated* cluster — durations, completion order, faults and
        // the clock — so the search trajectory cannot depend on how the
        // shared pool interleaves tenants.
        Some(ext) => Evaluator::external(cfg.workers, ext.submit, ext.results),
    };
    evaluator.attach_telemetry(tel);
    // A `FaultPlan::none()` install is a no-op: the scheduler keeps the
    // exact chaos-free arithmetic, so seeded histories stay bitwise
    // identical to a build without the fault layer.
    evaluator.install_faults(&cfg.chaos, stream.labeled(0xC4A05));

    let mut population = Population::new(cfg.population);
    let mut pending: HashMap<u64, PendingEval> = HashMap::new();
    // Consecutive infrastructure failures per worker slot; injected task
    // faults (the modeled application-level crashes) do not count.
    let mut streaks = vec![0u32; cfg.workers];
    let mut records: Vec<EvalRecord> = Vec::new();
    let mut n_failed = 0usize;
    let mut n_cache_hits = 0usize;
    // Duplicate memo-cache: (arch, applied bs₁, applied lr₁ bits, applied n)
    // -> objective. Only successful evaluations are memoized; content-derived
    // task seeds make a duplicate's re-training bit-identical, so serving
    // the memo is exact, not an approximation.
    type EvalKey = (ArchVector, usize, u32, usize);
    let mut memo: HashMap<EvalKey, f64> = HashMap::new();
    let eval_key = |arch: &ArchVector, applied: DataParallelHp| -> EvalKey {
        (arch.clone(), applied.bs1, applied.lr1.to_bits(), applied.n)
    };
    // Simulated duration charged for an `Instant` cache hit: the
    // manager-side result-delivery latency. Kept small relative to any
    // real training (minutes at paper scale) but nonzero, so simulated
    // time still advances when a saturated search draws long runs of
    // duplicates.
    const INSTANT_HIT_SECONDS: f64 = 1.0;
    // Exactly-once resume: objectives recovered from the durable store,
    // keyed like the memo. A replay hit skips the real retraining but is
    // charged the full modeled duration and keeps every cache flag and
    // event exactly as the uninterrupted run produced them, so the
    // resumed trajectory is bitwise identical. Consulted regardless of
    // `cfg.cache` (including `Off`) — it serves the *recorded* result of
    // this very evaluation, not an approximation from a duplicate.
    let mut replay: HashMap<EvalKey, f64> = HashMap::new();
    if let Some(rec) = durable.as_ref().and_then(|d| d.recovered) {
        for r in &rec.records {
            replay.insert(eval_key(&r.arch, ctx.applied_hp(r.hp)), r.objective);
        }
    }
    let replay = replay;
    // Resume fast-forward: the hyperparameters each recorded evaluation
    // was submitted with, by evaluation id (the evaluator's sequential
    // submission id, which `submit_counter` tracks). An `ask` whose `q`
    // answers are all on record replays them through
    // `BoOptimizer::ask_recorded` — same rng draws, no surrogate — keyed
    // on `hp_of_point`, the only part of an ask's output the loop ever
    // consumes (DESIGN.md §15). `None` (a fresh run, an answer with no
    // record, or records no candidate matches) means: run the real `ask`.
    let recorded_hp: Option<HashMap<u64, DataParallelHp>> = durable
        .as_ref()
        .and_then(|d| d.recovered)
        .map(|rec| rec.records.iter().map(|r| (r.id, r.hp)).collect());
    let ask_from_records = |bo: &mut BoOptimizer, first_id: u64, q: usize| {
        let recorded_hp = recorded_hp.as_ref()?;
        let answers: Option<Vec<DataParallelHp>> =
            (first_id..first_id + q as u64).map(|id| recorded_hp.get(&id).copied()).collect();
        let points = answers.and_then(|answers| {
            bo.ask_recorded(q, |j, cand| {
                let (hp, want) = (hp_of_point(cand), answers[j]);
                hp.bs1 == want.bs1 && hp.n == want.n && hp.lr1.to_bits() == want.lr1.to_bits()
            })
        });
        match points {
            Some(_) => stel.asks_fast_forwarded.inc(),
            None => stel.asks_recomputed.inc(),
        }
        points
    };

    // Window-eviction counter shadow: `BoOptimizer::window_evictions` is
    // cumulative, the telemetry counter wants deltas. Scratch for
    // draining per-refit fit times into the `bo_fit_seconds` histogram.
    let mut bo_evictions_seen: u64 = 0;
    let mut bo_fit_drain: Vec<f64> = Vec::new();

    let static_hp = match cfg.variant {
        Variant::Age { n } => Some(DataParallelHp { n, ..cfg.default_hp }),
        Variant::RandomSearch => Some(cfg.default_hp),
        Variant::AgeBo { .. } => None,
    };
    // Random search never evolves: hp sampled fresh per submission too.
    let pure_random = matches!(cfg.variant, Variant::RandomSearch);
    let mut hp_rng = component_rng(cfg.seed, 3);
    let hm_space = Space::paper_hm();

    let mut submit_counter: u64 = 0;
    // `retry` is `Some((attempt, not_before, reason))` when resubmitting an
    // infrastructure-failed evaluation; `None` for fresh candidates. The
    // chaos-off path always passes `None`, so its submit arithmetic and
    // event stream are unchanged.
    let submit = |evaluator: &mut Evaluator<EvalTask, TaskOutput>,
                      pending: &mut HashMap<u64, PendingEval>,
                      memo: &HashMap<EvalKey, f64>,
                      counter: &mut u64,
                      arch: ArchVector,
                      hp: DataParallelHp,
                      retry: Option<(u32, Option<f64>, &'static str)>| {
        let params = ctx.space.to_graph(&arch).param_count();
        // The duration charged is the paper-scale one (cost_epochs = 20),
        // independent of the scaled-down real training.
        let noise_seed = stream.labeled(0x5EED_0000 ^ *counter);
        let modeled = cfg.cost.seconds(&ctx.meta, params, hp, cfg.cost_epochs, noise_seed);
        let submitted_at = evaluator.now();
        let applied = ctx.applied_hp(hp);
        let seed = content_seed(cfg.seed, &arch, applied);
        *counter += 1;
        let key = eval_key(&arch, applied);
        let memo_hit = match cfg.cache {
            CachePolicy::Off => None,
            CachePolicy::Replay | CachePolicy::Instant => memo.get(&key).copied(),
        };
        // Resume-replay fills in only where the memo misses: the memo
        // decides everything observable (flags, events, durations) so
        // those stay exactly as on the uninterrupted run, and the replay
        // silently spares the worker a retraining it already did.
        let resume_hit = if memo_hit.is_none() { replay.get(&key).copied() } else { None };
        let cached = memo_hit.or(resume_hit);
        // Memo `Replay` hits charge the full modeled duration (trajectory
        // stays bit-identical to `Off`); `Instant` hits complete
        // immediately. Resume-replay hits always charge the full modeled
        // duration — an `Instant` shortcut here would warp the resumed
        // trajectory away from the original.
        let duration = match (memo_hit, cfg.cache) {
            (Some(_), CachePolicy::Instant) => INSTANT_HIT_SECONDS,
            _ => modeled,
        };
        let (attempt, not_before) = match retry {
            Some((attempt, not_before, _)) => (attempt, not_before),
            None => (0, None),
        };
        let opts = SubmitOpts {
            // The deadline covers queueing + (straggler-inflated) runtime:
            // a k× multiple of the modeled duration.
            deadline: cfg.retry.deadline_factor.map(|k| k * duration),
            not_before,
        };
        let (id, placement) = evaluator.submit_evaluation_opts(
            EvalTask { arch: arch.clone(), hp, seed, attempt, cached },
            duration,
            opts,
        );
        debug_assert_eq!(id + 1, *counter, "evaluation ids are the submission count");
        stel.submitted.inc();
        tel.emit(RunEvent::EvalSubmitted {
            id,
            sim: submitted_at,
            bs1: hp.bs1,
            lr1: hp.lr1,
            n: hp.n,
            modeled_duration: modeled,
            cache_hit: memo_hit.is_some(),
            arch: arch.0.clone(),
        });
        if let Some((attempt, _, reason)) = retry {
            tel.emit(RunEvent::EvalRetry {
                id,
                sim: submitted_at,
                attempt: u64::from(attempt),
                reason: reason.to_string(),
            });
        }
        if let Some(objective) = memo_hit {
            tel.emit(RunEvent::EvalCacheHit { id, sim: submitted_at, objective });
        }
        tel.emit(RunEvent::EvalStarted { id, sim: placement.start });
        pending.insert(
            id,
            PendingEval {
                arch,
                hp,
                submitted_at,
                cache_hit: memo_hit.is_some(),
                attempt,
                worker: placement.worker,
            },
        );
    };

    // Initialization: W nonblocking submissions (Algorithm 1, lines 3-7).
    let init_hps: Vec<DataParallelHp> = if pure_random {
        (0..cfg.workers).map(|_| hp_of_point(&hm_space.sample(&mut hp_rng))).collect()
    } else {
        match (&static_hp, &mut bo) {
            (Some(hp), _) => vec![*hp; cfg.workers],
            (None, Some(bo)) => {
                let span = stel.bo_ask.start(evaluator.now());
                let points = ask_from_records(bo, submit_counter, cfg.workers)
                    .unwrap_or_else(|| bo.ask(cfg.workers));
                span.end(evaluator.now());
                tel.emit(RunEvent::BoAsk { sim: evaluator.now(), n_points: cfg.workers });
                points.iter().map(hp_of_point).collect()
            }
            _ => unreachable!("variant has either static or BO hyperparameters"),
        }
    };
    for hp in init_hps {
        let arch = ctx.space.random(&mut arch_rng);
        submit(&mut evaluator, &mut pending, &memo, &mut submit_counter, arch, hp, None);
    }

    let mut last_checkpoint = 0usize;
    let mut stop_reason = StopReason::Completed;

    // Main loop (Algorithm 1, lines 8-25).
    loop {
        let finished = evaluator.get_finished_evaluations();
        if finished.is_empty() {
            break;
        }
        let records_before = records.len();
        let mut batch_x: Vec<HpPoint> = Vec::with_capacity(finished.len());
        let mut batch_y: Vec<f64> = Vec::with_capacity(finished.len());
        let mut n_replace = 0usize;
        // Infrastructure-failed candidates to resubmit this round:
        // (arch, hp, next attempt, reason).
        let mut retries: Vec<(ArchVector, DataParallelHp, u32, &'static str)> = Vec::new();
        for f in &finished {
            let p = pending.remove(&f.id).expect("finished id was pending");
            if f.finished_at > cfg.wall_time {
                continue;
            }
            match &f.outcome {
                EvalOutcome::Ok(TaskOutput::Objective(objective)) => {
                    let objective = *objective;
                    n_replace += 1;
                    streaks[p.worker] = 0;
                    let PendingEval { arch, hp, submitted_at, cache_hit, .. } = p;
                    if cfg.cache != CachePolicy::Off {
                        memo.insert(eval_key(&arch, ctx.applied_hp(hp)), objective);
                    }
                    if cache_hit {
                        n_cache_hits += 1;
                        stel.cache_hits.inc();
                    }
                    records.push(EvalRecord {
                        id: f.id,
                        arch: arch.clone(),
                        hp,
                        objective,
                        submitted_at,
                        finished_at: f.finished_at,
                        duration: f.duration,
                        cache_hit,
                    });
                    stel.finished.inc();
                    if objective > stel.best.get() {
                        stel.best.set(objective);
                    }
                    tel.emit(RunEvent::EvalFinished {
                        id: f.id,
                        sim: f.finished_at,
                        duration: f.duration,
                        objective,
                        cache_hit,
                    });
                    population.push(Member { arch, accuracy: objective });
                    tel.emit(RunEvent::PopulationReplaced {
                        sim: f.finished_at,
                        eval_id: f.id,
                        size: population.len(),
                        full: population.is_full(),
                    });
                    batch_x.push(point_of_hp(hp, &stel.lr_clamped));
                    batch_y.push(objective);
                }
                EvalOutcome::Ok(TaskOutput::Faulted) | EvalOutcome::Ok(TaskOutput::Diverged) => {
                    // Application-level failure. Injected faults keep the
                    // pre-chaos semantics (replace with a fresh candidate,
                    // never retry: the candidate itself is suspect), and a
                    // diverged training is deterministic for its
                    // (arch, hp, seed), so a retry would diverge again.
                    n_replace += 1;
                    n_failed += 1;
                    stel.failed.inc();
                    tel.emit(RunEvent::EvalFault { id: f.id, sim: f.finished_at });
                }
                infra => {
                    // Infrastructure failure: the candidate is innocent, so
                    // it is retried (up to the attempt budget) rather than
                    // discarded, and the worker slot accrues a strike.
                    let reason = match infra {
                        EvalOutcome::Faulted { worker, down_at, up_at } => {
                            tel.emit(RunEvent::WorkerDown { worker: *worker, sim: *down_at });
                            tel.emit(RunEvent::WorkerUp { worker: *worker, sim: *up_at });
                            "outage"
                        }
                        EvalOutcome::Crashed { message } => {
                            tel.emit(RunEvent::EvalCrashed {
                                id: f.id,
                                sim: f.finished_at,
                                message: message.chars().take(200).collect(),
                            });
                            "crash"
                        }
                        EvalOutcome::TimedOut => {
                            tel.emit(RunEvent::EvalTimeout { id: f.id, sim: f.finished_at });
                            "timeout"
                        }
                        EvalOutcome::Ok(_) => unreachable!("handled above"),
                    };
                    n_failed += 1;
                    stel.failed.inc();
                    streaks[p.worker] += 1;
                    if streaks[p.worker] >= cfg.retry.quarantine_after {
                        let until = evaluator.now() + cfg.retry.quarantine_cooldown;
                        evaluator.quarantine_worker(p.worker, until);
                        tel.emit(RunEvent::WorkerQuarantined {
                            worker: p.worker,
                            sim: evaluator.now(),
                            until,
                        });
                        streaks[p.worker] = 0;
                    }
                    if p.attempt + 1 < cfg.retry.max_attempts {
                        retries.push((p.arch, p.hp, p.attempt + 1, reason));
                    } else {
                        // Attempt budget exhausted: give the slot to a
                        // fresh candidate instead.
                        n_replace += 1;
                    }
                }
            }
        }
        if let Some(bo) = &mut bo {
            if !batch_x.is_empty() {
                let span = stel.bo_tell.start(evaluator.now());
                let rejected = bo.tell(&batch_x, &batch_y);
                span.end(evaluator.now());
                tel.emit(RunEvent::BoTell { sim: evaluator.now(), n_points: batch_x.len() });
                if rejected > 0 {
                    stel.bo_rejected.add(rejected as u64);
                    tel.emit(RunEvent::BoRejected {
                        sim: evaluator.now(),
                        n_points: rejected,
                    });
                }
                let evicted = bo.window_evictions();
                stel.bo_window_evictions.add(evicted - bo_evictions_seen);
                bo_evictions_seen = evicted;
            }
        }
        // Periodic checkpoint: every `checkpoint_every` recorded
        // completions the delta since the store's committed prefix is
        // appended (O(delta), crash-safe). Without a store, or with
        // `checkpoint_every = 0`, nothing is persisted mid-run and the
        // event stream is untouched.
        if cfg.checkpoint_every > 0 && records.len() >= last_checkpoint + cfg.checkpoint_every {
            last_checkpoint = records.len();
            if let Some(d) = durable.as_mut() {
                append_durable_delta(
                    d.store,
                    &records,
                    n_failed,
                    n_cache_hits,
                    pending.len(),
                    evaluator.now(),
                    tel,
                    &stel,
                    true,
                );
            }
        }
        // External control (serving layer): charge this round's recorded
        // completions against the tenant allowance, then honor any stop
        // request. An unlimited control never triggers and emits nothing,
        // so a controlled run that finishes naturally stays bitwise
        // identical to an uncontrolled one.
        if let Some(control) = control {
            control.charge(records.len() - records_before);
            if let Some(reason) = control.should_stop() {
                stop_reason = reason;
                break;
            }
        }
        if evaluator.now() >= cfg.wall_time || (n_replace == 0 && retries.is_empty()) {
            break;
        }
        // Resubmit infrastructure-failed candidates first: same
        // (arch, hp) with a bumped attempt index and an optional
        // simulated-time backoff. Chaos-off runs never populate `retries`.
        for (arch, hp, attempt, reason) in retries {
            let backoff = cfg.retry.backoff_for(attempt);
            let not_before = (backoff > 0.0).then(|| evaluator.now() + backoff);
            submit(
                &mut evaluator,
                &mut pending,
                &memo,
                &mut submit_counter,
                arch,
                hp,
                Some((attempt, not_before, reason)),
            );
        }
        if n_replace == 0 {
            continue;
        }
        // Generate |results| replacements (failed slots are refilled too).
        //
        // Architecture generation draws only from `arch_rng` and reads the
        // population; `optimizer.ask` draws only from the BO's own rng
        // stream and its observed history. The two are independent, so the
        // pipelined path runs the ask on a background thread while the
        // manager generates the replacement architectures — the trajectory
        // is bit-identical with pipelining on or off.
        let gen_archs =
            |n: usize, arch_rng: &mut StdRng, population: &Population| -> Vec<ArchVector> {
                (0..n)
                    .map(|_| {
                        if pure_random || !population.is_full() {
                            ctx.space.random(arch_rng)
                        } else {
                            let parent =
                                population.select_parent(cfg.sample_size, arch_rng).arch.clone();
                            if cfg.mutate_layers_only {
                                ctx.space.mutate_layers_only(&parent, arch_rng)
                            } else {
                                ctx.space.mutate(&parent, arch_rng)
                            }
                        }
                    })
                    .collect()
            };
        let (next_hps, archs): (Vec<DataParallelHp>, Vec<ArchVector>) = if pure_random {
            let hps = (0..n_replace).map(|_| hp_of_point(&hm_space.sample(&mut hp_rng))).collect();
            (hps, gen_archs(n_replace, &mut arch_rng, &population))
        } else {
            match (&static_hp, &mut bo) {
                (Some(hp), _) => {
                    (vec![*hp; n_replace], gen_archs(n_replace, &mut arch_rng, &population))
                }
                (None, Some(bo)) => {
                    let ask_sim = evaluator.now();
                    let span = stel.bo_ask.start(ask_sim);
                    // The ids this ask fills: the round's retries were
                    // resubmitted above, so the counter is final.
                    let recorded = ask_from_records(bo, submit_counter, n_replace);
                    let (points, archs) = if recorded.is_none() && cfg.pipeline_ask {
                        std::thread::scope(|scope| {
                            let ask_thread = scope.spawn(|| {
                                let t0 = Instant::now();
                                let points = bo.ask(n_replace);
                                span.end(ask_sim);
                                (points, t0.elapsed().as_secs_f64())
                            });
                            let g0 = Instant::now();
                            let archs = gen_archs(n_replace, &mut arch_rng, &population);
                            let gen_wall = g0.elapsed().as_secs_f64();
                            let (points, ask_wall) =
                                ask_thread.join().expect("bo ask thread panicked");
                            // The overlap won: ask wall-time that was hidden
                            // behind architecture generation.
                            stel.bo_ask_hidden.record(ask_wall.min(gen_wall));
                            (points, archs)
                        })
                    } else {
                        // A fast-forwarded ask runs inline even when
                        // pipelining: it has nothing to hide behind
                        // architecture generation.
                        let points = recorded.unwrap_or_else(|| bo.ask(n_replace));
                        span.end(ask_sim);
                        (points, gen_archs(n_replace, &mut arch_rng, &population))
                    };
                    tel.emit(RunEvent::BoAsk { sim: evaluator.now(), n_points: n_replace });
                    bo.take_fit_seconds(&mut bo_fit_drain);
                    for s in bo_fit_drain.drain(..) {
                        stel.bo_fit.record(s);
                    }
                    (points.iter().map(hp_of_point).collect(), archs)
                }
                _ => unreachable!(),
            }
        };
        for (hp, arch) in next_hps.into_iter().zip(archs) {
            submit(&mut evaluator, &mut pending, &memo, &mut submit_counter, arch, hp, None);
        }
    }

    // Nothing still dispatched can be recorded any more — on natural
    // completion, at `wall_time` and on a control stop alike — so the
    // owned pool drops its queue and aborts what it is training instead
    // of finishing work nobody collects (DESIGN.md §11).
    let closed = evaluator.close();
    stel.trainings_abandoned.add(closed.abandoned as u64);
    stel.trainings_cancelled.add(closed.cancelled as u64);

    // Final durable flush: records completed since the last periodic
    // checkpoint are committed on *every* exit path (natural completion
    // and control stops alike), so the store never trails the returned
    // history by more than a torn tail.
    if let Some(d) = durable.as_mut() {
        append_durable_delta(
            d.store,
            &records,
            n_failed,
            n_cache_hits,
            pending.len(),
            evaluator.now(),
            tel,
            &stel,
            false,
        );
        // Ordinary completion: fold the run's segments into one snapshot
        // and sweep orphans (partial compactions interrupted mid-delete),
        // so a finished run leaves O(1) files behind. Control stops skip
        // this — their store is about to be reopened by a resume, and the
        // resume path compacts on its own cadence. Best effort, like
        // every durable write on the search path.
        if stop_reason == StopReason::Completed {
            if let Ok(stats) = d.store.retain_latest() {
                if let Some(c) = stats.compacted {
                    tel.emit(RunEvent::Compacted {
                        sim: evaluator.now(),
                        folded_segments: c.folded_segments,
                        n_records: c.n_records,
                        bytes_before: c.bytes_before,
                        bytes_after: c.bytes_after,
                    });
                }
            }
        }
    }
    let utilization = evaluator.utilization();
    stel.utilization.set(utilization);
    let history = SearchHistory {
        label: cfg.variant.label(),
        dataset: ctx.meta.name.to_string(),
        variant: Some(cfg.variant.clone()),
        records,
        wall_time: cfg.wall_time,
        n_workers: cfg.workers,
        utilization,
        n_failed,
        n_cache_hits,
    };
    (history, stop_reason)
}

/// Segments a compaction folds into a snapshot once this many are
/// sealed: keeps recovery O(segment cap) instead of O(history).
const AUTO_COMPACT_SEALED_SEGMENTS: usize = 8;

/// Appends `records[committed..]` to the durable store with a commit
/// marker, emitting the durability events and counters. Exactly-once by
/// construction: the slice starts past the store's committed prefix, so
/// a resumed run that replays already-persisted records never re-appends
/// them. Best effort — an I/O error leaves the store behind but must not
/// kill the search.
#[allow(clippy::too_many_arguments)]
fn append_durable_delta(
    store: &mut DurableStore,
    records: &[EvalRecord],
    n_failed: usize,
    n_cache_hits: usize,
    in_flight: usize,
    sim: f64,
    tel: &Telemetry,
    stel: &SearchTelemetry,
    auto_compact: bool,
) {
    let committed = store.committed_records() as usize;
    if records.len() <= committed {
        return;
    }
    let meta = CheckpointMeta { sim, n_failed, n_cache_hits, in_flight };
    match store.append_checkpoint(&records[committed..], meta) {
        Ok(stats) => {
            stel.ckpt_bytes.add(stats.bytes);
            if stats.rotated {
                stel.ckpt_segments.inc();
            }
            tel.emit(RunEvent::CheckpointSegment {
                sim,
                segment: stats.segment,
                n_records: stats.committed_records as usize,
                bytes: stats.bytes,
            });
        }
        Err(_) => return,
    }
    if auto_compact && store.sealed_segments() >= AUTO_COMPACT_SEALED_SEGMENTS {
        if let Ok(stats) = store.compact() {
            tel.emit(RunEvent::Compacted {
                sim,
                folded_segments: stats.folded_segments,
                n_records: stats.n_records,
                bytes_before: stats.bytes_before,
                bytes_after: stats.bytes_after,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agebo_tabular::{DatasetKind, SizeProfile};

    fn ctx() -> Arc<EvalContext> {
        Arc::new(EvalContext::prepare(DatasetKind::Covertype, SizeProfile::Test, 7))
    }

    #[test]
    fn age_search_runs_and_records() {
        let cfg = SearchConfig::test(Variant::age(4)).with_seed(1);
        let h = run_search(ctx(), &cfg);
        assert!(!h.is_empty(), "no evaluations finished");
        assert_eq!(h.label, "AgE-4");
        assert_eq!(h.dataset, "covertype");
        // Static variant: every record uses the default hp at n=4.
        for r in &h.records {
            assert_eq!(r.hp.n, 4);
            assert_eq!(r.hp.bs1, 256);
        }
        // All finished within the wall time, and durations positive.
        for r in &h.records {
            assert!(r.finished_at <= h.wall_time);
            assert!(r.duration > 0.0);
            assert!(r.submitted_at < r.finished_at);
            assert!((0.0..=1.0).contains(&r.objective));
        }
    }

    #[test]
    fn agebo_search_tunes_hyperparameters() {
        let cfg = SearchConfig::test(Variant::agebo()).with_seed(2);
        let h = run_search(ctx(), &cfg);
        assert!(!h.is_empty());
        assert_eq!(h.label, "AgEBO");
        // BO variant: hyperparameters vary across evaluations.
        let distinct_n: std::collections::HashSet<usize> =
            h.records.iter().map(|r| r.hp.n).collect();
        let distinct_bs: std::collections::HashSet<usize> =
            h.records.iter().map(|r| r.hp.bs1).collect();
        assert!(distinct_n.len() > 1 || distinct_bs.len() > 1, "BO never varied the hp");
        for r in &h.records {
            assert!([1, 2, 4, 8].contains(&r.hp.n));
            assert!([32, 64, 128, 256, 512, 1024].contains(&r.hp.bs1));
            assert!((0.001..=0.1).contains(&(r.hp.lr1 as f64)));
        }
    }

    #[test]
    fn frozen_variants_respect_freezes() {
        let cfg = SearchConfig::test(Variant::agebo_lr(8)).with_seed(3).with_wall_time(3000.0);
        let h = run_search(ctx(), &cfg);
        for r in &h.records {
            assert_eq!(r.hp.n, 8);
            assert_eq!(r.hp.bs1, 256);
        }
    }

    #[test]
    fn search_is_deterministic() {
        let cfg = SearchConfig::test(Variant::agebo()).with_seed(4).with_wall_time(4000.0);
        let a = run_search(ctx(), &cfg);
        let b = run_search(ctx(), &cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.arch, y.arch);
            assert_eq!(x.objective, y.objective);
            assert_eq!(x.finished_at, y.finished_at);
        }
    }

    #[test]
    fn utilization_is_high_when_saturated() {
        let cfg = SearchConfig::test(Variant::age(8)).with_seed(5);
        let h = run_search(ctx(), &cfg);
        assert!(h.utilization > 0.7, "utilization={}", h.utilization);
    }

    #[test]
    fn more_ranks_mean_more_evaluations() {
        // Table I's first row: higher n => shorter simulated evaluations
        // => more architectures in the same wall time.
        let cfg1 = SearchConfig::test(Variant::age(1)).with_seed(6);
        let cfg8 = SearchConfig::test(Variant::age(8)).with_seed(6);
        let shared = ctx();
        let h1 = run_search(Arc::clone(&shared), &cfg1);
        let h8 = run_search(shared, &cfg8);
        assert!(
            h8.len() > h1.len() * 3,
            "AgE-8 {} vs AgE-1 {}",
            h8.len(),
            h1.len()
        );
    }

    #[test]
    fn random_search_variant_never_mutates() {
        let cfg = SearchConfig::test(Variant::random_search()).with_seed(10);
        let h = run_search(ctx(), &cfg);
        assert!(!h.is_empty());
        assert_eq!(h.label, "RS");
        // All submissions are uniform random: no record should be at
        // Hamming distance 1 from ALL of its predecessors-by-id... instead
        // check diversity: hp values vary (sampled per submission).
        let distinct_hp: std::collections::HashSet<(usize, usize)> =
            h.records.iter().map(|r| (r.hp.bs1, r.hp.n)).collect();
        assert!(distinct_hp.len() > 1, "random search should sample varied hp");
    }

    #[test]
    fn fault_injection_records_failures_and_continues() {
        let mut cfg = SearchConfig::test(Variant::age(8)).with_seed(11);
        cfg.failure_rate = 0.3;
        let h = run_search(ctx(), &cfg);
        assert!(h.n_failed > 0, "expected some injected failures");
        assert!(!h.is_empty(), "search must survive failures");
        // The cluster stayed saturated despite crashes.
        assert!(h.utilization > 0.6, "utilization {}", h.utilization);
        // Roughly `failure_rate` of completions crash: the recorded
        // fraction should sit near 0.7, and every crash was resubmitted
        // rather than recorded.
        let total = (h.len() + h.n_failed) as f64;
        let recorded = h.len() as f64 / total;
        assert!((0.45..0.95).contains(&recorded), "recorded fraction {recorded}");
        // A failure-free run wastes nothing.
        let mut clean_cfg = SearchConfig::test(Variant::age(8)).with_seed(11);
        clean_cfg.failure_rate = 0.0;
        let clean = run_search(ctx(), &clean_cfg);
        assert!(!clean.is_empty());
        assert_eq!(clean.n_failed, 0);
    }

    #[test]
    fn chaos_search_is_deterministic_and_survives() {
        use crate::config::RetryPolicy;
        use agebo_scheduler::FaultPlan;
        use agebo_telemetry::mask_wall_clock;
        let cfg = SearchConfig::test(Variant::age(8))
            .with_seed(21)
            .with_wall_time(4000.0)
            .with_chaos(FaultPlan::heavy())
            .with_retry(RetryPolicy::hardened());
        let t1 = Telemetry::in_memory();
        let t2 = Telemetry::in_memory();
        let a = run_search_instrumented(ctx(), &cfg, &t1);
        let b = run_search_instrumented(ctx(), &cfg, &t2);
        assert!(!a.is_empty(), "chaos run recorded nothing");
        assert_eq!(a.len(), b.len());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.arch, y.arch);
            assert_eq!(x.objective.to_bits(), y.objective.to_bits());
            assert_eq!(x.submitted_at.to_bits(), y.submitted_at.to_bits());
            assert_eq!(x.finished_at.to_bits(), y.finished_at.to_bits());
        }
        let s1 = mask_wall_clock(&t1.events_jsonl().unwrap());
        let s2 = mask_wall_clock(&t2.events_jsonl().unwrap());
        assert_eq!(s1, s2, "same-seed chaos must replay bit-identically");
        // The heavy profile actually exercised the fault machinery, and
        // every kill was retried or replaced (the search kept going).
        assert!(s1.contains("\"type\":\"worker_down\""), "no outages under heavy chaos");
        assert!(s1.contains("\"type\":\"worker_up\""));
        assert!(s1.contains("\"type\":\"eval_retry\""), "kills were never retried");
        assert!(a.n_failed > 0, "outage kills must count as failures");
    }

    #[test]
    fn stragglers_hit_deadlines_and_are_retried() {
        use crate::config::RetryPolicy;
        use agebo_scheduler::FaultPlan;
        // Half the slots run up to 8× slow; a 2× deadline kills most of
        // their evaluations while the fast slots keep recording results.
        let chaos = FaultPlan {
            mtbf: f64::INFINITY,
            mttr: 0.0,
            straggler_fraction: 0.5,
            straggler_factor: 8.0,
        };
        let retry = RetryPolicy {
            max_attempts: 2,
            backoff: 10.0,
            deadline_factor: Some(2.0),
            quarantine_after: 2,
            quarantine_cooldown: 300.0,
        };
        let cfg = SearchConfig::test(Variant::age(8))
            .with_seed(22)
            .with_wall_time(4000.0)
            .with_chaos(chaos)
            .with_retry(retry);
        let t = Telemetry::in_memory();
        let h = run_search_instrumented(ctx(), &cfg, &t);
        let s = t.events_jsonl().unwrap();
        assert!(s.contains("\"type\":\"eval_timeout\""), "no deadline kills");
        assert!(s.contains("\"type\":\"eval_retry\""), "timeouts were not retried");
        assert!(
            s.contains("\"type\":\"worker_quarantined\""),
            "repeat offenders were never quarantined"
        );
        assert!(h.n_failed > 0);
        assert!(!h.is_empty(), "fast slots should still record results");
    }

    #[test]
    fn hp_point_roundtrip() {
        let clamps = Counter::default();
        let hp = DataParallelHp { lr1: 0.0123, bs1: 512, n: 4 };
        let p = point_of_hp(hp, &clamps);
        let back = hp_of_point(&p);
        assert_eq!(back.bs1, 512);
        assert_eq!(back.n, 4);
        assert!((back.lr1 - 0.0123).abs() < 1e-6);
        assert_eq!(clamps.get(), 0, "in-space lr must not count as clamped");
    }

    #[test]
    fn out_of_space_lr_is_clamped_and_counted() {
        let clamps = Counter::default();
        let high = point_of_hp(DataParallelHp { lr1: 0.5, bs1: 256, n: 1 }, &clamps);
        assert_eq!(high[1], 0.1);
        let low = point_of_hp(DataParallelHp { lr1: 1e-5, bs1: 256, n: 1 }, &clamps);
        assert_eq!(low[1], 0.001);
        assert_eq!(clamps.get(), 2);
    }

    #[test]
    fn pipelined_ask_matches_synchronous_loop() {
        use agebo_telemetry::mask_wall_clock;
        let shared = ctx();
        let base = SearchConfig::test(Variant::agebo()).with_seed(13).with_wall_time(4000.0);
        let t_sync = Telemetry::in_memory();
        let t_pipe = Telemetry::in_memory();
        let a = run_search_instrumented(
            Arc::clone(&shared),
            &base.clone().with_pipeline_ask(false),
            &t_sync,
        );
        let b = run_search_instrumented(shared, &base.with_pipeline_ask(true), &t_pipe);
        // Identical SearchHistory, record by record.
        assert_eq!(a.len(), b.len());
        assert!(!a.is_empty());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.arch, y.arch);
            assert_eq!(x.hp.bs1, y.hp.bs1);
            assert_eq!(x.hp.lr1.to_bits(), y.hp.lr1.to_bits());
            assert_eq!(x.hp.n, y.hp.n);
            assert_eq!(x.objective.to_bits(), y.objective.to_bits());
            assert_eq!(x.submitted_at.to_bits(), y.submitted_at.to_bits());
            assert_eq!(x.finished_at.to_bits(), y.finished_at.to_bits());
        }
        // Identical masked telemetry event streams.
        let s1 = mask_wall_clock(&t_sync.events_jsonl().unwrap());
        let s2 = mask_wall_clock(&t_pipe.events_jsonl().unwrap());
        assert!(!s1.is_empty());
        assert_eq!(s1, s2, "pipelining must not change the event stream");
        // The pipelined run actually overlapped some asks.
        let snap = t_pipe.registry().snapshot();
        assert!(
            snap.histograms["bo_ask_hidden_seconds"].count > 0,
            "pipelined run recorded no overlapped asks"
        );
    }

    #[test]
    fn bo_fit_histogram_counts_each_refit_once() {
        use agebo_telemetry::Envelope;
        let cfg = SearchConfig::test(Variant::agebo()).with_seed(4).with_wall_time(4000.0);
        let tel = Telemetry::in_memory();
        run_search_instrumented(ctx(), &cfg, &tel);
        // Once `bo_n_initial` observations exist, an `ask(q)` refits the
        // forest q times (one fit plus q-1 constant-liar refits); before
        // that it samples at random and fits nothing.
        let mut observed = 0usize;
        let mut refits = 0usize;
        for line in tel.events_jsonl().unwrap().lines() {
            match Envelope::parse(line).unwrap().event {
                RunEvent::BoTell { n_points, .. } => observed += n_points,
                RunEvent::BoAsk { n_points, .. } if observed >= cfg.bo_n_initial => {
                    refits += n_points
                }
                _ => {}
            }
        }
        assert!(refits > 0, "search too short to fit the surrogate");
        let snap = tel.registry().snapshot();
        assert_eq!(snap.histograms["bo_fit_seconds"].count as usize, refits);
    }

    #[test]
    fn instrumented_search_emits_deterministic_stream() {
        use agebo_telemetry::mask_wall_clock;
        let cfg = SearchConfig::test(Variant::agebo()).with_seed(4);
        let t1 = Telemetry::in_memory();
        let t2 = Telemetry::in_memory();
        let a = run_search_instrumented(ctx(), &cfg, &t1);
        let b = run_search_instrumented(ctx(), &cfg, &t2);
        assert_eq!(a.len(), b.len());
        let s1 = mask_wall_clock(&t1.events_jsonl().unwrap());
        let s2 = mask_wall_clock(&t2.events_jsonl().unwrap());
        assert!(!s1.is_empty());
        assert_eq!(s1, s2, "same-seed event streams must match modulo wall clock");
        assert!(s1.contains("\"type\":\"run_manifest\""));
        assert!(s1.contains("\"type\":\"eval_submitted\""));
        assert!(s1.contains("\"type\":\"eval_finished\""));
        assert!(s1.contains("\"type\":\"bo_ask\""));
        // Metrics agree with the history the run returned.
        let snap = t1.registry().snapshot();
        assert_eq!(snap.counters["search_evals_finished_total"] as usize, a.len());
        assert!(snap.gauges["search_utilization"] > 0.0);
        let best = a.best_so_far().last().map(|&(_, b)| b).unwrap_or(0.0);
        assert!((snap.gauges["search_best_objective"] - best).abs() < 1e-12);
        // The disabled path records nothing but behaves identically.
        let plain = run_search(ctx(), &cfg);
        assert_eq!(plain.len(), a.len());
    }

    #[test]
    fn unlimited_control_is_bitwise_identical_to_plain_run() {
        let cfg = SearchConfig::test(Variant::agebo()).with_seed(11);
        let plain = run_search(ctx(), &cfg);
        let (controlled, reason) = run_search_controlled(
            ctx(),
            &cfg,
            &Telemetry::disabled(),
            &RunControl::unlimited(),
        );
        assert_eq!(reason, StopReason::Completed);
        assert_eq!(plain.to_json_string(), controlled.to_json_string());
    }

    #[test]
    fn allowance_stops_the_search_with_budget_exhausted() {
        let cfg = SearchConfig::test(Variant::agebo()).with_seed(11);
        let full = run_search(ctx(), &cfg);
        assert!(full.len() > 8, "full run too short to observe a cutoff");
        let allowance = Arc::new(AtomicU64::new(3));
        let control = RunControl::unlimited().with_allowance(Arc::clone(&allowance));
        let (h, reason) = run_search_controlled(ctx(), &cfg, &Telemetry::disabled(), &control);
        assert_eq!(reason, StopReason::BudgetExhausted);
        assert_eq!(allowance.load(Ordering::Acquire), 0);
        // The cutoff lands at a round boundary: at least the allowance,
        // well short of the full run.
        assert!(h.len() >= 3 && h.len() < full.len(), "len = {}", h.len());
        // The records it did produce are a prefix-consistent replay of the
        // uncontrolled run (same ids, same objectives).
        for (a, b) in h.records.iter().zip(&full.records) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        }
    }

    #[test]
    fn allowance_one_trains_what_it_collects_and_abandons_the_batch() {
        // Twelve slots: the whole first batch is dispatched before the
        // manager blocks once. One compute thread trains the first
        // finisher and may start one more task before the stop reaches it.
        // Long trainings, so a stalled manager thread cannot let a third
        // task start before `close`.
        let shared =
            Arc::new(EvalContext::prepare(DatasetKind::Covertype, SizeProfile::Test, 7).with_epochs(24));
        let mut cfg = SearchConfig::test(Variant::agebo()).with_seed(11).with_wall_time(400.0);
        cfg.workers = 12;
        cfg.n_threads = 1;
        let full = run_search(Arc::clone(&shared), &cfg);
        let tel = Telemetry::in_memory();
        let control = RunControl::unlimited().with_allowance(Arc::new(AtomicU64::new(1)));
        let (h, reason) = run_search_controlled(shared, &cfg, &tel, &control);
        assert_eq!(reason, StopReason::BudgetExhausted);
        assert!(!h.is_empty() && h.len() < full.len(), "{} of {}", h.len(), full.len());
        assert_eq!(
            format!("{:?}", h.records),
            format!("{:?}", &full.records[..h.len()]),
            "the stopped run's records are not the head of the full run's"
        );
        let counters = tel.registry().snapshot().counters;
        let started = counters["eval_scratch_hits_total"] + counters["eval_scratch_misses_total"];
        assert!(started <= cfg.n_threads as u64 + 1, "{started} trainings started");
        // Every dispatched evaluation was either started or abandoned, and
        // at most the one in progress at the stop was cancelled.
        let batch = cfg.workers as u64;
        assert_eq!(counters["search_evals_submitted_total"], batch);
        assert_eq!(started + counters["search_trainings_abandoned_total"], batch);
        assert!(counters["search_trainings_cancelled_total"] <= 1);
    }

    #[test]
    fn history_and_events_do_not_depend_on_compute_threads() {
        use crate::config::RetryPolicy;
        use agebo_scheduler::FaultPlan;
        use agebo_telemetry::mask_wall_clock;
        let shared = ctx();
        for chaos in [false, true] {
            let mut base = SearchConfig::test(Variant::agebo()).with_seed(17).with_wall_time(3000.0);
            if chaos {
                base = base.with_chaos(FaultPlan::heavy()).with_retry(RetryPolicy::hardened());
                base.failure_rate = 0.2;
            }
            let mut reference: Option<(String, String)> = None;
            for pipeline_ask in [true, false] {
                for n_threads in [1, 2, 4] {
                    let mut cfg = base.clone().with_pipeline_ask(pipeline_ask);
                    cfg.n_threads = n_threads;
                    let tel = Telemetry::in_memory();
                    let h = run_search_instrumented(Arc::clone(&shared), &cfg, &tel);
                    assert!(!h.is_empty());
                    let run = (h.to_json_string(), mask_wall_clock(&tel.events_jsonl().unwrap()));
                    let reference = reference.get_or_insert_with(|| run.clone());
                    assert!(
                        run == *reference,
                        "chaos {chaos}, pipeline_ask {pipeline_ask}, n_threads {n_threads} diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn stop_flag_ends_the_run_with_stopped() {
        let cfg = SearchConfig::test(Variant::agebo()).with_seed(5);
        let control = RunControl::unlimited();
        control.stop_flag().store(true, Ordering::Relaxed);
        let (h, reason) = run_search_controlled(ctx(), &cfg, &Telemetry::disabled(), &control);
        assert_eq!(reason, StopReason::Stopped);
        let full = run_search(ctx(), &cfg);
        assert!(h.len() < full.len(), "stop flag did not shorten the run");
    }
}
