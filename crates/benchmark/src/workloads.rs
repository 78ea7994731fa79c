//! The four workloads: frozen parameters, input generation from the
//! seed, the timed regions (untraced and traced), the `ttfe_s` probes and
//! the per-workload output checks.
//!
//! Every workload is a closed loop in one process: the search submits its
//! next evaluations only after earlier ones complete, on `threads` real
//! compute threads.
//!
//! What `--seed` generates is the data: every row, label and split of the
//! data sets the searches train on. The searches' own RNG seeds are frozen
//! parameters like the worker counts. A search's cost is chaotic in its
//! RNG seed — which region BO settles in, how large the evolved networks
//! grow, and where in the dispatch queue the first simulated finisher
//! sits differ by ±25 % between seeds — and no affordable amount of
//! averaging brought that inside the bounds; with the RNG frozen, ten
//! seeds agree to within the host's own noise. `serve_disjoint` cannot
//! split the two (a `SessionSpec` builds its context from the search
//! seed), so there the seed draws the sessions' arrival order and gaps.

use crate::io::{CountingIo, IoLedger};
use crate::pool::{EvalSample, TracedPool};
use crate::trace::Tracer;
use agebo_core::{
    run_search_controlled, run_search_durable, run_search_instrumented, run_search_served,
    DurableRun, DurableStore, EvalContext, ExternalCompute, RealIo, Recovered, RunControl,
    RunHeader, SearchConfig, SearchHistory, StopReason, StoreIo, Variant,
};
use agebo_serve::{
    Admission, CacheStats, ServeOptions, SessionManager, SessionReport, SessionSpec,
    SessionTelemetry, TenantBudget,
};
use agebo_tabular::{DatasetKind, SizeProfile};
use agebo_telemetry::{MetricsSnapshot, Telemetry};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `--seconds` at which the budget factor is 1; `BENCHMARK.json` carries
/// the same number as `run_seconds`.
pub const RUN_SECONDS: f64 = 12.0;

/// `search_train`: independent `SearchConfig::bench` searches per run at
/// factor 1 (fewer below it: a search's start-up batch and drained tail
/// do not shrink with its evaluation count).
const TRAIN_SEARCHES: f64 = 3.0;
/// Recorded evaluations after which each of them stops, at factor 1
/// (about what its 3 000 s simulated budget yields).
const TRAIN_EVALS: f64 = 36.0;
/// Real epochs per `search_train` evaluation (the bench profile's 10 would
/// put one run at 30 s; per-epoch work is unchanged).
const TRAIN_EPOCHS: usize = 2;
/// Recorded evaluations after which `search_manager` stops (and
/// `resume_replay` has replayed everything), at factor 1.
const MANAGER_EVALS: f64 = 1000.0;
const MANAGER_WORKERS: usize = 128;
/// Simulated budget of a search that stops on its evaluation count: the
/// count varies by ±11 % between data seeds under a fixed simulated
/// budget, and replay cost grows faster than linearly in it.
const UNBOUNDED_SIM_SECONDS: f64 = 1e9;
const MANAGER_CHECKPOINT_EVERY: usize = 10;
/// Simulated budget of each `serve_disjoint` session at factor 1.
const SERVE_SIM_SECONDS: f64 = 6_000.0;
const SERVE_WORKERS: usize = 6;
const SERVE_CACHE_CAPACITY: usize = 4096;
/// Session `i` searches (and builds its data) with seed `base + 17·i`.
const SERVE_SEED_BASE: u64 = 1000;
/// Sessions arrive this many milliseconds apart at most.
const SERVE_MAX_GAP_MS: u64 = 20;
const TENANT: &str = "bench";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SearchTrain,
    SearchManager,
    ResumeReplay,
    ServeDisjoint,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SearchTrain,
        Workload::SearchManager,
        Workload::ResumeReplay,
        Workload::ServeDisjoint,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchTrain => "search_train",
            Workload::SearchManager => "search_manager",
            Workload::ResumeReplay => "resume_replay",
            Workload::ServeDisjoint => "serve_disjoint",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How a timed run ends: the single searches stop on their
    /// evaluation count, the served sessions on their simulated budget.
    pub fn expected_stop(self) -> StopReason {
        match self {
            Workload::ServeDisjoint => StopReason::Completed,
            _ => StopReason::BudgetExhausted,
        }
    }

    /// Why the workload is in the set (one line, also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SearchTrain => {
                "bench-profile searches, few observations: nearly all CPU is training (tensor/nn/dataparallel/tabular); BO and the store are bypassed"
            }
            Workload::SearchManager => {
                "128-worker durable search on 1-epoch evaluations: BO ask/refit at growing history, arch generation, DES and store appends dominate; training is the minority"
            }
            Workload::ResumeReplay => {
                "resume of the complete search_manager store: the durable read path plus a full replay with zero trainings"
            }
            Workload::ServeDisjoint => {
                "4 sessions on 4 different data sets over shared slots: pool dispatch, DRR and cache misses only, so memo dedup cannot flatter it"
            }
        }
    }
}

/// What every invocation is parameterised by.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// `--seconds / RUN_SECONDS`: the one common scale on the workloads'
    /// budgets.
    pub factor: f64,
    /// Real compute threads: `min(nproc, 2)`.
    pub threads: usize,
}

pub fn compute_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2)
}

/// The result of one timed region.
#[derive(Default)]
pub struct Outcome {
    pub wall_s: f64,
    pub histories: Vec<SearchHistory>,
    pub stops: Vec<StopReason>,
    /// Evaluations handed to the scheduler (recorded + failed + in flight
    /// at the end).
    pub submitted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn recorded(&self) -> usize {
        self.histories.iter().map(SearchHistory::len).sum()
    }

    /// FNV-1a over every history's JSON: equal digests mean bitwise-equal
    /// histories.
    pub fn digest(&self) -> String {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for history in &self.histories {
            for b in history.to_json_string().bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        format!("{h:016x}")
    }
}

/// What the traced run adds to an [`Outcome`].
#[derive(Default)]
pub struct Traced {
    pub outcome: Outcome,
    /// Pool samples per search (empty for `serve_disjoint`, which owns
    /// its pool).
    pub samples: Vec<Vec<EvalSample>>,
    pub pool_switches: u64,
    /// The searches' metric registries, summed.
    pub registry: MetricsSnapshot,
    pub events: u64,
    pub io: IoLedger,
    pub open_ms: f64,
    pub recovered_records: u64,
    pub discarded_tail_bytes: u64,
    pub sessions: Vec<SessionReport>,
    pub cache: CacheStats,
}

/// Where the traced run hangs its spans.
pub struct TraceCtx {
    pub tracer: Arc<Tracer>,
    pub root: u64,
    /// Scratch for telemetry directories.
    pub dir: PathBuf,
}

/// Generated inputs of one workload.
pub enum Inputs {
    /// Each search stops after `evals` recorded evaluations.
    Searches {
        searches: Vec<(Arc<EvalContext>, SearchConfig)>,
        evals: u64,
    },
    Durable {
        ctx: Arc<EvalContext>,
        cfg: SearchConfig,
        evals: u64,
        /// Fresh directory the timed region writes (or resumes) in.
        dir: PathBuf,
    },
    Serve {
        manager: SessionManager,
        /// In arrival order, each with the gap before it is submitted.
        arrivals: Vec<(SessionSpec, Duration)>,
        /// The contexts the manager will build for itself, in the same
        /// order; the first arrival's is used for the standalone comparison.
        contexts: Vec<Arc<EvalContext>>,
    },
}

/// The complete store `resume_replay` resumes, built once per invocation.
pub struct Fixture {
    pub dir: PathBuf,
    pub history: SearchHistory,
}

fn sub_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add(17 * i as u64)
}

/// The default seed of `SearchConfig`, stated: every single search runs
/// its RNG streams from here (`search_train`'s `i`-th from `0 + i`).
const SEARCH_SEED: u64 = 0;

fn eval_budget(at_factor_one: f64, p: Params) -> u64 {
    (at_factor_one * p.factor).round().max(1.0) as u64
}

fn stop_after(evals: u64) -> RunControl {
    RunControl::unlimited().with_allowance(Arc::new(AtomicU64::new(evals)))
}

fn manager_cfg(dir: &Path, p: Params) -> SearchConfig {
    let mut cfg = SearchConfig::paper(Variant::agebo())
        .with_seed(SEARCH_SEED)
        .with_wall_time(UNBOUNDED_SIM_SECONDS)
        .with_checkpoint_dir(MANAGER_CHECKPOINT_EVERY, dir.to_string_lossy());
    cfg.workers = MANAGER_WORKERS;
    cfg.n_threads = p.threads;
    cfg
}

fn manager_ctx(p: Params) -> Arc<EvalContext> {
    Arc::new(EvalContext::prepare(DatasetKind::Covertype, SizeProfile::Test, p.seed).with_epochs(1))
}

fn run_header(cfg: &SearchConfig) -> RunHeader {
    RunHeader {
        dataset: DatasetKind::Covertype.name().to_string(),
        profile: "test".to_string(),
        seed: cfg.seed,
        variant: cfg.variant.clone(),
        wall_time: cfg.wall_time,
        workers: cfg.workers,
        failure_rate: cfg.failure_rate,
        chaos: cfg.chaos,
        cache: cfg.cache,
        checkpoint_every: cfg.checkpoint_every,
        fingerprint: 0,
        surrogate_window: cfg.surrogate_window,
        bo_trees: cfg.bo_trees,
        bo_candidates: cfg.bo_candidates,
    }
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create store copy");
    for entry in std::fs::read_dir(from).expect("read fixture store") {
        let path = entry.expect("fixture entry").path();
        std::fs::copy(&path, to.join(path.file_name().expect("file name")))
            .expect("copy store file");
    }
}

/// Builds the workload's inputs — the region `setup_s` times. `scratch`
/// must be a directory nothing else uses; `fixture` is required for
/// `resume_replay`.
pub fn setup(w: Workload, p: Params, scratch: &Path, fixture: Option<&Fixture>) -> Inputs {
    match w {
        Workload::SearchTrain => Inputs::Searches {
            evals: eval_budget(TRAIN_EVALS, p),
            searches: (0..(TRAIN_SEARCHES * p.factor.min(1.0)).ceil() as usize)
                .map(|i| {
                    let data_seed = sub_seed(p.seed, i);
                    let ctx =
                        EvalContext::prepare(DatasetKind::Covertype, SizeProfile::Bench, data_seed)
                            .with_epochs(TRAIN_EPOCHS);
                    let mut cfg = SearchConfig::bench(Variant::agebo())
                        .with_seed(SEARCH_SEED + i as u64)
                        .with_wall_time(UNBOUNDED_SIM_SECONDS);
                    cfg.n_threads = p.threads;
                    (Arc::new(ctx), cfg)
                })
                .collect(),
        },
        Workload::SearchManager | Workload::ResumeReplay => {
            if let Some(fixture) = fixture {
                copy_dir(&fixture.dir, scratch);
            }
            Inputs::Durable {
                ctx: manager_ctx(p),
                cfg: manager_cfg(scratch, p),
                evals: eval_budget(MANAGER_EVALS, p),
                dir: scratch.to_path_buf(),
            }
        }
        Workload::ServeDisjoint => {
            let manager = SessionManager::new(ServeOptions {
                slots: p.threads,
                cache_capacity: SERVE_CACHE_CAPACITY,
            });
            manager.register_tenant(TENANT, TenantBudget::default());
            let (arrivals, contexts) = serve_sessions(p);
            Inputs::Serve {
                manager,
                arrivals,
                contexts,
            }
        }
    }
}

fn serve_sessions(p: Params) -> (Vec<(SessionSpec, Duration)>, Vec<Arc<EvalContext>>) {
    let mut sessions: Vec<_> = DatasetKind::ALL
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            let mut cfg = SearchConfig::bench(Variant::agebo())
                .with_seed(sub_seed(SERVE_SEED_BASE, i))
                .with_wall_time(SERVE_SIM_SECONDS * p.factor);
            cfg.workers = SERVE_WORKERS;
            // Only the standalone comparison run uses it; served sessions
            // compute on the manager's slots.
            cfg.n_threads = p.threads;
            let ctx = Arc::new(EvalContext::prepare(kind, SizeProfile::Test, cfg.seed));
            (
                SessionSpec::new(format!("s{i}"), TENANT, kind, SizeProfile::Test, cfg),
                ctx,
            )
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(p.seed);
    sessions.shuffle(&mut rng);
    sessions
        .into_iter()
        .map(|(spec, ctx)| {
            (
                (
                    spec,
                    Duration::from_millis(rng.gen_range(0..SERVE_MAX_GAP_MS)),
                ),
                ctx,
            )
        })
        .unzip()
}

/// Runs `search_manager`'s search once, untimed, to produce the complete
/// store `resume_replay` resumes.
pub fn build_fixture(p: Params, dir: &Path) -> Fixture {
    let inputs = setup(Workload::SearchManager, p, dir, None);
    let mut outcome = run(Workload::SearchManager, &inputs);
    assert_eq!(
        outcome.stops,
        [StopReason::BudgetExhausted],
        "fixture search ended early"
    );
    Fixture {
        dir: dir.to_path_buf(),
        history: outcome.histories.remove(0),
    }
}

/// One durable search in `dir`, stopped after `evals` recorded
/// evaluations: a fresh store for `search_manager`, or whatever
/// `DurableStore::open` recovers for `resume_replay` (returned with the
/// seconds the open took).
fn durable_search(
    w: Workload,
    inputs: (&Arc<EvalContext>, &SearchConfig, u64, &Path),
    io: Box<dyn StoreIo>,
    tel: &Telemetry,
    compute: Option<ExternalCompute>,
) -> (SearchHistory, StopReason, Option<(Recovered, f64)>) {
    let (ctx, cfg, evals, dir) = inputs;
    let (mut store, recovered) = if w == Workload::ResumeReplay {
        let t0 = Instant::now();
        let (store, recovered) = DurableStore::open(io, dir).expect("open fixture store");
        (store, Some((recovered, t0.elapsed().as_secs_f64())))
    } else {
        (
            DurableStore::create(io, dir, run_header(cfg)).expect("create durable store"),
            None,
        )
    };
    let durable = DurableRun {
        store: &mut store,
        recovered: recovered.as_ref().map(|(r, _)| r),
    };
    let control = stop_after(evals);
    let (h, stop) = run_search_durable(Arc::clone(ctx), cfg, tel, Some(&control), compute, durable);
    (h, stop, recovered)
}

fn counter(tel: &Telemetry, name: &str) -> u64 {
    tel.registry().counter(name).get()
}

/// The untraced timed region: entry-point call to returned history (all
/// sessions joined). Telemetry is disabled; its registry still counts.
pub fn run(w: Workload, inputs: &Inputs) -> Outcome {
    let tel = Telemetry::disabled();
    let t0 = Instant::now();
    let (histories, stops) = match (w, inputs) {
        (Workload::SearchTrain, Inputs::Searches { searches, evals }) => searches
            .iter()
            .map(|(ctx, cfg)| {
                run_search_controlled(Arc::clone(ctx), cfg, &tel, &stop_after(*evals))
            })
            .unzip(),
        (
            Workload::SearchManager | Workload::ResumeReplay,
            Inputs::Durable {
                ctx,
                cfg,
                evals,
                dir,
            },
        ) => {
            let (h, stop, _) =
                durable_search(w, (ctx, cfg, *evals, dir), Box::new(RealIo), &tel, None);
            (vec![h], vec![stop])
        }
        (
            Workload::ServeDisjoint,
            Inputs::Serve {
                manager, arrivals, ..
            },
        ) => {
            let reports = serve(manager, arrivals.clone());
            let wall_s = t0.elapsed().as_secs_f64();
            return serve_outcome(wall_s, reports).0;
        }
        _ => unreachable!("inputs were built for another workload"),
    };
    Outcome {
        wall_s: t0.elapsed().as_secs_f64(),
        histories,
        stops,
        submitted: counter(&tel, "search_evals_submitted_total"),
        failed: counter(&tel, "search_evals_failed_total"),
    }
}

/// Submits every session at its arrival time and joins them all. A
/// rejected session has no report and counts as failed.
fn serve(
    manager: &SessionManager,
    arrivals: Vec<(SessionSpec, Duration)>,
) -> Vec<Option<SessionReport>> {
    let handles: Vec<_> = arrivals
        .into_iter()
        .map(|(spec, gap)| {
            std::thread::sleep(gap);
            match manager.submit(spec) {
                Admission::Accepted(handle) => Some(handle),
                Admission::Rejected { .. } => None,
            }
        })
        .collect();
    handles.into_iter().map(|h| h.map(|h| h.join())).collect()
}

fn serve_outcome(
    wall_s: f64,
    reports: Vec<Option<SessionReport>>,
) -> (Outcome, Vec<SessionReport>) {
    let rejected = reports.iter().filter(|r| r.is_none()).count() as u64;
    let reports: Vec<SessionReport> = reports.into_iter().flatten().collect();
    let histories: Vec<SearchHistory> = reports.iter().map(|r| r.history.clone()).collect();
    let failed_evals: u64 = histories.iter().map(|h| h.n_failed as u64).sum();
    let recorded: u64 = histories.iter().map(|h| h.len() as u64).sum();
    let outcome = Outcome {
        wall_s,
        stops: reports.iter().map(|r| r.stop).collect(),
        // The serve layer exposes no submission count; sessions count as
        // attempts beside the evaluations that reached a verdict.
        submitted: recorded + failed_evals + reports.len() as u64 + rejected,
        failed: failed_evals + rejected,
        histories,
    };
    (outcome, reports)
}

/// `ttfe_s`: seconds a run of the same inputs takes under an allowance of
/// one recorded evaluation (the mean, where there are several searches
/// or repeats), plus the histories and stop reasons to check. Not
/// defined for `resume_replay`.
pub fn ttfe(w: Workload, p: Params, inputs: &Inputs, scratch: &Path) -> (f64, Outcome) {
    let tel = Telemetry::disabled();
    match (w, inputs) {
        (Workload::SearchTrain, Inputs::Searches { searches, .. }) => {
            let mut seconds = Vec::new();
            let (histories, stops) = searches
                .iter()
                .map(|(ctx, cfg)| {
                    let t0 = Instant::now();
                    let out = run_search_controlled(Arc::clone(ctx), cfg, &tel, &stop_after(1));
                    seconds.push(t0.elapsed().as_secs_f64());
                    out
                })
                .unzip();
            let outcome = Outcome {
                wall_s: seconds.iter().sum(),
                histories,
                stops,
                ..Outcome::default()
            };
            (outcome.wall_s / seconds.len() as f64, outcome)
        }
        (Workload::SearchManager, Inputs::Durable { ctx, .. }) => {
            // The probe is short (a second); the mean of three keeps one
            // scheduling hiccup from being the number.
            let mut seconds = Vec::new();
            let mut outcome = Outcome::default();
            for i in 0..3 {
                let dir = scratch.join(i.to_string());
                let cfg = manager_cfg(&dir, p);
                let t0 = Instant::now();
                let (h, stop, _) =
                    durable_search(w, (ctx, &cfg, 1, &dir), Box::new(RealIo), &tel, None);
                seconds.push(t0.elapsed().as_secs_f64());
                outcome = Outcome {
                    histories: vec![h],
                    stops: vec![stop],
                    ..Outcome::default()
                };
            }
            outcome.wall_s = seconds.iter().sum();
            (outcome.wall_s / seconds.len() as f64, outcome)
        }
        (Workload::ServeDisjoint, Inputs::Serve { arrivals, .. }) => {
            let manager = SessionManager::new(ServeOptions {
                slots: p.threads,
                cache_capacity: SERVE_CACHE_CAPACITY,
            });
            manager.register_tenant(
                TENANT,
                TenantBudget {
                    max_evals: Some(1),
                    ..TenantBudget::default()
                },
            );
            let t0 = Instant::now();
            let reports = serve(&manager, arrivals.clone());
            let wall_s = t0.elapsed().as_secs_f64();
            (wall_s, serve_outcome(wall_s, reports).0)
        }
        _ => unreachable!("ttfe_s is not defined for this workload"),
    }
}

fn merge(into: &mut MetricsSnapshot, from: MetricsSnapshot) {
    for (k, v) in from.counters {
        *into.counters.entry(k).or_insert(0) += v;
    }
    for (k, h) in from.histograms {
        match into.histograms.get_mut(&k) {
            Some(acc) => {
                acc.sum += h.sum;
                acc.count += h.count;
            }
            None => {
                into.histograms.insert(k, h);
            }
        }
    }
}

/// The traced timed region: the same inputs through the public seams —
/// a benchmark-owned compute pool, a counting `StoreIo`, telemetry on.
pub fn run_traced(w: Workload, p: Params, inputs: &Inputs, t: &TraceCtx) -> Traced {
    let mut traced = Traced::default();
    let t0 = Instant::now();
    match (w, inputs) {
        (Workload::SearchTrain, Inputs::Searches { searches, evals }) => {
            for (i, (ctx, cfg)) in searches.iter().enumerate() {
                let tel = Telemetry::to_dir(t.dir.join(format!("tel-{i}"))).expect("telemetry dir");
                let (pool, compute) = TracedPool::spawn(
                    p.threads,
                    Arc::clone(ctx),
                    cfg.failure_rate,
                    &tel,
                    Arc::clone(&t.tracer),
                    t.root,
                );
                let (h, stop) =
                    run_search_served(Arc::clone(ctx), cfg, &tel, &stop_after(*evals), compute);
                finish_search(&mut traced, tel, pool, h, stop);
            }
        }
        (
            Workload::SearchManager | Workload::ResumeReplay,
            Inputs::Durable {
                ctx,
                cfg,
                evals,
                dir,
            },
        ) => {
            let tel = Telemetry::to_dir(t.dir.join("tel")).expect("telemetry dir");
            let (io, ledger) = CountingIo::new(RealIo, Some((Arc::clone(&t.tracer), t.root)));
            let (pool, compute) = TracedPool::spawn(
                p.threads,
                Arc::clone(ctx),
                cfg.failure_rate,
                &tel,
                Arc::clone(&t.tracer),
                t.root,
            );
            let (h, stop, recovered) = durable_search(
                w,
                (ctx, cfg, *evals, dir),
                Box::new(io),
                &tel,
                Some(compute),
            );
            if let Some((recovered, open_s)) = recovered {
                traced.open_ms = open_s * 1e3;
                traced.recovered_records = recovered.records.len() as u64;
                traced.discarded_tail_bytes = recovered.discarded_tail_bytes;
            }
            finish_search(&mut traced, tel, pool, h, stop);
            traced.io = ledger.lock().expect("io ledger lock poisoned").clone();
        }
        (
            Workload::ServeDisjoint,
            Inputs::Serve {
                manager, arrivals, ..
            },
        ) => {
            let arrivals = arrivals
                .iter()
                .map(|(s, gap)| {
                    (
                        s.clone()
                            .with_telemetry(SessionTelemetry::Dir(t.dir.join(&s.name))),
                        *gap,
                    )
                })
                .collect();
            let reports = serve(manager, arrivals);
            let wall_s = t0.elapsed().as_secs_f64();
            let (outcome, sessions) = serve_outcome(wall_s, reports);
            for s in &sessions {
                let dir = s.telemetry_dir.as_ref().expect("session telemetry dir");
                let text = std::fs::read_to_string(dir.join(agebo_telemetry::METRICS_FILE))
                    .expect("session metrics.json");
                let events = std::fs::read_to_string(dir.join(agebo_telemetry::EVENTS_FILE))
                    .expect("session events.jsonl");
                traced.events += events.lines().count() as u64;
                merge(
                    &mut traced.registry,
                    MetricsSnapshot::from_json_str(&text).expect("metrics.json parses"),
                );
            }
            traced.cache = manager.cache_stats();
            traced.outcome = outcome;
            traced.sessions = sessions;
            return traced;
        }
        _ => unreachable!("inputs were built for another workload"),
    }
    traced.outcome.wall_s = t0.elapsed().as_secs_f64();
    traced.outcome.submitted = traced
        .registry
        .counters
        .get("search_evals_submitted_total")
        .copied()
        .unwrap_or(0);
    traced.outcome.failed = traced
        .registry
        .counters
        .get("search_evals_failed_total")
        .copied()
        .unwrap_or(0);
    traced
}

/// Closes one traced search: the pool drains once the search has dropped
/// its submit handle, exactly as its private pool would on drop.
fn finish_search(
    traced: &mut Traced,
    tel: Telemetry,
    pool: TracedPool,
    h: SearchHistory,
    stop: StopReason,
) {
    let (samples, switches) = pool.join();
    tel.flush().expect("flush telemetry");
    traced.events += tel.n_events();
    merge(&mut traced.registry, tel.registry().snapshot());
    traced.samples.push(samples);
    traced.pool_switches += switches;
    traced.outcome.histories.push(h);
    traced.outcome.stops.push(stop);
}

/// One string per record that is equal exactly when the records are
/// bitwise equal (`f64`'s `Debug` prints the shortest text that
/// round-trips).
fn record_keys(records: &[agebo_core::EvalRecord]) -> Vec<String> {
    records.iter().map(|r| format!("{r:?}")).collect()
}

/// Checks a timed run's outputs on their own; every violated expectation
/// is one line.
pub fn verify(w: Workload, inputs: &Inputs, outcome: &Outcome) -> Vec<String> {
    let mut problems = Vec::new();
    if outcome.histories.is_empty() || outcome.histories.iter().any(SearchHistory::is_empty) {
        problems.push("a search recorded no evaluation".to_string());
    }
    for stop in &outcome.stops {
        if *stop != w.expected_stop() {
            problems.push(format!(
                "stop reason {} in the timed run, expected {}",
                stop.label(),
                w.expected_stop().label()
            ));
        }
    }
    let budget = match inputs {
        Inputs::Searches { evals, .. } | Inputs::Durable { evals, .. } => *evals as usize,
        Inputs::Serve { .. } => 1,
    };
    if outcome.histories.iter().any(|h| h.len() < budget) {
        problems.push(format!(
            "a search stopped short of its {budget} evaluations"
        ));
    }
    if outcome.failed != 0 {
        problems.push(format!("{} failed evaluations or sessions", outcome.failed));
    }
    for h in &outcome.histories {
        let valid = h.records.iter().all(|r| {
            r.objective.is_finite()
                && (0.0..=1.0).contains(&r.objective)
                && r.finished_at <= h.wall_time
                && r.submitted_at < r.finished_at
        });
        if !valid {
            problems.push("a record is outside [0,1] accuracy or the simulated budget".to_string());
        }
    }
    if let Inputs::Serve { manager, .. } = inputs {
        let cache = manager.cache_stats();
        if cache.hits != 0 || cache.coalesced != 0 {
            problems.push(format!(
                "disjoint sessions shared {} cache entries",
                cache.hits + cache.coalesced
            ));
        }
    }
    problems
}

/// Checks a timed run against a second source of truth: the `ttfe_s`
/// probe of the same inputs, and what the workload's outputs must equal.
/// (A traced run is held against its untraced twin instead.)
pub fn verify_against(
    w: Workload,
    inputs: &Inputs,
    fixture: Option<&Fixture>,
    outcome: &Outcome,
    probe: Option<&Outcome>,
) -> Vec<String> {
    let mut problems = Vec::new();
    if let Some(probe) = probe {
        for stop in &probe.stops {
            if *stop != StopReason::BudgetExhausted {
                problems.push(format!(
                    "ttfe run stopped with {}, expected budget_exhausted",
                    stop.label()
                ));
            }
        }
        if probe.histories.len() != outcome.histories.len() {
            problems.push("ttfe run lost a session".to_string());
        }
        // Same inputs, same seed: what the short run recorded before it
        // stopped must be the head of the full run's history.
        for (short, full) in probe.histories.iter().zip(&outcome.histories) {
            let (short, full) = (record_keys(&short.records), record_keys(&full.records));
            if short.len() > full.len() || short[..] != full[..short.len()] {
                problems.push("ttfe run's records are not a prefix of the timed run's".to_string());
            }
        }
    }
    match (w, inputs) {
        (Workload::SearchManager, Inputs::Durable { dir, .. }) => {
            match DurableStore::open(Box::new(RealIo), dir) {
                Ok((_, recovered)) => {
                    if record_keys(&recovered.records) != record_keys(&outcome.histories[0].records)
                    {
                        problems.push("the store does not hold the returned history".to_string());
                    }
                }
                Err(e) => problems.push(format!("the finished store does not open: {e}")),
            }
        }
        (Workload::ResumeReplay, _) => {
            let fixture = fixture.expect("resume_replay needs its fixture store");
            if outcome.histories[0].to_json_string() != fixture.history.to_json_string() {
                problems.push("the resumed history differs from the original run's".to_string());
            }
        }
        (
            Workload::ServeDisjoint,
            Inputs::Serve {
                arrivals, contexts, ..
            },
        ) => {
            let standalone = run_search_instrumented(
                Arc::clone(&contexts[0]),
                &arrivals[0].0.cfg,
                &Telemetry::disabled(),
            );
            if standalone.to_json_string() != outcome.histories[0].to_json_string() {
                problems.push(format!(
                    "served session {} differs from its standalone search",
                    arrivals[0].0.name
                ));
            }
        }
        _ => {}
    }
    problems
}
