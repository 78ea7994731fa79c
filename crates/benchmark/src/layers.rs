//! The per-layer ledger of a traced run: counts and span sums read from
//! the program's own registry, samples from the benchmark's pool and
//! `StoreIo`, and a single-threaded replay that calls each remaining
//! layer's public API under benchmark spans at the run's operation
//! counts.

use crate::pool::EvalSample;
use crate::stats::{max, median, min, quantile, ratio};
use crate::trace::Tracer;
use crate::workloads::{Inputs, Params, TraceCtx, Traced, Workload};
use agebo_bo::{BoConfig, BoOptimizer, HpPoint, Space};
use agebo_core::{
    DurableStore, EvalContext, EvalRecord, Member, Population, RealIo, SearchConfig, SearchHistory,
    Variant,
};
use agebo_dataparallel::make_shards_into;
use agebo_nn::{Adam, BatchEval, GradientBuffer, GraphNet};
use agebo_scheduler::{SimQueue, SubmitOpts};
use agebo_serve::Drr;
use agebo_tabular::{DatasetKind, SizeProfile};
use agebo_telemetry::{RunEvent, Telemetry};
use agebo_tensor::{Matrix, Stream};
use agebo_trees::{ForestConfig, ForestScratch, RandomForestRegressor, TreeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::sync::Arc;

pub type Ledger = BTreeMap<&'static str, f64>;

/// Steps timed per sampled record and component.
const STEP_REPS: usize = 50;
/// Records sampled per applied rank count.
const SAMPLE_PER_N: usize = 4;

/// Process-level readings taken around the traced timed region.
pub struct ProcDelta {
    pub cpu_s: f64,
    pub steal_s: f64,
    pub main_switches: u64,
    pub calib_before_ms: f64,
    pub calib_after_ms: f64,
}

/// One search of the traced run, with what the layer replay needs.
struct View<'a> {
    ctx: &'a EvalContext,
    cfg: &'a SearchConfig,
    kind: DatasetKind,
    profile: SizeProfile,
    history: &'a SearchHistory,
    samples: &'a [EvalSample],
}

impl View<'_> {
    /// Evaluations handed to the scheduler. The pool saw each one; the
    /// serve layer owns its pool, so there the in-flight tail is taken to
    /// be one per simulated worker.
    fn submitted(&self) -> usize {
        if self.samples.is_empty() {
            self.history.len() + self.cfg.workers
        } else {
            self.samples.len()
        }
    }

    /// Submissions drawn at random: the initial `W`, then one per
    /// completion until the population is full.
    fn random_archs(&self) -> usize {
        (self.cfg.workers + self.cfg.population.saturating_sub(1)).min(self.submitted())
    }
}

fn views<'a>(inputs: &'a Inputs, traced: &'a Traced) -> Vec<View<'a>> {
    let histories = &traced.outcome.histories;
    match inputs {
        Inputs::Searches { searches, .. } => searches
            .iter()
            .zip(histories)
            .zip(&traced.samples)
            .map(|(((ctx, cfg), history), samples)| View {
                ctx,
                cfg,
                kind: DatasetKind::Covertype,
                profile: SizeProfile::Bench,
                history,
                samples,
            })
            .collect(),
        Inputs::Durable { ctx, cfg, .. } => vec![View {
            ctx,
            cfg,
            kind: DatasetKind::Covertype,
            profile: SizeProfile::Test,
            history: &histories[0],
            samples: &traced.samples[0],
        }],
        Inputs::Serve {
            arrivals, contexts, ..
        } => arrivals
            .iter()
            .zip(contexts)
            .zip(histories)
            .map(|(((spec, _), ctx), history)| View {
                ctx,
                cfg: &spec.cfg,
                kind: spec.dataset,
                profile: spec.profile,
                history,
                samples: &[],
            })
            .collect(),
    }
}

fn hist_sum(traced: &Traced, name: &str) -> f64 {
    traced.registry.histograms.get(name).map_or(0.0, |h| h.sum)
}

fn count(traced: &Traced, name: &str) -> f64 {
    traced.registry.counters.get(name).copied().unwrap_or(0) as f64
}

fn dir_bytes(dir: &std::path::Path) -> f64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len() as f64)
                .sum()
        })
        .unwrap_or(0.0)
}

/// Builds the whole per-layer ledger. `reference_wall_s` is the untraced
/// run of the same inputs.
pub fn ledger(
    w: Workload,
    p: Params,
    inputs: &Inputs,
    traced: &Traced,
    reference_wall_s: f64,
    proc: &ProcDelta,
    t: &TraceCtx,
) -> Ledger {
    let mut out = Ledger::new();
    let views = views(inputs, traced);
    let wall_s = traced.outcome.wall_s;
    let replay_root = t.tracer.reserve();
    let replay_start = t.tracer.now_ns();
    let tr = (&*t.tracer, replay_root);

    // --- core: counts and the pool's samples -----------------------------
    let recorded = traced.outcome.recorded() as f64;
    let submitted = traced.outcome.submitted as f64;
    out.insert("core.evals_submitted", submitted);
    out.insert("core.evals_recorded", recorded);
    out.insert(
        "core.cache_hits",
        views.iter().map(|v| v.history.n_cache_hits as f64).sum(),
    );
    out.insert("core.useful_eval_share", ratio(recorded, submitted));
    let all: Vec<&EvalSample> = views.iter().flat_map(|v| v.samples).collect();
    let trained: Vec<&EvalSample> = all.iter().copied().filter(|s| !s.cached).collect();
    let busy_ms = |pick: &dyn Fn(&EvalSample) -> bool| -> Vec<f64> {
        trained
            .iter()
            .filter(|s| pick(s))
            .map(|s| s.busy_s * 1e3)
            .collect()
    };
    let rank_step_busy_s = hist_sum(traced, "dp_rank_step_wall_seconds");
    let allreduce_busy_s = hist_sum(traced, "dp_allreduce_wall_seconds");
    // Without the seam (serve owns its pool) the trainer's own spans are
    // the closest reading of evaluation busy time.
    let evaluate_busy_s = if all.is_empty() {
        rank_step_busy_s + allreduce_busy_s
    } else {
        all.iter().map(|s| s.busy_s).sum()
    };
    out.insert("core.evaluate_busy_s", evaluate_busy_s);
    out.insert("core.evaluate_ms_p50", median(&busy_ms(&|_| true)));
    out.insert("core.evaluate_ms_p90", quantile(&busy_ms(&|_| true), 0.9));
    for (name, n) in [
        ("core.evaluate_ms_n1", 1),
        ("core.evaluate_ms_n2", 2),
        ("core.evaluate_ms_n4", 4),
        ("core.evaluate_ms_n8", 8),
    ] {
        out.insert(name, median(&busy_ms(&|s| s.n == n)));
    }
    let wasted_s: f64 = views
        .iter()
        .map(|v| {
            let kept: HashSet<u64> = v.history.records.iter().map(|r| r.id).collect();
            v.samples
                .iter()
                .filter(|s| !kept.contains(&s.id))
                .map(|s| s.busy_s)
                .sum::<f64>()
        })
        .sum();
    out.insert("core.evaluate_wasted_s", wasted_s);
    let waits: Vec<f64> = all.iter().map(|s| s.queue_wait_s * 1e3).collect();
    out.insert("core.queue_wait_ms_p50", median(&waits));
    out.insert("core.queue_wait_ms_p90", quantile(&waits, 0.9));
    out.insert(
        "core.worker_idle_share",
        (1.0 - ratio(evaluate_busy_s, p.threads as f64 * wall_s)).max(0.0),
    );
    // Simulated time actually spent: a search that stops on its count
    // never reaches its budget.
    let sim_hours: f64 = views
        .iter()
        .map(|v| {
            v.history
                .records
                .iter()
                .map(|r| r.finished_at)
                .fold(0.0, f64::max)
                / 3600.0
        })
        .sum();
    out.insert("core.sim_evals_per_hour", ratio(recorded, sim_hours));
    let utilizations: Vec<f64> = views.iter().map(|v| v.history.utilization).collect();
    out.insert(
        "core.sim_utilization",
        ratio(utilizations.iter().sum(), utilizations.len() as f64),
    );
    out.insert(
        "core.best_val_acc",
        views
            .iter()
            .filter_map(|v| v.history.best())
            .map(|r| r.objective)
            .fold(0.0, f64::max),
    );

    // --- dataparallel, bo, telemetry: the program's own registry ---------
    out.insert("dataparallel.steps", count(traced, "dp_steps_total"));
    out.insert(
        "dataparallel.rank_steps",
        count(traced, "dp_rank_step_total"),
    );
    out.insert(
        "dataparallel.allreduce_calls",
        count(traced, "dp_allreduce_total"),
    );
    out.insert("dataparallel.rank_step_busy_s", rank_step_busy_s);
    out.insert("dataparallel.allreduce_busy_s", allreduce_busy_s);
    out.insert(
        "dataparallel.allreduce_us_per_step",
        ratio(allreduce_busy_s * 1e6, count(traced, "dp_allreduce_total")),
    );
    out.insert(
        "dataparallel.allreduce_share",
        ratio(allreduce_busy_s, evaluate_busy_s),
    );
    let ask_busy_s = hist_sum(traced, "bo_ask_wall_seconds");
    let tell_busy_s = hist_sum(traced, "bo_tell_wall_seconds");
    out.insert("bo.asks", count(traced, "bo_ask_total"));
    out.insert("bo.tells", count(traced, "bo_tell_total"));
    out.insert(
        "bo.window_evictions",
        count(traced, "bo_window_evictions_total"),
    );
    out.insert("bo.ask_busy_s", ask_busy_s);
    out.insert("bo.tell_busy_s", tell_busy_s);
    out.insert("bo.ask_hidden_s", hist_sum(traced, "bo_ask_hidden_seconds"));
    out.insert("bo.ask_share", ratio(ask_busy_s, wall_s));
    out.insert(
        "scheduler.scratch_hits",
        count(traced, "eval_scratch_hits_total"),
    );
    out.insert(
        "scheduler.scratch_misses",
        count(traced, "eval_scratch_misses_total"),
    );
    out.insert("telemetry.events", traced.events as f64);
    out.insert(
        "telemetry.dropped",
        count(traced, "telemetry_dropped_events_total"),
    );
    out.insert(
        "trace.overhead_share",
        ratio(wall_s, reference_wall_s) - 1.0,
    );

    // --- durable: the counting StoreIo ------------------------------------
    out.insert("durable.io_busy_s", traced.io.busy_s);
    out.insert("durable.fsyncs", traced.io.fsyncs as f64);
    out.insert("durable.renames", traced.io.renames as f64);
    out.insert("durable.appends", traced.io.appends as f64);
    out.insert("durable.bytes_appended", traced.io.bytes_appended as f64);
    out.insert("durable.sync_ms_p50", median(&traced.io.sync_ms));
    out.insert("durable.sync_ms_p90", quantile(&traced.io.sync_ms, 0.9));
    let (mut open_ms, mut recovered) = (traced.open_ms, traced.recovered_records as f64);
    let mut store_bytes = 0.0;
    if let Inputs::Durable { dir, .. } = inputs {
        store_bytes = dir_bytes(dir);
        if w == Workload::SearchManager {
            // The write side's read-back: what a resume of this store pays
            // before its first replayed round.
            let (opened, secs) = tr.0.time(Some(tr.1), "durable.open", Vec::new(), || {
                DurableStore::open(Box::new(RealIo), dir)
            });
            open_ms = secs * 1e3;
            recovered = opened.map_or(0.0, |(_, r)| r.records.len() as f64);
        }
    }
    out.insert("durable.store_bytes", store_bytes);
    out.insert("durable.open_ms", open_ms);
    out.insert("durable.recovered_records", recovered);
    out.insert(
        "durable.discarded_tail_bytes",
        traced.discarded_tail_bytes as f64,
    );

    // --- serve: reports, cache and DRR -----------------------------------
    let session_s: Vec<f64> = traced.sessions.iter().map(|s| s.wall_seconds).collect();
    let session_rates: Vec<f64> = traced
        .sessions
        .iter()
        .map(|s| ratio(s.history.len() as f64, s.wall_seconds))
        .collect();
    let n_specs = if let Inputs::Serve { arrivals, .. } = inputs {
        arrivals.len()
    } else {
        0
    };
    out.insert("serve.sessions", traced.sessions.len() as f64);
    out.insert("serve.rejected", (n_specs - traced.sessions.len()) as f64);
    out.insert("serve.cache_hits", traced.cache.hits as f64);
    out.insert("serve.cache_misses", traced.cache.misses as f64);
    out.insert("serve.cache_coalesced", traced.cache.coalesced as f64);
    out.insert("serve.cache_evictions", traced.cache.evictions as f64);
    out.insert("serve.session_s_min", min(&session_s));
    out.insert("serve.session_s_max", max(&session_s));
    out.insert(
        "serve.session_rate_spread",
        ratio(max(&session_rates), min(&session_rates)),
    );
    out.insert(
        "serve.slot_busy_share_est",
        if n_specs > 0 {
            ratio(rank_step_busy_s, p.threads as f64 * wall_s)
        } else {
            0.0
        },
    );
    out.insert(
        "serve.drr_pick_ns",
        if n_specs > 0 {
            replay_drr(tr, n_specs)
        } else {
            0.0
        },
    );

    // --- layer replay ------------------------------------------------------
    let gen = replay_searchspace(tr, &views);
    out.insert("searchspace.random_ns", gen.random_ns);
    out.insert("searchspace.mutate_ns", gen.mutate_ns);
    out.insert("searchspace.to_graph_ns", gen.to_graph_ns);
    out.insert("searchspace.gen_s", gen.total_s);
    let population_s = replay_population(tr, &views);
    out.insert("core.population_s", population_s);
    let bo = replay_bo(tr, &views);
    out.insert("bo.replay_ask_ms_p50", median(&bo.ask_ms));
    out.insert("bo.replay_ask_ms_p90", quantile(&bo.ask_ms, 0.9));
    out.insert(
        "bo.replay_ask_ms_last",
        bo.ask_ms.last().copied().unwrap_or(0.0),
    );
    out.insert("bo.replay_tell_us_p50", median(&bo.tell_us));
    let trees = replay_trees(tr, &views);
    out.insert("trees.refit_ms_final", trees.0);
    out.insert("trees.predict_batch_us", trees.1);
    out.insert("trees.fit_rows", trees.2);
    let des = replay_des(tr, &views);
    out.insert("scheduler.des_s", des.0);
    out.insert("scheduler.des_ns_per_event", des.1);
    let tel = replay_telemetry(tr, &views, traced.events, &t.dir.join("tel-replay"));
    out.insert("telemetry.emit_us_per_event", tel.0);
    out.insert("telemetry.flush_ms", tel.1);
    let train = replay_training(tr, &views);
    out.insert("tensor.gemm_gflops", train.gemm_gflops);
    out.insert("nn.fwd_bwd_us_per_step", median(&train.fwd_bwd_us));
    out.insert("nn.adam_us_per_step", median(&train.adam_us));
    out.insert("nn.validate_ms_per_epoch", median(&train.validate_ms));
    out.insert("nn.fwd_bwd_share", ratio(train.fwd_bwd_s, train.measured_s));
    out.insert("nn.adam_share", ratio(train.adam_s, train.measured_s));
    out.insert(
        "nn.validate_share",
        ratio(train.validate_s, train.measured_s),
    );
    let attributed_s = train.fwd_bwd_s
        + train.adam_s
        + train.validate_s
        + train.gather_s
        + train.average_s
        + train.shard_s;
    out.insert(
        "nn.unattributed_share",
        if train.measured_s > 0.0 {
            1.0 - attributed_s / train.measured_s
        } else {
            0.0
        },
    );
    out.insert("tabular.prepare_ms", replay_prepare(tr, &views));
    out.insert("tabular.gather_us_per_step", median(&train.gather_us));
    out.insert(
        "tabular.gather_share",
        ratio(train.gather_s, train.measured_s),
    );
    out.insert("dataparallel.shard_us_per_eval", median(&train.shard_us));
    t.tracer
        .close(replay_root, None, "layer_replay", replay_start, Vec::new());

    // --- proc: is a difference the program or the host? -------------------
    out.insert("proc.cpu_s", proc.cpu_s);
    out.insert(
        "proc.cpu_share",
        ratio(proc.cpu_s, wall_s * p.threads as f64),
    );
    out.insert(
        "proc.ctx_switches_invol",
        (proc.main_switches + traced.pool_switches) as f64,
    );
    out.insert("proc.steal_s", proc.steal_s);
    out.insert(
        "proc.calib_ms",
        (proc.calib_before_ms + proc.calib_after_ms) / 2.0,
    );
    out.insert(
        "proc.calib_drift",
        ratio(proc.calib_after_ms, proc.calib_before_ms),
    );
    let telemetry_s = traced.events as f64 * tel.0 * 1e-6;
    let ledger_s = evaluate_busy_s
        + ask_busy_s
        + tell_busy_s
        + gen.total_s
        + des.0
        + population_s
        + traced.io.busy_s
        + telemetry_s;
    out.insert("core.ledger_cpu_coverage", ratio(ledger_s, proc.cpu_s));
    out
}

type Tr<'a> = (&'a Tracer, u64);

/// Times `ops` calls of `f` inside one span; returns nanoseconds per call
/// and the total in seconds. A span per call would cost more than the
/// calls themselves.
fn time_ops(tr: Tr, name: &'static str, ops: usize, mut f: impl FnMut(usize)) -> (f64, f64) {
    let ((), secs) = tr.0.time(Some(tr.1), name, vec![("ops", ops as f64)], || {
        for i in 0..ops {
            f(i);
        }
    });
    (ratio(secs * 1e9, ops as f64), secs)
}

struct GenCost {
    random_ns: f64,
    mutate_ns: f64,
    to_graph_ns: f64,
    total_s: f64,
}

fn replay_searchspace(tr: Tr, views: &[View]) -> GenCost {
    let (mut random, mut mutate, mut graph) = ((0.0, 0usize), (0.0, 0usize), (0.0, 0usize));
    for v in views.iter().filter(|v| !v.history.is_empty()) {
        let records = &v.history.records;
        let mut rng = StdRng::seed_from_u64(v.cfg.seed);
        let n_random = v.random_archs();
        let n_mutate = v.submitted() - n_random;
        let (_, s) = time_ops(tr, "searchspace.random", n_random, |_| {
            black_box(v.ctx.space.random(&mut rng));
        });
        random = (random.0 + s, random.1 + n_random);
        let (_, s) = time_ops(tr, "searchspace.mutate", n_mutate, |i| {
            black_box(
                v.ctx
                    .space
                    .mutate(&records[i % records.len()].arch, &mut rng),
            );
        });
        mutate = (mutate.0 + s, mutate.1 + n_mutate);
        let (_, s) = time_ops(tr, "searchspace.to_graph", v.submitted(), |i| {
            black_box(
                v.ctx
                    .space
                    .to_graph(&records[i % records.len()].arch)
                    .param_count(),
            );
        });
        graph = (graph.0 + s, graph.1 + v.submitted());
    }
    GenCost {
        random_ns: ratio(random.0 * 1e9, random.1 as f64),
        mutate_ns: ratio(mutate.0 * 1e9, mutate.1 as f64),
        to_graph_ns: ratio(graph.0 * 1e9, graph.1 as f64),
        total_s: random.0 + mutate.0 + graph.0,
    }
}

fn replay_population(tr: Tr, views: &[View]) -> f64 {
    let mut total_s = 0.0;
    for v in views.iter().filter(|v| !v.history.is_empty()) {
        let mut rng = StdRng::seed_from_u64(v.cfg.seed);
        let selects = v.submitted() - v.random_archs();
        let ((), secs) = tr.0.time(Some(tr.1), "core.population", Vec::new(), || {
            let mut population = Population::new(v.cfg.population);
            for r in &v.history.records {
                population.push(Member {
                    arch: r.arch.clone(),
                    accuracy: r.objective,
                });
            }
            for _ in 0..selects {
                black_box(population.select_parent(v.cfg.sample_size, &mut rng));
            }
        });
        total_s += secs;
    }
    total_s
}

fn point_of(r: &EvalRecord) -> HpPoint {
    vec![
        r.hp.bs1 as f64,
        f64::from(r.hp.lr1).clamp(0.001, 0.1),
        r.hp.n as f64,
    ]
}

fn bo_config(cfg: &SearchConfig) -> Option<BoConfig> {
    let Variant::AgeBo { kappa, .. } = cfg.variant else {
        return None;
    };
    Some(BoConfig {
        kappa,
        n_initial: cfg.bo_n_initial,
        n_candidates: cfg.bo_candidates,
        n_trees: cfg.bo_trees,
        seed: Stream::new(cfg.seed).labeled(2),
        use_liar: cfg.bo_constant_liar,
        surrogate: cfg.bo_surrogate,
        surrogate_window: cfg.surrogate_window,
    })
}

struct BoReplay {
    ask_ms: Vec<f64>,
    tell_us: Vec<f64>,
}

/// A fresh optimizer fed the run's observations one at a time in
/// completion order: the cost of `ask` as a function of history size.
fn replay_bo(tr: Tr, views: &[View]) -> BoReplay {
    let mut out = BoReplay {
        ask_ms: Vec::new(),
        tell_us: Vec::new(),
    };
    for v in views {
        let Some(cfg) = bo_config(v.cfg) else {
            continue;
        };
        let mut bo = BoOptimizer::new(Space::paper_hm(), cfg);
        tr.0.time(
            Some(tr.1),
            "bo.replay_ask",
            vec![("q", v.cfg.workers as f64)],
            || {
                black_box(bo.ask(v.cfg.workers));
            },
        );
        for (i, r) in v.history.records.iter().enumerate() {
            let ((), secs) = tr.0.time(Some(tr.1), "bo.replay_tell", Vec::new(), || {
                bo.tell(&[point_of(r)], &[r.objective]);
            });
            out.tell_us.push(secs * 1e6);
            let attrs = vec![("q", 1.0), ("history", (i + 1) as f64)];
            let ((), secs) = tr.0.time(Some(tr.1), "bo.replay_ask", attrs, || {
                black_box(bo.ask(1));
            });
            out.ask_ms.push(secs * 1e3);
        }
    }
    out
}

/// `(refit ms, batch predict µs, rows)` of the surrogate forest at the
/// largest final history.
fn replay_trees(tr: Tr, views: &[View]) -> (f64, f64, f64) {
    let Some(v) = views.iter().max_by_key(|v| v.history.len()) else {
        return (0.0, 0.0, 0.0);
    };
    let Some(bo) = bo_config(v.cfg) else {
        return (0.0, 0.0, 0.0);
    };
    let records = &v.history.records;
    if records.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let space = Space::paper_hm();
    let mut x = Matrix::zeros(records.len(), space.len());
    for (i, r) in records.iter().enumerate() {
        space.encode_into(&point_of(r), x.row_mut(i));
    }
    let y: Vec<f64> = records.iter().map(|r| r.objective).collect();
    let forest_cfg = ForestConfig {
        n_trees: bo.n_trees,
        tree: TreeConfig {
            max_depth: 24,
            min_samples_leaf: 2,
            ..TreeConfig::default()
        },
        bootstrap: true,
    };
    let mut forest = RandomForestRegressor::default();
    let mut scratch = ForestScratch::default();
    let rows = vec![("rows", records.len() as f64)];
    let refit_ms: Vec<f64> = (0..5)
        .map(|i| {
            tr.0.time(Some(tr.1), "trees.refit", rows.clone(), || {
                forest.refit(&x, &y, &forest_cfg, bo.seed ^ i, &mut scratch)
            })
            .1 * 1e3
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(bo.seed);
    let mut points = Vec::new();
    space.sample_batch_into(&mut rng, bo.n_candidates, &mut points);
    let mut candidates = Matrix::zeros(points.len(), space.len());
    for (i, point) in points.iter().enumerate() {
        space.encode_into(point, candidates.row_mut(i));
    }
    let (mut per_tree, mut preds) = (Vec::new(), Vec::new());
    let predict_us: Vec<f64> = (0..20)
        .map(|_| {
            tr.0.time(Some(tr.1), "trees.predict_batch", rows.clone(), || {
                forest.predict_mean_std_batch_into(&candidates, &mut per_tree, &mut preds)
            })
            .1 * 1e6
        })
        .collect();
    (median(&refit_ms), median(&predict_us), records.len() as f64)
}

/// `(seconds, ns per event)` of the simulated cluster's bookkeeping over
/// the recorded durations: one submit and one pop per evaluation.
fn replay_des(tr: Tr, views: &[View]) -> (f64, f64) {
    let (mut total_s, mut events) = (0.0, 0usize);
    for v in views.iter().filter(|v| !v.history.is_empty()) {
        let mut durations: Vec<(u64, f64)> = v
            .history
            .records
            .iter()
            .map(|r| (r.id, r.duration))
            .collect();
        durations.sort_by_key(|d| d.0);
        let submitted = v.submitted();
        let ((), secs) = tr.0.time(
            Some(tr.1),
            "scheduler.des",
            vec![("evals", submitted as f64)],
            || {
                let mut queue = SimQueue::new(v.cfg.workers);
                let mut next = 0usize;
                let submit = |queue: &mut SimQueue, next: &mut usize| {
                    let duration = durations[*next % durations.len()].1;
                    queue.submit_traced_opts(*next as u64, duration, SubmitOpts::default());
                    *next += 1;
                };
                while next < v.cfg.workers.min(submitted) {
                    submit(&mut queue, &mut next);
                }
                loop {
                    let finished = queue.pop_finished_detailed();
                    if finished.is_empty() {
                        break;
                    }
                    for _ in &finished {
                        if next < submitted {
                            submit(&mut queue, &mut next);
                        }
                    }
                }
            },
        );
        total_s += secs;
        events += 2 * submitted;
    }
    (total_s, ratio(total_s * 1e9, events as f64))
}

/// `(µs per emitted event, flush ms)`: the traced run's event count
/// re-emitted into a file sink.
fn replay_telemetry(tr: Tr, views: &[View], events: u64, dir: &std::path::Path) -> (f64, f64) {
    let records: Vec<&EvalRecord> = views.iter().flat_map(|v| &v.history.records).collect();
    if records.is_empty() || events == 0 {
        return (0.0, 0.0);
    }
    let tel = Telemetry::to_dir(dir).expect("telemetry replay dir");
    let (ns, _) = time_ops(tr, "telemetry.emit", events as usize, |i| {
        let r = records[(i / 3) % records.len()];
        // The three events every evaluation emits, in its proportions.
        tel.emit(match i % 3 {
            0 => RunEvent::EvalSubmitted {
                id: r.id,
                sim: r.submitted_at,
                bs1: r.hp.bs1,
                lr1: r.hp.lr1,
                n: r.hp.n,
                modeled_duration: r.duration,
                cache_hit: r.cache_hit,
                arch: r.arch.0.clone(),
            },
            1 => RunEvent::EvalStarted {
                id: r.id,
                sim: r.submitted_at,
            },
            _ => RunEvent::EvalFinished {
                id: r.id,
                sim: r.finished_at,
                duration: r.duration,
                objective: r.objective,
                cache_hit: r.cache_hit,
            },
        });
    });
    let (flushed, secs) =
        tr.0.time(Some(tr.1), "telemetry.flush", Vec::new(), || tel.flush());
    flushed.expect("flush telemetry replay");
    (ns * 1e-3, secs * 1e3)
}

fn replay_prepare(tr: Tr, views: &[View]) -> f64 {
    let Some(v) = views.first() else { return 0.0 };
    let ms: Vec<f64> = (0..5)
        .map(|_| {
            tr.0.time(Some(tr.1), "tabular.prepare", Vec::new(), || {
                black_box(EvalContext::prepare(v.kind, v.profile, v.cfg.seed));
            })
            .1 * 1e3
        })
        .collect();
    median(&ms)
}

fn replay_drr(tr: Tr, lanes: usize) -> f64 {
    let mut drr = Drr::new();
    for id in 0..lanes as u64 {
        drr.add_lane(id, 1.0);
    }
    time_ops(tr, "serve.drr_pick", 100_000, |_| {
        black_box(drr.pick(|_| 1, |_| true));
    })
    .0
}

#[derive(Default)]
struct TrainReplay {
    gemm_gflops: f64,
    fwd_bwd_us: Vec<f64>,
    adam_us: Vec<f64>,
    validate_ms: Vec<f64>,
    gather_us: Vec<f64>,
    shard_us: Vec<f64>,
    /// Component seconds scaled to the sampled records' whole trainings.
    fwd_bwd_s: f64,
    adam_s: f64,
    validate_s: f64,
    gather_s: f64,
    average_s: f64,
    shard_s: f64,
    /// What the pool measured for the same records.
    measured_s: f64,
}

/// The training interior on a stratified sample: up to [`SAMPLE_PER_N`]
/// recorded evaluations per applied rank count (lowest ids), each step
/// component timed over [`STEP_REPS`] calls and scaled by the record's
/// step and epoch counts.
fn replay_training(tr: Tr, views: &[View]) -> TrainReplay {
    let mut out = TrainReplay::default();
    let mut shapes: BTreeMap<(usize, usize, usize), usize> = BTreeMap::new();
    let mut taken: BTreeMap<usize, usize> = BTreeMap::new();
    for v in views {
        let mut by_id: Vec<&EvalRecord> =
            v.history.records.iter().filter(|r| !r.cache_hit).collect();
        by_id.sort_by_key(|r| r.id);
        for r in by_id {
            let hp = v.ctx.applied_hp(r.hp);
            let slot = taken.entry(hp.n).or_insert(0);
            if *slot >= SAMPLE_PER_N {
                continue;
            }
            // With the seam, only trainings the pool actually timed can be
            // compared against (a resumed run trains nothing).
            let measured = v
                .samples
                .iter()
                .find(|s| s.id == r.id && !s.cached)
                .map(|s| s.busy_s);
            if !v.samples.is_empty() && measured.is_none() {
                continue;
            }
            *slot += 1;
            replay_one_training(tr, v.ctx, r, measured, &mut out, &mut shapes);
        }
    }
    // Modal dense-layer GEMM shape of the sample; ties go to the larger.
    if let Some((&(bs, fan_in, fan_out), _)) =
        shapes.iter().max_by_key(|(shape, hits)| (**hits, **shape))
    {
        let a = Matrix::from_fn(bs, fan_in, |r, c| ((r * 31 + c * 17) % 13) as f32 * 0.1);
        let b = Matrix::from_fn(fan_in, fan_out, |r, c| ((r * 7 + c * 3) % 11) as f32 * 0.1);
        let mut c = Matrix::zeros(bs, fan_out);
        let flop = 2.0 * (bs * fan_in * fan_out) as f64;
        let reps = (2e8 / flop).ceil().max(10.0) as usize;
        let attrs = vec![
            ("bs", bs as f64),
            ("in", fan_in as f64),
            ("out", fan_out as f64),
        ];
        let ((), secs) = tr.0.time(Some(tr.1), "tensor.gemm", attrs, || {
            for _ in 0..reps {
                a.matmul_into(&b, &mut c, false);
                black_box(&mut c);
            }
        });
        out.gemm_gflops = ratio(flop * reps as f64 * 1e-9, secs);
    }
    out
}

fn replay_one_training(
    tr: Tr,
    ctx: &EvalContext,
    r: &EvalRecord,
    measured: Option<f64>,
    out: &mut TrainReplay,
    shapes: &mut BTreeMap<(usize, usize, usize), usize>,
) {
    let hp = ctx.applied_hp(r.hp);
    let spec = ctx.space.to_graph(&r.arch);
    let mut rng = StdRng::seed_from_u64(r.id);
    let mut net = GraphNet::new(spec.clone(), &mut rng);
    let span = |name: &'static str| (name, vec![("eval_id", r.id as f64), ("n", hp.n as f64)]);

    let (mut order, mut shards) = (Arc::new(Vec::new()), Vec::new());
    let shard_us: Vec<f64> = (0..5)
        .map(|_| {
            let (name, attrs) = span("dataparallel.make_shards");
            tr.0.time(Some(tr.1), name, attrs, || {
                make_shards_into(&ctx.train, hp.n, &mut rng, &mut order, &mut shards)
            })
            .1 * 1e6
        })
        .collect();
    // Every rank takes the steps of the smallest shard.
    let shard_len = ctx.train.len() / hp.n;
    let batch = hp.bs1.min(shard_len).max(1);
    let steps = shard_len.div_ceil(batch).max(1);
    let rank_steps = (ctx.epochs * steps * hp.n) as f64;
    let global_steps = (ctx.epochs * steps) as f64;
    let dims = spec.dims();
    for (i, node) in spec.nodes.iter().enumerate() {
        if let Some((units, _)) = node.layer {
            *shapes.entry((batch, dims[i], units)).or_insert(0) += 1;
        }
    }

    let rows: Vec<usize> = (0..batch).collect();
    let (mut xbuf, mut ybuf) = (Matrix::default(), Vec::new());
    let (name, attrs) = span("tabular.gather");
    let (_, gather_s) = tr.0.time(Some(tr.1), name, attrs, || {
        for _ in 0..STEP_REPS {
            shards[0].gather_into(&rows, &mut xbuf, &mut ybuf);
        }
    });
    let mut ws = net.make_workspace(batch);
    let mut grads: Vec<GradientBuffer> = (0..hp.n)
        .map(|_| GradientBuffer::zeros_like(&net))
        .collect();
    let (name, attrs) = span("nn.forward_backward");
    let (_, fwd_bwd_s) = tr.0.time(Some(tr.1), name, attrs, || {
        for _ in 0..STEP_REPS {
            black_box(net.forward_backward_with(&xbuf, &ybuf, &mut ws, &mut grads[0]));
        }
    });
    for rank_grads in grads.iter_mut().skip(1) {
        net.forward_backward_with(&xbuf, &ybuf, &mut ws, rank_grads);
    }
    let (name, attrs) = span("dataparallel.average_gradients");
    let (_, average_s) = tr.0.time(Some(tr.1), name, attrs, || {
        for _ in 0..STEP_REPS {
            let (first, rest) = grads.split_at_mut(1);
            for g in rest.iter() {
                first[0].add_assign(g);
            }
            first[0].scale(1.0 / hp.n as f32);
        }
    });
    // Averaging 50 times left rank 0 with an arbitrary but finite
    // gradient; recompute a real one for the optimizer steps.
    net.forward_backward_with(&xbuf, &ybuf, &mut ws, &mut grads[0]);
    let mut adam = Adam::new(&net);
    let (name, attrs) = span("nn.adam_step");
    let (_, adam_s) = tr.0.time(Some(tr.1), name, attrs, || {
        for _ in 0..STEP_REPS {
            adam.step_with(&mut net, &grads[0], hp.lr1 * 1e-3, 0.0);
        }
    });
    let mut eval = BatchEval::new();
    net.evaluate_batched_with(&ctx.valid.x, &ctx.valid.y, &mut eval);
    let (name, attrs) = span("nn.validate");
    let (_, validate_s) = tr.0.time(Some(tr.1), name, attrs, || {
        black_box(net.evaluate_batched_with(&ctx.valid.x, &ctx.valid.y, &mut eval));
    });

    let per = |secs: f64| secs / STEP_REPS as f64;
    out.shard_us.push(median(&shard_us));
    out.gather_us.push(per(gather_s) * 1e6);
    out.fwd_bwd_us.push(per(fwd_bwd_s) * 1e6);
    out.adam_us.push(per(adam_s) * 1e6);
    out.validate_ms.push(validate_s * 1e3);
    let scaled = [
        per(gather_s) * rank_steps,
        per(fwd_bwd_s) * rank_steps,
        per(average_s) * global_steps,
        per(adam_s) * global_steps,
        validate_s * ctx.epochs as f64,
        median(&shard_us) * 1e-6,
    ];
    out.gather_s += scaled[0];
    out.fwd_bwd_s += scaled[1];
    out.average_s += scaled[2];
    out.adam_s += scaled[3];
    out.validate_s += scaled[4];
    out.shard_s += scaled[5];
    // Without the seam there is no measurement to hold the estimate
    // against; the shares are then shares of the estimate itself.
    out.measured_s += measured.unwrap_or_else(|| scaled.iter().sum());
}
