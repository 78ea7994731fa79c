//! Subcommand implementations.

use crate::args::{CompactArgs, EvaluateArgs, ReportArgs, ResumeArgs, SearchArgs, ServeArgs};
use agebo_analysis::ConfusionMatrix;
use agebo_core::evaluation::train_final;
use agebo_core::{
    run_search_durable, run_search_instrumented, DurableRun, DurableStore, EvalContext, EvalTask,
    RealIo, RunHeader, SearchConfig, SearchHistory,
};
use agebo_serve::{
    Admission, ServeConfig, ServeOptions, SessionManager, SessionSpec, SessionTelemetry,
};
use agebo_telemetry::{
    atomic_write_str, Json, MetricsSnapshot, RunEvent, RunSummary, Telemetry, EVENTS_FILE,
    METRICS_FILE,
};
use agebo_nn::serialize::{load_model, save_model};
use agebo_searchspace::SearchSpace;
use agebo_tabular::csv::load_csv;
use agebo_tabular::{scale, stratified_split, DatasetKind, DatasetMeta, SizeProfile, SplitSpec};
use agebo_tensor::Stream;
use std::sync::Arc;

/// Boxed error for CLI plumbing.
pub type CliError = Box<dyn std::error::Error>;

fn search_config(profile: SizeProfile, variant: agebo_core::Variant) -> SearchConfig {
    match profile {
        SizeProfile::Test => SearchConfig::test(variant),
        SizeProfile::Bench => SearchConfig::bench(variant),
        SizeProfile::Large => SearchConfig::paper(variant),
    }
}

fn profile_name(profile: SizeProfile) -> &'static str {
    match profile {
        SizeProfile::Test => "test",
        SizeProfile::Bench => "bench",
        SizeProfile::Large => "large",
    }
}

fn parse_profile_name(name: &str) -> Result<SizeProfile, CliError> {
    match name {
        "test" => Ok(SizeProfile::Test),
        "bench" => Ok(SizeProfile::Bench),
        "large" => Ok(SizeProfile::Large),
        other => Err(format!("store records unknown profile {other:?}").into()),
    }
}

/// The durable-store header describing `cfg` — the identity a resume
/// must match bit for bit.
fn run_header(cfg: &SearchConfig, dataset: &str, profile: SizeProfile) -> RunHeader {
    RunHeader {
        dataset: dataset.to_string(),
        profile: profile_name(profile).to_string(),
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

fn context_for(args: &SearchArgs) -> Result<Arc<EvalContext>, CliError> {
    match &args.csv {
        None => Ok(Arc::new(EvalContext::prepare(args.dataset, args.profile, args.seed))),
        Some(path) => {
            let data = load_csv(path)?;
            let mut stream = Stream::new(args.seed);
            let mut split = stratified_split(&data, SplitSpec::PAPER, &mut stream.rng());
            scale::standardize_split(&mut split);
            let meta = DatasetMeta {
                name: "custom",
                paper_rows: data.len(),
                n_features: data.n_features(),
                paper_classes: data.n_classes,
                actual_classes: data.n_classes,
                actual_rows: data.len(),
            };
            Ok(Arc::new(EvalContext {
                space: SearchSpace::paper(split.train.n_features(), split.train.n_classes),
                train: split.train,
                valid: split.valid,
                test: split.test,
                meta,
                epochs: 8,
                warmup_epochs: 2,
                plateau_patience: 5,
                bs_divisor: 4,
            }))
        }
    }
}

fn report(history: &SearchHistory) {
    println!(
        "{} on {}: {} evaluations in {:.0} simulated minutes, utilization {:.0}%",
        history.label,
        history.dataset,
        history.len(),
        history.wall_time / 60.0,
        history.utilization * 100.0
    );
    if history.n_cache_hits > 0 {
        println!(
            "{} of {} evaluations served from the duplicate memo-cache",
            history.n_cache_hits,
            history.len()
        );
    }
    if let Some(best) = history.best() {
        println!(
            "best validation accuracy {:.4} (bs1={} lr1={:.4} n={})",
            best.objective, best.hp.bs1, best.hp.lr1, best.hp.n
        );
    }
}

/// `agebo info`.
pub fn info() {
    let space = SearchSpace::paper(54, 7);
    println!("AgEBO-Tabular (SC'21) reproduction");
    println!("simd dispatch: {}", agebo_tensor::simd::isa_name());
    println!(
        "architecture space: {} variables ({} layer nodes x {} choices + {} skips), ~10^{:.1} points",
        space.n_variables(),
        space.max_nodes,
        space.layer_choices(),
        space.n_variables() - space.max_nodes,
        space.size_log10()
    );
    println!("hyperparameter space: bs1 in {{32..1024}}, lr1 in (0.001, 0.1) log, n in {{1,2,4,8}}");
    println!("benchmark data sets:");
    for kind in DatasetKind::ALL {
        let (rows, features, classes) = kind.paper_shape();
        println!("  {:<10} {rows} rows, {features} features, {classes} classes", kind.name());
    }
}

/// Opens the telemetry sink selected by `--telemetry` (or a no-op one),
/// recording which SIMD dispatch arm this process runs on.
fn telemetry_for(dir: &Option<String>) -> Result<Telemetry, CliError> {
    let tel = match dir {
        Some(dir) => Telemetry::to_dir(dir)?,
        None => Telemetry::disabled(),
    };
    record_isa_choice(&tel);
    Ok(tel)
}

/// One-shot ISA telemetry: a gauge in the metrics snapshot (1.0 when the
/// AVX2+FMA kernels are active, 0.0 on the scalar arm, e.g. under
/// `AGEBO_FORCE_SCALAR=1`) plus a single stderr line per process.
fn record_isa_choice(tel: &Telemetry) {
    let name = agebo_tensor::simd::isa_name();
    tel.registry()
        .gauge("simd_isa_avx2_fma")
        .set(if name == "avx2+fma" { 1.0 } else { 0.0 });
    announce_isa();
}

/// Prints the dispatched ISA path to stderr, once per process.
fn announce_isa() {
    use std::sync::Once;
    static ANNOUNCE: Once = Once::new();
    ANNOUNCE.call_once(|| eprintln!("simd dispatch: {}", agebo_tensor::simd::isa_name()));
}

/// Flushes the sink and points the user at the artifacts.
fn finish_telemetry(tel: &Telemetry) -> Result<(), CliError> {
    tel.flush()?;
    if let Some(dir) = tel.dir() {
        println!(
            "telemetry written to {} ({} events); summarize with `agebo report --dir {}`",
            dir.display(),
            tel.n_events(),
            dir.display()
        );
    }
    Ok(())
}

/// `agebo search`.
pub fn search(args: &SearchArgs) -> Result<(), CliError> {
    if args.csv.is_some() && args.checkpoint_dir.is_some() {
        return Err("--checkpoint-dir needs a benchmark --dataset; a CSV run's context \
                    cannot be rebuilt from the store on resume"
            .into());
    }
    let mut cfg = search_config(args.profile, args.variant.clone()).with_seed(args.seed);
    if let Some(minutes) = args.wall_minutes {
        cfg.wall_time = minutes * 60.0;
    }
    if let Some(rate) = args.failure_rate {
        cfg.failure_rate = rate;
    }
    if let Some(plan) = args.chaos {
        cfg = cfg.with_chaos(plan);
    }
    // BO-shape flags (validated at parse time) override the profile.
    if let Some(window) = args.surrogate_window {
        cfg = cfg.with_surrogate_window(window);
    }
    if let Some(trees) = args.bo_trees {
        cfg.bo_trees = trees;
    }
    if let Some(candidates) = args.bo_candidates {
        cfg.bo_candidates = candidates;
    }
    if let Some(dir) = &args.checkpoint_dir {
        // A durable store needs a cadence; default one when the user
        // asked for durability but not for a specific interval.
        let every = args.checkpoint_every.filter(|&n| n > 0).unwrap_or(10);
        cfg = cfg.with_checkpoint_dir(every, dir.clone());
    }
    cfg.validate()?;
    let ctx = context_for(args)?;
    eprintln!(
        "searching with {} on {} ({} workers, {:.0} simulated minutes)...",
        args.variant.label(),
        ctx.meta.name,
        cfg.workers,
        cfg.wall_time / 60.0
    );
    let tel = telemetry_for(&args.telemetry)?;
    let history = match cfg.checkpoint_dir.clone() {
        None => run_search_instrumented(Arc::clone(&ctx), &cfg, &tel),
        Some(dir) => {
            if DurableStore::exists(&dir) {
                return Err(format!(
                    "checkpoint dir {dir} already holds a store; \
                     continue it with `agebo resume --dir {dir}`"
                )
                .into());
            }
            let header = run_header(&cfg, ctx.meta.name, args.profile);
            let mut store = DurableStore::create(Box::new(RealIo), &*dir, header)?;
            let (history, _stop) = run_search_durable(
                Arc::clone(&ctx),
                &cfg,
                &tel,
                None,
                None,
                DurableRun { store: &mut store, recovered: None },
            );
            println!(
                "durable checkpoints in {dir} ({} records committed)",
                store.committed_records()
            );
            history
        }
    };
    report(&history);
    if let Some(path) = &args.out {
        atomic_write_str(path, &history.to_json_string())?;
        tel.emit(RunEvent::Checkpoint {
            sim: history.wall_time,
            n_records: history.len(),
            path: path.clone(),
        });
        println!("history written to {path}");
    }
    if let Some(path) = &args.model_out {
        let best = history.best().ok_or("no evaluations finished")?;
        let (net, _) = train_final(
            &ctx,
            &EvalTask { arch: best.arch.clone(), hp: best.hp, seed: args.seed ^ 0xBEEF, attempt: 0, cached: None },
        );
        let preds = net.predict(&ctx.test.x);
        println!("test accuracy of retrained best model: {:.4}", ctx.test.accuracy_of(&preds));
        save_model(&net, path)?;
        println!("model written to {path}");
    }
    finish_telemetry(&tel)?;
    Ok(())
}

/// `agebo resume`: exactly-once from a durable store. The store's header
/// is the configuration's source of truth, recovered records replay
/// without retraining, and in-flight evaluations are re-issued with their
/// original seeds — the continued run's history is bitwise identical to
/// one that was never interrupted.
pub fn resume(args: &ResumeArgs) -> Result<(), CliError> {
    let dir = args.dir.as_str();
    let (mut store, recovered) = DurableStore::open(Box::new(RealIo), dir)?;
    let header = store.header().clone();
    let dataset = DatasetKind::ALL
        .into_iter()
        .find(|k| k.name() == header.dataset)
        .ok_or_else(|| format!("store records unknown dataset {:?}", header.dataset))?;
    let profile = parse_profile_name(&header.profile)?;
    let mut cfg = search_config(profile, header.variant.clone())
        .with_seed(header.seed)
        .with_cache(header.cache)
        .with_checkpoint_dir(header.checkpoint_every, dir);
    // Assigned, not `with_chaos`: the builder panics on an invalid plan,
    // and these are bytes from disk — `validate` below reports them.
    cfg.chaos = header.chaos;
    cfg.wall_time = header.wall_time;
    cfg.failure_rate = header.failure_rate;
    cfg.workers = header.workers;
    // The BO shape is part of the recorded trajectory. `surrogate_window`
    // comes back verbatim (0 = exact); `bo_trees`/`bo_candidates` use 0
    // as the "profile default" sentinel legacy stores imply.
    cfg.surrogate_window = header.surrogate_window;
    if header.bo_trees > 0 {
        cfg.bo_trees = header.bo_trees;
    }
    if header.bo_candidates > 0 {
        cfg.bo_candidates = header.bo_candidates;
    }
    // The header is bytes on disk: a hand-edited value must come back as
    // an error here, not trip the manager loop's invariants.
    cfg.validate().map_err(|e| format!("store {dir} header: {e}"))?;
    // Drift check: the config rebuilt from the header must describe the
    // run the store recorded (a serve-layer store carries a context
    // fingerprint; adopt it, the rest must match field for field).
    let mut rebuilt = run_header(&cfg, dataset.name(), profile);
    rebuilt.fingerprint = header.fingerprint;
    header.check_compatible(&rebuilt)?;
    let ctx = Arc::new(EvalContext::prepare(dataset, profile, header.seed));
    let tel = telemetry_for(&args.telemetry)?;
    eprintln!(
        "resuming {} on {} from {dir}: replaying {} committed records, \
         re-issuing {} in flight...",
        header.variant.label(),
        header.dataset,
        recovered.records.len(),
        recovered.in_flight
    );
    if recovered.discarded_tail_bytes > 0 {
        eprintln!("discarded {} bytes of torn tail during recovery", recovered.discarded_tail_bytes);
    }
    let (history, _stop) = run_search_durable(
        Arc::clone(&ctx),
        &cfg,
        &tel,
        None,
        None,
        DurableRun { store: &mut store, recovered: Some(&recovered) },
    );
    report(&history);
    if let Some(path) = &args.out {
        atomic_write_str(path, &history.to_json_string())?;
        println!("history written to {path}");
    }
    finish_telemetry(&tel)?;
    Ok(())
}

/// `agebo report`: summarize a telemetry directory's event log, plus the
/// metrics-only counters of its `metrics.json` when one sits beside it.
pub fn run_report(args: &ReportArgs) -> Result<(), CliError> {
    let path = std::path::Path::new(&args.dir);
    let events = if path.is_dir() { path.join(EVENTS_FILE) } else { path.to_path_buf() };
    let text = std::fs::read_to_string(&events)
        .map_err(|e| format!("cannot read {}: {e}", events.display()))?;
    let mut summary = RunSummary::from_jsonl(&text);
    let metrics = events.with_file_name(METRICS_FILE);
    if let Ok(text) = std::fs::read_to_string(&metrics) {
        let snapshot = MetricsSnapshot::from_json_str(&text)
            .map_err(|e| format!("cannot parse {}: {e}", metrics.display()))?;
        summary = summary.with_metrics(&snapshot);
    }
    print!("{}", summary.render());
    Ok(())
}

/// One completed session in `serve_state.json`.
struct DoneSession {
    name: String,
    tenant: String,
    evaluations: u64,
}

/// Parses `serve_state.json` — the atomic record of which sessions a
/// deployment already finished.
fn parse_serve_state(text: &str) -> Result<Vec<DoneSession>, CliError> {
    let json = Json::parse(text).map_err(|e| format!("cannot parse serve state: {e}"))?;
    let done = json
        .get("done")
        .and_then(|d| d.as_arr())
        .ok_or("serve state has no done array")?;
    done.iter()
        .map(|row| {
            Ok(DoneSession {
                name: row
                    .get("name")
                    .and_then(|v| v.as_str())
                    .ok_or("serve state row has no name")?
                    .to_string(),
                tenant: row
                    .get("tenant")
                    .and_then(|v| v.as_str())
                    .ok_or("serve state row has no tenant")?
                    .to_string(),
                evaluations: row.get("evaluations").and_then(|v| v.as_u64()).unwrap_or(0),
            })
        })
        .collect()
}

/// Atomically rewrites `serve_state.json` after every session completion,
/// so a killed deployment restarts from the sessions it actually finished.
fn write_serve_state(path: &std::path::Path, done: &[DoneSession]) -> Result<(), CliError> {
    let rows = done
        .iter()
        .map(|d| {
            Json::obj(vec![
                ("name", Json::Str(d.name.clone())),
                ("tenant", Json::Str(d.tenant.clone())),
                ("evaluations", Json::UInt(d.evaluations)),
            ])
        })
        .collect();
    atomic_write_str(path, &Json::obj(vec![("done", Json::Arr(rows))]).to_string_pretty())?;
    Ok(())
}

/// `agebo serve`: run a serve config's sessions concurrently on a shared
/// slot pool, writing per-session telemetry and history files plus a
/// final report under `--out-dir`. Every session checkpoints into a
/// durable store under the output directory; `--resume` restarts an
/// interrupted deployment — finished sessions are skipped (their
/// evaluations pre-charged against tenant budgets) and interrupted ones
/// continue exactly-once from their stores.
pub fn run_serve(args: &ServeArgs) -> Result<(), CliError> {
    let text = std::fs::read_to_string(&args.config)
        .map_err(|e| format!("cannot read {}: {e}", args.config))?;
    let config = ServeConfig::parse(&text)?;
    announce_isa();
    let out_dir = std::path::Path::new(&args.out_dir);
    std::fs::create_dir_all(out_dir)?;
    let state_path = out_dir.join("serve_state.json");
    let mut done: Vec<DoneSession> = Vec::new();
    if args.resume {
        match std::fs::read_to_string(&state_path) {
            Ok(text) => done = parse_serve_state(&text)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("cannot read {}: {e}", state_path.display()).into()),
        }
    }
    let manager = SessionManager::new(ServeOptions {
        slots: config.slots,
        cache_capacity: config.cache_capacity,
    });
    for tenant in &config.tenants {
        manager.register_tenant(&tenant.name, tenant.budget.clone());
    }
    // A restarted deployment must honor the same total budgets as an
    // uninterrupted one: completed sessions are charged up front.
    for d in &done {
        manager.charge_tenant(&d.tenant, d.evaluations);
    }
    eprintln!(
        "serving {} sessions over {} shared slots (cache capacity {})...",
        config.sessions.len(),
        config.slots,
        config.cache_capacity
    );
    let mut handles = Vec::new();
    let mut rows = Vec::new();
    for decl in &config.sessions {
        if let Some(d) = done.iter().find(|d| d.name == decl.name) {
            println!(
                "session {} ({}) already complete — skipped ({} evaluations pre-charged)",
                d.name, d.tenant, d.evaluations
            );
            rows.push(Json::obj(vec![
                ("name", Json::Str(d.name.clone())),
                ("tenant", Json::Str(d.tenant.clone())),
                ("stop", Json::Str("already_complete".into())),
                ("evaluations", Json::UInt(d.evaluations)),
            ]));
            continue;
        }
        let base = decl.to_spec();
        // Durable session state: default a cadence when the declaration
        // did not set one, so every served session is crash-resumable.
        let every = if base.cfg.checkpoint_every > 0 { base.cfg.checkpoint_every } else { 10 };
        let ckpt_dir = out_dir.join(format!("{}-ckpt", decl.name));
        let cfg = base
            .cfg
            .clone()
            .with_checkpoint_dir(every, ckpt_dir.to_string_lossy().into_owned());
        let spec = SessionSpec { cfg, ..base }
            .with_telemetry(SessionTelemetry::Dir(out_dir.join(&decl.name)));
        match manager.submit(spec) {
            Admission::Accepted(handle) => handles.push(handle),
            Admission::Rejected { reason } => {
                eprintln!("session {} rejected: {reason}", decl.name);
                rows.push(Json::obj(vec![
                    ("name", Json::Str(decl.name.clone())),
                    ("tenant", Json::Str(decl.tenant.clone())),
                    ("stop", Json::Str("rejected".into())),
                    ("reason", Json::Str(reason)),
                ]));
            }
        }
    }
    for handle in handles {
        let report = handle.join();
        let hist_path = out_dir.join(format!("{}.history.json", report.name));
        atomic_write_str(&hist_path, &report.history.to_json_string())?;
        // Only naturally-completed sessions are recorded done: a session
        // stopped by a budget or deadline resumes on the next restart.
        if report.stop == agebo_core::StopReason::Completed {
            done.push(DoneSession {
                name: report.name.clone(),
                tenant: report.tenant.clone(),
                evaluations: report.history.len() as u64,
            });
            write_serve_state(&state_path, &done)?;
        }
        println!(
            "session {} ({}): {} — {} evaluations, best {}, {:.2}s wall clock",
            report.name,
            report.tenant,
            report.stop.label(),
            report.history.len(),
            report
                .history
                .best()
                .map_or("n/a".to_string(), |b| format!("{:.4}", b.objective)),
            report.wall_seconds
        );
        rows.push(Json::obj(vec![
            ("name", Json::Str(report.name.clone())),
            ("tenant", Json::Str(report.tenant.clone())),
            ("stop", Json::Str(report.stop.label().to_string())),
            ("evaluations", Json::UInt(report.history.len() as u64)),
            (
                "best_objective",
                report.history.best().map_or(Json::Null, |b| Json::Num(b.objective)),
            ),
            ("sim_wall_time", Json::Num(report.history.wall_time)),
            ("wall_seconds", Json::Num(report.wall_seconds)),
            ("history", Json::Str(hist_path.to_string_lossy().into_owned())),
        ]));
    }
    let stats = manager.cache_stats();
    let report = Json::obj(vec![
        ("slots", Json::UInt(config.slots as u64)),
        ("sessions", Json::Arr(rows)),
        (
            "shared_cache",
            Json::obj(vec![
                ("hits", Json::UInt(stats.hits)),
                ("misses", Json::UInt(stats.misses)),
                ("coalesced", Json::UInt(stats.coalesced)),
                ("evictions", Json::UInt(stats.evictions)),
                ("len", Json::UInt(stats.len as u64)),
                ("capacity", Json::UInt(stats.capacity as u64)),
            ]),
        ),
    ]);
    let report_path = out_dir.join("serve_report.json");
    atomic_write_str(&report_path, &report.to_string_pretty())?;
    println!(
        "shared cache: {} hits, {} misses, {} coalesced, {} evictions",
        stats.hits, stats.misses, stats.coalesced, stats.evictions
    );
    println!("serve report written to {}", report_path.display());
    Ok(())
}

/// `agebo compact`: reduce a durable store to one snapshot plus the
/// manifest — segments are folded, and orphan files from interrupted
/// compactions are swept. Safe at any time — records and resume behavior
/// are unchanged.
pub fn compact(args: &CompactArgs) -> Result<(), CliError> {
    let (mut store, recovered) = DurableStore::open(Box::new(RealIo), &args.dir)?;
    if recovered.discarded_tail_bytes > 0 {
        println!("discarded {} bytes of torn tail during recovery", recovered.discarded_tail_bytes);
    }
    let stats = store.retain_latest()?;
    match stats.compacted {
        Some(c) => println!(
            "compacted {}: {} segments folded into a snapshot of {} records ({} -> {} bytes)",
            args.dir, c.folded_segments, c.n_records, c.bytes_before, c.bytes_after
        ),
        None => println!("{} already holds a single snapshot; nothing to fold", args.dir),
    }
    if stats.removed_files > 0 {
        println!("swept {} orphaned store files", stats.removed_files);
    }
    Ok(())
}

/// `agebo evaluate`.
pub fn evaluate(args: &EvaluateArgs) -> Result<(), CliError> {
    let net = load_model(&args.model)?;
    let data = load_csv(&args.csv)?;
    if data.n_features() != net.spec().input_dim {
        return Err(format!(
            "model expects {} features, data has {}",
            net.spec().input_dim,
            data.n_features()
        )
        .into());
    }
    let preds = net.predict(&data.x);
    let k = data.n_classes.max(net.spec().n_classes);
    let cm = ConfusionMatrix::new(&data.y, &preds, k);
    println!("rows: {}", data.len());
    println!("accuracy:          {:.4}", cm.accuracy());
    println!("balanced accuracy: {:.4}", cm.balanced_accuracy());
    println!("macro F1:          {:.4}", cm.macro_f1());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use agebo_tabular::csv::save_csv;
    use agebo_tabular::synth::TeacherTask;

    #[test]
    fn search_and_evaluate_roundtrip_through_files() {
        let dir = std::env::temp_dir();
        let hist_path = dir.join("agebo_cli_hist.json");
        let model_path = dir.join("agebo_cli_model.json");
        let csv_path = dir.join("agebo_cli_data.csv");
        let tel_dir = dir.join("agebo_cli_telemetry");
        let _ = std::fs::remove_dir_all(&tel_dir);

        // Tiny CSV data set.
        let data = TeacherTask {
            n_features: 6,
            n_classes: 2,
            n_rows: 400,
            teacher_hidden: 4,
            logit_scale: 3.0,
            label_noise: 0.05,
            linear_mix: 0.7,
            nonlinear_dims: 3,
        }
        .generate(4);
        save_csv(&data, &csv_path).unwrap();

        let args = SearchArgs {
            dataset: DatasetKind::Covertype,
            csv: Some(csv_path.to_string_lossy().into_owned()),
            variant: agebo_core::Variant::agebo(),
            profile: SizeProfile::Test,
            seed: 5,
            out: Some(hist_path.to_string_lossy().into_owned()),
            model_out: Some(model_path.to_string_lossy().into_owned()),
            // Small data makes simulated evaluations short; bound the
            // simulated wall clock so the test stays fast.
            wall_minutes: Some(5.0),
            telemetry: Some(tel_dir.to_string_lossy().into_owned()),
            failure_rate: None,
            chaos: None,
            checkpoint_every: None,
            checkpoint_dir: None,
            surrogate_window: None,
            bo_trees: None,
            bo_candidates: None,
        };
        search(&args).unwrap();
        assert!(hist_path.exists());
        assert!(model_path.exists());
        // Telemetry artifacts exist and summarize.
        assert!(tel_dir.join(agebo_telemetry::EVENTS_FILE).exists());
        assert!(tel_dir.join(agebo_telemetry::METRICS_FILE).exists());
        run_report(&ReportArgs { dir: tel_dir.to_string_lossy().into_owned() }).unwrap();

        // The saved model evaluates on the same CSV.
        evaluate(&EvaluateArgs {
            model: model_path.to_string_lossy().into_owned(),
            csv: csv_path.to_string_lossy().into_owned(),
        })
        .unwrap();

        // And the history parses back with the variant serialized.
        let text = std::fs::read_to_string(&hist_path).unwrap();
        let h = SearchHistory::from_json_str(&text).unwrap();
        assert!(!h.is_empty());
        assert_eq!(h.variant, Some(agebo_core::Variant::agebo()));

        for p in [hist_path, model_path, csv_path] {
            std::fs::remove_file(p).ok();
        }
        std::fs::remove_dir_all(&tel_dir).ok();
    }

    /// The error `agebo resume` reports for a store whose header carries
    /// what a hand-edited MANIFEST.json would: `breakage` applied to an
    /// otherwise valid config.
    fn resume_error_for_header(tag: &str, breakage: fn(&mut SearchConfig)) -> String {
        let dir =
            std::env::temp_dir().join(format!("agebo_cli_bad_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_string_lossy().into_owned();
        let mut cfg = SearchConfig::test(agebo_core::Variant::agebo()).with_seed(3);
        breakage(&mut cfg);
        let header = run_header(&cfg, "covertype", SizeProfile::Test);
        drop(DurableStore::create(Box::new(RealIo), &*dir_s, header).unwrap());
        let err = resume(&ResumeArgs { dir: dir_s.clone(), out: None, telemetry: None })
            .unwrap_err()
            .to_string();
        std::fs::remove_dir_all(&dir).ok();
        assert!(err.contains(&format!("store {dir_s} header: ")), "{err}");
        err
    }

    #[test]
    fn resume_rejects_a_store_header_with_zero_workers() {
        let err = resume_error_for_header("workers", |c| c.workers = 0);
        assert!(err.contains("workers must be >= 1"), "{err}");
    }

    #[test]
    fn resume_rejects_a_store_header_with_hand_edited_chaos() {
        let err = resume_error_for_header("fraction", |c| c.chaos.straggler_fraction = 1.5);
        assert!(err.contains("header: chaos.straggler_fraction"), "{err}");
        let err = resume_error_for_header("mtbf", |c| c.chaos.mtbf = 0.0);
        assert!(err.contains("header: chaos.mtbf"), "{err}");
    }

    #[test]
    fn evaluate_rejects_feature_mismatch() {
        let dir = std::env::temp_dir();
        let model_path = dir.join("agebo_cli_model2.json");
        let csv_path = dir.join("agebo_cli_data2.csv");
        // Model with 4 inputs.
        let spec = agebo_nn::GraphSpec::mlp(4, &[(8, agebo_nn::Activation::Relu)], 2);
        let net = agebo_nn::GraphNet::new(spec, &mut Stream::new(0).rng());
        save_model(&net, &model_path).unwrap();
        // Data with 6 features.
        let data = TeacherTask {
            n_features: 6,
            n_classes: 2,
            n_rows: 20,
            teacher_hidden: 3,
            logit_scale: 2.0,
            label_noise: 0.0,
            linear_mix: 0.5,
            nonlinear_dims: 2,
        }
        .generate(1);
        save_csv(&data, &csv_path).unwrap();
        let err = evaluate(&EvaluateArgs {
            model: model_path.to_string_lossy().into_owned(),
            csv: csv_path.to_string_lossy().into_owned(),
        });
        assert!(err.is_err());
        std::fs::remove_file(model_path).ok();
        std::fs::remove_file(csv_path).ok();
    }
}
