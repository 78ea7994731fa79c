//! Crash-point fault injection for the durable checkpoint store.
//!
//! The store's contract is *exactly-once resume*: SIGKILL at any
//! instant must leave a directory from which [`DurableStore::open`]
//! recovers a bitwise prefix of the uninterrupted trajectory, and a
//! resumed search replays that prefix and re-derives the identical
//! remainder — `SearchHistory::to_json_string` equal byte for byte.
//!
//! [`SimIo`] makes the kill instants enumerable: every mutating I/O op
//! (append, sync, rename, truncate, …) is counted, a fuse fails the
//! run after op `k`, and `durable_files(apply_renames, torn)` projects
//! the post-crash disk image — unsynced suffixes dropped or torn
//! (half-written with a flipped final byte), pending renames applied
//! or not, covering both sides of every fsync barrier.
//!
//! The exhaustive matrix drives the store API directly (cheap — pure
//! in-memory), covering *every* op index; full crashed-search →
//! resumed-search runs then pin the end-to-end property at each
//! boundary inside one checkpoint's commit sequence plus mid-run and
//! near-final points. Corruption (bit flips, truncation) must yield a
//! committed prefix or a typed [`DurableError`] — never a panic, never
//! a silently wrong history. Deterministic loops, not proptest: the
//! vendored proptest is a typecheck-only stub, and crash matrices
//! should be exhaustive, not sampled.

use agebo_core::durable::MANIFEST_FILE;
use agebo_core::{
    run_search_durable, CheckpointMeta, DurableRun, DurableStore, EvalContext, EvalRecord,
    FaultPlan, Recovered, RunHeader, SearchConfig, SimIo, StopReason, Variant,
};
use agebo_searchspace::SearchSpace;
use agebo_tabular::{DatasetKind, SizeProfile};
use agebo_telemetry::{Envelope, RunEvent, Telemetry};
use std::path::PathBuf;
use std::sync::Arc;

const DIR: &str = "ckpt";

/// A tiny one-node space keeps evaluations fast and collisions (memo
/// hits) frequent, so the replay-vs-memo interaction is exercised too.
fn tiny_ctx(seed: u64) -> Arc<EvalContext> {
    let mut ctx = EvalContext::prepare(DatasetKind::Covertype, SizeProfile::Test, seed);
    ctx.space = SearchSpace::with_nodes(ctx.meta.n_features, ctx.train.n_classes, 1);
    Arc::new(ctx)
}

fn base_cfg(seed: u64) -> SearchConfig {
    let mut cfg = SearchConfig::test(Variant::agebo()).with_seed(seed).with_wall_time(2500.0);
    cfg.checkpoint_every = 2;
    cfg
}

fn header_for(cfg: &SearchConfig) -> RunHeader {
    RunHeader {
        dataset: "covertype".into(),
        profile: "test".into(),
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

/// Bitwise record fingerprint: `Debug` for `f64` prints the shortest
/// round-trippable decimal, so equal strings mean equal bits.
fn fp(r: &EvalRecord) -> String {
    format!("{r:?}")
}

fn assert_prefix(recovered: &[EvalRecord], full: &[EvalRecord], what: &str) {
    assert!(
        recovered.len() <= full.len(),
        "{what}: recovered {} records, baseline has only {}",
        recovered.len(),
        full.len()
    );
    for (i, (a, b)) in recovered.iter().zip(full).enumerate() {
        assert_eq!(fp(a), fp(b), "{what}: record {i} diverges");
    }
}

/// Runs the uninterrupted durable search on a fresh simulated disk.
fn durable_baseline(
    ctx: &Arc<EvalContext>,
    cfg: &SearchConfig,
) -> (agebo_core::SearchHistory, SimIo, u64) {
    let sim = SimIo::new();
    let mut store = DurableStore::create(Box::new(sim.clone()), DIR, header_for(cfg))
        .expect("create baseline store");
    let tel = Telemetry::disabled();
    let (h, stop) = run_search_durable(
        Arc::clone(ctx),
        cfg,
        &tel,
        None,
        None,
        DurableRun { store: &mut store, recovered: None },
    );
    assert_eq!(stop, StopReason::Completed);
    assert_eq!(store.committed_records() as usize, h.len(), "final flush missed records");
    let ops = sim.mutations();
    (h, sim, ops)
}

/// Replays the baseline's records through the raw store API on `sim`:
/// create, two-record appends, one mid-way compaction. Returns the
/// total mutating-op count; errors (a blown fuse) end the drive early.
fn drive_store(sim: &SimIo, cfg: &SearchConfig, records: &[EvalRecord]) -> u64 {
    let drive = || -> Result<(), agebo_core::DurableError> {
        let mut store = DurableStore::create(Box::new(sim.clone()), DIR, header_for(cfg))?;
        let mut committed = 0usize;
        let mut compacted = false;
        for chunk in records.chunks(2) {
            committed += chunk.len();
            store.append_checkpoint(
                chunk,
                CheckpointMeta {
                    sim: committed as f64,
                    n_failed: 0,
                    n_cache_hits: 0,
                    in_flight: 1,
                },
            )?;
            if !compacted && committed >= records.len() / 2 {
                store.compact()?;
                compacted = true;
            }
        }
        Ok(())
    };
    let _ = drive();
    sim.mutations()
}

/// Exhaustive kill matrix over the raw store: for every mutating-op
/// index `k` and all four (renames-applied × torn-tail) disk views,
/// recovery yields a bitwise prefix — or a typed error only while no
/// manifest has ever reached the disk.
#[test]
fn crash_at_every_op_recovers_a_committed_prefix() {
    let ctx = tiny_ctx(31);
    let cfg = base_cfg(31);
    let (h, _, _) = durable_baseline(&ctx, &cfg);
    assert!(h.len() >= 8, "baseline too small to matrix: {} records", h.len());

    let total = drive_store(&SimIo::new(), &cfg, &h.records);
    assert!(total > 30, "drive too short for a meaningful matrix: {total} ops");

    let manifest_path = PathBuf::from(DIR).join(MANIFEST_FILE);
    for k in 0..=total {
        let sim = SimIo::new();
        sim.set_fuse(k);
        drive_store(&sim, &cfg, &h.records);
        for renames in [false, true] {
            for torn in [false, true] {
                let image = sim.durable_files(renames, torn);
                let manifest_present = image.contains_key(&manifest_path);
                let what = format!("k={k} renames={renames} torn={torn}");
                match DurableStore::open(Box::new(SimIo::from_files(image)), DIR) {
                    Ok((mut store, rec)) => {
                        assert_prefix(&rec.records, &h.records, &what);
                        let reread = store.load_records().expect("load_records after open");
                        assert_eq!(reread.len(), rec.records.len(), "{what}: load_records drift");
                        for (a, b) in reread.iter().zip(&rec.records) {
                            assert_eq!(fp(a), fp(b), "{what}: load_records bit drift");
                        }
                    }
                    Err(e) => {
                        // Only legitimate before the first manifest is durable.
                        assert!(
                            !manifest_present,
                            "{what}: open failed with a durable manifest present: {e}"
                        );
                    }
                }
            }
        }
    }
}

/// End-to-end exactly-once resume: kill the searching process at each
/// op boundary inside the first checkpoint's commit sequence (append,
/// segment fsync, manifest tmp write, tmp fsync, rename, dir fsync),
/// plus mid-run and just-before-final-flush; recover from the crash
/// image and resume. The resumed history must equal the uninterrupted
/// one byte for byte, and the resumed store must hold every record
/// exactly once.
#[test]
fn resume_is_bitwise_identical_at_representative_crash_points() {
    let ctx = tiny_ctx(31);
    let cfg = base_cfg(31);
    let (h_star, _, total_ops) = durable_baseline(&ctx, &cfg);
    let base_json = h_star.to_json_string();
    assert!(total_ops > 16, "baseline too short: {total_ops} ops");
    assert!(h_star.len() >= 8, "baseline too small: {} records", h_star.len());

    // create() costs 4 ops; the first checkpoint's 6-op sequence spans
    // ops 5..=10, so fuses 4..=10 stop before/inside/after each barrier.
    let ks = [4, 5, 6, 7, 8, 9, 10, total_ops / 2, total_ops - 2];
    let tel = Telemetry::disabled();
    for k in ks {
        let sim = SimIo::new();
        sim.set_fuse(k);
        let mut store = DurableStore::create(Box::new(sim.clone()), DIR, header_for(&cfg))
            .expect("fuse must outlast create");
        let _ = run_search_durable(
            Arc::clone(&ctx),
            &cfg,
            &tel,
            None,
            None,
            DurableRun { store: &mut store, recovered: None },
        );
        drop(store);
        // The two adversarial views: crash with renames pending and the
        // tail torn, and crash with renames flushed but nothing torn.
        for (renames, torn) in [(false, true), (true, false)] {
            let what = format!("k={k} renames={renames} torn={torn}");
            let image = sim.durable_files(renames, torn);
            let (mut store2, recovered) =
                DurableStore::open(Box::new(SimIo::from_files(image)), DIR)
                    .unwrap_or_else(|e| panic!("{what}: open failed: {e}"));
            assert_prefix(&recovered.records, &h_star.records, &what);
            let (h2, stop2) = run_search_durable(
                Arc::clone(&ctx),
                &cfg,
                &tel,
                None,
                None,
                DurableRun { store: &mut store2, recovered: Some(&recovered) },
            );
            assert_eq!(stop2, StopReason::Completed, "{what}");
            assert_eq!(h2.to_json_string(), base_json, "{what}: resumed history diverged");
            // Exactly-once: the resumed store holds the full trajectory,
            // each record once — replayed records were never re-appended.
            let final_recs = store2.load_records().expect("load after resume");
            assert_eq!(final_recs.len(), h_star.len(), "{what}: store record count");
            for (a, b) in final_recs.iter().zip(&h_star.records) {
                assert_eq!(fp(a), fp(b), "{what}: store bit drift after resume");
            }
        }
    }
}

/// Compacting a recovered store folds segments into a snapshot without
/// changing the committed state, and a resume from the compacted store
/// still reproduces the uninterrupted trajectory bitwise.
#[test]
fn compact_preserves_resume_identity() {
    let ctx = tiny_ctx(31);
    let cfg = base_cfg(31);
    let (h_star, _, total_ops) = durable_baseline(&ctx, &cfg);
    let base_json = h_star.to_json_string();

    let sim = SimIo::new();
    sim.set_fuse(total_ops * 2 / 3);
    let mut store = DurableStore::create(Box::new(sim.clone()), DIR, header_for(&cfg))
        .expect("fuse must outlast create");
    let tel = Telemetry::disabled();
    let _ = run_search_durable(
        Arc::clone(&ctx),
        &cfg,
        &tel,
        None,
        None,
        DurableRun { store: &mut store, recovered: None },
    );
    drop(store);

    let io = SimIo::from_files(sim.durable_files(false, true));
    let (mut s2, rec) = DurableStore::open(Box::new(io.clone()), DIR).expect("open crash image");
    assert!(!rec.records.is_empty(), "crash point left an empty store");
    let stats = s2.compact().expect("compact recovered store");
    assert_eq!(stats.n_records, rec.records.len());
    assert!(stats.bytes_after > 0);
    drop(s2);

    // Reopen the compacted disk: same state, then resume to completion.
    let (mut s3, rec3) = DurableStore::open(Box::new(SimIo::from_files(io.durable_files(true, false))), DIR)
        .expect("reopen after compact");
    assert_eq!(rec3.records.len(), rec.records.len());
    for (a, b) in rec3.records.iter().zip(&rec.records) {
        assert_eq!(fp(a), fp(b), "compaction changed a committed record");
    }
    assert_eq!(rec3.n_failed, rec.n_failed);
    assert_eq!(rec3.n_cache_hits, rec.n_cache_hits);
    assert_eq!(rec3.in_flight, rec.in_flight);
    let (h3, _) = run_search_durable(
        Arc::clone(&ctx),
        &cfg,
        &tel,
        None,
        None,
        DurableRun { store: &mut s3, recovered: Some(&rec3) },
    );
    assert_eq!(h3.to_json_string(), base_json, "resume after compaction diverged");
}

/// Replayed tells respect the bounded surrogate window: a crash-resume
/// of a `surrogate_window` run rebuilds the same seeded reservoir from
/// the replayed records, so the resumed history equals the
/// uninterrupted windowed run byte for byte. The windowed trajectory
/// must itself diverge from the exact one — otherwise the window could
/// be silently ignored and this test would pass vacuously.
#[test]
fn windowed_resume_replays_tells_through_the_reservoir() {
    let ctx = tiny_ctx(31);
    let exact_cfg = base_cfg(31);
    let cfg = base_cfg(31).with_surrogate_window(4);
    let (h_exact, _, _) = durable_baseline(&ctx, &exact_cfg);
    let (h_star, _, total_ops) = durable_baseline(&ctx, &cfg);
    let base_json = h_star.to_json_string();
    assert!(h_star.len() > 4, "run too small to evict: {} records", h_star.len());
    assert_ne!(
        h_exact.to_json_string(),
        base_json,
        "window=4 left the trajectory identical to exact — the window is not live"
    );

    let tel = Telemetry::disabled();
    for k in [total_ops / 2, total_ops - 2] {
        let what = format!("windowed k={k}");
        let (mut s2, rec) = crash_and_recover(&ctx, &cfg, k);
        assert_eq!(rec.header.surrogate_window, 4, "{what}: header lost the window");
        assert_prefix(&rec.records, &h_star.records, &what);
        let (h2, stop2) = run_search_durable(
            Arc::clone(&ctx),
            &cfg,
            &tel,
            None,
            None,
            DurableRun { store: &mut s2, recovered: Some(&rec) },
        );
        assert_eq!(stop2, StopReason::Completed, "{what}");
        assert_eq!(h2.to_json_string(), base_json, "{what}: windowed resume diverged");
    }
}

/// The resume contract holds with fault injection on: failed
/// evaluations and chaos node outages are part of the deterministic
/// trajectory, so a crash-resume under both must still be bitwise.
#[test]
fn resume_is_bitwise_identical_under_chaos_and_failures() {
    let ctx = tiny_ctx(47);
    let cfg = base_cfg(47)
        .with_failure_rate(0.15)
        .with_chaos(FaultPlan::mild());
    let (h_star, _, total_ops) = durable_baseline(&ctx, &cfg);
    let base_json = h_star.to_json_string();
    assert!(h_star.n_failed > 0, "failure rate produced no failures — test is vacuous");

    let tel = Telemetry::disabled();
    let (mut s2, rec) = crash_and_recover(&ctx, &cfg, total_ops / 2);
    assert_prefix(&rec.records, &h_star.records, "chaos crash");
    let (h2, _) = run_search_durable(
        Arc::clone(&ctx),
        &cfg,
        &tel,
        None,
        None,
        DurableRun { store: &mut s2, recovered: Some(&rec) },
    );
    assert_eq!(h2.to_json_string(), base_json, "chaos resume diverged");
}

/// Runs `cfg` into a fresh store, kills it after mutating op `k`, and
/// opens the crash image (renames pending, tail torn).
fn crash_and_recover(
    ctx: &Arc<EvalContext>,
    cfg: &SearchConfig,
    k: u64,
) -> (DurableStore, Recovered) {
    let sim = SimIo::new();
    sim.set_fuse(k);
    let mut store = DurableStore::create(Box::new(sim.clone()), DIR, header_for(cfg))
        .expect("fuse must outlast create");
    let _ = run_search_durable(
        Arc::clone(ctx),
        cfg,
        &Telemetry::disabled(),
        None,
        None,
        DurableRun { store: &mut store, recovered: None },
    );
    drop(store);
    DurableStore::open(Box::new(SimIo::from_files(sim.durable_files(false, true))), DIR)
        .expect("open crash image")
}

/// What a resumed run reports about its asks.
struct ResumedAsks {
    history_json: String,
    fast_forwarded: u64,
    recomputed: u64,
    /// `n_points` of every `BoAsk` event, in stream order.
    ask_sizes: Vec<usize>,
}

fn resume_counting_asks(
    ctx: &Arc<EvalContext>,
    cfg: &SearchConfig,
    store: &mut DurableStore,
    recovered: &Recovered,
) -> ResumedAsks {
    let tel = Telemetry::in_memory();
    let (h, stop) = run_search_durable(
        Arc::clone(ctx),
        cfg,
        &tel,
        None,
        None,
        DurableRun { store, recovered: Some(recovered) },
    );
    assert_eq!(stop, StopReason::Completed);
    let ask_sizes = tel
        .events_jsonl()
        .expect("in-memory stream")
        .lines()
        .filter_map(|line| match Envelope::parse(line).expect("event parses").event {
            RunEvent::BoAsk { n_points, .. } => Some(n_points),
            _ => None,
        })
        .collect();
    let counters = tel.registry().snapshot().counters;
    ResumedAsks {
        history_json: h.to_json_string(),
        fast_forwarded: counters["resume_asks_fast_forwarded_total"],
        recomputed: counters["resume_asks_recomputed_total"],
        ask_sizes,
    }
}

/// The resume fast-forward (asks answered from the recovered records,
/// no surrogate fit) must be invisible: resumed == uninterrupted, byte
/// for byte, with the ask pipelined or inline, under chaos and injected
/// failures (retried and faulted ids have no record, so their asks are
/// recomputed), exact and windowed. Every ask is accounted for as one
/// or the other, and some really were fast-forwarded.
#[test]
fn fast_forwarded_resume_is_bitwise_identical_across_the_matrix() {
    let ctx = tiny_ctx(31);
    for hostile in [false, true] {
        for window in [0, 4] {
            let mut base = base_cfg(31).with_surrogate_window(window);
            if hostile {
                base = base.with_failure_rate(0.2).with_chaos(FaultPlan::heavy());
            }
            let (h_star, _, total_ops) = durable_baseline(&ctx, &base);
            assert!(h_star.len() > window, "run too small for window {window}");
            if hostile {
                assert!(h_star.n_failed > 0, "hostile run never failed — vacuous");
            }
            let base_json = h_star.to_json_string();
            for pipeline_ask in [true, false] {
                let what = format!("hostile={hostile} window={window} pipeline={pipeline_ask}");
                let cfg = base.clone().with_pipeline_ask(pipeline_ask);
                let (mut store, rec) = crash_and_recover(&ctx, &cfg, total_ops * 2 / 3);
                assert_prefix(&rec.records, &h_star.records, &what);
                let resumed = resume_counting_asks(&ctx, &cfg, &mut store, &rec);
                assert_eq!(resumed.history_json, base_json, "{what}: resumed history diverged");
                assert!(resumed.fast_forwarded > 0, "{what}: nothing was fast-forwarded");
                assert_eq!(
                    (resumed.fast_forwarded + resumed.recomputed) as usize,
                    resumed.ask_sizes.len(),
                    "{what}: an ask was neither fast-forwarded nor recomputed"
                );
            }
        }
    }
}

/// A recovered record whose `hp` no drawn candidate matches (a foreign
/// or hand-edited store) must cost one fast-forward, nothing else: the
/// ask that would have replayed it falls back to the real `ask` with the
/// rng restored, and the history is still the uninterrupted one.
#[test]
fn tampered_record_falls_back_to_the_real_ask() {
    let ctx = tiny_ctx(31);
    let cfg = base_cfg(31);
    let (h_star, _, total_ops) = durable_baseline(&ctx, &cfg);
    let base_json = h_star.to_json_string();

    let (mut store, mut rec) = crash_and_recover(&ctx, &cfg, total_ops * 2 / 3);
    let clean = resume_counting_asks(&ctx, &cfg, &mut store, &rec);
    assert_eq!(clean.history_json, base_json);

    // This run has no faults or retries, so every submission is an ask
    // point and ask `i` fills the ids right after ask `i - 1`'s. Tamper
    // the first id of an ask the clean resume fast-forwarded (all of its
    // ids on record).
    let on_record = |id: u64| rec.records.iter().any(|r| r.id == id);
    let mut first_id = 0u64;
    let mut victim = None;
    for &q in &clean.ask_sizes {
        let ids = first_id..first_id + q as u64;
        if victim.is_none() && ids.clone().all(on_record) {
            victim = Some(first_id);
        }
        first_id = ids.end;
    }
    let victim = victim.expect("the clean resume fast-forwarded an ask");
    let r = rec.records.iter_mut().find(|r| r.id == victim).expect("victim is on record");
    r.hp.lr1 = f32::from_bits(r.hp.lr1.to_bits() ^ 1);

    let (mut store, _) = crash_and_recover(&ctx, &cfg, total_ops * 2 / 3);
    let tampered = resume_counting_asks(&ctx, &cfg, &mut store, &rec);
    assert_eq!(tampered.history_json, base_json, "fallback changed the history");
    assert_eq!(tampered.fast_forwarded, clean.fast_forwarded - 1);
    assert_eq!(tampered.recomputed, clean.recomputed + 1);
}

/// Corruption sweep over a completed store: a flipped byte or a
/// truncated file anywhere must yield either a committed prefix or a
/// typed [`DurableError`] — never a panic, never a non-prefix history.
/// Deterministic loops stand in for proptest (stubbed offline); the
/// XOR mask 0x40 maps every ASCII digit outside the digit range, so a
/// flipped count can never silently parse as a different valid count.
#[test]
fn corrupted_stores_recover_a_prefix_or_fail_typed() {
    let ctx = tiny_ctx(31);
    let cfg = base_cfg(31);
    let (h_star, sim, _) = durable_baseline(&ctx, &cfg);
    let clean = sim.durable_files(false, false);
    assert!(clean.len() >= 2, "expected a manifest plus at least one segment");

    // A typed refusal (`Err`) is always acceptable for corruption; only
    // an `Ok` with a non-prefix history would break the contract.
    let check = |image: std::collections::HashMap<PathBuf, Vec<u8>>, what: &str| {
        if let Ok((_, rec)) = DurableStore::open(Box::new(SimIo::from_files(image)), DIR) {
            assert_prefix(&rec.records, &h_star.records, what);
        }
    };

    for (path, data) in &clean {
        let mut pos = 0usize;
        while pos < data.len() {
            let mut image = clean.clone();
            image.get_mut(path).unwrap()[pos] ^= 0x40;
            check(image, &format!("flip {}@{pos}", path.display()));
            pos += 7;
        }
        let mut len = 0usize;
        while len < data.len() {
            let mut image = clean.clone();
            image.get_mut(path).unwrap().truncate(len);
            check(image, &format!("truncate {}@{len}", path.display()));
            len += 5;
        }
    }
}
