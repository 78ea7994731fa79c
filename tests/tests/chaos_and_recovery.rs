//! Chaos-layer integration tests: seeded fault injection must replay
//! bit-identically, and a hardened retry policy must be inert on a healthy
//! cluster. (Kill-and-resume under chaos is proven bitwise in
//! `crates/core/tests/durability.rs`.)

use agebo_core::{
    run_search, run_search_instrumented, FaultPlan, RetryPolicy, SearchConfig, SearchHistory,
    Variant,
};
use agebo_integration::covertype_ctx;
use agebo_telemetry::{mask_wall_clock, RunSummary, Telemetry};
use proptest::prelude::*;

fn assert_bitwise_equal(a: &SearchHistory, b: &SearchHistory) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.n_failed, b.n_failed);
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.arch, y.arch);
        assert_eq!(x.objective.to_bits(), y.objective.to_bits());
        assert_eq!(x.submitted_at.to_bits(), y.submitted_at.to_bits());
        assert_eq!(x.finished_at.to_bits(), y.finished_at.to_bits());
    }
}

/// With no chaos and no injected failures, a hardened retry policy
/// (deadlines, backoff, quarantine thresholds) never fires, so it must
/// not perturb the seeded trajectory by a single bit.
#[test]
fn hardened_retry_policy_is_inert_on_a_healthy_cluster() {
    let ctx = covertype_ctx(30);
    let base = SearchConfig::test(Variant::agebo()).with_seed(30).with_wall_time(900.0);
    let hardened = base.clone().with_chaos(FaultPlan::none()).with_retry(RetryPolicy::hardened());
    let t1 = Telemetry::in_memory();
    let t2 = Telemetry::in_memory();
    let a = run_search_instrumented(ctx.clone(), &base, &t1);
    let b = run_search_instrumented(ctx, &hardened, &t2);
    assert!(!a.is_empty());
    assert_bitwise_equal(&a, &b);
    let s1 = mask_wall_clock(&t1.events_jsonl().unwrap());
    let s2 = mask_wall_clock(&t2.events_jsonl().unwrap());
    assert_eq!(s1, s2, "an idle retry policy must not change the event stream");
}

/// `agebo report`'s fault counters reflect a chaotic run.
#[test]
fn fault_summary_counts_chaos_events() {
    let ctx = covertype_ctx(32);
    let cfg = SearchConfig::test(Variant::age(8))
        .with_seed(32)
        .with_wall_time(4000.0)
        .with_chaos(FaultPlan::heavy())
        .with_retry(RetryPolicy::hardened());
    let tel = Telemetry::in_memory();
    let h = run_search_instrumented(ctx, &cfg, &tel);
    assert!(!h.is_empty());
    let summary = RunSummary::from_jsonl(&tel.events_jsonl().unwrap());
    assert!(summary.n_worker_down > 0, "heavy chaos produced no outages");
    assert!(summary.n_retries > 0, "kills were never retried");
    let rendered = summary.render();
    assert!(rendered.contains("faults:"), "report must summarize faults:\n{rendered}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Same seed, same chaos plan → bit-identical history, for any seed.
    #[test]
    fn same_seed_chaos_runs_replay_identically(seed in 0u64..1_000) {
        let ctx = covertype_ctx(55);
        let cfg = SearchConfig::test(Variant::age(4))
            .with_seed(seed)
            .with_wall_time(600.0)
            .with_chaos(FaultPlan::heavy())
            .with_retry(RetryPolicy::hardened());
        let a = run_search(ctx.clone(), &cfg);
        let b = run_search(ctx, &cfg);
        prop_assert_eq!(a.len(), b.len());
        prop_assert_eq!(a.n_failed, b.n_failed);
        for (x, y) in a.records.iter().zip(&b.records) {
            prop_assert_eq!(x.id, y.id);
            prop_assert_eq!(&x.arch, &y.arch);
            prop_assert_eq!(x.objective.to_bits(), y.objective.to_bits());
            prop_assert_eq!(x.finished_at.to_bits(), y.finished_at.to_bits());
        }
    }
}
