//! The frozen metric tables. Later issues cite these names verbatim;
//! `BENCHMARK.json` at the repository root is generated from them
//! (`agebo-benchmark manifest`), and a unit test keeps the two in step.

use crate::workloads::Workload;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a user of `agebo search` / `serve` /
/// `resume` sees. `bound` is the share of the baseline median by which it
/// may worsen before a change counts as a regression; `floor` is an
/// absolute slack in the metric's unit for values too small for a
/// relative bound alone.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub floor: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.02,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "evals_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "ttfe_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.1,
        floor: 0.0,
    },
];

/// Whether a per-layer count repeats exactly for a seed, and is asserted
/// equal between runs of the same code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exact {
    No,
    Yes,
    /// Exact wherever trainings run to their end. The serve layer cancels
    /// a finished session's in-flight trainings at step granularity, so on
    /// `serve_disjoint` the trainer's step counts depend on timing.
    UnlessServed,
}

/// A per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: Exact,
}

impl PerLayer {
    pub fn exact_on(&self, workload: Workload) -> bool {
        match self.exact {
            Exact::No => false,
            Exact::Yes => true,
            Exact::UnlessServed => workload != Workload::ServeDisjoint,
        }
    }
}

const fn m(name: &'static str, unit: &'static str, better: Better, exact: Exact) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact,
    }
}

use Better::{Higher as H, Lower as L};
use Exact::{No, UnlessServed, Yes};

pub const PER_LAYER: &[PerLayer] = &[
    // core
    m("core.evals_submitted", "count", H, Yes),
    m("core.evals_recorded", "count", H, Yes),
    m("core.cache_hits", "count", H, Yes),
    m("core.useful_eval_share", "share", H, No),
    m("core.evaluate_busy_s", "s", L, No),
    m("core.evaluate_ms_p50", "ms", L, No),
    m("core.evaluate_ms_p90", "ms", L, No),
    m("core.evaluate_ms_n1", "ms", L, No),
    m("core.evaluate_ms_n2", "ms", L, No),
    m("core.evaluate_ms_n4", "ms", L, No),
    m("core.evaluate_ms_n8", "ms", L, No),
    m("core.evaluate_wasted_s", "s", L, No),
    m("core.queue_wait_ms_p50", "ms", L, No),
    m("core.queue_wait_ms_p90", "ms", L, No),
    m("core.worker_idle_share", "share", L, No),
    m("core.population_s", "s", L, No),
    m("core.ledger_cpu_coverage", "share", H, No),
    m("core.sim_evals_per_hour", "1/h", H, Yes),
    m("core.sim_utilization", "share", H, Yes),
    m("core.best_val_acc", "share", H, Yes),
    // tensor
    m("tensor.gemm_gflops", "gflop/s", H, No),
    // nn
    m("nn.fwd_bwd_us_per_step", "us", L, No),
    m("nn.adam_us_per_step", "us", L, No),
    m("nn.validate_ms_per_epoch", "ms", L, No),
    m("nn.fwd_bwd_share", "share", L, No),
    m("nn.adam_share", "share", L, No),
    m("nn.validate_share", "share", L, No),
    m("nn.unattributed_share", "share", L, No),
    // tabular
    m("tabular.prepare_ms", "ms", L, No),
    m("tabular.gather_us_per_step", "us", L, No),
    m("tabular.gather_share", "share", L, No),
    // dataparallel
    m("dataparallel.steps", "count", L, UnlessServed),
    m("dataparallel.rank_steps", "count", L, UnlessServed),
    m("dataparallel.allreduce_calls", "count", L, UnlessServed),
    m("dataparallel.rank_step_busy_s", "s", L, No),
    m("dataparallel.allreduce_busy_s", "s", L, No),
    m("dataparallel.shard_us_per_eval", "us", L, No),
    m("dataparallel.allreduce_us_per_step", "us", L, No),
    m("dataparallel.allreduce_share", "share", L, No),
    // bo
    m("bo.asks", "count", L, Yes),
    m("bo.tells", "count", L, Yes),
    m("bo.window_evictions", "count", L, Yes),
    m("bo.ask_busy_s", "s", L, No),
    m("bo.tell_busy_s", "s", L, No),
    m("bo.ask_hidden_s", "s", H, No),
    m("bo.ask_share", "share", L, No),
    m("bo.replay_ask_ms_p50", "ms", L, No),
    m("bo.replay_ask_ms_p90", "ms", L, No),
    m("bo.replay_ask_ms_last", "ms", L, No),
    m("bo.replay_tell_us_p50", "us", L, No),
    // trees
    m("trees.refit_ms_final", "ms", L, No),
    m("trees.predict_batch_us", "us", L, No),
    m("trees.fit_rows", "count", L, Yes),
    // searchspace
    m("searchspace.random_ns", "ns", L, No),
    m("searchspace.mutate_ns", "ns", L, No),
    m("searchspace.to_graph_ns", "ns", L, No),
    m("searchspace.gen_s", "s", L, No),
    // scheduler
    m("scheduler.des_s", "s", L, No),
    m("scheduler.des_ns_per_event", "ns", L, No),
    // Scratch check-outs race between the pool's threads, so the split
    // between hits and misses is not exact even though their sum is.
    m("scheduler.scratch_hits", "count", H, No),
    m("scheduler.scratch_misses", "count", L, No),
    // durable
    m("durable.io_busy_s", "s", L, No),
    m("durable.fsyncs", "count", L, Yes),
    m("durable.renames", "count", L, Yes),
    m("durable.appends", "count", L, Yes),
    m("durable.bytes_appended", "bytes", L, Yes),
    m("durable.sync_ms_p50", "ms", L, No),
    m("durable.sync_ms_p90", "ms", L, No),
    m("durable.store_bytes", "bytes", L, Yes),
    m("durable.open_ms", "ms", L, No),
    m("durable.recovered_records", "count", H, Yes),
    m("durable.discarded_tail_bytes", "bytes", L, Yes),
    // telemetry
    m("telemetry.events", "count", L, Yes),
    m("telemetry.dropped", "count", L, No),
    m("telemetry.emit_us_per_event", "us", L, No),
    m("telemetry.flush_ms", "ms", L, No),
    m("trace.overhead_share", "share", L, No),
    // serve
    m("serve.sessions", "count", H, Yes),
    m("serve.rejected", "count", L, Yes),
    m("serve.cache_hits", "count", H, Yes),
    // Counts trainings the slots started, including ones a finishing
    // session cancels in flight: not exact.
    m("serve.cache_misses", "count", L, No),
    m("serve.cache_coalesced", "count", H, Yes),
    m("serve.cache_evictions", "count", L, Yes),
    m("serve.session_s_min", "s", L, No),
    m("serve.session_s_max", "s", L, No),
    m("serve.session_rate_spread", "ratio", L, No),
    m("serve.slot_busy_share_est", "share", H, No),
    m("serve.drr_pick_ns", "ns", L, No),
    // proc
    m("proc.cpu_s", "s", L, No),
    m("proc.cpu_share", "share", H, No),
    m("proc.ctx_switches_invol", "count", L, No),
    m("proc.steal_s", "s", L, No),
    m("proc.calib_ms", "ms", L, No),
    m("proc.calib_drift", "ratio", L, No),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|e| e.name)
            .chain(PER_LAYER.iter().map(|p| p.name))
            .collect();
        assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), names.len());
        assert!(names.iter().all(|n| n.len() <= 64));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|e| e.bound <= 0.25));
    }
}
