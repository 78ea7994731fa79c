//! Post-hoc run analysis: build a [`RunSummary`] from a JSONL event
//! stream and render it for the `agebo report` CLI surface.

use crate::events::{Envelope, RunEvent};
use crate::metrics::MetricsSnapshot;
use std::collections::{HashMap, HashSet};

/// Everything the `report` subcommand prints, computed from the event
/// log alone — except the resume-ask and stop counters, which are
/// metrics-only and stay zero until [`RunSummary::with_metrics`] supplies
/// a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Variant label from the manifest (empty when absent).
    pub label: String,
    /// Data-set name from the manifest.
    pub dataset: String,
    /// Root seed.
    pub seed: u64,
    /// Simulated worker nodes.
    pub workers: usize,
    /// Simulated wall-time budget (seconds).
    pub wall_time_budget: f64,
    /// Total events in the stream.
    pub n_events: usize,
    /// Evaluations submitted.
    pub n_submitted: usize,
    /// Evaluations finished (recorded).
    pub n_finished: usize,
    /// Evaluations served from the duplicate memo-cache.
    pub n_cache_hits: usize,
    /// Evaluations that faulted.
    pub n_faults: usize,
    /// BO `ask` calls.
    pub n_bo_asks: usize,
    /// BO `tell` calls.
    pub n_bo_tells: usize,
    /// Observations the BO rejected for a non-finite objective.
    pub n_bo_rejected: usize,
    /// Worker-slot outages observed (WorkerDown events).
    pub n_worker_down: usize,
    /// Evaluations resubmitted under the retry policy.
    pub n_retries: usize,
    /// Evaluations killed by their deadline.
    pub n_timeouts: usize,
    /// Evaluations whose worker function panicked.
    pub n_crashes: usize,
    /// Worker-slot quarantine decisions.
    pub n_quarantined: usize,
    /// Latest simulated completion time (the makespan).
    pub makespan: f64,
    /// Busy worker-seconds divided by `workers × makespan`.
    pub utilization: f64,
    /// Mean queue wait (start − submit) in simulated seconds.
    pub mean_queue_wait: f64,
    /// Exact completion-latency (finish − submit) quantiles `(q, value)`
    /// for q ∈ {0.5, 0.9, 0.99}, empty when nothing finished.
    pub latency_quantiles: Vec<(f64, f64)>,
    /// Best-so-far trajectory: `(finished_at, best objective so far)`.
    pub best_so_far: Vec<(f64, f64)>,
    /// Distinct durable-store segments touched by checkpoint appends.
    pub n_ckpt_segments: usize,
    /// Total bytes written by durable checkpoint appends.
    pub ckpt_bytes: u64,
    /// Compactions folding sealed segments into a snapshot.
    pub n_compactions: usize,
    /// Completed evaluations replayed from the store on resume.
    pub resume_replayed: usize,
    /// In-flight-at-crash evaluations re-issued on resume.
    pub resume_reissued: usize,
    /// Torn segment-tail bytes discarded during recovery.
    pub resume_discarded_bytes: u64,
    /// Asks a resume answered from the recovered records without fitting
    /// the surrogate (`resume_asks_fast_forwarded_total`).
    pub resume_asks_fast_forwarded: u64,
    /// Asks a resume computed for real because an evaluation they feed
    /// had no record (`resume_asks_recomputed_total`) — many of these is
    /// why a resume was slow.
    pub resume_asks_recomputed: u64,
    /// Dispatched evaluations the compute pool discarded unstarted when
    /// the search ended (`search_trainings_abandoned_total`).
    pub trainings_abandoned: u64,
    /// Evaluations the compute pool was training when the search ended,
    /// flagged to abort (`search_trainings_cancelled_total`).
    pub trainings_cancelled: u64,
}

impl RunSummary {
    /// Parses a JSONL event stream. Lines that fail to parse are
    /// counted but otherwise skipped, so a truncated log still reports.
    pub fn from_jsonl(jsonl: &str) -> RunSummary {
        let mut s = RunSummary {
            label: String::new(),
            dataset: String::new(),
            seed: 0,
            workers: 0,
            wall_time_budget: 0.0,
            n_events: 0,
            n_submitted: 0,
            n_finished: 0,
            n_cache_hits: 0,
            n_faults: 0,
            n_bo_asks: 0,
            n_bo_tells: 0,
            n_bo_rejected: 0,
            n_worker_down: 0,
            n_retries: 0,
            n_timeouts: 0,
            n_crashes: 0,
            n_quarantined: 0,
            makespan: 0.0,
            utilization: 0.0,
            mean_queue_wait: 0.0,
            latency_quantiles: Vec::new(),
            best_so_far: Vec::new(),
            n_ckpt_segments: 0,
            ckpt_bytes: 0,
            n_compactions: 0,
            resume_replayed: 0,
            resume_reissued: 0,
            resume_discarded_bytes: 0,
            resume_asks_fast_forwarded: 0,
            resume_asks_recomputed: 0,
            trainings_abandoned: 0,
            trainings_cancelled: 0,
        };
        let mut ckpt_segments: HashSet<u64> = HashSet::new();
        let mut submitted_at: HashMap<u64, f64> = HashMap::new();
        let mut started_at: HashMap<u64, f64> = HashMap::new();
        let mut latencies: Vec<f64> = Vec::new();
        let mut waits: Vec<f64> = Vec::new();
        let mut busy = 0.0f64;
        let mut finishes: Vec<(f64, f64)> = Vec::new();
        for line in jsonl.lines().filter(|l| !l.trim().is_empty()) {
            let Ok(env) = Envelope::parse(line) else {
                continue;
            };
            s.n_events += 1;
            match env.event {
                RunEvent::RunManifest {
                    label, dataset, seed, workers, wall_time_budget, ..
                } => {
                    s.label = label;
                    s.dataset = dataset;
                    s.seed = seed;
                    s.workers = workers;
                    s.wall_time_budget = wall_time_budget;
                }
                RunEvent::EvalSubmitted { id, sim, .. } => {
                    s.n_submitted += 1;
                    submitted_at.insert(id, sim);
                }
                RunEvent::EvalStarted { id, sim } => {
                    started_at.insert(id, sim);
                    if let Some(&sub) = submitted_at.get(&id) {
                        waits.push(sim - sub);
                    }
                }
                RunEvent::EvalFinished { id, sim, duration, objective, cache_hit } => {
                    s.n_finished += 1;
                    if cache_hit {
                        s.n_cache_hits += 1;
                    }
                    busy += duration;
                    s.makespan = s.makespan.max(sim);
                    if let Some(&sub) = submitted_at.get(&id) {
                        latencies.push(sim - sub);
                    }
                    finishes.push((sim, objective));
                }
                RunEvent::EvalCacheHit { .. } => {}
                RunEvent::EvalFault { id: _, sim } => {
                    s.n_faults += 1;
                    s.makespan = s.makespan.max(sim);
                }
                RunEvent::BoAsk { .. } => s.n_bo_asks += 1,
                RunEvent::BoTell { .. } => s.n_bo_tells += 1,
                RunEvent::BoRejected { n_points, .. } => s.n_bo_rejected += n_points,
                RunEvent::WorkerDown { sim, .. } => {
                    s.n_worker_down += 1;
                    s.makespan = s.makespan.max(sim);
                }
                RunEvent::EvalRetry { .. } => s.n_retries += 1,
                RunEvent::EvalTimeout { sim, .. } => {
                    s.n_timeouts += 1;
                    s.makespan = s.makespan.max(sim);
                }
                RunEvent::EvalCrashed { sim, .. } => {
                    s.n_crashes += 1;
                    s.makespan = s.makespan.max(sim);
                }
                RunEvent::WorkerQuarantined { .. } => s.n_quarantined += 1,
                RunEvent::CheckpointSegment { segment, bytes, .. } => {
                    ckpt_segments.insert(segment);
                    s.ckpt_bytes += bytes;
                }
                RunEvent::Compacted { .. } => s.n_compactions += 1,
                RunEvent::ResumeRecovered { replayed, reissued, discarded_tail_bytes } => {
                    s.resume_replayed += replayed;
                    s.resume_reissued += reissued;
                    s.resume_discarded_bytes += discarded_tail_bytes;
                }
                RunEvent::PopulationReplaced { .. }
                | RunEvent::Checkpoint { .. }
                | RunEvent::WorkerUp { .. } => {}
            }
        }
        s.n_ckpt_segments = ckpt_segments.len();
        if s.workers > 0 && s.makespan > 0.0 {
            s.utilization = (busy / (s.workers as f64 * s.makespan)).min(1.0);
        }
        if !waits.is_empty() {
            s.mean_queue_wait = waits.iter().sum::<f64>() / waits.len() as f64;
        }
        if !latencies.is_empty() {
            latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
            s.latency_quantiles = [0.5, 0.9, 0.99]
                .iter()
                .map(|&q| {
                    let idx = ((latencies.len() - 1) as f64 * q).floor() as usize;
                    (q, latencies[idx])
                })
                .collect();
        }
        finishes.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        let mut best = f64::NEG_INFINITY;
        s.best_so_far = finishes
            .into_iter()
            .map(|(t, obj)| {
                best = best.max(obj);
                (t, best)
            })
            .collect();
        s
    }

    /// Fills in the fields the event stream does not carry from the
    /// run's metrics snapshot (`metrics.json`).
    pub fn with_metrics(mut self, metrics: &MetricsSnapshot) -> RunSummary {
        let counter = |name: &str| metrics.counters.get(name).copied().unwrap_or(0);
        self.resume_asks_fast_forwarded = counter("resume_asks_fast_forwarded_total");
        self.resume_asks_recomputed = counter("resume_asks_recomputed_total");
        self.trainings_abandoned = counter("search_trainings_abandoned_total");
        self.trainings_cancelled = counter("search_trainings_cancelled_total");
        self
    }

    /// The final best objective, if any evaluation finished.
    pub fn best_objective(&self) -> Option<f64> {
        self.best_so_far.last().map(|&(_, b)| b)
    }

    /// Renders the summary as the `agebo report` text output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let push = |out: &mut String, line: String| {
            out.push_str(&line);
            out.push('\n');
        };
        push(&mut out, format!("run:          {} on {} (seed {})", self.label, self.dataset, self.seed));
        push(
            &mut out,
            format!(
                "scale:        {} workers, {:.0} simulated minutes budget",
                self.workers,
                self.wall_time_budget / 60.0
            ),
        );
        push(
            &mut out,
            format!(
                "evaluations:  {} submitted, {} finished, {} cache hits, {} faults",
                self.n_submitted, self.n_finished, self.n_cache_hits, self.n_faults
            ),
        );
        push(
            &mut out,
            format!(
                "bo:           {} asks, {} tells, {} rejected",
                self.n_bo_asks, self.n_bo_tells, self.n_bo_rejected
            ),
        );
        push(
            &mut out,
            format!(
                "faults:       {} outages, {} crashes, {} timeouts, {} retries, {} quarantines",
                self.n_worker_down, self.n_crashes, self.n_timeouts, self.n_retries, self.n_quarantined
            ),
        );
        let mut cluster = format!(
            "cluster:      utilization {:.1}% over {:.0}s makespan, mean queue wait {:.1}s",
            self.utilization * 100.0,
            self.makespan,
            self.mean_queue_wait
        );
        if self.trainings_abandoned + self.trainings_cancelled > 0 {
            cluster.push_str(&format!(
                ", {} abandoned / {} cancelled at stop",
                self.trainings_abandoned, self.trainings_cancelled
            ));
        }
        push(&mut out, cluster);
        if !self.latency_quantiles.is_empty() {
            let q: Vec<String> = self
                .latency_quantiles
                .iter()
                .map(|(q, v)| format!("p{:.0}={v:.0}s", q * 100.0))
                .collect();
            push(&mut out, format!("eval latency: {}", q.join(" ")));
        }
        if self.n_ckpt_segments > 0 || self.n_compactions > 0 || self.resume_replayed > 0 {
            let mut line = format!(
                "durability:   {} segments, {} bytes, {} compactions, resume {} replayed / {} reissued / {} tail bytes discarded",
                self.n_ckpt_segments,
                self.ckpt_bytes,
                self.n_compactions,
                self.resume_replayed,
                self.resume_reissued,
                self.resume_discarded_bytes
            );
            if self.resume_asks_fast_forwarded + self.resume_asks_recomputed > 0 {
                line.push_str(&format!(
                    ", asks {} fast-forwarded / {} recomputed",
                    self.resume_asks_fast_forwarded, self.resume_asks_recomputed
                ));
            }
            push(&mut out, line);
        }
        if let Some(best) = self.best_objective() {
            push(&mut out, format!("best:         {best:.4} validation accuracy"));
            let n = self.best_so_far.len();
            let step = (n / 8).max(1);
            for (t, b) in self.best_so_far.iter().step_by(step) {
                push(&mut out, format!("  t={t:>8.0}s  best={b:.4}"));
            }
        }
        push(&mut out, format!("events:       {}", self.n_events));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::Telemetry;

    fn stream() -> String {
        let tel = Telemetry::in_memory();
        tel.emit(RunEvent::RunManifest {
            schema: crate::SCHEMA_VERSION,
            label: "AgEBO".into(),
            dataset: "covertype".into(),
            seed: 7,
            workers: 2,
            population: 4,
            wall_time_budget: 600.0,
            cache_policy: "replay".into(),
            resumed: false,
        });
        for id in 0..2u64 {
            tel.emit(RunEvent::EvalSubmitted {
                id,
                sim: 0.0,
                bs1: 256,
                lr1: 0.01,
                n: 2,
                modeled_duration: 100.0,
                cache_hit: false,
                arch: vec![1, 2],
            });
            tel.emit(RunEvent::EvalStarted { id, sim: 0.0 });
        }
        tel.emit(RunEvent::BoAsk { sim: 0.0, n_points: 2 });
        tel.emit(RunEvent::EvalFinished {
            id: 0,
            sim: 100.0,
            duration: 100.0,
            objective: 0.5,
            cache_hit: false,
        });
        tel.emit(RunEvent::EvalFinished {
            id: 1,
            sim: 200.0,
            duration: 200.0,
            objective: 0.7,
            cache_hit: false,
        });
        tel.emit(RunEvent::BoTell { sim: 200.0, n_points: 2 });
        tel.emit(RunEvent::BoRejected { sim: 200.0, n_points: 1 });
        tel.emit(RunEvent::EvalFault { id: 2, sim: 250.0 });
        tel.events_jsonl().unwrap()
    }

    #[test]
    fn summary_aggregates_the_stream() {
        let s = RunSummary::from_jsonl(&stream());
        assert_eq!(s.label, "AgEBO");
        assert_eq!(s.workers, 2);
        assert_eq!(s.n_submitted, 2);
        assert_eq!(s.n_finished, 2);
        assert_eq!(s.n_faults, 1);
        assert_eq!(s.n_bo_asks, 1);
        assert_eq!(s.n_bo_tells, 1);
        assert_eq!(s.n_bo_rejected, 1);
        assert_eq!(s.makespan, 250.0);
        // busy 300s over 2 workers * 250s.
        assert!((s.utilization - 0.6).abs() < 1e-12);
        assert_eq!(s.best_so_far, vec![(100.0, 0.5), (200.0, 0.7)]);
        assert_eq!(s.best_objective(), Some(0.7));
        assert_eq!(s.latency_quantiles[0], (0.5, 100.0));
        let text = s.render();
        assert!(text.contains("AgEBO"));
        assert!(text.contains("utilization 60.0%"));
        // The stop counters live in the metrics snapshot only, and the
        // line is unchanged while both are zero.
        let cluster = "cluster:      utilization 60.0% over 250s makespan, mean queue wait 0.0s";
        assert!(text.contains(&format!("{cluster}\n")), "{text}");
        let mut metrics = MetricsSnapshot::default();
        assert_eq!(s.clone().with_metrics(&metrics).render(), text);
        metrics.counters.insert("search_trainings_abandoned_total".into(), 9);
        metrics.counters.insert("search_trainings_cancelled_total".into(), 2);
        let text = s.with_metrics(&metrics).render();
        assert!(
            text.contains(&format!("{cluster}, 9 abandoned / 2 cancelled at stop\n")),
            "{text}"
        );
    }

    #[test]
    fn fault_events_are_counted_and_rendered() {
        let tel = Telemetry::in_memory();
        tel.emit(RunEvent::WorkerDown { worker: 1, sim: 50.0 });
        tel.emit(RunEvent::WorkerUp { worker: 1, sim: 80.0 });
        tel.emit(RunEvent::EvalRetry { id: 9, sim: 50.0, attempt: 1, reason: "outage".into() });
        tel.emit(RunEvent::EvalTimeout { id: 4, sim: 90.0 });
        tel.emit(RunEvent::EvalCrashed { id: 5, sim: 95.0, message: "boom".into() });
        tel.emit(RunEvent::WorkerQuarantined { worker: 1, sim: 95.0, until: 700.0 });
        let s = RunSummary::from_jsonl(&tel.events_jsonl().unwrap());
        assert_eq!(
            (s.n_worker_down, s.n_retries, s.n_timeouts, s.n_crashes, s.n_quarantined),
            (1, 1, 1, 1, 1)
        );
        assert_eq!(s.makespan, 95.0);
        let text = s.render();
        assert!(
            text.contains("faults:       1 outages, 1 crashes, 1 timeouts, 1 retries, 1 quarantines"),
            "{text}"
        );
    }

    #[test]
    fn durability_events_are_counted_and_rendered() {
        let tel = Telemetry::in_memory();
        tel.emit(RunEvent::ResumeRecovered { replayed: 5, reissued: 2, discarded_tail_bytes: 17 });
        tel.emit(RunEvent::CheckpointSegment { sim: 10.0, segment: 0, n_records: 5, bytes: 400 });
        tel.emit(RunEvent::CheckpointSegment { sim: 20.0, segment: 0, n_records: 10, bytes: 410 });
        tel.emit(RunEvent::CheckpointSegment { sim: 30.0, segment: 1, n_records: 15, bytes: 420 });
        tel.emit(RunEvent::Compacted {
            sim: 35.0,
            folded_segments: 2,
            n_records: 15,
            bytes_before: 1230,
            bytes_after: 600,
        });
        let s = RunSummary::from_jsonl(&tel.events_jsonl().unwrap());
        assert_eq!(s.n_ckpt_segments, 2);
        assert_eq!(s.ckpt_bytes, 1230);
        assert_eq!(s.n_compactions, 1);
        assert_eq!(
            (s.resume_replayed, s.resume_reissued, s.resume_discarded_bytes),
            (5, 2, 17)
        );
        let text = s.render();
        assert!(
            text.contains(
                "durability:   2 segments, 1230 bytes, 1 compactions, resume 5 replayed / 2 reissued / 17 tail bytes discarded\n"
            ),
            "{text}"
        );
        // The resume-ask counters live in the metrics snapshot only.
        let mut metrics = MetricsSnapshot::default();
        metrics.counters.insert("resume_asks_fast_forwarded_total".into(), 4);
        metrics.counters.insert("resume_asks_recomputed_total".into(), 2);
        let text = s.with_metrics(&metrics).render();
        assert!(
            text.contains("17 tail bytes discarded, asks 4 fast-forwarded / 2 recomputed\n"),
            "{text}"
        );
    }

    #[test]
    fn garbage_lines_are_skipped() {
        let mut jsonl = stream();
        jsonl.push_str("not json\n");
        let s = RunSummary::from_jsonl(&jsonl);
        assert_eq!(s.n_finished, 2);
    }

    #[test]
    fn empty_stream_reports_zeroes() {
        let s = RunSummary::from_jsonl("");
        assert_eq!(s.n_events, 0);
        assert!(s.best_objective().is_none());
        assert!(s.render().contains("events:       0"));
    }
}
