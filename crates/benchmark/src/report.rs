//! Result files and their comparison: the verdict per (end-to-end
//! metric, workload) pair.

use crate::metrics::{Better, EndToEnd, END_TO_END, PER_LAYER};
use crate::stats::{max, median, min};
use crate::workloads::Workload;
use agebo_telemetry::Json;

/// The repeated measurements of one metric on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub values: Vec<f64>,
}

impl Sample {
    pub fn median(&self) -> f64 {
        median(&self.values)
    }

    pub fn to_json(&self, unit: &str) -> Json {
        Json::obj(vec![
            ("unit", Json::Str(unit.to_string())),
            ("median", Json::Num(self.median())),
            ("min", Json::Num(min(&self.values))),
            ("max", Json::Num(max(&self.values))),
            ("n", Json::UInt(self.values.len() as u64)),
            (
                "values",
                Json::Arr(self.values.iter().map(|&v| Json::Num(v)).collect()),
            ),
        ])
    }

    fn from_json(v: &Json) -> Option<Sample> {
        let values = v
            .get("values")?
            .as_arr()?
            .iter()
            .map(Json::as_f64)
            .collect::<Option<_>>()?;
        Some(Sample { values })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The data cannot tell: the medians differ by more than the bound
    /// but the two sides' ranges overlap, or the host itself ran at a
    /// different speed on the two sides.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The bound as a share of the baseline median, widened to the metric's
/// absolute floor when the baseline is small.
pub fn effective_bound(metric: &EndToEnd, base_median: f64) -> f64 {
    if base_median > 0.0 {
        metric.bound.max(metric.floor / base_median)
    } else {
        metric.bound
    }
}

/// Compares `change` against `base`. `calib` holds the two sides' median
/// host-speed probe readings.
pub fn verdict(metric: &EndToEnd, base: &Sample, change: &Sample, calib: (f64, f64)) -> Verdict {
    let (a, b) = (base.median(), change.median());
    let bound = effective_bound(metric, a);
    // Positive = worse.
    let worse_by = match metric.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    if calib.0 > 0.0 && ((calib.1 - calib.0) / calib.0).abs() > bound {
        return Verdict::Unresolved;
    }
    if worse_by.abs() <= bound {
        return Verdict::Unchanged;
    }
    let overlap =
        min(&base.values) <= max(&change.values) && min(&change.values) <= max(&base.values);
    if overlap {
        Verdict::Unresolved
    } else if worse_by > 0.0 {
        Verdict::Regressed
    } else {
        Verdict::Improved
    }
}

/// One workload's part of a result file.
pub struct WorkloadResult {
    pub workload: Workload,
    pub digest: String,
    pub attempted: u64,
    pub failed: u64,
    /// In [`END_TO_END`] order.
    pub end_to_end: Vec<Sample>,
    /// In [`PER_LAYER`] order, from the traced run.
    pub per_layer: Vec<f64>,
}

impl WorkloadResult {
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn layer(&self, name: &str) -> f64 {
        PER_LAYER
            .iter()
            .position(|p| p.name == name)
            .map_or(0.0, |i| self.per_layer[i])
    }

    fn to_json(&self) -> Json {
        let e2e = END_TO_END
            .iter()
            .zip(&self.end_to_end)
            .map(|(m, s)| (m.name, s.to_json(m.unit)));
        let layers = PER_LAYER.iter().zip(&self.per_layer).map(|(m, &v)| {
            (
                m.name,
                Json::obj(vec![
                    ("unit", Json::Str(m.unit.to_string())),
                    ("value", Json::Num(v)),
                ]),
            )
        });
        Json::obj(vec![
            ("why", Json::Str(self.workload.why().to_string())),
            ("history_digest", Json::Str(self.digest.clone())),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("failed_share", Json::Num(self.failed_share())),
            ("end_to_end", Json::obj(e2e.collect())),
            ("per_layer", Json::obj(layers.collect())),
        ])
    }

    fn from_json(workload: Workload, v: &Json) -> Option<WorkloadResult> {
        let e2e = v.get("end_to_end")?;
        let layers = v.get("per_layer")?;
        Some(WorkloadResult {
            workload,
            digest: v.get("history_digest")?.as_str()?.to_string(),
            attempted: v.get("attempted")?.as_u64()?,
            failed: v.get("failed")?.as_u64()?,
            end_to_end: END_TO_END
                .iter()
                .map(|m| Sample::from_json(e2e.get(m.name)?))
                .collect::<Option<_>>()?,
            per_layer: PER_LAYER
                .iter()
                .map(|m| layers.get(m.name)?.get("value")?.as_f64())
                .collect::<Option<_>>()?,
        })
    }
}

/// A whole result file.
pub struct Results {
    pub context: Json,
    pub quick: bool,
    pub workloads: Vec<WorkloadResult>,
}

impl Results {
    pub fn to_json(&self) -> Json {
        let workloads = self
            .workloads
            .iter()
            .map(|w| (w.workload.name(), w.to_json()));
        Json::obj(vec![
            ("context", self.context.clone()),
            ("quick", Json::Bool(self.quick)),
            ("workloads", Json::obj(workloads.collect())),
        ])
    }

    pub fn parse(text: &str) -> Result<Results, String> {
        let v = Json::parse(text).map_err(|e| format!("not JSON: {}", e.message))?;
        let workloads = v.get("workloads").ok_or("no `workloads`")?;
        Ok(Results {
            context: v.get("context").cloned().unwrap_or(Json::Null),
            quick: v.get("quick").and_then(Json::as_bool).ok_or("no `quick`")?,
            workloads: Workload::ALL
                .into_iter()
                .map(|w| {
                    let entry = workloads
                        .get(w.name())
                        .ok_or(format!("no workload {}", w.name()))?;
                    WorkloadResult::from_json(w, entry)
                        .ok_or(format!("workload {} lacks a metric", w.name()))
                })
                .collect::<Result<_, String>>()?,
        })
    }

    /// Every metric by name with its unit.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for w in &self.workloads {
            out += &format!(
                "\n== {} (history {}, attempted {}, failed {}, failed_share {})\n",
                w.workload.name(),
                w.digest,
                w.attempted,
                w.failed,
                w.failed_share()
            );
            for (m, s) in END_TO_END.iter().zip(&w.end_to_end) {
                out += &format!(
                    "{:<34} {:>14.4} {:<8} (min {:.4}, max {:.4}, n={})\n",
                    m.name,
                    s.median(),
                    m.unit,
                    min(&s.values),
                    max(&s.values),
                    s.values.len()
                );
            }
            for (m, v) in PER_LAYER.iter().zip(&w.per_layer) {
                out += &format!("{:<34} {:>14.4} {}\n", m.name, v, m.unit);
            }
        }
        out
    }
}

/// The comparison table and whether it holds a regression.
pub fn compare(a: &Results, b: &Results) -> Result<(String, bool), String> {
    if a.quick || b.quick {
        return Err(
            "refusing to compare a --quick result: its budgets are a quarter of the frozen ones"
                .into(),
        );
    }
    let mut table = format!(
        "{:<15} {:<12} {:>12} {:>12} {:>22} {:>7}  verdict\n",
        "workload", "metric", "A median", "B median", "B/A", "bound"
    );
    let mut regressed = false;
    for (wa, wb) in a.workloads.iter().zip(&b.workloads) {
        let calib = (wa.layer("proc.calib_ms"), wb.layer("proc.calib_ms"));
        for (i, m) in END_TO_END.iter().enumerate() {
            let (sa, sb) = (&wa.end_to_end[i], &wb.end_to_end[i]);
            let v = verdict(m, sa, sb, calib);
            regressed |= v == Verdict::Regressed;
            table += &format!(
                "{:<15} {:<12} {:>12.4} {:>12.4} {:>22} {:>6.0}%  {}\n",
                wa.workload.name(),
                m.name,
                sa.median(),
                sb.median(),
                format!(
                    "{:.3}x of {:.4} {}",
                    sb.median() / sa.median(),
                    sa.median(),
                    m.unit
                ),
                effective_bound(m, sa.median()) * 100.0,
                v.label()
            );
        }
        let rose = wb.failed_share() > wa.failed_share();
        regressed |= rose;
        table += &format!(
            "{:<15} {:<12} {:>12.4} {:>12.4} {:>22} {:>7}  {}\n",
            wa.workload.name(),
            "failed_share",
            wa.failed_share(),
            wb.failed_share(),
            "-",
            "any",
            if rose { "regressed" } else { "unchanged" }
        );
    }
    Ok((table, regressed))
}

/// Exact counts and history digests that differ between two result sets
/// of the same code and seed.
pub fn exact_differences(a: &Results, b: &Results) -> Vec<String> {
    let mut out = Vec::new();
    for (wa, wb) in a.workloads.iter().zip(&b.workloads) {
        if wa.digest != wb.digest {
            out.push(format!("{}: history digests differ", wa.workload.name()));
        }
        for (i, m) in PER_LAYER
            .iter()
            .enumerate()
            .filter(|(_, m)| m.exact_on(wa.workload))
        {
            if wa.per_layer[i] != wb.per_layer[i] {
                out.push(format!(
                    "{}: {} is {} in A and {} in B",
                    wa.workload.name(),
                    m.name,
                    wa.per_layer[i],
                    wb.per_layer[i]
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(values: &[f64]) -> Sample {
        Sample {
            values: values.to_vec(),
        }
    }

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .expect("known metric")
    }

    const SAME_HOST: (f64, f64) = (200.0, 201.0);

    #[test]
    fn within_the_bound_is_unchanged_either_way() {
        let wall = metric("wall_s");
        let base = sample(&[10.0, 10.1, 9.9]);
        assert_eq!(
            verdict(wall, &base, &sample(&[11.0, 11.2, 10.9]), SAME_HOST),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(wall, &base, &sample(&[9.0, 9.1, 8.9]), SAME_HOST),
            Verdict::Unchanged
        );
    }

    #[test]
    fn beyond_the_bound_with_disjoint_ranges_is_a_verdict() {
        let wall = metric("wall_s");
        let rate = metric("evals_per_s");
        let base = sample(&[10.0, 10.1, 9.9]);
        assert_eq!(
            verdict(wall, &base, &sample(&[14.0, 14.1, 13.9]), SAME_HOST),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(wall, &base, &sample(&[6.0, 6.1, 5.9]), SAME_HOST),
            Verdict::Improved
        );
        // Higher is better: the same numbers read the other way.
        assert_eq!(
            verdict(rate, &base, &sample(&[14.0, 14.1, 13.9]), SAME_HOST),
            Verdict::Improved
        );
        assert_eq!(
            verdict(rate, &base, &sample(&[6.0, 6.1, 5.9]), SAME_HOST),
            Verdict::Regressed
        );
    }

    #[test]
    fn overlapping_ranges_or_a_drifting_host_are_unresolved() {
        let wall = metric("wall_s");
        let base = sample(&[10.0, 10.1, 13.5]);
        assert_eq!(
            verdict(wall, &base, &sample(&[13.0, 14.0, 14.1]), SAME_HOST),
            Verdict::Unresolved
        );
        // Disjoint ranges, but the probe says the host slowed by 40 %.
        let base = sample(&[10.0, 10.1, 9.9]);
        assert_eq!(
            verdict(wall, &base, &sample(&[14.0, 14.1, 13.9]), (200.0, 280.0)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn setup_s_has_an_absolute_floor() {
        let setup = metric("setup_s");
        // 10 ms → 25 ms is +150 %, but inside the 20 ms floor.
        let base = sample(&[0.010, 0.011, 0.009]);
        assert!((effective_bound(setup, 0.010) - 2.0).abs() < 1e-12);
        assert_eq!(
            verdict(setup, &base, &sample(&[0.025, 0.026, 0.024]), SAME_HOST),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(setup, &base, &sample(&[0.045, 0.046, 0.044]), SAME_HOST),
            Verdict::Regressed
        );
        // A large baseline falls back to the relative bound.
        assert_eq!(effective_bound(setup, 1.0), setup.bound);
    }

    fn results(wall: &[f64], failed: u64, quick: bool) -> Results {
        let workloads = Workload::ALL
            .into_iter()
            .map(|workload| WorkloadResult {
                workload,
                digest: "00".into(),
                attempted: 100,
                failed,
                end_to_end: END_TO_END.iter().map(|_| sample(wall)).collect(),
                per_layer: PER_LAYER.iter().map(|_| 1.0).collect(),
            })
            .collect();
        Results {
            context: Json::Null,
            quick,
            workloads,
        }
    }

    #[test]
    fn result_files_round_trip_and_compare() {
        let a = results(&[10.0, 10.1, 9.9], 0, false);
        let back = Results::parse(&a.to_json().to_string_pretty()).expect("round trip");
        assert_eq!(
            back.workloads[2].end_to_end[1],
            a.workloads[2].end_to_end[1]
        );
        assert_eq!(back.workloads[3].per_layer, a.workloads[3].per_layer);

        let (table, regressed) = compare(&a, &back).expect("comparable");
        assert!(!regressed, "{table}");
        assert!(table.contains("1.000x of 10.0000 s"), "{table}");
        assert!(exact_differences(&a, &back).is_empty());
        // Any rise in failed_share is a regression, whatever the timings.
        assert!(
            compare(&a, &results(&[10.0, 10.1, 9.9], 1, false))
                .unwrap()
                .1
        );
        assert!(compare(&a, &results(&[10.0], 0, true)).is_err());
    }
}
