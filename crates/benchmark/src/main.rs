//! `agebo-benchmark`: the end-to-end benchmark with a layer ledger.
//!
//! * `agebo-benchmark --workload W --seed N --seconds S --trace 0|1` —
//!   one measurement of one workload in this process (what
//!   `BENCHMARK.json`'s command runs, and what `run` spawns as a child so
//!   `peak_rss_mb` and allocator state are per workload). The last line
//!   of standard output is the result object.
//! * `agebo-benchmark run [--seed 42] [--out DIR] [--reps 3] [--quick]` —
//!   all four workloads, the correctness gate, every metric by name.
//! * `agebo-benchmark compare A.json B.json`, `agebo-benchmark agree`.
//!
//! See the crate README for the metric glossary and the frozen
//! parameters.

mod io;
mod layers;
mod metrics;
mod pool;
mod procfs;
mod report;
mod stats;
mod trace;
mod workloads;

use agebo_telemetry::Json;
use metrics::{END_TO_END, PER_LAYER};
use report::{Results, Sample, WorkloadResult};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use workloads::{Params, TraceCtx, Workload, RUN_SECONDS};

/// Cold input builds per measurement; `setup_s` is their median.
const SETUP_REPS: usize = 21;
const DEFAULT_SEED: u64 = 42;
const DEFAULT_REPS: usize = 3;
/// `--quick`: a quarter of every budget, one rep.
const QUICK_FACTOR: f64 = 0.25;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => Flags::parse(&args[1..]).and_then(|f| cmd_run(&f, 1)),
        Some("agree") => Flags::parse(&args[1..]).and_then(|f| cmd_run(&f, 2)),
        Some("compare") => cmd_compare(&args[1..]),
        Some("manifest") => {
            print!("{}", manifest());
            Ok(ExitCode::SUCCESS)
        }
        _ => Flags::parse(&args).and_then(|f| cmd_measure(&f)),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("agebo-benchmark: {message}");
        ExitCode::from(2)
    })
}

/// `--name value` pairs plus the bare `--quick`.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or(format!("unexpected argument {arg:?}"))?;
            let value = if name == "quick" {
                "1".to_string()
            } else {
                it.next().ok_or(format!("--{name} needs a value"))?.clone()
            };
            out.push((name.to_string(), value));
        }
        Ok(Flags(out))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
        }
    }
}

/// Everything the benchmark writes goes under the build directory, which
/// the repository ignores.
fn work_root() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
}

/// A private scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = work_root()
            .join("agebo-benchmark-tmp")
            .join(format!("{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    fn dir(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj(vec![
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.to_string())),
    ])
}

/// One measurement of one workload in this process.
fn cmd_measure(flags: &Flags) -> Result<ExitCode, String> {
    let name = flags
        .get("workload")
        .ok_or("--workload is required (or: run | compare | agree)")?;
    let w = Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?;
    let seconds: f64 = flags.parsed("seconds", RUN_SECONDS)?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let p = Params {
        seed: flags.parsed("seed", DEFAULT_SEED)?,
        factor: seconds / RUN_SECONDS,
        threads: workloads::compute_threads(),
    };
    let trace = match flags.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let scratch = Scratch::new()?;
    let fixture =
        (w == Workload::ResumeReplay).then(|| workloads::build_fixture(p, &scratch.dir("fixture")));

    let (outcome, problems, metrics) = if trace {
        let reference = {
            let inputs = workloads::setup(w, p, &scratch.dir("reference"), fixture.as_ref());
            workloads::run(w, &inputs)
        };
        let inputs = workloads::setup(w, p, &scratch.dir("traced"), fixture.as_ref());
        let tracer = Arc::new(trace::Tracer::default());
        let t = TraceCtx {
            tracer: Arc::clone(&tracer),
            root: tracer.reserve(),
            dir: scratch.dir("telemetry"),
        };
        let calib_before_ms = procfs::calibrate_ms();
        let (cpu0, steal0, switches0) = (
            procfs::process_cpu_s(),
            procfs::host_steal_s(),
            procfs::thread_invol_switches(),
        );
        let start = tracer.now_ns();
        let traced = workloads::run_traced(w, p, &inputs, &t);
        tracer.close(
            t.root,
            None,
            "workload",
            start,
            vec![("wall_s", traced.outcome.wall_s)],
        );
        let proc = layers::ProcDelta {
            cpu_s: procfs::process_cpu_s() - cpu0,
            steal_s: procfs::host_steal_s() - steal0,
            main_switches: procfs::thread_invol_switches() - switches0,
            calib_before_ms,
            calib_after_ms: procfs::calibrate_ms(),
        };
        let mut problems = workloads::verify(w, &inputs, &traced.outcome);
        if traced.outcome.digest() != reference.digest() {
            problems.push("the traced run's history differs from the untraced run's".to_string());
        }
        let ledger = layers::ledger(w, p, &inputs, &traced, reference.wall_s, &proc, &t);
        if let Some(out) = flags.get("out") {
            let path = Path::new(out).join(format!("trace_{}.jsonl", w.name()));
            std::fs::create_dir_all(out)
                .and_then(|()| trace::write_jsonl(&path, w.name(), &tracer.spans()))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        } else {
            // No file to look at: say where the time went.
            for (name, secs) in trace::self_seconds_by_name(&tracer.spans()) {
                eprintln!("{:<16} self time {secs:>9.3} s  {name}", w.name());
            }
        }
        assert_eq!(
            ledger.len(),
            PER_LAYER.len(),
            "the ledger and the metric table disagree"
        );
        let metrics: Vec<(&str, Json)> = PER_LAYER
            .iter()
            .map(|m| (m.name, metric_json(ledger[m.name], m.unit)))
            .collect();
        (traced.outcome, problems, metrics)
    } else {
        let mut setup_s = Vec::with_capacity(SETUP_REPS);
        let mut build = |i: usize| {
            let dir = scratch.dir(&format!("inputs-{i}"));
            let t0 = Instant::now();
            let inputs = workloads::setup(w, p, &dir, fixture.as_ref());
            setup_s.push(t0.elapsed().as_secs_f64());
            inputs
        };
        // Each build is dropped before the next (a serve manager owns
        // threads); the last one is measured.
        for i in 1..SETUP_REPS {
            drop(build(i));
        }
        let inputs = build(0);
        let outcome = workloads::run(w, &inputs);
        let (ttfe_s, probe) = if w == Workload::ResumeReplay {
            // The store already holds every evaluation this run records,
            // so there is no first new one to wait for: its
            // seconds-to-resume are the whole replay.
            (outcome.wall_s, None)
        } else {
            let (s, probe) = workloads::ttfe(w, p, &inputs, &scratch.dir("ttfe"));
            (s, Some(probe))
        };
        let peak_rss_mb = procfs::peak_rss_mb();
        let mut problems = workloads::verify(w, &inputs, &outcome);
        problems.extend(workloads::verify_against(
            w,
            &inputs,
            fixture.as_ref(),
            &outcome,
            probe.as_ref(),
        ));
        let values = [
            stats::median(&setup_s),
            outcome.wall_s,
            outcome.recorded() as f64 / outcome.wall_s,
            ttfe_s,
            peak_rss_mb,
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, metric_json(v, m.unit)))
            .collect();
        (outcome, problems, metrics)
    };

    let info = Json::obj(vec![
        ("workload", Json::Str(w.name().to_string())),
        ("history_digest", Json::Str(outcome.digest())),
        ("recorded", Json::UInt(outcome.recorded() as u64)),
        (
            "stops",
            Json::Arr(
                outcome
                    .stops
                    .iter()
                    .map(|s| Json::Str(s.label().to_string()))
                    .collect(),
            ),
        ),
        (
            "problems",
            Json::Arr(problems.iter().cloned().map(Json::Str).collect()),
        ),
    ]);
    println!("info {}", info.to_string_compact());
    let result = Json::obj(vec![
        ("correct", Json::Bool(problems.is_empty())),
        ("attempted", Json::UInt(outcome.submitted.max(1))),
        ("failed", Json::UInt(outcome.failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", result.to_string_compact());
    Ok(ExitCode::SUCCESS)
}

/// What one child invocation reported.
struct Child {
    digest: String,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Metric values in table order (end-to-end or per-layer).
    values: Vec<f64>,
}

fn spawn_child(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &Path,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "child for {} exited with {}",
            w.name(),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parse = |line: Option<&str>| -> Result<Json, String> {
        let line = line.ok_or(format!("child for {} printed no result", w.name()))?;
        Json::parse(line).map_err(|e| format!("child output: {}", e.message))
    };
    let result = parse(stdout.lines().last())?;
    let info = parse(stdout.lines().find_map(|l| l.strip_prefix("info ")))?;
    let names: Vec<&str> = if trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let field = |v: &Json, k: &str| v.get(k).cloned().ok_or(format!("child output lacks `{k}`"));
    let metrics = field(&result, "metrics")?;
    Ok(Child {
        digest: field(&info, "history_digest")?
            .as_str()
            .unwrap_or_default()
            .to_string(),
        attempted: field(&result, "attempted")?.as_u64().unwrap_or(0),
        failed: field(&result, "failed")?.as_u64().unwrap_or(0),
        problems: field(&info, "problems")?
            .as_arr()
            .unwrap_or_default()
            .iter()
            .filter_map(|p| p.as_str().map(String::from))
            .collect(),
        values: names
            .iter()
            .map(|n| {
                metrics
                    .get(n)
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or(format!("child output lacks {n}"))
            })
            .collect::<Result<_, _>>()?,
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn context(seed: u64, factor: f64, reps: usize) -> Json {
    Json::obj(vec![
        (
            "nproc",
            Json::UInt(std::thread::available_parallelism().map_or(1, usize::from) as u64),
        ),
        ("threads", Json::UInt(workloads::compute_threads() as u64)),
        // 1 means the offline rayon stand-in: ranks and trees run in sequence.
        (
            "rayon_threads",
            Json::UInt(rayon::current_num_threads() as u64),
        ),
        ("isa", Json::Str(agebo_tensor::simd::isa_name().to_string())),
        (
            "AGEBO_FORCE_SCALAR",
            std::env::var("AGEBO_FORCE_SCALAR").map_or(Json::Null, Json::Str),
        ),
        (
            "git_rev",
            Json::Str(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        (
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_string(),
            ),
        ),
        ("seed", Json::UInt(seed)),
        ("budget_factor", Json::Num(factor)),
        ("reps", Json::UInt(reps as u64)),
        ("utc_date", Json::Str(command_line("date", &["-u", "+%F"]))),
    ])
}

/// `run` (one set) and `agree` (two sets, alternated rep by rep so host
/// drift lands on both).
fn cmd_run(flags: &Flags, sets: usize) -> Result<ExitCode, String> {
    let quick = flags.get("quick").is_some();
    let seed: u64 = flags.parsed("seed", DEFAULT_SEED)?;
    let reps: usize = flags.parsed("reps", if quick { 1 } else { DEFAULT_REPS })?;
    if reps == 0 {
        return Err("--reps must be at least 1".into());
    }
    let factor = if quick { QUICK_FACTOR } else { 1.0 };
    let seconds = RUN_SECONDS * factor;
    let out = flags
        .get("out")
        .map_or_else(|| work_root().join("agebo-benchmark-out"), PathBuf::from);
    let set_dir = |set: usize| {
        if sets == 1 {
            out.clone()
        } else {
            out.join(["A", "B"][set])
        }
    };

    let mut problems = Vec::new();
    let mut results: Vec<Results> = (0..sets)
        .map(|_| Results {
            context: context(seed, factor, reps),
            quick,
            workloads: Vec::new(),
        })
        .collect();
    for w in Workload::ALL {
        let mut untraced: Vec<Vec<Child>> = (0..sets).map(|_| Vec::new()).collect();
        for rep in 0..reps {
            for (set, children) in untraced.iter_mut().enumerate() {
                eprintln!(
                    "{}: rep {}/{reps}{}",
                    w.name(),
                    rep + 1,
                    if sets > 1 { ["", " (B)"][set] } else { "" }
                );
                children.push(spawn_child(w, seed, seconds, false, &set_dir(set))?);
            }
        }
        for (set, children) in untraced.into_iter().enumerate() {
            eprintln!("{}: traced run", w.name());
            let traced = spawn_child(w, seed, seconds, true, &set_dir(set))?;
            let first = &children[0];
            for child in children.iter().chain([&traced]) {
                problems.extend(child.problems.iter().map(|p| format!("{}: {p}", w.name())));
                if child.digest != first.digest {
                    problems.push(format!(
                        "{}: histories differ between runs of one seed",
                        w.name()
                    ));
                }
            }
            results[set].workloads.push(WorkloadResult {
                workload: w,
                digest: first.digest.clone(),
                attempted: first.attempted,
                failed: children.iter().map(|c| c.failed).max().unwrap_or(0),
                end_to_end: (0..END_TO_END.len())
                    .map(|i| Sample {
                        values: children.iter().map(|c| c.values[i]).collect(),
                    })
                    .collect(),
                per_layer: traced.values,
            });
        }
    }
    for r in &results {
        let digest = |w: Workload| {
            &r.workloads
                .iter()
                .find(|x| x.workload == w)
                .expect("all workloads ran")
                .digest
        };
        if digest(Workload::ResumeReplay) != digest(Workload::SearchManager) {
            problems.push("resume_replay's history differs from search_manager's".to_string());
        }
    }
    if sets == 2 {
        problems.extend(report::exact_differences(&results[0], &results[1]));
    }
    // The gate comes before any number.
    if !problems.is_empty() {
        problems.dedup();
        for p in &problems {
            eprintln!("FAILED {p}");
        }
        return Ok(ExitCode::FAILURE);
    }

    for (set, r) in results.iter().enumerate() {
        let dir = set_dir(set);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join("results.json");
        agebo_telemetry::atomic_write_str(&path, &r.to_json().to_string_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("context {}", r.context.to_string_compact());
        print!("{}", r.render());
        println!("results written to {}", path.display());
    }
    if sets == 2 {
        let (table, regressed) = report::compare(&results[0], &results[1])?;
        print!("\n{table}");
        if regressed {
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err("usage: agebo-benchmark compare A.json B.json".into());
    };
    let load = |path: &String| -> Result<Results, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Results::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, regressed) = report::compare(&load(a)?, &load(b)?)?;
    print!("{table}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// The text of `BENCHMARK.json`, generated from the frozen tables.
fn manifest() -> String {
    let str = |s: &str| Json::Str(s.to_string());
    let json = Json::obj(vec![
        (
            "command",
            Json::Arr(vec![str("bash"), str("crates/benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![str("crates/benchmark")])),
        ("run_seconds", Json::UInt(RUN_SECONDS as u64)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| Json::obj(vec![("name", str(w.name())), ("why", str(w.why()))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", str(m.name)),
                            ("unit", str(m.unit)),
                            ("better", str(m.better.label())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", str(m.name)),
                            ("unit", str(m.unit)),
                            ("better", str(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    json.to_string_pretty() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `agebo-benchmark manifest > BENCHMARK.json`"
        );
        assert!(Workload::ALL
            .iter()
            .all(|w| w.why().len() <= 200 && !w.why().contains('\n')));
    }

    #[test]
    fn flags_take_values_and_the_bare_quick() {
        let args: Vec<String> = ["--seed", "7", "--quick", "--seed", "9"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let flags = Flags::parse(&args).expect("well-formed");
        assert_eq!(flags.parsed("seed", 0u64), Ok(9));
        assert!(flags.get("quick").is_some());
        assert_eq!(flags.parsed("reps", 3usize), Ok(3));
        assert!(flags.parsed::<u64>("quick", 0).is_ok());
        assert!(Flags::parse(&["--seed".to_string()]).is_err());
        assert!(Flags::parse(&["seed".to_string()]).is_err());
        let bad = Flags::parse(&["--seed".to_string(), "x".to_string()]).unwrap();
        assert!(bad.parsed("seed", 0u64).is_err());
    }
}
