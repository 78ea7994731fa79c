//! Hand-rolled argument parsing (no external CLI dependency).

use agebo_core::{FaultPlan, Variant};
use agebo_tabular::{DatasetKind, SizeProfile};

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The subcommand to run.
    pub command: Command,
}

/// The `agebo` subcommands.
// One value per process, built once by `Cli::parse`: the size gap between
// `Search` and the small variants costs nothing worth a `Box`.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print search-space and data-set information.
    Info,
    /// Run a search.
    Search(SearchArgs),
    /// Resume a search exactly-once from its durable checkpoint store.
    Resume(ResumeArgs),
    /// Evaluate a saved model on a CSV file.
    Evaluate(EvaluateArgs),
    /// Summarize a telemetry directory's run-event log.
    Report(ReportArgs),
    /// Run multiple concurrent searches from a serve config file.
    Serve(ServeArgs),
    /// Fold a durable checkpoint store's segments into one snapshot.
    Compact(CompactArgs),
}

/// Arguments of `agebo search`.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchArgs {
    /// Benchmark data set (`--dataset`), unless `--csv` is given.
    pub dataset: DatasetKind,
    /// Optional CSV path replacing the benchmark data.
    pub csv: Option<String>,
    /// Search variant.
    pub variant: Variant,
    /// Size/search profile.
    pub profile: SizeProfile,
    /// Seed.
    pub seed: u64,
    /// Where to write the history JSON.
    pub out: Option<String>,
    /// Where to write the retrained best model JSON.
    pub model_out: Option<String>,
    /// Override of the simulated wall-time budget, in minutes.
    pub wall_minutes: Option<f64>,
    /// Directory receiving the run-event log and metrics snapshot.
    pub telemetry: Option<String>,
    /// Injected application-level failure probability, in `[0, 1]`.
    pub failure_rate: Option<f64>,
    /// Simulated-cluster chaos profile (`none | mild | heavy`).
    pub chaos: Option<FaultPlan>,
    /// Commit to the durable store every N recorded completions
    /// (requires `--checkpoint-dir`).
    pub checkpoint_every: Option<usize>,
    /// Durable segmented checkpoint store directory; makes the run
    /// crash-resumable via `agebo resume --dir`.
    pub checkpoint_dir: Option<String>,
    /// Bounded surrogate training window (`0` = exact refits on the full
    /// history). Recorded in the durable store's header; `resume`
    /// rejects overrides of it because it changes the trajectory.
    pub surrogate_window: Option<usize>,
    /// Override of the profile's surrogate forest size (must be ≥ 1).
    pub bo_trees: Option<usize>,
    /// Override of the profile's UCB candidate pool (must be ≥ 1).
    pub bo_candidates: Option<usize>,
}

/// Arguments of `agebo resume`. The run's configuration comes from the
/// store's header, so there is nothing else to set.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumeArgs {
    /// Durable checkpoint store to resume (`--dir`).
    pub dir: String,
    /// Where to write the completed history.
    pub out: Option<String>,
    /// Directory receiving the run-event log and metrics snapshot.
    pub telemetry: Option<String>,
}

/// Arguments of `agebo evaluate`.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluateArgs {
    /// Saved model JSON.
    pub model: String,
    /// CSV data to evaluate on.
    pub csv: String,
}

/// Arguments of `agebo serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Serve config JSON (slots, tenants, sessions).
    pub config: String,
    /// Output directory for per-session artifacts and the final report.
    pub out_dir: String,
    /// Restart an interrupted deployment: skip sessions `serve_state.json`
    /// marks done (pre-charging their evaluations against tenant budgets)
    /// and resume the rest from their checkpoint stores.
    pub resume: bool,
}

/// Arguments of `agebo compact`.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactArgs {
    /// Durable checkpoint store directory.
    pub dir: String,
}

/// Arguments of `agebo report`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportArgs {
    /// Telemetry directory (containing `events.jsonl`) or a direct path
    /// to a JSONL event log.
    pub dir: String,
}

/// Parse failures, with a message suitable for direct printing.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Usage text.
pub const USAGE: &str = "\
agebo — AgEBO-Tabular joint NAS + HPS (SC'21 reproduction)

USAGE:
  agebo info
  agebo search   [--dataset covertype|airlines|albert|dionis] [--csv FILE]
                 [--variant agebo|age-1|age-2|age-4|age-8|agebo-lr|agebo-lr-bs]
                 [--profile test|bench|large] [--seed N] [--wall-minutes M]
                 [--out history.json] [--model-out model.json]
                 [--telemetry DIR] [--failure-rate P]
                 [--chaos-profile none|mild|heavy]
                 [--checkpoint-dir DIR]   (durable store; crash-resumable)
                 [--checkpoint-every N]   (store commit cadence; default 10)
                 [--surrogate-window N]   (bound BO refits to N obs; 0 = exact)
                 [--bo-trees N] [--bo-candidates N]
  agebo resume   --dir CKPT_DIR           (exactly-once resume of a durable
                 [--out history.json]      store; config comes from the store)
                 [--telemetry DIR]
  agebo compact  --dir CKPT_DIR           (fold segments into one snapshot)
  agebo evaluate --model model.json --csv data.csv
  agebo report   --dir DIR    (a --telemetry directory or an events.jsonl)
  agebo serve    --config serve.json [--out-dir DIR] [--resume]
";

fn parse_dataset(s: &str) -> Result<DatasetKind, ParseError> {
    DatasetKind::ALL
        .into_iter()
        .find(|k| k.name() == s)
        .ok_or_else(|| ParseError(format!("unknown dataset {s}")))
}

fn parse_profile(s: &str) -> Result<SizeProfile, ParseError> {
    match s {
        "test" => Ok(SizeProfile::Test),
        "bench" => Ok(SizeProfile::Bench),
        "large" => Ok(SizeProfile::Large),
        _ => Err(ParseError(format!("unknown profile {s} (test|bench|large)"))),
    }
}

fn parse_variant(s: &str) -> Result<Variant, ParseError> {
    match s {
        "agebo" => Ok(Variant::agebo()),
        "agebo-lr" => Ok(Variant::agebo_lr(8)),
        "agebo-lr-bs" => Ok(Variant::agebo_lr_bs(8)),
        _ => {
            if let Some(n) = s.strip_prefix("age-") {
                let n: usize = n
                    .parse()
                    .map_err(|_| ParseError(format!("bad process count in {s}")))?;
                if ![1, 2, 4, 8].contains(&n) {
                    return Err(ParseError(format!("n must be 1|2|4|8, got {n}")));
                }
                Ok(Variant::age(n))
            } else {
                Err(ParseError(format!(
                    "unknown variant {s} (agebo|age-1|age-2|age-4|age-8|agebo-lr|agebo-lr-bs)"
                )))
            }
        }
    }
}

fn parse_failure_rate(s: &str) -> Result<f64, ParseError> {
    let rate: f64 = s
        .parse()
        .map_err(|_| ParseError(format!("bad --failure-rate {s}")))?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(ParseError(format!("--failure-rate must be in [0,1], got {rate}")));
    }
    Ok(rate)
}

fn parse_chaos(s: &str) -> Result<FaultPlan, ParseError> {
    FaultPlan::from_label(s)
        .ok_or_else(|| ParseError(format!("unknown chaos profile {s} (none|mild|heavy)")))
}

/// BO-shape validation lives here (not as a panic deep inside
/// `BoOptimizer::new`): a nonsense flag value comes back as a printable
/// [`ParseError`], mirroring `agebo_bo::BoConfig::validate`.
fn parse_positive(s: &str, flag: &str) -> Result<usize, ParseError> {
    let n: usize = s.parse().map_err(|_| ParseError(format!("bad {flag} {s}")))?;
    if n == 0 {
        return Err(ParseError(format!("{flag} must be >= 1, got 0")));
    }
    Ok(n)
}

fn parse_surrogate_window(s: &str) -> Result<usize, ParseError> {
    s.parse().map_err(|_| {
        ParseError(format!("bad --surrogate-window {s} (observations; 0 = exact refits)"))
    })
}

/// Pulls `--key value` pairs (and valueless `--switch` toggles from
/// `switches`) out of `argv`, rejecting keys outside `allowed ∪ switches`
/// (so a typo like `--sed 7` fails loudly instead of being silently
/// ignored) and duplicate keys. Switches are returned in the map with an
/// empty value.
fn keyed_with_switches(
    argv: &[String],
    allowed: &[&str],
    switches: &[&str],
) -> Result<std::collections::HashMap<String, String>, ParseError> {
    let mut map = std::collections::HashMap::new();
    let mut i = 0;
    while i < argv.len() {
        let key = &argv[i];
        if !key.starts_with("--") {
            return Err(ParseError(format!("unexpected argument {key}")));
        }
        let name = &key[2..];
        if switches.contains(&name) {
            if map.insert(name.to_string(), String::new()).is_some() {
                return Err(ParseError(format!("{key} given more than once")));
            }
            i += 1;
            continue;
        }
        if !allowed.contains(&name) {
            return Err(ParseError(format!(
                "unknown flag {key} (expected one of: {})",
                allowed
                    .iter()
                    .chain(switches)
                    .map(|k| format!("--{k}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            )));
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| ParseError(format!("{key} expects a value")))?;
        if map.insert(name.to_string(), value.clone()).is_some() {
            return Err(ParseError(format!("{key} given more than once")));
        }
        i += 2;
    }
    Ok(map)
}

fn keyed(
    argv: &[String],
    allowed: &[&str],
) -> Result<std::collections::HashMap<String, String>, ParseError> {
    keyed_with_switches(argv, allowed, &[])
}

impl Cli {
    /// Parses a full argument list (excluding the program name).
    pub fn parse(argv: &[String]) -> Result<Cli, ParseError> {
        let (sub, rest) = argv
            .split_first()
            .ok_or_else(|| ParseError(USAGE.to_string()))?;
        let command = match sub.as_str() {
            "info" => Command::Info,
            "search" => {
                let kv = keyed(
                    rest,
                    &[
                        "dataset",
                        "csv",
                        "variant",
                        "profile",
                        "seed",
                        "out",
                        "model-out",
                        "wall-minutes",
                        "telemetry",
                        "failure-rate",
                        "chaos-profile",
                        "checkpoint-every",
                        "checkpoint-dir",
                        "surrogate-window",
                        "bo-trees",
                        "bo-candidates",
                    ],
                )?;
                if kv.contains_key("checkpoint-every") && !kv.contains_key("checkpoint-dir") {
                    return Err(ParseError(
                        "--checkpoint-every sets the durable store's commit cadence and \
                         needs --checkpoint-dir"
                            .into(),
                    ));
                }
                Command::Search(SearchArgs {
                    dataset: kv
                        .get("dataset")
                        .map(|s| parse_dataset(s))
                        .transpose()?
                        .unwrap_or(DatasetKind::Covertype),
                    csv: kv.get("csv").cloned(),
                    variant: kv
                        .get("variant")
                        .map(|s| parse_variant(s))
                        .transpose()?
                        .unwrap_or_else(Variant::agebo),
                    profile: kv
                        .get("profile")
                        .map(|s| parse_profile(s))
                        .transpose()?
                        .unwrap_or(SizeProfile::Test),
                    seed: kv
                        .get("seed")
                        .map(|s| s.parse().map_err(|_| ParseError("bad --seed".into())))
                        .transpose()?
                        .unwrap_or(42),
                    out: kv.get("out").cloned(),
                    model_out: kv.get("model-out").cloned(),
                    wall_minutes: kv
                        .get("wall-minutes")
                        .map(|s| {
                            s.parse()
                                .map_err(|_| ParseError("bad --wall-minutes".into()))
                        })
                        .transpose()?,
                    telemetry: kv.get("telemetry").cloned(),
                    failure_rate: kv
                        .get("failure-rate")
                        .map(|s| parse_failure_rate(s))
                        .transpose()?,
                    chaos: kv.get("chaos-profile").map(|s| parse_chaos(s)).transpose()?,
                    checkpoint_every: kv
                        .get("checkpoint-every")
                        .map(|s| {
                            s.parse()
                                .map_err(|_| ParseError("bad --checkpoint-every".into()))
                        })
                        .transpose()?,
                    checkpoint_dir: kv.get("checkpoint-dir").cloned(),
                    surrogate_window: kv
                        .get("surrogate-window")
                        .map(|s| parse_surrogate_window(s))
                        .transpose()?,
                    bo_trees: kv
                        .get("bo-trees")
                        .map(|s| parse_positive(s, "--bo-trees"))
                        .transpose()?,
                    bo_candidates: kv
                        .get("bo-candidates")
                        .map(|s| parse_positive(s, "--bo-candidates"))
                        .transpose()?,
                })
            }
            "resume" => {
                // Trajectory-shaping BO knobs are pinned by the store's
                // header: an override would make the resumed run replay a
                // different search than the one that was recorded, so
                // they are rejected explicitly (not as mere unknowns).
                for pinned in ["--surrogate-window", "--bo-trees", "--bo-candidates"] {
                    if rest.iter().any(|a| a == pinned) {
                        return Err(ParseError(format!(
                            "{pinned} cannot be overridden on resume: it changes the \
                             search trajectory (the store's header pins it)"
                        )));
                    }
                }
                let kv = keyed(rest, &["dir", "out", "telemetry"])?;
                Command::Resume(ResumeArgs {
                    dir: kv
                        .get("dir")
                        .cloned()
                        .ok_or_else(|| ParseError("resume requires --dir".into()))?,
                    out: kv.get("out").cloned(),
                    telemetry: kv.get("telemetry").cloned(),
                })
            }
            "evaluate" => {
                let kv = keyed(rest, &["model", "csv"])?;
                Command::Evaluate(EvaluateArgs {
                    model: kv
                        .get("model")
                        .cloned()
                        .ok_or_else(|| ParseError("evaluate requires --model".into()))?,
                    csv: kv
                        .get("csv")
                        .cloned()
                        .ok_or_else(|| ParseError("evaluate requires --csv".into()))?,
                })
            }
            "report" => {
                let kv = keyed(rest, &["dir"])?;
                Command::Report(ReportArgs {
                    dir: kv
                        .get("dir")
                        .cloned()
                        .ok_or_else(|| ParseError("report requires --dir".into()))?,
                })
            }
            "serve" => {
                let kv = keyed_with_switches(rest, &["config", "out-dir"], &["resume"])?;
                Command::Serve(ServeArgs {
                    config: kv
                        .get("config")
                        .cloned()
                        .ok_or_else(|| ParseError("serve requires --config".into()))?,
                    out_dir: kv
                        .get("out-dir")
                        .cloned()
                        .unwrap_or_else(|| "serve-out".to_string()),
                    resume: kv.contains_key("resume"),
                })
            }
            "compact" => {
                let kv = keyed(rest, &["dir"])?;
                Command::Compact(CompactArgs {
                    dir: kv
                        .get("dir")
                        .cloned()
                        .ok_or_else(|| ParseError("compact requires --dir".into()))?,
                })
            }
            "--help" | "-h" | "help" => return Err(ParseError(USAGE.to_string())),
            other => return Err(ParseError(format!("unknown subcommand {other}\n{USAGE}"))),
        };
        Ok(Cli { command })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_info() {
        let cli = Cli::parse(&argv(&["info"])).unwrap();
        assert_eq!(cli.command, Command::Info);
    }

    #[test]
    fn parses_search_with_defaults() {
        let cli = Cli::parse(&argv(&["search"])).unwrap();
        match cli.command {
            Command::Search(a) => {
                assert_eq!(a.dataset, DatasetKind::Covertype);
                assert_eq!(a.variant, Variant::agebo());
                assert_eq!(a.profile, SizeProfile::Test);
                assert_eq!(a.seed, 42);
                assert!(a.csv.is_none() && a.out.is_none());
                assert!(a.wall_minutes.is_none());
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_search_with_everything() {
        let cli = Cli::parse(&argv(&[
            "search", "--dataset", "dionis", "--variant", "age-8", "--profile", "bench",
            "--seed", "7", "--out", "h.json", "--model-out", "m.json",
            "--wall-minutes", "15",
        ]))
        .unwrap();
        match cli.command {
            Command::Search(a) => {
                assert_eq!(a.dataset, DatasetKind::Dionis);
                assert_eq!(a.variant, Variant::age(8));
                assert_eq!(a.profile, SizeProfile::Bench);
                assert_eq!(a.seed, 7);
                assert_eq!(a.out.as_deref(), Some("h.json"));
                assert_eq!(a.model_out.as_deref(), Some("m.json"));
                assert_eq!(a.wall_minutes, Some(15.0));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_values() {
        assert!(Cli::parse(&argv(&["search", "--dataset", "mnist"])).is_err());
        assert!(Cli::parse(&argv(&["search", "--variant", "age-3"])).is_err());
        assert!(Cli::parse(&argv(&["search", "--profile", "huge"])).is_err());
        assert!(Cli::parse(&argv(&["search", "--seed"])).is_err());
        assert!(Cli::parse(&argv(&["frobnicate"])).is_err());
        assert!(Cli::parse(&argv(&["evaluate", "--model", "m.json"])).is_err());
    }

    #[test]
    fn rejects_unknown_and_duplicate_flags() {
        let err = Cli::parse(&argv(&["search", "--sed", "7"])).unwrap_err();
        assert!(err.0.contains("unknown flag --sed"), "{}", err.0);
        assert!(err.0.contains("--seed"), "should list valid flags: {}", err.0);
        let err = Cli::parse(&argv(&["search", "--seed", "1", "--seed", "2"])).unwrap_err();
        assert!(err.0.contains("more than once"), "{}", err.0);
        assert!(Cli::parse(&argv(&["evaluate", "--model", "m", "--csv", "c", "--out", "x"]))
            .is_err());
    }

    #[test]
    fn parses_telemetry_and_report() {
        let cli = Cli::parse(&argv(&["search", "--telemetry", "/tmp/tel"])).unwrap();
        match cli.command {
            Command::Search(a) => assert_eq!(a.telemetry.as_deref(), Some("/tmp/tel")),
            other => panic!("wrong command {other:?}"),
        }
        let cli = Cli::parse(&argv(&["report", "--dir", "/tmp/tel"])).unwrap();
        assert_eq!(cli.command, Command::Report(ReportArgs { dir: "/tmp/tel".into() }));
        assert!(Cli::parse(&argv(&["report"])).is_err());
    }

    #[test]
    fn parses_chaos_flags() {
        let cli = Cli::parse(&argv(&[
            "search",
            "--failure-rate",
            "0.25",
            "--chaos-profile",
            "heavy",
        ]))
        .unwrap();
        match cli.command {
            Command::Search(a) => {
                assert_eq!(a.failure_rate, Some(0.25));
                assert_eq!(a.chaos, Some(FaultPlan::heavy()));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_chaos_flags() {
        let err = Cli::parse(&argv(&["search", "--failure-rate", "1.5"])).unwrap_err();
        assert!(err.0.contains("must be in [0,1]"), "{}", err.0);
        assert!(Cli::parse(&argv(&["search", "--failure-rate", "-0.1"])).is_err());
        assert!(Cli::parse(&argv(&["search", "--failure-rate", "lots"])).is_err());
        let err = Cli::parse(&argv(&["search", "--chaos-profile", "apocalyptic"])).unwrap_err();
        assert!(err.0.contains("none|mild|heavy"), "{}", err.0);
        assert!(Cli::parse(&argv(&[
            "search",
            "--checkpoint-dir",
            "ckpt",
            "--checkpoint-every",
            "-3"
        ]))
        .is_err());
    }

    #[test]
    fn parses_serve() {
        let cli = Cli::parse(&argv(&["serve", "--config", "s.json"])).unwrap();
        assert_eq!(
            cli.command,
            Command::Serve(ServeArgs {
                config: "s.json".into(),
                out_dir: "serve-out".into(),
                resume: false,
            })
        );
        let cli =
            Cli::parse(&argv(&["serve", "--config", "s.json", "--out-dir", "/tmp/o"])).unwrap();
        match cli.command {
            Command::Serve(a) => assert_eq!(a.out_dir, "/tmp/o"),
            other => panic!("wrong command {other:?}"),
        }
        assert!(Cli::parse(&argv(&["serve"])).is_err());
        assert!(Cli::parse(&argv(&["serve", "--config", "s.json", "--slots", "4"])).is_err());
    }

    #[test]
    fn resume_takes_only_the_store_and_output_flags() {
        let err = Cli::parse(&argv(&["resume"])).unwrap_err();
        assert!(err.0.contains("--dir"), "{}", err.0);
        let cli = Cli::parse(&argv(&[
            "resume", "--dir", "ckpt", "--out", "h.json", "--telemetry", "tel",
        ]))
        .unwrap();
        assert_eq!(
            cli.command,
            Command::Resume(ResumeArgs {
                dir: "ckpt".into(),
                out: Some("h.json".into()),
                telemetry: Some("tel".into()),
            })
        );
        // A history file is not a resumable artifact; the error lists
        // the store flag that is.
        let err = Cli::parse(&argv(&["resume", "--history", "h.json"])).unwrap_err();
        assert!(err.0.contains("unknown flag") && err.0.contains("--dir"), "{}", err.0);
        // The store's header is the configuration: nothing to override.
        let err = Cli::parse(&argv(&["resume", "--dir", "d", "--seed", "9"])).unwrap_err();
        assert!(err.0.contains("unknown flag --seed"), "{}", err.0);
    }

    #[test]
    fn parses_and_validates_bo_shape_flags() {
        let cli = Cli::parse(&argv(&[
            "search",
            "--surrogate-window",
            "4096",
            "--bo-trees",
            "12",
            "--bo-candidates",
            "64",
        ]))
        .unwrap();
        match cli.command {
            Command::Search(a) => {
                assert_eq!(a.surrogate_window, Some(4096));
                assert_eq!(a.bo_trees, Some(12));
                assert_eq!(a.bo_candidates, Some(64));
            }
            other => panic!("wrong command {other:?}"),
        }
        // Window 0 is the explicit "exact" spelling, not an error.
        let cli = Cli::parse(&argv(&["search", "--surrogate-window", "0"])).unwrap();
        match cli.command {
            Command::Search(a) => assert_eq!(a.surrogate_window, Some(0)),
            other => panic!("wrong command {other:?}"),
        }
        // Nonsense values come back as ParseError, not a panic later.
        assert!(Cli::parse(&argv(&["search", "--surrogate-window", "many"])).is_err());
        let err = Cli::parse(&argv(&["search", "--bo-trees", "0"])).unwrap_err();
        assert!(err.0.contains(">= 1"), "{}", err.0);
        let err = Cli::parse(&argv(&["search", "--bo-candidates", "0"])).unwrap_err();
        assert!(err.0.contains(">= 1"), "{}", err.0);
    }

    #[test]
    fn resume_rejects_trajectory_shaping_overrides() {
        for flag in ["--surrogate-window", "--bo-trees", "--bo-candidates"] {
            let err =
                Cli::parse(&argv(&["resume", "--dir", "ckpt", flag, "256"])).unwrap_err();
            assert!(
                err.0.contains("cannot be overridden on resume"),
                "{flag}: {}",
                err.0
            );
            assert!(err.0.contains("trajectory"), "{flag}: {}", err.0);
        }
    }

    #[test]
    fn parses_durability_commands() {
        let cli =
            Cli::parse(&argv(&["search", "--checkpoint-dir", "ckpt", "--checkpoint-every", "5"]))
                .unwrap();
        match cli.command {
            Command::Search(a) => {
                assert_eq!(a.checkpoint_dir.as_deref(), Some("ckpt"));
                assert_eq!(a.checkpoint_every, Some(5));
            }
            other => panic!("wrong command {other:?}"),
        }
        // The cadence belongs to the store: alone it has nothing to pace.
        let err = Cli::parse(&argv(&["search", "--checkpoint-every", "5"])).unwrap_err();
        assert!(err.0.contains("--checkpoint-dir"), "{}", err.0);
        let cli = Cli::parse(&argv(&["compact", "--dir", "ckpt"])).unwrap();
        assert_eq!(cli.command, Command::Compact(CompactArgs { dir: "ckpt".into() }));
        assert!(Cli::parse(&argv(&["compact"])).is_err());
        let cli = Cli::parse(&argv(&["serve", "--config", "s.json", "--resume"])).unwrap();
        match cli.command {
            Command::Serve(a) => assert!(a.resume),
            other => panic!("wrong command {other:?}"),
        }
        // A switch takes no value: the next token is parsed on its own.
        let err =
            Cli::parse(&argv(&["serve", "--config", "s.json", "--resume", "true"])).unwrap_err();
        assert!(err.0.contains("unexpected argument"), "{}", err.0);
    }
}
