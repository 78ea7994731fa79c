//! Search configuration: method variants and scale profiles.

use agebo_bo::SurrogateKind;
use agebo_dataparallel::{DataParallelHp, TrainingCostModel};
use agebo_scheduler::FaultPlan;

/// Which search method to run — the paper's baselines and ablations.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Variant {
    /// Plain aging evolution with *static* data-parallel training:
    /// `lr` and `bs` follow the linear-scaling rule at fixed `n`
    /// (Table I / Fig. 3: AgE-1, AgE-2, AgE-4, AgE-8).
    Age {
        /// Fixed number of data-parallel processes.
        n: usize,
    },
    /// Pure random search over the joint space — the standard NAS sanity
    /// baseline (architectures and hyperparameters sampled uniformly,
    /// no evolution, no BO).
    RandomSearch,
    /// Aging evolution + Bayesian optimization of the data-parallel
    /// hyperparameters. Freezing dimensions yields the Fig. 4 ablations.
    AgeBo {
        /// `Some(bs)` freezes the base batch size (AgEBO-8-LR).
        freeze_bs: Option<usize>,
        /// `Some(n)` freezes the process count (AgEBO-8-LR, AgEBO-8-LR-BS).
        freeze_n: Option<usize>,
        /// UCB exploration weight (paper default 0.001; Fig. 8 ablation).
        kappa: f64,
    },
}

impl Variant {
    /// AgE with `n` static processes.
    pub fn age(n: usize) -> Variant {
        Variant::Age { n }
    }

    /// Random search over the joint space.
    pub fn random_search() -> Variant {
        Variant::RandomSearch
    }

    /// Full AgEBO: all three hyperparameters tuned, κ = 0.001.
    pub fn agebo() -> Variant {
        Variant::AgeBo { freeze_bs: None, freeze_n: None, kappa: 0.001 }
    }

    /// AgEBO-n-LR: only the learning rate tuned (bs = 256, fixed n).
    pub fn agebo_lr(n: usize) -> Variant {
        Variant::AgeBo { freeze_bs: Some(256), freeze_n: Some(n), kappa: 0.001 }
    }

    /// AgEBO-n-LR-BS: learning rate and batch size tuned (fixed n).
    pub fn agebo_lr_bs(n: usize) -> Variant {
        Variant::AgeBo { freeze_bs: None, freeze_n: Some(n), kappa: 0.001 }
    }

    /// Full AgEBO with a custom κ (Fig. 8).
    pub fn agebo_kappa(kappa: f64) -> Variant {
        Variant::AgeBo { freeze_bs: None, freeze_n: None, kappa }
    }

    /// The paper's display label for this variant.
    pub fn label(&self) -> String {
        match self {
            Variant::Age { n } => format!("AgE-{n}"),
            Variant::RandomSearch => "RS".to_string(),
            Variant::AgeBo { freeze_bs, freeze_n, kappa } => {
                let mut label = match (freeze_bs, freeze_n) {
                    (Some(_), Some(n)) => format!("AgEBO-{n}-LR"),
                    (None, Some(n)) => format!("AgEBO-{n}-LR-BS"),
                    _ => "AgEBO".to_string(),
                };
                if (*kappa - 0.001).abs() > 1e-12 {
                    label.push_str(&format!(" (kappa={kappa})"));
                }
                label
            }
        }
    }
}

/// What the manager does when an (architecture, applied-hyperparameter)
/// pair it has already evaluated is submitted again.
///
/// Evaluation seeds are derived from the evaluation *content*
/// ([`crate::evaluation::content_seed`]), so a duplicate submission would
/// train identically and return the identical objective — re-running it
/// is pure waste. The policy controls how that redundancy is exploited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicy {
    /// No memoization: duplicates re-train from scratch.
    Off,
    /// Serve the memoized objective but charge the full modeled duration,
    /// keeping the simulated trajectory bit-identical to `Off` while
    /// skipping the real compute (the default).
    Replay,
    /// Serve the memoized objective in (effectively) zero simulated time,
    /// modeling a manager-side result cache on the real cluster.
    Instant,
}

impl CachePolicy {
    /// Stable lowercase name, as used by the CLI flag and the telemetry
    /// run manifest.
    pub fn label(self) -> &'static str {
        match self {
            CachePolicy::Off => "off",
            CachePolicy::Replay => "replay",
            CachePolicy::Instant => "instant",
        }
    }

    /// Parses the stable name back ([`CachePolicy::label`]'s inverse);
    /// `None` for anything unknown.
    pub fn from_label(label: &str) -> Option<CachePolicy> {
        match label {
            "off" => Some(CachePolicy::Off),
            "replay" => Some(CachePolicy::Replay),
            "instant" => Some(CachePolicy::Instant),
            _ => None,
        }
    }
}

/// How the manager reacts to failed, killed, or late evaluations.
///
/// All delays are simulated seconds; retry decisions depend only on the
/// (deterministic) outcome stream, so they replay bit-identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per candidate, including the first (≥ 1). When
    /// exhausted, the candidate is abandoned and a replacement is
    /// generated instead.
    pub max_attempts: u32,
    /// Base backoff before a retry, in simulated seconds; the delay for
    /// retry attempt `a` (1-based) is `backoff × 2^(a−1)`. Zero disables
    /// backoff.
    pub backoff: f64,
    /// Deadline multiplier: kill an evaluation `k ×` its modeled
    /// duration after submission and reassign it. `None` disables
    /// deadlines (stragglers run to completion).
    pub deadline_factor: Option<f64>,
    /// Quarantine a worker slot after this many *consecutive*
    /// infrastructure failures (outage kills, crashes, timeouts —
    /// injected task faults don't count). 0 disables quarantine.
    pub quarantine_after: u32,
    /// Length of a quarantine, in simulated seconds.
    pub quarantine_cooldown: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff: 0.0,
            deadline_factor: None,
            quarantine_after: 3,
            quarantine_cooldown: 600.0,
        }
    }
}

impl RetryPolicy {
    /// A policy tuned for hostile clusters: deadlines at 4× the modeled
    /// duration, 30 s exponential backoff, longer quarantines.
    pub fn hardened() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff: 30.0,
            deadline_factor: Some(4.0),
            quarantine_after: 3,
            quarantine_cooldown: 900.0,
        }
    }

    /// Simulated-seconds delay before retry attempt `attempt` (1-based).
    pub fn backoff_for(&self, attempt: u32) -> f64 {
        if self.backoff <= 0.0 {
            return 0.0;
        }
        self.backoff * 2f64.powi(attempt.saturating_sub(1).min(16) as i32)
    }

    /// Checks the policy's invariants, returning a human-readable reason
    /// on failure.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_attempts < 1 {
            return Err("retry.max_attempts must be >= 1".to_string());
        }
        if !(self.backoff >= 0.0 && self.backoff.is_finite()) {
            return Err(format!("retry.backoff must be finite and >= 0, got {}", self.backoff));
        }
        if let Some(k) = self.deadline_factor {
            if !(k > 1.0 && k.is_finite()) {
                return Err(format!("retry.deadline_factor must be finite and > 1, got {k}"));
            }
        }
        if !(self.quarantine_cooldown >= 0.0 && self.quarantine_cooldown.is_finite()) {
            return Err(format!(
                "retry.quarantine_cooldown must be finite and >= 0, got {}",
                self.quarantine_cooldown
            ));
        }
        Ok(())
    }
}

/// Full configuration of one search run.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// The method variant.
    pub variant: Variant,
    /// Population size `P` (paper: 100).
    pub population: usize,
    /// Tournament sample size `S` (paper: 10).
    pub sample_size: usize,
    /// Simulated worker nodes `W` (paper: 128).
    pub workers: usize,
    /// Simulated wall-time budget in seconds (paper: 3 h).
    pub wall_time: f64,
    /// Root seed of the run.
    pub seed: u64,
    /// Real compute threads backing the simulated workers.
    pub n_threads: usize,
    /// Static defaults for AgE (paper: lr 0.01, bs 256).
    pub default_hp: DataParallelHp,
    /// Simulated-time model, calibrated to Table I.
    pub cost: TrainingCostModel,
    /// Epochs charged by the cost model (the paper's 20 — independent of
    /// the real epochs in `EvalContext`).
    pub cost_epochs: usize,
    /// Random BO configurations before the surrogate is fitted.
    pub bo_n_initial: usize,
    /// Candidate pool per UCB maximisation.
    pub bo_candidates: usize,
    /// Trees in the BO surrogate forest.
    pub bo_trees: usize,
    /// Bounded surrogate training window (0 = exact: refit on the full
    /// history, the legacy behavior). When positive, each refit trains on
    /// a seeded reservoir sample of at most this many observations, so
    /// per-tell surrogate cost stays O(window) instead of growing with
    /// the history (see `agebo_bo::BoConfig::surrogate_window`).
    pub surrogate_window: usize,
    /// Mutate over all 37 decision variables (default) or only the layer
    /// variables (ablation; skips then never evolve).
    pub mutate_layers_only: bool,
    /// Use the constant-liar refit inside multipoint `ask` (default) or
    /// not (ablation).
    pub bo_constant_liar: bool,
    /// BO surrogate family (paper: random forest; GP is an ablation).
    pub bo_surrogate: SurrogateKind,
    /// Probability that an evaluation fails (worker crash / diverged
    /// training). Failed evaluations are not recorded or told to the BO;
    /// the manager immediately submits a replacement (fault tolerance of
    /// the Balsam-style layer).
    pub failure_rate: f64,
    /// Duplicate-evaluation memoization policy.
    pub cache: CachePolicy,
    /// Run the manager's `optimizer.ask` on a background thread,
    /// overlapped with replacement-architecture generation (default).
    /// The ask's inputs are fully determined when it is kicked off, so
    /// the search trajectory is identical with this on or off; disabling
    /// it serializes the manager loop (debugging / baseline timing).
    pub pipeline_ask: bool,
    /// Simulated-cluster chaos: worker outages and stragglers.
    /// [`FaultPlan::none`] (the default) keeps the run bitwise identical
    /// to a chaos-free build.
    pub chaos: FaultPlan,
    /// Retry / deadline / quarantine policy for failed evaluations.
    pub retry: RetryPolicy,
    /// Durable-store cadence: commit a delta to the attached store every
    /// this many recorded completions (0 = only the final flush). Has no
    /// effect on a run without a store.
    pub checkpoint_every: usize,
    /// Directory of the segmented durable store
    /// ([`crate::durable::DurableStore`]). The caller opens the store
    /// there and hands it to [`crate::run_search_durable`]; every
    /// checkpoint appends an O(delta) CRC-framed record batch, and the
    /// run becomes resumable exactly-once after a crash.
    pub checkpoint_dir: Option<String>,
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

impl SearchConfig {
    /// The paper's scale: `P = 100`, `S = 10`, `W = 128`, 3-hour wall
    /// time. Pair with `SizeProfile::Large` data for closest fidelity.
    pub fn paper(variant: Variant) -> Self {
        SearchConfig {
            variant,
            population: 100,
            sample_size: 10,
            workers: 128,
            wall_time: 3.0 * 3600.0,
            seed: 0,
            n_threads: default_threads(),
            default_hp: DataParallelHp::paper_default(1),
            cost: TrainingCostModel::paper_calibrated(),
            cost_epochs: 20,
            bo_n_initial: 10,
            bo_candidates: 256,
            bo_trees: 25,
            surrogate_window: 0,
            mutate_layers_only: false,
            bo_constant_liar: true,
            bo_surrogate: SurrogateKind::RandomForest,
            failure_rate: 0.0,
            cache: CachePolicy::Replay,
            pipeline_ask: true,
            chaos: FaultPlan::none(),
            retry: RetryPolicy::default(),
            checkpoint_every: 0,
            checkpoint_dir: None,
        }
    }

    /// Reduced scale for single-machine figure reproduction: `P = 20`,
    /// `S = 5`, `W = 12`, 50 simulated minutes.
    pub fn bench(variant: Variant) -> Self {
        SearchConfig {
            population: 20,
            sample_size: 5,
            workers: 12,
            wall_time: 3000.0,
            bo_n_initial: 8,
            bo_candidates: 128,
            bo_trees: 15,
            ..SearchConfig::paper(variant)
        }
    }

    /// Tiny scale for unit/integration tests.
    pub fn test(variant: Variant) -> Self {
        SearchConfig {
            population: 6,
            sample_size: 3,
            workers: 4,
            wall_time: 7000.0,
            bo_n_initial: 4,
            bo_candidates: 32,
            bo_trees: 8,
            ..SearchConfig::paper(variant)
        }
    }

    /// Sets the run seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the simulated wall time.
    pub fn with_wall_time(mut self, seconds: f64) -> Self {
        assert!(seconds > 0.0);
        self.wall_time = seconds;
        self
    }

    /// Sets the duplicate-evaluation cache policy.
    pub fn with_cache(mut self, cache: CachePolicy) -> Self {
        self.cache = cache;
        self
    }

    /// Enables or disables the background-thread `ask` pipeline.
    pub fn with_pipeline_ask(mut self, pipeline_ask: bool) -> Self {
        self.pipeline_ask = pipeline_ask;
        self
    }

    /// Sets the injected per-task failure probability (validated to
    /// `[0, 1]`).
    pub fn with_failure_rate(mut self, failure_rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&failure_rate),
            "failure_rate must be in [0,1], got {failure_rate}"
        );
        self.failure_rate = failure_rate;
        self
    }

    /// Installs a chaos plan (worker outages + stragglers). Panics on an
    /// invalid one, like [`SearchConfig::with_retry`].
    pub fn with_chaos(mut self, chaos: FaultPlan) -> Self {
        if let Err(e) = chaos.validate() {
            panic!("{e}");
        }
        self.chaos = chaos;
        self
    }

    /// Sets the retry / deadline / quarantine policy (panics on an
    /// invalid one — a caller bug; external input goes through
    /// [`SearchConfig::validate`]).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        if let Err(e) = retry.validate() {
            panic!("{e}");
        }
        self.retry = retry;
        self
    }

    /// Bounds the surrogate training window to `window` observations
    /// (0 = exact refits on the full history). Changing this changes the
    /// search trajectory, so resume rejects overrides of it.
    pub fn with_surrogate_window(mut self, window: usize) -> Self {
        self.surrogate_window = window;
        self
    }

    /// Routes checkpoints through a segmented durable store at `dir`
    /// (see [`crate::durable`]), appended to every `every` recorded
    /// completions.
    pub fn with_checkpoint_dir(mut self, every: usize, dir: impl Into<String>) -> Self {
        self.checkpoint_every = every;
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Checks the invariants the manager loop relies on, returning a
    /// human-readable reason on failure. Every boundary that builds a
    /// config from external bytes (CLI flags, a store header, a serve
    /// config) calls this, so the loop's own `assert!` only ever catches
    /// caller bugs.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("workers", self.workers),
            ("population", self.population),
            ("sample_size", self.sample_size),
        ] {
            if v < 1 {
                return Err(format!("{name} must be >= 1, got {v}"));
            }
        }
        if !(self.wall_time > 0.0 && self.wall_time.is_finite()) {
            return Err(format!("wall_time must be finite and > 0, got {}", self.wall_time));
        }
        if !(0.0..=1.0).contains(&self.failure_rate) {
            return Err(format!("failure_rate must be in [0, 1], got {}", self.failure_rate));
        }
        self.chaos.validate()?;
        self.retry.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_names() {
        assert_eq!(Variant::age(8).label(), "AgE-8");
        assert_eq!(Variant::agebo().label(), "AgEBO");
        assert_eq!(Variant::agebo_lr(8).label(), "AgEBO-8-LR");
        assert_eq!(Variant::agebo_lr_bs(8).label(), "AgEBO-8-LR-BS");
        assert_eq!(Variant::agebo_kappa(1.96).label(), "AgEBO (kappa=1.96)");
    }

    #[test]
    fn paper_config_matches_paper_constants() {
        let cfg = SearchConfig::paper(Variant::agebo());
        assert_eq!(cfg.population, 100);
        assert_eq!(cfg.sample_size, 10);
        assert_eq!(cfg.workers, 128);
        assert_eq!(cfg.wall_time, 3.0 * 3600.0);
        assert_eq!(cfg.default_hp.bs1, 256);
        assert!((cfg.default_hp.lr1 - 0.01).abs() < 1e-9);
        assert_eq!(cfg.cost_epochs, 20);
    }

    #[test]
    fn validate_names_the_offending_field() {
        let ok = SearchConfig::test(Variant::agebo());
        assert_eq!(ok.validate(), Ok(()));
        let rejects = |field: &str, breakage: fn(&mut SearchConfig)| {
            let mut cfg = ok.clone();
            breakage(&mut cfg);
            let err = cfg.validate().unwrap_err();
            assert!(err.contains(field), "{field}: {err}");
        };
        rejects("workers", |c| c.workers = 0);
        rejects("population", |c| c.population = 0);
        rejects("sample_size", |c| c.sample_size = 0);
        rejects("wall_time", |c| c.wall_time = f64::NAN);
        rejects("failure_rate", |c| c.failure_rate = 1.5);
        rejects("retry.max_attempts", |c| c.retry.max_attempts = 0);
        rejects("chaos.straggler_fraction", |c| c.chaos.straggler_fraction = 1.5);
        rejects("chaos.mtbf", |c| c.chaos.mtbf = 0.0);
    }

    #[test]
    fn builders_apply() {
        let cfg = SearchConfig::test(Variant::age(1)).with_seed(9).with_wall_time(100.0);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.wall_time, 100.0);
    }
}
