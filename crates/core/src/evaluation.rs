//! Architecture evaluation: the work one "worker node" performs.
//!
//! An evaluation takes an (architecture, hyperparameter) pair, builds the
//! network, runs the paper's training recipe (`n`-rank data-parallel Adam,
//! warmup, plateau reduction) on the prepared data set, and returns the
//! best validation accuracy — the search objective.

use agebo_dataparallel::{
    fit_data_parallel_instrumented, fit_data_parallel_pooled, DataParallelConfig, DataParallelHp,
    DpScratch, TrainerTelemetry,
};
use agebo_telemetry::Telemetry;
use agebo_nn::GraphNet;
use agebo_searchspace::{ArchVector, SearchSpace};
use agebo_tabular::{
    generators::make_dataset, scale, stratified_split, Dataset, DatasetKind, DatasetMeta,
    SizeProfile, SplitSpec,
};
use agebo_tensor::Stream;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::AtomicBool;

/// Everything an evaluation needs that is shared across all evaluations of
/// one search: the standardized data partitions, the architecture space,
/// and the training recipe.
#[derive(Debug)]
pub struct EvalContext {
    /// Standardized training partition.
    pub train: Dataset,
    /// Standardized validation partition (the objective is measured here).
    pub valid: Dataset,
    /// Standardized test partition (final evaluation only).
    pub test: Dataset,
    /// Paper-scale metadata (drives the simulated-time cost model).
    pub meta: DatasetMeta,
    /// The architecture search space.
    pub space: SearchSpace,
    /// Real training epochs per evaluation (the paper trains 20; small
    /// profiles use fewer to keep an evaluation at tens of milliseconds).
    pub epochs: usize,
    /// Warmup epochs (paper: 5, capped at `epochs`).
    pub warmup_epochs: usize,
    /// Plateau patience (paper: 5).
    pub plateau_patience: usize,
    /// Batch-size rescaling divisor.
    ///
    /// The paper's batch-size menu (32…1024) is sized for ~244k-row
    /// training sets; applied verbatim to a scaled-down set it would leave
    /// a handful of optimizer steps and nothing would train. Evaluations
    /// therefore *apply* `bs₁ / bs_divisor` (min 2) while reporting the
    /// paper-faithful label, keeping the steps-per-epoch regime — and with
    /// it the linear-scaling-limit phenomenology — intact (DESIGN.md §2).
    pub bs_divisor: usize,
}

impl EvalContext {
    /// Generates a benchmark data set, applies the paper's 42/25/33
    /// stratified split and train-fitted standardization, and pairs it
    /// with the paper search space.
    pub fn prepare(kind: DatasetKind, profile: SizeProfile, seed: u64) -> Self {
        let mut stream = Stream::new(seed);
        let (data, meta) = make_dataset(kind, profile, stream.next_u64());
        let mut split = stratified_split(&data, SplitSpec::PAPER, &mut stream.rng());
        scale::standardize_split(&mut split);
        let space = SearchSpace::paper(meta.n_features, data.n_classes);
        let (epochs, bs_divisor) = match profile {
            SizeProfile::Test => (8, 4),
            SizeProfile::Bench => (10, 4),
            SizeProfile::Large => (20, 2),
        };
        EvalContext {
            train: split.train,
            valid: split.valid,
            test: split.test,
            meta,
            space,
            epochs,
            warmup_epochs: (epochs / 4).max(1),
            plateau_patience: 5,
            bs_divisor,
        }
    }

    /// Maps a paper-faithful hyperparameter label to the values actually
    /// applied on the scaled-down data: batch size divided by
    /// `bs_divisor` (min 8) and rank count clamped to the row count.
    pub fn applied_hp(
        &self,
        hp: agebo_dataparallel::DataParallelHp,
    ) -> agebo_dataparallel::DataParallelHp {
        agebo_dataparallel::DataParallelHp {
            bs1: (hp.bs1 / self.bs_divisor).max(8),
            n: hp.n.min(self.train.len()),
            ..hp
        }
    }

    /// Overrides the number of real training epochs.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        assert!(epochs > 0);
        self.epochs = epochs;
        self.warmup_epochs = self.warmup_epochs.min(epochs);
        self
    }
}

/// One unit of work shipped to a worker.
#[derive(Debug, Clone)]
pub struct EvalTask {
    /// The architecture to evaluate.
    pub arch: ArchVector,
    /// The data-parallel training hyperparameters.
    pub hp: DataParallelHp,
    /// Seed for weight init, sharding and shuffling — derived from the
    /// evaluation *content* (see [`content_seed`]) so identical
    /// (architecture, hyperparameter) submissions train identically.
    pub seed: u64,
    /// Retry attempt index (0 = first submission). Mixed into the
    /// injected-fault draw — but *not* into the training seed — so a
    /// resubmission of a transiently-faulted candidate can succeed while
    /// still training bit-identically.
    pub attempt: u32,
    /// Memoized objective from a previous identical evaluation; a worker
    /// receiving `Some` returns it without training.
    pub cached: Option<f64>,
}

/// What a worker reports back for one [`EvalTask`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaskOutput {
    /// Training completed with a finite objective (best validation
    /// accuracy).
    Objective(f64),
    /// The injected transient fault fired: the evaluation "crashed" and
    /// may succeed on retry (the draw mixes in the attempt index).
    Faulted,
    /// Training produced a non-finite objective: the candidate itself
    /// diverges, so retrying the same seed is pointless — the manager
    /// replaces it instead.
    Diverged,
}

impl TaskOutput {
    /// The objective when training succeeded.
    pub fn objective(self) -> Option<f64> {
        match self {
            TaskOutput::Objective(o) => Some(o),
            _ => None,
        }
    }
}

/// The evaluation recipe, written once: the task's freshly initialized
/// network and the paper's training configuration for it. Weight init
/// draws from the task seed's stream first, the trainer seed second.
fn recipe(ctx: &EvalContext, task: &EvalTask) -> (GraphNet, DataParallelConfig) {
    let mut stream = Stream::new(task.seed);
    let net = GraphNet::new(ctx.space.to_graph(&task.arch), &mut stream.rng());
    let cfg = DataParallelConfig {
        epochs: ctx.epochs,
        hp: ctx.applied_hp(task.hp),
        warmup_epochs: ctx.warmup_epochs,
        plateau_patience: ctx.plateau_patience,
        plateau_factor: 0.1,
        seed: stream.next_u64(),
        weight_decay: 0.0,
        grad_clip: None,
    };
    (net, cfg)
}

/// Trains the task's network and returns its best validation accuracy.
pub fn evaluate(ctx: &EvalContext, task: &EvalTask) -> f64 {
    evaluate_instrumented(ctx, task, &TrainerTelemetry::register(&Telemetry::disabled()))
}

/// [`evaluate`] recording per-rank step and allreduce timings on `tt`.
pub fn evaluate_instrumented(
    ctx: &EvalContext,
    task: &EvalTask,
    tt: &TrainerTelemetry,
) -> f64 {
    let (mut net, cfg) = recipe(ctx, task);
    fit_data_parallel_instrumented(&mut net, &ctx.train, &ctx.valid, &cfg, tt).best_val_acc
}

/// Trains the task's network and returns `(net, best_val_acc)` — used for
/// the final test-set evaluation of the best discovered model (Table II).
pub fn train_final(ctx: &EvalContext, task: &EvalTask) -> (GraphNet, f64) {
    let (mut net, cfg) = recipe(ctx, task);
    let tt = TrainerTelemetry::register(&Telemetry::disabled());
    let report = fit_data_parallel_instrumented(&mut net, &ctx.train, &ctx.valid, &cfg, &tt);
    (net, report.best_val_acc)
}

/// Reusable cross-evaluation scratch for a compute thread: the training
/// buffers (workspaces, gradient accumulators, gather buffers, shard
/// index scratch) and the batched-evaluation pool, checked out of the
/// search's [`ScratchPool`](agebo_scheduler::ScratchPool) and reused
/// across evaluations. Carries no task state — reusing one scratch across
/// arbitrary (architecture, hyperparameter) pairs is bitwise equivalent
/// to fresh buffers.
#[derive(Default)]
pub struct EvalScratch {
    dp: DpScratch,
}

impl EvalScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        EvalScratch::default()
    }
}

/// [`evaluate_instrumented`] running on pooled buffers, with an optional
/// between-epoch cancellation flag (see
/// [`fit_data_parallel_pooled`]). Bitwise identical objective.
pub fn evaluate_pooled(
    ctx: &EvalContext,
    task: &EvalTask,
    tt: &TrainerTelemetry,
    scratch: &mut EvalScratch,
    cancel: Option<&AtomicBool>,
) -> f64 {
    let (mut net, cfg) = recipe(ctx, task);
    fit_data_parallel_pooled(&mut net, &ctx.train, &ctx.valid, &cfg, tt, &mut scratch.dp, cancel)
}

/// The structured worker entry point: injected faults, the divergence
/// guard, the memo-cache, and training on pooled buffers with cooperative
/// cancellation, reported as a [`TaskOutput`]. A cancelled training still
/// reports normally (its partial objective is discarded by the manager
/// along with the evaluation's fate).
pub fn evaluate_task_pooled(
    ctx: &EvalContext,
    task: &EvalTask,
    failure_rate: f64,
    tt: &TrainerTelemetry,
    scratch: &mut EvalScratch,
    cancel: Option<&AtomicBool>,
) -> TaskOutput {
    if injected_fault(task, failure_rate) {
        return TaskOutput::Faulted;
    }
    // Memoized result of a previous identical evaluation: with a
    // content-derived seed, re-training would reproduce it bit for bit,
    // so skip the compute. (Only finite objectives are ever cached.)
    if let Some(objective) = task.cached {
        return TaskOutput::Objective(objective);
    }
    let objective = evaluate_pooled(ctx, task, tt, scratch, cancel);
    if objective.is_finite() {
        TaskOutput::Objective(objective)
    } else {
        TaskOutput::Diverged
    }
}

/// The chaos layer's injected-fault decision for `task` at
/// `failure_rate`. Extracted so any worker path (the search's own pool or
/// the serving layer's shared slots) makes the exact same draw: it mixes
/// the attempt index into the label (attempt 0 reproduces the historical
/// draw bit for bit), because drawing from the content-derived seed alone
/// would make the same candidate fault on every resubmission, permanently
/// biasing the search away from whatever architectures drew badly.
pub fn injected_fault(task: &EvalTask, failure_rate: f64) -> bool {
    if failure_rate <= 0.0 {
        return false;
    }
    let label = 0xFA11 ^ (u64::from(task.attempt) << 16);
    let draw = Stream::new(task.seed).labeled(label) as f64 / u64::MAX as f64;
    draw < failure_rate
}

/// Evaluation seed derived from the evaluation *content*: the search
/// seed, the architecture vector, and the hyperparameters as applied
/// (post [`EvalContext::applied_hp`]). Two submissions of the same
/// (architecture, applied-hp) pair within one search therefore share a
/// seed — they would train bit-identically — which is what makes the
/// manager's duplicate memo-cache sound. FNV-1a over the content bytes.
pub fn content_seed(search_seed: u64, arch: &ArchVector, applied: DataParallelHp) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    mix(search_seed);
    for &v in &arch.0 {
        mix(v as u64);
    }
    mix(applied.bs1 as u64);
    mix(applied.n as u64);
    mix(applied.lr1.to_bits() as u64);
    h
}

/// A default deterministic RNG for a search component.
pub fn component_rng(seed: u64, component: u64) -> StdRng {
    StdRng::seed_from_u64(Stream::new(seed).labeled(component))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_splits_and_standardizes() {
        let ctx = EvalContext::prepare(DatasetKind::Covertype, SizeProfile::Test, 1);
        let total = ctx.train.len() + ctx.valid.len() + ctx.test.len();
        assert_eq!(total, ctx.meta.actual_rows);
        assert_eq!(ctx.space.n_variables(), 37);
        // Standardized train features: near zero mean.
        let mean: f32 =
            ctx.train.x.as_slice().iter().sum::<f32>() / ctx.train.x.len() as f32;
        assert!(mean.abs() < 0.05, "mean={mean}");
    }

    #[test]
    fn evaluate_beats_majority_class_for_a_reasonable_arch() {
        let ctx = EvalContext::prepare(DatasetKind::Covertype, SizeProfile::Test, 2);
        // A decent hand-picked architecture: three 64-unit ReLU layers.
        // Layer value for (64, ReLU): units index 3, act index 2 -> 1 + 3*5 + 2 = 18.
        let mut values = vec![0u16; ctx.space.n_variables()];
        values[0] = 18;
        let arch = ArchVector(values);
        let task = EvalTask {
            arch,
            hp: DataParallelHp { lr1: 0.01, bs1: 64, n: 1 },
            seed: 3,
            attempt: 0, cached: None,
        };
        let acc = evaluate(&ctx, &task);
        assert!(
            acc > ctx.valid.majority_baseline() + 0.05,
            "acc={acc} majority={}",
            ctx.valid.majority_baseline()
        );
    }

    #[test]
    fn evaluate_is_deterministic() {
        let ctx = EvalContext::prepare(DatasetKind::Airlines, SizeProfile::Test, 4);
        let mut rng = StdRng::seed_from_u64(0);
        let task = EvalTask {
            arch: ctx.space.random(&mut rng),
            hp: DataParallelHp { lr1: 0.02, bs1: 128, n: 2 },
            seed: 9,
            attempt: 0, cached: None,
        };
        assert_eq!(evaluate(&ctx, &task), evaluate(&ctx, &task));
    }

    #[test]
    fn pooled_evaluation_matches_fresh_buffers_bitwise() {
        let ctx = EvalContext::prepare(DatasetKind::Airlines, SizeProfile::Test, 4);
        let mut rng = StdRng::seed_from_u64(1);
        let tt = TrainerTelemetry::register(&Telemetry::disabled());
        let mut scratch = EvalScratch::new();
        // Reuse one scratch across differing architectures and rank
        // counts; every objective must equal the fresh-buffer path's.
        for (i, n) in [1usize, 3, 2].iter().enumerate() {
            let task = EvalTask {
                arch: ctx.space.random(&mut rng),
                hp: DataParallelHp { lr1: 0.02, bs1: 128, n: *n },
                seed: 40 + i as u64,
                attempt: 0,
                cached: None,
            };
            let fresh = evaluate_instrumented(&ctx, &task, &tt);
            let pooled = evaluate_pooled(&ctx, &task, &tt, &mut scratch, None);
            assert_eq!(fresh.to_bits(), pooled.to_bits(), "task {i}");
        }
    }

    #[test]
    fn scratch_that_served_a_cancelled_training_is_as_good_as_fresh() {
        use std::sync::atomic::Ordering;
        let prepare = || EvalContext::prepare(DatasetKind::Airlines, SizeProfile::Test, 4);
        let ctx = prepare();
        let mut rng = StdRng::seed_from_u64(2);
        let tt = TrainerTelemetry::register(&Telemetry::disabled());
        let mut task = |n, seed| EvalTask {
            arch: ctx.space.random(&mut rng),
            hp: DataParallelHp { lr1: 0.02, bs1: 64, n },
            seed,
            attempt: 0,
            cached: None,
        };
        let (stopped, next) = (task(2, 50), task(3, 51));
        let mut scratch = EvalScratch::new();
        // A stop overtakes the first training a few steps in — far too
        // many epochs for it to finish before the watcher gets to run.
        let endless = prepare().with_epochs(100_000);
        let cancel = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while tt.steps.get() < 3 {
                    std::thread::yield_now();
                }
                cancel.store(true, Ordering::Relaxed);
            });
            evaluate_pooled(&endless, &stopped, &tt, &mut scratch, Some(&cancel));
        });
        assert_eq!(tt.aborts.get(), 1);
        let reused = evaluate_pooled(&ctx, &next, &tt, &mut scratch, None);
        let fresh = evaluate_pooled(&ctx, &next, &tt, &mut EvalScratch::new(), None);
        assert_eq!(reused.to_bits(), fresh.to_bits());
    }

    #[test]
    fn with_epochs_caps_warmup() {
        let ctx = EvalContext::prepare(DatasetKind::Airlines, SizeProfile::Test, 5)
            .with_epochs(2);
        assert_eq!(ctx.epochs, 2);
        assert!(ctx.warmup_epochs <= 2);
    }
}
