//! The `n`-rank data-parallel training loop (Horovod semantics).
//!
//! Each global step: every rank draws a `bs₁`-row micro-batch from its own
//! shard, computes gradients against the shared weights, the gradients are
//! averaged (allreduce), and one Adam step is applied at the scaled
//! learning rate `lr_n` (with the paper's 5-epoch warmup ramping from
//! `lr₁` to `lr_n`, and reduce-on-plateau patience 5).
//!
//! Per-rank micro-batch gathers, forward/backward passes, and the
//! post-allreduce Adam update all run through the runtime-dispatched
//! kernel suite (`agebo_tensor::simd`). The elementwise kernels are
//! bitwise identical across dispatch arms; GEMM keeps FMA on the wide
//! arm, so on one machine the rank count is the only thing that changes
//! a trajectory, and each arm replays the same seed bit-for-bit.

use crate::scaling::DataParallelHp;
use crate::shard::make_shards_into;
use agebo_nn::{Adam, BatchEval, GradientBuffer, GraphNet, LrSchedule, TrainReport, Workspace};
use agebo_telemetry::{Counter, SpanStats, Telemetry};
use agebo_tensor::Matrix;
use agebo_tabular::{Dataset, DatasetView};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Pre-registered metrics for the data-parallel training loop.
///
/// Clone handles are cheap (`Arc`s); a clone can be moved into the
/// evaluator's worker closure so every concurrent training records into
/// the same registry. Recording is atomics-only — per-rank step spans
/// run inside rayon tasks without locks or allocation, and wall-clock
/// durations land in the metrics registry, never in the (deterministic)
/// event stream.
#[derive(Clone)]
pub struct TrainerTelemetry {
    /// Span `dp_rank_step`: wall-clock duration of one rank's gradient
    /// computation within a global step.
    pub rank_step: SpanStats,
    /// Span `dp_allreduce`: wall-clock duration of the gradient
    /// averaging + optimizer update.
    pub allreduce: SpanStats,
    /// Counter `dp_steps_total`: global synchronous steps taken.
    pub steps: Arc<Counter>,
    /// Counter `dp_epochs_total`.
    pub epochs: Arc<Counter>,
    /// Counter `dp_aborts_total`: trainings that exited early because
    /// their cancel flag was up — the cluster killed the evaluation
    /// (outage / deadline), or the search ended while it was training.
    pub aborts: Arc<Counter>,
    /// Counter `dp_shard_bytes_saved_total`: bytes the zero-copy shard
    /// views did *not* copy (the seed path deep-copied every training row
    /// plus its label into per-rank data sets on each fit).
    pub bytes_saved: Arc<Counter>,
}

impl TrainerTelemetry {
    /// Registers the trainer metrics on `tel`'s registry.
    pub fn register(tel: &Telemetry) -> Self {
        TrainerTelemetry {
            rank_step: SpanStats::register(tel, "dp_rank_step"),
            allreduce: SpanStats::register(tel, "dp_allreduce"),
            steps: tel.registry().counter("dp_steps_total"),
            epochs: tel.registry().counter("dp_epochs_total"),
            aborts: tel.registry().counter("dp_aborts_total"),
            bytes_saved: tel.registry().counter("dp_shard_bytes_saved_total"),
        }
    }
}

/// Configuration of a data-parallel training run.
#[derive(Debug, Clone)]
pub struct DataParallelConfig {
    /// Epochs (paper: 20).
    pub epochs: usize,
    /// The tunable hyperparameters `(lr₁, bs₁, n)`.
    pub hp: DataParallelHp,
    /// Warmup epochs (paper: 5); the rate ramps `lr₁ → lr_n`.
    pub warmup_epochs: usize,
    /// Plateau patience (paper: 5).
    pub plateau_patience: usize,
    /// Plateau reduction factor.
    pub plateau_factor: f32,
    /// Seed for sharding and per-rank shuffling.
    pub seed: u64,
    /// Decoupled weight decay; 0 disables.
    pub weight_decay: f32,
    /// Global-norm gradient clipping applied *after* the allreduce;
    /// `None` disables.
    pub grad_clip: Option<f32>,
}

impl DataParallelConfig {
    /// The paper's evaluation strategy with the given hyperparameters.
    pub fn paper(hp: DataParallelHp) -> Self {
        DataParallelConfig {
            epochs: 20,
            hp,
            warmup_epochs: 5,
            plateau_patience: 5,
            plateau_factor: 0.1,
            seed: 0,
            weight_decay: 0.0,
            grad_clip: None,
        }
    }
}

/// Per-rank training state kept alive across every epoch and step: the
/// forward/backward workspace, the rank's gradient buffer, gather buffers
/// for the micro-batch, and the shard-local shuffle order. Allocated once
/// before the epoch loop so the steady-state step makes no heap
/// allocations.
struct RankState {
    ws: Workspace,
    grads: GradientBuffer,
    xbuf: Matrix,
    ybuf: Vec<usize>,
    order: Vec<usize>,
    loss: f32,
}

/// Reusable training scratch: per-rank state, shard index buffers, the
/// optimizer moments, and the batched-evaluation pool, all kept alive
/// across evaluations. Checked out of the scheduler's per-thread pool so
/// the steady state of a whole search makes no training allocations.
///
/// A scratch carries no configuration — it is safe (and intended) to
/// reuse one instance across different architectures and rank counts;
/// every buffer is re-fitted at the start of each fit.
#[derive(Default)]
pub struct DpScratch {
    ranks: Vec<RankState>,
    eval: BatchEval,
    order: Arc<Vec<usize>>,
    shards: Vec<DatasetView>,
    adam: Option<Adam>,
    rank_rngs: Vec<StdRng>,
    train_loss: Vec<f32>,
    val_acc: Vec<f64>,
    val_loss: Vec<f32>,
}

impl DpScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        DpScratch::default()
    }

    /// The learning curves of the most recent fit as a [`TrainReport`].
    pub fn report(&self) -> TrainReport {
        TrainReport::new(
            self.train_loss.clone(),
            self.val_acc.clone(),
            self.val_loss.clone(),
        )
    }
}

/// One rank's gradient micro-step: gather the step's batch rows through
/// the shard view into the rank's persistent buffers, then run
/// forward/backward against the shared frozen weights.
fn rank_microbatch(
    st: &mut RankState,
    shard: &DatasetView,
    net: &GraphNet,
    tt: &TrainerTelemetry,
    bs1: usize,
    step: usize,
) {
    let span = tt.rank_step.start(0.0);
    let cs = bs1.min(shard.len()).max(1);
    let start = step * cs;
    let end = (start + cs).min(st.order.len());
    let batch = &st.order[start..end];
    shard.gather_into(batch, &mut st.xbuf, &mut st.ybuf);
    st.loss = net.forward_backward_with(&st.xbuf, &st.ybuf, &mut st.ws, &mut st.grads);
    span.end_wall_only();
}

/// Trains `net` with `n`-rank data-parallel SGD (Adam) on `train`,
/// evaluating on `valid` after every epoch.
///
/// The ranks run as rayon tasks computing gradients against the shared
/// weights; the arithmetic is identical to `n` MPI processes with a
/// synchronous allreduce. Each rank owns a persistent [`Workspace`] and
/// [`GradientBuffer`]; the allreduce averages in place into rank 0's
/// buffer (same floating-point order as
/// [`average_gradients`](crate::allreduce::average_gradients)).
pub fn fit_data_parallel(
    net: &mut GraphNet,
    train: &Dataset,
    valid: &Dataset,
    cfg: &DataParallelConfig,
) -> TrainReport {
    let tt = TrainerTelemetry::register(&Telemetry::disabled());
    fit_data_parallel_instrumented(net, train, valid, cfg, &tt)
}

/// [`fit_data_parallel`] with observability: per-rank step and allreduce
/// wall-clock spans plus step/epoch counters recorded on pre-registered
/// handles (see [`TrainerTelemetry`]).
pub fn fit_data_parallel_instrumented(
    net: &mut GraphNet,
    train: &Dataset,
    valid: &Dataset,
    cfg: &DataParallelConfig,
    tt: &TrainerTelemetry,
) -> TrainReport {
    let mut scratch = DpScratch::new();
    fit_data_parallel_pooled(net, train, valid, cfg, tt, &mut scratch, None);
    scratch.report()
}

/// The pooled training engine behind [`fit_data_parallel`]: identical
/// arithmetic (bitwise, for a given `cfg.seed`), but every buffer lives in
/// the caller-owned [`DpScratch`] so repeated fits allocate nothing in the
/// steady state, and an optional `cancel` flag aborts between global
/// steps (and at epoch boundaries).
///
/// Returns the best validation accuracy observed; the full learning
/// curves of the fit are available via [`DpScratch::report`]. When
/// `cancel` flips to `true` the training stops at the next step boundary
/// — a doomed evaluation no longer burns the rest of a full epoch —
/// `dp_aborts_total` is bumped exactly once, and the curves hold the
/// epochs *completed*; the interrupted epoch's partial state is
/// discarded with the run.
pub fn fit_data_parallel_pooled(
    net: &mut GraphNet,
    train: &Dataset,
    valid: &Dataset,
    cfg: &DataParallelConfig,
    tt: &TrainerTelemetry,
    scratch: &mut DpScratch,
    cancel: Option<&AtomicBool>,
) -> f64 {
    cfg.hp.validate();
    assert!(cfg.epochs > 0);
    let n = cfg.hp.n;
    let bs1 = cfg.hp.bs1;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let DpScratch {
        ranks,
        eval,
        order,
        shards,
        adam,
        rank_rngs,
        train_loss,
        val_acc,
        val_loss,
    } = scratch;
    make_shards_into(train, n, &mut rng, order, shards);
    // What the seed's copying shard path would have duplicated: every
    // training row (f32 features) plus its usize label.
    tt.bytes_saved
        .add(train.len() as u64 * (4 * train.n_features() as u64 + 8));
    rank_rngs.clear();
    for _ in 0..n {
        rank_rngs.push(StdRng::seed_from_u64(rng.gen()));
    }

    if let Some(a) = adam.as_mut() {
        a.reset_for(net);
    } else {
        *adam = Some(Adam::new(net));
    }
    let adam = adam.as_mut().expect("adam state");
    let mut schedule = LrSchedule::new(
        cfg.hp.lr1,
        cfg.hp.scaled_lr(),
        cfg.warmup_epochs,
        cfg.plateau_patience,
        cfg.plateau_factor,
    );

    while ranks.len() < n {
        ranks.push(RankState {
            ws: net.make_workspace(1),
            grads: GradientBuffer::zeros_like(net),
            xbuf: Matrix::default(),
            ybuf: Vec::new(),
            order: Vec::new(),
            loss: 0.0,
        });
    }
    let rank_states = &mut ranks[..n];
    for st in rank_states.iter_mut() {
        net.reshape_workspace(&mut st.ws);
        st.grads.resize_like(net);
    }

    train_loss.clear();
    val_acc.clear();
    val_loss.clear();

    let mut aborted = false;
    'epochs: for epoch in 0..cfg.epochs {
        if let Some(flag) = cancel {
            if flag.load(Ordering::Relaxed) {
                aborted = true;
                break 'epochs;
            }
        }
        let lr = schedule.lr_for_epoch(epoch);
        // Per-rank shuffled batch schedule for this epoch. Every rank takes
        // the same number of steps (the minimum across ranks) so the
        // allreduce stays synchronous; a shard smaller than bs₁ yields one
        // whole-shard batch.
        for ((st, rank_rng), shard) in
            rank_states.iter_mut().zip(rank_rngs.iter_mut()).zip(&*shards)
        {
            st.order.clear();
            st.order.extend(0..shard.len());
            st.order.shuffle(rank_rng);
        }
        let steps = rank_states
            .iter()
            .zip(&*shards)
            .map(|(st, shard)| st.order.chunks(bs1.min(shard.len()).max(1)).len())
            .min()
            .unwrap_or(1)
            .max(1);

        let mut epoch_loss = 0.0f32;
        for step in 0..steps {
            // Between-step cancellation: the flag was already consulted at
            // the top of the epoch, so re-check only once real work sits
            // behind us. The interrupted epoch never reaches validation or
            // the curves — its partial optimizer state dies with the run.
            if step > 0 {
                if let Some(flag) = cancel {
                    if flag.load(Ordering::Relaxed) {
                        aborted = true;
                        break 'epochs;
                    }
                }
            }
            if n == 1 {
                // Single rank: skip the rayon bridge entirely.
                rank_microbatch(&mut rank_states[0], &shards[0], net, tt, bs1, step);
            } else {
                // &*net: ranks share immutable weights while computing grads.
                let frozen: &GraphNet = net;
                rank_states
                    .par_iter_mut()
                    .zip(shards.par_iter())
                    .for_each(|(st, shard)| {
                        rank_microbatch(st, shard, frozen, tt, bs1, step);
                    });
            }
            let mean_loss: f32 =
                rank_states.iter().map(|st| st.loss).sum::<f32>() / n as f32;
            // In-place allreduce into rank 0's buffer, replicating the
            // floating-point addition order of `average_gradients` (which
            // swap-removes index 0, so rank n−1 is added first).
            let allreduce_span = tt.allreduce.start(0.0);
            let (first, rest) = rank_states.split_at_mut(1);
            let grads = &mut first[0].grads;
            if let Some((last, middle)) = rest.split_last() {
                grads.add_assign(&last.grads);
                for st in middle {
                    grads.add_assign(&st.grads);
                }
            }
            grads.scale(1.0 / n as f32);
            if let Some(max_norm) = cfg.grad_clip {
                grads.clip_global_norm(max_norm);
            }
            adam.step_with(net, grads, lr, cfg.weight_decay);
            allreduce_span.end_wall_only();
            tt.steps.inc();
            epoch_loss += mean_loss;
        }
        let (vl, va) = net.evaluate_batched_with(&valid.x, &valid.y, eval);
        schedule.observe(vl);
        train_loss.push(epoch_loss / steps as f32);
        val_acc.push(va);
        val_loss.push(vl);
        tt.epochs.inc();
    }
    if aborted {
        tt.aborts.inc();
    }
    val_acc.iter().copied().fold(0.0f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use agebo_nn::{Activation, GraphSpec};
    use agebo_tabular::synth::TeacherTask;
    use agebo_tabular::{scale, stratified_split, SplitSpec};

    fn task(rows: usize) -> (Dataset, Dataset) {
        let data = TeacherTask {
            n_features: 8,
            n_classes: 3,
            n_rows: rows,
            teacher_hidden: 6,
            logit_scale: 4.0,
            label_noise: 0.0,
            linear_mix: 0.0,
            nonlinear_dims: 0,
        }
        .generate(0);
        let mut split = stratified_split(&data, SplitSpec::PAPER, &mut StdRng::seed_from_u64(0));
        scale::standardize_split(&mut split);
        (split.train, split.valid)
    }

    fn spec() -> GraphSpec {
        GraphSpec::mlp(8, &[(32, Activation::Relu), (16, Activation::Relu)], 3)
    }

    #[test]
    fn two_rank_training_learns() {
        let (train, valid) = task(800);
        let mut net = GraphNet::new(spec(), &mut StdRng::seed_from_u64(1));
        let cfg = DataParallelConfig {
            epochs: 15,
            hp: DataParallelHp { lr1: 0.01, bs1: 32, n: 2 },
            ..DataParallelConfig::paper(DataParallelHp::paper_default(2))
        };
        let report = fit_data_parallel(&mut net, &train, &valid, &cfg);
        assert!(report.best_val_acc > 0.85, "acc={}", report.best_val_acc);
    }

    #[test]
    fn one_rank_matches_reasonable_accuracy_band_of_plain_fit() {
        // n=1 data-parallel is algorithmically plain minibatch training
        // (modulo shuffling order); accuracies should land close.
        let (train, valid) = task(800);
        let cfg = DataParallelConfig {
            epochs: 10,
            hp: DataParallelHp { lr1: 0.01, bs1: 64, n: 1 },
            ..DataParallelConfig::paper(DataParallelHp::paper_default(1))
        };
        let mut net_dp = GraphNet::new(spec(), &mut StdRng::seed_from_u64(2));
        let dp = fit_data_parallel(&mut net_dp, &train, &valid, &cfg);

        let plain_cfg = agebo_nn::TrainConfig {
            epochs: 10,
            batch_size: 64,
            lr: 0.01,
            ..agebo_nn::TrainConfig::paper_default()
        };
        let mut net_plain = GraphNet::new(spec(), &mut StdRng::seed_from_u64(2));
        let plain = agebo_nn::fit(&mut net_plain, &train, &valid, &plain_cfg);
        assert!(
            (dp.best_val_acc - plain.best_val_acc).abs() < 0.08,
            "dp={} plain={}",
            dp.best_val_acc,
            plain.best_val_acc
        );
    }

    #[test]
    fn oversharding_reduces_steps_and_accuracy() {
        // The paper's Table I effect: with n=8 and the scaled batch size,
        // the number of optimizer steps collapses and accuracy drops
        // relative to a well-tuned lower rank count. Any single seed can
        // buck the trend, so compare the mean over several seeds.
        let (train, valid) = task(700); // ~294 training rows
        let mk = |n: usize, seed: u64| DataParallelConfig {
            epochs: 1,
            hp: DataParallelHp { lr1: 0.01, bs1: 64, n },
            warmup_epochs: 2,
            plateau_patience: 5,
            plateau_factor: 0.1,
            seed,
            weight_decay: 0.0,
            grad_clip: None,
        };
        let mut mean1 = 0.0f64;
        let mut mean8 = 0.0f64;
        let seeds: &[u64] = &[3, 11, 29, 47, 71];
        for &s in seeds {
            let mut net1 = GraphNet::new(spec(), &mut StdRng::seed_from_u64(s + 1));
            mean1 += fit_data_parallel(&mut net1, &train, &valid, &mk(1, s)).best_val_acc;
            let mut net8 = GraphNet::new(spec(), &mut StdRng::seed_from_u64(s + 1));
            mean8 += fit_data_parallel(&mut net8, &train, &valid, &mk(8, s)).best_val_acc;
        }
        mean1 /= seeds.len() as f64;
        mean8 /= seeds.len() as f64;
        assert!(mean1 > mean8, "mean n=1 {mean1} vs mean n=8 {mean8}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (train, valid) = task(400);
        let cfg = DataParallelConfig {
            epochs: 3,
            hp: DataParallelHp { lr1: 0.01, bs1: 32, n: 4 },
            ..DataParallelConfig::paper(DataParallelHp::paper_default(4))
        };
        let mut a = GraphNet::new(spec(), &mut StdRng::seed_from_u64(5));
        let mut b = GraphNet::new(spec(), &mut StdRng::seed_from_u64(5));
        let ra = fit_data_parallel(&mut a, &train, &valid, &cfg);
        let rb = fit_data_parallel(&mut b, &train, &valid, &cfg);
        assert_eq!(ra.val_acc, rb.val_acc);
    }

    #[test]
    fn pooled_scratch_reuse_is_bitwise_deterministic() {
        // A scratch reused across fits — including a different rank count
        // in between — must reproduce exactly what a fresh scratch yields.
        let (train, valid) = task(400);
        let cfg4 = DataParallelConfig {
            epochs: 3,
            hp: DataParallelHp { lr1: 0.01, bs1: 32, n: 4 },
            ..DataParallelConfig::paper(DataParallelHp::paper_default(4))
        };
        let cfg2 = DataParallelConfig {
            epochs: 2,
            hp: DataParallelHp { lr1: 0.02, bs1: 16, n: 2 },
            ..DataParallelConfig::paper(DataParallelHp::paper_default(2))
        };
        let tt = TrainerTelemetry::register(&Telemetry::disabled());

        let mut fresh = GraphNet::new(spec(), &mut StdRng::seed_from_u64(5));
        let mut s1 = DpScratch::new();
        fit_data_parallel_pooled(&mut fresh, &train, &valid, &cfg4, &tt, &mut s1, None);
        let reference = s1.report();

        let mut scratch = DpScratch::new();
        let mut warm = GraphNet::new(spec(), &mut StdRng::seed_from_u64(9));
        fit_data_parallel_pooled(&mut warm, &train, &valid, &cfg2, &tt, &mut scratch, None);
        let mut reused = GraphNet::new(spec(), &mut StdRng::seed_from_u64(5));
        fit_data_parallel_pooled(&mut reused, &train, &valid, &cfg4, &tt, &mut scratch, None);
        let second = scratch.report();

        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&reference.val_acc), bits(&second.val_acc));
        let lbits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(lbits(&reference.val_loss), lbits(&second.val_loss));
        assert_eq!(lbits(&reference.train_loss), lbits(&second.train_loss));
    }

    #[test]
    fn pooled_matches_instrumented_bitwise() {
        let (train, valid) = task(400);
        let cfg = DataParallelConfig {
            epochs: 3,
            hp: DataParallelHp { lr1: 0.01, bs1: 32, n: 3 },
            ..DataParallelConfig::paper(DataParallelHp::paper_default(3))
        };
        let tt = TrainerTelemetry::register(&Telemetry::disabled());
        let mut a = GraphNet::new(spec(), &mut StdRng::seed_from_u64(7));
        let ra = fit_data_parallel_instrumented(&mut a, &train, &valid, &cfg, &tt);
        let mut b = GraphNet::new(spec(), &mut StdRng::seed_from_u64(7));
        let mut scratch = DpScratch::new();
        let best = fit_data_parallel_pooled(&mut b, &train, &valid, &cfg, &tt, &mut scratch, None);
        let rb = scratch.report();
        assert_eq!(
            ra.val_acc.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            rb.val_acc.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(best.to_bits(), ra.best_val_acc.to_bits());
    }

    #[test]
    fn cancellation_aborts_between_epochs() {
        let (train, valid) = task(400);
        let cfg = DataParallelConfig {
            epochs: 10,
            hp: DataParallelHp { lr1: 0.01, bs1: 32, n: 2 },
            ..DataParallelConfig::paper(DataParallelHp::paper_default(2))
        };
        let tel = Telemetry::in_memory();
        let tt = TrainerTelemetry::register(&tel);
        let mut net = GraphNet::new(spec(), &mut StdRng::seed_from_u64(8));
        let mut scratch = DpScratch::new();
        let flag = AtomicBool::new(true);
        let best =
            fit_data_parallel_pooled(&mut net, &train, &valid, &cfg, &tt, &mut scratch, Some(&flag));
        // Pre-set flag: no epoch runs at all.
        assert_eq!(tt.epochs.get(), 0);
        assert_eq!(tt.aborts.get(), 1);
        assert_eq!(best, 0.0);
        assert!(scratch.report().val_acc.is_empty());
    }

    #[test]
    fn cancellation_aborts_mid_epoch_between_steps() {
        // One epoch with thousands of single-row steps, and a watcher that
        // raises the flag only after the third global step has been
        // counted: the epoch-top check has already passed, so the training
        // can only stop at the between-step check — without finishing the
        // epoch. The barrier guarantees the watcher is spinning before the
        // first step runs, and the step count leaves it a ~1000x margin.
        let (train, valid) = task(8192);
        let cfg = DataParallelConfig {
            epochs: 1,
            hp: DataParallelHp { lr1: 0.01, bs1: 1, n: 2 },
            ..DataParallelConfig::paper(DataParallelHp::paper_default(2))
        };
        let tel = Telemetry::in_memory();
        let tt = TrainerTelemetry::register(&tel);
        let flag = Arc::new(AtomicBool::new(false));
        let start = Arc::new(std::sync::Barrier::new(2));
        let total_steps = {
            let watcher_tt = tt.clone();
            let watcher_flag = Arc::clone(&flag);
            let watcher_start = Arc::clone(&start);
            let watcher = std::thread::spawn(move || {
                watcher_start.wait();
                while watcher_tt.steps.get() < 3 {
                    std::hint::spin_loop();
                }
                watcher_flag.store(true, Ordering::Relaxed);
            });
            start.wait();
            let mut net = GraphNet::new(spec(), &mut StdRng::seed_from_u64(9));
            let mut scratch = DpScratch::new();
            let best = fit_data_parallel_pooled(
                &mut net,
                &train,
                &valid,
                &cfg,
                &tt,
                &mut scratch,
                Some(&flag),
            );
            watcher.join().unwrap();
            // The interrupted epoch never completed: no validation point,
            // no curve entry, zero best.
            assert_eq!(tt.aborts.get(), 1);
            assert_eq!(tt.epochs.get(), 0);
            assert_eq!(best, 0.0);
            assert!(scratch.report().val_acc.is_empty());
            tt.steps.get()
        };
        // And it genuinely stopped early: an uncancelled fit of the same
        // config runs strictly more global steps.
        let tel2 = Telemetry::in_memory();
        let tt2 = TrainerTelemetry::register(&tel2);
        let mut net = GraphNet::new(spec(), &mut StdRng::seed_from_u64(9));
        let mut scratch = DpScratch::new();
        fit_data_parallel_pooled(&mut net, &train, &valid, &cfg, &tt2, &mut scratch, None);
        assert!(
            total_steps < tt2.steps.get(),
            "cancelled fit ran {} of {} steps",
            total_steps,
            tt2.steps.get()
        );
    }

    #[test]
    fn instrumented_training_records_step_and_epoch_metrics() {
        let (train, valid) = task(400);
        let mut net = GraphNet::new(spec(), &mut StdRng::seed_from_u64(3));
        let cfg = DataParallelConfig {
            epochs: 2,
            hp: DataParallelHp { lr1: 0.01, bs1: 64, n: 2 },
            ..DataParallelConfig::paper(DataParallelHp::paper_default(2))
        };
        let tel = Telemetry::in_memory();
        let tt = TrainerTelemetry::register(&tel);
        fit_data_parallel_instrumented(&mut net, &train, &valid, &cfg, &tt);
        assert_eq!(tt.epochs.get(), 2);
        let steps = tt.steps.get();
        assert!(steps > 0);
        // Every global step runs one rank-step span per rank plus one
        // allreduce span.
        assert_eq!(tt.rank_step.total().get(), steps * 2);
        assert_eq!(tt.rank_step.wall().count(), steps * 2);
        assert_eq!(tt.allreduce.total().get(), steps);
    }
}
