//! The ask/tell BO optimizer with UCB + constant-liar multipoint
//! acquisition (paper §III-C).

use crate::gp::GpRegressor;
use crate::space::{HpPoint, Space};
use agebo_tensor::Matrix;
use agebo_trees::{ForestConfig, ForestScratch, RandomForestRegressor, TreeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which surrogate model backs the UCB acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SurrogateKind {
    /// Random-forest regressor; per-tree spread provides σ (the paper's
    /// and scikit-optimize's choice).
    RandomForest,
    /// RBF-kernel Gaussian process (ablation).
    GaussianProcess,
}

/// Optimizer configuration.
#[derive(Debug, Clone)]
pub struct BoConfig {
    /// UCB exploration weight κ (paper default 0.001 — near-pure
    /// exploitation; Fig. 8 sweeps {0.001, 1.96, 19.6}).
    pub kappa: f64,
    /// Random points returned before the surrogate is first fitted.
    pub n_initial: usize,
    /// Candidate pool size per acquisition maximisation.
    pub n_candidates: usize,
    /// Trees in the random-forest surrogate.
    pub n_trees: usize,
    /// Seed for sampling.
    pub seed: u64,
    /// Apply the constant-liar refit between the points of one `ask`
    /// batch (the paper's strategy). Disabling it is an ablation: every
    /// point of a batch then maximizes the same acquisition surface.
    pub use_liar: bool,
    /// Surrogate family (paper: random forest).
    pub surrogate: SurrogateKind,
    /// Bounded surrogate training window: refits train on at most this
    /// many observations, chosen by a seeded uniform reservoir over the
    /// history (BOHB/SMAC-style subsampled model fits), so the per-refit
    /// cost is O(window) no matter how long the search runs. `0` (the
    /// default) is the exact/legacy surrogate: every refit trains on the
    /// full history and the reservoir rng is never drawn, so existing
    /// seeded trajectories replay bitwise.
    pub surrogate_window: usize,
}

impl Default for BoConfig {
    fn default() -> Self {
        BoConfig {
            kappa: 0.001,
            n_initial: 10,
            n_candidates: 256,
            n_trees: 25,
            seed: 0,
            use_liar: true,
            surrogate: SurrogateKind::RandomForest,
            surrogate_window: 0,
        }
    }
}

impl BoConfig {
    /// Checks the configuration's invariants, returning a human-readable
    /// reason on failure. The CLI calls this before constructing an
    /// optimizer so bad flag values surface as parse errors, not panics;
    /// [`BoOptimizer::new`] still panics on violation (a caller bug).
    pub fn validate(&self) -> Result<(), String> {
        if !self.kappa.is_finite() || self.kappa < 0.0 {
            return Err(format!("kappa must be finite and >= 0, got {}", self.kappa));
        }
        if self.n_candidates == 0 {
            return Err("n_candidates must be > 0".to_string());
        }
        if self.n_trees == 0 {
            return Err("n_trees must be > 0".to_string());
        }
        Ok(())
    }
}

/// Seed salt of the reservoir rng, keeping its stream disjoint from the
/// candidate-sampling rng (`cfg.seed`) and the per-refit forest seeds.
const WINDOW_RNG_SALT: u64 = 0xC0FF_EE00_5EED_1D07;

/// Random-forest BO with the scikit-optimize-style `ask`/`tell` interface.
/// The objective is **maximized** (the paper maximizes validation
/// accuracy).
///
/// The hot path is allocation-light: the encoded feature matrix of the
/// observed history is maintained incrementally by [`BoOptimizer::tell`]
/// (liar points are appended and truncated away inside one `ask`), the
/// forest is refitted in place through reusable scratch buffers, and the
/// candidate pool is scored through the batched forest predictor.
#[derive(Debug)]
pub struct BoOptimizer {
    space: Space,
    cfg: BoConfig,
    observed_x: Vec<HpPoint>,
    observed_y: Vec<f64>,
    /// Running sum of `observed_y` (lie mean numerator), maintained in
    /// push order so it is bitwise-equal to a left-to-right re-summation.
    sum_y: f64,
    /// Encoded features of `observed_x`, one row per observation; rows are
    /// appended on `tell` instead of re-encoding the history per refit.
    encoded: Matrix,
    rng: StdRng,
    /// Encoded-history row indices the forest trains on when
    /// `surrogate_window > 0` (slot order): the identity prefix until the
    /// history outgrows the window, then a seeded uniform reservoir.
    /// Unused (empty) in exact mode.
    window: Vec<u32>,
    /// Dedicated rng for reservoir replacement draws. Drawn only when an
    /// observation arrives past a full window, so exact mode and
    /// window-covers-history runs never touch it.
    window_rng: StdRng,
    /// Observations dropped from the bounded training window so far
    /// (evicted from a slot or never admitted).
    evictions: u64,
    /// Wall-clock seconds of each surrogate refit since the last
    /// [`BoOptimizer::take_fit_seconds`] drain. Telemetry only — timing
    /// never feeds the trajectory.
    fit_seconds: Vec<f64>,
    // Reusable ask-path state (contents are transient per call).
    forest: RandomForestRegressor,
    forest_scratch: ForestScratch,
    liar_ys: Vec<f64>,
    /// Windowed-mode liar companion to `liar_ys`: the training window
    /// plus the liar rows appended during one `ask`.
    liar_window: Vec<u32>,
    cand_points: Vec<HpPoint>,
    cand_enc: Matrix,
    per_tree: Vec<f64>,
    preds: Vec<(f64, f64)>,
}

impl BoOptimizer {
    /// Creates an optimizer over `space`.
    pub fn new(space: Space, cfg: BoConfig) -> Self {
        if let Err(why) = cfg.validate() {
            panic!("invalid BoConfig: {why}");
        }
        let rng = StdRng::seed_from_u64(cfg.seed);
        let window_rng = StdRng::seed_from_u64(cfg.seed ^ WINDOW_RNG_SALT);
        let encoded = Matrix::zeros(0, space.len());
        BoOptimizer {
            space,
            cfg,
            observed_x: Vec::new(),
            observed_y: Vec::new(),
            sum_y: 0.0,
            encoded,
            rng,
            window: Vec::new(),
            window_rng,
            evictions: 0,
            fit_seconds: Vec::new(),
            forest: RandomForestRegressor::default(),
            forest_scratch: ForestScratch::default(),
            liar_ys: Vec::new(),
            liar_window: Vec::new(),
            cand_points: Vec::new(),
            cand_enc: Matrix::zeros(0, 0),
            per_tree: Vec::new(),
            preds: Vec::new(),
        }
    }

    /// The space being searched.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// Number of observations told so far.
    pub fn n_observed(&self) -> usize {
        self.observed_y.len()
    }

    /// Registers evaluated configurations and their objective values.
    ///
    /// Points outside the space still panic (that is a caller bug), but a
    /// non-finite objective — one diverged or faulted evaluation — must
    /// not kill the manager: the point is skipped and the number of
    /// skipped points is returned so the caller can count and report it.
    pub fn tell(&mut self, xs: &[HpPoint], ys: &[f64]) -> usize {
        assert_eq!(xs.len(), ys.len());
        let d = self.space.len();
        let mut rejected = 0;
        for (x, &y) in xs.iter().zip(ys) {
            assert!(self.space.contains(x), "point outside space: {x:?}");
            if !y.is_finite() {
                rejected += 1;
                continue;
            }
            let n = self.observed_x.len();
            self.encoded.resize(n + 1, d);
            self.space.encode_into(x, self.encoded.row_mut(n));
            self.observed_x.push(x.clone());
            self.observed_y.push(y);
            self.sum_y += y;
            // Reservoir maintenance (Algorithm R): observation `n` lands
            // in slot `n` while the window has room; past capacity it
            // replaces a uniformly drawn slot with probability w/(n+1).
            // Every draw depends only on the accepted-observation order,
            // so a resume that replays the same tells rebuilds the same
            // window.
            let w = self.cfg.surrogate_window;
            if w > 0 {
                if n < w {
                    self.window.push(n as u32);
                } else {
                    let j = self.window_rng.gen_range(0..n + 1);
                    if j < w {
                        self.window[j] = n as u32;
                    }
                    self.evictions += 1;
                }
            }
        }
        rejected
    }

    /// Observations dropped from the bounded training window so far
    /// (zero in exact mode).
    pub fn window_evictions(&self) -> u64 {
        self.evictions
    }

    /// Rows the next surrogate refit will train on: the full history in
    /// exact mode, the reservoir size in windowed mode.
    pub fn window_len(&self) -> usize {
        if self.cfg.surrogate_window > 0 {
            self.window.len()
        } else {
            self.observed_y.len()
        }
    }

    /// Drains the wall-clock duration (seconds) of every surrogate refit
    /// performed since the previous call into `out`. Telemetry only: the
    /// timings are observations of the fits, never inputs to them.
    pub fn take_fit_seconds(&mut self, out: &mut Vec<f64>) {
        out.append(&mut self.fit_seconds);
    }

    fn forest_cfg(&self) -> ForestConfig {
        ForestConfig {
            n_trees: self.cfg.n_trees,
            tree: TreeConfig { max_depth: 24, min_samples_leaf: 2, ..TreeConfig::default() },
            bootstrap: true,
        }
    }

    fn fit_gp(space: &Space, xs: &[HpPoint], ys: &[f64]) -> GpRegressor {
        let rows: Vec<Vec<f32>> = xs.iter().map(|x| space.encode(x)).collect();
        GpRegressor::fit(rows, ys, 1e-4)
    }

    /// Draws the candidate pool of one fitted acquisition into
    /// `cand_points` — the only rng a fitted forest `ask` consumes, shared
    /// by the real argmax and [`BoOptimizer::ask_recorded`] so the two
    /// cannot drift apart.
    fn draw_pool(&mut self) {
        self.space.sample_batch_into(&mut self.rng, self.cfg.n_candidates, &mut self.cand_points);
    }

    /// Maximizes the UCB over a fresh random candidate pool, scoring the
    /// whole pool through the batched forest predictor. All candidates are
    /// drawn up front (encoding and prediction consume no rng), so the rng
    /// stream and the first-strictly-greater argmax match the former
    /// one-row-at-a-time loop exactly.
    fn argmax_ucb_forest(&mut self) -> HpPoint {
        let d = self.space.len();
        self.draw_pool();
        self.cand_enc.resize(self.cfg.n_candidates, d);
        for (i, cand) in self.cand_points.iter().enumerate() {
            self.space.encode_into(cand, self.cand_enc.row_mut(i));
        }
        self.forest.predict_mean_std_batch_into(
            &self.cand_enc,
            &mut self.per_tree,
            &mut self.preds,
        );
        let mut best: Option<(f64, usize)> = None;
        for (i, &(mu, sigma)) in self.preds.iter().enumerate() {
            let ucb = mu + self.cfg.kappa * sigma;
            if best.is_none_or(|(b, _)| ucb > b) {
                best = Some((ucb, i));
            }
        }
        self.cand_points[best.expect("n_candidates > 0").1].clone()
    }

    /// Maximizes the UCB over a fresh random candidate pool against the GP
    /// surrogate (ablation path, row-at-a-time).
    fn argmax_ucb_gp(&mut self, model: &GpRegressor) -> HpPoint {
        let mut best: Option<(f64, HpPoint)> = None;
        for _ in 0..self.cfg.n_candidates {
            let cand = self.space.sample(&mut self.rng);
            let enc = self.space.encode(&cand);
            let (mu, sigma) = model.predict_mean_std(&enc);
            let ucb = mu + self.cfg.kappa * sigma;
            if best.as_ref().is_none_or(|(b, _)| ucb > *b) {
                best = Some((ucb, cand));
            }
        }
        best.expect("n_candidates > 0").1
    }

    /// Returns `q` configurations to evaluate next.
    ///
    /// Before `n_initial` observations exist the points are random.
    /// Afterwards each point maximizes UCB against a surrogate that has
    /// been refitted with the *constant lie* (the mean of all observed
    /// objectives) for every previously selected point of this batch. The
    /// refit after the batch's final point is skipped — its result was
    /// never consumed and the fit draws nothing from the optimizer's rng.
    pub fn ask(&mut self, q: usize) -> Vec<HpPoint> {
        assert!(q > 0);
        let n = self.observed_y.len();
        if n < self.cfg.n_initial {
            return (0..q).map(|_| self.space.sample(&mut self.rng)).collect();
        }
        let lie = self.sum_y / n as f64;
        match self.cfg.surrogate {
            SurrogateKind::RandomForest => self.ask_forest(q, lie),
            SurrogateKind::GaussianProcess => self.ask_gp(q, lie),
        }
    }

    /// Fast-forward of [`BoOptimizer::ask`] for a caller that already
    /// knows what `ask(q)` answered (a resume replaying recorded
    /// evaluations): `is_answer(j, candidate)` says whether `candidate`
    /// is the recorded choice for point `j`.
    ///
    /// Draws exactly the candidates `ask(q)` would draw — one random point
    /// per answer before `n_initial`, one `n_candidates` pool per answer
    /// afterwards — and returns, per point, a drawn candidate the
    /// predicate accepts. No surrogate is fitted, scored or lied to: the
    /// forest only decides *which* candidate wins, and the caller knows.
    /// On `Some`, the optimizer is where `ask(q)` would have left it: the
    /// rng advanced identically, and everything else an `ask` touches is
    /// per-call scratch or fit-time telemetry, so every later real `ask`
    /// answers the same either way.
    ///
    /// Returns `None`, with the rng restored, when some point has no
    /// accepted candidate (the answers are not this optimizer's) or the
    /// surrogate is fitted and not a forest; the caller then runs the real
    /// `ask`.
    pub fn ask_recorded(
        &mut self,
        q: usize,
        is_answer: impl Fn(usize, &HpPoint) -> bool,
    ) -> Option<Vec<HpPoint>> {
        assert!(q > 0);
        let fitted = self.observed_y.len() >= self.cfg.n_initial;
        if fitted && self.cfg.surrogate != SurrogateKind::RandomForest {
            return None;
        }
        let saved_rng = self.rng.clone();
        let mut out = Vec::with_capacity(q);
        for j in 0..q {
            let hit = if fitted {
                self.draw_pool();
                self.cand_points.iter().find(|c| is_answer(j, c)).cloned()
            } else {
                Some(self.space.sample(&mut self.rng)).filter(|c| is_answer(j, c))
            };
            match hit {
                Some(point) => out.push(point),
                None => {
                    self.rng = saved_rng;
                    return None;
                }
            }
        }
        Some(out)
    }

    fn ask_forest(&mut self, q: usize, lie: f64) -> Vec<HpPoint> {
        let n = self.observed_y.len();
        let d = self.space.len();
        let forest_cfg = self.forest_cfg();
        let windowed = self.cfg.surrogate_window > 0;
        // Refits the forest on `ys` — the full encoded history in exact
        // mode, or only the rows named by `window` in windowed mode — and
        // records the wall-clock fit time for telemetry (timing is an
        // observation of the fit, never an input to it).
        let timed_refit = |forest: &mut RandomForestRegressor,
                           scratch: &mut ForestScratch,
                           fit_seconds: &mut Vec<f64>,
                           encoded: &Matrix,
                           ys: &[f64],
                           window: Option<&[u32]>,
                           seed: u64| {
            let t0 = std::time::Instant::now();
            match window {
                None => forest.refit(encoded, ys, &forest_cfg, seed, scratch),
                Some(win) => forest.refit_window(encoded, ys, win, &forest_cfg, seed, scratch),
            }
            fit_seconds.push(t0.elapsed().as_secs_f64());
        };
        timed_refit(
            &mut self.forest,
            &mut self.forest_scratch,
            &mut self.fit_seconds,
            &self.encoded,
            &self.observed_y,
            windowed.then_some(&self.window[..]),
            self.cfg.seed,
        );
        let mut out = Vec::with_capacity(q);
        for j in 0..q {
            let chosen = self.argmax_ucb_forest();
            if self.cfg.use_liar && j + 1 < q {
                if j == 0 {
                    self.liar_ys.clear();
                    self.liar_ys.extend_from_slice(&self.observed_y);
                    if windowed {
                        self.liar_window.clear();
                        self.liar_window.extend_from_slice(&self.window);
                    }
                }
                let rows = self.encoded.rows();
                self.encoded.resize(rows + 1, d);
                self.space.encode_into(&chosen, self.encoded.row_mut(rows));
                self.liar_ys.push(lie);
                if windowed {
                    // Liar rows always join the training window: they are
                    // the very points the liar refit exists to penalize.
                    self.liar_window.push(rows as u32);
                }
                timed_refit(
                    &mut self.forest,
                    &mut self.forest_scratch,
                    &mut self.fit_seconds,
                    &self.encoded,
                    &self.liar_ys,
                    windowed.then_some(&self.liar_window[..]),
                    self.cfg.seed ^ ((j as u64 + 1) << 32),
                );
            }
            out.push(chosen);
        }
        // Drop the liar rows: the cache again mirrors the observed history.
        self.encoded.resize(n, d);
        out
    }

    fn ask_gp(&mut self, q: usize, lie: f64) -> Vec<HpPoint> {
        // Borrow the history for the initial fit; clone only if the liar
        // actually extends it.
        let mut model = Self::fit_gp(&self.space, &self.observed_x, &self.observed_y);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut out = Vec::with_capacity(q);
        for j in 0..q {
            let chosen = self.argmax_ucb_gp(&model);
            if self.cfg.use_liar && j + 1 < q {
                if j == 0 {
                    xs = self.observed_x.clone();
                    ys = self.observed_y.clone();
                }
                xs.push(chosen.clone());
                ys.push(lie);
                model = Self::fit_gp(&self.space, &xs, &ys);
            }
            out.push(chosen);
        }
        out
    }

    /// Best observed (point, objective) so far.
    pub fn best_observed(&self) -> Option<(&HpPoint, f64)> {
        let (mut best_i, mut best_y) = (None, f64::NEG_INFINITY);
        for (i, &y) in self.observed_y.iter().enumerate() {
            if y > best_y {
                best_y = y;
                best_i = Some(i);
            }
        }
        best_i.map(|i| (&self.observed_x[i], best_y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Dimension;

    /// Smooth objective on the paper space with a unique optimal basin:
    /// best at bs = 256, lr = 0.01, n = 4.
    fn objective(p: &HpPoint) -> f64 {
        let bs_pen = ((p[0].log2() - 8.0) / 2.0).powi(2);
        let lr_pen = ((p[1].ln() - (0.01f64).ln()) / 1.0).powi(2);
        let n_pen = ((p[2].log2() - 2.0) / 1.0).powi(2);
        1.0 - 0.1 * (bs_pen + lr_pen + n_pen)
    }

    fn run_bo(kappa: f64, rounds: usize, q: usize, seed: u64) -> BoOptimizer {
        let cfg = BoConfig { kappa, n_initial: 8, n_candidates: 128, n_trees: 15, seed, ..BoConfig::default() };
        let mut bo = BoOptimizer::new(Space::paper_hm(), cfg);
        for _ in 0..rounds {
            let xs = bo.ask(q);
            let ys: Vec<f64> = xs.iter().map(objective).collect();
            bo.tell(&xs, &ys);
        }
        bo
    }

    #[test]
    fn initial_asks_are_random_and_legal() {
        let mut bo = BoOptimizer::new(Space::paper_hm(), BoConfig::default());
        let xs = bo.ask(5);
        assert_eq!(xs.len(), 5);
        for x in &xs {
            assert!(bo.space().contains(x));
        }
    }

    #[test]
    fn bo_concentrates_near_the_optimum() {
        let bo = run_bo(0.001, 12, 4, 1);
        let (best_x, best_y) = bo.best_observed().expect("has observations");
        assert!(best_y > 0.93, "best objective {best_y}");
        // bs within a factor 4 of 256, n within factor 2 of 4.
        assert!((best_x[0].log2() - 8.0).abs() <= 2.0, "bs={}", best_x[0]);
        assert!((best_x[2].log2() - 2.0).abs() <= 1.0, "n={}", best_x[2]);
    }

    #[test]
    fn bo_beats_random_search_at_equal_budget() {
        let bo = run_bo(0.001, 12, 4, 2);
        let (_, bo_best) = bo.best_observed().unwrap();

        let mut rng = StdRng::seed_from_u64(2);
        let space = Space::paper_hm();
        let rand_best = (0..12 * 4)
            .map(|_| objective(&space.sample(&mut rng)))
            .fold(f64::NEG_INFINITY, f64::max);
        // BO shouldn't be (meaningfully) worse; usually better.
        assert!(bo_best >= rand_best - 0.02, "bo={bo_best} random={rand_best}");
    }

    #[test]
    fn exploitation_clusters_more_than_exploration() {
        // κ = 0.001 (exploit) should propose points with lower spread in
        // the n dimension than κ = 19.6 (explore) once the model is fitted.
        let spread = |bo: &mut BoOptimizer| {
            let pts = bo.ask(16);
            let mean: f64 = pts.iter().map(|p| p[2].log2()).sum::<f64>() / 16.0;
            pts.iter().map(|p| (p[2].log2() - mean).powi(2)).sum::<f64>() / 16.0
        };
        let mut exploit = run_bo(0.001, 10, 4, 3);
        let mut explore = run_bo(19.6, 10, 4, 3);
        let (s_exploit, s_explore) = (spread(&mut exploit), spread(&mut explore));
        assert!(
            s_exploit <= s_explore + 1e-9,
            "exploit spread {s_exploit} vs explore spread {s_explore}"
        );
    }

    #[test]
    fn constant_liar_diversifies_within_batch() {
        // After fitting, a batch of q points should not be q copies of one
        // point when κ = 0 would otherwise pick the same argmax.
        let mut bo = run_bo(0.001, 6, 4, 4);
        let batch = bo.ask(6);
        let distinct: std::collections::HashSet<String> =
            batch.iter().map(|p| format!("{:?}", p)).collect();
        assert!(distinct.len() >= 2, "batch collapsed to one point");
    }

    #[test]
    fn without_liar_batches_collapse_more() {
        // Ablation: with the liar disabled, a batch maximizes a single
        // acquisition surface; the candidate pool still varies per draw,
        // but the liar version must produce at least as many distinct
        // points.
        let distinct = |use_liar: bool| {
            let cfg = BoConfig {
                kappa: 0.001,
                n_initial: 6,
                n_candidates: 64,
                n_trees: 10,
                seed: 11,
                use_liar,
                ..BoConfig::default()
            };
            let mut bo = BoOptimizer::new(Space::paper_hm(), cfg);
            for _ in 0..6 {
                let xs = bo.ask(3);
                let ys: Vec<f64> = xs.iter().map(objective).collect();
                bo.tell(&xs, &ys);
            }
            let batch = bo.ask(8);
            batch
                .iter()
                .map(|p| format!("{p:?}"))
                .collect::<std::collections::HashSet<_>>()
                .len()
        };
        assert!(distinct(true) >= distinct(false));
    }

    #[test]
    #[should_panic(expected = "outside space")]
    fn tell_rejects_illegal_points() {
        let mut bo = BoOptimizer::new(Space::paper_hm(), BoConfig::default());
        bo.tell(&[vec![100.0, 0.01, 4.0]], &[0.5]);
    }

    #[test]
    fn non_finite_objectives_are_skipped_not_fatal() {
        let cfg = BoConfig { n_initial: 2, ..BoConfig::default() };
        let mut bo = BoOptimizer::new(Space::paper_hm(), cfg);
        let xs = vec![
            vec![256.0, 0.01, 4.0],
            vec![128.0, 0.02, 2.0],
            vec![512.0, 0.005, 8.0],
        ];
        let rejected = bo.tell(&xs, &[0.5, f64::NAN, f64::INFINITY]);
        assert_eq!(rejected, 2);
        assert_eq!(bo.n_observed(), 1);
        // The optimizer stays fully usable after rejecting bad points.
        assert_eq!(bo.tell(&[vec![64.0, 0.05, 1.0]], &[0.7]), 0);
        let batch = bo.ask(3);
        assert_eq!(batch.len(), 3);
        assert_eq!(bo.best_observed().map(|(_, y)| y), Some(0.7));
    }

    #[test]
    fn rejection_keeps_lie_mean_consistent_with_history() {
        // After a rejected point, further asks must behave exactly as if
        // the bad observation never happened.
        let cfg = BoConfig { n_initial: 2, n_candidates: 32, n_trees: 5, seed: 3, ..BoConfig::default() };
        let mut with_reject = BoOptimizer::new(Space::paper_hm(), cfg.clone());
        let mut clean = BoOptimizer::new(Space::paper_hm(), cfg);
        let good =
            [vec![256.0, 0.01, 4.0], vec![128.0, 0.02, 2.0], vec![512.0, 0.005, 8.0]];
        let ys = [0.4, 0.6, 0.5];
        with_reject.tell(&good[..2], &ys[..2]);
        with_reject.tell(&[vec![32.0, 0.003, 1.0]], &[f64::NAN]);
        with_reject.tell(&good[2..], &ys[2..]);
        clean.tell(&good, &ys);
        assert_eq!(with_reject.ask(4), clean.ask(4));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = run_bo(0.001, 5, 3, 9);
        let mut b = run_bo(0.001, 5, 3, 9);
        assert_eq!(a.ask(4), b.ask(4));
    }

    #[test]
    fn works_on_frozen_space() {
        let space = Space::paper_hm_frozen(Some(256), Some(8));
        let mut bo = BoOptimizer::new(space, BoConfig { n_initial: 4, ..BoConfig::default() });
        for _ in 0..6 {
            let xs = bo.ask(3);
            for x in &xs {
                assert_eq!(x[0], 256.0);
                assert_eq!(x[2], 8.0);
            }
            let ys: Vec<f64> = xs.iter().map(|x| -((x[1].ln() + 4.0).powi(2))).collect();
            bo.tell(&xs, &ys);
        }
        let (best, _) = bo.best_observed().unwrap();
        // Optimum at lr = e^-4 ≈ 0.018.
        assert!((best[1].ln() + 4.0).abs() < 2.0);
    }

    #[test]
    fn gp_surrogate_also_optimizes() {
        let cfg = BoConfig {
            kappa: 0.1,
            n_initial: 8,
            n_candidates: 128,
            surrogate: SurrogateKind::GaussianProcess,
            seed: 21,
            ..BoConfig::default()
        };
        let mut bo = BoOptimizer::new(Space::paper_hm(), cfg);
        for _ in 0..10 {
            let xs = bo.ask(4);
            let ys: Vec<f64> = xs.iter().map(objective).collect();
            bo.tell(&xs, &ys);
        }
        let (_, best) = bo.best_observed().unwrap();
        assert!(best > 0.9, "gp-backed BO too weak: {best}");
    }

    #[test]
    fn invalid_configs_fail_validation_with_reasons() {
        let ok = BoConfig::default();
        assert!(ok.validate().is_ok());
        let bad_kappa = BoConfig { kappa: -1.0, ..BoConfig::default() };
        assert!(bad_kappa.validate().unwrap_err().contains("kappa"));
        let nan_kappa = BoConfig { kappa: f64::NAN, ..BoConfig::default() };
        assert!(nan_kappa.validate().unwrap_err().contains("kappa"));
        let bad_cand = BoConfig { n_candidates: 0, ..BoConfig::default() };
        assert!(bad_cand.validate().unwrap_err().contains("n_candidates"));
        let bad_trees = BoConfig { n_trees: 0, ..BoConfig::default() };
        assert!(bad_trees.validate().unwrap_err().contains("n_trees"));
    }

    #[test]
    #[should_panic(expected = "invalid BoConfig")]
    fn new_panics_on_invalid_config() {
        let cfg = BoConfig { n_trees: 0, ..BoConfig::default() };
        BoOptimizer::new(Space::paper_hm(), cfg);
    }

    fn run_bo_windowed(window: usize, rounds: usize, q: usize, seed: u64) -> BoOptimizer {
        let cfg = BoConfig {
            kappa: 0.001,
            n_initial: 8,
            n_candidates: 128,
            n_trees: 15,
            seed,
            surrogate_window: window,
            ..BoConfig::default()
        };
        let mut bo = BoOptimizer::new(Space::paper_hm(), cfg);
        for _ in 0..rounds {
            let xs = bo.ask(q);
            let ys: Vec<f64> = xs.iter().map(objective).collect();
            bo.tell(&xs, &ys);
        }
        bo
    }

    #[test]
    fn windowed_matches_exact_bitwise_while_history_fits() {
        // As long as the history never outgrows the window, the reservoir
        // is the identity prefix and every suggestion must be *identical*
        // to the exact surrogate's — the `surrogate_window = 0` replay
        // guarantee extended to any window that covers the history.
        let mut exact = run_bo(0.001, 10, 4, 17);
        let mut windowed = run_bo_windowed(100_000, 10, 4, 17);
        assert_eq!(exact.n_observed(), windowed.n_observed());
        assert_eq!(windowed.window_evictions(), 0);
        assert_eq!(exact.ask(6), windowed.ask(6));
    }

    #[test]
    fn window_bounds_training_set_and_counts_evictions() {
        let mut bo = run_bo_windowed(16, 12, 4, 5);
        let n = bo.n_observed();
        assert!(n > 16, "test needs history past the window, got {n}");
        assert_eq!(bo.window_len(), 16);
        assert_eq!(bo.window_evictions(), (n - 16) as u64);
        // The optimizer keeps working past the window, and its best
        // observation is still tracked over the *full* history.
        assert_eq!(bo.ask(4).len(), 4);
        assert!(bo.best_observed().is_some());
    }

    #[test]
    fn windowed_runs_replay_deterministically() {
        let mut a = run_bo_windowed(16, 12, 4, 23);
        let mut b = run_bo_windowed(16, 12, 4, 23);
        assert_eq!(a.ask(4), b.ask(4));
        assert_eq!(a.window_evictions(), b.window_evictions());
    }

    #[test]
    fn window_survives_batched_vs_incremental_tells() {
        // A resume replays recorded observations in a handful of large
        // tell batches rather than the original per-round batches; the
        // reservoir depends only on accepted-observation *order*, so the
        // rebuilt window — and every later suggestion — must be identical.
        let cfg = BoConfig {
            n_initial: 4,
            n_candidates: 32,
            n_trees: 5,
            seed: 31,
            surrogate_window: 8,
            ..BoConfig::default()
        };
        let mut incremental = BoOptimizer::new(Space::paper_hm(), cfg.clone());
        let mut batched = BoOptimizer::new(Space::paper_hm(), cfg);
        let mut rng = StdRng::seed_from_u64(99);
        let space = Space::paper_hm();
        let xs: Vec<HpPoint> = (0..30).map(|_| space.sample(&mut rng)).collect();
        let ys: Vec<f64> = xs.iter().map(objective).collect();
        for (x, y) in xs.iter().zip(&ys) {
            incremental.tell(std::slice::from_ref(x), std::slice::from_ref(y));
        }
        batched.tell(&xs, &ys);
        assert_eq!(incremental.window_evictions(), batched.window_evictions());
        assert_eq!(incremental.ask(4), batched.ask(4));
    }

    #[test]
    fn drift_stays_bounded_at_5k_observations() {
        // Seeded drift bound: on a smooth objective, suggestions from a
        // 256-observation reservoir fitted at 5k observations must land
        // in (nearly) as good a region as the exact surrogate's.
        let cfg = BoConfig {
            n_initial: 8,
            n_candidates: 64,
            n_trees: 6,
            seed: 41,
            ..BoConfig::default()
        };
        let windowed_cfg = BoConfig { surrogate_window: 256, ..cfg.clone() };
        let mut exact = BoOptimizer::new(Space::paper_hm(), cfg);
        let mut windowed = BoOptimizer::new(Space::paper_hm(), windowed_cfg);
        let mut rng = StdRng::seed_from_u64(7);
        let space = Space::paper_hm();
        // 5k observations in a handful of tell batches (building the
        // history is O(1) per tell; only refits are windowed).
        for _ in 0..5 {
            let xs: Vec<HpPoint> = (0..1000).map(|_| space.sample(&mut rng)).collect();
            let ys: Vec<f64> = xs.iter().map(objective).collect();
            exact.tell(&xs, &ys);
            windowed.tell(&xs, &ys);
        }
        assert_eq!(exact.n_observed(), 5000);
        assert_eq!(windowed.window_len(), 256);
        let e = objective(&exact.ask(1)[0]);
        let w = objective(&windowed.ask(1)[0]);
        assert!(
            w >= e - 0.15,
            "windowed suggestion drifted too far: exact={e:.4} windowed={w:.4}"
        );
    }

    /// Drives optimizer A with real `ask`/`tell` and optimizer B with
    /// `ask_recorded` fed A's answers plus the same `tell`s. B must never
    /// fit a surrogate, and the next real `ask` of both must agree — the
    /// rng and the reservoir ended in the same state.
    fn assert_fast_forward_tracks_real(cfg: BoConfig, q: usize, rounds: usize) {
        let what = format!("{cfg:?} q={q} rounds={rounds}");
        let mut a = BoOptimizer::new(Space::paper_hm(), cfg.clone());
        let mut b = BoOptimizer::new(Space::paper_hm(), cfg);
        for _ in 0..rounds {
            let xs = a.ask(q);
            let replayed = b.ask_recorded(q, |j, cand| *cand == xs[j]);
            assert_eq!(replayed.as_ref(), Some(&xs), "{what}");
            let ys: Vec<f64> = xs.iter().map(objective).collect();
            a.tell(&xs, &ys);
            b.tell(&xs, &ys);
        }
        let mut fits = Vec::new();
        b.take_fit_seconds(&mut fits);
        assert!(fits.is_empty(), "fast-forward refitted the surrogate: {what}");
        assert_eq!(a.window_evictions(), b.window_evictions(), "{what}");
        assert_eq!(a.ask(3), b.ask(3), "{what}");
    }

    #[test]
    fn fast_forward_leaves_the_optimizer_where_the_real_ask_would() {
        for seed in [1, 9, 23] {
            for window in [0, 16] {
                let cfg = BoConfig {
                    n_initial: 8,
                    n_candidates: 64,
                    n_trees: 8,
                    seed,
                    surrogate_window: window,
                    ..BoConfig::default()
                };
                // Still random / well past `n_initial` (and past the
                // window, so the reservoir has evicted).
                for (q, rounds) in [(1, 5), (1, 24), (4, 1), (4, 8)] {
                    assert_fast_forward_tracks_real(cfg.clone(), q, rounds);
                }
                let no_liar = BoConfig { use_liar: false, ..cfg };
                assert_fast_forward_tracks_real(no_liar, 4, 8);
            }
        }
    }

    #[test]
    fn fast_forward_without_a_match_restores_the_rng() {
        // Before and after `n_initial`: points 0 and 1 accept anything, so
        // their draws are consumed before point 2 finds no candidate.
        for rounds in [1, 6] {
            let mut a = run_bo(0.001, rounds, 4, 19);
            let mut b = run_bo(0.001, rounds, 4, 19);
            assert_eq!(b.ask_recorded(3, |j, _| j < 2), None);
            assert_eq!(a.ask(4), b.ask(4), "rounds={rounds}");
        }
    }

    #[test]
    fn fast_forward_declines_a_fitted_gp() {
        let cfg = BoConfig {
            n_initial: 4,
            n_candidates: 16,
            surrogate: SurrogateKind::GaussianProcess,
            seed: 5,
            ..BoConfig::default()
        };
        let mut a = BoOptimizer::new(Space::paper_hm(), cfg.clone());
        let mut b = BoOptimizer::new(Space::paper_hm(), cfg);
        // The random phase needs no surrogate, GP or not.
        let xs = a.ask(4);
        assert_eq!(b.ask_recorded(4, |j, cand| *cand == xs[j]), Some(xs.clone()));
        let ys: Vec<f64> = xs.iter().map(objective).collect();
        a.tell(&xs, &ys);
        b.tell(&xs, &ys);
        assert_eq!(b.ask_recorded(2, |_, _| true), None);
        assert_eq!(a.ask(2), b.ask(2));
    }

    #[test]
    fn single_real_dimension_space() {
        let space = Space { dims: vec![Dimension::Real { lo: -1.0, hi: 1.0 }] };
        let mut bo = BoOptimizer::new(
            space,
            BoConfig { n_initial: 6, n_candidates: 64, n_trees: 10, kappa: 0.1, seed: 5, ..BoConfig::default() },
        );
        for _ in 0..10 {
            let xs = bo.ask(2);
            let ys: Vec<f64> = xs.iter().map(|x| 1.0 - x[0] * x[0]).collect();
            bo.tell(&xs, &ys);
        }
        let (best, y) = bo.best_observed().unwrap();
        assert!(best[0].abs() < 0.5, "best={}", best[0]);
        assert!(y > 0.75);
    }
}
