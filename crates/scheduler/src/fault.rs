//! Deterministic chaos: the fault model injected into the simulated
//! cluster.
//!
//! A [`FaultPlan`] describes *how unreliable* the simulated cluster is —
//! worker-slot outages drawn from MTBF/MTTR exponential distributions,
//! and per-slot straggler speed factors that stretch every evaluation
//! placed on a slow slot. The plan itself carries no randomness; all
//! draws happen inside [`crate::SimQueue`] from a seed supplied at
//! install time, so a chaos run replays bit-identically for the same
//! `(plan, seed)` pair, and [`FaultPlan::none`] leaves the queue's
//! behaviour bitwise identical to a fault-free build.

/// How unreliable the simulated cluster is.
///
/// All times are simulated seconds. Outages are generated per slot as an
/// alternating renewal process: up-times are exponential with mean
/// [`FaultPlan::mtbf`], down-times exponential with mean
/// [`FaultPlan::mttr`]. An outage that begins while an evaluation is
/// running kills it (delivered as a fault at the outage start) and keeps
/// the slot offline until the outage ends; outages that pass while a
/// slot is idle are skipped silently — like a real manager, we only
/// notice a dead worker when work touches it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Mean simulated seconds between outages per slot
    /// (`f64::INFINITY` disables outages).
    pub mtbf: f64,
    /// Mean simulated downtime per outage.
    pub mttr: f64,
    /// Fraction of slots that are stragglers (0 disables stragglers).
    pub straggler_fraction: f64,
    /// Maximum slowdown multiplier of a straggler slot; each straggler's
    /// factor is drawn uniformly from `(1, straggler_factor]`.
    pub straggler_factor: f64,
}

impl FaultPlan {
    /// No chaos at all: the queue behaves bitwise identically to one
    /// without a plan installed.
    pub fn none() -> FaultPlan {
        FaultPlan {
            mtbf: f64::INFINITY,
            mttr: 0.0,
            straggler_fraction: 0.0,
            straggler_factor: 1.0,
        }
    }

    /// Occasional outages and a few mild stragglers — roughly one outage
    /// per slot per simulated day, 10 minutes of downtime, 10% of slots
    /// up to 2× slow.
    pub fn mild() -> FaultPlan {
        FaultPlan {
            mtbf: 86_400.0,
            mttr: 600.0,
            straggler_fraction: 0.1,
            straggler_factor: 2.0,
        }
    }

    /// Hostile cluster: outages about once per simulated hour per slot,
    /// 5 minutes of downtime, a quarter of the slots up to 4× slow.
    pub fn heavy() -> FaultPlan {
        FaultPlan {
            mtbf: 3_600.0,
            mttr: 300.0,
            straggler_fraction: 0.25,
            straggler_factor: 4.0,
        }
    }

    /// The stable profile name (`"none" | "mild" | "heavy"`) when this
    /// plan matches a canned profile, else `"custom"`.
    pub fn label(&self) -> &'static str {
        if *self == FaultPlan::none() {
            "none"
        } else if *self == FaultPlan::mild() {
            "mild"
        } else if *self == FaultPlan::heavy() {
            "heavy"
        } else {
            "custom"
        }
    }

    /// Parses a canned profile name.
    pub fn from_label(s: &str) -> Option<FaultPlan> {
        match s {
            "none" => Some(FaultPlan::none()),
            "mild" => Some(FaultPlan::mild()),
            "heavy" => Some(FaultPlan::heavy()),
            _ => None,
        }
    }

    /// True when the plan can never perturb anything.
    pub fn is_none(&self) -> bool {
        !self.has_outages() && !self.has_stragglers()
    }

    /// True when outages can occur.
    pub fn has_outages(&self) -> bool {
        self.mtbf.is_finite() && self.mtbf > 0.0
    }

    /// True when straggler slots can exist.
    pub fn has_stragglers(&self) -> bool {
        self.straggler_fraction > 0.0 && self.straggler_factor > 1.0
    }

    /// Checks the plan's parameters, returning a human-readable reason on
    /// failure. Plans built from external bytes (a store header) go
    /// through this; [`crate::SimQueue::install_faults`] still panics on
    /// an invalid plan (a caller bug).
    pub fn validate(&self) -> Result<(), String> {
        // `mtbf` may be +inf (no outages) but not NaN.
        if self.mtbf.is_nan() || self.mtbf <= 0.0 {
            return Err(format!("chaos.mtbf must be > 0, got {}", self.mtbf));
        }
        if !(self.mttr >= 0.0 && self.mttr.is_finite()) {
            return Err(format!("chaos.mttr must be finite and >= 0, got {}", self.mttr));
        }
        if !(0.0..=1.0).contains(&self.straggler_fraction) {
            return Err(format!(
                "chaos.straggler_fraction must be in [0, 1], got {}",
                self.straggler_fraction
            ));
        }
        if self.straggler_factor.is_nan() || self.straggler_factor < 1.0 {
            return Err(format!(
                "chaos.straggler_factor must be >= 1, got {}",
                self.straggler_factor
            ));
        }
        Ok(())
    }
}

/// SplitMix64 step — the same finalizer the rest of the workspace uses
/// for seed derivation, duplicated here so the scheduler stays
/// dependency-light.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A tiny deterministic per-slot draw stream.
#[derive(Debug, Clone)]
pub(crate) struct FaultRng {
    state: u64,
}

impl FaultRng {
    pub(crate) fn new(seed: u64, slot: usize, purpose: u64) -> FaultRng {
        let mut s = seed ^ (slot as u64).wrapping_mul(0xA24B_AED4_963E_E407) ^ purpose;
        // One warm-up step decorrelates nearby seeds.
        splitmix64(&mut s);
        FaultRng { state: s }
    }

    /// Uniform draw in the open interval (0, 1).
    pub(crate) fn uniform(&mut self) -> f64 {
        let bits = splitmix64(&mut self.state) >> 11; // 53 bits
        (bits as f64 + 0.5) * (1.0 / (1u64 << 53) as f64)
    }

    /// Exponential draw with the given mean (inverse-CDF).
    pub(crate) fn exponential(&mut self, mean: f64) -> f64 {
        -mean * self.uniform().ln()
    }
}

/// Per-slot chaos state owned by the queue.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    /// Speed multiplier of each slot (1.0 = nominal).
    pub(crate) speed: Vec<f64>,
    /// The next scheduled outage window `(start, end)` of each slot.
    next_outage: Vec<(f64, f64)>,
    /// Outage draw stream of each slot.
    rng: Vec<FaultRng>,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan, seed: u64, n_workers: usize) -> FaultState {
        if let Err(why) = plan.validate() {
            panic!("invalid FaultPlan: {why}");
        }
        let speed = (0..n_workers)
            .map(|w| {
                if !plan.has_stragglers() {
                    return 1.0;
                }
                let mut r = FaultRng::new(seed, w, 0x57A6);
                if r.uniform() < plan.straggler_fraction {
                    1.0 + r.uniform() * (plan.straggler_factor - 1.0)
                } else {
                    1.0
                }
            })
            .collect();
        let mut rng: Vec<FaultRng> =
            (0..n_workers).map(|w| FaultRng::new(seed, w, 0x0174)).collect();
        let next_outage = rng
            .iter_mut()
            .map(|r| {
                if !plan.has_outages() {
                    return (f64::INFINITY, f64::INFINITY);
                }
                let start = r.exponential(plan.mtbf);
                (start, start + r.exponential(plan.mttr))
            })
            .collect();
        FaultState { plan, speed, next_outage, rng }
    }

    /// The outage window the slot will hit next (never in the past once
    /// advanced).
    pub(crate) fn peek_outage(&self, slot: usize) -> (f64, f64) {
        self.next_outage[slot]
    }

    /// Consumes the slot's current outage and schedules the next one.
    pub(crate) fn advance_outage(&mut self, slot: usize) {
        if !self.plan.has_outages() {
            return;
        }
        let (_, end) = self.next_outage[slot];
        let up = self.rng[slot].exponential(self.plan.mtbf);
        let start = end + up;
        self.next_outage[slot] = (start, start + self.rng[slot].exponential(self.plan.mttr));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_roundtrip_through_labels() {
        for plan in [FaultPlan::none(), FaultPlan::mild(), FaultPlan::heavy()] {
            assert_eq!(FaultPlan::from_label(plan.label()), Some(plan));
        }
        assert_eq!(FaultPlan::from_label("bogus"), None);
        let custom = FaultPlan { mtbf: 10.0, ..FaultPlan::mild() };
        assert_eq!(custom.label(), "custom");
    }

    #[test]
    fn none_is_inert() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        assert!(!plan.has_outages());
        assert!(!plan.has_stragglers());
        let state = FaultState::new(plan, 7, 4);
        assert!(state.speed.iter().all(|&s| s == 1.0));
        assert_eq!(state.peek_outage(0), (f64::INFINITY, f64::INFINITY));
    }

    #[test]
    fn draws_are_deterministic_per_seed() {
        let a = FaultState::new(FaultPlan::heavy(), 42, 8);
        let b = FaultState::new(FaultPlan::heavy(), 42, 8);
        assert_eq!(a.speed, b.speed);
        for w in 0..8 {
            assert_eq!(a.peek_outage(w), b.peek_outage(w));
        }
        let c = FaultState::new(FaultPlan::heavy(), 43, 8);
        assert_ne!(
            (0..8).map(|w| a.peek_outage(w).0).collect::<Vec<_>>(),
            (0..8).map(|w| c.peek_outage(w).0).collect::<Vec<_>>(),
            "different seeds should shift the outage schedule"
        );
    }

    #[test]
    fn heavy_profile_produces_stragglers_and_outages() {
        let state = FaultState::new(FaultPlan::heavy(), 3, 64);
        let n_slow = state.speed.iter().filter(|&&s| s > 1.0).count();
        assert!(n_slow > 4, "expected several stragglers, got {n_slow}");
        assert!(state.speed.iter().all(|&s| (1.0..=4.0).contains(&s)));
        let mut st = state;
        let (s0, e0) = st.peek_outage(0);
        assert!(s0.is_finite() && e0 > s0);
        st.advance_outage(0);
        let (s1, _) = st.peek_outage(0);
        assert!(s1 > e0, "outages must move strictly forward");
    }

    #[test]
    fn exponential_mean_is_roughly_right() {
        let mut r = FaultRng::new(1, 0, 2);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exponential(100.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 100.0).abs() < 5.0, "mean {mean}");
    }

    #[test]
    fn validate_rejects_bad_fraction() {
        let err = FaultPlan { straggler_fraction: 1.5, ..FaultPlan::mild() }.validate();
        assert!(err.unwrap_err().contains("straggler_fraction"));
    }

    #[test]
    fn validate_names_the_offending_field() {
        for plan in [FaultPlan::none(), FaultPlan::mild(), FaultPlan::heavy()] {
            assert_eq!(plan.validate(), Ok(()));
        }
        let rejects = |field: &str, plan: FaultPlan| {
            let err = plan.validate().unwrap_err();
            assert!(err.contains(field), "{field}: {err}");
        };
        rejects("mtbf", FaultPlan { mtbf: 0.0, ..FaultPlan::mild() });
        rejects("mtbf", FaultPlan { mtbf: f64::NAN, ..FaultPlan::mild() });
        rejects("mttr", FaultPlan { mttr: f64::INFINITY, ..FaultPlan::mild() });
        rejects("straggler_fraction", FaultPlan { straggler_fraction: -0.1, ..FaultPlan::mild() });
        rejects("straggler_factor", FaultPlan { straggler_factor: 0.5, ..FaultPlan::mild() });
    }

    #[test]
    #[should_panic(expected = "invalid FaultPlan")]
    fn installing_an_invalid_plan_panics() {
        FaultState::new(FaultPlan { mtbf: -1.0, ..FaultPlan::mild() }, 1, 2);
    }
}
