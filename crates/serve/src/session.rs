//! Sessions, tenants, admission control and the [`SessionManager`].

use crate::cache::{CacheStats, SharedMemoCache};
use crate::pool::{LaneExec, SharedPool, WorkItem};
use agebo_core::{
    run_search_durable, run_search_served, DurableRun, DurableStore, EvalContext, ExternalCompute,
    RealIo, Recovered, RunControl, RunHeader, SearchConfig, SearchHistory, StopReason,
};
use agebo_dataparallel::TrainerTelemetry;
use agebo_scheduler::result_channel;
use agebo_tabular::{DatasetKind, SizeProfile};
use agebo_telemetry::Telemetry;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Per-tenant resource bounds, enforced at admission and dispatch time.
#[derive(Debug, Clone)]
pub struct TenantBudget {
    /// Relative DRR service share of each of the tenant's sessions.
    pub weight: f64,
    /// Shared-pool slots the tenant may hold at once.
    pub max_in_flight: usize,
    /// Bound on the tenant's pending dispatch queue; submissions beyond
    /// it block the submitting session (backpressure, not growth).
    pub max_pending: usize,
    /// Concurrent sessions the tenant may run.
    pub max_sessions: usize,
    /// Total evaluations across all of the tenant's sessions; when spent,
    /// running sessions stop with [`StopReason::BudgetExhausted`] and new
    /// ones are rejected.
    pub max_evals: Option<u64>,
    /// Wall-clock horizon, counted from tenant registration; running
    /// sessions stop with [`StopReason::DeadlineExceeded`] past it.
    pub deadline_secs: Option<f64>,
}

impl Default for TenantBudget {
    fn default() -> TenantBudget {
        TenantBudget {
            weight: 1.0,
            max_in_flight: usize::MAX,
            max_pending: 4096,
            max_sessions: usize::MAX,
            max_evals: None,
            deadline_secs: None,
        }
    }
}

/// Where a session's telemetry goes.
#[derive(Debug, Clone, Default)]
pub enum SessionTelemetry {
    /// No event stream (metrics still recorded internally).
    #[default]
    Disabled,
    /// Buffer the event stream in memory and return it in the
    /// [`SessionReport`] — how the bitwise equivalence tests compare a
    /// served session against a standalone search.
    Capture,
    /// Stream events to `<dir>/events.jsonl` + `<dir>/metrics.json`.
    Dir(PathBuf),
}

/// One search to run under the serving layer.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Display name (also the per-session output file stem).
    pub name: String,
    /// Owning tenant; budgets are shared across the tenant's sessions.
    pub tenant: String,
    /// Benchmark data set.
    pub dataset: DatasetKind,
    /// Data size profile.
    pub profile: SizeProfile,
    /// The full search configuration — seed, variant, chaos, retries —
    /// exactly as a standalone run would receive it.
    pub cfg: SearchConfig,
    /// Event-stream destination.
    pub telemetry: SessionTelemetry,
}

impl SessionSpec {
    /// A session with disabled telemetry.
    pub fn new(
        name: impl Into<String>,
        tenant: impl Into<String>,
        dataset: DatasetKind,
        profile: SizeProfile,
        cfg: SearchConfig,
    ) -> SessionSpec {
        SessionSpec {
            name: name.into(),
            tenant: tenant.into(),
            dataset,
            profile,
            cfg,
            telemetry: SessionTelemetry::Disabled,
        }
    }

    /// Sets the telemetry destination.
    pub fn with_telemetry(mut self, telemetry: SessionTelemetry) -> SessionSpec {
        self.telemetry = telemetry;
        self
    }
}

/// What a finished session hands back.
pub struct SessionReport {
    /// The spec's name.
    pub name: String,
    /// The spec's tenant.
    pub tenant: String,
    /// Why the search ended.
    pub stop: StopReason,
    /// The search history — bitwise identical to a standalone run of the
    /// same spec whenever the session ran to [`StopReason::Completed`].
    pub history: SearchHistory,
    /// Real seconds from admission to completion.
    pub wall_seconds: f64,
    /// The captured JSONL event stream ([`SessionTelemetry::Capture`]).
    pub events: Option<String>,
    /// The telemetry directory ([`SessionTelemetry::Dir`]).
    pub telemetry_dir: Option<PathBuf>,
}

/// A running session.
pub struct SessionHandle {
    /// Pool lane id.
    pub id: u64,
    /// The spec's name.
    pub name: String,
    /// The spec's tenant.
    pub tenant: String,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<SessionReport>,
}

impl SessionHandle {
    /// Asks the session to stop at its next round boundary
    /// ([`StopReason::Stopped`]).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Waits for the session and returns its report.
    pub fn join(self) -> SessionReport {
        self.thread.join().expect("session thread panicked")
    }

    /// True once the session's thread has finished.
    pub fn is_finished(&self) -> bool {
        self.thread.is_finished()
    }
}

/// The admission decision for a submitted [`SessionSpec`].
pub enum Admission {
    /// The session is running.
    Accepted(SessionHandle),
    /// The session was not started; `reason` says which bound rejected
    /// it. Nothing was queued — rejection is free.
    Rejected {
        /// Human-readable cause (also stable enough to assert on).
        reason: String,
    },
}

impl Admission {
    /// Unwraps the handle, panicking with the rejection reason otherwise.
    pub fn expect_accepted(self) -> SessionHandle {
        match self {
            Admission::Accepted(h) => h,
            Admission::Rejected { reason } => panic!("session rejected: {reason}"),
        }
    }

    /// The rejection reason, if rejected.
    pub fn rejection(&self) -> Option<&str> {
        match self {
            Admission::Accepted(_) => None,
            Admission::Rejected { reason } => Some(reason),
        }
    }
}

/// Pool sizing for a [`SessionManager`].
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Real compute slots (OS threads) shared by every session.
    pub slots: usize,
    /// Shared memo-cache capacity in entries (0 disables it).
    pub cache_capacity: usize,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions { slots: 4, cache_capacity: 4096 }
    }
}

struct TenantEntry {
    budget: TenantBudget,
    /// Remaining shared evaluation allowance (present iff `max_evals`).
    allowance: Option<Arc<AtomicU64>>,
    /// Absolute deadline (present iff `deadline_secs`).
    deadline: Option<Instant>,
    active: Arc<AtomicUsize>,
}

type CtxKey = (DatasetKind, u8, u64);

fn profile_tag(p: SizeProfile) -> u8 {
    match p {
        SizeProfile::Test => 0,
        SizeProfile::Bench => 1,
        SizeProfile::Large => 2,
    }
}

fn profile_name(p: SizeProfile) -> &'static str {
    match p {
        SizeProfile::Test => "test",
        SizeProfile::Bench => "bench",
        SizeProfile::Large => "large",
    }
}

/// FNV-1a over the evaluation context's identity — what, together with
/// the task content, fully determines an objective. Two sessions agree on
/// a shared-cache entry only when they agree on this fingerprint.
fn context_fingerprint(dataset: DatasetKind, profile: SizeProfile, ctx_seed: u64) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in dataset
        .name()
        .bytes()
        .chain([profile_tag(profile)])
        .chain(ctx_seed.to_le_bytes())
    {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Owns the shared compute slots and multiplexes every admitted session
/// over them. See the crate docs for the architecture.
///
/// Sessions must be joined (via their handles) before the manager is
/// dropped: dropping the manager shuts the slot threads down, and a
/// session still waiting on results would never receive them.
pub struct SessionManager {
    pool: Arc<SharedPool>,
    tenants: Mutex<HashMap<String, TenantEntry>>,
    contexts: Mutex<HashMap<CtxKey, Arc<EvalContext>>>,
    next_id: AtomicU64,
}

impl SessionManager {
    /// A manager with `opts.slots` compute slots and a shared cache of
    /// `opts.cache_capacity` entries.
    pub fn new(opts: ServeOptions) -> SessionManager {
        let cache = Arc::new(SharedMemoCache::new(opts.cache_capacity));
        SessionManager {
            pool: SharedPool::new(opts.slots, cache),
            tenants: Mutex::new(HashMap::new()),
            contexts: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(0),
        }
    }

    /// Declares a tenant and its budget. Unknown tenants named by a
    /// [`SessionSpec`] are auto-registered with [`TenantBudget::default`];
    /// re-registering an existing tenant is a no-op.
    pub fn register_tenant(&self, name: &str, budget: TenantBudget) {
        let mut tenants = self.tenants.lock();
        if tenants.contains_key(name) {
            return;
        }
        self.pool.register_tenant(name, budget.max_in_flight, budget.max_pending);
        let allowance = budget.max_evals.map(|n| Arc::new(AtomicU64::new(n)));
        let deadline = budget
            .deadline_secs
            .map(|s| Instant::now() + std::time::Duration::from_secs_f64(s));
        tenants.insert(
            name.to_string(),
            TenantEntry { budget, allowance, deadline, active: Arc::new(AtomicUsize::new(0)) },
        );
    }

    /// Admission control + session launch.
    pub fn submit(&self, spec: SessionSpec) -> Admission {
        if let Err(reason) = spec.cfg.validate() {
            return Admission::Rejected { reason: format!("session {}: {reason}", spec.name) };
        }
        self.register_tenant(&spec.tenant, TenantBudget::default());
        let (weight, allowance, deadline, active) = {
            let tenants = self.tenants.lock();
            let entry = tenants.get(&spec.tenant).expect("tenant registered above");
            if let Some(deadline) = entry.deadline {
                if Instant::now() >= deadline {
                    return Admission::Rejected {
                        reason: format!("tenant {} past its deadline", spec.tenant),
                    };
                }
            }
            if let Some(allowance) = &entry.allowance {
                if allowance.load(Ordering::Acquire) == 0 {
                    return Admission::Rejected {
                        reason: format!("tenant {} evaluation budget exhausted", spec.tenant),
                    };
                }
            }
            // Optimistic admission: the count is decremented by the
            // session thread on exit. Two racing submits can both pass at
            // `max_sessions - 1`; the manager is the only submitter in
            // practice (the CLI and tests drive it single-threaded).
            if entry.active.load(Ordering::Acquire) >= entry.budget.max_sessions {
                return Admission::Rejected {
                    reason: format!("tenant {} at max concurrent sessions", spec.tenant),
                };
            }
            entry.active.fetch_add(1, Ordering::AcqRel);
            (
                entry.budget.weight,
                entry.allowance.clone(),
                entry.deadline,
                Arc::clone(&entry.active),
            )
        };

        // Per-session telemetry is created before launch so an unwritable
        // directory rejects cleanly instead of failing mid-search.
        let tel = match &spec.telemetry {
            SessionTelemetry::Disabled => Telemetry::disabled(),
            SessionTelemetry::Capture => Telemetry::in_memory(),
            SessionTelemetry::Dir(dir) => match Telemetry::to_dir(dir) {
                Ok(t) => t,
                Err(e) => {
                    active.fetch_sub(1, Ordering::AcqRel);
                    return Admission::Rejected {
                        reason: format!("telemetry dir {}: {e}", dir.display()),
                    };
                }
            },
        };

        // Contexts are immutable after preparation; sessions with the
        // same (dataset, profile, seed) share one. The context seed is
        // the search seed — exactly what a standalone `agebo search`
        // builds — so served histories stay comparable bit for bit.
        let ctx = {
            let key: CtxKey = (spec.dataset, profile_tag(spec.profile), spec.cfg.seed);
            let mut contexts = self.contexts.lock();
            Arc::clone(contexts.entry(key).or_insert_with(|| {
                Arc::new(EvalContext::prepare(spec.dataset, spec.profile, spec.cfg.seed))
            }))
        };

        // Durable session state: when the spec names a checkpoint
        // directory, the store is opened (or created) *before* launch so
        // an unusable directory — or a store written by an incompatible
        // spec — rejects cleanly instead of failing mid-search. An
        // existing compatible store makes this session a resume: the
        // recovered records replay and the session continues where the
        // interrupted one stopped.
        let durable: Option<(DurableStore, Option<Recovered>)> =
            match &spec.cfg.checkpoint_dir {
                None => None,
                Some(dir) => {
                    let header = RunHeader {
                        dataset: spec.dataset.name().to_string(),
                        profile: profile_name(spec.profile).to_string(),
                        seed: spec.cfg.seed,
                        variant: spec.cfg.variant.clone(),
                        wall_time: spec.cfg.wall_time,
                        workers: spec.cfg.workers,
                        failure_rate: spec.cfg.failure_rate,
                        chaos: spec.cfg.chaos,
                        cache: spec.cfg.cache,
                        checkpoint_every: spec.cfg.checkpoint_every,
                        fingerprint: context_fingerprint(
                            spec.dataset,
                            spec.profile,
                            spec.cfg.seed,
                        ),
                        surrogate_window: spec.cfg.surrogate_window,
                        bo_trees: spec.cfg.bo_trees,
                        bo_candidates: spec.cfg.bo_candidates,
                    };
                    match DurableStore::open_or_create(Box::new(RealIo), dir, header) {
                        Ok((store, recovered)) => Some((store, recovered)),
                        Err(e) => {
                            active.fetch_sub(1, Ordering::AcqRel);
                            return Admission::Rejected {
                                reason: format!("checkpoint dir {dir}: {e}"),
                            };
                        }
                    }
                }
            };

        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (result_tx, result_rx) = result_channel();
        let exec = LaneExec {
            ctx: Arc::clone(&ctx),
            failure_rate: spec.cfg.failure_rate,
            fingerprint: context_fingerprint(spec.dataset, spec.profile, spec.cfg.seed),
            tt: TrainerTelemetry::register(&tel),
            result_tx,
            tenant: spec.tenant.clone(),
        };
        self.pool.add_session(id, weight, exec);

        let mut control = RunControl::unlimited();
        if let Some(allowance) = allowance {
            control = control.with_allowance(allowance);
        }
        if let Some(deadline) = deadline {
            control = control.with_deadline(deadline);
        }
        let stop = control.stop_flag();

        let pool = Arc::clone(&self.pool);
        let name = spec.name.clone();
        let tenant = spec.tenant.clone();
        let thread = std::thread::spawn(move || {
            let t0 = Instant::now();
            let submit = {
                let pool = Arc::clone(&pool);
                move |eval_id: u64, task, cancel| {
                    pool.enqueue(id, WorkItem { eval_id, task, cancel });
                }
            };
            let compute = ExternalCompute { submit: Box::new(submit), results: result_rx };
            let (history, stop) = match durable {
                None => run_search_served(ctx, &spec.cfg, &tel, &control, compute),
                Some((mut store, recovered)) => run_search_durable(
                    ctx,
                    &spec.cfg,
                    &tel,
                    Some(&control),
                    Some(compute),
                    DurableRun { store: &mut store, recovered: recovered.as_ref() },
                ),
            };
            pool.remove_session(id);
            let _ = tel.flush();
            let report = SessionReport {
                name: spec.name,
                tenant: spec.tenant,
                stop,
                history,
                wall_seconds: t0.elapsed().as_secs_f64(),
                events: tel.events_jsonl(),
                telemetry_dir: tel.dir().map(PathBuf::from),
            };
            drop(tel); // joins the writer thread: files are complete
            active.fetch_sub(1, Ordering::AcqRel);
            report
        });

        Admission::Accepted(SessionHandle { id, name, tenant, stop, thread })
    }

    /// Shared memo-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.pool.cache.stats()
    }

    /// Deducts `n` evaluations from `tenant`'s allowance without running
    /// anything (saturating at zero; a no-op for unknown tenants or
    /// unlimited budgets). Serve-layer restart uses this to charge
    /// sessions that already completed before the crash, so a resumed
    /// deployment honors the same total budget as an uninterrupted one.
    pub fn charge_tenant(&self, tenant: &str, n: u64) {
        if n == 0 {
            return;
        }
        let tenants = self.tenants.lock();
        if let Some(allowance) = tenants.get(tenant).and_then(|e| e.allowance.as_ref()) {
            let _ = allowance
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| Some(v.saturating_sub(n)));
        }
    }
}

impl Drop for SessionManager {
    fn drop(&mut self) {
        self.pool.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agebo_core::Variant;

    #[test]
    fn invalid_config_is_rejected_at_admission() {
        let manager = SessionManager::new(ServeOptions { slots: 1, cache_capacity: 16 });
        let mut cfg = SearchConfig::test(Variant::agebo());
        cfg.workers = 0;
        let spec = SessionSpec::new("bad", "t", DatasetKind::Covertype, SizeProfile::Test, cfg);
        let admission = manager.submit(spec);
        let reason = admission.rejection().expect("workers = 0 must not reach the manager loop");
        assert!(reason.contains("workers must be >= 1"), "{reason}");
    }
}
