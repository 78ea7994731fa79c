//! AgEBO-Tabular: joint neural architecture and hyperparameter search
//! (Egele et al., SC 2021) — the core search algorithm.
//!
//! The method couples two searches under one manager–worker loop
//! (Algorithm 1 of the paper):
//!
//! * **AgE** (aging evolution, Real et al.): a population queue of size
//!   `P`; each step samples `S` members uniformly, selects the best,
//!   mutates one decision variable, and the child replaces the oldest
//!   member;
//! * **asynchronous BO**: a random-forest surrogate with UCB acquisition
//!   and constant-liar multipoint `ask`, generating the data-parallel
//!   training hyperparameters `(bs₁, lr₁, n)` for every architecture the
//!   evolution proposes.
//!
//! Entry points:
//!
//! * [`EvalContext::prepare`] — load/generate a data set and freeze the
//!   evaluation recipe;
//! * [`SearchConfig`] / [`Variant`] — choose AgE-n, AgEBO-8-LR,
//!   AgEBO-8-LR-BS or full AgEBO, population sizes, simulated wall time;
//! * [`run_search`] — execute the search, returning a [`SearchHistory`]
//!   with one timed record per evaluated architecture. Its siblings add
//!   one capability each and forward to the same manager loop:
//!   [`run_search_instrumented`] (telemetry), [`run_search_controlled`]
//!   (budgets / deadlines / cancellation), [`run_search_served`]
//!   (compute in an external shared pool) and [`run_search_durable`]
//!   (a [`DurableStore`] to checkpoint into and resume from — the one
//!   way a search is persisted and continued).
//!
//! ```no_run
//! use agebo_core::{run_search, EvalContext, SearchConfig, Variant};
//! use agebo_tabular::{DatasetKind, SizeProfile};
//! use std::sync::Arc;
//!
//! let ctx = Arc::new(EvalContext::prepare(
//!     DatasetKind::Covertype,
//!     SizeProfile::Bench,
//!     42,
//! ));
//! let cfg = SearchConfig::bench(Variant::agebo());
//! let history = run_search(ctx, &cfg);
//! println!("best validation accuracy: {:.4}", history.best().unwrap().objective);
//! ```

pub mod config;
pub mod durable;
pub mod evaluation;
pub mod history;
pub mod population;
pub mod search;

pub use config::{CachePolicy, RetryPolicy, SearchConfig, Variant};
pub use durable::{
    AppendStats, CheckpointMeta, CompactStats, DurableError, DurableStore, RealIo, Recovered,
    RunHeader, SimIo, StoreIo,
};
pub use evaluation::{
    content_seed, evaluate, evaluate_instrumented, evaluate_pooled, evaluate_task_pooled,
    injected_fault, EvalContext, EvalScratch, EvalTask, TaskOutput,
};
pub use agebo_scheduler::FaultPlan;
pub use history::{EvalRecord, SearchHistory};
pub use population::{Member, Population};
pub use search::{
    run_search, run_search_controlled, run_search_durable, run_search_instrumented,
    run_search_served, DurableRun, ExternalCompute, RunControl, StopReason,
};
