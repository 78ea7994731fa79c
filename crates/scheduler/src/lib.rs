//! Manager–worker evaluation scheduling (the Balsam workflow-system role).
//!
//! Algorithm 1 in the paper interacts with the cluster through exactly two
//! interfaces: `submit_evaluation` (nonblocking) and
//! `get_finished_evaluations`. On Theta those were backed by Balsam +
//! `mpirun` over 128 worker nodes; here they are backed by
//! [`Evaluator`], which combines
//!
//! * a **real worker pool** (OS threads fed from one due-ordered queue,
//!   so compute runs in delivery order and a finished search abandons
//!   what is left) that executes the actual scaled-down trainings, and
//! * a **discrete-event simulated clock**: every submission carries the
//!   duration the evaluation *would* take at paper scale (from
//!   `agebo-dataparallel`'s cost model); completions are delivered in
//!   simulated-time order, and the clock, queueing behaviour and node
//!   utilization follow the simulated durations.
//!
//! Results are deterministic: an evaluation's outcome depends only on its
//! own task (seeded), never on which thread computed it or in what real
//! order completions arrived.

pub mod des;
pub mod evaluator;
pub mod fault;
pub mod pool;

pub use des::{EvalFate, Placement, SimQueue, SubmitOpts};
pub use evaluator::{
    result_channel, Closed, EvalOutcome, Evaluator, Finished, ResultReceiver, ResultSender,
};
pub use fault::FaultPlan;
pub use pool::{ScratchGuard, ScratchPool};
