//! # mcs-opt
//!
//! Synthesis heuristics for multi-cluster systems (paper §5–6), served
//! through **one front door**: the strategy-driven [`Synthesis`] driver
//! (see the [`synthesis`] module for the full tour). The paper's family of
//! heuristics are [`Strategy`] impls:
//!
//! * [`Hopa`] — HOPA-style deadline-distribution priority assignment for
//!   ET processes and CAN messages ([`hopa_priorities`] is the underlying
//!   assignment function);
//! * [`Os`] (OS) — greedy TDMA slot-sequence/slot-length synthesis
//!   maximizing the degree of schedulability δΓ;
//! * [`Or`] (OR) — hill climbing from OS seed solutions, minimizing the
//!   total buffer need `s_total` under schedulability;
//! * [`Sf`] (SF), [`Sa::schedule`] (SAS) and [`Sa::resources`] (SAR) — the
//!   evaluation baselines.
//!
//! On top of single runs, the [`serve`] module's [`SynthesisService`]
//! serves (instance × strategy) jobs — streamed, or as a whole batch
//! through [`run_batch`], the layer the paper-reproduction sweeps sit on.
//! Several strategies on one instance are such a batch, and
//! [`best_record`] picks its winner deterministically.
//!
//! The free functions of the pre-`Synthesis` API (`optimize_schedule`,
//! `optimize_resources`, `sa_schedule`, `sa_resources`, `anneal`) have
//! been removed; the strategy-equivalence suite pins today's strategies
//! against frozen copies of those originals instead.
//!
//! # Search-loop machinery
//!
//! Every strategy evaluates configurations through the **shared**
//! [`mcs_core::Evaluator`] its [`SearchCtx`] borrows (the reusable
//! analysis context: system-invariant tables built once, fixed-point
//! scratch cleared between runs) and reads only the cheap
//! [`mcs_core::EvalSummary`] per candidate; full [`Evaluation`]s (with the
//! outcome maps) are materialized only for accepted and final
//! configurations.
//!
//! **The apply/undo move contract.** [`Move::apply_undoable`] applies a
//! design transformation and returns a [`MoveUndo`] whose
//! [`revert`](MoveUndo::revert) restores the configuration *bit-for-bit* —
//! including the two lossy cases plain re-application would get wrong: a
//! slot resize clamped at the 1-byte floor (the undo restores the recorded
//! previous capacity) and a pin move overwriting an existing pin (the undo
//! restores the previous pin value, or removes the pin if there was none).
//! Search loops therefore keep **one** working [`SystemConfig`] per climb
//! and explore every neighbor in place; the simulated-annealing baselines
//! clone a configuration only when recording a new incumbent. Undo tokens
//! must be reverted in LIFO order when stacked.
//!
//! **The delta-evaluation workflow.** Every search loop evaluates through
//! [`SearchCtx::evaluate_delta`], handing it an accumulated
//! [`mcs_core::DeltaSeeds`] set that over-approximates the difference
//! between the configuration being evaluated and the evaluator's last
//! completed analysis: [`Move::apply_undoable_seeded`] records a move's
//! seed entities on apply, the set is cleared after every successful
//! evaluation, and [`MoveUndo::record_seeds`] re-adds the undone entities
//! whenever a rejected or infeasible candidate is reverted. Priority swaps
//! seed the swapped entities, TDMA moves are structural (always the full
//! fixed point), and pin moves need no seeds at all — they act purely
//! through the static scheduler's release bounds, which the delta
//! evaluator re-derives itself.
//!
//! The SA baselines additionally draw their neighbors through
//! [`MoveSampler`], which picks one random move with the same distribution
//! as drawing uniformly from the materialized [`neighborhood`] — without
//! building the O(n²) move set.
//!
//! [`SystemConfig`]: mcs_model::SystemConfig
//!
//! # Examples
//!
//! ```no_run
//! use mcs_core::AnalysisParams;
//! use mcs_gen::{generate, GeneratorParams};
//! use mcs_opt::{Budget, Os, OsParams, Synthesis};
//!
//! let system = generate(&GeneratorParams::paper_sized(2, 1));
//! let report = Synthesis::builder(&system)
//!     .analysis(AnalysisParams::default())
//!     .strategy(Os::new(OsParams::default()))
//!     .budget(Budget::evals(10_000))
//!     .run()
//!     .expect("the straightforward start is analyzable");
//! println!(
//!     "schedulable: {}, buffers: {} B, {} evaluations",
//!     report.best.is_schedulable(),
//!     report.best.total_buffers,
//!     report.evaluations
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod annealing;
mod cost;
mod hopa;
mod moves;
mod or;
mod os;
mod sampler;
mod sensitivity;
pub mod serve;
mod sf;
pub mod synthesis;

pub use annealing::{sa_start, Sa, SaParams};
pub use cost::{evaluate, resource_cost, Evaluation};
pub use hopa::{hopa_priorities, Hopa};
pub use moves::{neighborhood, neighborhood_into, Move, MoveUndo};
pub use or::{Or, OrDetails, OrParams};
pub use os::{recommended_lengths, Os, OsParams};
pub use sampler::MoveSampler;
pub use sensitivity::{criticality_ranking, wcet_slack, WcetSlack};
pub use serve::{
    best_record, run_batch, JobId, JobOutcome, JobRecord, JobSpec, ServiceConfig, SubmitError,
    SynthesisService,
};
pub use sf::{minimal_slot_capacities, straightforward_config, Sf};
pub use synthesis::{
    Budget, BudgetAxis, CancelToken, EventCounter, Objective, Observer, SearchCtx, SearchEvent,
    Strategy, Synthesis, SynthesisError, SynthesisReport, TrajectoryPoint,
};
