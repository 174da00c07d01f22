//! # mcs — multi-cluster distributed embedded system synthesis
//!
//! A reproduction of *Pop, Eles, Peng — "Schedulability Analysis and
//! Optimization for the Synthesis of Multi-Cluster Distributed Embedded
//! Systems" (DATE 2003)*: schedulability analysis, gateway buffer-size
//! analysis and synthesis heuristics for architectures built from a
//! time-triggered cluster (TTP/TDMA) and an event-triggered cluster (CAN)
//! joined by a gateway.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`model`] — application/architecture model and the configuration ψ;
//! * [`ttp`] — TDMA rounds, schedule tables (MEDL), the static list
//!   scheduler;
//! * [`can`] — CAN frame timing, arbitration, queuing-delay analysis;
//! * [`core`] — the multi-cluster schedulability analysis (the paper's
//!   contribution): [`core::multi_cluster_scheduling`];
//! * [`opt`] — the synthesis strategies (HOPA, OS/OR, SF/SAS/SAR) behind
//!   the [`synth`] front door;
//! * [`sim`] — a discrete-event simulator validating the analysis bounds;
//! * [`gen`] — workload generation (paper §6 setup, Figure 4 example,
//!   cruise controller).
//!
//! [`synth`] is the synthesis front door: a [`Strategy`](synth::Strategy)-
//! driven [`Synthesis`](synth::Synthesis) builder that runs one search.
//! [`serve`] is the streaming service on top — bounded FIFO queue, per-job
//! deadlines, panic isolation and resumable jobs
//! ([`SynthesisService`](serve::SynthesisService)) — and serves static
//! batches of jobs through [`run_batch`](serve::run_batch); a batch of
//! strategies on one instance picks its winner with
//! [`best_record`](serve::best_record). The [`prelude`] pulls in the
//! handful of types almost every program needs.
//!
//! # Examples
//!
//! Synthesize a schedulable configuration for a generated system through
//! the front door and verify it in simulation:
//!
//! ```
//! use mcs::prelude::*;
//! use mcs::sim::{simulate, SimParams};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let system = generate(&GeneratorParams::paper_sized(2, 42));
//! let report = Synthesis::builder(&system)
//!     .analysis(AnalysisParams::default())
//!     .strategy(Os::new(OsParams::default()))
//!     .budget(Budget::evals(10_000))
//!     .run()?;
//! if report.best.is_schedulable() {
//!     let sim = simulate(
//!         &system,
//!         &report.best.config,
//!         &report.best.outcome,
//!         &SimParams::default(),
//!     )?;
//!     assert!(sim.soundness_violations(&system, &report.best.outcome).is_empty());
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mcs_can as can;
pub use mcs_core as core;
pub use mcs_gen as gen;
pub use mcs_model as model;
pub use mcs_opt as opt;
pub use mcs_opt::serve;
pub use mcs_opt::synthesis as synth;
pub use mcs_sim as sim;
pub use mcs_ttp as ttp;

pub mod prelude {
    //! The types almost every `mcs` program needs: the system model, the
    //! analysis entry points, workload generation and the synthesis front
    //! door.
    //!
    //! ```
    //! use mcs::prelude::*;
    //!
    //! let system = generate(&GeneratorParams::paper_sized(2, 7));
    //! let report = Synthesis::builder(&system).strategy(Sf).run().unwrap();
    //! assert!(report.best.total_buffers > 0);
    //! ```

    pub use mcs_core::{
        multi_cluster_scheduling, AnalysisOutcome, AnalysisParams, EvalSummary, Evaluator,
    };
    pub use mcs_gen::{cruise_controller, figure4, generate, GeneratorParams, PeriodMultipliers};
    pub use mcs_model::{
        Application, Architecture, MessageId, NodeRole, Priority, PriorityAssignment, ProcessId,
        System, SystemConfig, TdmaConfig, TdmaSlot, Time,
    };
    pub use mcs_opt::{
        best_record, run_batch, Budget, BudgetAxis, Evaluation, Hopa, JobOutcome, JobRecord,
        JobSpec, Objective, Observer, Or, OrParams, Os, OsParams, Sa, SaParams, SearchEvent,
        ServiceConfig, Sf, Strategy, Synthesis, SynthesisReport, SynthesisService,
    };
}
