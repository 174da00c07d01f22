//! # mcs-core
//!
//! Schedulability analysis for multi-cluster distributed embedded systems —
//! the primary contribution of *Pop, Eles, Peng — DATE 2003*.
//!
//! Given a [`System`](mcs_model::System) (application + two-cluster
//! architecture) and a configuration ψ = ⟨β, π⟩
//! ([`SystemConfig`](mcs_model::SystemConfig)), [`multi_cluster_scheduling`]
//! resolves the circular dependency between the statically scheduled TTC and
//! the priority-scheduled ETC, producing
//!
//! * the TTC schedule tables and MEDLs (the offsets φ),
//! * worst-case response times for every ET process and message leg,
//! * worst-case gateway queuing delays (`w^CAN`, `w^Ni`, `w^TTP`) and buffer
//!   bounds (`s_Out^CAN`, `s_Out^Ni`, `s_Out^TTP`),
//! * per-graph response times and the degree of schedulability δΓ.
//!
//! # The reusable analysis context
//!
//! Synthesis loops run this analysis thousands of times per instance, so the
//! engine is split into two halves (see [`Evaluator`]):
//!
//! * a **system context** built once per system — message routes, CAN frame
//!   times, per-graph phase groups, per-ET-CPU process partitions,
//!   gateway-crossing message lists, per-graph sinks, the analysis horizon —
//!   everything that does not depend on the configuration ψ; and
//! * **scratch state** — the configuration's priority tables, the flow
//!   buffers handed to the CAN/CPU/FIFO kernels, the outer-loop release
//!   maps, and per outer iteration the TTC schedule with the `O/J/w/r`
//!   fixed-point vectors of processes and message legs analyzed against it
//!   — which is *cleared, not reallocated*, between evaluations.
//!
//! [`Evaluator::evaluate`] runs one configuration against the context and
//! returns a cheap [`EvalSummary`] (δΓ and `s_total`); the full
//! [`AnalysisOutcome`] maps are only materialized on demand via
//! [`Evaluator::outcome`]. [`multi_cluster_scheduling`] wraps the same engine
//! for one-shot use, so both paths produce identical results.
//!
//! On top of that, [`Evaluator::evaluate_delta`] re-evaluates a *slightly
//! changed* configuration incrementally: the search loop reports the seed
//! entities its move touched ([`DeltaSeeds`]), the seeds are closed over a
//! static entity-dependency graph into a dirty cone, and only the RTA
//! kernels inside the cone are re-run, extending in place the timing each
//! outer iteration of the previous evaluation left — bit-identical to a
//! full evaluation, at a fraction of the kernel work.
//!
//! [`Evaluator::evaluate_batch`] lifts the same contract to whole candidate
//! *neighborhoods*: N sibling configurations share the base's converged
//! state once and re-climb their divergent tails data-parallel across
//! reusable [`BatchScratch`] lanes, one per worker — bit-identical to N
//! sequential [`Evaluator::evaluate_delta`] calls from the same base state
//! (see the [`batch`](self) module docs on `BatchRequest`/`BatchScratch`).
//!
//! # Examples
//!
//! ```
//! use mcs_model::{
//!     Application, Architecture, NodeRole, Priority, PriorityAssignment,
//!     SystemConfig, System, TdmaConfig, TdmaSlot, Time,
//! };
//! use mcs_core::{degree_of_schedulability, multi_cluster_scheduling, AnalysisParams};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut arch = Architecture::builder();
//! let n1 = arch.add_node("N1", NodeRole::TimeTriggered);
//! let n2 = arch.add_node("N2", NodeRole::EventTriggered);
//! let ng = arch.add_node("NG", NodeRole::Gateway);
//! let arch = arch.build()?;
//!
//! let mut app = Application::builder();
//! let g = app.add_graph("G1", Time::from_millis(240), Time::from_millis(200));
//! let p1 = app.add_process(g, "P1", n1, Time::from_millis(30));
//! let p2 = app.add_process(g, "P2", n2, Time::from_millis(20));
//! app.link(p1, p2, 8);
//! let app = app.build(&arch)?;
//! let system = System::new(app, arch);
//!
//! let tdma = TdmaConfig::new(vec![
//!     TdmaSlot { node: ng, capacity_bytes: 8 },
//!     TdmaSlot { node: n1, capacity_bytes: 8 },
//! ]);
//! let mut priorities = PriorityAssignment::new();
//! priorities.set_process(p2, Priority::new(1));
//! priorities.set_message(mcs_model::MessageId::new(0), Priority::new(1));
//! let config = SystemConfig::new(tdma, priorities);
//!
//! let outcome = multi_cluster_scheduling(&system, &config, &AnalysisParams::default())?;
//! let degree = degree_of_schedulability(&system, &outcome);
//! assert!(degree.is_schedulable());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod context;
mod delta;
mod holistic;
mod multicluster;
mod outcome;
mod queues;
mod report;
mod rta;
mod schedulability;
mod validate;

pub use batch::{BatchRequest, BatchScratch};
pub use context::{EvalProfile, EvalSummary, Evaluator};
pub use delta::DeltaSeeds;
pub use multicluster::{multi_cluster_scheduling, AnalysisError, AnalysisParams, FifoBound};
pub use outcome::{AnalysisOutcome, EntityTiming, MessageTiming, QueueBounds};
pub use queues::{
    fifo_blocking, fifo_delay, fifo_delay_from, fifo_delay_occurrence, fifo_size_bound, FifoDelay,
    FifoFlow, TtpQueueParams,
};
pub use report::{json_line, JsonField, JsonLinesWriter};
pub use rta::{
    interference_delay, interference_delay_from, interference_delay_sorted, interference_delays,
    TaskFlow,
};
pub use schedulability::{degree_of_schedulability, is_schedulable, SchedulabilityDegree};
pub use validate::validate_config;
