//! # mcs-gen
//!
//! Workload generation for the multi-cluster synthesis experiments:
//!
//! * [`generate()`] — seeded random systems following the paper's §6 setup
//!   (2–10 nodes split between the clusters, 40 processes per node, message
//!   sizes 8–32 bytes, uniform or exponential WCETs, an exact
//!   inter-cluster-traffic knob for Figure 9c, and a per-graph
//!   [`PeriodMultipliers`] set for multi-rate instances);
//! * [`figure4`] — the hand-built worked example of Figure 4;
//! * [`figure4_multirate`] — the same example with a second, half-rate
//!   graph (the smallest multi-rate scenario);
//! * [`cruise_controller`] — the reconstructed vehicle cruise controller
//!   real-life example.
//!
//! # Examples
//!
//! ```
//! use mcs_gen::{generate, GeneratorParams};
//!
//! let system = generate(&GeneratorParams::paper_sized(2, 42));
//! assert_eq!(system.application.processes().len(), 80);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cruise;
mod generate;
mod params;
mod scenario;

pub use cruise::{cruise_controller, CruiseController, CruiseNodes};
pub use generate::generate;
pub use params::{Distribution, GeneratorParams, PeriodMultipliers};
pub use scenario::{figure4, figure4_ids, figure4_multirate, Figure4};
