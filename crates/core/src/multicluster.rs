//! The `MultiClusterScheduling` algorithm (paper §4, Figure 5): the outer
//! fixed point between static scheduling of the TTC and response-time
//! analysis of the ETC.
//!
//! The circular dependency — TTC offsets influence ETC response times, which
//! bound the arrival of inter-cluster traffic, which constrains the TTC
//! schedule tables — is resolved iteratively:
//!
//! 1. build a static schedule ignoring ETC influence;
//! 2. run the holistic ETC analysis against it;
//! 3. re-derive the release lower bounds of TT processes (worst-case arrival
//!    of their inbound ETC messages) and re-schedule;
//! 4. repeat until the offsets stop changing.
//!
//! The fixed point itself lives in [`crate::Evaluator`], which reuses all
//! derived tables and scratch state across evaluations of the same system;
//! [`multi_cluster_scheduling`] is the one-shot convenience wrapper.

use mcs_model::{ConfigError, System, SystemConfig};
use mcs_ttp::ScheduleError;

use crate::context::Evaluator;
use crate::outcome::AnalysisOutcome;

/// How the `Out_TTP` FIFO delay is bounded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FifoBound {
    /// The paper's closed form:
    /// `w = B + ⌈(S_m + I_m)/S_G⌉·T_TDMA` with
    /// `B = T_TDMA − (O_m mod T_TDMA) + O_SG`. Simple but pessimistic when
    /// the enqueue jitter spans several rounds.
    PaperClosedForm,
    /// Occurrence-based: the frame leaves in the `⌈(S_m + I_m)/S_G⌉`-th
    /// gateway-slot occurrence starting after the worst-case enqueue instant
    /// `O_m + J_m`. Tighter and still safe under the round-robin drain of
    /// the FIFO. This is the default.
    #[default]
    SlotOccurrence,
}

/// Tuning knobs of the analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnalysisParams {
    /// The divergence horizon as a multiple of the hyper-period: a fixed
    /// point exceeding `horizon_factor × hyperperiod` is declared diverged
    /// and clamped.
    pub horizon_factor: u64,
    /// Cap on the worklist waves of one holistic pass. A pass that exhausts
    /// it stops below the least fixed point, so its bounds are optimistic:
    /// when the final outer iteration's pass does, the evaluation reports
    /// `converged: false`. The evaluation paths of [`Evaluator`] agree bit
    /// for bit only while no full pass exhausts it: a restricted (delta)
    /// pass over a move's cone can converge where the full pass it replaces
    /// stops short, so under a budget some pass reaches, `evaluate_delta`
    /// can return other bounds than `evaluate`. On an acyclic visiting
    /// order every pass converges in one wave, so any budget of at least
    /// one wave is reached by none.
    pub max_holistic_iterations: u32,
    /// Cap on outer (schedule ↔ analysis) iterations. At least one always
    /// runs: 0 acts as 1.
    pub max_outer_iterations: u32,
    /// Bound used for the gateway `Out_TTP` FIFO.
    pub fifo_bound: FifoBound,
}

impl Default for AnalysisParams {
    fn default() -> Self {
        AnalysisParams {
            horizon_factor: 8,
            max_holistic_iterations: 64,
            max_outer_iterations: 16,
            fifo_bound: FifoBound::default(),
        }
    }
}

/// Error running the multi-cluster analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum AnalysisError {
    /// The configuration ψ is structurally invalid for this system.
    Config(ConfigError),
    /// The static scheduler could not place the TTC traffic.
    Schedule(ScheduleError),
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::Config(e) => write!(f, "invalid configuration: {e}"),
            AnalysisError::Schedule(e) => write!(f, "static scheduling failed: {e}"),
        }
    }
}

impl std::error::Error for AnalysisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AnalysisError::Config(e) => Some(e),
            AnalysisError::Schedule(e) => Some(e),
        }
    }
}

impl From<ConfigError> for AnalysisError {
    fn from(e: ConfigError) -> Self {
        AnalysisError::Config(e)
    }
}

impl From<ScheduleError> for AnalysisError {
    fn from(e: ScheduleError) -> Self {
        AnalysisError::Schedule(e)
    }
}

/// Runs `MultiClusterScheduling(Γ, β, π)` and returns the offsets φ,
/// response times ρ, queue bounds and graph response times.
///
/// This builds a fresh [`Evaluator`] per call; code evaluating many
/// configurations of the *same* system should construct one `Evaluator` and
/// reuse it — that path reuses all derived tables and fixed-point state
/// between runs and is several times faster.
///
/// # Errors
///
/// Returns [`AnalysisError`] if ψ is invalid or the TTC traffic cannot be
/// scheduled at all. An *unschedulable but well-formed* system is **not** an
/// error: it yields an outcome whose graph response times exceed their
/// deadlines (see [`crate::degree_of_schedulability`]).
///
/// # Examples
///
/// See the crate-level documentation of [`mcs-core`](crate) for a complete
/// worked example.
pub fn multi_cluster_scheduling(
    system: &System,
    config: &SystemConfig,
    params: &AnalysisParams,
) -> Result<AnalysisOutcome, AnalysisError> {
    let mut evaluator = Evaluator::new(system, *params);
    evaluator.evaluate(config)?;
    Ok(evaluator.outcome())
}
