//! Seeded fault-injection soundness campaigns.
//!
//! A campaign fans a grid of randomized cells — `(instance × configuration
//! style × fault scenario × seeds)` — through the analysis, the nominal
//! simulator and the fault-injecting simulator, and classifies every
//! deviation with [`SimReport::classify_findings`]. The one outcome a
//! campaign exists to catch is a **nominal violation**: an unperturbed
//! observation escaping its analytic bound, i.e. an analysis bug.
//! Fault-induced deviations are expected degradation and are merely
//! counted.
//!
//! Every cell is a pure function of the [`CampaignSpec`] and its index:
//! [`plan_cell`] derives the generator parameters, configuration style,
//! fault scenario and all seeds from one splitmix-style per-cell stream, so
//! any cell from a campaign summary can be replayed in isolation
//! (`fault_campaign --cell K`) and reproduces its JSON record byte for
//! byte. The only nondeterminism is the synthesis deadline: a cell whose
//! schedule synthesis times out is recorded as
//! [`CellStatus::SynthesisFailed`] and skipped, never silently dropped —
//! and never run on the partial incumbent, which depends on where the
//! wall-clock cut fell.
//!
//! The expensive part — schedule-optimized (OS) synthesis for the cells
//! that ask for it — is one [`run_batch`]: parallel workers, per-job
//! wall-clock deadlines, panic isolation, and records in submission order,
//! which is cell order.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use mcs_core::{json_line, AnalysisParams, FifoBound, JsonField};
use mcs_gen::{generate, GeneratorParams};
use mcs_model::SystemConfig;
use mcs_opt::{
    evaluate, hopa_priorities, run_batch, straightforward_config, JobOutcome, JobSpec, Os,
    OsParams, SynthesisReport,
};
use mcs_sim::{
    simulate, simulate_with_faults, ExecutionModel, FaultParams, FaultPlan, SimParams, SimReport,
};

/// Per-cell stream separation constant (the 64-bit golden ratio, as in
/// splitmix64): cell `i` draws from `StdRng::seed_from_u64(seed ^ i·φ)`.
const CELL_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;

/// The campaign grid: how many cells, the base seed every cell derives
/// from, and the envelope knobs shared by all cells.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Number of cells in the campaign.
    pub cells: u64,
    /// Base seed; each cell's stream is `seed ^ index · φ64`.
    pub seed: u64,
    /// Activations simulated per process graph (the horizon).
    pub activations: u64,
    /// One cell in `os_one_in` uses an OS-synthesized configuration (the
    /// expensive style); the rest use straightforward slots + HOPA
    /// priorities. `0` disables OS cells entirely.
    pub os_one_in: u64,
    /// Wall-clock deadline per OS synthesis job.
    pub deadline: Duration,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            cells: 64,
            seed: 0xC0FF_EE00,
            activations: 2,
            os_one_in: 4,
            deadline: Duration::from_secs(60),
        }
    }
}

/// How a cell's configuration is produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigStyle {
    /// Straightforward slot sizing + HOPA priorities (cheap, always local).
    Hopa,
    /// Schedule-optimized synthesis served through the worker pool.
    Os,
}

impl ConfigStyle {
    /// The stable label used in JSON records.
    pub fn as_str(self) -> &'static str {
        match self {
            ConfigStyle::Hopa => "hopa",
            ConfigStyle::Os => "os",
        }
    }
}

/// One fully-planned campaign cell: everything needed to run (or replay)
/// it, derived deterministically from `(spec, index)` by [`plan_cell`].
#[derive(Clone, Copy, Debug)]
pub struct CampaignCell {
    /// The cell's index in the campaign grid.
    pub index: u64,
    /// Generator parameters of the instance (seed included).
    pub gen: GeneratorParams,
    /// Analysis parameters (the FIFO-bound flavour alternates).
    pub analysis: AnalysisParams,
    /// Configuration style.
    pub style: ConfigStyle,
    /// Name of the fault scenario (a [`GeneratorParams::fault_presets`]
    /// entry).
    pub preset: &'static str,
    /// The fault scenario itself.
    pub fault: FaultParams,
    /// Seed of the fault plan's RNG stream.
    pub fault_seed: u64,
    /// Seed of the simulator's execution-time stream.
    pub sim_seed: u64,
    /// Activations simulated per graph (carried from the spec).
    pub activations: u64,
}

/// Plans cell `index` of `spec`: a pure function, so a single cell can be
/// replayed without planning the rest of the grid.
pub fn plan_cell(spec: &CampaignSpec, index: u64) -> CampaignCell {
    let mut rng = StdRng::seed_from_u64(spec.seed ^ index.wrapping_mul(CELL_STREAM));
    let mut gen = GeneratorParams::paper_sized(2, rng.next_u64());
    gen.processes_per_node = 4 + (rng.next_u64() % 5) as usize;
    gen.graphs = 2 + (rng.next_u64() % 4) as usize;
    gen.utilization_permille = 150 + 10 * (rng.next_u64() % 21) as u32;
    gen.inter_cluster_messages = Some(1 + (rng.next_u64() % 5) as usize);
    let analysis = AnalysisParams {
        fifo_bound: if rng.next_u64() % 2 == 0 {
            FifoBound::SlotOccurrence
        } else {
            FifoBound::PaperClosedForm
        },
        ..AnalysisParams::default()
    };
    let style = if spec.os_one_in > 0 && rng.next_u64() % spec.os_one_in == 0 {
        ConfigStyle::Os
    } else {
        ConfigStyle::Hopa
    };
    let presets = gen.fault_presets();
    let (preset, fault) = presets[(rng.next_u64() % presets.len() as u64) as usize];
    CampaignCell {
        index,
        gen,
        analysis,
        style,
        preset,
        fault,
        fault_seed: rng.next_u64(),
        sim_seed: rng.next_u64(),
        activations: spec.activations,
    }
}

/// How a cell ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellStatus {
    /// Analysis, nominal simulation and fault simulation all ran; the
    /// finding counters say what they observed.
    Verified,
    /// The configuration was not schedulable — analytic bounds carry no
    /// soundness obligation, so the cell stops there.
    Unschedulable,
    /// OS synthesis failed, timed out or panicked (skip-and-count).
    SynthesisFailed,
    /// The simulator rejected the cell ([`mcs_sim::SimError`]).
    SimFailed,
}

impl CellStatus {
    /// The stable label used in JSON records.
    pub fn as_str(self) -> &'static str {
        match self {
            CellStatus::Verified => "verified",
            CellStatus::Unschedulable => "unschedulable",
            CellStatus::SynthesisFailed => "synthesis_failed",
            CellStatus::SimFailed => "sim_failed",
        }
    }
}

/// The record of one executed cell, rendered as one byte-stable JSON line
/// (no wall-clock fields — replaying the cell reproduces the line exactly).
#[derive(Clone, Debug)]
pub struct CellRecord {
    /// The cell's index.
    pub cell: u64,
    /// Generator seed of the instance (for standalone regeneration).
    pub gen_seed: u64,
    /// Configuration style.
    pub style: ConfigStyle,
    /// Fault scenario name.
    pub preset: &'static str,
    /// Fault-plan seed.
    pub fault_seed: u64,
    /// Simulator execution-time seed.
    pub sim_seed: u64,
    /// How the cell ended.
    pub status: CellStatus,
    /// Error detail for failed cells.
    pub error: Option<String>,
    /// Unperturbed observations past their bound — analysis bugs.
    pub nominal_violations: u64,
    /// Bound excursions on perturbed runs (expected under fault).
    pub fault_masked: u64,
    /// Deadline misses under fault (graceful-degradation metric).
    pub degraded_misses: u64,
    /// CAN corruptions injected in the fault leg.
    pub can_injected: u64,
    /// ... of which retransmitted within the retry budget.
    pub can_retransmitted: u64,
    /// ... of which dropped past it.
    pub can_dropped: u64,
    /// Overload episodes started.
    pub overload_episodes: u64,
    /// Worst observed TTC clock drift, in ticks.
    pub max_drift_ticks: u64,
    /// `can_injected == can_retransmitted + can_dropped` (must hold).
    pub frame_conserved: bool,
    /// Digest of the nominal-leg report (`0` when the leg never ran).
    pub nominal_digest: u64,
    /// Digest of the fault-leg report (`0` when the leg never ran).
    pub fault_digest: u64,
}

impl CellRecord {
    fn skipped(cell: &CampaignCell, status: CellStatus, error: Option<String>) -> Self {
        CellRecord {
            cell: cell.index,
            gen_seed: cell.gen.seed,
            style: cell.style,
            preset: cell.preset,
            fault_seed: cell.fault_seed,
            sim_seed: cell.sim_seed,
            status,
            error,
            nominal_violations: 0,
            fault_masked: 0,
            degraded_misses: 0,
            can_injected: 0,
            can_retransmitted: 0,
            can_dropped: 0,
            overload_episodes: 0,
            max_drift_ticks: 0,
            frame_conserved: true,
            nominal_digest: 0,
            fault_digest: 0,
        }
    }

    /// `true` iff the cell surfaced a hard finding (a nominal violation or
    /// a frame-conservation breach) — the conditions a campaign fails on.
    pub fn is_hard_failure(&self) -> bool {
        self.nominal_violations > 0 || !self.frame_conserved
    }

    /// Renders the record as one stable JSON line (see
    /// [`mcs_core::json_line`]). Field order and encoding are part of the
    /// replay contract: same `(spec, cell)` ⇒ same bytes.
    pub fn json_line(&self) -> String {
        use JsonField as F;
        let nominal_digest = format!("{:016x}", self.nominal_digest);
        let fault_digest = format!("{:016x}", self.fault_digest);
        let mut fields = vec![
            ("cell", F::UInt(self.cell)),
            ("gen_seed", F::UInt(self.gen_seed)),
            ("style", F::Str(self.style.as_str())),
            ("preset", F::Str(self.preset)),
            ("fault_seed", F::UInt(self.fault_seed)),
            ("sim_seed", F::UInt(self.sim_seed)),
            ("status", F::Str(self.status.as_str())),
            ("ok", F::Bool(!self.is_hard_failure())),
        ];
        if let Some(error) = &self.error {
            fields.push(("error", F::Str(error)));
        }
        if self.status == CellStatus::Verified {
            fields.extend([
                ("nominal_violations", F::UInt(self.nominal_violations)),
                ("fault_masked", F::UInt(self.fault_masked)),
                ("degraded_misses", F::UInt(self.degraded_misses)),
                ("can_injected", F::UInt(self.can_injected)),
                ("can_retransmitted", F::UInt(self.can_retransmitted)),
                ("can_dropped", F::UInt(self.can_dropped)),
                ("overload_episodes", F::UInt(self.overload_episodes)),
                ("max_drift_ticks", F::UInt(self.max_drift_ticks)),
                ("frame_conserved", F::Bool(self.frame_conserved)),
                ("nominal_digest", F::Str(&nominal_digest)),
                ("fault_digest", F::Str(&fault_digest)),
            ]);
        }
        json_line(&fields)
    }
}

/// Aggregate counters of one campaign run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CampaignSummary {
    /// Cells executed.
    pub cells: u64,
    /// Cells fully verified.
    pub verified: u64,
    /// Cells whose configuration was unschedulable.
    pub unschedulable: u64,
    /// Cells skipped because synthesis failed or timed out.
    pub synthesis_failed: u64,
    /// Cells the simulator rejected.
    pub sim_failed: u64,
    /// Total nominal (hard) violations across all cells.
    pub nominal_violations: u64,
    /// Total fault-masked bound excursions.
    pub fault_masked: u64,
    /// Total deadline misses under fault.
    pub degraded_misses: u64,
    /// Total CAN corruptions injected.
    pub can_injected: u64,
    /// Total CAN frames dropped.
    pub can_dropped: u64,
    /// Total overload episodes.
    pub overload_episodes: u64,
    /// Cells that breached frame conservation (must stay 0).
    pub conservation_breaches: u64,
}

impl CampaignSummary {
    /// Folds one record into the summary.
    pub fn absorb(&mut self, record: &CellRecord) {
        self.cells += 1;
        match record.status {
            CellStatus::Verified => self.verified += 1,
            CellStatus::Unschedulable => self.unschedulable += 1,
            CellStatus::SynthesisFailed => self.synthesis_failed += 1,
            CellStatus::SimFailed => self.sim_failed += 1,
        }
        self.nominal_violations += record.nominal_violations;
        self.fault_masked += record.fault_masked;
        self.degraded_misses += record.degraded_misses;
        self.can_injected += record.can_injected;
        self.can_dropped += record.can_dropped;
        self.overload_episodes += record.overload_episodes;
        self.conservation_breaches += u64::from(!record.frame_conserved);
    }

    /// `true` iff the campaign surfaced no hard finding.
    pub fn sound(&self) -> bool {
        self.nominal_violations == 0 && self.conservation_breaches == 0
    }

    /// The summary as one single-line JSON object (the
    /// `BENCH_campaign.json` body).
    pub fn json(&self) -> String {
        use JsonField as F;
        json_line(&[
            ("cells", F::UInt(self.cells)),
            ("verified", F::UInt(self.verified)),
            ("unschedulable", F::UInt(self.unschedulable)),
            ("synthesis_failed", F::UInt(self.synthesis_failed)),
            ("sim_failed", F::UInt(self.sim_failed)),
            ("nominal_violations", F::UInt(self.nominal_violations)),
            ("fault_masked", F::UInt(self.fault_masked)),
            ("degraded_misses", F::UInt(self.degraded_misses)),
            ("can_injected", F::UInt(self.can_injected)),
            ("can_dropped", F::UInt(self.can_dropped)),
            ("overload_episodes", F::UInt(self.overload_episodes)),
            ("conservation_breaches", F::UInt(self.conservation_breaches)),
            ("sound", F::Bool(self.sound())),
        ])
    }
}

/// Runs the full campaign: every cell of `spec`, in index order.
pub fn run_campaign(spec: &CampaignSpec) -> (Vec<CellRecord>, CampaignSummary) {
    let indices: Vec<u64> = (0..spec.cells).collect();
    let records = run_cells(spec, &indices);
    let mut summary = CampaignSummary::default();
    for record in &records {
        summary.absorb(record);
    }
    (records, summary)
}

/// Runs the listed cells of `spec` (the `--cell K` replay path runs one).
///
/// OS-style cells are synthesized first, as one [`run_batch`] under
/// `spec.deadline`; evaluation and the two simulation legs then run
/// sequentially per cell, so the records come back in the order of
/// `indices`.
pub fn run_cells(spec: &CampaignSpec, indices: &[u64]) -> Vec<CellRecord> {
    let cells: Vec<CampaignCell> = indices.iter().map(|&i| plan_cell(spec, i)).collect();
    let systems: Vec<Arc<_>> = cells.iter().map(|c| Arc::new(generate(&c.gen))).collect();

    // One record per OS cell, in cell order.
    let mut synthesized = run_batch(
        cells
            .iter()
            .zip(&systems)
            .filter(|(cell, _)| cell.style == ConfigStyle::Os)
            .map(|(cell, system)| {
                JobSpec::new(
                    format!("cell/{}", cell.index),
                    Arc::clone(system),
                    cell.analysis,
                    Os::new(OsParams::default()),
                )
                .deadline(spec.deadline)
            })
            .collect(),
    )
    .into_iter();

    cells
        .iter()
        .zip(&systems)
        .map(|(cell, system)| {
            let config = match cell.style {
                ConfigStyle::Hopa => {
                    let mut config = straightforward_config(system);
                    config.priorities = hopa_priorities(system, &config.tdma);
                    config
                }
                ConfigStyle::Os => {
                    let record = synthesized
                        .next()
                        .expect("one synthesis record per OS cell");
                    match completed_report(record.outcome) {
                        Ok(report) => report.best.config,
                        Err(error) => {
                            return CellRecord::skipped(
                                cell,
                                CellStatus::SynthesisFailed,
                                Some(error),
                            );
                        }
                    }
                }
            };
            run_planned_cell(cell, system, config)
        })
        .collect()
}

/// The report of a synthesis job whose incumbent a soundness check may run
/// on: only a completed job's. A timed-out or cancelled job's partial
/// incumbent depends on where the wall-clock cut fell, so checking it
/// would break the replay contract; like a failed or panicked job it is
/// an error naming the outcome.
///
/// # Errors
///
/// The outcome's [`JobOutcome::kind`], with the error or panic message
/// when there is one.
pub fn completed_report(outcome: JobOutcome) -> Result<SynthesisReport, String> {
    let kind = outcome.kind();
    match outcome {
        JobOutcome::Completed(report) => Ok(*report),
        JobOutcome::Failed(e) => Err(format!("{kind}: {e}")),
        JobOutcome::Panicked { message } => Err(format!("{kind}: {message}")),
        JobOutcome::TimedOut { .. } | JobOutcome::Cancelled { .. } => Err(kind.to_string()),
    }
}

/// Executes one planned cell against a resolved configuration: analysis,
/// nominal simulation, fault simulation, classification.
fn run_planned_cell(
    cell: &CampaignCell,
    system: &mcs_model::System,
    config: SystemConfig,
) -> CellRecord {
    let eval = match evaluate(system, config, &cell.analysis) {
        Ok(eval) => eval,
        Err(e) => {
            return CellRecord::skipped(cell, CellStatus::SynthesisFailed, Some(e.to_string()));
        }
    };
    if !eval.is_schedulable() {
        return CellRecord::skipped(cell, CellStatus::Unschedulable, None);
    }
    let params = SimParams {
        activations: cell.activations,
        execution: ExecutionModel::RandomUniform,
        seed: cell.sim_seed,
    };

    // Nominal leg: any bound excursion here is an analysis bug.
    let nominal: SimReport = match simulate(system, &eval.config, &eval.outcome, &params) {
        Ok(report) => report,
        Err(e) => return CellRecord::skipped(cell, CellStatus::SimFailed, Some(e.to_string())),
    };
    let mut nominal_violations = nominal.soundness_violations(system, &eval.outcome).len() as u64;

    // Fault leg: perturb with the cell's scenario and classify.
    let plan = FaultPlan::new(cell.fault, cell.fault_seed);
    let faulty =
        match simulate_with_faults(system, &eval.config, &eval.outcome, &params, Some(&plan)) {
            Ok(report) => report,
            Err(e) => return CellRecord::skipped(cell, CellStatus::SimFailed, Some(e.to_string())),
        };
    let mut fault_masked = 0;
    let mut degraded_misses = 0;
    for finding in faulty.classify_findings(system, &eval.outcome) {
        use mcs_sim::SoundnessFinding as SF;
        match finding {
            SF::NominalViolation(_) => nominal_violations += 1,
            SF::FaultMaskedViolation(_) => fault_masked += 1,
            SF::DegradedDeadlineMiss(_) => degraded_misses += 1,
        }
    }
    let f = &faulty.faults;
    CellRecord {
        cell: cell.index,
        gen_seed: cell.gen.seed,
        style: cell.style,
        preset: cell.preset,
        fault_seed: cell.fault_seed,
        sim_seed: cell.sim_seed,
        status: CellStatus::Verified,
        error: None,
        nominal_violations,
        fault_masked,
        degraded_misses,
        can_injected: f.can_injected,
        can_retransmitted: f.can_retransmitted,
        can_dropped: f.can_dropped,
        overload_episodes: f.overload_episodes,
        max_drift_ticks: f.max_drift.ticks(),
        frame_conserved: f.can_injected == f.can_retransmitted + f.can_dropped,
        nominal_digest: nominal.digest(),
        fault_digest: faulty.digest(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planning_is_deterministic_and_varied() {
        let spec = CampaignSpec::default();
        for index in 0..16 {
            let a = plan_cell(&spec, index);
            let b = plan_cell(&spec, index);
            assert_eq!(a.gen, b.gen);
            assert_eq!(a.style, b.style);
            assert_eq!(a.preset, b.preset);
            assert_eq!(a.fault_seed, b.fault_seed);
            assert_eq!(a.sim_seed, b.sim_seed);
        }
        let presets: std::collections::HashSet<_> =
            (0..64).map(|i| plan_cell(&spec, i).preset).collect();
        assert!(presets.len() >= 3, "presets must vary: {presets:?}");
        assert!((0..64).any(|i| plan_cell(&spec, i).style == ConfigStyle::Os));
        assert!((0..64).any(|i| plan_cell(&spec, i).style == ConfigStyle::Hopa));
    }

    #[test]
    fn records_replay_byte_identically() {
        let spec = CampaignSpec {
            cells: 3,
            os_one_in: 0, // HOPA only: keep the test debug-build cheap.
            ..CampaignSpec::default()
        };
        let (records, summary) = run_campaign(&spec);
        assert_eq!(records.len(), 3);
        assert!(summary.sound(), "{}", summary.json());
        for record in &records {
            let replayed = run_cells(&spec, &[record.cell]);
            assert_eq!(replayed.len(), 1);
            assert_eq!(replayed[0].json_line(), record.json_line());
        }
    }

    #[test]
    fn only_a_completed_synthesis_yields_a_configuration() {
        use mcs_gen::figure4;
        use mcs_model::Time;
        use mcs_opt::{Sf, Synthesis};

        let fig = figure4(Time::from_millis(240));
        let report = Synthesis::builder(&fig.system)
            .strategy(Sf)
            .run()
            .expect("figure 4 is analyzable");
        let partial = JobOutcome::TimedOut {
            partial: Some(Box::new(report.clone())),
        };
        assert_eq!(completed_report(partial).unwrap_err(), "timed_out");
        let completed = completed_report(JobOutcome::Completed(Box::new(report.clone())))
            .expect("a completed synthesis yields its report");
        assert_eq!(completed.best.config, report.best.config);
    }

    #[test]
    fn summary_absorbs_and_serializes() {
        let spec = CampaignSpec {
            cells: 2,
            os_one_in: 0,
            ..CampaignSpec::default()
        };
        let (records, summary) = run_campaign(&spec);
        assert_eq!(summary.cells, 2);
        assert_eq!(
            summary.cells,
            summary.verified
                + summary.unschedulable
                + summary.synthesis_failed
                + summary.sim_failed
        );
        let json = summary.json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"sound\": "));
        for record in &records {
            assert!(record.json_line().contains("\"status\": "));
        }
    }
}
