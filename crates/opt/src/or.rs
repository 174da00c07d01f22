//! `OptimizeResources` (OR) — the buffer-minimization hill climber of paper
//! Figure 7.
//!
//! Step 1 runs the [`Os`] strategy to obtain a schedulable system and a
//! pool of seed solutions. Step 2 hill-climbs from every seed over the move
//! set of [`crate::neighborhood`], at each iteration performing the move
//! that minimizes `s_total` without making the system unschedulable, until
//! no improvement remains or the iteration limit is hit.
//!
//! [`Or`] is the [`Strategy`] packaging of the pipeline for
//! [`Synthesis`](crate::Synthesis): both steps share the context's
//! [`Evaluator`](mcs_core::Evaluator), neighbors are explored with
//! apply/undo semantics against one working configuration, and no
//! `SystemConfig` clone or outcome materialization happens per candidate.

use mcs_core::{DeltaSeeds, EvalSummary};
use mcs_model::SystemConfig;

use crate::cost::{materialize, Evaluation};
use crate::moves::{neighborhood_into, Move};
use crate::os::{Os, OsParams};
use crate::synthesis::{SearchCtx, SearchEvent, Strategy, SynthesisError};

/// Tuning of the OR hill climber.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OrParams {
    /// OS settings used for step 1 (seed generation).
    pub os: OsParams,
    /// Iteration limit per seed.
    pub max_iterations: u32,
    /// Cap on neighbors evaluated per iteration (evenly sampled when the
    /// neighborhood is larger).
    pub neighbor_sample: usize,
}

impl Default for OrParams {
    fn default() -> Self {
        OrParams {
            os: OsParams::default(),
            max_iterations: 12,
            neighbor_sample: 64,
        }
    }
}

/// What the OR pipeline learned along the way, available through
/// [`Or::details`] after a run.
#[derive(Clone, Debug)]
pub struct OrDetails {
    /// The step-1 (OS) incumbent, fully materialized.
    pub os_best: Evaluation,
    /// The seed pool handed to the hill climber.
    pub os_seeds: Vec<SystemConfig>,
    /// Evaluations spent in step 1.
    pub os_evaluations: u64,
    /// Neighbor evaluations spent in step 2.
    pub climb_evaluations: u64,
}

/// The OR pipeline as a [`Strategy`].
///
/// If step 1 fails to find any schedulable configuration (the paper would
/// go back and modify the mapping/architecture, which is outside ψ), the
/// OS incumbent is returned unchanged — callers can detect this through
/// [`Evaluation::is_schedulable`] on the report.
#[derive(Debug, Default)]
pub struct Or {
    params: OrParams,
    details: Option<OrDetails>,
}

impl Or {
    /// Creates the strategy.
    pub fn new(params: OrParams) -> Self {
        Or {
            params,
            details: None,
        }
    }

    /// Step-level details of the last run (`None` before any run, and
    /// after a run cut before step 1 recorded an incumbent).
    pub fn details(&self) -> Option<&OrDetails> {
        self.details.as_ref()
    }

    /// Takes the details of the last run.
    pub fn take_details(&mut self) -> Option<OrDetails> {
        self.details.take()
    }
}

impl Strategy for Or {
    fn name(&self) -> &'static str {
        "OR"
    }

    fn run(&mut self, ctx: &mut SearchCtx<'_, '_, '_>) -> Result<(), SynthesisError> {
        let system = ctx.system();
        ctx.emit(SearchEvent::Phase {
            name: "optimize-schedule",
        });
        let mut os = Os::new(self.params.os);
        os.run(ctx)?;
        let os_evaluations = ctx.evaluations();
        let os_seeds = os.take_seeds();
        // OS records an incumbent unless the run was cut before any
        // position committed; then there is nothing to climb from.
        let Some((&os_summary, os_config)) = ctx.incumbent() else {
            self.details = None;
            return Ok(());
        };
        let os_config = os_config.clone();
        // Materialize the step-1 incumbent (one extra analysis) so the
        // details carry its full outcome, as the legacy pipeline did.
        let check = ctx.evaluate(&os_config)?;
        debug_assert_eq!(check, os_summary);
        let os_best = materialize(ctx.evaluator(), os_config, check);

        let mut climb_evaluations = 0u64;
        if os_summary.is_schedulable() {
            ctx.emit(SearchEvent::Phase { name: "hill-climb" });
            let mut global_best = os_summary;
            // Neighborhood and sample buffers, reused across iterations and
            // seeds (no per-step allocation).
            let mut moves: Vec<Move> = Vec::new();
            let mut sampled: Vec<Move> = Vec::new();
            for seed in &os_seeds {
                if ctx.exhausted() {
                    break;
                }
                let Ok(summary) = ctx.evaluate(seed) else {
                    continue;
                };
                let mut current_summary = summary;
                let mut current = materialize(ctx.evaluator(), seed.clone(), summary);
                // Delta-RTA seeds carried since the last completed
                // evaluation (always relative to `current`: every accepted
                // step re-anchors with a full evaluation).
                let mut seeds = DeltaSeeds::new();
                for _ in 0..self.params.max_iterations {
                    if ctx.exhausted() {
                        break;
                    }
                    neighborhood_into(system, &current, &mut moves);
                    let stride = (moves.len() / self.params.neighbor_sample.max(1)).max(1);
                    sampled.clear();
                    sampled.extend(moves.iter().copied().step_by(stride));
                    // Fan the sampled neighborhood out as one batch, then
                    // consume in scan order: per-candidate results, budget
                    // accounting and the event stream are exactly the
                    // sequential loop's.
                    let width = ctx.evaluate_candidates(&current.config, &seeds, &sampled);
                    let mut best_neighbor: Option<(EvalSummary, SystemConfig)> = None;
                    for index in 0..width {
                        if ctx.exhausted() {
                            break;
                        }
                        climb_evaluations += 1;
                        match ctx.consume_candidate(index) {
                            Ok(summary) => {
                                seeds.clear();
                                let mut better = false;
                                if summary.is_schedulable() {
                                    better = match &best_neighbor {
                                        None => true,
                                        Some((b, _)) => summary.total_buffers < b.total_buffers,
                                    };
                                    if better {
                                        best_neighbor =
                                            Some((summary, ctx.candidate_config(index).clone()));
                                    }
                                }
                                ctx.emit(SearchEvent::Evaluated {
                                    evaluations: ctx.evaluations(),
                                    summary,
                                    accepted: better,
                                });
                            }
                            Err(_) => ctx.emit(SearchEvent::Infeasible {
                                evaluations: ctx.evaluations(),
                            }),
                        }
                    }
                    match best_neighbor {
                        Some((summary, config))
                            if summary.total_buffers < current.total_buffers =>
                        {
                            // Accepted: materialize the outcome for the
                            // next neighborhood instantiation. The full
                            // evaluation resets the delta base to the
                            // accepted configuration.
                            let summary = ctx
                                .evaluate(&config)
                                .expect("accepted neighbor was analyzable");
                            seeds.clear();
                            current_summary = summary;
                            current = materialize(ctx.evaluator(), config, summary);
                        }
                        _ => break,
                    }
                }
                if current.is_schedulable() && current.total_buffers < global_best.total_buffers {
                    global_best = current_summary;
                    ctx.record_incumbent(current_summary, &current.config);
                }
            }
        }
        self.details = Some(OrDetails {
            os_best,
            os_seeds,
            os_evaluations,
            climb_evaluations,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesis::Synthesis;
    use mcs_gen::{figure4, generate, GeneratorParams};
    use mcs_model::System;
    use mcs_model::Time;

    fn run_or(system: &System, params: OrParams) -> (Evaluation, OrDetails) {
        let mut strategy = Or::new(params);
        let report = Synthesis::builder(system)
            .strategy(&mut strategy)
            .run()
            .expect("analyzable");
        let details = strategy.take_details().expect("details recorded");
        (report.best, details)
    }

    #[test]
    fn or_never_worsens_the_buffer_need() {
        let fig = figure4(Time::from_millis(240));
        let (best, details) = run_or(&fig.system, OrParams::default());
        assert!(best.is_schedulable());
        assert!(
            best.total_buffers <= details.os_best.total_buffers,
            "OR {} must not exceed OS {}",
            best.total_buffers,
            details.os_best.total_buffers
        );
    }

    #[test]
    fn or_keeps_the_system_schedulable_on_random_workloads() {
        let system = generate(&GeneratorParams::paper_sized(2, 29));
        let params = OrParams {
            max_iterations: 3,
            neighbor_sample: 16,
            ..OrParams::default()
        };
        let (best, details) = run_or(&system, params);
        if details.os_best.is_schedulable() {
            assert!(best.is_schedulable());
            assert!(best.total_buffers <= details.os_best.total_buffers);
        }
    }
}
