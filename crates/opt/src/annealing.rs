//! Simulated-annealing baselines (paper §6): SAS minimizes the degree of
//! schedulability δΓ, SAR minimizes the total buffer need `s_total`. Both
//! explore the same move families as the heuristics; with long runs they
//! provide the near-optimal reference values of Figure 9.
//!
//! [`Sa`] is the [`Strategy`] packaging of the annealer for
//! [`Synthesis`](crate::Synthesis). The inner loop is built for throughput:
//! the context's shared [`Evaluator`](mcs_core::Evaluator)
//! (allocation-free analysis state, delta-RTA), one lazily sampled move per
//! iteration ([`crate::MoveSampler`], no materialized neighborhood) and
//! apply/undo move semantics (no `SystemConfig` clone per iteration — the
//! configuration is only cloned when a new incumbent is recorded).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mcs_core::{DeltaSeeds, EvalSummary};
use mcs_model::{System, SystemConfig};

use crate::hopa::hopa_priorities;
use crate::sampler::MoveSampler;
use crate::sf::straightforward_config;
use crate::synthesis::{Objective, SearchCtx, SearchEvent, Strategy, SynthesisError};

/// Simulated-annealing parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SaParams {
    /// Number of move evaluations.
    pub iterations: u32,
    /// Initial temperature, in cost units.
    pub initial_temperature: f64,
    /// Multiplicative cooling factor per iteration (0 < c < 1).
    pub cooling: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SaParams {
    /// A CI-scale budget. The paper ran "very long and expensive" SA (up to
    /// three hours per instance); scale `iterations` up for paper-scale
    /// reference runs.
    fn default() -> Self {
        SaParams {
            iterations: 300,
            initial_temperature: 1e7,
            cooling: 0.97,
            seed: 0,
        }
    }
}

/// Simulated annealing as a [`Strategy`]: [`Sa::schedule`] (SAS) anneals on
/// δΓ, [`Sa::resources`] (SAR) on `s_total`. Starts from [`sa_start`].
///
/// A seeded run is fully deterministic (see the
/// [module docs](crate::synthesis) for the determinism contract); the
/// budget truncates the iteration loop cooperatively. Re-running the same
/// instance repeats the identical search.
#[derive(Debug)]
pub struct Sa {
    params: SaParams,
    objective: Objective,
}

impl Sa {
    /// SA Schedule (SAS): anneals on δΓ.
    pub fn schedule(params: SaParams) -> Sa {
        Sa {
            params,
            objective: Objective::Schedule,
        }
    }

    /// SA Resources (SAR): anneals on `s_total`, ranking unschedulable
    /// configurations after every schedulable one.
    pub fn resources(params: SaParams) -> Sa {
        Sa {
            params,
            objective: Objective::Resources,
        }
    }

    fn cost(&self, summary: &EvalSummary) -> f64 {
        self.objective.cost(summary) as f64
    }
}

impl Strategy for Sa {
    fn name(&self) -> &'static str {
        match self.objective {
            Objective::Schedule => "SAS",
            Objective::Resources => "SAR",
        }
    }

    fn run(&mut self, ctx: &mut SearchCtx<'_, '_, '_>) -> Result<(), SynthesisError> {
        let system = ctx.system();
        let mut rng = StdRng::seed_from_u64(self.params.seed);
        let mut sampler = MoveSampler::new(system);
        let mut config = sa_start(system);
        let mut current = ctx.evaluate(&config)?;
        let mut best = current;
        ctx.record_incumbent(current, &config);
        let mut temperature = self.params.initial_temperature;

        // Delta-RTA seed accumulation: `seeds` always over-approximates the
        // difference between `config` and the evaluator's last completed
        // analysis — cleared after every successful evaluation, re-fed with
        // the undo's entities whenever a candidate is reverted.
        let mut seeds = DeltaSeeds::new();
        for _ in 0..self.params.iterations {
            if ctx.exhausted() {
                break;
            }
            let Some(mv) = sampler.sample(system, &config, ctx.evaluator(), &current, &mut rng)
            else {
                break;
            };
            let undo = mv.apply_undoable_seeded(&mut config, &mut seeds);
            temperature *= self.params.cooling;
            ctx.emit(SearchEvent::TemperatureEpoch {
                evaluations: ctx.evaluations(),
                temperature,
            });
            let Ok(candidate) = ctx.evaluate_delta(&config, &seeds) else {
                // Infeasible neighbor: the evaluator's state is unchanged,
                // so the seeds keep accumulating across the revert.
                ctx.emit(SearchEvent::Infeasible {
                    evaluations: ctx.evaluations(),
                });
                undo.record_seeds(&mut seeds);
                undo.revert(&mut config);
                continue;
            };
            seeds.clear();
            let delta = self.cost(&candidate) - self.cost(&current);
            let accept = delta <= 0.0 || {
                let t = temperature.max(f64::MIN_POSITIVE);
                rng.gen::<f64>() < (-delta / t).exp()
            };
            ctx.emit(SearchEvent::Evaluated {
                evaluations: ctx.evaluations(),
                summary: candidate,
                accepted: accept,
            });
            if accept {
                if self.cost(&candidate) < self.cost(&best) {
                    best = candidate;
                    ctx.record_incumbent(candidate, &config);
                }
                current = candidate;
            } else {
                undo.record_seeds(&mut seeds);
                undo.revert(&mut config);
            }
        }
        Ok(())
    }
}

/// The starting point both SA baselines use: straightforward slot order
/// with HOPA priorities.
pub fn sa_start(system: &System) -> SystemConfig {
    let mut config = straightforward_config(system);
    config.priorities = hopa_priorities(system, &config.tdma);
    config
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::evaluate;
    use crate::cost::Evaluation;
    use crate::synthesis::Synthesis;
    use mcs_core::AnalysisParams;
    use mcs_gen::figure4;
    use mcs_model::Time;

    fn quick() -> SaParams {
        SaParams {
            iterations: 60,
            seed: 5,
            ..SaParams::default()
        }
    }

    fn run_sas(system: &System, params: SaParams) -> Evaluation {
        Synthesis::builder(system)
            .strategy(Sa::schedule(params))
            .run()
            .expect("analyzable")
            .best
    }

    #[test]
    fn sas_improves_on_its_start() {
        let fig = figure4(Time::from_millis(240));
        let analysis = AnalysisParams::default();
        let start = evaluate(&fig.system, sa_start(&fig.system), &analysis).expect("valid");
        let sas = run_sas(&fig.system, quick());
        assert!(sas.schedule_cost() <= start.schedule_cost());
    }

    #[test]
    fn sar_returns_a_schedulable_solution_when_one_is_reachable() {
        let fig = figure4(Time::from_millis(240));
        let sar = Synthesis::builder(&fig.system)
            .strategy(Sa::resources(quick()))
            .run()
            .expect("analyzable")
            .best;
        assert!(sar.is_schedulable());
        assert!(sar.total_buffers > 0);
    }

    #[test]
    fn annealing_is_deterministic_in_the_seed() {
        let fig = figure4(Time::from_millis(240));
        let a = run_sas(&fig.system, quick());
        let b = run_sas(&fig.system, quick());
        assert_eq!(a.schedule_cost(), b.schedule_cost());
        assert_eq!(a.total_buffers, b.total_buffers);
    }

    #[test]
    fn annealing_never_worsens_with_more_budget_of_the_best() {
        // The returned evaluation is the best ever visited: running more
        // iterations with the same seed can only improve (or match) it.
        let fig = figure4(Time::from_millis(240));
        let short = run_sas(&fig.system, quick());
        let long = run_sas(
            &fig.system,
            SaParams {
                iterations: 120,
                ..quick()
            },
        );
        assert!(long.schedule_cost() <= short.schedule_cost());
    }
}
