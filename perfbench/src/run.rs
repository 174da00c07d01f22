//! Running jobs: the closed-loop service client, campaign cells, and the
//! output checks against the frozen seed oracle.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mcs_bench::campaign::CampaignCell;
use mcs_bench::seed_baseline::seed_evaluate;
use mcs_core::AnalysisParams;
use mcs_model::{System, SystemConfig};
use mcs_opt::{
    Budget, Evaluation, Hopa, JobOutcome, JobSpec, Or, OrParams, Sa, SaParams, SearchCtx, Strategy,
    SynthesisError, SynthesisService,
};
use mcs_sim::{simulate, simulate_with_faults, ExecutionModel, FaultPlan, SimParams};

use crate::plan::{Inputs, Job, JobKind, Plan, HANG_GUARD, JOB_EVALS};
use crate::trace::Tracer;

/// The result of one campaign cell (or one simulated incumbent).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CellResult {
    /// The configuration was schedulable, so both simulations ran.
    pub verified: bool,
    /// Unperturbed observations past their analytic bound.
    pub nominal_violations: u64,
    /// CAN corruptions injected by the fault leg.
    pub can_injected: u64,
    /// ... of which retransmitted.
    pub can_retransmitted: u64,
    /// ... of which dropped.
    pub can_dropped: u64,
    /// Trace events of the nominal simulation.
    pub sim_events: u64,
}

/// What a job produced.
#[derive(Clone, Debug)]
pub enum Output {
    /// A completed synthesis job's incumbent, as reported.
    Synthesis {
        /// The incumbent configuration.
        config: Box<SystemConfig>,
        /// Its reported δΓ cost.
        schedule_cost: i128,
        /// Its reported `s_total`.
        total_buffers: u64,
        /// Whether it is schedulable.
        schedulable: bool,
        /// Analyses the job performed.
        evaluations: u64,
    },
    /// A campaign cell's counters.
    Cell(CellResult),
    /// The job did not complete (outcome kind and detail).
    Failed(String),
}

/// One finished job.
#[derive(Clone, Debug)]
pub struct Sample {
    /// The job.
    pub job: Job,
    /// Client-side latency: submit to record, or cell start to end.
    pub latency: Duration,
    /// Execution time: the service's `JobRecord::elapsed_micros`, or the
    /// cell time.
    pub exec: Duration,
    /// What it produced.
    pub output: Output,
    /// The job ran with spans (see [`Plan::traced`]).
    pub traced: bool,
}

/// When a loop stops submitting.
#[derive(Clone, Copy, Debug)]
pub enum Until {
    /// After this many jobs.
    Jobs(u64),
    /// At this instant.
    Deadline(Instant),
}

impl Until {
    fn more(self, submitted: u64) -> bool {
        match self {
            Until::Jobs(n) => submitted < n,
            Until::Deadline(t) => Instant::now() < t,
        }
    }
}

/// The strategy of a synthesis job (run under a `JOB_EVALS` budget).
/// Cells have none; their service-layer probe runs HOPA, the
/// configuration style of every verify cell.
pub fn strategy(job: &Job) -> Box<dyn Strategy> {
    let sa = |seed| SaParams {
        seed,
        ..SaParams::default()
    };
    match job.kind {
        JobKind::Sas(seed) => Box::new(Sa::schedule(sa(seed))),
        JobKind::Sar(seed) => Box::new(Sa::resources(sa(seed))),
        JobKind::Or => Box::new(Or::new(OrParams::default())),
        JobKind::Cell => Box::new(Hopa),
    }
}

impl Output {
    /// The output of a service job.
    pub fn of(outcome: JobOutcome) -> Output {
        let kind = outcome.kind();
        match outcome {
            JobOutcome::Completed(report) => Output::Synthesis {
                schedule_cost: report.best.schedule_cost(),
                total_buffers: report.best.total_buffers,
                schedulable: report.best.is_schedulable(),
                evaluations: report.evaluations,
                config: Box::new(report.best.config),
            },
            JobOutcome::Failed(e) => Output::Failed(format!("{kind}: {e}")),
            JobOutcome::Panicked { message } => Output::Failed(format!("{kind}: {message}")),
            _ => Output::Failed(kind.to_string()),
        }
    }
}

/// When a [`Timed`] strategy's `run` started and returned.
type Window = Arc<Mutex<Option<(Instant, Instant)>>>;

/// A strategy that runs another and records, from the worker thread, when
/// the service's call into it started and returned: the opt layer's share
/// of a served job. What `serve.exec` holds beyond it is the service's and
/// the driver's own work (dispatch, `Evaluator::new`, the incumbent's final
/// analysis, the record).
struct Timed {
    inner: Box<dyn Strategy>,
    window: Window,
}

impl Strategy for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&mut self, ctx: &mut SearchCtx<'_, '_, '_>) -> Result<(), SynthesisError> {
        let start = Instant::now();
        let result = self.inner.run(ctx);
        let end = Instant::now();
        *self
            .window
            .lock()
            .expect("no panic while holding the window") = Some((start, end));
        result
    }
}

/// Runs plan jobs `first..` through `service` as a closed loop with one
/// job in flight (submit, wait for its record, submit the next) until
/// `until` stops submission.
///
/// With a tracer, each job [`Plan::traced`] picks runs its
/// strategy inside [`Timed`] and gets a root `job` span (submit to record)
/// with `serve.wait` and `serve.exec` children split at `elapsed_micros`;
/// `serve.exec` has one child, `opt.run`, the service's call into the
/// strategy. The other jobs run untraced.
///
/// # Errors
///
/// Fails if the service refuses a job or returns no record within twice
/// the hang guard.
pub fn serve_loop(
    plan: &Plan,
    inputs: &Inputs,
    service: &SynthesisService,
    first: u64,
    until: Until,
    mut tracer: Option<&mut Tracer>,
) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    let mut next = first;
    while until.more(next - first) {
        let job = plan.job(next);
        next += 1;
        let traced = tracer.is_some() && plan.traced(job.index);
        let window = Window::default();
        let strategy = if traced {
            Box::new(Timed {
                inner: strategy(&job),
                window: Arc::clone(&window),
            })
        } else {
            strategy(&job)
        };
        let spec = JobSpec::new(
            format!("{}/{}", plan.workload.name(), job.index),
            Arc::clone(&inputs.systems[job.instance]),
            plan.analysis(job.instance),
            strategy,
        )
        .budget(Budget::evals(JOB_EVALS))
        .deadline(HANG_GUARD);
        let submitted = Instant::now();
        service
            .try_submit(spec)
            .map_err(|e| format!("submit failed: {e}"))?;
        let record = service
            .next_record(HANG_GUARD * 2)
            .ok_or("the service returned no record within the hang guard")?;
        let done = Instant::now();
        let exec = Duration::from_micros(record.elapsed_micros);
        if let Some(t) = tracer.as_deref_mut().filter(|_| traced) {
            let root = t.record("job", job.index, None, submitted, done);
            let split = done.checked_sub(exec).unwrap_or(submitted).max(submitted);
            t.record("serve.wait", job.index, Some(root), submitted, split);
            let served = t.record("serve.exec", job.index, Some(root), split, done);
            if let Some((start, end)) = *window.lock().expect("no panic while holding the window") {
                t.record("opt.run", job.index, Some(served), start, end);
            }
        }
        samples.push(Sample {
            job,
            latency: done - submitted,
            exec,
            output: Output::of(record.outcome),
            traced,
        });
    }
    Ok(samples)
}

/// Runs campaign cells `first..` sequentially on this thread until `until`
/// stops them. With a tracer, each cell [`Plan::traced`] picks
/// gets a root `cell` span whose children are its layer calls.
pub fn cell_loop(
    plan: &Plan,
    inputs: &Inputs,
    first: u64,
    until: Until,
    mut tracer: Option<&mut Tracer>,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    let mut next = first;
    while until.more(next - first) {
        let job = plan.job(next);
        next += 1;
        let k = job.instance;
        let start = Instant::now();
        let spans = match tracer.as_deref_mut() {
            Some(t) if plan.traced(job.index) => {
                let root = t.open("cell", job.index, None, start);
                Some((t, root))
            }
            _ => None,
        };
        let traced = spans.is_some();
        let output = run_cell(
            &plan.cells[k],
            &inputs.systems[k],
            inputs.starts[k].clone(),
            spans,
        );
        let latency = start.elapsed();
        if let Some(t) = tracer.as_deref_mut().filter(|_| traced) {
            t.close_last_root(start + latency);
        }
        samples.push(Sample {
            job,
            latency,
            exec: latency,
            output,
            traced,
        });
    }
    samples
}

/// One campaign cell on its generated system: a cold `mcs_opt::evaluate`
/// of `config` (the cell's HOPA configuration), then (if schedulable) the
/// nominal and fault simulations and their classification.
pub fn run_cell(
    cell: &CampaignCell,
    system: &System,
    config: SystemConfig,
    mut tracer: Traced<'_>,
) -> Output {
    let eval = match timed(&mut tracer, "core.cold_eval", || {
        mcs_opt::evaluate(system, config, &cell.analysis)
    }) {
        Ok(eval) => eval,
        Err(e) => return Output::Failed(format!("analysis: {e}")),
    };
    if !eval.is_schedulable() {
        return Output::Cell(CellResult::default());
    }
    let params = SimParams {
        activations: cell.activations,
        execution: ExecutionModel::RandomUniform,
        seed: cell.sim_seed,
    };
    let faults = FaultPlan::new(cell.fault, cell.fault_seed);
    match simulate_legs(system, &eval, &params, &faults, tracer) {
        Ok(result) => Output::Cell(result),
        Err(e) => Output::Failed(e),
    }
}

/// The simulation legs of a cell on an analyzed, schedulable
/// configuration: nominal simulation, fault simulation, then the
/// soundness classification of both.
///
/// # Errors
///
/// Fails if the simulator rejects the configuration.
pub fn simulate_legs(
    system: &System,
    eval: &Evaluation,
    params: &SimParams,
    faults: &FaultPlan,
    mut tracer: Traced<'_>,
) -> Result<CellResult, String> {
    let nominal = timed(&mut tracer, "sim.nominal", || {
        simulate(system, &eval.config, &eval.outcome, params)
    })
    .map_err(|e| format!("nominal simulation: {e}"))?;
    let faulty = timed(&mut tracer, "sim.fault", || {
        simulate_with_faults(system, &eval.config, &eval.outcome, params, Some(faults))
    })
    .map_err(|e| format!("fault simulation: {e}"))?;
    let nominal_violations = timed(&mut tracer, "sim.classify", || {
        let soundness = nominal.soundness_violations(system, &eval.outcome).len() as u64;
        let classified = faulty
            .classify_findings(system, &eval.outcome)
            .iter()
            .filter(|f| matches!(f, mcs_sim::SoundnessFinding::NominalViolation(_)))
            .count() as u64;
        soundness + classified
    });
    let f = &faulty.faults;
    Ok(CellResult {
        verified: true,
        nominal_violations,
        can_injected: f.can_injected,
        can_retransmitted: f.can_retransmitted,
        can_dropped: f.can_dropped,
        sim_events: nominal.trace.len() as u64,
    })
}

/// A tracer and the root span that layer spans attach to, when tracing.
pub type Traced<'t> = Option<(&'t mut Tracer, usize)>;

/// Runs `f`, inside a child span of the traced root when tracing.
fn timed<T>(tracer: &mut Traced<'_>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some((t, root)) => {
            let job = t.spans[*root].job;
            t.time(name, job, Some(*root), f)
        }
        None => f(),
    }
}

/// Checks one job's output against an independent oracle: a synthesis
/// incumbent must re-analyze, under the frozen seed implementation, to the
/// reported δΓ cost and `s_total`; a verified cell must show no nominal
/// violation and conserve CAN frames.
///
/// # Errors
///
/// Describes the first disagreement.
pub fn check(system: &System, analysis: &AnalysisParams, output: &Output) -> Result<(), String> {
    match output {
        Output::Synthesis {
            config,
            schedule_cost,
            total_buffers,
            ..
        } => {
            let (degree, buffers, _) = seed_evaluate(system, (**config).clone(), analysis)
                .map_err(|e| format!("the oracle cannot analyze the incumbent: {e}"))?;
            if degree.cost() != *schedule_cost || buffers != *total_buffers {
                return Err(format!(
                    "reported (δΓ {schedule_cost}, s_total {total_buffers}) but the oracle \
                     gives (δΓ {}, s_total {buffers})",
                    degree.cost()
                ));
            }
            Ok(())
        }
        Output::Cell(c) => {
            if c.nominal_violations > 0 {
                return Err(format!("{} nominal violations", c.nominal_violations));
            }
            if c.can_injected != c.can_retransmitted + c.can_dropped {
                return Err(format!(
                    "CAN frames not conserved: {} injected, {} retransmitted, {} dropped",
                    c.can_injected, c.can_retransmitted, c.can_dropped
                ));
            }
            Ok(())
        }
        Output::Failed(reason) => Err(reason.clone()),
    }
}
