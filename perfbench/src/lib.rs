//! # perfbench
//!
//! The repository's benchmark: three seeded closed-loop workloads driven
//! through the public APIs of `mcs-gen`, `mcs-core`, `mcs-opt` (including
//! `mcs_opt::serve`) and `mcs-sim`, with every result checked against an
//! independent oracle. See `README.md` for the workloads, the metrics and
//! why the design is shaped for steadiness.
//!
//! A gated run ([`run`] with `trace == false`) measures the end-to-end
//! metrics; a traced run measures the per-layer metrics with spans kept in
//! memory and written out at exit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod measure;
pub mod plan;
pub mod probe;
pub mod run;
pub mod trace;

use std::time::{Duration, Instant};

use mcs_opt::{Budget, Synthesis};
use mcs_sim::{ExecutionModel, FaultPlan, SimParams};

use measure::{mean, median, ms, quantile, us};
use plan::{set_up, Inputs, Job, Plan, Scale, Workload};
use run::{check, serve_loop, Output, Sample, Until};
use trace::{StepClock, Tracer};

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Run the traced (per-layer) variant.
    pub trace: bool,
    /// Plan size.
    pub scale: Scale,
}

/// One reported metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    /// The metric's name.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Host readings of one run, for the history ledger.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HostReadings {
    /// Hypervisor steal during the run, ms.
    pub steal_ms: f64,
    /// The calibration kernel at the start of the run, ms.
    pub calib_start_ms: f64,
    /// The calibration kernel at the end of the run, ms.
    pub calib_end_ms: f64,
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    /// Jobs measured.
    pub attempted: u64,
    /// Jobs that did not complete or failed their output check.
    pub failed: u64,
    /// The first few failure reasons.
    pub failures: Vec<String>,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Human-readable notes (latency histogram, sample counts, trace
    /// reconciliation).
    pub notes: Vec<String>,
    /// Host readings.
    pub host: HostReadings,
    /// The traced run's spans.
    pub tracer: Option<Tracer>,
}

/// Set-up repetitions per gated run; `setup_s` is their median. The first
/// builds the inputs the jobs use; the others are spread through the
/// measured phase, one after each of its segments, so the median samples
/// the host over the whole run rather than over its first half second.
const SETUP_REPS: usize = 15;

/// Runs one benchmark run.
///
/// Sets `RAYON_NUM_THREADS` to the workload's lane count, so call it
/// before other threads read the environment.
///
/// # Errors
///
/// Fails when set-up fails or the service stalls; failed jobs are counted,
/// not errors.
pub fn run(opts: &Options) -> Result<Report, String> {
    let plan = Plan::new(opts.workload, opts.seed, opts.scale);
    std::env::set_var("RAYON_NUM_THREADS", opts.workload.lanes().to_string());
    let steal = measure::host_steal_ms();
    let calib_start_ms = calibrate(opts.scale)?;
    let mut report = if opts.trace {
        traced(&plan, opts)?
    } else {
        gated(&plan, opts)?
    };
    if !plan.skipped.is_empty() {
        report.notes.push(format!(
            "known-gap campaign cells skipped by the pool: {:?}",
            plan.skipped
        ));
    }
    report.host = HostReadings {
        steal_ms: measure::host_steal_ms() - steal,
        calib_start_ms,
        calib_end_ms: calibrate(opts.scale)?,
    };
    if opts.trace {
        report
            .metrics
            .push(metric("host.steal_ms", report.host.steal_ms, "ms"));
        let calib = (report.host.calib_start_ms + report.host.calib_end_ms) / 2.0;
        report.metrics.push(metric("host.calib_ms", calib, "ms"));
    }
    Ok(report)
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The frozen calibration kernel: the seed implementation's analysis of
/// one fixed instance, median of five, in ms. Its code never changes, so
/// a shift between runs is the host's.
fn calibrate(scale: Scale) -> Result<f64, String> {
    let nodes = if scale == Scale::Tiny { 2 } else { 8 };
    let system = mcs_gen::generate(&mcs_gen::GeneratorParams::paper_sized(nodes, 7));
    let config = mcs_opt::sa_start(&system);
    let analysis = mcs_core::AnalysisParams::default();
    let mut times = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        mcs_bench::seed_baseline::seed_evaluate(&system, config.clone(), &analysis)
            .map_err(|e| format!("calibration kernel: {e}"))?;
        times.push(ms(start.elapsed()));
    }
    Ok(median(&times).unwrap_or(0.0))
}

/// Runs jobs `first..` of the plan with the workload's own executor.
fn execute(
    plan: &Plan,
    inputs: &Inputs,
    first: u64,
    until: Until,
    tracer: Option<&mut Tracer>,
) -> Result<Vec<Sample>, String> {
    match &inputs.service {
        Some(service) => serve_loop(plan, inputs, service, first, until, tracer),
        None => Ok(run::cell_loop(plan, inputs, first, until, tracer)),
    }
}

/// Checks every sample; returns the failure count and the first reasons.
fn check_all(plan: &Plan, inputs: &Inputs, samples: &[Sample]) -> (u64, Vec<String>) {
    let mut failed = 0;
    let mut reasons = Vec::new();
    for sample in samples {
        let k = sample.job.instance;
        if let Err(e) = check(&inputs.systems[k], &plan.analysis(k), &sample.output) {
            failed += 1;
            if reasons.len() < 5 {
                reasons.push(format!("job {}: {e}", sample.job.index));
            }
        }
    }
    (failed, reasons)
}

fn latencies_ms<'a>(samples: impl IntoIterator<Item = &'a Sample>) -> Vec<f64> {
    samples.into_iter().map(|s| ms(s.latency)).collect()
}

/// The gated run: set-up, warm-up, the measured closed loop in segments
/// with one more (discarded) set-up after each, then the output checks.
/// Wall and CPU time count only the segments.
fn gated(plan: &Plan, opts: &Options) -> Result<Report, String> {
    let segments = if opts.scale == Scale::Tiny {
        1
    } else {
        SETUP_REPS - 1
    };
    let (inputs, first) = set_up(plan)?;
    let mut setup_s = vec![first.as_secs_f64()];
    let warmup = plan.workload.warmup_jobs();
    execute(plan, &inputs, 0, Until::Jobs(warmup), None)?;

    let segment = Duration::from_secs_f64(opts.seconds / segments as f64);
    let mut samples = Vec::new();
    let (mut wall, mut cpu) = (0.0, 0.0);
    for _ in 0..segments {
        let t0 = Instant::now();
        let cpu0 = measure::process_cpu_ms();
        let next = warmup + samples.len() as u64;
        samples.extend(execute(
            plan,
            &inputs,
            next,
            Until::Deadline(t0 + segment),
            None,
        )?);
        wall += t0.elapsed().as_secs_f64();
        cpu += measure::process_cpu_ms() - cpu0;
        if opts.scale == Scale::Full {
            let (discarded, elapsed) = set_up(plan)?;
            drop(discarded);
            setup_s.push(elapsed.as_secs_f64());
        }
    }
    let (failed, failures) = check_all(plan, &inputs, &samples);
    drop(inputs);

    let n = samples.len().max(1) as f64;
    let lat = latencies_ms(&samples);
    let p50 = median(&lat).unwrap_or(0.0);
    let p90 = quantile(&lat, 0.9).unwrap_or(0.0);
    let mut notes = vec![
        format!(
            "{} jobs in {wall:.2} s; {} samples above job_p90_ms",
            samples.len(),
            lat.iter().filter(|&&l| l > p90).count()
        ),
        format!("set-up repetitions (s): {setup_s:.4?}"),
    ];
    notes.extend(histogram(&lat, &[("p50", p50), ("p90", p90)]));
    Ok(Report {
        attempted: samples.len() as u64,
        failed,
        failures,
        metrics: vec![
            metric("setup_s", median(&setup_s).unwrap_or(0.0), "s"),
            metric("jobs_per_s", samples.len() as f64 / wall, "1/s"),
            metric("job_p50_ms", p50, "ms"),
            metric("job_p90_ms", p90, "ms"),
            metric("cpu_ms_per_job", cpu / n, "ms"),
            metric("peak_rss_mb", measure::peak_rss_mb(), "MiB"),
            metric("ok_frac", 1.0 - failed as f64 / n, "ratio"),
        ],
        notes,
        host: HostReadings::default(),
        tracer: None,
    })
}

/// A twelve-bin text histogram of `values` (ms) from the minimum to the
/// 99.5th percentile (the last bin also holds the rarer outliers), with
/// each of `marks` named on the bin it falls in: the README's evidence
/// that p50 and p90 land in dense parts of the distribution.
pub fn histogram(values: &[f64], marks: &[(&str, f64)]) -> Vec<String> {
    let (Some(lo), Some(hi)) = (quantile(values, 0.0), quantile(values, 0.995)) else {
        return Vec::new();
    };
    let bins = 12;
    let width = ((hi - lo) / bins as f64).max(f64::MIN_POSITIVE);
    let bin = |v: f64| (((v - lo) / width).max(0.0) as usize).min(bins - 1);
    let mut counts = vec![0usize; bins];
    for &v in values {
        counts[bin(v)] += 1;
    }
    let max = counts.iter().copied().max().unwrap_or(1).max(1);
    counts
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            let from = lo + width * i as f64;
            let named: Vec<&str> = marks
                .iter()
                .filter(|&&(_, v)| bin(v) == i)
                .map(|&(name, _)| name)
                .collect();
            format!(
                "{:>9.3}-{:<9.3} ms {:>6} {:<40} {}",
                from,
                from + width,
                c,
                "#".repeat(c * 40 / max),
                named.join(" ")
            )
        })
        .collect()
}

/// Synthesis jobs rerun on this thread with a [`StepClock`], per workload.
fn reruns(plan: &Plan) -> u64 {
    match (plan.scale, plan.workload) {
        (Scale::Tiny, _) => 2,
        (Scale::Full, Workload::Anneal) => 16,
        (Scale::Full, Workload::Synth) => 6,
        (Scale::Full, Workload::Verify) => 200,
    }
}

/// Instances probed layer by layer, and the SA trace length on each.
fn probe_size(plan: &Plan) -> (usize, usize) {
    match (plan.scale, plan.workload) {
        (Scale::Tiny, _) => (2, 20),
        (Scale::Full, Workload::Anneal) => (8, 150),
        (Scale::Full, Workload::Synth) => (6, 100),
        (Scale::Full, Workload::Verify) => (64, 40),
    }
}

/// The traced run: one closed loop in which traced and untraced jobs
/// alternate ([`Plan::traced`]; their p50 ratio is the tracing
/// overhead), reruns of the first traced synthesis jobs observed step by
/// step, then the layer probes.
fn traced(plan: &Plan, opts: &Options) -> Result<Report, String> {
    let (inputs, _) = set_up(plan)?;
    let warmup = plan.workload.warmup_jobs();
    execute(plan, &inputs, 0, Until::Jobs(warmup), None)?;
    let mut tracer = Tracer::default();
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let all = execute(
        plan,
        &inputs,
        warmup,
        Until::Deadline(deadline),
        Some(&mut tracer),
    )?;
    let (failed, failures) = check_all(plan, &inputs, &all);
    let (traced, untraced): (Vec<&Sample>, Vec<&Sample>) = all.iter().partition(|s| s.traced);

    // Service-layer samples: the workload's own traced jobs, or for verify
    // (which runs no service) its cells' HOPA synthesis through a
    // one-worker service.
    let hopa;
    let served: Vec<&Sample> = match &inputs.service {
        Some(_) => traced.clone(),
        None => {
            hopa = serve_loop(
                plan,
                &inputs,
                &plan::start_service(),
                0,
                Until::Jobs(2 * reruns(plan)),
                Some(&mut tracer),
            )?;
            hopa.iter().filter(|s| s.traced).collect()
        }
    };

    let mut m = Vec::new();
    let mut notes = Vec::new();
    let (probe_n, trace_len) = probe_size(plan);
    let mut layers = probe::probe_layers(plan, &inputs, probe_n, trace_len)?;
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    m.push(metric("gen.generate_us", med(&layers.generate_us), "us"));

    let exec: Vec<f64> = served.iter().map(|s| ms(s.exec)).collect();
    let wait: Vec<f64> = served
        .iter()
        .map(|s| ms(s.latency.saturating_sub(s.exec)))
        .collect();
    m.push(metric("serve.exec_ms", med(&exec), "ms"));
    m.push(metric("serve.wait_ms", med(&wait), "ms"));

    // Reruns: the first traced served jobs, run again on this thread and
    // observed event by event. Synthesis is deterministic, so their reports
    // (and the quality metrics taken from them) are the served jobs'.
    let rerun: Vec<Job> = served
        .iter()
        .take(reruns(plan) as usize)
        .map(|s| s.job)
        .collect();
    let (mut evaluated, mut accepted, mut infeasible, mut outer) = (0u64, 0u64, 0u64, 0u64);
    let (mut evals, mut sched, mut buffers) = (Vec::new(), Vec::new(), Vec::new());
    let mut incumbents = Vec::new();
    for &job in &rerun {
        let index = job.index;
        let system = &*inputs.systems[job.instance];
        let start = Instant::now();
        let root = tracer.open("rerun", index, None, start);
        let mut clock = StepClock::new(&mut tracer, index, root, start);
        let result = Synthesis::builder(system)
            .analysis(plan.analysis(job.instance))
            .strategy(run::strategy(&job))
            .budget(Budget::evals(plan::JOB_EVALS))
            .observer(&mut clock)
            .run();
        let end = Instant::now();
        let finished = clock.finished.unwrap_or(end);
        evaluated += clock.evaluated;
        accepted += clock.accepted;
        infeasible += clock.infeasible;
        outer += clock.outer_iterations;
        tracer.record("opt.finish", index, Some(root), finished, end);
        tracer.close_last_root(end);
        let report = result.map_err(|e| format!("rerun of job {index}: {e}"))?;
        evals.push(report.evaluations as f64);
        sched.push(f64::from(u8::from(report.best.is_schedulable())));
        buffers.push(report.best.total_buffers as f64);
        if plan.workload != Workload::Verify {
            incumbents.push((job, report.best));
        }
    }

    // Batches: on synth, the neighborhood of each rerun incumbent, where
    // OR's climb submitted its last batch; the other workloads submit none,
    // so their probed start configurations stand in.
    if plan.workload == Workload::Synth {
        for (job, best) in &incumbents {
            let k = job.instance;
            let (system, analysis) = (&inputs.systems[k], plan.analysis(k));
            probe::probe_batch(system, &analysis, &best.config, &mut layers)?;
        }
    } else {
        for k in 0..probe_n.min(plan.instances.len()) {
            let (system, analysis) = (&inputs.systems[k], plan.analysis(k));
            probe::probe_batch(system, &analysis, &inputs.starts[k], &mut layers)?;
        }
    }
    let steps: Vec<f64> = tracer
        .durations("opt.step")
        .iter()
        .map(|&d| us(d))
        .collect();
    let finish: Vec<f64> = tracer
        .durations("opt.finish")
        .iter()
        .map(|&d| ms(d))
        .collect();
    let attempts = (evaluated + infeasible).max(1) as f64;
    m.push(metric(
        "opt.evals_per_job",
        mean(&evals).unwrap_or(0.0),
        "count",
    ));
    m.push(metric("opt.step_us", med(&steps), "us"));
    m.push(metric(
        "opt.step_p90_us",
        quantile(&steps, 0.9).unwrap_or(0.0),
        "us",
    ));
    m.push(metric("opt.finish_ms", med(&finish), "ms"));
    m.push(metric(
        "opt.infeasible_frac",
        infeasible as f64 / attempts,
        "ratio",
    ));
    m.push(metric(
        "opt.accept_frac",
        accepted as f64 / evaluated.max(1) as f64,
        "ratio",
    ));
    m.push(metric(
        "opt.sched_frac",
        mean(&sched).unwrap_or(0.0),
        "ratio",
    ));
    m.push(metric(
        "opt.buffer_bytes_mean",
        mean(&buffers).unwrap_or(0.0),
        "bytes",
    ));

    m.push(metric("core.context_us", med(&layers.context_us), "us"));
    m.push(metric("core.cold_eval_ms", med(&layers.cold_eval_ms), "ms"));
    m.push(metric(
        "core.delta_eval_us",
        med(&layers.delta_eval_us),
        "us",
    ));
    let delta_p90 = quantile(&layers.delta_eval_us, 0.9).unwrap_or(0.0);
    m.push(metric("core.delta_eval_p90_us", delta_p90, "us"));
    m.push(metric("core.full_eval_us", med(&layers.full_eval_us), "us"));
    let (d, f) = layers.delta_passes;
    m.push(metric(
        "core.delta_pass_frac",
        d as f64 / (d + f).max(1) as f64,
        "ratio",
    ));
    m.push(metric(
        "core.outer_iters_mean",
        outer as f64 / evaluated.max(1) as f64,
        "count",
    ));
    let cands = layers.batch_candidates.max(1) as f64;
    m.push(metric(
        "core.batch_us_per_cand",
        us(layers.batch) / cands,
        "us",
    ));
    let speedup = layers.sequential.as_secs_f64() / layers.batch.as_secs_f64().max(1e-9);
    m.push(metric("core.batch_speedup", speedup, "x"));
    m.push(metric("core.outcome_us", med(&layers.outcome_us), "us"));
    m.push(metric("core.validate_us", med(&layers.validate_us), "us"));
    m.push(metric(
        "ttp.list_schedule_us",
        med(&layers.list_schedule_us),
        "us",
    ));
    m.push(metric("can.rta_us", med(&layers.can_rta_us), "us"));
    m.push(metric("rayon.dispatch_us", med(&layers.dispatch_us), "us"));

    // Simulation: the verify cells themselves; on the synthesis workloads
    // the rerun incumbents, simulated like a cell.
    let mut sims: Vec<run::CellResult> = traced
        .iter()
        .filter_map(|s| match s.output {
            Output::Cell(c) => Some(c),
            _ => None,
        })
        .collect();
    for (job, best) in &incumbents {
        let params = &plan.instances[job.instance];
        let presets = params.fault_presets();
        let (_, fault) = presets[job.index as usize % presets.len()];
        let mut result = run::CellResult::default();
        if best.is_schedulable() {
            let root = tracer.open("sim", job.index, None, Instant::now());
            let sim = SimParams {
                activations: plan::VERIFY_ACTIVATIONS,
                execution: ExecutionModel::RandomUniform,
                seed: plan::mix(job.index),
            };
            let faults = FaultPlan::new(fault, plan::mix(!job.index));
            result = run::simulate_legs(
                &inputs.systems[job.instance],
                best,
                &sim,
                &faults,
                Some((&mut tracer, root)),
            )?;
            tracer.close_last_root(Instant::now());
        }
        sims.push(result);
    }
    let nominal = tracer.durations("sim.nominal");
    let nominal_ms: Vec<f64> = nominal.iter().map(|&d| ms(d)).collect();
    let fault_ms: Vec<f64> = tracer
        .durations("sim.fault")
        .iter()
        .map(|&d| ms(d))
        .collect();
    let classify: Vec<f64> = tracer
        .durations("sim.classify")
        .iter()
        .map(|&d| us(d))
        .collect();
    let events: u64 = sims.iter().map(|c| c.sim_events).sum();
    let sim_time: f64 = nominal.iter().map(Duration::as_secs_f64).sum();
    let verified = sims.iter().filter(|c| c.verified).count() as f64;
    m.push(metric("sim.nominal_ms", med(&nominal_ms), "ms"));
    m.push(metric("sim.fault_ms", med(&fault_ms), "ms"));
    m.push(metric(
        "sim.events_per_s",
        events as f64 / sim_time.max(1e-9),
        "1/s",
    ));
    m.push(metric("sim.classify_us", med(&classify), "us"));
    m.push(metric(
        "sim.verified_frac",
        verified / sims.len().max(1) as f64,
        "ratio",
    ));

    let p50_untraced = median(&latencies_ms(untraced.iter().copied())).unwrap_or(0.0);
    let p50_traced = median(&latencies_ms(traced.iter().copied())).unwrap_or(0.0);
    let overhead = p50_traced / p50_untraced.max(1e-9) - 1.0;
    m.push(metric("trace.overhead_frac", overhead, "ratio"));

    // Reconciliation, per traced job of the workload: a cell's layer calls
    // against the cell's time; a synthesis job's `opt.run` against its
    // `serve.exec`.
    let reconciled = match plan.workload {
        Workload::Verify => "cell",
        Workload::Anneal | Workload::Synth => "serve.exec",
    };
    let unattributed: Vec<f64> = tracer
        .covered(reconciled)
        .into_iter()
        .map(|(_, total, covered)| 1.0 - covered.as_secs_f64() / total.as_secs_f64().max(1e-9))
        .collect();
    m.push(metric(
        "trace.unattributed_frac",
        mean(&unattributed).unwrap_or(0.0),
        "ratio",
    ));
    let off: Vec<f64> = unattributed.iter().map(|u| u.abs()).collect();
    notes.push(format!(
        "reconciled {} {reconciled} spans: {} within 10% (mean unattributed {:.2}%, \
         p99 |unattributed| {:.2}%)",
        off.len(),
        off.iter().filter(|&&u| u <= 0.10).count(),
        mean(&unattributed).unwrap_or(0.0) * 100.0,
        quantile(&off, 0.99).unwrap_or(0.0) * 100.0
    ));
    notes.push(format!(
        "untraced p50 {p50_untraced:.3} ms over {} jobs, traced p50 {p50_traced:.3} ms over {} \
         jobs of the same loop; {} spans",
        untraced.len(),
        traced.len(),
        tracer.spans.len()
    ));
    drop(inputs);
    Ok(Report {
        attempted: all.len() as u64,
        failed,
        failures,
        metrics: m,
        notes,
        host: HostReadings::default(),
        tracer: Some(tracer),
    })
}
