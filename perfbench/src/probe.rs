//! Layer probes of the traced run: each public layer call timed on its own,
//! from outside, on the workload's instances.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use mcs_can::CanFlow;
use mcs_core::{
    AnalysisOutcome, AnalysisParams, BatchRequest, BatchScratch, DeltaSeeds, Evaluator,
};
use mcs_model::{System, SystemConfig};
use mcs_opt::{Move, MoveSampler, OrParams, SaParams};
use mcs_ttp::{list_schedule, SchedulerInput};

use crate::measure::{ms, us};
use crate::plan::{Inputs, Plan};

/// Timings collected over the probed instances.
#[derive(Debug, Default)]
pub struct LayerTimes {
    /// `mcs_gen::generate`, µs.
    pub generate_us: Vec<f64>,
    /// `Evaluator::new`, µs.
    pub context_us: Vec<f64>,
    /// First `Evaluator::evaluate` on a fresh context, ms.
    pub cold_eval_ms: Vec<f64>,
    /// `mcs_core::validate_config`, µs.
    pub validate_us: Vec<f64>,
    /// `Evaluator::outcome`, µs.
    pub outcome_us: Vec<f64>,
    /// `mcs_can::queuing_delays` on the instance's CAN flow set, µs.
    pub can_rta_us: Vec<f64>,
    /// `evaluate_delta` per move of a recorded SA trace, µs.
    pub delta_eval_us: Vec<f64>,
    /// `evaluate` per move of the same trace, µs.
    pub full_eval_us: Vec<f64>,
    /// Holistic passes of the delta replays: (restricted, full).
    pub delta_passes: (u64, u64),
    /// `evaluate_batch` wall time, summed over batches.
    pub batch: Duration,
    /// The same candidates evaluated one by one from the same base.
    pub sequential: Duration,
    /// Candidates over all batches.
    pub batch_candidates: usize,
    /// `mcs_ttp::list_schedule` per structural candidate, µs.
    pub list_schedule_us: Vec<f64>,
    /// One empty two-lane parallel loop, µs.
    pub dispatch_us: Vec<f64>,
}

/// Repetitions of the sub-millisecond kernels (CAN analysis, dispatch).
const REPS: usize = 25;
/// Timed repetitions of each probed batch and of its sequential scan.
const REPS_BATCH: usize = 5;

/// Probes the first `instances` instances of `plan`, replaying an SA move
/// trace of `trace_len` moves on each. Batches are probed separately, by
/// [`probe_batch`].
///
/// # Errors
///
/// Fails if a start configuration cannot be analyzed.
pub fn probe_layers(
    plan: &Plan,
    inputs: &Inputs,
    instances: usize,
    trace_len: usize,
) -> Result<LayerTimes, String> {
    let mut t = LayerTimes::default();
    for k in 0..instances.min(plan.instances.len()) {
        let params = &plan.instances[k];
        let start = Instant::now();
        let generated = std::hint::black_box(mcs_gen::generate(params));
        t.generate_us.push(us(start.elapsed()));
        drop(generated);

        let system = &*inputs.systems[k];
        let config = &inputs.starts[k];
        let analysis = plan.analysis(k);

        let start = Instant::now();
        let valid = mcs_core::validate_config(system, config);
        t.validate_us.push(us(start.elapsed()));
        valid.map_err(|e| format!("instance {k}: {e}"))?;

        let start = Instant::now();
        let mut evaluator = Evaluator::new(system, analysis);
        t.context_us.push(us(start.elapsed()));
        let start = Instant::now();
        evaluator
            .evaluate(config)
            .map_err(|e| format!("instance {k}: {e}"))?;
        t.cold_eval_ms.push(ms(start.elapsed()));
        let start = Instant::now();
        let outcome = evaluator.outcome();
        t.outcome_us.push(us(start.elapsed()));

        probe_can(system, config, &analysis, &outcome, &mut t);
        probe_trace(system, config, &analysis, trace_len, &mut t)?;
    }
    for _ in 0..REPS * 4 {
        let mut lanes = [0u64; 2];
        let start = Instant::now();
        lanes.par_iter_mut().for_each(|x| *x += 1);
        t.dispatch_us.push(us(start.elapsed()));
        std::hint::black_box(lanes);
    }
    Ok(t)
}

/// Times the CAN queuing analysis on the instance's CAN flows, built from
/// the analyzed outcome (offsets, jitters, responses) and the
/// configuration's message priorities.
fn probe_can(
    system: &System,
    config: &SystemConfig,
    analysis: &AnalysisParams,
    outcome: &AnalysisOutcome,
    t: &mut LayerTimes,
) {
    let app = &system.application;
    let bus = system.architecture.can_params();
    let flows: Vec<CanFlow> = app
        .messages()
        .iter()
        .filter(|m| system.route(m.id()).uses_can())
        .filter_map(|m| {
            let timing = outcome.message_timing.get(&m.id())?.can?;
            Some(CanFlow {
                priority: config.priorities.message(m.id())?,
                period: app.message_period(m.id()),
                jitter: timing.jitter,
                offset: timing.offset,
                transaction: Some(m.graph().index() as u32),
                transmission: mcs_can::message_time(m.size_bytes(), &bus),
                size_bytes: m.size_bytes(),
                response: timing.response,
            })
        })
        .collect();
    if flows.is_empty() {
        return;
    }
    let horizon = app
        .hyperperiod()
        .saturating_mul(analysis.horizon_factor.max(1));
    for _ in 0..REPS {
        let start = Instant::now();
        std::hint::black_box(mcs_can::queuing_delays(&flows, horizon));
        t.can_rta_us.push(us(start.elapsed()));
    }
}

/// Records an SA move trace with a scout evaluator (the SAS acceptance
/// rule on δΓ), then replays it through `evaluate_delta` and through
/// `evaluate`, timing every call.
fn probe_trace(
    system: &System,
    start_config: &SystemConfig,
    analysis: &AnalysisParams,
    len: usize,
    t: &mut LayerTimes,
) -> Result<(), String> {
    let sa = SaParams::default();
    let mut rng = StdRng::seed_from_u64(sa.seed);
    let mut scout = Evaluator::new(system, *analysis);
    let mut sampler = MoveSampler::new(system);
    let mut config = start_config.clone();
    let mut current = scout.evaluate(&config).map_err(|e| e.to_string())?;
    let mut temperature = sa.initial_temperature;
    let mut trace: Vec<(Move, bool)> = Vec::new();
    while trace.len() < len {
        let Some(mv) = sampler.sample(system, &config, &scout, &current, &mut rng) else {
            break;
        };
        let undo = mv.apply_undoable(&mut config);
        temperature *= sa.cooling;
        let accept = match scout.evaluate(&config) {
            Ok(candidate) => {
                let delta = (candidate.schedule_cost() - current.schedule_cost()) as f64;
                let accept = delta <= 0.0
                    || rng.gen::<f64>() < (-delta / temperature.max(f64::MIN_POSITIVE)).exp();
                if accept {
                    current = candidate;
                }
                accept
            }
            Err(_) => false,
        };
        if !accept {
            undo.revert(&mut config);
        }
        trace.push((mv, accept));
    }

    for delta in [true, false] {
        let mut evaluator = Evaluator::new(system, *analysis);
        let mut config = start_config.clone();
        let mut seeds = DeltaSeeds::new();
        evaluator.evaluate(&config).map_err(|e| e.to_string())?;
        let times = if delta {
            &mut t.delta_eval_us
        } else {
            &mut t.full_eval_us
        };
        for &(mv, accepted) in &trace {
            let undo = mv.apply_undoable_seeded(&mut config, &mut seeds);
            let start = Instant::now();
            let result = if delta {
                evaluator.evaluate_delta(&config, &seeds)
            } else {
                evaluator.evaluate(&config)
            };
            times.push(us(start.elapsed()));
            if result.is_ok() {
                seeds.clear();
            }
            if result.is_err() || !accepted {
                undo.record_seeds(&mut seeds);
                undo.revert(&mut config);
            }
        }
        if delta {
            let (d, f) = evaluator.delta_stats();
            t.delta_passes.0 += d;
            t.delta_passes.1 += f;
        }
    }
    Ok(())
}

/// Times the batch an OR hill-climb iteration submits at `base`: its
/// neighborhood sampled exactly as [`Or`](mcs_opt::Or) samples it
/// (`neighbor_sample` of the default [`OrParams`], every `stride`-th
/// move), with no carried seeds. The batch goes through `evaluate_batch`,
/// through a sequential scan of the same candidates (`evaluate_delta`
/// with the carried-seed discipline the scans used before batching), and
/// every structural (TDMA) candidate through the list scheduler.
///
/// # Errors
///
/// Fails if `base` cannot be analyzed.
pub fn probe_batch(
    system: &System,
    analysis: &AnalysisParams,
    base: &SystemConfig,
    t: &mut LayerTimes,
) -> Result<(), String> {
    let mut evaluator = Evaluator::new(system, *analysis);
    let anchor = mcs_opt::evaluate(system, base.clone(), analysis).map_err(|e| e.to_string())?;
    let neighbors = mcs_opt::neighborhood(system, &anchor);
    if neighbors.is_empty() {
        return Ok(());
    }
    let stride = (neighbors.len() / OrParams::default().neighbor_sample.max(1)).max(1);
    let moves: Vec<Move> = neighbors.into_iter().step_by(stride).collect();
    let requests: Vec<BatchRequest> = moves
        .iter()
        .map(|mv| {
            let mut request = BatchRequest {
                config: base.clone(),
                seeds: DeltaSeeds::new(),
            };
            let _undo = mv.apply_undoable_seeded(&mut request.config, &mut request.seeds);
            request
        })
        .collect();

    // An untimed first round builds the lanes; then the batch and the scan
    // alternate, each from the same base, and their medians count.
    let mut scratch = BatchScratch::new();
    let (mut batch, mut sequential) = (Vec::new(), Vec::new());
    for round in 0..=REPS_BATCH {
        evaluator.evaluate(base).map_err(|e| e.to_string())?;
        let start = Instant::now();
        std::hint::black_box(evaluator.evaluate_batch(&mut scratch, &requests));
        let batch_time = start.elapsed();

        // Each rejected candidate is reverted and its undo seeds carried
        // into the next evaluation, as a sequential scan does.
        let mut scan = base.clone();
        let mut carried = DeltaSeeds::new();
        let mut scan_time = Duration::ZERO;
        for mv in &moves {
            let undo = mv.apply_undoable_seeded(&mut scan, &mut carried);
            let start = Instant::now();
            let result = std::hint::black_box(evaluator.evaluate_delta(&scan, &carried));
            scan_time += start.elapsed();
            if result.is_ok() {
                carried.clear();
            }
            undo.record_seeds(&mut carried);
            undo.revert(&mut scan);
        }
        if round > 0 {
            batch.push(batch_time);
            sequential.push(scan_time);
        }
    }
    batch.sort();
    sequential.sort();
    t.batch += batch[batch.len() / 2];
    t.sequential += sequential[sequential.len() / 2];
    t.batch_candidates += requests.len();

    let none_p = HashMap::new();
    let none_m = HashMap::new();
    for request in requests.iter().filter(|r| r.seeds.is_structural()) {
        let input = SchedulerInput {
            system,
            tdma: &request.config.tdma,
            process_releases: &none_p,
            message_releases: &none_m,
        };
        let start = Instant::now();
        let schedule = list_schedule(&input);
        let elapsed = start.elapsed();
        if schedule.is_ok() {
            t.list_schedule_us.push(us(elapsed));
        }
    }
    Ok(())
}
