//! The evaluator's bit-identity contract, stated and checked in one place.
//!
//! `MultiClusterScheduling` (Fig. 5 of the paper) is computed by five paths
//! that must agree bit for bit: a fresh [`mcs_opt::evaluate`]; a carried
//! [`Evaluator::evaluate`], whose memo, tables and validation skip outlive
//! each call; [`Evaluator::evaluate_delta`] with the seeds a search loop
//! carries; [`Evaluator::evaluate_batch`] at however many lanes rayon runs
//! (`RAYON_NUM_THREADS=1` gives one); and the frozen [`seed_evaluate`]. The
//! seed keeps none of the evaluator's tables, memos or shortcuts, so a bug in
//! one that every live path reads (the validation skip, the CAN blocking
//! table) shows only against it.
//!
//! This is differential testing in McKeeman's sense (*Differential testing
//! for software*, 1998): one seeded walk generator and one step checker that
//! runs every path at every step. The walks visit single- and multi-rate
//! instances at 2, 4 and 8 nodes, each under two [`AnalysisParams`] that
//! share one [`BatchScratch`]. A step draws a move family uniformly among
//! those present, or a no-op that re-evaluates the unchanged configuration,
//! then a move within it, and accepts or rejects it at random. Infeasible
//! moves are kept, and seeds are carried across reverts as the search loops
//! carry them. A failure names the seed, instance, params and step;
//! `walk_instance` replays it.

use std::collections::HashMap;

use rand::{rngs::StdRng, Rng, SeedableRng};

use mcs_bench::seed_baseline::seed_evaluate;
use mcs_core::{
    AnalysisError, AnalysisOutcome, AnalysisParams, BatchRequest, BatchScratch, DeltaSeeds,
    EntityTiming, EvalProfile, EvalSummary, Evaluator, FifoBound, MessageTiming, QueueBounds,
    SchedulabilityDegree,
};
use mcs_gen::{generate, GeneratorParams};
use mcs_model::{GraphId, MessageId, ProcessId, System, SystemConfig, Time};
use mcs_opt::{evaluate, neighborhood, sa_start, Evaluation, Move};
use mcs_ttp::TtcSchedule;

/// Steps per walk, after the start configuration.
const STEPS: usize = 12;

/// The move families a step draws from, by index: slot swaps, slot
/// resizes, process and message priority swaps, process and message pins,
/// and the no-op.
const NO_OP: usize = 6;

fn family(mv: &Move) -> usize {
    match mv {
        Move::SwapSlots(..) => 0,
        Move::ResizeSlot(..) => 1,
        Move::SwapProcessPriorities(..) => 2,
        Move::SwapMessagePriorities(..) => 3,
        Move::PinProcess(..) | Move::UnpinProcess(_) => 4,
        Move::PinMessage(..) | Move::UnpinMessage(_) => 5,
    }
}

/// Draws a family uniformly among those present in `moves` (bucketed by
/// family), or the no-op if `no_op`, then a move within it. `None` is the
/// no-op.
fn draw(moves: &[Vec<Move>], rng: &mut StdRng, no_op: bool) -> Option<Move> {
    let present: Vec<&Vec<Move>> = moves.iter().filter(|f| !f.is_empty()).collect();
    let family = present.get(rng.gen_range(0..present.len() + usize::from(no_op)))?;
    Some(family[rng.gen_range(0..family.len())])
}

/// What one path reports for one configuration.
struct Report {
    summary: EvalSummary,
    /// The outcome's own `(converged, iterations)`.
    meta: (bool, u32),
    schedule: TtcSchedule,
    process_timing: HashMap<ProcessId, EntityTiming>,
    message_timing: HashMap<MessageId, MessageTiming>,
    queues: QueueBounds,
    graph_response: HashMap<GraphId, Time>,
}

impl Report {
    /// The report of a path that returns only the costs beside the outcome.
    fn of(degree: SchedulabilityDegree, total_buffers: u64, o: AnalysisOutcome) -> Self {
        let (converged, iterations) = (o.converged, o.iterations);
        let summary = EvalSummary {
            degree,
            total_buffers,
            converged,
            iterations,
        };
        Report::new(summary, o)
    }

    fn new(summary: EvalSummary, o: AnalysisOutcome) -> Self {
        Report {
            summary,
            meta: (o.converged, o.iterations),
            schedule: o.schedule,
            process_timing: o.process_timing,
            message_timing: o.message_timing,
            queues: o.queues,
            graph_response: o.graph_response,
        }
    }
}

/// Asserts that `path` reported what the fresh evaluation did, naming the
/// first table that differs.
fn assert_same(
    at: &str,
    path: &str,
    got: &Result<Report, AnalysisError>,
    want: &Result<Report, AnalysisError>,
) {
    let (Ok(got), Ok(want)) = (got, want) else {
        let (got, want) = (got.as_ref().err(), want.as_ref().err());
        assert_eq!(got, want, "{at}: {path} differs from fresh on the error");
        return;
    };
    assert_eq!(got.summary, want.summary, "{at}: {path} differs from fresh");
    for (table, same) in [
        ("meta", got.meta == want.meta),
        ("schedule", got.schedule == want.schedule),
        ("process timing", got.process_timing == want.process_timing),
        ("message timing", got.message_timing == want.message_timing),
        ("queue bounds", got.queues == want.queues),
        ("graph responses", got.graph_response == want.graph_response),
    ] {
        assert!(same, "{at}: {path} differs from fresh on the {table}");
    }
}

/// The work an evaluator did between two of its profiles.
fn work(after: EvalProfile, before: EvalProfile) -> EvalProfile {
    EvalProfile {
        delta_passes: after.delta_passes - before.delta_passes,
        chained_passes: after.chained_passes - before.chained_passes,
        full_passes: after.full_passes - before.full_passes,
        waves: after.waves - before.waves,
        recomputations: after.recomputations - before.recomputations,
        cpu_kernel_passes: after.cpu_kernel_passes - before.cpu_kernel_passes,
        can_kernel_passes: after.can_kernel_passes - before.can_kernel_passes,
        schedule_hits: after.schedule_hits - before.schedule_hits,
        schedule_diffs: after.schedule_diffs - before.schedule_diffs,
        schedule_rebuilds: after.schedule_rebuilds - before.schedule_rebuilds,
    }
}

/// The schedule memo's outcomes: one per outer iteration.
fn memo_outcomes(p: &EvalProfile) -> u64 {
    p.schedule_hits + p.schedule_diffs + p.schedule_rebuilds
}

/// The [`EvalProfile`] invariants of one call that did `w`; `full` for
/// [`Evaluator::evaluate`].
fn assert_profile(
    at: &str,
    path: &str,
    got: &Result<Report, AnalysisError>,
    w: EvalProfile,
    full: bool,
) {
    let Ok(report) = got else {
        return;
    };
    let iterations = u64::from(report.summary.iterations);
    assert_eq!(memo_outcomes(&w), iterations, "{at}: {path}: memo outcomes");
    let passes = w.delta_passes + w.chained_passes + w.full_passes;
    assert!(
        (1..=iterations).contains(&passes),
        "{at}: {path}: {passes} holistic passes over {iterations} outer iterations"
    );
    assert!(
        w.chained_passes < iterations,
        "{at}: {path}: {} chained passes over {iterations} outer iterations",
        w.chained_passes
    );
    if full {
        assert_eq!(
            w.delta_passes + w.schedule_diffs,
            0,
            "{at}: {path}: delta work"
        );
    }
}

/// Counts over a whole run.
#[derive(Default)]
struct Tally {
    steps: usize,
    families: [usize; NO_OP + 1],
    /// Delta passes of the delta path, per rate class (single, multi).
    delta_passes: [u64; 2],
    /// Chained passes of the carried and delta paths, per rate class.
    chained_passes: [u64; 2],
}

/// One walk's evaluators, configuration and carried seeds.
struct Walk<'s> {
    system: &'s System,
    params: AnalysisParams,
    /// The rate class's index in [`Tally::delta_passes`].
    rate: usize,
    carried: Evaluator<'s>,
    /// The delta path's evaluator, also the primary of every batch.
    delta: Evaluator<'s>,
    /// The accepted configuration and its fresh evaluation.
    config: SystemConfig,
    current: Evaluation,
    /// Seeds covering the difference between `config` and the delta
    /// evaluator's base, its last validated configuration.
    seeds: DeltaSeeds,
}

impl<'s> Walk<'s> {
    /// Runs the four sequential paths on the walk's configuration, checks
    /// them against the fresh evaluation and returns it.
    fn check_paths(&mut self, at: &str, tally: &mut Tally) -> Result<Evaluation, AnalysisError> {
        let (system, config, params) = (self.system, &self.config, &self.params);
        let fresh = evaluate(system, config.clone(), params);
        let want = fresh.as_ref().map_err(Clone::clone);
        let want = want.map(|e| Report::of(e.degree, e.total_buffers, e.outcome.clone()));
        let oracle = seed_evaluate(system, config.clone(), params)
            .map(|(degree, buffers, o)| Report::of(degree, buffers, o));
        assert_same(at, "the seed oracle", &oracle, &want);

        let before = self.carried.profile();
        let got = self.carried.evaluate(config);
        let got = got.map(|s| Report::new(s, self.carried.outcome()));
        assert_same(at, "the carried evaluate", &got, &want);
        let w = work(self.carried.profile(), before);
        assert_profile(at, "evaluate", &got, w, true);
        tally.chained_passes[self.rate] += w.chained_passes;

        let before = self.delta.profile();
        let got = self.delta.evaluate_delta(config, &self.seeds);
        let got = got.map(|s| Report::new(s, self.delta.outcome()));
        assert_same(at, "evaluate_delta", &got, &want);
        let w = work(self.delta.profile(), before);
        assert_profile(at, "evaluate_delta", &got, w, false);
        tally.delta_passes[self.rate] += w.delta_passes;
        tally.chained_passes[self.rate] += w.chained_passes;
        fresh
    }

    /// Evaluates 1–4 sibling moves of the walk's configuration, each
    /// giving a configuration different from it and from the others, with
    /// the carried seeds, as one batch on the delta evaluator's state, and
    /// checks every member against a fresh evaluation. `first`: the walk's
    /// first step, where that state is a fresh evaluator's after
    /// `evaluate(start)`.
    fn check_batch(
        &mut self,
        scratch: &mut BatchScratch<'s>,
        moves: &[Vec<Move>],
        rng: &mut StdRng,
        first: bool,
        at: &str,
    ) {
        let width = rng.gen_range(1..=4);
        let mut requests: Vec<BatchRequest> = Vec::new();
        for _ in 0..4 * width {
            let Some(mv) = draw(moves, rng, false) else {
                break;
            };
            let mut request = BatchRequest {
                config: self.config.clone(),
                seeds: self.seeds.clone(),
            };
            mv.apply_undoable_seeded(&mut request.config, &mut request.seeds);
            if request.config != self.config && requests.iter().all(|r| r.config != request.config)
            {
                requests.push(request);
            }
            if requests.len() == width {
                break;
            }
        }
        // A lane that runs a member twice may hit its own memo the second
        // time, so only the steps that bound the counters repeat one.
        if !first && !requests.is_empty() {
            requests.push(requests[rng.gen_range(0..requests.len())].clone());
        }

        let before = self.delta.profile();
        let results = self.delta.evaluate_batch(scratch, &requests);
        let folded = work(self.delta.profile(), before);
        assert!(
            scratch.lanes() <= rayon::current_num_threads(),
            "{at}: more batch lanes than workers"
        );
        for (i, (request, result)) in requests.iter().zip(&results).enumerate() {
            let fresh = evaluate(self.system, request.config.clone(), &self.params);
            let fresh = fresh.map(|e| Report::of(e.degree, e.total_buffers, e.outcome).summary);
            assert_eq!(
                result,
                &fresh,
                "{at}: batch member {i} of {} and its fresh evaluation",
                requests.len()
            );
        }

        if first {
            let mut reference = EvalProfile::default();
            for request in &requests {
                let mut fresh = Evaluator::new(self.system, self.params);
                fresh.evaluate(&self.config).expect("analyzable start");
                let before = fresh.profile();
                let _ = fresh.evaluate_delta(&request.config, &request.seeds);
                reference += work(fresh.profile(), before);
            }
            assert_eq!(
                folded, reference,
                "{at}: the batch's folded work counters and the per-member references"
            );
        } else {
            let ok = u64::from(results.iter().flatten().map(|s| s.iterations).sum::<u32>());
            let errs = results.iter().filter(|r| r.is_err()).count() as u64;
            let most = ok + errs * u64::from(self.params.max_outer_iterations.max(1));
            let memo = memo_outcomes(&folded);
            assert!(
                (ok..=most).contains(&memo),
                "{at}: the batch folded {memo} memo outcomes, not in {ok}..={most}"
            );
        }
    }

    /// Step `k`: a batch of siblings, then a drawn move (or the no-op)
    /// through every sequential path, accepted or rejected at random.
    fn step(
        &mut self,
        scratch: &mut BatchScratch<'s>,
        rng: &mut StdRng,
        k: usize,
        at: &str,
        tally: &mut Tally,
    ) {
        let at = format!("{at}, step {k}");
        let mut moves = vec![Vec::new(); NO_OP];
        for mv in neighborhood(self.system, &self.current) {
            moves[family(&mv)].push(mv);
        }
        self.check_batch(scratch, &moves, rng, k == 0, &at);
        let mv = draw(&moves, rng, true);
        tally.steps += 1;
        tally.families[mv.as_ref().map_or(NO_OP, family)] += 1;
        let undo = mv.map(|mv| mv.apply_undoable_seeded(&mut self.config, &mut self.seeds));
        let result = self.check_paths(&at, tally);
        let accept = rng.gen::<bool>();
        if let Ok(evaluation) = result {
            self.seeds.clear();
            if accept || undo.is_none() {
                self.current = evaluation;
                return;
            }
        }
        if let Some(undo) = undo {
            undo.record_seeds(&mut self.seeds);
            undo.revert(&mut self.config);
        }
    }
}

/// Walks one generated instance, scaled down to 8 processes per node, under
/// both analysis parameter sets, which share one batch scratch. Every
/// choice comes from one RNG seeded by `seed`.
fn walk_instance(multi_rate: bool, nodes: usize, seed: u64, tally: &mut Tally) {
    let (rate, mut p) = if multi_rate {
        ("multi_rate", GeneratorParams::multi_rate(nodes, seed))
    } else {
        ("paper_sized", GeneratorParams::paper_sized(nodes, seed))
    };
    p.processes_per_node = 8;
    p.graphs = 2 * nodes;
    p.inter_cluster_messages = Some(nodes + 1);
    let system = generate(&p);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = BatchScratch::new();
    let closed_form = AnalysisParams {
        fifo_bound: FifoBound::PaperClosedForm,
        max_outer_iterations: 2,
        ..AnalysisParams::default()
    };
    for (label, params) in [
        ("default params", AnalysisParams::default()),
        ("closed-form FIFO bound, 2 outer iterations", closed_form),
    ] {
        let at = format!("seed {seed}, {rate}({nodes} nodes), {label}");
        let config = sa_start(&system);
        let mut walk = Walk {
            system: &system,
            params,
            rate: usize::from(multi_rate),
            carried: Evaluator::new(&system, params),
            delta: Evaluator::new(&system, params),
            current: evaluate(&system, config.clone(), &params).expect("analyzable start"),
            config,
            seeds: DeltaSeeds::new(),
        };
        walk.check_paths(&format!("{at}, start"), tally)
            .expect("analyzable start");
        for k in 0..STEPS {
            walk.step(&mut scratch, &mut rng, k, &at, tally);
        }
    }
}

#[test]
fn every_evaluation_path_agrees_along_seeded_walks() {
    let mut tally = Tally::default();
    for multi_rate in [false, true] {
        for (nodes, seeds) in [(2, 12), (4, 12), (8, 4)] {
            for seed in 0..seeds {
                walk_instance(multi_rate, nodes, seed, &mut tally);
            }
        }
    }
    assert!(tally.steps >= 1_000, "{} steps", tally.steps);
    let families = tally.families;
    assert!(
        families.iter().all(|&n| n > 0),
        "steps per family: {families:?}"
    );
    let passes = tally.delta_passes;
    assert!(
        passes.iter().all(|&n| n > 0),
        "delta passes per rate: {passes:?}"
    );
    // Single-rate visiting orders are acyclic, so their later outer
    // iterations chain.
    let chained = tally.chained_passes;
    assert!(chained[0] > 0, "chained passes per rate: {chained:?}");
}
