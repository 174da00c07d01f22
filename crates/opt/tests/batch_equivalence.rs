//! Equivalence suite for the batched candidate-evaluation path that OS and
//! OR scan their neighborhoods with: a batch of candidates run through
//! [`Evaluator::evaluate_batch`] must be **bit-identical** to sequential
//! `evaluate_delta` calls from the same base state — which are themselves
//! bit-identical to full `evaluate` calls (the contract the
//! `delta_rta_equivalence` suite pins).
//!
//! Covered here:
//! * batch results vs a sequential delta trajectory and vs fresh full
//!   evaluations, across all four move families (slot swaps, slot resizes,
//!   priority swaps, φ pin/unpin);
//! * degenerate batches — width 1, duplicate candidates, infeasible
//!   members (slot capacity forced under the minimum) — and multi-rate
//!   instances;
//! * a scratch reused under other analysis parameters.

use proptest::prelude::*;

use mcs_core::{
    AnalysisError, AnalysisParams, BatchRequest, BatchScratch, DeltaSeeds, EvalProfile,
    EvalSummary, Evaluator,
};
use mcs_gen::{generate, GeneratorParams};
use mcs_model::{System, SystemConfig, TdmaConfig};
use mcs_opt::{evaluate, neighborhood, sa_start, Move};

fn small_system(seed: u64) -> System {
    let mut p = GeneratorParams::paper_sized(2, seed);
    p.processes_per_node = 8;
    p.graphs = 4;
    p.inter_cluster_messages = Some(3);
    generate(&p)
}

fn small_multirate(seed: u64) -> System {
    let mut p = GeneratorParams::multi_rate(2, seed);
    p.processes_per_node = 8;
    p.graphs = 4;
    p.inter_cluster_messages = Some(3);
    generate(&p)
}

/// A stride sample of the materialized neighborhood: covers every move
/// family the instance offers without evaluating thousands of candidates.
fn sampled_moves(system: &System, base: &SystemConfig, analysis: &AnalysisParams) -> Vec<Move> {
    let evaluation = evaluate(system, base.clone(), analysis).expect("base analyzable");
    let moves = neighborhood(system, &evaluation);
    let stride = (moves.len() / 24).max(1);
    moves.into_iter().step_by(stride).collect()
}

/// One [`BatchRequest`] per move: the base configuration with the move
/// applied, seeded with exactly the move's own entities (the base is the
/// evaluator's last completed analysis, so the carried seed set is empty).
fn requests_for(base: &SystemConfig, moves: &[Move]) -> Vec<BatchRequest> {
    moves
        .iter()
        .map(|mv| {
            let mut request = BatchRequest {
                config: base.clone(),
                seeds: DeltaSeeds::new(),
            };
            let _undo = mv.apply_undoable_seeded(&mut request.config, &mut request.seeds);
            request
        })
        .collect()
}

/// The sequential reference trajectory the batch replaces: one evaluator
/// walking the candidates with apply-style delta calls and SA-style seed
/// accumulation across the implicit reverts.
fn sequential_results(
    evaluator: &mut Evaluator<'_>,
    requests: &[BatchRequest],
) -> Vec<Result<EvalSummary, AnalysisError>> {
    let mut carried = DeltaSeeds::new();
    let mut seeds = DeltaSeeds::new();
    requests
        .iter()
        .map(|request| {
            seeds.clear();
            seeds.merge(&carried);
            seeds.merge(&request.seeds);
            let result = evaluator.evaluate_delta(&request.config, &seeds);
            // Reverting to `base` re-seeds the undone entities; carrying the
            // candidate's own seeds over-approximates that exactly like
            // `MoveUndo::record_seeds` would.
            if result.is_ok() {
                carried.clear();
            }
            carried.merge(&request.seeds);
            result
        })
        .collect()
}

/// A scratch reused by an evaluator of the same system under other analysis
/// parameters must not run the candidates on lanes built for the old ones.
#[test]
fn reused_scratch_follows_the_analysis_params() {
    let mut p = GeneratorParams::paper_sized(4, 11);
    p.inter_cluster_messages = Some(10);
    let system = generate(&p);
    let base = sa_start(&system);
    let first = AnalysisParams::default();
    let evaluation = evaluate(&system, base.clone(), &first).expect("base analyzable");
    let moves: Vec<Move> = neighborhood(&system, &evaluation)
        .into_iter()
        .take(16)
        .collect();
    let requests = requests_for(&base, &moves);
    let mut scratch = BatchScratch::new();
    let mut batched = Evaluator::new(&system, first);
    batched.evaluate(&base).expect("base analyzable");
    batched.evaluate_batch(&mut scratch, &requests);

    let second = AnalysisParams {
        max_outer_iterations: 1,
        ..first
    };
    let mut batched = Evaluator::new(&system, second);
    batched.evaluate(&base).expect("base analyzable");
    let results = batched.evaluate_batch(&mut scratch, &requests);
    let mut sequential = Evaluator::new(&system, second);
    sequential.evaluate(&base).expect("base analyzable");
    assert_eq!(results, sequential_results(&mut sequential, &requests));
}

/// The work an evaluator did between two of its profiles: delta passes,
/// full passes, waves, recomputations, CPU and CAN kernel passes, and the
/// schedule memo's hits, diffed rebuilds and plain rebuilds.
fn work(after: EvalProfile, before: EvalProfile) -> [u64; 9] {
    [
        after.delta_passes - before.delta_passes,
        after.full_passes - before.full_passes,
        after.waves - before.waves,
        after.recomputations - before.recomputations,
        after.cpu_kernel_passes - before.cpu_kernel_passes,
        after.can_kernel_passes - before.can_kernel_passes,
        after.schedule_hits - before.schedule_hits,
        after.schedule_diffs - before.schedule_diffs,
        after.schedule_rebuilds - before.schedule_rebuilds,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Batched evaluation is bit-identical to the sequential delta
    /// trajectory AND to fresh full evaluations, across the sampled
    /// neighborhood of the SA start configuration.
    #[test]
    fn batch_matches_sequential_and_full(seed in 0u64..100) {
        let system = small_system(seed);
        let analysis = AnalysisParams::default();
        let base = sa_start(&system);
        let moves = sampled_moves(&system, &base, &analysis);
        prop_assume!(!moves.is_empty());
        let requests = requests_for(&base, &moves);

        let mut sequential = Evaluator::new(&system, analysis);
        sequential.evaluate(&base).expect("base analyzable");
        let expected = sequential_results(&mut sequential, &requests);

        let mut batched = Evaluator::new(&system, analysis);
        batched.evaluate(&base).expect("base analyzable");
        let before = batched.profile();
        let mut scratch = BatchScratch::new();
        let results = batched.evaluate_batch(&mut scratch, &requests);

        prop_assert_eq!(&results, &expected);
        let [delta_passes, full_passes, ..] = work(batched.profile(), before);
        // The primary stamped its baseline in `evaluate(&base)`, so lanes
        // extend it for every non-structural candidate: the comparison
        // above really pits the delta path against the full one.
        if requests.iter().any(|r| !r.seeds.is_structural()) {
            prop_assert!(delta_passes > 0, "no lane took the delta path ({full_passes} full passes)");
        }

        // Each result — and each lane's work counters, folded into the
        // primary's aggregate — matches a from-base reference evaluator
        // making the very call the lane made.
        let mut reference_gain = [0u64; 9];
        for (request, result) in requests.iter().zip(&results) {
            let mut fresh = Evaluator::new(&system, analysis);
            fresh.evaluate(&base).expect("base analyzable");
            let start = fresh.profile();
            prop_assert_eq!(result, &fresh.evaluate_delta(&request.config, &request.seeds));
            for (sum, gain) in reference_gain.iter_mut().zip(work(fresh.profile(), start)) {
                *sum += gain;
            }
        }
        prop_assert_eq!(
            work(batched.profile(), before),
            reference_gain,
            "the folded work counters match the per-candidate references"
        );

        // Re-running a second (smaller) batch reuses the lanes.
        let second = &requests[..requests.len().div_ceil(2)];
        let lanes_before = scratch.lanes();
        let results = batched.evaluate_batch(&mut scratch, second);
        prop_assert_eq!(scratch.lanes(), lanes_before);
        for (request, result) in second.iter().zip(&results) {
            let mut fresh = Evaluator::new(&system, analysis);
            prop_assert_eq!(result, &fresh.evaluate(&request.config));
        }
    }

    /// Degenerate batches: width 1, duplicate members and infeasible
    /// members (a slot capacity forced below the minimum) all match the
    /// sequential results.
    #[test]
    fn degenerate_batches_match(seed in 0u64..100) {
        let system = small_system(seed);
        let analysis = AnalysisParams::default();
        let base = sa_start(&system);
        let moves = sampled_moves(&system, &base, &analysis);
        prop_assume!(!moves.is_empty());

        // Width 1.
        let single = requests_for(&base, &moves[..1]);
        let mut batched = Evaluator::new(&system, analysis);
        batched.evaluate(&base).expect("base analyzable");
        let mut scratch = BatchScratch::new();
        let results = batched.evaluate_batch(&mut scratch, &single);
        let mut sequential = Evaluator::new(&system, analysis);
        sequential.evaluate(&base).expect("base analyzable");
        prop_assert_eq!(
            &results[0],
            &sequential.evaluate_delta(&single[0].config, &single[0].seeds)
        );

        // Duplicates and an infeasible member, mixed into one batch: every
        // lane still matches a from-scratch full evaluation, and duplicate
        // candidates produce identical results.
        let mut mixed = requests_for(&base, &moves[..moves.len().min(4)]);
        mixed.push(mixed[0].clone());
        let mut starved = base.clone();
        let mut slots = starved.tdma.slots().to_vec();
        slots[0].capacity_bytes = 1;
        starved.tdma = TdmaConfig::new(slots);
        mixed.push(BatchRequest {
            config: starved,
            seeds: DeltaSeeds::structural(),
        });
        let results = batched.evaluate_batch(&mut scratch, &mixed);
        prop_assert_eq!(&results[0], &results[mixed.len() - 2]);
        for (request, result) in mixed.iter().zip(&results) {
            let mut fresh = Evaluator::new(&system, analysis);
            prop_assert_eq!(result, &fresh.evaluate(&request.config));
        }
    }

    /// The core equivalence holds on multi-rate ({1, 2, 4}) instances.
    #[test]
    fn batch_matches_on_multirate(seed in 0u64..40) {
        let system = small_multirate(seed);
        let analysis = AnalysisParams::default();
        let base = sa_start(&system);
        let moves = sampled_moves(&system, &base, &analysis);
        prop_assume!(!moves.is_empty());
        let requests = requests_for(&base, &moves);

        let mut sequential = Evaluator::new(&system, analysis);
        sequential.evaluate(&base).expect("base analyzable");
        let expected = sequential_results(&mut sequential, &requests);

        let mut batched = Evaluator::new(&system, analysis);
        batched.evaluate(&base).expect("base analyzable");
        let mut scratch = BatchScratch::new();
        let results = batched.evaluate_batch(&mut scratch, &requests);
        prop_assert_eq!(&results, &expected);
    }
}
