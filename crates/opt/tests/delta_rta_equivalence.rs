//! The delta-RTA contract: interleaved [`Evaluator::evaluate_delta`] calls
//! must produce **bit-identical** results to a fresh full evaluation after
//! every move — δΓ, `s_total`, every per-entity timing, every queue bound,
//! the schedule tables and the convergence metadata — across generated
//! systems, random move sequences and random accept/reject decisions
//! (rejections exercise the seed accumulation across reverted moves).
//!
//! This is what licenses the dependency closure of `mcs_core::delta`: a
//! clean entity it fails to mark would silently drift the delta path away
//! from the full fixed point, and this suite would catch it.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

use mcs_core::{AnalysisParams, DeltaSeeds, EvalSummary, Evaluator};
use mcs_gen::{generate, GeneratorParams};
use mcs_model::{System, SystemConfig};
use mcs_opt::{
    evaluate, hopa_priorities, neighborhood, sa_start, straightforward_config, Move, MoveSampler,
    SaParams,
};

fn small_system(seed: u64) -> mcs_model::System {
    let mut p = GeneratorParams::paper_sized(2, seed);
    p.processes_per_node = 8;
    p.graphs = 4;
    p.inter_cluster_messages = Some(3);
    generate(&p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Walk a random move sequence with random accept/reject decisions.
    /// The delta evaluator accumulates seeds exactly like the search loops
    /// do: record the move's seeds on apply, clear them after a successful
    /// evaluation, record the undo's seeds when reverting a rejected or
    /// infeasible candidate. After every evaluation, the delta evaluator
    /// must agree with a fresh full evaluation down to the last bit.
    #[test]
    fn delta_evaluation_matches_fresh_evaluation(
        seed in 0u64..500,
        picks in proptest::collection::vec((0usize..1_000, any::<bool>()), 1..8),
    ) {
        let system = small_system(seed);
        let analysis = AnalysisParams::default();
        let mut config = straightforward_config(&system);
        config.priorities = hopa_priorities(&system, &config.tdma);

        let mut delta = Evaluator::new(&system, analysis);
        let mut seeds = DeltaSeeds::new();
        let mut current = evaluate(&system, config.clone(), &analysis).expect("analyzable");
        delta.evaluate(&config).expect("analyzable");
        for &(pick, accept) in &picks {
            let moves = neighborhood(&system, &current);
            prop_assume!(!moves.is_empty());
            let mv = moves[pick % moves.len()];
            let undo = mv.apply_undoable_seeded(&mut config, &mut seeds);

            let fresh = evaluate(&system, config.clone(), &analysis);
            let warm = delta.evaluate_delta(&config, &seeds);
            match (fresh, warm) {
                (Ok(fresh), Ok(summary)) => {
                    seeds.clear();
                    prop_assert_eq!(summary.degree, fresh.degree);
                    prop_assert_eq!(summary.total_buffers, fresh.total_buffers);
                    prop_assert_eq!(summary.converged, fresh.outcome.converged);
                    prop_assert_eq!(summary.iterations, fresh.outcome.iterations);
                    let outcome = delta.outcome();
                    prop_assert_eq!(&outcome.schedule, &fresh.outcome.schedule);
                    prop_assert_eq!(&outcome.process_timing, &fresh.outcome.process_timing);
                    prop_assert_eq!(&outcome.message_timing, &fresh.outcome.message_timing);
                    prop_assert_eq!(&outcome.queues, &fresh.outcome.queues);
                    prop_assert_eq!(&outcome.graph_response, &fresh.outcome.graph_response);
                    if accept {
                        current = fresh;
                        continue;
                    }
                }
                (Err(fresh), Err(warm)) => prop_assert_eq!(fresh, warm),
                (fresh, warm) => prop_assert!(
                    false,
                    "feasibility disagreement on {:?}: fresh {:?} vs delta {:?}", mv, fresh, warm
                ),
            }
            // Rejected or infeasible: revert in place, keeping the seeds
            // covering the distance to the evaluator's last analysis.
            undo.record_seeds(&mut seeds);
            undo.revert(&mut config);
        }
    }

    /// Re-evaluating the same configuration through the delta path (empty
    /// seed set) is a fixed point: summaries are identical call to call.
    #[test]
    fn repeated_delta_evaluation_is_stable(seed in 0u64..200) {
        let system = small_system(seed);
        let analysis = AnalysisParams::default();
        let mut config = straightforward_config(&system);
        config.priorities = hopa_priorities(&system, &config.tdma);
        let mut evaluator = Evaluator::new(&system, analysis);
        let first = evaluator.evaluate(&config).expect("analyzable");
        let seeds = DeltaSeeds::new();
        for _ in 0..3 {
            prop_assert_eq!(evaluator.evaluate_delta(&config, &seeds).expect("analyzable"), first);
        }
    }
}

/// Non-permutation priority changes (a process demoted to a *fresh* level
/// rather than swapped) perturb hp sets above the entity's new position —
/// outside the closure's priority bands — so `evaluate_delta` must detect
/// them and take the full path. Regression test for exactly that fallback.
#[test]
fn non_permutation_priority_change_falls_back_to_full() {
    let system = small_system(7);
    let analysis = AnalysisParams::default();
    let mut config = straightforward_config(&system);
    config.priorities = hopa_priorities(&system, &config.tdma);

    let mut delta = Evaluator::new(&system, analysis);
    delta.evaluate(&config).expect("analyzable");

    // Demote every prioritized ET process in turn to a fresh (unused)
    // priority level, seeding only that process — a legal use of the API
    // that is *not* a permutation of the base assignment.
    let app = &system.application;
    let mut fresh_level = 1_000_000u32;
    for p in app.processes() {
        let Some(old) = config.priorities.process(p.id()) else {
            continue;
        };
        fresh_level += 1;
        config
            .priorities
            .set_process(p.id(), mcs_model::Priority::new(fresh_level));
        let mut seeds = DeltaSeeds::new();
        seeds.push_process(p.id());

        let fresh = evaluate(&system, config.clone(), &analysis).expect("analyzable");
        let warm = delta.evaluate_delta(&config, &seeds).expect("analyzable");
        assert_eq!(
            warm.degree,
            fresh.degree,
            "δΓ drifted demoting {:?}",
            p.id()
        );
        assert_eq!(warm.total_buffers, fresh.total_buffers);
        assert_eq!(delta.outcome().process_timing, fresh.outcome.process_timing);
        assert_eq!(delta.outcome().message_timing, fresh.outcome.message_timing);
        let _ = old;
    }
}

/// Long deterministic walks over pure priority-swap sequences — the move
/// family the delta path accelerates — asserting both bit-identity and that
/// the delta fast path is actually taken (not just falling back).
#[test]
fn priority_swap_walk_stays_identical_and_hits_the_delta_path() {
    let system = small_system(42);
    let analysis = AnalysisParams::default();
    let mut config = straightforward_config(&system);
    config.priorities = hopa_priorities(&system, &config.tdma);

    let mut delta = Evaluator::new(&system, analysis);
    let mut seeds = DeltaSeeds::new();
    delta.evaluate(&config).expect("analyzable");
    let mut current = evaluate(&system, config.clone(), &analysis).expect("analyzable");

    for round in 0..40 {
        let moves: Vec<_> = neighborhood(&system, &current)
            .into_iter()
            .filter(|m| {
                matches!(
                    m,
                    mcs_opt::Move::SwapProcessPriorities(_, _)
                        | mcs_opt::Move::SwapMessagePriorities(_, _)
                )
            })
            .collect();
        assert!(!moves.is_empty(), "priority neighborhood must be nonempty");
        let mv = moves[(round * 7 + 3) % moves.len()];
        let undo = mv.apply_undoable_seeded(&mut config, &mut seeds);
        let fresh = evaluate(&system, config.clone(), &analysis).expect("analyzable");
        let warm = delta.evaluate_delta(&config, &seeds).expect("analyzable");
        seeds.clear();
        assert_eq!(warm.degree, fresh.degree, "δΓ drifted at round {round}");
        assert_eq!(warm.total_buffers, fresh.total_buffers);
        assert_eq!(warm.iterations, fresh.outcome.iterations);
        assert_eq!(delta.outcome().process_timing, fresh.outcome.process_timing);
        assert_eq!(delta.outcome().message_timing, fresh.outcome.message_timing);
        if round % 3 == 0 {
            current = fresh; // accept every third move
        } else {
            undo.record_seeds(&mut seeds);
            undo.revert(&mut config);
        }
    }
    let (delta_hits, full) = delta.delta_stats();
    assert!(
        delta_hits > 0,
        "the delta fast path was never taken ({delta_hits} delta vs {full} full)"
    );
}

/// Samples `len` SAS moves from `start`, each with the Metropolis decision
/// on δΓ that `SaParams::default()`'s temperature schedule and seed make —
/// the SAS loop, recorded so that two evaluation paths can replay it.
fn sas_trace(system: &System, start: &SystemConfig, len: usize) -> Vec<(Move, bool)> {
    let sa = SaParams::default();
    let mut rng = StdRng::seed_from_u64(sa.seed);
    let mut evaluator = Evaluator::new(system, AnalysisParams::default());
    let mut sampler = MoveSampler::new(system);
    let mut config = start.clone();
    let mut current = evaluator.evaluate(&config).expect("analyzable");
    let mut temperature = sa.initial_temperature;
    let mut trace = Vec::new();
    while trace.len() < len {
        let Some(mv) = sampler.sample(system, &config, &evaluator, &current, &mut rng) else {
            break;
        };
        let undo = mv.apply_undoable(&mut config);
        temperature *= sa.cooling;
        let accept = match evaluator.evaluate(&config) {
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
    trace
}

/// Replays `trace` from `start` through `evaluate_delta` (or, with `delta`
/// off, through `evaluate`), keeping accepted moves and reverting the rest
/// as the search loops do. Returns the last feasible summary and the
/// evaluator's `delta_stats()`.
fn replay(
    system: &System,
    start: &SystemConfig,
    trace: &[(Move, bool)],
    delta: bool,
) -> (EvalSummary, (u64, u64)) {
    let mut evaluator = Evaluator::new(system, AnalysisParams::default());
    let mut config = start.clone();
    let mut seeds = DeltaSeeds::new();
    let mut last = evaluator.evaluate(&config).expect("analyzable");
    for &(mv, accepted) in trace {
        let undo = mv.apply_undoable_seeded(&mut config, &mut seeds);
        let result = if delta {
            evaluator.evaluate_delta(&config, &seeds)
        } else {
            evaluator.evaluate(&config)
        };
        if let Ok(summary) = result {
            seeds.clear();
            last = summary;
            if accepted {
                continue;
            }
        }
        undo.record_seeds(&mut seeds);
        undo.revert(&mut config);
    }
    (last, evaluator.delta_stats())
}

/// A 300-move SAS trace on the Fig-9c instance (160 processes, 10
/// inter-cluster messages), single-rate and `{1, 2, 4}` multi-rate: the
/// delta replay ends where the full one does, and the split of its
/// holistic passes between the restricted delta pass and the full fixed
/// point stays where it was recorded. A change that makes the delta path
/// fall back more often, or restrict where it did not, moves the split.
#[test]
fn fig9c_sa_trace_keeps_its_delta_pass_split() {
    for (mut params, split) in [
        (GeneratorParams::paper_sized(4, 1_000), (528, 72)),
        (GeneratorParams::multi_rate(4, 1_000), (556, 44)),
    ] {
        params.inter_cluster_messages = Some(10);
        let system = generate(&params);
        let start = sa_start(&system);
        let trace = sas_trace(&system, &start, 300);
        assert_eq!(trace.len(), 300);
        let (full, _) = replay(&system, &start, &trace, false);
        let (delta, passes) = replay(&system, &start, &trace, true);
        assert_eq!(delta, full, "the delta replay drifted from the full one");
        assert_eq!(passes, split, "(delta, full) holistic passes");
    }
}
