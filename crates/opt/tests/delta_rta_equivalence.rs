//! Directed and pinned tests of the delta path. The walk-based contract —
//! every evaluation path bit-identical to a fresh evaluation and to the
//! frozen seed oracle after every move — is checked by
//! `crates/bench/tests/evaluation_paths.rs`. The tests here pin what a
//! random walk rarely reaches or cannot state: the fallback for a priority
//! change that is not a permutation, the delta base a rejected
//! configuration leaves in place, the hand-built multi-rate Figure 4
//! scenario, the work split of a recorded Fig-9c SA trace, and a search
//! whose incumbent depends on the path under a wave budget some full pass
//! reaches.

use rand::{rngs::StdRng, Rng, SeedableRng};

use mcs_core::{
    AnalysisError, AnalysisOutcome, AnalysisParams, DeltaSeeds, EvalProfile, EvalSummary, Evaluator,
};
use mcs_gen::{figure4_multirate, generate, GeneratorParams, PeriodMultipliers};
use mcs_model::{MessageRoute, System, SystemConfig};
use mcs_opt::{
    evaluate, hopa_priorities, neighborhood, sa_start, straightforward_config, Budget, Move,
    MoveSampler, Sa, SaParams, Synthesis,
};

fn small_system(seed: u64) -> mcs_model::System {
    let mut p = GeneratorParams::paper_sized(2, seed);
    p.processes_per_node = 8;
    p.graphs = 4;
    p.inter_cluster_messages = Some(3);
    generate(&p)
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

/// A configuration `validate_config` rejects never reaches the analysis, so
/// the evaluator keeps the last one: `has_run` still holds, the outcome is
/// the previous configuration's, and that configuration stays the delta
/// base. SA relies on this: after an infeasible neighbour it samples pin
/// moves from the timing still held, and extends the state with seeds
/// relative to the last completed evaluation.
#[test]
fn a_rejected_configuration_keeps_the_last_analysis_and_delta_base() {
    let tables = |o: AnalysisOutcome| {
        let meta = (o.converged, o.iterations);
        let timing = (o.process_timing, o.message_timing, o.graph_response);
        (o.schedule, timing, o.queues, meta)
    };
    let system = small_system(42);
    let analysis = AnalysisParams::default();
    let mut config = straightforward_config(&system);
    config.priorities = hopa_priorities(&system, &config.tdma);
    let mut evaluator = Evaluator::new(&system, analysis);
    evaluator.evaluate(&config).expect("analyzable");
    let before = tables(evaluator.outcome());

    let mut rejected = config.clone();
    rejected.tdma.slots_mut()[0].capacity_bytes = 1;
    let error = evaluator
        .evaluate(&rejected)
        .expect_err("a 1-byte slot is invalid");
    assert!(matches!(error, AnalysisError::Config(_)), "{error:?}");
    assert!(evaluator.has_run());
    assert_eq!(tables(evaluator.outcome()), before);

    let current = evaluate(&system, config.clone(), &analysis).expect("analyzable");
    let mv = neighborhood(&system, &current)
        .into_iter()
        .find(|m| matches!(m, Move::SwapProcessPriorities(_, _)))
        .expect("a process priority swap");
    let mut seeds = DeltaSeeds::new();
    mv.apply_undoable_seeded(&mut config, &mut seeds);
    let warm = evaluator
        .evaluate_delta(&config, &seeds)
        .expect("analyzable");
    assert!(
        evaluator.profile().delta_passes > 0,
        "the swap did not extend the last analysis"
    );
    let fresh = evaluate(&system, config, &analysis).expect("analyzable");
    assert_eq!(
        (warm.degree, warm.total_buffers),
        (fresh.degree, fresh.total_buffers)
    );
    assert_eq!(tables(evaluator.outcome()), tables(fresh.outcome));
}

/// The hand-built multi-rate Figure 4 scenario: the worklist engine agrees
/// with the one-shot analysis on every configuration, and a priority-swap
/// delta between them stays bit-identical.
#[test]
fn figure4_multirate_full_and_delta_agree() {
    let fig = figure4_multirate(mcs_model::Time::from_millis(200));
    let analysis = AnalysisParams::default();
    let mut evaluator = Evaluator::new(&fig.system, analysis);
    for config in [&fig.config_a, &fig.config_b, &fig.config_c] {
        let summary = evaluator.evaluate(config).expect("analyzable");
        let oneshot =
            mcs_core::multi_cluster_scheduling(&fig.system, config, &analysis).expect("analyzable");
        assert_eq!(summary.converged, oneshot.converged);
        assert_eq!(evaluator.outcome().process_timing, oneshot.process_timing);
        assert_eq!(evaluator.outcome().message_timing, oneshot.message_timing);
        assert_eq!(evaluator.outcome().queues, oneshot.queues);
    }
    // (a) → (c) is the worked P2/P3 priority swap: drive it as a delta.
    evaluator.evaluate(&fig.config_a).expect("analyzable");
    let mut seeds = DeltaSeeds::new();
    seeds.push_process(mcs_gen::figure4_ids::P2);
    seeds.push_process(mcs_gen::figure4_ids::P3);
    let warm = evaluator
        .evaluate_delta(&fig.config_c, &seeds)
        .expect("analyzable");
    let fresh = evaluate(&fig.system, fig.config_c.clone(), &analysis).expect("analyzable");
    assert_eq!(warm.degree, fresh.degree);
    assert_eq!(warm.total_buffers, fresh.total_buffers);
    assert_eq!(
        evaluator.outcome().process_timing,
        fresh.outcome.process_timing
    );
    assert_eq!(
        evaluator.outcome().message_timing,
        fresh.outcome.message_timing
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
/// evaluator's work counters.
fn replay(
    system: &System,
    start: &SystemConfig,
    trace: &[(Move, bool)],
    delta: bool,
) -> (EvalSummary, EvalProfile) {
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
    (last, evaluator.profile())
}

/// The entities the holistic worklist analyzes: every ET process, every
/// CAN leg and every `Out_TTP` FIFO leg.
fn worklist_entities(system: &System) -> u64 {
    let app = &system.application;
    let et_procs = app
        .processes()
        .iter()
        .filter(|p| !system.architecture.is_tt_cpu(p.node()))
        .count();
    let legs: usize = app
        .messages()
        .iter()
        .map(|m| {
            let route = system.route(m.id());
            usize::from(route.uses_can()) + usize::from(route == MessageRoute::EtcToTtc)
        })
        .sum();
    (et_procs + legs) as u64
}

/// A 300-move SAS trace on the Fig-9c instance (160 processes, 10
/// inter-cluster messages), single-rate and `{1, 2, 4}` multi-rate: the
/// delta replay ends where the full one does, and the split of both
/// replays' holistic passes between the delta pass (extending the previous
/// evaluation), the chained pass (extending the previous outer iteration)
/// and the full fixed point stays where it was recorded. A change that
/// makes a restricted pass fall back more often, or restrict where it did
/// not, moves the split.
///
/// The worklist's waves and recomputations of both replays are pinned
/// too. On the single-rate instance every priority assignment of the trace
/// leaves the dependency graph acyclic, so the full replay runs exactly one
/// wave per full pass and visits every entity once per full pass, and a
/// chained pass runs at most one wave over its cone; a change to the
/// visiting order that loses that shows here first. So are the CPU and CAN
/// kernels' passes over their higher-priority prefixes (a kernel that loses
/// its early exit makes more) and the schedule memo's outcome per outer
/// iteration: hit, diffed rebuild or plain rebuild.
#[test]
fn fig9c_sa_trace_keeps_its_delta_pass_split() {
    /// (delta, chained, full) holistic passes.
    fn passes(p: EvalProfile) -> (u64, u64, u64) {
        (p.delta_passes, p.chained_passes, p.full_passes)
    }
    /// (waves, recomputations, CPU kernel passes, CAN kernel passes).
    fn work(p: EvalProfile) -> (u64, u64, u64, u64) {
        (
            p.waves,
            p.recomputations,
            p.cpu_kernel_passes,
            p.can_kernel_passes,
        )
    }
    /// (memo hits, diffed rebuilds, plain rebuilds).
    fn memo(p: EvalProfile) -> (u64, u64, u64) {
        (p.schedule_hits, p.schedule_diffs, p.schedule_rebuilds)
    }
    for (mut params, full_split, delta_split, full_work, delta_work, full_memo, delta_memo) in [
        (
            GeneratorParams::paper_sized(4, 1_000),
            (0, 300, 300),
            (265, 300, 35),
            (300, 36_300, 25_097, 11_966),
            (246, 14_756, 10_553, 4_707),
            (346, 0, 254),
            (346, 70, 184),
        ),
        (
            GeneratorParams::multi_rate(4, 1_000),
            (0, 123, 477),
            (448, 123, 29),
            (2_228, 142_191, 92_297, 46_212),
            (1_256, 55_663, 35_784, 18_113),
            (336, 0, 264),
            (336, 169, 95),
        ),
    ] {
        params.inter_cluster_messages = Some(10);
        let system = generate(&params);
        let start = sa_start(&system);
        let trace = sas_trace(&system, &start, 300);
        assert_eq!(trace.len(), 300);
        let (full, full_profile) = replay(&system, &start, &trace, false);
        let (delta, profile) = replay(&system, &start, &trace, true);
        assert_eq!(delta, full, "the delta replay drifted from the full one");
        assert_eq!(
            passes(full_profile),
            full_split,
            "(delta, chained, full) holistic passes of the full replay"
        );
        assert_eq!(
            passes(profile),
            delta_split,
            "(delta, chained, full) holistic passes of the delta replay"
        );
        if params.period_multipliers == PeriodMultipliers::SINGLE {
            let (full, chained) = (full_profile.full_passes, full_profile.chained_passes);
            let entities = worklist_entities(&system);
            assert!(
                (full..=full + chained).contains(&full_profile.waves),
                "one wave per full pass, at most one per chained pass"
            );
            assert!(
                (entities * full..=entities * (full + chained))
                    .contains(&full_profile.recomputations),
                "one recomputation per entity per full pass, at most one per chained pass"
            );
        }
        assert_eq!(
            work(full_profile),
            full_work,
            "(waves, recomputations, CPU and CAN kernel passes) of the full replay"
        );
        assert_eq!(
            work(profile),
            delta_work,
            "(waves, recomputations, CPU and CAN kernel passes) of the delta replay"
        );
        assert_eq!(
            memo(full_profile),
            full_memo,
            "(hits, diffed rebuilds, rebuilds) of the full replay's schedule memo"
        );
        assert_eq!(
            memo(profile),
            delta_memo,
            "(hits, diffed rebuilds, rebuilds) of the delta replay's schedule memo"
        );
    }
}

/// The evaluation paths agree only while no full pass stops at the wave
/// budget (`AnalysisParams::max_holistic_iterations`): a delta pass can
/// converge where the full pass it replaces stops short. This SAR run on a
/// multi-rate instance reaches such a pass under 4 waves, so its incumbent
/// depends on which evaluations took a restricted pass. The pins are the
/// incumbents of the paths as they stand; at 3 and 64 waves the paths
/// agree. Outer iterations chain only on acyclic visiting orders, where a
/// chained and a full pass both converge in one wave: chaining on this
/// instance's cyclic orders too moves the incumbent at 4 waves.
#[test]
fn a_search_under_a_reached_wave_budget_keeps_its_incumbent() {
    let mut params = GeneratorParams::multi_rate(4, 11_279_818_088_504_776_260);
    params.inter_cluster_messages = Some(10);
    let system = generate(&params);
    for (waves, incumbent) in [
        (3, (-67_346_662, 959)),
        (4, (-67_495_689, 986)),
        (64, (-67_321_894, 959)),
    ] {
        let analysis = AnalysisParams {
            max_holistic_iterations: waves,
            ..AnalysisParams::default()
        };
        let sa = SaParams {
            seed: 5_852_108_939_394_092_182,
            ..SaParams::default()
        };
        let report = Synthesis::builder(&system)
            .analysis(analysis)
            .strategy(Sa::resources(sa))
            .budget(Budget::evals(300))
            .run()
            .expect("SAR completes");
        let best = &report.best;
        assert_eq!(
            (best.schedule_cost(), best.total_buffers),
            incumbent,
            "(δΓ, s_total) of the incumbent under {waves} waves"
        );
    }
}
