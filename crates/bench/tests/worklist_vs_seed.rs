//! Worklist engine vs the frozen baseline on **multi-period** instances:
//! move walks through both seedings of the unified engine
//! ([`Evaluator::evaluate`] and [`Evaluator::evaluate_delta`]) must
//! reproduce the frozen seed implementation bit-for-bit after every move.
//! The single-period anchor lives in `delta_vs_seed.rs` (untouched); this
//! suite extends the anchor to the multi-rate application model the
//! value-driven worklist exploits.

use mcs_bench::seed_baseline::seed_evaluate;
use mcs_core::{AnalysisParams, DeltaSeeds, Evaluator};
use mcs_gen::{generate, GeneratorParams, PeriodMultipliers};
use mcs_opt::{hopa_priorities, neighborhood, straightforward_config};

#[test]
fn multiperiod_walk_matches_the_frozen_baselines() {
    let analysis = AnalysisParams::default();
    for sys_seed in [5u64, 23] {
        let mut params = GeneratorParams::paper_sized(2, sys_seed);
        params.processes_per_node = 10;
        params.graphs = 6;
        params.inter_cluster_messages = Some(4);
        params.period_multipliers = PeriodMultipliers::new(&[1, 2, 4]);
        let system = generate(&params);
        let mut config = straightforward_config(&system);
        config.priorities = hopa_priorities(&system, &config.tdma);

        let mut delta = Evaluator::new(&system, analysis);
        let mut seeds = DeltaSeeds::new();
        delta.evaluate(&config).expect("analyzable");
        let mut current =
            mcs_opt::evaluate(&system, config.clone(), &analysis).expect("analyzable");

        for round in 0..20usize {
            let moves = neighborhood(&system, &current);
            assert!(!moves.is_empty());
            let mv = moves[(round * 13 + sys_seed as usize) % moves.len()];
            let undo = mv.apply_undoable_seeded(&mut config, &mut seeds);

            let seed_result = seed_evaluate(&system, config.clone(), &analysis);
            let warm = delta.evaluate_delta(&config, &seeds);
            match (seed_result, warm) {
                (Ok((degree, buffers, outcome)), Ok(summary)) => {
                    seeds.clear();
                    assert_eq!(summary.degree, degree, "δΓ drifted at round {round}");
                    assert_eq!(summary.total_buffers, buffers);
                    assert_eq!(summary.converged, outcome.converged);
                    assert_eq!(summary.iterations, outcome.iterations);
                    let warm_outcome = delta.outcome();
                    assert_eq!(warm_outcome.schedule, outcome.schedule);
                    assert_eq!(warm_outcome.process_timing, outcome.process_timing);
                    assert_eq!(warm_outcome.message_timing, outcome.message_timing);
                    assert_eq!(warm_outcome.queues, outcome.queues);
                    assert_eq!(warm_outcome.graph_response, outcome.graph_response);
                    if round % 2 == 0 {
                        current = mcs_opt::evaluate(&system, config.clone(), &analysis)
                            .expect("analyzable");
                        continue; // accept
                    }
                }
                (Err(seed_err), Err(warm_err)) => assert_eq!(seed_err, warm_err),
                (seed_result, warm) => panic!(
                    "feasibility disagreement on {mv:?}: seed {seed_result:?} vs delta {warm:?}"
                ),
            }
            undo.record_seeds(&mut seeds);
            undo.revert(&mut config);
        }
        let (delta_hits, full) = delta.delta_stats();
        assert!(
            delta_hits > 0,
            "delta seeding never taken on the multi-period walk \
             ({delta_hits} delta vs {full} full)"
        );
    }
}
