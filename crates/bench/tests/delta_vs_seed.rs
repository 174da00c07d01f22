//! Delta evaluation against the frozen seed implementation: walking a move
//! sequence through [`Evaluator::evaluate_delta`] must reproduce
//! [`mcs_bench::seed_baseline::seed_evaluate`] bit-for-bit after every move
//! — the seed path rebuilds everything from nothing per call, so agreement
//! here transitively anchors the whole delta machinery (per-iteration
//! timing, dirty cones, schedule diffs) to the original algorithm.

use mcs_bench::seed_baseline::seed_evaluate;
use mcs_core::{AnalysisParams, DeltaSeeds, Evaluator};
use mcs_gen::{generate, GeneratorParams};
use mcs_opt::{hopa_priorities, neighborhood, straightforward_config};

#[test]
fn delta_walk_matches_the_seed_implementation() {
    let analysis = AnalysisParams::default();
    for sys_seed in [3u64, 17] {
        let mut params = GeneratorParams::paper_sized(2, sys_seed);
        params.processes_per_node = 10;
        params.graphs = 6;
        params.inter_cluster_messages = Some(4);
        let system = generate(&params);
        let mut config = straightforward_config(&system);
        config.priorities = hopa_priorities(&system, &config.tdma);

        let mut delta = Evaluator::new(&system, analysis);
        let mut seeds = DeltaSeeds::new();
        delta.evaluate(&config).expect("analyzable");
        let mut current =
            mcs_opt::evaluate(&system, config.clone(), &analysis).expect("analyzable");

        for round in 0..25usize {
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
    }
}
