//! End-to-end integration: generate → synthesize → analyze → simulate,
//! across the full crate stack, driven through the `mcs::prelude` and the
//! `Synthesis` front door.

use std::sync::Arc;

use mcs::core::degree_of_schedulability;
use mcs::prelude::*;
use mcs::sim::{simulate, SimParams};

fn run<S: Strategy>(system: &System, strategy: S) -> SynthesisReport {
    Synthesis::builder(system)
        .analysis(AnalysisParams::default())
        .strategy(strategy)
        .run()
        .expect("the start configuration is analyzable")
}

#[test]
fn full_pipeline_on_a_generated_system() {
    let system = generate(&GeneratorParams::paper_sized(2, 3));

    // SF baseline and OS heuristic.
    let sf = run(&system, Sf);
    let os = run(&system, Os::new(OsParams::default()));
    assert!(os.best.schedule_cost() <= sf.best.schedule_cost());

    // OR never loses schedulability nor worsens the buffers.
    let or = run(&system, Or::new(OrParams::default()));
    if os.best.is_schedulable() {
        assert!(or.best.is_schedulable());
        assert!(or.best.total_buffers <= os.best.total_buffers);

        // The synthesized configuration survives simulation (the report
        // already carries the materialized analysis outcome).
        let report = simulate(
            &system,
            &or.best.config,
            &or.best.outcome,
            &SimParams::default(),
        )
        .expect("simulable");
        assert!(report
            .soundness_violations(&system, &or.best.outcome)
            .is_empty());
    }
}

#[test]
fn cruise_controller_reproduces_the_paper_shape() {
    let cc = cruise_controller();
    let graph = cc.system.application.graphs()[0].id();

    // Paper: SF misses the 250 ms deadline, OS meets it.
    let sf = run(&cc.system, Sf);
    assert!(!sf.best.is_schedulable(), "SF must miss (paper: 320 ms)");
    let mut or_strategy = Or::new(OrParams::default());
    let or = run(&cc.system, &mut or_strategy);
    let details = or_strategy.take_details().expect("details recorded");
    assert!(
        details.os_best.is_schedulable(),
        "OS must meet (paper: 185 ms)"
    );
    assert!(details.os_best.outcome.graph_response(graph) < sf.best.outcome.graph_response(graph));
    // Paper: OR reduces the buffer need (24 % there) and stays close to SAR.
    assert!(or.best.total_buffers < details.os_best.total_buffers);
    let sar = run(
        &cc.system,
        Sa::resources(SaParams {
            iterations: 300,
            seed: 1,
            ..SaParams::default()
        }),
    );
    assert!(sar.best.is_schedulable());
    // OR within 25 % of the SAR reference (paper: 6 %).
    let or_b = or.best.total_buffers as f64;
    let sar_b = sar.best.total_buffers as f64;
    assert!(or_b <= sar_b * 1.25, "OR {or_b} too far from SAR {sar_b}");
}

#[test]
fn figure4_shape_holds_end_to_end() {
    let fig = figure4(Time::from_millis(240));
    let analysis = AnalysisParams::default();
    let eval = |config: &SystemConfig| {
        mcs::opt::evaluate(&fig.system, config.clone(), &analysis).expect("analyzable")
    };
    let a = eval(&fig.config_a);
    let b = eval(&fig.config_b);
    let c = eval(&fig.config_c);
    assert!(!a.is_schedulable());
    assert!(b.is_schedulable());
    assert!(c.is_schedulable());
    // OS must do at least as well as the best hand configuration.
    let os = run(&fig.system, Os::new(OsParams::default()));
    assert!(os.best.is_schedulable());
    assert!(os.best.schedule_cost() <= c.schedule_cost().max(b.schedule_cost()));
}

#[test]
fn deterministic_pipeline_results_across_runs() {
    let once = || {
        let system = generate(&GeneratorParams::paper_sized(2, 9));
        let os = run(&system, Os::new(OsParams::default()));
        (
            os.best.schedule_cost(),
            os.best.total_buffers,
            os.evaluations,
        )
    };
    assert_eq!(once(), once());
}

#[test]
fn portfolio_serves_the_whole_heuristic_family() {
    // One batch runs the paper's strategy family on one instance; the
    // resource-best record must be schedulable, and OR dominates OS on the
    // buffer axis by construction.
    let system = Arc::new(generate(&GeneratorParams::paper_sized(2, 3)));
    let job = |strategy: Box<dyn Strategy>| {
        JobSpec::new(
            "paper_sized(2, 3)",
            Arc::clone(&system),
            AnalysisParams::default(),
            strategy,
        )
    };
    let records = run_batch(vec![
        job(Box::new(Sf)),
        job(Box::new(Hopa)),
        job(Box::new(Os::new(OsParams::default()))),
        job(Box::new(Or::new(OrParams::default()))),
    ]);
    assert_eq!(records.len(), 4);
    let winner = best_record(&records, Objective::Resources)
        .and_then(|record| record.outcome.report())
        .expect("all entries succeed");
    assert!(winner.best.is_schedulable());
    // OR dominates OS by construction, so the winner's buffer need equals
    // the OR entry's (OS wins outright ties by submission order).
    let or_report = records[3].outcome.report().expect("OR succeeds");
    assert_eq!(winner.best.total_buffers, or_report.best.total_buffers);
}

#[test]
fn degree_of_schedulability_orders_the_figure4_configs() {
    let fig = figure4(Time::from_millis(240));
    let analysis = AnalysisParams::default();
    let degree = |config| {
        let outcome = multi_cluster_scheduling(&fig.system, config, &analysis).expect("ok");
        degree_of_schedulability(&fig.system, &outcome)
    };
    let da = degree(&fig.config_a);
    let db = degree(&fig.config_b);
    let dc = degree(&fig.config_c);
    // (c) has the most slack, (a) is the only miss.
    assert!(dc.cost() < db.cost());
    assert!(db.cost() < da.cost());
}
