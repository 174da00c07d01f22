//! Quality ablations for three design choices of the analysis and synthesis:
//!
//! 1. HOPA vs. straightforward (index-order) priority assignment inside the
//!    same TDMA configuration;
//! 2. the occurrence-based `Out_TTP` bound vs. the paper's closed form;
//! 3. OR seeded from the full OS seed pool vs. from the single best-δΓ
//!    configuration.
//!
//! Ablations 1 and 3 run as [`mcs_opt::run_batch`] batches; the
//! ablation-2 seed sweep fans out with `rayon` (`RAYON_NUM_THREADS` caps
//! the workers). Rows are printed after collection, in seed order.

use std::sync::Arc;

use rayon::prelude::*;

use mcs_bench::{cell, mean, point_reports, ExperimentOptions, Flag};
use mcs_core::{multi_cluster_scheduling, AnalysisParams, FifoBound};
use mcs_gen::{generate, GeneratorParams};
use mcs_opt::{
    hopa_priorities, run_batch, straightforward_config, Hopa, JobSpec, Or, OrParams, OsParams, Sf,
};

fn main() {
    let options = ExperimentOptions::from_args(&[Flag::Seeds]);
    let analysis = AnalysisParams::default();

    println!("Ablation 1 — priority assignment (δΓ cost; lower is better)");
    println!("{:>6} {:>12} {:>12}", "seed", "index-order", "HOPA");
    let mut jobs = Vec::new();
    for seed in 0..options.seeds {
        let system = Arc::new(generate(&GeneratorParams::paper_sized(4, seed)));
        let instance = format!("seed={seed}");
        jobs.push(JobSpec::new(
            instance.clone(),
            Arc::clone(&system),
            analysis,
            Sf,
        ));
        jobs.push(JobSpec::new(instance, system, analysis, Hopa));
    }
    let records = run_batch(jobs);
    for (seed, pair) in records.chunks_exact(2).enumerate() {
        let [sf, hopa] = point_reports(pair).expect("SF and HOPA analyzable");
        let (index_order, hopa) = (sf.best.schedule_cost(), hopa.best.schedule_cost());
        println!("{seed:>6} {index_order:>12} {hopa:>12}");
    }
    println!();

    println!("Ablation 2 — Out_TTP bound (graph-response sum in ms; lower = tighter)");
    println!("{:>6} {:>12} {:>12}", "seed", "closed-form", "occurrence");
    let rows: Vec<(u64, u64)> = (0..options.seeds)
        .into_par_iter()
        .map(|seed| {
            let system = generate(&GeneratorParams::paper_sized(4, seed));
            let config = {
                let mut c = straightforward_config(&system);
                c.priorities = hopa_priorities(&system, &c.tdma);
                c
            };
            let total = |bound| {
                let params = AnalysisParams {
                    fifo_bound: bound,
                    ..analysis
                };
                let outcome =
                    multi_cluster_scheduling(&system, &config, &params).expect("analyzable");
                system
                    .application
                    .graphs()
                    .iter()
                    .map(|g| outcome.graph_response(g.id()).ticks() / 1_000)
                    // mcs-lint: allow(float-reduction) -- sequential u64 sum inside the per-seed closure; integer addition is order-independent
                    .sum::<u64>()
            };
            (
                total(FifoBound::PaperClosedForm),
                total(FifoBound::SlotOccurrence),
            )
        })
        .collect();
    for (seed, (closed, occurrence)) in rows.into_iter().enumerate() {
        println!("{seed:>6} {closed:>12} {occurrence:>12}");
    }
    println!();

    println!("Ablation 3 — OR seeding (s_total in bytes; lower is better)");
    println!("{:>6} {:>12} {:>12}", "seed", "best-only", "seed-pool");
    let mut jobs = Vec::new();
    for seed in 0..options.seeds {
        let system = Arc::new(generate(&GeneratorParams::paper_sized(2, seed)));
        let instance = format!("seed={seed}");
        jobs.push(
            JobSpec::new(
                instance.clone(),
                Arc::clone(&system),
                analysis,
                Or::new(OrParams::default()),
            )
            .labelled("OR/seed-pool"),
        );
        jobs.push(
            JobSpec::new(
                instance,
                system,
                analysis,
                Or::new(OrParams {
                    os: OsParams {
                        seed_limit: 1,
                        ..OsParams::default()
                    },
                    ..OrParams::default()
                }),
            )
            .labelled("OR/best-only"),
        );
    }
    let records = run_batch(jobs);
    let mut pool_wins = Vec::new();
    for (seed, pair) in records.chunks_exact(2).enumerate() {
        let [pool, best_only] = point_reports(pair).expect("OR analyzable");
        let (pool, best_only) = (pool.best.total_buffers, best_only.best.total_buffers);
        println!("{seed:>6} {best_only:>12} {pool:>12}");
        pool_wins.push(best_only as f64 - pool as f64);
    }
    println!(
        "mean bytes saved by the seed pool: {}",
        cell(mean(&pool_wins))
    );
}
