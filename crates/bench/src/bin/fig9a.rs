//! Figure 9a: average percentage deviation of the degree of schedulability
//! δΓ produced by SF and OS from the near-optimal SAS reference, as the
//! application grows from 80 to 400 processes.
//!
//! As in the paper, only instances where *all* algorithms obtained a
//! schedulable system enter the averages; the count of SF failures is
//! reported separately (the paper saw 26 of 150).
//!
//! Every (instance × strategy) run is one [`mcs_opt::run_batch`] job,
//! fanned out across cores (`RAYON_NUM_THREADS` caps the workers); records come
//! back in submission order, so the aggregated output is identical to a
//! sequential sweep. Each record is also emitted as a JSON line (see
//! `--jsonl`).

use std::sync::Arc;

use mcs_bench::{
    cell, mean, percent_deviation, point_reports, write_jsonl, ExperimentOptions, Flag,
};
use mcs_core::AnalysisParams;
use mcs_gen::{generate, GeneratorParams};
use mcs_opt::{run_batch, JobSpec, Os, OsParams, Sa, SaParams, Sf};

const NODE_COUNTS: [usize; 5] = [2, 4, 6, 8, 10];

fn main() {
    let options = ExperimentOptions::from_args(&Flag::ALL);
    let analysis = AnalysisParams::default();
    let mut jobs = Vec::new();
    for nodes in NODE_COUNTS {
        for seed in 0..options.seeds {
            let system = Arc::new(generate(&GeneratorParams::paper_sized(nodes, seed)));
            let instance = format!("nodes={nodes},seed={seed}");
            jobs.push(JobSpec::new(
                instance.clone(),
                Arc::clone(&system),
                analysis,
                Sf,
            ));
            jobs.push(JobSpec::new(
                instance.clone(),
                Arc::clone(&system),
                analysis,
                Os::new(OsParams::default()),
            ));
            jobs.push(JobSpec::new(
                instance,
                Arc::clone(&system),
                analysis,
                Sa::schedule(SaParams {
                    iterations: options.sa_iters,
                    seed,
                    ..SaParams::default()
                }),
            ));
        }
    }
    let records = run_batch(jobs);
    write_jsonl(&options.jsonl_path("fig9a"), &records);

    println!("Figure 9a — avg % deviation of δΓ from SAS (lower is better)");
    println!(
        "{:>6} {:>6} {:>10} {:>10} {:>8} {:>9}",
        "nodes", "procs", "SF", "OS", "used", "SF-fail"
    );
    let mut sf_failures = 0;
    let mut total = 0;
    let mut skipped = 0;
    let mut per_point = records.chunks_exact(3);
    for nodes in NODE_COUNTS {
        let mut sf_dev = Vec::new();
        let mut os_dev = Vec::new();
        let mut sf_failed_here = 0;
        for _ in 0..options.seeds {
            let point = per_point
                .next()
                .expect("three records per (nodes, seed) point");
            total += 1;
            let Some([sf, os, sas]) = point_reports(point) else {
                skipped += 1;
                continue;
            };
            let (sf, os, sas) = (&sf.best, &os.best, &sas.best);
            if !sf.is_schedulable() {
                sf_failed_here += 1;
                sf_failures += 1;
            }
            if sf.is_schedulable() && os.is_schedulable() && sas.is_schedulable() {
                let reference = sas.schedule_cost() as f64;
                sf_dev.push(percent_deviation(sf.schedule_cost() as f64, reference));
                os_dev.push(percent_deviation(os.schedule_cost() as f64, reference));
            }
        }
        println!(
            "{:>6} {:>6} {} {} {:>8} {:>9}",
            nodes,
            nodes * 40,
            cell(mean(&sf_dev)),
            cell(mean(&os_dev)),
            sf_dev.len(),
            sf_failed_here
        );
    }
    if skipped > 0 {
        eprintln!("{skipped} instance(s) skipped because a run failed");
    }
    println!("SF failed to find a schedulable system in {sf_failures} of {total} applications");
    println!("(paper: 26 of 150; δΓ here is the slack sum f2, so deviations are");
    println!(" relative to the SAS slack — positive means less slack than SAS)");
}
