//! Figure 9b: average total buffer need `s_total` of the solutions produced
//! by OS (schedulability only), OR (buffer-optimizing) and the SAR
//! near-optimal reference, as the application grows from 80 to 400
//! processes. The paper's headline: OR halves the buffer need of OS and
//! tracks SAR closely.
//!
//! Every (instance × strategy) run is one [`mcs_opt::run_batch`] job
//! fanned out across cores (`RAYON_NUM_THREADS` caps the workers); records come
//! back in submission order, so the aggregated output is identical to a
//! sequential sweep. Each record is also emitted as a JSON line (see
//! `--jsonl`). OS and OR are independent jobs — both are deterministic, so
//! the OS column equals the step-1 result inside OR.

use std::sync::Arc;

use mcs_bench::{cell, mean, point_reports, write_jsonl, ExperimentOptions, Flag};
use mcs_core::AnalysisParams;
use mcs_gen::{generate, GeneratorParams};
use mcs_opt::{run_batch, JobSpec, Or, OrParams, Os, Sa, SaParams};

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
                Os::new(OrParams::default().os),
            ));
            jobs.push(JobSpec::new(
                instance.clone(),
                Arc::clone(&system),
                analysis,
                Or::new(OrParams::default()),
            ));
            jobs.push(JobSpec::new(
                instance,
                Arc::clone(&system),
                analysis,
                Sa::resources(SaParams {
                    iterations: options.sa_iters,
                    seed,
                    ..SaParams::default()
                }),
            ));
        }
    }
    let records = run_batch(jobs);
    write_jsonl(&options.jsonl_path("fig9b"), &records);

    println!("Figure 9b — avg total buffer need s_total [bytes] (lower is better)");
    println!(
        "{:>6} {:>6} {:>10} {:>10} {:>10} {:>8}",
        "nodes", "procs", "OS", "OR", "SAR", "used"
    );
    let mut per_point = records.chunks_exact(3);
    let mut skipped = 0;
    for nodes in NODE_COUNTS {
        let mut os_bytes = Vec::new();
        let mut or_bytes = Vec::new();
        let mut sar_bytes = Vec::new();
        for _ in 0..options.seeds {
            let point = per_point
                .next()
                .expect("three records per (nodes, seed) point");
            let Some([os, or, sar]) = point_reports(point) else {
                skipped += 1;
                continue;
            };
            let (os, or, sar) = (&os.best, &or.best, &sar.best);
            if os.is_schedulable() && or.is_schedulable() && sar.is_schedulable() {
                os_bytes.push(os.total_buffers as f64);
                or_bytes.push(or.total_buffers as f64);
                sar_bytes.push(sar.total_buffers as f64);
            }
        }
        println!(
            "{:>6} {:>6} {} {} {} {:>8}",
            nodes,
            nodes * 40,
            cell(mean(&os_bytes)),
            cell(mean(&or_bytes)),
            cell(mean(&sar_bytes)),
            os_bytes.len()
        );
    }
    if skipped > 0 {
        eprintln!("{skipped} instance(s) skipped because a run failed");
    }
}
