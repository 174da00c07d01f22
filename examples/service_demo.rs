//! Streaming service demo: submit a batch of generated instances to a small
//! worker pool, stream every outcome as a JSON line while the batch runs,
//! let a wall-clock deadline cut the long anneals, and resume each cut
//! search through `run_batch` — the continuation replays the interrupted
//! prefix and ends exactly where a never-interrupted run would.
//!
//! Run with `cargo run --release --example service_demo`.

use std::sync::Arc;
use std::time::Duration;

use mcs::prelude::*;
use mcs::serve::{JobOutcome, JobSpec, ServiceConfig, SynthesisService};

fn main() {
    let service = SynthesisService::start(ServiceConfig {
        workers: 2,
        queue_capacity: 16,
    });

    // One long anneal and one quick OS job per instance; the anneals get a
    // deadline well short of their natural run time.
    let analysis = AnalysisParams::default();
    let systems: Vec<Arc<System>> = (0..4)
        .map(|seed| Arc::new(generate(&GeneratorParams::paper_sized(2, seed))))
        .collect();
    let sa = |seed: u64| {
        Sa::schedule(SaParams {
            iterations: 30_000,
            seed,
            ..SaParams::default()
        })
    };
    let mut submitted = 0;
    for (i, system) in systems.iter().enumerate() {
        let anneal = JobSpec::new(
            format!("sas/{i}"),
            Arc::clone(system),
            analysis,
            sa(i as u64),
        )
        .deadline(Duration::from_millis(200));
        let os = JobSpec::new(
            format!("os/{i}"),
            Arc::clone(system),
            analysis,
            Os::new(OsParams::default()),
        );
        for job in [anneal, os] {
            service.try_submit(job).expect("queue has room");
            submitted += 1;
        }
    }
    println!(
        "submitted {submitted} jobs; {} running, {} queued",
        service.running(),
        service.pending()
    );

    // Stream records as they complete and keep every cut anneal's partial
    // report.
    println!("\nfirst pass:");
    let mut cut: Vec<(usize, Box<SynthesisReport>)> = Vec::new();
    for _ in 0..submitted {
        let record = service
            .next_record(Duration::from_secs(600))
            .expect("every submitted job ends in a record");
        println!("{}", record.json_line());
        if let JobOutcome::TimedOut {
            partial: Some(partial),
        } = record.outcome
        {
            let seed = record
                .name
                .rsplit('/')
                .next()
                .and_then(|s| s.parse().ok())
                .expect("anneal names end in their seed");
            cut.push((seed, partial));
        }
    }
    service.shutdown();

    // Second pass: resume every cut anneal from its partial report. The
    // continuation replays the interrupted prefix deterministically and
    // produces a report bit-identical to a never-interrupted run.
    if cut.is_empty() {
        println!("\nno anneal hit its deadline (fast machine?) — nothing to resume");
        return;
    }
    cut.sort_by_key(|(seed, _)| *seed);
    println!();
    let jobs = cut
        .into_iter()
        .map(|(seed, checkpoint)| {
            println!(
                "resuming sas/{seed} from evaluation {}",
                checkpoint.evaluations
            );
            JobSpec::new(
                format!("sas/{seed}/resumed"),
                Arc::clone(&systems[seed]),
                analysis,
                sa(seed as u64),
            )
            .resume_from(*checkpoint)
        })
        .collect();
    println!("\nsecond pass:");
    for record in run_batch(jobs) {
        println!("{}", record.json_line());
    }
}
