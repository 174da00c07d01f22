//! Robustness suite for the `mcs::serve` streaming service: panic
//! isolation, wall-clock deadlines with bit-identical resume,
//! bounded-queue backpressure, graceful and immediate drain/shutdown, and
//! picking a batch's winner.

use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use mcs_core::{AnalysisParams, DeltaSeeds};
use mcs_gen::{generate, GeneratorParams};
use mcs_model::System;
use mcs_opt::synthesis::{SearchCtx, Strategy, SynthesisError};
use mcs_opt::{
    best_record, run_batch, Budget, BudgetAxis, JobOutcome, JobSpec, MoveSampler, Objective, Os,
    OsParams, Sa, SaParams, ServiceConfig, Sf, SubmitError, Synthesis, SynthesisReport,
    SynthesisService,
};

use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_system(seed: u64) -> System {
    let mut p = GeneratorParams::paper_sized(2, seed);
    p.processes_per_node = 8;
    p.graphs = 4;
    p.inter_cluster_messages = Some(3);
    generate(&p)
}

fn one_worker() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    }
}

// ---------------------------------------------------------------------------
// Injected strategies
// ---------------------------------------------------------------------------

/// Panics on every run — the poisoned-job injection.
struct Panicking;

impl Strategy for Panicking {
    fn name(&self) -> &'static str {
        "PANIC"
    }
    fn run(&mut self, _ctx: &mut SearchCtx<'_, '_, '_>) -> Result<(), SynthesisError> {
        panic!("injected failure");
    }
}

/// A deterministic annealer with a fixed per-iteration sleep: its search
/// trajectory is a pure function of its seed (the sleeps only slow it
/// down), so a cut run can be compared bit-for-bit against an
/// uninterrupted twin — while being slow enough that deadline and
/// shutdown tests never race job completion.
struct SleepySearch {
    seed: u64,
    iterations: u32,
    pause: Duration,
}

impl Strategy for SleepySearch {
    fn name(&self) -> &'static str {
        "SLEEPY"
    }
    fn run(&mut self, ctx: &mut SearchCtx<'_, '_, '_>) -> Result<(), SynthesisError> {
        let system = ctx.system();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut sampler = MoveSampler::new(system);
        let mut config = mcs_opt::sa_start(system);
        let mut current = ctx.evaluate(&config)?;
        let mut best = current;
        ctx.record_incumbent(current, &config);
        let mut seeds = DeltaSeeds::new();
        for _ in 0..self.iterations {
            if ctx.exhausted() {
                break;
            }
            thread::sleep(self.pause);
            let Some(mv) = sampler.sample(system, &config, ctx.evaluator(), &current, &mut rng)
            else {
                break;
            };
            let undo = mv.apply_undoable_seeded(&mut config, &mut seeds);
            let Ok(candidate) = ctx.evaluate_delta(&config, &seeds) else {
                undo.record_seeds(&mut seeds);
                undo.revert(&mut config);
                continue;
            };
            seeds.clear();
            if candidate.schedule_cost() <= current.schedule_cost() {
                if candidate.schedule_cost() < best.schedule_cost() {
                    best = candidate;
                    ctx.record_incumbent(candidate, &config);
                }
                current = candidate;
            } else {
                undo.record_seeds(&mut seeds);
                undo.revert(&mut config);
            }
        }
        let _ = best;
        Ok(())
    }
}

/// Sleeps until cancelled or exhausted without ever evaluating — a job
/// that can only end by deadline or cancellation, with no incumbent.
struct Dawdler;

impl Strategy for Dawdler {
    fn name(&self) -> &'static str {
        "DAWDLE"
    }
    fn run(&mut self, ctx: &mut SearchCtx<'_, '_, '_>) -> Result<(), SynthesisError> {
        while !ctx.exhausted() {
            thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }
}

/// Records the SA start configuration as its incumbent, says so on its
/// channel, then dawdles until stopped — a running job that always has a
/// partial report to hand back.
struct Settled(mpsc::Sender<()>);

impl Strategy for Settled {
    fn name(&self) -> &'static str {
        "SETTLED"
    }
    fn run(&mut self, ctx: &mut SearchCtx<'_, '_, '_>) -> Result<(), SynthesisError> {
        let config = mcs_opt::sa_start(ctx.system());
        let start = ctx.evaluate(&config)?;
        ctx.record_incumbent(start, &config);
        let _ = self.0.send(());
        Dawdler.run(ctx)
    }
}

fn spec(name: &str, system: &Arc<System>, strategy: impl Strategy + 'static) -> JobSpec {
    JobSpec::new(
        name,
        Arc::clone(system),
        AnalysisParams::default(),
        strategy,
    )
}

// ---------------------------------------------------------------------------
// Panic isolation
// ---------------------------------------------------------------------------

#[test]
fn panicking_job_is_isolated_and_every_other_job_completes() {
    let system = Arc::new(small_system(1));
    let service = SynthesisService::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    for i in 0..4 {
        service
            .try_submit(spec(&format!("ok/{i}"), &system, Sf))
            .unwrap();
    }
    service
        .try_submit(spec("boom", &system, Panicking))
        .unwrap();
    let mut records = service.shutdown();
    records.sort_by_key(|r| r.id);
    assert_eq!(records.len(), 5);
    for record in &records[..4] {
        assert!(
            matches!(record.outcome, JobOutcome::Completed(_)),
            "{}: expected completion, got {}",
            record.name,
            record.outcome.kind()
        );
    }
    let boom = &records[4];
    match &boom.outcome {
        JobOutcome::Panicked { message } => assert_eq!(message, "injected failure"),
        other => panic!("expected Panicked, got {}", other.kind()),
    }
    let line = boom.json_line();
    assert!(line.contains("\"outcome\": \"panicked\""), "{line}");
    assert!(line.contains("\"error\": \"injected failure\""), "{line}");
    assert!(line.contains("\"ok\": false"), "{line}");
}

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

#[test]
fn deadline_times_out_with_a_partial_report() {
    let system = Arc::new(small_system(3));
    let service = SynthesisService::start(one_worker());
    service
        .try_submit(
            spec(
                "slow",
                &system,
                SleepySearch {
                    seed: 5,
                    iterations: 10_000,
                    pause: Duration::from_millis(2),
                },
            )
            .deadline(Duration::from_millis(60)),
        )
        .unwrap();
    let records = service.shutdown();
    assert_eq!(records.len(), 1);
    match &records[0].outcome {
        JobOutcome::TimedOut {
            partial: Some(report),
        } => {
            assert_eq!(
                report.exhausted_by,
                Some(BudgetAxis::Cancelled),
                "the deadline stops the run through its cancel token"
            );
            assert!(report.exhausted);
        }
        other => panic!("expected TimedOut with partial, got {}", other.kind()),
    }
    let line = records[0].json_line();
    assert!(line.contains("\"outcome\": \"timed_out\""), "{line}");
    assert!(line.contains("\"exhausted_by\": \"cancelled\""), "{line}");
}

#[test]
fn deadline_without_incumbent_times_out_without_partial() {
    let system = Arc::new(small_system(3));
    let service = SynthesisService::start(one_worker());
    service
        .try_submit(spec("dawdle", &system, Dawdler).deadline(Duration::from_millis(30)))
        .unwrap();
    let records = service.shutdown();
    assert_eq!(records.len(), 1);
    assert!(
        matches!(records[0].outcome, JobOutcome::TimedOut { partial: None }),
        "expected TimedOut without partial, got {}",
        records[0].outcome.kind()
    );
}

#[test]
fn deadline_fires_inside_a_resume_replay() {
    let system = Arc::new(small_system(3));
    let sleepy = || SleepySearch {
        seed: 5,
        iterations: 300,
        pause: Duration::from_millis(2),
    };
    let checkpoint = Synthesis::builder(&system)
        .strategy(sleepy())
        .budget(Budget::evals(60))
        .run()
        .expect("analyzable");
    assert_eq!(checkpoint.exhausted_by, Some(BudgetAxis::Evaluations));

    // Replaying 60 evaluations sleeps well past the deadline, and the
    // replay emits no events, so only the service's own timer can stop it.
    let service = SynthesisService::start(one_worker());
    service
        .try_submit(
            spec("resumed", &system, sleepy())
                .resume_from(checkpoint.clone())
                .deadline(Duration::from_millis(30)),
        )
        .unwrap();
    let records = service.shutdown();
    assert_eq!(records.len(), 1);
    match &records[0].outcome {
        JobOutcome::TimedOut {
            partial: Some(report),
        } => {
            assert!(
                report.evaluations < checkpoint.evaluations,
                "cut at {} evaluations, inside the {}-evaluation replay",
                report.evaluations,
                checkpoint.evaluations
            );
            assert_eq!(report.exhausted_by, Some(BudgetAxis::Cancelled));
        }
        other => panic!("expected TimedOut with partial, got {}", other.kind()),
    }
}

// ---------------------------------------------------------------------------
// Resume
// ---------------------------------------------------------------------------

#[test]
fn timed_out_job_resumes_bit_identical_to_an_uninterrupted_run() {
    let system = Arc::new(small_system(4));
    let sleepy = || SleepySearch {
        seed: 9,
        iterations: 300,
        pause: Duration::from_millis(2),
    };

    let service = SynthesisService::start(one_worker());
    service
        .try_submit(spec("cut", &system, sleepy()).deadline(Duration::from_millis(60)))
        .unwrap();
    let mut records = service.shutdown();
    assert_eq!(records.len(), 1);
    let partial = match records.remove(0).outcome {
        JobOutcome::TimedOut {
            partial: Some(partial),
        } => partial,
        other => panic!(
            "expected the search cut with a partial, got {}",
            other.kind()
        ),
    };

    // Resume the cut search through the service and compare to an
    // uninterrupted twin.
    let mut records = run_batch(vec![
        spec("cut/resumed", &system, sleepy()).resume_from(*partial)
    ]);
    let resumed = match records.remove(0).outcome {
        JobOutcome::Completed(report) => report,
        other => panic!(
            "expected the continuation to complete, got {}",
            other.kind()
        ),
    };
    let full = Synthesis::builder(&system)
        .strategy(sleepy())
        .run()
        .expect("analyzable");
    assert_bit_identical(&resumed, &full);
}

fn assert_bit_identical(resumed: &SynthesisReport, full: &SynthesisReport) {
    assert_eq!(resumed.best.config, full.best.config);
    assert_eq!(resumed.best.degree, full.best.degree);
    assert_eq!(resumed.best.total_buffers, full.best.total_buffers);
    assert_eq!(resumed.evaluations, full.evaluations);
    assert_eq!(resumed.trajectory, full.trajectory);
    assert_eq!(resumed.exhausted, full.exhausted);
    assert_eq!(resumed.exhausted_by, full.exhausted_by);
}

// ---------------------------------------------------------------------------
// Backpressure
// ---------------------------------------------------------------------------

#[test]
fn bounded_queue_pushes_back_on_the_producer() {
    let system = Arc::new(small_system(5));
    let service = SynthesisService::start(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
    });
    // Occupy the single worker until its deadline, then fill the single
    // queue slot.
    service
        .try_submit(spec("blocker", &system, Dawdler).deadline(Duration::from_millis(100)))
        .unwrap();
    while service.running() == 0 {
        thread::sleep(Duration::from_millis(1));
    }
    service.try_submit(spec("queued", &system, Sf)).unwrap();

    let rejected = service.try_submit(spec("rejected", &system, Sf));
    let Err(SubmitError::QueueFull(job)) = rejected else {
        panic!("expected QueueFull");
    };
    assert_eq!(job.name(), "rejected");

    // Unblock: the dawdler times out, the queued job starts, and the
    // rejected job finds room on resubmission.
    while service.pending() > 0 {
        thread::sleep(Duration::from_millis(1));
    }
    service
        .try_submit(*job)
        .expect("space frees up once the blocker ends");

    let mut records = service.shutdown();
    records.sort_by_key(|r| r.id);
    assert_eq!(records.len(), 3);
    assert!(matches!(
        records[0].outcome,
        JobOutcome::TimedOut { partial: None }
    ));
    assert!(matches!(records[1].outcome, JobOutcome::Completed(_)));
    assert!(matches!(records[2].outcome, JobOutcome::Completed(_)));
}

// ---------------------------------------------------------------------------
// Drain & shutdown
// ---------------------------------------------------------------------------

#[test]
fn drain_returns_every_outstanding_record() {
    let system = Arc::new(small_system(6));
    let service = SynthesisService::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    for i in 0..6 {
        service
            .try_submit(spec(&format!("job/{i}"), &system, Sf))
            .unwrap();
    }
    // Stream a couple, then drain the rest.
    let first = service
        .next_record(Duration::from_secs(30))
        .expect("a record");
    assert!(matches!(first.outcome, JobOutcome::Completed(_)));
    let mut rest = service.drain();
    assert_eq!(service.outstanding(), 0);
    assert_eq!(rest.len(), 5);
    rest.sort_by_key(|r| r.id);
    for record in &rest {
        assert!(matches!(record.outcome, JobOutcome::Completed(_)));
    }
    // The service still accepts work after a drain.
    service.try_submit(spec("late", &system, Sf)).unwrap();
    let records = service.shutdown();
    assert_eq!(records.len(), 1);
}

#[test]
fn immediate_shutdown_cancels_queued_and_running_jobs() {
    let system = Arc::new(small_system(6));
    let service = SynthesisService::start(one_worker());
    service
        .try_submit(spec("running", &system, Dawdler))
        .unwrap();
    while service.running() == 0 {
        thread::sleep(Duration::from_millis(1));
    }
    for i in 0..3 {
        service
            .try_submit(spec(&format!("queued/{i}"), &system, Sf))
            .unwrap();
    }
    let mut records = service.shutdown_now();
    records.sort_by_key(|r| r.id);
    assert_eq!(records.len(), 4);
    assert!(matches!(records[0].outcome, JobOutcome::Cancelled { .. }));
    for record in &records[1..] {
        assert_eq!(record.elapsed_micros, 0, "{}: never ran", record.name);
        assert!(matches!(
            record.outcome,
            JobOutcome::Cancelled { partial: None }
        ));
    }
}

#[test]
fn immediate_shutdown_hands_back_a_running_search_partial_report() {
    let system = Arc::new(small_system(4));
    let service = SynthesisService::start(one_worker());
    let (ready, settled) = mpsc::channel();
    service
        .try_submit(spec("running", &system, Settled(ready)))
        .unwrap();
    settled.recv().expect("the job records an incumbent");
    let records = service.shutdown_now();
    assert_eq!(records.len(), 1);
    match &records[0].outcome {
        JobOutcome::Cancelled {
            partial: Some(report),
        } => {
            assert_eq!(
                report.exhausted_by,
                Some(BudgetAxis::Cancelled),
                "the shutdown stops the run through its cancel token"
            );
            assert!(report.exhausted);
        }
        other => panic!("expected Cancelled with partial, got {}", other.kind()),
    }
}

#[test]
fn evaluation_budget_exhaustion_is_a_completion() {
    let system = Arc::new(small_system(6));
    let service = SynthesisService::start(one_worker());
    service
        .try_submit(
            spec(
                "budgeted",
                &system,
                SleepySearch {
                    seed: 1,
                    iterations: 50,
                    pause: Duration::from_millis(0),
                },
            )
            .budget(Budget::evals(10)),
        )
        .unwrap();
    let records = service.shutdown();
    assert_eq!(records.len(), 1);
    // Exhausting the evaluation axis is a *normal* completion — the report
    // itself records the truncation.
    match &records[0].outcome {
        JobOutcome::Completed(report) => {
            assert!(report.exhausted);
            assert_eq!(report.exhausted_by, Some(mcs_opt::BudgetAxis::Evaluations));
        }
        other => panic!("expected completion, got {}", other.kind()),
    }
}

// ---------------------------------------------------------------------------
// Static batches ride on the service
// ---------------------------------------------------------------------------

#[test]
fn experiment_runner_reports_structured_failures_instead_of_aborting() {
    let system = Arc::new(small_system(7));
    let analysis = AnalysisParams::default();
    let jobs = vec![
        JobSpec::new("ok".to_string(), Arc::clone(&system), analysis, Sf),
        JobSpec::new("boom".to_string(), Arc::clone(&system), analysis, Panicking),
        JobSpec::new(
            "sas".to_string(),
            Arc::clone(&system),
            analysis,
            Sa::schedule(SaParams {
                iterations: 20,
                seed: 0,
                ..SaParams::default()
            }),
        ),
    ];
    let records = mcs_opt::run_batch(jobs);
    assert_eq!(records.len(), 3);
    assert_eq!(records[0].name, "ok");
    assert!(matches!(records[0].outcome, JobOutcome::Completed(_)));
    assert_eq!(records[1].name, "boom");
    assert!(
        matches!(records[1].outcome, JobOutcome::Panicked { .. }),
        "the poisoned job fails structurally without sinking the batch"
    );
    assert!(matches!(records[2].outcome, JobOutcome::Completed(_)));
}

// ---------------------------------------------------------------------------
// Picking a batch's winner
// ---------------------------------------------------------------------------

fn quick_sa(seed: u64) -> Sa {
    Sa::schedule(SaParams {
        iterations: 40,
        seed,
        ..SaParams::default()
    })
}

#[test]
fn best_record_skips_records_without_a_report() {
    let system = Arc::new(small_system(8));
    let records = run_batch(vec![
        spec("boom", &system, Panicking),
        spec("sf", &system, Sf),
    ]);
    let winner = best_record(&records, Objective::Schedule).expect("the SF job has a report");
    assert_eq!(winner.name, "sf");
    assert!(best_record(&records[..1], Objective::Schedule).is_none());
}

#[test]
fn best_record_breaks_cost_ties_toward_the_lowest_id() {
    let system = Arc::new(small_system(8));
    let records = run_batch(vec![spec("sf/0", &system, Sf), spec("sf/1", &system, Sf)]);
    for objective in [Objective::Schedule, Objective::Resources] {
        let winner = best_record(&records, objective).expect("both jobs have reports");
        assert_eq!(winner.id, records[0].id, "equal costs go to the lowest id");
    }
}

#[test]
fn best_record_winner_is_deterministic_across_runs() {
    let system = Arc::new(generate(&GeneratorParams::paper_sized(2, 23)));
    let run = || {
        run_batch(vec![
            spec("sf", &system, Sf),
            spec("sas-0", &system, quick_sa(0)),
            spec("sas-1", &system, quick_sa(1)),
            spec("os", &system, Os::new(OsParams::default())),
        ])
    };
    let a = run();
    let b = run();
    assert_eq!(a.len(), 4);
    let winner_a = best_record(&a, Objective::Schedule).expect("one job succeeds");
    let winner_b = best_record(&b, Objective::Schedule).expect("one job succeeds");
    assert_eq!(winner_a.id, winner_b.id);
    assert_eq!(winner_a.name, winner_b.name);
    let summary = |record: &mcs_opt::JobRecord| record.outcome.report().map(|r| r.summary());
    assert_eq!(summary(winner_a), summary(winner_b));
}
