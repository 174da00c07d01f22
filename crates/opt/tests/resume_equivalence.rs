//! Resume-equivalence suite for `Synthesis::resume_from`: a run cut at an
//! *arbitrary* evaluation count (or by a serving-layer deadline) and resumed
//! from its partial report must be **bit-identical** to the uninterrupted
//! run — same incumbent, same evaluation count, same trajectory, same
//! exhaustion verdict. The continuation must also stream each event
//! exactly once across the cut, and reject checkpoints it cannot reproduce
//! with `SynthesisError::ResumeDivergence`.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use mcs_core::AnalysisParams;
use mcs_gen::{generate, GeneratorParams};
use mcs_model::System;
use mcs_opt::{
    run_batch, Budget, BudgetAxis, CancelToken, EventCounter, JobOutcome, JobSpec, Or, OrParams,
    Os, OsParams, Sa, SaParams, SearchCtx, Strategy, Synthesis, SynthesisError, SynthesisReport,
};

fn small_system(seed: u64) -> System {
    let mut p = GeneratorParams::paper_sized(2, seed);
    p.processes_per_node = 8;
    p.graphs = 4;
    p.inter_cluster_messages = Some(3);
    generate(&p)
}

fn quick_sa(seed: u64) -> SaParams {
    SaParams {
        iterations: 60,
        seed,
        ..SaParams::default()
    }
}

fn assert_bit_identical(context: &str, resumed: &SynthesisReport, full: &SynthesisReport) {
    assert_eq!(resumed.strategy, full.strategy, "{context}: strategy label");
    assert_eq!(
        resumed.best.config, full.best.config,
        "{context}: incumbent configuration"
    );
    assert_eq!(resumed.best.degree, full.best.degree, "{context}: δΓ");
    assert_eq!(
        resumed.best.total_buffers, full.best.total_buffers,
        "{context}: s_total"
    );
    assert_eq!(
        resumed.evaluations, full.evaluations,
        "{context}: evaluation count"
    );
    assert_eq!(
        resumed.trajectory, full.trajectory,
        "{context}: incumbent trajectory"
    );
    assert_eq!(resumed.exhausted, full.exhausted, "{context}: exhausted");
    assert_eq!(
        resumed.exhausted_by, full.exhausted_by,
        "{context}: exhausted_by"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// SAS cut at an arbitrary evaluation count and resumed is
    /// bit-identical to the uninterrupted run.
    #[test]
    fn sas_resume_is_bit_identical(seed in 0u64..60, sa_seed in 0u64..8, cut in 1u64..60) {
        let system = small_system(seed);
        let analysis = AnalysisParams::default();
        let params = quick_sa(sa_seed);

        let partial = Synthesis::builder(&system)
            .analysis(analysis)
            .strategy(Sa::schedule(params))
            .budget(Budget::evals(cut))
            .run()
            .expect("a cut SAS run still records its start incumbent");
        let full = Synthesis::builder(&system)
            .analysis(analysis)
            .strategy(Sa::schedule(params))
            .run()
            .expect("analyzable");
        let resumed = Synthesis::builder(&system)
            .analysis(analysis)
            .strategy(Sa::schedule(params))
            .resume_from(&partial)
            .run()
            .expect("the continuation reproduces the checkpoint");
        assert_bit_identical("SAS", &resumed, &full);
    }

    /// The greedy OS synthesis cut mid-sweep and resumed is
    /// bit-identical to the uninterrupted run.
    #[test]
    fn os_resume_is_bit_identical(seed in 0u64..40, cut in 1u64..40) {
        let system = small_system(seed);
        let analysis = AnalysisParams::default();

        let partial = Synthesis::builder(&system)
            .analysis(analysis)
            .strategy(Os::new(OsParams::default()))
            .budget(Budget::evals(cut))
            .run();
        // A tiny cut can end OS before its first feasible candidate; only
        // checkpoints with an incumbent are resumable.
        let Ok(partial) = partial else {
            return Ok(());
        };
        let full = Synthesis::builder(&system)
            .analysis(analysis)
            .strategy(Os::new(OsParams::default()))
            .run()
            .expect("analyzable");
        let resumed = Synthesis::builder(&system)
            .analysis(analysis)
            .strategy(Os::new(OsParams::default()))
            .resume_from(&partial)
            .run()
            .expect("the continuation reproduces the checkpoint");
        assert_bit_identical("OS", &resumed, &full);
    }

    /// Across the cut, the interrupted run and its continuation together
    /// deliver every count-bearing event exactly once: the per-kind event
    /// counts of (partial + continuation) equal the uninterrupted run's.
    #[test]
    fn events_stream_exactly_once_across_the_cut(
        seed in 0u64..40, sa_seed in 0u64..8, cut in 1u64..60,
    ) {
        let system = small_system(seed);
        let analysis = AnalysisParams::default();
        let params = quick_sa(sa_seed);

        let mut before = EventCounter::default();
        let partial = Synthesis::builder(&system)
            .analysis(analysis)
            .strategy(Sa::schedule(params))
            .budget(Budget::evals(cut))
            .observer(&mut before)
            .run()
            .expect("a cut SAS run still records its start incumbent");
        let mut after = EventCounter::default();
        Synthesis::builder(&system)
            .analysis(analysis)
            .strategy(Sa::schedule(params))
            .resume_from(&partial)
            .observer(&mut after)
            .run()
            .expect("the continuation reproduces the checkpoint");
        let mut uninterrupted = EventCounter::default();
        Synthesis::builder(&system)
            .analysis(analysis)
            .strategy(Sa::schedule(params))
            .observer(&mut uninterrupted)
            .run()
            .expect("analyzable");

        prop_assert_eq!(before.evaluated + after.evaluated, uninterrupted.evaluated);
        prop_assert_eq!(before.accepted + after.accepted, uninterrupted.accepted);
        prop_assert_eq!(before.infeasible + after.infeasible, uninterrupted.infeasible);
        prop_assert_eq!(before.incumbents + after.incumbents, uninterrupted.incumbents);
        prop_assert_eq!(before.epochs + after.epochs, uninterrupted.epochs);
    }

    /// A checkpoint the continuation cannot reproduce — here a tampered
    /// trajectory standing in for a mismatched seed/strategy/system — fails
    /// with `ResumeDivergence` instead of silently producing a report from
    /// a different search.
    #[test]
    fn divergent_checkpoint_is_rejected(seed in 0u64..40, sa_seed in 0u64..8) {
        let system = small_system(seed);
        let analysis = AnalysisParams::default();
        let params = quick_sa(sa_seed);

        let mut checkpoint = Synthesis::builder(&system)
            .analysis(analysis)
            .strategy(Sa::schedule(params))
            .budget(Budget::evals(10))
            .run()
            .expect("a cut SAS run still records its start incumbent");
        let last = checkpoint
            .trajectory
            .last_mut()
            .expect("a report always has a trajectory point");
        last.summary.total_buffers += 1;

        let outcome = Synthesis::builder(&system)
            .analysis(analysis)
            .strategy(Sa::schedule(params))
            .resume_from(&checkpoint)
            .run();
        prop_assert!(
            matches!(outcome, Err(SynthesisError::ResumeDivergence { .. })),
            "expected ResumeDivergence, got {:?}",
            outcome.map(|r| r.evaluations)
        );
    }
}

/// OS cut inside its first position scan has committed nothing, so it
/// records no incumbent: evaluating a fallback the uninterrupted sweep
/// never evaluates would leave a checkpoint no continuation reproduces.
/// OR, which runs OS first, then has nothing to climb from.
#[test]
fn os_cut_before_its_first_commit_has_no_incumbent() {
    let system = small_system(0);
    let analysis = AnalysisParams::default();
    let os = Synthesis::builder(&system)
        .analysis(analysis)
        .strategy(Os::new(OsParams::default()))
        .budget(Budget::evals(1))
        .run();
    assert!(
        matches!(os, Err(SynthesisError::NoIncumbent)),
        "expected NoIncumbent, got {:?}",
        os.map(|r| r.trajectory)
    );
    let or = Synthesis::builder(&system)
        .analysis(analysis)
        .strategy(Or::new(OrParams::default()))
        .budget(Budget::evals(1))
        .run();
    assert!(
        matches!(or, Err(SynthesisError::NoIncumbent)),
        "expected NoIncumbent, got {:?}",
        or.map(|r| r.trajectory)
    );
}

/// Waits until the run is cut before handing over to the wrapped strategy,
/// so the cut lands at that strategy's first budget poll however loaded the
/// machine is.
struct AfterCut<S>(S);

impl<S: Strategy> Strategy for AfterCut<S> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn run(&mut self, ctx: &mut SearchCtx<'_, '_, '_>) -> Result<(), SynthesisError> {
        while !ctx.exhausted() {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.0.run(ctx)
    }
}

/// A deadline-cut run (the nondeterministic cut the serving layer produces)
/// reports a cancelled run and resumes bit-identically.
#[test]
fn wall_clock_cut_resumes_bit_identically() {
    let system = Arc::new(small_system(7));
    let analysis = AnalysisParams::default();
    let params = quick_sa(3);

    // A zero deadline fires as soon as the job starts; SAS sees it at
    // its first poll — after the start incumbent, so the partial report is
    // resumable.
    let cut = JobSpec::new(
        "cut",
        Arc::clone(&system),
        analysis,
        AfterCut(Sa::schedule(params)),
    )
    .deadline(Duration::ZERO);
    let partial = match run_batch(vec![cut]).remove(0).outcome {
        JobOutcome::TimedOut {
            partial: Some(partial),
        } => partial,
        other => panic!("expected TimedOut with a partial, got {}", other.kind()),
    };
    assert!(partial.exhausted);
    assert_eq!(partial.exhausted_by, Some(BudgetAxis::Cancelled));

    let full = Synthesis::builder(&system)
        .analysis(analysis)
        .strategy(Sa::schedule(params))
        .run()
        .expect("analyzable");
    let resumed = Synthesis::builder(&system)
        .analysis(analysis)
        .strategy(Sa::schedule(params))
        .resume_from(&partial)
        .run()
        .expect("the continuation reproduces the checkpoint");
    assert_bit_identical("SAS/deadline", &resumed, &full);
}

/// The evaluation budget and a cancelled token report distinctly.
#[test]
fn exhausted_axis_is_reported() {
    let system = small_system(11);
    let analysis = AnalysisParams::default();

    let by_evals = Synthesis::builder(&system)
        .analysis(analysis)
        .strategy(Sa::schedule(quick_sa(0)))
        .budget(Budget::evals(5))
        .run()
        .expect("analyzable");
    assert!(by_evals.exhausted);
    assert_eq!(by_evals.exhausted_by, Some(BudgetAxis::Evaluations));

    let token = CancelToken::new();
    token.cancel();
    let by_token = Synthesis::builder(&system)
        .analysis(analysis)
        .strategy(Sa::schedule(quick_sa(0)))
        .budget(Budget::evals(1_000_000))
        .cancel(token)
        .run()
        .expect("analyzable");
    assert!(by_token.exhausted);
    assert_eq!(by_token.exhausted_by, Some(BudgetAxis::Cancelled));

    let natural = Synthesis::builder(&system)
        .analysis(analysis)
        .strategy(Sa::schedule(quick_sa(0)))
        .run()
        .expect("analyzable");
    assert!(!natural.exhausted);
    assert_eq!(natural.exhausted_by, None);

    assert_eq!(Budget::evals(10).max_evaluations(), Some(10));
    assert_eq!(Budget::UNLIMITED.max_evaluations(), None);
}
