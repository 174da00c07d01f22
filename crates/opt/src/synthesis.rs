//! The synthesis front door: one strategy-driven driver for every search
//! heuristic of the paper.
//!
//! Historically each heuristic (SF, SAS/SAR annealing, OS, OR, HOPA
//! seeding) was a free function hand-wiring its own [`Evaluator`], loop and
//! result struct, and every experiment binary re-implemented the same
//! glue around them. This module replaces that with **[`Synthesis`]**, a
//! builder running *one* [`Strategy`] against *one* system:
//!
//! ```no_run
//! use mcs_core::AnalysisParams;
//! use mcs_gen::{generate, GeneratorParams};
//! use mcs_opt::{Budget, Sa, SaParams, Synthesis};
//!
//! let system = generate(&GeneratorParams::paper_sized(2, 1));
//! let report = Synthesis::builder(&system)
//!     .analysis(AnalysisParams::default())
//!     .strategy(Sa::resources(SaParams::default()))
//!     .budget(Budget::evals(200_000))
//!     .run()
//!     .expect("the SA start configuration is analyzable");
//! println!("schedulable: {}", report.best.is_schedulable());
//! ```
//!
//! Everything that runs more than one search — several strategies or seeds
//! on one instance, or the (instance × strategy) batches of the `fig9`
//! sweeps — is a batch of jobs on the [`crate::serve`] service, run through
//! [`crate::serve::run_batch`]; [`crate::serve::best_record`] picks a
//! group's winner.
//!
//! # The `Strategy` contract
//!
//! A [`Strategy`] drives the search through a [`SearchCtx`], which *borrows*
//! one shared [`Evaluator`] — the reusable analysis context with its
//! delta-RTA machinery — instead of constructing its own:
//!
//! * every candidate analysis goes through [`SearchCtx::evaluate`] or
//!   [`SearchCtx::evaluate_delta`] (both count against the [`Budget`]);
//! * the strategy reports improvements with [`SearchCtx::record_incumbent`]
//!   — the driver owns the incumbent, its δΓ trajectory, and the final
//!   materialization of the winning configuration;
//! * long-running loops poll [`SearchCtx::exhausted`] and return early when
//!   the budget is spent or the run is cancelled (**cooperative**
//!   cancellation: an exhausted context still honors evaluation calls, so a
//!   strategy may finish the candidate it is on);
//! * because the delta path is bit-identical to the full fixed point,
//!   a strategy's results do not depend on what the shared evaluator
//!   analyzed before it ran.
//!
//! # Events and observers
//!
//! Strategies narrate the search as structured [`SearchEvent`]s —
//! accepted/rejected moves, new incumbents, temperature epochs, phase
//! changes — delivered synchronously to every [`Observer`] attached to the
//! driver. Observers must not assume any event other than `Started` (first)
//! and `Finished` (last, emitted even on an error or an exhausted budget
//! once an incumbent exists); which events appear in between is up to the
//! strategy.
//!
//! # Determinism
//!
//! Every strategy shipped here is a pure function of (system, analysis
//! params, strategy params, budget): a seeded run reproduces its **entire
//! event stream** — same events, same order, same payloads — and therefore
//! its report, bit for bit. [`crate::serve::run_batch`] preserves that:
//! records come back in submission order regardless of worker
//! interleaving, and [`crate::serve::best_record`] is a deterministic
//! function of them (ties break toward the lowest job id). Nothing in this
//! module reads the host clock: a run ends on its evaluation count, its
//! strategy's own termination, or its [`CancelToken`].

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use mcs_core::{
    AnalysisError, AnalysisParams, BatchRequest, BatchScratch, DeltaSeeds, EvalSummary, Evaluator,
};
use mcs_model::{System, SystemConfig};

use crate::cost::{materialize, resource_cost, Evaluation};
use crate::moves::Move;

// ---------------------------------------------------------------------------
// Budget & cancellation
// ---------------------------------------------------------------------------

/// The evaluation budget of one synthesis run: at most
/// [`Budget::evals`] schedulability analyses.
///
/// The budget is **cooperative**: strategies poll
/// [`SearchCtx::exhausted`] between candidates and wind down; a strategy
/// mid-candidate may finish it, so a run can end a few evaluations past
/// the limit. [`Budget::UNLIMITED`] (the default) never exhausts.
///
/// Wall-clock limits are not a budget axis: the serving layer's
/// [`JobSpec::deadline`](crate::serve::JobSpec::deadline) cancels the run
/// through its [`CancelToken`]. Where such a cut lands depends on machine
/// load, but what the run computes up to it never does; a cut run can be
/// continued bit-identically through [`Synthesis::resume_from`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Budget {
    max_evaluations: u64,
}

impl Budget {
    /// No limit: the strategy runs to its natural completion.
    pub const UNLIMITED: Budget = Budget {
        max_evaluations: u64::MAX,
    };

    /// At most `n` schedulability evaluations.
    pub fn evals(n: u64) -> Self {
        Budget { max_evaluations: n }
    }

    /// The evaluation limit, `None` when unlimited.
    pub fn max_evaluations(&self) -> Option<u64> {
        (self.max_evaluations != u64::MAX).then_some(self.max_evaluations)
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::UNLIMITED
    }
}

/// Which limit ended a run (see [`SearchCtx::exhausted`]).
///
/// When both are reached at the same poll, `Evaluations` is recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BudgetAxis {
    /// The evaluation-count limit was reached.
    Evaluations,
    /// The run's [`CancelToken`] was cancelled — explicitly, by a
    /// serving-layer deadline or by an immediate service shutdown.
    Cancelled,
}

impl BudgetAxis {
    /// A stable lower-case name (`"evaluations"`, `"cancelled"`) for
    /// machine-readable records.
    pub fn as_str(&self) -> &'static str {
        match self {
            BudgetAxis::Evaluations => "evaluations",
            BudgetAxis::Cancelled => "cancelled",
        }
    }
}

/// A shareable cooperative cancellation flag.
///
/// Cloning shares the flag; [`CancelToken::cancel`] makes every
/// [`SearchCtx`] carrying a clone report [`exhausted`](SearchCtx::exhausted)
/// from then on.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the flag.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// `true` once any clone of this token was cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Events & observers
// ---------------------------------------------------------------------------

/// One structured step of a synthesis run, in emission order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SearchEvent {
    /// The driver handed control to the strategy.
    Started {
        /// [`Strategy::name`] of the running strategy.
        strategy: &'static str,
    },
    /// A candidate was analyzed and kept or discarded.
    Evaluated {
        /// Evaluations performed so far (including this one).
        evaluations: u64,
        /// The candidate's summary.
        summary: EvalSummary,
        /// Whether the strategy kept the candidate (an annealer accepting a
        /// move, a greedy search adopting a new local best).
        accepted: bool,
    },
    /// A candidate was structurally infeasible (analysis error); nothing
    /// was learned about its cost.
    Infeasible {
        /// Evaluations performed so far (including this attempt).
        evaluations: u64,
    },
    /// The driver recorded a new global incumbent.
    NewIncumbent {
        /// Evaluations performed when the incumbent was found.
        evaluations: u64,
        /// The incumbent's summary.
        summary: EvalSummary,
    },
    /// An annealing strategy cooled into a new temperature.
    TemperatureEpoch {
        /// Evaluations performed so far.
        evaluations: u64,
        /// The temperature after cooling.
        temperature: f64,
    },
    /// A composite strategy moved to its next phase (e.g. OR finishing
    /// schedule optimization and starting a hill climb).
    Phase {
        /// A stable, strategy-defined phase name.
        name: &'static str,
    },
    /// The run ended; always the final event.
    Finished {
        /// Total evaluations performed.
        evaluations: u64,
        /// Whether the budget was exhausted (or the run cancelled) before
        /// the strategy finished naturally.
        exhausted: bool,
    },
}

/// A pluggable listener for [`SearchEvent`]s.
///
/// Observers run synchronously inside the search loop; keep `on_event`
/// cheap. `&mut O` also implements `Observer`, so an observer can be
/// borrowed into a run and inspected afterwards.
pub trait Observer {
    /// Called for every event, in emission order.
    fn on_event(&mut self, event: &SearchEvent);
}

impl<O: Observer + ?Sized> Observer for &mut O {
    fn on_event(&mut self, event: &SearchEvent) {
        (**self).on_event(event)
    }
}

/// An [`Observer`] counting events per kind — a cheap smoke signal for
/// tests and progress reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventCounter {
    /// `Evaluated` events seen.
    pub evaluated: u64,
    /// `Evaluated` events with `accepted == true`.
    pub accepted: u64,
    /// `Infeasible` events seen.
    pub infeasible: u64,
    /// `NewIncumbent` events seen.
    pub incumbents: u64,
    /// `TemperatureEpoch` events seen.
    pub epochs: u64,
    /// `Phase` events seen.
    pub phases: u64,
}

impl Observer for EventCounter {
    fn on_event(&mut self, event: &SearchEvent) {
        match event {
            SearchEvent::Evaluated { accepted, .. } => {
                self.evaluated += 1;
                if *accepted {
                    self.accepted += 1;
                }
            }
            SearchEvent::Infeasible { .. } => self.infeasible += 1,
            SearchEvent::NewIncumbent { .. } => self.incumbents += 1,
            SearchEvent::TemperatureEpoch { .. } => self.epochs += 1,
            SearchEvent::Phase { .. } => self.phases += 1,
            SearchEvent::Started { .. } | SearchEvent::Finished { .. } => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Objectives & errors
// ---------------------------------------------------------------------------

/// The two cost axes of the paper, as a selectable objective.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Objective {
    /// Minimize the degree of schedulability δΓ.
    Schedule,
    /// Minimize the total buffer need `s_total`, ranking unschedulable
    /// configurations after every schedulable one.
    Resources,
}

impl Objective {
    /// The scalar this objective minimizes for a summary.
    pub fn cost(&self, summary: &EvalSummary) -> i128 {
        match self {
            Objective::Schedule => summary.schedule_cost(),
            Objective::Resources => resource_cost(summary),
        }
    }

    /// The scalar this objective minimizes for a full evaluation.
    pub fn evaluation_cost(&self, evaluation: &Evaluation) -> i128 {
        match self {
            Objective::Schedule => evaluation.schedule_cost(),
            Objective::Resources => evaluation.resource_cost(),
        }
    }
}

/// Why a synthesis run failed to produce a report.
#[derive(Debug)]
pub enum SynthesisError {
    /// The strategy hit a structurally invalid configuration it could not
    /// recover from (e.g. an unanalyzable start configuration).
    Analysis(AnalysisError),
    /// The strategy finished without recording any incumbent (budget spent
    /// or cancelled before the first feasible candidate).
    NoIncumbent,
    /// A [`Synthesis::resume_from`] continuation failed to reproduce the
    /// checkpoint trajectory — the strategy, its parameters, the analysis
    /// parameters or the system differ from the interrupted run.
    ResumeDivergence {
        /// Checkpoint trajectory points reproduced before the divergence.
        matched: usize,
        /// Total points the checkpoint carried.
        expected: usize,
    },
    /// [`Synthesis::run`] was called without a
    /// [`strategy`](Synthesis::strategy).
    MissingStrategy,
}

impl std::fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthesisError::Analysis(e) => write!(f, "synthesis failed to analyze: {e}"),
            SynthesisError::NoIncumbent => {
                write!(f, "the strategy finished without recording an incumbent")
            }
            SynthesisError::ResumeDivergence { matched, expected } => write!(
                f,
                "resume divergence: the continuation reproduced {matched} of {expected} \
                 checkpoint incumbents; strategy, parameters and system must match the \
                 interrupted run exactly"
            ),
            SynthesisError::MissingStrategy => {
                write!(f, "no strategy was set; call .strategy(...) before .run()")
            }
        }
    }
}

impl std::error::Error for SynthesisError {}

impl From<AnalysisError> for SynthesisError {
    fn from(e: AnalysisError) -> Self {
        SynthesisError::Analysis(e)
    }
}

/// One point of the degree-of-schedulability trajectory: the incumbent
/// summary after `evaluations` analyses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrajectoryPoint {
    /// Evaluations performed when this incumbent was recorded.
    pub evaluations: u64,
    /// The incumbent's summary at that point.
    pub summary: EvalSummary,
}

// ---------------------------------------------------------------------------
// The search context
// ---------------------------------------------------------------------------

/// What the driver hands a [`Strategy`]: the shared [`Evaluator`], the
/// budget/cancellation state, incumbent tracking and the observer fan-out.
pub struct SearchCtx<'s, 'a, 'run> {
    evaluator: &'run mut Evaluator<'s>,
    observers: &'run mut [Box<dyn Observer + 'a>],
    budget: Budget,
    cancel: Option<CancelToken>,
    evaluations: u64,
    /// The first budget axis observed exhausted; sticky (every axis is
    /// monotone, so once a poll reports exhausted the run stays exhausted).
    exhausted_axis: Cell<Option<BudgetAxis>>,
    incumbent: Option<(EvalSummary, SystemConfig)>,
    trajectory: Vec<TrajectoryPoint>,
    replay: Option<ReplayState>,
    /// Candidate fan-out state of the batch API
    /// ([`evaluate_candidates`](SearchCtx::evaluate_candidates)): the
    /// evaluator lanes, the request slots (allocation-reused across
    /// batches) and the results of the last batch.
    batch: BatchScratch<'s>,
    batch_requests: Vec<BatchRequest>,
    batch_len: usize,
    batch_results: Vec<Result<EvalSummary, AnalysisError>>,
}

impl<'s, 'a, 'run> std::fmt::Debug for SearchCtx<'s, 'a, 'run> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchCtx").finish_non_exhaustive()
    }
}

/// Bookkeeping of a [`Synthesis::resume_from`] continuation: events up to
/// the checkpoint are replayed silently and every replayed incumbent is
/// verified against the checkpoint trajectory.
struct ReplayState {
    /// Evaluation count of the interrupted run (the checkpoint cut).
    until: u64,
    /// The checkpoint's trajectory, to be reproduced point by point.
    expected: Vec<TrajectoryPoint>,
    /// Checkpoint trajectory points matched so far.
    matched: usize,
    /// A replayed incumbent disagreed with the checkpoint.
    diverged: bool,
}

impl<'s, 'a, 'run> SearchCtx<'s, 'a, 'run> {
    /// The system under synthesis.
    pub fn system(&self) -> &'s System {
        self.evaluator.system()
    }

    /// The analysis parameters of the run.
    pub fn params(&self) -> &AnalysisParams {
        self.evaluator.params()
    }

    /// Shared read access to the evaluator (e.g. for
    /// [`MoveSampler::sample`](crate::MoveSampler::sample) anchoring or
    /// outcome materialization).
    pub fn evaluator(&self) -> &Evaluator<'s> {
        self.evaluator
    }

    /// Evaluations performed so far (full and delta alike).
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// `true` once the evaluation budget is spent or the run was
    /// cancelled. Strategies poll this between candidates and wind down.
    ///
    /// The verdict is sticky: the first exhausted poll pins the reported
    /// axis ([`exhausted_by`](Self::exhausted_by)) and every later poll
    /// reports exhausted without re-reading the token.
    pub fn exhausted(&self) -> bool {
        if self.exhausted_axis.get().is_some() {
            return true;
        }
        let axis = if self.evaluations >= self.budget.max_evaluations {
            Some(BudgetAxis::Evaluations)
        } else if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            Some(BudgetAxis::Cancelled)
        } else {
            None
        };
        self.exhausted_axis.set(axis);
        axis.is_some()
    }

    /// The budget axis that ended the run, `None` while no poll has
    /// reported exhausted yet.
    pub fn exhausted_by(&self) -> Option<BudgetAxis> {
        self.exhausted_axis.get()
    }

    /// Runs the full analysis of `config`, counting against the budget.
    ///
    /// # Errors
    ///
    /// Propagates [`AnalysisError`] for structurally invalid
    /// configurations; searches treat such candidates as infeasible.
    pub fn evaluate(&mut self, config: &SystemConfig) -> Result<EvalSummary, AnalysisError> {
        self.evaluations += 1;
        self.evaluator.evaluate(config)
    }

    /// Runs the incremental (delta-RTA) analysis of `config`, counting
    /// against the budget. Bit-identical to [`evaluate`](Self::evaluate);
    /// `seeds` must over-approximate the difference to the evaluator's last
    /// completed analysis (see [`Evaluator::evaluate_delta`]).
    ///
    /// # Errors
    ///
    /// Propagates [`AnalysisError`] exactly like a full evaluation; the
    /// evaluator's state is unchanged on error, so accumulated seeds stay
    /// valid across a revert.
    pub fn evaluate_delta(
        &mut self,
        config: &SystemConfig,
        seeds: &DeltaSeeds,
    ) -> Result<EvalSummary, AnalysisError> {
        self.evaluations += 1;
        self.evaluator.evaluate_delta(config, seeds)
    }

    // -- Candidate batches ---------------------------------------------------
    //
    // A strategy that fans out sibling candidates (OS's per-position slot
    // scans, OR's neighborhood scan) submits them all at once and then
    // *consumes* the pre-computed results in its original sequential order:
    //
    //   ctx.begin_candidates();
    //   for c in candidates { ctx.push_candidate(&config_c, &seeds_c); }
    //   ctx.evaluate_candidates_queued();
    //   for i in 0..n { ... ctx.consume_candidate(i) ... }
    //
    // Evaluating the batch does NOT count against the budget; each
    // `consume_candidate` counts exactly one evaluation, at the moment the
    // sequential loop would have performed it. Results are bit-identical to
    // sequential `evaluate_delta` calls from the same base state
    // ([`Evaluator::evaluate_batch`]), so the strategy's decisions — and
    // with them the whole event stream — are unchanged. A candidate that is
    // evaluated but never consumed (a cancellation mid-scan, or a queued
    // batch running past the budget) never existed as far as the budget and
    // the observers are concerned; `evaluate_candidates` evaluates no
    // candidate past the evaluation budget in the first place.

    /// Starts a fresh candidate batch, clearing any previous one (request
    /// slots and lanes keep their allocations).
    pub fn begin_candidates(&mut self) {
        self.batch_len = 0;
        self.batch_results.clear();
    }

    /// Appends one candidate — a full configuration plus delta seeds
    /// relative to the evaluator's last completed analysis, exactly as
    /// [`evaluate_delta`](Self::evaluate_delta) would take them — and
    /// returns its index in the batch.
    pub fn push_candidate(&mut self, config: &SystemConfig, seeds: &DeltaSeeds) -> usize {
        let index = self.batch_len;
        if self.batch_requests.len() <= index {
            self.batch_requests.push(BatchRequest::default());
        }
        let slot = &mut self.batch_requests[index];
        slot.config.clone_from(config);
        slot.seeds.clear();
        slot.seeds.merge(seeds);
        self.batch_len = index + 1;
        index
    }

    /// Evaluates every pushed candidate data-parallel across the batch
    /// lanes ([`Evaluator::evaluate_batch`]). Does **not** count against
    /// the budget — consumption does.
    pub fn evaluate_candidates_queued(&mut self) {
        self.batch_results = self
            .evaluator
            .evaluate_batch(&mut self.batch, &self.batch_requests[..self.batch_len]);
    }

    /// Convenience fan-out for move-generated neighborhoods: builds one
    /// candidate per move — `base` with the move applied, seeding
    /// `carried` (the seeds accumulated since the last completed
    /// evaluation) plus the move's own seeds — and evaluates the batch.
    ///
    /// Only the leading moves that fit in the evaluations left in the
    /// budget become candidates: consuming them all exhausts the budget,
    /// so the rest could never be consumed. Returns that width, which the
    /// strategy consumes up to.
    pub fn evaluate_candidates(
        &mut self,
        base: &SystemConfig,
        carried: &DeltaSeeds,
        moves: &[Move],
    ) -> usize {
        self.begin_candidates();
        let left = self.budget.max_evaluations.saturating_sub(self.evaluations);
        let fits = usize::try_from(left).unwrap_or(usize::MAX);
        for (index, mv) in moves.iter().take(fits).enumerate() {
            if self.batch_requests.len() <= index {
                self.batch_requests.push(BatchRequest::default());
            }
            let slot = &mut self.batch_requests[index];
            slot.config.clone_from(base);
            slot.seeds.clear();
            slot.seeds.merge(carried);
            let _undo = mv.apply_undoable_seeded(&mut slot.config, &mut slot.seeds);
            self.batch_len = index + 1;
        }
        self.evaluate_candidates_queued();
        self.batch_len
    }

    /// The configuration of candidate `index` of the current batch.
    ///
    /// # Panics
    ///
    /// Panics if `index` is outside the batch.
    pub fn candidate_config(&self, index: usize) -> &SystemConfig {
        assert!(
            index < self.batch_len,
            "candidate {index} outside the batch"
        );
        &self.batch_requests[index].config
    }

    /// Consumes the pre-computed result of candidate `index`: counts one
    /// evaluation against the budget — exactly as the sequential
    /// [`evaluate_delta`](Self::evaluate_delta) call it replaces would —
    /// and returns the result.
    ///
    /// # Panics
    ///
    /// Panics if the batch was not evaluated or `index` is out of range.
    pub fn consume_candidate(&mut self, index: usize) -> Result<EvalSummary, AnalysisError> {
        assert!(
            index < self.batch_results.len(),
            "candidate {index} outside the evaluated batch"
        );
        self.evaluations += 1;
        self.batch_results[index].clone()
    }

    /// The current incumbent, if any was recorded yet.
    pub fn incumbent(&self) -> Option<(&EvalSummary, &SystemConfig)> {
        self.incumbent.as_ref().map(|(s, c)| (s, c))
    }

    /// Records `config` as the new incumbent: the driver keeps a clone,
    /// extends the δΓ trajectory and emits [`SearchEvent::NewIncumbent`].
    ///
    /// The strategy owns the *decision* (each heuristic compares costs its
    /// own way); the driver owns the bookkeeping.
    ///
    /// In a [`Synthesis::resume_from`] continuation, incumbents recorded
    /// inside the replayed prefix are verified against the checkpoint
    /// trajectory; any disagreement fails the run with
    /// [`SynthesisError::ResumeDivergence`].
    pub fn record_incumbent(&mut self, summary: EvalSummary, config: &SystemConfig) {
        if let Some(replay) = &mut self.replay {
            let point = TrajectoryPoint {
                evaluations: self.evaluations,
                summary,
            };
            if replay.matched < replay.expected.len() {
                if point == replay.expected[replay.matched] {
                    replay.matched += 1;
                } else {
                    replay.diverged = true;
                }
            } else if self.evaluations <= replay.until {
                // An incumbent inside the replayed prefix the checkpoint
                // never saw: the continuation is not re-running the same
                // search.
                replay.diverged = true;
            }
        }
        match &mut self.incumbent {
            Some((s, c)) => {
                *s = summary;
                c.clone_from(config);
            }
            None => self.incumbent = Some((summary, config.clone())),
        }
        self.trajectory.push(TrajectoryPoint {
            evaluations: self.evaluations,
            summary,
        });
        self.emit(SearchEvent::NewIncumbent {
            evaluations: self.evaluations,
            summary,
        });
    }

    /// Delivers `event` to every attached observer, in attachment order.
    ///
    /// In a [`Synthesis::resume_from`] continuation, events that the
    /// interrupted run already delivered (those inside the replayed prefix)
    /// are suppressed, so a streaming consumer sees each event exactly once
    /// across the interrupted run and its continuations. `Started` and
    /// `Finished` are always delivered — they frame *this* run.
    pub fn emit(&mut self, event: SearchEvent) {
        if let Some(replay) = &self.replay {
            let replayed = match event {
                SearchEvent::Started { .. } | SearchEvent::Finished { .. } => false,
                SearchEvent::Evaluated { evaluations, .. }
                | SearchEvent::Infeasible { evaluations }
                | SearchEvent::NewIncumbent { evaluations, .. } => evaluations <= replay.until,
                // A temperature epoch is emitted *before* its iteration's
                // evaluation, so the epoch stamped exactly at the cut
                // belongs to the first non-replayed iteration: suppress
                // strictly below the cut.
                SearchEvent::TemperatureEpoch { evaluations, .. } => evaluations < replay.until,
                // Count-less events: best effort — a `Phase` emitted exactly
                // at the checkpoint boundary may be delivered again.
                SearchEvent::Phase { .. } => self.evaluations < replay.until,
            };
            if replayed {
                return;
            }
        }
        for observer in self.observers.iter_mut() {
            observer.on_event(&event);
        }
    }
}

// ---------------------------------------------------------------------------
// Strategy & the driver
// ---------------------------------------------------------------------------

/// A synthesis heuristic pluggable into [`Synthesis`].
///
/// Implementations drive the search loop through the [`SearchCtx`] (see the
/// [module docs](self) for the full contract): evaluate through the
/// context, record incumbents, poll [`SearchCtx::exhausted`], emit events.
/// `Send` is required so strategies can run on [`crate::serve`] workers.
pub trait Strategy: Send {
    /// A stable, human-readable strategy name (`"SF"`, `"SAS"`, …).
    fn name(&self) -> &'static str;

    /// Runs the search to completion (or budget exhaustion).
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError::Analysis`] only for failures the strategy
    /// cannot search around (e.g. an unanalyzable start configuration);
    /// infeasible *candidates* are skipped, not propagated.
    fn run(&mut self, ctx: &mut SearchCtx<'_, '_, '_>) -> Result<(), SynthesisError>;
}

impl<S: Strategy + ?Sized> Strategy for &mut S {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn run(&mut self, ctx: &mut SearchCtx<'_, '_, '_>) -> Result<(), SynthesisError> {
        (**self).run(ctx)
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn run(&mut self, ctx: &mut SearchCtx<'_, '_, '_>) -> Result<(), SynthesisError> {
        (**self).run(ctx)
    }
}

/// The unified result of one synthesis run.
#[derive(Clone, Debug)]
pub struct SynthesisReport {
    /// [`Strategy::name`] of the strategy that produced this report.
    pub strategy: &'static str,
    /// The incumbent: configuration, costs and the full analysis outcome.
    pub best: Evaluation,
    /// Schedulability analyses performed (full and delta alike, including
    /// infeasible attempts; excluding the driver's final materialization).
    pub evaluations: u64,
    /// The degree-of-schedulability trajectory: every incumbent in
    /// discovery order, stamped with its evaluation count.
    pub trajectory: Vec<TrajectoryPoint>,
    /// Whether the budget ran out (or the run was cancelled) before the
    /// strategy finished naturally.
    pub exhausted: bool,
    /// Which limit ended the run: `None` for a natural finish, otherwise
    /// the first one a [`SearchCtx::exhausted`] poll observed (evaluations
    /// before cancellation).
    pub exhausted_by: Option<BudgetAxis>,
}

impl SynthesisReport {
    /// The incumbent's cheap summary (the last trajectory point).
    pub fn summary(&self) -> EvalSummary {
        self.trajectory
            .last()
            .expect("a report always has at least one trajectory point")
            .summary
    }
}

/// Builder-style driver for one synthesis run; the front door of this
/// crate. See the [module docs](self) for the layer map and an example.
pub struct Synthesis<'s, 'a> {
    system: &'s System,
    analysis: AnalysisParams,
    strategy: Option<Box<dyn Strategy + 'a>>,
    budget: Budget,
    cancel: Option<CancelToken>,
    observers: Vec<Box<dyn Observer + 'a>>,
    resume: Option<(u64, Vec<TrajectoryPoint>)>,
}

impl<'s, 'a> std::fmt::Debug for Synthesis<'s, 'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Synthesis").finish_non_exhaustive()
    }
}

impl<'s, 'a> Synthesis<'s, 'a> {
    /// Starts configuring a run against `system` with default analysis
    /// parameters and an unlimited budget.
    pub fn builder(system: &'s System) -> Self {
        Synthesis {
            system,
            analysis: AnalysisParams::default(),
            strategy: None,
            budget: Budget::UNLIMITED,
            cancel: None,
            observers: Vec::new(),
            resume: None,
        }
    }

    /// Sets the analysis parameters.
    pub fn analysis(mut self, params: AnalysisParams) -> Self {
        self.analysis = params;
        self
    }

    /// Sets the strategy (required).
    pub fn strategy(mut self, strategy: impl Strategy + 'a) -> Self {
        self.strategy = Some(Box::new(strategy));
        self
    }

    /// Sets the evaluation budget.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches a cancellation token.
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches an observer (repeatable; delivery in attachment order).
    /// Pass `&mut observer` to keep access to it after the run.
    pub fn observer(mut self, observer: impl Observer + 'a) -> Self {
        self.observers.push(Box::new(observer));
        self
    }

    /// Continues an interrupted run from `checkpoint` — the partial
    /// [`SynthesisReport`] of a run that timed out or was cancelled.
    ///
    /// **Contract.** The continuation must be configured with the *same*
    /// system, analysis parameters and strategy (same parameters, same
    /// seed) as the interrupted run, and a budget covering the total work
    /// (e.g. the original evaluation limit, or [`Budget::UNLIMITED`]; a
    /// serving-layer deadline restarts with the continuation's job and
    /// also covers its replay).
    /// Because every strategy is a pure function of its inputs, the
    /// continuation deterministically replays the interrupted prefix —
    /// re-deriving the search state the checkpoint cannot carry (RNG
    /// stream, working configuration, evaluator caches) — and then runs on,
    /// producing a report **bit-identical** to a never-interrupted run.
    /// This holds for *any* cut point of the SF, SA and OS strategies,
    /// including nondeterministic cancellations and deadline cuts.
    ///
    /// An [`Or`](crate::Or) run cut inside its hill climb is **not**
    /// resumable: each climb step accepts the best neighbour of its scan,
    /// so a cut that truncates the scan can record an incumbent the
    /// uninterrupted run never records, and the continuation then fails
    /// with [`SynthesisError::ResumeDivergence`]. Making it resumable would
    /// change what budget-cut OR runs return.
    ///
    /// Two guarantees distinguish this from simply re-running:
    ///
    /// * **Exactly-once event streaming** — events the interrupted run
    ///   already delivered are suppressed during the replay, so an observer
    ///   attached to both runs sees each event once (`Started`/`Finished`
    ///   frame each run; a count-less `Phase` event exactly at the boundary
    ///   may repeat).
    /// * **Replay verification** — every incumbent re-recorded inside the
    ///   replayed prefix is checked against the checkpoint trajectory;
    ///   divergence (a mismatched strategy, seed, system or analysis
    ///   configuration) fails the run with
    ///   [`SynthesisError::ResumeDivergence`] instead of silently
    ///   producing a report from a different search.
    pub fn resume_from(mut self, checkpoint: &SynthesisReport) -> Self {
        self.resume = Some((checkpoint.evaluations, checkpoint.trajectory.clone()));
        self
    }

    /// Runs the strategy and returns the unified report.
    ///
    /// The incumbent is re-analyzed once at the end so the report carries
    /// its full [`AnalysisOutcome`](mcs_core::AnalysisOutcome) without the
    /// search loop ever materializing outcome maps.
    ///
    /// # Errors
    ///
    /// [`SynthesisError::Analysis`] if the strategy aborted on an
    /// unrecoverable analysis failure, [`SynthesisError::NoIncumbent`] if
    /// it finished (or was cancelled) before recording any incumbent,
    /// [`SynthesisError::MissingStrategy`] if no strategy was set.
    pub fn run(mut self) -> Result<SynthesisReport, SynthesisError> {
        let mut strategy = self
            .strategy
            .take()
            .ok_or(SynthesisError::MissingStrategy)?;
        let mut evaluator = Evaluator::new(self.system, self.analysis);
        let mut ctx = SearchCtx {
            evaluator: &mut evaluator,
            observers: &mut self.observers,
            budget: self.budget,
            cancel: self.cancel.clone(),
            evaluations: 0,
            exhausted_axis: Cell::new(None),
            incumbent: None,
            trajectory: Vec::new(),
            replay: self.resume.take().map(|(until, expected)| ReplayState {
                until,
                expected,
                matched: 0,
                diverged: false,
            }),
            batch: BatchScratch::new(),
            batch_requests: Vec::new(),
            batch_len: 0,
            batch_results: Vec::new(),
        };
        ctx.emit(SearchEvent::Started {
            strategy: strategy.name(),
        });
        let outcome = strategy.run(&mut ctx);
        let evaluations = ctx.evaluations;
        let exhausted = ctx.exhausted();
        let exhausted_by = ctx.exhausted_by();
        ctx.emit(SearchEvent::Finished {
            evaluations,
            exhausted,
        });
        let incumbent = ctx.incumbent.take();
        let trajectory = std::mem::take(&mut ctx.trajectory);
        let replay = ctx.replay.take();
        outcome?;
        if let Some(replay) = replay {
            // Once the continuation has run past the checkpoint, every
            // checkpoint incumbent must have been reproduced in order.
            if replay.diverged
                || (evaluations >= replay.until && replay.matched < replay.expected.len())
            {
                return Err(SynthesisError::ResumeDivergence {
                    matched: replay.matched,
                    expected: replay.expected.len(),
                });
            }
        }
        let (summary, config) = incumbent.ok_or(SynthesisError::NoIncumbent)?;
        // Materialize the incumbent's outcome with one extra analysis (the
        // search loop only ever compared summaries).
        let check = evaluator.evaluate(&config)?;
        debug_assert_eq!(
            check, summary,
            "re-analyzing the incumbent must reproduce its summary"
        );
        Ok(SynthesisReport {
            strategy: strategy.name(),
            best: materialize(&evaluator, config, check),
            evaluations,
            trajectory,
            exhausted,
            exhausted_by,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{run_batch, JobSpec};
    use crate::{Sa, SaParams};
    use mcs_gen::figure4;
    use mcs_model::Time;

    fn quick_sa(seed: u64) -> Sa {
        Sa::schedule(SaParams {
            iterations: 40,
            seed,
            ..SaParams::default()
        })
    }

    #[test]
    fn budget_truncates_the_run_and_is_reported() {
        let fig = figure4(Time::from_millis(240));
        let full = Synthesis::builder(&fig.system)
            .strategy(quick_sa(3))
            .run()
            .expect("analyzable");
        assert!(!full.exhausted);
        let capped = Synthesis::builder(&fig.system)
            .strategy(quick_sa(3))
            .budget(Budget::evals(5))
            .run()
            .expect("analyzable");
        assert!(capped.exhausted);
        assert!(capped.evaluations <= 6, "cooperative overshoot is small");
        assert!(capped.evaluations < full.evaluations);
    }

    #[test]
    fn events_stream_deterministically_and_trajectory_matches() {
        let fig = figure4(Time::from_millis(240));
        let run = |_: u32| {
            let mut counter = EventCounter::default();
            let report = Synthesis::builder(&fig.system)
                .strategy(quick_sa(9))
                .observer(&mut counter)
                .run()
                .expect("analyzable");
            (counter, report)
        };
        let (c1, r1) = run(0);
        let (c2, r2) = run(1);
        assert_eq!(c1, c2, "seeded runs reproduce the event stream");
        assert_eq!(r1.trajectory, r2.trajectory);
        assert_eq!(c1.incumbents as usize, r1.trajectory.len());
        assert_eq!(r1.summary(), r2.summary());
        assert!(c1.epochs > 0, "SA narrates temperature epochs");
    }

    #[test]
    fn cancellation_stops_a_run_early() {
        let fig = figure4(Time::from_millis(240));
        let token = CancelToken::new();
        token.cancel();
        let report = Synthesis::builder(&fig.system)
            .strategy(quick_sa(1))
            .cancel(token)
            .run()
            .expect("the start configuration still lands an incumbent");
        // The start evaluation records an incumbent; the loop then winds
        // down immediately.
        assert!(report.exhausted);
        assert!(report.evaluations <= 2);
    }

    #[test]
    fn experiment_runner_preserves_submission_order() {
        let fig = figure4(Time::from_millis(240));
        let system = Arc::new(fig.system);
        let jobs = (0..4)
            .map(|seed| {
                JobSpec::new(
                    format!("fig4#{seed}"),
                    Arc::clone(&system),
                    AnalysisParams::default(),
                    quick_sa(seed),
                )
                .labelled(format!("SAS#{seed}"))
            })
            .collect();
        let records = run_batch(jobs);
        assert_eq!(records.len(), 4);
        for (seed, record) in records.iter().enumerate() {
            assert_eq!(record.name, format!("fig4#{seed}"));
            assert_eq!(record.strategy, format!("SAS#{seed}"));
            let line = record.json_line();
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(line.contains("\"ok\": true"));
            assert!(!line.contains('\n'));
        }
    }

    /// Evaluates the start configuration, then fans its whole
    /// neighborhood out as one candidate batch.
    struct NeighborhoodBatch {
        moves: usize,
        width: usize,
    }

    impl Strategy for NeighborhoodBatch {
        fn name(&self) -> &'static str {
            "neighborhood-batch"
        }
        fn run(&mut self, ctx: &mut SearchCtx<'_, '_, '_>) -> Result<(), SynthesisError> {
            let start = crate::sa_start(ctx.system());
            let summary = ctx.evaluate(&start)?;
            ctx.record_incumbent(summary, &start);
            let current = materialize(ctx.evaluator(), start, summary);
            let moves = crate::neighborhood(ctx.system(), &current);
            self.moves = moves.len();
            self.width = ctx.evaluate_candidates(&current.config, &DeltaSeeds::new(), &moves);
            Ok(())
        }
    }

    #[test]
    fn candidate_batches_stop_at_the_budget() {
        let system = mcs_gen::generate(&mcs_gen::GeneratorParams::paper_sized(2, 1));
        let mut probe = NeighborhoodBatch { moves: 0, width: 0 };
        Synthesis::builder(&system)
            .strategy(&mut probe)
            .budget(Budget::evals(5))
            .run()
            .expect("analyzable");
        assert!(probe.moves >= 20, "only {} moves", probe.moves);
        assert_eq!(probe.width, 4, "one evaluation spent, four left");

        Synthesis::builder(&system)
            .strategy(&mut probe)
            .run()
            .expect("analyzable");
        assert_eq!(
            probe.width, probe.moves,
            "an unlimited budget fits them all"
        );
    }

    #[test]
    fn missing_strategy_is_an_error() {
        let fig = figure4(Time::from_millis(240));
        let result = Synthesis::builder(&fig.system).run();
        assert!(
            matches!(result, Err(SynthesisError::MissingStrategy)),
            "{result:?}"
        );
    }
}
