//! `mcs::serve` — the streaming synthesis service.
//!
//! A [`SynthesisService`] owns a fixed worker pool fed from a bounded FIFO
//! queue, with admission control, deadlines, panic isolation and resume;
//! jobs are submitted while earlier ones run, and every job ends in a
//! structured [`JobRecord`] streamed back to the consumer (with a stable
//! JSON-lines rendering via [`mcs_core::json_line`]). [`run_batch`] serves
//! a *static* batch on it — every job known up front, the pool drains it,
//! records come back in submission order — and is what the
//! paper-reproduction sweeps sit on; [`best_record`] picks the winner of a
//! batch that runs several strategies on one instance.
//!
//! # Contracts
//!
//! **Admission control (bounded FIFO queue).** The submission queue holds
//! at most [`ServiceConfig::queue_capacity`] jobs, and workers take them in
//! submission order. [`SynthesisService::try_submit`] never blocks — a full
//! queue returns [`SubmitError::QueueFull`] with the job handed back — so
//! backpressure reaches the producer instead of growing an unbounded
//! backlog.
//!
//! **Deadlines.** A [`JobSpec::deadline`] caps the wall-clock time of a
//! job, measured from execution start (queue wait does not count). Each
//! worker keeps a timer thread that a job with a deadline arms; if the
//! deadline passes before the job ends, the timer cancels the job's
//! [`CancelToken`], and the run winds down at its next budget poll —
//! including inside a [resume](JobSpec::resume_from) replay — and records
//! [`JobOutcome::TimedOut`] with the partial report (whose `exhausted_by`
//! reads `cancelled`). The search itself never reads the host clock: it
//! sees a deadline only as a cancelled token. Like every cancellation,
//! deadlines are cooperative: a strategy that never polls
//! [`SearchCtx::exhausted`](crate::SearchCtx::exhausted) cannot be stopped.
//!
//! **Panic isolation.** Each job runs under [`std::panic::catch_unwind`]; a
//! panicking strategy produces a [`JobOutcome::Panicked`] record instead of
//! tearing down the worker or the pool. Every job constructs a fresh
//! [`Evaluator`](mcs_core::Evaluator), so a panic cannot leak poisoned
//! analysis state into later jobs. A panicked job is not rerun: every
//! shipped strategy is a pure function of its inputs, so it would panic
//! again.
//!
//! **Resumable jobs.** A timed-out or cancelled job's partial
//! [`SynthesisReport`] re-seeds a continuation via
//! [`JobSpec::resume_from`], which drives
//! [`Synthesis::resume_from`] — the continuation deterministically replays
//! the interrupted prefix (verifying it against the checkpoint trajectory)
//! and produces a report bit-identical to a never-interrupted run,
//! regardless of where the cut fell.
//!
//! **Streaming and drain.** Records are streamed in completion order
//! through [`SynthesisService::next_record`] (each carries its [`JobId`]
//! for client-side reordering). [`SynthesisService::drain`] waits for the
//! backlog to empty; [`SynthesisService::shutdown`] joins the workers
//! (graceful: queued jobs still run); [`SynthesisService::shutdown_now`]
//! cancels queued and running jobs first. Dropping the service performs a
//! graceful shutdown.
//!
//! # Example
//!
//! ```no_run
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! use mcs_core::AnalysisParams;
//! use mcs_gen::{generate, GeneratorParams};
//! use mcs_opt::serve::{JobSpec, ServiceConfig, SynthesisService};
//! use mcs_opt::{Budget, Sa, SaParams};
//!
//! let service = SynthesisService::start(ServiceConfig::default());
//! let system = Arc::new(generate(&GeneratorParams::paper_sized(2, 7)));
//! let id = service
//!     .try_submit(
//!         JobSpec::new("nodes=2,seed=7", system, AnalysisParams::default(),
//!                      Sa::schedule(SaParams::default()))
//!             .budget(Budget::evals(100_000))
//!             .deadline(Duration::from_secs(5)),
//!     )
//!     .expect("queue has room");
//! for record in service.shutdown() {
//!     println!("{}", record.json_line());
//! }
//! # let _ = id;
//! ```

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use mcs_core::AnalysisParams;
use mcs_model::System;

use crate::synthesis::{
    Budget, BudgetAxis, CancelToken, Objective, Strategy, Synthesis, SynthesisError,
    SynthesisReport,
};

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Configuration of a [`SynthesisService`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads in the pool. Default: [`rayon::current_num_threads`]
    /// — `RAYON_NUM_THREADS` if set (the knob the batch sweeps already
    /// document), else [`std::thread::available_parallelism`].
    pub workers: usize,
    /// Maximum queued (not yet running) jobs; submissions beyond it hit
    /// backpressure. Default 64.
    pub queue_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: rayon::current_num_threads(),
            queue_capacity: 64,
        }
    }
}

// ---------------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------------

/// Identifier of a submitted job, assigned in submission order — sorting
/// records by id reproduces submission order from the completion stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// One unit of work for the service: a system, a strategy and the job's
/// serving envelope (budget, deadline, resume seed).
pub struct JobSpec {
    name: String,
    strategy_label: String,
    system: Arc<System>,
    analysis: AnalysisParams,
    strategy: Box<dyn Strategy>,
    budget: Budget,
    deadline: Option<Duration>,
    resume: Option<SynthesisReport>,
}

impl std::fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSpec").finish_non_exhaustive()
    }
}

impl JobSpec {
    /// Creates a job with default envelope: unlimited budget, no deadline,
    /// fresh (non-resumed) search.
    pub fn new(
        name: impl Into<String>,
        system: Arc<System>,
        analysis: AnalysisParams,
        strategy: impl Strategy + 'static,
    ) -> Self {
        JobSpec {
            name: name.into(),
            strategy_label: strategy.name().to_string(),
            system,
            analysis,
            strategy: Box::new(strategy),
            budget: Budget::UNLIMITED,
            deadline: None,
            resume: None,
        }
    }

    /// Overrides the strategy label carried into the record.
    pub fn labelled(mut self, label: impl Into<String>) -> Self {
        self.strategy_label = label.into();
        self
    }

    /// Sets the job's evaluation [`Budget`].
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Caps the job's wall-clock time (measured from execution start;
    /// queue wait does not count): once it passes, the job is cancelled
    /// and records [`JobOutcome::TimedOut`] — see the
    /// [module docs](self).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Seeds the job as a continuation of an interrupted run (the partial
    /// report of a timed-out or cancelled job). The strategy and analysis
    /// parameters must match the interrupted run; see
    /// [`Synthesis::resume_from`] for the bit-identity contract.
    pub fn resume_from(mut self, checkpoint: SynthesisReport) -> Self {
        self.resume = Some(checkpoint);
        self
    }

    /// The job's name (instance label).
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// How one job ended. Partial reports (timed-out or cancelled runs that
/// had already recorded an incumbent) re-seed continuations via
/// [`JobSpec::resume_from`].
#[derive(Debug)]
pub enum JobOutcome {
    /// The strategy finished (naturally or by exhausting its evaluation
    /// budget — the report's `exhausted`/`exhausted_by` distinguish).
    Completed(Box<SynthesisReport>),
    /// The run failed with a structured error (unanalyzable start, no
    /// incumbent before exhaustion, resume divergence).
    Failed(SynthesisError),
    /// The job's deadline passed before the strategy finished; `partial`
    /// carries whatever incumbent the run had recorded.
    TimedOut {
        /// The partial report, `None` if no incumbent was recorded yet.
        partial: Option<Box<SynthesisReport>>,
    },
    /// [`SynthesisService::shutdown_now`] stopped the job.
    Cancelled {
        /// The partial report, `None` if the job never ran or had no
        /// incumbent yet.
        partial: Option<Box<SynthesisReport>>,
    },
    /// The strategy panicked.
    Panicked {
        /// The panic message (payload rendered to a string).
        message: String,
    },
}

impl JobOutcome {
    /// A stable lower-case outcome name (`"completed"`, `"failed"`,
    /// `"timed_out"`, `"cancelled"`, `"panicked"`).
    pub fn kind(&self) -> &'static str {
        match self {
            JobOutcome::Completed(_) => "completed",
            JobOutcome::Failed(_) => "failed",
            JobOutcome::TimedOut { .. } => "timed_out",
            JobOutcome::Cancelled { .. } => "cancelled",
            JobOutcome::Panicked { .. } => "panicked",
        }
    }

    /// The full or partial report, if any exists.
    pub fn report(&self) -> Option<&SynthesisReport> {
        match self {
            JobOutcome::Completed(report) => Some(report),
            JobOutcome::TimedOut { partial } | JobOutcome::Cancelled { partial } => {
                partial.as_deref()
            }
            JobOutcome::Failed(_) | JobOutcome::Panicked { .. } => None,
        }
    }
}

/// The structured record of one finished job, streamed to the consumer.
#[derive(Debug)]
pub struct JobRecord {
    /// The job's id (submission order).
    pub id: JobId,
    /// The job's name (instance label).
    pub name: String,
    /// The job's strategy label.
    pub strategy: String,
    /// Wall-clock from execution start to the outcome, in microseconds (0
    /// for a job cancelled while queued).
    pub elapsed_micros: u64,
    /// How the job ended.
    pub outcome: JobOutcome,
}

impl JobRecord {
    /// Renders the record as one stable JSON line (see
    /// [`mcs_core::json_line`]): `job`, `name`, `strategy`, `outcome`,
    /// `ok`, then the report fields (`schedulable`, `schedule_cost`,
    /// `total_buffers`, `evaluations`, `exhausted`, `exhausted_by`) when a
    /// full or partial report exists, `error` for failures/panics, and
    /// `elapsed_micros`.
    pub fn json_line(&self) -> String {
        use mcs_core::JsonField as F;
        let error = match &self.outcome {
            JobOutcome::Failed(e) => Some(e.to_string()),
            JobOutcome::Panicked { message } => Some(message.clone()),
            _ => None,
        };
        let mut fields = vec![
            ("job", F::UInt(self.id.0)),
            ("name", F::Str(&self.name)),
            ("strategy", F::Str(&self.strategy)),
            ("outcome", F::Str(self.outcome.kind())),
            (
                "ok",
                F::Bool(matches!(self.outcome, JobOutcome::Completed(_))),
            ),
        ];
        if let Some(report) = self.outcome.report() {
            fields.push(("schedulable", F::Bool(report.best.is_schedulable())));
            fields.push(("schedule_cost", F::Int(report.best.schedule_cost())));
            fields.push(("total_buffers", F::UInt(report.best.total_buffers)));
            fields.push(("evaluations", F::UInt(report.evaluations)));
            fields.push(("exhausted", F::Bool(report.exhausted)));
            if let Some(axis) = report.exhausted_by {
                fields.push(("exhausted_by", F::Str(axis.as_str())));
            }
        }
        if let Some(error) = &error {
            fields.push(("error", F::Str(error)));
        }
        fields.push(("elapsed_micros", F::UInt(self.elapsed_micros)));
        mcs_core::json_line(&fields)
    }
}

// ---------------------------------------------------------------------------
// Submission errors
// ---------------------------------------------------------------------------

/// Why a submission was rejected; hands the job back (boxed — a spec is a
/// heavyweight bundle) so the producer can retry, reroute or drop it.
pub enum SubmitError {
    /// The bounded queue is full.
    QueueFull(Box<JobSpec>),
}

impl std::fmt::Debug for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let SubmitError::QueueFull(job) = self;
        write!(f, "SubmitError(queue full, job {:?})", job.name)
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let SubmitError::QueueFull(job) = self;
        write!(f, "could not submit job {:?}: queue full", job.name)
    }
}

impl std::error::Error for SubmitError {}

// ---------------------------------------------------------------------------
// Shared service state
// ---------------------------------------------------------------------------

struct QueuedJob {
    id: JobId,
    spec: JobSpec,
}

struct State {
    queue: VecDeque<QueuedJob>,
    next_id: u64,
    shutdown: bool,
    /// Per-worker cancel token of the running job.
    running: Vec<Option<CancelToken>>,
    /// Jobs submitted but not yet recorded (queued + running).
    outstanding: usize,
}

struct Shared {
    state: Mutex<State>,
    not_empty: Condvar,
    capacity: usize,
}

impl Shared {
    /// Locks the state, recovering from poisoning: workers isolate panics
    /// with `catch_unwind` and only hold the lock for plain bookkeeping,
    /// so a poisoned mutex carries no torn invariants worth dying for.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// The always-on streaming synthesis service. See the [module docs](self)
/// for the full contract map.
pub struct SynthesisService {
    shared: Arc<Shared>,
    records: Mutex<Receiver<JobRecord>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for SynthesisService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SynthesisService").finish_non_exhaustive()
    }
}

impl SynthesisService {
    /// Starts the worker pool and returns the service handle.
    pub fn start(config: ServiceConfig) -> Self {
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                next_id: 0,
                shutdown: false,
                running: vec![None; workers],
                outstanding: 0,
            }),
            not_empty: Condvar::new(),
            capacity: config.queue_capacity.max(1),
        });
        let (tx, rx) = mpsc::channel();
        let handles = (0..workers)
            .map(|slot| {
                let shared = Arc::clone(&shared);
                let tx = tx.clone();
                thread::Builder::new()
                    .name(format!("mcs-serve-{slot}"))
                    .spawn(move || worker_loop(&shared, &tx, slot))
                    .expect("spawning a service worker thread")
            })
            .collect();
        SynthesisService {
            shared,
            records: Mutex::new(rx),
            workers: handles,
        }
    }

    /// Submits a job without blocking.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the bounded queue is at capacity;
    /// it hands the job back.
    pub fn try_submit(&self, job: JobSpec) -> Result<JobId, SubmitError> {
        let mut st = self.shared.lock();
        if st.queue.len() >= self.shared.capacity {
            return Err(SubmitError::QueueFull(Box::new(job)));
        }
        let id = JobId(st.next_id);
        st.next_id += 1;
        st.outstanding += 1;
        st.queue.push_back(QueuedJob { id, spec: job });
        self.shared.not_empty.notify_one();
        Ok(id)
    }

    /// Jobs waiting in the queue.
    pub fn pending(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Jobs currently executing.
    pub fn running(&self) -> usize {
        self.shared.lock().running.iter().flatten().count()
    }

    /// Jobs submitted but not yet recorded (queued + running).
    pub fn outstanding(&self) -> usize {
        self.shared.lock().outstanding
    }

    /// Receives the next finished job's record, waiting up to `timeout`.
    /// Records arrive in completion order; sort by [`JobRecord::id`] to
    /// recover submission order.
    pub fn next_record(&self, timeout: Duration) -> Option<JobRecord> {
        self.records
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .recv_timeout(timeout)
            .ok()
    }

    /// Waits until every submitted job has finished and returns all
    /// records not yet consumed through [`next_record`](Self::next_record).
    /// The service keeps accepting submissions (including while draining).
    pub fn drain(&self) -> Vec<JobRecord> {
        let rx = self
            .records
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let mut records = Vec::new();
        loop {
            if self.shared.lock().outstanding == 0 {
                break;
            }
            match rx.recv_timeout(Duration::from_millis(20)) {
                Ok(record) => records.push(record),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        // Workers enqueue a job's record *before* marking it done, so once
        // outstanding hits zero the channel holds every remaining record.
        while let Ok(record) = rx.try_recv() {
            records.push(record);
        }
        records
    }

    /// Graceful shutdown: lets the workers finish every queued job, joins
    /// them and returns all unconsumed records.
    pub fn shutdown(mut self) -> Vec<JobRecord> {
        self.shutdown_inner(false)
    }

    /// Immediate shutdown: cancels queued jobs (they record
    /// [`JobOutcome::Cancelled`] without running) and cooperatively cancels
    /// running jobs, then joins the workers and returns all unconsumed
    /// records.
    pub fn shutdown_now(mut self) -> Vec<JobRecord> {
        self.shutdown_inner(true)
    }

    fn shutdown_inner(&mut self, now: bool) -> Vec<JobRecord> {
        let dropped = {
            let mut st = self.shared.lock();
            st.shutdown = true;
            if now {
                st.outstanding -= st.queue.len();
                for token in st.running.iter().flatten() {
                    token.cancel();
                }
                std::mem::take(&mut st.queue)
            } else {
                VecDeque::new()
            }
        };
        self.shared.not_empty.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        let rx = self
            .records
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let mut records: Vec<JobRecord> = rx.try_iter().collect();
        records.extend(dropped.into_iter().map(|queued| JobRecord {
            id: queued.id,
            name: queued.spec.name,
            strategy: queued.spec.strategy_label,
            elapsed_micros: 0,
            outcome: JobOutcome::Cancelled { partial: None },
        }));
        records
    }
}

impl Drop for SynthesisService {
    /// Graceful shutdown (queued jobs still run); records not yet consumed
    /// are discarded. Call [`shutdown`](Self::shutdown) to keep them.
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            let _ = self.shutdown_inner(false);
        }
    }
}

/// Runs a static batch to completion: starts a pool sized to the batch
/// (`RAYON_NUM_THREADS` caps the workers), submits every job, shuts down
/// gracefully and returns the records sorted by [`JobId`] — submission
/// order, so a parallel batch yields byte-identical output to a sequential
/// one. An empty batch starts no pool.
///
/// Each job is isolated like any service job: a panicking strategy yields
/// a [`JobOutcome::Panicked`] record while every other job completes, and
/// a job past its [`JobSpec::deadline`] reports its partial result as
/// [`JobOutcome::TimedOut`].
pub fn run_batch(jobs: Vec<JobSpec>) -> Vec<JobRecord> {
    if jobs.is_empty() {
        return Vec::new();
    }
    let service = SynthesisService::start(ServiceConfig {
        workers: ServiceConfig::default().workers.min(jobs.len()),
        // The whole batch is known up front: size the queue to it so
        // every submission fits.
        queue_capacity: jobs.len(),
    });
    for job in jobs {
        service.try_submit(job).expect("queue sized to the batch");
    }
    let mut records = service.shutdown();
    records.sort_by_key(|record| record.id);
    records
}

/// The winner of a group of records — typically a [`run_batch`] of several
/// strategies or seeds on one instance: the record whose full or partial
/// report ([`JobOutcome::report`]) has the lowest `objective` cost, ties
/// going to the lowest [`JobId`]. Records without a report (failed or
/// panicked jobs) never win; `None` when no record has one.
pub fn best_record(records: &[JobRecord], objective: Objective) -> Option<&JobRecord> {
    records
        .iter()
        .filter_map(|record| Some((record.outcome.report()?, record)))
        .min_by_key(|(report, record)| (objective.evaluation_cost(&report.best), record.id))
        .map(|(_, record)| record)
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Shared, tx: &Sender<JobRecord>, slot: usize) {
    let timer = DeadlineTimer::start();
    loop {
        let job = {
            let mut st = shared.lock();
            loop {
                if let Some(queued) = st.queue.pop_front() {
                    // Registered under the same lock as the pop, so a
                    // `shutdown_now` sees every job as queued or running.
                    let token = CancelToken::new();
                    st.running[slot] = Some(token.clone());
                    break Some((queued, token));
                }
                if st.shutdown {
                    break None;
                }
                st = shared
                    .not_empty
                    .wait(st)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        let Some((queued, token)) = job else {
            break;
        };
        let record = execute_job(&timer, queued, &token);
        // Record first, then retire: `drain` relies on every record being
        // in the channel by the time `outstanding` reaches zero.
        let _ = tx.send(record);
        let mut st = shared.lock();
        st.running[slot] = None;
        st.outstanding -= 1;
    }
    timer.stop();
}

fn execute_job(timer: &DeadlineTimer, queued: QueuedJob, token: &CancelToken) -> JobRecord {
    let QueuedJob { id, mut spec } = queued;
    let started = Instant::now();
    if let Some(deadline) = spec.deadline {
        timer.arm(deadline, token.clone());
    }
    // Strategies keep their mutable search state local to `run`, and every
    // job builds a fresh `Evaluator`, so a caught panic leaves no torn
    // state behind for the worker's next job.
    let run = panic::catch_unwind(AssertUnwindSafe(|| {
        let mut builder = Synthesis::builder(&spec.system)
            .analysis(spec.analysis)
            .budget(spec.budget)
            .cancel(token.clone());
        if let Some(checkpoint) = &spec.resume {
            builder = builder.resume_from(checkpoint);
        }
        builder.strategy(&mut spec.strategy).run()
    }));
    let timed_out = spec.deadline.is_some() && timer.disarm();
    // The outcome of a job its token stopped: timed out when its deadline
    // fired first, cancelled by `shutdown_now` otherwise.
    let stopped = |partial: Option<Box<SynthesisReport>>| {
        if timed_out {
            JobOutcome::TimedOut { partial }
        } else {
            JobOutcome::Cancelled { partial }
        }
    };
    let outcome = match run {
        Err(payload) => JobOutcome::Panicked {
            message: panic_message(payload.as_ref()),
        },
        Ok(Ok(report)) => match report.exhausted_by {
            Some(BudgetAxis::Cancelled) => stopped(Some(Box::new(report))),
            // Evaluation-budget exhaustion is a normal completion; the
            // report itself says `exhausted`.
            Some(BudgetAxis::Evaluations) | None => JobOutcome::Completed(Box::new(report)),
        },
        // Stopped before recording an incumbent.
        Ok(Err(SynthesisError::NoIncumbent)) if token.is_cancelled() => stopped(None),
        Ok(Err(e)) => JobOutcome::Failed(e),
    };
    JobRecord {
        id,
        name: spec.name,
        strategy: spec.strategy_label,
        elapsed_micros: started.elapsed().as_micros() as u64,
        outcome,
    }
}

/// A worker's [`JobSpec::deadline`] enforcer: a thread that lives as long
/// as its worker and, once armed for a job, cancels the job's token if the
/// deadline passes before the job ends. One long-lived thread per worker
/// keeps thread start-up off the job path: a thread per job cost about 10%
/// of the throughput of ~100 ms OR jobs on a 2-vCPU host.
struct DeadlineTimer {
    /// `Some` arms the timer for a job; `None` ends the job.
    arm: Sender<Option<(Duration, CancelToken)>>,
    /// One verdict per armed job: whether its deadline fired.
    fired: Receiver<bool>,
    thread: thread::JoinHandle<()>,
}

impl DeadlineTimer {
    fn start() -> Self {
        let (arm, armed) = mpsc::channel::<Option<(Duration, CancelToken)>>();
        let (verdict, fired) = mpsc::channel();
        let thread = thread::Builder::new()
            .name("mcs-serve-deadline".into())
            .spawn(move || {
                while let Ok(Some((deadline, token))) = armed.recv() {
                    let expired =
                        matches!(armed.recv_timeout(deadline), Err(RecvTimeoutError::Timeout));
                    // A job `shutdown_now` already cancelled stays cancelled.
                    let timed_out = expired && !token.is_cancelled();
                    if timed_out {
                        token.cancel();
                    }
                    // An expired job still has to end before its verdict.
                    if expired && armed.recv().is_err() {
                        break;
                    }
                    if verdict.send(timed_out).is_err() {
                        break;
                    }
                }
            })
            .expect("spawning a deadline timer thread");
        DeadlineTimer { arm, fired, thread }
    }

    /// Starts timing a job that `token` stops.
    fn arm(&self, deadline: Duration, token: CancelToken) {
        // The thread only exits once this timer is stopped.
        let _ = self.arm.send(Some((deadline, token)));
    }

    /// Ends the armed job; `true` when its deadline had fired.
    fn disarm(&self) -> bool {
        let _ = self.arm.send(None);
        self.fired.recv().unwrap_or(false)
    }

    fn stop(self) {
        drop(self.arm);
        let _ = self.thread.join();
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
