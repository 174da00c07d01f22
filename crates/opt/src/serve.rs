//! `mcs::serve` — the resilient streaming synthesis service.
//!
//! A [`SynthesisService`] owns a fixed worker pool fed from a bounded
//! priority queue, with admission control, deadlines, isolation and
//! resume; jobs are submitted while earlier ones run, and every job ends
//! in a structured [`JobRecord`] streamed back to the consumer (with a
//! stable JSON-lines rendering via [`mcs_core::json_line`]).
//! [`run_batch`] serves a *static* batch on it — every job known up front,
//! the pool drains it, records come back in submission order — and is
//! what the paper-reproduction sweeps sit on; [`best_record`] picks the
//! winner of a batch that runs several strategies on one instance.
//!
//! # Contracts
//!
//! **Admission control (bounded queue).** The submission queue holds at
//! most [`ServiceConfig::queue_capacity`] jobs. [`SynthesisService::try_submit`]
//! never blocks — a full queue returns [`SubmitError::QueueFull`] with the
//! job handed back; [`SynthesisService::submit`] blocks until space frees
//! up or a timeout expires. Backpressure therefore reaches the producer
//! instead of growing an unbounded backlog.
//!
//! **Priorities and preemption.** Queued jobs are served
//! highest-[`JobSpec::priority`] first (FIFO within a priority). When
//! preemption is enabled (the default) and a job is submitted while every
//! worker is busy, the lowest-priority *running* job with a priority
//! strictly below the newcomer's is cooperatively cancelled through its
//! [`CancelToken`] — it winds down at its next budget poll and yields a
//! [`JobOutcome::Cancelled`] record (cause
//! [`CancelCause::Preempted`]) carrying its partial report, from which the
//! client can [resume](JobSpec::resume_from).
//!
//! **Deadlines.** A [`JobSpec::deadline`] caps the wall-clock time of each
//! attempt, measured from execution start (queue wait does not count).
//! Each worker keeps a timer thread that an attempt with a deadline arms;
//! if the deadline passes before the attempt ends, the timer cancels the
//! job's [`CancelToken`], and the run winds down at its next budget poll —
//! including inside a [resume](JobSpec::resume_from) replay — and records
//! [`JobOutcome::TimedOut`] with the partial report (whose `exhausted_by`
//! reads `cancelled`). The search itself never reads the host clock: it
//! sees a deadline only as a cancelled token. Like every cancellation,
//! deadlines are cooperative: a strategy that never polls
//! [`SearchCtx::exhausted`](crate::SearchCtx::exhausted) cannot be stopped.
//!
//! **Panic isolation.** Each attempt runs under
//! [`std::panic::catch_unwind`]; a panicking strategy produces a
//! [`JobOutcome::Panicked`] record instead of tearing down the worker or
//! the pool. Every attempt constructs a fresh
//! [`Evaluator`](mcs_core::Evaluator), so a panic cannot leak poisoned
//! analysis state into later jobs.
//!
//! **Retry with backoff.** Panicked attempts are retried up to
//! [`RetryPolicy::max_retries`] times with exponential backoff
//! (analysis *errors* are deterministic and never retried; timeouts and
//! cancellations are resumable instead). [`JobRecord::attempts`] reports
//! the attempts consumed. A job stays registered as running through its
//! backoffs, so a cancellation, preemption or
//! [`SynthesisService::shutdown_now`] during a backoff reaches it too: it
//! is not retried and records [`JobOutcome::Cancelled`] without a partial
//! report.
//!
//! **Resumable jobs.** A preempted or timed-out job's partial
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
//! backlog to empty; [`SynthesisService::shutdown`] additionally stops
//! admission and joins the workers (graceful: queued jobs still run);
//! [`SynthesisService::shutdown_now`] cancels queued and running jobs
//! first. Dropping the service performs a graceful shutdown.
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
//!             .deadline(Duration::from_secs(5))
//!             .priority(1),
//!     )
//!     .expect("queue has room");
//! for record in service.shutdown() {
//!     println!("{}", record.json_line());
//! }
//! # let _ = id;
//! ```

use std::any::Any;
use std::collections::{BinaryHeap, HashMap};
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

/// Bounded retry for retryable (panicked) job outcomes.
///
/// Attempt `k` (1-based) that panics is retried after
/// `backoff × 2^(k−1)` (capped at 8× the base) while `k ≤ max_retries`.
/// The default policy performs no retries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional attempts after the first (0 = no retry).
    pub max_retries: u32,
    /// Base backoff before the first retry; doubles per retry.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 0,
            backoff: Duration::from_millis(25),
        }
    }
}

impl RetryPolicy {
    /// The backoff to sleep before retrying after failed attempt
    /// `attempt` (1-based): exponential, capped at 8× the base.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(3);
        self.backoff * factor
    }
}

/// Configuration of a [`SynthesisService`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads in the pool. Default: `RAYON_NUM_THREADS` if set
    /// (the knob the batch sweeps already document), else
    /// [`std::thread::available_parallelism`].
    pub workers: usize,
    /// Maximum queued (not yet running) jobs; submissions beyond it hit
    /// backpressure. Default 64.
    pub queue_capacity: usize,
    /// Service-wide retry policy; [`JobSpec::retry`] overrides per job.
    pub retry: RetryPolicy,
    /// Whether submitting a high-priority job may preempt a running
    /// lower-priority one (default `true`).
    pub preemption: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let workers = std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        ServiceConfig {
            workers,
            queue_capacity: 64,
            retry: RetryPolicy::default(),
            preemption: true,
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
/// serving envelope (budget, deadline, priority, retry, resume seed).
pub struct JobSpec {
    name: String,
    strategy_label: String,
    system: Arc<System>,
    analysis: AnalysisParams,
    strategy: Box<dyn Strategy>,
    budget: Budget,
    deadline: Option<Duration>,
    priority: u8,
    resume: Option<SynthesisReport>,
    retry: Option<RetryPolicy>,
    tag: u64,
}

impl std::fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSpec").finish_non_exhaustive()
    }
}

impl JobSpec {
    /// Creates a job with default envelope: unlimited budget, no deadline,
    /// priority 0, service retry policy, fresh (non-resumed) search.
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
            priority: 0,
            resume: None,
            retry: None,
            tag: 0,
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

    /// Caps wall-clock time per attempt (measured from execution start;
    /// queue wait does not count): once it passes, the attempt is cancelled
    /// and the job records [`JobOutcome::TimedOut`] — see the
    /// [module docs](self).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the job's priority (higher runs first; default 0). May preempt
    /// running lower-priority jobs — see the [module docs](self).
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Seeds the job as a continuation of an interrupted run (the partial
    /// report of a preempted/timed-out job). The strategy and analysis
    /// parameters must match the interrupted run; see
    /// [`Synthesis::resume_from`] for the bit-identity contract.
    pub fn resume_from(mut self, checkpoint: SynthesisReport) -> Self {
        self.resume = Some(checkpoint);
        self
    }

    /// Overrides the service-wide [`RetryPolicy`] for this job.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Attaches an opaque correlation tag, carried verbatim into the
    /// [`JobRecord`] (and its JSON line when non-zero). Campaign drivers
    /// use it to pair records with their cells without parsing names.
    pub fn tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }

    /// The job's name (instance label).
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Why a running job was cancelled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelCause {
    /// A higher-priority submission preempted it.
    Preempted,
    /// The service was shut down ([`SynthesisService::shutdown_now`]).
    Shutdown,
    /// [`SynthesisService::cancel`] was called on it.
    Explicit,
}

impl CancelCause {
    /// A stable lower-case name for machine-readable records.
    pub fn as_str(&self) -> &'static str {
        match self {
            CancelCause::Preempted => "preempted",
            CancelCause::Shutdown => "shutdown",
            CancelCause::Explicit => "explicit",
        }
    }
}

/// How one job ended. Partial reports (preempted/timed-out runs that had
/// already recorded an incumbent) re-seed continuations via
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
    /// The job was cancelled (preemption, explicit cancel or shutdown).
    Cancelled {
        /// The partial report, `None` if the job never ran or had no
        /// incumbent yet.
        partial: Option<Box<SynthesisReport>>,
        /// Why it was cancelled.
        cause: CancelCause,
    },
    /// Every attempt panicked; the message is the last panic payload.
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
            JobOutcome::TimedOut { partial } | JobOutcome::Cancelled { partial, .. } => {
                partial.as_deref()
            }
            JobOutcome::Failed(_) | JobOutcome::Panicked { .. } => None,
        }
    }

    /// Converts the outcome into the `Result` shape a direct
    /// [`Synthesis::run`] would have produced: complete and partial
    /// reports are `Ok` (their `exhausted_by` axis tells truncation
    /// apart), panics become [`SynthesisError::Panicked`], and truncated
    /// runs without an incumbent map to [`SynthesisError::NoIncumbent`].
    pub fn into_report(self) -> Result<SynthesisReport, SynthesisError> {
        match self {
            JobOutcome::Completed(report) => Ok(*report),
            JobOutcome::TimedOut {
                partial: Some(report),
            }
            | JobOutcome::Cancelled {
                partial: Some(report),
                ..
            } => Ok(*report),
            JobOutcome::TimedOut { partial: None }
            | JobOutcome::Cancelled { partial: None, .. } => Err(SynthesisError::NoIncumbent),
            JobOutcome::Failed(e) => Err(e),
            JobOutcome::Panicked { message } => Err(SynthesisError::Panicked(message)),
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
    /// The job's priority.
    pub priority: u8,
    /// Execution attempts consumed (0 for a job cancelled while queued).
    pub attempts: u32,
    /// Wall-clock from first execution start to the final outcome, in
    /// microseconds (0 for a job cancelled while queued).
    pub elapsed_micros: u64,
    /// The correlation tag from [`JobSpec::tag`] (0 when unset).
    pub tag: u64,
    /// How the job ended.
    pub outcome: JobOutcome,
}

impl JobRecord {
    /// Renders the record as one stable JSON line (see
    /// [`mcs_core::json_line`]): `job`, `name`, `strategy`, `priority`,
    /// `attempts`, `outcome`, `ok`, then the report fields
    /// (`schedulable`, `schedule_cost`, `total_buffers`, `evaluations`,
    /// `exhausted`, `exhausted_by`) when a full or partial report exists,
    /// `cause` for cancellations, `error` for failures/panics, and
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
            ("priority", F::UInt(u64::from(self.priority))),
            ("attempts", F::UInt(u64::from(self.attempts))),
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
        if let JobOutcome::Cancelled { cause, .. } = &self.outcome {
            fields.push(("cause", F::Str(cause.as_str())));
        }
        if let Some(error) = &error {
            fields.push(("error", F::Str(error)));
        }
        if self.tag != 0 {
            fields.push(("tag", F::UInt(self.tag)));
        }
        fields.push(("elapsed_micros", F::UInt(self.elapsed_micros)));
        mcs_core::json_line(&fields)
    }
}

// ---------------------------------------------------------------------------
// Submission errors
// ---------------------------------------------------------------------------

/// Why a submission was rejected; every variant hands the job back (boxed —
/// a spec is a heavyweight bundle) so the producer can retry, reroute or
/// drop it.
pub enum SubmitError {
    /// The bounded queue is full ([`SynthesisService::try_submit`]).
    QueueFull(Box<JobSpec>),
    /// The queue stayed full for the whole timeout
    /// ([`SynthesisService::submit`]).
    Timeout(Box<JobSpec>),
    /// The service no longer accepts jobs (shutdown in progress).
    ShuttingDown(Box<JobSpec>),
}

impl SubmitError {
    /// Takes the rejected job back.
    pub fn into_job(self) -> JobSpec {
        match self {
            SubmitError::QueueFull(job)
            | SubmitError::Timeout(job)
            | SubmitError::ShuttingDown(job) => *job,
        }
    }

    fn describe(&self) -> (&'static str, &JobSpec) {
        match self {
            SubmitError::QueueFull(job) => ("queue full", job),
            SubmitError::Timeout(job) => ("submission timed out", job),
            SubmitError::ShuttingDown(job) => ("service is shutting down", job),
        }
    }
}

impl std::fmt::Debug for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (reason, job) = self.describe();
        write!(f, "SubmitError({reason}, job {:?})", job.name)
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (reason, job) = self.describe();
        write!(f, "could not submit job {:?}: {reason}", job.name)
    }
}

impl std::error::Error for SubmitError {}

// ---------------------------------------------------------------------------
// Shared service state
// ---------------------------------------------------------------------------

/// A queued job, ordered highest-priority first, FIFO within a priority.
struct QueuedJob {
    id: JobId,
    spec: JobSpec,
}

impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl Eq for QueuedJob {}
impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedJob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.spec.priority, std::cmp::Reverse(self.id))
            .cmp(&(other.spec.priority, std::cmp::Reverse(other.id)))
    }
}

/// What the submit path needs to know about a running job to preempt or
/// cancel it. Registered for the whole job, retry backoffs included.
struct RunningEntry {
    id: JobId,
    priority: u8,
    token: CancelToken,
    cancel_cause: Option<CancelCause>,
}

struct State {
    queue: BinaryHeap<QueuedJob>,
    next_id: u64,
    accepting: bool,
    shutdown: bool,
    /// Per-worker slot of the currently running job.
    running: Vec<Option<RunningEntry>>,
    /// Workers currently parked on the `not_empty` condvar.
    idle_workers: usize,
    /// Jobs submitted but not yet recorded (queued + running).
    outstanding: usize,
    /// Queued jobs cancelled before a worker picked them up.
    cancelled_queued: HashMap<JobId, CancelCause>,
}

struct Shared {
    state: Mutex<State>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    retry: RetryPolicy,
    preemption: bool,
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
    /// The service's own sender (used to emit records for jobs cancelled
    /// while queued); dropped on shutdown to disconnect the stream.
    tx: Option<Sender<JobRecord>>,
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
                queue: BinaryHeap::new(),
                next_id: 0,
                accepting: true,
                shutdown: false,
                running: (0..workers).map(|_| None).collect(),
                idle_workers: 0,
                outstanding: 0,
                cancelled_queued: HashMap::new(),
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: config.queue_capacity.max(1),
            retry: config.retry,
            preemption: config.preemption,
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
            tx: Some(tx),
            workers: handles,
        }
    }

    /// Submits a job without blocking.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the bounded queue is at capacity,
    /// [`SubmitError::ShuttingDown`] after shutdown began; both hand the
    /// job back.
    pub fn try_submit(&self, job: JobSpec) -> Result<JobId, SubmitError> {
        let mut st = self.shared.lock();
        if !st.accepting {
            return Err(SubmitError::ShuttingDown(Box::new(job)));
        }
        if st.queue.len() >= self.shared.capacity {
            return Err(SubmitError::QueueFull(Box::new(job)));
        }
        Ok(self.enqueue_locked(&mut st, job))
    }

    /// Submits a job, blocking up to `timeout` for queue space
    /// (backpressure).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Timeout`] when the queue stayed full for the whole
    /// timeout, [`SubmitError::ShuttingDown`] after shutdown began; both
    /// hand the job back.
    pub fn submit(&self, job: JobSpec, timeout: Duration) -> Result<JobId, SubmitError> {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.lock();
        loop {
            if !st.accepting {
                return Err(SubmitError::ShuttingDown(Box::new(job)));
            }
            if st.queue.len() < self.shared.capacity {
                return Ok(self.enqueue_locked(&mut st, job));
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(SubmitError::Timeout(Box::new(job)));
            }
            let (guard, _) = self
                .shared
                .not_full
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            st = guard;
        }
    }

    fn enqueue_locked(&self, st: &mut State, job: JobSpec) -> JobId {
        let id = JobId(st.next_id);
        st.next_id += 1;
        st.outstanding += 1;
        let priority = job.priority;
        st.queue.push(QueuedJob { id, spec: job });
        self.shared.not_empty.notify_one();
        if self.shared.preemption && st.idle_workers == 0 {
            // Every worker is busy: bump the weakest running job below the
            // newcomer's priority (best effort — a worker between jobs is
            // counted busy for a moment).
            if let Some(entry) = st
                .running
                .iter_mut()
                .flatten()
                .filter(|e| !e.token.is_cancelled() && e.priority < priority)
                .min_by_key(|e| (e.priority, std::cmp::Reverse(e.id)))
            {
                entry.cancel_cause = Some(CancelCause::Preempted);
                entry.token.cancel();
            }
        }
        id
    }

    /// Cancels a queued or running job. Queued jobs yield a
    /// [`JobOutcome::Cancelled`] record without running; running jobs wind
    /// down cooperatively. Returns `false` when the id is unknown or
    /// already finished.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut st = self.shared.lock();
        if let Some(entry) = st.running.iter_mut().flatten().find(|entry| entry.id == id) {
            if entry.cancel_cause.is_none() {
                entry.cancel_cause = Some(CancelCause::Explicit);
            }
            entry.token.cancel();
            return true;
        }
        if st.queue.iter().any(|queued| queued.id == id) {
            st.cancelled_queued.insert(id, CancelCause::Explicit);
            return true;
        }
        false
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

    /// Graceful shutdown: stops admission, lets the workers finish every
    /// queued job, joins them and returns all unconsumed records.
    pub fn shutdown(mut self) -> Vec<JobRecord> {
        self.shutdown_inner(false)
    }

    /// Immediate shutdown: stops admission, cancels queued jobs (they
    /// record [`JobOutcome::Cancelled`] with [`CancelCause::Shutdown`]
    /// without running) and cooperatively cancels running jobs, then joins
    /// the workers and returns all unconsumed records.
    pub fn shutdown_now(mut self) -> Vec<JobRecord> {
        self.shutdown_inner(true)
    }

    fn shutdown_inner(&mut self, now: bool) -> Vec<JobRecord> {
        let dropped = {
            let mut st = self.shared.lock();
            st.accepting = false;
            st.shutdown = true;
            if now {
                let dropped: Vec<QueuedJob> = std::mem::take(&mut st.queue).into_sorted_vec();
                st.outstanding -= dropped.len();
                for entry in st.running.iter_mut().flatten() {
                    if entry.cancel_cause.is_none() {
                        entry.cancel_cause = Some(CancelCause::Shutdown);
                    }
                    entry.token.cancel();
                }
                dropped
            } else {
                Vec::new()
            }
        };
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        if let Some(tx) = &self.tx {
            for queued in dropped {
                let _ = tx.send(JobRecord {
                    id: queued.id,
                    name: queued.spec.name,
                    strategy: queued.spec.strategy_label,
                    priority: queued.spec.priority,
                    attempts: 0,
                    elapsed_micros: 0,
                    tag: queued.spec.tag,
                    outcome: JobOutcome::Cancelled {
                        partial: None,
                        cause: CancelCause::Shutdown,
                    },
                });
            }
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.tx = None;
        let rx = self
            .records
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        rx.try_iter().collect()
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
/// one.
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
        // submission never blocks.
        queue_capacity: jobs.len(),
        ..ServiceConfig::default()
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
        let queued = {
            let mut st = shared.lock();
            loop {
                if let Some(queued) = st.queue.pop() {
                    break Some(queued);
                }
                if st.shutdown {
                    break None;
                }
                st.idle_workers += 1;
                st = shared
                    .not_empty
                    .wait(st)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                st.idle_workers -= 1;
            }
        };
        let Some(queued) = queued else {
            break;
        };
        shared.not_full.notify_one();
        let cancelled = shared.lock().cancelled_queued.remove(&queued.id);
        let record = match cancelled {
            Some(cause) => JobRecord {
                id: queued.id,
                name: queued.spec.name,
                strategy: queued.spec.strategy_label,
                priority: queued.spec.priority,
                attempts: 0,
                elapsed_micros: 0,
                tag: queued.spec.tag,
                outcome: JobOutcome::Cancelled {
                    partial: None,
                    cause,
                },
            },
            None => execute_job(shared, slot, &timer, queued),
        };
        // Record first, then retire: `drain` relies on every record being
        // in the channel by the time `outstanding` reaches zero.
        let _ = tx.send(record);
        shared.lock().outstanding -= 1;
    }
    timer.stop();
}

fn execute_job(
    shared: &Shared,
    slot: usize,
    timer: &DeadlineTimer,
    queued: QueuedJob,
) -> JobRecord {
    let QueuedJob { id, mut spec } = queued;
    let retry = spec.retry.unwrap_or(shared.retry);
    // One token for the whole job, so a cancel that lands during a retry
    // backoff stops the job like one that lands during a run.
    let token = CancelToken::new();
    shared.lock().running[slot] = Some(RunningEntry {
        id,
        priority: spec.priority,
        token: token.clone(),
        cancel_cause: None,
    });
    let started = Instant::now();
    let mut attempts = 0u32;
    let outcome = loop {
        attempts += 1;
        if let Some(deadline) = spec.deadline {
            timer.arm(deadline, token.clone());
        }
        // Strategies keep their mutable search state local to `run`, and
        // every attempt builds a fresh `Evaluator`, so resuming the loop
        // after a caught panic observes no torn state.
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
        // The outcome of a job its token stopped: timed out when this
        // attempt's deadline fired first, cancelled otherwise.
        let stopped = |partial: Option<Box<SynthesisReport>>| {
            if timed_out {
                return JobOutcome::TimedOut { partial };
            }
            let cause = shared.lock().running[slot]
                .as_ref()
                .and_then(|entry| entry.cancel_cause);
            JobOutcome::Cancelled {
                partial,
                cause: cause.unwrap_or(CancelCause::Explicit),
            }
        };
        match run {
            Err(payload) => {
                if attempts > retry.max_retries {
                    break JobOutcome::Panicked {
                        message: panic_message(payload.as_ref()),
                    };
                }
                if !token.is_cancelled() {
                    thread::sleep(retry.backoff_for(attempts));
                }
                if token.is_cancelled() {
                    break stopped(None);
                }
            }
            Ok(Ok(report)) => {
                break match report.exhausted_by {
                    Some(BudgetAxis::Cancelled) => stopped(Some(Box::new(report))),
                    // Evaluation-budget exhaustion is a normal completion;
                    // the report itself says `exhausted`.
                    Some(BudgetAxis::Evaluations) | None => JobOutcome::Completed(Box::new(report)),
                };
            }
            // Stopped before recording an incumbent.
            Ok(Err(SynthesisError::NoIncumbent)) if token.is_cancelled() => break stopped(None),
            Ok(Err(e)) => break JobOutcome::Failed(e),
        }
    };
    shared.lock().running[slot] = None;
    JobRecord {
        id,
        name: spec.name,
        strategy: spec.strategy_label,
        priority: spec.priority,
        attempts,
        elapsed_micros: started.elapsed().as_micros() as u64,
        tag: spec.tag,
        outcome,
    }
}

/// A worker's [`JobSpec::deadline`] enforcer: a thread that lives as long
/// as its worker and, once armed for an attempt, cancels the attempt's
/// token if the deadline passes before the attempt ends. One long-lived
/// thread per worker keeps thread start-up off the job path: a thread per
/// attempt cost about 10% of the throughput of ~100 ms OR jobs on a
/// 2-vCPU host.
struct DeadlineTimer {
    /// `Some` arms the timer for an attempt; `None` ends the attempt.
    arm: Sender<Option<(Duration, CancelToken)>>,
    /// One verdict per armed attempt: whether its deadline fired.
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
                    // A job someone already cancelled keeps that cause.
                    let timed_out = expired && !token.is_cancelled();
                    if timed_out {
                        token.cancel();
                    }
                    // An expired attempt still has to end before its verdict.
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

    /// Starts timing an attempt that `token` stops.
    fn arm(&self, deadline: Duration, token: CancelToken) {
        // The thread only exits once this timer is stopped.
        let _ = self.arm.send(Some((deadline, token)));
    }

    /// Ends the armed attempt; `true` when its deadline had fired.
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
