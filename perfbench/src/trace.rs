//! In-memory spans of the traced run, written out when the run ends.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a layer. Every span carries the job it belongs to; a job's root span
//! (`parent == None`) covers the whole job and its children the parts of
//! it that a layer accounts for.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use mcs_opt::{Observer, SearchEvent};

/// One timed interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// The layer call (`core.cold_eval`, `opt.step`, …) or `job` for a root.
    pub name: &'static str,
    /// The job the span belongs to.
    pub job: u64,
    /// Index of the enclosing span, `None` for a job's root.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's length.
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns.saturating_sub(self.start_ns))
    }
}

/// A span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// Every span recorded so far, in recording order.
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Records the interval `[start, end]` and returns its span index.
    pub fn record(
        &mut self,
        name: &'static str,
        job: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            job,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        self.spans.len() - 1
    }

    /// Opens a span at `start` whose end [`close_last_root`] sets later,
    /// and returns its index.
    ///
    /// [`close_last_root`]: Tracer::close_last_root
    pub fn open(
        &mut self,
        name: &'static str,
        job: u64,
        parent: Option<usize>,
        start: Instant,
    ) -> usize {
        self.record(name, job, parent, start, start)
    }

    /// Ends the most recently opened root span at `end`.
    pub fn close_last_root(&mut self, end: Instant) {
        let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        if let Some(root) = self.spans.iter_mut().rev().find(|s| s.parent.is_none()) {
            root.end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        job: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, job, parent, start, Instant::now());
        out
    }

    /// Durations of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// For every span named `name`: its job, its own duration and the time
    /// its direct children cover.
    pub fn covered(&self, name: &str) -> Vec<(u64, Duration, Duration)> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                covered[p] += span.end_ns.saturating_sub(span.start_ns);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.job, s.duration(), Duration::from_nanos(covered[i])))
            .collect()
    }

    /// Writes every span as one JSON line to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"job\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.job, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// An [`Observer`] that turns a synthesis run's event stream into spans:
/// `core.context` from run entry to `Started` (`Synthesis::run` builds its
/// evaluator there), one `opt.step` per `Evaluated`/`Infeasible` event
/// (the gap since the previous one: one analysis plus the strategy's own
/// work), `opt.tail` up to `Finished`. The caller closes the run with
/// `opt.finish` (`Finished` → return: the incumbent's materialization).
#[derive(Debug)]
pub struct StepClock<'t> {
    tracer: &'t mut Tracer,
    job: u64,
    parent: usize,
    last: Instant,
    /// When `Finished` arrived.
    pub finished: Option<Instant>,
    /// `Evaluated` events.
    pub evaluated: u64,
    /// `Evaluated` events whose candidate the strategy kept.
    pub accepted: u64,
    /// `Infeasible` events.
    pub infeasible: u64,
    /// Sum of `EvalSummary::iterations` over `Evaluated` events.
    pub outer_iterations: u64,
}

impl<'t> StepClock<'t> {
    /// A clock for job `job`, whose root span `parent` started at `start`.
    pub fn new(tracer: &'t mut Tracer, job: u64, parent: usize, start: Instant) -> Self {
        StepClock {
            tracer,
            job,
            parent,
            last: start,
            finished: None,
            evaluated: 0,
            accepted: 0,
            infeasible: 0,
            outer_iterations: 0,
        }
    }

    fn lap(&mut self, name: &'static str) {
        let now = Instant::now();
        self.tracer
            .record(name, self.job, Some(self.parent), self.last, now);
        self.last = now;
    }
}

impl Observer for StepClock<'_> {
    fn on_event(&mut self, event: &SearchEvent) {
        match *event {
            SearchEvent::Started { .. } => self.lap("core.context"),
            SearchEvent::Evaluated {
                summary, accepted, ..
            } => {
                self.lap("opt.step");
                self.evaluated += 1;
                self.accepted += u64::from(accepted);
                self.outer_iterations += u64::from(summary.iterations);
            }
            SearchEvent::Infeasible { .. } => {
                self.lap("opt.step");
                self.infeasible += 1;
            }
            SearchEvent::Finished { .. } => {
                self.lap("opt.tail");
                self.finished = Some(self.last);
            }
            SearchEvent::NewIncumbent { .. }
            | SearchEvent::TemperatureEpoch { .. }
            | SearchEvent::Phase { .. } => {}
        }
    }
}
