//! The benchmark's command line.
//!
//! ```text
//! perfbench --workload anneal|synth|verify --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! Prints the metrics and notes, then as its last line one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`). Appends the run to
//! `DIR/history.jsonl` and, for a traced run, writes its spans to
//! `DIR/spans-<workload>-<seed>.jsonl`. `DIR` defaults to `perfbench-out`
//! in the current directory.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::plan::{Scale, Workload};
use perfbench::{Metric, Options, Report};

fn main() -> ExitCode {
    let (opts, out) = match parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload anneal|synth|verify --seed N --seconds S \
                 --trace 0|1 [--out DIR]"
            );
            return ExitCode::from(2);
        }
    };
    let report = match perfbench::run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} run failed: {e}", opts.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for note in &report.notes {
        println!("# {note}");
    }
    for failure in &report.failures {
        println!("# FAILED {failure}");
    }
    println!(
        "# failed_frac {} ({} of {} jobs failed; reported below as ok_frac)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for m in &report.metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Err(e) = record(&opts, &report, &out) {
        eprintln!(
            "perfbench: could not record the run in {}: {e}",
            out.display()
        );
    }
    println!("{}", result_json(&report));
    ExitCode::SUCCESS
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<(Options, PathBuf), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = PathBuf::from("perfbench-out");
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| e.to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let opts = Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::Full,
    };
    Ok((opts, out))
}

/// A finite JSON number (non-finite readings are reported as 0).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn result_json(report: &Report) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        metrics_json(&report.metrics)
    )
}

/// Appends the run to the history ledger (never overwriting earlier runs)
/// and writes a traced run's spans.
fn record(opts: &Options, report: &Report, out: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(out)?;
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let w = opts.workload;
    let line = format!(
        "{{\"unix_time\": {unix}, \"rev\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"workers\": {}, \"lanes\": {}, \"cpus\": {}, \
         \"host_steal_ms\": {}, \"calib_start_ms\": {}, \"calib_end_ms\": {}, \
         \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        git_rev(),
        w.name(),
        opts.seed,
        number(opts.seconds),
        opts.trace,
        w.workers(),
        w.lanes(),
        perfbench::measure::available_cpus(),
        number(report.host.steal_ms),
        number(report.host.calib_start_ms),
        number(report.host.calib_end_ms),
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics_json(&report.metrics)
    );
    let mut ledger = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out.join("history.jsonl"))?;
    writeln!(ledger, "{line}")?;
    ledger.flush()?;
    if let Some(tracer) = &report.tracer {
        tracer.write_jsonl(&out.join(format!("spans-{}-{}.jsonl", w.name(), opts.seed)))?;
    }
    Ok(())
}

/// The commit checked out in the current directory (the repository root
/// the benchmark runs from), read from `.git` directly; `unknown` when it
/// is not a git checkout.
fn git_rev() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}
