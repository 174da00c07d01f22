//! # mcs-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§6), plus the soundness campaigns. Each has a binary:
//!
//! | target | reproduces | flags |
//! |---|---|---|
//! | `fig4_example` | the Figure 4 worked example (three configurations ψ) | none |
//! | `fig9a` | Fig 9a — δΓ deviation of SF and OS from the SAS reference | `--seeds`, `--sa-iters`, `--paper-scale`, `--jsonl` |
//! | `fig9b` | Fig 9b — average total buffer need of OS, OR, SAR | `--seeds`, `--sa-iters`, `--paper-scale`, `--jsonl` |
//! | `fig9c` | Fig 9c — buffer deviation from SAR vs inter-cluster traffic | `--seeds`, `--sa-iters`, `--paper-scale`, `--jsonl` |
//! | `fig9mp` | the Fig-9c sweep on multi-period (`{1, 2, 4}` and `{1, 8}`) instances | `--seeds`, `--sa-iters`, `--paper-scale`, `--jsonl` |
//! | `cruise` | the §6 cruise-controller table, with its run-time line | `--sa-iters` |
//! | `ablations` | HOPA vs index-order priorities, the two `Out_TTP` bounds, OR's seed pool | `--seeds` |
//! | `fault_campaign` | the seeded fault-injection soundness campaign | `--smoke`, `--cells`, `--seed`, `--activations`, `--os-one-in`, `--cell`, `--jsonl` |
//! | `fuzz_soundness` | analysis vs simulator on `40 × max(seeds, 5)` random systems | `--seeds` |
//!
//! `--seeds N` sets the instances per point (default 5; the paper used 30)
//! and `--sa-iters N` the SA budget per instance (default 200; the paper
//! ran hours-long anneals). `--paper-scale` selects 30 seeds and 2000 SA
//! iterations. The `fig9*` sweeps additionally write one machine-readable
//! [`JobRecord`] JSON line per (instance × strategy) run — to
//! `BENCH_<figure>.jsonl` in the workspace root ([`output_path`]), or the
//! `--jsonl PATH` override — alongside their text tables; each record's
//! `elapsed_micros` is that run's wall time, the §6 heuristics-vs-annealing
//! run-time comparison. The binaries built on [`ExperimentOptions`] accept
//! all four of its flags; the table lists those that change the run.
//! `fault_campaign`'s flags are documented on the binary.
//!
//! The sweeps are batches of (instance × strategy) [`mcs_opt::JobSpec`]s
//! served by [`mcs_opt::run_batch`]: embarrassingly parallel, dynamically
//! load-balanced across cores (set `RAYON_NUM_THREADS` to cap the
//! workers), with records collected in submission order — so parallel
//! output is identical to a sequential run.
//!
//! Run times layer by layer are measured by the `perfbench` package at the
//! repository root (see its README), not here; it checks every output
//! against [`seed_baseline`], the frozen seed evaluator kept in this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::{Path, PathBuf};

use mcs_opt::{JobRecord, SynthesisReport};

pub mod campaign;
pub mod seed_baseline;

/// The root of the workspace containing `start`: the nearest directory at
/// or above `start` whose `Cargo.toml` has a `[workspace]` table, `None`
/// when there is none.
pub fn workspace_root(start: &Path) -> Option<&Path> {
    start.ancestors().find(|dir| {
        std::fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|manifest| {
            manifest
                .lines()
                .any(|line| line.split('#').next().unwrap_or("").trim() == "[workspace]")
        })
    })
}

/// The default location of the output file `name`: the root of the
/// workspace the program is run from ([`workspace_root`] of the current
/// directory), or the current directory outside any workspace. Resolved at
/// run time, so a binary reused from another checkout's `target/` writes
/// into the checkout it runs in, not the one it was built in.
pub fn output_path(name: &str) -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_default();
    workspace_root(&cwd).unwrap_or(&cwd).join(name)
}

/// Command-line options shared by the experiment binaries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExperimentOptions {
    /// Instances per data point.
    pub seeds: u64,
    /// Simulated-annealing iterations per instance.
    pub sa_iters: u32,
    /// Override for the JSON-lines record path (`--jsonl PATH`); `None`
    /// selects the default `BENCH_<figure>.jsonl` next to the text tables.
    pub jsonl: Option<String>,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            seeds: 5,
            sa_iters: 200,
            jsonl: None,
        }
    }
}

impl ExperimentOptions {
    /// Parses the conventional flags from `std::env::args`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed flags.
    pub fn from_args() -> Self {
        let mut options = ExperimentOptions::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--paper-scale" => {
                    options.seeds = 30;
                    options.sa_iters = 2_000;
                }
                "--seeds" => {
                    options.seeds = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--seeds takes a positive integer");
                }
                "--sa-iters" => {
                    options.sa_iters = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--sa-iters takes a positive integer");
                }
                "--jsonl" => {
                    options.jsonl = Some(args.next().expect("--jsonl takes a path"));
                }
                other => panic!(
                    "unknown flag {other}; supported: --seeds N, --sa-iters N, \
                     --paper-scale, --jsonl PATH"
                ),
            }
        }
        options
    }

    /// The JSON-lines record path for `figure`: the `--jsonl` override, or
    /// `BENCH_<figure>.jsonl` in the workspace root ([`output_path`]).
    pub fn jsonl_path(&self, figure: &str) -> PathBuf {
        match &self.jsonl {
            Some(path) => path.into(),
            None => output_path(&format!("BENCH_{figure}.jsonl")),
        }
    }
}

/// The reports of one sweep point — its `N` records, one per strategy —
/// or `None` when any of its runs failed (unanalyzable instance, panic,
/// no incumbent). Each failed record is reported on stderr, so a failed
/// run skips its point instead of aborting the sweep.
pub fn point_reports<const N: usize>(point: &[JobRecord]) -> Option<[&SynthesisReport; N]> {
    let reports: Vec<&SynthesisReport> = point
        .iter()
        .filter_map(|record| {
            let report = record.outcome.report();
            if report.is_none() {
                eprintln!("skipping {}", record.json_line());
            }
            report
        })
        .collect();
    reports.try_into().ok()
}

/// Writes one [`JobRecord`] JSON line per record to `path` (overwriting)
/// and reports where they went. Errors are printed, not propagated —
/// machine-readable records must never fail a sweep.
pub fn write_jsonl(path: &Path, records: &[JobRecord]) {
    let file = match std::fs::File::create(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("could not create {}: {e}", path.display());
            return;
        }
    };
    let mut writer = mcs_core::JsonLinesWriter::new(std::io::BufWriter::new(file));
    for record in records {
        if let Err(e) = writer.write_line(&record.json_line()) {
            eprintln!("could not write {}: {e}", path.display());
            return;
        }
    }
    let n = writer.records();
    match writer.finish() {
        Ok(_) => println!("recorded {n} experiment records in {}", path.display()),
        Err(e) => eprintln!("could not flush {}: {e}", path.display()),
    }
}

/// One row of a Fig-9c-style buffer-deviation sweep: a display key (the
/// inter-cluster message count) and the per-seed generator parameters of
/// its instances.
#[derive(Debug)]
pub struct SweepRow {
    /// The row key printed in the first column.
    pub key: usize,
    /// `(instance label, generator parameters)` per seed.
    pub instances: Vec<(String, mcs_gen::GeneratorParams)>,
}

/// Runs OS, OR and SAR on every instance of every row as one
/// [`mcs_opt::run_batch`] and prints the average %-deviation table of OS
/// and OR from the SAR reference (the Fig-9c shape). Returns every record,
/// row-major with OS/OR/SAR per instance, for JSON-lines emission.
///
/// A failed run does not abort the sweep: its instance is skipped in the
/// aggregate (and reported on stderr, see [`point_reports`]), the other
/// instances still count — the per-record outcome is the unit of failure,
/// not the batch.
///
/// OS and OR are independent jobs — both are deterministic, so the OS
/// column equals the step-1 result inside OR. (The standalone OS pass is
/// re-run inside OR, but it is a few percent of an OR+SAR job; the
/// one-strategy-per-job model keeps records uniform.)
pub fn run_deviation_sweep(sa_iters: u32, rows: &[SweepRow]) -> Vec<JobRecord> {
    use mcs_opt::{JobSpec, Or, OrParams, Os, Sa, SaParams};

    let analysis = mcs_core::AnalysisParams::default();
    let mut jobs = Vec::new();
    for row in rows {
        for (seed_index, (instance, params)) in row.instances.iter().enumerate() {
            let system = std::sync::Arc::new(mcs_gen::generate(params));
            jobs.push(JobSpec::new(
                instance.clone(),
                std::sync::Arc::clone(&system),
                analysis,
                Os::new(OrParams::default().os),
            ));
            jobs.push(JobSpec::new(
                instance.clone(),
                std::sync::Arc::clone(&system),
                analysis,
                Or::new(OrParams::default()),
            ));
            jobs.push(JobSpec::new(
                instance.clone(),
                std::sync::Arc::clone(&system),
                analysis,
                Sa::resources(SaParams {
                    iterations: sa_iters,
                    seed: seed_index as u64,
                    ..SaParams::default()
                }),
            ));
        }
    }
    let records = mcs_opt::run_batch(jobs);

    println!("{:>9} {:>10} {:>10} {:>8}", "messages", "OS", "OR", "used");
    let mut per_point = records.chunks_exact(3);
    let mut failed = 0usize;
    for row in rows {
        let mut os_dev = Vec::new();
        let mut or_dev = Vec::new();
        for _ in 0..row.instances.len() {
            let point = per_point.next().expect("three records per instance");
            let Some([os, or, sar]) = point_reports(point) else {
                failed += 1;
                continue;
            };
            let (os, or, sar) = (&os.best, &or.best, &sar.best);
            if os.is_schedulable() && or.is_schedulable() && sar.is_schedulable() {
                let reference = sar.total_buffers as f64;
                os_dev.push(percent_deviation(os.total_buffers as f64, reference));
                or_dev.push(percent_deviation(or.total_buffers as f64, reference));
            }
        }
        println!(
            "{:>9} {} {} {:>8}",
            row.key,
            cell(mean(&os_dev)),
            cell(mean(&or_dev)),
            os_dev.len()
        );
    }
    if failed > 0 {
        eprintln!("{failed} instance(s) skipped because a run failed");
    }
    records
}

/// Mean of a sample, `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Percentage deviation of `value` from a (non-zero) `reference`:
/// `(value − reference) / |reference| × 100`.
pub fn percent_deviation(value: f64, reference: f64) -> f64 {
    if reference == 0.0 {
        0.0
    } else {
        (value - reference) / reference.abs() * 100.0
    }
}

/// Formats an optional mean for a table cell.
pub fn cell(value: Option<f64>) -> String {
    match value {
        Some(v) => format!("{v:>10.1}"),
        None => format!("{:>10}", "-"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_handles_empty_and_nonempty() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
    }

    #[test]
    fn percent_deviation_is_signed_and_reference_relative() {
        assert_eq!(percent_deviation(150.0, 100.0), 50.0);
        assert_eq!(percent_deviation(50.0, 100.0), -50.0);
        // Negative references (δΓ slack values): less negative = worse = positive.
        assert_eq!(percent_deviation(-50.0, -100.0), 50.0);
        assert_eq!(percent_deviation(0.0, 0.0), 0.0);
    }

    #[test]
    fn cells_align() {
        assert_eq!(cell(Some(1.25)).len(), 10);
        assert_eq!(cell(None).trim(), "-");
    }

    #[test]
    fn workspace_root_is_the_nearest_manifest_with_a_workspace_table() {
        let tmp = std::env::temp_dir().join(format!("mcs-bench-root-{}", std::process::id()));
        let outer = tmp.join("outer");
        let member = outer.join("crates/member");
        let inner = outer.join("tools/inner");
        std::fs::create_dir_all(member.join("src")).unwrap();
        std::fs::create_dir_all(inner.join("src")).unwrap();
        std::fs::write(
            outer.join("Cargo.toml"),
            "[workspace] # the root\nmembers = [\"crates/member\"]\n\n[workspace.package]\n",
        )
        .unwrap();
        // A member manifest (only `[workspace.*]`-style keys) is not a root.
        std::fs::write(
            member.join("Cargo.toml"),
            "[package]\nname = \"member\"\nversion.workspace = true\n",
        )
        .unwrap();
        // A package that declares its own (empty) workspace is its own root.
        std::fs::write(
            inner.join("Cargo.toml"),
            "[package]\nname = \"inner\"\n\n[workspace]\n",
        )
        .unwrap();

        assert_eq!(workspace_root(&member.join("src")), Some(outer.as_path()));
        assert_eq!(workspace_root(&member), Some(outer.as_path()));
        assert_eq!(workspace_root(&outer), Some(outer.as_path()));
        assert_eq!(workspace_root(&inner.join("src")), Some(inner.as_path()));
        std::fs::remove_dir_all(&tmp).unwrap();
    }
}
