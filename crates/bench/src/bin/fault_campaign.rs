//! Seeded fault-injection soundness campaign driver.
//!
//! Fans a grid of `(instance × configuration style × fault scenario ×
//! seeds)` cells through analysis, nominal simulation and fault-injecting
//! simulation (see [`mcs_bench::campaign`]), writing one JSON line per cell
//! to `BENCH_campaign.jsonl` and a one-line summary object to
//! `BENCH_campaign.json`, both in the root of the workspace it is run from
//! ([`mcs_bench::output_path`]). `--jsonl PATH` moves both: the records go
//! to `PATH`, the summary next to it with the same stem and a `.json`
//! extension. The run fails (exit 1, offending lines
//! printed) on any **hard** finding: a nominal soundness violation or a CAN
//! frame-conservation breach. Fault-induced degradation is counted, not
//! fatal.
//!
//! Every cell is a pure function of `(--seed, index)`: to replay a cell
//! from a previous run's record, pass the same `--seed` (and `--activations`
//! / `--os-one-in` if overridden) plus `--cell K` — the cell's JSON line is
//! reproduced byte for byte on stdout.
//!
//! Usage:
//! `cargo run --release -p mcs-bench --bin fault_campaign [-- FLAGS]`
//!
//! | flag | effect |
//! |---|---|
//! | `--cells N` | grid size (default 64) |
//! | `--seed S` | campaign base seed (default 0xC0FFEE00) |
//! | `--activations N` | simulated activations per graph (default 2) |
//! | `--os-one-in N` | 1-in-N cells use OS synthesis; 0 disables (default 4) |
//! | `--cell K` | replay exactly cell K, print its line, write nothing |
//! | `--smoke` | the CI profile: 256 cells, fixed seed, bounded deadline |
//! | `--jsonl PATH` | per-cell record path; the summary goes to `PATH` with a `.json` extension (so `PATH` must not end in `.json`) |
//!
//! An unknown flag, a missing or malformed value, or a zero `--cells` or
//! `--activations` is refused with the usage message and exit status 2.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use mcs_bench::campaign::{run_campaign, run_cells, CampaignSpec};
use mcs_bench::output_path;

const USAGE: &str = "usage: fault_campaign [--cells N] [--seed S] [--activations N] \
                     [--os-one-in N] [--cell K] [--smoke] [--jsonl PATH]";

#[derive(Debug, PartialEq)]
struct Args {
    spec: CampaignSpec,
    replay: Option<u64>,
    jsonl: Option<String>,
}

/// Parses the flags after the program name; the error names the offending
/// flag.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        spec: CampaignSpec::default(),
        replay: None,
        jsonl: None,
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cells" => parsed.spec.cells = positive("--cells", &mut it)?,
            "--seed" => parsed.spec.seed = unsigned("--seed", &mut it)?,
            "--activations" => parsed.spec.activations = positive("--activations", &mut it)?,
            "--os-one-in" => parsed.spec.os_one_in = unsigned("--os-one-in", &mut it)?,
            "--cell" => parsed.replay = Some(unsigned("--cell", &mut it)?),
            "--smoke" => {
                parsed.spec.cells = 256;
                parsed.spec.seed = 0xC0_FFEE;
                parsed.spec.activations = 2;
                parsed.spec.os_one_in = 8;
                parsed.spec.deadline = Duration::from_secs(30);
            }
            "--jsonl" => parsed.jsonl = Some(it.next().ok_or("--jsonl takes a path")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(parsed)
}

/// The value of `flag`: an unsigned integer, decimal or `0x` hex.
fn unsigned(flag: &str, it: &mut impl Iterator<Item = String>) -> Result<u64, String> {
    it.next()
        .and_then(|v| {
            let v = v.trim();
            match v.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => v.parse().ok(),
            }
        })
        .ok_or_else(|| format!("{flag} takes an unsigned integer"))
}

/// The value of `flag`: a positive integer, decimal or `0x` hex.
fn positive(flag: &str, it: &mut impl Iterator<Item = String>) -> Result<u64, String> {
    match unsigned(flag, it) {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{flag} takes a positive integer")),
    }
}

/// The summary file of a campaign whose per-cell records go to `jsonl`:
/// the same path with a `.json` extension, or `None` when that is `jsonl`
/// itself.
fn summary_path(jsonl: &Path) -> Option<PathBuf> {
    let summary = jsonl.with_extension("json");
    (summary != jsonl).then_some(summary)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // Replay path: run the one cell, print its record, touch no files.
    if let Some(index) = args.replay {
        let records = run_cells(&args.spec, &[index]);
        let record = &records[0];
        println!("{}", record.json_line());
        return if record.is_hard_failure() {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    let jsonl_path = args
        .jsonl
        .map(PathBuf::from)
        .unwrap_or_else(|| output_path("BENCH_campaign.jsonl"));
    let Some(summary_path) = summary_path(&jsonl_path) else {
        eprintln!(
            "--jsonl {}: the summary would overwrite the records; \
             pass a path that does not end in .json",
            jsonl_path.display()
        );
        return ExitCode::FAILURE;
    };

    let (records, summary) = run_campaign(&args.spec);

    match std::fs::File::create(&jsonl_path) {
        Ok(file) => {
            let mut writer = mcs_core::JsonLinesWriter::new(std::io::BufWriter::new(file));
            let mut ok = true;
            for record in &records {
                if let Err(e) = writer.write_line(&record.json_line()) {
                    eprintln!("could not write {}: {e}", jsonl_path.display());
                    ok = false;
                    break;
                }
            }
            if ok {
                let n = writer.records();
                match writer.finish() {
                    Ok(_) => println!("recorded {n} cells in {}", jsonl_path.display()),
                    Err(e) => eprintln!("could not flush {}: {e}", jsonl_path.display()),
                }
            }
        }
        Err(e) => eprintln!("could not create {}: {e}", jsonl_path.display()),
    }

    match std::fs::write(&summary_path, format!("{}\n", summary.json())) {
        Ok(_) => println!("recorded campaign summary in {}", summary_path.display()),
        Err(e) => eprintln!("could not write {}: {e}", summary_path.display()),
    }

    println!("{}", summary.json());
    if summary.sound() {
        println!(
            "fault campaign passed: {} cells ({} verified, {} unschedulable, \
             {} synthesis failures, {} sim failures), zero nominal violations",
            summary.cells,
            summary.verified,
            summary.unschedulable,
            summary.synthesis_failed,
            summary.sim_failed
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("UNSOUND: hard findings detected; offending cells:");
        for record in records.iter().filter(|r| r.is_hard_failure()) {
            eprintln!("{}", record.json_line());
        }
        eprintln!(
            "replay any cell with: fault_campaign --seed {:#x} --activations {} \
             --os-one-in {} --cell K",
            args.spec.seed, args.spec.activations, args.spec.os_one_in
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn flags_parse_into_the_campaign_spec() {
        let args = parse("--cells 20000 --seed 0xC0FFEE00 --activations 16 --os-one-in 0")
            .expect("valid flags");
        assert_eq!(
            args.spec,
            CampaignSpec {
                cells: 20_000,
                seed: 0xC0FF_EE00,
                activations: 16,
                os_one_in: 0,
                ..CampaignSpec::default()
            }
        );
        let smoke = parse("--smoke --jsonl runs/x.jsonl").expect("valid flags");
        assert_eq!((smoke.spec.cells, smoke.spec.seed), (256, 0xC0_FFEE));
        assert_eq!(smoke.jsonl.as_deref(), Some("runs/x.jsonl"));
        assert_eq!(parse("--cell 0").expect("valid flags").replay, Some(0));
    }

    #[test]
    fn malformed_flags_and_empty_campaigns_are_refused() {
        for line in [
            "--bogus",
            "--cells abc",
            "--cells",
            "--jsonl",
            "--cells 0",
            "--activations 0",
            "--seed -1",
            "--cell",
        ] {
            assert!(parse(line).is_err(), "{line} must be refused");
        }
        assert_eq!(parse("--bogus"), Err("unknown flag --bogus".to_string()));
        assert_eq!(
            parse("--activations 0"),
            Err("--activations takes a positive integer".to_string())
        );
    }

    #[test]
    fn summary_sits_next_to_the_records() {
        assert_eq!(
            summary_path(Path::new("/ws/BENCH_campaign.jsonl")),
            Some(PathBuf::from("/ws/BENCH_campaign.json"))
        );
        assert_eq!(
            summary_path(Path::new("runs/x.cells.jsonl")),
            Some(PathBuf::from("runs/x.cells.json"))
        );
        assert_eq!(
            summary_path(Path::new("runs/cells")),
            Some(PathBuf::from("runs/cells.json"))
        );
        assert_eq!(summary_path(Path::new("runs/cells.json")), None);
    }
}
