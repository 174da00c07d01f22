//! Figure-9c-style sweeps over **multi-period** instances: average
//! percentage deviation of the total buffer need of OS and OR from the SAR
//! reference on 160-process applications with 10–50 inter-cluster
//! messages, generated with
//!
//! * the `{1, 2, 4}` period-multiplier set (three phase groups, 4×
//!   hyper-period), and
//! * the deep-rate `{1, 8}` preset
//!   ([`mcs_gen::PeriodMultipliers::DEEP`]: two phase groups, 8×
//!   hyper-period — the wide-rate-ratio stressor).
//!
//! The single-period sweep is `fig9c`; this binary opens the multi-rate
//! workload of the paper's application model (§2.1) that the value-driven
//! worklist engine exploits.
//!
//! Every (instance × strategy) run is one [`mcs_opt::run_batch`] job
//! fanned out across cores (`RAYON_NUM_THREADS` caps the workers);
//! records come back in submission order, so the output is identical to a
//! sequential sweep. Each record is also emitted as a JSON line (see
//! `--jsonl`).

use mcs_bench::{run_deviation_sweep, write_jsonl, ExperimentOptions, Flag, SweepRow};
use mcs_gen::GeneratorParams;

fn sweep_rows(
    options: &ExperimentOptions,
    tag: &str,
    make: impl Fn(u64) -> GeneratorParams,
) -> Vec<SweepRow> {
    [10usize, 20, 30, 40, 50]
        .into_iter()
        .map(|inter_cluster| SweepRow {
            key: inter_cluster,
            instances: (0..options.seeds)
                .map(|seed| {
                    let mut params = make(1_000 + seed);
                    params.inter_cluster_messages = Some(inter_cluster);
                    (format!("{tag},msgs={inter_cluster},seed={seed}"), params)
                })
                .collect(),
        })
        .collect()
}

fn main() {
    let options = ExperimentOptions::from_args(&Flag::ALL);
    println!("Figure 9 (multi-period) — avg % deviation of s_total from SAR,");
    println!("160 processes, period multipliers {{1, 2, 4}}");
    let rows = sweep_rows(&options, "mp124", |seed| {
        GeneratorParams::multi_rate(4, seed)
    });
    let mut records = run_deviation_sweep(options.sa_iters, &rows);

    println!();
    println!("160 processes, deep-rate period multipliers {{1, 8}}");
    let rows = sweep_rows(&options, "mp18", |seed| GeneratorParams::deep_rate(4, seed));
    records.extend(run_deviation_sweep(options.sa_iters, &rows));

    write_jsonl(&options.jsonl_path("fig9mp"), &records);
}
