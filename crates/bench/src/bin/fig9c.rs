//! Figure 9c: average percentage deviation of the total buffer need of OS
//! and OR from the SAR reference, on 160-process applications with 10–50
//! inter-cluster messages. The paper's headline: OS degrades quickly as the
//! gateway traffic intensifies, while OR stays close to SAR.
//!
//! Every (instance × strategy) run is one [`mcs_opt::run_batch`] job
//! fanned out across cores (`RAYON_NUM_THREADS` caps the workers);
//! records come back in submission order, so the output is identical to a
//! sequential sweep. Each record is also emitted as a JSON line (see
//! `--jsonl`).

use mcs_bench::{run_deviation_sweep, write_jsonl, ExperimentOptions, Flag, SweepRow};
use mcs_gen::GeneratorParams;

fn main() {
    let options = ExperimentOptions::from_args(&Flag::ALL);
    println!("Figure 9c — avg % deviation of s_total from SAR, 160 processes");
    let rows: Vec<SweepRow> = [10usize, 20, 30, 40, 50]
        .into_iter()
        .map(|inter_cluster| SweepRow {
            key: inter_cluster,
            instances: (0..options.seeds)
                .map(|seed| {
                    let mut params = GeneratorParams::paper_sized(4, 1_000 + seed);
                    params.inter_cluster_messages = Some(inter_cluster);
                    (format!("msgs={inter_cluster},seed={seed}"), params)
                })
                .collect(),
        })
        .collect();
    let records = run_deviation_sweep(options.sa_iters, &rows);
    write_jsonl(&options.jsonl_path("fig9c"), &records);
}
