//! The §6 real-life example: the vehicle cruise controller (40 processes,
//! 2 TTC + 2 ETC nodes, one mode, deadline 250 ms).
//!
//! Paper results: SF produced a 320 ms end-to-end response (deadline miss);
//! OS and SAS produced schedulable systems at 185 ms; OS needed 1020 bytes
//! of buffers, OR reduced that by 24 %, landing within 6 % of SAR.
//!
//! The five synthesis runs (SF, OS, OR, SAS, SAR) are one
//! [`mcs_opt::run_batch`] batch fanned out across cores; each record
//! carries its own wall-clock time.

use std::sync::Arc;

use mcs_bench::{point_reports, ExperimentOptions, Flag};
use mcs_core::AnalysisParams;
use mcs_gen::cruise_controller;
use mcs_opt::{run_batch, JobSpec, Or, OrParams, Os, OsParams, Sa, SaParams, Sf};

fn main() {
    let options = ExperimentOptions::from_args(&[Flag::SaIters]);
    let analysis = AnalysisParams::default();
    let cc = cruise_controller();
    let graph = cc.system.application.graphs()[0].id();
    let deadline = cc.system.application.graphs()[0].deadline();
    println!("Cruise controller — 40 processes, deadline {deadline}");
    println!();

    let sa = SaParams {
        iterations: options.sa_iters,
        seed: 1,
        ..SaParams::default()
    };
    let system = Arc::new(cc.system);
    let jobs = vec![
        JobSpec::new("cruise", Arc::clone(&system), analysis, Sf),
        JobSpec::new(
            "cruise",
            Arc::clone(&system),
            analysis,
            Os::new(OsParams::default()),
        ),
        JobSpec::new(
            "cruise",
            Arc::clone(&system),
            analysis,
            Or::new(OrParams::default()),
        ),
        JobSpec::new("cruise", Arc::clone(&system), analysis, Sa::schedule(sa)),
        JobSpec::new("cruise", Arc::clone(&system), analysis, Sa::resources(sa)),
    ];
    let records = run_batch(jobs);
    let [sf, os, or, sas, sar] = point_reports(&records).expect("every cruise run is analyzable");
    let (sf, os, or, sas, sar) = (&sf.best, &os.best, &or.best, &sas.best, &sar.best);

    let verdict = |ok: bool| if ok { "meets" } else { "MISSES" };
    println!("end-to-end worst-case response (paper: SF 320 ms, OS/SAS 185 ms):");
    println!(
        "  SF  : {:>10}  {}",
        sf.outcome.graph_response(graph).to_string(),
        verdict(sf.is_schedulable())
    );
    println!(
        "  OS  : {:>10}  {}",
        os.outcome.graph_response(graph).to_string(),
        verdict(os.is_schedulable())
    );
    println!(
        "  SAS : {:>10}  {}",
        sas.outcome.graph_response(graph).to_string(),
        verdict(sas.is_schedulable())
    );
    println!();
    println!("total buffer need (paper: OS 1020 B, OR -24 %, OR within 6 % of SAR):");
    let os_b = os.total_buffers as f64;
    let or_b = or.total_buffers as f64;
    let sar_b = sar.total_buffers as f64;
    println!("  OS  : {:>6} B", os.total_buffers);
    println!(
        "  OR  : {:>6} B  ({:+.0} % vs OS)",
        or.total_buffers,
        (or_b - os_b) / os_b * 100.0
    );
    println!(
        "  SAR : {:>6} B  (OR is {:+.0} % vs SAR)",
        sar.total_buffers,
        (or_b - sar_b) / sar_b.max(1.0) * 100.0
    );
    println!();
    let ms = |micros: u64| micros as f64 / 1_000.0;
    println!(
        "run times: SF {:.1} ms, OS {:.1} ms, OR {:.1} ms, SAS {:.1} ms, SAR {:.1} ms \
         ({} SA iterations each)",
        ms(records[0].elapsed_micros),
        ms(records[1].elapsed_micros),
        ms(records[2].elapsed_micros),
        ms(records[3].elapsed_micros),
        ms(records[4].elapsed_micros),
        options.sa_iters
    );
}
