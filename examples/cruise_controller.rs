//! The paper's real-life example: synthesize the vehicle cruise controller
//! (40 processes, deadline 250 ms) with the straightforward baseline and
//! the OS heuristic as one batch, and compare.
//!
//! Run with `cargo run --release --example cruise_controller`.

use std::sync::Arc;

use mcs::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cc = cruise_controller();
    let graph = cc.system.application.graphs()[0].id();
    let deadline = cc.system.application.graphs()[0].deadline();

    println!(
        "cruise controller: {} processes, {} messages ({} crossing the gateway), deadline {}",
        cc.system.application.processes().len(),
        cc.system.application.messages().len(),
        cc.system.inter_cluster_message_count(),
        deadline
    );

    // Both strategies run as one batch; the winner is the best δΓ.
    let system = Arc::new(cc.system);
    let analysis = AnalysisParams::default();
    let records = run_batch(vec![
        JobSpec::new("cruise", Arc::clone(&system), analysis, Sf),
        JobSpec::new(
            "cruise",
            Arc::clone(&system),
            analysis,
            Os::new(OsParams::default()),
        ),
    ]);

    for record in &records {
        let report = record
            .outcome
            .report()
            .expect("cruise controller is analyzable");
        println!(
            "{}: response {:>8}  -> {}",
            record.strategy,
            report.best.outcome.graph_response(graph).to_string(),
            if report.best.is_schedulable() {
                "meets the deadline"
            } else {
                "MISSES the deadline"
            }
        );
    }

    let winner = best_record(&records, Objective::Schedule).expect("both jobs succeed");
    let best = &winner
        .outcome
        .report()
        .expect("the winner has a report")
        .best;
    println!();
    println!("synthesized TDMA round ({}):", winner.strategy);
    for (i, slot) in best.config.tdma.slots().iter().enumerate() {
        println!(
            "  slot {} -> {} ({} bytes)",
            i,
            system.architecture.node(slot.node).name(),
            slot.capacity_bytes
        );
    }
    println!();
    println!(
        "buffer bounds ({}): Out_CAN {} B, Out_TTP {} B, total {} B",
        winner.strategy,
        best.outcome.queues.out_can,
        best.outcome.queues.out_ttp,
        best.outcome.queues.total()
    );
    Ok(())
}
