//! Extended soundness campaign: fuzz the analysis/simulation contract far
//! beyond the CI-sized property tests. For hundreds of random systems and
//! configuration styles (straightforward, HOPA, OS-optimized, pinned by OR
//! moves), simulate under randomized execution times and fail loudly on any
//! observation exceeding its analytic bound.
//!
//! The OS synthesis runs — the expensive part of the campaign — are one
//! [`run_batch`]: fanned out across the worker pool, each under a per-job
//! wall-clock deadline so one pathological instance cannot wedge the whole
//! campaign, with panic isolation so a crashing search costs one record
//! instead of the run. Timed-out or failed syntheses are skipped (and
//! counted) — a timed-out one's partial incumbent is never checked;
//! soundness *violations* still abort loudly — they are the bug this
//! campaign exists to catch.
//!
//! Usage: `cargo run --release -p mcs-bench --bin fuzz_soundness [-- --seeds N]`

use std::sync::Arc;
use std::time::Duration;

use mcs_bench::campaign::completed_report;
use mcs_bench::{ExperimentOptions, Flag};
use mcs_core::{AnalysisParams, FifoBound};
use mcs_gen::{generate, Distribution, GeneratorParams};
use mcs_model::{System, SystemConfig};
use mcs_opt::{
    evaluate, hopa_priorities, neighborhood, run_batch, straightforward_config, JobSpec, Os,
    OsParams,
};
use mcs_sim::{simulate, simulate_with_faults, ExecutionModel, FaultParams, FaultPlan, SimParams};

/// Wall-clock cap per OS synthesis job; generously above the typical run
/// so it only fires on pathological instances.
const OS_DEADLINE: Duration = Duration::from_secs(60);

fn check(system: &System, config: &SystemConfig, analysis: &AnalysisParams, label: &str) -> bool {
    let Ok(eval) = evaluate(system, config.clone(), analysis) else {
        return false;
    };
    if !eval.is_schedulable() {
        return false;
    }
    for sim_seed in 0..3 {
        let report = simulate(
            system,
            config,
            &eval.outcome,
            &SimParams {
                activations: 3,
                execution: if sim_seed == 0 {
                    ExecutionModel::WorstCase
                } else {
                    ExecutionModel::RandomUniform
                },
                seed: sim_seed,
            },
        )
        .expect("generated systems are simulable");
        let violations = report.soundness_violations(system, &eval.outcome);
        assert!(
            violations.is_empty(),
            "UNSOUND ({label}, sim seed {sim_seed}): {violations:?}"
        );
    }
    // Fault leg: a harsh perturbed run must conserve every corrupted frame
    // and can never produce a *nominal* finding (an unperturbed run that
    // escaped its bounds would classify as one and is a hard bug).
    let plan = FaultPlan::new(FaultParams::HARSH, 0xF001);
    let report = simulate_with_faults(
        system,
        config,
        &eval.outcome,
        &SimParams {
            activations: 3,
            execution: ExecutionModel::RandomUniform,
            seed: 7,
        },
        Some(&plan),
    )
    .expect("generated systems are simulable");
    let faults = &report.faults;
    assert_eq!(
        faults.can_injected,
        faults.can_retransmitted + faults.can_dropped,
        "frame conservation violated ({label})"
    );
    for finding in report.classify_findings(system, &eval.outcome) {
        assert!(
            !finding.is_hard(),
            "UNSOUND ({label}, fault leg): {}",
            finding.detail()
        );
    }
    true
}

fn main() {
    let options = ExperimentOptions::from_args(&[Flag::Seeds]);
    let campaigns = options.seeds * 40;

    // Generate every instance and batch its OS synthesis.
    let mut instances = Vec::with_capacity(campaigns as usize);
    let mut jobs = Vec::with_capacity(campaigns as usize);
    for seed in 0..campaigns {
        let mut params = GeneratorParams::paper_sized(2, seed);
        params.processes_per_node = 6 + (seed % 10) as usize;
        params.graphs = 2 + (seed % 5) as usize;
        params.utilization_permille = 120 + (seed % 23) as u32 * 10;
        params.inter_cluster_messages = Some(1 + (seed % 7) as usize);
        if seed % 3 == 0 {
            params.wcet_distribution = Distribution::Exponential;
        }
        let system = Arc::new(generate(&params));
        let analysis = AnalysisParams {
            fifo_bound: if seed % 2 == 0 {
                FifoBound::SlotOccurrence
            } else {
                FifoBound::PaperClosedForm
            },
            ..AnalysisParams::default()
        };
        jobs.push(
            JobSpec::new(
                format!("os/{seed}"),
                Arc::clone(&system),
                analysis,
                Os::new(OsParams::default()),
            )
            .deadline(OS_DEADLINE),
        );
        instances.push((seed, system, analysis));
    }
    let os_records = run_batch(jobs);
    assert_eq!(os_records.len(), instances.len(), "one record per instance");

    let mut checked = 0u64;
    let mut skipped = 0u64;
    for ((seed, system, analysis), os_record) in instances.into_iter().zip(os_records) {
        // Style 1: straightforward slots + HOPA.
        let mut hopa = straightforward_config(&system);
        hopa.priorities = hopa_priorities(&system, &hopa.tdma);
        checked += u64::from(check(&system, &hopa, &analysis, &format!("hopa/{seed}")));

        // Style 2: OS-optimized, synthesized by the batch above.
        let os = match completed_report(os_record.outcome) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("skipping os/{seed} ({e})");
                skipped += 1;
                continue;
            }
        };
        checked += u64::from(check(
            &system,
            &os.best.config,
            &analysis,
            &format!("os/{seed}"),
        ));

        // Style 3: one random OR-style move applied on top of OS.
        if os.best.is_schedulable() {
            let moves = neighborhood(&system, &os.best);
            if !moves.is_empty() {
                let mv = moves[(seed as usize * 31) % moves.len()];
                let mut pinned = os.best.config.clone();
                mv.apply(&mut pinned);
                checked += u64::from(check(&system, &pinned, &analysis, &format!("move/{seed}")));
            }
        }

        if seed % 50 == 49 {
            println!(
                "...{}/{campaigns} systems, {checked} schedulable configs verified",
                seed + 1
            );
        }
    }
    if skipped > 0 {
        eprintln!("{skipped} OS synthesis run(s) skipped (timed out or failed)");
    }
    println!(
        "soundness campaign passed: {checked} schedulable configurations, \
         3 execution models each, zero violations"
    );
}
