//! The benchmark's own tests: tiny smoke runs emit every metric the
//! benchmark declares, planning is a pure function of the seed, a
//! tampered result fails its output check, and the verify campaign's
//! known-gap list is current.

use perfbench::plan::{set_up, verify_cell, Plan, Scale, Workload, KNOWN_GAPS, VERIFY_UNIVERSE};
use perfbench::run::{check, run_cell, serve_loop, CellResult, Output, Until};
use perfbench::{run, Options};

/// `(name, unit)` of every metric in `section` of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits next to the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn emitted(opts: &Options) -> Vec<(String, String)> {
    let report = run(opts).expect("tiny run succeeds");
    assert!(report.attempted >= 1, "{:?}: no job ran", opts.workload);
    assert_eq!(
        report.failed, 0,
        "{:?}: failures {:?}",
        opts.workload, report.failures
    );
    report
        .metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            (m.name.to_string(), m.unit.to_string())
        })
        .collect()
}

/// One test for all smoke runs: `run` sets `RAYON_NUM_THREADS`, so the
/// runs must not overlap.
#[test]
fn smoke_runs_emit_every_declared_metric_with_its_unit() {
    let mut end_to_end = declared("end_to_end");
    let mut per_layer = declared("per_layer");
    end_to_end.sort();
    per_layer.sort();
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for workload in Workload::ALL {
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            let mut got = emitted(&Options {
                workload,
                seed: 11,
                seconds: 0.2,
                trace,
                scale: Scale::Tiny,
            });
            got.sort();
            assert_eq!(&got, want, "{workload:?} trace={trace}");
        }
    }
}

#[test]
fn planning_twice_from_one_seed_gives_identical_job_lists() {
    for (workload, scale) in [
        (Workload::Anneal, Scale::Full),
        (Workload::Synth, Scale::Full),
        (Workload::Verify, Scale::Tiny),
    ] {
        let jobs = |plan: &Plan| (0..500).map(|i| plan.job(i)).collect::<Vec<_>>();
        let a = Plan::new(workload, 42, scale);
        let b = Plan::new(workload, 42, scale);
        assert_eq!(a.instances, b.instances, "{workload:?}");
        assert_eq!(format!("{:?}", a.cells), format!("{:?}", b.cells));
        assert_eq!(jobs(&a), jobs(&b), "{workload:?}");
        let other = Plan::new(workload, 43, scale);
        assert_ne!(
            a.instances, other.instances,
            "{workload:?}: the seed must matter"
        );
    }
}

#[test]
fn tampered_results_fail_their_output_check() {
    let plan = Plan::new(Workload::Anneal, 5, Scale::Tiny);
    let (inputs, _) = set_up(&plan).expect("tiny set-up");
    let service = inputs.service.as_ref().expect("anneal runs a service");
    let samples =
        serve_loop(&plan, &inputs, service, 0, Until::Jobs(1), None).expect("one job runs");
    let k = samples[0].job.instance;
    let (system, analysis) = (&inputs.systems[k], plan.analysis(k));
    let honest = samples[0].output.clone();
    check(system, &analysis, &honest).expect("the untampered result passes");

    let Output::Synthesis {
        config,
        schedule_cost,
        total_buffers,
        schedulable,
        evaluations,
    } = honest
    else {
        panic!("an anneal job yields a synthesis result: {honest:?}");
    };
    let tampered = [
        Output::Synthesis {
            config: config.clone(),
            schedule_cost,
            total_buffers: total_buffers + 1,
            schedulable,
            evaluations,
        },
        Output::Synthesis {
            config,
            schedule_cost: schedule_cost - 1,
            total_buffers,
            schedulable,
            evaluations,
        },
        Output::Cell(CellResult {
            verified: true,
            nominal_violations: 1,
            ..CellResult::default()
        }),
        Output::Cell(CellResult {
            verified: true,
            can_injected: 3,
            can_retransmitted: 1,
            can_dropped: 1,
            ..CellResult::default()
        }),
        Output::Failed("timed_out".into()),
    ];
    for output in &tampered {
        assert!(
            check(system, &analysis, output).is_err(),
            "tampered result passed: {output:?}"
        );
    }
}

/// Every cell of the fixed verify campaign that fails the benchmark's own
/// run and check on the current code must be in `KNOWN_GAPS`, and every
/// listed cell must still fail: the list is what the benchmark may skip.
/// Rebuild the list from this test's message when the campaign, the
/// analysis or the simulator changes on purpose.
#[test]
fn known_gap_list_matches_the_verify_campaign() {
    let failing: Vec<(u64, String)> = (0..VERIFY_UNIVERSE)
        .filter_map(|index| {
            let cell = verify_cell(index);
            let system = mcs_gen::generate(&cell.gen);
            let config = mcs_opt::sa_start(&system);
            let output = run_cell(&cell, &system, config, None);
            check(&system, &cell.analysis, &output)
                .err()
                .map(|reason| (index, reason))
        })
        .collect();
    let indices: Vec<u64> = failing.iter().map(|&(index, _)| index).collect();
    assert_eq!(indices, KNOWN_GAPS, "failing cells: {failing:?}");
}

#[test]
fn verify_pools_skip_the_known_gaps_and_nothing_else() {
    for seed in [1, 2, 3] {
        let plan = Plan::new(Workload::Verify, seed, Scale::Full);
        assert_eq!(plan.cells.len(), 3_000);
        assert!(plan.cells.iter().all(|c| !KNOWN_GAPS.contains(&c.index)));
        assert!(plan.skipped.iter().all(|i| KNOWN_GAPS.contains(i)));
        let first = plan.cells[0].index;
        let span = plan.cells.len() + plan.skipped.len();
        let window: Vec<u64> = (0..span as u64)
            .map(|k| (first + k) % VERIFY_UNIVERSE)
            .filter(|i| !KNOWN_GAPS.contains(i))
            .collect();
        let pool: Vec<u64> = plan.cells.iter().map(|c| c.index).collect();
        assert_eq!(
            pool, window,
            "seed {seed}: the pool is one contiguous window"
        );
    }
}
