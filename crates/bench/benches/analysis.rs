//! Run-time benchmarks of the analysis kernels: the `MultiClusterScheduling`
//! fixed point at the paper's application sizes, the frozen seed
//! evaluation vs fresh-per-call vs context-reuse evaluation, full vs delta
//! evaluation over an SA move trace, the CAN queuing analysis, the
//! FIFO-bound ablation, and the discrete-event simulator.
//!
//! The `evaluator_reuse`, `delta_rta` and `delta_rta_multiperiod` groups
//! additionally write their evaluations/second and speedup ratios into
//! `BENCH_core.json` (repo root, or `BENCH_CORE_JSON` if set).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mcs_core::{multi_cluster_scheduling, AnalysisParams, Evaluator, FifoBound};
use mcs_gen::{cruise_controller, generate, GeneratorParams};
use mcs_model::Time;
use mcs_opt::straightforward_config;
use mcs_sim::{simulate, SimParams};

fn bench_multi_cluster_scheduling(c: &mut Criterion) {
    let mut group = c.benchmark_group("multi_cluster_scheduling");
    group.sample_size(10);
    for nodes in [2usize, 4, 6] {
        let system = generate(&GeneratorParams::paper_sized(nodes, 7));
        let config = straightforward_config(&system);
        let params = AnalysisParams::default();
        group.bench_with_input(BenchmarkId::from_parameter(nodes * 40), &nodes, |b, _| {
            b.iter(|| multi_cluster_scheduling(&system, &config, &params).expect("analyzable"))
        });
    }
    group.finish();
}

/// The seed's fresh-per-call evaluation (verbatim in
/// [`mcs_bench::seed_baseline`]: every derived table and fixed-point vector
/// rebuilt per call) vs one reused [`Evaluator`], on a paper-sized instance
/// (160 processes — the size of the paper's Figure 9c sweep). The
/// equivalence of their results is a test in `seed_baseline`. Emits
/// `BENCH_core.json`.
fn bench_evaluator_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("evaluator_reuse");
    group.sample_size(20);
    let system = generate(&GeneratorParams::paper_sized(4, 7));
    let config = {
        let mut c = straightforward_config(&system);
        c.priorities = mcs_opt::hopa_priorities(&system, &c.tdma);
        c
    };
    let params = AnalysisParams::default();

    group.bench_function("seed_fresh_per_call", |b| {
        b.iter(|| {
            mcs_bench::seed_baseline::seed_evaluate(&system, config.clone(), &params)
                .expect("analyzable")
        })
    });
    group.bench_function("fresh_per_call", |b| {
        b.iter(|| mcs_opt::evaluate(&system, config.clone(), &params).expect("analyzable"))
    });
    let mut evaluator = Evaluator::new(&system, params);
    group.bench_function("context_reuse", |b| {
        b.iter(|| evaluator.evaluate(&config).expect("analyzable"))
    });
    group.finish();
    drop(group);

    // Persist evaluations/second for the perf trajectory.
    let result_of = |criterion: &Criterion, suffix: &str| {
        criterion
            .results
            .iter()
            .rev()
            .find(|r| r.id.ends_with(suffix))
            .map(|r| 1e9 / r.mean_ns)
            .unwrap_or(0.0)
    };
    let seed = result_of(c, "seed_fresh_per_call");
    let fresh = result_of(c, "fresh_per_call");
    let reused = result_of(c, "context_reuse");
    let body = format!(
        "{{\"instance\": \"paper_sized(4, 7) — 160 processes\", \
         \"seed_evaluations_per_sec\": {seed:.2}, \
         \"fresh_evaluations_per_sec\": {fresh:.2}, \
         \"reused_evaluations_per_sec\": {reused:.2}, \
         \"speedup_vs_seed\": {:.2}, \"speedup_vs_fresh\": {:.2}}}",
        reused / seed.max(f64::MIN_POSITIVE),
        reused / fresh.max(f64::MIN_POSITIVE)
    );
    mcs_bench::record_bench_section("evaluator_reuse", &body);
}

/// The delta-RTA bench: the full vs the delta seeding of the worklist
/// engine, replaying one SA move trace (sampled moves with recorded
/// accept/reject decisions) on a 160-process instance. Both replays visit
/// identical configurations and — by the delta contract — produce
/// bit-identical results; only the kernel work differs. One bench group and
/// one `BENCH_core.json` section per instance:
///
/// * `delta_rta` — the Fig-9c single-period instance (10 inter-cluster
///   messages), the PR 2 baseline workload;
/// * `delta_rta_multiperiod` — the same instance generated with the
///   `{1, 2, 4}` period-multiplier set, where distinct phase groups give
///   the value gating real structure to prune inside priority bands.
fn bench_delta_rta(c: &mut Criterion) {
    let mut params = GeneratorParams::paper_sized(4, 1_000);
    params.inter_cluster_messages = Some(10);
    bench_delta_rta_on(
        c,
        "delta_rta",
        "fig9c paper_sized(4, 1000) + 10 inter-cluster — 160 processes",
        params,
    );
}

fn bench_delta_rta_multiperiod(c: &mut Criterion) {
    let mut params = GeneratorParams::multi_rate(4, 1_000);
    params.inter_cluster_messages = Some(10);
    bench_delta_rta_on(
        c,
        "delta_rta_multiperiod",
        "fig9c multi_rate(4, 1000) {1,2,4} + 10 inter-cluster — 160 processes",
        params,
    );
}

/// One delta-RTA trace-replay group: records the trace with a scout
/// evaluator, times the two replays, spot-checks their bit-identity and
/// emits the named section of `BENCH_core.json`.
fn bench_delta_rta_on(
    c: &mut Criterion,
    section: &str,
    instance_label: &str,
    params: GeneratorParams,
) {
    use mcs_opt::sa_start;

    let system = generate(&params);
    let analysis = AnalysisParams::default();
    let start = sa_start(&system);

    // Record the trace once with a scout evaluator: the same sampled moves
    // and accept decisions are then replayed through both paths.
    let trace = record_sa_trace(&system, &start, &analysis, 300);

    let mut group = c.benchmark_group(section);
    group.sample_size(10);
    group.bench_function("full_path", |b| {
        b.iter(|| replay_full(&system, &start, &analysis, &trace))
    });
    group.bench_function("delta_path", |b| {
        b.iter(|| replay_delta(&system, &start, &analysis, &trace))
    });
    group.finish();

    // Both replays must land on the same final result (bit-identity spot
    // check outside the timed loops; the property tests do the real work).
    let full_final = replay_full(&system, &start, &analysis, &trace);
    let delta_final = replay_delta(&system, &start, &analysis, &trace);
    assert_eq!(full_final, delta_final, "delta replay drifted from full");

    let result_of = |criterion: &Criterion, suffix: &str| {
        criterion
            .results
            .iter()
            .rev()
            .find(|r| r.id.ends_with(suffix))
            .map(|r| trace.len() as f64 * 1e9 / r.mean_ns)
            .unwrap_or(0.0)
    };
    let full = result_of(c, "full_path");
    let delta = result_of(c, "delta_path");
    let (delta_passes, full_passes) = {
        let mut evaluator = Evaluator::new(&system, analysis);
        let mut config = start.clone();
        let mut seeds = mcs_core::DeltaSeeds::new();
        evaluator.evaluate(&config).expect("analyzable");
        for &(mv, accepted) in &trace {
            let undo = mv.apply_undoable_seeded(&mut config, &mut seeds);
            match evaluator.evaluate_delta(&config, &seeds) {
                Ok(_) => {
                    seeds.clear();
                    if !accepted {
                        undo.record_seeds(&mut seeds);
                        undo.revert(&mut config);
                    }
                }
                Err(_) => {
                    undo.record_seeds(&mut seeds);
                    undo.revert(&mut config);
                }
            }
        }
        evaluator.delta_stats()
    };
    let body = format!(
        "{{\"instance\": \"{instance_label}\", \
         \"trace_moves\": {}, \
         \"full_evaluations_per_sec\": {full:.2}, \
         \"delta_evaluations_per_sec\": {delta:.2}, \
         \"speedup_vs_full_path\": {:.2}, \
         \"delta_holistic_passes\": {delta_passes}, \
         \"full_holistic_passes\": {full_passes}}}",
        trace.len(),
        delta / full.max(f64::MIN_POSITIVE),
    );
    mcs_bench::record_bench_section(section, &body);
    println!("{section}: full {full:.0}/s -> delta {delta:.0}/s");
}

type SaTrace = Vec<(mcs_opt::Move, bool)>;

/// Samples `len` SA moves against a scout evaluator, recording each move
/// and whether the annealing acceptance rule of [`mcs_opt::SaParams`]
/// (default temperature schedule, Metropolis criterion on δΓ — exactly the
/// SAS loop) takes it.
fn record_sa_trace(
    system: &mcs_model::System,
    start: &mcs_model::SystemConfig,
    analysis: &AnalysisParams,
    len: usize,
) -> SaTrace {
    use rand::{Rng, SeedableRng};
    let sa = mcs_opt::SaParams::default();
    let mut rng = rand::rngs::StdRng::seed_from_u64(sa.seed);
    let mut evaluator = Evaluator::new(system, *analysis);
    let mut sampler = mcs_opt::MoveSampler::new(system);
    let mut config = start.clone();
    let mut current = evaluator.evaluate(&config).expect("analyzable");
    let mut temperature = sa.initial_temperature;
    let mut trace = Vec::new();
    while trace.len() < len {
        let Some(mv) = sampler.sample(system, &config, &evaluator, &current, &mut rng) else {
            break;
        };
        let undo = mv.apply_undoable(&mut config);
        temperature *= sa.cooling;
        match evaluator.evaluate(&config) {
            Ok(candidate) => {
                let delta = (candidate.schedule_cost() - current.schedule_cost()) as f64;
                let accept = delta <= 0.0 || {
                    let t = temperature.max(f64::MIN_POSITIVE);
                    rng.gen::<f64>() < (-delta / t).exp()
                };
                if accept {
                    current = candidate;
                } else {
                    undo.revert(&mut config);
                }
                trace.push((mv, accept));
            }
            Err(_) => {
                undo.revert(&mut config);
                trace.push((mv, false));
            }
        }
    }
    trace
}

fn replay_full(
    system: &mcs_model::System,
    start: &mcs_model::SystemConfig,
    analysis: &AnalysisParams,
    trace: &SaTrace,
) -> mcs_core::EvalSummary {
    let mut evaluator = Evaluator::new(system, *analysis);
    let mut config = start.clone();
    let mut last = evaluator.evaluate(&config).expect("analyzable");
    for &(mv, accepted) in trace {
        let undo = mv.apply_undoable(&mut config);
        match evaluator.evaluate(&config) {
            Ok(summary) => {
                last = summary;
                if !accepted {
                    undo.revert(&mut config);
                }
            }
            Err(_) => undo.revert(&mut config),
        }
    }
    last
}

fn replay_delta(
    system: &mcs_model::System,
    start: &mcs_model::SystemConfig,
    analysis: &AnalysisParams,
    trace: &SaTrace,
) -> mcs_core::EvalSummary {
    let mut evaluator = Evaluator::new(system, *analysis);
    let mut config = start.clone();
    let mut seeds = mcs_core::DeltaSeeds::new();
    let mut last = evaluator.evaluate(&config).expect("analyzable");
    for &(mv, accepted) in trace {
        let undo = mv.apply_undoable_seeded(&mut config, &mut seeds);
        match evaluator.evaluate_delta(&config, &seeds) {
            Ok(summary) => {
                seeds.clear();
                last = summary;
                if !accepted {
                    undo.record_seeds(&mut seeds);
                    undo.revert(&mut config);
                }
            }
            Err(_) => {
                undo.record_seeds(&mut seeds);
                undo.revert(&mut config);
            }
        }
    }
    last
}

fn bench_fifo_bound_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("fifo_bound");
    group.sample_size(10);
    let system = generate(&GeneratorParams::paper_sized(4, 7));
    let config = straightforward_config(&system);
    for (label, bound) in [
        ("paper_closed_form", FifoBound::PaperClosedForm),
        ("slot_occurrence", FifoBound::SlotOccurrence),
    ] {
        let params = AnalysisParams {
            fifo_bound: bound,
            ..AnalysisParams::default()
        };
        group.bench_function(label, |b| {
            b.iter(|| multi_cluster_scheduling(&system, &config, &params).expect("analyzable"))
        });
    }
    group.finish();
}

fn bench_can_rta(c: &mut Criterion) {
    // A synthetic 64-flow CAN bus at moderate utilization.
    let flows: Vec<mcs_can::CanFlow> = (0..64)
        .map(|i| mcs_can::CanFlow {
            priority: mcs_model::Priority::new(i),
            period: Time::from_millis(100 + u64::from(i) * 10),
            jitter: Time::from_micros(u64::from(i) * 50),
            offset: Time::ZERO,
            transaction: None,
            transmission: Time::from_micros(270),
            size_bytes: 8,
            response: Time::ZERO,
        })
        .collect();
    c.bench_function("can_rta_64_flows", |b| {
        b.iter(|| mcs_can::queuing_delays(&flows, Time::from_millis(10_000)))
    });
}

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    let cc = cruise_controller();
    let analysis = AnalysisParams::default();
    let os = mcs_opt::Synthesis::builder(&cc.system)
        .analysis(analysis)
        .strategy(mcs_opt::Os::new(mcs_opt::OsParams::default()))
        .run()
        .expect("analyzable");
    let outcome =
        multi_cluster_scheduling(&cc.system, &os.best.config, &analysis).expect("analyzable");
    group.bench_function("cruise_4_activations", |b| {
        b.iter(|| {
            simulate(&cc.system, &os.best.config, &outcome, &SimParams::default())
                .expect("simulable")
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_multi_cluster_scheduling,
    bench_evaluator_reuse,
    bench_delta_rta,
    bench_delta_rta_multiperiod,
    bench_fifo_bound_variants,
    bench_can_rta,
    bench_simulator
);
criterion_main!(benches);
