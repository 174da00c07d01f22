//! Batched vs sequential candidate fan-out (`Evaluator::evaluate_batch` vs
//! one `evaluate_delta` per candidate), on the Fig-9c instance the
//! `delta_rta` section tracks. The workload is the **OS resource scan**:
//! the full candidate set of one per-resource permutation scan position
//! (every unassigned node × every recommended slot length, HOPA priorities
//! per candidate, structural seeds), exactly what `Os` submits per
//! position.
//!
//! Emits the `batch_neighborhood` section of `BENCH_core.json`. The batch
//! lanes run data-parallel across rayon workers, so the throughput ratio
//! scales with the recorded `threads` count — on a single-CPU runner the
//! section documents the (near-1×) sequential-hardware floor, not the
//! contract.

use criterion::{criterion_group, criterion_main, Criterion};

use mcs_core::{AnalysisParams, BatchRequest, BatchScratch, DeltaSeeds, Evaluator};
use mcs_gen::{generate, GeneratorParams};
use mcs_model::{NodeId, System, SystemConfig, TdmaConfig, TdmaSlot};
use mcs_opt::{hopa_priorities, minimal_slot_capacities, recommended_lengths};

fn fig9c() -> System {
    let mut params = GeneratorParams::paper_sized(4, 1_000);
    params.inter_cluster_messages = Some(10);
    generate(&params)
}

/// The candidate set of one OS scan position (position 0, default
/// `max_slot_candidates`): every unassigned node tried in the position,
/// every recommended length, exactly as `Os` builds them.
fn os_scan_requests(system: &System) -> Vec<BatchRequest> {
    let caps = minimal_slot_capacities(system);
    let order: Vec<NodeId> = system.architecture.ttp_nodes().map(|n| n.id()).collect();
    let mut slots: Vec<TdmaSlot> = order
        .iter()
        .map(|&node| TdmaSlot {
            node,
            capacity_bytes: caps[&node],
        })
        .collect();
    let structural = DeltaSeeds::structural();
    let mut requests = Vec::new();
    let position = 0;
    for j in position..slots.len() {
        slots.swap(position, j);
        let node = slots[position].node;
        let lengths = recommended_lengths(system, node);
        let saved = slots[position].capacity_bytes;
        for &len in lengths.iter().take(3) {
            slots[position].capacity_bytes = len.max(caps[&node]);
            let tdma = TdmaConfig::new(slots.clone());
            let priorities = hopa_priorities(system, &tdma);
            requests.push(BatchRequest {
                config: SystemConfig::new(tdma, priorities),
                seeds: structural.clone(),
            });
        }
        slots[position].capacity_bytes = saved;
        slots.swap(position, j);
    }
    requests
}

fn bench_batch_neighborhood(c: &mut Criterion) {
    let system = fig9c();
    let analysis = AnalysisParams::default();
    let requests = os_scan_requests(&system);

    let mut group = c.benchmark_group("batch_neighborhood");
    group.sample_size(10);

    // OS resource scan: one reused evaluator per path, like the real loop.
    let mut sequential = Evaluator::new(&system, analysis);
    group.bench_function("os_scan_sequential_delta", |b| {
        b.iter(|| {
            for request in &requests {
                let _ = sequential.evaluate_delta(&request.config, &request.seeds);
            }
        })
    });
    let mut batched = Evaluator::new(&system, analysis);
    let mut scratch = BatchScratch::new();
    group.bench_function("os_scan_batched", |b| {
        b.iter(|| batched.evaluate_batch(&mut scratch, &requests))
    });
    group.finish();

    // Bit-identity spot check outside the timed loops (the
    // `batch_equivalence` suite does the real work).
    let sequential_results: Vec<_> = requests
        .iter()
        .map(|r| sequential.evaluate_delta(&r.config, &r.seeds))
        .collect();
    let batched_results = batched.evaluate_batch(&mut scratch, &requests);
    assert_eq!(
        sequential_results, batched_results,
        "batched OS scan drifted from the sequential delta path"
    );

    let result_of = |criterion: &Criterion, suffix: &str, per_iter: f64| {
        criterion
            .results
            .iter()
            .rev()
            .find(|r| r.id.ends_with(suffix))
            .map(|r| per_iter * 1e9 / r.mean_ns)
            .unwrap_or(0.0)
    };
    let scan = requests.len() as f64;
    let scan_sequential = result_of(c, "os_scan_sequential_delta", scan);
    let scan_batched = result_of(c, "os_scan_batched", scan);
    let body = format!(
        "{{\"instance\": \"fig9c paper_sized(4, 1000) + 10 inter-cluster — 160 processes\", \
         \"threads\": {}, \
         \"os_scan_candidates\": {}, \
         \"os_scan_sequential_evals_per_sec\": {scan_sequential:.2}, \
         \"os_scan_batched_evals_per_sec\": {scan_batched:.2}, \
         \"os_scan_speedup\": {:.2}}}",
        rayon::current_num_threads(),
        requests.len(),
        scan_batched / scan_sequential.max(f64::MIN_POSITIVE),
    );
    mcs_bench::record_bench_section("batch_neighborhood", &body);
    println!(
        "batch_neighborhood: OS scan {scan_sequential:.0}/s -> {scan_batched:.0}/s \
         on {} thread(s)",
        rayon::current_num_threads()
    );
}

criterion_group!(benches, bench_batch_neighborhood);
criterion_main!(benches);
