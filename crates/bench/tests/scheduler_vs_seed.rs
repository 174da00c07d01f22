//! The live TTC list scheduler against the frozen seed copy: on random
//! TT/ET/gateway systems, TDMA configurations, release tables and list
//! priorities, [`mcs_ttp::list_schedule_dense_into`] must build exactly the
//! schedule [`mcs_bench::seed_baseline::seed_list_schedule_dense_into`]
//! builds, or fail with exactly the same error.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mcs_bench::seed_baseline::seed_list_schedule_dense_into;
use mcs_model::{
    Application, Architecture, NodeId, NodeRole, System, TdmaConfig, TdmaSlot, Time, TtpBusParams,
};
use mcs_ttp::{
    critical_path_priorities_into, list_schedule_dense_into, DenseSchedulerInput, TtcSchedule,
};

/// A random architecture (1–4 TT nodes, 0–2 ET nodes, the gateway) and a
/// random DAG application over it. Processes land on every kind of node,
/// so the schedule sees TTC→TTC and TTC→ETC frames placed at commit time,
/// gateway-sent frames placed in the pre-pass, and ETC→TTC arcs that only
/// gate through releases. WCETs are coarse so start-time ties are common.
fn random_system(rng: &mut StdRng) -> System {
    let mut b = Architecture::builder();
    let tt: Vec<NodeId> = (0..rng.gen_range(1..=4usize))
        .map(|i| b.add_node(format!("T{i}"), NodeRole::TimeTriggered))
        .collect();
    let et: Vec<NodeId> = (0..rng.gen_range(0..=2usize))
        .map(|i| b.add_node(format!("E{i}"), NodeRole::EventTriggered))
        .collect();
    let gateway = b.add_node("NG", NodeRole::Gateway);
    b.ttp_params(TtpBusParams::new(
        Time::from_micros(rng.gen_range(1..=40u64)),
        Time::from_micros(rng.gen_range(0..=20u64)),
    ));
    let arch = b.build().expect("one gateway");

    let mut ab = Application::builder();
    for g in 0..rng.gen_range(1..=3u32) {
        let graph = ab.add_graph(
            format!("G{g}"),
            Time::from_millis(10_000),
            Time::from_millis(10_000),
        );
        let mut procs = Vec::new();
        for i in 0..rng.gen_range(1..=12usize) {
            let node = match rng.gen_range(0..10u32) {
                0 | 1 if !et.is_empty() => et[rng.gen_range(0..et.len())],
                2 => gateway,
                _ => tt[rng.gen_range(0..tt.len())],
            };
            let wcet = Time::from_micros(250 * rng.gen_range(1..=6u64));
            let p = ab.add_process(graph, format!("g{g}p{i}"), node, wcet);
            let mut preds: Vec<usize> = (0..rng.gen_range(0..=i.min(3)))
                .map(|_| rng.gen_range(0..i))
                .collect();
            preds.sort_unstable();
            preds.dedup();
            for j in preds {
                ab.link(procs[j], p, rng.gen_range(1..=8u32));
            }
            procs.push(p);
        }
    }
    let app = ab.build(&arch).expect("links point forward: acyclic");
    System::new(app, arch)
}

/// A random TDMA round over the TTP nodes: shuffled slot order and random
/// capacities (some below a message size), occasionally missing one
/// node's slot or empty altogether, so every [`mcs_ttp::ScheduleError`]
/// variant occurs.
fn random_tdma(rng: &mut StdRng, system: &System) -> TdmaConfig {
    if rng.gen_range(0..40u32) == 0 {
        return TdmaConfig::new(Vec::new());
    }
    let mut nodes: Vec<NodeId> = system.architecture.ttp_nodes().map(|n| n.id()).collect();
    for i in (1..nodes.len()).rev() {
        nodes.swap(i, rng.gen_range(0..=i));
    }
    if nodes.len() > 1 && rng.gen_range(0..12u32) == 0 {
        nodes.pop();
    }
    TdmaConfig::new(
        nodes
            .into_iter()
            .map(|node| TdmaSlot {
                node,
                capacity_bytes: if rng.gen_range(0..10u32) == 0 {
                    rng.gen_range(1..=7)
                } else {
                    rng.gen_range(8..=24)
                },
            })
            .collect(),
    )
}

/// A dense release table of `len` entries, about a third of them bounded;
/// occasionally shorter than `len` (missing entries mean no bound).
fn random_releases(rng: &mut StdRng, len: usize) -> Vec<Option<Time>> {
    let len = if rng.gen_range(0..10u32) == 0 {
        rng.gen_range(0..=len)
    } else {
        len
    };
    (0..len)
        .map(|_| {
            (rng.gen_range(0..3u32) == 0).then(|| Time::from_micros(500 * rng.gen_range(0..40u64)))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn live_scheduler_matches_the_seed_copy(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let system = random_system(&mut rng);
        let tdma = random_tdma(&mut rng, &system);
        let app = &system.application;
        let mut priorities = Vec::new();
        if rng.gen::<bool>() {
            critical_path_priorities_into(&system, &tdma, &mut priorities);
        } else {
            // Few distinct values: critical-path ties fall through to ids.
            priorities.extend(
                (0..app.processes().len()).map(|_| Time::from_micros(rng.gen_range(0..3u64))),
            );
        }
        // The live schedule buffer is reused across release tables, as
        // the evaluator reuses it across passes.
        let mut live = TtcSchedule::new();
        for _ in 0..3 {
            let process_releases = random_releases(&mut rng, app.processes().len());
            let message_releases = random_releases(&mut rng, app.messages().len());
            let input = DenseSchedulerInput {
                system: &system,
                tdma: &tdma,
                process_releases: &process_releases,
                message_releases: &message_releases,
            };
            let mut frozen = TtcSchedule::new();
            let expected = seed_list_schedule_dense_into(&input, &priorities, &mut frozen);
            let got = list_schedule_dense_into(&input, &priorities, &mut live);
            prop_assert_eq!(&got, &expected, "outcome differs (seed {:#x})", seed);
            if expected.is_ok() {
                prop_assert_eq!(&live, &frozen, "schedule differs (seed {:#x})", seed);
            }
        }
    }
}
