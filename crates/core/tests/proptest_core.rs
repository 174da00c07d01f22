//! Property-based tests of the core analysis fixed points.

use proptest::prelude::*;

use mcs_core::{
    fifo_delay, fifo_delay_occurrence, interference_delay, interference_delay_sorted,
    interference_delays, FifoFlow, TaskFlow, TtpQueueParams,
};
use mcs_model::Time;

fn arb_task(rank: u64) -> impl Strategy<Value = TaskFlow> {
    (100u64..10_000, 0u64..500, 0u64..2_000, 1u64..300).prop_map(
        move |(period, jitter, offset, wcet)| TaskFlow {
            rank,
            period: Time::from_ticks(period * 50),
            jitter: Time::from_ticks(jitter),
            offset: Time::from_ticks(offset),
            transaction: None,
            wcet: Time::from_ticks(wcet),
            blocking: Time::ZERO,
            response: Time::ZERO,
        },
    )
}

/// A task drawn for the kernels' corner cases: periods short enough that
/// an interferer lands several times in one window, offsets more than a
/// period apart (in a shared transaction they phase interferers out
/// entirely), non-zero blocking, and responses that sometimes carry in past
/// the `sound_phase` gate.
fn arb_stressed_task() -> impl Strategy<Value = TaskFlow> {
    (
        50u64..2_000,
        0u64..300,
        0u64..3_000,
        1u64..200,
        0u64..100,
        0u64..1_500,
    )
        .prop_map(
            |(period, jitter, offset, wcet, blocking, response)| TaskFlow {
                rank: 0,
                period: Time::from_ticks(period),
                jitter: Time::from_ticks(jitter),
                offset: Time::from_ticks(offset),
                transaction: None,
                wcet: Time::from_ticks(wcet),
                blocking: Time::from_ticks(blocking),
                response: Time::from_ticks(response),
            },
        )
}

/// The evaluator's sorted kernel, its pass count dropped.
fn sorted(tasks: &[TaskFlow], i: usize, horizon: Time, hint: Time) -> Option<Time> {
    interference_delay_sorted(tasks, i, horizon, hint, &mut 0)
}

fn arb_fifo(rank: u64) -> impl Strategy<Value = FifoFlow> {
    (100u64..10_000, 0u64..500, 0u64..2_000, 1u32..32).prop_map(
        move |(period, jitter, offset, size)| FifoFlow {
            rank,
            period: Time::from_ticks(period * 50),
            jitter: Time::from_ticks(jitter),
            offset: Time::from_ticks(offset),
            transaction: None,
            size_bytes: size,
            response: Time::ZERO,
        },
    )
}

fn params() -> TtpQueueParams {
    TtpQueueParams {
        round: Time::from_ticks(1_000),
        slot_offset: Time::from_ticks(250),
        slot_capacity: 16,
        slot_duration: Time::from_ticks(250),
    }
}

proptest! {
    /// Interference delays include the blocking term and are monotone in
    /// higher-priority demand.
    #[test]
    fn interference_includes_blocking(
        tasks in proptest::collection::vec(arb_task(0), 1..6),
        blocking in 0u64..1_000,
    ) {
        let mut tasks: Vec<TaskFlow> = tasks
            .into_iter()
            .enumerate()
            .map(|(i, mut t)| {
                t.rank = i as u64;
                t
            })
            .collect();
        let last = tasks.len() - 1;
        tasks[last].blocking = Time::from_ticks(blocking);
        let horizon = Time::from_ticks(u64::MAX / 4);
        let w = interference_delays(&tasks, horizon);
        if let Some(w_last) = w[last] {
            prop_assert!(w_last >= Time::from_ticks(blocking));
        }
        // Highest priority task: exactly its own blocking.
        prop_assert_eq!(w[0], Some(tasks[0].blocking));
    }

    /// Growing a higher-priority WCET never shrinks a lower-priority delay.
    #[test]
    fn interference_is_monotone_in_wcet(
        mut tasks in proptest::collection::vec(arb_task(0), 2..6),
        extra in 1u64..500,
    ) {
        for (i, t) in tasks.iter_mut().enumerate() {
            t.rank = i as u64;
        }
        let horizon = Time::from_ticks(u64::MAX / 4);
        let before = interference_delays(&tasks, horizon);
        tasks[0].wcet += Time::from_ticks(extra);
        let after = interference_delays(&tasks, horizon);
        for (b, a) in before.iter().zip(&after).skip(1) {
            if let (Some(b), Some(a)) = (b, a) {
                prop_assert!(a >= b);
            }
        }
    }

    /// The sorted kernel the evaluator calls equals the generic one from a
    /// cold start, from a warm-start hint anywhere between zero and the
    /// fixed point, and from the fixed point itself — with and without a
    /// shared transaction, and under a finite horizon that some windows
    /// outgrow (`None`).
    #[test]
    fn sorted_kernel_matches_generic(
        mut tasks in proptest::collection::vec(arb_stressed_task(), 1..6),
        shared in any::<bool>(),
        horizon in 500u64..50_000,
        hint_permille in 0u64..=1_000,
    ) {
        for (i, t) in tasks.iter_mut().enumerate() {
            t.rank = i as u64;
            t.transaction = shared.then_some(0);
        }
        let horizon = Time::from_ticks(horizon);
        for i in 0..tasks.len() {
            let generic = interference_delay(&tasks, i, horizon);
            prop_assert_eq!(sorted(&tasks, i, horizon, Time::ZERO), generic);
            if let Some(w) = generic {
                let hint = Time::from_ticks(w.ticks() * hint_permille / 1_000);
                prop_assert_eq!(sorted(&tasks, i, horizon, hint), generic);
                prop_assert_eq!(sorted(&tasks, i, horizon, w), generic);
            }
        }
    }

    /// The occurrence-based FIFO bound is never looser than the paper's
    /// closed form, and both include at least one full drain.
    #[test]
    fn fifo_occurrence_refines_closed_form(
        flows in proptest::collection::vec(arb_fifo(0), 1..6),
    ) {
        let flows: Vec<FifoFlow> = flows
            .into_iter()
            .enumerate()
            .map(|(i, mut f)| {
                f.rank = i as u64;
                f
            })
            .collect();
        let params = params();
        let horizon = Time::from_ticks(u64::MAX / 4);
        for m in 0..flows.len() {
            let paper = fifo_delay(&flows, m, &params, horizon);
            let occ = fifo_delay_occurrence(&flows, m, &params, horizon);
            match (paper, occ) {
                (Some(p), Some(o)) => {
                    // Measured as worst-case arrival from the offset:
                    // O + J + w + C — the occurrence form is tighter.
                    let arrive_p = flows[m].offset + flows[m].jitter + p.delay;
                    let arrive_o = flows[m].offset + flows[m].jitter + o.delay;
                    prop_assert!(arrive_o <= arrive_p,
                        "occurrence {arrive_o} looser than closed form {arrive_p}");
                    prop_assert_eq!(p.backlog >= o.backlog, true);
                }
                (None, Some(_)) => prop_assert!(false, "closed form diverged first"),
                _ => {}
            }
        }
    }

    /// FIFO backlog grows with message sizes.
    #[test]
    fn fifo_backlog_monotone_in_sizes(
        flows in proptest::collection::vec(arb_fifo(0), 2..6),
        grow in 1u32..32,
    ) {
        let mut flows: Vec<FifoFlow> = flows
            .into_iter()
            .enumerate()
            .map(|(i, mut f)| {
                f.rank = i as u64;
                f
            })
            .collect();
        let params = params();
        let horizon = Time::from_ticks(u64::MAX / 4);
        let last = flows.len() - 1;
        let before = fifo_delay(&flows, last, &params, horizon);
        flows[0].size_bytes += grow;
        let after = fifo_delay(&flows, last, &params, horizon);
        if let (Some(b), Some(a)) = (before, after) {
            prop_assert!(a.backlog >= b.backlog);
            prop_assert!(a.delay >= b.delay);
        }
    }
}
