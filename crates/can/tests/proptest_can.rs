//! Property-based tests for the CAN substrate.

use proptest::prelude::*;

use mcs_can::{
    blocking_bound, frame_time, frames_needed, message_time, queuing_delay, queuing_delay_sorted,
    queuing_delays, sound_phase, CanFlow,
};
use mcs_model::{CanBusParams, Priority, Time};

/// A flow drawn for the kernels' corner cases: periods short enough that an
/// interferer lands several times in one window, offsets more than a period
/// apart (in a shared transaction they phase interferers out entirely), and
/// responses that sometimes carry in past the `sound_phase` gate.
fn arb_stressed_flow() -> impl Strategy<Value = CanFlow> {
    (50u64..2_000, 0u64..300, 0u64..3_000, 1u64..200, 0u64..1_500).prop_map(
        |(period, jitter, offset, c, response)| CanFlow {
            priority: Priority::new(0),
            period: Time::from_ticks(period),
            jitter: Time::from_ticks(jitter),
            offset: Time::from_ticks(offset),
            transaction: None,
            transmission: Time::from_ticks(c),
            size_bytes: 8,
            response: Time::from_ticks(response),
        },
    )
}

/// The evaluator's sorted kernel, its pass count dropped.
fn sorted(flows: &[CanFlow], m: usize, blocking: Time, horizon: Time, hint: Time) -> Option<Time> {
    queuing_delay_sorted(flows, m, blocking, horizon, hint, &mut 0)
}

fn arb_flow(max_priority: u32) -> impl Strategy<Value = CanFlow> {
    (
        0..max_priority,
        100u64..10_000,
        0u64..500,
        0u64..2_000,
        1u64..200,
        1u32..64,
    )
        .prop_map(|(prio, period, jitter, offset, c, size)| CanFlow {
            priority: Priority::new(prio),
            period: Time::from_ticks(period * 100),
            jitter: Time::from_ticks(jitter),
            offset: Time::from_ticks(offset),
            transaction: None,
            transmission: Time::from_ticks(c),
            size_bytes: size,
            response: Time::ZERO,
        })
}

proptest! {
    #[test]
    fn message_time_is_monotone_and_additive_in_frames(size in 0u32..256, bit in 1u64..20) {
        let params = CanBusParams::new(Time::from_ticks(bit));
        let t = message_time(size, &params);
        let t_next = message_time(size + 1, &params);
        prop_assert!(t_next >= t);
        // Never more than frames x the largest frame time.
        prop_assert!(t <= frame_time(8, &params) * u64::from(frames_needed(size)));
    }

    /// Queuing delays are monotone: growing any flow's jitter can only grow
    /// (or keep) every other flow's delay.
    #[test]
    fn delays_are_monotone_in_jitter(
        mut flows in proptest::collection::vec(arb_flow(1_000_000), 2..8),
        extra in 1u64..5_000,
    ) {
        // Make priorities unique to model a real bus.
        for (i, f) in flows.iter_mut().enumerate() {
            f.priority = Priority::new(i as u32);
        }
        let horizon = Time::from_ticks(u64::MAX / 4);
        let before = queuing_delays(&flows, horizon);
        flows[0].jitter += Time::from_ticks(extra);
        let after = queuing_delays(&flows, horizon);
        for (b, a) in before.iter().zip(&after).skip(1) {
            match (b, a) {
                (Some(b), Some(a)) => prop_assert!(a >= b),
                (None, Some(_)) => prop_assert!(false, "divergence cannot heal"),
                _ => {}
            }
        }
    }

    /// The blocking bound is exactly the largest lower-priority
    /// transmission.
    #[test]
    fn blocking_is_max_of_lp(mut flows in proptest::collection::vec(arb_flow(1_000_000), 1..8)) {
        for (i, f) in flows.iter_mut().enumerate() {
            f.priority = Priority::new(i as u32);
        }
        for m in 0..flows.len() {
            let expected = flows[m + 1..]
                .iter()
                .map(|f| f.transmission)
                .fold(Time::ZERO, Time::max);
            prop_assert_eq!(blocking_bound(&flows, m), expected);
        }
    }

    /// The sorted kernel the evaluator calls (blocking precomputed) equals
    /// the generic one from a cold start, from a warm-start hint anywhere
    /// between zero and the fixed point, and from the fixed point itself —
    /// with and without a shared transaction, and under a finite horizon
    /// that some windows outgrow (`None`).
    #[test]
    fn sorted_kernel_matches_generic(
        mut flows in proptest::collection::vec(arb_stressed_flow(), 1..8),
        shared in any::<bool>(),
        horizon in 500u64..50_000,
        hint_permille in 0u64..=1_000,
    ) {
        for (i, f) in flows.iter_mut().enumerate() {
            f.priority = Priority::new(i as u32);
            f.transaction = shared.then_some(0);
        }
        let horizon = Time::from_ticks(horizon);
        for m in 0..flows.len() {
            let blocking = blocking_bound(&flows, m);
            let generic = queuing_delay(&flows, m, horizon);
            prop_assert_eq!(sorted(&flows, m, blocking, horizon, Time::ZERO), generic);
            if let Some(w) = generic {
                let hint = Time::from_ticks(w.ticks() * hint_permille / 1_000);
                prop_assert_eq!(sorted(&flows, m, blocking, horizon, hint), generic);
                prop_assert_eq!(sorted(&flows, m, blocking, horizon, w), generic);
            }
        }
    }

    /// `sound_phase` is bounded by the interferer's period and collapses to
    /// zero across transactions.
    #[test]
    fn phase_is_bounded(
        o_m in 0u64..10_000,
        j_m in 0u64..5_000,
        o_j in 0u64..10_000,
        period in 1u64..10_000,
        response in 0u64..10_000,
    ) {
        let phase = sound_phase(
            Time::from_ticks(o_m),
            Time::from_ticks(j_m),
            Time::from_ticks(o_j),
            Time::from_ticks(period),
            Time::from_ticks(response),
            true,
        );
        // The phase postpones the first interference by at most... the
        // nominal separation itself; and across transactions it is zero.
        prop_assert!(phase <= Time::from_ticks(o_j.max(period)));
        let none = sound_phase(
            Time::from_ticks(o_m),
            Time::from_ticks(j_m),
            Time::from_ticks(o_j),
            Time::from_ticks(period),
            Time::from_ticks(response),
            false,
        );
        prop_assert_eq!(none, Time::ZERO);
    }

    /// A large interferer response disables any backward phase reduction
    /// (the carry-in guard).
    #[test]
    fn carry_in_disables_reduction(
        gap in 1u64..1_000,
        period in 1_001u64..10_000,
    ) {
        // j nominally `gap` before m, with r_j > gap: no reduction allowed.
        let phase = sound_phase(
            Time::from_ticks(1_000),
            Time::ZERO,
            Time::from_ticks(1_000 - gap),
            Time::from_ticks(period),
            Time::from_ticks(gap + 1),
            true,
        );
        prop_assert_eq!(phase, Time::ZERO);
    }
}
