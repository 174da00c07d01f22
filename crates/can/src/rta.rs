//! Worst-case queuing-delay analysis for priority-ordered output queues
//! feeding the CAN bus (paper §4.1.1, extending Tindell's CAN analysis with
//! offsets).
//!
//! The same fixed point bounds the delay in any of the system's priority
//! queues — `Out_Ni` on an ETC node and `Out_CAN` on the gateway — because
//! once a message is at the head of its queue it arbitrates on CAN like any
//! other frame:
//!
//! ```text
//! w_m = B_m + Σ_{j ∈ hp(m)} ⌈(w_m + J_j − O_mj)⁺ / T_j⌉⁺ · C_j
//! B_m = max_{k ∈ lp(m)} C_k
//! ```
//!
//! and the worst-case backlog (queue size bound, paper eq. for `s_Out`):
//!
//! ```text
//! s_Out = max_m [ s_m + Σ_{j ∈ hp(m)} ⌈(w_m + J_j − O_mj)⁺ / T_j⌉⁺ · s_j ]
//! ```

use mcs_model::{Priority, Time};

/// One message flow competing for the CAN bus.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CanFlow {
    /// Unique frame priority (lower level wins arbitration).
    pub priority: Priority,
    /// Activation period `T_m` (the sender graph's period).
    pub period: Time,
    /// Release jitter `J_m` — worst case, the response time of the sender
    /// process (or of the gateway transfer process for TTC→ETC traffic).
    pub jitter: Time,
    /// Earliest enqueue time `O_m` relative to the start of the flow's
    /// transaction (process graph).
    pub offset: Time,
    /// Transaction (process graph) the flow belongs to; offsets only phase
    /// flows of the *same* transaction.
    pub transaction: Option<u32>,
    /// Worst-case transmission time `C_m` of the whole message.
    pub transmission: Time,
    /// Message size `s_m` in bytes (for queue-size bounds).
    pub size_bytes: u32,
    /// Current worst-case response-time iterate `r_m` of the flow. Used only
    /// to gate offset-phase reductions: a nominally phased-away flow still
    /// interferes when its previous instance can carry work into the victim's
    /// busy window (`r_j > T_j − separation`). Zero disables no reductions.
    pub response: Time,
}

/// Blocking bound `B_m`: the longest lower-priority transmission that can
/// already occupy the bus (CAN frames are non-preemptive).
pub fn blocking_bound(flows: &[CanFlow], m: usize) -> Time {
    flows
        .iter()
        .enumerate()
        .filter(|&(k, f)| k != m && !f.priority.is_higher_than(flows[m].priority))
        .map(|(_, f)| f.transmission)
        .fold(Time::ZERO, Time::max)
}

/// The carry-in-safe phase of interferer `j` in flow `m`'s busy window
/// ([`sound_phase`]; offsets phase only flows of the same transaction).
///
/// Offset phasing is applied only when provably sound:
///
/// * the separation is reduced by `m`'s own jitter (`m`'s enqueue can slide
///   as late as `O_m + J_m` into `j`'s window), and
/// * no reduction at all is taken when an earlier instance of `j` can carry
///   work into `m`'s busy window (`r_j` too large relative to the
///   separation).
fn phase(m: &CanFlow, j: &CanFlow) -> Time {
    sound_phase(
        m.offset,
        m.jitter,
        j.offset,
        j.period,
        j.response,
        matches!((m.transaction, j.transaction), (Some(a), Some(b)) if a == b),
    )
}

/// Number of activations of `j` falling in a busy window of length `w` of
/// flow `m` (see [`interfering_activations`]).
fn activations(w: Time, m: &CanFlow, j: &CanFlow) -> u64 {
    interfering_activations(w, phase(m, j), j.jitter, j.period).0
}

/// Number of activations `n = ⌈(w + J + ε − φ)⁺ / T⌉` of an interferer with
/// release jitter `J` and period `T`, phased `φ` away from the busy window,
/// that fall in a window of length `w` — the ε tick makes simultaneous
/// zero-jitter releases count as interference — together with
/// `stable = n·T + φ − (J + ε)`, the largest window over which that count
/// stays `n` (`stable ≥ w`; saturating, so it can only err low).
///
/// Every interference term of the analysis counts activations here; the
/// sorted kernels use `stable` to stop at the first iterate that provably
/// cannot move.
///
/// # Panics
///
/// Panics if `period` is zero and the window is not empty.
#[inline]
pub fn interfering_activations(w: Time, phase: Time, jitter: Time, period: Time) -> (u64, Time) {
    let reach = jitter + Time::from_ticks(1);
    let window = (w + reach).saturating_sub(phase);
    let n = if window.is_zero() {
        0
    } else {
        window.div_ceil(period)
    };
    let stable = period
        .saturating_mul(n)
        .saturating_add(phase)
        .saturating_sub(reach);
    (n, stable)
}

/// The carry-in-safe phase reduction shared by all interference terms.
///
/// With nominal separation `d = O_j − O_m` (same transaction):
///
/// * `d ≥ 0`: `j`'s previous instance (one period earlier) completes by
///   `O_j − T_j + r_j`; it stays clear of `m`'s window iff
///   `r_j ≤ T_j − d`. Then the first interfering activation is `d` after
///   `m`'s nominal enqueue, reduced by `m`'s enqueue jitter.
/// * `d < 0`: `j`'s current instance completes by `O_j + r_j`; it stays
///   clear iff `r_j ≤ −d`, leaving the next activation `d + T_j` away.
///
/// Anything else falls back to the classic critical instant (zero phase).
pub fn sound_phase(
    o_m: Time,
    j_m: Time,
    o_j: Time,
    period_j: Time,
    response_j: Time,
    same_transaction: bool,
) -> Time {
    if !same_transaction {
        return Time::ZERO;
    }
    if o_j >= o_m {
        let d = o_j - o_m;
        if response_j.saturating_add(d) <= period_j {
            d.saturating_sub(j_m)
        } else {
            Time::ZERO
        }
    } else {
        let gap = o_m - o_j;
        if response_j <= gap {
            (gap_complement(gap, period_j)).saturating_sub(j_m)
        } else {
            Time::ZERO
        }
    }
}

/// `T − (gap mod T)`, the forward phase of a flow nominally `gap` earlier.
fn gap_complement(gap: Time, period: Time) -> Time {
    let behind = gap % period;
    if behind.is_zero() {
        Time::ZERO
    } else {
        period - behind
    }
}

/// Computes the worst-case queuing delay `w_m` of every flow.
///
/// Returns `None` for a flow whose fixed point exceeds `horizon` (the
/// utilization is too high for the window to close — the system is
/// unschedulable and the caller should treat the delay as unbounded).
pub fn queuing_delays(flows: &[CanFlow], horizon: Time) -> Vec<Option<Time>> {
    (0..flows.len())
        .map(|m| queuing_delay(flows, m, horizon))
        .collect()
}

/// Computes the worst-case queuing delay of `flows[m]`.
///
/// # Panics
///
/// Panics if `m` is out of range or a flow has a zero period.
pub fn queuing_delay(flows: &[CanFlow], m: usize, horizon: Time) -> Option<Time> {
    queuing_delay_from(flows, m, horizon, Time::ZERO)
}

/// [`queuing_delay`] with a warm-start hint: the fixed point starts at
/// `max(blocking, hint)` instead of the blocking bound.
///
/// Passing the delay converged in a previous round of an *outer* fixed
/// point (where jitters and responses only grow and offsets are constant,
/// so the interference operator only grows pointwise) is sound and reaches
/// the **same** least fixed point as a cold start, skipping the re-climb.
/// A hint above the current least fixed point would be unsound; `ZERO`
/// reproduces the cold start exactly.
///
/// # Panics
///
/// Panics if `m` is out of range or a flow has a zero period.
pub fn queuing_delay_from(flows: &[CanFlow], m: usize, horizon: Time, hint: Time) -> Option<Time> {
    let me = &flows[m];
    let hp = |f: &(usize, &CanFlow)| f.0 != m && f.1.priority.is_higher_than(me.priority);
    let blocking = blocking_bound(flows, m);
    let mut w = blocking.max(hint);
    loop {
        let interference: Time = flows
            .iter()
            .enumerate()
            .filter(hp)
            .map(|(_, j)| j.transmission.saturating_mul(activations(w, me, j)))
            .fold(Time::ZERO, Time::saturating_add);
        let next = blocking.saturating_add(interference);
        if next > horizon {
            return None;
        }
        if next == w {
            return Some(w);
        }
        w = next;
    }
}

/// [`queuing_delay_from`] over flows **pre-sorted by descending urgency**
/// (ascending priority level, unique priorities): `flows[..m]` is exactly
/// the higher-priority set, and `blocking` is the caller-precomputed
/// [`blocking_bound`] (a suffix maximum when sorted). Produces bit-identical
/// results to the generic form, skipping the per-call priority filtering
/// and blocking scans — the shape the reusable analysis context calls with.
/// Each pass over the prefix adds one to `passes`.
///
/// # Early exit
///
/// The pass that sums the interference at iterate `w` also takes
/// `stable = min_j` of each interferer's [`interfering_activations`] bound:
/// up to `stable`, no activation count differs from its count at `w`. So
/// when `next = B + interference` lands in `[w, stable]`, the interference
/// at `next` is the one just summed and `next` is the fixed point — the
/// value the generic loop returns after one more, confirming pass. A `next`
/// below `w` (a warm-start hint above the fixed point) keeps iterating, as
/// the generic loop does.
///
/// # Panics
///
/// Panics if `m` is out of range or a flow has a zero period.
pub fn queuing_delay_sorted(
    flows: &[CanFlow],
    m: usize,
    blocking: Time,
    horizon: Time,
    hint: Time,
    passes: &mut u64,
) -> Option<Time> {
    let me = &flows[m];
    let mut w = blocking.max(hint);
    loop {
        *passes += 1;
        let mut interference = Time::ZERO;
        let mut stable = Time::MAX;
        for j in &flows[..m] {
            let (n, until) = interfering_activations(w, phase(me, j), j.jitter, j.period);
            interference = interference.saturating_add(j.transmission.saturating_mul(n));
            stable = stable.min(until);
        }
        let next = blocking.saturating_add(interference);
        if next > horizon {
            return None;
        }
        if next == w {
            return Some(w);
        }
        if w < next && next <= stable {
            return Some(next);
        }
        w = next;
    }
}

/// Worst-case backlog in bytes of the priority queue feeding the bus, over
/// the given flows, using converged queuing delays (`None` delays are
/// treated as "all higher-priority instances over the horizon", i.e. the
/// bound degenerates conservatively; callers normally reject unschedulable
/// systems before sizing buffers).
pub fn queue_size_bound(flows: &[CanFlow], delays: &[Option<Time>], horizon: Time) -> u64 {
    flows
        .iter()
        .enumerate()
        .map(|(m, me)| {
            let w = delays[m].unwrap_or(horizon);
            let backlog: u64 = flows
                .iter()
                .enumerate()
                .filter(|&(k, f)| k != m && f.priority.is_higher_than(me.priority))
                .map(|(_, j)| u64::from(j.size_bytes) * activations(w, me, j))
                .sum();
            u64::from(me.size_bytes) + backlog
        })
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(priority: u32, period_ms: u64, c_ms: u64) -> CanFlow {
        CanFlow {
            priority: Priority::new(priority),
            period: Time::from_millis(period_ms),
            jitter: Time::ZERO,
            offset: Time::ZERO,
            transaction: None,
            transmission: Time::from_millis(c_ms),
            size_bytes: 8,
            response: Time::ZERO,
        }
    }

    #[test]
    fn highest_priority_flow_waits_only_for_blocking() {
        let flows = vec![flow(0, 100, 1), flow(1, 100, 2), flow(2, 100, 3)];
        let w = queuing_delays(&flows, Time::from_millis(1000));
        // m0: blocked by the largest lower-priority frame (3 ms).
        assert_eq!(w[0], Some(Time::from_millis(3)));
        // m2 (lowest): no blocking, interference from m0 and m1.
        assert_eq!(w[2], Some(Time::from_millis(3)));
    }

    #[test]
    fn simultaneous_release_interferes_even_with_zero_jitter() {
        let flows = vec![flow(0, 100, 5), flow(1, 100, 5)];
        let w = queuing_delays(&flows, Time::from_millis(1000));
        // m1 must wait for m0 released at the same critical instant.
        assert_eq!(w[1], Some(Time::from_millis(5)));
    }

    #[test]
    fn jitter_adds_interfering_activations() {
        let mut hi = flow(0, 10, 2);
        hi.jitter = Time::from_millis(9); // nearly one extra period of jitter
        let lo = flow(1, 100, 1);
        let flows = vec![hi, lo];
        let w = queuing_delay(&flows, 1, Time::from_millis(1000)).expect("converges");
        // Window w: ceil((w + 9 + ε)/10) activations of hi.
        // w = 2: ceil(11.001/10) = 2 -> w = 4; ceil(13.001/10) = 2 -> stable.
        assert_eq!(w, Time::from_millis(4));
    }

    #[test]
    fn sorted_kernel_skips_the_confirming_pass() {
        // The flows of `jitter_adds_interfering_activations`: the generic
        // loop visits w = 0, 2, 4 and confirms 4 on a third pass. At w = 2 the sorted kernel sees two activations
        // of hi, which stay two for any window up to 10.999 ms, so it
        // returns next = 4 ms after the second pass.
        let mut hi = flow(0, 10, 2);
        hi.jitter = Time::from_millis(9);
        let flows = vec![hi, flow(1, 100, 1)];
        let horizon = Time::from_millis(1000);
        let mut passes = 0;
        let w = queuing_delay_sorted(&flows, 1, Time::ZERO, horizon, Time::ZERO, &mut passes);
        assert_eq!(w, queuing_delay(&flows, 1, horizon));
        assert_eq!((w, passes), (Some(Time::from_millis(4)), 2));
    }

    #[test]
    fn paper_figure4_out_can_queue() {
        // m1 and m2 both copied into OutCAN by the gateway process T
        // (J = r_T = 5 ms), m1 higher priority, both C = 10 ms, T = 240 ms.
        let m1 = CanFlow {
            priority: Priority::new(0),
            period: Time::from_millis(240),
            jitter: Time::from_millis(5),
            offset: Time::from_millis(80),
            transaction: Some(1),
            transmission: Time::from_millis(10),
            size_bytes: 8,
            response: Time::from_millis(25),
        };
        let m2 = CanFlow {
            offset: Time::from_millis(80),
            priority: Priority::new(1),
            ..m1
        };
        let flows = vec![m1, m2];
        let w = queuing_delays(&flows, Time::from_millis(10_000));
        // m1 can still be blocked by the lower-priority m2 already on the
        // wire (B_m = max lp C_k); this is exactly what makes the paper's
        // J_2 = r_T + w_m1 = 5 + 10 = 15 ms in Figure 4a.
        assert_eq!(w[0], Some(Time::from_millis(10)));
        assert_eq!(w[1], Some(Time::from_millis(10))); // waits for m1: w_m2 = 10
    }

    #[test]
    fn offset_separation_removes_interference() {
        // Same transaction, b activates 50 ms after a; a's queuing window is
        // far shorter than 50 ms, so b never interferes with a... and vice
        // versa within one period.
        let mut a = flow(1, 100, 2);
        let mut b = flow(0, 100, 2);
        a.transaction = Some(1);
        b.transaction = Some(1);
        a.offset = Time::ZERO;
        b.offset = Time::from_millis(50);
        let flows = vec![a, b];
        let w = queuing_delays(&flows, Time::from_millis(1000));
        // a (lower priority) sees b phased 50 ms away: no interference.
        assert_eq!(w[0], Some(Time::ZERO));
    }

    #[test]
    fn overload_diverges_to_none() {
        // Three flows each needing 60 of every 100 ms: the higher-priority
        // demand on the lowest flow is 120 % utilization, so its queuing
        // window never closes.
        let flows = vec![flow(0, 100, 60), flow(1, 100, 60), flow(2, 100, 60)];
        let w = queuing_delays(&flows, Time::from_millis(10_000));
        assert_eq!(w[0], Some(Time::from_millis(60))); // blocked once
        assert_eq!(w[2], None);
    }

    #[test]
    fn queue_size_bound_counts_backlog_bytes() {
        let mut hi = flow(0, 100, 10);
        hi.size_bytes = 16;
        let mut lo = flow(1, 100, 10);
        lo.size_bytes = 8;
        let flows = vec![hi, lo];
        let horizon = Time::from_millis(1000);
        let w = queuing_delays(&flows, horizon);
        // Worst case for lo: itself plus one instance of hi.
        assert_eq!(queue_size_bound(&flows, &w, horizon), 8 + 16);
    }

    #[test]
    fn queue_size_bound_empty_is_zero() {
        assert_eq!(queue_size_bound(&[], &[], Time::from_millis(1)), 0);
    }
}
