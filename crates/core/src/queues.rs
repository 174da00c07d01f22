//! Worst-case delay and backlog of the gateway's `Out_TTP` FIFO
//! (paper §4.1.2: ETC → TTC message passing).
//!
//! Messages arriving from the CAN bus are appended to a FIFO; every TDMA
//! round, the gateway's MEDL drains up to `S_G` bytes from the front into
//! the gateway slot. For a message `m` of size `S_m` with `I_m` bytes queued
//! ahead of it:
//!
//! ```text
//! w_m^TTP = B_m + ⌈(S_m + I_m) / S_G⌉ · T_TDMA
//! B_m     = T_TDMA − (O_m mod T_TDMA) + O_SG
//! I_m     = Σ_{j ∈ hp(m)} ⌈(w_m^TTP + J_m − O_mj)⁺ / T_j⌉⁺ · s_j
//! ```
//!
//! and the FIFO buffer bound is `s_Out^TTP = max_m (S_m + I_m)`.

use mcs_can::{interfering_activations, sound_phase};
use mcs_model::Time;

/// One ETC→TTC message flowing through the `Out_TTP` FIFO.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FifoFlow {
    /// Ordering rank (the CAN priority, the paper's proxy for "queued ahead
    /// of m"); lower = drained earlier.
    pub rank: u64,
    /// Activation period `T`.
    pub period: Time,
    /// Jitter `J_m` of the enqueue instant: worst case, the response time of
    /// the CAN leg plus the gateway transfer process.
    pub jitter: Time,
    /// Earliest enqueue offset `O_m` within the transaction.
    pub offset: Time,
    /// The transaction (process graph), for offset phasing.
    pub transaction: Option<u32>,
    /// Message size `s_m` in bytes.
    pub size_bytes: u32,
    /// Current worst-case response-time iterate of the flow's FIFO leg,
    /// gating offset-phase reductions against carry-in.
    pub response: Time,
}

/// Static parameters of the gateway's TTP side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TtpQueueParams {
    /// TDMA round duration `T_TDMA`.
    pub round: Time,
    /// Offset `O_SG` of the gateway slot within a round.
    pub slot_offset: Time,
    /// Byte capacity `S_G` of the gateway slot.
    pub slot_capacity: u32,
    /// Wire duration of the gateway slot (the message's `C` on TTP).
    pub slot_duration: Time,
}

/// The converged queueing result of one FIFO flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FifoDelay {
    /// Worst-case FIFO delay `w_m^TTP`.
    pub delay: Time,
    /// Worst-case bytes occupying the FIFO when `m` is queued:
    /// `S_m + I_m`.
    pub backlog: u64,
}

fn same_transaction(a: Option<u32>, b: Option<u32>) -> bool {
    matches!((a, b), (Some(x), Some(y)) if x == y)
}

/// Bytes queued ahead of `flows[m]` within a window `w`: the interference of
/// every flow with a lower rank, filtered inline (no per-call allocation).
fn queued_ahead_of(flows: &[FifoFlow], m: usize, w: Time) -> u64 {
    let me = &flows[m];
    flows
        .iter()
        .enumerate()
        .filter(|&(k, f)| k != m && f.rank < me.rank)
        .map(|(_, j)| {
            let phase = sound_phase(
                me.offset,
                me.jitter,
                j.offset,
                j.period,
                j.response,
                same_transaction(me.transaction, j.transaction),
            );
            // The window uses m's own jitter (paper eq. for I_m).
            let (count, _) = interfering_activations(w, phase, me.jitter, j.period);
            u64::from(j.size_bytes) * count
        })
        .sum()
}

/// Blocking term `B_m`: the wait until the gateway slot next circulates.
pub fn fifo_blocking(flow: &FifoFlow, params: &TtpQueueParams) -> Time {
    params.round - (flow.offset % params.round) + params.slot_offset
}

/// Computes the worst-case FIFO delay and backlog of `flows[m]`.
///
/// Returns `None` if the fixed point exceeds `horizon`.
///
/// # Panics
///
/// Panics if `m` is out of range, the slot capacity is zero, or a flow has a
/// zero period.
pub fn fifo_delay(
    flows: &[FifoFlow],
    m: usize,
    params: &TtpQueueParams,
    horizon: Time,
) -> Option<FifoDelay> {
    fifo_delay_from(flows, m, params, horizon, Time::ZERO)
}

/// [`fifo_delay`] with a warm-start hint: the fixed point starts at
/// `max(B_m, hint)`.
///
/// Sound when the hint converged under a pointwise-smaller backlog operator
/// (enqueue jitters only grow, offsets constant across the outer
/// iteration); the fixed point reached is identical to a cold start. `ZERO`
/// reproduces the cold start exactly. (The occurrence-based bound has no
/// warm-start variant: its departure depends non-monotonically on the
/// enqueue jitter.)
///
/// # Panics
///
/// Panics if `m` is out of range, the slot capacity is zero, or a flow has
/// a zero period.
pub fn fifo_delay_from(
    flows: &[FifoFlow],
    m: usize,
    params: &TtpQueueParams,
    horizon: Time,
    hint: Time,
) -> Option<FifoDelay> {
    assert!(params.slot_capacity > 0, "gateway slot has zero capacity");
    let me = &flows[m];
    let blocking = fifo_blocking(me, params);
    let mut w = blocking.max(hint);
    loop {
        let backlog = u64::from(me.size_bytes) + queued_ahead_of(flows, m, w);
        let rounds = backlog.div_ceil(u64::from(params.slot_capacity));
        let next = blocking.saturating_add(params.round.saturating_mul(rounds));
        if next > horizon {
            return None;
        }
        if next == w {
            return Some(FifoDelay { delay: w, backlog });
        }
        w = next;
    }
}

/// Computes the worst-case FIFO delay of `flows[m]` with the tighter
/// *occurrence-based* bound: the frame leaves in the
/// `⌈(S_m + I_m)/S_G⌉`-th gateway-slot occurrence starting at or after the
/// worst-case enqueue instant `O_m + J_m`.
///
/// This refines the paper's closed form (which charges a full
/// `T_TDMA − O_m mod T_TDMA` regardless of the enqueue jitter) while staying
/// safe: the FIFO drains up to `S_G` bytes in every round, so a message with
/// `b` bytes at or ahead of it has left after `⌈b / S_G⌉` gateway slots.
///
/// Returns `None` if the fixed point exceeds `horizon`.
///
/// # Panics
///
/// Panics if `m` is out of range, the slot capacity is zero, or a flow has a
/// zero period.
pub fn fifo_delay_occurrence(
    flows: &[FifoFlow],
    m: usize,
    params: &TtpQueueParams,
    horizon: Time,
) -> Option<FifoDelay> {
    assert!(params.slot_capacity > 0, "gateway slot has zero capacity");
    let me = &flows[m];
    let enqueue = me.offset.saturating_add(me.jitter);
    // First gateway-slot start at or after the worst-case enqueue.
    let first_start = if enqueue <= params.slot_offset {
        params.slot_offset
    } else {
        params.slot_offset
            + params
                .round
                .saturating_mul((enqueue - params.slot_offset).div_ceil(params.round))
    };
    let mut w = Time::ZERO;
    loop {
        let backlog = u64::from(me.size_bytes) + queued_ahead_of(flows, m, w);
        let rounds = backlog.div_ceil(u64::from(params.slot_capacity));
        let depart = first_start.saturating_add(params.round.saturating_mul(rounds - 1));
        let next = depart.saturating_sub(enqueue);
        if next > horizon {
            return None;
        }
        if next == w {
            return Some(FifoDelay { delay: w, backlog });
        }
        w = next;
    }
}

/// The FIFO buffer bound `s_Out^TTP = max_m (S_m + I_m)`, treating diverged
/// flows as occupying the full backlog implied by the horizon is meaningless
/// — diverged flows simply contribute their own size plus everything ahead
/// at the horizon; callers reject unschedulable systems before sizing.
pub fn fifo_size_bound(delays: &[Option<FifoDelay>]) -> u64 {
    delays
        .iter()
        .flatten()
        .map(|d| d.backlog)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params_fig4() -> TtpQueueParams {
        // Round 40 ms, S_G first (offset 0), 8-byte capacity, 20 ms slot.
        TtpQueueParams {
            round: Time::from_millis(40),
            slot_offset: Time::ZERO,
            slot_capacity: 8,
            slot_duration: Time::from_millis(20),
        }
    }

    fn flow(rank: u64, size: u32) -> FifoFlow {
        FifoFlow {
            rank,
            period: Time::from_millis(240),
            jitter: Time::ZERO,
            offset: Time::ZERO,
            transaction: None,
            size_bytes: size,
            response: Time::ZERO,
        }
    }

    #[test]
    fn blocking_waits_for_next_gateway_slot() {
        let params = params_fig4();
        let mut f = flow(0, 8);
        // Enqueued at 90 ms: next round boundary at 120, slot offset 0.
        f.offset = Time::from_millis(90);
        assert_eq!(fifo_blocking(&f, &params), Time::from_millis(30));
        // Aligned on a round boundary: a full round of blocking (the paper's
        // formula is conservative here).
        f.offset = Time::from_millis(80);
        assert_eq!(fifo_blocking(&f, &params), Time::from_millis(40));
    }

    #[test]
    fn single_flow_drains_in_one_round() {
        let params = params_fig4();
        let flows = vec![flow(0, 8)];
        let d = fifo_delay(&flows, 0, &params, Time::from_millis(10_000)).expect("converges");
        // B = 40 (aligned), one round to drain 8/8 bytes.
        assert_eq!(d.delay, Time::from_millis(80));
        assert_eq!(d.backlog, 8);
    }

    #[test]
    fn traffic_ahead_adds_rounds() {
        let params = params_fig4();
        // 16 bytes ahead of an 8-byte message: 24 bytes = 3 rounds.
        let flows = vec![flow(0, 16), flow(1, 8)];
        let d = fifo_delay(&flows, 1, &params, Time::from_millis(10_000)).expect("converges");
        assert_eq!(d.backlog, 24);
        assert_eq!(d.delay, Time::from_millis(40 + 3 * 40));
        // The head-of-line flow only waits for itself.
        let d0 = fifo_delay(&flows, 0, &params, Time::from_millis(10_000)).expect("converges");
        assert_eq!(d0.backlog, 16);
        assert_eq!(d0.delay, Time::from_millis(40 + 2 * 40));
    }

    #[test]
    fn phased_flows_do_not_queue_ahead() {
        let params = params_fig4();
        let mut a = flow(0, 8);
        let mut b = flow(1, 8);
        a.transaction = Some(1);
        b.transaction = Some(1);
        a.offset = Time::from_millis(200); // far after b's window closes
        b.offset = Time::ZERO;
        let flows = vec![a, b];
        let d = fifo_delay(&flows, 1, &params, Time::from_millis(10_000)).expect("converges");
        assert_eq!(d.backlog, 8);
    }

    #[test]
    fn overload_diverges() {
        let params = params_fig4();
        // 64 bytes ahead every 40 ms against an 8-byte/round drain: diverges.
        let mut hog = flow(0, 64);
        hog.period = Time::from_millis(40);
        let flows = vec![hog, flow(1, 8)];
        assert_eq!(
            fifo_delay(&flows, 1, &params, Time::from_millis(100_000)),
            None
        );
    }

    #[test]
    fn size_bound_takes_the_worst_flow() {
        let delays = vec![
            Some(FifoDelay {
                delay: Time::ZERO,
                backlog: 24,
            }),
            None,
            Some(FifoDelay {
                delay: Time::ZERO,
                backlog: 40,
            }),
        ];
        assert_eq!(fifo_size_bound(&delays), 40);
        assert_eq!(fifo_size_bound(&[]), 0);
    }
}
