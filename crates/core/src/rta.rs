//! Offset-based response-time analysis for fixed-priority preemptive tasks
//! (paper §4.1, after Tindell's offset analysis and Palencia/González
//! Harbour).
//!
//! For a task `i` with blocking `B_i`, jitter `J_i` and higher-priority set
//! `hp(i)` on the same CPU:
//!
//! ```text
//! w_i = B_i + Σ_{j ∈ hp(i)} ⌈(w_i + J_j − O_ij)⁺ / T_j⌉⁺ · C_j
//! r_i = J_i + w_i + C_i
//! ```
//!
//! `O_ij` phases away interference from same-transaction tasks whose offsets
//! place them outside `i`'s busy window.

use mcs_model::Time;

/// One task competing for an ET CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskFlow {
    /// Scheduling rank: **lower value = higher priority**. Ranks encode both
    /// the kernel-level class (the gateway transfer process outranks every
    /// application process) and the application priority π.
    pub rank: u64,
    /// Activation period `T`.
    pub period: Time,
    /// Release jitter `J`.
    pub jitter: Time,
    /// Offset `O` within the task's transaction.
    pub offset: Time,
    /// The transaction (process graph) the task belongs to, if any; offsets
    /// only phase tasks of the same transaction.
    pub transaction: Option<u32>,
    /// Worst-case execution time `C`.
    pub wcet: Time,
    /// Blocking bound `B` from lower-priority critical sections.
    pub blocking: Time,
    /// Current worst-case response-time iterate `r` of the task, used to
    /// gate offset-phase reductions against carry-in (see
    /// [`mcs_can::sound_phase`]). Zero disables no reductions.
    pub response: Time,
}

fn same_transaction(a: Option<u32>, b: Option<u32>) -> bool {
    matches!((a, b), (Some(x), Some(y)) if x == y)
}

/// The carry-in-safe phase of `j` in `i`'s busy window
/// ([`mcs_can::sound_phase`]).
fn phase(i: &TaskFlow, j: &TaskFlow) -> Time {
    mcs_can::sound_phase(
        i.offset,
        i.jitter,
        j.offset,
        j.period,
        j.response,
        same_transaction(i.transaction, j.transaction),
    )
}

/// Number of activations of `j` interfering within a busy window `w` of `i`
/// (see [`mcs_can::interfering_activations`]).
fn activations(w: Time, i: &TaskFlow, j: &TaskFlow) -> u64 {
    mcs_can::interfering_activations(w, phase(i, j), j.jitter, j.period).0
}

/// Computes the interference delay `w_i` of every task on one CPU.
///
/// Returns `None` for a task whose busy window exceeds `horizon` (diverged:
/// the demand of higher-priority tasks is unsustainable).
pub fn interference_delays(tasks: &[TaskFlow], horizon: Time) -> Vec<Option<Time>> {
    (0..tasks.len())
        .map(|i| interference_delay(tasks, i, horizon))
        .collect()
}

/// Computes the interference delay `w_i` of `tasks[i]`.
///
/// Because the CPU is *preemptive*, the busy window that collects
/// higher-priority arrivals must span the task's own execution as well
/// (`q_i = C_i + B_i + Σ …`): an interferer released while `i` is already
/// running still preempts it. (The paper's printed equation leaves `C_i`
/// out of the window; that is the standard form for non-preemptive
/// messages, but unsafe for preemptive processes — our simulator exhibits
/// the difference.) The returned delay is `w_i = q_i − C_i`, preserving the
/// paper's `r_i = J_i + w_i + C_i` bookkeeping.
///
/// # Panics
///
/// Panics if `i` is out of range or a task has a zero period.
pub fn interference_delay(tasks: &[TaskFlow], i: usize, horizon: Time) -> Option<Time> {
    interference_delay_from(tasks, i, horizon, Time::ZERO)
}

/// [`interference_delay`] with a warm-start hint: the busy window starts at
/// `max(B + C, hint + C)` (i.e. the hint is a previously converged *delay*
/// `w = q − C`).
///
/// Sound when the hint converged under a pointwise-smaller interference
/// operator (jitters/responses only grow, offsets constant across the outer
/// iteration) — the fixed point reached is identical to a cold start.
/// `ZERO` reproduces the cold start exactly.
///
/// # Panics
///
/// Panics if `i` is out of range or a task has a zero period.
pub fn interference_delay_from(
    tasks: &[TaskFlow],
    i: usize,
    horizon: Time,
    hint: Time,
) -> Option<Time> {
    let me = &tasks[i];
    let hp = |t: &(usize, &TaskFlow)| t.0 != i && t.1.rank < me.rank;
    let base = me.blocking.saturating_add(me.wcet);
    let mut q = base.max(hint.saturating_add(me.wcet));
    loop {
        let interference: Time = tasks
            .iter()
            .enumerate()
            .filter(hp)
            .map(|(_, j)| j.wcet.saturating_mul(activations(q, me, j)))
            .fold(Time::ZERO, Time::saturating_add);
        let next = base.saturating_add(interference);
        if next > horizon {
            return None;
        }
        if next == q {
            return Some(q - me.wcet);
        }
        q = next;
    }
}

/// [`interference_delay_from`] over tasks **pre-sorted by ascending rank**
/// (unique ranks): `tasks[..i]` is exactly the higher-priority set.
/// Bit-identical to the generic form, without the per-call rank filtering —
/// the shape the reusable analysis context calls with. Each pass over the
/// prefix adds one to `passes`.
///
/// # Early exit
///
/// As in [`mcs_can::queuing_delay_sorted`]: the pass at window `q` also
/// takes the smallest [`mcs_can::interfering_activations`] `stable` bound
/// of the prefix, and a `next` window in `[q, stable]` sees exactly the
/// interference just summed, so it is the fixed point and is returned
/// without the generic loop's confirming pass. The result is still
/// `q − C_i`.
///
/// # Panics
///
/// Panics if `i` is out of range or a task has a zero period.
pub fn interference_delay_sorted(
    tasks: &[TaskFlow],
    i: usize,
    horizon: Time,
    hint: Time,
    passes: &mut u64,
) -> Option<Time> {
    let me = &tasks[i];
    let base = me.blocking.saturating_add(me.wcet);
    let mut q = base.max(hint.saturating_add(me.wcet));
    loop {
        *passes += 1;
        let mut interference = Time::ZERO;
        let mut stable = Time::MAX;
        for j in &tasks[..i] {
            let (n, until) = mcs_can::interfering_activations(q, phase(me, j), j.jitter, j.period);
            interference = interference.saturating_add(j.wcet.saturating_mul(n));
            stable = stable.min(until);
        }
        let next = base.saturating_add(interference);
        if next > horizon {
            return None;
        }
        if next == q {
            return Some(q - me.wcet);
        }
        if q < next && next <= stable {
            return Some(next - me.wcet);
        }
        q = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(rank: u64, period_ms: u64, c_ms: u64) -> TaskFlow {
        TaskFlow {
            rank,
            period: Time::from_millis(period_ms),
            jitter: Time::ZERO,
            offset: Time::ZERO,
            transaction: None,
            wcet: Time::from_millis(c_ms),
            blocking: Time::ZERO,
            response: Time::ZERO,
        }
    }

    #[test]
    fn classic_rate_monotonic_example() {
        // Liu & Layland style: C=(1,2), T=(4,10). Low task's w = 2 highs.
        let tasks = vec![task(0, 4, 1), task(1, 10, 2)];
        let w = interference_delays(&tasks, Time::from_millis(100));
        assert_eq!(w[0], Some(Time::ZERO));
        // Busy window for task 1: w=0 -> 1 activation -> w=1; w=1 -> 1 -> ok.
        assert_eq!(w[1], Some(Time::from_millis(1)));
    }

    #[test]
    fn sorted_kernel_skips_the_confirming_pass() {
        // The low task's first window q = C = 2 ms holds one activation of
        // the high task, and so does any window up to 3.999 ms: q = 3 ms is
        // the fixed point after one pass, which the generic loop confirms
        // with a second.
        let tasks = vec![task(0, 4, 1), task(1, 10, 2)];
        let horizon = Time::from_millis(100);
        let mut passes = 0;
        let w = interference_delay_sorted(&tasks, 1, horizon, Time::ZERO, &mut passes);
        assert_eq!(w, interference_delay(&tasks, 1, horizon));
        assert_eq!((w, passes), (Some(Time::from_millis(1)), 1));
    }

    #[test]
    fn blocking_enters_the_window() {
        let mut lo = task(1, 10, 2);
        lo.blocking = Time::from_millis(3);
        let tasks = vec![task(0, 100, 1), lo];
        let w = interference_delays(&tasks, Time::from_millis(100));
        assert_eq!(w[1], Some(Time::from_millis(4)));
    }

    #[test]
    fn figure4a_interference_of_p3_on_p2() {
        // Paper figure 4a: P2 and P3 on node N2, priority(P3) > priority(P2),
        // O2 = O3 = 80 ms, J3 = 25 ms, C3 = 20 ms, T = 240 ms.
        // The paper reports I2 = w2 = 20 ms.
        let p3 = TaskFlow {
            rank: 0,
            period: Time::from_millis(240),
            jitter: Time::from_millis(25),
            offset: Time::from_millis(80),
            transaction: Some(1),
            wcet: Time::from_millis(20),
            blocking: Time::ZERO,
            response: Time::from_millis(45),
        };
        let p2 = TaskFlow {
            rank: 1,
            jitter: Time::from_millis(15),
            wcet: Time::from_millis(20),
            ..p3
        };
        let tasks = vec![p3, p2];
        let w = interference_delays(&tasks, Time::from_millis(10_000));
        assert_eq!(w[1], Some(Time::from_millis(20)));
        // r2 = J2 + w2 + C2 = 15 + 20 + 20 = 55 ms, as in the paper.
        let r2 = tasks[1].jitter + w[1].expect("converged") + tasks[1].wcet;
        assert_eq!(r2, Time::from_millis(55));
    }

    #[test]
    fn phased_tasks_do_not_interfere_within_short_windows() {
        let mut hi = task(0, 100, 10);
        hi.transaction = Some(1);
        hi.offset = Time::from_millis(50);
        let mut lo = task(1, 100, 10);
        lo.transaction = Some(1);
        lo.offset = Time::ZERO;
        let tasks = vec![hi, lo];
        let w = interference_delays(&tasks, Time::from_millis(1000));
        // hi activates 50 ms after lo; lo's window stays below 50 ms.
        assert_eq!(w[1], Some(Time::ZERO));
    }

    #[test]
    fn overload_diverges() {
        // 120 % higher-priority demand on the lowest task: no fixed point.
        let tasks = vec![task(0, 10, 6), task(1, 10, 6), task(2, 10, 6)];
        let w = interference_delays(&tasks, Time::from_millis(1000));
        assert_eq!(w[2], None);
    }
}
