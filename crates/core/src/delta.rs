//! Dependency-tracked dirtiness for incremental ("delta") re-analysis.
//!
//! A single design transformation — a priority swap on one ET CPU or on the
//! CAN bus — perturbs only a small cone of the holistic fixed point; the
//! rest of the system's response times are provably unchanged. This module
//! derives that cone: the optimizer reports the *seed* entities a move
//! touched ([`DeltaSeeds`]), and [`close_dirty`] closes them over the static
//! entity-dependency graph of the [`SystemContext`]:
//!
//! * **route successors** — a process's response time feeds the release
//!   jitter of its outgoing message legs and of its direct ET successors; a
//!   CAN leg's response feeds its (ET) destination's jitter, and the CAN leg
//!   of an ETC→TTC message feeds the enqueue jitter of its FIFO leg;
//! * **priority-band interference sets** — a dirty task dirties every
//!   lower-priority task on the same ET CPU, and a dirty CAN flow dirties
//!   every lower-priority flow on the bus (their `hp` sets contain the dirty
//!   entity); higher-priority entities are untouched because both kernels
//!   draw interference only from strictly higher priorities and their
//!   blocking bounds depend only on the (unchanged) membership multiset;
//! * **phase groups** — each dirty entity marks its process graph
//!   (transaction), so the delta jitter propagation walks only the graphs
//!   that contain dirty entities;
//! * **gateway coupling** — the FIFO leg of a dirty ETC→TTC message dirties
//!   every FIFO leg drained after it (lower CAN priority). Release inputs of
//!   the outer schedule↔analysis fixed point (FIFO arrivals bounding TT
//!   releases, ET-hosted TTP sender completions bounding frame releases) are
//!   not closed over here: the *trajectory replay* of
//!   [`Evaluator::evaluate_delta`](crate::Evaluator::evaluate_delta)
//!   re-derives the releases after every outer iteration and re-schedules
//!   (diffing the new schedule into the cone) when they changed.
//!
//! The closure is exact in the conservative direction: every entity whose
//! analysis inputs can change is marked dirty, so entities left clean keep
//! their previously converged values *as the least fixed point* of the new
//! configuration — which is what makes the delta evaluation bit-identical
//! to a full re-analysis.

use mcs_model::{MessageId, MessageRoute, ProcessId};

use crate::context::{Scratch, SystemContext};

/// The seed entities a configuration change touched, reported by the
/// optimizer's move layer (`mcs_opt::Move::apply_undoable_seeded`).
///
/// Seeds must **over-approximate** the difference between the configuration
/// being evaluated and the last configuration the evaluator analyzed
/// successfully: search loops accumulate the seeds of every applied *and
/// reverted* move since their last completed evaluation and clear the set
/// once an evaluation succeeds. Marking too much merely shrinks the delta
/// win; marking too little would be unsound.
///
/// Moves that change the TDMA round alter the bus parameters every kernel
/// reads and are recorded as [`structural`]; structural seed sets always
/// take the full evaluation path. Offset-pin moves record nothing: they act
/// purely through the static scheduler's release bounds, which the delta
/// evaluator re-derives and re-checks per outer iteration anyway.
///
/// [`structural`]: DeltaSeeds::mark_structural
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaSeeds {
    structural: bool,
    processes: Vec<ProcessId>,
    messages: Vec<MessageId>,
}

impl DeltaSeeds {
    /// An empty seed set (no change since the last evaluation).
    pub fn new() -> Self {
        Self::default()
    }

    /// A seed set for a structural change (the TDMA round): the full
    /// evaluation path is always taken.
    pub fn structural() -> Self {
        DeltaSeeds {
            structural: true,
            ..Self::default()
        }
    }

    /// Empties the set (call after a successful evaluation), keeping the
    /// allocations.
    pub fn clear(&mut self) {
        self.structural = false;
        self.processes.clear();
        self.messages.clear();
    }

    /// Records a structural change (the TDMA round — slot order or sizes).
    pub fn mark_structural(&mut self) {
        self.structural = true;
    }

    /// Adds every seed of `other` to this set (duplicates are harmless —
    /// the closure marks each entity once).
    pub fn merge(&mut self, other: &DeltaSeeds) {
        self.structural |= other.structural;
        self.processes.extend_from_slice(&other.processes);
        self.messages.extend_from_slice(&other.messages);
    }

    /// Records a process whose priority changed.
    pub fn push_process(&mut self, process: ProcessId) {
        self.processes.push(process);
    }

    /// Records a message whose priority changed.
    pub fn push_message(&mut self, message: MessageId) {
        self.messages.push(message);
    }

    /// `true` if a structural change was recorded.
    pub fn is_structural(&self) -> bool {
        self.structural
    }

    /// `true` if nothing was recorded at all.
    pub fn is_empty(&self) -> bool {
        !self.structural && self.processes.is_empty() && self.messages.is_empty()
    }

    /// The recorded process seeds.
    pub fn processes(&self) -> &[ProcessId] {
        &self.processes
    }

    /// The recorded message seeds.
    pub fn messages(&self) -> &[MessageId] {
        &self.messages
    }
}

/// One entity on the closure worklist.
#[derive(Clone, Copy, Debug)]
enum Key {
    /// An ET process, by process index.
    Proc(usize),
    /// The CAN leg of a message, by message index.
    Can(usize),
}

/// The dirty entities of one delta evaluation, kept in [`Scratch`] so the
/// flag vectors are reused across evaluations.
#[derive(Clone, Debug, Default)]
pub(crate) struct DirtySet {
    /// ET processes whose timing must be re-derived, by process index.
    pub procs: Vec<bool>,
    /// CAN legs whose delay must be re-derived, by message index.
    pub can: Vec<bool>,
    /// FIFO (TTP) legs whose delay must be re-derived, by message index.
    pub ttp: Vec<bool>,
    /// Messages whose TTP frame placement changed (schedule diff): their
    /// frame-derived offsets/arrivals are re-read from the new schedule.
    pub frame: Vec<bool>,
    /// Process graphs (phase groups) containing a dirty entity, by graph
    /// index — the delta jitter propagation walks only these.
    pub graphs: Vec<bool>,
    /// ET CPUs hosting a dirty process, by `et_nodes` index.
    pub nodes: Vec<bool>,
    /// Worklist of entities whose dependents still need marking.
    work: Vec<Key>,
}

impl DirtySet {
    fn reset(&mut self, ctx: &SystemContext) {
        let n_p = ctx.proc_is_tt.len();
        let n_m = ctx.route.len();
        for (v, n) in [
            (&mut self.procs, n_p),
            (&mut self.can, n_m),
            (&mut self.ttp, n_m),
            (&mut self.frame, n_m),
            (&mut self.graphs, ctx.n_graphs),
            (&mut self.nodes, ctx.et_nodes.len()),
        ] {
            v.clear();
            v.resize(n, false);
        }
        self.work.clear();
    }

    fn mark_proc(&mut self, pi: usize) {
        if !self.procs[pi] {
            self.procs[pi] = true;
            self.work.push(Key::Proc(pi));
        }
    }

    fn mark_can(&mut self, mi: usize) {
        if !self.can[mi] {
            self.can[mi] = true;
            self.work.push(Key::Can(mi));
        }
    }

    /// Marks every analyzed entity dirty — the seeding of the *full*
    /// evaluation path, which drives the same worklist engine as the delta
    /// path (see [`crate::holistic`]): CAN legs, FIFO legs, every process,
    /// every frame-derived quantity, every graph and every ET CPU.
    pub(crate) fn mark_all(&mut self, ctx: &SystemContext) {
        self.reset(ctx);
        self.procs.iter_mut().for_each(|v| *v = true);
        self.frame.iter_mut().for_each(|v| *v = true);
        self.graphs.iter_mut().for_each(|v| *v = true);
        self.nodes.iter_mut().for_each(|v| *v = true);
        for &mi in &ctx.can_ids {
            self.can[mi] = true;
        }
        for &mi in &ctx.fifo_ids {
            self.ttp[mi] = true;
        }
    }
}

/// Closes the configuration seeds and the schedule-diff seeds (processes
/// whose start and messages whose frame placement moved in a schedule
/// rebuild) over the entity-dependency graph, leaving the per-entity flags
/// in `scratch.dirty`.
///
/// Requires the configuration-derived tables of `scratch` (`can_order`,
/// `can_pos`, `node_order`, `node_pos`, `msg_priority`) to reflect the
/// configuration being evaluated — the priority bands are read from them.
pub(crate) fn close_dirty(
    ctx: &SystemContext,
    scratch: &mut Scratch,
    seeds: &DeltaSeeds,
    moved_procs: &[ProcessId],
    moved_msgs: &[MessageId],
) {
    let Scratch {
        dirty,
        can_order,
        can_pos,
        node_order,
        node_pos,
        msg_priority,
        ..
    } = scratch;
    dirty.reset(ctx);

    for &p in seeds.processes() {
        let pi = p.index();
        // A TT process's priority is not read by the analysis (its timing
        // is fixed by the schedule table), so a stray TT seed perturbs
        // nothing.
        if !ctx.proc_is_tt[pi] {
            dirty.mark_proc(pi);
        }
    }
    for &m in seeds.messages() {
        let mi = m.index();
        // Priorities of messages without a CAN leg (TTC→TTC traffic) are
        // not read by the analysis; everything else enters through its CAN
        // leg.
        if ctx.route[mi].uses_can() {
            dirty.mark_can(mi);
        }
    }
    // Schedule-diff seeds: a moved TT start re-enters the analysis as the
    // process's (fixed) offset; a moved frame as the frame-derived arrival
    // (TTC→TTC) or CAN-leg offset (TTC→ETC).
    for &p in moved_procs {
        dirty.mark_proc(p.index());
    }
    for &m in moved_msgs {
        let mi = m.index();
        dirty.frame[mi] = true;
        dirty.graphs[ctx.msg_graph[mi] as usize] = true;
        if matches!(ctx.route[mi], MessageRoute::TtcToEtc) {
            // The moved frame shifts the CAN-leg offset: the flow's own
            // delay and its priority band must be re-derived.
            dirty.mark_can(mi);
        }
    }

    while let Some(key) = dirty.work.pop() {
        match key {
            Key::Proc(pi) => {
                dirty.graphs[ctx.proc_graph[pi] as usize] = true;
                if let Some(ni) = ctx.proc_et_node[pi] {
                    let ni = ni as usize;
                    dirty.nodes[ni] = true;
                    // Priority band: every lower-priority process on the CPU
                    // sees pi in its hp set.
                    for p in &node_order[ni][node_pos[pi] + 1..] {
                        dirty.mark_proc(p.index());
                    }
                    for &mi in &ctx.proc_out_et_msgs[pi] {
                        dirty.mark_can(mi as usize);
                    }
                }
                // (A dirty TT process — a moved schedule start — propagates
                // only through its direct ET successors; its outgoing
                // message legs are frame-driven and seeded by the diff.)
                for &q in &ctx.proc_direct_succ[pi] {
                    dirty.mark_proc(q as usize);
                }
            }
            Key::Can(mi) => {
                dirty.graphs[ctx.msg_graph[mi] as usize] = true;
                // Priority band: every lower-priority flow on the bus sees
                // mi in its hp set.
                for &mj in &can_order[can_pos[mi] + 1..] {
                    dirty.mark_can(mj);
                }
                match ctx.route[mi] {
                    MessageRoute::EtcToTtc => {
                        // The CAN-leg response feeds the FIFO enqueue
                        // jitter, and the FIFO drains in CAN-priority order:
                        // the dirty leg and every leg drained after it
                        // (higher rank value) must be re-derived. A FIFO leg
                        // propagates nothing further itself — its arrival
                        // bounds a TT release, which the trajectory replay
                        // of the outer loop re-derives and re-checks.
                        let level = msg_priority[mi]
                            // mcs-lint: allow(panic-policy) -- the delta closure only runs on configurations evaluate() has validated
                            .expect("validated configuration assigns CAN priorities")
                            .level();
                        for &mj in &ctx.fifo_ids {
                            if mj == mi
                                || msg_priority[mj]
                                    // mcs-lint: allow(panic-policy) -- the delta closure only runs on configurations evaluate() has validated
                                    .expect("validated configuration assigns CAN priorities")
                                    .level()
                                    >= level
                            {
                                dirty.ttp[mj] = true;
                            }
                        }
                    }
                    MessageRoute::EtcToEtc | MessageRoute::TtcToEtc => {
                        let dest = ctx.msg_dest[mi] as usize;
                        if !ctx.proc_is_tt[dest] {
                            dirty.mark_proc(dest);
                        }
                    }
                    MessageRoute::TtcToTtc => {}
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Evaluator;
    use crate::multicluster::AnalysisParams;
    use mcs_gen::{figure4, figure4_ids as ids};
    use mcs_model::Time;

    fn fig() -> mcs_gen::Figure4 {
        figure4(Time::from_millis(200))
    }

    #[test]
    fn structural_seeds_survive_clear_merge_and_queries() {
        let mut seeds = DeltaSeeds::structural();
        assert!(seeds.is_structural());
        assert!(!seeds.is_empty());
        seeds.clear();
        assert!(seeds.is_empty());
        assert!(!seeds.is_structural());
        // Merging a structural set into a plain one taints it.
        seeds.push_process(ids::P2);
        let mut other = DeltaSeeds::new();
        other.mark_structural();
        seeds.merge(&other);
        assert!(seeds.is_structural());
        assert_eq!(seeds.processes(), &[ids::P2]);
    }

    #[test]
    fn merge_is_idempotent_under_closure() {
        let fig = fig();
        let mut seeds = DeltaSeeds::new();
        seeds.push_process(ids::P3);
        seeds.push_message(ids::M1);
        let mut doubled = seeds.clone();
        doubled.merge(&seeds);
        assert_ne!(seeds.processes().len(), doubled.processes().len());

        let mut a = Evaluator::new(&fig.system, AnalysisParams::default());
        a.close_for_test(&fig.config_a, &seeds, &[]);
        let dirty_once = a.dirty_for_test().clone();
        let mut b = Evaluator::new(&fig.system, AnalysisParams::default());
        b.close_for_test(&fig.config_a, &doubled, &[]);
        let dirty_twice = b.dirty_for_test();
        // Duplicated seeds close to the identical cone.
        assert_eq!(dirty_once.procs, dirty_twice.procs);
        assert_eq!(dirty_once.can, dirty_twice.can);
        assert_eq!(dirty_once.ttp, dirty_twice.ttp);
    }

    #[test]
    fn empty_seeds_close_to_an_empty_cone() {
        let fig = fig();
        let mut ev = Evaluator::new(&fig.system, AnalysisParams::default());
        ev.close_for_test(&fig.config_a, &DeltaSeeds::new(), &[]);
        let dirty = ev.dirty_for_test();
        for flags in [&dirty.procs, &dirty.can, &dirty.ttp, &dirty.frame] {
            assert!(flags.iter().all(|&d| !d));
        }
    }

    #[test]
    fn gateway_coupling_marks_the_fifo_tail() {
        let fig = fig();
        // m3 (P2 → P4) is the ETC→TTC message: its CAN leg feeds its FIFO
        // leg.
        let mut seeds = DeltaSeeds::new();
        seeds.push_message(ids::M3);
        let mut ev = Evaluator::new(&fig.system, AnalysisParams::default());
        ev.close_for_test(&fig.config_a, &seeds, &[]);
        let dirty = ev.dirty_for_test();
        assert!(dirty.can[ids::M3.index()]);
        assert!(dirty.ttp[ids::M3.index()]);

        // Seeding the highest-priority CAN message reaches m3 through the
        // bus band (m2, m3 are lower priority), and through m3 the FIFO leg.
        let mut seeds = DeltaSeeds::new();
        seeds.push_message(ids::M1);
        let mut ev = Evaluator::new(&fig.system, AnalysisParams::default());
        ev.close_for_test(&fig.config_a, &seeds, &[]);
        let dirty = ev.dirty_for_test();
        assert!(dirty.can[ids::M1.index()]);
        assert!(dirty.can[ids::M2.index()]);
        assert!(dirty.can[ids::M3.index()]);
        assert!(dirty.ttp[ids::M3.index()]);
    }

    #[test]
    fn priority_band_closure_marks_only_lower_priorities() {
        let fig = fig();
        // Configuration (a): priority(P3) = 0 > priority(P2) = 1 on N2.
        // Seeding the *lower*-priority P2 must leave P3 clean (its hp set
        // does not contain P2)…
        let mut seeds = DeltaSeeds::new();
        seeds.push_process(ids::P2);
        let mut ev = Evaluator::new(&fig.system, AnalysisParams::default());
        ev.close_for_test(&fig.config_a, &seeds, &[]);
        let dirty = ev.dirty_for_test();
        assert!(dirty.procs[ids::P2.index()]);
        assert!(!dirty.procs[ids::P3.index()]);
        // …but P2's response feeds the enqueue jitter of m3.
        assert!(dirty.can[ids::M3.index()]);

        // Seeding the higher-priority P3 dirties the band below it.
        let mut seeds = DeltaSeeds::new();
        seeds.push_process(ids::P3);
        let mut ev = Evaluator::new(&fig.system, AnalysisParams::default());
        ev.close_for_test(&fig.config_a, &seeds, &[]);
        let dirty = ev.dirty_for_test();
        assert!(dirty.procs[ids::P3.index()]);
        assert!(dirty.procs[ids::P2.index()]);
    }

    #[test]
    fn moved_placements_seed_the_frame_and_the_can_band() {
        let fig = fig();
        let mut ev = Evaluator::new(&fig.system, AnalysisParams::default());
        ev.close_for_test(&fig.config_a, &DeltaSeeds::new(), &[ids::M1]);
        let dirty = ev.dirty_for_test();
        assert!(dirty.frame[ids::M1.index()]);
        // A moved TTC→ETC frame shifts the CAN-leg offset: the flow and its
        // band re-derive, down to the FIFO leg of m3.
        assert!(dirty.can[ids::M1.index()]);
        assert!(dirty.can[ids::M3.index()]);
        assert!(dirty.ttp[ids::M3.index()]);
    }
}
