//! Dependency-tracked dirtiness for incremental ("delta") re-analysis.
//!
//! A single design transformation — a priority swap on one ET CPU or on the
//! CAN bus — perturbs only a small cone of the holistic fixed point; the
//! rest of the system's response times are provably unchanged. This module
//! derives that cone: the optimizer reports the *seed* entities a move
//! touched ([`DeltaSeeds`]), and [`close_dirty`] closes them over the
//! entity-dependency graph of [`for_each_dependent`] — its route edges and
//! each priority band as the chain to the next lower priority, whose
//! closure is the band. Each dirty process and CAN leg also marks its
//! process graph (transaction), so the delta jitter propagation walks only
//! the graphs that contain dirty entities, and each dirty process its ET
//! CPU, whose task array is restaged.
//!
//! Higher-priority entities are untouched because both kernels draw
//! interference only from strictly higher priorities and their blocking
//! bounds depend only on the (unchanged) membership multiset. Release
//! inputs of the outer schedule↔analysis fixed point (FIFO arrivals
//! bounding TT releases, ET-hosted TTP sender completions bounding frame
//! releases) are not closed over here: the *trajectory replay* of
//! [`Evaluator::evaluate_delta`](crate::Evaluator::evaluate_delta)
//! re-derives the releases after every outer iteration and re-schedules
//! (diffing the new schedule into the cone) when they changed.
//!
//! The closure is exact in the conservative direction: every entity whose
//! analysis inputs can change is marked dirty, so entities left clean keep
//! their previously converged values *as the least fixed point* of the new
//! configuration — which is what makes the delta evaluation bit-identical
//! to a full re-analysis.

use mcs_model::{MessageId, ProcessId};

use crate::context::{Scratch, SystemContext, WlEntity};
use crate::holistic::{for_each_dependent, Band};

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
    /// Worklist keys of the marked entities whose dependents still need
    /// marking.
    work: Vec<u32>,
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

    /// Whether the worklist entity is dirty.
    pub(crate) fn contains(&self, entity: WlEntity) -> bool {
        match entity {
            WlEntity::Proc(pi) => self.procs[pi as usize],
            WlEntity::Can(mi) => self.can[mi as usize],
            WlEntity::Fifo(mi) => self.ttp[mi as usize],
        }
    }

    /// Marks the entity of worklist key `key` dirty, with its graph and
    /// CPU, and queues its dependents for marking; `u32::MAX`, the key of
    /// an entity the engine does not analyze, marks nothing.
    fn mark(&mut self, ctx: &SystemContext, key: u32) {
        let Some(&entity) = ctx.wl_entities.get(key as usize) else {
            return;
        };
        if self.contains(entity) {
            return;
        }
        match entity {
            WlEntity::Proc(pi) => {
                let pi = pi as usize;
                self.procs[pi] = true;
                self.graphs[ctx.proc_graph[pi] as usize] = true;
                if let Some(ni) = ctx.proc_et_node[pi] {
                    self.nodes[ni as usize] = true;
                }
            }
            WlEntity::Can(mi) => {
                self.can[mi as usize] = true;
                self.graphs[ctx.msg_graph[mi as usize] as usize] = true;
            }
            WlEntity::Fifo(mi) => self.ttp[mi as usize] = true,
        }
        self.work.push(key);
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
/// rebuild) over the graph of [`for_each_dependent`], leaving the
/// per-entity flags in `scratch.dirty`.
///
/// Requires the priority-sorted tables of `scratch` to reflect the
/// configuration being evaluated — the priority bands are read from them.
pub(crate) fn close_dirty(
    ctx: &SystemContext,
    scratch: &mut Scratch,
    seeds: &DeltaSeeds,
    moved_procs: &[ProcessId],
    moved_msgs: &[MessageId],
) {
    let mut dirty = std::mem::take(&mut scratch.dirty);
    dirty.reset(ctx);
    // A priority enters the analysis through the entity it orders: an ET
    // process, or a message's CAN leg. The priorities of TT processes
    // (timed by the schedule table) and of TTC→TTC messages are not read,
    // so such a seed perturbs nothing.
    for p in seeds.processes() {
        dirty.mark(ctx, ctx.wl_key_proc[p.index()]);
    }
    for m in seeds.messages() {
        dirty.mark(ctx, ctx.wl_key_can[m.index()]);
    }
    // Schedule-diff seeds. A moved start is a TT process's, and re-enters
    // the analysis as its fixed offset, which the seeding walk of its graph
    // re-reads. It has no worklist dependents: its message-free successors
    // share its TT CPU, and its moved frames are diff seeds of their own.
    for p in moved_procs {
        debug_assert!(ctx.proc_is_tt[p.index()], "only TT processes have starts");
        dirty.procs[p.index()] = true;
        dirty.graphs[ctx.proc_graph[p.index()] as usize] = true;
    }
    // A moved frame re-enters as the frame-derived arrival (TTC→TTC) or
    // as the CAN-leg offset (TTC→ETC), whose leg and band re-derive.
    for m in moved_msgs {
        let mi = m.index();
        dirty.frame[mi] = true;
        dirty.graphs[ctx.msg_graph[mi] as usize] = true;
        dirty.mark(ctx, ctx.wl_key_can[mi]);
    }
    while let Some(key) = dirty.work.pop() {
        for_each_dependent(ctx, scratch, key as usize, Band::Next, true, |d| {
            dirty.mark(ctx, d as u32);
        });
    }
    scratch.dirty = dirty;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Evaluator;
    use crate::holistic::tests::plain_config;
    use crate::multicluster::AnalysisParams;
    use mcs_gen::{figure4, figure4_ids as ids, generate, GeneratorParams};
    use mcs_model::Time;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

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
        a.close_for_test(&fig.config_a, &seeds, &[], &[]);
        let dirty_once = a.dirty_for_test().clone();
        let mut b = Evaluator::new(&fig.system, AnalysisParams::default());
        b.close_for_test(&fig.config_a, &doubled, &[], &[]);
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
        ev.close_for_test(&fig.config_a, &DeltaSeeds::new(), &[], &[]);
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
        ev.close_for_test(&fig.config_a, &seeds, &[], &[]);
        let dirty = ev.dirty_for_test();
        assert!(dirty.can[ids::M3.index()]);
        assert!(dirty.ttp[ids::M3.index()]);

        // Seeding the highest-priority CAN message reaches m3 through the
        // bus band (m2, m3 are lower priority), and through m3 the FIFO leg.
        let mut seeds = DeltaSeeds::new();
        seeds.push_message(ids::M1);
        let mut ev = Evaluator::new(&fig.system, AnalysisParams::default());
        ev.close_for_test(&fig.config_a, &seeds, &[], &[]);
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
        ev.close_for_test(&fig.config_a, &seeds, &[], &[]);
        let dirty = ev.dirty_for_test();
        assert!(dirty.procs[ids::P2.index()]);
        assert!(!dirty.procs[ids::P3.index()]);
        // …but P2's response feeds the enqueue jitter of m3.
        assert!(dirty.can[ids::M3.index()]);

        // Seeding the higher-priority P3 dirties the band below it.
        let mut seeds = DeltaSeeds::new();
        seeds.push_process(ids::P3);
        let mut ev = Evaluator::new(&fig.system, AnalysisParams::default());
        ev.close_for_test(&fig.config_a, &seeds, &[], &[]);
        let dirty = ev.dirty_for_test();
        assert!(dirty.procs[ids::P3.index()]);
        assert!(dirty.procs[ids::P2.index()]);
    }

    #[test]
    fn moved_placements_seed_the_frame_and_the_can_band() {
        let fig = fig();
        let mut ev = Evaluator::new(&fig.system, AnalysisParams::default());
        ev.close_for_test(&fig.config_a, &DeltaSeeds::new(), &[], &[ids::M1]);
        let dirty = ev.dirty_for_test();
        assert!(dirty.frame[ids::M1.index()]);
        // A moved TTC→ETC frame shifts the CAN-leg offset: the flow and its
        // band re-derive, down to the FIFO leg of m3.
        assert!(dirty.can[ids::M1.index()]);
        assert!(dirty.can[ids::M3.index()]);
        assert!(dirty.ttp[ids::M3.index()]);
    }

    #[test]
    fn a_moved_tt_start_marks_its_process_and_graph_only() {
        let fig = fig();
        let mut ev = Evaluator::new(&fig.system, AnalysisParams::default());
        ev.close_for_test(&fig.config_a, &DeltaSeeds::new(), &[ids::P1], &[]);
        let dirty = ev.dirty_for_test();
        // P1's start re-enters as its fixed offset, which the seeding walk
        // of G1 re-reads.
        assert!(dirty.procs[ids::P1.index()]);
        assert_eq!(dirty.graphs, [true]);
        // P1 has no message-free ET successor, and its TTC→ETC frames are
        // diff seeds of their own: no worklist entity is dirty.
        assert_eq!(dirty.procs.iter().filter(|&&d| d).count(), 1);
        for flags in [&dirty.can, &dirty.ttp, &dirty.frame, &dirty.nodes] {
            assert!(flags.iter().all(|&d| !d));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The closure of an arbitrary seed set is a cone of the dependency
        /// graph: every seed with a worklist entity is dirty, and so is
        /// every whole-band and route dependent of a dirty entity.
        #[test]
        fn the_closure_holds_every_seed_and_every_dependent(
            half_nodes in 1usize..=2,
            multi_rate in any::<bool>(),
            seed in 0u64..1_000,
            picks in any::<u64>(),
        ) {
            let nodes = 2 * half_nodes;
            let params = if multi_rate {
                GeneratorParams::multi_rate(nodes, seed)
            } else {
                GeneratorParams::paper_sized(nodes, seed)
            };
            let system = generate(&params);
            let app = &system.application;
            let mut rng = StdRng::seed_from_u64(picks);
            let mut seeds = DeltaSeeds::new();
            for p in app.processes().iter().filter(|_| rng.gen_range(0..8) == 0) {
                seeds.push_process(p.id());
            }
            for m in app.messages().iter().filter(|_| rng.gen_range(0..8) == 0) {
                seeds.push_message(m.id());
            }
            let mut ev = Evaluator::new(&system, AnalysisParams::default());
            ev.close_for_test(&plain_config(&system), &seeds, &[], &[]);
            let (ctx, s) = ev.tables_for_test();
            let seeded = seeds.processes().iter().map(|p| ctx.wl_key_proc[p.index()]);
            let seeded = seeded.chain(seeds.messages().iter().map(|m| ctx.wl_key_can[m.index()]));
            for key in seeded.filter(|&key| key != u32::MAX) {
                let entity = ctx.wl_entities[key as usize];
                prop_assert!(s.dirty.contains(entity), "seed {:?} is clean", entity);
            }
            let mut missed = Vec::new();
            for (key, &entity) in ctx.wl_entities.iter().enumerate() {
                if s.dirty.contains(entity) {
                    for_each_dependent(ctx, s, key, Band::Whole, true, |d| {
                        if !s.dirty.contains(ctx.wl_entities[d]) {
                            missed.push((entity, ctx.wl_entities[d]));
                        }
                    });
                }
            }
            prop_assert!(missed.is_empty(), "dirty → clean dependents: {:?}", missed);
        }
    }
}
