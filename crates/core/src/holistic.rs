//! The holistic response-time analysis of the event-triggered side, given a
//! fixed TTC schedule (the paper's `ResponseTimeAnalysis(Γ, φ, π)`), solved
//! by one **value-driven worklist engine** shared by the full and the delta
//! (incremental) evaluation paths.
//!
//! For a fixed static schedule of the TTC (process start times and frame
//! placements), the analysis is a fixed point of the coupled equations of
//!
//! * offset/jitter propagation along the process graphs
//!   (`J_D(m) = r_m`, `O_B = max` over predecessor availabilities),
//! * CAN queuing delays of every message with a CAN leg (`mcs-can`),
//! * `Out_TTP` FIFO delays of ETC→TTC messages ([`crate::queues`]), and
//! * preemption delays of processes sharing each ET CPU ([`crate::rta`]).
//!
//! # The worklist engine
//!
//! Each analyzed **entity** — an ET process, a CAN leg, a FIFO leg — has a
//! local recomputation: re-derive its jitter from its predecessors' current
//! values, refresh its entry in the shared kernel input array, re-run its
//! kernel fixed point, and compare the externally visible result (the flow
//! entry plus the route-facing offset/response) against the previous one.
//! Only when a value actually **changed** are the entity's dependents —
//! the entities that read it, as the entity-dependency graph of
//! [`for_each_dependent`] lists them — requeued: the whole priority band
//! below it, and its route successors when its offset or response moved.
//!
//! The worklist visits entities in a **per-configuration dependency
//! order** ([`order_worklist`]; iterating in a topological order of the
//! dependency graph is Bourdoncle's classic strategy for chaotic
//! iteration): a topological order of that graph under the current
//! priority assignment, each priority band reduced to a chain to the next
//! lower priority on its resource — which orders a sort exactly like the
//! whole band does. The order is rebuilt whenever the priority-sorted
//! tables are (a changed TDMA round or priority assignment), never for a
//! pins-only change. Where the graph is acyclic, as on the single-rate
//! instances measured, a full pass visits each entity once, after
//! everything it reads, and converges in one wave; a cycle (bus ↔ CPU ↔
//! FIFO couplings, as on multi-rate instances) is broken at its smallest
//! static key and requeues until quiescent.
//!
//! The order is free to choose: the argument below makes every visiting
//! order reach the same least fixed point, offsets are resolved by the
//! seeding walk before any kernel runs, and the occurrence FIFO bound is
//! stateless. Only the wave budget (`max_holistic_iterations`) depends on
//! the order: a pass that exhausts it stops below the fixed point, at a
//! state the order decides, and an evaluation whose final pass stopped so
//! reports that it did not converge (no measured pass has exhausted the
//! default budget of 64 waves). A unit test pins the results of the
//! dependency order to those of the static key order and of random
//! permutations.
//!
//! [`Holistic::run`] seeds the worklist with **every** entity from the
//! bottom of the lattice; [`Holistic::run_delta`] seeds it with the closed
//! dirty cone of [`crate::delta`], resetting only the cone to the bottom
//! while clean entities keep their baseline values. The two public
//! evaluation paths are literally two seedings of the same loop.
//!
//! # Why the engine reaches the same least fixed point as chaotic iteration
//!
//! The state of the fixed point is the vector of jitters, queuing/busy
//! delays and responses (offsets are **not** part of the lattice: they
//! derive from the schedule and BCETs only, and the seeding pass resolves
//! every dirty entity's offset in topological order before any kernel
//! runs). Over that state every operator is **monotone**: interference
//! terms grow with peer jitters and responses (a grown response can only
//! *disable* an offset-phase reduction, never enable one), FIFO backlogs
//! grow with enqueue jitters, and the horizon clamp of a diverged kernel is
//! monotone too. Starting from the lattice bottom, every entity
//! recomputation therefore moves the state **upward but never above** the
//! least fixed point — which makes per-entity warm starts sound — and any
//! order of recomputations that keeps going until no input of any entity
//! has changed since its last visit converges to the **same least fixed
//! point** as the pass-based chaotic iteration (Kleene iteration of a
//! monotone map on a lattice of finite height). Value-gated requeueing is
//! exactly that stopping rule: an entity is revisited precisely when one of
//! its inputs changed, so an empty worklist certifies global stability.
//!
//! The occurrence-based FIFO bound is the one non-monotone operator (its
//! blocking term shrinks as the enqueue jitter grows past a round
//! boundary). It is therefore evaluated as a **stateless function** of its
//! inputs on every visit — never warm-started — so a converged entry always
//! equals the cold fixed point at its final inputs, independent of the
//! visit order; the delta path inherits bit-identity for it the same way
//! the pass-based implementation did.
//!
//! On the delta path, clean entities keep their previously converged values
//! untouched: the dependency closure guarantees every input of a clean
//! entity is clean, so the clean part of the old least fixed point solves
//! the new equations and the dirty part re-climbs against it from the
//! bottom — reaching the least fixed point of the *whole* new system (the
//! standard restriction argument; see [`crate::delta`]). The closure walks
//! the same graph the requeues do, so every dependent a requeue reaches is
//! in the cone; [`Holistic::solve`] asserts that in debug builds, naming
//! the edge a closure missed.
//!
//! The engine operates entirely on the reusable state of [`crate::context`]:
//! the immutable `SystemContext` tables, the `Scratch` of the configuration
//! and the pass, and the `Timing` of one outer iteration's memo slot, which
//! it analyzes in place (a full pass clears it, never reallocating).

use mcs_can::CanFlow;
use mcs_model::{GraphId, MessageId, MessageRoute, Priority, ProcessId, System, Time};
use mcs_ttp::TtcSchedule;

use crate::context::{Scratch, SystemContext, Timing, WlEntity};
use crate::multicluster::FifoBound;
use crate::queues::{fifo_delay_from, fifo_delay_occurrence, FifoFlow, TtpQueueParams};
use crate::rta::TaskFlow;

/// Ranks: the gateway transfer process outranks all application processes.
fn app_rank(priority: Priority) -> u64 {
    1 << 32 | u64::from(priority.level())
}
const TRANSFER_RANK: u64 = 0;

/// What one worklist solve did: whether it reached quiescence within the
/// wave budget, and the work it took.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Solve {
    /// Quiescence reached (as opposed to the wave budget exhausted).
    pub quiescent: bool,
    /// Waves processed.
    pub waves: u64,
    /// Entity recomputations (process, CAN leg and FIFO leg visits).
    pub recomputations: u64,
    /// Fixed-point passes of the CPU busy-window kernel.
    pub cpu_passes: u64,
    /// Fixed-point passes of the CAN queuing-delay kernel.
    pub can_passes: u64,
}

/// One holistic analysis pass over a fixed TTC schedule, reading the shared
/// [`SystemContext`] and mutating only the [`Scratch`] and the [`Timing`]
/// it analyzes.
pub(crate) struct Holistic<'a> {
    pub ctx: &'a SystemContext,
    pub system: &'a System,
    pub schedule: &'a TtcSchedule,
    pub ttp_queue: TtpQueueParams,
    /// One extra round of FIFO pessimism when the TDMA grid does not
    /// re-align with the hyper-period (the gateway slot's phase then drifts
    /// across activations).
    pub grid_slack: Time,
    pub horizon: Time,
    pub max_iterations: u32,
    pub fifo_bound: FifoBound,
    pub s: &'a mut Scratch,
    /// The timing state of the schedule's memo slot, analyzed in place.
    pub t: &'a mut Timing,
}

impl Holistic<'_> {
    /// Runs the fixed point to convergence (or the recomputation budget),
    /// leaving the converged state in the timing; queue bounds are
    /// computed separately by [`queue_bounds`](Holistic::queue_bounds) (the
    /// evaluator needs them only for the final outer iteration). Returns
    /// whether the engine reached quiescence (as opposed to exhausting the
    /// budget) and the work it took.
    ///
    /// This is the **full** seeding of the worklist engine: every entity
    /// restarts from the bottom of the lattice and joins the worklist; see
    /// the module docs for the convergence argument.
    pub(crate) fn run(&mut self) -> Solve {
        self.reset();
        self.s.dirty.mark_all(self.ctx);
        self.seed_offsets_and_jitters();
        self.stage_kernel_inputs();
        self.solve()
    }

    /// Restricted fixed point over the dirty cone of `Scratch::dirty`
    /// (see [`crate::delta`]): the timing holds the converged analysis of
    /// this outer iteration under the delta base configuration (the slot as
    /// the base evaluation left it; placements a schedule rebuild moved are
    /// in the cone). Clean entities keep those values; every dirty entity
    /// restarts from the bottom of the lattice and re-climbs against the
    /// fixed clean inputs — reaching the same least fixed point a full
    /// re-analysis would, in a fraction of the kernel work. This is the
    /// **delta** seeding of the same worklist engine [`run`] drives.
    /// Returns whether quiescence was reached within the budget, and the
    /// work it took; without quiescence the caller must fall back to the
    /// full analysis (the timing is mid-climb).
    ///
    /// [`run`]: Holistic::run
    pub(crate) fn run_delta(&mut self) -> Solve {
        let ctx = self.ctx;
        {
            // Dirty entities restart from the bottom of the fixed-point
            // lattice. Offsets are *kept* here and re-derived by the
            // seeding pass below: they come from the schedule and BCETs
            // only, but a schedule rebuild may have moved the placements
            // under a dirty entity.
            let (dirty, t) = (&self.s.dirty, &mut *self.t);
            for pi in 0..dirty.procs.len() {
                if dirty.procs[pi] {
                    t.pj[pi] = Time::ZERO;
                    t.pw[pi] = Time::ZERO;
                    t.pr[pi] = ctx.proc_wcet[pi];
                }
            }
            for mi in 0..dirty.can.len() {
                if dirty.can[mi] {
                    // `can_j` is left in place: the seeding pass recomputes
                    // it from the (reset) sender state before any kernel
                    // reads it, and for TTC→ETC legs it is the constant
                    // transfer-process response.
                    t.can_w[mi] = Time::ZERO;
                    t.can_r[mi] = Time::ZERO;
                }
            }
            for &mi in &ctx.fifo_ids {
                if dirty.ttp[mi] {
                    // The FIFO leg restarts from the bottom as well.
                    t.ttp_w[mi] = Time::ZERO;
                    t.ttp_r[mi] = Time::ZERO;
                    t.backlog[mi] = 0;
                    t.fifo_warm[ctx.fifo_pos[mi]] = Time::ZERO;
                }
            }
        }
        self.seed_offsets_and_jitters();
        // (Re)stage the kernel input arrays from the current timing state:
        // clean entries carry their baseline (= new least fixed point)
        // values, dirty entries their freshly walked bottom-side values —
        // everything at or below the new least fixed point, which is what
        // licenses the per-entity warm starts.
        self.stage_kernel_inputs();
        self.solve()
    }

    /// Seeds the offsets and the initial jitters of every dirty entity by
    /// one topological walk over the graphs containing dirty entities.
    ///
    /// Offsets derive from the schedule and BCETs only, so after this pass
    /// they are final for the whole run — resolving them *before* any
    /// kernel runs is load-bearing: interference is not monotone in the
    /// offsets (phase separations), so a kernel must never observe a stale
    /// or unresolved peer offset.
    fn seed_offsets_and_jitters(&mut self) {
        for gi in 0..self.ctx.n_graphs {
            if self.s.dirty.graphs[gi] {
                self.walk_graph(GraphId::new(gi as u32));
            }
        }
    }

    /// The worklist loop: seed every dirty entity, then process **waves**
    /// — each wave visits its pending entities in ascending rank of the
    /// configuration's dependency order (`Scratch::wl_rank`; Gauss–Seidel:
    /// a recomputation reads the latest values of everything visited before
    /// it) and value changes requeue dependents. A dependent still pending
    /// *later in the current wave* needs no requeue (it will read the fresh
    /// arrays when its turn comes); one already visited is deferred to the
    /// next wave, so the reactions to all of a wave's changes are batched
    /// into one revisit instead of one revisit per change. Quiescence — an
    /// empty next wave — certifies that no entity has an input changed
    /// since its last visit. Reports no quiescence when the wave budget
    /// (`max_iterations`, mirroring the pass-based cap) is exhausted
    /// mid-climb.
    ///
    /// The requeues walk [`for_each_dependent`]: a changed flow entry
    /// requeues the whole band below it, a moved offset or response also
    /// the route successors. Each is dirty, as debug builds assert: the
    /// closure walks the same graph.
    fn solve(&mut self) -> Solve {
        let ctx = self.ctx;
        let n = ctx.wl_entities.len();
        let s = &mut *self.s;
        debug_assert_eq!(s.wl_order.len(), n, "worklist order not computed");
        s.wl_pending.clear();
        s.wl_pending.resize(n, false);
        s.wl_current.clear();
        // The first wave: the dirty keys, in rank order.
        for &key in &s.wl_order {
            if s.dirty.contains(ctx.wl_entities[key as usize]) {
                s.wl_pending[key as usize] = true;
                s.wl_current.push(key);
            }
        }
        // The next wave's buffers leave the scratch while it is solved, so
        // the requeues can fill them as they walk the scratch's bands.
        let mut next = std::mem::take(&mut s.wl_next);
        let mut next_pending = std::mem::take(&mut s.wl_next_pending);
        next.clear();
        next_pending.clear();
        next_pending.resize(n, false);
        let mut solve = Solve {
            quiescent: false,
            waves: 0,
            recomputations: 0,
            cpu_passes: 0,
            can_passes: 0,
        };
        while !self.s.wl_current.is_empty() && solve.waves < u64::from(self.max_iterations) {
            solve.waves += 1;
            solve.recomputations += self.s.wl_current.len() as u64;
            for i in 0..self.s.wl_current.len() {
                let key = self.s.wl_current[i] as usize;
                self.s.wl_pending[key] = false;
                let changed = match ctx.wl_entities[key] {
                    WlEntity::Proc(pi) => self.recompute_proc(pi as usize, &mut solve.cpu_passes),
                    WlEntity::Can(mi) => self.recompute_can(mi as usize, &mut solve.can_passes),
                    WlEntity::Fifo(mi) => self.recompute_fifo(mi as usize),
                };
                let Some(route) = changed else { continue };
                let s = &*self.s;
                for_each_dependent(ctx, s, key, Band::Whole, route, |d| {
                    debug_assert!(
                        s.dirty.contains(ctx.wl_entities[d]),
                        "the dirty cone misses {:?}, which reads {:?}",
                        ctx.wl_entities[d],
                        ctx.wl_entities[key],
                    );
                    if !s.wl_pending[d] && !next_pending[d] {
                        next_pending[d] = true;
                        next.push(d as u32);
                    }
                });
            }
            // Next wave: the deferred requeues, in rank order.
            let s = &mut *self.s;
            std::mem::swap(&mut s.wl_current, &mut next);
            next.clear();
            std::mem::swap(&mut s.wl_pending, &mut next_pending);
            let rank = &s.wl_rank;
            s.wl_current.sort_unstable_by_key(|&key| rank[key as usize]);
        }
        solve.quiescent = self.s.wl_current.is_empty();
        self.s.wl_next = next;
        self.s.wl_next_pending = next_pending;
        solve
    }

    /// Recomputes one ET process: jitter from the predecessors' current
    /// values, busy window against the CPU's rank prefix. Returns `None`
    /// when its task-flow entry is unchanged, else whether its offset or
    /// response moved (what [`solve`](Holistic::solve) requeues on).
    fn recompute_proc(&mut self, pi: usize, passes: &mut u64) -> Option<bool> {
        let ctx = self.ctx;
        let app = &self.system.application;
        let schedule = self.schedule;
        let p = ProcessId::new(pi as u32);
        // mcs-lint: allow(panic-policy) -- wl_entities only lists ET-hosted processes as process entities
        let ni = ctx.proc_et_node[pi].expect("worklist processes are ET-hosted") as usize;
        let offset = usize::from(ctx.et_nodes[ni].is_gateway);
        let idx = offset + self.s.node_pos[pi];

        // Availability of the triggering data: earliest (offset) and worst
        // case (jitter) over the predecessors. Recomputing the offset is
        // idempotent — it reads only fixed quantities.
        let (earliest, worst) = availability(ctx, self.t, app, schedule, p);
        let (s, t) = (&mut *self.s, &mut *self.t);
        t.po[pi] = earliest;
        t.pj[pi] = worst.saturating_sub(earliest);

        // Busy window against the rank prefix; own jitter/offset must be
        // staged before the kernel reads `tasks[idx]` as "me".
        let old = s.task_arrays[ni][idx];
        s.task_arrays[ni][idx].jitter = t.pj[pi];
        s.task_arrays[ni][idx].offset = t.po[pi];
        let delay = crate::rta::interference_delay_sorted(
            &s.task_arrays[ni],
            idx,
            self.horizon,
            t.pw[pi],
            passes,
        );
        let w = match delay {
            Some(w) => w,
            None => {
                t.diverged = true;
                self.horizon
            }
        };
        t.pw[pi] = w;
        t.pr[pi] = t.pj[pi].saturating_add(w).saturating_add(ctx.proc_wcet[pi]);
        let new = build_task_flow(ctx, s, t, pi);
        s.task_arrays[ni][idx] = new;
        (new != old).then_some(new.response != old.response || new.offset != old.offset)
    }

    /// Recomputes one CAN leg: enqueue offset/jitter from the sender's
    /// current state, queuing delay against the bus priority prefix.
    /// Returns as [`recompute_proc`](Holistic::recompute_proc) does.
    fn recompute_can(&mut self, mi: usize, passes: &mut u64) -> Option<bool> {
        let ctx = self.ctx;
        let r_transfer = self.system.gateway.transfer_response();
        let k = self.s.can_pos[mi];
        stage_leg(
            ctx,
            self.t,
            self.schedule,
            r_transfer,
            ctx.msg_src[mi] as usize,
            mi,
        );
        let (s, t) = (&mut *self.s, &mut *self.t);
        let old = s.can_flows[k];
        s.can_flows[k].jitter = t.can_j[mi];
        s.can_flows[k].offset = t.can_o[mi];
        let delay = mcs_can::queuing_delay_sorted(
            &s.can_flows,
            k,
            s.can_blocking[k],
            self.horizon,
            t.can_w[mi],
            passes,
        );
        let w = match delay {
            Some(w) => w,
            None => {
                t.diverged = true;
                self.horizon
            }
        };
        t.can_w[mi] = w;
        t.can_r[mi] = t.can_j[mi].saturating_add(w).saturating_add(ctx.can_c[mi]);
        if !matches!(ctx.route[mi], MessageRoute::EtcToTtc) {
            t.arrival[mi] = t.can_o[mi].saturating_add(t.can_r[mi]);
        }
        let new = build_can_flow(ctx, s, t, mi);
        s.can_flows[k] = new;
        (new != old).then_some(new.response != old.response || new.offset != old.offset)
    }

    /// Recomputes one `Out_TTP` FIFO leg: enqueue jitter from the CAN leg's
    /// current response, FIFO delay and backlog. Returns as
    /// [`recompute_proc`](Holistic::recompute_proc) does (a FIFO leg has no
    /// route successors in the engine: its arrival bounds a TT release —
    /// an input of the *outer* schedule↔analysis fixed point, re-derived by
    /// the trajectory replay).
    fn recompute_fifo(&mut self, mi: usize) -> Option<bool> {
        let ctx = self.ctx;
        let r_transfer = self.system.gateway.transfer_response();
        let k = ctx.fifo_pos[mi];
        let (s, t) = (&mut *self.s, &mut *self.t);
        // Worst FIFO entry: after the CAN leg response plus the transfer
        // process.
        t.ttp_j[mi] = t.can_r[mi]
            .saturating_sub(ctx.can_c[mi])
            .saturating_add(r_transfer);
        let old = s.fifo_flows[k];
        s.fifo_flows[k].jitter = t.ttp_j[mi];
        s.fifo_flows[k].offset = t.ttp_o[mi];
        // The closed form warm-starts from the previous iterate (monotone
        // operator); the occurrence bound is a stateless function of its
        // inputs (its blocking term is not monotone in the enqueue jitter).
        let delay = match self.fifo_bound {
            FifoBound::PaperClosedForm => fifo_delay_from(
                &s.fifo_flows,
                k,
                &self.ttp_queue,
                self.horizon,
                t.fifo_warm[k],
            ),
            FifoBound::SlotOccurrence => {
                fifo_delay_occurrence(&s.fifo_flows, k, &self.ttp_queue, self.horizon)
            }
        };
        let (w, backlog) = match delay {
            Some(d) => {
                t.fifo_warm[k] = d.delay;
                (d.delay.saturating_add(self.grid_slack), d.backlog)
            }
            None => {
                t.diverged = true;
                (self.horizon, s.fifo_flows[k].size_bytes.into())
            }
        };
        t.ttp_w[mi] = w;
        t.backlog[mi] = backlog;
        t.ttp_r[mi] = t.ttp_j[mi]
            .saturating_add(w)
            .saturating_add(self.ttp_queue.slot_duration);
        t.arrival[mi] = t.ttp_o[mi].saturating_add(t.ttp_r[mi]);
        let new = build_fifo_flow(ctx, s, t, mi);
        s.fifo_flows[k] = new;
        (new != old).then_some(new.response != old.response || new.offset != old.offset)
    }

    /// Stages the kernel input arrays from the current timing state: the
    /// sorted CAN flows, the FIFO flows, and — for each CPU hosting a dirty
    /// process — the rank-ordered task array. Every entry is at or below
    /// the least fixed point afterwards (clean entries *are* their LFP
    /// values, dirty entries carry reset bottom-side values), which is the
    /// invariant that keeps warm starts sound.
    fn stage_kernel_inputs(&mut self) {
        let ctx = self.ctx;
        let system = self.system;
        let n = self.s.can_order.len();
        self.s.can_flows.clear();
        for k in 0..n {
            let mi = self.s.can_order[k];
            let flow = self.can_flow(mi);
            self.s.can_flows.push(flow);
        }
        self.s.fifo_flows.clear();
        for &mi in &ctx.fifo_ids {
            let flow = self.fifo_flow(mi);
            self.s.fifo_flows.push(flow);
        }
        self.s.task_arrays.resize(ctx.et_nodes.len(), Vec::new());
        for (ni, et) in ctx.et_nodes.iter().enumerate() {
            if !self.s.dirty.nodes[ni] {
                continue;
            }
            self.s.task_arrays[ni].clear();
            if et.is_gateway {
                let task = transfer_task(system);
                self.s.task_arrays[ni].push(task);
            }
            for idx in 0..self.s.node_order[ni].len() {
                let pi = self.s.node_order[ni][idx].index();
                let task = self.task_flow(pi);
                self.s.task_arrays[ni].push(task);
            }
        }
    }

    /// Clears the timing to the initial fixed-point state (`r_i = C_i`,
    /// everything else zero), reusing the allocations.
    fn reset(&mut self) {
        let app = &self.system.application;
        let n_p = app.processes().len();
        let n_m = app.messages().len();
        let t = &mut *self.t;
        for v in [&mut t.po, &mut t.pj, &mut t.pw, &mut t.pr] {
            v.clear();
            v.resize(n_p, Time::ZERO);
        }
        for v in [
            &mut t.can_o,
            &mut t.can_j,
            &mut t.can_w,
            &mut t.can_r,
            &mut t.ttp_o,
            &mut t.ttp_j,
            &mut t.ttp_w,
            &mut t.ttp_r,
            &mut t.arrival,
        ] {
            v.clear();
            v.resize(n_m, Time::ZERO);
        }
        t.backlog.clear();
        t.backlog.resize(n_m, 0);
        t.fifo_warm.clear();
        t.fifo_warm.resize(self.ctx.fifo_ids.len(), Time::ZERO);
        t.diverged = false;
        t.pr.copy_from_slice(&self.ctx.proc_wcet);
    }

    /// One topological walk of `graph`, (re)resolving the offsets and the
    /// current-state jitters of its dirty entities. Clean entities provably
    /// kept every input, so their offsets and jitters stand.
    fn walk_graph(&mut self, graph: GraphId) {
        let system = self.system;
        let ctx = self.ctx;
        let app = &system.application;
        let schedule = self.schedule;
        let r_transfer = system.gateway.transfer_response();
        let (dirty, t) = (&self.s.dirty, &mut *self.t);
        for &p in app.topological_order(graph) {
            let pi = p.index();
            let touch_proc = dirty.procs[pi];
            if ctx.proc_is_tt[pi] {
                if touch_proc {
                    // Fixed by the schedule table for this whole run.
                    t.po[pi] = schedule
                        .start(p)
                        // mcs-lint: allow(panic-policy) -- a schedule is only adopted after the list scheduler placed every TT process
                        .expect("TT process placed by the list scheduler");
                    t.pj[pi] = Time::ZERO;
                    t.pw[pi] = Time::ZERO;
                    t.pr[pi] = ctx.proc_wcet[pi];
                }
            } else if touch_proc {
                let (earliest, worst) = availability(ctx, t, app, schedule, p);
                // Offsets derive from BCETs and the schedule only, so
                // recomputing them is idempotent across visits.
                t.po[pi] = earliest;
                t.pj[pi] = worst.saturating_sub(earliest);
            }
            // Outgoing message legs of p (checked per leg: a clean
            // process can still feed a leg dirtied through its bus
            // band or a moved frame).
            for e in app.successors(p) {
                let Some(m) = e.message else { continue };
                let mi = m.index();
                if dirty.can[mi] || dirty.frame[mi] {
                    stage_leg(ctx, t, schedule, r_transfer, pi, mi);
                }
            }
        }
    }

    fn can_flow(&self, mi: usize) -> CanFlow {
        build_can_flow(self.ctx, self.s, self.t, mi)
    }

    fn fifo_flow(&self, mi: usize) -> FifoFlow {
        build_fifo_flow(self.ctx, self.s, self.t, mi)
    }

    fn task_flow(&self, pi: usize) -> TaskFlow {
        build_task_flow(self.ctx, self.s, self.t, pi)
    }

    /// Buffer bounds for `Out_CAN`, `Out_TTP` and every `Out_Ni`, left in
    /// `Scratch::queues`.
    pub(crate) fn queue_bounds(&mut self) {
        let ctx = self.ctx;

        // Out_CAN holds TTC→ETC traffic queued by the gateway.
        let out_can = self.priority_queue_bound(&ctx.out_can_ids);
        self.s.queues.out_can = out_can;

        // Out_Ni holds the CAN traffic originated by each CAN-sending node.
        self.s.queues.out_node.clear();
        for (node, ids) in &ctx.out_node_ids {
            let bound = self.priority_queue_bound(ids);
            self.s.queues.out_node.insert(*node, bound);
        }

        // Out_TTP: the FIFO bound — the worst backlog over all FIFO flows.
        self.s.queues.out_ttp = ctx
            .fifo_ids
            .iter()
            .map(|&mi| self.t.backlog[mi])
            .max()
            .unwrap_or(0);
    }

    fn priority_queue_bound(&mut self, ids: &[usize]) -> u64 {
        self.s.bound_flows.clear();
        self.s.bound_delays.clear();
        for &mi in ids {
            let flow = self.can_flow(mi);
            self.s.bound_flows.push(flow);
            let delay = Some(self.t.can_w[mi]);
            self.s.bound_delays.push(delay);
        }
        mcs_can::queue_size_bound(&self.s.bound_flows, &self.s.bound_delays, self.horizon)
    }
}

/// Computes the worklist visiting order of the current priority assignment
/// into `Scratch::wl_order` (keys by rank) and `Scratch::wl_rank` (rank by
/// key): Kahn's algorithm over the graph of [`for_each_dependent`], each
/// priority band walked as its chain, with a FIFO queue seeded in static
/// key order. When the queue runs dry before every key is ordered (a
/// cycle), the smallest unordered static key is released, and
/// `Scratch::wl_acyclic` records that one was. `wl_order` doubles as the
/// queue — a key is ranked when it is queued — so after warm-up the sort
/// allocates nothing.
///
/// Requires the priority-sorted tables (`node_order`, `node_pos`,
/// `can_order`, `can_pos`) of the configuration being evaluated.
pub(crate) fn order_worklist(ctx: &SystemContext, s: &mut Scratch) {
    let n = ctx.wl_entities.len();
    let mut order = std::mem::take(&mut s.wl_order);
    let mut rank = std::mem::take(&mut s.wl_rank);
    let mut indegree = std::mem::take(&mut s.wl_indegree);
    indegree.clear();
    indegree.resize(n, 0);
    for key in 0..n {
        for_each_dependent(ctx, s, key, Band::Next, true, |d| indegree[d] += 1);
    }
    rank.clear();
    rank.resize(n, u32::MAX);
    order.clear();
    for key in 0..n {
        if indegree[key] == 0 {
            rank[key] = order.len() as u32;
            order.push(key as u32);
        }
    }
    let (mut head, mut release) = (0, 0);
    s.wl_acyclic = true;
    while order.len() < n {
        if head == order.len() {
            // Every unordered key waits on an unordered predecessor.
            s.wl_acyclic = false;
            while rank[release] != u32::MAX {
                release += 1;
            }
            rank[release] = order.len() as u32;
            order.push(release as u32);
        }
        let key = order[head] as usize;
        head += 1;
        for_each_dependent(ctx, s, key, Band::Next, true, |d| {
            indegree[d] -= 1;
            if indegree[d] == 0 && rank[d] == u32::MAX {
                rank[d] = order.len() as u32;
                order.push(d as u32);
            }
        });
    }
    s.wl_order = order;
    s.wl_rank = rank;
    s.wl_indegree = indegree;
}

/// How much of a priority band [`for_each_dependent`] yields.
#[derive(Clone, Copy)]
pub(crate) enum Band {
    /// Only the next lower priority on the resource: a chain whose
    /// transitive closure is the band, so a sort or a closure over it
    /// reaches what the whole band reaches.
    Next,
    /// Every lower priority on the resource.
    Whole,
}

/// The entity-dependency graph of the holistic fixed point, stated once:
/// calls `f` with the worklist key of every entity that reads a result of
/// entity `key` under the current priority assignment. Its walkers are
/// [`order_worklist`] (the visiting order),
/// [`close_dirty`](crate::delta::close_dirty) (the dirty cone of a move)
/// and the requeues of [`Holistic::solve`], so a new input of an entity is
/// an edge here and nowhere else.
///
/// * **Priority bands.** The lower-priority processes on an ET process's
///   CPU, and the lower-priority legs on a CAN leg's bus, hold it in their
///   interference prefix. A FIFO leg's band is the FIFO legs drained after
///   it: `Out_TTP` drains in CAN-priority order, and they count it among
///   the bytes queued ahead. `band` picks the whole band or its chain.
/// * **Route successors**, with `route`. A process's offset and response
///   feed the availability of its direct (message-free) ET successors and
///   the enqueue offset and jitter of the CAN legs it sources. A CAN leg's
///   feed the enqueue jitter of its FIFO leg (ETC→TTC) or the availability
///   of its ET destination. A FIFO leg has none here: its arrival bounds a
///   TT release, an input of the outer schedule↔analysis loop that the
///   trajectory replay re-derives.
///
/// Requires the priority-sorted tables (`node_order`, `node_pos`,
/// `can_order`, `can_pos`) of the configuration being evaluated.
pub(crate) fn for_each_dependent(
    ctx: &SystemContext,
    s: &Scratch,
    key: usize,
    band: Band,
    route: bool,
    mut f: impl FnMut(usize),
) {
    let band_len = match band {
        Band::Next => 1,
        Band::Whole => usize::MAX,
    };
    match ctx.wl_entities[key] {
        WlEntity::Proc(pi) => {
            let pi = pi as usize;
            if let Some(ni) = ctx.proc_et_node[pi] {
                let lower = &s.node_order[ni as usize][s.node_pos[pi] + 1..];
                for q in lower.iter().take(band_len) {
                    f(ctx.wl_key_proc[q.index()] as usize);
                }
            }
            if route {
                for &q in &ctx.proc_direct_succ[pi] {
                    f(ctx.wl_key_proc[q as usize] as usize);
                }
                for &mi in &ctx.proc_out_et_msgs[pi] {
                    f(ctx.wl_key_can[mi as usize] as usize);
                }
            }
        }
        WlEntity::Can(mi) => {
            let mi = mi as usize;
            for &mj in s.can_order[s.can_pos[mi] + 1..].iter().take(band_len) {
                f(ctx.wl_key_can[mj] as usize);
            }
            if route {
                match ctx.route[mi] {
                    MessageRoute::EtcToTtc => f(ctx.wl_key_fifo[mi] as usize),
                    MessageRoute::EtcToEtc | MessageRoute::TtcToEtc => {
                        let dest = ctx.msg_dest[mi] as usize;
                        if !ctx.proc_is_tt[dest] {
                            f(ctx.wl_key_proc[dest] as usize);
                        }
                    }
                    MessageRoute::TtcToTtc => {}
                }
            }
        }
        WlEntity::Fifo(mi) => {
            let later = s.can_order[s.can_pos[mi as usize] + 1..].iter();
            let drained_after =
                later.filter(|&&mj| matches!(ctx.route[mj], MessageRoute::EtcToTtc));
            for &mj in drained_after.take(band_len) {
                f(ctx.wl_key_fifo[mj] as usize);
            }
        }
    }
}

fn frame_arrival(schedule: &TtcSchedule, m: MessageId) -> Time {
    schedule.frame(m).map(|f| f.arrival).unwrap_or(Time::ZERO)
}

/// Availability of `p`'s triggering data from the current state: the
/// earliest instant it can exist (predecessor offset + BCET + minimal
/// transmission — `p`'s offset) and the worst-case instant (whose gap to
/// the offset is `p`'s jitter). The one formula behind the seeding walk
/// and the per-entity recomputation — both must read predecessors
/// identically or the engine's bit-identity contract breaks.
fn availability(
    ctx: &SystemContext,
    t: &Timing,
    app: &mcs_model::Application,
    schedule: &TtcSchedule,
    p: ProcessId,
) -> (Time, Time) {
    let mut earliest = Time::ZERO;
    let mut worst = Time::ZERO;
    for e in app.predecessors(p) {
        let (o, w) = match e.message {
            None => {
                let src = e.source.index();
                (
                    t.po[src].saturating_add(ctx.proc_bcet[src]),
                    t.po[src].saturating_add(t.pr[src]),
                )
            }
            Some(m) => {
                let mi = m.index();
                match ctx.route[mi] {
                    MessageRoute::TtcToTtc => {
                        let a = frame_arrival(schedule, m);
                        (a, a)
                    }
                    MessageRoute::EtcToEtc | MessageRoute::TtcToEtc => (
                        t.can_o[mi].saturating_add(ctx.can_c[mi]),
                        t.can_o[mi].saturating_add(t.can_r[mi]),
                    ),
                    MessageRoute::EtcToTtc => {
                        (t.ttp_o[mi], t.ttp_o[mi].saturating_add(t.ttp_r[mi]))
                    }
                }
            }
        };
        earliest = earliest.max(o);
        worst = worst.max(w);
    }
    (earliest, worst)
}

/// Stages the sender-derived inputs of message `mi`'s legs from the current
/// state of its source process `src_pi` (route-shaped): frame-derived
/// arrivals and offsets, CAN enqueue offset/jitter, FIFO entry offset and
/// enqueue jitter. Shared by the seeding walk and the CAN-leg
/// recomputation — the staged quantities must be derived identically on
/// both paths.
fn stage_leg(
    ctx: &SystemContext,
    t: &mut Timing,
    schedule: &TtcSchedule,
    r_transfer: Time,
    src_pi: usize,
    mi: usize,
) {
    let m = MessageId::new(mi as u32);
    let enqueue_jitter = t.pr[src_pi].saturating_sub(ctx.proc_bcet[src_pi]);
    match ctx.route[mi] {
        MessageRoute::TtcToTtc => {
            t.arrival[mi] = frame_arrival(schedule, m);
        }
        MessageRoute::TtcToEtc => {
            // MBI arrival is deterministic; the gateway transfer process
            // adds its response time as jitter (paper: J_m1 = r_T).
            t.can_o[mi] = frame_arrival(schedule, m);
            t.can_j[mi] = r_transfer;
        }
        MessageRoute::EtcToEtc => {
            t.can_o[mi] = t.po[src_pi].saturating_add(ctx.proc_bcet[src_pi]);
            t.can_j[mi] = enqueue_jitter;
        }
        MessageRoute::EtcToTtc => {
            let enqueue_earliest = t.po[src_pi].saturating_add(ctx.proc_bcet[src_pi]);
            t.can_o[mi] = enqueue_earliest;
            // Earliest FIFO entry: after the CAN wire time.
            t.ttp_o[mi] = enqueue_earliest.saturating_add(ctx.can_c[mi]);
            t.can_j[mi] = enqueue_jitter;
            // Worst FIFO entry: after the CAN leg response plus the
            // transfer process. (The FIFO recomputation re-derives this
            // from the post-kernel CAN response; staging it here from the
            // pre-kernel response is value-identical — the FIFO leg is
            // requeued whenever the CAN response changes.)
            t.ttp_j[mi] = t.can_r[mi]
                .saturating_sub(ctx.can_c[mi])
                .saturating_add(r_transfer);
        }
    }
}

// Flow constructors as free functions over (context, scratch, timing), so the
// recomputations can rebuild single entries while holding split borrows of
// the scratch; each kernel's input shape is assembled in exactly one place.

fn build_can_flow(ctx: &SystemContext, s: &Scratch, t: &Timing, mi: usize) -> CanFlow {
    CanFlow {
        // mcs-lint: allow(panic-policy) -- kernels run only after validate_config accepted the configuration
        priority: s.msg_priority[mi].expect("validated configuration assigns CAN priorities"),
        period: ctx.msg_period[mi],
        jitter: t.can_j[mi],
        offset: t.can_o[mi],
        transaction: Some(ctx.msg_phase[mi]),
        transmission: ctx.can_c[mi],
        size_bytes: ctx.msg_size[mi],
        response: t.can_r[mi],
    }
}

fn build_fifo_flow(ctx: &SystemContext, s: &Scratch, t: &Timing, mi: usize) -> FifoFlow {
    FifoFlow {
        rank: s.msg_priority[mi]
            .map(|p| u64::from(p.level()))
            // mcs-lint: allow(panic-policy) -- kernels run only after validate_config accepted the configuration
            .expect("validated configuration assigns CAN priorities"),
        period: ctx.msg_period[mi],
        jitter: t.ttp_j[mi],
        offset: t.ttp_o[mi],
        transaction: Some(ctx.msg_phase[mi]),
        size_bytes: ctx.msg_size[mi],
        response: t.ttp_r[mi],
    }
}

/// The gateway transfer process `T` as the highest-rank task of its CPU.
fn transfer_task(system: &System) -> TaskFlow {
    TaskFlow {
        rank: TRANSFER_RANK,
        period: system.gateway.transfer_period,
        jitter: Time::ZERO,
        offset: Time::ZERO,
        transaction: None,
        wcet: system.gateway.transfer_wcet,
        blocking: Time::ZERO,
        response: system.gateway.transfer_wcet,
    }
}

fn build_task_flow(ctx: &SystemContext, s: &Scratch, t: &Timing, pi: usize) -> TaskFlow {
    TaskFlow {
        // mcs-lint: allow(panic-policy) -- kernels run only after validate_config accepted the configuration
        rank: app_rank(s.proc_priority[pi].expect("validated configuration assigns ET priorities")),
        period: ctx.proc_period[pi],
        jitter: t.pj[pi],
        offset: t.po[pi],
        transaction: Some(ctx.proc_phase[pi]),
        wcet: ctx.proc_wcet[pi],
        blocking: ctx.proc_blocking[pi],
        response: t.pr[pi],
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::collections::{BTreeMap, HashMap};

    use mcs_gen::{generate, GeneratorParams};
    use mcs_model::{NodeId, PriorityAssignment, SystemConfig, TdmaConfig, TdmaSlot};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    use super::*;
    use crate::context::{EvalSummary, Evaluator};
    use crate::delta::DeltaSeeds;
    use crate::multicluster::{AnalysisError, AnalysisParams};

    /// A valid ψ built without the optimizer: one slot per TTP node, sized
    /// to the largest frame it sends, and unique by-id priorities per ET
    /// CPU and on the bus.
    pub(crate) fn plain_config(system: &System) -> SystemConfig {
        let app = &system.application;
        let arch = &system.architecture;
        let mut capacity: HashMap<NodeId, u32> = HashMap::new();
        for m in app.messages() {
            let route = system.route(m.id());
            if route.uses_ttp() {
                let node = if route == MessageRoute::EtcToTtc {
                    arch.gateway()
                } else {
                    app.process(m.source()).node()
                };
                let cap = capacity.entry(node).or_insert(1);
                *cap = (*cap).max(m.size_bytes());
            }
        }
        let slots = arch
            .ttp_nodes()
            .map(|n| TdmaSlot {
                node: n.id(),
                capacity_bytes: capacity.get(&n.id()).copied().unwrap_or(1),
            })
            .collect();
        let mut priorities = PriorityAssignment::new();
        let mut next_level: HashMap<NodeId, u32> = HashMap::new();
        for p in app.processes() {
            if arch.is_et_cpu(p.node()) {
                let level = next_level.entry(p.node()).or_insert(0);
                priorities.set_process(p.id(), Priority::new(*level));
                *level += 1;
            }
        }
        let can = app
            .messages()
            .iter()
            .filter(|m| system.route(m.id()).uses_can());
        for (level, m) in can.enumerate() {
            priorities.set_message(m.id(), Priority::new(level as u32));
        }
        SystemConfig::new(TdmaConfig::new(slots), priorities)
    }

    /// Swaps the priorities of two distinct entities sharing a resource (an
    /// ET CPU or the bus), picked by `rng`, recording both as delta seeds.
    fn swap_priorities(
        system: &System,
        config: &mut SystemConfig,
        seeds: &mut DeltaSeeds,
        rng: &mut StdRng,
    ) {
        let app = &system.application;
        let mut cpus: BTreeMap<NodeId, Vec<ProcessId>> = BTreeMap::new();
        for p in app.processes() {
            if system.architecture.is_et_cpu(p.node()) {
                cpus.entry(p.node()).or_default().push(p.id());
            }
        }
        let cpus: Vec<Vec<ProcessId>> = cpus.into_values().filter(|v| v.len() >= 2).collect();
        let bus: Vec<MessageId> = app
            .messages()
            .iter()
            .map(|m| m.id())
            .filter(|&m| system.route(m).uses_can())
            .collect();
        let two = |rng: &mut StdRng, n: usize| {
            let i = rng.gen_range(0..n);
            (i, (i + rng.gen_range(1..n)) % n)
        };
        let priorities = &mut config.priorities;
        match cpus.get(rng.gen_range(0..=cpus.len())) {
            Some(procs) => {
                let (i, j) = two(rng, procs.len());
                let (a, b) = (procs[i], procs[j]);
                let (pa, pb) = (priorities.process(a), priorities.process(b));
                priorities.set_process(a, pb.expect("ET priority"));
                priorities.set_process(b, pa.expect("ET priority"));
                seeds.push_process(a);
                seeds.push_process(b);
            }
            None => {
                let (i, j) = two(rng, bus.len());
                let (a, b) = (bus[i], bus[j]);
                let (pa, pb) = (priorities.message(a), priorities.message(b));
                priorities.set_message(a, pb.expect("bus priority"));
                priorities.set_message(b, pa.expect("bus priority"));
                seeds.push_message(a);
                seeds.push_message(b);
            }
        }
    }

    /// Everything an evaluation reports: its summary (with the convergence
    /// metadata) and every table of its outcome.
    type Results = (
        EvalSummary,
        TtcSchedule,
        HashMap<ProcessId, crate::EntityTiming>,
        HashMap<MessageId, crate::MessageTiming>,
        crate::QueueBounds,
        HashMap<GraphId, Time>,
    );
    type Evaluated = Result<Results, AnalysisError>;

    fn results(
        evaluator: &Evaluator<'_>,
        summary: Result<EvalSummary, AnalysisError>,
    ) -> Evaluated {
        let summary = summary?;
        let outcome = evaluator.outcome();
        Ok((
            summary,
            outcome.schedule,
            outcome.process_timing,
            outcome.message_timing,
            outcome.queues,
            outcome.graph_response,
        ))
    }

    /// Evaluates `base`, then `swapped` through the delta path, with the
    /// worklist order replaced by `order` (`None`: the dependency order the
    /// evaluator computes). Returns both results and the delta passes run.
    fn evaluate_both(
        system: &System,
        base: &SystemConfig,
        swapped: &SystemConfig,
        seeds: &DeltaSeeds,
        order: Option<&[u32]>,
    ) -> (Evaluated, Evaluated, u64) {
        let mut evaluator = Evaluator::new(system, AnalysisParams::default());
        let full = match order {
            Some(order) => evaluator.evaluate_in_order_for_test(base, None, order),
            None => evaluator.evaluate(base),
        };
        let full = results(&evaluator, full);
        let delta = match order {
            Some(order) => evaluator.evaluate_in_order_for_test(swapped, Some(seeds), order),
            None => evaluator.evaluate_delta(swapped, seeds),
        };
        let delta = results(&evaluator, delta);
        (full, delta, evaluator.profile().delta_passes)
    }

    /// A pass stopped by the wave budget sits below the least fixed point,
    /// so its bounds are optimistic: the evaluation must not report
    /// convergence. On this instance one wave leaves the final pass short
    /// of quiescence, while the default budget of 64 converges.
    #[test]
    fn a_pass_stopped_by_the_wave_budget_does_not_converge() {
        let mut params = GeneratorParams::paper_sized(2, 0);
        params.inter_cluster_messages = Some(10);
        let system = generate(&params);
        let mut config = plain_config(&system);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..30 {
            swap_priorities(&system, &mut config, &mut DeltaSeeds::new(), &mut rng);
        }
        let evaluate = |max_holistic_iterations| {
            let params = AnalysisParams {
                max_holistic_iterations,
                ..AnalysisParams::default()
            };
            let mut evaluator = Evaluator::new(&system, params);
            let summary = evaluator.evaluate(&config).expect("valid configuration");
            assert_eq!(summary.converged, evaluator.outcome().converged);
            assert_eq!(summary.converged, summary.degree.converged);
            summary
        };
        assert!(evaluate(64).converged);
        let cut = evaluate(1);
        assert!(
            !cut.converged,
            "a one-wave pass reported convergence: {cut:?}"
        );
    }

    /// Zero outer iterations act as one: the evaluation analyzes the first
    /// schedule instead of reading an empty schedule memo.
    #[test]
    fn zero_outer_iterations_act_as_one() {
        let system = generate(&GeneratorParams::paper_sized(2, 0));
        let config = plain_config(&system);
        let evaluate = |max_outer_iterations| {
            let params = AnalysisParams {
                max_outer_iterations,
                ..AnalysisParams::default()
            };
            let mut evaluator = Evaluator::new(&system, params);
            let summary = evaluator.evaluate(&config);
            results(&evaluator, summary)
        };
        let one = evaluate(1);
        assert!(one.is_ok(), "{one:?}");
        assert_eq!(evaluate(0), one);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The worklist's least fixed point does not depend on the order it
        /// visits entities in: the dependency order, the static key order
        /// and a random permutation give identical summaries and outcomes,
        /// on the full path and on the delta path after a priority swap —
        /// and the delta path matches a full evaluation of the swap.
        #[test]
        fn the_fixed_point_does_not_depend_on_the_visiting_order(
            half_nodes in 1usize..=2,
            multi_rate in any::<bool>(),
            seed in 0u64..1_000,
            shuffle in any::<u64>(),
        ) {
            let nodes = 2 * half_nodes;
            let params = if multi_rate {
                GeneratorParams::multi_rate(nodes, seed)
            } else {
                GeneratorParams::paper_sized(nodes, seed)
            };
            let system = generate(&params);
            let base = plain_config(&system);
            let mut rng = StdRng::seed_from_u64(shuffle);
            let mut swapped = base.clone();
            let mut seeds = DeltaSeeds::new();
            swap_priorities(&system, &mut swapped, &mut seeds, &mut rng);

            let mut fresh = Evaluator::new(&system, AnalysisParams::default());
            let n = fresh.worklist_len_for_test();
            let keys: Vec<u32> = (0..n as u32).collect();
            let mut shuffled = keys.clone();
            for i in (1..n).rev() {
                shuffled.swap(i, rng.gen_range(0..=i));
            }
            let full_swapped = fresh.evaluate(&swapped);
            if full_swapped.is_ok() {
                // The computed order is a permutation of the keys.
                let mut sorted = fresh.worklist_order_for_test().to_vec();
                sorted.sort_unstable();
                prop_assert_eq!(&sorted, &keys);
            }
            let full_swapped = results(&fresh, full_swapped);

            let reference = evaluate_both(&system, &base, &swapped, &seeds, None);
            prop_assert!(reference.2 > 0, "the swap never took the delta path");
            prop_assert_eq!(&reference.1, &full_swapped);
            for order in [&keys, &shuffled] {
                let other = evaluate_both(&system, &base, &swapped, &seeds, Some(order));
                prop_assert_eq!(&other.0, &reference.0);
                prop_assert_eq!(&other.1, &reference.1);
                prop_assert_eq!(other.2, reference.2);
            }
        }
    }
}
