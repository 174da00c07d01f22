//! The reusable analysis context: a [`SystemContext`] of system-invariant
//! tables built once per [`System`], a [`Scratch`] of configuration tables
//! and per-pass buffers, and one [`Timing`] of fixed-point state per outer
//! iteration — all cleared, not reallocated, between runs.
//!
//! Synthesis loops (simulated annealing, the OS/OR heuristics) evaluate
//! `MultiClusterScheduling` hundreds to thousands of times per instance,
//! varying only the configuration ψ. Rebuilding message routes, CAN frame
//! times, phase groups and every fixed-point vector on each evaluation
//! dominated the hot path; the [`Evaluator`] amortizes all of it:
//!
//! * **`SystemContext`** (immutable per system): message routes, CAN wire
//!   times `C_m`, per-graph phase groups, per-ET-CPU process partitions,
//!   gateway-crossing message index lists, per-graph sinks and the analysis
//!   horizon.
//! * **`Scratch`** (mutable, reused): the priority tables and worklist order
//!   of the configuration, the dirty cone and worklist of a pass, the flow
//!   buffers handed to the CAN/CPU/FIFO kernels, the release maps of the
//!   outer fixed point and the queue bounds of the last run.
//! * **`Timing`** (mutable, reused, one per outer iteration): the `O/J/w/r`
//!   vectors of processes and of both message legs, arrival times, FIFO
//!   backlogs and warm starts, and the divergence flag. Each schedule-memo
//!   slot ([`SchedCacheEntry`]) owns one, beside the [`TtcSchedule`] it
//!   analyzes.
//!
//! [`Evaluator::evaluate`] returns a cheap [`EvalSummary`] (δΓ, `s_total`);
//! the full [`AnalysisOutcome`] is materialized on demand by
//! [`Evaluator::outcome`], so inner search loops never pay for the result
//! maps they do not read.
//!
//! # Incremental (delta) evaluation
//!
//! A single design transformation perturbs only a small cone of the
//! holistic fixed point. [`Evaluator::evaluate_delta`] exploits that: the
//! optimizer reports the seed entities a move touched
//! ([`DeltaSeeds`]), [`crate::delta`] closes the seeds over the
//! entity-dependency graph the worklist engine requeues along
//! ([`crate::holistic::for_each_dependent`]: priority bands on each ET CPU,
//! the CAN bus and the `Out_TTP` FIFO, and route successors), and the outer
//! schedule↔analysis loop *replays the evaluation trajectory*:
//!
//! * every outer iteration's memo slot ([`SchedCacheEntry`]) holds the
//!   [`Timing`] its schedule converged to, analyzed in place and stamped
//!   with the evaluation that analyzed it;
//! * an iteration whose schedule inputs hit the memo extends that timing in
//!   place through restricted dirty-cone passes ([`Holistic::run_delta`]) —
//!   clean entities keep their converged values *as the least fixed
//!   point*, dirty entities restart from the bottom of the lattice;
//! * an iteration whose release bounds changed is re-scheduled, the new
//!   schedule is **diffed** against the slot's old one
//!   ([`TtcSchedule::diff_into`]) and the moved placements join the cone;
//! * everything else — structural (TDMA) changes, stale/diverged/unstable
//!   slots — falls back to the full fixed point of that iteration.
//!
//! # Chained outer iterations
//!
//! Two consecutive outer iterations of one call analyze the same
//! configuration under schedules that differ only in the placements the
//! new release bounds moved. So every evaluation, delta or not, seeds each
//! iteration's holistic pass one of three ways:
//!
//! * **full** — every entity from the bottom of the lattice (the first
//!   iteration of [`Evaluator::evaluate`], and every fallback);
//! * **delta** — the slot's timing as the previous evaluation left it,
//!   over the cone of the move's seeds and the schedule diff against the
//!   slot's old schedule (above);
//! * **chained** — a later iteration copies the timing its predecessor in
//!   the same call converged to, stable and undiverged, and re-derives the
//!   cone of the placements its schedule moved against the predecessor's.
//!   An iteration whose schedule equals its predecessor's is the empty
//!   cone: it inherits the timing without a pass.
//!
//! Chaining is taken whenever the visiting order is acyclic
//! (`Scratch::wl_acyclic`), and never otherwise. On an acyclic order a full
//! pass and a chained pass both converge in one wave, so no wave budget
//! tells them apart; on a cyclic order the delta or full seeding stays.
//!
//! Results are **bit-identical** to [`Evaluator::evaluate`] by
//! construction while no full pass stops at the wave budget
//! ([`AnalysisParams::max_holistic_iterations`]): a restricted pass can
//! converge where the full pass it replaces stops short, and the two then
//! return different bounds. `mcs-bench`'s `evaluation_paths` harness checks
//! bit-identity, and the batch path and a carried evaluator, against a
//! fresh evaluation and the frozen seed implementation at every step of its
//! seeded walks.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use mcs_model::{MessageId, MessageRoute, NodeId, ProcessId, System, SystemConfig, Time};
use mcs_ttp::{
    critical_path_priorities_into, list_schedule_dense_into, DenseSchedulerInput, TtcSchedule,
};

use rayon::prelude::*;

use crate::batch::{BatchRequest, BatchScratch};
use crate::delta::{close_dirty, DeltaSeeds, DirtySet};
use crate::holistic::{order_worklist, Holistic, Solve};
use crate::multicluster::{AnalysisError, AnalysisParams};
use crate::outcome::{AnalysisOutcome, EntityTiming, MessageTiming, QueueBounds};
use crate::queues::TtpQueueParams;
use crate::rta::TaskFlow;
use crate::schedulability::SchedulabilityDegree;
use crate::validate::validate_config;

/// One ET-scheduled CPU and the processes it hosts.
#[derive(Clone, Debug)]
pub(crate) struct EtNode {
    /// The gateway CPU additionally hosts the transfer process `T`.
    pub is_gateway: bool,
    /// Hosted processes in id order.
    pub procs: Vec<ProcessId>,
}

/// One entity of the worklist fixed-point engine (see [`crate::holistic`]):
/// everything the holistic analysis derives a changing value for. TT
/// processes and TTC→TTC messages are *not* entities — their timing is fixed
/// by the schedule table and staged once per run.
#[derive(Clone, Copy, Debug)]
pub(crate) enum WlEntity {
    /// An ET-hosted process, by process index.
    Proc(u32),
    /// The CAN leg of a message, by message index.
    Can(u32),
    /// The `Out_TTP` FIFO leg of an ETC→TTC message, by message index.
    Fifo(u32),
}

/// System-invariant tables shared by every evaluation of one [`System`].
#[derive(Clone, Debug)]
pub(crate) struct SystemContext {
    /// Route of each message, by message index.
    pub route: Vec<MessageRoute>,
    /// CAN wire time `C_m` of each message, by message index.
    pub can_c: Vec<Time>,
    /// Period of each message (its graph's period), by message index.
    pub msg_period: Vec<Time>,
    /// Payload size of each message in bytes, by message index.
    pub msg_size: Vec<u32>,
    /// Phase group of each message's graph, by message index.
    pub msg_phase: Vec<u32>,
    /// Period of each process (its graph's period), by process index.
    pub proc_period: Vec<Time>,
    /// WCET of each process, by process index.
    pub proc_wcet: Vec<Time>,
    /// BCET of each process, by process index.
    pub proc_bcet: Vec<Time>,
    /// Blocking bound of each process, by process index.
    pub proc_blocking: Vec<Time>,
    /// Phase group of each process's graph, by process index.
    pub proc_phase: Vec<u32>,
    /// Whether each process runs on a statically scheduled (TT) CPU.
    pub proc_is_tt: Vec<bool>,
    /// Processes with a local deadline, with the deadline.
    pub local_deadlines: Vec<(usize, Time)>,
    /// ET CPUs and their process partitions.
    pub et_nodes: Vec<EtNode>,
    /// Messages with a CAN leg, in id order.
    pub can_ids: Vec<usize>,
    /// ETC→TTC messages (through `Out_TTP`), in id order.
    pub fifo_ids: Vec<usize>,
    /// TTC→ETC messages (through `Out_CAN`), in id order.
    pub out_can_ids: Vec<usize>,
    /// Per CAN-attached node: the CAN messages originated there (`Out_Ni`).
    pub out_node_ids: Vec<(NodeId, Vec<usize>)>,
    /// Messages whose TTP frame is sent by an ET-scheduled (gateway) CPU —
    /// their frame release depends on the sender's response time.
    pub et_ttp_senders: Vec<usize>,
    /// Sink processes of each graph, by graph index.
    pub sinks: Vec<Vec<ProcessId>>,
    /// The divergence horizon: `horizon_factor × hyperperiod`.
    pub horizon: Time,
    // Static tables of the entity-dependency graph (see
    // [`crate::holistic::for_each_dependent`]) and the delta closure (see
    // [`crate::delta`]).
    /// Number of process graphs (phase groups are per graph).
    pub n_graphs: usize,
    /// Graph index of each process.
    pub proc_graph: Vec<u32>,
    /// Graph index of each message.
    pub msg_graph: Vec<u32>,
    /// Destination process index of each message.
    pub msg_dest: Vec<u32>,
    /// Index into [`SystemContext::et_nodes`] of each ET-hosted process.
    pub proc_et_node: Vec<Option<u32>>,
    /// Direct (message-free) ET successors of each ET process.
    pub proc_direct_succ: Vec<Vec<u32>>,
    /// Outgoing messages of each ET process whose legs the analysis derives
    /// from the sender's response (ETC→ETC and ETC→TTC routes).
    pub proc_out_et_msgs: Vec<Vec<u32>>,
    /// Source process index of each message.
    pub msg_src: Vec<u32>,
    /// Position of each ETC→TTC message in the FIFO flow array (by message
    /// index; `usize::MAX` for non-FIFO messages).
    pub fifo_pos: Vec<usize>,
    // Static tables of the worklist fixed-point engine (see
    // [`crate::holistic`]): the key space of every analyzed entity —
    // graphs in id order, processes in topological order within each graph,
    // each process followed by the message legs it sources. Key order is the
    // tie-break of the per-configuration visiting order (`Scratch::wl_order`),
    // not the visiting order itself.
    /// The engine's entities, indexed by worklist key.
    pub wl_entities: Vec<WlEntity>,
    /// Worklist key of each ET process (`u32::MAX` for TT processes).
    pub wl_key_proc: Vec<u32>,
    /// Worklist key of each CAN leg (`u32::MAX` without a CAN leg).
    pub wl_key_can: Vec<u32>,
    /// Worklist key of each FIFO leg (`u32::MAX` for non-FIFO messages).
    pub wl_key_fifo: Vec<u32>,
}

impl SystemContext {
    fn new(system: &System, params: &AnalysisParams) -> Self {
        let app = &system.application;
        let arch = &system.architecture;

        let route: Vec<MessageRoute> = app
            .messages()
            .iter()
            .map(|m| system.route(m.id()))
            .collect();
        let can_params = arch.can_params();
        let can_c: Vec<Time> = app
            .messages()
            .iter()
            .map(|m| mcs_can::message_time(m.size_bytes(), &can_params))
            .collect();
        let msg_period: Vec<Time> = app
            .messages()
            .iter()
            .map(|m| app.message_period(m.id()))
            .collect();
        let msg_size: Vec<u32> = app.messages().iter().map(|m| m.size_bytes()).collect();
        let proc_period: Vec<Time> = app
            .processes()
            .iter()
            .map(|p| app.process_period(p.id()))
            .collect();
        let proc_wcet: Vec<Time> = app.processes().iter().map(|p| p.wcet()).collect();
        let proc_bcet: Vec<Time> = app.processes().iter().map(|p| p.bcet()).collect();
        let proc_blocking: Vec<Time> = app.processes().iter().map(|p| p.blocking()).collect();
        let proc_is_tt: Vec<bool> = app
            .processes()
            .iter()
            .map(|p| arch.is_tt_cpu(p.node()))
            .collect();
        let local_deadlines: Vec<(usize, Time)> = app
            .processes()
            .iter()
            .filter_map(|p| p.local_deadline().map(|d| (p.id().index(), d)))
            .collect();

        let mut period_groups: HashMap<Time, u32> = HashMap::new();
        let phase_group: Vec<u32> = app
            .graphs()
            .iter()
            .map(|g| {
                let next = period_groups.len() as u32;
                *period_groups.entry(g.period()).or_insert(next)
            })
            .collect();
        let msg_phase: Vec<u32> = app
            .messages()
            .iter()
            .map(|m| phase_group[m.graph().index()])
            .collect();
        let proc_phase: Vec<u32> = app
            .processes()
            .iter()
            .map(|p| phase_group[p.graph().index()])
            .collect();

        let gateway = arch.gateway();
        let et_nodes: Vec<EtNode> = arch
            .nodes()
            .iter()
            .filter(|n| arch.is_et_cpu(n.id()))
            .map(|n| EtNode {
                is_gateway: n.id() == gateway,
                procs: app.processes_on(n.id()).map(|p| p.id()).collect(),
            })
            .filter(|n| !n.procs.is_empty())
            .collect();

        let can_ids: Vec<usize> = (0..route.len())
            .filter(|&mi| route[mi].uses_can())
            .collect();
        let fifo_ids: Vec<usize> = (0..route.len())
            .filter(|&mi| matches!(route[mi], MessageRoute::EtcToTtc))
            .collect();
        let out_can_ids: Vec<usize> = (0..route.len())
            .filter(|&mi| matches!(route[mi], MessageRoute::TtcToEtc))
            .collect();
        let out_node_ids: Vec<(NodeId, Vec<usize>)> = arch
            .can_nodes()
            .map(|node| {
                let ids: Vec<usize> = (0..route.len())
                    .filter(|&mi| {
                        route[mi].uses_can()
                            && !matches!(route[mi], MessageRoute::TtcToEtc)
                            && app.process(app.messages()[mi].source()).node() == node.id()
                    })
                    .collect();
                (node.id(), ids)
            })
            .filter(|(_, ids)| !ids.is_empty())
            .collect();
        let et_ttp_senders: Vec<usize> = (0..route.len())
            .filter(|&mi| {
                route[mi].uses_ttp()
                    && !matches!(route[mi], MessageRoute::EtcToTtc)
                    && arch.is_et_cpu(app.process(app.messages()[mi].source()).node())
            })
            .collect();

        let sinks: Vec<Vec<ProcessId>> = app.graphs().iter().map(|g| app.sinks(g.id())).collect();

        let horizon = app
            .hyperperiod()
            .saturating_mul(params.horizon_factor.max(1));

        // Static dependency tables for delta evaluation.
        let proc_graph: Vec<u32> = app
            .processes()
            .iter()
            .map(|p| p.graph().index() as u32)
            .collect();
        let msg_graph: Vec<u32> = app
            .messages()
            .iter()
            .map(|m| m.graph().index() as u32)
            .collect();
        let msg_dest: Vec<u32> = app
            .messages()
            .iter()
            .map(|m| m.dest().index() as u32)
            .collect();
        let mut proc_et_node: Vec<Option<u32>> = vec![None; proc_is_tt.len()];
        for (ni, et) in et_nodes.iter().enumerate() {
            for p in &et.procs {
                proc_et_node[p.index()] = Some(ni as u32);
            }
        }
        let mut proc_direct_succ: Vec<Vec<u32>> = vec![Vec::new(); proc_is_tt.len()];
        let mut proc_out_et_msgs: Vec<Vec<u32>> = vec![Vec::new(); proc_is_tt.len()];
        for p in app.processes() {
            let pi = p.id().index();
            for e in app.successors(p.id()) {
                match e.message {
                    None => {
                        // TT destinations are fixed by the schedule table
                        // and absorb no timing dirtiness.
                        if !proc_is_tt[e.dest.index()] {
                            proc_direct_succ[pi].push(e.dest.index() as u32);
                        }
                    }
                    Some(m) => {
                        let mi = m.index();
                        // Only ET-sent legs derive from the sender's
                        // response; TT-sent legs are frame-driven.
                        if matches!(route[mi], MessageRoute::EtcToEtc | MessageRoute::EtcToTtc) {
                            proc_out_et_msgs[pi].push(mi as u32);
                        }
                    }
                }
            }
        }
        let msg_src: Vec<u32> = app
            .messages()
            .iter()
            .map(|m| m.source().index() as u32)
            .collect();
        let mut fifo_pos = vec![usize::MAX; route.len()];
        for (k, &mi) in fifo_ids.iter().enumerate() {
            fifo_pos[mi] = k;
        }

        // Worklist keys: dataflow-first (topological within each graph,
        // legs right after their source), the static tie-break of the
        // visiting order.
        let mut wl_entities = Vec::new();
        let mut wl_key_proc = vec![u32::MAX; proc_is_tt.len()];
        let mut wl_key_can = vec![u32::MAX; route.len()];
        let mut wl_key_fifo = vec![u32::MAX; route.len()];
        for graph in app.graphs() {
            for &p in app.topological_order(graph.id()) {
                let pi = p.index();
                if !proc_is_tt[pi] {
                    wl_key_proc[pi] = wl_entities.len() as u32;
                    wl_entities.push(WlEntity::Proc(pi as u32));
                }
                for e in app.successors(p) {
                    let Some(m) = e.message else { continue };
                    let mi = m.index();
                    if route[mi].uses_can() {
                        wl_key_can[mi] = wl_entities.len() as u32;
                        wl_entities.push(WlEntity::Can(mi as u32));
                    }
                    if matches!(route[mi], MessageRoute::EtcToTtc) {
                        wl_key_fifo[mi] = wl_entities.len() as u32;
                        wl_entities.push(WlEntity::Fifo(mi as u32));
                    }
                }
            }
        }

        SystemContext {
            route,
            can_c,
            msg_period,
            msg_size,
            msg_phase,
            proc_period,
            proc_wcet,
            proc_bcet,
            proc_blocking,
            proc_phase,
            proc_is_tt,
            local_deadlines,
            et_nodes,
            can_ids,
            fifo_ids,
            out_can_ids,
            out_node_ids,
            et_ttp_senders,
            sinks,
            horizon,
            n_graphs: app.graphs().len(),
            proc_graph,
            msg_graph,
            msg_dest,
            proc_et_node,
            proc_direct_succ,
            proc_out_et_msgs,
            msg_src,
            fifo_pos,
            wl_entities,
            wl_key_proc,
            wl_key_can,
            wl_key_fifo,
        }
    }
}

/// Reusable per-configuration and per-pass state: cleared, never
/// reallocated, between runs. The fixed-point vectors themselves live in
/// the [`Timing`] of each outer iteration's memo slot.
#[derive(Clone, Debug, Default)]
pub(crate) struct Scratch {
    // Config-derived tables, refilled per evaluation.
    pub msg_priority: Vec<Option<mcs_model::Priority>>,
    pub proc_priority: Vec<Option<mcs_model::Priority>>,
    /// CAN-leg message indices sorted by bus priority (most urgent first),
    /// so the RTA's higher-priority sets are array prefixes.
    pub can_order: Vec<usize>,
    /// Position of each CAN-leg message in `can_order` (by message index;
    /// `usize::MAX` for messages without a CAN leg).
    pub can_pos: Vec<usize>,
    /// Suffix-max blocking bound per sorted CAN position: the longest
    /// lower-priority transmission.
    pub can_blocking: Vec<Time>,
    /// Per ET CPU: its processes sorted by priority (most urgent first).
    pub node_order: Vec<Vec<ProcessId>>,
    /// Position of each ET process in its CPU's `node_order` (by process
    /// index; `usize::MAX` for TT processes).
    pub node_pos: Vec<usize>,
    // Delta-evaluation state (see [`crate::delta`]).
    /// The dirty cone of the current pass: the seeds closed over the graph
    /// of [`crate::holistic::for_each_dependent`], so every dependent of a
    /// dirty entity is dirty (every entity on the full path — the full and
    /// delta runs are two seedings of one engine).
    pub dirty: DirtySet,
    // Worklist engine state (see [`crate::holistic`]): per-key pending
    // flags and key lists of the current and the next wave.
    pub wl_pending: Vec<bool>,
    pub wl_next_pending: Vec<bool>,
    pub wl_current: Vec<u32>,
    pub wl_next: Vec<u32>,
    // The worklist visiting order of the current priority assignment (see
    // [`crate::holistic::order_worklist`]), rebuilt with `node_order` and
    // `can_order`.
    /// Worklist keys in visiting order (keys by rank).
    pub wl_order: Vec<u32>,
    /// Visiting rank of each worklist key (rank by key).
    pub wl_rank: Vec<u32>,
    /// Per-key count of unranked predecessors while the order is sorted.
    pub wl_indegree: Vec<u32>,
    /// Whether the visiting order is a topological order of the whole
    /// dependency graph: [`order_worklist`] released no key to break a
    /// cycle. A full pass then converges in one wave, and so does a
    /// restricted pass over any closed cone — which lets an outer iteration
    /// chain onto its predecessor (see the module docs).
    pub wl_acyclic: bool,
    // The live kernel input arrays, maintained incrementally by the
    // worklist engine: an entity's entry is refreshed by its own
    // recomputation, so a kernel always reads its peers' latest values.
    pub can_flows: Vec<mcs_can::CanFlow>,
    pub fifo_flows: Vec<crate::queues::FifoFlow>,
    /// Per ET CPU: the rank-ordered task array (transfer process first on
    /// the gateway).
    pub task_arrays: Vec<Vec<TaskFlow>>,
    pub bound_flows: Vec<mcs_can::CanFlow>,
    pub bound_delays: Vec<Option<Time>>,
    // Outer fixed point: release lower bounds of the static scheduler,
    // dense by entity index (`None` = no bound). Dense tables compare in
    // O(n) without hashing — the settle test and the schedule memo hit test
    // are plain slice comparisons.
    pub proc_release: Vec<Option<Time>>,
    pub msg_release: Vec<Option<Time>>,
    pub next_proc_release: Vec<Option<Time>>,
    pub next_msg_release: Vec<Option<Time>>,
    // Results of the last run.
    pub queues: QueueBounds,
    pub graph_response: Vec<Time>,
}

impl Scratch {
    /// Allocation-reusing assignment of everything an evaluation reads
    /// before writing it, into `self`'s existing buffers. Batch lanes use
    /// this (with [`SchedCacheEntry::sync_from`] for the per-iteration
    /// timing) to mirror the primary evaluator's converged state before
    /// re-climbing their candidate's divergent tail. The visiting order and
    /// whether it is acyclic are copied with the other priority tables: a
    /// lane that skips the table rebuild (its configuration is the mirrored
    /// one) reads them. Per-pass state is skipped, because each pass resets
    /// it before reading: the dirty set (`close_dirty`/`mark_all`), the
    /// worklist (`solve`), the order's in-degree buffer (`order_worklist`),
    /// the kernel input arrays (`stage_kernel_inputs`, for every resource
    /// the pass visits) and the queue-bound buffers (`priority_queue_bound`).
    pub(crate) fn sync_from(&mut self, src: &Scratch) {
        self.msg_priority.clone_from(&src.msg_priority);
        self.proc_priority.clone_from(&src.proc_priority);
        self.can_order.clone_from(&src.can_order);
        self.can_pos.clone_from(&src.can_pos);
        self.can_blocking.clone_from(&src.can_blocking);
        self.node_order.clone_from(&src.node_order);
        self.node_pos.clone_from(&src.node_pos);
        self.wl_order.clone_from(&src.wl_order);
        self.wl_rank.clone_from(&src.wl_rank);
        self.wl_acyclic = src.wl_acyclic;
        self.proc_release.clone_from(&src.proc_release);
        self.msg_release.clone_from(&src.msg_release);
        self.next_proc_release.clone_from(&src.next_proc_release);
        self.next_msg_release.clone_from(&src.next_msg_release);
        self.queues.out_can = src.queues.out_can;
        self.queues.out_ttp = src.queues.out_ttp;
        self.queues.out_node.clone_from(&src.queues.out_node);
        self.graph_response.clone_from(&src.graph_response);
    }
}

/// The timing state of one holistic analysis: what the worklist engine
/// derives for one outer iteration's schedule. Each memo slot owns one
/// ([`SchedCacheEntry`]) and [`Holistic`] analyzes it in place, so the
/// state the delta path extends is the state the last evaluation left.
#[derive(Debug, Default)]
pub(crate) struct Timing {
    // Process state, by process index.
    pub po: Vec<Time>,
    pub pj: Vec<Time>,
    pub pw: Vec<Time>,
    pub pr: Vec<Time>,
    // Message state, per leg, by message index.
    pub can_o: Vec<Time>,
    pub can_j: Vec<Time>,
    pub can_w: Vec<Time>,
    pub can_r: Vec<Time>,
    pub ttp_o: Vec<Time>,
    pub ttp_j: Vec<Time>,
    pub ttp_w: Vec<Time>,
    pub ttp_r: Vec<Time>,
    pub arrival: Vec<Time>,
    pub backlog: Vec<u64>,
    /// Warm-start hints for the closed-form FIFO bound (raw delays, before
    /// the grid-slack pessimism), indexed like `Scratch::fifo_flows`.
    pub fifo_warm: Vec<Time>,
    /// Whether any kernel diverged (clamped at the horizon).
    pub diverged: bool,
}

impl Timing {
    /// Allocation-reusing assignment (see [`Scratch::sync_from`]).
    fn sync_from(&mut self, src: &Timing) {
        self.po.clone_from(&src.po);
        self.pj.clone_from(&src.pj);
        self.pw.clone_from(&src.pw);
        self.pr.clone_from(&src.pr);
        self.can_o.clone_from(&src.can_o);
        self.can_j.clone_from(&src.can_j);
        self.can_w.clone_from(&src.can_w);
        self.can_r.clone_from(&src.can_r);
        self.ttp_o.clone_from(&src.ttp_o);
        self.ttp_j.clone_from(&src.ttp_j);
        self.ttp_w.clone_from(&src.ttp_w);
        self.ttp_r.clone_from(&src.ttp_r);
        self.arrival.clone_from(&src.arrival);
        self.backlog.clone_from(&src.backlog);
        self.fifo_warm.clone_from(&src.fifo_warm);
        self.diverged = src.diverged;
    }
}

/// The cheap result of one [`Evaluator::evaluate`] call: the two cost
/// functions of the paper plus convergence metadata. The full
/// [`AnalysisOutcome`] is materialized separately by [`Evaluator::outcome`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvalSummary {
    /// The degree of schedulability δΓ.
    pub degree: SchedulabilityDegree,
    /// The total buffer need `s_total` in bytes.
    pub total_buffers: u64,
    /// Whether every fixed point converged and the outer iteration settled.
    pub converged: bool,
    /// Outer (schedule ↔ RTA) iterations performed.
    pub iterations: u32,
}

/// Deterministic work counters of an [`Evaluator`], accumulated since its
/// construction (a batch folds in its lanes' counts; see
/// [`Evaluator::evaluate_batch`]). They count the same work on every host
/// and thread count, so tests can pin them.
///
/// Each outer iteration's holistic pass is seeded one of three ways: in
/// full, as a *delta* pass extending the timing the previous evaluation
/// left in the iteration's memo slot, or as a *chained* pass extending the
/// timing the previous outer iteration of the same call converged to. Over
/// one successful call:
///
/// * `schedule_hits + schedule_diffs + schedule_rebuilds` equals the outer
///   iterations ([`EvalSummary::iterations`]): each iteration hits the
///   schedule memo, or rebuilds its schedule with or without a diff;
/// * `delta_passes + chained_passes + full_passes` lies in
///   `1..=iterations`: the first iteration always runs a holistic pass, and
///   an iteration whose schedule equals the previous one's inherits its
///   timing without one;
/// * `chained_passes` is at most `iterations − 1`: the first iteration has
///   no predecessor to chain onto;
/// * [`evaluate`](Evaluator::evaluate) takes no delta pass and no diff.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalProfile {
    /// Holistic passes served by the restricted dirty-cone analysis,
    /// extending the previous evaluation's timing of the same outer
    /// iteration.
    pub delta_passes: u64,
    /// Holistic passes served by the restricted analysis of the placements
    /// an outer iteration's schedule moved against its predecessor's,
    /// extending the timing that predecessor converged to in the same call.
    pub chained_passes: u64,
    /// Holistic passes served by a full re-analysis.
    pub full_passes: u64,
    /// Worklist waves over every holistic pass, including delta and chained
    /// passes that exhausted their budget and fell back.
    pub waves: u64,
    /// Entity recomputations (ET process, CAN leg and FIFO leg visits) over
    /// the same passes.
    pub recomputations: u64,
    /// Passes of the CPU busy-window kernel over its higher-priority prefix,
    /// over the same recomputations.
    pub cpu_kernel_passes: u64,
    /// Passes of the CAN queuing-delay kernel over its higher-priority
    /// prefix, over the same recomputations.
    pub can_kernel_passes: u64,
    /// Outer iterations whose TTC schedule inputs hit the schedule memo.
    pub schedule_hits: u64,
    /// Outer iterations that rebuilt the schedule and diffed it against the
    /// memoized one, feeding the moved placements into the delta cone.
    pub schedule_diffs: u64,
    /// Outer iterations that rebuilt the schedule without a diff.
    pub schedule_rebuilds: u64,
}

impl EvalProfile {
    fn count(&mut self, solve: Solve) {
        self.waves += solve.waves;
        self.recomputations += solve.recomputations;
        self.cpu_kernel_passes += solve.cpu_passes;
        self.can_kernel_passes += solve.can_passes;
    }
}

impl std::ops::AddAssign for EvalProfile {
    fn add_assign(&mut self, other: EvalProfile) {
        self.delta_passes += other.delta_passes;
        self.chained_passes += other.chained_passes;
        self.full_passes += other.full_passes;
        self.waves += other.waves;
        self.recomputations += other.recomputations;
        self.cpu_kernel_passes += other.cpu_kernel_passes;
        self.can_kernel_passes += other.can_kernel_passes;
        self.schedule_hits += other.schedule_hits;
        self.schedule_diffs += other.schedule_diffs;
        self.schedule_rebuilds += other.schedule_rebuilds;
    }
}

impl EvalSummary {
    /// `true` iff the configuration is schedulable.
    pub fn is_schedulable(&self) -> bool {
        self.degree.is_schedulable()
    }

    /// The δΓ scalar minimized by schedule optimization.
    pub fn schedule_cost(&self) -> i128 {
        self.degree.cost()
    }
}

/// A re-entrant `MultiClusterScheduling` engine bound to one [`System`].
///
/// Build it once, then call [`evaluate`](Evaluator::evaluate) for every
/// configuration ψ a search visits: all system-invariant tables and all
/// fixed-point vectors are reused across calls, making the per-evaluation
/// cost allocation-free outside the static scheduler's hash maps.
///
/// # Examples
///
/// ```
/// use mcs_core::{AnalysisParams, Evaluator};
/// use mcs_model::{
///     Application, Architecture, NodeRole, Priority, PriorityAssignment,
///     System, SystemConfig, TdmaConfig, TdmaSlot, Time,
/// };
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut arch = Architecture::builder();
/// let n1 = arch.add_node("N1", NodeRole::TimeTriggered);
/// let n2 = arch.add_node("N2", NodeRole::EventTriggered);
/// let ng = arch.add_node("NG", NodeRole::Gateway);
/// let arch = arch.build()?;
/// let mut app = Application::builder();
/// let g = app.add_graph("G1", Time::from_millis(240), Time::from_millis(200));
/// let p1 = app.add_process(g, "P1", n1, Time::from_millis(30));
/// let p2 = app.add_process(g, "P2", n2, Time::from_millis(20));
/// app.link(p1, p2, 8);
/// let system = System::new(app.build(&arch)?, arch);
///
/// let tdma = TdmaConfig::new(vec![
///     TdmaSlot { node: ng, capacity_bytes: 8 },
///     TdmaSlot { node: n1, capacity_bytes: 8 },
/// ]);
/// let mut priorities = PriorityAssignment::new();
/// priorities.set_process(p2, Priority::new(1));
/// priorities.set_message(mcs_model::MessageId::new(0), Priority::new(1));
/// let config = SystemConfig::new(tdma, priorities);
///
/// let mut evaluator = Evaluator::new(&system, AnalysisParams::default());
/// let summary = evaluator.evaluate(&config)?;   // cheap: no result maps
/// assert!(summary.is_schedulable());
/// let outcome = evaluator.outcome();            // full tables on demand
/// assert!(outcome.converged);
/// # Ok(())
/// # }
/// ```
pub struct Evaluator<'s> {
    system: &'s System,
    params: AnalysisParams,
    ctx: SystemContext,
    /// Memoized static schedules, one slot per outer iteration. The
    /// schedule is a pure function of (system, TDMA configuration, release
    /// bounds), so re-evaluations that reproduce the same scheduler inputs
    /// — every repeat evaluation, and in local search every move that
    /// leaves β and the analysis-derived releases unchanged — skip the
    /// scheduling pass entirely.
    sched_cache: Vec<SchedCacheEntry>,
    /// Critical-path list priorities (dense); they depend on the TDMA
    /// configuration only through the round duration, so they are memoized
    /// on it.
    sched_priorities: Vec<Time>,
    sched_round: Option<Time>,
    /// The configuration whose tables the scratch holds: the last one that
    /// passed validation (validation and the tables are pure functions of
    /// system + configuration, so an unchanged configuration skips both).
    /// While [`has_run`](Evaluator::has_run) holds it is also the delta
    /// base, the configuration of the last completed evaluation: a
    /// configuration `validate_config` rejects leaves it in place.
    last_validated: Option<SystemConfig>,
    scratch: Scratch,
    /// Whether the last evaluation that reached the analysis completed
    /// (gates `outcome`, the timing accessors and the delta path). Only a
    /// failure inside the analysis clears it.
    has_run: bool,
    last_converged: bool,
    last_iterations: u32,
    /// Cache slot holding the schedule and timing of the last evaluation.
    last_sched_slot: usize,
    /// Monotone id of evaluation attempts, stamped into the memo slots each
    /// one analyzes; while `has_run` holds, the delta base's.
    run_counter: u64,
    /// Staging buffer for schedule rebuilds on the delta path, so the old
    /// schedule stays diffable until the rebuild lands.
    sched_tmp: TtcSchedule,
    /// Schedule-diff output of the current outer iteration: processes whose
    /// start / messages whose frame placement moved in the rebuild.
    diff_procs: Vec<ProcessId>,
    diff_msgs: Vec<MessageId>,
    /// Work counters since construction.
    profile: EvalProfile,
}

impl<'s> std::fmt::Debug for Evaluator<'s> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Evaluator").finish_non_exhaustive()
    }
}

/// One outer iteration's memo slot: the scheduling inputs, the resulting
/// schedule (reused in place on recompute) and the [`Timing`] of its
/// holistic analysis, analyzed in place — the baseline the delta path
/// extends at this outer iteration.
#[derive(Default)]
struct SchedCacheEntry {
    valid: bool,
    tdma: mcs_model::TdmaConfig,
    proc_release: Vec<Option<Time>>,
    msg_release: Vec<Option<Time>>,
    schedule: TtcSchedule,
    /// The `run_counter` value of the evaluation that last analyzed this
    /// slot (0 = never, or invalidated by a schedule rebuild).
    run: u64,
    /// Whether that analysis reached stability (vs the wave budget) — only
    /// a stable state is a least fixed point a delta run may extend.
    stable: bool,
    timing: Timing,
}

impl SchedCacheEntry {
    /// Allocation-reusing assignment (see [`Scratch::sync_from`]).
    fn sync_from(&mut self, src: &SchedCacheEntry) {
        self.valid = src.valid;
        self.tdma.clone_from(&src.tdma);
        self.proc_release.clone_from(&src.proc_release);
        self.msg_release.clone_from(&src.msg_release);
        self.schedule.clone_from(&src.schedule);
        self.run = src.run;
        self.stable = src.stable;
        self.timing.sync_from(&src.timing);
    }

    /// Whether the delta path may extend this slot: evaluation `base_run`
    /// analyzed it to a stable, converged state.
    fn extends(&self, base_run: u64) -> bool {
        self.valid && self.run == base_run && self.stable && !self.timing.diverged
    }
}

impl<'s> Evaluator<'s> {
    /// Builds the reusable context for `system`.
    pub fn new(system: &'s System, params: AnalysisParams) -> Self {
        let ctx = SystemContext::new(system, &params);
        Evaluator {
            system,
            params,
            ctx,
            sched_cache: Vec::new(),
            sched_priorities: Vec::new(),
            sched_round: None,
            last_validated: None,
            scratch: Scratch::default(),
            has_run: false,
            last_converged: false,
            last_iterations: 0,
            last_sched_slot: 0,
            run_counter: 0,
            sched_tmp: TtcSchedule::new(),
            diff_procs: Vec::new(),
            diff_msgs: Vec::new(),
            profile: EvalProfile::default(),
        }
    }

    /// The analyzed system.
    pub fn system(&self) -> &'s System {
        self.system
    }

    /// The analysis parameters this evaluator was built with.
    pub fn params(&self) -> &AnalysisParams {
        &self.params
    }

    /// `true` once an evaluation has completed successfully — the timing
    /// accessors and [`outcome`](Evaluator::outcome) are only meaningful
    /// (and only non-panicking) while this holds. Only a failure inside the
    /// analysis (the TTC traffic cannot be scheduled) resets it: a
    /// configuration [`validate_config`] rejects never reaches the
    /// analysis, so after such an `Err` this still holds, and the accessors
    /// and the delta base are those of the previous evaluation.
    pub fn has_run(&self) -> bool {
        self.has_run
    }

    /// Runs `MultiClusterScheduling(Γ, β, π)` for one configuration,
    /// reusing every buffer of previous runs, and returns the summary costs.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError`] if ψ is invalid or the TTC traffic cannot
    /// be scheduled; an unschedulable but well-formed configuration is not
    /// an error (its summary has a positive δΓ cost).
    pub fn evaluate(&mut self, config: &SystemConfig) -> Result<EvalSummary, AnalysisError> {
        self.prepare_config(config)?;
        self.evaluate_inner(config, None)
    }

    /// The shared outer schedule↔analysis loop. Every outer iteration
    /// analyzes the [`Timing`] of its memo slot in place. With
    /// `delta_seeds`, an iteration whose slot the previous evaluation (the
    /// delta base) analyzed extends that timing through the restricted
    /// dirty-cone passes instead of re-running the full holistic fixed
    /// point: a schedule memo hit extends it directly, a rebuild diffs the
    /// new schedule against the slot's old one and feeds the moved
    /// placements into the cone. On an acyclic visiting order, every later
    /// iteration instead chains onto its predecessor in this call (see the
    /// module docs). Iterations whose slot is unusable (stale, diverged,
    /// unstable) or whose restricted passes exhaust their budget take the
    /// full path of that iteration — so the trajectory, and with it every
    /// result, is bit-identical either way while no full pass stops at the
    /// wave budget.
    fn evaluate_inner(
        &mut self,
        config: &SystemConfig,
        delta_seeds: Option<&DeltaSeeds>,
    ) -> Result<EvalSummary, AnalysisError> {
        // Seeds come only while the previous evaluation completed
        // (`delta_applicable`), so its run number marks the base's slots.
        let base_run = self.run_counter;
        self.has_run = false;
        self.run_counter += 1;
        let run = self.run_counter;
        let system = self.system;
        let (ttp_queue, grid_slack) = self.ttp_queue(config);
        if self.sched_round != Some(ttp_queue.round) {
            critical_path_priorities_into(system, &config.tdma, &mut self.sched_priorities);
            self.sched_round = Some(ttp_queue.round);
        }

        seed_pins(
            system,
            config,
            &mut self.scratch.proc_release,
            &mut self.scratch.msg_release,
        );

        let mut iterations = 0;
        let mut settled = false;
        let mut holistic_stable = false;
        // At least one outer iteration, so the memo holds the analyzed slot.
        while iterations < self.params.max_outer_iterations.max(1) {
            let slot = iterations as usize;
            iterations += 1;
            if self.sched_cache.len() <= slot {
                self.sched_cache.push(SchedCacheEntry::default());
            }
            // Chain onto the previous outer iteration of this call (see the
            // module docs) when it converged stable and undiverged and the
            // visiting order is acyclic.
            let chain =
                slot > 0 && self.scratch.wl_acyclic && self.sched_cache[slot - 1].extends(run);
            let hit = {
                let entry = &self.sched_cache[slot];
                entry.valid
                    && entry.tdma == config.tdma
                    && entry.proc_release == self.scratch.proc_release
                    && entry.msg_release == self.scratch.msg_release
            };
            self.diff_procs.clear();
            self.diff_msgs.clear();
            if hit {
                self.profile.schedule_hits += 1;
            } else {
                // Can the rebuilt schedule still extend this slot's timing?
                // Only if the delta base left it stable and converged, and
                // the iteration does not chain — then the rebuild is staged
                // and diffed, and the moved placements join the dirty cone.
                let diffable =
                    !chain && delta_seeds.is_some() && self.sched_cache[slot].extends(base_run);
                let entry = &mut self.sched_cache[slot];
                entry.valid = false;
                let input = DenseSchedulerInput {
                    system,
                    tdma: &config.tdma,
                    process_releases: &self.scratch.proc_release,
                    message_releases: &self.scratch.msg_release,
                };
                if diffable {
                    self.profile.schedule_diffs += 1;
                    list_schedule_dense_into(&input, &self.sched_priorities, &mut self.sched_tmp)?;
                    self.sched_tmp.diff_into(
                        &entry.schedule,
                        &mut self.diff_procs,
                        &mut self.diff_msgs,
                    );
                    std::mem::swap(&mut entry.schedule, &mut self.sched_tmp);
                    // The slot stays stamped: the diff seeds cover
                    // everything the rebuild moved.
                } else {
                    self.profile.schedule_rebuilds += 1;
                    entry.run = 0;
                    list_schedule_dense_into(&input, &self.sched_priorities, &mut entry.schedule)?;
                }
                entry.tdma.clone_from(&config.tdma);
                entry.proc_release.clone_from(&self.scratch.proc_release);
                entry.msg_release.clone_from(&self.scratch.msg_release);
                entry.valid = true;
            }
            self.last_sched_slot = slot;
            // The holistic analysis is a pure function of (schedule,
            // configuration): when changed releases produced a schedule
            // identical to the one analyzed in the previous outer iteration
            // of this call, this slot inherits that iteration's timing (a
            // chained pass would have an empty cone).
            if slot > 0 && self.sched_cache[slot - 1].schedule == self.sched_cache[slot].schedule {
                let (done, rest) = self.sched_cache.split_at_mut(slot);
                rest[0].timing.sync_from(&done[slot - 1].timing);
            } else {
                // Restricted-pass baseline: the predecessor's timing when
                // chaining, with the placements this schedule moved against
                // the predecessor's as the only seeds; otherwise the slot as
                // the delta base left it, converged and stable. Either is
                // exactly the state the dirty cone is a diff against.
                let no_seeds = DeltaSeeds::new();
                let baseline = if chain {
                    let (done, rest) = self.sched_cache.split_at_mut(slot);
                    let (prev, entry) = (&done[slot - 1], &mut rest[0]);
                    entry.timing.sync_from(&prev.timing);
                    entry.schedule.diff_into(
                        &prev.schedule,
                        &mut self.diff_procs,
                        &mut self.diff_msgs,
                    );
                    Some(&no_seeds)
                } else {
                    delta_seeds.filter(|_| self.sched_cache[slot].extends(base_run))
                };
                let mut ran_delta = false;
                if let Some(seeds) = baseline {
                    close_dirty(
                        &self.ctx,
                        &mut self.scratch,
                        seeds,
                        &self.diff_procs,
                        &self.diff_msgs,
                    );
                    // An exhausted pass budget leaves the slot mid-climb:
                    // the full pass below resets and re-derives it exactly.
                    let solve = self.holistic(ttp_queue, grid_slack).run_delta();
                    self.profile.count(solve);
                    ran_delta = solve.quiescent;
                }
                if ran_delta {
                    holistic_stable = true;
                    if chain {
                        self.profile.chained_passes += 1;
                    } else {
                        self.profile.delta_passes += 1;
                    }
                } else {
                    self.profile.full_passes += 1;
                    let solve = self.holistic(ttp_queue, grid_slack).run();
                    self.profile.count(solve);
                    holistic_stable = solve.quiescent;
                }
            }
            // Every evaluation stamps the slots it analyzed, so the first
            // delta call after any evaluation (say, a search's full start
            // evaluation) can extend them.
            let entry = &mut self.sched_cache[slot];
            entry.run = run;
            entry.stable = holistic_stable;
            // Re-derive the release lower bounds from the analysis.
            self.derive_releases(config);
            let s = &mut self.scratch;
            let done = s.next_proc_release == s.proc_release && s.next_msg_release == s.msg_release;
            std::mem::swap(&mut s.proc_release, &mut s.next_proc_release);
            std::mem::swap(&mut s.msg_release, &mut s.next_msg_release);
            if done {
                settled = true;
                break;
            }
        }

        // Queue bounds are needed only for the final analysis state.
        self.holistic(ttp_queue, grid_slack).queue_bounds();
        Ok(self.summarize(settled, iterations))
    }

    /// Incrementally re-evaluates a configuration that differs from the
    /// last successfully evaluated one only in the `seeds` entities,
    /// re-running only the RTA kernels inside the dependency cone of the
    /// change. Results — the summary, every per-entity timing, the queue
    /// bounds and the convergence metadata — are **bit-identical** to a full
    /// [`evaluate`](Evaluator::evaluate) of the same configuration, provided
    /// no full pass of that evaluation stops at the wave budget
    /// ([`AnalysisParams::max_holistic_iterations`]). A restricted pass can
    /// converge where the full pass it replaces stops short, below the least
    /// fixed point; the two paths then return different bounds. Under the
    /// default budget of 64 waves no measured pass stops short.
    ///
    /// # The delta contract
    ///
    /// `seeds` must over-approximate the difference between `config` and the
    /// configuration of this evaluator's last *successful* evaluation
    /// (search loops accumulate seeds across rejected/reverted moves and
    /// clear them after every successful call; a configuration rejected as
    /// invalid leaves that base in place). The seeds are closed over the
    /// entity-dependency graph the worklist engine requeues along (the
    /// crate-internal `delta` module) and the outer schedule↔analysis loop
    /// replays the evaluation trajectory:
    ///
    /// * an outer iteration whose schedule inputs (TDMA round + release
    ///   bounds) hit the memo **and** whose timing the immediately preceding
    ///   successful evaluation left extends that timing in place — clean
    ///   entities keep their converged fixed-point values, dirty entities
    ///   restart from the bottom of the lattice and re-climb against them,
    ///   reaching the same least fixed point in a fraction of the kernel
    ///   work;
    /// * an iteration whose release bounds changed (the cone touched a FIFO
    ///   arrival or an ET-sent frame's release) is re-scheduled, and the
    ///   placements the new schedule moved join the cone;
    /// * an iteration whose timing is missing, diverged or unstable, or
    ///   whose restricted passes exhaust their budget, is re-analyzed in
    ///   full — from that point the replay *is* the full evaluation;
    /// * on an acyclic visiting order, a later iteration whose predecessor
    ///   converged stable in this call chains onto it instead, as
    ///   [`evaluate`](Evaluator::evaluate) does too.
    ///
    /// The call transparently takes the full path outright for structural
    /// seeds (TDMA changes — they alter the FIFO drain parameters every
    /// kernel reads), for priority changes that are not a per-resource
    /// *permutation* of the base assignment (a value moved to a fresh level
    /// perturbs hp sets above its new position, outside the closure's
    /// bands), or when there is no successful evaluation to diff against.
    /// Offset-pin changes need no seeds at all: they act purely through the
    /// release bounds, which the trajectory replay re-derives and re-checks
    /// anyway.
    ///
    /// # Errors
    ///
    /// Exactly as [`evaluate`](Evaluator::evaluate): the same configurations
    /// are invalid on both paths.
    pub fn evaluate_delta(
        &mut self,
        config: &SystemConfig,
        seeds: &DeltaSeeds,
    ) -> Result<EvalSummary, AnalysisError> {
        if !self.delta_applicable(config, seeds) {
            return self.evaluate(config);
        }
        self.prepare_config(config)?;
        self.evaluate_inner(config, Some(seeds))
    }

    /// The work counters accumulated since construction.
    pub fn profile(&self) -> EvalProfile {
        self.profile
    }

    /// How many holistic passes were served by the restricted dirty-cone
    /// analysis (delta and chained passes) vs a full re-analysis, since
    /// construction.
    pub fn delta_stats(&self) -> (u64, u64) {
        let p = &self.profile;
        (p.delta_passes + p.chained_passes, p.full_passes)
    }

    /// Mirrors every piece of mutable evaluation state from `src`, reusing
    /// `self`'s allocations. Afterwards `self` behaves exactly like `src`:
    /// the next evaluation extends the same timing and returns the same
    /// bits the call would return on `src`. (The scheduling staging buffers
    /// `sched_tmp`/`diff_procs`/`diff_msgs` are skipped — they are
    /// overwritten before every read.)
    fn clone_state_from(&mut self, src: &Evaluator<'s>) {
        debug_assert!(std::ptr::eq(self.system, src.system) && self.params == src.params);
        while self.sched_cache.len() < src.sched_cache.len() {
            self.sched_cache.push(SchedCacheEntry::default());
        }
        self.sched_cache.truncate(src.sched_cache.len());
        for (dst, entry) in self.sched_cache.iter_mut().zip(&src.sched_cache) {
            dst.sync_from(entry);
        }
        self.sched_priorities.clone_from(&src.sched_priorities);
        self.sched_round = src.sched_round;
        match (&mut self.last_validated, &src.last_validated) {
            (Some(dst), Some(src_cfg)) => dst.clone_from(src_cfg),
            (dst, src_cfg) => *dst = src_cfg.clone(),
        }
        self.scratch.sync_from(&src.scratch);
        self.has_run = src.has_run;
        self.last_converged = src.last_converged;
        self.last_iterations = src.last_iterations;
        self.last_sched_slot = src.last_sched_slot;
        self.run_counter = src.run_counter;
        self.profile = src.profile;
    }

    /// Evaluates a whole batch of sibling candidates against this
    /// evaluator's state, data-parallel across the lanes of `scratch`: one
    /// lane per worker thread (`min(rayon::current_num_threads(), n)`),
    /// each claiming the next unclaimed candidate until none is left.
    ///
    /// Each request is evaluated exactly as
    /// [`evaluate_delta`](Self::evaluate_delta)`(&req.config, &req.seeds)`
    /// would evaluate it from this evaluator's *current* state (the shared
    /// base): for a candidate that passes the delta preconditions, its lane
    /// first mirrors the base's converged state (the shared prefix,
    /// distributed by allocation-reusing copy) and re-climbs only the
    /// candidate's own dirty cone (the divergent tail); any other candidate
    /// takes the full fixed point, which depends on its configuration
    /// alone. So no result depends on which lane ran it or on what that
    /// lane ran before. Results come back in request order and are
    /// **bit-identical** to N sequential `evaluate_delta` calls from this
    /// base state — see the [`BatchScratch`] docs for the contract and
    /// when batching degrades to sequential work.
    ///
    /// The primary state is left untouched (only the aggregate
    /// [`profile`](Self::profile) absorbs the lanes' work counters), so
    /// the accumulated-seed discipline of a search loop carries over
    /// unchanged: every request's seeds are relative to the same base.
    ///
    /// Infeasible candidates are not an error of the batch: their lane
    /// reports its [`AnalysisError`] in the returned vector, exactly as the
    /// sequential call would.
    pub fn evaluate_batch(
        &mut self,
        scratch: &mut BatchScratch<'s>,
        requests: &[BatchRequest],
    ) -> Vec<Result<EvalSummary, AnalysisError>> {
        if requests.is_empty() {
            return Vec::new();
        }
        // A scratch carried over from another system, or from an evaluator
        // with other analysis parameters (the context's horizon depends on
        // them): rebuild the lanes.
        if scratch.lanes.first().is_some_and(|lane| {
            !std::ptr::eq(lane.system, self.system) || lane.params != self.params
        }) {
            scratch.lanes.clear();
        }
        let width = rayon::current_num_threads().min(requests.len());
        while scratch.lanes.len() < width {
            scratch.lanes.push(Evaluator::new(self.system, self.params));
        }
        // Plan on the shared base *before* the lanes run: applicability is
        // a property of (base state, candidate), identical for every lane.
        let plans: Vec<bool> = requests
            .iter()
            .map(|r| self.delta_applicable(&r.config, &r.seeds))
            .collect();
        let primary: &Evaluator<'s> = self;
        // Candidates differ several-fold in cost (a delta replay against a
        // full fixed point), so lanes claim them one at a time. The counter
        // only hands out indices; it publishes no data, hence `Relaxed`.
        let next = AtomicUsize::new(0);
        // Each lane returns, per candidate it ran, the candidate's index,
        // its result and its work-counter increments.
        type LaneRun = (usize, Result<EvalSummary, AnalysisError>, EvalProfile);
        let lane_runs: Vec<Vec<LaneRun>> = scratch.lanes[..width]
            .par_iter_mut()
            .map(|lane| {
                let mut runs = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = requests.get(i) else {
                        break runs;
                    };
                    if plans[i] {
                        lane.clone_state_from(primary);
                    }
                    // The lane counts this candidate's work alone (the sync
                    // copied the primary's aggregate).
                    lane.profile = EvalProfile::default();
                    let result = if plans[i] {
                        lane.evaluate_delta(&req.config, &req.seeds)
                    } else {
                        lane.evaluate(&req.config)
                    };
                    runs.push((i, result, lane.profile));
                }
            })
            .collect();
        let mut runs: Vec<LaneRun> = lane_runs.into_iter().flatten().collect();
        runs.sort_unstable_by_key(|run| run.0);
        runs.into_iter()
            .map(|(_, result, work)| {
                self.profile += work;
                result
            })
            .collect()
    }

    /// Whether the delta preconditions hold for `config`: a completed last
    /// evaluation (the seeds' base, `last_validated`), non-structural seeds,
    /// an unchanged TDMA round, and a priority assignment that is a
    /// per-resource *permutation* of the base's. The permutation
    /// requirement is what licenses the priority-band closure of
    /// [`crate::delta`]: a priority moved to a fresh level would change hp
    /// sets *above* its new position, outside the marked bands.
    fn delta_applicable(&self, config: &SystemConfig, seeds: &DeltaSeeds) -> bool {
        match &self.last_validated {
            Some(base) if self.has_run && !seeds.is_structural() => {
                base.tdma == config.tdma && self.priority_change_is_permutation(base, config)
            }
            _ => false,
        }
    }

    /// Validates ψ and (re)builds the configuration-derived tables when the
    /// configuration differs from `last_validated`, whose tables the
    /// scratch holds.
    ///
    /// Validation and every configuration-derived table are pure functions
    /// of (system, configuration): an unchanged configuration skips both,
    /// and a rejected one leaves the tables and `last_validated` untouched.
    fn prepare_config(&mut self, config: &SystemConfig) -> Result<(), AnalysisError> {
        let prev = self.last_validated.as_ref();
        if prev == Some(config) {
            return Ok(());
        }
        // Pins-only change: validation never reads the offset pins, and
        // every configuration-derived table depends on β and π only — an
        // unchanged TDMA round + priority assignment keeps both.
        let pins_only = prev
            .is_some_and(|prev| prev.tdma == config.tdma && prev.priorities == config.priorities);
        if !pins_only {
            // A priority change that merely *permutes* the previous
            // (validated) assignment within each resource preserves
            // validity outright: completeness (every changed ET process /
            // CAN message keeps a priority) and per-resource uniqueness
            // (the value multiset per CPU/bus is unchanged) are checked
            // exactly, so re-validation would be a no-op. Anything else
            // re-validates in full.
            let permutation = prev.is_some_and(|prev| {
                prev.tdma == config.tdma && self.priority_change_is_permutation(prev, config)
            });
            if !permutation {
                validate_config(self.system, config)?;
            }
            self.build_config_tables(config);
        }
        // `clone_from` reuses the previous configuration's allocations, so
        // a changed configuration costs no fresh allocation here.
        match &mut self.last_validated {
            Some(previous) => previous.clone_from(config),
            slot => *slot = Some(config.clone()),
        }
        Ok(())
    }

    /// Rebuilds the configuration-derived tables of a validated ψ: the
    /// priority lookups flattened to dense vectors, the priority-sorted
    /// evaluation orders (priorities are unique per resource, so the orders
    /// are total), their inverse position tables (the delta closure reads
    /// priority bands from them), the CAN suffix-max blocking bounds — these
    /// turn every kernel's higher-priority filtering into prefix scans — and
    /// the worklist's visiting order under these priorities.
    fn build_config_tables(&mut self, config: &SystemConfig) {
        let app = &self.system.application;
        let s = &mut self.scratch;
        s.msg_priority.clear();
        s.msg_priority.extend(
            app.messages()
                .iter()
                .map(|m| config.priorities.message(m.id())),
        );
        s.proc_priority.clear();
        s.proc_priority.extend(
            app.processes()
                .iter()
                .map(|p| config.priorities.process(p.id())),
        );
        s.can_order.clear();
        s.can_order.extend(self.ctx.can_ids.iter().copied());
        s.can_order.sort_by_key(|&mi| {
            // mcs-lint: allow(panic-policy) -- prepare_config builds tables only for configurations validate_config accepts, which assign CAN priorities
            s.msg_priority[mi].expect("validated configuration assigns CAN priorities")
        });
        s.can_pos.clear();
        s.can_pos.resize(s.msg_priority.len(), usize::MAX);
        for (k, &mi) in s.can_order.iter().enumerate() {
            s.can_pos[mi] = k;
        }
        s.can_blocking.clear();
        s.can_blocking.resize(s.can_order.len(), Time::ZERO);
        let mut suffix = Time::ZERO;
        for k in (0..s.can_order.len()).rev() {
            s.can_blocking[k] = suffix;
            suffix = suffix.max(self.ctx.can_c[s.can_order[k]]);
        }
        s.node_order.resize(self.ctx.et_nodes.len(), Vec::new());
        s.node_pos.clear();
        s.node_pos.resize(s.proc_priority.len(), usize::MAX);
        for (ni, et) in self.ctx.et_nodes.iter().enumerate() {
            let order = &mut s.node_order[ni];
            order.clear();
            order.extend(et.procs.iter().copied());
            order.sort_by_key(|p| {
                // mcs-lint: allow(panic-policy) -- prepare_config builds tables only for configurations validate_config accepts, which assign ET priorities
                s.proc_priority[p.index()].expect("validated configuration assigns ET priorities")
            });
            for (idx, p) in order.iter().enumerate() {
                s.node_pos[p.index()] = idx;
            }
        }
        // The worklist visits in the dependency order of these bands.
        order_worklist(&self.ctx, s);
    }

    /// Exact validity-preservation check: the new priority assignment is a
    /// per-resource permutation of the previous one — every changed ET
    /// process and CAN-leg message keeps a priority, and the changed values
    /// permute within their CPU / the bus (multiset equality), so
    /// per-resource uniqueness is preserved. Changes to priorities the
    /// validator never reads (TT processes, messages without a CAN leg) are
    /// ignored.
    fn priority_change_is_permutation(&self, prev: &SystemConfig, next: &SystemConfig) -> bool {
        let app = &self.system.application;
        // (resource group, priority level) of every changed, validated slot.
        let mut old_vals: Vec<(u32, u32)> = Vec::new();
        let mut new_vals: Vec<(u32, u32)> = Vec::new();
        for m in app.messages() {
            let o = prev.priorities.message(m.id());
            let n = next.priorities.message(m.id());
            if o == n || !self.ctx.route[m.id().index()].uses_can() {
                continue;
            }
            let (Some(o), Some(n)) = (o, n) else {
                return false;
            };
            old_vals.push((u32::MAX, o.level()));
            new_vals.push((u32::MAX, n.level()));
        }
        for p in app.processes() {
            let o = prev.priorities.process(p.id());
            let n = next.priorities.process(p.id());
            if o == n || self.ctx.proc_is_tt[p.id().index()] {
                continue;
            }
            let (Some(o), Some(n)) = (o, n) else {
                return false;
            };
            let node = p.node().raw();
            old_vals.push((node, o.level()));
            new_vals.push((node, n.level()));
        }
        old_vals.sort_unstable();
        new_vals.sort_unstable();
        old_vals == new_vals
    }

    /// The gateway-slot FIFO parameters and the TDMA grid slack of ψ.
    fn ttp_queue(&self, config: &SystemConfig) -> (TtpQueueParams, Time) {
        let arch = &self.system.architecture;
        let app = &self.system.application;
        let gateway = arch.gateway();
        let (gw_slot, gw_cfg) = config
            .tdma
            .slot_of_node(gateway)
            // mcs-lint: allow(panic-policy) -- tdma.validate (run by validate_config before analysis) requires a slot per TTP node
            .expect("validated configuration has a gateway slot");
        let ttp_params = arch.ttp_params();
        let ttp_queue = TtpQueueParams {
            round: config.tdma.round_duration(&ttp_params),
            slot_offset: config.tdma.slot_offset(gw_slot, &ttp_params),
            slot_capacity: gw_cfg.capacity_bytes,
            slot_duration: config.tdma.slot_duration(gw_slot, &ttp_params),
        };
        let grid_slack =
            if ttp_queue.round.is_zero() || (app.hyperperiod() % ttp_queue.round).is_zero() {
                Time::ZERO
            } else {
                ttp_queue.round
            };
        (ttp_queue, grid_slack)
    }

    /// Re-derives the release lower bounds of the static scheduler from the
    /// current analysis state, into the `next_*` tables.
    fn derive_releases(&mut self, config: &SystemConfig) {
        let ctx = &self.ctx;
        let t = &self.sched_cache[self.last_sched_slot].timing;
        let s = &mut self.scratch;
        seed_pins(
            self.system,
            config,
            &mut s.next_proc_release,
            &mut s.next_msg_release,
        );
        for &mi in &ctx.fifo_ids {
            // Destination TT process must not start before the worst-case
            // arrival through Out_TTP.
            let bound = t.arrival[mi].min(ctx.horizon);
            let entry = &mut s.next_proc_release[ctx.msg_dest[mi] as usize];
            *entry = Some(entry.unwrap_or(Time::ZERO).max(bound));
        }
        for &mi in &ctx.et_ttp_senders {
            // TTP frames whose sender runs under priorities (gateway CPU): the
            // frame cannot leave before the sender's worst-case completion.
            let sender = ctx.msg_src[mi] as usize;
            let done = t.po[sender].saturating_add(t.pr[sender]).min(ctx.horizon);
            let entry = &mut s.next_msg_release[mi];
            *entry = Some(entry.unwrap_or(Time::ZERO).max(done));
        }
    }

    /// One holistic pass over the schedule of the current outer iteration
    /// (`last_sched_slot`), analyzing that slot's timing in place.
    fn holistic(&mut self, ttp_queue: TtpQueueParams, grid_slack: Time) -> Holistic<'_> {
        let entry = &mut self.sched_cache[self.last_sched_slot];
        Holistic {
            ctx: &self.ctx,
            system: self.system,
            schedule: &entry.schedule,
            ttp_queue,
            grid_slack,
            horizon: self.ctx.horizon,
            max_iterations: self.params.max_holistic_iterations,
            fifo_bound: self.params.fifo_bound,
            s: &mut self.scratch,
            t: &mut entry.timing,
        }
    }

    /// Graph responses and the degree of schedulability, straight from the
    /// final slot's timing (no result maps on this path), plus the run
    /// metadata. The run converged if the outer iteration settled and the
    /// final slot's holistic pass reached a stable state without diverging:
    /// a pass stopped by the wave budget sits below the least fixed point,
    /// so its bounds are optimistic.
    fn summarize(&mut self, settled: bool, iterations: u32) -> EvalSummary {
        let system = self.system;
        let app = &system.application;
        let ctx = &self.ctx;
        let entry = &self.sched_cache[self.last_sched_slot];
        let t = &entry.timing;
        let s = &mut self.scratch;
        s.graph_response.clear();
        let mut overrun: u64 = 0;
        let mut slack: i128 = 0;
        for (gi, graph) in app.graphs().iter().enumerate() {
            let r = ctx.sinks[gi]
                .iter()
                .map(|p| t.po[p.index()].saturating_add(t.pr[p.index()]))
                .fold(Time::ZERO, Time::max);
            s.graph_response.push(r);
            let d = graph.deadline();
            overrun += r.saturating_sub(d).ticks();
            slack += i128::from(r.ticks()) - i128::from(d.ticks());
        }
        for &(pi, d) in &ctx.local_deadlines {
            let completion = t.po[pi].saturating_add(t.pr[pi]);
            overrun += completion.saturating_sub(d).ticks();
        }

        let converged = settled && entry.stable && !t.diverged;
        self.has_run = true;
        self.last_converged = converged;
        self.last_iterations = iterations;
        EvalSummary {
            degree: SchedulabilityDegree {
                overrun,
                slack,
                converged,
            },
            total_buffers: s.queues.total(),
            converged,
            iterations,
        }
    }

    /// Materializes the full [`AnalysisOutcome`] of the last successful
    /// [`evaluate`](Evaluator::evaluate) call (this allocates the result
    /// maps — call it for accepted configurations, not per search move).
    ///
    /// # Panics
    ///
    /// Panics if no evaluation has completed successfully yet.
    pub fn outcome(&self) -> AnalysisOutcome {
        assert!(
            self.has_run,
            "Evaluator::outcome called before a successful evaluate"
        );
        let app = &self.system.application;
        let s = &self.scratch;
        let process_timing: HashMap<ProcessId, EntityTiming> = app
            .processes()
            .iter()
            .map(|p| (p.id(), self.process_timing(p.id())))
            .collect();
        let message_timing: HashMap<MessageId, MessageTiming> = app
            .messages()
            .iter()
            .map(|m| (m.id(), self.message_timing(m.id())))
            .collect();
        let graph_response = app
            .graphs()
            .iter()
            .enumerate()
            .map(|(gi, g)| (g.id(), s.graph_response[gi]))
            .collect();
        AnalysisOutcome {
            schedule: self.sched_cache[self.last_sched_slot].schedule.clone(),
            process_timing,
            message_timing,
            queues: s.queues.clone(),
            graph_response,
            converged: self.last_converged,
            iterations: self.last_iterations,
        }
    }

    /// Worst-case timing of one process from the last evaluation.
    ///
    /// # Panics
    ///
    /// Panics if no evaluation has completed successfully yet.
    pub fn process_timing(&self, process: ProcessId) -> EntityTiming {
        assert!(self.has_run, "no successful evaluation yet");
        let i = process.index();
        let t = &self.sched_cache[self.last_sched_slot].timing;
        EntityTiming {
            offset: t.po[i],
            jitter: t.pj[i],
            delay: t.pw[i],
            response: t.pr[i],
        }
    }

    /// Worst-case per-leg timing of one message from the last evaluation.
    ///
    /// # Panics
    ///
    /// Panics if no evaluation has completed successfully yet.
    pub fn message_timing(&self, message: MessageId) -> MessageTiming {
        assert!(self.has_run, "no successful evaluation yet");
        let mi = message.index();
        let t = &self.sched_cache[self.last_sched_slot].timing;
        let can = self.ctx.route[mi].uses_can().then_some(EntityTiming {
            offset: t.can_o[mi],
            jitter: t.can_j[mi],
            delay: t.can_w[mi],
            response: t.can_r[mi],
        });
        let ttp = matches!(self.ctx.route[mi], MessageRoute::EtcToTtc).then_some(EntityTiming {
            offset: t.ttp_o[mi],
            jitter: t.ttp_j[mi],
            delay: t.ttp_w[mi],
            response: t.ttp_r[mi],
        });
        MessageTiming {
            can,
            ttp,
            arrival: t.arrival[mi],
        }
    }
}

#[cfg(test)]
impl Evaluator<'_> {
    /// Test hook for the delta closure: stages the configuration-derived
    /// tables and closes `seeds` plus moved TT starts and frames over the
    /// dependency graph, leaving the flags in the scratch.
    pub(crate) fn close_for_test(
        &mut self,
        config: &SystemConfig,
        seeds: &DeltaSeeds,
        moved_procs: &[ProcessId],
        moved_msgs: &[MessageId],
    ) {
        self.prepare_config(config)
            .expect("valid test configuration");
        close_dirty(&self.ctx, &mut self.scratch, seeds, moved_procs, moved_msgs);
    }

    /// Test hook: the dirty flags left by [`close_for_test`].
    ///
    /// [`close_for_test`]: Evaluator::close_for_test
    pub(crate) fn dirty_for_test(&self) -> &DirtySet {
        &self.scratch.dirty
    }

    /// Test hook: the system tables and the scratch, to walk the dependency
    /// graph of the last prepared configuration.
    pub(crate) fn tables_for_test(&self) -> (&SystemContext, &Scratch) {
        (&self.ctx, &self.scratch)
    }

    /// Test hook for the visiting order: evaluates `config` exactly as
    /// [`evaluate_delta`](Evaluator::evaluate_delta) would with `seeds` (as
    /// [`evaluate`](Evaluator::evaluate) without), except that the worklist
    /// order `prepare_config` computed is replaced by `order` (worklist keys
    /// by rank, a permutation of `0..worklist_len_for_test()`). Whether the
    /// computed order was acyclic stays recorded, so outer iterations chain
    /// exactly where they would under it.
    pub(crate) fn evaluate_in_order_for_test(
        &mut self,
        config: &SystemConfig,
        seeds: Option<&DeltaSeeds>,
        order: &[u32],
    ) -> Result<EvalSummary, AnalysisError> {
        let seeds = seeds.filter(|seeds| self.delta_applicable(config, seeds));
        self.prepare_config(config)?;
        let s = &mut self.scratch;
        s.wl_order.clear();
        s.wl_order.extend_from_slice(order);
        s.wl_rank.clear();
        s.wl_rank.resize(order.len(), u32::MAX);
        for (rank, &key) in order.iter().enumerate() {
            s.wl_rank[key as usize] = rank as u32;
        }
        self.evaluate_inner(config, seeds)
    }

    /// Test hook: the number of worklist entities (keys `0..n`).
    pub(crate) fn worklist_len_for_test(&self) -> usize {
        self.ctx.wl_entities.len()
    }

    /// Test hook: the visiting order of the last prepared configuration.
    pub(crate) fn worklist_order_for_test(&self) -> &[u32] {
        &self.scratch.wl_order
    }
}

/// Applies the optimizer's offset pins as baseline releases (dense tables;
/// `None` distinguishes "no bound" from an explicit zero pin).
fn seed_pins(
    system: &System,
    config: &SystemConfig,
    process_releases: &mut Vec<Option<Time>>,
    message_releases: &mut Vec<Option<Time>>,
) {
    let app = &system.application;
    process_releases.clear();
    process_releases.resize(app.processes().len(), None);
    message_releases.clear();
    message_releases.resize(app.messages().len(), None);
    if config.offsets.is_empty() {
        return;
    }
    for p in app.processes() {
        if let Some(t) = config.offsets.process(p.id()) {
            process_releases[p.id().index()] = Some(t);
        }
    }
    for m in app.messages() {
        if let Some(t) = config.offsets.message(m.id()) {
            message_releases[m.id().index()] = Some(t);
        }
    }
}
