//! The **seed implementation** of the evaluation path, preserved verbatim
//! (modulo `use` paths) from the initial import for benchmarking: every
//! `evaluate` call rebuilds all derived tables, reallocates every
//! fixed-point vector and cold-starts every kernel fixed point — exactly
//! what the synthesis loops paid per move before the reusable
//! [`mcs_core::Evaluator`] existed. The `evaluator_reuse` bench measures
//! the reused evaluator against this baseline; the equivalence of their
//! results is asserted by a test below and by the property tests in
//! `mcs-opt`.
//!
//! The TTC list scheduler is frozen here too ([`seed_list_schedule`]), so
//! this oracle stays independent of the live `mcs_ttp` scheduler it is
//! used to check; `tests/scheduler_vs_seed.rs` holds the two to identical
//! schedules.

#![allow(missing_docs)] // verbatim seed code, kept only as a benchmark baseline

use std::collections::HashMap;

use mcs_can::CanFlow;
use mcs_core::{
    degree_of_schedulability, fifo_delay, fifo_delay_occurrence, fifo_size_bound,
    interference_delays, validate_config, AnalysisError, AnalysisOutcome, AnalysisParams,
    EntityTiming, FifoBound, FifoFlow, MessageTiming, QueueBounds, SchedulabilityDegree, TaskFlow,
    TtpQueueParams,
};
use mcs_model::{MessageId, MessageRoute, NodeId, Priority, ProcessId, System, SystemConfig, Time};
use mcs_ttp::{
    critical_path_priorities_into, DenseSchedulerInput, FramePlacement, RoundSchedule,
    ScheduleError, SchedulerInput, TtcSchedule,
};

/// The seed's `mcs_opt::evaluate`: one fresh analysis plus the cost scalars.
///
/// # Errors
///
/// Propagates [`AnalysisError`] like the seed did.
pub fn seed_evaluate(
    system: &System,
    config: SystemConfig,
    params: &AnalysisParams,
) -> Result<(SchedulabilityDegree, u64, AnalysisOutcome), AnalysisError> {
    let outcome = seed_multi_cluster_scheduling(system, &config, params)?;
    let degree = degree_of_schedulability(system, &outcome);
    let buffers = outcome.queues.total();
    Ok((degree, buffers, outcome))
}

/// Runs `MultiClusterScheduling(Γ, β, π)` and returns the offsets φ,
/// response times ρ, queue bounds and graph response times.
///
/// # Errors
///
/// Returns [`AnalysisError`] if ψ is invalid or the TTC traffic cannot be
/// scheduled at all. An *unschedulable but well-formed* system is **not** an
/// error: it yields an outcome whose graph response times exceed their
/// deadlines (see [`mcs_core::degree_of_schedulability`]).
///
/// # Examples
///
/// See the crate-level documentation of [`mcs-core`](crate) for a complete
/// worked example.
pub fn seed_multi_cluster_scheduling(
    system: &System,
    config: &SystemConfig,
    params: &AnalysisParams,
) -> Result<AnalysisOutcome, AnalysisError> {
    validate_config(system, config)?;
    let app = &system.application;
    let horizon = app
        .hyperperiod()
        .saturating_mul(params.horizon_factor.max(1));

    let mut process_releases: HashMap<ProcessId, Time> = HashMap::new();
    let mut message_releases: HashMap<MessageId, Time> = HashMap::new();
    seed_pins(system, config, &mut process_releases, &mut message_releases);

    let mut iterations = 0;
    let mut settled = false;
    let mut last = None;
    while iterations < params.max_outer_iterations {
        iterations += 1;
        let input = SchedulerInput {
            system,
            tdma: &config.tdma,
            process_releases: &process_releases,
            message_releases: &message_releases,
        };
        let schedule = seed_list_schedule(&input)?;
        let holistic = Holistic::new(
            system,
            config,
            &schedule,
            horizon,
            params.max_holistic_iterations,
            params.fifo_bound,
        )
        .run();

        // Re-derive releases from the analysis.
        let mut next_p = HashMap::new();
        let mut next_m = HashMap::new();
        seed_pins(system, config, &mut next_p, &mut next_m);
        for message in app.messages() {
            let mi = message.id().index();
            match system.route(message.id()) {
                MessageRoute::EtcToTtc => {
                    // Destination TT process must not start before the
                    // worst-case arrival through Out_TTP.
                    let arrival = holistic.message[mi].arrival.min(horizon);
                    let entry = next_p.entry(message.dest()).or_insert(Time::ZERO);
                    *entry = (*entry).max(arrival);
                }
                route if route.uses_ttp() => {
                    // TTP frames whose sender runs under priorities (gateway
                    // CPU): the frame cannot leave before the sender's
                    // worst-case completion.
                    let sender = message.source();
                    if system.architecture.is_et_cpu(app.process(sender).node()) {
                        let done = holistic.process[sender.index()]
                            .worst_completion()
                            .min(horizon);
                        let entry = next_m.entry(message.id()).or_insert(Time::ZERO);
                        *entry = (*entry).max(done);
                    }
                }
                _ => {}
            }
        }

        let done = next_p == process_releases && next_m == message_releases;
        process_releases = next_p;
        message_releases = next_m;
        last = Some((schedule, holistic));
        if done {
            settled = true;
            break;
        }
    }

    let (schedule, holistic) = last.expect("at least one outer iteration runs");
    let mut graph_response = HashMap::new();
    for graph in app.graphs() {
        let r = app
            .sinks(graph.id())
            .into_iter()
            .map(|p| holistic.process[p.index()].worst_completion())
            .fold(Time::ZERO, Time::max);
        graph_response.insert(graph.id(), r);
    }

    let process_timing = app
        .processes()
        .iter()
        .map(|p| (p.id(), holistic.process[p.id().index()]))
        .collect();
    let message_timing = app
        .messages()
        .iter()
        .map(|m| (m.id(), holistic.message[m.id().index()]))
        .collect();

    Ok(AnalysisOutcome {
        schedule,
        process_timing,
        message_timing,
        queues: holistic.queues,
        graph_response,
        converged: holistic.converged && settled,
        iterations,
    })
}

/// Applies the optimizer's offset pins as baseline releases.
fn seed_pins(
    system: &System,
    config: &SystemConfig,
    process_releases: &mut HashMap<ProcessId, Time>,
    message_releases: &mut HashMap<MessageId, Time>,
) {
    for p in system.application.processes() {
        if let Some(t) = config.offsets.process(p.id()) {
            process_releases.insert(p.id(), t);
        }
    }
    for m in system.application.messages() {
        if let Some(t) = config.offsets.message(m.id()) {
            message_releases.insert(m.id(), t);
        }
    }
}

/// The seed's `mcs_ttp::list_schedule`: flattens the release maps and runs
/// the frozen [`seed_list_schedule_dense_into`].
///
/// # Errors
///
/// Returns [`ScheduleError`] if the TDMA configuration cannot carry the
/// traffic (missing slot, oversized message, empty round).
pub fn seed_list_schedule(input: &SchedulerInput<'_>) -> Result<TtcSchedule, ScheduleError> {
    let mut priorities = Vec::new();
    critical_path_priorities_into(input.system, input.tdma, &mut priorities);
    let app = &input.system.application;
    let mut process_releases = vec![None; app.processes().len()];
    for (&p, &t) in input.process_releases {
        process_releases[p.index()] = Some(t);
    }
    let mut message_releases = vec![None; app.messages().len()];
    for (&m, &t) in input.message_releases {
        message_releases[m.index()] = Some(t);
    }
    let mut schedule = TtcSchedule::new();
    seed_list_schedule_dense_into(
        &DenseSchedulerInput {
            system: input.system,
            tdma: input.tdma,
            process_releases: &process_releases,
            message_releases: &message_releases,
        },
        &priorities,
        &mut schedule,
    )?;
    Ok(schedule)
}

/// The seed's `mcs_ttp::list_schedule_dense_into`: every pick rescans all
/// unscheduled TT processes and recomputes their earliest starts.
///
/// # Errors
///
/// Returns [`ScheduleError`] if the TDMA configuration cannot carry the
/// traffic (missing slot, oversized message, empty round).
pub fn seed_list_schedule_dense_into(
    input: &DenseSchedulerInput<'_>,
    priorities: &[Time],
    schedule: &mut TtcSchedule,
) -> Result<(), ScheduleError> {
    schedule.clear();
    SeedScheduler::new(input, priorities, schedule)?.run()
}

struct SeedScheduler<'a> {
    input: &'a DenseSchedulerInput<'a>,
    rounds: RoundSchedule<'a>,
    /// Critical-path priority per process (dense index).
    priorities: &'a [Time],
    /// Bytes already packed into each (slot, round) occurrence.
    frame_usage: HashMap<(u32, u64), u32>,
    schedule: &'a mut TtcSchedule,
    /// Earliest idle instant per node (dense index).
    node_free: Vec<Time>,
}

impl<'a> SeedScheduler<'a> {
    fn new(
        input: &'a DenseSchedulerInput<'a>,
        priorities: &'a [Time],
        schedule: &'a mut TtcSchedule,
    ) -> Result<Self, ScheduleError> {
        if input.tdma.slots().is_empty() {
            return Err(ScheduleError::EmptyRound);
        }
        let rounds = RoundSchedule::new(input.tdma, input.system.architecture.ttp_params());
        let node_free = vec![Time::ZERO; input.system.architecture.nodes().len()];
        Ok(SeedScheduler {
            input,
            rounds,
            priorities,
            frame_usage: HashMap::new(),
            schedule,
            node_free,
        })
    }

    fn proc_release(&self, p: ProcessId) -> Time {
        self.input
            .process_releases
            .get(p.index())
            .copied()
            .flatten()
            .unwrap_or(Time::ZERO)
    }

    fn msg_release(&self, m: MessageId) -> Time {
        self.input
            .message_releases
            .get(m.index())
            .copied()
            .flatten()
            .unwrap_or(Time::ZERO)
    }

    fn run(mut self) -> Result<(), ScheduleError> {
        let system = self.input.system;
        let app = &system.application;

        // Frames sent by ET CPUs over the TTP bus (gateway-resident senders
        // of TTC→TTC traffic) are placed first from their releases so that
        // destination readiness can observe the arrival.
        for message in app.messages() {
            let sender_node = app.process(message.source()).node();
            if system.route(message.id()).uses_ttp()
                && system.route(message.id()) != MessageRoute::EtcToTtc
                && system.architecture.is_et_cpu(sender_node)
            {
                let release = self.msg_release(message.id());
                self.place_frame(message.id(), sender_node, release)?;
            }
        }

        // TT processes still waiting for their TT-side predecessors.
        let mut remaining: Vec<usize> = vec![0; app.processes().len()];
        let mut unscheduled: Vec<ProcessId> = Vec::new();
        for p in app.processes() {
            if system.architecture.is_tt_cpu(p.node()) {
                remaining[p.id().index()] = app
                    .predecessors(p.id())
                    .iter()
                    .filter(|e| self.counts_as_tt_pred(e.source))
                    .count();
                unscheduled.push(p.id()); // id order: determinism
            }
        }

        while !unscheduled.is_empty() {
            // Candidates: all TT-side dependencies resolved.
            let mut best: Option<(Time, Time, ProcessId)> = None;
            for &p in &unscheduled {
                if remaining[p.index()] > 0 {
                    continue;
                }
                let est = self.earliest_start(p);
                let prio = self.priorities[p.index()];
                let better = match best {
                    None => true,
                    // Earliest start first; critical path length breaks ties.
                    Some((bt, bp, bid)) => {
                        (est, std::cmp::Reverse(prio), p) < (bt, std::cmp::Reverse(bp), bid)
                    }
                };
                if better {
                    best = Some((est, prio, p));
                }
            }
            let (start, _, p) =
                best.expect("acyclic validated graph always has a ready TT process");
            self.commit(p, start)?;
            unscheduled.retain(|&q| q != p);
            for e in app.successors(p) {
                let r = &mut remaining[e.dest.index()];
                *r = r.saturating_sub(1);
            }
        }
        Ok(())
    }

    /// A predecessor gates a TT process through the schedule table only if
    /// the predecessor itself is placed by this scheduler.
    fn counts_as_tt_pred(&self, pred: ProcessId) -> bool {
        let node = self.input.system.application.process(pred).node();
        self.input.system.architecture.is_tt_cpu(node)
    }

    fn earliest_start(&self, p: ProcessId) -> Time {
        let system = self.input.system;
        let app = &system.application;
        let node = app.process(p).node();
        let mut ready = self.proc_release(p);
        for e in app.predecessors(p) {
            if !self.counts_as_tt_pred(e.source) {
                // ET-sent TTP frames (gateway-resident senders) are placed
                // in the pre-pass: their arrival gates the table start
                // directly. Everything else is bounded by the exogenous
                // release.
                if let Some(frame) = e.message.and_then(|m| self.schedule.frame(m)) {
                    ready = ready.max(frame.arrival);
                }
                continue;
            }
            let pred_finish = self
                .schedule
                .start(e.source)
                .expect("TT predecessor scheduled before successor")
                + app.process(e.source).wcet();
            let avail = match e.message {
                // Cross-node: data available when the frame lands.
                Some(m) => self
                    .schedule
                    .frame(m)
                    .map(|f| f.arrival)
                    .unwrap_or(pred_finish),
                // Same node: available at predecessor completion.
                None => pred_finish,
            };
            ready = ready.max(avail);
        }
        ready.max(self.node_free[node.index()])
    }

    fn commit(&mut self, p: ProcessId, start: Time) -> Result<(), ScheduleError> {
        let system = self.input.system;
        let app = &system.application;
        let process = app.process(p);
        let finish = start + process.wcet();
        self.schedule.set_start(p, start);
        self.schedule.extend_makespan(finish);
        self.node_free[process.node().index()] = finish;

        // Place the TTP leg of every outbound message of this TT sender.
        let outgoing: Vec<MessageId> = app.successors(p).iter().filter_map(|e| e.message).collect();
        for m in outgoing {
            if !system.route(m).uses_ttp() || system.route(m) == MessageRoute::EtcToTtc {
                continue; // CAN-only, or FIFO-forwarded by the gateway
            }
            let ready = finish.max(self.msg_release(m));
            self.place_frame(m, process.node(), ready)?;
        }
        Ok(())
    }

    /// Packs a message into the earliest occurrence of its sender's slot
    /// starting at or after `ready` with spare capacity.
    fn place_frame(
        &mut self,
        message: MessageId,
        sender_node: NodeId,
        ready: Time,
    ) -> Result<(), ScheduleError> {
        let app = &self.input.system.application;
        let size = app.message(message).size_bytes();
        let slot = self
            .rounds
            .slot_of_node(sender_node)
            .ok_or(ScheduleError::NoSlotForNode(sender_node))?;
        let capacity = self.rounds.slot_capacity(slot);
        if size > capacity {
            return Err(ScheduleError::MessageTooLarge { message, capacity });
        }
        let mut occ = self.rounds.next_occurrence(slot, ready);
        loop {
            let used = self.frame_usage.entry((slot.raw(), occ.round)).or_insert(0);
            if *used + size <= capacity {
                *used += size;
                self.schedule.set_frame(
                    message,
                    FramePlacement {
                        slot,
                        round: occ.round,
                        slot_start: occ.start,
                        arrival: occ.end,
                    },
                );
                self.schedule.extend_makespan(occ.end);
                return Ok(());
            }
            occ = self.rounds.advance(occ, 1);
        }
    }
}

/// Result of one holistic analysis pass over a fixed TTC schedule.
#[derive(Clone, Debug)]
pub struct HolisticResult {
    pub process: Vec<EntityTiming>,
    pub message: Vec<MessageTiming>,
    pub queues: QueueBounds,
    pub converged: bool,
}

/// Ranks: the gateway transfer process outranks all application processes.
fn app_rank(priority: Priority) -> u64 {
    1 << 32 | u64::from(priority.level())
}
const TRANSFER_RANK: u64 = 0;

pub struct Holistic<'a> {
    system: &'a System,
    config: &'a SystemConfig,
    schedule: &'a TtcSchedule,
    horizon: Time,
    max_iterations: u32,
    fifo_bound: FifoBound,

    route: Vec<MessageRoute>,
    can_c: Vec<Time>,
    msg_priority: Vec<Option<Priority>>,
    ttp_queue: TtpQueueParams,
    /// Phase group of each graph: all graph activations are anchored at
    /// multiples of their period from time zero, so graphs with *equal*
    /// periods keep a constant phase relation and may be offset-phased
    /// against each other; graphs with different periods drift and fall
    /// back to the critical-instant assumption.
    phase_group: Vec<u32>,
    /// One extra round of FIFO pessimism when the TDMA grid does not
    /// re-align with the hyper-period (the gateway slot's phase then drifts
    /// across activations).
    grid_slack: Time,

    // Process state.
    po: Vec<Time>,
    pj: Vec<Time>,
    pw: Vec<Time>,
    pr: Vec<Time>,
    // Message state, per leg.
    can_o: Vec<Time>,
    can_j: Vec<Time>,
    can_w: Vec<Time>,
    can_r: Vec<Time>,
    ttp_o: Vec<Time>,
    ttp_j: Vec<Time>,
    ttp_w: Vec<Time>,
    ttp_r: Vec<Time>,
    arrival: Vec<Time>,
    backlog: Vec<u64>,
    diverged: bool,
}

impl<'a> std::fmt::Debug for Holistic<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Holistic").finish_non_exhaustive()
    }
}

impl<'a> Holistic<'a> {
    pub fn new(
        system: &'a System,
        config: &'a SystemConfig,
        schedule: &'a TtcSchedule,
        horizon: Time,
        max_iterations: u32,
        fifo_bound: FifoBound,
    ) -> Self {
        let app = &system.application;
        let arch = &system.architecture;
        let n_p = app.processes().len();
        let n_m = app.messages().len();

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
        let msg_priority: Vec<Option<Priority>> = app
            .messages()
            .iter()
            .map(|m| config.priorities.message(m.id()))
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

        let gateway = arch.gateway();
        let (gw_slot, gw_cfg) = config
            .tdma
            .slot_of_node(gateway)
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
        let mut h = Holistic {
            system,
            config,
            schedule,
            horizon,
            max_iterations,
            fifo_bound,
            route,
            can_c,
            msg_priority,
            ttp_queue,
            phase_group,
            grid_slack,
            po: vec![Time::ZERO; n_p],
            pj: vec![Time::ZERO; n_p],
            pw: vec![Time::ZERO; n_p],
            pr: vec![Time::ZERO; n_p],
            can_o: vec![Time::ZERO; n_m],
            can_j: vec![Time::ZERO; n_m],
            can_w: vec![Time::ZERO; n_m],
            can_r: vec![Time::ZERO; n_m],
            ttp_o: vec![Time::ZERO; n_m],
            ttp_j: vec![Time::ZERO; n_m],
            ttp_w: vec![Time::ZERO; n_m],
            ttp_r: vec![Time::ZERO; n_m],
            arrival: vec![Time::ZERO; n_m],
            backlog: vec![0; n_m],
            diverged: false,
        };
        for p in app.processes() {
            h.pr[p.id().index()] = p.wcet();
        }
        h
    }

    pub fn run(mut self) -> HolisticResult {
        for _ in 0..self.max_iterations {
            let fingerprint = self.fingerprint();
            self.propagate_offsets_and_jitters();
            self.can_pass();
            self.fifo_pass();
            self.cpu_pass();
            if self.fingerprint() == fingerprint {
                break;
            }
        }
        let queues = self.queue_bounds();
        self.into_result(queues)
    }

    fn fingerprint(&self) -> (Vec<Time>, Vec<Time>, Vec<Time>, Vec<Time>) {
        (
            self.pr.clone(),
            self.can_r.clone(),
            self.ttp_r.clone(),
            self.po.clone(),
        )
    }

    /// Topological pass updating `O` and `J` of ET processes and of every
    /// message leg from the current response times.
    ///
    /// Offsets are propagated as *earliest availabilities*: an entity's
    /// offset is the best-case instant its triggering data can exist
    /// (predecessor offset + BCET + minimal transmission), and its jitter is
    /// the gap to the worst-case availability. This matches the paper's
    /// worked numbers (Figure 4a: `J_2 = 15`, `r_2 = 55`, `r_3 = 45`) and
    /// spreads ET-chain offsets so that the queue analyses can phase flows
    /// apart.
    fn propagate_offsets_and_jitters(&mut self) {
        let app = &self.system.application;
        let arch = &self.system.architecture;
        let r_transfer = self.system.gateway.transfer_response();
        for graph in app.graphs() {
            for &p in app.topological_order(graph.id()) {
                let pi = p.index();
                if arch.is_tt_cpu(app.process(p).node()) {
                    // Fixed by the schedule table within this pass.
                    self.po[pi] = self
                        .schedule
                        .start(p)
                        .expect("TT process placed by the list scheduler");
                    self.pj[pi] = Time::ZERO;
                    self.pw[pi] = Time::ZERO;
                    self.pr[pi] = app.process(p).wcet();
                } else {
                    let mut earliest = Time::ZERO;
                    let mut worst = Time::ZERO;
                    for e in app.predecessors(p) {
                        let (o, w) = match e.message {
                            None => {
                                let s = e.source.index();
                                (
                                    self.po[s].saturating_add(app.process(e.source).bcet()),
                                    self.po[s].saturating_add(self.pr[s]),
                                )
                            }
                            Some(m) => {
                                let mi = m.index();
                                match self.route[mi] {
                                    MessageRoute::TtcToTtc => {
                                        let a = self.frame_arrival(m);
                                        (a, a)
                                    }
                                    MessageRoute::EtcToEtc | MessageRoute::TtcToEtc => (
                                        self.can_o[mi].saturating_add(self.can_c[mi]),
                                        self.can_o[mi].saturating_add(self.can_r[mi]),
                                    ),
                                    MessageRoute::EtcToTtc => (
                                        self.ttp_o[mi],
                                        self.ttp_o[mi].saturating_add(self.ttp_r[mi]),
                                    ),
                                }
                            }
                        };
                        earliest = earliest.max(o);
                        worst = worst.max(w);
                    }
                    self.po[pi] = earliest;
                    self.pj[pi] = worst.saturating_sub(earliest);
                }
                // Outgoing message legs of p.
                let outgoing: Vec<MessageId> =
                    app.successors(p).iter().filter_map(|e| e.message).collect();
                for m in outgoing {
                    let mi = m.index();
                    let enqueue_earliest = self.po[pi].saturating_add(app.process(p).bcet());
                    let enqueue_jitter = self.pr[pi].saturating_sub(app.process(p).bcet());
                    match self.route[mi] {
                        MessageRoute::TtcToTtc => {
                            self.arrival[mi] = self.frame_arrival(m);
                        }
                        MessageRoute::TtcToEtc => {
                            // MBI arrival is deterministic; the gateway
                            // transfer process adds its response time as
                            // jitter (paper: J_m1 = r_T).
                            self.can_o[mi] = self.frame_arrival(m);
                            self.can_j[mi] = r_transfer;
                        }
                        MessageRoute::EtcToEtc => {
                            self.can_o[mi] = enqueue_earliest;
                            self.can_j[mi] = enqueue_jitter;
                        }
                        MessageRoute::EtcToTtc => {
                            self.can_o[mi] = enqueue_earliest;
                            self.can_j[mi] = enqueue_jitter;
                            // Earliest FIFO entry: after the CAN wire time;
                            // worst: after the CAN leg response plus the
                            // transfer process.
                            self.ttp_o[mi] = enqueue_earliest.saturating_add(self.can_c[mi]);
                            self.ttp_j[mi] = self.can_r[mi]
                                .saturating_sub(self.can_c[mi])
                                .saturating_add(r_transfer);
                        }
                    }
                }
            }
        }
    }

    fn frame_arrival(&self, m: MessageId) -> Time {
        self.schedule
            .frame(m)
            .map(|f| f.arrival)
            .unwrap_or(Time::ZERO)
    }

    /// CAN queuing delays over every message with a CAN leg (they all share
    /// the one bus, including frames produced by the gateway).
    fn can_pass(&mut self) {
        let app = &self.system.application;
        let ids: Vec<usize> = (0..app.messages().len())
            .filter(|&mi| self.route[mi].uses_can())
            .collect();
        let flows: Vec<CanFlow> = ids.iter().map(|&mi| self.can_flow(mi)).collect();
        let delays = mcs_can::queuing_delays(&flows, self.horizon);
        for (k, &mi) in ids.iter().enumerate() {
            let w = match delays[k] {
                Some(w) => w,
                None => {
                    self.diverged = true;
                    self.horizon
                }
            };
            self.can_w[mi] = w;
            self.can_r[mi] = self.can_j[mi]
                .saturating_add(w)
                .saturating_add(self.can_c[mi]);
            if !matches!(self.route[mi], MessageRoute::EtcToTtc) {
                self.arrival[mi] = self.can_o[mi].saturating_add(self.can_r[mi]);
            }
        }
    }

    fn can_flow(&self, mi: usize) -> CanFlow {
        let app = &self.system.application;
        let m = &app.messages()[mi];
        CanFlow {
            priority: self.msg_priority[mi]
                .expect("validated configuration assigns CAN priorities"),
            period: app.message_period(m.id()),
            jitter: self.can_j[mi],
            offset: self.can_o[mi],
            transaction: Some(self.phase_group[m.graph().index()]),
            transmission: self.can_c[mi],
            size_bytes: m.size_bytes(),
            response: self.can_r[mi],
        }
    }

    /// `Out_TTP` FIFO delays of ETC→TTC messages.
    fn fifo_pass(&mut self) {
        let app = &self.system.application;
        let ids: Vec<usize> = (0..app.messages().len())
            .filter(|&mi| matches!(self.route[mi], MessageRoute::EtcToTtc))
            .collect();
        let flows: Vec<FifoFlow> = ids
            .iter()
            .map(|&mi| {
                let m = &app.messages()[mi];
                FifoFlow {
                    rank: self.msg_priority[mi]
                        .map(|p| u64::from(p.level()))
                        .expect("validated configuration assigns CAN priorities"),
                    period: app.message_period(m.id()),
                    jitter: self.ttp_j[mi],
                    offset: self.ttp_o[mi],
                    transaction: Some(self.phase_group[m.graph().index()]),
                    size_bytes: m.size_bytes(),
                    response: self.ttp_r[mi],
                }
            })
            .collect();
        let delays: Vec<Option<mcs_core::FifoDelay>> = (0..flows.len())
            .map(|k| match self.fifo_bound {
                FifoBound::PaperClosedForm => fifo_delay(&flows, k, &self.ttp_queue, self.horizon),
                FifoBound::SlotOccurrence => {
                    fifo_delay_occurrence(&flows, k, &self.ttp_queue, self.horizon)
                }
            })
            .collect();
        for (k, &mi) in ids.iter().enumerate() {
            let (w, backlog) = match delays[k] {
                Some(d) => (d.delay.saturating_add(self.grid_slack), d.backlog),
                None => {
                    self.diverged = true;
                    (self.horizon, flows[k].size_bytes.into())
                }
            };
            self.ttp_w[mi] = w;
            self.backlog[mi] = backlog;
            self.ttp_r[mi] = self.ttp_j[mi]
                .saturating_add(w)
                .saturating_add(self.ttp_queue.slot_duration);
            self.arrival[mi] = self.ttp_o[mi].saturating_add(self.ttp_r[mi]);
        }
    }

    /// Preemption delays of processes sharing each ET CPU; the gateway CPU
    /// additionally hosts the transfer process `T` at the highest rank.
    fn cpu_pass(&mut self) {
        let app = &self.system.application;
        let arch = &self.system.architecture;
        let mut by_node: HashMap<NodeId, Vec<ProcessId>> = HashMap::new();
        for p in app.processes() {
            if arch.is_et_cpu(p.node()) {
                by_node.entry(p.node()).or_default().push(p.id());
            }
        }
        for (node, procs) in by_node {
            let mut tasks: Vec<TaskFlow> = procs
                .iter()
                .map(|&p| {
                    let proc = app.process(p);
                    TaskFlow {
                        rank: app_rank(
                            self.config
                                .priorities
                                .process(p)
                                .expect("validated configuration assigns ET priorities"),
                        ),
                        period: app.process_period(p),
                        jitter: self.pj[p.index()],
                        offset: self.po[p.index()],
                        transaction: Some(self.phase_group[proc.graph().index()]),
                        wcet: proc.wcet(),
                        blocking: proc.blocking(),
                        response: self.pr[p.index()],
                    }
                })
                .collect();
            if node == arch.gateway() {
                tasks.push(TaskFlow {
                    rank: TRANSFER_RANK,
                    period: self.system.gateway.transfer_period,
                    jitter: Time::ZERO,
                    offset: Time::ZERO,
                    transaction: None,
                    wcet: self.system.gateway.transfer_wcet,
                    blocking: Time::ZERO,
                    response: self.system.gateway.transfer_wcet,
                });
            }
            let delays = interference_delays(&tasks, self.horizon);
            for (k, &p) in procs.iter().enumerate() {
                let w = match delays[k] {
                    Some(w) => w,
                    None => {
                        self.diverged = true;
                        self.horizon
                    }
                };
                let pi = p.index();
                self.pw[pi] = w;
                self.pr[pi] = self.pj[pi]
                    .saturating_add(w)
                    .saturating_add(app.process(p).wcet());
            }
        }
    }

    /// Buffer bounds for `Out_CAN`, `Out_TTP` and every `Out_Ni`.
    fn queue_bounds(&self) -> QueueBounds {
        let app = &self.system.application;
        let arch = &self.system.architecture;
        let mut bounds = QueueBounds::default();

        // Out_CAN holds TTC→ETC traffic queued by the gateway.
        let out_can_ids: Vec<usize> = (0..app.messages().len())
            .filter(|&mi| matches!(self.route[mi], MessageRoute::TtcToEtc))
            .collect();
        bounds.out_can = self.priority_queue_bound(&out_can_ids);

        // Out_Ni holds the CAN traffic originated by each CAN-sending node.
        for node in arch.can_nodes() {
            let ids: Vec<usize> = (0..app.messages().len())
                .filter(|&mi| {
                    self.route[mi].uses_can()
                        && !matches!(self.route[mi], MessageRoute::TtcToEtc)
                        && app.process(app.messages()[mi].source()).node() == node.id()
                })
                .collect();
            if !ids.is_empty() {
                bounds
                    .out_node
                    .insert(node.id(), self.priority_queue_bound(&ids));
            }
        }

        // Out_TTP: the FIFO bound.
        let fifo: Vec<_> = (0..app.messages().len())
            .filter(|&mi| matches!(self.route[mi], MessageRoute::EtcToTtc))
            .map(|mi| {
                Some(mcs_core::FifoDelay {
                    delay: self.ttp_w[mi],
                    backlog: self.backlog[mi],
                })
            })
            .collect();
        bounds.out_ttp = fifo_size_bound(&fifo);
        bounds
    }

    fn priority_queue_bound(&self, ids: &[usize]) -> u64 {
        let flows: Vec<CanFlow> = ids.iter().map(|&mi| self.can_flow(mi)).collect();
        let delays: Vec<Option<Time>> = ids.iter().map(|&mi| Some(self.can_w[mi])).collect();
        mcs_can::queue_size_bound(&flows, &delays, self.horizon)
    }

    fn into_result(self, queues: QueueBounds) -> HolisticResult {
        let app = &self.system.application;
        let process: Vec<EntityTiming> = (0..app.processes().len())
            .map(|i| EntityTiming {
                offset: self.po[i],
                jitter: self.pj[i],
                delay: self.pw[i],
                response: self.pr[i],
            })
            .collect();
        let message: Vec<MessageTiming> = (0..app.messages().len())
            .map(|mi| {
                let can = self.route[mi].uses_can().then_some(EntityTiming {
                    offset: self.can_o[mi],
                    jitter: self.can_j[mi],
                    delay: self.can_w[mi],
                    response: self.can_r[mi],
                });
                let ttp =
                    matches!(self.route[mi], MessageRoute::EtcToTtc).then_some(EntityTiming {
                        offset: self.ttp_o[mi],
                        jitter: self.ttp_j[mi],
                        delay: self.ttp_w[mi],
                        response: self.ttp_r[mi],
                    });
                MessageTiming {
                    can,
                    ttp,
                    arrival: self.arrival[mi],
                }
            })
            .collect();
        HolisticResult {
            process,
            message,
            queues,
            converged: !self.diverged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_core::Evaluator;
    use mcs_gen::{generate, GeneratorParams};
    use mcs_opt::{hopa_priorities, straightforward_config};

    /// The reused evaluator must reproduce the seed implementation's
    /// results bit-for-bit (δΓ, s_total, timings, queue bounds, schedule).
    #[test]
    fn seed_and_reused_evaluator_agree() {
        let params = AnalysisParams::default();
        for seed in [3u64, 17] {
            let system = generate(&GeneratorParams::paper_sized(2, seed));
            let mut config = straightforward_config(&system);
            config.priorities = hopa_priorities(&system, &config.tdma);
            let (degree, buffers, outcome) =
                seed_evaluate(&system, config.clone(), &params).expect("analyzable");
            let mut evaluator = Evaluator::new(&system, params);
            // Evaluate twice: the second run exercises the warm caches.
            evaluator.evaluate(&config).expect("analyzable");
            let summary = evaluator.evaluate(&config).expect("analyzable");
            assert_eq!(summary.degree, degree);
            assert_eq!(summary.total_buffers, buffers);
            let new_outcome = evaluator.outcome();
            assert_eq!(new_outcome.schedule, outcome.schedule);
            assert_eq!(new_outcome.process_timing, outcome.process_timing);
            assert_eq!(new_outcome.message_timing, outcome.message_timing);
            assert_eq!(new_outcome.queues, outcome.queues);
            assert_eq!(new_outcome.graph_response, outcome.graph_response);
            assert_eq!(new_outcome.converged, outcome.converged);
            assert_eq!(new_outcome.iterations, outcome.iterations);
        }
    }
}
