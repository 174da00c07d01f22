//! Static cyclic scheduling of the time-triggered cluster by list scheduling
//! (paper §4, using the approach of Eles et al., "Scheduling with Bus Access
//! Optimization for Distributed Embedded Systems").
//!
//! The scheduler builds the TTC schedule tables and MEDLs for one activation
//! of every process graph (the hyper-graph assumption of paper §2.1:
//! applications with unequal periods are first combined into hyper-graphs
//! over the LCM). It places
//!
//! * every process mapped on a statically scheduled (TT) CPU, respecting
//!   precedence, CPU exclusivity and exogenous *release* lower bounds — the
//!   worst-case arrival times of messages from the ETC computed by the
//!   response-time analysis, plus any offset pins of the optimizer; and
//! * the TTP leg of every message sent by a TTP node (TTC→TTC traffic and
//!   the first leg of TTC→ETC traffic), packing frames into the sender's
//!   TDMA slot occurrences under the slot's byte capacity.
//!
//! Traffic arriving from the ETC through the gateway's `Out_TTP` FIFO is
//! *not* placed here — its arrival is bounded analytically and enters as a
//! release on the destination process.
//!
//! # Picking the next process
//!
//! Each step commits the ready process minimizing
//! `(max(bound, node_free[node]), Reverse(critical path), id)`: earliest
//! start first, the longer critical path on a tie, then the id. The key is
//! a total order, so the minimum decomposes per TT node, and a node's free
//! time only grows. Each node therefore keeps two heaps: processes whose
//! bound is past its free time wait, keyed by `(bound, Reverse(critical
//! path), id)`; the rest are released and start at the free time, keyed by
//! `(Reverse(critical path), id)`. A node's next process is its released
//! head if any, else its waiting head; a commit moves the waiting processes
//! its node's new free time has passed. The step takes the minimum over the
//! nodes' heads, which is exactly the process a scan of the ready list
//! finds.
//!
//! Frames pack into a slot table timed once per pass: a dense node → slot
//! map, and per slot the bytes used by each occupied round, sorted by round
//! and searched by bisection.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use mcs_model::{MessageId, MessageRoute, NodeId, ProcessId, SlotId, System, TdmaConfig, Time};

use crate::schedule::{FramePlacement, TtcSchedule};

/// Error produced by the list scheduler.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScheduleError {
    /// A TTP-sending node has no TDMA slot in the configuration.
    NoSlotForNode(NodeId),
    /// A message is larger than its sender's slot capacity and cannot be
    /// packed into a single frame.
    MessageTooLarge {
        /// The offending message.
        message: MessageId,
        /// The configured slot capacity of the sender's node.
        capacity: u32,
    },
    /// The TDMA round has zero duration (no slots).
    EmptyRound,
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::NoSlotForNode(n) => {
                write!(f, "node {n} sends on the TTP bus but has no TDMA slot")
            }
            ScheduleError::MessageTooLarge { message, capacity } => {
                write!(
                    f,
                    "message {message} exceeds its sender slot capacity {capacity} B"
                )
            }
            ScheduleError::EmptyRound => write!(f, "the TDMA round has no slots"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Inputs to one static-scheduling pass.
#[derive(Clone, Copy, Debug)]
pub struct SchedulerInput<'a> {
    /// The system being scheduled.
    pub system: &'a System,
    /// The TDMA bus configuration β.
    pub tdma: &'a TdmaConfig,
    /// Exogenous lower bounds on TT process starts: worst-case arrival of
    /// inbound ETC traffic plus optimizer pins. Missing entries mean zero.
    pub process_releases: &'a HashMap<ProcessId, Time>,
    /// Exogenous lower bounds on message transmission starts: completion of
    /// ET senders (for frames placed on behalf of the gateway) plus pins.
    pub message_releases: &'a HashMap<MessageId, Time>,
}

/// Inputs to one static-scheduling pass with **dense** release tables,
/// indexed by [`ProcessId::index`]/[`MessageId::index`] (`None` = no bound).
///
/// This is the shape the incremental evaluation pipeline in `mcs-core`
/// drives the scheduler with: dense tables compare in O(n) without hashing,
/// so a schedule↔analysis fixed point detects "no release changed — nothing
/// to rebuild" (the dominant case on the delta-evaluation path, where a
/// whole re-scheduling pass is skipped because no phase group's releases
/// moved) with a plain slice comparison, and the scheduler reads bounds by
/// index instead of hashing.
#[derive(Clone, Copy, Debug)]
pub struct DenseSchedulerInput<'a> {
    /// The system being scheduled.
    pub system: &'a System,
    /// The TDMA bus configuration β.
    pub tdma: &'a TdmaConfig,
    /// Release lower bound per process, by [`ProcessId::index`].
    pub process_releases: &'a [Option<Time>],
    /// Release lower bound per message, by [`MessageId::index`].
    pub message_releases: &'a [Option<Time>],
}

/// Runs list scheduling and returns the TTC schedule.
///
/// # Errors
///
/// Returns [`ScheduleError`] if the TDMA configuration cannot carry the
/// traffic (missing slot, oversized message, empty round).
pub fn list_schedule(input: &SchedulerInput<'_>) -> Result<TtcSchedule, ScheduleError> {
    let app = &input.system.application;
    let mut process_releases = vec![None; app.processes().len()];
    for (&p, &t) in input.process_releases {
        process_releases[p.index()] = Some(t);
    }
    let mut message_releases = vec![None; app.messages().len()];
    for (&m, &t) in input.message_releases {
        message_releases[m.index()] = Some(t);
    }
    let mut priorities = Vec::new();
    critical_path_priorities_into(input.system, input.tdma, &mut priorities);
    let mut schedule = TtcSchedule::new();
    list_schedule_dense_into(
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

/// Reusable form of [`list_schedule`] over a [`DenseSchedulerInput`]: the
/// scheduling entry point of the reusable analysis context. It clears and
/// refills `schedule` in place (keeping its allocations), reads release
/// bounds by index (no hash map is flattened per pass), and takes the
/// critical-path priorities as an input so a caller iterating schedule ↔
/// analysis fixed points computes them once per TDMA configuration instead
/// of once per pass. Each pass allocates its own working state: the
/// per-node ready heaps (see the module docs), the slot table with its
/// per-slot occupancy lists, and the node and predecessor counters.
///
/// # Errors
///
/// Returns [`ScheduleError`] if the TDMA configuration cannot carry the
/// traffic (missing slot, oversized message, empty round). On error the
/// schedule contents are unspecified (partially filled); callers must treat
/// it as garbage until the next successful pass.
pub fn list_schedule_dense_into(
    input: &DenseSchedulerInput<'_>,
    priorities: &[Time],
    schedule: &mut TtcSchedule,
) -> Result<(), ScheduleError> {
    schedule.clear();
    Scheduler::new(input, priorities, schedule)?.run()
}

/// Critical-path list priorities: the longest downstream path of each
/// process, where processes weigh their WCET and cross-node arcs weigh one
/// TDMA round (a uniform communication estimate). Clears and refills
/// `prio`, indexed densely by [`ProcessId::index`].
pub fn critical_path_priorities_into(system: &System, tdma: &TdmaConfig, prio: &mut Vec<Time>) {
    let app = &system.application;
    let comm = tdma.round_duration(&system.architecture.ttp_params());
    prio.clear();
    prio.resize(app.processes().len(), Time::ZERO);
    // Reverse topological order per graph guarantees successors first.
    for graph in app.graphs() {
        for &p in app.topological_order(graph.id()).iter().rev() {
            let downstream = app
                .successors(p)
                .iter()
                .map(|e| {
                    let edge_cost = if e.message.is_some() {
                        comm
                    } else {
                        Time::ZERO
                    };
                    edge_cost + prio[e.dest.index()]
                })
                .fold(Time::ZERO, Time::max);
            prio[p.index()] = app.process(p).wcet() + downstream;
        }
    }
}

/// One slot of the TDMA round, timed once per scheduling pass, with the
/// bytes already packed into its occurrences.
struct SlotState {
    offset: Time,
    duration: Time,
    capacity: u32,
    /// `(round, bytes)` of every occurrence holding a frame, sorted by
    /// round. Sparse, so a release near the horizon costs one entry, not
    /// one per round before it.
    used: Vec<(u64, u32)>,
}

/// The ready TT processes of one node, split by the node's free time (see
/// the module docs).
#[derive(Default)]
struct NodeQueue {
    /// Bound above the node's free time, min-first by
    /// `(bound, Reverse(priority), id)`.
    waiting: BinaryHeap<Reverse<(Time, Reverse<Time>, ProcessId)>>,
    /// Bound at or below the node's free time, max-first by
    /// `(priority, Reverse(id))`.
    released: BinaryHeap<(Time, Reverse<ProcessId>)>,
}

impl NodeQueue {
    /// This node's next process and its start time, given its free time.
    fn head(&self, free: Time) -> Option<(Time, Reverse<Time>, ProcessId)> {
        match self.released.peek() {
            Some(&(prio, Reverse(p))) => Some((free, Reverse(prio), p)),
            None => self.waiting.peek().map(|&Reverse(key)| key),
        }
    }
}

struct Scheduler<'a> {
    input: &'a DenseSchedulerInput<'a>,
    /// Critical-path priority per process (dense index).
    priorities: &'a [Time],
    schedule: &'a mut TtcSchedule,
    /// Earliest idle instant per node (dense index).
    node_free: Vec<Time>,
    /// The TDMA round duration.
    round: Time,
    slots: Vec<SlotState>,
    /// The slot owned by each node (dense index).
    slot_of_node: Vec<Option<SlotId>>,
}

impl<'a> Scheduler<'a> {
    fn new(
        input: &'a DenseSchedulerInput<'a>,
        priorities: &'a [Time],
        schedule: &'a mut TtcSchedule,
    ) -> Result<Self, ScheduleError> {
        if input.tdma.slots().is_empty() {
            return Err(ScheduleError::EmptyRound);
        }
        let params = input.system.architecture.ttp_params();
        let nodes = input.system.architecture.nodes().len();
        let mut slot_of_node = vec![None; nodes];
        let mut slots = Vec::with_capacity(input.tdma.slot_count());
        let mut round = Time::ZERO;
        for (i, slot) in input.tdma.slots().iter().enumerate() {
            // The first slot of a node is the one it sends in.
            if let Some(owner @ None) = slot_of_node.get_mut(slot.node.index()) {
                *owner = Some(SlotId::new(i as u32));
            }
            let duration = params.slot_duration(slot.capacity_bytes);
            slots.push(SlotState {
                offset: round,
                duration,
                capacity: slot.capacity_bytes,
                used: Vec::new(),
            });
            round += duration;
        }
        Ok(Scheduler {
            input,
            priorities,
            schedule,
            node_free: vec![Time::ZERO; nodes],
            round,
            slots,
            slot_of_node,
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
            let route = system.route(message.id());
            if route.uses_ttp()
                && route != MessageRoute::EtcToTtc
                && system.architecture.is_et_cpu(sender_node)
            {
                let release = self.msg_release(message.id());
                self.place_frame(message.id(), sender_node, release)?;
            }
        }

        // TT processes still waiting for their TT-side predecessors.
        let mut remaining: Vec<usize> = vec![0; app.processes().len()];
        let mut unscheduled = 0usize;
        // TT processes whose TT-side predecessors are all committed, queued
        // on their node with their release/precedence bound: once the last
        // predecessor is placed, only the node's free time can still move
        // their start.
        let mut queues: Vec<NodeQueue> = Vec::new();
        queues.resize_with(self.node_free.len(), NodeQueue::default);
        for p in app.processes() {
            if system.architecture.is_tt_cpu(p.node()) {
                let preds = app
                    .predecessors(p.id())
                    .iter()
                    .filter(|e| self.counts_as_tt_pred(e.source))
                    .count();
                remaining[p.id().index()] = preds;
                unscheduled += 1;
                if preds == 0 {
                    self.make_ready(&mut queues, p.id());
                }
            }
        }

        while unscheduled > 0 {
            // Earliest start first; critical path length breaks ties, then
            // the id: the minimum over the nodes' heads.
            let (start, _, p) = queues
                .iter()
                .zip(&self.node_free)
                .filter_map(|(queue, &free)| queue.head(free))
                .min()
                .expect("acyclic validated graph always has a ready TT process");
            // `p` is its node's head: released if any, else waiting.
            let node = app.process(p).node().index();
            let queue = &mut queues[node];
            if queue.released.pop().is_none() {
                queue.waiting.pop();
            }
            self.commit(p, start)?;
            unscheduled -= 1;
            // The node's free time grew: release the waiting processes it
            // passed.
            let free = self.node_free[node];
            let queue = &mut queues[node];
            while let Some(&Reverse((bound, Reverse(prio), q))) = queue.waiting.peek() {
                if bound > free {
                    break;
                }
                queue.waiting.pop();
                queue.released.push((prio, Reverse(q)));
            }
            for e in app.successors(p) {
                let r = &mut remaining[e.dest.index()];
                if *r > 0 {
                    *r -= 1;
                    if *r == 0 {
                        self.make_ready(&mut queues, e.dest);
                    }
                }
            }
        }
        Ok(())
    }

    /// Queues a TT process whose TT-side predecessors are all committed on
    /// its node, released or waiting by its bound.
    fn make_ready(&self, queues: &mut [NodeQueue], p: ProcessId) {
        let bound = self.ready_bound(p);
        let prio = self.priorities[p.index()];
        let node = self.input.system.application.process(p).node().index();
        if bound <= self.node_free[node] {
            queues[node].released.push((prio, Reverse(p)));
        } else {
            queues[node]
                .waiting
                .push(Reverse((bound, Reverse(prio), p)));
        }
    }

    /// A predecessor gates a TT process through the schedule table only if
    /// the predecessor itself is placed by this scheduler.
    fn counts_as_tt_pred(&self, pred: ProcessId) -> bool {
        let node = self.input.system.application.process(pred).node();
        self.input.system.architecture.is_tt_cpu(node)
    }

    /// The start bound of a TT process from its release and its inputs,
    /// once every TT-side predecessor is committed; the process starts at
    /// the later of this and its node's free time.
    fn ready_bound(&self, p: ProcessId) -> Time {
        let system = self.input.system;
        let app = &system.application;
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
        ready
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
        for m in app.successors(p).iter().filter_map(|e| e.message) {
            let route = system.route(m);
            if !route.uses_ttp() || route == MessageRoute::EtcToTtc {
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
            .slot_of_node
            .get(sender_node.index())
            .copied()
            .flatten()
            .ok_or(ScheduleError::NoSlotForNode(sender_node))?;
        let state = &mut self.slots[slot.index()];
        let capacity = state.capacity;
        if size > capacity {
            return Err(ScheduleError::MessageTooLarge { message, capacity });
        }
        assert!(!self.round.is_zero(), "empty TDMA round");
        // The first occurrence starting at or after `ready`, then on past
        // the occurrences already full.
        let mut round = if ready <= state.offset {
            0
        } else {
            (ready - state.offset).div_ceil(self.round)
        };
        let mut i = state.used.partition_point(|&(r, _)| r < round);
        loop {
            match state.used.get_mut(i) {
                Some((r, used)) if *r == round => {
                    if *used + size <= capacity {
                        *used += size;
                        break;
                    }
                    round += 1;
                    i += 1;
                }
                _ => {
                    state.used.insert(i, (round, size));
                    break;
                }
            }
        }
        let slot_start = self.round.saturating_mul(round) + state.offset;
        let arrival = slot_start + state.duration;
        self.schedule.set_frame(
            message,
            FramePlacement {
                slot,
                round,
                slot_start,
                arrival,
            },
        );
        self.schedule.extend_makespan(arrival);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_model::{Application, Architecture, NodeRole, TdmaSlot, TtpBusParams};

    /// Two TT nodes + gateway; byte_time chosen so an 8-byte slot is 20 ms
    /// (figure 4 proportions).
    fn fixture() -> (System, TdmaConfig) {
        let mut b = Architecture::builder();
        let n1 = b.add_node("N1", NodeRole::TimeTriggered);
        let n2 = b.add_node("N2", NodeRole::TimeTriggered);
        let ng = b.add_node("NG", NodeRole::Gateway);
        b.ttp_params(TtpBusParams::new(Time::from_micros(2_500), Time::ZERO));
        let arch = b.build().expect("valid");

        let mut ab = Application::builder();
        let g = ab.add_graph("G", Time::from_millis(500), Time::from_millis(500));
        let p1 = ab.add_process(g, "P1", n1, Time::from_millis(30));
        let p2 = ab.add_process(g, "P2", n2, Time::from_millis(20));
        let p3 = ab.add_process(g, "P3", n1, Time::from_millis(10));
        ab.link(p1, p2, 8); // m0 over TTP
        ab.link(p2, p3, 8); // m1 over TTP
        let app = ab.build(&arch).expect("valid");
        let system = System::new(app, arch);
        let tdma = TdmaConfig::new(vec![
            TdmaSlot {
                node: ng,
                capacity_bytes: 8,
            },
            TdmaSlot {
                node: n1,
                capacity_bytes: 8,
            },
            TdmaSlot {
                node: n2,
                capacity_bytes: 8,
            },
        ]);
        (system, tdma)
    }

    fn empty_releases() -> (HashMap<ProcessId, Time>, HashMap<MessageId, Time>) {
        (HashMap::new(), HashMap::new())
    }

    #[test]
    fn chain_respects_precedence_and_bus_timing() {
        let (system, tdma) = fixture();
        let (pr, mr) = empty_releases();
        let input = SchedulerInput {
            system: &system,
            tdma: &tdma,
            process_releases: &pr,
            message_releases: &mr,
        };
        let s = list_schedule(&input).expect("schedulable");
        let app = &system.application;
        let p1 = ProcessId::new(0);
        let p2 = ProcessId::new(1);
        let p3 = ProcessId::new(2);
        let m0 = MessageId::new(0);
        let m1 = MessageId::new(1);

        assert_eq!(s.start(p1), Some(Time::ZERO));
        // m0 goes in N1's slot (second slot, [20,40) of each 60 ms round)
        // after P1 finishes at 30 -> round 1 occurrence [80, 100).
        let f0 = s.frame(m0).expect("placed");
        assert_eq!(f0.slot_start, Time::from_millis(80));
        assert_eq!(f0.arrival, Time::from_millis(100));
        // P2 starts at the frame arrival.
        assert_eq!(s.start(p2), Some(Time::from_millis(100)));
        // m1 in N2's slot ([40,60)) after P2 finishes at 120 -> [160, 180).
        let f1 = s.frame(m1).expect("placed");
        assert_eq!(f1.arrival, Time::from_millis(180));
        assert_eq!(s.start(p3), Some(Time::from_millis(180)));
        assert_eq!(s.makespan(), Time::from_millis(190));
        assert_eq!(app.process(p3).wcet(), Time::from_millis(10));
    }

    #[test]
    fn releases_delay_processes() {
        let (system, tdma) = fixture();
        let (mut pr, mr) = empty_releases();
        pr.insert(ProcessId::new(0), Time::from_millis(25));
        let input = SchedulerInput {
            system: &system,
            tdma: &tdma,
            process_releases: &pr,
            message_releases: &mr,
        };
        let s = list_schedule(&input).expect("schedulable");
        assert_eq!(s.start(ProcessId::new(0)), Some(Time::from_millis(25)));
    }

    #[test]
    fn cpu_is_exclusive_for_same_node_processes() {
        let mut b = Architecture::builder();
        let n1 = b.add_node("N1", NodeRole::TimeTriggered);
        let ng = b.add_node("NG", NodeRole::Gateway);
        let arch = b.build().expect("valid");
        let mut ab = Application::builder();
        let g = ab.add_graph("G", Time::from_millis(100), Time::from_millis(100));
        // Two independent processes on the same CPU must serialize.
        ab.add_process(g, "a", n1, Time::from_millis(10));
        ab.add_process(g, "b", n1, Time::from_millis(10));
        let app = ab.build(&arch).expect("valid");
        let system = System::new(app, arch);
        let tdma = TdmaConfig::new(vec![
            TdmaSlot {
                node: ng,
                capacity_bytes: 8,
            },
            TdmaSlot {
                node: n1,
                capacity_bytes: 8,
            },
        ]);
        let (pr, mr) = empty_releases();
        let input = SchedulerInput {
            system: &system,
            tdma: &tdma,
            process_releases: &pr,
            message_releases: &mr,
        };
        let s = list_schedule(&input).expect("schedulable");
        let mut starts = [
            s.start(ProcessId::new(0)).expect("scheduled"),
            s.start(ProcessId::new(1)).expect("scheduled"),
        ];
        starts.sort();
        assert_eq!(starts[0], Time::ZERO);
        assert_eq!(starts[1], Time::from_millis(10));
    }

    #[test]
    fn frames_pack_until_capacity_then_spill_to_next_round() {
        let mut b = Architecture::builder();
        let n1 = b.add_node("N1", NodeRole::TimeTriggered);
        let n2 = b.add_node("N2", NodeRole::TimeTriggered);
        let ng = b.add_node("NG", NodeRole::Gateway);
        b.ttp_params(TtpBusParams::new(Time::from_micros(1_000), Time::ZERO));
        let arch = b.build().expect("valid");
        let mut ab = Application::builder();
        let g = ab.add_graph("G", Time::from_millis(500), Time::from_millis(500));
        let src = ab.add_process(g, "src", n1, Time::from_millis(1));
        for i in 0..3 {
            let dst = ab.add_process(g, format!("d{i}"), n2, Time::from_millis(1));
            ab.link(src, dst, 6); // three 6-byte messages, slot capacity 8
        }
        let app = ab.build(&arch).expect("valid");
        let system = System::new(app, arch);
        let tdma = TdmaConfig::new(vec![
            TdmaSlot {
                node: ng,
                capacity_bytes: 8,
            },
            TdmaSlot {
                node: n1,
                capacity_bytes: 8,
            },
            TdmaSlot {
                node: n2,
                capacity_bytes: 8,
            },
        ]);
        let (pr, mr) = empty_releases();
        let input = SchedulerInput {
            system: &system,
            tdma: &tdma,
            process_releases: &pr,
            message_releases: &mr,
        };
        let s = list_schedule(&input).expect("schedulable");
        let mut rounds: Vec<u64> = (0..3)
            .map(|i| s.frame(MessageId::new(i)).expect("placed").round)
            .collect();
        rounds.sort();
        // Only one 6-byte message fits per 8-byte occurrence.
        assert_eq!(rounds, vec![0, 1, 2]);
    }

    #[test]
    fn a_frame_far_past_the_first_round_is_placed_sparsely() {
        // P1 released ~1.9·10^10 rounds out: its frame lands on the first
        // N1 slot after P1 finishes, and occupancy is kept for that round
        // alone, not for every round before it.
        let (system, tdma) = fixture();
        let (mut pr, mr) = empty_releases();
        let far = Time::from_ticks(1 << 50);
        pr.insert(ProcessId::new(0), far);
        let input = SchedulerInput {
            system: &system,
            tdma: &tdma,
            process_releases: &pr,
            message_releases: &mr,
        };
        let s = list_schedule(&input).expect("schedulable");
        let rounds = crate::RoundSchedule::new(&tdma, system.architecture.ttp_params());
        let expected = rounds.next_occurrence(SlotId::new(1), far + Time::from_millis(30));
        let f0 = s.frame(MessageId::new(0)).expect("placed");
        assert_eq!(
            (f0.round, f0.slot_start, f0.arrival),
            (expected.round, expected.start, expected.end)
        );
    }

    #[test]
    fn oversized_message_is_rejected() {
        let (system, tdma) = fixture();
        // Shrink N1's slot below the 8-byte message size.
        let mut small = tdma.clone();
        small.slots_mut()[1].capacity_bytes = 4;
        let (pr, mr) = empty_releases();
        let input = SchedulerInput {
            system: &system,
            tdma: &small,
            process_releases: &pr,
            message_releases: &mr,
        };
        assert_eq!(
            list_schedule(&input).unwrap_err(),
            ScheduleError::MessageTooLarge {
                message: MessageId::new(0),
                capacity: 4
            }
        );
    }

    #[test]
    fn critical_path_orders_longer_chains_first() {
        let (system, tdma) = fixture();
        let mut prio = Vec::new();
        critical_path_priorities_into(&system, &tdma, &mut prio);
        // P1 heads the whole chain: its CP must exceed P3's.
        assert!(prio[0] > prio[2]);
    }

    #[test]
    fn empty_round_is_rejected() {
        let (system, _) = fixture();
        let tdma = TdmaConfig::new(vec![]);
        let (pr, mr) = empty_releases();
        let input = SchedulerInput {
            system: &system,
            tdma: &tdma,
            process_releases: &pr,
            message_releases: &mr,
        };
        assert_eq!(
            list_schedule(&input).unwrap_err(),
            ScheduleError::EmptyRound
        );
    }
}
