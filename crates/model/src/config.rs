//! The system configuration ψ = ⟨φ, β, π⟩ (paper §3).
//!
//! * β — the TDMA bus configuration: slot sequence and slot sizes
//!   ([`TdmaConfig`]).
//! * π — priorities of ET processes and messages ([`PriorityAssignment`]).
//! * φ — the offsets; these are an *output* of the analysis
//!   (`mcs-core::MultiClusterScheduling`), but the hill-climbing optimizer
//!   pins individual offsets inside their [ASAP, ALAP] windows through
//!   [`OffsetConstraints`].

use std::collections::HashMap;
use std::fmt;

use crate::architecture::{Architecture, TtpBusParams};
use crate::error::ConfigError;
use crate::ids::{MessageId, NodeId, ProcessId, SlotId};
use crate::time::Time;

/// A fixed priority. **Lower values are higher priority**, matching CAN frame
/// identifiers where the numerically smallest identifier wins arbitration.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Priority(u32);

impl Priority {
    /// The highest possible priority.
    pub const HIGHEST: Priority = Priority(0);

    /// Creates a priority from its numeric level (lower = more urgent).
    pub const fn new(level: u32) -> Self {
        Priority(level)
    }

    /// The numeric level.
    pub const fn level(self) -> u32 {
        self.0
    }

    /// Returns `true` if `self` is strictly more urgent than `other`.
    pub fn is_higher_than(self, other: Priority) -> bool {
        self.0 < other.0
    }
}

impl fmt::Debug for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prio{}", self.0)
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One TDMA slot: a node and its byte capacity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TdmaSlot {
    /// The node transmitting in this slot.
    pub node: NodeId,
    /// Payload capacity of the slot in bytes (`size_Si`).
    pub capacity_bytes: u32,
}

/// The TDMA bus configuration β: the ordered sequence of slots in a round.
///
/// Each TTP node (including the gateway) owns exactly one slot per round.
///
/// # Examples
///
/// ```
/// use mcs_model::{TdmaConfig, TdmaSlot, NodeId, TtpBusParams, Time};
///
/// let cfg = TdmaConfig::new(vec![
///     TdmaSlot { node: NodeId::new(2), capacity_bytes: 8 }, // S_G first
///     TdmaSlot { node: NodeId::new(0), capacity_bytes: 8 },
/// ]);
/// let params = TtpBusParams::new(Time::from_micros(8), Time::ZERO);
/// assert_eq!(cfg.round_duration(&params), Time::from_micros(128));
/// assert!(cfg.slot_of_node(NodeId::new(0)).is_some());
/// ```
#[derive(Debug, PartialEq, Eq, Default)]
pub struct TdmaConfig {
    slots: Vec<TdmaSlot>,
}

impl Clone for TdmaConfig {
    fn clone(&self) -> Self {
        TdmaConfig {
            slots: self.slots.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        // Reuses the slot vector's allocation (hot path: search loops
        // snapshotting configurations).
        self.slots.clone_from(&source.slots);
    }
}

impl TdmaConfig {
    /// Creates a configuration from an ordered slot sequence.
    pub fn new(slots: Vec<TdmaSlot>) -> Self {
        TdmaConfig { slots }
    }

    /// The ordered slots of one round.
    pub fn slots(&self) -> &[TdmaSlot] {
        &self.slots
    }

    /// Mutable access to the slots (used by optimizer moves).
    pub fn slots_mut(&mut self) -> &mut [TdmaSlot] {
        &mut self.slots
    }

    /// Number of slots in a round.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The slot owned by `node`, if any.
    pub fn slot_of_node(&self, node: NodeId) -> Option<(SlotId, TdmaSlot)> {
        self.slots
            .iter()
            .enumerate()
            .find(|(_, s)| s.node == node)
            .map(|(i, s)| (SlotId::new(i as u32), *s))
    }

    /// Swaps the positions of two slots (an optimizer move).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn swap_slots(&mut self, a: SlotId, b: SlotId) {
        self.slots.swap(a.index(), b.index());
    }

    /// Duration of the slot at `slot` under the given bus parameters.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn slot_duration(&self, slot: SlotId, params: &TtpBusParams) -> Time {
        params.slot_duration(self.slots[slot.index()].capacity_bytes)
    }

    /// Offset of the start of `slot` within a round.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn slot_offset(&self, slot: SlotId, params: &TtpBusParams) -> Time {
        self.slots[..slot.index()]
            .iter()
            .map(|s| params.slot_duration(s.capacity_bytes))
            .sum()
    }

    /// Duration of one full TDMA round, `T_TDMA`.
    pub fn round_duration(&self, params: &TtpBusParams) -> Time {
        self.slots
            .iter()
            .map(|s| params.slot_duration(s.capacity_bytes))
            .sum()
    }

    /// Validates the configuration against an architecture: every TTP node
    /// has exactly one non-empty slot.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violation found.
    pub fn validate(&self, arch: &Architecture) -> Result<(), ConfigError> {
        let mut seen: HashMap<NodeId, ()> = HashMap::new();
        for slot in &self.slots {
            if !arch.contains_node(slot.node) || !arch.node(slot.node).role().on_ttp() {
                return Err(ConfigError::SlotForNonTtpNode(slot.node));
            }
            if slot.capacity_bytes == 0 {
                return Err(ConfigError::ZeroCapacitySlot(slot.node));
            }
            if seen.insert(slot.node, ()).is_some() {
                return Err(ConfigError::DuplicateSlot(slot.node));
            }
        }
        for node in arch.ttp_nodes() {
            if !seen.contains_key(&node.id()) {
                return Err(ConfigError::MissingSlot(node.id()));
            }
        }
        Ok(())
    }
}

/// The priority assignment π for ET processes and messages.
///
/// Priorities must be unique per scheduling resource: among processes sharing
/// an ET CPU, and among all frames on the CAN bus.
///
/// Stored densely by id (ids are dense model indices), so lookups, equality
/// and snapshots hash nothing. Entries are only ever set, never removed, so
/// a table ends at its highest assigned id: two assignments with the same
/// entries have equal tables whatever order the entries were set in.
#[derive(Debug, PartialEq, Eq, Default)]
pub struct PriorityAssignment {
    processes: Vec<Option<Priority>>,
    messages: Vec<Option<Priority>>,
}

impl Clone for PriorityAssignment {
    fn clone(&self) -> Self {
        PriorityAssignment {
            processes: self.processes.clone(),
            messages: self.messages.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.processes.clone_from(&source.processes);
        self.messages.clone_from(&source.messages);
    }
}

/// Sets `table[index]`, growing the table as needed.
fn set_dense<T: Copy>(table: &mut Vec<Option<T>>, index: usize, value: T) {
    if index >= table.len() {
        table.resize(index + 1, None);
    }
    table[index] = Some(value);
}

impl PriorityAssignment {
    /// Creates an empty assignment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the priority of a process.
    pub fn set_process(&mut self, process: ProcessId, priority: Priority) -> &mut Self {
        set_dense(&mut self.processes, process.index(), priority);
        self
    }

    /// Sets the priority of a message.
    pub fn set_message(&mut self, message: MessageId, priority: Priority) -> &mut Self {
        set_dense(&mut self.messages, message.index(), priority);
        self
    }

    /// The priority of a process, if assigned.
    pub fn process(&self, process: ProcessId) -> Option<Priority> {
        self.processes.get(process.index()).copied().flatten()
    }

    /// The priority of a message, if assigned.
    pub fn message(&self, message: MessageId) -> Option<Priority> {
        self.messages.get(message.index()).copied().flatten()
    }

    /// Swaps the priorities of two processes (an optimizer move).
    ///
    /// Missing entries are treated as an error in validation, not here; the
    /// swap is a no-op when either side is unassigned.
    pub fn swap_processes(&mut self, a: ProcessId, b: ProcessId) {
        if self.process(a).is_some() && self.process(b).is_some() {
            self.processes.swap(a.index(), b.index());
        }
    }

    /// Swaps the priorities of two messages (an optimizer move).
    pub fn swap_messages(&mut self, a: MessageId, b: MessageId) {
        if self.message(a).is_some() && self.message(b).is_some() {
            self.messages.swap(a.index(), b.index());
        }
    }

    /// Number of assigned process priorities.
    pub fn process_count(&self) -> usize {
        self.processes.iter().flatten().count()
    }

    /// Number of assigned message priorities.
    pub fn message_count(&self) -> usize {
        self.messages.iter().flatten().count()
    }
}

/// Offset pins used by the resource optimizer: minimum start times for TT
/// processes and TTC messages inside their [ASAP, ALAP] windows.
///
/// The static scheduler treats a pinned entity as "not ready before the pin",
/// which realizes the paper's *move a process/message inside its
/// [ASAP, ALAP] interval* design transformation.
///
/// Pins are few, so they are kept sparse: one list per entity kind, sorted
/// by id, which makes equality order-independent and hash-free.
#[derive(Debug, PartialEq, Eq, Default)]
pub struct OffsetConstraints {
    processes: Vec<(ProcessId, Time)>,
    messages: Vec<(MessageId, Time)>,
}

impl Clone for OffsetConstraints {
    fn clone(&self) -> Self {
        OffsetConstraints {
            processes: self.processes.clone(),
            messages: self.messages.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.processes.clone_from(&source.processes);
        self.messages.clone_from(&source.messages);
    }
}

/// Inserts or replaces the pin of `id` in an id-sorted pin list.
fn pin<I: Ord + Copy>(pins: &mut Vec<(I, Time)>, id: I, at: Time) {
    match pins.binary_search_by_key(&id, |&(i, _)| i) {
        Ok(k) => pins[k].1 = at,
        Err(k) => pins.insert(k, (id, at)),
    }
}

/// Removes the pin of `id` from an id-sorted pin list, if present.
fn unpin<I: Ord + Copy>(pins: &mut Vec<(I, Time)>, id: I) {
    if let Ok(k) = pins.binary_search_by_key(&id, |&(i, _)| i) {
        pins.remove(k);
    }
}

/// The pin of `id` in an id-sorted pin list.
fn pinned<I: Ord + Copy>(pins: &[(I, Time)], id: I) -> Option<Time> {
    pins.binary_search_by_key(&id, |&(i, _)| i)
        .ok()
        .map(|k| pins[k].1)
}

impl OffsetConstraints {
    /// Creates an empty (unconstrained) set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pins the earliest start of a TT process.
    pub fn pin_process(&mut self, process: ProcessId, not_before: Time) -> &mut Self {
        pin(&mut self.processes, process, not_before);
        self
    }

    /// Pins the earliest transmission of a TTC message.
    pub fn pin_message(&mut self, message: MessageId, not_before: Time) -> &mut Self {
        pin(&mut self.messages, message, not_before);
        self
    }

    /// Removes the pin on a process.
    pub fn unpin_process(&mut self, process: ProcessId) -> &mut Self {
        unpin(&mut self.processes, process);
        self
    }

    /// Removes the pin on a message.
    pub fn unpin_message(&mut self, message: MessageId) -> &mut Self {
        unpin(&mut self.messages, message);
        self
    }

    /// The pin on a process, if any.
    pub fn process(&self, process: ProcessId) -> Option<Time> {
        pinned(&self.processes, process)
    }

    /// The pin on a message, if any.
    pub fn message(&self, message: MessageId) -> Option<Time> {
        pinned(&self.messages, message)
    }

    /// Returns `true` if no entity is pinned.
    pub fn is_empty(&self) -> bool {
        self.processes.is_empty() && self.messages.is_empty()
    }
}

/// The complete system configuration ψ = ⟨φ, β, π⟩ explored by the synthesis
/// heuristics. φ is represented by its constraints; the realized offsets are
/// computed by `MultiClusterScheduling`.
#[derive(Debug, PartialEq, Default)]
pub struct SystemConfig {
    /// The TDMA bus configuration β.
    pub tdma: TdmaConfig,
    /// The ET priority assignment π.
    pub priorities: PriorityAssignment,
    /// Offset pins realizing φ-moves of the resource optimizer.
    pub offsets: OffsetConstraints,
}

impl Clone for SystemConfig {
    fn clone(&self) -> Self {
        SystemConfig {
            tdma: self.tdma.clone(),
            priorities: self.priorities.clone(),
            offsets: self.offsets.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.tdma.clone_from(&source.tdma);
        self.priorities.clone_from(&source.priorities);
        self.offsets.clone_from(&source.offsets);
    }
}

impl SystemConfig {
    /// Creates a configuration from a TDMA layout and priorities, with no
    /// offset pins.
    pub fn new(tdma: TdmaConfig, priorities: PriorityAssignment) -> Self {
        SystemConfig {
            tdma,
            priorities,
            offsets: OffsetConstraints::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::architecture::NodeRole;

    fn arch3() -> Architecture {
        let mut b = Architecture::builder();
        b.add_node("N1", NodeRole::TimeTriggered);
        b.add_node("N2", NodeRole::EventTriggered);
        b.add_node("NG", NodeRole::Gateway);
        b.build().expect("valid")
    }

    #[test]
    fn priority_ordering_matches_can_semantics() {
        assert!(Priority::new(1).is_higher_than(Priority::new(5)));
        assert!(!Priority::new(5).is_higher_than(Priority::new(5)));
        assert_eq!(Priority::HIGHEST.level(), 0);
    }

    #[test]
    fn slot_offsets_and_round_duration() {
        let params = TtpBusParams::new(Time::from_micros(10), Time::from_micros(5));
        let cfg = TdmaConfig::new(vec![
            TdmaSlot {
                node: NodeId::new(2),
                capacity_bytes: 4,
            },
            TdmaSlot {
                node: NodeId::new(0),
                capacity_bytes: 8,
            },
        ]);
        assert_eq!(cfg.slot_offset(SlotId::new(0), &params), Time::ZERO);
        assert_eq!(
            cfg.slot_offset(SlotId::new(1), &params),
            Time::from_micros(45)
        );
        assert_eq!(cfg.round_duration(&params), Time::from_micros(45 + 85));
        assert_eq!(
            cfg.slot_duration(SlotId::new(1), &params),
            Time::from_micros(85)
        );
    }

    #[test]
    fn validation_requires_one_slot_per_ttp_node() {
        let arch = arch3();
        let ok = TdmaConfig::new(vec![
            TdmaSlot {
                node: NodeId::new(0),
                capacity_bytes: 8,
            },
            TdmaSlot {
                node: NodeId::new(2),
                capacity_bytes: 8,
            },
        ]);
        assert_eq!(ok.validate(&arch), Ok(()));

        let missing = TdmaConfig::new(vec![TdmaSlot {
            node: NodeId::new(0),
            capacity_bytes: 8,
        }]);
        assert_eq!(
            missing.validate(&arch),
            Err(ConfigError::MissingSlot(NodeId::new(2)))
        );

        let dup = TdmaConfig::new(vec![
            TdmaSlot {
                node: NodeId::new(0),
                capacity_bytes: 8,
            },
            TdmaSlot {
                node: NodeId::new(0),
                capacity_bytes: 8,
            },
        ]);
        assert_eq!(
            dup.validate(&arch),
            Err(ConfigError::DuplicateSlot(NodeId::new(0)))
        );

        let wrong = TdmaConfig::new(vec![TdmaSlot {
            node: NodeId::new(1),
            capacity_bytes: 8,
        }]);
        assert_eq!(
            wrong.validate(&arch),
            Err(ConfigError::SlotForNonTtpNode(NodeId::new(1)))
        );

        let zero = TdmaConfig::new(vec![TdmaSlot {
            node: NodeId::new(0),
            capacity_bytes: 0,
        }]);
        assert_eq!(
            zero.validate(&arch),
            Err(ConfigError::ZeroCapacitySlot(NodeId::new(0)))
        );
    }

    #[test]
    fn swap_slots_reorders_round() {
        let mut cfg = TdmaConfig::new(vec![
            TdmaSlot {
                node: NodeId::new(0),
                capacity_bytes: 1,
            },
            TdmaSlot {
                node: NodeId::new(2),
                capacity_bytes: 2,
            },
        ]);
        cfg.swap_slots(SlotId::new(0), SlotId::new(1));
        assert_eq!(cfg.slots()[0].node, NodeId::new(2));
        assert_eq!(cfg.slots()[1].node, NodeId::new(0));
    }

    #[test]
    fn priority_swaps() {
        let mut pa = PriorityAssignment::new();
        let (p1, p2) = (ProcessId::new(0), ProcessId::new(1));
        pa.set_process(p1, Priority::new(1));
        pa.set_process(p2, Priority::new(2));
        pa.swap_processes(p1, p2);
        assert_eq!(pa.process(p1), Some(Priority::new(2)));
        assert_eq!(pa.process(p2), Some(Priority::new(1)));

        let (m1, m2) = (MessageId::new(0), MessageId::new(1));
        pa.set_message(m1, Priority::new(3));
        pa.swap_messages(m1, m2); // m2 unassigned: no-op
        assert_eq!(pa.message(m1), Some(Priority::new(3)));
        assert_eq!(pa.message(m2), None);
    }

    #[test]
    fn offset_pins_round_trip() {
        let mut oc = OffsetConstraints::new();
        assert!(oc.is_empty());
        oc.pin_process(ProcessId::new(3), Time::from_millis(10));
        oc.pin_message(MessageId::new(1), Time::from_millis(20));
        assert_eq!(oc.process(ProcessId::new(3)), Some(Time::from_millis(10)));
        assert_eq!(oc.message(MessageId::new(1)), Some(Time::from_millis(20)));
        oc.unpin_process(ProcessId::new(3));
        oc.unpin_message(MessageId::new(1));
        assert!(oc.is_empty());
    }
}
