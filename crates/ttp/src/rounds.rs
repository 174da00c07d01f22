//! Timing queries over the TDMA round structure of the TTP bus.
//!
//! A TDMA round is the fixed sequence of slots configured in a
//! [`TdmaConfig`]; rounds repeat back to back forever. These helpers answer
//! "when does node N's slot next start/end at or after time t", which is the
//! primitive the simulator and the schedule renderer are built on. (The
//! list scheduler times its slots once per pass into a table of its own,
//! with the same arithmetic.)

use mcs_model::{NodeId, SlotId, TdmaConfig, Time, TtpBusParams};

/// A concrete occurrence of a slot on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotOccurrence {
    /// Which slot of the round this is.
    pub slot: SlotId,
    /// Index of the round (0-based since time 0).
    pub round: u64,
    /// Wire start time of the occurrence.
    pub start: Time,
    /// Wire end time of the occurrence (start of the next slot).
    pub end: Time,
}

/// Read-only view combining a TDMA configuration with bus parameters.
#[derive(Clone, Copy, Debug)]
pub struct RoundSchedule<'a> {
    config: &'a TdmaConfig,
    params: TtpBusParams,
}

impl<'a> RoundSchedule<'a> {
    /// Creates a view over `config` with wire timing from `params`.
    pub fn new(config: &'a TdmaConfig, params: TtpBusParams) -> Self {
        RoundSchedule { config, params }
    }

    /// The TDMA round duration `T_TDMA`.
    pub fn round_duration(&self) -> Time {
        self.config.round_duration(&self.params)
    }

    /// The underlying configuration.
    pub fn config(&self) -> &TdmaConfig {
        self.config
    }

    /// Offset of `slot`'s start within a round.
    pub fn slot_offset(&self, slot: SlotId) -> Time {
        self.config.slot_offset(slot, &self.params)
    }

    /// Duration of `slot` on the wire.
    pub fn slot_duration(&self, slot: SlotId) -> Time {
        self.config.slot_duration(slot, &self.params)
    }

    /// Byte capacity of `slot`.
    pub fn slot_capacity(&self, slot: SlotId) -> u32 {
        self.config.slots()[slot.index()].capacity_bytes
    }

    /// The slot owned by `node`, if any.
    pub fn slot_of_node(&self, node: NodeId) -> Option<SlotId> {
        self.config.slot_of_node(node).map(|(id, _)| id)
    }

    /// The first occurrence of `slot` whose *start* is at or after `t`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or the round is empty.
    pub fn next_occurrence(&self, slot: SlotId, t: Time) -> SlotOccurrence {
        let round_len = self.round_duration();
        assert!(!round_len.is_zero(), "empty TDMA round");
        let offset = self.slot_offset(slot);
        let duration = self.slot_duration(slot);
        // Smallest k with k*round + offset >= t.
        let round = if t <= offset {
            0
        } else {
            (t - offset).div_ceil(round_len)
        };
        let start = round_len.saturating_mul(round) + offset;
        SlotOccurrence {
            slot,
            round,
            start,
            end: start + duration,
        }
    }

    /// The occurrence of `slot` in round number `round` (0-based).
    ///
    /// This is the nominal (drift-free) wire timing; [`Self::next_occurrence`]
    /// at the returned `start` yields the same occurrence.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn occurrence(&self, slot: SlotId, round: u64) -> SlotOccurrence {
        let round_len = self.round_duration();
        let start = round_len.saturating_mul(round) + self.slot_offset(slot);
        SlotOccurrence {
            slot,
            round,
            start,
            end: start + self.slot_duration(slot),
        }
    }

    /// The `n`-th occurrence after a given occurrence (same slot).
    pub fn advance(&self, occ: SlotOccurrence, n: u64) -> SlotOccurrence {
        let round_len = self.round_duration();
        SlotOccurrence {
            slot: occ.slot,
            round: occ.round + n,
            start: occ.start + round_len.saturating_mul(n),
            end: occ.end + round_len.saturating_mul(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_model::TdmaSlot;

    fn fixture() -> (TdmaConfig, TtpBusParams) {
        // Two slots of 20 ms each (figure 4): S_G then S_1, round = 40 ms.
        // byte_time 2.5 ms, 8-byte capacity, no overhead.
        let params = TtpBusParams::new(Time::from_micros(2_500), Time::ZERO);
        let config = TdmaConfig::new(vec![
            TdmaSlot {
                node: NodeId::new(2),
                capacity_bytes: 8,
            },
            TdmaSlot {
                node: NodeId::new(0),
                capacity_bytes: 8,
            },
        ]);
        (config, params)
    }

    #[test]
    fn figure4_round_timing() {
        let (config, params) = fixture();
        let rs = RoundSchedule::new(&config, params);
        assert_eq!(rs.round_duration(), Time::from_millis(40));
        assert_eq!(rs.slot_offset(SlotId::new(0)), Time::ZERO);
        assert_eq!(rs.slot_offset(SlotId::new(1)), Time::from_millis(20));
        assert_eq!(rs.slot_duration(SlotId::new(1)), Time::from_millis(20));
        assert_eq!(rs.slot_of_node(NodeId::new(0)), Some(SlotId::new(1)));
        assert_eq!(rs.slot_of_node(NodeId::new(7)), None);
    }

    #[test]
    fn next_occurrence_at_or_after() {
        let (config, params) = fixture();
        let rs = RoundSchedule::new(&config, params);
        let s1 = SlotId::new(1);
        // At t=0 the first S1 occurrence is [20, 40).
        let occ = rs.next_occurrence(s1, Time::ZERO);
        assert_eq!(occ.round, 0);
        assert_eq!(occ.start, Time::from_millis(20));
        assert_eq!(occ.end, Time::from_millis(40));
        // Exactly at the slot start: still this occurrence.
        let occ = rs.next_occurrence(s1, Time::from_millis(20));
        assert_eq!(occ.round, 0);
        // One tick later: the next round's occurrence, ending at 80 —
        // the paper's "m1 available at the end of slot S1 in round 2".
        let occ = rs.next_occurrence(s1, Time::from_micros(20_001));
        assert_eq!(occ.round, 1);
        assert_eq!(occ.start, Time::from_millis(60));
        assert_eq!(occ.end, Time::from_millis(80));
    }

    #[test]
    fn occurrence_by_round_matches_next_occurrence() {
        let (config, params) = fixture();
        let rs = RoundSchedule::new(&config, params);
        for slot in [SlotId::new(0), SlotId::new(1)] {
            for round in 0..10 {
                let occ = rs.occurrence(slot, round);
                assert_eq!(occ, rs.next_occurrence(slot, occ.start));
            }
        }
    }

    #[test]
    fn advance_moves_whole_rounds() {
        let (config, params) = fixture();
        let rs = RoundSchedule::new(&config, params);
        let occ = rs.next_occurrence(SlotId::new(0), Time::ZERO);
        let later = rs.advance(occ, 3);
        assert_eq!(later.round, 3);
        assert_eq!(later.start, Time::from_millis(120));
        assert_eq!(later.end, Time::from_millis(140));
    }

    #[test]
    fn occurrences_never_overlap_for_distinct_slots() {
        let (config, params) = fixture();
        let rs = RoundSchedule::new(&config, params);
        for t in (0..200).map(Time::from_millis) {
            let a = rs.next_occurrence(SlotId::new(0), t);
            let b = rs.next_occurrence(SlotId::new(1), t);
            assert!(a.end <= b.start || b.end <= a.start);
        }
    }
}
