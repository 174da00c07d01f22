//! # mcs-ttp
//!
//! TTP/TDMA substrate for the multi-cluster analysis: round/slot timing
//! ([`RoundSchedule`]), the static schedule representation — per-node
//! schedule tables and MEDLs ([`TtcSchedule`]) — and the list scheduler that
//! builds them ([`list_schedule`]).
//!
//! # Examples
//!
//! ```
//! use mcs_model::{NodeId, SlotId, TdmaConfig, TdmaSlot, Time, TtpBusParams};
//! use mcs_ttp::RoundSchedule;
//!
//! let config = TdmaConfig::new(vec![
//!     TdmaSlot { node: NodeId::new(2), capacity_bytes: 8 },
//!     TdmaSlot { node: NodeId::new(0), capacity_bytes: 8 },
//! ]);
//! let params = TtpBusParams::new(Time::from_micros(2_500), Time::ZERO);
//! let rounds = RoundSchedule::new(&config, params);
//! // Node N0's slot is the second 20 ms slot of each 40 ms round.
//! let occ = rounds.next_occurrence(SlotId::new(1), Time::from_millis(30));
//! assert_eq!(occ.start, Time::from_millis(60));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod list_scheduler;
mod rounds;
mod schedule;

pub use list_scheduler::{
    critical_path_priorities_into, list_schedule, list_schedule_dense_into, DenseSchedulerInput,
    ScheduleError, SchedulerInput,
};
pub use rounds::{RoundSchedule, SlotOccurrence};
pub use schedule::{FramePlacement, TtcSchedule};
