//! # mcs-can
//!
//! CAN bus substrate for the multi-cluster analysis: worst-case frame timing
//! with bit stuffing, the priority-queue/arbitration queuing-delay analysis
//! of paper §4.1.1 (extending Tindell/Burns/Wellings' CAN response-time
//! analysis with offsets), and a deterministic arbitration model for the
//! discrete-event simulator.
//!
//! # Examples
//!
//! Worst-case wire time of an 8-byte frame at 500 kbit/s:
//!
//! ```
//! use mcs_can::frame_time;
//! use mcs_model::{CanBusParams, Time};
//!
//! let params = CanBusParams::new(Time::from_micros(2));
//! assert_eq!(frame_time(8, &params), Time::from_micros(270));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arbitration;
mod frame;
mod rta;

pub use arbitration::{Arbiter, Transmission};
pub use frame::{
    frame_bits, frame_time, frames_needed, max_frame_time, message_time, MAX_FRAME_PAYLOAD,
};
pub use rta::{
    blocking_bound, interfering_activations, queue_size_bound, queuing_delay, queuing_delay_from,
    queuing_delay_sorted, queuing_delays, sound_phase, CanFlow,
};
