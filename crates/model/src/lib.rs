//! # mcs-model
//!
//! Application and architecture model for multi-cluster (TTP + CAN)
//! distributed embedded systems, reproducing the system model of
//! *Pop, Eles, Peng — "Schedulability Analysis and Optimization for the
//! Synthesis of Multi-Cluster Distributed Embedded Systems", DATE 2003*.
//!
//! The model has three layers:
//!
//! * the **application** Γ — process graphs with periods and deadlines,
//!   processes with WCETs mapped on nodes, and messages on inter-node arcs
//!   ([`Application`], [`ProcessGraph`], [`Process`], [`Message`]);
//! * the **architecture** — a time-triggered cluster (TTP/TDMA bus), an
//!   event-triggered cluster (CAN bus) and a gateway node bridging them
//!   ([`Architecture`], [`NodeRole`], [`System`]);
//! * the **configuration** ψ = ⟨φ, β, π⟩ explored by synthesis — TDMA slot
//!   sequence/sizes, ET priorities and offset pins ([`SystemConfig`],
//!   [`TdmaConfig`], [`PriorityAssignment`], [`OffsetConstraints`]).
//!
//! # Examples
//!
//! ```
//! use mcs_model::{Application, Architecture, NodeRole, System, Time};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut arch = Architecture::builder();
//! let n1 = arch.add_node("N1", NodeRole::TimeTriggered);
//! let n2 = arch.add_node("N2", NodeRole::EventTriggered);
//! arch.add_node("NG", NodeRole::Gateway);
//! let arch = arch.build()?;
//!
//! let mut app = Application::builder();
//! let g1 = app.add_graph("G1", Time::from_millis(240), Time::from_millis(200));
//! let p1 = app.add_process(g1, "P1", n1, Time::from_millis(30));
//! let p2 = app.add_process(g1, "P2", n2, Time::from_millis(20));
//! app.link(p1, p2, 8);
//! let app = app.build(&arch)?;
//!
//! let system = System::new(app, arch);
//! assert_eq!(system.inter_cluster_message_count(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod application;
mod architecture;
mod config;
mod error;
mod graph;
mod ids;
mod message;
mod process;
mod route;
mod system;
mod time;

pub use application::{Application, ApplicationBuilder, Edge};
pub use architecture::{
    Architecture, ArchitectureBuilder, BuildArchitectureError, CanBusParams, Node, NodeRole,
    TtpBusParams,
};
pub use config::{
    OffsetConstraints, Priority, PriorityAssignment, SystemConfig, TdmaConfig, TdmaSlot,
};
pub use error::{ConfigError, ModelError};
pub use graph::ProcessGraph;
pub use ids::{GraphId, MessageId, NodeId, ProcessId, SlotId};
pub use message::Message;
pub use process::Process;
pub use route::{classify, MessageRoute};
pub use system::{GatewayParams, System};
pub use time::{lcm, Time};
