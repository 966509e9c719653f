//! # cvc-sim — deterministic discrete-event network simulation
//!
//! The paper evaluated its scheme in a web-based editor: Java applets
//! speaking TCP to a notifier process on the web server, over the open
//! Internet. This crate is the substitute substrate (DESIGN.md §5): a
//! seeded, virtual-time discrete-event simulator whose channels preserve
//! exactly the two properties the scheme depends on —
//!
//! 1. **star or mesh topology** is explicit ([`topology::Topology`]);
//! 2. **FIFO delivery within each directed channel** (TCP semantics), with
//!    free cross-channel reordering under configurable latency
//!    distributions ([`latency::LatencyModel`]).
//!
//! Byte-level accounting ([`wire`]) makes the communication-overhead
//! experiments honest: timestamp compression is measured in encoded wire
//! bytes, not struct sizes.
//!
//! ```
//! use cvc_sim::prelude::*;
//!
//! struct Echo;
//! impl Node<u64> for Echo {
//!     fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: u64) {
//!         if msg < 3 { ctx.send(from, msg + 1); }
//!     }
//! }
//!
//! let mut sim = Simulator::new(LatencyModel::Constant(1_000), 42);
//! let a = sim.add_node(Echo);
//! let b = sim.add_node(Echo);
//! sim.inject_send(a, b, 0u64);
//! let quiesced = sim.run();
//! // 0→1→2→3: four deliveries, 1ms apart.
//! assert_eq!(sim.total_stats().messages, 4);
//! assert_eq!(quiesced.as_millis(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod latency;
pub mod sim;
pub mod time;
pub mod topology;
pub mod wire;

pub use fault::{FaultPlan, FaultStats, FlapSpec};
pub use latency::LatencyModel;
pub use sim::{ChannelStats, Ctx, DeliveryRecord, Fired, Node, NodeId, Simulator};
pub use time::{SimDuration, SimTime};
pub use topology::Topology;
pub use wire::{WireDecode, WireEncode, WireError, WireSize};

/// Convenient single import for simulator users.
pub mod prelude {
    pub use crate::fault::{FaultPlan, FaultStats, FlapSpec};
    pub use crate::latency::LatencyModel;
    pub use crate::sim::{ChannelStats, Ctx, DeliveryRecord, Fired, Node, NodeId, Simulator};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::Topology;
    pub use crate::wire::{WireDecode, WireEncode, WireError, WireSize};
}
