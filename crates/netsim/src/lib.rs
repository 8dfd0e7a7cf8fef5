//! Deterministic discrete-event network simulator.
//!
//! This crate is the testbed substrate for the AITF reproduction. The paper
//! evaluates the protocol on real router paths; the reproduction replaces
//! the physical network with a simulator that models the quantities the
//! paper's analysis depends on:
//!
//! - **links** with finite bandwidth, propagation delay and drop-tail
//!   queues ([`link`]) — so a flooded tail circuit actually drops
//!   legitimate packets, which is the damage AITF exists to stop;
//! - **nodes** (hosts and routers) as event-driven state machines
//!   ([`node`]) exchanging [`aitf_packet::Packet`]s;
//! - **virtual time** in nanoseconds ([`time`]) with a totally ordered
//!   event queue ([`event`]), so `Td`, `Tr`, `Ttmp` and `T` from Section IV
//!   of the paper are concrete, measurable delays;
//! - **topology and routing** helpers ([`topology`]) to build the paper's
//!   Figure 1 path and larger scenarios.
//!
//! Determinism: events are ordered by `(time, sequence)` and all randomness
//! flows from seeded [`rand::rngs::StdRng`] streams. Two runs with the same
//! seed produce identical results, which the integration suite asserts.
//! A simulator runs single-threaded by default; [`sim::Simulator::apply_shards`]
//! splits it into conservative-lookahead shards ([`partition()`]) that may run
//! on worker threads — the window protocol never consults thread
//! interleaving, so sharded runs are bit-identical to single-threaded ones.
//!
//! # Examples
//!
//! ```
//! use aitf_netsim::{impl_node_any, Context, LinkId, LinkParams, NetworkBuilder, Node, SimDuration};
//! use aitf_packet::Packet;
//!
//! struct Sink;
//!
//! impl Node for Sink {
//!     fn on_packet(&mut self, _p: Packet, _l: LinkId, _ctx: &mut Context<'_>) {}
//!     impl_node_any!();
//! }
//!
//! let mut b = NetworkBuilder::new(42);
//! let a = b.add_node();
//! let c = b.add_node();
//! b.connect(a, c, LinkParams::ethernet(10_000_000, SimDuration::from_millis(5)));
//! let mut sim = b.build();
//! sim.install(a, Box::new(Sink));
//! sim.install(c, Box::new(Sink));
//! sim.run_for(SimDuration::from_secs(1));
//! assert_eq!(sim.now().as_secs_f64(), 1.0);
//! ```

pub mod buckets;
pub mod event;
pub mod link;
pub mod node;
pub mod partition;
pub mod sim;
pub mod time;
pub mod topology;

pub use buckets::Buckets;
pub use event::{Event, EventKind, EventQueue};
pub use link::{Link, LinkDirection, LinkId, LinkParams, LinkStats};
pub use node::{Context, Node, NodeId};
pub use partition::{partition, Partition, PartitionError, PartitionSpec};
pub use sim::{NetworkBuilder, Simulator};
pub use time::{SimDuration, SimTime};

// Re-exported so node implementations can classify their dispatches for
// subsystem profiling without depending on aitf-trace directly.
pub use aitf_trace::{Subsystem, SubsystemProfile};
pub use topology::NextHops;
