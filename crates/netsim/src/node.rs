//! The node abstraction and the context handle nodes act through.
//!
//! A [`Node`] is any event-driven state machine attached to the network:
//! end hosts, AITF border routers, pushback routers, traffic sources. The
//! simulator owns the nodes; during a handler call the node receives a
//! [`Context`] that lets it read the clock, send packets, arm timers and
//! draw randomness — everything it may legally do to the world.

use std::any::Any;

use aitf_packet::Packet;
use rand::rngs::StdRng;

use crate::link::LinkId;
use crate::sim::SimCore;
use crate::time::{SimDuration, SimTime};

/// Index of a node in the simulator.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// An event-driven participant in the simulated network.
///
/// Handlers must not block or sleep; they react to one event and return.
/// A node upcasts to [`Any`], so experiments can downcast installed nodes
/// and read their state after a run (e.g. a victim's goodput counters).
/// Nodes are `Send` in every build: the shard workers of a partitioned
/// simulation run on threads, traced or not.
pub trait Node: Any + Send {
    /// Called once when the simulation starts, in node-id order; sources
    /// typically arm their first timer here.
    fn on_start(&mut self, _ctx: &mut Context<'_>) {}

    /// A packet arrived on `link`.
    fn on_packet(&mut self, packet: Packet, link: LinkId, ctx: &mut Context<'_>);

    /// A timer armed with [`Context::set_timer`] fired.
    fn on_timer(&mut self, _token: u64, _ctx: &mut Context<'_>) {}

    /// The profiling subsystem this node's dispatches are attributed to by
    /// default. Only consulted when the simulator is built with the
    /// `trace` feature; handlers can refine the class mid-dispatch through
    /// [`Context::profile_subsystem`]. Hosts and generic nodes default to
    /// [`aitf_trace::Subsystem::HostApp`]; router nodes override this.
    fn subsystem(&self) -> aitf_trace::Subsystem {
        aitf_trace::Subsystem::HostApp
    }
}

/// The capability handle a node acts through during an event handler.
pub struct Context<'a> {
    pub(crate) node: NodeId,
    pub(crate) core: &'a mut SimCore,
}

impl Context<'_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.events.now()
    }

    /// Sends `packet` out on `link`.
    ///
    /// Returns `true` if the link accepted the packet (queued or started
    /// transmission), `false` if it was dropped at the queue or an
    /// administrative block.
    ///
    /// # Panics
    ///
    /// Panics if this node is not an endpoint of `link`.
    #[inline]
    pub fn send(&mut self, link: LinkId, packet: Packet) -> bool {
        self.core.send_from(self.node, link, packet)
    }

    /// Arms a one-shot timer that calls [`Node::on_timer`] with `token`
    /// after `delay`.
    ///
    /// Timers cannot be cancelled; nodes ignore stale tokens instead (the
    /// standard discrete-event idiom — cheap and deterministic).
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.core.schedule_timer(self.node, delay, token);
    }

    /// The deterministic RNG. One stream per simulation; a sharded run
    /// derives one independent stream per shard from `(seed, shard_id)`.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.core.rng
    }

    /// Draws a fresh globally unique packet id.
    pub fn next_packet_id(&mut self) -> u64 {
        self.core.next_packet_id()
    }

    /// The links attached to this node, in creation order.
    pub fn my_links(&self) -> &[LinkId] {
        self.core.links_of(self.node)
    }

    /// The peer node on `link`.
    ///
    /// # Panics
    ///
    /// Panics if this node is not an endpoint of `link`.
    pub fn peer(&self, link: LinkId) -> NodeId {
        self.core.link(link).peer_of(self.node)
    }

    /// Reclassifies the event currently being dispatched for subsystem
    /// profiling — e.g. a border router attributing control-plane work to
    /// [`aitf_trace::Subsystem::Escalation`], or an end host attributing a
    /// detection timer to [`aitf_trace::Subsystem::Detector`]. Compiles to
    /// nothing unless the `trace` feature is on.
    #[inline]
    pub fn profile_subsystem(&mut self, subsystem: aitf_trace::Subsystem) {
        #[cfg(feature = "trace")]
        {
            self.core.dispatch_class = subsystem;
        }
        #[cfg(not(feature = "trace"))]
        let _ = subsystem;
    }

    /// Administratively blocks or unblocks the *incoming* direction of
    /// `link` (traffic from the peer towards this node). This is the
    /// enforcement half of AITF disconnection.
    ///
    /// In a sharded simulation a cut link is owned by the coordinator: the
    /// change is staged and replayed at the next window barrier in global
    /// event order, ahead of every packet staged after it and behind every
    /// one staged before — exactly where the single-threaded loop applies
    /// it, with no skew.
    ///
    /// # Panics
    ///
    /// Panics if this node is not an endpoint of `link`.
    pub fn set_incoming_blocked(&mut self, link: LinkId, blocked: bool) {
        self.core
            .set_incoming_blocked_from(self.node, link, blocked);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkParams;
    use crate::sim::NetworkBuilder;
    use aitf_packet::{Addr, Header, TrafficClass};

    /// A node that sends one packet to its peer at start and counts
    /// everything it receives.
    struct Echo {
        sent: bool,
        received: u64,
    }

    impl Echo {
        fn new() -> Self {
            Echo {
                sent: false,
                received: 0,
            }
        }
    }

    impl Node for Echo {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let link = ctx.my_links()[0];
            let id = ctx.next_packet_id();
            let h = Header::udp(Addr::new(1, 0, 0, 1), Addr::new(1, 0, 0, 2), 1, 2);
            ctx.send(link, Packet::data(id, h, TrafficClass::Legit, 100));
            self.sent = true;
        }

        fn on_packet(&mut self, _packet: Packet, _link: LinkId, _ctx: &mut Context<'_>) {
            self.received += 1;
        }
    }

    #[test]
    fn context_send_and_receive() {
        let mut b = NetworkBuilder::new(1);
        let a = b.add_node();
        let c = b.add_node();
        b.connect(a, c, LinkParams::infinite(SimDuration::from_millis(1)));
        let mut sim = b.build();
        sim.install(a, Box::new(Echo::new()));
        sim.install(c, Box::new(Echo::new()));
        sim.run_for(SimDuration::from_millis(10));
        assert_eq!(sim.node_ref::<Echo>(a).unwrap().received, 1);
        assert_eq!(sim.node_ref::<Echo>(c).unwrap().received, 1);
    }

    /// A node that re-arms a timer `n` times.
    struct Ticker {
        remaining: u32,
        fired_at: Vec<SimTime>,
    }

    impl Node for Ticker {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_millis(10), 0);
        }

        fn on_packet(&mut self, _p: Packet, _l: LinkId, _ctx: &mut Context<'_>) {}

        fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_>) {
            self.fired_at.push(ctx.now());
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.set_timer(SimDuration::from_millis(10), 0);
            }
        }
    }

    #[test]
    fn timers_fire_at_exact_intervals() {
        let mut b = NetworkBuilder::new(1);
        let a = b.add_node();
        let mut sim = b.build();
        sim.install(
            a,
            Box::new(Ticker {
                remaining: 2,
                fired_at: Vec::new(),
            }),
        );
        sim.run_for(SimDuration::from_secs(1));
        let t = &sim.node_ref::<Ticker>(a).unwrap().fired_at;
        assert_eq!(
            t,
            &vec![
                SimTime(10_000_000),
                SimTime(20_000_000),
                SimTime(30_000_000),
            ]
        );
    }
}
