//! Churn invariants of the simulator itself: under arbitrary sequences
//! of runtime link attach/detach ([`Simulator::set_link_blocked`]) the
//! packet flow must stay *conserved* — every packet a node ever offered
//! to a link is accounted for as sent, queue-dropped, admin-dropped or
//! still in custody (queued / serialising) — and the event queue must
//! never hold a stale event (one scheduled before the current clock); the
//! loop itself panics if it is ever handed one.
//!
//! This is the netsim half of the dynamic-worlds contract: higher layers
//! (aitf-core's `detach_host`/`attach_host`, aitf-scenario's `ChurnSpec`)
//! may flip link state between event-loop segments at any instant, and
//! nothing may leak or double-count. The chain also runs split one node per
//! shard, where both links are cut links: their blocks land on the
//! coordinator's copies while packets are queued on them, and their packets
//! sit in the receiving shard's pool.

use aitf_netsim::{
    impl_node_any, Context, LinkDirection, LinkId, LinkParams, NetworkBuilder, Node, NodeId,
    PartitionSpec, SimDuration, Simulator,
};
use aitf_packet::{Addr, Header, Packet, TrafficClass};
use proptest::prelude::*;

/// Sends `budget` packets, one every `period`, towards its only link.
struct FiniteSource {
    budget: u32,
    period: SimDuration,
    sent: u64,
}

impl Node for FiniteSource {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.period, 0);
    }

    fn on_packet(&mut self, _p: Packet, _l: LinkId, _ctx: &mut Context<'_>) {}

    fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_>) {
        if self.budget == 0 {
            // Chain ends here: a drained world must quiesce completely.
            return;
        }
        self.budget -= 1;
        self.sent += 1;
        let id = ctx.next_packet_id();
        let h = Header::udp(Addr::new(10, 0, 0, 1), Addr::new(10, 0, 0, 9), 1, 2);
        let link = ctx.my_links()[0];
        ctx.send(link, Packet::data(id, h, TrafficClass::Legit, 400));
        ctx.set_timer(self.period, 0);
    }

    impl_node_any!();
}

/// Forwards everything from one side to the other along a chain.
struct Relay;

impl Node for Relay {
    fn on_packet(&mut self, packet: Packet, link: LinkId, ctx: &mut Context<'_>) {
        for i in 0..ctx.my_links().len() {
            let l = ctx.my_links()[i];
            if l != link {
                ctx.send(l, packet);
                return;
            }
        }
    }

    impl_node_any!();
}

/// Counts deliveries.
struct Sink {
    received: u64,
}

impl Node for Sink {
    fn on_packet(&mut self, _p: Packet, _l: LinkId, _ctx: &mut Context<'_>) {
        self.received += 1;
    }

    impl_node_any!();
}

/// src → relay → sink over two finite-bandwidth links with small queues
/// (so churn actually produces queue drops too, not just admin drops), run
/// as one shard or as three — one node each, both links cut.
fn chain(budget: u32, shards: usize) -> (Simulator, NodeId, NodeId, Vec<LinkId>) {
    let mut b = NetworkBuilder::new(9);
    let src = b.add_node();
    let mid = b.add_node();
    let sink = b.add_node();
    let params =
        LinkParams::ethernet(2_000_000, SimDuration::from_millis(2)).with_queue_bytes(2048);
    let l0 = b.connect(src, mid, params);
    let l1 = b.connect(mid, sink, params);
    let mut sim = b.build();
    sim.install(
        src,
        Box::new(FiniteSource {
            budget,
            period: SimDuration::from_millis(2),
            sent: 0,
        }),
    );
    sim.install(mid, Box::new(Relay));
    sim.install(sink, Box::new(Sink { received: 0 }));
    if shards > 1 {
        let part = (sim.apply_shards(shards, &PartitionSpec::flat(3))).expect("partition");
        assert_eq!((part.shards, part.cut_links.len()), (3, 2));
    }
    (sim, src, sink, vec![l0, l1])
}

/// One churn step: flip one direction of one link, then advance.
#[derive(Debug, Clone)]
struct ChurnOp {
    link: usize,
    a_to_b: bool,
    blocked: bool,
    advance_ms: u64,
}

fn arb_op() -> impl Strategy<Value = ChurnOp> {
    (0usize..2, any::<bool>(), any::<bool>(), 1u64..40).prop_map(
        |(link, a_to_b, blocked, advance_ms)| ChurnOp {
            link,
            a_to_b,
            blocked,
            advance_ms,
        },
    )
}

/// In-custody packets of one direction: waiting in the queue or on the
/// serialiser. (Packets in propagation are `Deliver` events, counted via
/// the pending-event check after the drain.)
fn in_custody(sim: &Simulator, link: LinkId, dir: LinkDirection) -> u64 {
    let l = sim.link(link);
    l.queued_pkts(dir) as u64 + u64::from(l.has_in_flight(dir))
}

proptest! {
    #[test]
    fn packet_conservation_and_no_stale_events_under_link_churn(
        ops in proptest::collection::vec(arb_op(), 1..40),
        budget in 1u32..120,
        shards in prop_oneof![Just(1usize), Just(3usize)],
    ) {
        let (mut sim, src, sink, links) = chain(budget, shards);
        for op in &ops {
            let dir = if op.a_to_b {
                LinkDirection::AToB
            } else {
                LinkDirection::BToA
            };
            sim.set_link_blocked(links[op.link], dir, op.blocked);
            sim.run_for(SimDuration::from_millis(op.advance_ms));
            // The event loop never leaves a stale event behind: whatever
            // is pending fires at or after the clock.
            if let Some(next) = sim.next_event_time() {
                prop_assert!(next >= sim.now(), "stale event at {next:?}, now {:?}", sim.now());
            }
            // The pool identity, per shard: every parked packet is owned by
            // exactly one link entry or pending delivery into that shard,
            // and nothing else is.
            prop_assert_eq!(sim.parked_packets(), sim.packets_in_network());
            // Mid-run conservation, per direction: offered packets are
            // sent, dropped, or still in custody — never lost.
            for &link in &links {
                for dir in [LinkDirection::AToB, LinkDirection::BToA] {
                    let s = *sim.link_stats(link, dir);
                    prop_assert_eq!(
                        s.offered_pkts,
                        s.sent_pkts
                            + s.queue_drop_pkts
                            + s.admin_drop_pkts
                            + in_custody(&sim, link, dir),
                        "conservation broken on {:?} {:?}: {:?}", link, dir, s
                    );
                }
            }
        }

        // Unblock everything and drain: the source is finite, so the
        // world must quiesce with empty queues and an empty event loop —
        // nothing is scheduled past the horizon of the traffic itself.
        for &link in &links {
            sim.set_link_blocked(link, LinkDirection::AToB, false);
            sim.set_link_blocked(link, LinkDirection::BToA, false);
        }
        sim.run_for(SimDuration::from_secs(5));
        prop_assert_eq!(sim.pending_events(), 0, "drained world must quiesce");
        prop_assert_eq!(sim.parked_packets(), vec![0; shards]);
        prop_assert_eq!(sim.packets_in_network(), vec![0; shards]);
        for &link in &links {
            for dir in [LinkDirection::AToB, LinkDirection::BToA] {
                prop_assert_eq!(in_custody(&sim, link, dir), 0u64);
                let s = *sim.link_stats(link, dir);
                prop_assert_eq!(
                    s.offered_pkts,
                    s.sent_pkts + s.queue_drop_pkts + s.admin_drop_pkts,
                    "post-drain conservation broken on {:?} {:?}: {:?}", link, dir, s
                );
            }
        }

        // End-to-end: everything the source offered either reached the
        // sink or was dropped at one of the two links.
        let offered = sim.node_ref::<FiniteSource>(src).unwrap().sent;
        let received = sim.node_ref::<Sink>(sink).unwrap().received;
        let dropped: u64 = links
            .iter()
            .map(|&l| {
                let s = sim.link_stats(l, LinkDirection::AToB);
                s.queue_drop_pkts + s.admin_drop_pkts
            })
            .sum();
        prop_assert_eq!(offered, received + dropped, "end-to-end conservation broken");
    }
}
