//! Point-to-point links with bandwidth, delay and drop-tail queues.
//!
//! A link is full duplex: each direction has its own transmission queue and
//! serialisation state. The model is the classic store-and-forward one —
//! a packet occupies the transmitter for `size * 8 / bandwidth`, then
//! propagates for the link delay, then is delivered to the peer node.
//!
//! When the queue is full the link drops the incoming packet (drop-tail).
//! This is where a DoS flood does its damage: the victim's tail circuit
//! queue fills with attack packets and legitimate packets are dropped, which
//! is exactly the failure mode the paper's introduction describes.

use std::collections::VecDeque;

use aitf_packet::Packet;

use crate::event::{EventQueue, PacketSlot};
use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};

/// Index of a link in the simulator.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct LinkId(pub usize);

/// One of the two directions of a full-duplex link.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum LinkDirection {
    /// From endpoint `a` to endpoint `b`.
    AToB,
    /// From endpoint `b` to endpoint `a`.
    BToA,
}

impl LinkDirection {
    /// The opposite direction.
    pub fn reverse(self) -> Self {
        match self {
            LinkDirection::AToB => LinkDirection::BToA,
            LinkDirection::BToA => LinkDirection::AToB,
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            LinkDirection::AToB => 0,
            LinkDirection::BToA => 1,
        }
    }
}

/// Static link properties.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkParams {
    /// Bandwidth in bits per second; `0` means infinite (zero
    /// serialisation time), useful for abstract control-plane experiments.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Per-direction queue capacity in bytes.
    pub queue_capacity_bytes: u32,
}

impl LinkParams {
    /// Default queue: 64 KiB per direction, a typical shallow edge buffer.
    pub const DEFAULT_QUEUE_BYTES: u32 = 64 * 1024;

    /// A link with finite bandwidth and the default queue.
    pub fn ethernet(bandwidth_bps: u64, delay: SimDuration) -> Self {
        LinkParams {
            bandwidth_bps,
            delay,
            queue_capacity_bytes: Self::DEFAULT_QUEUE_BYTES,
        }
    }

    /// An infinitely fast link (propagation delay only).
    pub fn infinite(delay: SimDuration) -> Self {
        LinkParams {
            bandwidth_bps: 0,
            delay,
            queue_capacity_bytes: u32::MAX,
        }
    }

    /// Overrides the queue capacity.
    pub fn with_queue_bytes(mut self, bytes: u32) -> Self {
        self.queue_capacity_bytes = bytes;
        self
    }

    /// Serialisation time of a packet of `bytes` at this bandwidth.
    pub fn tx_time(&self, bytes: u32) -> SimDuration {
        if self.bandwidth_bps == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(
                (bytes as u128 * 8 * 1_000_000_000 / self.bandwidth_bps as u128) as u64,
            )
        }
    }
}

/// Per-direction traffic statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets handed to this direction by the sending node.
    pub offered_pkts: u64,
    /// Bytes handed to this direction.
    pub offered_bytes: u64,
    /// Packets that completed transmission onto the wire.
    pub sent_pkts: u64,
    /// Bytes that completed transmission.
    pub sent_bytes: u64,
    /// Packets dropped because the queue was full.
    pub queue_drop_pkts: u64,
    /// Bytes dropped because the queue was full.
    pub queue_drop_bytes: u64,
    /// Packets dropped because the direction was administratively blocked
    /// (AITF disconnection).
    pub admin_drop_pkts: u64,
    /// High-water mark of queued bytes.
    pub max_queued_bytes: u64,
}

/// What a never-used direction reports.
static IDLE_STATS: LinkStats = LinkStats {
    offered_pkts: 0,
    offered_bytes: 0,
    sent_pkts: 0,
    sent_bytes: 0,
    queue_drop_pkts: 0,
    queue_drop_bytes: 0,
    admin_drop_pkts: 0,
    max_queued_bytes: 0,
};

/// One packet a direction holds: the handle to where it is parked (in the
/// pool of the queue the direction delivers into) and its on-wire size,
/// which is all the link ever reads of it.
type Held = (PacketSlot, u32);

#[derive(Debug, Default)]
struct DirState {
    queue: VecDeque<Held>,
    queued_bytes: u64,
    /// The packet currently being serialised, if any.
    in_flight: Option<Held>,
    blocked: bool,
    stats: LinkStats,
}

impl DirState {
    /// Ring-buffer target for one direction, sized for ~1 KB packets and
    /// clamped. The queue starts *unallocated* — at 100k+ links, pre-sizing
    /// every edge buffer costs a lot of memory while almost all tail links
    /// stay idle forever. The first packet that actually queues reserves
    /// this target in one step (see [`Link::enqueue`]), so a busy direction
    /// still reaches its steady state of zero allocations per event. The
    /// ring holds 8-byte handles, not packets: at most 2 KB per busy
    /// direction; the packets themselves sit in the queue's pool.
    fn queue_target(params: &LinkParams) -> usize {
        (params.queue_capacity_bytes / 1024).clamp(8, 256) as usize
    }
}

/// A full-duplex point-to-point link.
///
/// The wiring is inline; each direction's queue, in-flight handle, block
/// flag and statistics are made by the first packet offered in that
/// direction (or the first block of it). Most links of an internet-scale
/// world never carry a packet, and a direction that never did reads as
/// empty, unblocked and all-zero.
#[derive(Debug)]
pub struct Link {
    id: LinkId,
    a: NodeId,
    b: NodeId,
    params: LinkParams,
    dirs: [Option<Box<DirState>>; 2],
}

impl Link {
    /// Bytes one waiting packet costs a direction's ring — a handle and a
    /// size, not the packet (pinned in `tests/footprint.rs`).
    pub const QUEUE_ENTRY_BYTES: usize = std::mem::size_of::<Held>();

    /// Creates a link between `a` and `b`.
    pub fn new(id: LinkId, a: NodeId, b: NodeId, params: LinkParams) -> Self {
        Link {
            id,
            a,
            b,
            params,
            dirs: [None, None],
        }
    }

    /// The link's id.
    pub fn id(&self) -> LinkId {
        self.id
    }

    /// The two endpoints, in `(a, b)` order.
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        (self.a, self.b)
    }

    /// The static parameters.
    pub fn params(&self) -> LinkParams {
        self.params
    }

    /// The peer of `node` on this link.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an endpoint.
    pub fn peer_of(&self, node: NodeId) -> NodeId {
        if node == self.a {
            self.b
        } else if node == self.b {
            self.a
        } else {
            panic!("node {node:?} is not an endpoint of link {:?}", self.id)
        }
    }

    /// The direction of traffic *sent by* `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an endpoint.
    pub fn dir_from(&self, node: NodeId) -> LinkDirection {
        if node == self.a {
            LinkDirection::AToB
        } else if node == self.b {
            LinkDirection::BToA
        } else {
            panic!("node {node:?} is not an endpoint of link {:?}", self.id)
        }
    }

    fn dir(&self, dir: LinkDirection) -> Option<&DirState> {
        self.dirs[dir.index()].as_deref()
    }

    /// Statistics for one direction.
    pub fn stats(&self, dir: LinkDirection) -> &LinkStats {
        self.dir(dir).map_or(&IDLE_STATS, |d| &d.stats)
    }

    /// Bytes currently waiting in one direction's queue. The packet being
    /// serialised is not counted.
    pub fn queued_bytes(&self, dir: LinkDirection) -> u64 {
        self.dir(dir).map_or(0, |d| d.queued_bytes)
    }

    /// Packets currently waiting in one direction's queue (excluding the
    /// in-flight packet) — conservation checks read this.
    pub fn queued_pkts(&self, dir: LinkDirection) -> usize {
        self.dir(dir).map_or(0, |d| d.queue.len())
    }

    /// Packets this link holds a handle to in `dir`, waiting or serialising.
    pub(crate) fn held_pkts(&self, dir: LinkDirection) -> usize {
        self.queued_pkts(dir) + usize::from(self.has_in_flight(dir))
    }

    /// The node traffic in `dir` is delivered to.
    pub(crate) fn receiver(&self, dir: LinkDirection) -> NodeId {
        match dir {
            LinkDirection::AToB => self.b,
            LinkDirection::BToA => self.a,
        }
    }

    /// Returns `true` if a packet is being serialised in `dir` right now.
    pub fn has_in_flight(&self, dir: LinkDirection) -> bool {
        self.dir(dir).is_some_and(|d| d.in_flight.is_some())
    }

    /// Administratively blocks or unblocks one direction. Blocked traffic
    /// is counted in [`LinkStats::admin_drop_pkts`]. This models AITF
    /// disconnection: a provider stops carrying a client's packets.
    pub fn set_blocked(&mut self, dir: LinkDirection, blocked: bool) {
        let slot = &mut self.dirs[dir.index()];
        if blocked {
            slot.get_or_insert_with(Box::default).blocked = true;
        } else if let Some(d) = slot {
            // A direction never used was never blocked.
            d.blocked = false;
        }
    }

    /// Hands a packet to the link for transmission in `dir` at time `now`.
    ///
    /// An accepted packet is parked in `events`' pool and the link keeps
    /// only its handle, so every later call for this link — `enqueue` and
    /// [`Link::on_tx_done`] — must be handed the same queue. A dropped
    /// packet never enters the pool.
    ///
    /// Schedules the transmission's completion if the transmitter was
    /// idle. Returns `true` if the packet was accepted (queued or started),
    /// `false` if it was dropped.
    #[inline]
    pub fn enqueue(
        &mut self,
        now: SimTime,
        dir: LinkDirection,
        packet: Packet,
        events: &mut EventQueue,
    ) -> bool {
        self.enqueue_into(now, dir, packet, events)
    }

    /// [`Link::enqueue`] into any sink.
    #[inline]
    pub(crate) fn enqueue_into(
        &mut self,
        now: SimTime,
        dir: LinkDirection,
        packet: Packet,
        sink: &mut impl LinkSink,
    ) -> bool {
        let link_id = self.id;
        let params = self.params;
        let d = match &mut self.dirs[dir.index()] {
            Some(d) => d,
            // detlint::allow(hot-alloc): one-off — the first packet offered in a direction makes its state; every later one takes the arm above
            slot => slot.insert(Box::new(DirState::default())),
        };
        let size = packet.size_bytes;
        d.stats.offered_pkts += 1;
        d.stats.offered_bytes += size as u64;
        if d.blocked {
            d.stats.admin_drop_pkts += 1;
            return false;
        }
        if d.in_flight.is_none() {
            // Transmitter idle: start serialising immediately.
            d.in_flight = Some((sink.park(packet), size));
            sink.tx_done(now + params.tx_time(size), link_id, dir);
            true
        } else if d.queued_bytes + size as u64 <= params.queue_capacity_bytes as u64 {
            d.queued_bytes += size as u64;
            d.stats.max_queued_bytes = d.stats.max_queued_bytes.max(d.queued_bytes);
            if d.queue.capacity() == 0 {
                // detlint::allow(hot-alloc): one-off — the first packet that has to wait reserves the whole ring, see `DirState::queue_target`
                d.queue.reserve(DirState::queue_target(&params));
            }
            d.queue.push_back((sink.park(packet), size));
            true
        } else {
            d.stats.queue_drop_pkts += 1;
            d.stats.queue_drop_bytes += size as u64;
            false
        }
    }

    /// Completes the in-flight transmission in `dir`: schedules delivery to
    /// the peer after the propagation delay and starts serialising the next
    /// queued packet, if any.
    ///
    /// # Panics
    ///
    /// Panics if no transmission was in flight (an internal scheduling bug).
    pub fn on_tx_done(&mut self, now: SimTime, dir: LinkDirection, events: &mut EventQueue) {
        self.on_tx_done_into(now, dir, events)
    }

    /// [`Link::on_tx_done`] into any sink.
    pub(crate) fn on_tx_done_into(
        &mut self,
        now: SimTime,
        dir: LinkDirection,
        sink: &mut impl LinkSink,
    ) {
        let link_id = self.id;
        let params = self.params;
        let receiver = self.receiver(dir);
        const IDLE: &str = "LinkTxDone with no in-flight packet";
        let d = self.dirs[dir.index()].as_deref_mut().expect(IDLE);
        let (slot, size) = d.in_flight.take().expect(IDLE);
        d.stats.sent_pkts += 1;
        d.stats.sent_bytes += size as u64;
        sink.deliver(now + params.delay, receiver, link_id, slot);
        if let Some((next, size)) = d.queue.pop_front() {
            d.queued_bytes -= size as u64;
            d.in_flight = Some((next, size));
            sink.tx_done(now + params.tx_time(size), link_id, dir);
        }
    }
}

/// Where a link writes what it produces: a shard's [`EventQueue`], or the
/// sink the coordinator lends a cut link for each replayed step.
pub(crate) trait LinkSink {
    /// Parks an accepted packet; the handle is redeemed where the packet
    /// is delivered.
    fn park(&mut self, packet: Packet) -> PacketSlot;
    /// Schedules the end of `link`'s transmission in `dir` at `at`.
    fn tx_done(&mut self, at: SimTime, link: LinkId, dir: LinkDirection);
    /// Schedules the arrival of the packet `slot` owns at `node` at `at`.
    fn deliver(&mut self, at: SimTime, node: NodeId, link: LinkId, slot: PacketSlot);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use aitf_packet::{Addr, Header, TrafficClass};

    fn pkt(id: u64, size: u32) -> Packet {
        let h = Header::udp(Addr::new(1, 1, 1, 1), Addr::new(2, 2, 2, 2), 1, 2);
        Packet::data(id, h, TrafficClass::Legit, size)
    }

    fn drain_deliveries(q: &mut EventQueue, link: &mut Link) -> Vec<(SimTime, u64)> {
        let mut out = Vec::new();
        while let Some(ev) = q.pop() {
            match ev.kind {
                EventKind::LinkTxDone { dir, .. } => {
                    // Re-borrow pattern mirrors the simulator's dispatch.
                    let now = ev.time;
                    link.on_tx_done(now, dir, q);
                }
                EventKind::Deliver { packet, .. } => out.push((ev.time, packet.id)),
                EventKind::Timer { .. } => unreachable!(),
            }
        }
        out
    }

    #[test]
    fn tx_time_matches_bandwidth() {
        let p = LinkParams::ethernet(8_000_000, SimDuration::ZERO);
        // 1000 bytes at 8 Mbps = 1 ms.
        assert_eq!(p.tx_time(1000), SimDuration::from_millis(1));
        assert_eq!(
            LinkParams::infinite(SimDuration::ZERO).tx_time(1_000_000),
            SimDuration::ZERO
        );
    }

    #[test]
    fn single_packet_delivery_time_is_tx_plus_delay() {
        let params = LinkParams::ethernet(8_000_000, SimDuration::from_millis(10));
        let mut link = Link::new(LinkId(0), NodeId(0), NodeId(1), params);
        let mut q = EventQueue::new();
        assert!(link.enqueue(SimTime::ZERO, LinkDirection::AToB, pkt(1, 1000), &mut q));
        let deliveries = drain_deliveries(&mut q, &mut link);
        // 1 ms serialisation + 10 ms propagation.
        assert_eq!(deliveries, vec![(SimTime(11_000_000), 1)]);
    }

    #[test]
    fn back_to_back_packets_serialise_sequentially() {
        let params = LinkParams::ethernet(8_000_000, SimDuration::ZERO);
        let mut link = Link::new(LinkId(0), NodeId(0), NodeId(1), params);
        let mut q = EventQueue::new();
        for i in 0..3 {
            assert!(link.enqueue(SimTime::ZERO, LinkDirection::AToB, pkt(i, 1000), &mut q));
        }
        let deliveries = drain_deliveries(&mut q, &mut link);
        let times: Vec<u64> = deliveries.iter().map(|(t, _)| t.0).collect();
        assert_eq!(times, vec![1_000_000, 2_000_000, 3_000_000]);
        let ids: Vec<u64> = deliveries.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids, vec![0, 1, 2], "FIFO order preserved");
    }

    #[test]
    fn queue_overflow_drops_tail() {
        let params = LinkParams::ethernet(8_000_000, SimDuration::ZERO).with_queue_bytes(1500);
        let mut link = Link::new(LinkId(0), NodeId(0), NodeId(1), params);
        let mut q = EventQueue::new();
        // First packet goes in flight, second and parts of third queue.
        assert!(link.enqueue(SimTime::ZERO, LinkDirection::AToB, pkt(0, 1000), &mut q));
        assert!(link.enqueue(SimTime::ZERO, LinkDirection::AToB, pkt(1, 1000), &mut q));
        // Queue already holds 1000 bytes; another 1000 exceeds 1500.
        assert!(!link.enqueue(SimTime::ZERO, LinkDirection::AToB, pkt(2, 1000), &mut q));
        let s = link.stats(LinkDirection::AToB);
        assert_eq!(s.queue_drop_pkts, 1);
        assert_eq!(s.queue_drop_bytes, 1000);
        assert_eq!(s.offered_pkts, 3);
        let delivered = drain_deliveries(&mut q, &mut link);
        assert_eq!(delivered.len(), 2);
    }

    #[test]
    fn directions_are_independent() {
        let params = LinkParams::ethernet(8_000_000, SimDuration::ZERO);
        let mut link = Link::new(LinkId(0), NodeId(0), NodeId(1), params);
        let mut q = EventQueue::new();
        assert!(link.enqueue(SimTime::ZERO, LinkDirection::AToB, pkt(1, 1000), &mut q));
        assert!(link.enqueue(SimTime::ZERO, LinkDirection::BToA, pkt(2, 1000), &mut q));
        // Both directions serialise concurrently: two TxDone at t=1ms.
        let mut receivers = Vec::new();
        while let Some(ev) = q.pop() {
            match ev.kind {
                EventKind::LinkTxDone { dir, .. } => link.on_tx_done(ev.time, dir, &mut q),
                EventKind::Deliver { node, packet, .. } => receivers.push((node, packet.id)),
                _ => unreachable!(),
            }
        }
        receivers.sort();
        assert_eq!(receivers, vec![(NodeId(0), 2), (NodeId(1), 1)]);
    }

    #[test]
    fn blocked_direction_drops_everything() {
        let params = LinkParams::infinite(SimDuration::ZERO);
        let mut link = Link::new(LinkId(0), NodeId(0), NodeId(1), params);
        let mut q = EventQueue::new();
        link.set_blocked(LinkDirection::AToB, true);
        assert!(!link.enqueue(SimTime::ZERO, LinkDirection::AToB, pkt(1, 100), &mut q));
        assert!(q.is_empty());
        assert_eq!(link.stats(LinkDirection::AToB).admin_drop_pkts, 1);
        // Reverse direction unaffected.
        assert!(link.enqueue(SimTime::ZERO, LinkDirection::BToA, pkt(2, 100), &mut q));
        // Unblock and verify traffic resumes.
        link.set_blocked(LinkDirection::AToB, false);
        assert!(link.enqueue(SimTime::ZERO, LinkDirection::AToB, pkt(3, 100), &mut q));
    }

    #[test]
    fn peer_and_direction_helpers() {
        let link = Link::new(
            LinkId(3),
            NodeId(5),
            NodeId(9),
            LinkParams::infinite(SimDuration::ZERO),
        );
        assert_eq!(link.peer_of(NodeId(5)), NodeId(9));
        assert_eq!(link.peer_of(NodeId(9)), NodeId(5));
        assert_eq!(link.dir_from(NodeId(5)), LinkDirection::AToB);
        assert_eq!(link.dir_from(NodeId(9)), LinkDirection::BToA);
        assert_eq!(LinkDirection::AToB.reverse(), LinkDirection::BToA);
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn peer_of_foreign_node_panics() {
        let link = Link::new(
            LinkId(0),
            NodeId(0),
            NodeId(1),
            LinkParams::infinite(SimDuration::ZERO),
        );
        let _ = link.peer_of(NodeId(7));
    }

    #[test]
    fn max_queue_highwater_tracks() {
        let params = LinkParams::ethernet(8_000, SimDuration::ZERO).with_queue_bytes(10_000);
        let mut link = Link::new(LinkId(0), NodeId(0), NodeId(1), params);
        let mut q = EventQueue::new();
        for i in 0..5 {
            link.enqueue(SimTime::ZERO, LinkDirection::AToB, pkt(i, 1000), &mut q);
        }
        assert_eq!(link.stats(LinkDirection::AToB).max_queued_bytes, 4000);
    }

    /// One direction of the reference link: the packets themselves, by
    /// value — deliberately not the production `DirState`, so the model
    /// cannot follow the code into handles.
    #[derive(Default)]
    struct EagerDir {
        queue: VecDeque<Packet>,
        queued_bytes: u64,
        in_flight: Option<Packet>,
        blocked: bool,
        stats: LinkStats,
    }

    /// The link with both directions laid out up front and every packet
    /// held by value — the model the first-use, handle-holding link must
    /// be indistinguishable from.
    struct Eager {
        params: LinkParams,
        dirs: [EagerDir; 2],
    }

    impl Eager {
        fn enqueue(
            &mut self,
            now: SimTime,
            dir: LinkDirection,
            p: Packet,
            q: &mut EventQueue,
        ) -> bool {
            let link = LinkId(0);
            let d = &mut self.dirs[dir.index()];
            let size = p.size_bytes as u64;
            d.stats.offered_pkts += 1;
            d.stats.offered_bytes += size;
            if d.blocked {
                d.stats.admin_drop_pkts += 1;
                false
            } else if d.in_flight.is_none() {
                q.schedule(
                    now + self.params.tx_time(p.size_bytes),
                    EventKind::LinkTxDone { link, dir },
                );
                d.in_flight = Some(p);
                true
            } else if d.queued_bytes + size <= self.params.queue_capacity_bytes as u64 {
                d.queued_bytes += size;
                d.stats.max_queued_bytes = d.stats.max_queued_bytes.max(d.queued_bytes);
                d.queue.push_back(p);
                true
            } else {
                d.stats.queue_drop_pkts += 1;
                d.stats.queue_drop_bytes += size;
                false
            }
        }

        fn on_tx_done(&mut self, now: SimTime, dir: LinkDirection, q: &mut EventQueue) {
            let link = LinkId(0);
            let node = NodeId(1 - dir.index());
            let d = &mut self.dirs[dir.index()];
            let packet = d.in_flight.take().expect("model has a packet in flight");
            d.stats.sent_pkts += 1;
            d.stats.sent_bytes += packet.size_bytes as u64;
            q.schedule(
                now + self.params.delay,
                EventKind::Deliver { node, link, packet },
            );
            if let Some(next) = d.queue.pop_front() {
                d.queued_bytes -= next.size_bytes as u64;
                q.schedule(
                    now + self.params.tx_time(next.size_bytes),
                    EventKind::LinkTxDone { link, dir },
                );
                d.in_flight = Some(next);
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Offer(bool, u32),
        /// Dispatch the earliest pending event.
        Step,
        Block(bool, bool),
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        fn arb_op() -> impl Strategy<Value = Op> {
            // Offers listed twice: half of all operations.
            prop_oneof![
                (any::<bool>(), 40u32..1500).prop_map(|(d, size)| Op::Offer(d, size)),
                (any::<bool>(), 40u32..1500).prop_map(|(d, size)| Op::Offer(d, size)),
                Just(Op::Step),
                (any::<bool>(), any::<bool>()).prop_map(|(d, b)| Op::Block(d, b)),
            ]
        }

        proptest! {
            #[test]
            fn first_use_link_equals_the_eager_one(
                ops in proptest::collection::vec(arb_op(), 1..120),
                queue_bytes in 0u32..4000,
            ) {
                let params = LinkParams::ethernet(8_000_000, SimDuration::from_millis(1))
                    .with_queue_bytes(queue_bytes);
                let mut link = Link::new(LinkId(0), NodeId(0), NodeId(1), params);
                let mut eager = Eager { params, dirs: Default::default() };
                let (mut q, mut eq) = (EventQueue::new(), EventQueue::new());
                let mut now = SimTime::ZERO;
                // A direction holds state iff a packet or a block ever
                // reached it: reads and unblocks make none.
                let mut used = [false; 2];
                let dir_of = |d: bool| if d { LinkDirection::AToB } else { LinkDirection::BToA };
                for (id, op) in ops.into_iter().enumerate() {
                    match op {
                        Op::Offer(d, size) => {
                            let dir = dir_of(d);
                            used[dir.index()] = true;
                            let got = link.enqueue(now, dir, pkt(id as u64, size), &mut q);
                            let want = eager.enqueue(now, dir, pkt(id as u64, size), &mut eq);
                            prop_assert_eq!(got, want);
                        }
                        Op::Block(d, blocked) => {
                            let dir = dir_of(d);
                            used[dir.index()] |= blocked;
                            link.set_blocked(dir, blocked);
                            eager.dirs[dir.index()].blocked = blocked;
                        }
                        Op::Step => {
                            let (got, want) = (q.pop(), eq.pop());
                            prop_assert_eq!(got.as_ref().map(|e| e.time), want.as_ref().map(|e| e.time));
                            let (Some(got), Some(want)) = (got, want) else { continue };
                            now = got.time;
                            match (got.kind, want.kind) {
                                (EventKind::LinkTxDone { dir, .. }, EventKind::LinkTxDone { dir: wdir, .. }) => {
                                    prop_assert_eq!(dir, wdir);
                                    link.on_tx_done(now, dir, &mut q);
                                    eager.on_tx_done(now, dir, &mut eq);
                                }
                                (
                                    EventKind::Deliver { node, packet, .. },
                                    EventKind::Deliver { node: wnode, packet: wpacket, .. },
                                ) => prop_assert_eq!((node, packet), (wnode, wpacket)),
                                (got, want) => prop_assert!(false, "{:?} vs {:?}", got, want),
                            }
                        }
                    }
                    for dir in [LinkDirection::AToB, LinkDirection::BToA] {
                        let m = &eager.dirs[dir.index()];
                        prop_assert_eq!(link.stats(dir), &m.stats);
                        prop_assert_eq!(link.queued_bytes(dir), m.queued_bytes);
                        prop_assert_eq!(link.queued_pkts(dir), m.queue.len());
                        prop_assert_eq!(link.has_in_flight(dir), m.in_flight.is_some());
                        prop_assert_eq!(link.dirs[dir.index()].is_some(), used[dir.index()]);
                    }
                }
            }
        }
    }
}
