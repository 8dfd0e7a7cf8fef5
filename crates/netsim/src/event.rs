//! The event queue at the heart of the simulator.
//!
//! Events are ordered by `(time, produce time, chain descending,
//! sequence)`:
//!
//! - the **produce time** is the simulation instant the scheduling call
//!   ran at;
//! - the **chain** key identifies the causal chain the event descends
//!   from: an event scheduled outside any dispatch (`on_start`, external
//!   context calls, build time) roots a new chain keyed by its own firing
//!   time, and every event scheduled during a dispatch inherits the
//!   dispatched event's chain;
//! - the **sequence** number is a monotonically increasing per-queue
//!   tie-breaker, so remaining ties fire in scheduling order.
//!
//! In a classic single-threaded run the produce-time and chain components
//! are redundant: dispatch order is monotone in time, so among events
//! with equal firing times scheduling order *is* produce-time order, and
//! among phase-locked periodic chains (equal firing and produce times,
//! e.g. same-rate flood sources ticking on one nanosecond grid) the
//! sequence order resolves exactly like comparing the chains' ancestor
//! times lexicographically — the *younger* chain reaches its root (whose
//! own produce time is the earliest) first and therefore dispatches
//! first, which is precisely `chain` descending. Carrying both keys
//! explicitly lets a sharded run reproduce the single-threaded
//! interleave: a cross-shard delivery materialises in the destination
//! queue at a window barrier, later in wall-clock terms than any
//! same-instant local event, yet sorts exactly where its producing
//! dispatch would have put it. This total order is what makes the
//! simulator deterministic.
//!
//! # Memory layout
//!
//! The queue is a binary heap of **whole events** plus a **packet pool**.
//! A heap entry is the ordering key `(time, ptime, chain, seq)` and, inline,
//! what fires: `Timer { node, token }`, `LinkTxDone { link, dir }` or
//! `Deliver { node, link, slot }` — 56 bytes in all (pinned below), so a
//! timer or a transmission completion is one heap entry and nothing else.
//! Only packets are too big to sift: a `Deliver` entry carries a
//! `PacketSlot`, a handle to the pool slot (`Vec<Option<Packet>>` + a LIFO
//! free list) the packet was written into when its link accepted it. The
//! packet stays in that slot — through the link's queue, its serialisation
//! and its propagation — until the receiving node's dispatch takes it out;
//! it is written once per hop. In steady state the queue performs **zero
//! heap allocations per event**: the heap grows to the backlog's high-water
//! mark once, the pool to the most packets ever in the network at once, and
//! both are reused forever.
//!
//! # Who owns a parked packet
//!
//! A `PacketSlot` is **move-only** (no `Clone`, no `Copy`), so a parked
//! packet has exactly one owner at a time — a link's queue entry, a link's
//! in-flight cell, or a `Deliver` heap entry — and a second handle to one
//! slot does not compile. `EventQueue::unpark` consumes the handle and
//! leaves the slot `None`, so redeeming a slot twice (only possible by
//! forging a handle) is the `expect` in `unpark`, not a wrong packet. The
//! ledger that licenses all this is one identity, checked at the end of
//! every run: `parked == Σ_links (queued + in flight) + pending Deliver
//! events` ([`EventQueue::parked`], `Simulator::parked_packets`).
//!
//! The one rule a caller of the public [`crate::Link`] API must keep: **a
//! link redeems its handles from the queue it parked them in** — hand a
//! link the same `EventQueue` for life. The simulator binds every link to
//! one queue (its shard's, or the coordinator's scratch queue for a cut
//! link), and re-homes links only in `apply_partition`, which runs on an
//! empty queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use aitf_packet::Packet;

use crate::link::{LinkDirection, LinkId};
use crate::node::NodeId;
use crate::time::SimTime;

/// What happens when an event fires.
#[derive(Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A packet finishes propagation and arrives at `node` via `link`.
    Deliver {
        /// Receiving node.
        node: NodeId,
        /// Link the packet arrives on.
        link: LinkId,
        /// The packet itself.
        packet: Packet,
    },
    /// The head-of-line packet on one direction of a link finishes
    /// transmission; the link starts its propagation and begins serialising
    /// the next queued packet, if any.
    LinkTxDone {
        /// The transmitting link.
        link: LinkId,
        /// Which direction finished.
        dir: LinkDirection,
    },
    /// A node timer fires with an opaque token chosen by the node.
    Timer {
        /// The owning node.
        node: NodeId,
        /// Opaque token; the node gives it meaning.
        token: u64,
    },
}

/// A scheduled event, as returned by [`EventQueue::pop`].
#[derive(Debug)]
pub struct Event {
    /// When the event fires.
    pub time: SimTime,
    /// The simulation instant the event was produced at (see the module
    /// docs for why equal firing times order by this first).
    pub ptime: SimTime,
    /// Root firing time of the causal chain this event descends from;
    /// equal `(time, ptime)` ties order by this *descending* (see the
    /// module docs).
    pub chain: u64,
    /// Scheduling-order tie breaker.
    pub seq: u64,
    /// What fires.
    pub kind: EventKind,
}

/// Handle to a packet parked in an [`EventQueue`]'s pool. Deliberately
/// neither `Clone` nor `Copy`: see the module docs on ownership.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct PacketSlot(u32);

/// What a heap entry fires — [`EventKind`] with the packet replaced by its
/// pool handle, small enough to live in the heap.
#[derive(Debug)]
pub(crate) enum Fire {
    Deliver {
        node: NodeId,
        link: LinkId,
        slot: PacketSlot,
    },
    LinkTxDone {
        link: LinkId,
        dir: LinkDirection,
    },
    Timer {
        node: NodeId,
        token: u64,
    },
}

/// One pending event, whole: when, in what order, and what fires. Heap sift
/// operations move these entries; packets never move.
#[derive(Debug)]
pub(crate) struct HeapEntry {
    pub(crate) time: SimTime,
    ptime: SimTime,
    pub(crate) chain: u64,
    seq: u64,
    pub(crate) fire: Fire,
}

// The next field added to an event shows up here, not in `run_s`.
const _: () = assert!(std::mem::size_of::<HeapEntry>() <= 56);

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time
            && self.ptime == other.ptime
            && self.chain == other.chain
            && self.seq == other.seq
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event
        // on top. Note `chain` compares descending (younger chain first),
        // so it is NOT flipped here.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.ptime.cmp(&self.ptime))
            .then_with(|| self.chain.cmp(&other.chain))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Shard-ownership guard for a queue that belongs to one shard of a
/// partitioned simulation. Every queue is purely local — shard code only
/// ever schedules events for nodes it owns, because the only cross-shard
/// paths (cut links) are owned by the coordinator, which replays their
/// operations at window barriers and schedules the resulting `Deliver`s
/// directly into the destination shard's queue. The guard turns any
/// violation of that invariant into an immediate panic instead of a silent
/// determinism bug.
#[derive(Debug)]
pub(crate) struct ShardGuard {
    my_shard: u16,
    shard_of: Arc<Vec<u16>>,
}

/// Priority queue of pending events, earliest first, and the pool the
/// packets in the network are parked in; see the module docs for the
/// layout, its allocation behaviour and who owns a parked packet.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<HeapEntry>,
    pool: Vec<Option<Packet>>,
    free: Vec<u32>,
    next_seq: u64,
    /// The current simulation instant, recorded as the produce time of
    /// every [`EventQueue::schedule`] call. The event loop keeps it at the
    /// dispatching event's time; between runs it is the simulation clock.
    now: SimTime,
    /// The chain key of the dispatch currently running, inherited by every
    /// event it schedules. `None` outside any dispatch: scheduled events
    /// then root fresh chains keyed by their own firing time.
    chain: Option<u64>,
    guard: Option<Box<ShardGuard>>,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Sets the produce time and chain key stamped onto subsequent
    /// [`EventQueue::schedule`] calls: the dispatching event's time and
    /// chain inside the event loop, or `(clock, None)` outside any
    /// dispatch (scheduled events then root fresh chains).
    pub(crate) fn set_ctx(&mut self, now: SimTime, chain: Option<u64>) {
        self.now = now;
        self.chain = chain;
    }

    /// The produce time and chain key a schedule call would be stamped
    /// with right now — what cut-link staging records so the barrier
    /// replay can order staged operations exactly like the heap would.
    pub(crate) fn produce_ctx(&self) -> (SimTime, Option<u64>) {
        (self.now, self.chain)
    }

    /// Schedules `kind` to fire at `time`, produced at the current instant
    /// on the current chain. A `Deliver`'s packet is parked in the pool.
    ///
    /// In a sharded simulation every queue stays purely local: shard code
    /// only schedules for nodes it owns (cut links — the only cross-shard
    /// paths — are coordinator-owned and replayed at window barriers), an
    /// invariant [`EventQueue::bind_shard`] enforces for `Deliver`s.
    #[inline]
    pub fn schedule(&mut self, time: SimTime, kind: EventKind) {
        let ptime = self.now;
        let chain = self.chain.unwrap_or(time.0);
        self.schedule_produced_at(time, ptime, chain, kind);
    }

    /// Schedules `kind` with an explicit produce time and chain key — the
    /// coordinator uses this to transplant replay-produced events into a
    /// shard's queue at the heap position their producing dispatch would
    /// have given them in a single-threaded run.
    #[inline]
    pub(crate) fn schedule_produced_at(
        &mut self,
        time: SimTime,
        ptime: SimTime,
        chain: u64,
        kind: EventKind,
    ) {
        let fire = match kind {
            EventKind::Deliver { node, link, packet } => {
                self.check_local(node);
                let slot = self.park(packet);
                Fire::Deliver { node, link, slot }
            }
            EventKind::LinkTxDone { link, dir } => Fire::LinkTxDone { link, dir },
            EventKind::Timer { node, token } => Fire::Timer { node, token },
        };
        self.push(time, ptime, chain, fire);
    }

    /// Schedules the delivery of an already parked packet to `node` at
    /// `time`, produced at the current instant on the current chain — what
    /// a link does when a transmission completes.
    #[inline]
    pub(crate) fn schedule_deliver(
        &mut self,
        time: SimTime,
        node: NodeId,
        link: LinkId,
        slot: PacketSlot,
    ) {
        self.check_local(node);
        let chain = self.chain.unwrap_or(time.0);
        self.push(time, self.now, chain, Fire::Deliver { node, link, slot });
    }

    /// The locality invariant of a shard-bound queue (see [`ShardGuard`]).
    #[inline]
    fn check_local(&self, node: NodeId) {
        if let Some(guard) = self.guard.as_deref() {
            assert_eq!(
                guard.shard_of[node.0], guard.my_shard,
                "Deliver for foreign node {node:?} scheduled in shard {}",
                guard.my_shard
            );
        }
    }

    #[inline]
    fn push(&mut self, time: SimTime, ptime: SimTime, chain: u64, fire: Fire) {
        let seq = self.next_seq;
        self.next_seq += 1;
        // Allocates only when the backlog passes its high-water mark.
        self.heap.push(HeapEntry {
            time,
            ptime,
            chain,
            seq,
            fire,
        });
    }

    /// Writes `packet` into a free pool slot and returns the handle that
    /// owns it until [`EventQueue::unpark`].
    #[inline]
    pub(crate) fn park(&mut self, packet: Packet) -> PacketSlot {
        let slot = self.free.pop().unwrap_or_else(|| {
            let slot = u32::try_from(self.pool.len()).expect("pool exceeds u32 slots");
            // Allocates only when more packets are in the network than
            // ever before.
            self.pool.push(None);
            slot
        });
        debug_assert!(self.pool[slot as usize].is_none(), "free slot occupied");
        self.pool[slot as usize] = Some(packet);
        PacketSlot(slot)
    }

    /// Takes the packet `slot` owns out of the pool and recycles the slot.
    #[inline]
    pub(crate) fn unpark(&mut self, slot: PacketSlot) -> Packet {
        // Recycle first: with the take last, the packet is moved straight
        // into the caller's place instead of through a temporary.
        self.free.push(slot.0);
        self.pool[slot.0 as usize]
            .take()
            .expect("a handle names an occupied pool slot")
    }

    /// Number of packets parked in the pool right now — every packet a link
    /// bound to this queue holds, plus every pending `Deliver`.
    pub fn parked(&self) -> usize {
        self.pool.len() - self.free.len()
    }

    /// Number of pending `Deliver` events (one pass over the heap; the
    /// pool-identity check reads it, the event loop never does).
    pub fn pending_delivers(&self) -> usize {
        let delivers = |e: &&HeapEntry| matches!(e.fire, Fire::Deliver { .. });
        self.heap.iter().filter(delivers).count()
    }

    /// The firing time of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Removes and returns the earliest heap entry; a `Deliver`'s packet
    /// stays parked until the caller redeems the entry's handle.
    #[inline]
    pub(crate) fn pop_entry(&mut self) -> Option<HeapEntry> {
        self.heap.pop()
    }

    /// Removes and returns the earliest event, taking a `Deliver`'s packet
    /// out of the pool.
    pub fn pop(&mut self) -> Option<Event> {
        let entry = self.pop_entry()?;
        let kind = match entry.fire {
            Fire::Deliver { node, link, slot } => {
                let packet = self.unpark(slot);
                EventKind::Deliver { node, link, packet }
            }
            Fire::LinkTxDone { link, dir } => EventKind::LinkTxDone { link, dir },
            Fire::Timer { node, token } => EventKind::Timer { node, token },
        };
        Some(Event {
            time: entry.time,
            ptime: entry.ptime,
            chain: entry.chain,
            seq: entry.seq,
            kind,
        })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Binds the queue to one shard of a partitioned simulation so
    /// [`EventQueue::schedule`] can check the locality invariant on every
    /// `Deliver`.
    pub(crate) fn bind_shard(&mut self, my_shard: u16, shard_of: Arc<Vec<u16>>) {
        self.guard = Some(Box::new(ShardGuard { my_shard, shard_of }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aitf_packet::{Addr, Header, TrafficClass};

    fn timer(node: usize, token: u64) -> EventKind {
        EventKind::Timer {
            node: NodeId(node),
            token,
        }
    }

    pub(super) fn pkt(id: u64) -> Packet {
        let h = Header::udp(Addr::new(1, 1, 1, 1), Addr::new(2, 2, 2, 2), 1, 2);
        Packet::data(id, h, TrafficClass::Legit, 100)
    }

    fn pop_token(q: &mut EventQueue) -> u64 {
        match q.pop().expect("event").kind {
            EventKind::Timer { token, .. } => token,
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), timer(0, 3));
        q.schedule(SimTime(10), timer(0, 1));
        q.schedule(SimTime(20), timer(0, 2));
        assert_eq!(pop_token(&mut q), 1);
        assert_eq!(pop_token(&mut q), 2);
        assert_eq!(pop_token(&mut q), 3);
        assert!(q.is_empty());
    }

    #[test]
    fn ties_break_in_scheduling_order() {
        let mut q = EventQueue::new();
        for token in 0..100 {
            q.schedule(SimTime(5), timer(0, token));
        }
        for expected in 0..100 {
            assert_eq!(pop_token(&mut q), expected);
        }
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime(50), timer(0, 0));
        q.schedule(SimTime(20), timer(0, 1));
        assert_eq!(q.peek_time(), Some(SimTime(20)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime(50)));
    }

    #[test]
    fn len_tracks_usage() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(1), timer(0, 0));
        q.schedule(SimTime(2), timer(0, 1));
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn timers_and_tx_dones_never_touch_the_pool() {
        let mut q = EventQueue::new();
        // A backlog of 8 — 9 at its high-water mark, between a schedule
        // and the pop that follows — then many cycles at that backlog.
        for i in 0..9 {
            q.schedule(SimTime(i), timer(0, i));
        }
        let high_water = q.heap.capacity();
        let mut popped = u64::from(q.pop().is_some());
        for i in 9..10_000u64 {
            let kind = if i % 2 == 0 {
                timer(0, i)
            } else {
                EventKind::LinkTxDone {
                    link: LinkId(0),
                    dir: LinkDirection::AToB,
                }
            };
            q.schedule(SimTime(i), kind);
            popped += u64::from(q.pop().is_some());
        }
        assert_eq!(q.parked(), 0);
        assert!(q.pool.is_empty() && q.free.is_empty(), "pool was touched");
        assert_eq!(q.heap.capacity(), high_water, "heap grew past the backlog");
        assert_eq!(popped + q.len() as u64, 10_000, "every schedule accounted");
    }

    #[test]
    fn deliver_cycles_keep_the_pool_at_the_backlog_high_water_mark() {
        let mut q = EventQueue::new();
        let deliver = |id| EventKind::Deliver {
            node: NodeId(0),
            link: LinkId(0),
            packet: pkt(id),
        };
        // Steady-state pattern: backlog of one, many schedule/pop cycles.
        q.schedule(SimTime(0), deliver(0));
        for i in 1..10_000u64 {
            q.schedule(SimTime(i), deliver(i));
            match q.pop().expect("backlog of one").kind {
                EventKind::Deliver { packet, .. } => assert_eq!(packet, pkt(i - 1)),
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!(
            q.pool.len(),
            2,
            "pool must stay at the backlog high-water mark"
        );
        assert_eq!((q.parked(), q.pending_delivers(), q.len()), (1, 1, 1));
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), timer(0, 10));
        q.schedule(SimTime(5), timer(0, 5));
        assert_eq!(pop_token(&mut q), 5);
        q.schedule(SimTime(7), timer(0, 7));
        q.schedule(SimTime(12), timer(0, 12));
        assert_eq!(pop_token(&mut q), 7);
        assert_eq!(pop_token(&mut q), 10);
        assert_eq!(pop_token(&mut q), 12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;

    proptest! {
        /// Popping must yield non-decreasing times regardless of insertion
        /// order, and equal times must preserve insertion order.
        #[test]
        fn total_order_holds(times in proptest::collection::vec(0u64..1_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime(t), EventKind::Timer { node: NodeId(0), token: i as u64 });
            }
            let mut last: Option<(SimTime, u64)> = None;
            while let Some(ev) = q.pop() {
                let token = match ev.kind {
                    EventKind::Timer { token, .. } => token,
                    _ => unreachable!(),
                };
                if let Some((lt, lseq)) = last {
                    prop_assert!(ev.time >= lt);
                    if ev.time == lt {
                        prop_assert!(ev.seq > lseq, "FIFO broken among equal times");
                    }
                }
                prop_assert_eq!(times[token as usize], ev.time.0);
                last = Some((ev.time, ev.seq));
            }
        }
    }

    /// Event number `id` of kind `which`, payload and all.
    fn kind(which: u8, id: u64) -> EventKind {
        let (node, link) = (NodeId(id as usize % 3), LinkId(id as usize % 5));
        match which {
            0 => EventKind::Deliver {
                node,
                link,
                packet: super::tests::pkt(id),
            },
            1 => EventKind::LinkTxDone {
                link,
                dir: LinkDirection::BToA,
            },
            _ => EventKind::Timer { node, token: id },
        }
    }

    /// The model's event: the documented ordering key, then the payload.
    type Modelled = ((u64, u64, Reverse<u64>, u64), EventKind);

    proptest! {
        /// The public `schedule` / `pop` are compositions (park + push; pop
        /// entry + unpark): whatever is interleaved, every event must come
        /// back whole, in the documented `(time, ptime, chain descending,
        /// seq)` order — held to a sorted `Vec` that keeps events by value.
        #[test]
        fn schedule_and_pop_equal_the_sorted_vec_model(
            // `Some((time, ptime, chain, kind, explicit))` schedules, `None`
            // pops; tiny key ranges, so every tie-break level is exercised.
            ops in proptest::collection::vec(
                prop_oneof![
                    (0u64..4, 0u64..3, 0u64..4, 0u8..3, any::<bool>()).prop_map(Some),
                    (0u64..4, 0u64..3, 0u64..4, 0u8..3, any::<bool>()).prop_map(Some),
                    Just(None),
                ],
                1..160,
            ),
        ) {
            let mut q = EventQueue::new();
            let mut model: Vec<Modelled> = Vec::new();
            for (seq, op) in ops.into_iter().enumerate() {
                let seq = seq as u64;
                if let Some((time, ptime, chain, which, explicit)) = op {
                    let (at, produced) = (SimTime(time), SimTime(ptime));
                    // Stamped from the dispatch context; chain 3 stands for
                    // "outside any dispatch", which roots a chain at `time`.
                    let rooted = (chain < 3).then_some(chain);
                    let chain = if explicit { chain } else { rooted.unwrap_or(time) };
                    if explicit {
                        q.schedule_produced_at(at, produced, chain, kind(which, seq));
                    } else {
                        q.set_ctx(produced, rooted);
                        q.schedule(at, kind(which, seq));
                    }
                    model.push(((time, ptime, Reverse(chain), seq), kind(which, seq)));
                } else {
                    model.sort_by_key(|m| m.0);
                    let want = (!model.is_empty()).then(|| model.remove(0));
                    let got = q.pop().map(|e| ((e.time.0, e.ptime.0, Reverse(e.chain)), e.kind));
                    prop_assert_eq!(got, want.map(|((t, p, c, _), k)| ((t, p, c), k)));
                }
                let parked = model.iter().filter(|m| matches!(m.1, EventKind::Deliver { .. })).count();
                prop_assert_eq!((q.len(), q.parked(), q.pending_delivers()), (model.len(), parked, parked));
            }
        }
    }
}
