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
//! The queue is an index-ordered binary heap over a **slab** of event
//! payloads. Heap entries are 40-byte `Copy` tuples `(time, ptime, chain,
//! seq, slot)`; the [`EventKind`] payloads — which carry whole packets
//! for `Deliver` events — live in slab slots and never move during heap
//! sift operations.
//! Popping recycles the slot through a free list, so in steady state the
//! queue performs **zero heap allocations per event**: the slab and heap
//! grow to the backlog's high-water mark once and are reused forever.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use aitf_packet::Packet;

use crate::link::{LinkDirection, LinkId};
use crate::node::NodeId;
use crate::time::SimTime;

/// What happens when an event fires.
#[derive(Debug)]
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

/// The heap's unit of ordering: when, in what order, and *where* the
/// payload lives. `Copy`-small on purpose — heap sift operations move these
/// entries, never the payloads.
#[derive(Clone, Copy, Debug)]
struct HeapEntry {
    time: SimTime,
    ptime: SimTime,
    chain: u64,
    seq: u64,
    slot: u32,
}

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

/// Priority queue of pending events, earliest first.
///
/// Payloads are stored in a slab indexed by slot handles; see the module
/// docs for the layout and its allocation behaviour.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<HeapEntry>,
    slab: Vec<Option<EventKind>>,
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
    /// on the current chain.
    ///
    /// In a sharded simulation every queue stays purely local: shard code
    /// only schedules for nodes it owns (cut links — the only cross-shard
    /// paths — are coordinator-owned and replayed at window barriers), an
    /// invariant [`EventQueue::bind_shard`] enforces for `Deliver`s.
    pub fn schedule(&mut self, time: SimTime, kind: EventKind) {
        let ptime = self.now;
        let chain = self.chain.unwrap_or(time.0);
        self.schedule_produced_at(time, ptime, chain, kind);
    }

    /// Schedules `kind` with an explicit produce time and chain key — the
    /// coordinator uses this to transplant replay-produced events into a
    /// shard's queue at the heap position their producing dispatch would
    /// have given them in a single-threaded run.
    pub(crate) fn schedule_produced_at(
        &mut self,
        time: SimTime,
        ptime: SimTime,
        chain: u64,
        kind: EventKind,
    ) {
        if let Some(guard) = self.guard.as_deref() {
            if let EventKind::Deliver { node, .. } = &kind {
                assert_eq!(
                    guard.shard_of[node.0], guard.my_shard,
                    "Deliver for foreign node {node:?} scheduled in shard {}",
                    guard.my_shard
                );
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.slab[slot as usize].is_none(), "free slot occupied");
                self.slab[slot as usize] = Some(kind);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("slab exceeds u32 slots");
                self.slab.push(Some(kind));
                slot
            }
        };
        self.heap.push(HeapEntry {
            time,
            ptime,
            chain,
            seq,
            slot,
        });
    }

    /// The firing time of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Removes and returns the earliest event, recycling its payload slot.
    pub fn pop(&mut self) -> Option<Event> {
        let entry = self.heap.pop()?;
        let kind = self.slab[entry.slot as usize]
            .take()
            .expect("heap entry points at an occupied slot");
        self.free.push(entry.slot);
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

    fn timer(node: usize, token: u64) -> EventKind {
        EventKind::Timer {
            node: NodeId(node),
            token,
        }
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
    fn pop_recycles_slab_slots() {
        let mut q = EventQueue::new();
        // Steady-state pattern: backlog of one, many schedule/pop cycles.
        q.schedule(SimTime(0), timer(0, 0));
        let mut popped = 0;
        for i in 1..10_000u64 {
            q.schedule(SimTime(i), timer(0, i));
            popped += u64::from(q.pop().is_some());
        }
        assert_eq!(
            q.slab.len(),
            2,
            "slab must stay at the backlog high-water mark"
        );
        assert_eq!(popped + q.len() as u64, 10_000, "every schedule accounted");
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
}
