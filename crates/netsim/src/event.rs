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
//! The queue holds **whole events** plus a **packet pool**. An entry is the
//! ordering key `(time, ptime, chain, seq)` and, inline, what fires:
//! `Timer { node, token }`, `LinkTxDone { link, dir }` or
//! `Deliver { node, link, slot }` — 56 bytes in all (pinned below), so a
//! timer or a transmission completion is one entry and nothing else. Only
//! packets are too big to move around: a `Deliver` entry carries a
//! `PacketSlot`, a handle to the pool slot (`Vec<Option<Packet>>` + a LIFO
//! free list) the packet was written into when its link accepted it. The
//! packet stays in that slot — through the link's queue, its serialisation
//! and its propagation — until the receiving node's dispatch takes it out;
//! it is written once per hop.
//!
//! The entries live in a **monotone radix heap** keyed on firing time
//! (Ahuja, Mehlhorn, Orlin & Tarjan, "Faster algorithms for the shortest
//! path problem", JACM 1990). `last` is the latest firing time popped so
//! far:
//!
//! - **`due`**, a binary heap under the full order above, holds every
//!   pending event that fires *at or before* `last` — the ties that
//!   phase-locked flood sources make the common case;
//! - every other event sits, unordered, in **bucket `63 − lzcnt(time ^
//!   last)`**, the highest bit its time differs from `last` in. An
//!   `occupied` mask and a per-bucket minimum answer `peek_time` in O(1)
//!   when nothing is due.
//!
//! Filing an event is O(1). A pop takes from `due`; when `due` is empty it
//! first empties the lowest occupied bucket: `last` becomes that bucket's
//! minimum, and the bucket's entries are re-filed strictly lower — into
//! `due` if they fire at the new `last`, into a lower bucket otherwise. An
//! event is therefore re-filed at most 64 times and usually once or twice,
//! and only the events due now are ever compared key by key.
//!
//! A bucket is a singly linked list of fixed 64-entry **chunks** (3.5 KB)
//! taken from one arena with a free list: a refill hands the emptied
//! bucket's chunks back, and the next filing into any bucket reuses them,
//! so memory stays O(pending) — at most one part-filled chunk per occupied
//! bucket beyond ⌈pending / 64⌉. In steady state the queue performs **zero
//! heap allocations per event**: the arena grows to its high-water mark of
//! chunks in use, `due` to the most events ever tied at one instant, the
//! pool to the most packets ever in the network at once, and all three are
//! reused forever.
//!
//! **`last` moves only at pops.** Build-time and between-run schedules may
//! come in any order; moving `last` on a schedule into an empty queue
//! instead would make a start order that runs backwards re-file everything
//! on every schedule. A schedule at or *below* `last` is one push into
//! `due`, whose full-key order pops mixed times correctly. The event loop
//! never schedules below the instant it dispatches — the loop itself panics
//! if a popped event fires before its shard's clock — but callers of the
//! public API may.
//!
//! # Who owns a parked packet
//!
//! A `PacketSlot` is **move-only** (no `Clone`, no `Copy`), so a parked
//! packet has exactly one owner at a time — a link's queue entry, a link's
//! in-flight cell, or a pending `Deliver` entry — and a second handle to one
//! slot does not compile. `EventQueue::unpark` consumes the handle and
//! leaves the slot `None`, so redeeming a slot twice (only possible by
//! forging a handle) is the `expect` in `unpark`, not a wrong packet. The
//! ledger that licenses all this is one identity per queue, checked at the
//! end of every run: `parked == Σ_link directions delivering here (queued +
//! in flight) + pending Deliver events` ([`EventQueue::parked`],
//! `Simulator::parked_packets`).
//!
//! The one rule that keeps it: **a link redeems its handles from the queue
//! of the shard each direction delivers to** — for a caller of the public
//! [`crate::Link`] API, the one queue it hands the link for life. A cut
//! link's replay parks into the receiving shard's pool; links are re-homed
//! only in `apply_partition`, which runs on an empty queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use aitf_packet::Packet;

use crate::link::{LinkDirection, LinkId, LinkSink};
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

/// What a queue entry fires — [`EventKind`] with the packet replaced by its
/// pool handle, small enough to live in the queue.
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

/// One pending event, whole: when, in what order, and what fires. Filing
/// and `due`'s sift operations move these entries; packets never move.
#[derive(Debug)]
pub(crate) struct HeapEntry {
    pub(crate) time: SimTime,
    ptime: SimTime,
    pub(crate) chain: u64,
    seq: u64,
    pub(crate) fire: Fire,
}

/// Entries per bucket chunk.
const CHUNK: usize = 64;

/// One radix bucket per bit a firing time can differ from `last` in.
const BUCKETS: usize = 64;

/// The end of a chunk list.
const NIL: u32 = u32::MAX;

// The next field added to an event shows up here, not in `run_s`.
const _: () = assert!(std::mem::size_of::<HeapEntry>() <= 56);
// A chunk's entries stay within one 4 KiB page.
const _: () = assert!(CHUNK * std::mem::size_of::<HeapEntry>() <= 4096);

/// Up to [`CHUNK`] entries of one bucket, unordered, and the next chunk of
/// that bucket's list — or, while the chunk is free, of the free list.
#[derive(Debug)]
struct Chunk {
    entries: Vec<HeapEntry>,
    next: u32,
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
/// operations at window barriers and pushes the resulting `Deliver`s
/// directly into the destination shard's queue. The guard checks every
/// `Deliver` either way enters a queue by, turning any violation of that
/// invariant into an immediate panic instead of a silent determinism bug.
#[derive(Debug)]
pub(crate) struct ShardGuard {
    my_shard: u16,
    shard_of: Arc<Vec<u16>>,
}

/// Priority queue of pending events, earliest first, and the pool the
/// packets in the network are parked in; see the module docs for the
/// layout, its allocation behaviour and who owns a parked packet.
#[derive(Debug)]
pub struct EventQueue {
    /// The latest firing time popped so far.
    last: SimTime,
    /// The pending events that fire at or before `last`, in event order.
    due: BinaryHeap<HeapEntry>,
    /// Bit `b` is set while bucket `b` holds an event.
    occupied: u64,
    /// The head chunk of each occupied bucket's list.
    heads: [u32; BUCKETS],
    /// The earliest firing time in each occupied bucket.
    mins: [u64; BUCKETS],
    /// Every chunk ever allocated; the free ones are listed from `spare`.
    chunks: Vec<Chunk>,
    spare: u32,
    len: usize,
    pool: Vec<Option<Packet>>,
    free: Vec<u32>,
    next_seq: u64,
    /// The current simulation instant, recorded as the produce time of
    /// every [`EventQueue::schedule`] call — a shard's one clock. The event
    /// loop keeps it at the dispatching event's time; between runs it is
    /// the simulation clock.
    now: SimTime,
    /// The chain key of the dispatch currently running, inherited by every
    /// event it schedules. `None` outside any dispatch: scheduled events
    /// then root fresh chains keyed by their own firing time.
    chain: Option<u64>,
    guard: Option<Box<ShardGuard>>,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            last: SimTime::ZERO,
            due: BinaryHeap::new(),
            occupied: 0,
            heads: [NIL; BUCKETS],
            mins: [0; BUCKETS],
            chunks: Vec::new(),
            spare: NIL,
            len: 0,
            pool: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            chain: None,
            guard: None,
        }
    }

    /// Sets the produce time and chain key stamped onto subsequent
    /// [`EventQueue::schedule`] calls: the dispatching event's time and
    /// chain inside the event loop, or `(clock, None)` outside any
    /// dispatch (scheduled events then root fresh chains).
    pub(crate) fn set_ctx(&mut self, now: SimTime, chain: Option<u64>) {
        self.now = now;
        self.chain = chain;
    }

    /// The current simulation instant: the produce time stamped onto the
    /// next schedule call.
    #[inline]
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// The produce time and chain key a schedule call would be stamped
    /// with right now — what cut-link staging records so the barrier
    /// replay can order staged operations exactly like the heap would.
    pub(crate) fn produce_ctx(&self) -> (SimTime, Option<u64>) {
        (self.now, self.chain)
    }

    /// Schedules `kind` to fire at `time`, produced at the current instant
    /// on the current chain. A `Deliver`'s packet is parked in the pool.
    #[inline]
    pub fn schedule(&mut self, time: SimTime, kind: EventKind) {
        match kind {
            EventKind::Deliver { node, link, packet } => {
                let slot = self.park(packet);
                self.deliver(time, node, link, slot);
            }
            EventKind::LinkTxDone { link, dir } => self.tx_done(time, link, dir),
            EventKind::Timer { node, token } => self.push_now(time, Fire::Timer { node, token }),
        }
    }

    /// Schedules the delivery of the packet `slot` owns — parked in this
    /// queue's pool — to `node` at `time` under an explicit produce time and
    /// chain key: the one path a `Deliver` enters a queue by (a cut-link
    /// replay step passes its own keys).
    #[inline]
    pub(crate) fn push_deliver(
        &mut self,
        time: SimTime,
        ptime: SimTime,
        chain: u64,
        node: NodeId,
        link: LinkId,
        slot: PacketSlot,
    ) {
        if let Some(guard) = self.guard.as_deref() {
            // The locality invariant of a shard-bound queue (see
            // `ShardGuard`).
            assert_eq!(
                guard.shard_of[node.0], guard.my_shard,
                "Deliver for foreign node {node:?} scheduled in shard {}",
                guard.my_shard
            );
        }
        self.push(time, ptime, chain, Fire::Deliver { node, link, slot });
    }

    /// Files a timer or a tx-done at `time`, produced at the current
    /// instant on the current chain.
    #[inline]
    pub(crate) fn push_now(&mut self, time: SimTime, fire: Fire) {
        let chain = self.chain.unwrap_or(time.0);
        self.push(time, self.now, chain, fire);
    }

    #[inline]
    fn push(&mut self, time: SimTime, ptime: SimTime, chain: u64, fire: Fire) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.file(HeapEntry {
            time,
            ptime,
            chain,
            seq,
            fire,
        });
    }

    /// Files `entry` against `last`: into `due` if it fires then or before,
    /// else into the bucket of the highest bit its time differs from `last`
    /// in.
    #[inline]
    fn file(&mut self, entry: HeapEntry) {
        if entry.time <= self.last {
            // Allocates only when more events are due at once than ever
            // before.
            self.due.push(entry);
            return;
        }
        let diff = entry.time.0 ^ self.last.0;
        let b = (u64::BITS - 1 - diff.leading_zeros()) as usize;
        let bit = 1u64 << b;
        if self.occupied & bit == 0 {
            self.occupied |= bit;
            self.mins[b] = entry.time.0;
            self.heads[b] = self.take_chunk(NIL);
        } else {
            self.mins[b] = self.mins[b].min(entry.time.0);
            if self.chunks[self.heads[b] as usize].entries.len() == CHUNK {
                self.heads[b] = self.take_chunk(self.heads[b]);
            }
        }
        // Never allocates: a chunk is made with room for `CHUNK` entries
        // and a full one is never pushed to.
        self.chunks[self.heads[b] as usize].entries.push(entry);
    }

    /// An empty chunk, linked in front of `next`: a free one if any.
    #[inline]
    fn take_chunk(&mut self, next: u32) -> u32 {
        let c = self.spare;
        if c == NIL {
            return self.grow(next);
        }
        let chunk = &mut self.chunks[c as usize];
        self.spare = chunk.next;
        chunk.next = next;
        c
    }

    /// Allocates a chunk — only when more chunks are in use than ever
    /// before. Cold, and deliberately not in detlint's `[hot]` list: the
    /// allocation is the arena's high-water growth, which
    /// `trace_zero_cost.rs` checks stops after warm-up.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, next: u32) -> u32 {
        let c = u32::try_from(self.chunks.len()).expect("chunk arena exceeds u32 chunks");
        self.chunks.push(Chunk {
            entries: Vec::with_capacity(CHUNK),
            next,
        });
        c
    }

    /// With nothing due, moves `last` to the earliest pending time and
    /// re-files the lowest occupied bucket (which holds it) into `due` and
    /// the buckets below, handing each chunk back to the free list once it
    /// is empty.
    #[inline]
    fn refill(&mut self) {
        debug_assert!(self.due.is_empty() && self.occupied != 0);
        let b = self.occupied.trailing_zeros() as usize;
        self.occupied &= !(1u64 << b);
        self.last = SimTime(self.mins[b]);
        let mut c = self.heads[b];
        while c != NIL {
            // The chunk is off every list while its entries move, so the
            // filing below cannot be handed it.
            let mut entries = std::mem::take(&mut self.chunks[c as usize].entries);
            for entry in entries.drain(..) {
                self.file(entry);
            }
            let chunk = &mut self.chunks[c as usize];
            chunk.entries = entries;
            let next = std::mem::replace(&mut chunk.next, self.spare);
            self.spare = c;
            c = next;
        }
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
    /// direction delivering into this queue holds, plus every pending
    /// `Deliver`.
    pub fn parked(&self) -> usize {
        self.pool.len() - self.free.len()
    }

    /// Number of pending `Deliver` events (one pass over the pending
    /// events; the pool-identity check reads it, the event loop never does).
    pub fn pending_delivers(&self) -> usize {
        let delivers = |e: &&HeapEntry| matches!(e.fire, Fire::Deliver { .. });
        let filed = self.chunks.iter().flat_map(|c| &c.entries);
        self.due.iter().chain(filed).filter(delivers).count()
    }

    /// The firing time of the next event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(top) = self.due.peek() {
            Some(top.time)
        } else if self.occupied != 0 {
            Some(SimTime(self.mins[self.occupied.trailing_zeros() as usize]))
        } else {
            None
        }
    }

    /// Removes and returns the earliest entry if it fires at or before
    /// `limit`; a `Deliver`'s packet stays parked until the caller redeems
    /// the entry's handle. An event past the limit stays pending and `last`
    /// stays put.
    #[inline]
    pub(crate) fn pop_entry_within(&mut self, limit: SimTime) -> Option<HeapEntry> {
        if self.peek_time()? > limit {
            return None;
        }
        if self.due.is_empty() {
            self.refill();
        }
        self.len -= 1;
        self.due.pop()
    }

    /// Removes and returns the earliest event, taking a `Deliver`'s packet
    /// out of the pool.
    pub fn pop(&mut self) -> Option<Event> {
        let entry = self.pop_entry_within(SimTime::MAX)?;
        Some(self.redeem(entry))
    }

    /// The public form of a popped entry: its packet, if any, taken out of
    /// the pool.
    fn redeem(&mut self, entry: HeapEntry) -> Event {
        let kind = match entry.fire {
            Fire::Deliver { node, link, slot } => {
                let packet = self.unpark(slot);
                EventKind::Deliver { node, link, packet }
            }
            Fire::LinkTxDone { link, dir } => EventKind::LinkTxDone { link, dir },
            Fire::Timer { node, token } => EventKind::Timer { node, token },
        };
        Event {
            time: entry.time,
            ptime: entry.ptime,
            chain: entry.chain,
            seq: entry.seq,
            kind,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Binds the queue to one shard of a partitioned simulation so
    /// [`EventQueue::schedule`] can check the locality invariant on every
    /// `Deliver`.
    pub(crate) fn bind_shard(&mut self, my_shard: u16, shard_of: Arc<Vec<u16>>) {
        self.guard = Some(Box::new(ShardGuard { my_shard, shard_of }));
    }
}

/// A shard's local links write into its queue, under `schedule`'s keys.
impl LinkSink for EventQueue {
    /// Writes `packet` into a free pool slot and returns the handle that
    /// owns it until [`EventQueue::unpark`].
    #[inline]
    fn park(&mut self, packet: Packet) -> PacketSlot {
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

    #[inline]
    fn tx_done(&mut self, at: SimTime, link: LinkId, dir: LinkDirection) {
        self.push_now(at, Fire::LinkTxDone { link, dir });
    }

    #[inline]
    fn deliver(&mut self, at: SimTime, node: NodeId, link: LinkId, slot: PacketSlot) {
        let chain = self.chain.unwrap_or(at.0);
        self.push_deliver(at, self.now, chain, node, link, slot);
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
        // Below the last pop: reported, and popped, before everything else.
        q.schedule(SimTime(10), timer(0, 2));
        assert_eq!(q.peek_time(), Some(SimTime(10)));
        assert_eq!(pop_token(&mut q), 2);
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

    /// Chunks on some bucket's list right now.
    fn chunks_in_use(q: &EventQueue) -> usize {
        let mut free = 0;
        let mut c = q.spare;
        while c != NIL {
            free += 1;
            c = q.chunks[c as usize].next;
        }
        q.chunks.len() - free
    }

    #[test]
    fn timers_and_tx_dones_never_touch_the_pool() {
        let mut q = EventQueue::new();
        // A backlog of 8 — 9 at its high-water mark, between a schedule
        // and the pop that follows — then many cycles at that backlog,
        // crossing every power of two up to 2^16 on the way.
        for i in 0..9 {
            q.schedule(SimTime(i), timer(0, i));
        }
        let mut popped = u64::from(q.pop().is_some());
        let mut warm = None;
        for i in 9..100_000u64 {
            let kind = if i % 2 == 0 {
                timer(0, i)
            } else {
                EventKind::LinkTxDone {
                    link: LinkId(0),
                    dir: LinkDirection::AToB,
                }
            };
            q.schedule(SimTime(i), kind);
            let bound = q.len().div_ceil(CHUNK) + q.occupied.count_ones() as usize;
            assert!(chunks_in_use(&q) <= bound, "more chunks than buckets need");
            popped += u64::from(q.pop().is_some());
            if i == 1_000 {
                warm = Some((q.chunks.len(), q.due.capacity()));
            }
        }
        assert_eq!(q.parked(), 0);
        assert!(q.pool.is_empty() && q.free.is_empty(), "pool was touched");
        assert_eq!(
            Some((q.chunks.len(), q.due.capacity())),
            warm,
            "the arena or `due` grew after warm-up"
        );
        assert_eq!(popped + q.len() as u64, 100_000, "every schedule accounted");
    }

    #[test]
    fn one_bucket_fills_several_chunks_and_drains_in_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(0), timer(0, 0));
        assert_eq!(pop_token(&mut q), 0);
        // 3.5 chunks' worth, all in bucket 20 (times in [2^20, 2^21)),
        // scheduled in descending time order.
        let n = CHUNK as u64 * 7 / 2;
        for i in (0..n).rev() {
            q.schedule(SimTime((1 << 20) + 3 * i), timer(0, i));
        }
        assert_eq!(q.occupied, 1 << 20);
        assert_eq!(chunks_in_use(&q), 4);
        assert_eq!(q.peek_time(), Some(SimTime(1 << 20)));
        for expected in 0..n {
            assert_eq!(pop_token(&mut q), expected);
        }
        assert!(q.is_empty());
        assert_eq!(chunks_in_use(&q), 0);
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

    /// An instant relative to `base`, the latest time popped so far (the
    /// queue's `last`) — where an event is scheduled or where a pop's limit
    /// lies.
    #[derive(Debug, Clone, Copy)]
    enum At {
        /// `base + d`: ties and the lowest buckets.
        Near(u64),
        /// `base` with its low `k` bits set, plus `d` ∈ {0, 1}: the last
        /// instant below a bit-`k` carry and the first above it — the
        /// `2^k − 1 / 2^k` pairs when `base` is 0.
        Edge(u32, u64),
        /// `base + 2^k + d` with `k >= 40`: the top buckets.
        Far(u32, u64),
        /// `u64::MAX − d`: the end of time.
        End(u64),
        /// `base − d`: before the last pop, straight into `due`.
        Below(u64),
    }

    impl At {
        fn resolve(self, base: u64) -> u64 {
            match self {
                At::Near(d) => base.saturating_add(d),
                At::Edge(k, d) => (base | ((1u64 << k) - 1)).saturating_add(d),
                At::Far(k, d) => base.saturating_add(1 << k).saturating_add(d),
                At::End(d) => u64::MAX - d,
                At::Below(d) => base.saturating_sub(d),
            }
        }
    }

    fn at() -> impl Strategy<Value = At> {
        prop_oneof![
            (0u64..4).prop_map(At::Near),
            (0u64..4).prop_map(At::Near),
            (0u32..64, 0u64..2).prop_map(|(k, d)| At::Edge(k, d)),
            (40u32..64, 0u64..3).prop_map(|(k, d)| At::Far(k, d)),
            (0u64..3).prop_map(At::End),
            (1u64..100).prop_map(At::Below),
        ]
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// `(when, ptime, chain, kind)`; tiny key ranges, so every
        /// tie-break level is exercised.
        Schedule(At, u64, u64, u8),
        Pop,
        /// `pop_entry_within(limit)`.
        PopWithin(At),
    }

    proptest! {
        /// The public `schedule` / `pop` are compositions (park + push; pop
        /// entry + unpark): whatever is interleaved, every event must come
        /// back whole, in the documented `(time, ptime, chain descending,
        /// seq)` order — held to a sorted `Vec` that keeps events by value.
        /// Times reach every bucket, both sides of every carry, the end of
        /// time and the past; and a bounded pop must return the model's
        /// earliest event exactly when it fires at or before the limit.
        #[test]
        fn schedule_and_pop_equal_the_sorted_vec_model(
            ops in proptest::collection::vec(
                prop_oneof![
                    (at(), 0u64..3, 0u64..4, 0u8..3).prop_map(|(a, p, c, k)| Op::Schedule(a, p, c, k)),
                    (at(), 0u64..3, 0u64..4, 0u8..3).prop_map(|(a, p, c, k)| Op::Schedule(a, p, c, k)),
                    Just(Op::Pop),
                    at().prop_map(Op::PopWithin),
                ],
                1..200,
            ),
        ) {
            let mut q = EventQueue::new();
            let mut model: Vec<Modelled> = Vec::new();
            let mut base = 0u64;
            for (seq, op) in ops.into_iter().enumerate() {
                let seq = seq as u64;
                if let Op::Schedule(at, ptime, chain, which) = op {
                    let time = at.resolve(base);
                    // Stamped from the dispatch context; chain 3 stands for
                    // "outside any dispatch", which roots a chain at `time`.
                    let rooted = (chain < 3).then_some(chain);
                    q.set_ctx(SimTime(ptime), rooted);
                    q.schedule(SimTime(time), kind(which, seq));
                    let chain = rooted.unwrap_or(time);
                    model.push(((time, ptime, Reverse(chain), seq), kind(which, seq)));
                } else {
                    let limit = match op {
                        Op::PopWithin(at) => at.resolve(base),
                        _ => u64::MAX,
                    };
                    model.sort_by_key(|m| m.0);
                    let want = (model.first().is_some_and(|m| m.0 .0 <= limit)).then(|| model.remove(0));
                    let got = match op {
                        Op::Pop => q.pop(),
                        _ => (q.pop_entry_within(SimTime(limit))).map(|e| q.redeem(e)),
                    };
                    if let Some(e) = &got {
                        base = base.max(e.time.0);
                    }
                    let got = got.map(|e| ((e.time.0, e.ptime.0, Reverse(e.chain)), e.kind));
                    prop_assert_eq!(got, want.map(|((t, p, c, _), k)| ((t, p, c), k)));
                }
                let parked = model.iter().filter(|m| matches!(m.1, EventKind::Deliver { .. })).count();
                prop_assert_eq!((q.len(), q.parked(), q.pending_delivers()), (model.len(), parked, parked));
                prop_assert_eq!(q.peek_time().map(|t| t.0), model.iter().map(|m| m.0 .0).min());
                prop_assert_eq!(q.last.0, base);
            }
        }
    }
}
