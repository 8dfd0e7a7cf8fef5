//! The simulator: builder, core state and the event loop.
//!
//! [`NetworkBuilder`] assembles nodes and links; [`Simulator`] owns them and
//! runs the event loop. Node objects are installed after building because
//! higher layers (the AITF protocol crate) need the topology — routing
//! tables, link lists — to construct them.
//!
//! # Sharded execution
//!
//! A simulator normally runs as **one shard**: a single event queue, node
//! slice and RNG — exactly the classic single-threaded loop. Applying a
//! [`Partition`] (see [`Simulator::apply_shards`]) before the first run
//! splits the world into K shards, each with its own queue, node slice,
//! local links and `(seed, shard_id)`-derived RNG. Shards
//! advance in lockstep through *conservative windows*: every window spans
//! `[g, g + L)` where `g` is the global earliest pending event and `L` the
//! minimum propagation delay over cut links, run up to its **limit** `g + L
//! − 1 ns` (time is integer ns) or the run's end. A shard has one clock, its
//! queue's produce instant; popping an event that fires before it panics.
//!
//! **Workers belong to one `run_until` call.** A call that has a window
//! to run wraps each shard in a `Mutex` and spawns `K - 1` scoped threads;
//! they are joined before the call returns, so between calls the
//! simulator is plain single-owner data. Each window the coordinator
//! looks at every shard's `peek_time`. When **at most one shard has an
//! event within the limit** — the common window when a flood converges on
//! one victim — it runs that shard's window itself and nobody is woken.
//! Otherwise it releases the shards, sends every busy shard but one to a
//! worker over that worker's channel (shard index and limit), runs the
//! remaining one — the busy shard that has dispatched the most events so
//! far, so the workers' wake-up time passes beside the longest window, not
//! after it — and blocks until each worker has answered. A worker locks
//! the shard it was sent (uncontended: the coordinator holds no lock while
//! workers run), dispatches the window, unlocks and answers. Workers with
//! nothing to do stay parked on their channel; nothing ever spins.
//!
//! **Cut links are owned by the coordinator**, not by either endpoint
//! shard. A node sending on a cut link (or blocking its incoming side)
//! only *stages* the operation; at the window barrier the coordinator
//! replays all staged operations — plus the cut links' own transmission
//! completions — against its authoritative link copies, in global
//! `(time, produce time, chain descending, source shard, staging seq)`
//! order. The pending completions live in **one ordered set** (a heap
//! keyed `(time, produce time, chain descending, cut link, direction)`),
//! so the replay costs O((operations + completions) · log cuts), and the
//! set's top also answers "what is the earliest pending completion" for
//! the window limit. That keeps every
//! admission decision (queue drops, administrative blocks) exactly where
//! the single-threaded loop makes it: a block staged anywhere in a window
//! drops every later-staged packet, with no one-window skew. Each replayed
//! step lends the cut link a sink that parks its packet in the receiving
//! shard's pool and pushes the `Deliver` into that shard's queue under the
//! step's keys, so a cut-link packet is written once per hop, like a local
//! one. Each delivery fires at `>= g + L` (the cut delay is at least the
//! lookahead), so the barrier can never deliver into a window already
//! processed. The schedule depends only on event times, never on
//! thread interleaving or on which thread ran a shard's window, so results
//! are bit-reproducible at any worker count. [`Simulator::shard_load`]
//! counts what the loop did: events per shard, windows, inline windows,
//! replayed operations.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::DerefMut;
use std::sync::{mpsc, Arc, Mutex, MutexGuard};

use rand::rngs::StdRng;
use rand::SeedableRng;

use aitf_packet::Packet;

use crate::buckets::Buckets;
use crate::event::{EventQueue, Fire, PacketSlot};
use crate::link::{Link, LinkDirection, LinkId, LinkParams, LinkSink, LinkStats};
use crate::node::{Context, Node, NodeId};
use crate::partition::{partition, Partition, PartitionError, PartitionSpec};
use crate::time::{SimDuration, SimTime};

/// Everything in one shard of the simulator except the node objects
/// themselves.
///
/// The split lets a node handler borrow the core mutably (through
/// [`Context`]) while the node itself is temporarily detached — the
/// standard way to give trait-object nodes access to the world without
/// interior mutability.
pub struct SimCore {
    /// The shard's pending events, and through its produce instant the
    /// shard's clock.
    pub(crate) events: EventQueue,
    /// The links this shard owns copies of (all links in single-shard
    /// mode; local links plus inert cut-link stubs in sharded mode — the
    /// stubs answer endpoint/direction queries only, all their state lives
    /// with the coordinator).
    pub(crate) links: Vec<Link>,
    /// Global [`LinkId`] → index into `links`; identity in single-shard
    /// mode, `u32::MAX` for links foreign to this shard.
    link_idx: Vec<u32>,
    /// Global [`LinkId`] → coordinator cut-link index (`u32::MAX` for
    /// shard-local links); empty in single-shard mode, so the hot send
    /// path pays one bounds-checked lookup that always misses.
    cut_of: Arc<Vec<u32>>,
    /// Cut-link operations staged during the current window, drained by
    /// the coordinator's barrier replay.
    staged_cut: Vec<StagedCutOp>,
    /// Monotone staging counter; the canonical replay order's tie-breaker
    /// within this shard.
    staged_seq: u64,
    /// Every node's links in creation order; one copy per world, shared
    /// by its shards.
    pub(crate) node_links: Arc<Buckets<LinkId>>,
    pub(crate) rng: StdRng,
    next_pkt_id: u64,
    /// High bits ORed into fresh packet ids — the shard tag that keeps ids
    /// globally unique without cross-shard coordination (0 when single).
    pkt_tag: u64,
    dispatched_events: u64,
    /// Per-subsystem wall-time buckets (pure telemetry, never simulation input).
    #[cfg(feature = "trace")]
    pub(crate) profile: aitf_trace::SubsystemProfile,
    /// The subsystem the event currently being dispatched is attributed
    /// to; seeded from the event kind / node class, refined by handlers
    /// through [`Context::profile_subsystem`].
    #[cfg(feature = "trace")]
    pub(crate) dispatch_class: aitf_trace::Subsystem,
}

/// A cut-link operation staged in a shard, replayed by the coordinator at
/// the next window barrier.
struct StagedCutOp {
    /// When the staging dispatch ran — both the time and the produce time
    /// of the heap key the operation would have run under in a
    /// single-threaded loop (the dispatch *is* the operation: an enqueue or
    /// a blocked-flag flip happens inline).
    time: SimTime,
    /// Chain key of the staging dispatch (see [`crate::event`] docs).
    chain: u64,
    /// The staging shard, and its monotone staging counter.
    shard: u16,
    seq: u64,
    /// Index into the coordinator's cut-link vector.
    cut: u32,
    dir: LinkDirection,
    op: CutOp,
}

impl StagedCutOp {
    /// The heap key the staging dispatch ran under.
    fn key(&self) -> (SimTime, SimTime, Reverse<u64>) {
        (self.time, self.time, Reverse(self.chain))
    }
}

enum CutOp {
    /// A node handed a packet to the link ([`SimCore::send_from`]).
    Enqueue(Packet),
    /// A node blocked or unblocked the direction
    /// ([`Context::set_incoming_blocked`]).
    SetBlocked(bool),
}

impl SimCore {
    #[inline]
    fn slot(&self, id: LinkId) -> usize {
        let s = self.link_idx[id.0];
        debug_assert!(s != u32::MAX, "link {id:?} is not local to this shard");
        s as usize
    }

    /// Sends `packet` from `node` over `link`, returning link acceptance.
    ///
    /// On a cut link of a sharded run the enqueue is staged for the
    /// coordinator's barrier replay and `true` is returned: admission
    /// control (queue drops, administrative blocks) runs in the replay,
    /// where the sender can no longer observe the verdict. That is safe
    /// because link acceptance is pure telemetry — no node or traffic app
    /// in the tree branches on it.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an endpoint of `link`.
    #[inline]
    pub fn send_from(&mut self, node: NodeId, link: LinkId, packet: Packet) -> bool {
        let slot = self.slot(link);
        let dir = self.links[slot].dir_from(node);
        if let Some(&cut) = self.cut_of.get(link.0) {
            if cut != u32::MAX {
                self.stage_cut(cut, dir, CutOp::Enqueue(packet));
                return true;
            }
        }
        let now = self.events.now();
        self.links[slot].enqueue(now, dir, packet, &mut self.events)
    }

    fn stage_cut(&mut self, cut: u32, dir: LinkDirection, op: CutOp) {
        let seq = self.staged_seq;
        self.staged_seq += 1;
        let (time, chain) = self.events.produce_ctx();
        self.staged_cut.push(StagedCutOp {
            time,
            chain: chain.unwrap_or(time.0),
            shard: (self.pkt_tag >> 48) as u16,
            seq,
            cut,
            dir,
            op,
        });
    }

    /// Arms a timer for `node`.
    pub fn schedule_timer(&mut self, node: NodeId, delay: SimDuration, token: u64) {
        let at = self.events.now() + delay;
        self.events.push_now(at, Fire::Timer { node, token });
    }

    /// Links attached to `node`, in creation order.
    pub fn links_of(&self, node: NodeId) -> &[LinkId] {
        self.node_links.of(node.0)
    }

    /// Immutable link access.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[self.slot(id)]
    }

    /// Draws a fresh globally unique packet id.
    pub fn next_packet_id(&mut self) -> u64 {
        let id = self.next_pkt_id;
        self.next_pkt_id += 1;
        debug_assert!(id < 1 << 48, "per-shard packet id space exhausted");
        self.pkt_tag | id
    }

    /// Blocks or unblocks the direction of `link` that carries traffic
    /// *into* `node`. On a cut link of a sharded run the change is staged
    /// for the coordinator's barrier replay, where it takes effect ahead
    /// of every later-staged packet — exactly the single-threaded
    /// semantics.
    pub(crate) fn set_incoming_blocked_from(&mut self, node: NodeId, link: LinkId, blocked: bool) {
        let slot = self.slot(link);
        let peer = self.links[slot].peer_of(node);
        let dir = self.links[slot].dir_from(peer);
        if let Some(&cut) = self.cut_of.get(link.0) {
            if cut != u32::MAX {
                self.stage_cut(cut, dir, CutOp::SetBlocked(blocked));
                return;
            }
        }
        self.links[slot].set_blocked(dir, blocked);
    }
}

/// Builds the static topology: nodes (as slots) and links.
///
/// # Examples
///
/// ```
/// use aitf_netsim::{LinkParams, NetworkBuilder, SimDuration};
///
/// let mut b = NetworkBuilder::new(7);
/// let n0 = b.add_node();
/// let n1 = b.add_node();
/// let l = b.connect(n0, n1, LinkParams::infinite(SimDuration::from_millis(1)));
/// let sim = b.build();
/// assert_eq!(sim.link_endpoints(l), (n0, n1));
/// ```
pub struct NetworkBuilder {
    node_count: usize,
    links: Vec<(NodeId, NodeId, LinkParams)>,
    seed: u64,
}

impl NetworkBuilder {
    /// Creates a builder; `seed` drives every random decision in the run.
    pub fn new(seed: u64) -> Self {
        NetworkBuilder {
            node_count: 0,
            links: Vec::new(),
            seed,
        }
    }

    /// Reserves a node slot and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.node_count);
        self.node_count += 1;
        id
    }

    /// Number of node slots reserved so far.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Connects two nodes with a link.
    ///
    /// # Panics
    ///
    /// Panics if either node id is out of range or if `a == b`.
    pub fn connect(&mut self, a: NodeId, b: NodeId, params: LinkParams) -> LinkId {
        assert!(
            a.0 < self.node_count && b.0 < self.node_count,
            "unknown node"
        );
        assert_ne!(a, b, "self-links are not allowed");
        let id = LinkId(self.links.len());
        self.links.push((a, b, params));
        id
    }

    /// Finalises the topology into a runnable [`Simulator`] with empty node
    /// slots; install nodes with [`Simulator::install`].
    pub fn build(self) -> Simulator {
        let ends = self.links.iter().enumerate();
        let node_links = Buckets::group(
            self.node_count,
            ends.flat_map(|(i, &(a, b, _))| [(a.0, LinkId(i)), (b.0, LinkId(i))]),
        );
        let links: Vec<Link> = (self.links.into_iter().enumerate())
            .map(|(i, (a, b, params))| Link::new(LinkId(i), a, b, params))
            .collect();
        let link_total = links.len();
        Simulator {
            shards: vec![Shard {
                core: SimCore {
                    events: EventQueue::new(),
                    links,
                    link_idx: (0..link_total as u32).collect(),
                    cut_of: Arc::new(Vec::new()),
                    staged_cut: Vec::new(),
                    staged_seq: 0,
                    node_links: Arc::new(node_links),
                    rng: StdRng::seed_from_u64(self.seed),
                    next_pkt_id: 0,
                    pkt_tag: 0,
                    dispatched_events: 0,
                    #[cfg(feature = "trace")]
                    profile: aitf_trace::SubsystemProfile::default(),
                    #[cfg(feature = "trace")]
                    dispatch_class: aitf_trace::Subsystem::Queue,
                },
                nodes: (0..self.node_count).map(|_| None).collect(),
            }],
            shard_of: Arc::new(vec![0; self.node_count]),
            lookahead: None,
            cut: Coordinator::default(),
            cut_of: Arc::new(Vec::new()),
            link_total,
            seed: self.seed,
            started: false,
        }
    }
}

/// One worker unit of the simulator: an event queue + node slice. The node
/// vector is full-length in every shard; foreign slots stay `None`.
struct Shard {
    core: SimCore,
    nodes: Vec<Option<Box<dyn Node>>>,
}

impl Shard {
    /// Dispatches pending events that fire at or before `limit`, in event
    /// order, moving the shard clock to each. This *is* the classic event
    /// loop; single-shard runs call it once with the run's end.
    ///
    /// # Panics
    ///
    /// Panics if an event fires before the shard clock: something was
    /// scheduled into the past.
    fn run_window(&mut self, limit: SimTime) {
        #[cfg(feature = "trace")]
        // detlint::allow(wall-clock): this shard's in-loop wall for the subsystem profile, trace builds only — never enters simulation state
        let window_start = std::time::Instant::now();
        while let Some(ev) = self.core.events.pop_entry_within(limit) {
            let clock = self.core.events.now();
            if ev.time < clock {
                fires_in_the_past(ev.time, clock);
            }
            self.core.events.set_ctx(ev.time, Some(ev.chain));
            self.core.dispatched_events += 1;
            #[cfg(feature = "trace")]
            // detlint::allow(wall-clock): per-subsystem wall profiling, trace builds only — never enters simulation state
            let ev_start = std::time::Instant::now();
            match ev.fire {
                Fire::Deliver { node, link, slot } => {
                    let packet = self.core.events.unpark(slot);
                    self.dispatch_packet(node, link, packet);
                }
                Fire::LinkTxDone { link, dir } => {
                    #[cfg(feature = "trace")]
                    {
                        self.core.dispatch_class = aitf_trace::Subsystem::Link;
                    }
                    let now = self.core.events.now();
                    // Split borrow: the link mutates itself and schedules
                    // follow-up events; nodes are not involved.
                    let slot = self.core.slot(link);
                    let SimCore { links, events, .. } = &mut self.core;
                    links[slot].on_tx_done(now, dir, events);
                }
                Fire::Timer { node, token } => {
                    self.dispatch_timer(node, token);
                }
            }
            #[cfg(feature = "trace")]
            self.core.profile.record(
                self.core.dispatch_class,
                ev_start.elapsed().as_nanos() as u64,
            );
        }
        #[cfg(feature = "trace")]
        self.core
            .profile
            .add_loop_nanos(window_start.elapsed().as_nanos() as u64);
    }

    fn dispatch_packet(&mut self, node: NodeId, link: LinkId, packet: Packet) {
        let mut n = self.nodes[node.0].take().expect("installed node");
        #[cfg(feature = "trace")]
        {
            self.core.dispatch_class = n.subsystem();
        }
        let mut ctx = Context {
            node,
            core: &mut self.core,
        };
        n.on_packet(packet, link, &mut ctx);
        self.nodes[node.0] = Some(n);
    }

    fn dispatch_timer(&mut self, node: NodeId, token: u64) {
        let mut n = self.nodes[node.0].take().expect("installed node");
        #[cfg(feature = "trace")]
        {
            self.core.dispatch_class = n.subsystem();
        }
        let mut ctx = Context {
            node,
            core: &mut self.core,
        };
        n.on_timer(token, &mut ctx);
        self.nodes[node.0] = Some(n);
    }
}

/// The causality check of [`Shard::run_window`], out of line: it takes only
/// the two instants, so the popped entry stays in registers.
#[cold]
#[inline(never)]
fn fires_in_the_past(fire: SimTime, clock: SimTime) -> ! {
    panic!("causality violated: an event fires at {fire}, before its shard's clock {clock}")
}

/// Derives the RNG seed of one shard from the simulation seed (splitmix64
/// over the pair, so shard streams are decorrelated).
fn shard_seed(seed: u64, shard: u64) -> u64 {
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(shard.wrapping_add(1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A cut link's in-flight transmission completion — the coordinator's
/// stand-in for the `LinkTxDone` event a shard queue would hold, carrying
/// the heap ordering keys that event would. The derived order is the one
/// the barrier replays completions in: `(time, produce time, chain
/// descending, cut link, direction)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct PendingTx {
    time: SimTime,
    ptime: SimTime,
    chain: Reverse<u64>,
    /// Index into [`Coordinator::links`].
    cut: u32,
    dir: LinkDirection,
}

/// What a cut link writes one replayed step into: it parks in, and
/// delivers into, the queue of the shard the step's direction delivers to,
/// and turns a tx-done into the direction's pending completion — all under
/// the step's produce time and chain key.
struct CutSink<'a> {
    queue: &'a mut EventQueue,
    pending: &'a mut BinaryHeap<Reverse<PendingTx>>,
    cut: u32,
    ptime: SimTime,
    chain: u64,
}

impl LinkSink for CutSink<'_> {
    fn park(&mut self, packet: Packet) -> PacketSlot {
        self.queue.park(packet)
    }

    fn tx_done(&mut self, at: SimTime, _link: LinkId, dir: LinkDirection) {
        self.pending.push(Reverse(PendingTx {
            time: at,
            ptime: self.ptime,
            chain: Reverse(self.chain),
            cut: self.cut,
            dir,
        }));
    }

    fn deliver(&mut self, at: SimTime, node: NodeId, link: LinkId, slot: PacketSlot) {
        self.queue
            .push_deliver(at, self.ptime, self.chain, node, link, slot);
    }
}

/// What the coordinator of a sharded run owns: the cut links, their
/// pending completions, and the barrier replay's buffers and counts. All
/// operations on a cut link run in [`Coordinator::replay`]; the endpoint
/// shards only hold inert stubs. Empty when single.
#[derive(Default)]
struct Coordinator {
    /// The authoritative [`Link`] copies (queues, blocked flags, stats) of
    /// the cut links, in link id order.
    links: Vec<Link>,
    /// The scheduled completion of every cut-link direction with a
    /// transmission in flight (at most one each), earliest first.
    pending: BinaryHeap<Reverse<PendingTx>>,
    /// The operations being replayed — a buffer kept across barriers.
    ops: Vec<StagedCutOp>,
    /// Transmission completions dispatched by the replay, counted
    /// alongside the shard totals so sharded event counts match the
    /// single-threaded loop exactly.
    dispatched: u64,
    /// Windows run, and how many of them ran on the coordinator alone.
    windows: u64,
    windows_inline: u64,
    /// Staged operations replayed, and how many adjacent pairs of them
    /// came from different shards with the whole `(time, produce time,
    /// chain)` key equal — the order only the shard id decided.
    replayed_ops: u64,
    key_ties: u64,
    /// The barriers' share of the subsystem profile, plus every shard
    /// profile drained so far.
    #[cfg(feature = "trace")]
    profile: aitf_trace::SubsystemProfile,
}

impl Coordinator {
    /// The firing time of the earliest pending completion.
    fn next_txdone(&self) -> Option<SimTime> {
        self.pending.peek().map(|p| p.0.time)
    }

    /// The window barrier: replays every staged cut-link operation from
    /// all shards — enqueues and control changes — against the
    /// authoritative link copies, interleaved with the cut links' own
    /// transmission completions, in one global time order.
    ///
    /// The order is `(time, produce time, chain descending, source shard,
    /// staging seq)` — the same key the shard heaps dispatch under (see
    /// [`crate::event`]), with a staged operation carrying its staging
    /// dispatch's keys (the dispatch *is* the operation in a
    /// single-threaded loop) and a pending tx-done carrying the keys the
    /// `LinkTxDone` event would hold in a queue. Each replayed tx-done
    /// counts as one dispatched event (it is one in the single-threaded
    /// loop); enqueues and control changes happen inside their sender's
    /// already-counted dispatch and are not re-counted. `Deliver`s
    /// produced here go directly into the receiving shard's queue;
    /// tx-dones landing past `limit` stay pending for a later window.
    fn replay<S: DerefMut<Target = Shard>>(
        &mut self,
        shards: &mut [S],
        shard_of: &[u16],
        limit: SimTime,
    ) {
        #[cfg(feature = "trace")]
        // detlint::allow(wall-clock): the barrier's in-loop wall for the subsystem profile, trace builds only — never enters simulation state
        let barrier_start = std::time::Instant::now();
        for shard in shards.iter_mut() {
            self.ops.append(&mut shard.core.staged_cut);
        }
        if self.ops.is_empty() && self.next_txdone().is_none_or(|t| t > limit) {
            return;
        }
        self.ops.sort_unstable_by_key(|o| (o.key(), o.shard, o.seq));
        self.replayed_ops += self.ops.len() as u64;
        for tied in self.ops.chunk_by(|a, b| a.key() == b.key()) {
            // Two shards staging on one cut link under one key would make
            // the replay order of that link's operations a matter of shard
            // numbering; across different links only the receiving queue's
            // insertion order is (counted, ROADMAP item 3(d)).
            debug_assert!(
                (tied.iter()).all(|a| tied.iter().all(|b| a.shard == b.shard || a.cut != b.cut)),
                "two shards staged on one cut link under one (time, ptime, chain) key"
            );
            self.key_ties += tied.windows(2).filter(|w| w[0].shard != w[1].shard).count() as u64;
        }
        let mut ops = self.ops.drain(..).peekable();
        loop {
            // The earliest due transmission completion across cut links,
            // under the same ordering key the shard heaps use.
            let tx = (self.pending.peek().map(|p| p.0)).filter(|p| p.time <= limit);
            let take_tx = match (tx, ops.peek()) {
                (None, None) => break,
                (None, Some(_)) => false,
                (Some(_), None) => true,
                // Ties across every key go to the staged operation: with
                // equal (time, ptime, chain) the single-threaded order is
                // unknowable either way, and favouring the op keeps
                // blocked-flag flips ahead of the completions they race.
                (Some(p), Some(o)) => (p.time, p.ptime, p.chain) < o.key(),
            };
            // One step on one direction of one cut link, at the time and
            // chain its event carries; a staged operation's produce time is
            // its time (the dispatch *is* the operation).
            let (cut, dir, time, chain, packet) = if take_tx {
                let p = tx.expect("due tx completion");
                self.pending.pop();
                (p.cut, p.dir, p.time, p.chain.0, None)
            } else {
                let o = ops.next().expect("peeked op exists");
                match o.op {
                    CutOp::SetBlocked(b) => {
                        self.links[o.cut as usize].set_blocked(o.dir, b);
                        continue;
                    }
                    CutOp::Enqueue(p) => (o.cut, o.dir, o.time, o.chain, Some(p)),
                }
            };
            let link = &mut self.links[cut as usize];
            let to = shard_of[link.receiver(dir).0] as usize;
            let sink = &mut CutSink {
                queue: &mut shards[to].core.events,
                pending: &mut self.pending,
                cut,
                ptime: time,
                chain,
            };
            match packet {
                // Acceptance is unobservable for staged sends; the drop
                // accounting lands on the authoritative copy.
                Some(p) => {
                    link.enqueue_into(time, dir, p, sink);
                }
                None => {
                    #[cfg(feature = "trace")]
                    // detlint::allow(wall-clock): per-subsystem wall profiling, trace builds only — never enters simulation state
                    let ev_start = std::time::Instant::now();
                    link.on_tx_done_into(time, dir, sink);
                    self.dispatched += 1;
                    #[cfg(feature = "trace")]
                    self.profile.record(
                        aitf_trace::Subsystem::Link,
                        ev_start.elapsed().as_nanos() as u64,
                    );
                }
            }
        }
        #[cfg(feature = "trace")]
        self.profile
            .add_loop_nanos(barrier_start.elapsed().as_nanos() as u64);
    }
}

/// The deterministic discrete-event simulator.
pub struct Simulator {
    /// The shards; exactly one unless [`Simulator::apply_shards`] split the
    /// world. Single-shard mode runs the historical loop verbatim.
    shards: Vec<Shard>,
    /// Owning shard of every node (all zeros when single).
    shard_of: Arc<Vec<u16>>,
    /// Conservative window length: min propagation delay over cut links.
    /// `None` when single-sharded or when no links cross shards.
    lookahead: Option<SimDuration>,
    /// The coordinator's side of a sharded run (empty when single).
    cut: Coordinator,
    /// Global [`LinkId`] → `cut.links` index (`u32::MAX` when not cut);
    /// shared with every shard core. Empty when single.
    cut_of: Arc<Vec<u32>>,
    /// Total number of distinct links in the topology (cut links have a
    /// copy in both endpoint shards).
    link_total: usize,
    /// Builder seed, retained for per-shard RNG derivation.
    seed: u64,
    started: bool,
}

impl Simulator {
    #[inline]
    fn is_sharded(&self) -> bool {
        self.shards.len() > 1
    }

    /// Coordinator cut-link index of `id`, if it crosses shards.
    #[inline]
    fn cut_index(&self, id: LinkId) -> Option<usize> {
        match self.cut_of.get(id.0) {
            Some(&c) if c != u32::MAX => Some(c as usize),
            _ => None,
        }
    }

    /// The authoritative copy of `link`: the coordinator's for a cut link,
    /// else the owning shard's (shard 0 in single mode).
    fn link_any(&self, id: LinkId) -> &Link {
        if let Some(c) = self.cut_index(id) {
            return &self.cut.links[c];
        }
        for s in &self.shards {
            let idx = s.core.link_idx[id.0];
            if idx != u32::MAX {
                return &s.core.links[idx as usize];
            }
        }
        panic!("unknown link {id:?}")
    }

    /// Installs the node object for slot `id`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already occupied or out of range.
    pub fn install(&mut self, id: NodeId, node: Box<dyn Node>) {
        let shard = self.shard_of[id.0] as usize;
        let slot = &mut self.shards[shard].nodes[id.0];
        assert!(slot.is_none(), "node {id:?} installed twice");
        *slot = Some(node);
    }

    /// Current virtual time: shard 0's clock. Between runs every shard
    /// clock reads the end of the last run (zero before the first).
    pub fn now(&self) -> SimTime {
        self.shards[0].core.events.now()
    }

    /// Number of node slots.
    pub fn node_count(&self) -> usize {
        self.shards[0].nodes.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.link_total
    }

    /// Number of shards the event loop runs as (1 = classic single loop).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The conservative lookahead of a sharded run (`None` when single or
    /// when no links cross shards).
    pub fn lookahead(&self) -> Option<SimDuration> {
        self.lookahead
    }

    /// The owning shard of `node` (0 when single).
    pub fn shard_of(&self, node: NodeId) -> usize {
        self.shard_of[node.0] as usize
    }

    /// The endpoints of `link`.
    pub fn link_endpoints(&self, link: LinkId) -> (NodeId, NodeId) {
        self.link_any(link).endpoints()
    }

    /// Traffic statistics of one direction of `link`, read from the
    /// authoritative copy (the coordinator's for a cut link, else the one
    /// shard holding both endpoints).
    pub fn link_stats(&self, link: LinkId, dir: LinkDirection) -> &LinkStats {
        self.link_any(link).stats(dir)
    }

    /// Statistics of the direction of `link` that carries traffic *into*
    /// `node`.
    pub fn link_stats_towards(&self, link: LinkId, node: NodeId) -> &LinkStats {
        let l = self.link_any(link);
        self.link_stats(link, l.dir_from(l.peer_of(node)))
    }

    /// The links attached to `node`.
    pub fn links_of(&self, node: NodeId) -> &[LinkId] {
        self.shards[0].core.links_of(node)
    }

    /// Read access to a link (queue depths, in-flight state, stats).
    ///
    /// For a cut link of a sharded run this returns the coordinator's
    /// authoritative copy — the one every operation is replayed against.
    pub fn link(&self, id: LinkId) -> &Link {
        self.link_any(id)
    }

    /// Number of events dispatched so far — summed over shards, plus the
    /// transmission completions the coordinator's cut-link replay ran
    /// (diagnostics / benches).
    pub fn dispatched_events(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.core.dispatched_events)
            .sum::<u64>()
            + self.cut.dispatched
    }

    /// Returns `true` once [`Simulator::start`] has run (explicitly or via
    /// the first `run_*` call) — dynamic-world layers use this to decide
    /// between build-time installation and runtime activation.
    pub fn is_started(&self) -> bool {
        self.started
    }

    /// Number of events currently pending across all shards, including the
    /// cut-link transmission completions the coordinator holds.
    pub fn pending_events(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.core.events.len())
            .sum::<usize>()
            + self.cut.pending.len()
    }

    /// Packets parked in each shard's pool right now, by shard.
    pub fn parked_packets(&self) -> Vec<usize> {
        (self.shards.iter())
            .map(|s| s.core.events.parked())
            .collect()
    }

    /// Packets the network holds a handle to, by the shard whose pool holds
    /// them: in a link direction delivering into the shard (waiting or
    /// serialising) or propagating to it (a pending `Deliver`). The pool
    /// identity is `parked_packets() == packets_in_network()` between runs;
    /// a packet a staged cut-link send carries by value is in neither count.
    pub fn packets_in_network(&self) -> Vec<usize> {
        (0..self.shards.len()).map(|s| self.held_for(s)).collect()
    }

    /// `packets_in_network()[shard]`, without the vector (a shard's stub of
    /// a cut link holds nothing).
    fn held_for(&self, shard: usize) -> usize {
        let core = &self.shards[shard].core;
        let links = core.links.iter().chain(&self.cut.links);
        let dirs = links.flat_map(|l| [LinkDirection::AToB, LinkDirection::BToA].map(|d| (l, d)));
        let into = dirs.filter(|&(l, d)| self.shard_of(l.receiver(d)) == shard);
        core.events.pending_delivers() + into.map(|(l, d)| l.held_pkts(d)).sum::<usize>()
    }

    /// The firing time of the earliest pending event, if any. Never less
    /// than [`Simulator::now`]: the event loop dispatches in time order, so
    /// a stale event would be a scheduling bug.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.shards
            .iter()
            .filter_map(|s| s.core.events.peek_time())
            .chain(self.cut.next_txdone())
            .min()
    }

    /// Administratively blocks or unblocks one direction of `link` from
    /// *outside* the event loop — the runtime detach/attach hook dynamic
    /// worlds use to retire and revive endpoints mid-run. Identical in
    /// effect to a node calling [`Context::set_incoming_blocked`]; takes
    /// effect for every packet enqueued after the call. Applies to the
    /// authoritative copy immediately (safe between runs).
    pub fn set_link_blocked(&mut self, link: LinkId, dir: LinkDirection, blocked: bool) {
        if let Some(c) = self.cut_index(link) {
            self.cut.links[c].set_blocked(dir, blocked);
            return;
        }
        let mut found = false;
        for s in &mut self.shards {
            let idx = s.core.link_idx[link.0];
            if idx != u32::MAX {
                s.core.links[idx as usize].set_blocked(dir, blocked);
                found = true;
            }
        }
        assert!(found, "unknown link {link:?}");
    }

    /// Runs `f` with the node in slot `id` and a live [`Context`] —
    /// the runtime activation hook: higher layers use it between `run_*`
    /// segments to drive a node outside event dispatch (install a traffic
    /// app mid-run, restart a reattached host's apps). The mutation happens
    /// at the current virtual time, so determinism is preserved as long as
    /// callers invoke it at schedule-independent times.
    ///
    /// # Panics
    ///
    /// Panics if the slot was never installed.
    pub fn with_node_ctx<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut dyn Node, &mut Context<'_>) -> R,
    ) -> R {
        let shard = &mut self.shards[self.shard_of[id.0] as usize];
        let mut n = shard.nodes[id.0].take().expect("installed node");
        let mut ctx = Context {
            node: id,
            core: &mut shard.core,
        };
        let r = f(n.as_mut(), &mut ctx);
        shard.nodes[id.0] = Some(n);
        // Cut-link operations staged by `f` (e.g. blocking a cut uplink,
        // sending on one) must reach the authoritative copies before the
        // next run.
        if self.is_sharded() {
            self.flush_staged();
        }
        r
    }

    /// The per-subsystem wall-time profile accumulated so far, merged over
    /// shards in shard-id order. Empty (all zeros) unless the crate is
    /// built with the `trace` feature — the default build carries no
    /// per-event instrumentation at all.
    pub fn subsystem_profile(&self) -> aitf_trace::SubsystemProfile {
        #[cfg(feature = "trace")]
        {
            if self.is_sharded() {
                let mut p = self.cut.profile;
                for s in &self.shards {
                    p.merge(&s.core.profile);
                }
                p
            } else {
                self.shards[0].core.profile
            }
        }
        #[cfg(not(feature = "trace"))]
        {
            aitf_trace::SubsystemProfile::default()
        }
    }

    /// Downcasts the node in slot `id` to a concrete type.
    pub fn node_ref<T: Node>(&self, id: NodeId) -> Option<&T> {
        self.shards[self.shard_of[id.0] as usize].nodes[id.0]
            .as_deref()
            .and_then(|n| n.as_any().downcast_ref::<T>())
    }

    /// Mutable downcast of the node in slot `id`.
    pub fn node_mut<T: Node>(&mut self, id: NodeId) -> Option<&mut T> {
        self.shards[self.shard_of[id.0] as usize].nodes[id.0]
            .as_deref_mut()
            .and_then(|n| n.as_any_mut().downcast_mut::<T>())
    }

    /// Splits the world into at most `k` shards along the group forest in
    /// `spec`, returning the partition actually applied. Must run before
    /// the first `run_*`/`start` call, while the event queue is empty.
    /// `k <= 1` (or a partition that collapses to one shard) leaves the
    /// simulator in its exact single-threaded configuration.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has started, was already partitioned, or
    /// has pending events.
    pub fn apply_shards(
        &mut self,
        k: usize,
        spec: &PartitionSpec,
    ) -> Result<Partition, PartitionError> {
        let links: Vec<(NodeId, NodeId, SimDuration)> = (0..self.link_total)
            .map(|i| {
                let l = self.link_any(LinkId(i));
                let (a, b) = l.endpoints();
                (a, b, l.params().delay)
            })
            .collect();
        let part = partition(k, self.node_count(), &links, spec)?;
        self.apply_partition(&part);
        Ok(part)
    }

    /// Applies a precomputed [`Partition`]; see [`Simulator::apply_shards`].
    pub fn apply_partition(&mut self, part: &Partition) {
        assert!(!self.started, "apply_shards must run before start");
        assert_eq!(self.shards.len(), 1, "simulator is already partitioned");
        assert_eq!(
            part.shard_of.len(),
            self.node_count(),
            "partition covers a different node count"
        );
        if part.shards <= 1 {
            return;
        }
        let k = part.shards;
        let single = self.shards.pop().expect("one shard");
        // Links keep handles into the queue they were used with; they can
        // only change queues while that queue holds nothing.
        assert!(
            single.core.events.is_empty() && single.core.events.parked() == 0,
            "apply_shards must run before any events are scheduled"
        );
        let SimCore {
            links, node_links, ..
        } = single.core;
        let node_total = part.shard_of.len();
        let shard_of = Arc::clone(&part.shard_of);
        let mut shards: Vec<Shard> = (0..k)
            .map(|s| {
                let mut events = EventQueue::new();
                events.bind_shard(s as u16, Arc::clone(&shard_of));
                Shard {
                    core: SimCore {
                        events,
                        links: Vec::new(),
                        link_idx: vec![u32::MAX; self.link_total],
                        cut_of: Arc::new(Vec::new()),
                        staged_cut: Vec::new(),
                        staged_seq: 0,
                        node_links: Arc::clone(&node_links),
                        rng: StdRng::seed_from_u64(shard_seed(self.seed, s as u64)),
                        next_pkt_id: 0,
                        pkt_tag: (s as u64) << 48,
                        dispatched_events: 0,
                        #[cfg(feature = "trace")]
                        profile: aitf_trace::SubsystemProfile::default(),
                        #[cfg(feature = "trace")]
                        dispatch_class: aitf_trace::Subsystem::Queue,
                    },
                    nodes: (0..node_total).map(|_| None).collect(),
                }
            })
            .collect();
        // Distribute links. A local link moves into its owning shard; a
        // cut link moves to the coordinator (the authoritative copy every
        // operation is replayed against) and leaves an inert stub in both
        // endpoint shards for endpoint/direction queries — stub state is
        // never read or written.
        let mut cut_links: Vec<Link> = Vec::with_capacity(part.cut_links.len());
        let mut cut_of = vec![u32::MAX; self.link_total];
        for link in links {
            let (a, b) = link.endpoints();
            let (sa, sb) = (part.shard_of[a.0] as usize, part.shard_of[b.0] as usize);
            let id = link.id();
            let params = link.params();
            if sa == sb {
                let core = &mut shards[sa].core;
                core.link_idx[id.0] = core.links.len() as u32;
                core.links.push(link);
            } else {
                for s in [sa, sb] {
                    let core = &mut shards[s].core;
                    core.link_idx[id.0] = core.links.len() as u32;
                    core.links.push(Link::new(id, a, b, params));
                }
                cut_of[id.0] = u32::try_from(cut_links.len()).expect("cut count fits u32");
                cut_links.push(link);
            }
        }
        debug_assert_eq!(cut_links.len(), part.cut_links.len());
        let cut_of = Arc::new(cut_of);
        for shard in &mut shards {
            shard.core.cut_of = Arc::clone(&cut_of);
        }
        self.cut.links = cut_links;
        self.cut_of = cut_of;
        // Distribute installed nodes to their owning shard.
        for (i, n) in single.nodes.into_iter().enumerate() {
            if let Some(n) = n {
                shards[part.shard_of[i] as usize].nodes[i] = Some(n);
            }
        }
        self.shards = shards;
        self.shard_of = shard_of;
        self.lookahead = part.lookahead;
    }

    /// Calls [`Node::on_start`] on every installed node — in id order when
    /// single, in (shard, id) order when sharded.
    /// Runs automatically on the first `run_*` call if not done explicitly.
    ///
    /// # Panics
    ///
    /// Panics if any node slot was never installed.
    pub fn start(&mut self) {
        assert!(!self.started, "start() called twice");
        for i in 0..self.node_count() {
            let s = self.shard_of[i] as usize;
            assert!(
                self.shards[s].nodes[i].is_some(),
                "node {i} was never installed"
            );
        }
        for shard in &mut self.shards {
            for i in 0..shard.nodes.len() {
                let Some(mut node) = shard.nodes[i].take() else {
                    continue;
                };
                let mut ctx = Context {
                    node: NodeId(i),
                    core: &mut shard.core,
                };
                node.on_start(&mut ctx);
                shard.nodes[i] = Some(node);
            }
        }
        self.started = true;
    }

    /// Runs the event loop until virtual time `t`; the clock ends exactly
    /// at `t` even if the queue drains early.
    ///
    /// # Panics
    ///
    /// Panics if `t` is before the clock.
    pub fn run_until(&mut self, t: SimTime) {
        let now = self.now();
        assert!(t >= now, "run_until({t}) is before the clock {now}");
        if !self.started {
            self.start();
        }
        if self.is_sharded() {
            self.run_sharded(t);
        } else {
            self.shards[0].run_window(t);
        }
        // Between runs every shard clock reads `t`, outside any dispatch.
        for s in &mut self.shards {
            s.core.events.set_ctx(t, None);
        }
        for (i, s) in self.shards.iter().enumerate() {
            debug_assert_eq!(
                s.core.events.parked(),
                self.held_for(i),
                "shard {i}: a parked packet has no owner, or a handle no packet"
            );
        }
    }

    /// The sharded side of [`Simulator::run_until`].
    fn run_sharded(&mut self, t: SimTime) {
        // Flush operations staged outside any window: `on_start` handlers
        // run during `start()` and may send on cut links.
        self.flush_staged();
        if self.next_event_time().is_some_and(|next| next <= t) {
            self.run_windows(t);
        }
        #[cfg(feature = "trace")]
        for s in &mut self.shards {
            self.cut.profile.merge(&s.core.profile);
            s.core.profile = aitf_trace::SubsystemProfile::default();
        }
    }

    /// The conservative-window scheduler: every iteration processes the
    /// window `[g, g+L)` — up to its limit `g + L − 1 ns`, clamped to `t` —
    /// in the shards that have an event in it, then replays the staged cut-link operations at
    /// the barrier. `g` counts the coordinator's pending cut-link
    /// transmission completions too, so a tx-done chain on an otherwise
    /// idle cut link still drives windows. Any cross-shard delivery fires
    /// at `>= g + L`, so the barrier can never deliver into a window
    /// already processed.
    ///
    /// The shards sit behind mutexes for the length of the call and
    /// `K - 1` scoped workers wait on their channels; see the module docs
    /// for who runs which window.
    fn run_windows(&mut self, t: SimTime) {
        const POISONED: &str = "a shard window panicked";
        fn lock_all<'a>(shards: &'a [Mutex<Shard>], held: &mut Vec<MutexGuard<'a, Shard>>) {
            held.extend(shards.iter().map(|s| s.lock().expect(POISONED)));
        }
        let shards: Vec<Mutex<Shard>> = std::mem::take(&mut self.shards)
            .into_iter()
            .map(Mutex::new)
            .collect();
        let (cut, shard_of, lookahead) = (&mut self.cut, &*self.shard_of, self.lookahead);
        std::thread::scope(|scope| {
            // A worker runs the window it is sent — shard index and limit
            // — and answers once the window is done and the shard
            // unlocked. Dropping the senders ends the workers.
            let workers: Vec<_> = (1..shards.len())
                .map(|_| {
                    let shards = &shards;
                    let (window_tx, window_rx) = mpsc::channel::<(usize, SimTime)>();
                    let (done_tx, done_rx) = mpsc::channel::<()>();
                    scope.spawn(move || {
                        for (i, limit) in window_rx {
                            (shards[i].lock().expect(POISONED)).run_window(limit);
                            if done_tx.send(()).is_err() {
                                break;
                            }
                        }
                    });
                    (window_tx, done_rx)
                })
                .collect();
            // Between windows the coordinator holds every shard.
            let mut held: Vec<MutexGuard<'_, Shard>> = Vec::with_capacity(shards.len());
            let mut busy: Vec<usize> = Vec::with_capacity(shards.len());
            lock_all(&shards, &mut held);
            while let Some(next) = (held.iter())
                .filter_map(|s| s.core.events.peek_time())
                .chain(cut.next_txdone())
                .min()
            {
                if next > t {
                    break;
                }
                let limit = match lookahead {
                    // The final window stops at `t`, still below `g + L`.
                    Some(l) => (next + l - SimDuration::from_nanos(1)).min(t),
                    // No cut links: shards are mutually invisible.
                    None => t,
                };
                busy.clear();
                let busy_now = |s: &Shard| s.core.events.peek_time().is_some_and(|at| at <= limit);
                busy.extend((0..held.len()).filter(|&i| busy_now(&held[i])));
                cut.windows += 1;
                if busy.len() <= 1 {
                    cut.windows_inline += 1;
                    if let Some(&only) = busy.first() {
                        held[only].run_window(limit);
                    }
                } else {
                    // The coordinator takes the busy shard that has
                    // dispatched the most so far — the likeliest to be
                    // the slowest again — so that the workers' wake-up
                    // time is spent beside its window, not after it.
                    let heaviest = (0..busy.len())
                        .max_by_key(|&b| (held[busy[b]].core.dispatched_events, Reverse(b)))
                        .expect("two busy shards");
                    busy.swap(0, heaviest);
                    // Hand the shards over, run that one here, and take
                    // them all back.
                    held.clear();
                    for ((window_tx, _), &i) in workers.iter().zip(&busy[1..]) {
                        let sent = window_tx.send((i, limit));
                        sent.expect("a shard worker is gone");
                    }
                    (shards[busy[0]].lock().expect(POISONED)).run_window(limit);
                    for ((_, done_rx), _) in workers.iter().zip(&busy[1..]) {
                        done_rx.recv().expect(POISONED);
                    }
                    lock_all(&shards, &mut held);
                }
                cut.replay(&mut held, shard_of, limit);
            }
        });
        self.shards = shards
            .into_iter()
            .map(|s| s.into_inner().expect(POISONED))
            .collect();
    }

    /// Replays what was staged outside the event loop — by `on_start`
    /// handlers, or through [`Simulator::with_node_ctx`] between runs —
    /// so it reaches the authoritative link copies before the next window.
    fn flush_staged(&mut self) {
        let now = self.now();
        let mut shards: Vec<&mut Shard> = self.shards.iter_mut().collect();
        self.cut.replay(&mut shards, &self.shard_of, now);
    }

    /// How the sharded loop's work was spread so far: events per shard,
    /// windows, staged operations. Plain counts the loop keeps in every
    /// build — no clock is read for them and no record contains them.
    pub fn shard_load(&self) -> aitf_trace::ShardLoad {
        aitf_trace::ShardLoad {
            events: (self.shards.iter().map(|s| s.core.dispatched_events)).collect(),
            barrier_events: self.cut.dispatched,
            windows: self.cut.windows,
            windows_inline: self.cut.windows_inline,
            replayed_ops: self.cut.replayed_ops,
            key_ties: self.cut.key_ties,
            cut_links: self.cut.links.len() as u64,
            lookahead_ns: self.lookahead.map_or(0, SimDuration::as_nanos),
        }
    }

    /// Runs for `d` of virtual time from the current clock.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.now() + d;
        self.run_until(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impl_node_any;
    use aitf_packet::{Addr, Header, TrafficClass};

    /// Forwards every packet out of every other link; counts receptions.
    struct FloodRelay {
        received: u64,
    }

    impl Node for FloodRelay {
        fn on_packet(&mut self, packet: Packet, link: LinkId, ctx: &mut Context<'_>) {
            self.received += 1;
            // Borrow-safe, allocation-free link iteration: index the slice
            // fresh each step instead of copying it to a Vec (the idiom
            // documented in ARCHITECTURE.md).
            for i in 0..ctx.my_links().len() {
                let l = ctx.my_links()[i];
                if l != link {
                    let mut p = packet.clone();
                    p.header.ttl = match p.header.ttl.checked_sub(1) {
                        Some(t) => t,
                        None => return,
                    };
                    if p.header.ttl > 0 {
                        ctx.send(l, p);
                    }
                }
            }
        }

        impl_node_any!();
    }

    /// Sends `count` packets at start.
    struct Burst {
        count: u32,
    }

    impl Node for Burst {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let link = ctx.my_links()[0];
            for _ in 0..self.count {
                let id = ctx.next_packet_id();
                let h = Header::udp(Addr::new(1, 0, 0, 1), Addr::new(1, 0, 0, 2), 1, 2);
                ctx.send(link, Packet::data(id, h, TrafficClass::Legit, 100));
            }
        }

        fn on_packet(&mut self, _p: Packet, _l: LinkId, _ctx: &mut Context<'_>) {}

        impl_node_any!();
    }

    fn line_topology(n: usize) -> (Simulator, Vec<NodeId>) {
        let mut b = NetworkBuilder::new(3);
        let ids: Vec<NodeId> = (0..n).map(|_| b.add_node()).collect();
        for w in ids.windows(2) {
            b.connect(
                w[0],
                w[1],
                LinkParams::infinite(SimDuration::from_millis(1)),
            );
        }
        (b.build(), ids)
    }

    #[test]
    fn packets_traverse_a_line() {
        let (mut sim, ids) = line_topology(4);
        sim.install(ids[0], Box::new(Burst { count: 5 }));
        for &id in &ids[1..] {
            sim.install(id, Box::new(FloodRelay { received: 0 }));
        }
        sim.run_for(SimDuration::from_millis(100));
        // Every relay saw all 5 packets exactly once (line topology, no loops).
        for &id in &ids[1..] {
            assert_eq!(sim.node_ref::<FloodRelay>(id).unwrap().received, 5);
        }
    }

    #[test]
    fn clock_advances_to_run_target_even_when_idle() {
        let (mut sim, ids) = line_topology(2);
        sim.install(ids[0], Box::new(Burst { count: 0 }));
        sim.install(ids[1], Box::new(FloodRelay { received: 0 }));
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(sim.now(), SimTime(5_000_000_000));
    }

    #[test]
    fn run_until_is_incremental() {
        let (mut sim, ids) = line_topology(3);
        sim.install(ids[0], Box::new(Burst { count: 1 }));
        sim.install(ids[1], Box::new(FloodRelay { received: 0 }));
        sim.install(ids[2], Box::new(FloodRelay { received: 0 }));
        sim.run_until(SimTime(500_000));
        // Packet needs 1 ms to reach the first relay.
        assert_eq!(sim.node_ref::<FloodRelay>(ids[1]).unwrap().received, 0);
        sim.run_until(SimTime(1_500_000));
        assert_eq!(sim.node_ref::<FloodRelay>(ids[1]).unwrap().received, 1);
        assert_eq!(sim.node_ref::<FloodRelay>(ids[2]).unwrap().received, 0);
        sim.run_until(SimTime(2_500_000));
        assert_eq!(sim.node_ref::<FloodRelay>(ids[2]).unwrap().received, 1);
    }

    #[test]
    #[should_panic(expected = "causality violated")]
    fn an_event_scheduled_into_a_shards_past_panics_at_its_pop() {
        let (mut sim, ids) = line_topology(2);
        sim.install(ids[0], Box::new(Burst { count: 0 }));
        sim.install(ids[1], Box::new(FloodRelay { received: 0 }));
        sim.run_until(SimTime(1_000_000));
        // A stale clock arms a timer before the instant the shard is at.
        let core = &mut sim.shards[0].core;
        core.events.set_ctx(SimTime(500_000), None);
        core.schedule_timer(ids[0], SimDuration::from_nanos(1), 0);
        core.events.set_ctx(SimTime(1_000_000), None);
        sim.run_until(SimTime(2_000_000));
    }

    #[test]
    #[should_panic(expected = "is before the clock")]
    fn run_until_into_the_past_panics() {
        let (mut sim, ids) = line_topology(2);
        sim.install(ids[0], Box::new(Burst { count: 1 }));
        sim.install(ids[1], Box::new(FloodRelay { received: 0 }));
        sim.run_until(SimTime(2_000_000));
        sim.run_until(SimTime(1_000_000));
    }

    #[test]
    fn links_of_lists_every_nodes_links_in_creation_order() {
        // Node 0 and node 5 are isolated, node 1 is a hub, and nodes 2 and
        // 3 share two parallel links made at different times.
        let mut b = NetworkBuilder::new(1);
        let ids: Vec<NodeId> = (0..6).map(|_| b.add_node()).collect();
        let params = LinkParams::infinite(SimDuration::from_millis(1));
        let ends = [(2, 3), (1, 2), (4, 1), (3, 2), (1, 3)];
        let links: Vec<LinkId> = ends
            .iter()
            .map(|&(a, c)| b.connect(ids[a], ids[c], params))
            .collect();
        let sim = b.build();
        for (node, &id) in ids.iter().enumerate() {
            let expected: Vec<LinkId> = (0..ends.len())
                .filter(|&l| ends[l].0 == node || ends[l].1 == node)
                .map(|l| links[l])
                .collect();
            assert_eq!(sim.links_of(id), expected, "node {node}");
        }
        assert!(sim.links_of(ids[0]).is_empty() && sim.links_of(ids[5]).is_empty());
        assert_eq!(sim.links_of(ids[1]), [links[1], links[2], links[4]]);
    }

    #[test]
    #[should_panic(expected = "never installed")]
    fn missing_node_is_a_build_error() {
        let (mut sim, ids) = line_topology(2);
        sim.install(ids[0], Box::new(Burst { count: 0 }));
        sim.run_for(SimDuration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "installed twice")]
    fn double_install_panics() {
        let (mut sim, ids) = line_topology(2);
        sim.install(ids[0], Box::new(Burst { count: 0 }));
        sim.install(ids[0], Box::new(Burst { count: 0 }));
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let (mut sim, ids) = line_topology(5);
            sim.install(ids[0], Box::new(Burst { count: 50 }));
            for &id in &ids[1..] {
                sim.install(id, Box::new(FloodRelay { received: 0 }));
            }
            sim.run_for(SimDuration::from_secs(1));
            (
                sim.dispatched_events(),
                ids[1..]
                    .iter()
                    .map(|&id| sim.node_ref::<FloodRelay>(id).unwrap().received)
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[cfg(feature = "trace")]
    fn subsystem_profile_accounts_every_dispatched_event() {
        use aitf_trace::Subsystem;
        for shards in [1, 2] {
            let (sim, _) = chain_sim(4, shards);
            assert_eq!(sim.shard_count(), shards);
            let p = sim.subsystem_profile();
            assert_eq!(p.total_events(), sim.dispatched_events(), "{shards}");
            assert!(p.bucket(Subsystem::Link).events > 0, "tx completions");
            assert!(p.bucket(Subsystem::HostApp).events > 0, "node dispatches");
            let f = p.finalized();
            assert_eq!(f.bucket(Subsystem::Queue).events, p.total_events());
            // The loop wall covers every dispatch at any shard count: a
            // sharded run sums its shards' windows and the barrier.
            for s in Subsystem::ALL {
                let nanos = f.bucket(s).nanos;
                assert!(nanos <= p.loop_nanos(), "{shards} shards, {s:?}: {nanos}");
            }
        }
    }

    #[test]
    #[cfg(not(feature = "trace"))]
    fn subsystem_profile_is_empty_without_the_trace_feature() {
        let (mut sim, ids) = line_topology(2);
        sim.install(ids[0], Box::new(Burst { count: 5 }));
        sim.install(ids[1], Box::new(FloodRelay { received: 0 }));
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.subsystem_profile().total_events(), 0);
    }

    /// Builds a chain-of-groups world — `n` single-node groups in a parent
    /// chain, 1 ms links, `Burst` at node 0, relays elsewhere — split into
    /// `shards` shards, and runs it for one second.
    fn chain_sim(n: usize, shards: usize) -> (Simulator, Vec<NodeId>) {
        let (mut sim, ids) = line_topology(n);
        sim.install(ids[0], Box::new(Burst { count: 20 }));
        for &id in &ids[1..] {
            sim.install(id, Box::new(FloodRelay { received: 0 }));
        }
        if shards > 1 {
            let spec = PartitionSpec::new(
                (0..n).map(|i| vec![NodeId(i)]).collect(),
                (0..n).map(|i| i.checked_sub(1)).collect(),
            );
            let part = sim.apply_shards(shards, &spec).expect("partition");
            assert_eq!(part.shards, shards.min(n));
            if part.shards > 1 {
                assert_eq!(sim.lookahead(), Some(SimDuration::from_millis(1)));
            }
        }
        sim.run_for(SimDuration::from_secs(1));
        (sim, ids)
    }

    /// [`chain_sim`]'s per-relay reception counts plus the dispatched-event
    /// total and the shard count.
    fn chain_results(n: usize, shards: usize) -> (u64, Vec<u64>, usize) {
        let (sim, ids) = chain_sim(n, shards);
        (
            sim.dispatched_events(),
            ids[1..]
                .iter()
                .map(|&id| sim.node_ref::<FloodRelay>(id).unwrap().received)
                .collect(),
            sim.shard_count(),
        )
    }

    #[test]
    fn sharded_run_matches_single_threaded() {
        let (ev1, rx1, k1) = chain_results(6, 1);
        assert_eq!(k1, 1);
        for shards in [2, 3, 4] {
            let (ev, rx, k) = chain_results(6, shards);
            assert_eq!(k, shards);
            assert_eq!(ev, ev1, "dispatched events drifted at {shards} shards");
            assert_eq!(rx, rx1, "reception counts drifted at {shards} shards");
        }
    }

    /// Sends one packet every `period` until `left` runs out; counts what
    /// comes back.
    struct Ticker {
        period: SimDuration,
        left: u32,
        received: u64,
    }

    impl Node for Ticker {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(self.period, 0);
        }

        fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_>) {
            if let Some(left) = self.left.checked_sub(1) {
                self.left = left;
                let id = ctx.next_packet_id();
                let h = Header::udp(Addr::new(1, 0, 0, 1), Addr::new(1, 0, 0, 2), 1, 2);
                ctx.send(
                    ctx.my_links()[0],
                    Packet::data(id, h, TrafficClass::Legit, 100),
                );
                ctx.set_timer(self.period, 0);
            }
        }

        fn on_packet(&mut self, _p: Packet, _l: LinkId, _ctx: &mut Context<'_>) {
            self.received += 1;
        }

        impl_node_any!();
    }

    /// A chain of six nodes on 1 µs links with a ticker at either end
    /// (7 µs and 11 µs apart, so their packets cross mid-chain), split
    /// into `shards` shards: a world of very many, very short windows.
    fn ticking_chain(shards: usize) -> (Simulator, Vec<NodeId>) {
        let mut b = NetworkBuilder::new(3);
        let ids: Vec<NodeId> = (0..6).map(|_| b.add_node()).collect();
        for w in ids.windows(2) {
            b.connect(
                w[0],
                w[1],
                LinkParams::infinite(SimDuration::from_micros(1)),
            );
        }
        let mut sim = b.build();
        for (&id, period) in [ids[0], ids[5]].iter().zip([7, 11]) {
            sim.install(
                id,
                Box::new(Ticker {
                    period: SimDuration::from_micros(period),
                    left: 1500,
                    received: 0,
                }),
            );
        }
        for &id in &ids[1..5] {
            sim.install(id, Box::new(FloodRelay { received: 0 }));
        }
        if shards > 1 {
            let spec = PartitionSpec::new(
                ids.iter().map(|&id| vec![id]).collect(),
                (0..6usize).map(|i| i.checked_sub(1)).collect(),
            );
            let part = sim.apply_shards(shards, &spec).expect("partition");
            assert_eq!(part.shards, shards);
            assert_eq!(sim.lookahead(), Some(SimDuration::from_micros(1)));
        }
        (sim, ids)
    }

    /// Dispatched events and what every node of a [`ticking_chain`] saw.
    fn ticking_results(sim: &Simulator, ids: &[NodeId]) -> (u64, Vec<u64>) {
        let received = |&id: &NodeId| match sim.node_ref::<FloodRelay>(id) {
            Some(relay) => relay.received,
            None => sim.node_ref::<Ticker>(id).expect("a ticker").received,
        };
        (sim.dispatched_events(), ids.iter().map(received).collect())
    }

    #[test]
    fn ten_thousand_short_windows_match_single_threaded() {
        let end = SimTime(20_000_000);
        let (mut single, ids) = ticking_chain(1);
        single.run_until(end);
        let expected = ticking_results(&single, &ids);
        assert!(expected.1.iter().all(|&n| n >= 1500), "{expected:?}");
        assert_eq!(single.shard_load().events, [expected.0]);
        for shards in [2, 4] {
            let (mut sim, ids) = ticking_chain(shards);
            sim.run_until(end);
            assert_eq!(ticking_results(&sim, &ids), expected, "{shards} shards");
            let load = sim.shard_load();
            assert!(load.windows >= 10_000, "{load}");
            // One packet hopping down the chain keeps one shard busy; two
            // crossing keep two.
            assert!(load.windows_inline > 0, "{load}");
            assert!(load.windows_inline < load.windows, "{load}");
            assert_eq!(load.events.len(), shards);
            assert_eq!(
                load.events.iter().sum::<u64>() + load.barrier_events,
                expected.0
            );
            assert!(load.replayed_ops > 0 && load.cut_links > 0, "{load}");
            assert_eq!(load.lookahead_ns, 1_000);
        }
    }

    #[test]
    fn a_thousand_run_for_calls_equal_one_run_until() {
        // The workers belong to one call: a thousand calls spawn and join
        // a thousand sets of them, with nothing carried between but the
        // simulator itself.
        let (mut whole, ids) = ticking_chain(2);
        whole.run_until(SimTime(20_000_000));
        let (mut sliced, _) = ticking_chain(2);
        for _ in 0..1000 {
            sliced.run_for(SimDuration::from_micros(20));
            assert_eq!(sliced.parked_packets(), sliced.packets_in_network());
        }
        assert_eq!(sliced.now(), whole.now());
        assert_eq!(
            ticking_results(&sliced, &ids),
            ticking_results(&whole, &ids)
        );
        assert_eq!(sliced.pending_events(), whole.pending_events());
    }

    #[test]
    fn sharded_clock_and_telemetry_advance() {
        let (mut sim, ids) = line_topology(4);
        sim.install(ids[0], Box::new(Burst { count: 3 }));
        for &id in &ids[1..] {
            sim.install(id, Box::new(FloodRelay { received: 0 }));
        }
        let spec = PartitionSpec::new(
            (0..4usize).map(|i| vec![NodeId(i)]).collect(),
            (0..4usize).map(|i| i.checked_sub(1)).collect(),
        );
        sim.apply_shards(2, &spec).expect("partition");
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(sim.now(), SimTime(2_000_000_000));
        assert!(sim.dispatched_events() > 0);
        assert_eq!(sim.shard_count(), 2);
    }

    #[test]
    fn apply_shards_with_k1_keeps_the_single_loop() {
        let (mut sim, ids) = line_topology(3);
        sim.install(ids[0], Box::new(Burst { count: 1 }));
        for &id in &ids[1..] {
            sim.install(id, Box::new(FloodRelay { received: 0 }));
        }
        let part = sim
            .apply_shards(1, &PartitionSpec::flat(3))
            .expect("identity partition");
        assert_eq!(part.shards, 1);
        assert_eq!(sim.shard_count(), 1);
        assert_eq!(sim.lookahead(), None);
        sim.run_for(SimDuration::from_millis(10));
        assert_eq!(sim.node_ref::<FloodRelay>(ids[1]).unwrap().received, 1);
    }

    #[test]
    fn cross_shard_blocking_converges_at_the_barrier() {
        // Two nodes in different shards; node 1 blocks its incoming side
        // of the cut link before the run. The block must reach node 0's
        // shard copy (the enqueue side) via the control handoff.
        let (mut sim, ids) = line_topology(2);
        sim.install(ids[0], Box::new(Burst { count: 10 }));
        sim.install(ids[1], Box::new(FloodRelay { received: 0 }));
        sim.apply_shards(2, &PartitionSpec::flat(2))
            .expect("partition");
        assert_eq!(sim.shard_count(), 2);
        let link = sim.links_of(ids[0])[0];
        sim.with_node_ctx(ids[1], |_, ctx| ctx.set_incoming_blocked(link, true));
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(
            sim.node_ref::<FloodRelay>(ids[1]).unwrap().received,
            0,
            "blocked direction must drop the burst"
        );
        let stats = sim.link_stats_towards(link, ids[1]);
        assert_eq!(stats.admin_drop_pkts, 10);
    }
}
