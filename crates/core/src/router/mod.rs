//! The AITF border router.
//!
//! Border routers are the only routers that speak AITF (Section II-C:
//! "Internal routers do not participate"). One [`BorderRouter`] node plays
//! every role the paper describes, depending on the request it receives:
//!
//! - **victim's gateway** — polices its client's requests, installs the
//!   temporary filter for `Ttmp`, logs the shadow for `T`, and propagates
//!   the request to the attacker's gateway (or escalates to its own
//!   gateway when the attacker side does not cooperate);
//! - **attacker's gateway** — verifies the request with the 3-way
//!   handshake, installs the long (`T`) filter, tells its client to stop,
//!   and disconnects the client after the grace period if it does not;
//! - **escalation relay** — both of the above, one level up, in later
//!   rounds;
//! - **plain forwarder** — stamps the route-record shim on transit data
//!   packets and enforces ingress filtering.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, RwLock};

use aitf_filter::{FilterTable, RateLimiterBank, ShadowCache};
use aitf_netsim::{Buckets, Context, LinkId, NextHops, Node, NodeId, SimTime, Subsystem};
use aitf_packet::{
    Addr, AitfMessage, FilteringRequest, FlowLabel, Packet, PayloadKind, Prefix, PrefixMap,
    VerificationReply,
};
use aitf_trace::{Cause, SpanId, SpanKind, Tracer};

use crate::config::{AitfConfig, HostPolicy, RouterPolicy};
use crate::pipeline::{PolicyChains, RequestOutcome, StageId, Verdict};
use crate::policy::DefensePolicy;
use crate::pushback::{PushbackCounters, PushbackState, LINK_LOCAL};

mod escalation;
mod stages;

/// Everything a border router counts; read by experiments after a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct RouterCounters {
    /// Data packets forwarded.
    pub data_forwarded: u64,
    /// Data packets dropped by a wire-speed filter.
    pub data_filtered_pkts: u64,
    /// Client packets dropped by ingress filtering (spoofed source).
    pub spoofed_dropped: u64,
    /// Packets dropped for TTL exhaustion, no route, or misdelivery (no
    /// handler at the router they were addressed to).
    pub undeliverable: u64,
    /// Filtering requests received (before policing).
    pub requests_received: u64,
    /// Filtering requests dropped by contract policing.
    pub requests_policed: u64,
    /// Requests ignored because this router is non-cooperating or legacy.
    pub requests_ignored: u64,
    /// Victim-gateway-role requests rejected as invalid (wrong direction,
    /// destination not behind the requesting client), or naming no attack
    /// path.
    pub requests_invalid: u64,
    /// Damped duplicate requests whose temporary filter was refreshed in
    /// place.
    pub requests_refreshed: u64,
    /// Requests this router accepted and committed work to (temporary
    /// filter installed, handshake started, or long filter installed).
    /// With the policed/ignored/invalid/refreshed/unsatisfiable counters
    /// these are the [`RequestOutcome`] buckets: `BorderRouter::count` adds
    /// one to a bucket with every `requests_received`. The exception is
    /// [`crate::DefensePolicy::Pushback`]: its edge trigger counts a request
    /// received and in no bucket (ROADMAP item 1).
    pub requests_accepted: u64,
    /// Requests this router satisfied by installing a filter.
    pub filters_installed: u64,
    /// Requests that failed because the filter table was full.
    pub requests_unsatisfiable: u64,
    /// Escalations that could not go anywhere: no AITF-enabled ancestor
    /// to forward to, or no identifiable neighbour to disconnect.
    pub escalations_dropped: u64,
    /// Escalations that dead-ended at this router's own uplink: severing
    /// it would disconnect this network, not the attacker, so the flow is
    /// filtered locally instead.
    pub local_filter_fallbacks: u64,
    /// Verification handshakes started.
    pub handshakes_started: u64,
    /// Handshakes that confirmed the request.
    pub handshakes_confirmed: u64,
    /// Handshakes denied by the victim.
    pub handshakes_denied: u64,
    /// Handshakes that timed out.
    pub handshakes_timed_out: u64,
    /// Escalated requests sent to this router's own gateway.
    pub escalations_sent: u64,
    /// Shadow-cache reactivations (on-off flows caught).
    pub reactivations: u64,
    /// Clients (hosts or client networks) disconnected after the grace
    /// period.
    pub disconnects_client: u64,
    /// Peers disconnected at the top of the escalation chain.
    pub disconnects_peer: u64,
    /// `dest=Attacker` notices sent towards the attacker.
    pub attacker_notices_sent: u64,
    /// Verification queries snooped and forged (compromised router only).
    pub handshakes_forged: u64,
    /// Deferred handshake-confirm installs that found the table full. The
    /// request was already counted `accepted` when its handshake started,
    /// so this is *outside* the received-request identity — it records
    /// committed work that could not be completed.
    pub deferred_unsatisfied: u64,
}

/// Timer meanings, keyed by token through `token_map`.
#[derive(Debug)]
enum TimerAction {
    HandshakeTimeout { nonce: u64 },
    GraceCheck(GraceWatch),
}

/// An open handshake, keyed by its nonce in `pending_handshakes`.
#[derive(Debug)]
struct PendingHandshake {
    request: FilteringRequest,
    /// The open handshake span ([`SpanId::NONE`] when tracing is off).
    span: SpanId,
}

#[derive(Debug)]
struct GraceWatch {
    flow: FlowLabel,
    round: u8,
    client_link: Option<LinkId>,
    armed_at: SimTime,
}

/// What every router of a world reads and none writes: the declared
/// provider tree, stored once, from which every routing, ingress and
/// escalation question is answered — and the rest of the declaration the
/// world's maker builds a router or host from on its first event. Made by
/// `World::try_build` and immutable after, but for the deployment view,
/// which changes only between runs. A router keeps its network index into
/// these arrays.
#[derive(Debug)]
pub(crate) struct Wiring {
    /// Each declared network's prefix mapped to the network: pairwise
    /// disjoint, so an address lies in at most one.
    pub(crate) net_map: PrefixMap,
    /// Per network, its prefix.
    pub(crate) prefix: Vec<Prefix>,
    /// Per network, whether it has no client network and no peering, so
    /// that under provider-tree routing everything but its own hosts goes
    /// up.
    pub(crate) stub: Vec<bool>,
    /// Per network, its router's declared policy: what a router no event
    /// has reached answers, and is made with.
    pub(crate) policy: Vec<RouterPolicy>,
    /// Per network, its provider, or [`NONE`] at the top level; a
    /// provider is declared before its clients. Read through
    /// [`Wiring::parent`].
    pub(crate) parent: Vec<u32>,
    /// Per network, the index of its link towards its provider, or
    /// [`NONE`] at the top level. Read through [`Wiring::uplink`].
    pub(crate) uplink: Vec<u32>,
    /// Per network, its border router's address.
    pub(crate) router_addr: Vec<Addr>,
    /// Per network, its hosts' tail circuits in host order — ascending by
    /// id, and host `k` of the network is address `k + 1` of its prefix.
    pub(crate) tails: Buckets<LinkId>,
    /// Per network, its peerings as `(far network, link)`, in declaration
    /// order.
    pub(crate) peers: Buckets<(usize, LinkId)>,
    /// Under [`crate::RoutingMode::AllPairs`], the next hop from every
    /// router to every network's router; `None` under provider-tree
    /// routing.
    pub(crate) hops: Option<NextHops>,
    /// What a router with no [`DataState`] of its own reads: zero counters
    /// and empty tables at the configured capacities.
    pub(crate) idle: DataState,
    /// The deployment view: the addresses of the border routers that do
    /// not run AITF — the capability "advertisement" every router sees.
    /// The one field written after the build, and only by
    /// [`crate::World::set_router_policy`] through `&mut World` between
    /// runs, so no window ever waits on the lock.
    pub(crate) legacy: RwLock<HashSet<Addr>>,
    /// Per host, its address, its network and its declared policy.
    pub(crate) host_addr: Vec<Addr>,
    pub(crate) host_net: Vec<u32>,
    pub(crate) host_policy: Vec<HostPolicy>,
    /// The first host's tail circuit: the build connects them in host
    /// order, straight after the uplinks. Read through
    /// [`Wiring::tail_link`].
    pub(crate) first_tail: u32,
}

/// What a per-network `u32` of the [`Wiring`] holds where there is no
/// network or link to name: at the top level, no provider and no uplink.
pub(crate) const NONE: u32 = u32::MAX;

/// `index` as a per-network `u32`.
///
/// # Panics
///
/// Panics if `index` does not fit below [`NONE`].
pub(crate) fn word(index: usize) -> u32 {
    let word = u32::try_from(index).ok().filter(|&w| w != NONE);
    word.expect("a network or link index fits below u32::MAX")
}

/// A per-network `u32` as the index it holds, if any.
#[inline]
pub(crate) fn index_of(word: u32) -> Option<usize> {
    (word != NONE).then_some(word as usize)
}

impl Wiring {
    /// Host `host`'s tail circuit, by the rule the build connects them
    /// by.
    #[inline]
    pub(crate) fn tail_link(&self, host: usize) -> LinkId {
        LinkId(self.first_tail as usize + host)
    }

    /// `net`'s provider; `None` at the top level.
    #[inline]
    pub(crate) fn parent(&self, net: usize) -> Option<usize> {
        index_of(self.parent[net])
    }

    /// `net`'s link towards its provider; `None` at the top level.
    #[inline]
    pub(crate) fn uplink(&self, net: usize) -> Option<LinkId> {
        index_of(self.uplink[net]).map(LinkId)
    }

    /// The declared network holding `addr`, if any.
    #[inline]
    fn net_of(&self, addr: Addr) -> Option<usize> {
        self.net_map.get(addr).map(|net| net as usize)
    }

    /// `net` and its providers, nearest first.
    #[inline]
    fn chain(&self, net: usize) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(Some(net), |&x| self.parent(x))
    }

    /// Provider-tree routing from `from`'s router towards network `d`:
    /// across the last-declared peering whose far side's cone holds `d`,
    /// else down the uplink of the client on `d`'s provider chain just
    /// below `from`; `None` leaves it to the default route.
    #[inline]
    fn towards(&self, from: usize, d: usize) -> Option<LinkId> {
        let mut peers = self.peers.of(from).iter().rev();
        if let Some(&(_, link)) = peers.find(|&&(far, _)| self.chain(d).any(|x| x == far)) {
            return Some(link);
        }
        let client = self.chain(d).find(|&x| self.parent(x) == Some(from))?;
        self.uplink(client)
    }
}

/// Who may source packets that arrive on one of a router's client links.
/// Ingress filtering is at network granularity (Section III-A: a provider
/// keeps spoofed flows from *exiting its network*); spoofing inside one's
/// own prefix is exactly what ingress filtering cannot catch.
#[derive(Clone, Copy)]
pub(crate) enum Behind<'a> {
    /// A host's tail circuit: the router's own network.
    Own(Prefix),
    /// A client network's uplink: that client's customer cone — every
    /// network with the client on its provider chain.
    Cone(&'a Wiring, LinkId),
}

impl Behind<'_> {
    /// Whether `net` is behind a client network's uplink `link`.
    fn in_cone(wiring: &Wiring, link: LinkId, net: usize) -> bool {
        wiring.chain(net).any(|x| wiring.uplink(x) == Some(link))
    }

    /// Whether `addr` is legitimately sourced behind the link.
    #[inline]
    pub(crate) fn contains(self, addr: Addr) -> bool {
        match self {
            Behind::Own(prefix) => prefix.contains(addr),
            Behind::Cone(wiring, link) => wiring
                .net_of(addr)
                .is_some_and(|d| Self::in_cone(wiring, link, d)),
        }
    }
}

/// What a router writes about the packets it handles: its counters and its
/// two filter tables. Made by the first stage that writes to it
/// ([`DataState::of`]), so a router no packet ever reached holds none and
/// reads the world's idle one.
#[derive(Debug)]
pub(crate) struct DataState {
    counters: RouterCounters,
    filters: FilterTable,
    shadow: ShadowCache,
}

impl DataState {
    pub(crate) fn new(cfg: &AitfConfig) -> Self {
        DataState {
            counters: RouterCounters::default(),
            filters: FilterTable::with_policy(cfg.filter_capacity, cfg.eviction),
            shadow: ShadowCache::new(cfg.shadow_capacity),
        }
    }

    /// The state in `slot`, made now if this is the first write: an inlined
    /// branch, with the creation out of line in [`make_data`]. It takes the
    /// router's field rather than the router, so a caller can hold the
    /// state and read the router's config beside it.
    #[inline]
    fn of<'a>(slot: &'a mut Option<Box<DataState>>, cfg: &AitfConfig) -> &'a mut DataState {
        match *slot {
            Some(ref mut data) => data,
            None => make_data(slot, cfg),
        }
    }
}

/// The one place a [`DataState`] is created.
#[cold]
#[inline(never)]
fn make_data<'a>(slot: &'a mut Option<Box<DataState>>, cfg: &AitfConfig) -> &'a mut DataState {
    // detlint::allow(hot-alloc): one-off — the first packet a router forwards, filters or drops, or the first request it serves; every later one finds `data` set
    slot.insert(Box::new(DataState::new(cfg)))
}

/// Everything a router holds for the requests it serves, as opposed to the
/// packets it forwards: made by the first control message, install or
/// timer that needs it (`BorderRouter::ctl_mut`), so a router that only
/// ever forwards — or never sees a packet — holds none.
#[derive(Debug)]
struct ControlState {
    /// The contract policer (Section II-B), one bucket per arrival link.
    limiter: RateLimiterBank,
    pending_handshakes: HashMap<u64, PendingHandshake>,
    token_map: HashMap<u64, TimerAction>,
    next_token: u64,
    /// Pushback baseline state (arrival-link memory + counters); inert
    /// under every other policy.
    pushback: PushbackState,
    /// Per-source-prefix policer, present only under
    /// [`DefensePolicy::IngressRateLimit`].
    prefix_limiter: Option<RateLimiterBank>,
    /// Revoked path-stamp origins `(first-hop router, expiry)`, populated
    /// only under [`DefensePolicy::PathStamp`].
    stamp_blocks: Vec<(Addr, SimTime)>,
}

impl ControlState {
    fn new(cfg: &AitfConfig) -> Self {
        ControlState {
            // The bank's default is the peer contract (R2: uplink, peering);
            // `aitf_admission` gives a client link the client contract (R1)
            // when that link's bucket is first needed.
            limiter: RateLimiterBank::new(cfg.peer_contract.rate, cfg.peer_contract.burst),
            pending_handshakes: HashMap::new(),
            token_map: HashMap::new(),
            next_token: 0,
            pushback: PushbackState::default(),
            prefix_limiter: match cfg.defense {
                DefensePolicy::IngressRateLimit { rate_pps, burst } => {
                    Some(RateLimiterBank::new(rate_pps as f64, burst))
                }
                _ => None,
            },
            stamp_blocks: Vec::new(),
        }
    }

    fn alloc_token(&mut self, action: TimerAction) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        self.token_map.insert(token, action);
        token
    }
}

/// An AITF border router node.
///
/// The datapath is organised as three hook points — **Ingress** (packet
/// entering the forwarding path), **Egress** (just before route lookup +
/// transmit) and **Escalate** (control packets addressed to this router)
/// — each running the fixed stage chain [`PolicyChains::build`] lists for
/// [`AitfConfig::defense`]. Stages are methods on this type dispatched
/// statically through [`StageId`], so swapping the defense never costs an
/// allocation or a virtual call on the per-packet path.
pub struct BorderRouter {
    // What a forwarded data packet touches: the wiring and this router's
    // place in it, the defense whose chains it runs, and the data state.
    addr: Addr,
    prefix: Prefix,
    policy: RouterPolicy,
    /// No client network and no peering; see [`Wiring::stub`].
    stub: bool,
    /// The index of the link towards this router's provider, or [`NONE`]
    /// at the top level: the wiring's entry for `net`, kept beside the
    /// route lookup that compares against it.
    uplink: u32,
    /// This router's network: its key in the wiring's per-network arrays.
    net: u32,
    /// What every router of the world reads; see [`Wiring`].
    wiring: Arc<Wiring>,
    cfg: Arc<AitfConfig>,
    /// Which defense's chains this router runs (copied from the config);
    /// see [`BorderRouter::chains`].
    defense: DefensePolicy,
    /// First-use state; see [`DataState`].
    data: Option<Box<DataState>>,
    // What only the control plane reads.
    /// First-use state; see [`ControlState`].
    ctl: Option<Box<ControlState>>,
    /// This router's span log (a zero-sized no-op unless the `trace`
    /// feature is on). Private to the router; [`crate::World::trace_spans`]
    /// merges every router's log into the world's span tree, where
    /// escalation chains parent across routers.
    tracer: Tracer,
}

/// What a router with no [`ControlState`] answers [`BorderRouter::limiter`]
/// with: an absent policer is an empty one.
static NO_LIMITER: std::sync::LazyLock<RateLimiterBank> =
    std::sync::LazyLock::new(|| RateLimiterBank::new(0.0, 1));

/// Compact span key for a flow, unique within a world: `src << 32 | dst`.
fn flow_key(flow: &FlowLabel) -> u64 {
    u64::from(flow.src.0) << 32 | u64::from(flow.dst.0)
}

impl BorderRouter {
    /// Builds network `net`'s router from its place in the wiring, and
    /// nothing else.
    pub(crate) fn new(wiring: Arc<Wiring>, cfg: Arc<AitfConfig>, net: usize) -> Self {
        BorderRouter {
            defense: cfg.defense,
            cfg,
            policy: wiring.policy[net],
            prefix: wiring.prefix[net],
            stub: wiring.stub[net],
            uplink: wiring.uplink[net],
            net: word(net),
            addr: wiring.router_addr[net],
            wiring,
            data: None,
            ctl: None,
            tracer: Tracer::new(),
        }
    }

    /// What this router has written so far, or the world's idle state if
    /// it has written nothing.
    fn data(&self) -> &DataState {
        self.data.as_deref().unwrap_or(&self.wiring.idle)
    }

    /// This router's data state, made now if this is its first write.
    #[inline]
    fn data_mut(&mut self) -> &mut DataState {
        DataState::of(&mut self.data, &self.cfg)
    }

    /// The control-plane state, made now if this is the first event that
    /// needs it: an inlined branch, with the creation out of line in
    /// [`BorderRouter::make_ctl`], so the `[hot]` stages that come through
    /// here per packet (pushback's arrival map, the per-prefix policer)
    /// pay the branch and nothing else after their first packet.
    #[inline]
    fn ctl_mut(&mut self) -> &mut ControlState {
        match self.ctl {
            Some(ref mut ctl) => ctl,
            None => self.make_ctl(),
        }
    }

    /// The one place [`ControlState`] is created.
    #[cold]
    #[inline(never)]
    fn make_ctl(&mut self) -> &mut ControlState {
        // detlint::allow(hot-alloc): one-off — a router's first control message, install, timer or policy-state packet; every later event finds `ctl` set
        self.ctl.insert(Box::new(ControlState::new(&self.cfg)))
    }

    /// Whether any event has made this router's [`ControlState`] yet.
    #[cfg(test)]
    pub(crate) fn has_control_state(&self) -> bool {
        self.ctl.is_some()
    }

    /// Whether any stage has made this router's [`DataState`] yet.
    #[cfg(test)]
    pub(crate) fn has_data_state(&self) -> bool {
        self.data.is_some()
    }

    /// This router's span log, for [`Tracer::replay`].
    pub(crate) fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// This router's address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// The link towards this router's provider, if any.
    #[inline]
    pub fn uplink(&self) -> Option<LinkId> {
        index_of(self.uplink).map(LinkId)
    }

    /// Counter snapshot; all zeros for a router no packet reached.
    pub fn counters(&self) -> RouterCounters {
        self.data().counters
    }

    /// The wire-speed filter table (read-only).
    pub fn filters(&self) -> &FilterTable {
        &self.data().filters
    }

    /// The DRAM shadow cache (read-only).
    pub fn shadow(&self) -> &ShadowCache {
        &self.data().shadow
    }

    /// The contract policer (read-only); empty until the first request.
    pub fn limiter(&self) -> &RateLimiterBank {
        self.ctl.as_deref().map_or(&NO_LIMITER, |c| &c.limiter)
    }

    /// Which defense policy populates this router's hook chains.
    pub fn defense(&self) -> DefensePolicy {
        self.defense
    }

    /// The hook chains this router runs (experiments and docs
    /// introspect the stage order): a function of [`BorderRouter::defense`],
    /// so every router of a world answers the same table rows and none
    /// holds a copy of them.
    #[inline]
    pub fn chains(&self) -> PolicyChains {
        let Ok(chains) = PolicyChains::build(self.defense);
        chains
    }

    /// Pushback-plane counters (all zero unless the world runs
    /// [`DefensePolicy::Pushback`]).
    pub fn pushback(&self) -> PushbackCounters {
        self.ctl
            .as_deref()
            .map_or_else(PushbackCounters::default, |c| c.pushback.counters)
    }

    /// Total defense state this router currently holds: wire-speed filter
    /// entries plus policy-specific state (revoked path-stamp origins,
    /// per-prefix policing buckets). The bake-off's "filter footprint"
    /// metric sums this over every router.
    pub fn defense_footprint(&self) -> usize {
        self.filters().len()
            + self.ctl.as_deref().map_or(0, |c| {
                c.stamp_blocks.len() + c.prefix_limiter.as_ref().map_or(0, RateLimiterBank::len)
            })
    }

    /// The current behaviour policy.
    pub fn policy(&self) -> RouterPolicy {
        self.policy
    }

    /// Replaces the behaviour policy. Only
    /// [`crate::World::set_router_policy`] calls it, and it also updates
    /// the world's deployment view.
    pub(crate) fn set_policy(&mut self, policy: RouterPolicy) {
        self.policy = policy;
    }

    /// Whether the border router at `addr` is believed to run AITF. Only
    /// an AITF-enabled router asks, so its own address always answers yes.
    fn peer_participates(&self, addr: Addr) -> bool {
        let legacy = self.wiring.legacy.read().expect("deployment view");
        !legacy.contains(&addr)
    }

    /// The nearest ancestor gateway that participates in AITF — the
    /// escalation target. A legacy parent is skipped, so the request
    /// lands on the nearest cooperating node instead of being silently
    /// eaten by a router that will only count it as ignored.
    fn escalation_parent(&self) -> Option<Addr> {
        let w = &*self.wiring;
        let ancestors = w.chain(self.net as usize).skip(1);
        ancestors
            .map(|a| w.router_addr[a])
            .find(|&a| self.peer_participates(a))
    }

    /// Records an instant span at this router.
    fn span(&mut self, kind: SpanKind, cause: Cause, key: u64, round: u8, now: SimTime) {
        self.tracer
            .instant(kind, cause, key, round, self.addr.0, now.0);
    }

    /// The one forwarding decision: the link towards `dst`, if any.
    ///
    /// A host of the own network goes down its tail circuit. Anything else
    /// goes towards the declared network `d` holding it: under
    /// [`crate::RoutingMode::AllPairs`] on the next hop to `d`'s router
    /// (none for a `dst` in no network); under
    /// [`crate::RoutingMode::Hierarchical`] across a peering or down a
    /// client uplink whose cone holds `d` ([`Wiring::towards`]), else up the
    /// default route.
    ///
    /// Invariant: a gateway never sends traffic for its own prefix back up
    /// its default route. Such a destination is no host, so it does not
    /// exist; the provider would route it straight back down until TTL
    /// expiry, so it is unroutable here — as under all-pairs routing, which
    /// has no next hop from a router to itself.
    pub(crate) fn route(&self, dst: Addr) -> Option<LinkId> {
        let w = &*self.wiring;
        let own = self.net as usize;
        let host = dst
            .raw()
            .wrapping_sub(self.prefix.addr().raw())
            .wrapping_sub(1);
        if let Some(&tail) = w.tails.of(own).get(host as usize) {
            return Some(tail);
        }
        let link = match &w.hops {
            Some(hops) => hops.next_hop(NodeId(own), NodeId(w.net_of(dst)?)),
            None if self.stub => self.uplink(),
            None => w
                .net_of(dst)
                .and_then(|d| w.towards(own, d))
                .or(self.uplink()),
        };
        if link == self.uplink() && self.prefix.contains(dst) {
            return None;
        }
        link
    }

    /// Sends an AITF control message towards `dst` on the link
    /// [`BorderRouter::route`] picks.
    fn send_control(&mut self, ctx: &mut Context<'_>, dst: Addr, msg: AitfMessage) {
        let Some(link) = self.route(dst) else {
            self.count(Verdict::Drop(Cause::NoRoute));
            return;
        };
        let id = ctx.next_packet_id();
        ctx.send(link, Packet::control(id, self.addr, dst, msg));
    }

    /// Is `link` a client link, and if so, who lives behind it? A router's
    /// links are its uplink, its peerings, its hosts' tail circuits and
    /// its client networks' uplinks, so a link that is none of the first
    /// three is a client's uplink.
    #[inline]
    pub(crate) fn client_behind(&self, link: LinkId) -> Option<Behind<'_>> {
        let w = &*self.wiring;
        let own = self.net as usize;
        if Some(link) == self.uplink() || w.peers.of(own).iter().any(|&(_, l)| l == link) {
            return None;
        }
        if w.tails.of(own).binary_search(&link).is_ok() {
            return Some(Behind::Own(self.prefix));
        }
        Some(Behind::Cone(w, link))
    }

    // ------------------------------------------------------------------
    // Data plane: the Ingress and Egress hooks.
    // ------------------------------------------------------------------

    /// Runs one stage by id — the static-dispatch heart of the pipeline:
    /// walking a chain is a `match` per stage, no boxing, no vtables, no
    /// allocation.
    fn run_stage(
        &mut self,
        id: StageId,
        packet: &mut Packet,
        arrival: LinkId,
        ctx: &mut Context<'_>,
    ) -> Verdict {
        match id {
            StageId::AitfIngressFilter => self.aitf_ingress_filter(packet, arrival, ctx),
            StageId::AitfWireFilter => self.aitf_wire_filter(packet, arrival, ctx),
            StageId::AitfShadowReact => self.aitf_shadow_react(packet, arrival, ctx),
            StageId::AitfStamp => self.aitf_stamp(packet, arrival, ctx),
            StageId::AitfAdmission => self.aitf_admission(packet, arrival, ctx),
            StageId::AitfDispatch => self.aitf_dispatch(packet, arrival, ctx),
            StageId::TtlCheck => self.ttl_check(packet, arrival, ctx),
            StageId::TtlDecrement => self.ttl_decrement(packet, arrival, ctx),
            StageId::PushbackWireFilter => self.pushback_wire_filter(packet, arrival, ctx),
            StageId::PushbackArrival => self.pushback_arrival(packet, arrival, ctx),
            StageId::PushbackControl => self.pushback_control(packet, arrival, ctx),
            StageId::PrefixPolice => self.prefix_police(packet, arrival, ctx),
            StageId::RatelimitControl => self.ratelimit_control(packet, arrival, ctx),
            StageId::PathStampCheck => self.path_stamp_check(packet, arrival, ctx),
            StageId::PathStampMark => self.path_stamp_mark(packet, arrival, ctx),
            StageId::PathStampControl => self.path_stamp_control(packet, arrival, ctx),
        }
    }

    /// Walks one hook's chain until a stage stops the packet — the one
    /// loop all three hooks share — and counts what stopped it.
    fn run_chain(
        &mut self,
        chain: &[StageId],
        packet: &mut Packet,
        arrival: LinkId,
        ctx: &mut Context<'_>,
    ) -> Verdict {
        for &id in chain {
            let verdict = self.run_stage(id, packet, arrival, ctx);
            if verdict != Verdict::Continue {
                self.count(verdict);
                return verdict;
            }
        }
        Verdict::Continue
    }

    /// The one site that counts a stopped packet or a received request.
    /// Its `match` names every [`Cause`], so a new one must be given its
    /// counter (or none) here.
    fn count(&mut self, verdict: Verdict) {
        let c = &mut self.data_mut().counters;
        match verdict {
            Verdict::Continue => {}
            Verdict::Drop(cause) => match cause {
                Cause::Spoofed => c.spoofed_dropped += 1,
                Cause::Filtered => c.data_filtered_pkts += 1,
                // A shadowed flow came back after its temporary filter expired.
                Cause::TempFilterExpired => c.reactivations += 1,
                Cause::TtlExpired | Cause::Misdelivered | Cause::NoRoute => c.undeliverable += 1,
                Cause::Detection
                | Cause::Escalated
                | Cause::Duplicate
                | Cause::HandshakeConfirmed
                | Cause::HandshakeDenied
                | Cause::HandshakeTimeout
                | Cause::TableFull
                | Cause::NoAncestor
                | Cause::NoNeighbor
                | Cause::GraceExpired
                | Cause::Protocol => unreachable!("{cause:?}: a span cause, not a drop reason"),
            },
            Verdict::Request(outcome) => {
                c.requests_received += 1;
                *match outcome {
                    RequestOutcome::Policed => &mut c.requests_policed,
                    RequestOutcome::Ignored => &mut c.requests_ignored,
                    RequestOutcome::Invalid => &mut c.requests_invalid,
                    RequestOutcome::Refreshed => &mut c.requests_refreshed,
                    RequestOutcome::Unsatisfiable => &mut c.requests_unsatisfiable,
                    RequestOutcome::Accepted => &mut c.requests_accepted,
                } += 1;
            }
        }
    }

    /// The data plane up to the wire: both hooks, then the route lookup.
    /// Returns the link to transmit `packet` on, if it survived and is
    /// routable — the caller sends it, so the packet is handed to the link
    /// from the place it was delivered to and is not copied on the way.
    fn forward_data(
        &mut self,
        packet: &mut Packet,
        arrival: LinkId,
        ctx: &mut Context<'_>,
    ) -> Option<LinkId> {
        // The Ingress hook (spoofing, filters, policing), then the Egress
        // hook (TTL accounting, traceback stamping).
        let chains = self.chains();
        for chain in [chains.ingress, chains.egress] {
            if self.run_chain(chain, packet, arrival, ctx) != Verdict::Continue {
                // The defense consumed the packet: attribute this event's
                // cost to the hook pipeline, not plain forwarding.
                ctx.profile_subsystem(Subsystem::DefenseHook);
                return None;
            }
        }
        // Terminal action: route lookup + transmit (the datapath's one
        // fixed step — every policy forwards what its chains let through).
        let link = self.route(packet.header.dst);
        match link {
            Some(_) => self.data_mut().counters.data_forwarded += 1,
            None => self.count(Verdict::Drop(Cause::NoRoute)),
        }
        link
    }

    // ------------------------------------------------------------------
    // Control plane: the Escalate hook.
    // ------------------------------------------------------------------

    fn handle_control(&mut self, packet: &mut Packet, arrival: LinkId, ctx: &mut Context<'_>) {
        // AITF control handling is escalation work; every other policy's
        // control plane is part of its defense pipeline.
        ctx.profile_subsystem(match self.defense {
            DefensePolicy::Aitf => Subsystem::Escalation,
            _ => Subsystem::DefenseHook,
        });
        self.run_chain(self.chains().escalate, packet, arrival, ctx);
    }

    // ------------------------------------------------------------------
    // Timers (dispatched by `Node::on_timer` below).
    // ------------------------------------------------------------------

    /// The grace period armed by `satisfy_attacker_side` ran out:
    /// disconnect the client if its flow kept arriving regardless.
    fn on_grace_check(&mut self, watch: GraceWatch, ctx: &mut Context<'_>) {
        let now = ctx.now();
        // Has the flow kept arriving well into the grace period?
        let margin = self.cfg.grace / 2;
        let still_flowing = self
            .filters()
            .last_hit_of(&watch.flow)
            .is_some_and(|t| t > watch.armed_at + margin);
        if still_flowing {
            if let Some(link) = watch.client_link {
                self.data_mut().counters.disconnects_client += 1;
                self.span(
                    SpanKind::Disconnect,
                    Cause::GraceExpired,
                    flow_key(&watch.flow),
                    watch.round,
                    now,
                );
                ctx.set_incoming_blocked(link, true);
            }
        }
    }
}

/// One network's border router as [`crate::World::router`] shows it,
/// whether or not any event has made it. A router no event has reached is
/// never built; its view answers from the world's idle data state (zero
/// counters, empty tables at the configured capacities) and the network's
/// declared values — what the router would answer if it were made now — so
/// reading every router of a world builds none of them. Every reference it
/// hands out borrows the world, not the view.
#[derive(Clone, Copy)]
pub struct RouterView<'w> {
    router: Option<&'w BorderRouter>,
    wiring: &'w Wiring,
    defense: DefensePolicy,
    net: usize,
}

impl<'w> RouterView<'w> {
    /// The view of network `net`'s router, `router` if it has been made.
    pub(crate) fn new(
        router: Option<&'w BorderRouter>,
        wiring: &'w Wiring,
        cfg: &AitfConfig,
        net: usize,
    ) -> Self {
        RouterView {
            router,
            wiring,
            defense: cfg.defense,
            net,
        }
    }

    fn data(self) -> &'w DataState {
        self.router.map_or(&self.wiring.idle, BorderRouter::data)
    }

    /// The router's address.
    pub fn addr(self) -> Addr {
        self.wiring.router_addr[self.net]
    }

    /// The link towards the router's provider, if any.
    pub fn uplink(self) -> Option<LinkId> {
        self.wiring.uplink(self.net)
    }

    /// Counter snapshot; all zeros for a router no packet reached.
    pub fn counters(self) -> RouterCounters {
        self.data().counters
    }

    /// The wire-speed filter table (read-only).
    pub fn filters(self) -> &'w FilterTable {
        &self.data().filters
    }

    /// The DRAM shadow cache (read-only).
    pub fn shadow(self) -> &'w ShadowCache {
        &self.data().shadow
    }

    /// The contract policer (read-only); empty until the first request.
    pub fn limiter(self) -> &'w RateLimiterBank {
        self.router.map_or(&*NO_LIMITER, BorderRouter::limiter)
    }

    /// Which defense policy populates the router's hook chains: the
    /// world's.
    pub fn defense(self) -> DefensePolicy {
        self.defense
    }

    /// The hook chains the router runs; see [`BorderRouter::chains`].
    pub fn chains(self) -> PolicyChains {
        let Ok(chains) = PolicyChains::build(self.defense);
        chains
    }

    /// Pushback-plane counters; see [`BorderRouter::pushback`].
    pub fn pushback(self) -> PushbackCounters {
        self.router
            .map_or_else(PushbackCounters::default, BorderRouter::pushback)
    }

    /// Total defense state the router holds; see
    /// [`BorderRouter::defense_footprint`].
    pub fn defense_footprint(self) -> usize {
        self.router.map_or(0, BorderRouter::defense_footprint)
    }

    /// The current behaviour policy: the declared one until the router is
    /// made.
    pub fn policy(self) -> RouterPolicy {
        self.router
            .map_or(self.wiring.policy[self.net], BorderRouter::policy)
    }

    /// Whether any stage has made the router's [`DataState`] yet.
    #[cfg(test)]
    pub(crate) fn has_data_state(self) -> bool {
        self.router.is_some_and(BorderRouter::has_data_state)
    }

    /// Whether any event has made the router's [`ControlState`] yet.
    #[cfg(test)]
    pub(crate) fn has_control_state(self) -> bool {
        self.router.is_some_and(BorderRouter::has_control_state)
    }
}

impl Node for BorderRouter {
    fn on_packet(&mut self, mut packet: Packet, link: LinkId, ctx: &mut Context<'_>) {
        // The Escalate hook sees control packets addressed to this router —
        // plus, under pushback, the protocol's link-local hop-by-hop
        // messages (no other policy addresses packets to `LINK_LOCAL`).
        if packet.header.dst == self.addr
            || (packet.header.dst == LINK_LOCAL && matches!(self.defense, DefensePolicy::Pushback))
        {
            self.handle_control(&mut packet, link, ctx);
            return;
        }
        // Compromised on-path router: snoop verification queries and forge
        // confirming replies (Section III-B's caveat). Handshakes only
        // exist under AITF.
        if self.policy.compromised && matches!(self.defense, DefensePolicy::Aitf) {
            if let PayloadKind::Aitf(AitfMessage::VerificationQuery(q)) = &packet.payload {
                let forged = VerificationReply {
                    request_id: q.request_id,
                    flow: q.flow,
                    nonce: q.nonce,
                    confirm: true,
                };
                let origin = packet.header.src;
                let victim = packet.header.dst;
                self.data_mut().counters.handshakes_forged += 1;
                let id = ctx.next_packet_id();
                // Spoof the victim's address as the reply source.
                if let Some(out) = self.route(origin) {
                    let mut reply =
                        Packet::control(id, victim, origin, AitfMessage::VerificationReply(forged));
                    reply.header.src = victim;
                    ctx.send(out, reply);
                }
                // Swallow the query so the real victim never denies it.
                return;
            }
        }
        if let Some(out) = self.forward_data(&mut packet, link, ctx) {
            ctx.send(out, packet);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        ctx.profile_subsystem(Subsystem::Escalation);
        // A token nobody armed finds no state and makes none.
        let Some(ctl) = self.ctl.as_deref_mut() else {
            return;
        };
        match ctl.token_map.remove(&token) {
            Some(TimerAction::HandshakeTimeout { nonce }) => {
                if let Some(pending) = ctl.pending_handshakes.remove(&nonce) {
                    self.data_mut().counters.handshakes_timed_out += 1;
                    let now = ctx.now();
                    let key = flow_key(&pending.request.flow);
                    self.tracer.end(pending.span, now.0);
                    self.span(
                        SpanKind::Drop,
                        Cause::HandshakeTimeout,
                        key,
                        pending.request.round,
                        now,
                    );
                    self.tracer.close_round(key, pending.request.round, now.0);
                }
            }
            Some(TimerAction::GraceCheck(watch)) => self.on_grace_check(watch, ctx),
            None => {}
        }
    }

    fn subsystem(&self) -> Subsystem {
        Subsystem::RouterData
    }
}
