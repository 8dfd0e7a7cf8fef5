//! The AITF end host.
//!
//! An [`EndHost`] is a victim, an attacker, a legitimate client, or any mix
//! of the three. It carries:
//!
//! - pluggable **traffic applications** ([`TrafficApp`]) — floods,
//!   on-off attackers, spoofers and legitimate clients, all a
//!   [`Source`](crate::Source) (see [`crate::traffic`]);
//! - the **victim agent**: attack detection (oracle with delay `Td`; fast
//!   re-detection of logged flows per footnote 8), filtering-request
//!   origination, the request log used to answer verification queries, and
//!   a traceback collector fed by every data packet delivered to the host
//!   (the agent itself is made by the first delivered packet);
//! - the **attacker agent**: compliance with `dest=Attacker` notices. A
//!   [`HostPolicy::Compliant`] host installs a self-filter and stops
//!   sending matching traffic ("a legitimate AITF node must be provisioned
//!   to stop sending undesired flows when requested", Section IV-D); a
//!   [`HostPolicy::Malicious`] host ignores notices and risks
//!   disconnection.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use aitf_filter::{FilterTable, TokenBucket};
use aitf_netsim::{Context, LinkId, Node, SimDuration, SimTime};
use aitf_packet::{
    Addr, AitfMessage, FilteringRequest, FlowLabel, Header, Packet, Protocol, RequestDestination,
    TrafficClass, VerificationReply,
};
use aitf_traceback::{RouteRecordTraceback, Traceback};

use crate::config::{AitfConfig, HostPolicy};
use crate::detector::{DetectionMode, RateDetector};

/// Host-side statistics, read by the experiment harness.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostCounters {
    /// Attack-class data packets received.
    pub rx_attack_pkts: u64,
    /// Attack-class bytes received (the victim's *effective bandwidth* of
    /// undesired flows — the paper's `Be`).
    pub rx_attack_bytes: u64,
    /// Legitimate data packets received.
    pub rx_legit_pkts: u64,
    /// Legitimate bytes received (goodput numerator).
    pub rx_legit_bytes: u64,
    /// Data packets sent by applications.
    pub tx_pkts: u64,
    /// Bytes sent by applications.
    pub tx_bytes: u64,
    /// Sends suppressed by a self-filter (compliance).
    pub tx_suppressed: u64,
    /// Filtering requests sent to the gateway.
    pub requests_sent: u64,
    /// Requests withheld by the host's own contract bucket.
    pub requests_self_limited: u64,
    /// Verification queries answered.
    pub verification_queries: u64,
    /// Queries confirmed (we really did request the block).
    pub verification_confirmed: u64,
    /// Queries denied (someone forged a request in our name).
    pub verification_denied: u64,
    /// `dest=Attacker` notices received.
    pub notices_received: u64,
    /// Flows stopped in compliance with a notice.
    pub flows_stopped: u64,
    /// Undesired flows detected (detection events, not packets).
    pub detections: u64,
}

/// The send-side API a [`TrafficApp`] drives the host through.
pub struct HostApi<'a, 'b> {
    ctx: &'a mut Context<'b>,
    addr: Addr,
    uplink: LinkId,
    app_index: usize,
    /// The host's attachment generation at arming time; timers from an
    /// older generation are stale (their chain was superseded by a
    /// detach) and are dropped on delivery.
    epoch: u16,
    suppress: bool,
    data: &'a mut Option<Box<HostData>>,
    cfg: &'a AitfConfig,
}

impl HostApi<'_, '_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// This host's address.
    pub fn my_addr(&self) -> Addr {
        self.addr
    }

    /// Arms a one-shot timer delivered back to this app's
    /// [`TrafficApp::on_timer`].
    ///
    /// The timer carries the app index and the host's current attachment
    /// epoch; a timer armed before a detach is stale afterwards and never
    /// delivered, so a detach→attach cycle can never leave two concurrent
    /// timer chains running (the double-rate hazard of dynamic worlds).
    pub fn set_timer(&mut self, delay: SimDuration) {
        assert!(
            self.app_index + 1 < 1 << 16,
            "more than 65534 apps on one host"
        );
        let token = ((self.epoch as u64) << 48) | ((self.app_index as u64 + 1) << 32);
        self.ctx.set_timer(delay, token);
    }

    /// Sends a data packet. Returns `false` if a self-filter suppressed it
    /// (the host was asked to stop this flow and is compliant) or the link
    /// dropped it.
    #[allow(clippy::too_many_arguments)]
    pub fn send_data(
        &mut self,
        src: Addr,
        dst: Addr,
        proto: Protocol,
        src_port: u16,
        dst_port: u16,
        class: TrafficClass,
        size_bytes: u32,
    ) -> bool {
        let header = Header {
            src,
            dst,
            proto,
            src_port,
            dst_port,
            ttl: Header::DEFAULT_TTL,
        };
        let data = HostData::of(self.data, self.cfg);
        if self.suppress && data.self_filters.matches(&header, self.ctx.now()) {
            data.counters.tx_suppressed += 1;
            return false;
        }
        let id = self.ctx.next_packet_id();
        data.counters.tx_pkts += 1;
        data.counters.tx_bytes += size_bytes.max(40) as u64;
        self.ctx
            .send(self.uplink, Packet::data(id, header, class, size_bytes))
    }

    /// Sends an arbitrary pre-built packet out of the uplink. Adversarial
    /// apps use this to forge control messages; the packet id is replaced
    /// with a fresh one.
    pub fn send_raw(&mut self, mut packet: Packet) -> bool {
        packet.id = self.ctx.next_packet_id();
        self.ctx.send(self.uplink, packet)
    }
}

/// A traffic generator running on an [`EndHost`]: the
/// [`Source`](crate::Source) every workload runs, the
/// [`RequestForger`](crate::RequestForger), or a test's own burst.
pub trait TrafficApp: Send + 'static {
    /// Called when the simulation starts, and again when a detached host
    /// is reattached.
    fn on_start(&mut self, api: &mut HostApi<'_, '_>);

    /// A timer armed through [`HostApi::set_timer`] fired.
    fn on_timer(&mut self, _api: &mut HostApi<'_, '_>) {}
}

/// A streaming observer of every data packet a host accepts.
///
/// This is the probe tap point for constant-memory measurement: the
/// scenario layer hangs a sketch/reservoir aggregator off the victim and
/// sees `(src, class, size)` per delivered packet without the host
/// materializing any per-flow state. Exactly one tap per host; it fires
/// after the delivery counters update.
pub trait RxTap: Send + 'static {
    /// One data packet was delivered: source address, traffic class, wire
    /// size. Must be O(1) and allocation-free — it runs on the hot path.
    fn on_rx(&mut self, src: Addr, class: TrafficClass, size_bytes: u32);

    /// Downcast support for reading aggregates back at end of run.
    fn as_any(&self) -> &dyn std::any::Any;
}

/// The victim agent: everything a host keeps about what it *receives*.
/// Made by the first packet delivered to the host, so a host that only
/// sends (a zombie) or never sees a packet holds none.
pub(crate) struct VictimAgent {
    /// Sources whose detection timer is pending. A detected flow is always
    /// `src → this host`, so the timer's token is `src` itself — below the
    /// app namespace, which starts at bit 32.
    detecting: HashSet<Addr>,
    /// Flows this host has requested blocked: the `T` expiry of the last
    /// request and when it was sent (damping). Once it holds more than 64
    /// flows, the expired ones are dropped before a new one is logged.
    request_log: HashMap<FlowLabel, (SimTime, SimTime)>,
    /// Self-policing of the client contract (R1).
    request_bucket: TokenBucket,
    /// The rate-threshold detector, when configured.
    rate_detector: Option<RateDetector>,
    /// The best route record per sender, uncapped.
    traceback: RouteRecordTraceback,
}

impl VictimAgent {
    /// # Panics
    ///
    /// Panics on a client contract or detector setting no agent can be
    /// made from; [`crate::WorldBuilder::build`] makes one up front so that
    /// surfaces at build time.
    pub(crate) fn new(cfg: &AitfConfig) -> Self {
        VictimAgent {
            detecting: HashSet::new(),
            request_log: HashMap::new(),
            request_bucket: TokenBucket::new(cfg.client_contract.rate, cfg.client_contract.burst),
            rate_detector: match cfg.detection {
                DetectionMode::Oracle => None,
                DetectionMode::RateThreshold {
                    bytes_per_sec,
                    window,
                } => Some(RateDetector::new(bytes_per_sec, window, 4096)),
            },
            traceback: RouteRecordTraceback::new(usize::MAX),
        }
    }

    /// Starts the oracle's `Td` clock for the flow from `src` unless it is
    /// running.
    fn arm_detect(&mut self, src: Addr, delay: SimDuration, ctx: &mut Context<'_>) {
        if self.detecting.insert(src) {
            ctx.set_timer(delay, u64::from(src.0));
        }
    }

    /// Logs a request for `flow` sent at `now`, blocking it until `until`.
    fn log_request(&mut self, flow: FlowLabel, now: SimTime, until: SimTime) {
        if self.request_log.len() > 64 {
            // detlint::allow(hash-iter): per-entry expiry predicate — the surviving set is independent of visit order
            self.request_log.retain(|_, &mut (until, _)| until > now);
        }
        self.request_log.insert(flow, (until, now));
    }

    /// Whether `flow` is requested blocked at `now`.
    fn requested(&self, flow: &FlowLabel, now: SimTime) -> bool {
        self.request_log
            .get(flow)
            .is_some_and(|&(until, _)| until > now)
    }

    /// Whether `flow` was requested blocked and, if so, whether the last
    /// request for it is older than the damping window.
    fn logged(&self, flow: &FlowLabel, now: SimTime, cooldown: SimDuration) -> Option<bool> {
        let &(until, sent) = self.request_log.get(flow)?;
        (until > now).then(|| now.saturating_since(sent) >= cooldown)
    }
}

/// Every victim-agent path below runs inside or after a packet delivery.
const AGENT: &str = "the first delivered packet made the victim agent";

/// What a host writes: its counters and its self-filters. Made by the
/// first send, delivery or notice that writes to it ([`HostData::of`]), so
/// a host nothing ever happened to holds none and reads zero counters.
struct HostData {
    counters: HostCounters,
    /// Self-filters: flows this host agreed to stop sending (sized
    /// `na = R2·T`, Section IV-D). Storage is made by the first install.
    self_filters: FilterTable,
}

impl HostData {
    /// The data in `slot`, made now if this is the first write: an inlined
    /// branch, with the creation out of line in [`make_data`].
    #[inline]
    fn of<'a>(slot: &'a mut Option<Box<HostData>>, cfg: &AitfConfig) -> &'a mut HostData {
        match *slot {
            Some(ref mut data) => data,
            None => make_data(slot, cfg),
        }
    }
}

/// The one place a [`HostData`] is created.
#[cold]
#[inline(never)]
fn make_data<'a>(slot: &'a mut Option<Box<HostData>>, cfg: &AitfConfig) -> &'a mut HostData {
    let data = HostData {
        counters: HostCounters::default(),
        self_filters: FilterTable::new(cfg.na().ceil().max(1.0) as usize),
    };
    // detlint::allow(hot-alloc): one-off — the first packet a host sends, receives or is told to stop; every later one finds `data` set
    slot.insert(Box::new(data))
}

/// An AITF end host node.
pub struct EndHost {
    addr: Addr,
    gateway: Addr,
    uplink: LinkId,
    cfg: Arc<AitfConfig>,
    policy: HostPolicy,
    apps: Vec<Option<Box<dyn TrafficApp>>>,
    /// First-use state; see [`VictimAgent`].
    victim: Option<Box<VictimAgent>>,
    /// First-use state; see [`HostData`].
    data: Option<Box<HostData>>,
    /// Dynamic-world state: a detached host is off the network — its tail
    /// circuit is blocked by the world layer and this flag silences its
    /// traffic apps (timer chains are dropped, so nothing is even offered
    /// to the dead link).
    attached: bool,
    /// Attachment generation, bumped on every detach. App timer tokens
    /// are stamped with it, so chains armed before a detach stay dead
    /// even if their events fire after a (possibly same-instant)
    /// reattach.
    attach_epoch: u16,
    /// Streaming probe tap, fed every delivered data packet.
    rx_tap: Option<Box<dyn RxTap>>,
}

impl EndHost {
    /// Builds a host attached to `gateway` through `uplink`.
    pub fn new(
        addr: Addr,
        gateway: Addr,
        uplink: LinkId,
        cfg: Arc<AitfConfig>,
        policy: HostPolicy,
    ) -> Self {
        EndHost {
            addr,
            gateway,
            uplink,
            cfg,
            policy,
            apps: Vec::new(),
            victim: None,
            data: None,
            attached: true,
            attach_epoch: 0,
            rx_tap: None,
        }
    }

    /// Whether any delivered packet has made this host's [`VictimAgent`].
    #[cfg(test)]
    pub(crate) fn has_victim_agent(&self) -> bool {
        self.victim.is_some()
    }

    /// Whether any send, delivery or notice has made this host's
    /// [`HostData`].
    #[cfg(test)]
    pub(crate) fn has_host_data(&self) -> bool {
        self.data.is_some()
    }

    /// Installs the streaming probe tap (replacing any previous one).
    pub fn set_rx_tap(&mut self, tap: Box<dyn RxTap>) {
        self.rx_tap = Some(tap);
    }

    /// The installed tap, for end-of-run readback.
    pub fn rx_tap(&self) -> Option<&dyn RxTap> {
        self.rx_tap.as_deref()
    }

    /// This host's address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Counter snapshot; all zeros for a host nothing happened to.
    pub fn counters(&self) -> HostCounters {
        self.data
            .as_ref()
            .map_or_else(HostCounters::default, |d| d.counters)
    }

    /// The self-filter table (compliance state); `None` for a host that
    /// has not sent, received or been told anything.
    pub fn self_filters(&self) -> Option<&FilterTable> {
        self.data.as_ref().map(|d| &d.self_filters)
    }

    /// Installs a traffic application. Must be called before the simulation
    /// starts.
    pub fn add_app(&mut self, app: Box<dyn TrafficApp>) {
        self.apps.push(Some(app));
    }

    /// Number of traffic applications installed on the host.
    pub fn app_count(&self) -> usize {
        self.apps.len()
    }

    /// Whether the host is attached to the network (dynamic worlds detach
    /// and reattach hosts mid-run).
    pub fn is_attached(&self) -> bool {
        self.attached
    }

    /// Flips the attachment flag. While detached every timer event is
    /// dropped — app timer chains die, so a retired host stops *offering*
    /// traffic instead of uselessly hammering its blocked tail circuit —
    /// and received packets are ignored. Detaching also bumps the
    /// attachment epoch, instantly staling every pending app timer: even
    /// a same-instant detach→attach cannot resurrect the old chains. The
    /// world layer pairs this with blocking the tail link itself.
    pub fn set_attached(&mut self, attached: bool) {
        if self.attached && !attached {
            self.attach_epoch = self.attach_epoch.wrapping_add(1);
        }
        self.attached = attached;
    }

    /// Re-runs every installed app's `on_start` — the reattachment hook:
    /// timer chains broken by a detach period restart from the current
    /// time (an app's `starting_after` delay now counts from reattachment).
    pub fn restart_apps(&mut self, ctx: &mut Context<'_>) {
        for i in 0..self.apps.len() {
            self.with_api(i, ctx, |app, api| app.on_start(api));
        }
    }

    /// Installs a traffic app *mid-run* and starts it immediately — the
    /// runtime-activation hook dynamic worlds compile late-arriving
    /// traffic onto. (Before the simulation starts, [`EndHost::add_app`]
    /// plus the normal `on_start` pass is equivalent.)
    pub fn install_app_now(&mut self, app: Box<dyn TrafficApp>, ctx: &mut Context<'_>) {
        self.apps.push(Some(app));
        let i = self.apps.len() - 1;
        self.with_api(i, ctx, |app, api| app.on_start(api));
    }

    fn with_api<R>(
        &mut self,
        app_index: usize,
        ctx: &mut Context<'_>,
        f: impl FnOnce(&mut dyn TrafficApp, &mut HostApi<'_, '_>) -> R,
    ) -> Option<R> {
        let mut app = self.apps[app_index].take()?;
        let mut api = HostApi {
            ctx,
            addr: self.addr,
            uplink: self.uplink,
            app_index,
            epoch: self.attach_epoch,
            suppress: self.policy == HostPolicy::Compliant,
            data: &mut self.data,
            cfg: &self.cfg,
        };
        let r = f(app.as_mut(), &mut api);
        self.apps[app_index] = Some(app);
        Some(r)
    }

    // ------------------------------------------------------------------
    // Victim agent.
    // ------------------------------------------------------------------

    fn on_attack_packet(&mut self, packet: &Packet, ctx: &mut Context<'_>) {
        let now = ctx.now();
        let src = packet.header.src;
        let flow = FlowLabel::src_dst(src, self.addr);
        let agent = self.victim.as_deref_mut().expect(AGENT);
        match agent.logged(&flow, now, self.cfg.t_tmp / 2) {
            // A flow we already asked to have blocked is leaking. With
            // fast re-detection (footnote 8) the request goes out
            // immediately; without it, re-detection costs a fresh `Td`
            // like any new flow — the conservative model behind the
            // paper's `r ≈ n(Td+Tr)/T`.
            Some(true) if self.cfg.fast_reblock => self.send_filtering_request(flow, ctx),
            // Requested within the damping window: nothing to do.
            Some(false) => {}
            // New undesired flow: the oracle detector fires after Td.
            Some(true) | None => agent.arm_detect(src, self.cfg.detection_delay, ctx),
        }
    }

    /// The oracle's `Td` clock for the flow from `src` ran out.
    fn on_detect(&mut self, src: Addr, ctx: &mut Context<'_>) {
        ctx.profile_subsystem(aitf_netsim::Subsystem::Detector);
        HostData::of(&mut self.data, &self.cfg).counters.detections += 1;
        self.send_filtering_request(FlowLabel::src_dst(src, self.addr), ctx);
    }

    /// The rate detector flagged `src`: request a block immediately
    /// (detection latency already elapsed inside the estimator).
    fn on_rate_trip(&mut self, src: aitf_packet::Addr, ctx: &mut Context<'_>) {
        ctx.profile_subsystem(aitf_netsim::Subsystem::Detector);
        let now = ctx.now();
        let flow = FlowLabel::src_dst(src, self.addr);
        let agent = self.victim.as_deref_mut().expect(AGENT);
        if let Some(due) = agent.logged(&flow, now, self.cfg.t_tmp / 2) {
            // Already requested; damp re-requests like the oracle path.
            if self.cfg.fast_reblock && due {
                self.send_filtering_request(flow, ctx);
            }
            return;
        }
        HostData::of(&mut self.data, &self.cfg).counters.detections += 1;
        if let Some(d) = &mut agent.rate_detector {
            d.forget(src);
        }
        self.send_filtering_request(flow, ctx);
    }

    fn send_filtering_request(&mut self, flow: FlowLabel, ctx: &mut Context<'_>) {
        let now = ctx.now();
        let agent = self.victim.as_deref_mut().expect(AGENT);
        let counters = &mut HostData::of(&mut self.data, &self.cfg).counters;
        // Self-police the contract: the gateway would drop the excess
        // anyway (Section II-B), so do not waste the wire.
        if !agent.request_bucket.try_acquire(now) {
            counters.requests_self_limited += 1;
            return;
        }
        let id = ctx.next_packet_id();
        let req = FilteringRequest {
            id,
            flow,
            dest: RequestDestination::VictimGateway,
            duration_ns: self.cfg.t_long.as_nanos(),
            path: agent.traceback.attack_path(&flow).unwrap_or_default(),
            round: 1,
        };
        counters.requests_sent += 1;
        agent.log_request(flow, now, now + self.cfg.t_long);
        let pkt = Packet::control(
            ctx.next_packet_id(),
            self.addr,
            self.gateway,
            AitfMessage::FilteringRequest(req),
        );
        ctx.send(self.uplink, pkt);
    }

    // ------------------------------------------------------------------
    // Control-plane handling.
    // ------------------------------------------------------------------

    fn handle_control(&mut self, packet: &Packet, ctx: &mut Context<'_>) {
        let Some(msg) = packet.aitf_message() else {
            return;
        };
        ctx.profile_subsystem(aitf_netsim::Subsystem::Escalation);
        let now = ctx.now();
        match msg {
            AitfMessage::VerificationQuery(q) => {
                let counters = &mut HostData::of(&mut self.data, &self.cfg).counters;
                counters.verification_queries += 1;
                let agent = self.victim.as_deref();
                let confirm = agent.is_some_and(|a| a.requested(&q.flow, now));
                if confirm {
                    counters.verification_confirmed += 1;
                } else {
                    counters.verification_denied += 1;
                }
                let reply = VerificationReply {
                    request_id: q.request_id,
                    flow: q.flow,
                    nonce: q.nonce,
                    confirm,
                };
                let pkt = Packet::control(
                    ctx.next_packet_id(),
                    self.addr,
                    packet.header.src,
                    AitfMessage::VerificationReply(reply),
                );
                ctx.send(self.uplink, pkt);
            }
            AitfMessage::FilteringRequest(req) if req.dest == RequestDestination::Attacker => {
                let data = HostData::of(&mut self.data, &self.cfg);
                data.counters.notices_received += 1;
                // A malicious host ignores the notice; its gateway's grace
                // timer deals with it.
                if self.policy == HostPolicy::Compliant {
                    let dur = SimDuration::from_nanos(req.duration_ns);
                    if data.self_filters.install(req.flow, now, dur).is_ok() {
                        data.counters.flows_stopped += 1;
                    }
                }
            }
            _ => {}
        }
    }
}

/// One host as [`crate::World::host`] shows it, whether or not any event
/// has made it. A host nothing has happened to is never built; its view
/// answers what such a host would — zero counters, no self-filters, no
/// tap, no apps, attached — so reading every host of a world builds none
/// of them. Every reference it hands out borrows the world, not the view.
#[derive(Clone, Copy)]
pub struct HostView<'w> {
    host: Option<&'w EndHost>,
    addr: Addr,
}

impl<'w> HostView<'w> {
    /// The view of the host at `addr`, `host` if it has been made.
    pub(crate) fn new(host: Option<&'w EndHost>, addr: Addr) -> Self {
        HostView { host, addr }
    }

    /// The host's address.
    pub fn addr(self) -> Addr {
        self.addr
    }

    /// Counter snapshot; all zeros for a host nothing happened to.
    pub fn counters(self) -> HostCounters {
        self.host
            .map_or_else(HostCounters::default, EndHost::counters)
    }

    /// The self-filter table; see [`EndHost::self_filters`].
    pub fn self_filters(self) -> Option<&'w FilterTable> {
        self.host.and_then(EndHost::self_filters)
    }

    /// The installed tap, for end-of-run readback.
    pub fn rx_tap(self) -> Option<&'w dyn RxTap> {
        self.host.and_then(EndHost::rx_tap)
    }

    /// Number of traffic applications installed on the host.
    pub fn app_count(self) -> usize {
        self.host.map_or(0, EndHost::app_count)
    }

    /// Whether the host is attached to the network; a host never made
    /// was never detached.
    pub fn is_attached(self) -> bool {
        self.host.is_none_or(EndHost::is_attached)
    }

    /// Whether any delivered packet has made the host's [`VictimAgent`].
    #[cfg(test)]
    pub(crate) fn has_victim_agent(self) -> bool {
        self.host.is_some_and(EndHost::has_victim_agent)
    }

    /// Whether any send, delivery or notice has made the host's
    /// [`HostData`].
    #[cfg(test)]
    pub(crate) fn has_host_data(self) -> bool {
        self.host.is_some_and(EndHost::has_host_data)
    }
}

impl Node for EndHost {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        // A host detached before the run starts (an "arrives later" world)
        // keeps its apps dormant; reattachment restarts them.
        if !self.attached {
            return;
        }
        for i in 0..self.apps.len() {
            self.with_api(i, ctx, |app, api| app.on_start(api));
        }
    }

    fn on_packet(&mut self, packet: Packet, _link: LinkId, ctx: &mut Context<'_>) {
        if !self.attached {
            // A packet already in flight when the host detached: gone.
            return;
        }
        // The first delivery makes the victim agent.
        let cfg = &self.cfg;
        let agent = self
            .victim
            .get_or_insert_with(|| Box::new(VictimAgent::new(cfg)));

        if packet.header.dst != self.addr {
            // Mis-routed packet; hosts do not forward.
            return;
        }
        if packet.is_data() {
            // Only data packets carry a route record; the victim keeps
            // every sender's, so any flow it requests has its path.
            agent.traceback.observe(&packet);
            let counters = &mut HostData::of(&mut self.data, &self.cfg).counters;
            match packet.payload {
                aitf_packet::PayloadKind::Data(TrafficClass::Attack) => {
                    counters.rx_attack_pkts += 1;
                    counters.rx_attack_bytes += packet.size_bytes as u64;
                    if self.cfg.detection == DetectionMode::Oracle {
                        self.on_attack_packet(&packet, ctx);
                    }
                }
                aitf_packet::PayloadKind::Data(TrafficClass::Legit) => {
                    counters.rx_legit_pkts += 1;
                    counters.rx_legit_bytes += packet.size_bytes as u64;
                }
                aitf_packet::PayloadKind::Aitf(_) => unreachable!("is_data checked"),
            }
            if let (Some(tap), aitf_packet::PayloadKind::Data(class)) =
                (&mut self.rx_tap, &packet.payload)
            {
                tap.on_rx(packet.header.src, *class, packet.size_bytes);
            }
            // The rate detector is class-blind: it sees what a real victim
            // sees — bytes per source — and flags whoever floods.
            let agent = self.victim.as_deref_mut().expect(AGENT);
            if let Some(detector) = &mut agent.rate_detector {
                let now = ctx.now();
                let src = packet.header.src;
                if detector.observe(src, packet.size_bytes, now) {
                    self.on_rate_trip(src, ctx);
                }
            }
        } else {
            self.handle_control(&packet, ctx);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        let app_ns = (token >> 32) & 0xffff;
        if app_ns == 0 {
            // A detect timer, keyed by the flow's source; a token nobody
            // armed finds no agent and makes none. A detached host unwinds
            // the detection, so the flow is re-detected fresh after
            // reattachment.
            let src = Addr(token as u32);
            let agent = self.victim.as_deref_mut();
            if agent.is_some_and(|a| a.detecting.remove(&src)) && self.attached {
                self.on_detect(src, ctx);
            }
            return;
        }
        if !self.attached {
            // Dropping the event breaks self-rearming timer chains, which
            // is the point: a detached host goes fully quiet.
            return;
        }
        if (token >> 48) as u16 != self.attach_epoch {
            // A chain armed before a detach: stale, superseded by
            // restart_apps — dropping it is what keeps a brief
            // detach→attach from doubling the send rate.
            return;
        }
        let app_index = (app_ns - 1) as usize;
        self.with_api(app_index, ctx, |app, api| app.on_timer(api));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn flow(i: u8) -> FlowLabel {
        FlowLabel::src_dst(Addr::new(10, 9, 0, i), Addr::new(10, 1, 0, 1))
    }

    #[test]
    fn the_request_log_drops_expired_flows_before_logging_a_new_one() {
        let mut agent = VictimAgent::new(&AitfConfig::default());
        for i in 0..100 {
            agent.log_request(flow(i), t(0), t(60));
        }
        assert_eq!(agent.request_log.len(), 100);
        agent.log_request(flow(200), t(61), t(121));
        assert_eq!(agent.request_log.len(), 1, "only the live flow is held");
        let cooldown = SimDuration::from_secs(5);
        assert_eq!(agent.logged(&flow(200), t(62), cooldown), Some(false));
        assert_eq!(agent.logged(&flow(7), t(62), cooldown), None);
    }
}
