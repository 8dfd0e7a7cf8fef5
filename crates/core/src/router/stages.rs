//! The stage bodies [`crate::pipeline::StageId`] names, as inherent
//! methods sharing one signature so `run_stage` can dispatch them from a
//! single `match`. A child module of `router`, so they keep direct access
//! to the router's private state. A stage returns [`Verdict::Drop`] with
//! its reason, [`Verdict::Request`] with what became of a request, or
//! [`Verdict::Continue`]; `run_chain` counts the verdict, not the stage.

use aitf_netsim::{Context, LinkId};
use aitf_packet::{
    AitfMessage, FlowLabel, Packet, PayloadKind, PushbackRequest, RequestDestination, TrafficClass,
};

use aitf_trace::Cause;

use super::{BorderRouter, DataState};
use crate::pipeline::{RequestOutcome, Verdict};
use crate::pushback::{LINK_LOCAL, MAX_PUSHBACK_DEPTH};

impl BorderRouter {
    // --- AITF ingress --------------------------------------------------

    /// Ingress filtering: a client packet must be sourced inside the
    /// client's own addresses (Section III-A's incentive).
    pub(super) fn aitf_ingress_filter(
        &mut self,
        packet: &mut Packet,
        arrival: LinkId,
        _ctx: &mut Context<'_>,
    ) -> Verdict {
        if self.policy.aitf_enabled && self.policy.ingress_filtering && packet.is_data() {
            if let Some(behind) = self.client_behind(arrival) {
                if !behind.contains(packet.header.src) {
                    return Verdict::Drop(Cause::Spoofed);
                }
            }
        }
        Verdict::Continue
    }

    /// Wire-speed filter check.
    pub(super) fn aitf_wire_filter(
        &mut self,
        packet: &mut Packet,
        _arrival: LinkId,
        ctx: &mut Context<'_>,
    ) -> Verdict {
        if self.policy.aitf_enabled
            && packet.is_data()
            && self.data_mut().filters.matches(&packet.header, ctx.now())
        {
            return Verdict::Drop(Cause::Filtered);
        }
        Verdict::Continue
    }

    /// Shadow reactivation: a recently blocked flow reappeared after its
    /// temporary filter expired — the attacker side never took over.
    pub(super) fn aitf_shadow_react(
        &mut self,
        packet: &mut Packet,
        _arrival: LinkId,
        ctx: &mut Context<'_>,
    ) -> Verdict {
        if self.policy.aitf_enabled
            && packet.is_data()
            && self.cfg.fast_reblock
            && self.policy.cooperating
        {
            let shadow = &mut self.data_mut().shadow;
            if let Some(entry) = shadow.check_reactivation(&packet.header, ctx.now()) {
                self.on_reactivation(entry, ctx);
                return Verdict::Drop(Cause::TempFilterExpired);
            }
        }
        Verdict::Continue
    }

    // --- Shared egress -------------------------------------------------

    /// TTL-exhaustion veto: a packet whose TTL cannot survive the
    /// decrement is undeliverable.
    pub(super) fn ttl_check(
        &mut self,
        packet: &mut Packet,
        _arrival: LinkId,
        _ctx: &mut Context<'_>,
    ) -> Verdict {
        if packet.header.ttl <= 1 {
            return Verdict::Drop(Cause::TtlExpired);
        }
        Verdict::Continue
    }

    /// TTL decrement; `ttl_check` ran first, so this cannot underflow.
    pub(super) fn ttl_decrement(
        &mut self,
        packet: &mut Packet,
        _arrival: LinkId,
        _ctx: &mut Context<'_>,
    ) -> Verdict {
        packet.header.ttl -= 1;
        Verdict::Continue
    }

    /// Traceback stamping (data plane only; control messages are
    /// point-to-point and need no traceback).
    pub(super) fn aitf_stamp(
        &mut self,
        packet: &mut Packet,
        _arrival: LinkId,
        _ctx: &mut Context<'_>,
    ) -> Verdict {
        if self.policy.aitf_enabled && packet.is_data() {
            // A full record degrades traceback but must not break
            // forwarding.
            let _ = packet.route_record.push(self.addr);
        }
        Verdict::Continue
    }

    // --- AITF escalate -------------------------------------------------

    /// Request admission: enablement and contract policing (Section II-B).
    /// A request stopped here ends as `Ignored` or `Policed`; one admitted
    /// goes on to dispatch, which returns its outcome.
    pub(super) fn aitf_admission(
        &mut self,
        packet: &mut Packet,
        arrival: LinkId,
        ctx: &mut Context<'_>,
    ) -> Verdict {
        let PayloadKind::Aitf(msg) = &packet.payload else {
            // A data payload addressed to a router is a misdelivery.
            return Verdict::Drop(Cause::Misdelivered);
        };
        if matches!(msg, AitfMessage::FilteringRequest(_)) {
            if !self.policy.aitf_enabled {
                return Verdict::Request(RequestOutcome::Ignored);
            }
            // Contract policing per arrival interface (Section II-B): a
            // client link's bucket is created at the client contract (R1)
            // by its first request, any other link's at the bank's default
            // (R2). A new bucket is full whenever it is made, so policing
            // is the same as with every bucket made up front.
            let key = arrival.0 as u64;
            let contract = self.cfg.client_contract;
            let is_client = self.client_behind(arrival).is_some();
            let limiter = &mut self.ctl_mut().limiter;
            if limiter.bucket(key).is_none() && is_client {
                limiter.set_contract(key, contract.rate, contract.burst);
            }
            if !limiter.try_acquire(key, ctx.now()) {
                return Verdict::Request(RequestOutcome::Policed);
            }
        }
        Verdict::Continue
    }

    /// Role dispatch for admitted control messages: victim's gateway,
    /// attacker's gateway, or the attacker itself.
    pub(super) fn aitf_dispatch(
        &mut self,
        packet: &mut Packet,
        arrival: LinkId,
        ctx: &mut Context<'_>,
    ) -> Verdict {
        // Take the message out of the packet so the roles can consume the
        // request without cloning its route record.
        let payload =
            std::mem::replace(&mut packet.payload, PayloadKind::Data(TrafficClass::Legit));
        let PayloadKind::Aitf(msg) = payload else {
            return Verdict::Continue;
        };
        match msg {
            // A router that does not cooperate plays no role.
            AitfMessage::FilteringRequest(_) if !self.policy.cooperating => {
                Verdict::Request(RequestOutcome::Ignored)
            }
            AitfMessage::FilteringRequest(req) => Verdict::Request(match req.dest {
                RequestDestination::VictimGateway => self.victim_gateway_role(req, arrival, ctx),
                RequestDestination::AttackerGateway => self.attacker_gateway_role(req, ctx),
                RequestDestination::Attacker => self.attacker_role(req, ctx),
            }),
            AitfMessage::VerificationReply(rep) => {
                self.handle_verification_reply(rep, ctx);
                Verdict::Continue
            }
            // Queries are for victims (end hosts) and pushback belongs to
            // the baseline policy; either here is a misdelivery.
            AitfMessage::VerificationQuery(_) | AitfMessage::Pushback(_) => {
                Verdict::Drop(Cause::Misdelivered)
            }
        }
    }

    // --- Pushback ------------------------------------------------------

    /// Aggregate-filter check; a drop still refreshes the arrival record
    /// so a later propagation knows where the aggregate comes from.
    pub(super) fn pushback_wire_filter(
        &mut self,
        packet: &mut Packet,
        arrival: LinkId,
        ctx: &mut Context<'_>,
    ) -> Verdict {
        if packet.is_data() && self.data_mut().filters.matches(&packet.header, ctx.now()) {
            self.note_arrival(packet, arrival);
            return Verdict::Drop(Cause::Filtered);
        }
        Verdict::Continue
    }

    /// Arrival-link learning for packets that survive the filter.
    pub(super) fn pushback_arrival(
        &mut self,
        packet: &mut Packet,
        arrival: LinkId,
        _ctx: &mut Context<'_>,
    ) -> Verdict {
        if packet.is_data() {
            self.note_arrival(packet, arrival);
        }
        Verdict::Continue
    }

    /// Pushback's per-packet write: which link this `(src, dst)` aggregate
    /// arrives on. The first data packet a pushback router sees makes the
    /// state it is written to.
    #[inline]
    fn note_arrival(&mut self, packet: &Packet, arrival: LinkId) {
        self.ctl_mut()
            .pushback
            .note_arrival((packet.header.src, packet.header.dst), arrival);
    }

    /// The pushback control plane: hop-by-hop requests from downstream
    /// plus the victim's edge trigger (the same filtering request AITF's
    /// victim's gateway consumes, with pushback semantics instead).
    pub(super) fn pushback_control(
        &mut self,
        packet: &mut Packet,
        _arrival: LinkId,
        ctx: &mut Context<'_>,
    ) -> Verdict {
        match &packet.payload {
            PayloadKind::Aitf(AitfMessage::Pushback(p)) => {
                let (flow, id, depth) = (p.flow, p.id, p.depth);
                let cooperating = self.policy.cooperating;
                let counters = &mut self.ctl_mut().pushback.counters;
                counters.pushback_received += 1;
                if cooperating {
                    self.pushback_block_and_propagate(flow, id, depth, ctx);
                } else {
                    counters.pushback_ignored += 1;
                }
            }
            PayloadKind::Aitf(AitfMessage::FilteringRequest(req))
                if req.dest == RequestDestination::VictimGateway =>
            {
                self.data_mut().counters.requests_received += 1;
                if self.policy.cooperating {
                    let (flow, id) = (req.flow, req.id);
                    self.pushback_block_and_propagate(flow, id, 0, ctx);
                }
            }
            // Anything else has no handler under pushback: a misdelivery.
            _ => return Verdict::Drop(Cause::Misdelivered),
        }
        Verdict::Continue
    }

    /// Pushback's hop-by-hop step: block the aggregate locally and relay
    /// the request to the contributing upstream neighbour.
    fn pushback_block_and_propagate(
        &mut self,
        flow: FlowLabel,
        id: u64,
        depth: u8,
        ctx: &mut Context<'_>,
    ) {
        let now = ctx.now();
        let data = DataState::of(&mut self.data, &self.cfg);
        if data.filters.install(flow, now, self.cfg.t_long).is_ok() {
            data.counters.filters_installed += 1;
        }
        if depth >= MAX_PUSHBACK_DEPTH {
            return;
        }
        // The contributing upstream neighbour is whoever the aggregate has
        // been arriving from.
        let key = (flow.src, flow.dst);
        // A router that never saw the aggregate arrive learned no link
        // (and holds no state to ask).
        let Some(ctl) = self.ctl.as_deref_mut() else {
            return;
        };
        let Some(uplink) = ctl.pushback.arrival_of(key) else {
            return;
        };
        ctl.pushback.counters.pushback_sent += 1;
        let msg = AitfMessage::Pushback(PushbackRequest {
            id,
            flow,
            duration_ns: self.cfg.t_long.as_nanos(),
            depth: depth + 1,
        });
        let pkt = Packet::control(ctx.next_packet_id(), self.addr, LINK_LOCAL, msg);
        ctx.send(uplink, pkt);
    }

    // --- Ingress rate limiting -----------------------------------------

    /// Per-source-prefix token-bucket policing on client links: purely
    /// local, no escalation — and collateral for legitimate hosts sharing
    /// a /16 with attackers.
    pub(super) fn prefix_police(
        &mut self,
        packet: &mut Packet,
        arrival: LinkId,
        ctx: &mut Context<'_>,
    ) -> Verdict {
        if packet.is_data() && self.client_behind(arrival).is_some() {
            let key = (packet.header.src.0 >> 16) as u64;
            let now = ctx.now();
            // The first policed packet makes the state the policer is in.
            let limiter = self
                .ctl_mut()
                .prefix_limiter
                .as_mut()
                .expect("prefix limiter exists under IngressRateLimit");
            if !limiter.try_acquire(key, now) {
                return Verdict::Drop(Cause::Filtered);
            }
        }
        Verdict::Continue
    }

    /// Control sink: the policy has no escalation plane, so filtering
    /// requests are ignored (and counted for the bake-off's request
    /// accounting); anything else addressed here is a misdelivery.
    pub(super) fn ratelimit_control(
        &mut self,
        packet: &mut Packet,
        _arrival: LinkId,
        _ctx: &mut Context<'_>,
    ) -> Verdict {
        if let PayloadKind::Aitf(AitfMessage::FilteringRequest(_)) = packet.payload {
            return Verdict::Request(RequestOutcome::Ignored);
        }
        Verdict::Drop(Cause::Misdelivered)
    }

    // --- Path stamping -------------------------------------------------

    /// Drops stamped traffic whose first-hop router (the "capability"
    /// origin) has been revoked by a victim — coarse and collateral-heavy,
    /// which is exactly what the bake-off measures.
    pub(super) fn path_stamp_check(
        &mut self,
        packet: &mut Packet,
        _arrival: LinkId,
        ctx: &mut Context<'_>,
    ) -> Verdict {
        // No control state means no revocation ever reached this router.
        let blocks = self.ctl.as_deref().map_or(&[][..], |c| &c.stamp_blocks);
        if packet.is_data() && !blocks.is_empty() {
            if let Some(&origin) = packet.route_record.hops().first() {
                let now = ctx.now();
                if blocks.iter().any(|&(o, exp)| o == origin && exp > now) {
                    return Verdict::Drop(Cause::Filtered);
                }
            }
        }
        Verdict::Continue
    }

    /// Every router stamps data packets unconditionally — the route
    /// record is the capability the victim side revokes against.
    pub(super) fn path_stamp_mark(
        &mut self,
        packet: &mut Packet,
        _arrival: LinkId,
        _ctx: &mut Context<'_>,
    ) -> Verdict {
        if packet.is_data() {
            let _ = packet.route_record.push(self.addr);
        }
        Verdict::Continue
    }

    /// Origin revocation: a victim's filtering request names an attack
    /// path; its first hop (the attacker's edge router) is revoked for
    /// `T`, blocking *all* stamped traffic from that origin.
    pub(super) fn path_stamp_control(
        &mut self,
        packet: &mut Packet,
        _arrival: LinkId,
        ctx: &mut Context<'_>,
    ) -> Verdict {
        let req = match &packet.payload {
            PayloadKind::Aitf(AitfMessage::FilteringRequest(req))
                if req.dest == RequestDestination::VictimGateway =>
            {
                req
            }
            // Anything else has no handler under path stamping: a
            // misdelivery.
            _ => return Verdict::Drop(Cause::Misdelivered),
        };
        if !self.policy.cooperating {
            return Verdict::Request(RequestOutcome::Ignored);
        }
        let Some(&origin) = req.path.hops().first() else {
            // No stamped path sample (e.g. the flood never reached the
            // victim): nothing to revoke against.
            return Verdict::Request(RequestOutcome::Invalid);
        };
        let now = ctx.now();
        let until = now + self.cfg.t_long;
        let capacity = self.cfg.filter_capacity;
        let blocks = &mut self.ctl_mut().stamp_blocks;
        if let Some(entry) = blocks.iter_mut().find(|(o, _)| *o == origin) {
            entry.1 = until;
            return Verdict::Request(RequestOutcome::Refreshed);
        }
        // Reclaim expired revocations before refusing for capacity.
        blocks.retain(|&(_, exp)| exp > now);
        if blocks.len() >= capacity {
            return Verdict::Request(RequestOutcome::Unsatisfiable);
        }
        blocks.push((origin, until));
        self.data_mut().counters.filters_installed += 1;
        Verdict::Request(RequestOutcome::Accepted)
    }
}
