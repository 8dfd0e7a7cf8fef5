//! Stage logic. Marker types and chain wiring live in `crate::pipeline`;
//! the bodies live here — a child module of `router`, so they keep direct
//! access to the router's private state. Read stages (`inspect`) may veto
//! a packet; write stages (`apply`) mutate the packet or router state and
//! cannot veto.

use aitf_defense::{ReadStage, Verdict, WriteStage};
use aitf_netsim::{Context, LinkId};
use aitf_packet::{
    AitfMessage, FlowLabel, Packet, PayloadKind, PushbackRequest, RequestDestination,
    TracebackMark, TrafficClass,
};
use rand::Rng;

use super::BorderRouter;
use crate::config::TracebackMode;
use crate::pipeline;
use crate::pushback::{LINK_LOCAL, MAX_PUSHBACK_DEPTH};

// --- Stage helpers -----------------------------------------------------

impl BorderRouter {
    /// A packet matching a pending-path request supplies the missing
    /// attack-path sample; complete the propagation step.
    fn harvest_pending_path(&mut self, packet: &Packet, ctx: &mut Context<'_>) {
        if self.pending_paths.is_empty() {
            return;
        }
        let now = ctx.now();
        self.pending_paths.retain(|p| p.expires > now);
        let Some(pos) = self
            .pending_paths
            .iter()
            .position(|p| p.request.flow.matches(&packet.header))
        else {
            return;
        };
        if packet.route_record.is_empty() {
            return;
        }
        let mut request = self.pending_paths.remove(pos).request;
        // The packet has not crossed this router yet, so the record lacks
        // our own hop; append it for a complete path.
        let mut hops = packet.route_record.hops().to_vec();
        if hops.last() != Some(&self.addr) {
            hops.push(self.addr);
        }
        request.path = aitf_packet::RouteRecord::from_hops(hops.iter().copied());
        self.shadow.insert_with_path(
            request.flow,
            request.id,
            now,
            self.cfg.t_long,
            request.round,
            hops,
        );
        self.trace(now, || {
            format!("pending path resolved for {}", request.flow)
        });
        self.propagate_as_victim_gateway(request, ctx);
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
        if self.filters.install(flow, now, self.cfg.t_long).is_ok() {
            self.counters.filters_installed += 1;
        }
        if depth >= MAX_PUSHBACK_DEPTH {
            return;
        }
        // The contributing upstream neighbour is whoever the aggregate has
        // been arriving from.
        let key = match (flow.src_host(), flow.dst_host()) {
            (Some(s), Some(d)) => (s, d),
            _ => return,
        };
        let Some(uplink) = self.pushback.arrival_of(key) else {
            return;
        };
        let msg = AitfMessage::Pushback(PushbackRequest {
            id,
            flow,
            limit_bps: 0,
            duration_ns: self.cfg.t_long.as_nanos(),
            depth: depth + 1,
        });
        let pkt = Packet::control(ctx.next_packet_id(), self.addr, LINK_LOCAL, msg);
        self.pushback.counters.pushback_sent += 1;
        ctx.send(uplink, pkt);
    }
}

// --- AITF ingress ------------------------------------------------------

impl ReadStage<BorderRouter> for pipeline::AitfIngressFilter {
    /// Ingress filtering: a client packet must be sourced inside the
    /// client's own prefixes (Section III-A's incentive).
    fn inspect(
        r: &mut BorderRouter,
        packet: &Packet,
        arrival: LinkId,
        _ctx: &mut Context<'_>,
    ) -> Verdict {
        if r.policy.aitf_enabled && r.policy.ingress_filtering && packet.is_data() {
            if let Some(prefixes) = r.client_prefixes(arrival) {
                if !prefixes.iter().any(|p| p.contains(packet.header.src)) {
                    r.counters.spoofed_dropped += 1;
                    return Verdict::Drop;
                }
            }
        }
        Verdict::Continue
    }
}

impl ReadStage<BorderRouter> for pipeline::AitfWireFilter {
    /// Wire-speed filter check.
    fn inspect(
        r: &mut BorderRouter,
        packet: &Packet,
        _arrival: LinkId,
        ctx: &mut Context<'_>,
    ) -> Verdict {
        let now = ctx.now();
        if r.policy.aitf_enabled && packet.is_data() && r.filters.matches(&packet.header, now) {
            r.counters.data_filtered_pkts += 1;
            r.counters.data_filtered_bytes += packet.size_bytes as u64;
            // The blocked packet still carries traceback information a
            // pending request may be waiting for.
            r.harvest_pending_path(packet, ctx);
            return Verdict::Drop;
        }
        Verdict::Continue
    }
}

impl ReadStage<BorderRouter> for pipeline::AitfShadowReact {
    /// Shadow reactivation: a recently blocked flow reappeared after its
    /// temporary filter expired — the attacker side never took over.
    fn inspect(
        r: &mut BorderRouter,
        packet: &Packet,
        _arrival: LinkId,
        ctx: &mut Context<'_>,
    ) -> Verdict {
        let now = ctx.now();
        if r.policy.aitf_enabled
            && packet.is_data()
            && r.cfg.packet_triggered_reactivation
            && r.policy.cooperating
        {
            if let Some(entry) = r.shadow.check_reactivation(&packet.header, now) {
                r.counters.reactivations += 1;
                r.trace(now, || {
                    format!(
                        "reactivation: {} round {} reappeared",
                        entry.label, entry.round
                    )
                });
                r.on_reactivation(entry, packet, ctx);
                return Verdict::Drop;
            }
        }
        Verdict::Continue
    }
}

// --- Shared egress -----------------------------------------------------

impl ReadStage<BorderRouter> for pipeline::TtlCheck {
    /// TTL-exhaustion veto: a packet whose TTL cannot survive the
    /// decrement is undeliverable.
    fn inspect(
        r: &mut BorderRouter,
        packet: &Packet,
        _arrival: LinkId,
        _ctx: &mut Context<'_>,
    ) -> Verdict {
        if packet.header.ttl <= 1 {
            r.counters.undeliverable += 1;
            return Verdict::Drop;
        }
        Verdict::Continue
    }
}

impl WriteStage<BorderRouter> for pipeline::TtlDecrement {
    fn apply(_r: &mut BorderRouter, packet: &mut Packet, _arrival: LinkId, _ctx: &mut Context<'_>) {
        packet.header.ttl -= 1;
    }
}

impl WriteStage<BorderRouter> for pipeline::AitfStamp {
    /// Traceback stamping (data plane only; control messages are
    /// point-to-point and need no traceback).
    fn apply(r: &mut BorderRouter, packet: &mut Packet, _arrival: LinkId, ctx: &mut Context<'_>) {
        if r.policy.aitf_enabled && packet.is_data() {
            match r.cfg.traceback {
                TracebackMode::RouteRecord => {
                    // A full record degrades traceback but must not break
                    // forwarding.
                    let _ = packet.route_record.push(r.addr);
                }
                TracebackMode::Sampling { p, .. } => {
                    if ctx.rng().gen_bool(p) {
                        packet.mark = Some(TracebackMark {
                            router: r.addr,
                            distance: 0,
                        });
                    } else if let Some(m) = &mut packet.mark {
                        m.distance = m.distance.saturating_add(1);
                    }
                }
            }
        }
    }
}

// --- AITF escalate -----------------------------------------------------

impl ReadStage<BorderRouter> for pipeline::AitfAdmission {
    /// Request admission: counting, enablement and contract policing
    /// (Section II-B) — every received request lands in exactly one
    /// counter bucket, starting here.
    fn inspect(
        r: &mut BorderRouter,
        packet: &Packet,
        arrival: LinkId,
        ctx: &mut Context<'_>,
    ) -> Verdict {
        let PayloadKind::Aitf(msg) = &packet.payload else {
            // A data payload addressed to a router is a misdelivery.
            return Verdict::Drop;
        };
        if matches!(msg, AitfMessage::FilteringRequest(_)) {
            r.counters.requests_received += 1;
            if !r.policy.aitf_enabled {
                r.counters.requests_ignored += 1;
                return Verdict::Drop;
            }
            // Contract policing per arrival interface (Section II-B).
            if !r.limiter.try_acquire(arrival.0 as u64, ctx.now()) {
                r.counters.requests_policed += 1;
                return Verdict::Drop;
            }
        }
        Verdict::Continue
    }
}

impl WriteStage<BorderRouter> for pipeline::AitfDispatch {
    /// Role dispatch for admitted control messages: victim's gateway,
    /// attacker's gateway, or the attacker itself.
    fn apply(r: &mut BorderRouter, packet: &mut Packet, arrival: LinkId, ctx: &mut Context<'_>) {
        // Take the message out of the packet so the roles can consume the
        // request without cloning its route record.
        let payload =
            std::mem::replace(&mut packet.payload, PayloadKind::Data(TrafficClass::Legit));
        let PayloadKind::Aitf(msg) = payload else {
            return;
        };
        match msg {
            AitfMessage::FilteringRequest(req) => match req.dest {
                RequestDestination::VictimGateway => r.victim_gateway_role(req, arrival, ctx),
                RequestDestination::AttackerGateway => r.attacker_gateway_role(req, ctx),
                RequestDestination::Attacker => r.attacker_role(req, ctx),
            },
            AitfMessage::VerificationReply(rep) => r.handle_verification_reply(rep, ctx),
            AitfMessage::VerificationQuery(_) | AitfMessage::Pushback(_) => {
                // Queries are for victims (end hosts) and pushback belongs
                // to the baseline policy; either here is a misdelivery.
                r.counters.undeliverable += 1;
            }
        }
    }
}

// --- Pushback ----------------------------------------------------------

impl ReadStage<BorderRouter> for pipeline::PushbackWireFilter {
    /// Aggregate-filter check; a drop still refreshes the arrival record
    /// so a later propagation knows where the aggregate comes from.
    fn inspect(
        r: &mut BorderRouter,
        packet: &Packet,
        arrival: LinkId,
        ctx: &mut Context<'_>,
    ) -> Verdict {
        let now = ctx.now();
        if packet.is_data() && r.filters.matches(&packet.header, now) {
            r.counters.data_filtered_pkts += 1;
            r.counters.data_filtered_bytes += packet.size_bytes as u64;
            r.pushback
                .note_arrival((packet.header.src, packet.header.dst), arrival);
            return Verdict::Drop;
        }
        Verdict::Continue
    }
}

impl ReadStage<BorderRouter> for pipeline::PushbackArrival {
    /// Arrival-link learning for packets that survive the filter.
    fn inspect(
        r: &mut BorderRouter,
        packet: &Packet,
        arrival: LinkId,
        _ctx: &mut Context<'_>,
    ) -> Verdict {
        if packet.is_data() {
            r.pushback
                .note_arrival((packet.header.src, packet.header.dst), arrival);
        }
        Verdict::Continue
    }
}

impl WriteStage<BorderRouter> for pipeline::PushbackControl {
    /// The pushback control plane: hop-by-hop requests from downstream
    /// plus the victim's edge trigger (the same filtering request AITF's
    /// victim's gateway consumes, with pushback semantics instead).
    fn apply(r: &mut BorderRouter, packet: &mut Packet, _arrival: LinkId, ctx: &mut Context<'_>) {
        match &packet.payload {
            PayloadKind::Aitf(AitfMessage::Pushback(p)) => {
                r.pushback.counters.pushback_received += 1;
                if !r.policy.cooperating {
                    r.pushback.counters.pushback_ignored += 1;
                    return;
                }
                let (flow, id, depth) = (p.flow, p.id, p.depth);
                r.pushback_block_and_propagate(flow, id, depth, ctx);
            }
            PayloadKind::Aitf(AitfMessage::FilteringRequest(req))
                if req.dest == RequestDestination::VictimGateway =>
            {
                r.counters.requests_received += 1;
                if r.policy.cooperating {
                    let (flow, id) = (req.flow, req.id);
                    r.pushback_block_and_propagate(flow, id, 0, ctx);
                }
            }
            _ => {}
        }
    }
}

// --- Ingress rate limiting --------------------------------------------

impl ReadStage<BorderRouter> for pipeline::PrefixPolice {
    /// Per-source-prefix token-bucket policing on client links: purely
    /// local, no escalation — and collateral for legitimate hosts sharing
    /// a /16 with attackers.
    fn inspect(
        r: &mut BorderRouter,
        packet: &Packet,
        arrival: LinkId,
        ctx: &mut Context<'_>,
    ) -> Verdict {
        if packet.is_data() && r.client_prefixes(arrival).is_some() {
            let key = (packet.header.src.0 >> 16) as u64;
            let now = ctx.now();
            let limiter = r
                .prefix_limiter
                .as_mut()
                .expect("prefix limiter exists under IngressRateLimit");
            if !limiter.try_acquire(key, now) {
                r.counters.data_filtered_pkts += 1;
                r.counters.data_filtered_bytes += packet.size_bytes as u64;
                return Verdict::Drop;
            }
        }
        Verdict::Continue
    }
}

impl ReadStage<BorderRouter> for pipeline::RatelimitControl {
    /// Control sink: the policy has no escalation plane, so filtering
    /// requests are counted (for the bake-off's request accounting) and
    /// dropped.
    fn inspect(
        r: &mut BorderRouter,
        packet: &Packet,
        _arrival: LinkId,
        _ctx: &mut Context<'_>,
    ) -> Verdict {
        if let PayloadKind::Aitf(AitfMessage::FilteringRequest(_)) = &packet.payload {
            r.counters.requests_received += 1;
            r.counters.requests_ignored += 1;
        }
        Verdict::Drop
    }
}

// --- Path stamping -----------------------------------------------------

impl ReadStage<BorderRouter> for pipeline::PathStampCheck {
    /// Drops stamped traffic whose first-hop router (the "capability"
    /// origin) has been revoked by a victim — coarse and collateral-heavy,
    /// which is exactly what the bake-off measures.
    fn inspect(
        r: &mut BorderRouter,
        packet: &Packet,
        _arrival: LinkId,
        ctx: &mut Context<'_>,
    ) -> Verdict {
        if packet.is_data() && !r.stamp_blocks.is_empty() {
            if let Some(&origin) = packet.route_record.hops().first() {
                let now = ctx.now();
                if r.stamp_blocks
                    .iter()
                    .any(|&(o, exp)| o == origin && exp > now)
                {
                    r.counters.data_filtered_pkts += 1;
                    r.counters.data_filtered_bytes += packet.size_bytes as u64;
                    return Verdict::Drop;
                }
            }
        }
        Verdict::Continue
    }
}

impl WriteStage<BorderRouter> for pipeline::PathStampMark {
    /// Every router stamps data packets unconditionally — the route
    /// record is the capability the victim side revokes against.
    fn apply(r: &mut BorderRouter, packet: &mut Packet, _arrival: LinkId, _ctx: &mut Context<'_>) {
        if packet.is_data() {
            let _ = packet.route_record.push(r.addr);
        }
    }
}

impl WriteStage<BorderRouter> for pipeline::PathStampControl {
    /// Origin revocation: a victim's filtering request names an attack
    /// path; its first hop (the attacker's edge router) is revoked for
    /// `T`, blocking *all* stamped traffic from that origin.
    fn apply(r: &mut BorderRouter, packet: &mut Packet, _arrival: LinkId, ctx: &mut Context<'_>) {
        let PayloadKind::Aitf(AitfMessage::FilteringRequest(req)) = &packet.payload else {
            return;
        };
        if req.dest != RequestDestination::VictimGateway {
            return;
        }
        r.counters.requests_received += 1;
        if !r.policy.cooperating {
            r.counters.requests_ignored += 1;
            return;
        }
        let Some(&origin) = req.path.hops().first() else {
            // No stamped path sample (e.g. the flood never reached the
            // victim): nothing to revoke against.
            r.counters.requests_invalid += 1;
            return;
        };
        let now = ctx.now();
        if let Some(entry) = r.stamp_blocks.iter_mut().find(|(o, _)| *o == origin) {
            entry.1 = now + r.cfg.t_long;
            r.counters.requests_refreshed += 1;
            return;
        }
        // Reclaim expired revocations before refusing for capacity.
        r.stamp_blocks.retain(|&(_, exp)| exp > now);
        if r.stamp_blocks.len() >= r.cfg.filter_capacity {
            r.counters.requests_unsatisfiable += 1;
            return;
        }
        r.stamp_blocks.push((origin, now + r.cfg.t_long));
        r.counters.requests_accepted += 1;
        r.counters.filters_installed += 1;
    }
}
