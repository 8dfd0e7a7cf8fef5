//! The AITF control plane: the roles a border router plays when a
//! filtering request reaches it (victim's gateway, attacker's gateway,
//! attacker), the verification handshake and shadow reactivation. The
//! timers these arm (handshake timeout, grace check) fire in
//! `Node::on_timer` and are handled beside it in `router/mod.rs`. A child
//! module of `router`, so the roles keep direct access to the router's
//! private state.

use aitf_filter::InstallError;
use aitf_netsim::{Context, LinkId, SimDuration};
use aitf_packet::{
    AitfMessage, FilteringRequest, Nonce, RequestDestination, VerificationQuery, VerificationReply,
};
use aitf_trace::{Cause, SpanKind};
use rand::Rng;

use super::{flow_key, BorderRouter, DataState, GraceWatch, PendingHandshake, TimerAction};
use crate::pipeline::RequestOutcome;

/// How long the attacker's gateway waits for the victim's verification
/// reply: the ≈ 600 ms 3-way handshake of the paper's running example
/// (Section IV-B).
const HANDSHAKE_TIMEOUT: SimDuration = SimDuration::from_millis(600);

impl BorderRouter {
    // ------------------------------------------------------------------
    // Victim-gateway role.
    // ------------------------------------------------------------------

    pub(super) fn victim_gateway_role(
        &mut self,
        mut req: FilteringRequest,
        arrival: LinkId,
        ctx: &mut Context<'_>,
    ) -> RequestOutcome {
        let now = ctx.now();
        // The requester must be a client, and may only claim victimhood for
        // destinations behind itself (trivial ingress verification,
        // Section II-E). The victim has received the flow's route record
        // before it asks, so only a malformed client sends a request with
        // no path.
        let behind = self.client_behind(arrival);
        if !behind.is_some_and(|b| b.contains(req.flow.dst)) || req.path.is_empty() {
            return RequestOutcome::Invalid;
        }

        // A repeat request for a flow we already acted on means the last
        // round failed: escalate. (The client always claims round 1; the
        // shadow knows better.) The entry is read out whole, so the tables
        // can be written below.
        if let Some(logged) = self.shadow().get(&req.flow) {
            let round = logged.round;
            let cooldown = self.cfg.t_tmp / 2;
            if round >= req.round {
                if now.saturating_since(logged.last_action) < cooldown {
                    // Duplicate within the damping window: refresh only.
                    // A full table means even the refresh failed — the
                    // client is unprotected and must not look served.
                    let key = flow_key(&req.flow);
                    let data = DataState::of(&mut self.data, &self.cfg);
                    return match data.filters.install(req.flow, now, self.cfg.t_tmp) {
                        Ok(_) => {
                            self.span(SpanKind::Refresh, Cause::Duplicate, key, round, now);
                            RequestOutcome::Refreshed
                        }
                        Err(InstallError::TableFull) => {
                            self.span(SpanKind::Drop, Cause::TableFull, key, round, now);
                            RequestOutcome::Unsatisfiable
                        }
                    };
                }
                req.round = round.saturating_add(1).min(self.cfg.max_round);
            }
        }

        // Temporary filter for Ttmp; shadow for T.
        let key = flow_key(&req.flow);
        let data = DataState::of(&mut self.data, &self.cfg);
        if let Err(InstallError::TableFull) = data.filters.install(req.flow, now, self.cfg.t_tmp) {
            self.span(SpanKind::Drop, Cause::TableFull, key, req.round, now);
            return RequestOutcome::Unsatisfiable;
        }
        // One span per escalation round, opened where the round is
        // handled; everything the round causes (handshake, long filter,
        // disconnect — wherever it happens) parents under it.
        let round_cause = if req.round > 1 {
            Cause::Escalated
        } else {
            Cause::Detection
        };
        self.tracer.start(
            SpanKind::Round,
            round_cause,
            key,
            req.round,
            self.addr.0,
            now.0,
        );
        self.span(SpanKind::TempFilter, Cause::Protocol, key, req.round, now);
        let data = DataState::of(&mut self.data, &self.cfg);
        data.shadow.insert_with_path(
            req.flow,
            req.id,
            now,
            self.cfg.t_long,
            req.round,
            req.path.clone(),
        );
        self.propagate_as_victim_gateway(req, ctx);
        RequestOutcome::Accepted
    }

    /// Decides, for round `k`, whether this router propagates to the
    /// attacker side, forwards the escalation to its parent, or — at the
    /// top of the chain with nothing left to try — disconnects the peer.
    ///
    /// Under partial deployment both selections are *deployment-aware*:
    /// path hops known to have left AITF are skipped, so the round-k
    /// request lands on the nearest participating node instead of being
    /// eaten by a legacy router, and escalation forwards to the nearest
    /// AITF-enabled ancestor rather than blindly to the parent.
    pub(super) fn propagate_as_victim_gateway(
        &mut self,
        req: FilteringRequest,
        ctx: &mut Context<'_>,
    ) {
        // The deployment view does not list this router only because a
        // legacy router never gets here.
        debug_assert!(self.policy.aitf_enabled);
        let now = ctx.now();
        // Everything the decision needs is `Copy`-cheap; pulling it out up
        // front lets each branch *move* `req` into the outgoing message
        // instead of cloning the whole request (route record included).
        let flow = req.flow;
        let round = req.round;
        let k = round.max(1) as usize;
        let len = req.path.len();
        let my_pos = req.path.position(self.addr);
        // The victim-side handler for round k is the k-th node from the
        // victim end of the path — or, when that hop no longer runs AITF,
        // the nearest participating node on the victim side of it.
        let handler_pos = len
            .checked_sub(k)
            .and_then(|ideal| (ideal..len).find(|&i| self.peer_participates(req.path.hops()[i])));
        // The attacker-side node asked to filter at round k, skipping
        // hops that have left AITF since they stamped the record.
        let target = req.path.hops()[(k - 1).min(len)..]
            .iter()
            .copied()
            .find(|&a| self.peer_participates(a));
        let parent = self.escalation_parent();

        let i_am_handler = match (my_pos, handler_pos) {
            (Some(p), Some(h)) => p == h || (p > h && parent.is_none()),
            // Not on the recorded path (or path exhausted): handle locally.
            _ => true,
        };

        let key = flow_key(&flow);
        if !i_am_handler {
            let Some(parent) = parent else {
                // No AITF-enabled ancestor left to escalate through; the
                // request would otherwise vanish without a trace.
                self.data_mut().counters.escalations_dropped += 1;
                self.span(SpanKind::Drop, Cause::NoAncestor, key, round, now);
                self.tracer.close_round(key, round, now.0);
                return;
            };
            let data = self.data_mut();
            data.counters.escalations_sent += 1;
            data.shadow.note_round(&flow, round);
            data.shadow.touch_action(&flow, now);
            self.span(SpanKind::Escalate, Cause::Escalated, key, round, now);
            let escalated = FilteringRequest {
                dest: RequestDestination::VictimGateway,
                ..req
            };
            self.send_control(ctx, parent, AitfMessage::FilteringRequest(escalated));
            return;
        }

        // I am the handler: ask the round-k attacker-side node to filter.
        match target {
            Some(target) if target != self.addr => {
                self.data_mut().shadow.touch_action(&flow, now);
                let outgoing = FilteringRequest {
                    dest: RequestDestination::AttackerGateway,
                    ..req
                };
                self.send_control(ctx, target, AitfMessage::FilteringRequest(outgoing));
            }
            _ => {
                // Every attacker-side node was tried (or the round walked
                // into ourselves): disconnect the neighbour the flow comes
                // through (Section II-D worst case: "G_gw3 disconnects from
                // B_gw3").
                self.disconnect_flow_neighbor(&req, ctx);
            }
        }
    }

    /// Blocks the incoming direction of the link the attack path enters
    /// through — unless that link is this router's own uplink, in which
    /// case severing it would disconnect this network (and every client
    /// behind it) from the world rather than the attacker; the flow is
    /// then kept filtered locally instead. That is the partial-deployment
    /// endgame: a victim's gateway with no cooperating node upstream
    /// still protects its client with its own table.
    fn disconnect_flow_neighbor(&mut self, req: &FilteringRequest, ctx: &mut Context<'_>) {
        let now = ctx.now();
        let key = flow_key(&req.flow);
        let my_pos = req.path.position(self.addr);
        // The neighbour towards the attacker: previous hop on the path, or
        // the route towards the flow source as a fallback.
        let neighbor = my_pos
            .and_then(|p| p.checked_sub(1))
            .map_or(req.flow.src, |i| req.path.hops()[i]);
        let Some(link) = self.route(neighbor) else {
            self.data_mut().counters.escalations_dropped += 1;
            self.span(SpanKind::Drop, Cause::NoNeighbor, key, req.round, now);
            self.tracer.close_round(key, req.round, now.0);
            return;
        };
        if Some(link) == self.uplink() {
            let data = DataState::of(&mut self.data, &self.cfg);
            data.counters.local_filter_fallbacks += 1;
            // Extend the temporary filter to the full horizon `T`; a full
            // table leaves the existing temporary protection in place.
            let _ = data.filters.install(req.flow, now, self.cfg.t_long);
            self.span(SpanKind::LocalFilter, Cause::Protocol, key, req.round, now);
            self.tracer.close_round(key, req.round, now.0);
            return;
        }
        self.data_mut().counters.disconnects_peer += 1;
        self.span(SpanKind::Disconnect, Cause::Protocol, key, req.round, now);
        self.tracer.close_round(key, req.round, now.0);
        ctx.set_incoming_blocked(link, true);
    }

    /// A shadowed flow reappeared: reinstall the temporary filter and
    /// escalate one round.
    pub(super) fn on_reactivation(
        &mut self,
        entry: aitf_filter::ShadowEntry,
        ctx: &mut Context<'_>,
    ) {
        let now = ctx.now();
        let data = DataState::of(&mut self.data, &self.cfg);
        let _ = data.filters.install(entry.label, now, self.cfg.t_tmp);
        let cooldown = self.cfg.t_tmp / 2;
        if now.saturating_since(entry.last_action) < cooldown {
            return;
        }
        let round = entry.round.saturating_add(1).min(self.cfg.max_round);
        data.shadow.note_round(&entry.label, round);
        data.shadow.touch_action(&entry.label, now);
        // The temporary filter expired and the shadowed flow came back:
        // that expiry is the cause of this whole round.
        self.tracer.start(
            SpanKind::Round,
            Cause::TempFilterExpired,
            flow_key(&entry.label),
            round,
            self.addr.0,
            now.0,
        );
        let req = FilteringRequest {
            id: entry.request_id,
            flow: entry.label,
            dest: RequestDestination::VictimGateway,
            duration_ns: self.cfg.t_long.as_nanos(),
            path: entry.path,
            round,
        };
        self.propagate_as_victim_gateway(req, ctx);
    }

    // ------------------------------------------------------------------
    // Attacker-gateway role.
    // ------------------------------------------------------------------

    pub(super) fn attacker_gateway_role(
        &mut self,
        req: FilteringRequest,
        ctx: &mut Context<'_>,
    ) -> RequestOutcome {
        if self.cfg.verification {
            self.start_handshake(req, ctx)
        } else {
            self.satisfy_attacker_side(req, ctx, Cause::Protocol)
        }
    }

    fn start_handshake(&mut self, req: FilteringRequest, ctx: &mut Context<'_>) -> RequestOutcome {
        let now = ctx.now();
        let victim = req.flow.dst;
        let nonce = Nonce(ctx.rng().gen());
        self.data_mut().counters.handshakes_started += 1;
        let span = self.tracer.start(
            SpanKind::Handshake,
            Cause::Protocol,
            flow_key(&req.flow),
            req.round,
            self.addr.0,
            now.0,
        );
        let query = VerificationQuery {
            request_id: req.id,
            flow: req.flow,
            nonce,
        };
        let ctl = self.ctl_mut();
        ctl.pending_handshakes
            .insert(nonce.0, PendingHandshake { request: req, span });
        let token = ctl.alloc_token(TimerAction::HandshakeTimeout { nonce: nonce.0 });
        ctx.set_timer(HANDSHAKE_TIMEOUT, token);
        self.send_control(ctx, victim, AitfMessage::VerificationQuery(query));
        RequestOutcome::Accepted
    }

    pub(super) fn handle_verification_reply(
        &mut self,
        rep: VerificationReply,
        ctx: &mut Context<'_>,
    ) {
        let now = ctx.now();
        // A nonce nobody is waiting on finds no state and makes none.
        let Some(ctl) = self.ctl.as_deref_mut() else {
            return;
        };
        let Some(pending) = ctl.pending_handshakes.remove(&rep.nonce.0) else {
            return;
        };
        // The reply must echo the flow and request id of its nonce's query.
        if pending.request.id != rep.request_id || pending.request.flow != rep.flow {
            ctl.pending_handshakes.insert(rep.nonce.0, pending);
            return;
        }
        self.tracer.end(pending.span, now.0);
        if rep.confirm {
            self.data_mut().counters.handshakes_confirmed += 1;
            // Counted `accepted` when its handshake started: a full table now
            // is committed work left undone, outside the request identity.
            let outcome =
                self.satisfy_attacker_side(pending.request, ctx, Cause::HandshakeConfirmed);
            if outcome == RequestOutcome::Unsatisfiable {
                self.data_mut().counters.deferred_unsatisfied += 1;
            }
        } else {
            self.data_mut().counters.handshakes_denied += 1;
            let key = flow_key(&pending.request.flow);
            self.span(
                SpanKind::Drop,
                Cause::HandshakeDenied,
                key,
                pending.request.round,
                now,
            );
            self.tracer.close_round(key, pending.request.round, now.0);
        }
    }

    /// Installs the long filter and pushes the request one step closer to
    /// the attacker, arming the disconnection grace timer. `cause` is the
    /// long filter's span cause: what made this router act now.
    fn satisfy_attacker_side(
        &mut self,
        req: FilteringRequest,
        ctx: &mut Context<'_>,
        cause: Cause,
    ) -> RequestOutcome {
        let now = ctx.now();
        let flow = req.flow;
        let key = flow_key(&flow);
        let round = req.round;
        let data = DataState::of(&mut self.data, &self.cfg);
        if let Err(InstallError::TableFull) = data.filters.install(flow, now, self.cfg.t_long) {
            self.span(SpanKind::Drop, Cause::TableFull, key, round, now);
            self.tracer.close_round(key, round, now.0);
            return RequestOutcome::Unsatisfiable;
        }
        data.counters.filters_installed += 1;
        self.span(SpanKind::LongFilter, cause, key, round, now);
        self.tracer.close_round(key, round, now.0);

        // Who is my misbehaving client for this flow? Round 1: the attacker
        // host itself. Round k: the (k-1)-th node on the path — the client
        // network that failed to cooperate.
        let my_pos = req.path.position(self.addr);
        let client = my_pos
            .and_then(|p| p.checked_sub(1))
            .map_or(flow.src, |i| req.path.hops()[i]);
        let client_link = self.route(client);
        // Only police/disconnect parties that actually hang off a client
        // interface of ours.
        let is_client = client_link.is_some_and(|l| self.client_behind(l).is_some());

        // Moves `req` — the notice keeps the path and id without a clone.
        let notice = FilteringRequest {
            dest: RequestDestination::Attacker,
            ..req
        };
        self.data_mut().counters.attacker_notices_sent += 1;
        self.send_control(ctx, client, AitfMessage::FilteringRequest(notice));

        if is_client {
            let watch = GraceWatch {
                flow,
                client_link,
                armed_at: now,
                round,
            };
            let token = self.ctl_mut().alloc_token(TimerAction::GraceCheck(watch));
            ctx.set_timer(self.cfg.grace, token);
        }
        RequestOutcome::Accepted
    }

    /// `dest=Attacker` addressed to a *router*: an upstream gateway holds us
    /// responsible. A cooperating router blocks the flow itself and relays
    /// the notice towards the true attacker.
    pub(super) fn attacker_role(
        &mut self,
        req: FilteringRequest,
        ctx: &mut Context<'_>,
    ) -> RequestOutcome {
        // Block the flow ourselves and relay one step closer to the true
        // attacker, with the same grace-watch policing of our own client.
        self.satisfy_attacker_side(req, ctx, Cause::Protocol)
    }
}
