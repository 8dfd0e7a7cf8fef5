//! The recording facade: real when the `trace` feature is on, a zero-sized
//! pile of empty `#[inline]` stubs when it is off.
//!
//! Both variants expose the same API, so instrumentation call sites in the
//! protocol code need no `cfg` of their own. The disabled variant's
//! methods take and return the same types ([`SpanId::NONE`] everywhere)
//! and compile to nothing — `crates/bench/tests/trace_zero_cost.rs` pins
//! this at 0 allocations per event.
//!
//! The enabled variant is a **router-private append-only log** of
//! `(virtual time, operation)` — plain `Send` data, so a traced world runs
//! on the same shard threads as an untraced one. The span tree is built
//! when it is read: [`Tracer::replay`] merges every router's log in
//! `(time, router address, log position)` order through one
//! [`crate::SpanStore`]. That order is a function of what each router did
//! and when in *virtual* time, never of which thread ran it, so the tree is
//! identical at any shard count. Two routers acting on one `(flow, round)`
//! at the same virtual instant are causally independent (every link has a
//! positive delay), so breaking that tie by address loses nothing.

use crate::span::{Cause, SpanId, SpanKind, SpanRecord};

#[cfg(feature = "trace")]
mod imp {
    use super::*;
    use crate::span::SpanStore;

    /// One logged recorder call.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Start {
            kind: SpanKind,
            cause: Cause,
            flow: u64,
            round: u8,
            router: u32,
        },
        /// Ends the span whose `Start` sits at this log position.
        End(u32),
        CloseRound {
            flow: u64,
            round: u8,
        },
    }

    /// One router's span log. A [`SpanId`] handed out by [`Tracer::start`]
    /// is the log position of that start — meaningful to this log only;
    /// [`Tracer::replay`] maps it to the span's id in the merged tree.
    #[derive(Clone, Debug, Default)]
    pub struct Tracer {
        log: Vec<(u64, Op)>,
    }

    impl Tracer {
        /// An empty log.
        pub fn new() -> Tracer {
            Tracer::default()
        }

        /// Whether recording is compiled in.
        pub const ENABLED: bool = true;

        /// Logs a span start (see [`SpanStore::start`]).
        pub fn start(
            &mut self,
            kind: SpanKind,
            cause: Cause,
            flow: u64,
            round: u8,
            router: u32,
            now_ns: u64,
        ) -> SpanId {
            let id = SpanId(u32::try_from(self.log.len()).expect("span log fits u32"));
            let op = Op::Start {
                kind,
                cause,
                flow,
                round,
                router,
            };
            self.log.push((now_ns, op));
            id
        }

        /// Logs an instant (zero-duration) span.
        pub fn instant(
            &mut self,
            kind: SpanKind,
            cause: Cause,
            flow: u64,
            round: u8,
            router: u32,
            now_ns: u64,
        ) -> SpanId {
            let id = self.start(kind, cause, flow, round, router, now_ns);
            self.end(id, now_ns);
            id
        }

        /// Logs the end of a span this log started.
        pub fn end(&mut self, id: SpanId, now_ns: u64) {
            self.log.push((now_ns, Op::End(id.0)));
        }

        /// Logs the end of the open round span for `(flow, round)`
        /// (terminal event).
        pub fn close_round(&mut self, flow: u64, round: u8, now_ns: u64) {
            self.log.push((now_ns, Op::CloseRound { flow, round }));
        }

        /// Builds the span tree of a world from its routers' logs, given
        /// as `(router address, log)` pairs in any order, and closes every
        /// span still open at `now_ns` **in the returned copy** — the logs
        /// are only read, so a mid-run read changes nothing a later read
        /// sees.
        pub fn replay<'a>(
            logs: impl IntoIterator<Item = (u32, &'a Tracer)>,
            now_ns: u64,
        ) -> Vec<SpanRecord> {
            let logs: Vec<(u32, &Tracer)> = logs.into_iter().collect();
            let mut order: Vec<(u64, u32, usize, usize)> = logs
                .iter()
                .enumerate()
                .flat_map(|(l, &(router, t))| {
                    (t.log.iter().enumerate()).map(move |(pos, &(time, _))| (time, router, l, pos))
                })
                .collect();
            order.sort_unstable_by_key(|&(time, router, _, pos)| (time, router, pos));
            // Per log: position of a `Start` → its id in the merged store.
            let mut merged_id: Vec<Vec<SpanId>> = logs
                .iter()
                .map(|(_, t)| vec![SpanId::NONE; t.log.len()])
                .collect();
            let mut store = SpanStore::new();
            for (time, _, l, pos) in order {
                match logs[l].1.log[pos].1 {
                    Op::Start {
                        kind,
                        cause,
                        flow,
                        round,
                        router,
                    } => merged_id[l][pos] = store.start(kind, cause, flow, round, router, time),
                    Op::End(start) => {
                        // `SpanId::NONE` (or any position that is not a
                        // start) maps to NONE, which `end` ignores.
                        let id = merged_id[l].get(start as usize).copied();
                        store.end(id.unwrap_or(SpanId::NONE), time);
                    }
                    Op::CloseRound { flow, round } => store.close_round(flow, round, time),
                }
            }
            store.close_all(now_ns);
            store.spans().to_vec()
        }
    }
}

#[cfg(not(feature = "trace"))]
mod imp {
    use super::*;

    /// The no-op tracer: zero-sized, every method an empty inline stub.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct Tracer;

    impl Tracer {
        /// A tracer that records nothing.
        #[inline(always)]
        pub fn new() -> Tracer {
            Tracer
        }

        /// Whether recording is compiled in.
        pub const ENABLED: bool = false;

        /// No-op; returns [`SpanId::NONE`].
        #[inline(always)]
        pub fn start(
            &mut self,
            _kind: SpanKind,
            _cause: Cause,
            _flow: u64,
            _round: u8,
            _router: u32,
            _now_ns: u64,
        ) -> SpanId {
            SpanId::NONE
        }

        /// No-op; returns [`SpanId::NONE`].
        #[inline(always)]
        pub fn instant(
            &mut self,
            _kind: SpanKind,
            _cause: Cause,
            _flow: u64,
            _round: u8,
            _router: u32,
            _now_ns: u64,
        ) -> SpanId {
            SpanId::NONE
        }

        /// No-op.
        #[inline(always)]
        pub fn end(&mut self, _id: SpanId, _now_ns: u64) {}

        /// No-op.
        #[inline(always)]
        pub fn close_round(&mut self, _flow: u64, _round: u8, _now_ns: u64) {}

        /// Always empty.
        #[inline(always)]
        pub fn replay<'a>(
            _logs: impl IntoIterator<Item = (u32, &'a Tracer)>,
            _now_ns: u64,
        ) -> Vec<SpanRecord> {
            Vec::new()
        }
    }
}

pub use imp::Tracer;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(not(feature = "trace"))]
    fn disabled_tracer_is_zero_sized_and_silent() {
        assert_eq!(std::mem::size_of::<Tracer>(), 0);
        let mut t = Tracer::new();
        const { assert!(!Tracer::ENABLED) };
        let id = t.start(SpanKind::Round, Cause::Detection, 1, 1, 1, 0);
        assert_eq!(id, SpanId::NONE);
        t.end(id, 5);
        assert!(Tracer::replay([(1, &t)], 9).is_empty());
    }

    #[test]
    #[cfg(feature = "trace")]
    fn interleaved_logs_merge_into_one_tree_across_routers() {
        // Router 10 opens the round; router 20 runs the handshake inside
        // it; router 10 then closes the round. Neither log knows the other.
        let (mut a, mut b) = (Tracer::new(), Tracer::new());
        const { assert!(Tracer::ENABLED) };
        a.start(SpanKind::Round, Cause::Detection, 1, 1, 10, 0);
        let hs = b.start(SpanKind::Handshake, Cause::Protocol, 1, 1, 20, 5);
        b.end(hs, 9);
        a.close_round(1, 1, 12);
        // Input order is irrelevant: the merge sorts by virtual time.
        let spans = Tracer::replay([(20, &b), (10, &a)], 100);
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].kind, spans[0].router), (SpanKind::Round, 10));
        assert_eq!((spans[0].start_ns, spans[0].end_ns), (0, 12));
        assert_eq!(spans[1].parent, Some(spans[0].id), "child crosses routers");
        assert_eq!((spans[1].start_ns, spans[1].end_ns), (5, 9));
    }

    #[test]
    #[cfg(feature = "trace")]
    fn equal_timestamps_order_by_router_address_then_log_position() {
        // Both routers act at t = 7. Router 10 sorts first, so its round is
        // open by the time router 20's instants replay, in log order.
        let (mut lo, mut hi) = (Tracer::new(), Tracer::new());
        hi.instant(SpanKind::TempFilter, Cause::Protocol, 1, 1, 20, 7);
        hi.instant(SpanKind::Escalate, Cause::Escalated, 1, 1, 20, 7);
        lo.start(SpanKind::Round, Cause::Detection, 1, 1, 10, 7);
        let spans = Tracer::replay([(20, &hi), (10, &lo)], 8);
        let kinds: Vec<SpanKind> = spans.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            [SpanKind::Round, SpanKind::TempFilter, SpanKind::Escalate]
        );
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        // Swap the addresses and the instants replay before any round
        // exists: they become roots.
        let spans = Tracer::replay([(5, &hi), (10, &lo)], 8);
        assert_eq!(spans[0].kind, SpanKind::TempFilter);
        assert_eq!(spans[0].parent, None);
    }

    #[test]
    #[cfg(feature = "trace")]
    fn replay_closes_open_spans_on_the_copy_only() {
        let mut t = Tracer::new();
        let hs = t.start(SpanKind::Handshake, Cause::Protocol, 1, 1, 10, 3);
        t.end(SpanId::NONE, 4);
        let early = Tracer::replay([(10, &t)], 5);
        assert_eq!(early[0].end_ns, 5, "open span closed at the read time");
        assert_eq!(early, Tracer::replay([(10, &t)], 5), "reads are pure");
        t.end(hs, 8);
        assert_eq!(Tracer::replay([(10, &t)], 20)[0].end_ns, 8, "real end");
    }
}
