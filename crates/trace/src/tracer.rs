//! The recording facade: real when the `trace` feature is on, a zero-sized
//! pile of empty `#[inline]` stubs when it is off.
//!
//! Both variants expose the same API, so instrumentation call sites in the
//! protocol code need no `cfg` of their own. The disabled variant's
//! methods take and return the same types ([`SpanId::NONE`] everywhere)
//! and compile to nothing — `crates/bench/tests/trace_zero_cost.rs` pins
//! this at 0 allocations per event.

use crate::span::{Cause, SpanId, SpanKind, SpanRecord};

#[cfg(feature = "trace")]
mod imp {
    use super::*;
    use crate::span::SpanStore;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A cloneable handle to a shared span store. Every border router in a
    /// world clones the same tracer, so round spans parent across routers.
    /// Not `Send` — worlds live and die on one worker thread.
    #[derive(Clone, Debug, Default)]
    pub struct Tracer {
        store: Rc<RefCell<SpanStore>>,
    }

    impl Tracer {
        /// A tracer with a fresh store.
        pub fn new() -> Tracer {
            Tracer::default()
        }

        /// Whether recording is compiled in.
        pub fn is_enabled(&self) -> bool {
            true
        }

        /// Starts a span (see [`SpanStore::start`]).
        pub fn start(
            &self,
            kind: SpanKind,
            cause: Cause,
            flow: u64,
            round: u8,
            router: u32,
            now_ns: u64,
        ) -> SpanId {
            self.store
                .borrow_mut()
                .start(kind, cause, flow, round, router, now_ns)
        }

        /// Records an instant (zero-duration) span.
        pub fn instant(
            &self,
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

        /// Ends an open span.
        pub fn end(&self, id: SpanId, now_ns: u64) {
            self.store.borrow_mut().end(id, now_ns);
        }

        /// Ends the open round span for `(flow, round)` (terminal event).
        pub fn close_round(&self, flow: u64, round: u8, now_ns: u64) {
            self.store.borrow_mut().close_round(flow, round, now_ns);
        }

        /// Closes every still-open span at `now_ns` (end of run).
        pub fn finish(&self, now_ns: u64) {
            self.store.borrow_mut().close_all(now_ns);
        }

        /// Snapshot of every recorded span.
        pub fn spans(&self) -> Vec<SpanRecord> {
            self.store.borrow().spans().to_vec()
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
        #[inline(always)]
        pub fn is_enabled(&self) -> bool {
            false
        }

        /// No-op; returns [`SpanId::NONE`].
        #[inline(always)]
        pub fn start(
            &self,
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
            &self,
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
        pub fn end(&self, _id: SpanId, _now_ns: u64) {}

        /// No-op.
        #[inline(always)]
        pub fn close_round(&self, _flow: u64, _round: u8, _now_ns: u64) {}

        /// No-op.
        #[inline(always)]
        pub fn finish(&self, _now_ns: u64) {}

        /// Always empty.
        #[inline(always)]
        pub fn spans(&self) -> Vec<SpanRecord> {
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
        let t = Tracer::new();
        assert!(!t.is_enabled());
        let id = t.start(SpanKind::Round, Cause::Detection, 1, 1, 1, 0);
        assert_eq!(id, SpanId::NONE);
        t.end(id, 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    #[cfg(feature = "trace")]
    fn enabled_tracer_records_and_clones_share_the_store() {
        let t = Tracer::new();
        assert!(t.is_enabled());
        let u = t.clone();
        let round = t.start(SpanKind::Round, Cause::Detection, 1, 1, 10, 0);
        let hs = u.start(SpanKind::Handshake, Cause::Protocol, 1, 1, 20, 5);
        u.end(hs, 9);
        t.end(round, 12);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(round.0));
    }
}
