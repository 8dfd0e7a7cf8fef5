//! Allocation-counting global allocator for tests and benches.
//!
//! The hot-path work in this workspace carries "allocation-free in steady
//! state" claims (`route_record`, the netsim event heap and packet pool);
//! this probe makes them checkable. A test or bench binary installs it with
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: aitf_packet::alloc_probe::CountingAlloc = CountingAlloc;
//! ```
//!
//! and brackets the region under audit with [`CountingAlloc::count`].
//!
//! Counting is **per thread** (a const-initialised thread-local, so the
//! allocator never recurses through lazy TLS setup and needs no teardown):
//! a counted region sees exactly the allocations its own thread performed,
//! which keeps the assertions exact even when libtest runs sibling tests
//! concurrently on other threads. `alloc` and `realloc` both count; frees
//! do not — the steady-state question is "does this code ask the allocator
//! for memory", not "does it balance". Beside the call count the probe
//! keeps the bytes those calls asked for (a `realloc` counts its whole new
//! size), which is what the per-network footprint pin reads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// A `System`-backed allocator that counts every `alloc`/`realloc` made by
/// the current thread.
pub struct CountingAlloc;

impl CountingAlloc {
    /// Total allocations observed on the calling thread since it started.
    pub fn total() -> u64 {
        ALLOCS.with(|n| n.get())
    }

    /// Total bytes requested on the calling thread since it started.
    pub fn total_bytes() -> u64 {
        BYTES.with(|n| n.get())
    }

    /// Runs `f` and returns its result plus how many bytes the calling
    /// thread requested inside it (nothing is subtracted for frees).
    pub fn count_bytes<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = Self::total_bytes();
        let out = f();
        (out, Self::total_bytes() - before)
    }

    /// Runs `f` and returns its result plus how many allocations the
    /// calling thread made inside it.
    ///
    /// Only meaningful when the probe is installed as the global
    /// allocator; allocations `f` delegates to *other* threads are not
    /// attributed.
    pub fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = Self::total();
        let out = f();
        (out, Self::total() - before)
    }
}

fn bump(bytes: usize) {
    ALLOCS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + bytes as u64));
}

// The workspace denies `unsafe_code`; this is the one sanctioned
// exception — a GlobalAlloc shim has no safe spelling, and the zero-alloc
// pins in trace_zero_cost.rs depend on it.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        System.realloc(ptr, layout, new_size)
    }
}
