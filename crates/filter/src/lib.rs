//! Filtering substrate: bounded filter tables, the DRAM shadow cache and
//! contract rate limiters.
//!
//! The economics of the AITF paper rest on one asymmetry (Section II-B):
//! *"each router can afford gigabytes of DRAM but only a limited number of
//! filters."* This crate models both sides of that asymmetry plus the
//! policing that keeps request processing bounded:
//!
//! - [`FilterTable`] — the scarce resource: a hardware-style table with a
//!   hard capacity (typically a few thousand entries) that blocks packets
//!   at wire speed. Installation fails or evicts when the table is full.
//! - [`ShadowCache`] — the cheap resource: a large DRAM log of filtering
//!   requests kept for the full `T` window, used to catch "on-off" flows
//!   after the temporary filter is gone (Section II-B, footnotes 2–3).
//! - [`TokenBucket`] / [`RateLimiterBank`] — the filtering-contract
//!   policers: requests beyond the agreed rate `R1`/`R2` are
//!   indiscriminately dropped (Section II-B), which is what bounds a
//!   router's filter and CPU consumption.
//!
//! Both tables are policy layers over one private label index (`index.rs`)
//! keyed exactly by host pair. Its module doc states the one-probe match,
//! lazy expiry, slot reuse and storage order both tables rely on.

mod index;
pub mod rate;
pub mod shadow;
pub mod table;

pub use rate::{RateLimiterBank, TokenBucket};
pub use shadow::{ShadowCache, ShadowEntry, ShadowStats};
pub use table::{EvictionPolicy, FilterStats, FilterTable, InstallError, InstallOutcome};
