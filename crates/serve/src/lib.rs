//! The serving tier the paper's profiles are collected and shipped in.
//!
//! `csspgo-core` is the profile path — probes, the unwinder, the
//! pre-inliner, the profile-guided rebuild. This crate is the deployment
//! around it, built only from core's public API (core cannot name it):
//!
//! * [`fleet`] — the multi-tenant profile-continuum service: N tenants ×
//!   M binary versions, each tenant-version one runtime unit (machine,
//!   aggregator, LRU clock) served by one round loop with rayon fan-out
//!   across tenant-versions, LRU-by-epoch cold-context eviction, a drift
//!   probe whose first stale versions (up to a bounded queue depth) are
//!   refreshed, totals read off what was served, and one rebuild from a
//!   version's live profile;
//! * [`release_train`] — a workload rolled through successive releases
//!   under live fleet traffic: traffic rotation, oracle and never-refresh
//!   anchors, retention arithmetic, the canary rule.

pub mod fleet;
pub mod release_train;
