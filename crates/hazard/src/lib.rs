//! # aba-hazard
//!
//! The hazard-pointer domain lives in `aba-reclaim`, beside the scheme that
//! uses it ([`aba_reclaim::hazard`]).  This crate only re-exports the domain
//! under its old path for the standalone `benchmark/` package, which names
//! `aba_hazard::HazardDomain`; no workspace crate depends on it, and it is
//! deleted together with the benchmark's dependency (ROADMAP item 1).

#![forbid(unsafe_code)]

pub use aba_reclaim::hazard::{HazardDomain, HazardHandle, SCAN_THRESHOLD};
