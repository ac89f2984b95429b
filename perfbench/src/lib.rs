//! End-to-end benchmark of the satiot simulator with per-layer
//! attribution. See `README.md` in this directory for the workloads and
//! metrics, and `main.rs` for the command line.

pub mod digest;
pub mod ledger;
pub mod procfs;
pub mod run;
pub mod split;
pub mod stats;
pub mod trace;
pub mod workloads;
