//! The repo's benchmark: eight workloads over the public API of the
//! `gcs-*` crates, four end-to-end metrics, and a per-layer table taken
//! from outside (spans around calls, counting sinks, isolated kernels).
//! See `README.md` beside this package for the definitions.

pub mod compare;
pub mod host;
pub mod kernels;
pub mod loopback;
pub mod metrics;
pub mod run;
pub mod suite;
pub mod trace;
pub mod workloads;
