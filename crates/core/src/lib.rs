//! The `A_OPT` dynamic gradient clock synchronization algorithm.
//!
//! This crate is the heart of the workspace: a faithful implementation of
//! the algorithm of *"Optimal Gradient Clock Synchronization in Dynamic
//! Networks"* (Kuhn, Lenzen, Locher, Oshman; PODC 2010) together with the
//! simulation engine that runs it over the dynamic-network substrate of
//! `gcs-net`.
//!
//! Paper-to-module map:
//!
//! | Paper | Module |
//! |---|---|
//! | Parameters ρ, µ, σ, κ, δ, ι, B (§4.3.1, eqs 7–13) | [`Params`] |
//! | Estimate layer, inequality (1) (§3.1) | [`EstimateMode`], [`ErrorModel`] |
//! | Neighbour sets `N^s_u`, Listing 2 insertion times | [`edge_state`] |
//! | FC / SC / max-estimate triggers, Listing 3 (Defs 4.5–4.7) | [`triggers`] |
//! | Max estimate `M_u` (Cond. 4.3) and `G̃_u(t)` bracket (§7) | [`node`] |
//! | Listing 1 handshake, flooding, §3.1 delivery rule, Listing 3 decision | [`gcs_protocol::handlers`] |
//! | The network, time and the oracle around the nodes | [`Simulation`], [`ParallelSimulation`] |
//!
//! # Quickstart
//!
//! ```
//! use gcs_core::{Params, SimBuilder};
//! use gcs_net::Topology;
//! use gcs_sim::DriftModel;
//!
//! let params = Params::builder().rho(0.01).mu(0.1).build()?;
//! let mut sim = SimBuilder::new(params)
//!     .topology(Topology::ring(8))
//!     .drift(DriftModel::Alternating)
//!     .seed(42)
//!     .build()
//!     .unwrap();
//! sim.run_until_secs(30.0);
//! println!("global skew: {:.6}", sim.snapshot().global_skew());
//! # Ok::<(), gcs_core::ParamsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diameter;
mod parallel;
mod shard;
mod sim;
mod snapshot;

// The node-local protocol state machine lives in the sans-IO
// `gcs-protocol` crate (shared with the `gcs-node` socket daemon); the
// modules are re-exported here so `gcs_core::edge_state::Level`-style
// paths keep working for every existing consumer.
pub use gcs_protocol::{edge_state, estimate, node, params, triggers};

pub use diameter::DiameterTracker;

pub use gcs_protocol::{
    AoptPolicy, EdgeInfo, ErrorModel, EstimateMode, InsertionStrategy, Mode, ModePolicy,
    NeighborView, NodeView, Params, ParamsBuilder, ParamsError, StabilityCert,
};
pub use parallel::{
    Engine, EngineGauges, ParallelBuildError, ParallelSimBuilder, ParallelSimulation,
};
pub use sim::{BuildError, ChangeRecord, SimBuilder, SimStats, Simulation};
pub use snapshot::{ClockSnapshot, Trace};
// The instrumentation seam types the `Engine` telemetry methods speak.
pub use gcs_telemetry::{LocalCounters, NoopSink, TelemetrySink};
