//! # gradient-clock-sync
//!
//! A full, simulation-backed reproduction of **"Optimal Gradient Clock
//! Synchronization in Dynamic Networks"** (Kuhn, Lenzen, Locher, Oshman;
//! PODC 2010, arXiv:1005.2894).
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! * [`sim`] — discrete-event kernel, drifting hardware clocks
//! * [`net`] — dynamic estimate graphs, topologies, churn schedules, transport
//! * [`core`] — the `A_OPT` algorithm, its parameters, and the simulation driver
//! * [`baselines`] — comparison policies (max-flood, single-level blocking)
//! * [`analysis`] — skew metrics, gradient-legality checking, the
//!   paper-bound conformance oracles, reporting
//! * [`scenarios`] — declarative scenarios: the `.scn` format, the named
//!   registry, the campaign runner, and the conformance/trend/bench gates
//!   (see also the `gcs-scenarios` CLI)
//! * [`telemetry`] — the observability seam: the [`TelemetrySink`]
//!   trait both engines report into, deterministic `gcs-trace/v1` run
//!   logs sealed with a running FNV-1a content hash, and the
//!   counter/histogram metrics behind the `gcs-telemetry/v1` artifact
//!
//! [`TelemetrySink`]: gcs_telemetry::TelemetrySink
//!
//! # Quickstart
//!
//! ```
//! use gradient_clock_sync::prelude::*;
//!
//! let params = Params::builder().rho(0.01).mu(0.1).build().unwrap();
//! let mut sim = SimBuilder::new(params)
//!     .topology(Topology::ring(8))
//!     .drift(DriftModel::Alternating)
//!     .seed(42)
//!     .build()
//!     .unwrap();
//! sim.run_until_secs(30.0);
//!
//! let snap = sim.snapshot();
//! assert!(snap.global_skew() < 1.0);
//! ```

#![forbid(unsafe_code)]

pub use gcs_analysis as analysis;
pub use gcs_baselines as baselines;
pub use gcs_core as core;
pub use gcs_net as net;
pub use gcs_scenarios as scenarios;
pub use gcs_sim as sim;
pub use gcs_telemetry as telemetry;

/// One-stop imports for the most common types.
pub mod prelude {
    pub use gcs_analysis::{
        gradient_bound, kappa_diameter, local_skew, skew_profile, weighted_skew_profile,
        ConformanceChecker, ConformanceReport, GradientChecker, LegalityReport, OracleConfig,
        Table,
    };
    pub use gcs_baselines::{MaxOnlyPolicy, SingleLevelPolicy};
    pub use gcs_core::{
        AoptPolicy, ClockSnapshot, DiameterTracker, ErrorModel, EstimateMode, InsertionStrategy,
        Mode, ModePolicy, Params, ParamsBuilder, ParamsError, SimBuilder, SimStats, Simulation,
        Trace,
    };
    pub use gcs_net::{ChurnOptions, EdgeParams, EdgeParamsMap, NetworkSchedule, Topology};
    pub use gcs_scenarios::{
        registry, DriftSpec, DynamicsSpec, EstimateSpec, FaultSpec, Metric, ScenarioError,
        ScenarioSpec, TopologySpec,
    };
    pub use gcs_sim::{DriftModel, DriftSchedule, SimDuration, SimTime};
}
