//! Experiment harness: one experiment per theorem of the paper.
//!
//! The paper is a theory paper — its "evaluation" is a set of theorems, so
//! each experiment here regenerates the *shape* a theorem predicts (growth
//! rate, who wins, where a crossover falls) from simulation:
//!
//! | Experiment | Paper result |
//! |---|---|
//! | [`experiments::e1_global_skew`] | Thm 5.6 — global skew `O(D)`, growth ≤ 2ρ, recovery ≥ µ(1−ρ)−2ρ |
//! | [`experiments::e2_gradient_skew`] | Thm 5.22 / Cor 5.26 — stable gradient skew `O(κ_p log_σ(Ĝ/κ_p))` |
//! | [`experiments::e3_policy_comparison`] | §2/§5.5 — `A_OPT` vs the `O(√(ρD))` and `O(D)` baselines |
//! | [`experiments::e4_stabilization_time`] | Thm 5.25 — new edges stabilize in `O(Ĝ/µ)` |
//! | [`experiments::e5_lower_bound`] | Thm 8.1 — stabilization needs `Ω(D)` for *any* algorithm |
//! | [`experiments::e6_self_stabilization`] | §5.2 — recovery at rate `µ(1−ρ)−2ρ` |
//! | [`experiments::e7_dynamic_estimates`] | §7 — insertion with node-local `G̃_u(t)` |
//! | [`experiments::e8_churn`] | §3.1 model generality — invariants & bounds under churn/mobility |
//! | [`experiments::e9_heterogeneous`] | §5.5 — bounds in terms of path weight `κ_p`, not hop count |
//! | [`experiments::e10_partition`] | §1/§3.1 — why connectivity is required: skew across an open cut |
//! | [`ablations`] | A1 µ/σ sweep, A2 insertion duration, A3 κ slack (eq. 9), A4 refresh period |
//!
//! Every experiment returns [`Table`]s; `cargo run --release -p gcs-bench
//! --bin experiments` prints the quick suite, `… -- full` the full-size
//! one. Speed is not measured here: that is `benchmark/`'s job.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod experiments;

// The multi-seed aggregation and the scoped-thread fan-out moved down to
// `gcs-analysis` so the scenario campaign runner (`gcs-scenarios`) can share
// them without a dependency cycle; the historical `gcs_bench::` paths keep
// working via these re-exports.
pub use gcs_analysis::ensemble;
pub use gcs_analysis::parallel_map;

use gcs_analysis::Table;

/// Experiment sizing: `Quick` keeps the default run snappy; `Full` is the
/// `experiments -- full` configuration (README § "Building, testing,
/// benchmarking").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small sweeps (the default).
    Quick,
    /// Full sweeps used for the recorded results.
    Full,
}

impl Scale {
    /// Network sizes for size sweeps.
    #[must_use]
    pub fn sizes(self) -> &'static [usize] {
        match self {
            Scale::Quick => &[8, 16, 24],
            Scale::Full => &[8, 16, 32, 48, 64],
        }
    }

    /// Line length for the gradient-profile experiment.
    #[must_use]
    pub fn profile_n(self) -> usize {
        match self {
            Scale::Quick => 32,
            Scale::Full => 64,
        }
    }

    /// Steady-state observation window in simulated seconds.
    #[must_use]
    pub fn observe_secs(self) -> f64 {
        match self {
            Scale::Quick => 20.0,
            Scale::Full => 60.0,
        }
    }

    /// Warm-up before observation.
    #[must_use]
    pub fn warmup_secs(self) -> f64 {
        match self {
            Scale::Quick => 10.0,
            Scale::Full => 30.0,
        }
    }
}

/// Runs every experiment and ablation, in order.
#[must_use]
pub fn all_experiments(scale: Scale) -> Vec<Table> {
    vec![
        experiments::e1_global_skew(scale),
        experiments::e2_gradient_skew(scale),
        experiments::e3_policy_comparison(scale),
        experiments::e4_stabilization_time(scale),
        experiments::e5_lower_bound(scale),
        experiments::e6_self_stabilization(scale),
        experiments::e7_dynamic_estimates(scale),
        experiments::e8_churn(scale),
        experiments::e9_heterogeneous(scale),
        experiments::e10_partition(scale),
        ablations::a1_mu_sweep(scale),
        ablations::a2_insertion_scale(scale),
        ablations::a3_kappa_slack(scale),
        ablations::a4_refresh_period(scale),
        ablations::a5_insertion_strategy(scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_is_smaller_than_full() {
        assert!(Scale::Quick.sizes().len() < Scale::Full.sizes().len());
        assert!(Scale::Quick.observe_secs() < Scale::Full.observe_secs());
    }
}
