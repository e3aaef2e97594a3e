//! Parametric scenario families the experiment harness and the benchmark
//! resize (`gcs-bench` sizes them per sweep point instead of re-assembling
//! schedules by hand). The built-in registry holds one checked-in instance
//! of each; `tests/scenario_registry.rs` ties the two.

use gcs_core::Params;
use gcs_net::EdgeParams;

use crate::spec::{
    DriftSpec, DynamicsSpec, EstimateSpec, FaultSpec, Metric, ScenarioSpec, TopologySpec,
};

/// A neutral starting point: paper parameters (ρ = 1%, µ = 10%), a 10 s
/// warm-up, a 30 s observation window sampled twice a second, global skew
/// as the primary metric, no faults.
#[must_use]
pub fn base(name: &str, topology: TopologySpec) -> ScenarioSpec {
    ScenarioSpec {
        name: name.to_string(),
        description: String::new(),
        topology,
        drift: DriftSpec::TwoBlock,
        estimates: EstimateSpec::OracleNone,
        dynamics: DynamicsSpec::Static,
        faults: Vec::new(),
        rho: 0.01,
        mu: 0.1,
        insertion_scale: None,
        g_tilde: None,
        dynamic_estimates: false,
        warmup: 10.0,
        duration: 30.0,
        sample: 0.5,
        metric: Metric::GlobalSkew,
        bench: false,
        tiny_nodes: None,
    }
}

/// A ring of `n` nodes with one antipodal chord appearing at `t = 2 s`
/// under two-block drift — the Theorem 5.25 stabilization workload (the
/// chord connects nodes `0` and `n/2`, so observers know which pair to
/// watch). Used by experiment E4 at every sweep size.
#[must_use]
pub fn ring_chord(n: usize, insertion_scale: f64) -> ScenarioSpec {
    let mut spec = base("ring-chord", TopologySpec::Ring { n });
    spec.description = "Antipodal chord appears on a ring: staged-insertion stabilization \
                        (Theorem 5.25)"
        .to_string();
    spec.dynamics = DynamicsSpec::Insertion {
        at: 2.0,
        count: 1,
        skew: 0.002,
    };
    spec.insertion_scale = Some(insertion_scale);
    spec.warmup = 2.0;
    spec.duration = 60.0;
    spec
}

/// Heavy connectivity-preserving churn over any topology: exponential
/// up/down phases (10 s / 5 s means) on every non-backbone edge. Used by
/// experiment E8 across its topology sweep.
#[must_use]
pub fn churn(name: &str, topology: TopologySpec) -> ScenarioSpec {
    let mut spec = base(name, topology);
    spec.dynamics = DynamicsSpec::Churn {
        mean_up: 10.0,
        mean_down: 5.0,
        skew: 0.004,
        start_up: 0.7,
    };
    spec.insertion_scale = Some(0.02);
    spec.warmup = 5.0;
    spec.duration = 30.0;
    spec
}

/// The canonical worst case at any size: a line of `n` nodes under
/// two-block drift, the Theorem 5.6 shape. Used by experiment E1 at every
/// sweep size (the registry's `line-worstcase` is the `n = 16` instance).
#[must_use]
pub fn line_worstcase(n: usize) -> ScenarioSpec {
    let mut spec = base("line-worstcase", TopologySpec::Line { n });
    spec.description =
        "The canonical worst case: a line with two-block drift (Theorem 5.6 shape)".to_string();
    spec
}

/// A line of `n` nodes under flip-flop drift with adversarial hiding
/// estimates — the local-skew stress test. Used by experiment E3 across
/// its size sweep (the registry's `drift-flip` is the `n = 12` instance).
#[must_use]
pub fn drift_flip(n: usize, period: f64) -> ScenarioSpec {
    let mut spec = base("drift-flip", TopologySpec::Line { n });
    spec.description = "Flip-flop drift with adversarial hiding estimates: the local-skew \
                        stress test (experiment E3)"
        .to_string();
    spec.drift = DriftSpec::FlipFlop { period };
    spec.estimates = EstimateSpec::OracleHide;
    spec.metric = Metric::LocalSkew;
    spec
}

/// A line of `n` nodes whose node-0 clock is corrupted by `amount`
/// seconds at time `at` — the §5.2 self-stabilization workload. Used by
/// experiment E6 across its magnitude sweep (the registry's `self-heal`
/// is the `n = 8`, `amount = 1` instance).
#[must_use]
pub fn self_heal(n: usize, at: f64, amount: f64) -> ScenarioSpec {
    let mut spec = base("self-heal", TopologySpec::Line { n });
    spec.description = "One clock corrupted by a full second: linear-time self-stabilization \
                        (Theorem 5.6 II)"
        .to_string();
    spec.faults = vec![FaultSpec::ClockOffset {
        at,
        node: 0,
        amount,
    }];
    spec.warmup = 10.0;
    spec.duration = 40.0;
    spec.metric = Metric::FinalGlobalSkew;
    spec
}

/// The per-edge weight `κ` the paper's parameters assign a default edge
/// (eq. 9) — what the gradient-install presets use to size a *legal*
/// skew: `2κ` per hop stays below every trigger threshold.
#[must_use]
pub fn default_edge_kappa() -> f64 {
    let params = Params::builder().rho(0.01).mu(0.1).build().unwrap();
    let edge = EdgeParams::default();
    params.kappa(edge, edge.epsilon)
}

/// The total skew a legal `2κ`-per-edge gradient installs across a line
/// of `n` nodes — the Theorem 8.1 adversary state the shortcut presets
/// and the A2/A5 ablations build on.
#[must_use]
pub fn gradient_install_skew(n: usize) -> f64 {
    2.0 * default_edge_kappa() * (n - 1) as f64
}

/// The Theorem 8.1 lower-bound construction: a line of `n` nodes carrying
/// a legal `2κ`-per-edge gradient (installed as scripted clock-offset
/// faults at `install_at`, node `i` leading node `i + 1` by `2κ`) that
/// suddenly gains a shortcut between its endpoints at `chord_at`.
/// `G̃` is provisioned at 1.5× the installed skew. Used by experiment E5
/// and ablations A2/A5 (the registry's `line-shortcut` is the `n = 12`
/// instance).
#[must_use]
pub fn shortcut_gradient(
    n: usize,
    insertion_scale: f64,
    chord_at: f64,
    install_at: f64,
) -> ScenarioSpec {
    let per_edge = 2.0 * default_edge_kappa();
    let injected = per_edge * (n - 1) as f64;
    let mut spec = base("line-shortcut", TopologySpec::Line { n });
    spec.description = "Legal Theta(n) gradient gains an endpoint shortcut: the Omega(D) \
                        stabilization lower bound (Theorem 8.1)"
        .to_string();
    spec.dynamics = DynamicsSpec::Shortcut {
        at: chord_at,
        skew: 0.002,
    };
    spec.faults = (0..n)
        .map(|i| FaultSpec::ClockOffset {
            at: install_at,
            node: i,
            amount: per_edge * (n - 1 - i) as f64,
        })
        .collect();
    spec.g_tilde = Some(1.5 * injected);
    spec.insertion_scale = Some(insertion_scale);
    spec.warmup = chord_at;
    spec.duration = 60.0;
    spec.metric = Metric::FinalGlobalSkew;
    spec
}

/// A ring of `n` nodes cut into two halves during `[split, merge]` — the
/// connectivity-requirement workload (experiment E10 and the `partition`
/// example).
#[must_use]
pub fn partition_heal(n: usize, split: f64, merge: f64) -> ScenarioSpec {
    let mut spec = base("partition-heal", TopologySpec::Ring { n });
    spec.description = "Ring cut in half and merged again: cross-cut skew grows at 2*rho \
                        while open, then collapses at the recovery rate"
        .to_string();
    spec.dynamics = DynamicsSpec::Partition {
        split,
        merge,
        skew: 0.002,
    };
    spec.g_tilde = Some(2.0);
    spec.insertion_scale = Some(0.02);
    spec.warmup = 0.0;
    spec.duration = merge + 30.0;
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate_across_sizes() {
        for n in [8, 16, 32] {
            ring_chord(n, 0.05).validate().unwrap();
            partition_heal(n, 10.0, 40.0).validate().unwrap();
        }
        churn("churn-test", TopologySpec::Grid { w: 4, h: 4 })
            .validate()
            .unwrap();
    }

    #[test]
    fn ring_chord_inserts_the_antipodal_chord() {
        let spec = ring_chord(12, 0.05);
        let sched = spec.schedule(7).unwrap();
        assert_eq!(sched.events().len(), 2); // both directions of (0, 6)
        let ev = sched.events()[0];
        assert_eq!((ev.from.index(), ev.to.index()), (0, 6));
    }
}
