//! Property tests for the sampled-pairs conformance oracle.
//!
//! The sampled gradient sweep draws `K = max(min_sources, ⌈rate·n⌉)`
//! sources per snapshot and checks each against every reachable target
//! with the *identical* arithmetic the exact all-pairs pass uses. Three
//! families of properties pin that design:
//!
//! 1. **Conservative projection** — every sampled check is one the exact
//!    pass also makes, so the sampled worst-case statistics can never
//!    exceed the exact ones and a sampled alarm is never false.
//! 2. **Stratified coverage** — on a ring every source sees exactly the
//!    same hop-class profile, so per-hop-class sample counts follow the
//!    detection-probability knob `K/n` *exactly*, not just in
//!    expectation, and the per-snapshot escape probability obeys the
//!    documented `(1 − rate)²` bound.
//! 3. **Engine invariance** — the source draw depends only on
//!    `(seed, snapshot index, n)`, so the sampled verdict is bit-identical
//!    across shard counts.

use gcs_analysis::oracle::OracleSampling;
use gcs_scenarios::conformance::run_scenario_conformance;
use gcs_scenarios::{registry, ConformanceOptions, Scale, TopologySpec};

fn opts(rate: f64, oracle_seed: u64, threads: usize) -> ConformanceOptions {
    ConformanceOptions {
        oracle_sample: Some(rate),
        oracle_seed,
        threads,
    }
}

/// Sampled worst-case statistics lower-bound the exact ones on the same
/// run, per bound family and per hop class, across scenarios × rates ×
/// seeds — including rates high enough that the double-counted
/// source-source pairs make the sampled *check count* exceed half the
/// exact one. The non-gradient families never sample and stay equal.
#[test]
fn sampled_is_a_conservative_projection_of_exact() {
    for name in ["grid-sensor", "line-worstcase", "churn-burst"] {
        let spec = registry::find(name).expect("registry scenario");
        for seed in [0u64, 1] {
            let exact =
                run_scenario_conformance(&spec, seed, &ConformanceOptions::default()).unwrap();
            for rate in [0.1, 0.3, 0.7] {
                let sampled = run_scenario_conformance(&spec, seed, &opts(rate, 5, 1)).unwrap();
                let ctx = format!("{name} seed {seed} rate {rate}");
                assert!(sampled.sampled_sources > 0, "{ctx}: sampled mode ran");
                assert_eq!(sampled.samples, exact.samples, "{ctx}: same snapshots");
                assert!(
                    sampled.gradient.worst_utilization <= exact.gradient.worst_utilization,
                    "{ctx}: sampled worst utilization must not exceed exact"
                );
                assert!(
                    sampled.gradient.min_margin >= exact.gradient.min_margin,
                    "{ctx}: sampled margin must not undercut exact"
                );
                if exact.is_conformant() {
                    assert!(sampled.is_conformant(), "{ctx}: no false alarms");
                }
                // Global and weak-edge families are never sampled.
                assert_eq!(sampled.global, exact.global, "{ctx}");
                assert_eq!(sampled.weak_edges, exact.weak_edges, "{ctx}");
                // Per hop class the same subset argument applies.
                for class in &sampled.per_hop {
                    if class.pairs == 0 {
                        continue;
                    }
                    let e = exact
                        .per_hop
                        .iter()
                        .find(|c| c.hops == class.hops)
                        .unwrap_or_else(|| {
                            panic!(
                                "{ctx}: hop class {} sampled but never swept exactly",
                                class.hops
                            )
                        });
                    assert!(class.worst_skew <= e.worst_skew, "{ctx} d={}", class.hops);
                    assert!(class.min_margin >= e.min_margin, "{ctx} d={}", class.hops);
                    assert!(
                        class.worst_utilization <= e.worst_utilization,
                        "{ctx} d={}",
                        class.hops
                    );
                }
            }
        }
    }
}

/// On an even ring every node has exactly two peers at each hop distance
/// `d < n/2` and one at `n/2`, so stratified sampling hits every hop
/// class with *exactly* `2K/n` of the exact pass's per-class pair count:
/// `sampled.pairs · n == exact.pairs · 2K` for every class. The gross
/// counts follow too (`K(n−1)` vs `n(n−1)/2` per snapshot), and the
/// per-snapshot escape probability matches its closed form and the
/// documented `(1 − rate)²` ceiling.
#[test]
fn ring_stratification_matches_the_detection_probability_knob() {
    let n = 40usize;
    let rate = 0.25;
    let mut spec = registry::find("ring-steady").expect("registry scenario");
    spec.topology = TopologySpec::Ring { n };

    let sampling = OracleSampling::new(rate, 0);
    let k = sampling.sources_for(n);
    assert_eq!(k, 10, "max(8, ceil(0.25 * 40))");

    for seed in [0u64, 3] {
        let exact = run_scenario_conformance(&spec, seed, &ConformanceOptions::default()).unwrap();
        let sampled = run_scenario_conformance(&spec, seed, &opts(rate, 0, 1)).unwrap();
        let s = sampled.samples;
        assert!(s > 0);
        assert_eq!(sampled.sampled_sources, s * k as u64);
        assert_eq!(
            sampled.gradient.checks,
            s * (k * (n - 1)) as u64,
            "each drawn source sweeps every other node"
        );
        assert_eq!(exact.gradient.checks, s * (n * (n - 1) / 2) as u64);
        assert_eq!(sampled.per_hop.len(), n / 2, "ring diameter classes");
        for (class, e) in sampled.per_hop.iter().zip(&exact.per_hop) {
            assert_eq!(class.hops, e.hops);
            assert_eq!(
                class.pairs * n as u64,
                e.pairs * 2 * k as u64,
                "hop class {} coverage must equal the 2K/n stratification exactly",
                class.hops
            );
        }
    }

    // The documented per-snapshot escape probability: the closed form
    // (n−K)(n−K−1)/(n(n−1)), never above (1 − rate)², shrinking as the
    // knob rises, zero at rate 1.
    for &m in &[10usize, 40, 500, 100_000] {
        let mut last = f64::INFINITY;
        for &r in &[0.05, 0.25, 0.5, 0.9, 1.0] {
            let sm = OracleSampling::new(r, 0);
            let km = sm.sources_for(m) as f64;
            let mf = m as f64;
            let closed = ((mf - km) * (mf - km - 1.0) / (mf * (mf - 1.0))).max(0.0);
            let esc = sm.escape_probability(m);
            assert!((esc - closed).abs() < 1e-12, "n={m} rate={r}");
            assert!(esc <= (1.0 - r) * (1.0 - r) + 1e-12, "n={m} rate={r}");
            assert!(esc <= last + 1e-12, "escape must shrink as the knob rises");
            last = esc;
        }
        assert_eq!(OracleSampling::new(1.0, 0).escape_probability(m), 0.0);
    }
}

/// The sampled verdict is a pure function of `(scenario, seed, oracle
/// seed)` — the source draw never sees the engine, so sequential and
/// sharded runs at any shard count produce the identical report.
#[test]
fn sampled_verdict_is_shard_count_invariant() {
    for name in ["self-heal", "churn-burst"] {
        let spec = registry::find(name).unwrap().scaled(Scale::Tiny);
        for rate in [0.2, 0.5] {
            for seed in [0u64, 2] {
                let reference = run_scenario_conformance(&spec, seed, &opts(rate, 9, 1));
                let reference = reference.unwrap();
                assert!(reference.sampled_sources > 0);
                for threads in [2usize, 3, 4] {
                    let sharded =
                        run_scenario_conformance(&spec, seed, &opts(rate, 9, threads)).unwrap();
                    assert_eq!(
                        sharded, reference,
                        "{name} rate {rate} seed {seed} x{threads}"
                    );
                }
            }
        }
    }
}
