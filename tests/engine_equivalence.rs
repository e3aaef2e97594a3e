//! Bit-identity of the incremental engine.
//!
//! **Dirty-set mode evaluation is invisible.** Re-deciding only
//! dirty/horizon-expired nodes produces decisions — and therefore clocks,
//! messages, and statistics — bit-identical to the reference pass that
//! re-decides every node at every tick
//! ([`Simulation::set_full_reevaluation`]).
//!
//! This is exercised across registry scenarios spanning oracle and
//! message estimates, static and churning topologies, drift flips, and
//! scripted clock corruptions — times several seeds. (Debug builds
//! additionally cross-check every skipped node against the reference
//! decision on every tick, so the whole test suite hammers the claim.)
//!
//! Lazy advancement needs no engine-level check: advancing a node only
//! refreshes its cached clock values and never moves its integration
//! anchor, so how often a node is advanced cannot change any value. The
//! `gcs-protocol` property `advancement_is_query_invariant_bitwise` pins
//! that, and the full reference pass here advances every node on every
//! tick anyway.

use gradient_clock_sync::analysis::oracle::ConformanceChecker;
use gradient_clock_sync::core::{ClockSnapshot, SimStats, Simulation};
use gradient_clock_sync::scenarios::campaign::drive_sampled;
use gradient_clock_sync::scenarios::{registry, Scale, ScenarioSpec};

/// The scenario grid: registry scenarios covering the engine's distinct
/// input regimes.
fn grid() -> Vec<ScenarioSpec> {
    [
        "ring-steady",    // static ring, oracle estimates, alternating drift
        "line-worstcase", // the two-block worst case
        "torus-messages", // message-borne estimates (dead reckoning)
        "churn-storm",    // edge churn: handshakes, drops, removals
        "churn-burst",    // correlated bursts: mass simultaneous re-insertion
        "byzantine-est",  // adversarial hiding estimates + corruption script
        "drift-flip",     // scheduled rate changes + adversarial hiding
        "self-heal",      // scripted clock corruption mid-run
    ]
    .iter()
    .map(|n| registry::find(n).expect("built-in").scaled(Scale::Tiny))
    .collect()
}

/// Drives one configured simulation over the scenario's observation grid
/// (replaying scripted faults at their exact instants, via the same
/// [`drive_sampled`] loop the campaign and conformance runners use) and
/// snapshots at every sample.
fn drive(spec: &ScenarioSpec, seed: u64, configure: impl Fn(&mut Simulation)) -> Run {
    let mut sim = spec.build(seed).expect("spec builds");
    configure(&mut sim);
    let mut snapshots = Vec::new();
    drive_sampled(
        &mut sim,
        &spec.faults,
        spec.sample,
        spec.end_secs(),
        |_, sim| {
            snapshots.push(sim.snapshot());
        },
    );
    Run {
        snapshots,
        stats: sim.stats(),
    }
}

struct Run {
    snapshots: Vec<ClockSnapshot>,
    stats: SimStats,
}

/// Asserts two runs agree bit-for-bit at every observation instant.
/// `mode_evaluations` is deliberately excluded — it *must* differ between
/// the incremental and the reference engine; everything observable must
/// not.
fn assert_bit_identical(what: &str, spec: &ScenarioSpec, seed: u64, a: &Run, b: &Run) {
    assert_eq!(a.snapshots.len(), b.snapshots.len());
    for (i, (sa, sb)) in a.snapshots.iter().zip(&b.snapshots).enumerate() {
        let ctx = |field: &str| {
            format!(
                "{what}: {} seed {seed}, sample {i} (t={}): {field} diverged",
                spec.name, sa.time
            )
        };
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        assert_eq!(bits(&sa.logical), bits(&sb.logical), "{}", ctx("logical"));
        assert_eq!(
            bits(&sa.hardware),
            bits(&sb.hardware),
            "{}",
            ctx("hardware")
        );
        assert_eq!(
            bits(&sa.max_estimates),
            bits(&sb.max_estimates),
            "{}",
            ctx("max_estimates")
        );
        assert_eq!(sa.modes, sb.modes, "{}", ctx("modes"));
    }
    let scrub = |s: &SimStats| {
        let mut s = *s;
        s.mode_evaluations = 0;
        s
    };
    assert_eq!(
        scrub(&a.stats),
        scrub(&b.stats),
        "{what}: {} seed {seed}: engine counters diverged",
        spec.name
    );
}

#[test]
fn dirty_set_evaluation_matches_the_full_reference_pass() {
    for spec in grid() {
        for seed in 0..3u64 {
            let incremental = drive(&spec, seed, |_| {});
            let reference = drive(&spec, seed, |sim| sim.set_full_reevaluation(true));
            assert_bit_identical(
                "dirty-set vs full pass",
                &spec,
                seed,
                &incremental,
                &reference,
            );
            // The whole point: the incremental engine must actually skip.
            assert!(
                incremental.stats.mode_evaluations < reference.stats.mode_evaluations,
                "{} seed {seed}: nothing was skipped ({} vs {})",
                spec.name,
                incremental.stats.mode_evaluations,
                reference.stats.mode_evaluations,
            );
        }
    }
}

/// Drives one configured simulation with a [`ConformanceChecker`]
/// observing every sample, returning the finished report.
fn drive_conformance(
    spec: &ScenarioSpec,
    seed: u64,
    configure: impl Fn(&mut Simulation),
) -> gradient_clock_sync::analysis::ConformanceReport {
    let mut sim = spec.build(seed).expect("spec builds");
    configure(&mut sim);
    let mut checker = ConformanceChecker::new(&sim, spec.sample);
    drive_sampled(
        &mut sim,
        &spec.faults,
        spec.sample,
        spec.end_secs(),
        |_, sim| {
            checker.observe(sim);
        },
    );
    checker.finish()
}

#[test]
fn conformance_reports_are_bit_identical_across_engines() {
    // The conformance oracle reads clocks, levels, effective weights, and
    // the realized change log — every one of which the incremental engine
    // claims to reproduce bit-for-bit. So the *whole report* (margins,
    // utilizations, per-hop classes, fault replay counts) must come out
    // identical between the dirty-set engine and the full reference pass,
    // on the two new fault-heavy scenarios in particular.
    for name in ["churn-burst", "byzantine-est"] {
        let spec = registry::find(name).expect("built-in").scaled(Scale::Tiny);
        for seed in 0..3u64 {
            let incremental = drive_conformance(&spec, seed, |_| {});
            let reference = drive_conformance(&spec, seed, |sim| sim.set_full_reevaluation(true));
            assert_eq!(
                incremental, reference,
                "{name} seed {seed}: conformance report diverged between engines"
            );
            assert!(
                incremental.is_conformant(),
                "{name} seed {seed}: {:?}",
                incremental.violations()
            );
            if name == "byzantine-est" {
                assert_eq!(
                    incremental.faults_seen, 3,
                    "{name}: corruption script replayed"
                );
            } else {
                assert!(
                    incremental.insertions_seen > 0 && incremental.removals_seen > 0,
                    "{name}: bursts must appear in the realized change log"
                );
            }
        }
    }
}
