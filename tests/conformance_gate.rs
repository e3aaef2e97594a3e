//! Negative-path tests of the two new gates: a regression the gate
//! exists to catch must actually fail it, loudly and readably.
//!
//! * A synthetically perturbed trajectory (+40 % recovery slope at
//!   unchanged scalar stats) must fail `compare` at the tight tolerance.
//! * A snapshot that violates a paper bound (a corruption the oracle is
//!   told not to credit) must fail the conformance check, with the
//!   violation time and a readable table.
//!
//! The exact counter gate's negative controls are `trend`'s unit tests.

use gradient_clock_sync::net::NodeId;
use gradient_clock_sync::prelude::*;
use gradient_clock_sync::scenarios::{campaign, conformance, trend, Scale};

fn tiny(name: &str) -> ScenarioSpec {
    registry::find(name).expect("built-in").scaled(Scale::Tiny)
}

#[test]
fn perturbed_recovery_slope_fails_compare_with_a_readable_table() {
    // self-heal is the recovery scenario: its trajectory spikes at the
    // scripted corruption and drains back. Keep every scalar stat
    // identical and raise only the mean recovery slope by 40 % — the
    // regression shape PR 3's scalar gate was blind to.
    let specs = vec![tiny("self-heal")];
    let seeds = [0u64, 1, 2];
    let (rows, _) = campaign::run_campaign(&specs, &seeds, 1, false, |_, _, _| {}).unwrap();
    let baseline = trend::TrendSummary::from_rows("all", Scale::Tiny, &seeds, &rows);
    assert!(
        baseline.rows[0].envelope.mean_recovery_slope > 0.0,
        "self-heal must have a measurable recovery slope"
    );
    let mut current = baseline.clone();
    current.rows[0].envelope.mean_recovery_slope *= 1.4;

    let report = trend::compare(&baseline, &current, trend::TOL_TIGHT);
    assert!(!report.passed(), "a +40% recovery slope must fail the gate");
    let finding = &report.findings[0];
    assert_eq!(finding.column, "recovery slope");
    assert!((finding.relative() - 0.4).abs() < 1e-9);
    // The table names the drifted column and flags the row.
    let table = report.table.to_string();
    assert!(table.contains("self-heal"));
    assert!(table.contains("DRIFT"));
    assert!(table.contains("recovery slope"));
    // The identical summaries still pass — the failure is the perturbation.
    assert!(trend::compare(&baseline, &baseline, trend::TOL_TIGHT).passed());
}

#[test]
fn violated_snapshot_fails_conformance_with_a_readable_table() {
    // Hand-violate a run: corrupt a clock by 3 G^ mid-run and configure
    // the oracle *not* to credit corruptions — the snapshots right after
    // the injection then genuinely violate the Theorem 5.6 envelope (and
    // the neighbouring pairs the Theorem 5.22 gradient bound).
    let spec = tiny("ring-steady");
    let mut sim = spec.build(3).unwrap();
    let g_hat = sim.params().g_tilde().unwrap();
    let mut cfg = OracleConfig::for_sim(&sim, spec.sample);
    cfg.credit_faults = false;
    let mut checker = ConformanceChecker::with_config(&sim, cfg);

    let mut t = 0.0;
    let fault_at = 4.0;
    let end = 10.0;
    let mut injected = false;
    loop {
        if !injected && t >= fault_at {
            sim.inject_clock_offset(NodeId(0), 3.0 * g_hat);
            injected = true;
        }
        sim.run_until_secs(t);
        checker.observe(&sim);
        if t >= end {
            break;
        }
        t += spec.sample;
    }
    let report = checker.finish();
    assert!(!report.is_conformant(), "the violation must be caught");
    let first = report.first_violation().expect("violation time recorded");
    assert!(
        (fault_at..fault_at + 2.0 * spec.sample).contains(&first),
        "first violation at {first}, expected right after the injection at {fault_at}"
    );
    assert!(report.global.min_margin < 0.0);
    // Readable diagnostics: per-family lines plus the table.
    let lines = report.violations();
    assert!(lines.iter().any(|l| l.contains("Thm 5.6")), "{lines:?}");
    let table = report.to_table().to_string();
    assert!(table.contains("global"));
    assert!(table.contains("gradient d=1"));

    // The same run with the §5.2 allowance credited (the realized fault
    // log replayed honestly) conforms — the bound is sharp, not slack.
    let mut sim2 = spec.build(3).unwrap();
    let mut checker2 = ConformanceChecker::new(&sim2, spec.sample);
    let mut t = 0.0;
    let mut injected = false;
    loop {
        if !injected && t >= fault_at {
            sim2.inject_clock_offset(NodeId(0), 3.0 * g_hat);
            injected = true;
        }
        sim2.run_until_secs(t);
        checker2.observe(&sim2);
        if t >= end {
            break;
        }
        t += spec.sample;
    }
    let credited = checker2.finish();
    assert!(credited.is_conformant(), "{:?}", credited.violations());
    assert_eq!(credited.faults_seen, 1);
}

#[test]
fn conformance_sweep_catches_an_understated_envelope() {
    // End-to-end through the runner: every registry run conforms with the
    // honest oracle (the `conformance` CLI exits zero on this), and the
    // violations() helper surfaces nothing.
    let specs = vec![tiny("self-heal"), tiny("byzantine-est")];
    let (rows, _) =
        conformance::run_conformance(&specs, &[0], &Default::default(), false, |_, _, _| {})
            .unwrap();
    assert!(conformance::violations(&rows).is_empty());
    // The sweep table renders one row per run with a verdict column.
    let table = conformance::conformance_table(&rows).to_string();
    assert!(table.contains("self-heal") && table.contains("byzantine-est"));
    assert!(table.contains("ok"));
}
