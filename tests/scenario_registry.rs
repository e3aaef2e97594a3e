//! Cross-crate integration of the scenario subsystem: the registry drives
//! real simulations through the umbrella prelude, and the `scenarios/`
//! directory at the repo root stays in sync with the built-ins.

use std::path::Path;

use gradient_clock_sync::prelude::*;
use gradient_clock_sync::scenarios::{format, Scale};

#[test]
fn registry_is_broad_and_builds_real_simulations() {
    let specs = registry::all();
    assert!(specs.len() >= 12);
    for spec in &specs {
        let tiny = spec.scaled(Scale::Tiny);
        let mut sim = tiny
            .build(1)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        sim.run_until_secs((tiny.end_secs()).min(5.0));
        assert!(
            sim.snapshot().global_skew().is_finite(),
            "{} produced a non-finite skew",
            spec.name
        );
    }
}

#[test]
fn checked_in_scenario_files_match_the_registry() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let specs = registry::all();
    for spec in &specs {
        let path = dir.join(format!("{}.scn", spec.name));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{} missing ({e}); regenerate with `cargo run --bin gcs-scenarios -- \
                 export scenarios/`",
                path.display()
            )
        });
        assert_eq!(
            text,
            format::write(spec),
            "{} is stale; regenerate with `gcs-scenarios export scenarios/`",
            path.display()
        );
    }
    // And nothing extra lingers.
    let on_disk = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "scn"))
        .count();
    assert_eq!(on_disk, specs.len(), "stray .scn files in scenarios/");
}

#[test]
fn campaign_smoke_via_prelude_types() {
    use gradient_clock_sync::scenarios::campaign;
    let spec = registry::find("flash-join").unwrap().scaled(Scale::Tiny);
    let (rows, _) =
        campaign::run_campaign(std::slice::from_ref(&spec), &[0, 1], false, |_, _, _| {}).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].stats.runs, 2);
    assert!(rows[0].stats.stddev.is_finite());
    assert!(rows[0].stats.p10 <= rows[0].stats.p90);
    // The ScenarioError type flows through the prelude for failure paths.
    let mut bad = spec;
    bad.rho = 0.9;
    let err: ScenarioError = bad.validate().unwrap_err();
    assert!(matches!(err, ScenarioError::Params(_)));
}
