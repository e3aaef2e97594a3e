//! Cross-crate integration of the scenario subsystem: the registry drives
//! real simulations through the umbrella prelude, and the `scenarios/`
//! directory at the repo root stays in sync with the built-ins.

use std::path::Path;

use gradient_clock_sync::prelude::*;
use gradient_clock_sync::scenarios::{format, presets, Scale, TopologySpec};

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
    // The registry is a table of these files: the directory holds exactly
    // the registry's names, and every file is in canonical form.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "scn"))
        .map(|p| p.file_stem().unwrap().to_str().unwrap().to_string())
        .collect();
    on_disk.sort();
    let names: Vec<String> = registry::all().into_iter().map(|s| s.name).collect();
    assert_eq!(
        on_disk, names,
        "a .scn file in scenarios/ needs its row in registry.rs, and vice versa"
    );
    for name in &names {
        let text = std::fs::read_to_string(dir.join(format!("{name}.scn"))).unwrap();
        let spec = format::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(spec.name, *name, "{name}.scn is named after its scenario");
        assert_eq!(format::write(&spec), text, "{name}.scn is not canonical");
    }
}

#[test]
fn checked_in_baselines_are_what_their_file_names_promise() {
    // CI's campaign-gate compares `run all --scale S --seeds 3` against
    // baseline-S.json: each file pins exactly the campaign selection at
    // its own scale and seeds, as the `baseline` verb wrote it.
    use gradient_clock_sync::scenarios::trend;
    let campaign: Vec<String> = registry::campaign().into_iter().map(|s| s.name).collect();
    for scale in ["tiny", "default"] {
        let file = format!("scenarios/baseline-{scale}.json");
        let text = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(&file))
            .unwrap_or_else(|e| panic!("{file}: {e}"));
        let baseline = trend::read_baseline(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(baseline.scale, scale, "{file}");
        assert_eq!(baseline.seeds, [0, 1, 2], "{file}");
        let rows: Vec<&str> = baseline.rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(rows, campaign, "{file} pins the campaign selection");
        assert_eq!(
            trend::baseline_json(&baseline),
            text,
            "{file} was hand-edited"
        );
    }
}

#[test]
fn preset_families_reproduce_their_registry_instances() {
    // The experiment harness and the benchmark resize these families; the
    // campaign runs the checked-in instance. They must be the same
    // workload, or the two would drift apart silently.
    let mut churn_storm = presets::churn("churn-storm", TopologySpec::Grid { w: 4, h: 4 });
    churn_storm.description = registry::find("churn-storm").unwrap().description;
    for spec in [
        presets::line_worstcase(16),
        presets::ring_chord(16, 0.05),
        presets::shortcut_gradient(12, 0.05, 2.0, 2.0),
        presets::drift_flip(12, 5.0),
        presets::self_heal(8, 15.0, 1.0),
        presets::partition_heal(16, 10.0, 40.0),
        churn_storm,
    ] {
        assert_eq!(
            Some(&spec),
            registry::find(&spec.name).as_ref(),
            "{}",
            spec.name
        );
    }
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
