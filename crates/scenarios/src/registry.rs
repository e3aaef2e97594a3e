//! The built-in registry: named, validated scenarios spanning every
//! topology family and dynamics generator the subsystem supports.
//!
//! The registry is data: the `scenarios/` directory at the repo root holds
//! one canonical `.scn` file per scenario, and this module is the table
//! that names them. Adding a scenario — hand-written, or the best-found
//! schedule of a `gcs-scenarios chaos-search --export` — means dropping
//! the file in `scenarios/` and adding its row here. The examples build
//! from these, and `gcs-scenarios run all` sweeps the lot.

use crate::format;
use crate::spec::ScenarioSpec;

/// One registry row: a scenario's name and its checked-in `.scn` text
/// (the file is named after the scenario).
macro_rules! scn {
    ($name:literal) => {
        (
            $name,
            include_str!(concat!("../../../scenarios/", $name, ".scn")),
        )
    };
}

/// Every built-in scenario, sorted by name.
const SCENARIOS: [(&str, &str); 24] = [
    scn!("adversarial-corruption"),
    scn!("adversarial-partition"),
    scn!("byzantine-est"),
    scn!("churn-burst"),
    scn!("churn-storm"),
    scn!("drift-flip"),
    scn!("flash-join"),
    scn!("geometric-100k"),
    scn!("geometric-4k"),
    scn!("geometric-dense"),
    scn!("grid-sensor"),
    scn!("hypercube-log"),
    scn!("line-shortcut"),
    scn!("line-worstcase"),
    scn!("mobile-swarm"),
    scn!("partition-heal"),
    scn!("ring-100k"),
    scn!("ring-1k"),
    scn!("ring-chord"),
    scn!("ring-steady"),
    scn!("scale-free-hubs"),
    scn!("self-heal"),
    scn!("small-world-hub"),
    scn!("torus-messages"),
];

/// Parsing is infallible for checked-in canonical files — the registry
/// tests and `validate scenarios/` both cover them.
fn parsed(scn: &str) -> ScenarioSpec {
    format::parse(scn).expect("checked-in scenario file parses")
}

/// All built-in scenarios, sorted by name. Every entry passes
/// [`ScenarioSpec::validate`] at every [`Scale`](crate::Scale) (enforced
/// by tests).
#[must_use]
pub fn all() -> Vec<ScenarioSpec> {
    SCENARIOS.iter().map(|(_, scn)| parsed(scn)).collect()
}

/// The default campaign set: every built-in except the `bench`-class
/// engine-scale scenarios. This is what `gcs-scenarios run all` sweeps.
/// The checked-in baselines pin it plus chosen bench-class scenarios.
#[must_use]
pub fn campaign() -> Vec<ScenarioSpec> {
    all().into_iter().filter(|s| !s.bench).collect()
}

/// The `bench`-class engine-scale scenarios (the `bench` selection set).
#[must_use]
pub fn bench() -> Vec<ScenarioSpec> {
    all().into_iter().filter(|s| s.bench).collect()
}

/// The fault-heavy subset of the campaign: every scenario with scripted
/// clock corruptions or non-static dynamics. This is what CI's
/// `campaign-gate` drives through the exact oracle at default scale — the
/// runs where the envelope allowances (fault credit, insertion widening,
/// partition terms) are actually exercised.
#[must_use]
pub fn fault_heavy() -> Vec<ScenarioSpec> {
    campaign()
        .into_iter()
        .filter(|s| !s.faults.is_empty() || s.dynamics.kind() != "static")
        .collect()
}

/// Looks up a built-in scenario by name.
#[must_use]
pub fn find(name: &str) -> Option<ScenarioSpec> {
    let (_, scn) = SCENARIOS.iter().find(|(n, _)| *n == name)?;
    Some(parsed(scn))
}

/// Resolves a CLI selection token into a scenario list: a named set
/// (`all`, `campaign`, `bench`, `fault-heavy`), a single scenario name, or
/// a comma-separated list of either. Each scenario comes once, in the
/// order of its first occurrence, however many tokens name it (the sets
/// overlap).
///
/// # Errors
///
/// Returns a message naming the unknown token — an unknown or misspelled
/// scenario is a hard error, never an empty sweep.
pub fn select(selection: &str) -> Result<Vec<ScenarioSpec>, String> {
    let mut specs = Vec::new();
    for token in selection.split(',') {
        let token = token.trim();
        match token {
            "" => return Err("empty scenario selection token".to_string()),
            "all" => specs.extend(all()),
            "campaign" => specs.extend(campaign()),
            "bench" => specs.extend(bench()),
            "fault-heavy" => specs.extend(fault_heavy()),
            name => match find(name) {
                Some(s) => specs.push(s),
                None => {
                    return Err(format!(
                        "unknown scenario or set {name:?} (sets: all, campaign, bench, \
                         fault-heavy; `list` prints scenario names)"
                    ))
                }
            },
        }
    }
    if specs.is_empty() {
        return Err("selection matched no scenarios".to_string());
    }
    let mut seen = std::collections::HashSet::new();
    specs.retain(|s| seen.insert(s.name.clone()));
    Ok(specs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_and_bench_partition_the_registry() {
        let specs = all();
        let campaign = campaign();
        let bench = bench();
        assert_eq!(campaign.len() + bench.len(), specs.len());
        assert!(campaign.iter().all(|s| !s.bench));
        assert!(bench.iter().all(|s| s.bench));
        // The campaign set is pinned by the checked-in baselines: growing
        // it requires refreshing scenarios/baseline-{tiny,default}.json in
        // the same change (it grew 16 -> 18 with churn-burst/byzantine-est,
        // then 18 -> 20 with the chaos-search adversarial pair).
        assert_eq!(
            campaign.len(),
            20,
            "growing the campaign set invalidates the baseline"
        );
        let names: Vec<&str> = bench.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["geometric-100k", "geometric-4k", "ring-100k", "ring-1k"]
        );
    }

    #[test]
    fn bench_scenarios_are_engine_scale_with_tiny_clamps() {
        for s in bench() {
            assert!(
                s.topology.node_count() >= 1024,
                "{} is not engine-scale",
                s.name
            );
            let tiny = s.scaled(crate::Scale::Tiny);
            assert!(
                tiny.topology.node_count() <= 64,
                "{}: tiny clamp missing ({} nodes)",
                s.name,
                tiny.topology.node_count()
            );
            tiny.validate().unwrap();
        }
    }

    #[test]
    fn registry_is_large_diverse_and_valid() {
        let specs = all();
        assert!(
            specs.len() >= 20,
            "need >= 20 built-ins, got {}",
            specs.len()
        );
        let mut names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        names.dedup();
        assert_eq!(names.len(), specs.len(), "duplicate names");
        assert!(names.windows(2).all(|w| w[0] < w[1]), "sorted by name");
        for ((row, _), s) in SCENARIOS.iter().zip(&specs) {
            assert_eq!(*row, s.name, "`find` looks rows up by the table's name");
            s.validate().unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert!(!s.description.is_empty(), "{} needs a description", s.name);
        }
        // Topology diversity: at least 7 distinct families.
        let mut families: Vec<&str> = specs.iter().map(|s| s.topology.family()).collect();
        families.sort_unstable();
        families.dedup();
        assert!(families.len() >= 7, "families: {families:?}");
        // Dynamics diversity: every generator appears.
        for kind in [
            "static",
            "insertion",
            "churn",
            "churn-burst",
            "mobility",
            "partition",
        ] {
            assert!(
                specs.iter().any(|s| s.dynamics.kind() == kind),
                "no scenario exercises {kind} dynamics"
            );
        }
    }

    #[test]
    fn find_matches_by_name() {
        assert!(find("churn-storm").is_some());
        assert!(find("no-such-scenario").is_none());
    }

    #[test]
    fn fault_heavy_is_the_disturbed_campaign_subset() {
        let names: Vec<String> = fault_heavy().into_iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "adversarial-corruption",
                "adversarial-partition",
                "byzantine-est",
                "churn-burst",
                "churn-storm",
                "flash-join",
                "line-shortcut",
                "mobile-swarm",
                "partition-heal",
                "ring-chord",
                "self-heal",
            ],
            "the nightly conformance set is pinned; update the nightly \
             workflow docs when growing it"
        );
    }

    #[test]
    fn select_resolves_sets_names_and_lists() {
        assert_eq!(select("all").unwrap().len(), all().len());
        assert_eq!(select("fault-heavy").unwrap().len(), fault_heavy().len());
        let pair = select("ring-steady,churn-storm").unwrap();
        assert_eq!(pair.len(), 2);
        assert_eq!(pair[0].name, "ring-steady");
        assert_eq!(pair[1].name, "churn-storm");
        let mixed = select("bench, self-heal").unwrap();
        assert_eq!(mixed.len(), bench().len() + 1);
    }

    #[test]
    fn select_returns_each_scenario_once_in_first_occurrence_order() {
        let names = |sel: &str| -> Vec<String> {
            select(sel).unwrap().into_iter().map(|s| s.name).collect()
        };
        assert_eq!(names("ring-steady,ring-steady"), ["ring-steady"]);
        // fault-heavy is a subset of campaign: the union is campaign.
        let campaign: Vec<String> = campaign().into_iter().map(|s| s.name).collect();
        assert_eq!(names("campaign,fault-heavy"), campaign);
        // A name repeated after its set keeps the set's position.
        let mut heavy: Vec<String> = fault_heavy().into_iter().map(|s| s.name).collect();
        assert_eq!(names(&format!("fault-heavy,{}", heavy[0])), heavy);
        // A name before its set moves to the front.
        let last = heavy.pop().unwrap();
        heavy.insert(0, last.clone());
        assert_eq!(names(&format!("{last},fault-heavy")), heavy);
    }

    #[test]
    fn select_hard_errors_on_unknown_or_empty() {
        assert!(select("no-such-scenario").is_err());
        assert!(select("ring-steady,").is_err(), "trailing comma is a typo");
        assert!(select("").is_err());
        let msg = select("ring-stedy").unwrap_err();
        assert!(msg.contains("ring-stedy"), "{msg}");
    }
}
