//! Property tests of the scenario subsystem: exact `.scn` round-trips,
//! deterministic builds, the chunked executor vs the sequential path, and
//! exact JSON round-trips of the campaign, baseline and bench artifacts
//! (every key required, unknown keys ignored).

use proptest::prelude::*;

use gcs_scenarios::bench::{bench_json, read_bench, BenchEntry};
use gcs_scenarios::campaign::{campaign_json, CampaignRow, ScenarioOutcome};
use gcs_scenarios::spec::Metric;
use gcs_scenarios::{campaign, format, registry, trend, Scale};

/// Every registry scenario serializes → parses → re-serializes
/// byte-identically (and value-identically).
#[test]
fn every_registry_scenario_round_trips_byte_identically() {
    for spec in registry::all() {
        let text = format::write(&spec);
        let parsed = format::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        assert_eq!(parsed, spec, "value round-trip of {}", spec.name);
        let re = format::write(&parsed);
        assert_eq!(re, text, "byte round-trip of {}", spec.name);
    }
}

/// Turns arbitrary bits into a finite float (round-tripping must work for
/// *any* finite value, not just pretty ones).
fn finite(bits: u64) -> f64 {
    let v = f64::from_bits(bits);
    if v.is_finite() {
        v
    } else {
        1.0
    }
}

/// `doc` with its first `"key":value` member cut out, together with one
/// separating comma: the record that held the key now lacks it.
fn without_key(doc: &str, key: &str) -> String {
    let start = doc.find(&format!("\"{key}\":")).expect("key present");
    let value = start + key.len() + 3;
    let (mut depth, mut in_str, mut escaped) = (0u32, false, false);
    let mut end = value;
    for (i, c) in doc[value..].char_indices() {
        end = value + i;
        match c {
            _ if escaped => escaped = false,
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            _ if in_str => {}
            '[' | '{' => depth += 1,
            ']' | '}' if depth > 0 => depth -= 1,
            ',' | ']' | '}' if depth == 0 => break,
            _ => {}
        }
    }
    if doc[end..].starts_with(',') {
        format!("{}{}", &doc[..start], &doc[end + 1..])
    } else {
        format!("{}{}", &doc[..start - 1], &doc[end..])
    }
}

/// An unknown member no schema names, to prepend to a record's object.
const UNKNOWN: &str = "{\"x_unknown\":[{\"y\":null},1.5,\"z\"],";

/// Every key of a format, removed in turn, fails the read with an error
/// that names the key and, innermost in its context chain, the record
/// that held it (`record` or `record "its name"`).
fn assert_every_key_required<T: std::fmt::Debug>(
    text: &str,
    read: impl Fn(&str) -> Result<T, String>,
    keys: &[(&str, &[&str])],
) {
    for &(record, names) in keys {
        for key in names {
            let err = read(&without_key(text, key)).unwrap_err();
            let missing = format!(": missing field \"{key}\"");
            let context = err
                .strip_suffix(&missing)
                .unwrap_or_else(|| panic!("{key}: {err}"));
            let holder = context.rsplit(": ").next().unwrap();
            assert!(
                holder == record || holder.starts_with(&format!("{record} \"")),
                "{key} should be missing from a {record}: {err}"
            );
        }
    }
}

/// The chunked work-stealing executor must be invisible in the results: a
/// scenario × seed campaign fanned out through `parallel_map` returns
/// bit-identical outcomes to the same jobs run sequentially, in order.
#[test]
fn chunked_parallel_map_matches_the_sequential_path() {
    let specs: Vec<_> = ["line-worstcase", "ring-steady", "self-heal", "flash-join"]
        .iter()
        .map(|n| registry::find(n).expect("built-in").scaled(Scale::Tiny))
        .collect();
    let jobs: Vec<(usize, u64)> = (0..specs.len())
        .flat_map(|i| (0..4u64).map(move |s| (i, s)))
        .collect();
    let run = |(i, seed): (usize, u64)| campaign::run_scenario(&specs[i], seed).unwrap();
    let parallel = gcs_analysis::parallel_map(jobs.clone(), run);
    let sequential: Vec<ScenarioOutcome> = jobs.into_iter().map(run).collect();
    assert_eq!(
        parallel, sequential,
        "work-stealing changed a result or its order"
    );
}

/// `run_campaign` (which fans out through the executor) aggregates the
/// exact same outcomes the sequential per-seed runs produce.
#[test]
fn run_campaign_is_bit_identical_to_sequential_runs() {
    let specs = vec![
        registry::find("self-heal").unwrap().scaled(Scale::Tiny),
        registry::find("hypercube-log").unwrap().scaled(Scale::Tiny),
    ];
    let seeds = [0u64, 1, 2];
    let (rows, _) = campaign::run_campaign(&specs, &seeds, false, |_, _, _| {}).unwrap();
    for (spec, row) in specs.iter().zip(&rows) {
        for (&seed, outcome) in seeds.iter().zip(&row.outcomes) {
            let solo = campaign::run_scenario(spec, seed).unwrap();
            assert_eq!(&solo, outcome, "{} seed {seed} diverged", spec.name);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// `build(seed)` is deterministic: two runs from the same spec + seed
    /// produce identical skew trajectories (and every other outcome field).
    #[test]
    fn builds_are_deterministic(idx in any::<u64>(), seed in 0u64..1_000) {
        let specs = registry::all();
        let spec = specs[(idx as usize) % specs.len()].scaled(Scale::Tiny);
        let a = campaign::run_scenario(&spec, seed).unwrap();
        let b = campaign::run_scenario(&spec, seed).unwrap();
        prop_assert!(!a.trajectory.is_empty());
        prop_assert_eq!(&a.trajectory, &b.trajectory, "skew traces diverged for {}", spec.name);
        prop_assert_eq!(a, b);
    }

    /// The writer/parser pair is exact for arbitrary finite floats in the
    /// numeric fields, not only for the registry's round numbers.
    #[test]
    fn arbitrary_floats_round_trip(
        idx in any::<u64>(),
        rho_bits in any::<u64>(),
        warm_bits in any::<u64>(),
        g_bits in any::<u64>(),
    ) {
        let specs = registry::all();
        let mut spec = specs[(idx as usize) % specs.len()].clone();
        spec.rho = finite(rho_bits);
        spec.warmup = finite(warm_bits);
        spec.g_tilde = Some(finite(g_bits));
        // Round-tripping is a property of the format alone; the spec need
        // not be semantically valid.
        let text = format::write(&spec);
        let parsed = format::parse(&text).unwrap();
        prop_assert_eq!(&parsed, &spec);
        prop_assert_eq!(format::write(&parsed), text);
    }

    /// The parser never panics, whatever prefix of a canonical file it
    /// sees (canonical text is ASCII, so byte slicing is safe).
    #[test]
    fn parser_survives_truncation(idx in any::<u64>(), cut in 0usize..600) {
        let specs = registry::all();
        let text = format::write(&specs[(idx as usize) % specs.len()]);
        prop_assert!(text.is_ascii());
        let prefix = &text[..cut.min(text.len())];
        let _ = format::parse(prefix); // Ok or Err, never a panic.
    }

    /// The trend reader inverts the campaign writer bit-exactly — for
    /// *arbitrary* finite metric values, not just the pretty ones real
    /// runs produce (shortest round-trip float formatting + correctly
    /// rounded parsing).
    #[test]
    fn campaign_artifact_json_round_trips(
        seeds in proptest::collection::vec(any::<u64>(), 1..4),
        bits in proptest::collection::vec(any::<u64>(), 8),
        counts in proptest::collection::vec(any::<u64>(), 4),
    ) {
        // Clamped so the ensemble aggregation itself stays finite
        // (a variance of (1e308)^2 overflows; real metrics are tiny).
        let v = |i: usize| finite(bits[i % bits.len()]).abs().min(1e100);
        let outcomes: Vec<ScenarioOutcome> = seeds
            .iter()
            .enumerate()
            .map(|(k, &seed)| ScenarioOutcome {
                seed,
                primary: v(k),
                max_global_skew: v(k + 1),
                max_local_skew: v(k + 2),
                final_global_skew: v(k + 3),
                invariant_violations: counts[k % counts.len()],
                messages_sent: counts[(k + 1) % counts.len()],
                messages_delivered: counts[(k + 2) % counts.len()],
                messages_dropped: counts[(k + 3) % counts.len()],
                events: counts[(k + 4) % counts.len()],
                ticks: counts[(k + 5) % counts.len()],
                mode_evaluations: counts[(k + 6) % counts.len()],
                trajectory: (0..3).map(|j| (j as f64 * 0.5, v(k + j))).collect(),
            })
            .collect();
        let primaries: Vec<f64> = outcomes.iter().map(|o| o.primary).collect();
        let rows = vec![CampaignRow {
            name: "prop-row".to_string(),
            nodes: 12,
            metric: Metric::GlobalSkew,
            stats: gcs_analysis::EnsembleStats::from_values(&primaries),
            outcomes,
        }];
        let text = campaign_json("prop", Scale::Tiny, &seeds, &rows);
        let artifact = trend::read_campaign(&text).unwrap();
        prop_assert_eq!(&artifact.seeds, &seeds);
        prop_assert_eq!(&artifact.rows, &rows);
        // Every record object may carry keys the schema does not name.
        let padded = text.replace('{', UNKNOWN);
        prop_assert_eq!(campaign::read_campaign(&padded).unwrap(), artifact);
        assert_every_key_required(&text, campaign::read_campaign, &[
            ("artifact", &["format"]),
            ("campaign artifact", &["campaign", "scale", "seeds", "scenarios"]),
            ("campaign scenario", &["name", "nodes", "metric", "stats", "outcomes"]),
            ("ensemble stats", &["runs", "mean", "min", "max", "median", "stddev", "p10", "p90"]),
            ("outcome", &[
                "seed", "primary", "max_global_skew", "max_local_skew", "final_global_skew",
                "invariant_violations", "messages_sent", "messages_delivered",
                "messages_dropped", "events", "ticks", "mode_evaluations", "trajectory",
            ]),
        ]);
    }

    /// Envelope distillation is invariant to trajectory sample order and
    /// duplication: any permutation with any subset duplicated gives the
    /// bit-identical envelope.
    #[test]
    fn envelope_invariant_to_order_and_duplication(
        bits in proptest::collection::vec(any::<u64>(), 2..24),
        perm_seed in any::<u64>(),
        dup_mask in any::<u32>(),
    ) {
        let traj: Vec<(f64, f64)> = bits
            .iter()
            .enumerate()
            .map(|(i, &b)| (i as f64 * 0.5, finite(b).abs().min(1e100)))
            .collect();
        let base = trend::envelope(&traj);
        // Deterministic pseudo-shuffle + duplication.
        let mut mangled = traj.clone();
        let mut state = perm_seed | 1;
        for i in (1..mangled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            mangled.swap(i, (state >> 33) as usize % (i + 1));
        }
        for (i, &p) in traj.iter().enumerate() {
            if dup_mask & (1 << (i % 32)) != 0 {
                mangled.push(p);
            }
        }
        let got = trend::envelope(&mangled);
        prop_assert_eq!(got, base);
        prop_assert_eq!(got.peak.to_bits(), base.peak.to_bits(), "peak must be bit-identical");
        prop_assert_eq!(got.recovery_slope.to_bits(), base.recovery_slope.to_bits());
    }

    /// `gcs-baseline/v2` documents round-trip bit-exactly for arbitrary
    /// finite stats, envelope values, and tolerance fractions.
    #[test]
    fn baseline_v2_json_round_trips_bit_exactly(
        bits in proptest::collection::vec(any::<u64>(), 10),
        tol_bits in any::<u64>(),
        runs in 1u64..16,
    ) {
        let v = |i: usize| finite(bits[i % bits.len()]);
        let summary = trend::TrendSummary {
            campaign: "prop".to_string(),
            scale: "tiny".to_string(),
            seeds: vec![0, 1],
            rows: vec![trend::TrendRow {
                name: "prop-row".to_string(),
                nodes: 8,
                metric: "global-skew".to_string(),
                runs,
                mean_primary: v(0),
                p90_primary: v(1),
                mean_global: v(2),
                p90_global: v(3),
                mean_local: v(4),
                p90_local: v(5),
                mean_stabilization: v(6),
                envelope: trend::EnvelopeStats {
                    mean_peak_time: v(7),
                    mean_growth_slope: v(8),
                    mean_recovery_slope: v(9),
                },
            }],
            tolerances: vec![("prop-row".to_string(), finite(tol_bits).abs().min(1e100))],
        };
        let text = trend::baseline_json(&summary);
        let back = trend::read_baseline(&text).unwrap();
        prop_assert_eq!(&back, &summary, "value round-trip");
        prop_assert_eq!(trend::baseline_json(&back), text, "byte round-trip");
        // The head and the rows may carry keys the schema does not name
        // (the tolerance table's keys are scenario names, not a schema).
        let padded = text.replace("{\"format\"", &format!("{UNKNOWN}\"format\""));
        let padded = padded.replace("{\"name\"", &format!("{UNKNOWN}\"name\""));
        prop_assert_eq!(trend::read_baseline(&padded).unwrap(), summary);
        assert_every_key_required(&text, trend::read_baseline, &[
            ("artifact", &["format"]),
            ("baseline", &["campaign", "scale", "seeds", "tolerances", "scenarios"]),
            ("baseline scenario", &[
                "name", "nodes", "metric", "runs", "mean_primary", "p90_primary",
                "mean_global_skew", "p90_global_skew", "mean_local_skew", "p90_local_skew",
                "mean_stabilization",
            ]),
            ("envelope", &["mean_peak_time", "mean_growth_slope", "mean_recovery_slope"]),
        ]);
    }

    /// `gcs-engine-bench/v1` artifacts round-trip bit-exactly for
    /// arbitrary counters and simulated spans; every key is required and
    /// keys the schema does not name are ignored.
    #[test]
    fn bench_artifact_json_round_trips(
        counts in proptest::collection::vec(any::<u64>(), 5),
        secs_bits in any::<u64>(),
        threads in 1usize..64,
    ) {
        let entry = |seed: u64| BenchEntry {
            scenario: "prop-row".to_string(),
            nodes: (counts[0] % 1_000_000) as usize,
            seed,
            threads,
            sim_secs: finite(secs_bits),
            events: counts[1],
            ticks: counts[2],
            mode_evaluations: counts[3],
            messages_delivered: counts[4],
        };
        let entries = vec![entry(0), entry(u64::MAX)];
        let text = bench_json(Scale::Tiny, &[0, u64::MAX], &entries);
        let artifact = read_bench(&text).unwrap();
        prop_assert_eq!(&artifact.entries, &entries);
        prop_assert_eq!(bench_json(Scale::Tiny, &artifact.seeds, &artifact.entries), text);
        prop_assert_eq!(read_bench(&text.replace('{', UNKNOWN)).unwrap(), artifact);
        assert_every_key_required(&text, read_bench, &[
            ("artifact", &["format"]),
            ("bench artifact", &["scale", "seeds", "entries"]),
            ("bench entry", &[
                "scenario", "nodes", "seed", "threads", "sim_secs", "events", "ticks",
                "mode_evaluations", "messages_delivered",
            ]),
        ]);
    }
}
