//! The engine counter gate: drive registry scenarios end to end, count
//! what the engine did, and emit the machine-readable `BENCH_engine.json`
//! artifact (`gcs-engine-bench/v1`) that [`compare_counters`] gates
//! exactly, per `(scenario, seed, threads)`.
//!
//! This is deliberately *not* a statistics campaign, and not a speed
//! measurement either (`benchmark/` is where speed is measured): runs skip
//! the observation sampling grid and report only the deterministic engine
//! counters ([`SimStats`](gcs_core::SimStats)) — pure functions of
//! scenario + seed + code, so any divergence between two artifacts, or
//! between two thread counts, is a real behavioural change.

use crate::campaign::{run_pass, Pass, Stops};
use crate::error::ScenarioError;
use crate::json;
use crate::spec::{Scale, ScenarioSpec};

/// The artifact format tag.
pub const BENCH_FORMAT: &str = "gcs-engine-bench/v1";

/// The engine counters of one scenario × seed × threads run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Scenario name.
    pub scenario: String,
    /// Node count after scaling.
    pub nodes: usize,
    /// Run seed.
    pub seed: u64,
    /// Worker thread count: 1 = the sequential reference engine, >1 = the
    /// parallel sharded engine with that many shards.
    pub threads: usize,
    /// Simulated seconds driven (`warmup + duration`).
    pub sim_secs: f64,
    /// Events processed.
    pub events: u64,
    /// Tick events processed.
    pub ticks: u64,
    /// Per-node mode decisions actually evaluated (`ticks × nodes` minus
    /// what the dirty-set/stability-certificate machinery skipped).
    pub mode_evaluations: u64,
    /// Messages delivered.
    pub messages_delivered: u64,
}

impl BenchEntry {
    /// The counters an end-only [`Pass`] of `spec` amounts to.
    #[must_use]
    pub fn of(spec: &ScenarioSpec, pass: &Pass) -> Self {
        BenchEntry {
            scenario: pass.scenario.clone(),
            nodes: pass.nodes,
            seed: pass.seed,
            threads: pass.threads,
            sim_secs: spec.end_secs(),
            events: pass.stats.events,
            ticks: pass.stats.ticks,
            mode_evaluations: pass.stats.mode_evaluations,
            messages_delivered: pass.stats.messages_delivered,
        }
    }

    /// The deterministic columns — pure functions of scenario + seed +
    /// code — that every gate compares exactly.
    #[must_use]
    pub fn gated(&self) -> [(&'static str, u64); 5] {
        [
            ("nodes", self.nodes as u64),
            ("events", self.events),
            ("ticks", self.ticks),
            ("mode_evaluations", self.mode_evaluations),
            ("messages_delivered", self.messages_delivered),
        ]
    }
}

/// Runs one scenario once, for its counters: an end-only [`run_pass`]
/// with no observers — build, replay scripted faults, drive to the end
/// instant.
///
/// # Errors
///
/// Returns [`ScenarioError`] if the spec fails to validate or build.
pub fn run_one(
    spec: &ScenarioSpec,
    seed: u64,
    threads: usize,
) -> Result<BenchEntry, ScenarioError> {
    let pass = run_pass(spec, seed, threads, Stops::EndOnly, &mut [])?;
    Ok(BenchEntry::of(spec, &pass))
}

/// Runs `specs × seeds × threads` and returns the entries in input order
/// (spec-major, then seed, then thread count). Every thread count must
/// agree on every deterministic counter — cross-engine determinism,
/// asserted for free.
///
/// # Errors
///
/// Returns the first [`ScenarioError`] any run produced.
///
/// # Panics
///
/// Panics if `threads` is empty, or if two thread counts of the same
/// seeded run disagree on any engine counter (a determinism bug).
pub fn run_suite(
    specs: &[ScenarioSpec],
    seeds: &[u64],
    threads: &[usize],
) -> Result<Vec<BenchEntry>, ScenarioError> {
    assert!(!threads.is_empty(), "need at least one thread count");
    let mut entries = Vec::with_capacity(specs.len() * seeds.len() * threads.len());
    for spec in specs {
        for &seed in seeds {
            let first = entries.len();
            for &t in threads {
                entries.push(run_one(spec, seed, t)?);
            }
            for e in &entries[first + 1..] {
                assert_eq!(
                    e.gated(),
                    entries[first].gated(),
                    "{} seed {seed}: counters diverged between {} and {} threads",
                    spec.name,
                    entries[first].threads,
                    e.threads
                );
            }
        }
    }
    Ok(entries)
}

/// A fully parsed `gcs-engine-bench/v1` artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArtifact {
    /// Scale token the suite ran at.
    pub scale: String,
    /// Seed list.
    pub seeds: Vec<u64>,
    /// Per-scenario × seed entries, in artifact order.
    pub entries: Vec<BenchEntry>,
}

// The `gcs-engine-bench/v1` schema (`scenarios/README.md`): each key, once.
json::record! { BenchArtifact as "bench artifact" {
    "scale" => scale, "seeds" => seeds, "entries" => entries,
} }

json::record! { BenchEntry as "bench entry" {
    "scenario" => scenario, "nodes" => nodes, "seed" => seed, "threads" => threads,
    "sim_secs" => sim_secs, "events" => events, "ticks" => ticks,
    "mode_evaluations" => mode_evaluations, "messages_delivered" => messages_delivered,
} }

/// Serializes a bench suite to the `gcs-engine-bench/v1` JSON artifact.
#[must_use]
pub fn bench_json(scale: Scale, seeds: &[u64], entries: &[BenchEntry]) -> String {
    let artifact = BenchArtifact {
        scale: scale.name().to_string(),
        seeds: seeds.to_vec(),
        entries: entries.to_vec(),
    };
    json::document(json::tagged(BENCH_FORMAT, &artifact))
}

/// Parses a `gcs-engine-bench/v1` artifact back into its entries. Keys it
/// does not name are ignored, so artifacts written when rows also carried
/// wall-clock columns still gate.
///
/// # Errors
///
/// Returns a message on malformed JSON, a wrong `format` tag, or a
/// missing/mistyped field.
pub fn read_bench(text: &str) -> Result<BenchArtifact, String> {
    json::read_tagged(&json::parse(text)?, BENCH_FORMAT)
}

/// One counter mismatch between two bench artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterFinding {
    /// Scenario name.
    pub scenario: String,
    /// Run seed.
    pub seed: u64,
    /// Worker thread count of the run.
    pub threads: usize,
    /// Which counter diverged (or a structural problem: `missing entry`,
    /// `new entry`, `nodes`).
    pub counter: &'static str,
    /// Baseline value (`u64::MAX` for structural findings).
    pub baseline: u64,
    /// Current value (`u64::MAX` for structural findings).
    pub current: u64,
}

/// The outcome of an exact counter comparison: a printable table plus
/// every mismatch.
#[derive(Debug)]
pub struct BenchCompareReport {
    /// One row per baseline entry, counters side by side.
    pub table: gcs_analysis::Table,
    /// Mismatches (empty ⇒ gate passes).
    pub findings: Vec<CounterFinding>,
}

impl BenchCompareReport {
    /// Whether the gate passes.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Compares the *deterministic engine counters* of two bench artifacts
/// **exactly** — `events`, `ticks`, `mode_evaluations`, and
/// `messages_delivered` are pure functions of scenario + seed + code, so
/// any divergence is a real behavioural change. Entries are matched by
/// `(scenario, seed, threads)`.
///
/// With `subset` the gate only requires the *baseline entries that the
/// current artifact also ran* to match — entries the current run skipped
/// are reported but not failed. This is for partial reruns (e.g. a CI
/// smoke that benches a single thread count against the full checked-in
/// artifact). Current-only entries are still findings in both modes, and
/// an empty intersection always fails: a gate that compared nothing has
/// not verified anything.
#[must_use]
pub fn compare_counters(
    baseline: &BenchArtifact,
    current: &BenchArtifact,
    subset: bool,
) -> BenchCompareReport {
    // Entries are matched by the run they measured.
    let same_run = |a: &BenchEntry, b: &BenchEntry| {
        a.scenario == b.scenario && a.seed == b.seed && a.threads == b.threads
    };
    let finding = |e: &BenchEntry, counter, baseline, current| CounterFinding {
        scenario: e.scenario.clone(),
        seed: e.seed,
        threads: e.threads,
        counter,
        baseline,
        current,
    };
    let mut findings = Vec::new();
    let mut matched = 0usize;
    let mut table = gcs_analysis::Table::new(
        format!(
            "engine counter gate — scale {} vs baseline scale {}{}",
            current.scale,
            baseline.scale,
            if subset { " (subset)" } else { "" }
        ),
        &[
            "scenario", "seed", "thr", "counter", "baseline", "current", "status",
        ],
    );
    table.caption(
        "events/ticks/mode_evaluations/messages_delivered are deterministic per \
         (scenario, seed): gated exactly.",
    );
    let mut row = |e: &BenchEntry, cells: [String; 4]| {
        let run = [
            e.scenario.clone(),
            e.seed.to_string(),
            e.threads.to_string(),
        ];
        table.row(run.into_iter().chain(cells));
    };
    for base in &baseline.entries {
        let Some(cur) = current.entries.iter().find(|e| same_run(e, base)) else {
            if !subset {
                findings.push(finding(base, "missing entry", u64::MAX, u64::MAX));
            }
            let status = if subset { "skipped" } else { "MISSING" };
            row(base, ["-", "-", "-", status].map(str::to_string));
            continue;
        };
        matched += 1;
        for ((counter, b), (_, c)) in base.gated().into_iter().zip(cur.gated()) {
            let status = if b == c { "ok" } else { "MISMATCH" };
            row(
                base,
                [counter, &b.to_string(), &c.to_string(), status].map(str::to_string),
            );
            if b != c {
                findings.push(finding(base, counter, b, c));
            }
        }
    }
    for cur in &current.entries {
        if !baseline.entries.iter().any(|e| same_run(e, cur)) {
            let what = "new entry (refresh the baseline)";
            findings.push(finding(cur, what, u64::MAX, u64::MAX));
        }
    }
    if matched == 0 {
        findings.push(CounterFinding {
            scenario: "(whole artifact)".to_string(),
            seed: 0,
            threads: 0,
            counter: "no overlapping entries: gate compared nothing",
            baseline: u64::MAX,
            current: u64::MAX,
        });
    }
    BenchCompareReport { table, findings }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    #[test]
    fn bench_runs_and_serializes() {
        let spec = registry::find("ring-steady")
            .expect("built-in")
            .scaled(Scale::Tiny);
        let entries = run_suite(std::slice::from_ref(&spec), &[0, 1], &[1, 2]).unwrap();
        assert_eq!(entries.len(), 4, "one row per (seed, threads)");
        for e in &entries {
            assert_eq!(e.scenario, "ring-steady");
            assert!(e.events > 0);
            assert!(e.ticks > 0);
            assert!(e.mode_evaluations > 0);
        }
        // run_suite itself asserts counters match across thread counts;
        // double-check the rows landed as (seed 0, t1), (seed 0, t2), ...
        assert_eq!(
            entries
                .iter()
                .map(|e| (e.seed, e.threads))
                .collect::<Vec<_>>(),
            vec![(0, 1), (0, 2), (1, 1), (1, 2)]
        );
        // Same seed twice: the identical row.
        assert_eq!(run_one(&spec, 0, 1).unwrap(), entries[0]);
        let json = bench_json(Scale::Tiny, &[0, 1], &entries);
        assert!(json.starts_with("{\"format\":\"gcs-engine-bench/v1\""));
        assert!(json.contains("\"mode_evaluations\""));
        assert!(json.contains("\"threads\":2"));
        assert!(json.ends_with("]}\n"));
    }

    #[test]
    fn bench_reader_inverts_the_writer() {
        let spec = registry::find("line-worstcase")
            .expect("built-in")
            .scaled(Scale::Tiny);
        let entries = run_suite(std::slice::from_ref(&spec), &[0, 1], &[1, 2]).unwrap();
        let text = bench_json(Scale::Tiny, &[0, 1], &entries);
        let artifact = read_bench(&text).unwrap();
        assert_eq!(artifact.scale, "tiny");
        assert_eq!(artifact.seeds, vec![0, 1]);
        assert_eq!(
            artifact.entries, entries,
            "parsed entries must be bit-identical"
        );
        // A row without its "threads" key is malformed, not sequential.
        let err = read_bench(&text.replace(",\"threads\":2", "")).unwrap_err();
        assert!(
            err.contains("line-worstcase") && err.contains("threads"),
            "{err}"
        );
        // Rows written when the artifact also carried wall-clock columns
        // parse to the same entries: the reader never looks at those keys.
        let timed = text.replace(
            ",\"events\":",
            ",\"build_secs\":0.001,\"wall_secs\":0.02,\"events_per_sec\":1e6,\"events\":",
        );
        assert_eq!(read_bench(&timed).unwrap(), artifact);
        // Every checked-in artifact re-serializes byte-for-byte.
        for name in ["BENCH_engine.json", "BENCH_engine_tiny.json"] {
            let path = format!("{}/../../results/{name}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).unwrap();
            let a = read_bench(&text).unwrap();
            let scale = Scale::parse(&a.scale).unwrap();
            assert_eq!(bench_json(scale, &a.seeds, &a.entries), text, "{name}");
        }
    }

    #[test]
    fn counter_gate_is_exact() {
        let spec = registry::find("line-worstcase")
            .expect("built-in")
            .scaled(Scale::Tiny);
        let entries = run_suite(std::slice::from_ref(&spec), &[0], &[1]).unwrap();
        let artifact = read_bench(&bench_json(Scale::Tiny, &[0], &entries)).unwrap();
        // Identical runs pass.
        let report = compare_counters(&artifact, &artifact.clone(), false);
        assert!(report.passed(), "{:?}", report.findings);
        // A single off-by-one event count fails the gate exactly.
        let mut drifted = artifact.clone();
        drifted.entries[0].events += 1;
        let report = compare_counters(&artifact, &drifted, false);
        assert!(!report.passed());
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].counter, "events");
        assert!(report.table.to_string().contains("MISMATCH"));
        // Entry-set mismatches are structural findings in both directions.
        let empty = BenchArtifact {
            scale: "tiny".to_string(),
            seeds: vec![0],
            entries: Vec::new(),
        };
        assert!(compare_counters(&artifact, &empty, false)
            .findings
            .iter()
            .any(|f| f.counter == "missing entry"));
        assert!(compare_counters(&empty, &artifact, false)
            .findings
            .iter()
            .any(|f| f.counter.starts_with("new entry")));
    }

    #[test]
    fn subset_gate_skips_missing_rows_but_never_passes_on_nothing() {
        let spec = registry::find("line-worstcase")
            .expect("built-in")
            .scaled(Scale::Tiny);
        let full = run_suite(std::slice::from_ref(&spec), &[0], &[1, 2]).unwrap();
        let baseline = read_bench(&bench_json(Scale::Tiny, &[0], &full)).unwrap();
        // A partial rerun covering only the 2-thread row.
        let partial = BenchArtifact {
            scale: "tiny".to_string(),
            seeds: vec![0],
            entries: vec![full[1].clone()],
        };
        assert!(!compare_counters(&baseline, &partial, false).passed());
        let report = compare_counters(&baseline, &partial, true);
        assert!(report.passed(), "{:?}", report.findings);
        assert!(report.table.to_string().contains("skipped"));
        // Subset rows that DID run are still gated exactly.
        let mut drifted = partial.clone();
        drifted.entries[0].messages_delivered += 1;
        let report = compare_counters(&baseline, &drifted, true);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].counter, "messages_delivered");
        // An empty intersection is a failure even in subset mode.
        let unrelated = BenchArtifact {
            scale: "tiny".to_string(),
            seeds: vec![9],
            entries: Vec::new(),
        };
        let report = compare_counters(&baseline, &unrelated, true);
        assert!(!report.passed());
        assert!(report
            .findings
            .iter()
            .any(|f| f.counter.contains("compared nothing")));
    }

    #[test]
    fn bench_includes_scripted_faults() {
        // The fault replay is part of the driven workload: the scenario
        // must still run to its end instant.
        let spec = registry::find("self-heal")
            .expect("built-in")
            .scaled(Scale::Tiny);
        let e = run_one(&spec, 3, 1).unwrap();
        assert!((e.sim_secs - spec.end_secs()).abs() < 1e-12);
        assert!(e.events > 0);
    }
}
