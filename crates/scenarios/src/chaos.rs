//! Chaos subsystem: bit-exact trace replay and adversarial
//! fault-schedule search.
//!
//! Two halves share this module:
//!
//! * **Replay** — a sealed `gcs-trace/v1` artifact is self-contained (the
//!   recorder embeds the canonical `.scn` text in a `spec` record right
//!   after the run header), so [`replay_trace`] re-materializes the run
//!   from the artifact *alone*: verify the seal, parse the embedded spec,
//!   rebuild from the recorded seed, drive the identical observation
//!   grid, and compare the fresh trace byte-for-byte against the
//!   original. Any tampering is caught twice — by the FNV-1a seal, and by
//!   the replayed-bytes comparison.
//! * **Search** — [`chaos_search`] is a seeded greedy-mutation loop over
//!   fault schedules inside the [`ScenarioSpec`] validation envelope:
//!   clock-offset scripts, scripted estimate corruption, partition and
//!   churn-burst timing. Every candidate runs the exact conformance
//!   oracle; the objective is the worst margin utilization across bound
//!   families ([`ConformanceReport::worst_utilization`]). The search log
//!   (`gcs-chaos/v1` JSONL) is byte-deterministic for a fixed
//!   `(base, seed, budget)` — no wall clock, no thread scheduling — and
//!   embeds every frontier candidate's `.scn`, so a later run can resume
//!   from the best-found schedule ([`frontier_from_log`]). A candidate
//!   that *breaks* a paper bound (> 100 % utilization) aborts the search
//!   and surfaces a sealed, replayable trace of the violating run.

use gcs_analysis::oracle::ConformanceReport;
use rand::{rngs::StdRng, Rng as _, SeedableRng as _};

use crate::conformance::{run_scenario_conformance, ConformanceOptions};
use crate::error::ScenarioError;
use crate::json::{self, Field, Json};
use crate::spec::{DynamicsSpec, FaultSpec, ScenarioSpec};
use crate::telemetry::run_instrumented;

/// The search-log format tag.
pub const CHAOS_FORMAT: &str = "gcs-chaos/v1";

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// Everything a sealed `gcs-trace/v1` artifact declares about its run.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceArtifact {
    /// Scenario name from the run header.
    pub scenario: String,
    /// Run seed from the run header.
    pub seed: u64,
    /// Node count from the run header.
    pub nodes: u64,
    /// Hashed record count from the verified seal.
    pub records: u64,
    /// The seal digest (`fnv1a64:%016x`).
    pub hash: String,
    /// The embedded canonical `.scn` text.
    pub scn: String,
    /// The embedded spec, parsed and validated.
    pub spec: ScenarioSpec,
}

/// What replay reads from a trace's run header (its first record).
struct RunHeader {
    scenario: String,
    seed: u64,
    nodes: u64,
}

json::record! { RunHeader as "run record" {
    "scenario" => scenario, "seed" => seed, "nodes" => nodes,
} }

/// The canonical `.scn` text the recorder embeds right after the header.
struct SpecRecord {
    scn: String,
}

json::record! { SpecRecord as "spec record" { "scn" => scn } }

/// Verifies a trace's seal and extracts the embedded run identity + spec.
///
/// # Errors
///
/// Returns [`ScenarioError::Invalid`] if the seal fails to verify (a
/// mutated artifact), the header records are malformed, the artifact
/// predates embedded specs, or the embedded spec does not validate.
pub fn read_trace(text: &str) -> Result<TraceArtifact, ScenarioError> {
    let bad = |msg: String| ScenarioError::Invalid(msg);
    let (records, hash) =
        gcs_telemetry::verify_trace(text).map_err(|e| bad(format!("trace rejected: {e}")))?;
    let mut lines = text.lines();
    let run_line = lines.next().ok_or_else(|| bad("empty trace".to_string()))?;
    let run = json::parse(run_line).map_err(|e| bad(format!("run record: {e}")))?;
    if run.get("rec").and_then(|v| v.as_str()) != Some("run") {
        return Err(bad(format!("first record is not a run header: {run_line}")));
    }
    let RunHeader {
        scenario,
        seed,
        nodes,
    } = RunHeader::read(&run).map_err(bad)?;
    let spec_line = lines
        .next()
        .filter(|l| l.starts_with("{\"rec\":\"spec\""))
        .ok_or_else(|| {
            bad("trace has no embedded spec record; it cannot be replayed stand-alone".to_string())
        })?;
    let spec_rec = json::parse(spec_line).map_err(|e| bad(format!("spec record: {e}")))?;
    let SpecRecord { scn } = SpecRecord::read(&spec_rec).map_err(bad)?;
    let spec = crate::format::parse(&scn)?;
    spec.validate()?;
    if spec.name != scenario {
        return Err(bad(format!(
            "run header names scenario {scenario:?} but the embedded spec is {:?}",
            spec.name
        )));
    }
    Ok(TraceArtifact {
        scenario,
        seed,
        nodes,
        records,
        hash,
        scn,
        spec,
    })
}

/// The verdict of one replay: the original artifact, the fresh run's
/// seal, and the first divergent record if the bytes differ.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// The verified original.
    pub artifact: TraceArtifact,
    /// Engine threads the replay ran with.
    pub threads: usize,
    /// The fresh trace's seal digest.
    pub replayed_hash: String,
    /// The fresh trace's hashed record count.
    pub replayed_records: u64,
    /// First divergent record (1-based line + both sides), `None` when
    /// the replay is bit-identical.
    pub divergence: Option<gcs_telemetry::TraceDiff>,
}

impl ReplayOutcome {
    /// Whether the replayed run reproduced the artifact bit-exactly.
    #[must_use]
    pub fn is_identical(&self) -> bool {
        self.divergence.is_none()
    }
}

/// Re-materializes a run from a sealed trace artifact alone and compares
/// the fresh trace byte-for-byte against the original.
///
/// `threads` picks the replaying engine (1 = sequential reference, > 1 =
/// sharded); the trace contract makes the outcome invariant to it.
///
/// # Errors
///
/// Returns [`ScenarioError`] if the artifact fails verification or the
/// embedded spec fails to build.
pub fn replay_trace(text: &str, threads: usize) -> Result<ReplayOutcome, ScenarioError> {
    let artifact = read_trace(text)?;
    let run = run_instrumented(&artifact.spec, artifact.seed, threads, true)?;
    let trace = run.telemetry.trace.as_ref().expect("trace requested");
    Ok(ReplayOutcome {
        threads: threads.max(1),
        replayed_hash: trace.hash_hex(),
        replayed_records: trace.records,
        divergence: gcs_telemetry::trace_diff(text, &trace.text),
        artifact,
    })
}

// ---------------------------------------------------------------------------
// Adversary search
// ---------------------------------------------------------------------------

/// Knobs for one [`chaos_search`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosOptions {
    /// Search RNG seed: fixes the entire mutation sequence, hence the
    /// entire log.
    pub seed: u64,
    /// Candidate evaluations after the base (each one full conformance
    /// run per run seed).
    pub budget: u32,
    /// Run seeds each candidate is scored over; the objective is the
    /// worst utilization across them.
    pub run_seeds: Vec<u64>,
    /// Engine threads per evaluation (1 = sequential reference).
    pub threads: usize,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            seed: 0,
            budget: 32,
            run_seeds: vec![0],
            threads: 1,
        }
    }
}

/// One scored schedule: a spec plus the oracle's worst margin
/// utilization over the run seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCandidate {
    /// Candidate index (0 = the unmodified base).
    pub iter: u32,
    /// The schedule itself.
    pub spec: ScenarioSpec,
    /// Mutation operator that produced it (`"base"` for iter 0).
    pub op: &'static str,
    /// Bound family realizing the worst utilization
    /// (`global` / `gradient` / `weak-edges`).
    pub family: &'static str,
    /// Worst utilization across the run seeds (1.0 = at the bound).
    pub utilization: f64,
    /// The run seed that realized it.
    pub run_seed: u64,
    /// Whether every scored run stayed within the paper bounds.
    pub conformant: bool,
}

/// A candidate that broke a paper bound, with a sealed replayable trace
/// of the violating run attached.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosViolation {
    /// The violating schedule and its score.
    pub candidate: ChaosCandidate,
    /// The oracle's violation descriptions for the worst run seed.
    pub violations: Vec<String>,
    /// A sealed `gcs-trace/v1` artifact of the violating run — feed it to
    /// [`replay_trace`] to reproduce bit-exactly.
    pub trace: String,
}

/// Everything one search produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosResult {
    /// Candidates actually scored (excluding the base; less than the
    /// budget only when a violation aborted the search).
    pub evaluated: u32,
    /// Mutation draws discarded because they left the validation
    /// envelope.
    pub skipped: u32,
    /// The best-scoring schedule found (the frontier).
    pub best: ChaosCandidate,
    /// The deterministic `gcs-chaos/v1` JSONL search log.
    pub log: String,
    /// Present when a candidate exceeded 100 % utilization; the search
    /// stops at the first violation.
    pub violation: Option<ChaosViolation>,
}

/// Extracts the best-found schedule from a `gcs-chaos/v1` search log —
/// the resumable frontier. Frontier candidates embed their `.scn`; the
/// last one in the log is the best (the log is append-only and the
/// frontier only ratchets upward).
///
/// # Errors
///
/// Returns [`ScenarioError::Invalid`] on a malformed log or one with no
/// frontier records, or a parse error for the embedded spec.
pub fn frontier_from_log(text: &str) -> Result<ScenarioSpec, ScenarioError> {
    let bad = |msg: String| ScenarioError::Invalid(msg);
    let mut head_seen = false;
    let mut last_scn: Option<String> = None;
    for line in text.lines() {
        let rec = json::parse(line).map_err(|e| bad(format!("chaos log: {e}")))?;
        match rec.get("rec").and_then(|v| v.as_str()) {
            Some("chaos") => {
                if rec.get("format").and_then(|v| v.as_str()) != Some(CHAOS_FORMAT) {
                    return Err(bad(format!("chaos log: not a {CHAOS_FORMAT} header")));
                }
                head_seen = true;
            }
            Some("cand") => {
                if let Some(scn) = rec.get("scn").and_then(|v| v.as_str()) {
                    last_scn = Some(scn.to_string());
                }
            }
            Some("end") | Some("violation") => {}
            other => return Err(bad(format!("chaos log: unknown record {other:?}"))),
        }
    }
    if !head_seen {
        return Err(bad(format!("chaos log: missing {CHAOS_FORMAT} header")));
    }
    let scn = last_scn.ok_or_else(|| bad("chaos log has no frontier candidates".to_string()))?;
    let spec = crate::format::parse(&scn)?;
    spec.validate()?;
    Ok(spec)
}

/// Scores one schedule: exact conformance oracle per run seed, worst
/// utilization wins.
fn score(
    spec: &ScenarioSpec,
    opts: &ChaosOptions,
) -> Result<(&'static str, f64, u64, Vec<String>), ScenarioError> {
    let copts = ConformanceOptions {
        threads: opts.threads,
        ..ConformanceOptions::default()
    };
    let mut worst: Option<(&'static str, f64, u64, ConformanceReport)> = None;
    for &s in &opts.run_seeds {
        let report = run_scenario_conformance(spec, s, &copts)?;
        let (family, util) = report.worst_utilization();
        if worst.as_ref().is_none_or(|w| util > w.1) {
            worst = Some((family, util, s, report));
        }
    }
    let (family, util, seed, report) = worst.expect("at least one run seed");
    Ok((family, util, seed, report.violations()))
}

/// One local move inside the validation envelope. Returns the operator
/// name; the caller re-validates and redraws on failure.
fn mutate(spec: &mut ScenarioSpec, rng: &mut StdRng) -> &'static str {
    let n = spec.topology.node_count();
    let end = spec.end_secs();
    // Amplitude scale for clock offsets: grow from whatever the script
    // already uses (or a half second when it has none) so hill climbing
    // can both refine and escalate.
    let amp = spec
        .faults
        .iter()
        .filter_map(|f| match *f {
            FaultSpec::ClockOffset { amount, .. } => Some(amount.abs()),
            FaultSpec::EstimateBias { .. } => None,
        })
        .fold(0.5f64, f64::max);
    match rng.gen_range(0u32..6) {
        0 => {
            spec.faults.push(FaultSpec::ClockOffset {
                at: rng.gen_range(0.0..=end),
                node: rng.gen_range(0..n),
                amount: rng.gen_range(-2.0..=2.0) * amp,
            });
            "add-offset"
        }
        1 => {
            spec.faults.push(FaultSpec::EstimateBias {
                at: rng.gen_range(0.0..=end),
                node: rng.gen_range(0..n),
                bias: if rng.gen_bool(0.5) {
                    // Full-rail corruption is the likeliest worst case.
                    if rng.gen_bool(0.5) {
                        1.0
                    } else {
                        -1.0
                    }
                } else {
                    rng.gen_range(-1.0..=1.0)
                },
            });
            "add-est-bias"
        }
        2 if !spec.faults.is_empty() => {
            let i = rng.gen_range(0..spec.faults.len());
            match &mut spec.faults[i] {
                FaultSpec::ClockOffset { at, node, amount } => {
                    match rng.gen_range(0u32..3) {
                        0 => *at = (*at + rng.gen_range(-0.2..=0.2) * end).clamp(0.0, end),
                        1 => *node = rng.gen_range(0..n),
                        _ => *amount *= rng.gen_range(-1.5..=1.5),
                    }
                    "perturb-offset"
                }
                FaultSpec::EstimateBias { at, node, bias } => {
                    match rng.gen_range(0u32..3) {
                        0 => *at = (*at + rng.gen_range(-0.2..=0.2) * end).clamp(0.0, end),
                        1 => *node = rng.gen_range(0..n),
                        _ => *bias = (*bias + rng.gen_range(-0.5..=0.5)).clamp(-1.0, 1.0),
                    }
                    "perturb-est-bias"
                }
            }
        }
        3 if !spec.faults.is_empty() => {
            let i = rng.gen_range(0..spec.faults.len());
            spec.faults.remove(i);
            "remove-fault"
        }
        4 => match spec.dynamics {
            DynamicsSpec::Partition { split, merge, skew } => {
                // Shift the outage window and stretch its length; the
                // validator enforces 0 <= split < merge.
                let width = (merge - split) * rng.gen_range(0.5..=1.5);
                let split = (split + rng.gen_range(-0.2..=0.2) * end).max(0.0);
                spec.dynamics = DynamicsSpec::Partition {
                    split,
                    merge: split + width.max(1e-6),
                    skew,
                };
                "perturb-partition"
            }
            DynamicsSpec::ChurnBurst { period, down, skew } => {
                let period = period * rng.gen_range(0.7..=1.4);
                let down = down * rng.gen_range(0.7..=1.4);
                spec.dynamics = DynamicsSpec::ChurnBurst { period, down, skew };
                "perturb-churn-burst"
            }
            _ => "noop",
        },
        _ => {
            // Re-aim an existing fault's time towards the window where
            // the oracle's allowance has decayed (late in the run).
            if let Some(f) = spec.faults.last_mut() {
                match f {
                    FaultSpec::ClockOffset { at, .. } | FaultSpec::EstimateBias { at, .. } => {
                        *at = rng.gen_range(0.5..=1.0) * end;
                    }
                }
                "retime-fault"
            } else {
                "noop"
            }
        }
    }
}

fn cand_record(c: &ChaosCandidate, accepted: bool, frontier: bool, scn: Option<String>) -> String {
    let mut fields = vec![
        ("rec", Json::Str("cand".to_string())),
        ("iter", Json::Int(u64::from(c.iter))),
        ("op", Json::Str(c.op.to_string())),
        ("family", Json::Str(c.family.to_string())),
        ("util", Json::Num(c.utilization)),
        ("run_seed", Json::Int(c.run_seed)),
        ("conformant", Json::Bool(c.conformant)),
        ("accepted", Json::Bool(accepted)),
        ("frontier", Json::Bool(frontier)),
    ];
    if let Some(scn) = scn {
        fields.push(("scn", Json::Str(scn)));
    }
    Json::Obj(fields).to_string()
}

/// Seeded greedy-mutation search for the schedule that eats the most
/// conformance margin.
///
/// Starting from `base` (already scaled by the caller), each iteration
/// draws one local mutation, discards it if it leaves the validation
/// envelope (bounded redraws), scores the survivor with the exact
/// conformance oracle, and hill-climbs: a strictly better utilization
/// becomes the new frontier *and* the new search point; occasionally the
/// walk steps sideways to a non-improving candidate to escape plateaus
/// (drawn from the same seeded RNG, so the whole trajectory — and the
/// log — is deterministic).
///
/// A candidate that exceeds 100 % utilization stops the search: the
/// result's [`ChaosResult::violation`] carries the violating schedule,
/// the oracle's descriptions, and a sealed replayable trace of the
/// violating run. The frontier ([`ChaosResult::best`]) never includes a
/// violator — it is the strongest schedule that still *passes* the
/// gates, i.e. the one worth ratcheting into the registry.
///
/// # Errors
///
/// Returns [`ScenarioError`] if the base fails to validate or a
/// candidate fails to build (validated candidates should always build;
/// an error here is a bug, not an adversarial win).
///
/// # Panics
///
/// Panics if `opts.run_seeds` is empty.
pub fn chaos_search(
    base: &ScenarioSpec,
    opts: &ChaosOptions,
) -> Result<ChaosResult, ScenarioError> {
    assert!(!opts.run_seeds.is_empty(), "chaos search needs run seeds");
    base.validate()?;
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut log = String::new();
    let head = vec![
        ("rec", Json::Str("chaos".to_string())),
        ("format", Json::Str(CHAOS_FORMAT.to_string())),
        ("base", Json::Str(base.name.clone())),
        ("seed", Json::Int(opts.seed)),
        ("budget", Json::Int(u64::from(opts.budget))),
        ("run_seeds", opts.run_seeds.write()),
        ("threads", Json::Int(opts.threads.max(1) as u64)),
    ];
    log.push_str(&Json::Obj(head).to_string());
    log.push('\n');

    let (family, util, run_seed, viols) = score(base, opts)?;
    let mut best = ChaosCandidate {
        iter: 0,
        spec: base.clone(),
        op: "base",
        family,
        utilization: util,
        run_seed,
        conformant: viols.is_empty(),
    };
    log.push_str(&cand_record(
        &best,
        true,
        true,
        Some(crate::format::write(base)),
    ));
    log.push('\n');

    let mut current = base.clone();
    let mut evaluated = 0u32;
    let mut skipped = 0u32;
    let mut violation = None;

    if !best.conformant {
        violation = Some(finish_violation(&best, viols, &mut log)?);
    } else {
        for iter in 1..=opts.budget {
            // Bounded redraws: an envelope-violating mutation costs a
            // skip, not an evaluation.
            let mut cand_spec = None;
            let mut op = "exhausted";
            for _ in 0..16 {
                let mut draft = current.clone();
                let drawn = mutate(&mut draft, &mut rng);
                if drawn != "noop" && draft.validate().is_ok() {
                    cand_spec = Some(draft);
                    op = drawn;
                    break;
                }
                skipped += 1;
            }
            let Some(cand_spec) = cand_spec else { continue };
            let (family, util, run_seed, viols) = score(&cand_spec, opts)?;
            evaluated += 1;
            let cand = ChaosCandidate {
                iter,
                spec: cand_spec,
                op,
                family,
                utilization: util,
                run_seed,
                conformant: viols.is_empty(),
            };
            // The frontier is the ratchet product — an exported schedule
            // has to still pass the gates it tightens — so only
            // *conformant* candidates may claim it; a violator ends the
            // search below with its own replayable trace instead.
            let frontier = cand.conformant && util > best.utilization;
            // Sideways exploration keeps the walk from pinning to a
            // plateau; the frontier itself only ratchets upward.
            let accepted = frontier || rng.gen_bool(0.25);
            log.push_str(&cand_record(
                &cand,
                accepted,
                frontier,
                frontier.then(|| crate::format::write(&cand.spec)),
            ));
            log.push('\n');
            if accepted {
                current = cand.spec.clone();
            }
            if frontier {
                best = cand.clone();
            }
            if !cand.conformant {
                violation = Some(finish_violation(&cand, viols, &mut log)?);
                break;
            }
        }
    }

    log.push_str(
        &Json::Obj(vec![
            ("rec", Json::Str("end".to_string())),
            ("evaluated", Json::Int(u64::from(evaluated))),
            ("skipped", Json::Int(u64::from(skipped))),
            ("best_iter", Json::Int(u64::from(best.iter))),
            ("best_family", Json::Str(best.family.to_string())),
            ("best_util", Json::Num(best.utilization)),
            ("violation", Json::Bool(violation.is_some())),
        ])
        .to_string(),
    );
    log.push('\n');

    Ok(ChaosResult {
        evaluated,
        skipped,
        best,
        log,
        violation,
    })
}

/// Re-runs a violating candidate with the trace recorder attached and
/// appends the violation record to the log.
fn finish_violation(
    cand: &ChaosCandidate,
    violations: Vec<String>,
    log: &mut String,
) -> Result<ChaosViolation, ScenarioError> {
    let run = run_instrumented(&cand.spec, cand.run_seed, 1, true)?;
    let trace = run.telemetry.trace.as_ref().expect("trace requested");
    log.push_str(
        &Json::Obj(vec![
            ("rec", Json::Str("violation".to_string())),
            ("iter", Json::Int(u64::from(cand.iter))),
            ("family", Json::Str(cand.family.to_string())),
            ("util", Json::Num(cand.utilization)),
            ("run_seed", Json::Int(cand.run_seed)),
            ("trace_hash", Json::Str(trace.hash_hex())),
            (
                "violations",
                Json::Arr(violations.iter().cloned().map(Json::Str).collect()),
            ),
        ])
        .to_string(),
    );
    log.push('\n');
    Ok(ChaosViolation {
        candidate: cand.clone(),
        violations,
        trace: trace.text.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;
    use crate::spec::Scale;

    fn tiny(name: &str) -> ScenarioSpec {
        registry::find(name).expect("built-in").scaled(Scale::Tiny)
    }

    #[test]
    fn replay_reproduces_a_trace_bit_exactly() {
        let spec = tiny("self-heal");
        let run = run_instrumented(&spec, 3, 1, true).unwrap();
        let trace = run.telemetry.trace.as_ref().unwrap();
        let outcome = replay_trace(&trace.text, 1).unwrap();
        assert!(outcome.is_identical(), "{:?}", outcome.divergence);
        assert_eq!(outcome.replayed_hash, trace.hash_hex());
        assert_eq!(outcome.artifact.scenario, "self-heal");
        assert_eq!(outcome.artifact.seed, 3);
        // The artifact's embedded spec round-trips to the driven spec.
        assert_eq!(outcome.artifact.spec, spec);
    }

    #[test]
    fn replay_rejects_a_mutated_artifact() {
        let spec = tiny("ring-steady");
        let run = run_instrumented(&spec, 0, 1, true).unwrap();
        let tampered = run.telemetry.trace.as_ref().unwrap().text.replacen(
            "\"rec\":\"sample\",\"t\":",
            "\"rec\":\"sample\",\"t\":9",
            1,
        );
        let err = replay_trace(&tampered, 1).unwrap_err();
        assert!(
            err.to_string().contains("trace rejected"),
            "seal must catch tampering: {err}"
        );
    }

    #[test]
    fn search_is_deterministic_and_logs_a_frontier() {
        let base = tiny("self-heal");
        let opts = ChaosOptions {
            seed: 11,
            budget: 4,
            run_seeds: vec![0],
            threads: 1,
        };
        let a = chaos_search(&base, &opts).unwrap();
        let b = chaos_search(&base, &opts).unwrap();
        assert_eq!(a.log, b.log, "same seed + budget must be byte-identical");
        assert!(a.best.utilization > 0.0);
        assert!(a.log.starts_with("{\"rec\":\"chaos\""));
        assert!(a.log.trim_end().ends_with('}'));
        // The frontier embedded in the log parses back to the best spec.
        let frontier = frontier_from_log(&a.log).unwrap();
        assert_eq!(frontier, a.best.spec);
    }

    #[test]
    fn search_scores_the_base_before_mutating() {
        let base = tiny("ring-steady");
        let opts = ChaosOptions {
            seed: 0,
            budget: 0,
            run_seeds: vec![0],
            threads: 1,
        };
        let r = chaos_search(&base, &opts).unwrap();
        assert_eq!(r.evaluated, 0);
        assert_eq!(r.best.iter, 0);
        assert_eq!(r.best.op, "base");
        assert!(r.best.conformant);
        assert_eq!(frontier_from_log(&r.log).unwrap(), base);
    }

    #[test]
    fn frontier_rejects_malformed_logs() {
        assert!(frontier_from_log("").is_err());
        assert!(frontier_from_log("{\"rec\":\"cand\"}\n").is_err());
        let headless = "{\"rec\":\"chaos\",\"format\":\"bogus/v9\"}\n";
        assert!(frontier_from_log(headless).is_err());
    }
}
