//! Stand-alone trace replay: the chaos subsystem's bit-exactness contract.
//!
//! A sealed `gcs-trace/v1` artifact embeds its canonical `.scn` spec, so
//! the artifact *alone* must re-materialize the run — same records, same
//! content hash — on either engine at any shard count. These tests drive
//! `gcs_scenarios::chaos` end-to-end over the same scenario grid as the
//! engine-equivalence suites, plus the negative control (a tampered
//! artifact is rejected at the seal, before any simulation runs) and the
//! byte-determinism contract of the adversarial search log.

use gradient_clock_sync::scenarios::chaos::{
    chaos_search, frontier_from_log, read_trace, replay_trace, ChaosOptions,
};
use gradient_clock_sync::scenarios::telemetry::run_instrumented;
use gradient_clock_sync::scenarios::{registry, FaultSpec, Scale, ScenarioSpec};

/// The same scenario grid as `parallel_equivalence`: oracle and message
/// estimates, static and churning topologies, drift flips, scripted
/// corruptions.
fn grid() -> Vec<ScenarioSpec> {
    [
        "ring-steady",
        "line-worstcase",
        "torus-messages",
        "churn-storm",
        "churn-burst",
        "byzantine-est",
        "drift-flip",
        "self-heal",
    ]
    .iter()
    .map(|n| registry::find(n).expect("built-in").scaled(Scale::Tiny))
    .collect()
}

fn trace_of(spec: &ScenarioSpec, seed: u64) -> String {
    let run = run_instrumented(spec, seed, 1, true).expect("instrumented run");
    run.telemetry
        .trace
        .as_ref()
        .expect("trace requested")
        .text
        .clone()
}

#[test]
fn replay_is_bit_identical_across_the_grid_and_shard_counts() {
    for spec in grid() {
        let text = trace_of(&spec, 0);
        for threads in [1usize, 2, 7] {
            let outcome = replay_trace(&text, threads).expect("artifact replays");
            assert!(
                outcome.is_identical(),
                "{} seed 0, {threads} thread(s): replay diverged at line {:?}",
                spec.name,
                outcome.divergence.map(|d| d.line)
            );
            assert_eq!(
                outcome.replayed_hash, outcome.artifact.hash,
                "{} seed 0, {threads} thread(s): replayed hash diverged",
                spec.name
            );
            assert_eq!(
                outcome.replayed_records, outcome.artifact.records,
                "{} seed 0, {threads} thread(s): record count diverged",
                spec.name
            );
        }
    }
}

#[test]
fn replay_covers_estimate_bias_faults() {
    // The new in-model adversary must survive the full artifact cycle:
    // spec → trace (fault records included) → embedded `.scn` → rebuilt
    // run, bit for bit.
    let mut spec = registry::find("ring-steady")
        .expect("built-in")
        .scaled(Scale::Tiny);
    spec.faults.push(FaultSpec::EstimateBias {
        at: spec.end_secs() / 3.0,
        node: 1,
        bias: -1.0,
    });
    spec.validate().expect("biased spec is valid");
    let text = trace_of(&spec, 4);
    assert!(
        text.contains("\"rec\":\"fault\""),
        "the scripted fault must appear in the trace"
    );
    for threads in [1usize, 3] {
        let outcome = replay_trace(&text, threads).expect("artifact replays");
        assert!(
            outcome.is_identical(),
            "{threads} thread(s): est-bias replay diverged"
        );
    }
}

#[test]
fn tampered_artifacts_are_rejected_before_any_replay() {
    let spec = registry::find("self-heal")
        .expect("built-in")
        .scaled(Scale::Tiny);
    let text = trace_of(&spec, 1);

    // Flip one digit inside a sample record: the running FNV-1a seal no
    // longer matches, so the artifact must be refused outright.
    let tampered = text.replacen("\"rec\":\"sample\",\"t\":", "\"rec\":\"sample\",\"t\":9", 1);
    assert_ne!(text, tampered, "the tamper must hit a sample record");
    let err = read_trace(&tampered).expect_err("seal mismatch is fatal");
    assert!(
        err.to_string().contains("trace rejected"),
        "unexpected error: {err}"
    );
    assert!(
        replay_trace(&tampered, 1).is_err(),
        "replay must refuse a tampered artifact too"
    );

    // Truncation (a lost end record) is equally fatal.
    let truncated = text
        .lines()
        .take(text.lines().count() - 1)
        .collect::<Vec<_>>()
        .join("\n");
    assert!(
        read_trace(&truncated).is_err(),
        "a truncated artifact must be rejected"
    );
}

#[test]
fn chaos_search_logs_are_byte_deterministic_and_resumable() {
    let base = registry::find("self-heal")
        .expect("built-in")
        .scaled(Scale::Tiny);
    let opts = ChaosOptions {
        seed: 11,
        budget: 6,
        run_seeds: vec![0],
        threads: 1,
    };
    let first = chaos_search(&base, &opts).expect("search runs");
    let second = chaos_search(&base, &opts).expect("search runs");
    assert_eq!(
        first.log, second.log,
        "same seed + budget must reproduce the log byte for byte"
    );
    assert!(
        first.violation.is_none(),
        "the scripted base must stay conformant at this budget"
    );

    // The frontier embedded in the log is the best candidate's schedule —
    // resuming from the log alone continues from exactly that spec.
    let frontier = frontier_from_log(&first.log).expect("log has a frontier");
    assert_eq!(frontier, first.best.spec, "frontier must match the best");
    let resumed = chaos_search(
        &frontier,
        &ChaosOptions {
            seed: 12,
            budget: 2,
            ..opts
        },
    )
    .expect("resumed search runs");
    assert!(
        resumed.best.utilization >= first.best.utilization,
        "resuming from the frontier can only ratchet upwards"
    );
}
