//! The metric tables (`BENCHMARK.json` mirrors them; `tests/contract.rs`
//! fails if the two drift) and the order statistics every report uses.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn token(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the simulator sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's value by which the metric may worsen
    /// before `compare` calls it a regression.
    pub bound: f64,
    /// Absolute change below which a difference is never a regression
    /// (a 10 % move of a 2 ms set-up is timer noise, not a finding).
    pub floor: f64,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        floor: 0.05,
    },
    EndToEnd {
        name: "run_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "events_per_sec",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Lower,
        bound: 0.15,
        floor: 1.0,
    },
];

/// Per-layer metrics `(name, unit, better)`, grouped by the crate whose
/// public API the harness was inside when it took the number. A workload
/// that bypasses a layer reports 0 for that layer's metrics.
pub const PER_LAYER: [(&str, &str, Better); 69] = [
    // gcs-scenarios / gcs-net: compiling a spec into a schedule.
    ("scenarios.schedule_s", "s", Lower),
    ("net.topology_realize_s", "s", Lower),
    ("net.schedule_generate_s", "s", Lower),
    ("net.edges", "count", Lower),
    ("net.schedule_events", "count", Lower),
    // gcs-sim: the event queue.
    ("sim.queue_pair_ns", "ns", Lower),
    ("sim.queue_depth_mean", "count", Lower),
    ("sim.queue_depth_max", "count", Lower),
    // gcs-protocol: node-local state machine, NodeCore, wire format.
    ("protocol.merge_flood_ns", "ns", Lower),
    ("protocol.advance_to_ns", "ns", Lower),
    ("protocol.decide_certify_ns", "ns", Lower),
    ("protocol.flood_merges", "count", Lower),
    ("protocol.m_jump_ratio", "ratio", Higher),
    ("protocol.nodecore_evaluate_ns", "ns", Lower),
    ("protocol.nodecore_on_message_ns", "ns", Lower),
    ("protocol.nodecore_poll_sends_ns", "ns", Lower),
    ("protocol.wire_encode_ns", "ns", Lower),
    ("protocol.wire_decode_ns", "ns", Lower),
    ("protocol.frames", "count", Lower),
    ("protocol.rejected_share", "ratio", Lower),
    // gcs-core: either engine.
    ("core.build_s", "s", Lower),
    ("core.warmup_s", "s", Lower),
    ("core.window_s", "s", Lower),
    ("core.slice_ns_per_event_p50", "ns", Lower),
    ("core.slice_ns_per_event_p90", "ns", Lower),
    ("core.slice_ns_per_event_max", "ns", Lower),
    ("core.slice_samples", "count", Higher),
    ("core.bytes_per_node", "B", Lower),
    ("core.events", "count", Lower),
    ("core.ticks", "count", Lower),
    ("core.mode_evaluations", "count", Lower),
    ("core.messages_sent", "count", Lower),
    ("core.messages_delivered", "count", Lower),
    ("core.messages_dropped", "count", Lower),
    ("core.handshakes_offered", "count", Lower),
    ("core.insertions_scheduled", "count", Lower),
    ("core.edge_removals", "count", Lower),
    ("core.floods", "count", Lower),
    ("core.deliveries", "count", Lower),
    ("core.leader_checks", "count", Lower),
    ("core.follower_applies", "count", Lower),
    ("core.rate_changes", "count", Lower),
    ("core.mode_switches", "count", Lower),
    ("core.dirty_nodes_mean", "count", Lower),
    ("core.eval_skip_ratio", "ratio", Higher),
    ("core.est_share_queue", "ratio", Lower),
    ("core.est_share_merge", "ratio", Lower),
    ("core.est_share_decide", "ratio", Lower),
    ("core.est_share_residual", "ratio", Lower),
    // gcs-core, sharded engine only.
    ("core.par.barrier_rounds", "count", Lower),
    ("core.par.segment_cuts", "count", Lower),
    ("core.par.events_per_round", "count", Higher),
    ("core.par.us_per_round", "us", Lower),
    ("core.par.stalled_share", "ratio", Lower),
    ("core.par.mailbox_moved", "count", Lower),
    ("core.par.shard_imbalance", "ratio", Lower),
    ("core.par.speedup_vs_seq", "ratio", Higher),
    // gcs-analysis: the conformance oracle.
    ("analysis.oracle_build_s", "s", Lower),
    ("analysis.observe_s", "s", Lower),
    ("analysis.observe_ms_p50", "ms", Lower),
    ("analysis.observe_ms_max", "ms", Lower),
    ("analysis.snapshots", "count", Lower),
    ("analysis.sources_per_snapshot", "count", Lower),
    ("analysis.worst_utilization", "ratio", Lower),
    // gcs-telemetry and the host itself.
    ("trace_overhead_pct", "%", Lower),
    ("host.run_s_median", "s", Lower),
    ("host.run_s_iqr_pct", "%", Lower),
    ("host.setup_s_median", "s", Lower),
    ("host.reps", "count", Higher),
];

/// Four decimals for small values, none for counts and large values.
pub fn short(v: f64) -> String {
    if v.abs() >= 1000.0 || v.fract() == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    gcs_analysis::stats::quantile(values, 0.5)
}

/// Distance between the first and third quartile as a share of the
/// median, quartiles as Python's `statistics.quantiles(values, n=4)`
/// computes them — the spread statistic the benchmark is accepted on.
/// Zero for fewer than two values.
pub fn iqr_share(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics_match_python() {
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
        // == [3.5, 24.0, 160.0]; median 24.
        let v = [512.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];
        assert_eq!(median(&v), 24.0);
        assert!((iqr_share(&v) - (160.0 - 3.5) / 24.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0].
        assert!((iqr_share(&[3.0, 1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[7.0]), 0.0);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
