//! The line-oriented `.scn` scenario file format.
//!
//! Hand-rolled (the workspace is hermetic — no serde): one `key value`
//! pair per line, `#` comments and blank lines ignored, order of `key=val`
//! arguments inside a line irrelevant on input. [`write()`] emits the
//! *canonical* form — fixed field order, canonical argument order, floats
//! in shortest round-trip notation — and [`parse`] inverts it exactly:
//!
//! ```text
//! parse(write(spec)) == spec          // value round-trip
//! write(parse(write(spec))) == write(spec)   // byte round-trip
//! ```
//!
//! The grammar is documented in `scenarios/README.md` at the repo root.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::error::ScenarioError;
use crate::spec::{
    DriftSpec, DynamicsSpec, EstimateSpec, FaultSpec, Metric, ScenarioSpec, TopologySpec,
};

/// Serializes a spec to canonical `.scn` text.
#[must_use]
pub fn write(spec: &ScenarioSpec) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# gcs-scenarios v1");
    let _ = writeln!(out, "scenario {}", spec.name);
    if !spec.description.is_empty() {
        let _ = writeln!(out, "description {}", spec.description);
    }
    if spec.bench {
        let _ = writeln!(out, "class bench");
    }
    let _ = writeln!(out, "topology {}", topology_line(&spec.topology));
    if let Some(t) = spec.tiny_nodes {
        let _ = writeln!(out, "tiny-nodes {t}");
    }
    let _ = writeln!(out, "drift {}", drift_line(&spec.drift));
    let _ = writeln!(out, "estimates {}", spec.estimates.token());
    let _ = writeln!(out, "dynamics {}", dynamics_line(&spec.dynamics));
    let _ = writeln!(out, "rho {}", spec.rho);
    let _ = writeln!(out, "mu {}", spec.mu);
    if let Some(s) = spec.insertion_scale {
        let _ = writeln!(out, "insertion-scale {s}");
    }
    if let Some(g) = spec.g_tilde {
        let _ = writeln!(out, "g-tilde {g}");
    }
    if spec.dynamic_estimates {
        let _ = writeln!(out, "dynamic-estimates true");
    }
    let _ = writeln!(out, "warmup {}", spec.warmup);
    let _ = writeln!(out, "duration {}", spec.duration);
    let _ = writeln!(out, "sample {}", spec.sample);
    let _ = writeln!(out, "metric {}", spec.metric.token());
    for f in &spec.faults {
        match *f {
            FaultSpec::ClockOffset { at, node, amount } => {
                let _ = writeln!(out, "fault offset t={at} node={node} amount={amount}");
            }
            FaultSpec::EstimateBias { at, node, bias } => {
                let _ = writeln!(out, "fault est-bias t={at} node={node} bias={bias}");
            }
        }
    }
    out
}

fn topology_line(t: &TopologySpec) -> String {
    match *t {
        TopologySpec::Line { n } => format!("line {n}"),
        TopologySpec::Ring { n } => format!("ring {n}"),
        TopologySpec::Grid { w, h } => format!("grid {w} {h}"),
        TopologySpec::Torus { w, h } => format!("torus {w} {h}"),
        TopologySpec::Star { n } => format!("star {n}"),
        TopologySpec::Complete { n } => format!("complete {n}"),
        TopologySpec::Hypercube { dim } => format!("hypercube {dim}"),
        TopologySpec::Gnp { n, p } => format!("gnp {n} {p}"),
        TopologySpec::Geometric { n, radius } => format!("geometric {n} {radius}"),
        TopologySpec::SmallWorld { n, k, beta } => format!("small-world {n} {k} {beta}"),
        TopologySpec::ScaleFree { n, m } => format!("scale-free {n} {m}"),
    }
}

fn drift_line(d: &DriftSpec) -> String {
    match *d {
        DriftSpec::None => "none".to_string(),
        DriftSpec::RandomConstant => "random-constant".to_string(),
        DriftSpec::TwoBlock => "two-block".to_string(),
        DriftSpec::Alternating => "alternating".to_string(),
        DriftSpec::RandomWalk { period, step } => {
            format!("random-walk period={period} step={step}")
        }
        DriftSpec::FlipFlop { period } => format!("flip-flop period={period}"),
    }
}

fn dynamics_line(d: &DynamicsSpec) -> String {
    match *d {
        DynamicsSpec::Static => "static".to_string(),
        DynamicsSpec::Insertion { at, count, skew } => {
            format!("insertion t={at} count={count} skew={skew}")
        }
        DynamicsSpec::Shortcut { at, skew } => format!("shortcut t={at} skew={skew}"),
        DynamicsSpec::ChurnBurst { period, down, skew } => {
            format!("churn-burst period={period} down={down} skew={skew}")
        }
        DynamicsSpec::Churn {
            mean_up,
            mean_down,
            skew,
            start_up,
        } => {
            format!("churn mean-up={mean_up} mean-down={mean_down} skew={skew} start-up={start_up}")
        }
        DynamicsSpec::Mobility {
            radius,
            hysteresis,
            speed_min,
            speed_max,
            sample,
            skew,
        } => format!(
            "mobility radius={radius} hysteresis={hysteresis} speed-min={speed_min} \
             speed-max={speed_max} sample={sample} skew={skew}"
        ),
        DynamicsSpec::Partition { split, merge, skew } => {
            format!("partition split={split} merge={merge} skew={skew}")
        }
    }
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

struct LineCtx {
    no: usize,
}

impl LineCtx {
    fn err(&self, message: impl Into<String>) -> ScenarioError {
        ScenarioError::Parse {
            line: self.no,
            message: message.into(),
        }
    }

    fn f64(&self, s: &str, what: &str) -> Result<f64, ScenarioError> {
        let v: f64 = s
            .parse()
            .map_err(|_| self.err(format!("{what}: expected a number, got {s:?}")))?;
        if !v.is_finite() {
            return Err(self.err(format!("{what}: must be finite, got {s:?}")));
        }
        Ok(v)
    }

    fn usize(&self, s: &str, what: &str) -> Result<usize, ScenarioError> {
        s.parse().map_err(|_| {
            self.err(format!(
                "{what}: expected a non-negative integer, got {s:?}"
            ))
        })
    }

    /// Splits `k=v` arguments, checking for unknown and duplicate keys.
    fn kv<'a>(
        &self,
        args: &[&'a str],
        allowed: &[&str],
    ) -> Result<BTreeMap<&'a str, &'a str>, ScenarioError> {
        let mut map = BTreeMap::new();
        for a in args {
            let (k, v) = a
                .split_once('=')
                .ok_or_else(|| self.err(format!("expected key=value, got {a:?}")))?;
            if !allowed.contains(&k) {
                return Err(self.err(format!("unknown argument {k:?} (allowed: {allowed:?})")));
            }
            if map.insert(k, v).is_some() {
                return Err(self.err(format!("duplicate argument {k:?}")));
            }
        }
        Ok(map)
    }

    fn kv_f64(&self, map: &BTreeMap<&str, &str>, key: &str) -> Result<f64, ScenarioError> {
        let v = map
            .get(key)
            .ok_or_else(|| self.err(format!("missing argument {key:?}")))?;
        self.f64(v, key)
    }
}

/// Parses `.scn` text into a spec (accepting any field order, comments,
/// and blank lines; the first directive must be `scenario <name>`).
///
/// # Errors
///
/// Returns [`ScenarioError::Parse`] with a 1-based line number on the
/// first malformed, unknown, duplicated, or missing field.
pub fn parse(text: &str) -> Result<ScenarioSpec, ScenarioError> {
    let mut name: Option<String> = None;
    let mut description = String::new();
    let mut bench: Option<bool> = None;
    let mut tiny_nodes: Option<usize> = None;
    let mut topology: Option<TopologySpec> = None;
    let mut drift: Option<DriftSpec> = None;
    let mut estimates: Option<EstimateSpec> = None;
    let mut dynamics: Option<DynamicsSpec> = None;
    let mut faults: Vec<FaultSpec> = Vec::new();
    let mut rho: Option<f64> = None;
    let mut mu: Option<f64> = None;
    let mut insertion_scale: Option<f64> = None;
    let mut g_tilde: Option<f64> = None;
    let mut dynamic_estimates: Option<bool> = None;
    let mut warmup: Option<f64> = None;
    let mut duration: Option<f64> = None;
    let mut sample: Option<f64> = None;
    let mut metric: Option<Metric> = None;

    for (i, raw) in text.lines().enumerate() {
        let ctx = LineCtx { no: i + 1 };
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, rest) = match line.split_once(' ') {
            Some((k, r)) => (k, r.trim()),
            None => (line, ""),
        };
        let dup = |ctx: &LineCtx| Err::<(), _>(ctx.err(format!("duplicate {key:?} line")));
        if name.is_none() && key != "scenario" {
            return Err(ctx.err("the first directive must be `scenario <name>`"));
        }
        match key {
            "scenario" => {
                if name.is_some() {
                    dup(&ctx)?;
                }
                if rest.is_empty() || rest.contains(char::is_whitespace) {
                    return Err(ctx.err("scenario name must be a single token"));
                }
                name = Some(rest.to_string());
            }
            "description" => {
                if !description.is_empty() {
                    dup(&ctx)?;
                }
                if rest.is_empty() {
                    return Err(ctx.err("description must not be empty (omit the line instead)"));
                }
                description = rest.to_string();
            }
            "class" => {
                if bench.is_some() {
                    dup(&ctx)?;
                }
                match rest {
                    "bench" => bench = Some(true),
                    other => {
                        return Err(ctx.err(format!(
                            "unknown class {other:?} (`bench`, or omit the line for a \
                             standard scenario)"
                        )))
                    }
                }
            }
            "tiny-nodes" => {
                if tiny_nodes.is_some() {
                    dup(&ctx)?;
                }
                tiny_nodes = Some(ctx.usize(rest, "tiny-nodes")?);
            }
            "topology" => {
                if topology.is_some() {
                    dup(&ctx)?;
                }
                topology = Some(parse_topology(&ctx, rest)?);
            }
            "drift" => {
                if drift.is_some() {
                    dup(&ctx)?;
                }
                drift = Some(parse_drift(&ctx, rest)?);
            }
            "estimates" => {
                if estimates.is_some() {
                    dup(&ctx)?;
                }
                estimates = Some(match rest {
                    "oracle-none" => EstimateSpec::OracleNone,
                    "oracle-bias" => EstimateSpec::OracleBias,
                    "oracle-hide" => EstimateSpec::OracleHide,
                    "messages" => EstimateSpec::Messages,
                    other => {
                        return Err(ctx.err(format!(
                            "unknown estimates {other:?} (oracle-none | oracle-bias | \
                             oracle-hide | messages)"
                        )))
                    }
                });
            }
            "dynamics" => {
                if dynamics.is_some() {
                    dup(&ctx)?;
                }
                dynamics = Some(parse_dynamics(&ctx, rest)?);
            }
            "fault" => {
                let mut parts = rest.split_whitespace();
                let kind = parts.next();
                let args: Vec<&str> = parts.collect();
                let node_of = |map: &BTreeMap<&str, &str>| -> Result<usize, ScenarioError> {
                    ctx.usize(
                        map.get("node")
                            .ok_or_else(|| ctx.err("missing argument \"node\""))?,
                        "node",
                    )
                };
                match kind {
                    Some("offset") => {
                        let map = ctx.kv(&args, &["t", "node", "amount"])?;
                        faults.push(FaultSpec::ClockOffset {
                            at: ctx.kv_f64(&map, "t")?,
                            node: node_of(&map)?,
                            amount: ctx.kv_f64(&map, "amount")?,
                        });
                    }
                    Some("est-bias") => {
                        let map = ctx.kv(&args, &["t", "node", "bias"])?;
                        faults.push(FaultSpec::EstimateBias {
                            at: ctx.kv_f64(&map, "t")?,
                            node: node_of(&map)?,
                            bias: ctx.kv_f64(&map, "bias")?,
                        });
                    }
                    other => {
                        return Err(
                            ctx.err(format!("unknown fault kind {other:?} (offset | est-bias)"))
                        );
                    }
                }
            }
            "rho" => set_f64(&ctx, key, rest, &mut rho)?,
            "mu" => set_f64(&ctx, key, rest, &mut mu)?,
            "insertion-scale" => set_f64(&ctx, key, rest, &mut insertion_scale)?,
            "g-tilde" => set_f64(&ctx, key, rest, &mut g_tilde)?,
            "dynamic-estimates" => {
                if dynamic_estimates.is_some() {
                    dup(&ctx)?;
                }
                match rest {
                    "true" => dynamic_estimates = Some(true),
                    other => {
                        return Err(ctx.err(format!(
                            "dynamic-estimates takes `true` (or omit), got {other:?}"
                        )))
                    }
                }
            }
            "warmup" => set_f64(&ctx, key, rest, &mut warmup)?,
            "duration" => set_f64(&ctx, key, rest, &mut duration)?,
            "sample" => set_f64(&ctx, key, rest, &mut sample)?,
            "metric" => {
                if metric.is_some() {
                    dup(&ctx)?;
                }
                metric = Some(Metric::parse(rest).ok_or_else(|| {
                    ctx.err(format!(
                        "unknown metric {rest:?} (global-skew | local-skew | final-global-skew)"
                    ))
                })?);
            }
            other => return Err(ctx.err(format!("unknown directive {other:?}"))),
        }
    }

    let eof = LineCtx {
        no: text.lines().count().max(1),
    };
    let missing = |what: &str| eof.err(format!("missing required `{what}` line"));
    Ok(ScenarioSpec {
        name: name.ok_or_else(|| missing("scenario"))?,
        description,
        topology: topology.ok_or_else(|| missing("topology"))?,
        drift: drift.ok_or_else(|| missing("drift"))?,
        estimates: estimates.ok_or_else(|| missing("estimates"))?,
        dynamics: dynamics.ok_or_else(|| missing("dynamics"))?,
        faults,
        rho: rho.ok_or_else(|| missing("rho"))?,
        mu: mu.ok_or_else(|| missing("mu"))?,
        insertion_scale,
        g_tilde,
        dynamic_estimates: dynamic_estimates.unwrap_or(false),
        warmup: warmup.ok_or_else(|| missing("warmup"))?,
        duration: duration.ok_or_else(|| missing("duration"))?,
        sample: sample.ok_or_else(|| missing("sample"))?,
        metric: metric.ok_or_else(|| missing("metric"))?,
        bench: bench.unwrap_or(false),
        tiny_nodes,
    })
}

fn set_f64(
    ctx: &LineCtx,
    key: &str,
    rest: &str,
    slot: &mut Option<f64>,
) -> Result<(), ScenarioError> {
    if slot.is_some() {
        return Err(ctx.err(format!("duplicate {key:?} line")));
    }
    *slot = Some(ctx.f64(rest, key)?);
    Ok(())
}

fn parse_topology(ctx: &LineCtx, rest: &str) -> Result<TopologySpec, ScenarioError> {
    let parts: Vec<&str> = rest.split_whitespace().collect();
    let (family, args) = parts
        .split_first()
        .ok_or_else(|| ctx.err("topology needs a family"))?;
    let argc = |want: usize| -> Result<(), ScenarioError> {
        if args.len() == want {
            Ok(())
        } else {
            Err(ctx.err(format!(
                "topology {family} takes {want} argument(s), got {}",
                args.len()
            )))
        }
    };
    Ok(match *family {
        "line" => {
            argc(1)?;
            TopologySpec::Line {
                n: ctx.usize(args[0], "n")?,
            }
        }
        "ring" => {
            argc(1)?;
            TopologySpec::Ring {
                n: ctx.usize(args[0], "n")?,
            }
        }
        "grid" => {
            argc(2)?;
            TopologySpec::Grid {
                w: ctx.usize(args[0], "w")?,
                h: ctx.usize(args[1], "h")?,
            }
        }
        "torus" => {
            argc(2)?;
            TopologySpec::Torus {
                w: ctx.usize(args[0], "w")?,
                h: ctx.usize(args[1], "h")?,
            }
        }
        "star" => {
            argc(1)?;
            TopologySpec::Star {
                n: ctx.usize(args[0], "n")?,
            }
        }
        "complete" => {
            argc(1)?;
            TopologySpec::Complete {
                n: ctx.usize(args[0], "n")?,
            }
        }
        "hypercube" => {
            argc(1)?;
            TopologySpec::Hypercube {
                dim: u32::try_from(ctx.usize(args[0], "dim")?)
                    .map_err(|_| ctx.err("dim out of range"))?,
            }
        }
        "gnp" => {
            argc(2)?;
            TopologySpec::Gnp {
                n: ctx.usize(args[0], "n")?,
                p: ctx.f64(args[1], "p")?,
            }
        }
        "geometric" => {
            argc(2)?;
            TopologySpec::Geometric {
                n: ctx.usize(args[0], "n")?,
                radius: ctx.f64(args[1], "radius")?,
            }
        }
        "small-world" => {
            argc(3)?;
            TopologySpec::SmallWorld {
                n: ctx.usize(args[0], "n")?,
                k: ctx.usize(args[1], "k")?,
                beta: ctx.f64(args[2], "beta")?,
            }
        }
        "scale-free" => {
            argc(2)?;
            TopologySpec::ScaleFree {
                n: ctx.usize(args[0], "n")?,
                m: ctx.usize(args[1], "m")?,
            }
        }
        other => return Err(ctx.err(format!("unknown topology family {other:?}"))),
    })
}

fn parse_drift(ctx: &LineCtx, rest: &str) -> Result<DriftSpec, ScenarioError> {
    let parts: Vec<&str> = rest.split_whitespace().collect();
    let (kind, args) = parts
        .split_first()
        .ok_or_else(|| ctx.err("drift needs a model"))?;
    let bare = |spec: DriftSpec| -> Result<DriftSpec, ScenarioError> {
        if args.is_empty() {
            Ok(spec)
        } else {
            Err(ctx.err(format!("drift {kind} takes no arguments")))
        }
    };
    match *kind {
        "none" => bare(DriftSpec::None),
        "random-constant" => bare(DriftSpec::RandomConstant),
        "two-block" => bare(DriftSpec::TwoBlock),
        "alternating" => bare(DriftSpec::Alternating),
        "random-walk" => {
            let map = ctx.kv(args, &["period", "step"])?;
            Ok(DriftSpec::RandomWalk {
                period: ctx.kv_f64(&map, "period")?,
                step: ctx.kv_f64(&map, "step")?,
            })
        }
        "flip-flop" => {
            let map = ctx.kv(args, &["period"])?;
            Ok(DriftSpec::FlipFlop {
                period: ctx.kv_f64(&map, "period")?,
            })
        }
        other => Err(ctx.err(format!("unknown drift model {other:?}"))),
    }
}

fn parse_dynamics(ctx: &LineCtx, rest: &str) -> Result<DynamicsSpec, ScenarioError> {
    let parts: Vec<&str> = rest.split_whitespace().collect();
    let (kind, args) = parts
        .split_first()
        .ok_or_else(|| ctx.err("dynamics needs a generator"))?;
    match *kind {
        "static" => {
            if args.is_empty() {
                Ok(DynamicsSpec::Static)
            } else {
                Err(ctx.err("dynamics static takes no arguments"))
            }
        }
        "insertion" => {
            let map = ctx.kv(args, &["t", "count", "skew"])?;
            Ok(DynamicsSpec::Insertion {
                at: ctx.kv_f64(&map, "t")?,
                count: ctx.usize(
                    map.get("count")
                        .ok_or_else(|| ctx.err("missing argument \"count\""))?,
                    "count",
                )?,
                skew: ctx.kv_f64(&map, "skew")?,
            })
        }
        "shortcut" => {
            let map = ctx.kv(args, &["t", "skew"])?;
            Ok(DynamicsSpec::Shortcut {
                at: ctx.kv_f64(&map, "t")?,
                skew: ctx.kv_f64(&map, "skew")?,
            })
        }
        "churn-burst" => {
            let map = ctx.kv(args, &["period", "down", "skew"])?;
            Ok(DynamicsSpec::ChurnBurst {
                period: ctx.kv_f64(&map, "period")?,
                down: ctx.kv_f64(&map, "down")?,
                skew: ctx.kv_f64(&map, "skew")?,
            })
        }
        "churn" => {
            let map = ctx.kv(args, &["mean-up", "mean-down", "skew", "start-up"])?;
            Ok(DynamicsSpec::Churn {
                mean_up: ctx.kv_f64(&map, "mean-up")?,
                mean_down: ctx.kv_f64(&map, "mean-down")?,
                skew: ctx.kv_f64(&map, "skew")?,
                start_up: ctx.kv_f64(&map, "start-up")?,
            })
        }
        "mobility" => {
            let map = ctx.kv(
                args,
                &[
                    "radius",
                    "hysteresis",
                    "speed-min",
                    "speed-max",
                    "sample",
                    "skew",
                ],
            )?;
            Ok(DynamicsSpec::Mobility {
                radius: ctx.kv_f64(&map, "radius")?,
                hysteresis: ctx.kv_f64(&map, "hysteresis")?,
                speed_min: ctx.kv_f64(&map, "speed-min")?,
                speed_max: ctx.kv_f64(&map, "speed-max")?,
                sample: ctx.kv_f64(&map, "sample")?,
                skew: ctx.kv_f64(&map, "skew")?,
            })
        }
        "partition" => {
            let map = ctx.kv(args, &["split", "merge", "skew"])?;
            Ok(DynamicsSpec::Partition {
                split: ctx.kv_f64(&map, "split")?,
                merge: ctx.kv_f64(&map, "merge")?,
                skew: ctx.kv_f64(&map, "skew")?,
            })
        }
        other => Err(ctx.err(format!("unknown dynamics generator {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    #[test]
    fn every_builtin_round_trips_exactly() {
        for spec in registry::all() {
            let text = write(&spec);
            let parsed = parse(&text).unwrap_or_else(|e| panic!("{}: {e}\n{text}", spec.name));
            assert_eq!(parsed, spec, "value round-trip of {}", spec.name);
            assert_eq!(write(&parsed), text, "byte round-trip of {}", spec.name);
        }
    }

    #[test]
    fn parser_accepts_reordered_fields_and_comments() {
        let text = "\
# out-of-order but complete
scenario reordered
metric global-skew
sample 0.5
duration 10
warmup 1

rho 0.01
dynamics churn start-up=0.5 skew=0.001 mean-down=5 mean-up=10
estimates messages
drift two-block
topology ring 8
mu 0.1
";
        let spec = parse(text).unwrap();
        assert_eq!(spec.name, "reordered");
        assert_eq!(spec.topology, TopologySpec::Ring { n: 8 });
        assert!(matches!(spec.dynamics, DynamicsSpec::Churn { mean_up, .. } if mean_up == 10.0));
        // Re-serialization is canonical, not the input order.
        assert!(write(&spec).starts_with("# gcs-scenarios v1\nscenario reordered\n"));
    }

    #[test]
    fn parser_reports_line_numbers() {
        let text = "scenario x\ntopology ring 8\nwat 3\n";
        match parse(text) {
            Err(ScenarioError::Parse { line, message }) => {
                assert_eq!(line, 3);
                assert!(message.contains("wat"), "{message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn parser_rejects_duplicates_unknown_args_and_missing_fields() {
        assert!(parse("scenario a\nscenario b\n").is_err());
        assert!(parse("scenario a\ndynamic-estimates true\ndynamic-estimates true\n").is_err());
        assert!(parse("scenario a\ndrift two-block extra\n").is_err());
        assert!(parse("scenario a\ndynamics churn mean-up=1 bogus=2\n").is_err());
        // Missing everything after the name.
        match parse("scenario a\n") {
            Err(ScenarioError::Parse { message, .. }) => {
                assert!(message.contains("topology"), "{message}");
            }
            other => panic!("expected missing-field error, got {other:?}"),
        }
        // First directive must be the name.
        assert!(parse("rho 0.01\n").is_err());
    }

    #[test]
    fn floats_survive_the_round_trip_bit_exactly() {
        let mut spec = registry::find("churn-storm").unwrap();
        spec.rho = 0.012_345_678_901_234_567;
        spec.g_tilde = Some(1.0e-9);
        spec.faults.push(FaultSpec::ClockOffset {
            at: 1.5,
            node: 3,
            amount: -0.125,
        });
        spec.faults.push(FaultSpec::EstimateBias {
            at: 2.25,
            node: 1,
            bias: -0.987_654_321_098_765_4,
        });
        let parsed = parse(&write(&spec)).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(write(&parsed), write(&spec));
    }

    #[test]
    fn est_bias_faults_parse_and_reject_bad_kinds() {
        let text = "\
scenario est
topology ring 8
drift two-block
estimates oracle-none
dynamics static
rho 0.01
mu 0.1
warmup 1
duration 10
sample 0.5
metric global-skew
fault est-bias t=3 node=5 bias=-1
";
        let spec = parse(text).unwrap();
        assert_eq!(
            spec.faults,
            vec![FaultSpec::EstimateBias {
                at: 3.0,
                node: 5,
                bias: -1.0,
            }]
        );
        // Unknown kinds and offset-only arguments on est-bias both fail.
        assert!(parse(&text.replace("fault est-bias", "fault jitter")).is_err());
        assert!(parse(&text.replace("bias=-1", "amount=-1")).is_err());
    }
}
