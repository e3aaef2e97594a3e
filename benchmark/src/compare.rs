//! `gcs-benchmark compare A.json B.json`: is B, measured like A, a
//! regression on any workload x end-to-end metric?

use std::fmt::Write as _;

use gcs_scenarios::json::JsonValue;

use crate::metrics::{short, Better, EndToEnd, END_TO_END};
use crate::suite::{metric_of, workload};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Worse than the baseline by more than the metric's bound.
    Regressed,
    /// Within the bound, but either side's spread is wider than the
    /// bound, so "unchanged" cannot be claimed.
    Unresolved,
}

/// The comparison table and every reason it fails (empty = passes).
#[derive(Debug)]
pub struct Comparison {
    pub table: String,
    pub failures: Vec<String>,
}

fn number(m: Option<&JsonValue>, key: &str) -> Option<f64> {
    m?.get(key)?.as_f64()
}

fn values(m: Option<&JsonValue>) -> Vec<f64> {
    m.and_then(|m| m.get("values")?.as_arr())
        .into_iter()
        .flatten()
        .filter_map(JsonValue::as_f64)
        .collect()
}

fn judge(
    m: &EndToEnd,
    a: Option<&JsonValue>,
    b: Option<&JsonValue>,
) -> Option<(f64, f64, f64, Verdict)> {
    let (va, vb) = (number(a, "value")?, number(b, "value")?);
    // Positive = B is worse, as a share of A.
    let worse = match m.better {
        Better::Lower => (vb - va) / va,
        Better::Higher => (va - vb) / va,
    };
    let spread = number(a, "iqr_pct")?.max(number(b, "iqr_pct")?) / 100.0;
    let (runs_a, runs_b) = (values(a), values(b));
    let every_b_beats_every_a = !runs_a.is_empty()
        && runs_b.iter().all(|&y| {
            runs_a.iter().all(|&x| match m.better {
                Better::Lower => y < x,
                Better::Higher => y > x,
            })
        });
    let verdict = if worse > m.bound && (vb - va).abs() > m.floor {
        Verdict::Regressed
    } else if spread > m.bound && !every_b_beats_every_a {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    Some((va, vb, worse, verdict))
}

pub fn compare(a: &JsonValue, b: &JsonValue) -> Comparison {
    let mut table = String::new();
    let mut failures = Vec::new();
    let _ = writeln!(
        table,
        "{:<18} {:<15} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "B worse", "bound"
    );
    for key in ["seed", "seconds", "reps"] {
        if a.get(key) != b.get(key) {
            failures.push(format!("the two files were measured with different {key}"));
        }
    }
    let names = a.get("workloads").and_then(JsonValue::as_arr);
    for wa in names.into_iter().flatten() {
        let name = wa.get("name").and_then(JsonValue::as_str).unwrap_or("?");
        let skipped = |w: &JsonValue| w.get("skipped") == Some(&JsonValue::Bool(true));
        let Some(wb) = workload(b, name) else {
            failures.push(format!("{name}: missing from B"));
            continue;
        };
        if skipped(wa) || skipped(wb) {
            let _ = writeln!(table, "{name:<18} skipped");
            continue;
        }
        let count = |w: &JsonValue, key: &str| w.get(key).and_then(JsonValue::as_u64);
        if count(wb, "failed") > count(wa, "failed") {
            failures.push(format!(
                "{name}: failed checks rose from {} to {}",
                count(wa, "failed").unwrap_or(0),
                count(wb, "failed").unwrap_or(0)
            ));
        }
        // A change that only moves host time leaves every simulated
        // statistic, and so the digest, exactly as it was.
        if wa.get("digest") != wb.get("digest") || count(wa, "events") != count(wb, "events") {
            failures.push(format!(
                "{name}: digest or window events differ, the two runs did not simulate the same thing"
            ));
        }
        for m in &END_TO_END {
            let (ma, mb) = (
                metric_of(wa, "end_to_end", m.name),
                metric_of(wb, "end_to_end", m.name),
            );
            let Some((va, vb, worse, verdict)) = judge(m, ma, mb) else {
                failures.push(format!("{name} {}: missing from A or B", m.name));
                continue;
            };
            let word = match verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved",
            };
            let _ = writeln!(
                table,
                "{name:<18} {:<15} {:>14} {:>14} {:>+8.1}% {:>6.0}%  {word}",
                m.name,
                short(va),
                short(vb),
                100.0 * worse,
                100.0 * m.bound
            );
            if verdict == Verdict::Regressed {
                failures.push(format!(
                    "{name} {}: regressed by {:.1}% (bound {:.0}%)",
                    m.name,
                    100.0 * worse,
                    100.0 * m.bound
                ));
            }
        }
    }
    Comparison { table, failures }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_scenarios::json::parse;

    /// A synthetic result set: two workloads, every end-to-end metric at
    /// `base x factor(workload, metric)` with a 1 % spread.
    fn results(factor: impl Fn(&str, &str) -> f64, digest: &str) -> JsonValue {
        parse(&results_text(factor, digest)).unwrap()
    }

    fn results_text(factor: impl Fn(&str, &str) -> f64, digest: &str) -> String {
        let workloads: Vec<String> = ["ring-1k", "geo-4k"]
            .iter()
            .map(|w| {
                let metrics: Vec<String> = END_TO_END
                    .iter()
                    .map(|m| {
                        let v = 4.0 * factor(w, m.name);
                        format!(
                            "{{\"name\":\"{}\",\"unit\":\"{}\",\"value\":{v},\"median\":{},\
                             \"iqr_pct\":1.0,\"values\":[{v},{},{}]}}",
                            m.name,
                            m.unit,
                            v * 1.005,
                            v * 1.005,
                            v * 1.01
                        )
                    })
                    .collect();
                format!(
                    "{{\"name\":\"{w}\",\"skipped\":false,\"events\":100,\"digest\":\"{digest}\",\
                     \"attempted\":9,\"failed\":0,\"end_to_end\":[{}]}}",
                    metrics.join(",")
                )
            })
            .collect();
        format!(
            "{{\"seed\":0,\"seconds\":5,\"reps\":3,\"workloads\":[{}]}}",
            workloads.join(",")
        )
    }

    fn flat(_: &str, _: &str) -> f64 {
        1.0
    }

    #[test]
    fn identical_results_pass() {
        let a = results(flat, "d");
        let c = compare(&a, &a);
        assert!(c.failures.is_empty(), "{:?}", c.failures);
        assert!(c.table.contains("ok") && !c.table.contains("regressed"));
    }

    #[test]
    fn a_forged_slowdown_fails_and_names_the_workload() {
        let run_s = END_TO_END.iter().find(|m| m.name == "run_s").unwrap();
        let forged = |by: f64| {
            let slow = move |w: &str, m: &str| match (w, m) {
                ("geo-4k", "run_s") => 1.0 + by,
                _ => 1.0,
            };
            compare(&results(flat, "d"), &results(slow, "d"))
        };
        // Five points past the bound fails, naming only that workload...
        let c = forged(run_s.bound + 0.05);
        assert_eq!(c.failures.len(), 1, "{:?}", c.failures);
        assert!(c.failures[0].starts_with("geo-4k run_s: regressed by 30.0%"));
        assert!(c.table.contains("regressed") && !c.failures[0].contains("ring-1k"));
        // ...and five points short of it does not.
        assert!(forged(run_s.bound - 0.05).failures.is_empty());
    }

    #[test]
    fn a_forged_digest_mismatch_fails() {
        let c = compare(&results(flat, "d"), &results(flat, "e"));
        assert_eq!(c.failures.len(), 2, "one per workload: {:?}", c.failures);
        assert!(c.failures[0].contains("did not simulate the same thing"));
    }

    #[test]
    fn a_gain_on_one_workload_with_the_rest_flat_passes() {
        let fast = |w: &str, m: &str| match (w, m) {
            ("ring-1k", "run_s") => 0.7,
            ("ring-1k", "events_per_sec") => 1.0 / 0.7,
            _ => 1.0,
        };
        let c = compare(&results(flat, "d"), &results(fast, "d"));
        assert!(c.failures.is_empty(), "{:?}", c.failures);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let text = |iqr: f64| {
            format!(
                "{{\"seed\":0,\"seconds\":5,\"reps\":3,\"workloads\":[{{\"name\":\"ring-1k\",\
                 \"skipped\":false,\"events\":1,\"digest\":\"d\",\"failed\":0,\"end_to_end\":[{}]}}]}}",
                END_TO_END
                    .iter()
                    .map(|m| format!(
                        "{{\"name\":\"{}\",\"value\":4.0,\"iqr_pct\":{iqr},\"values\":[4.0,4.4]}}",
                        m.name
                    ))
                    .collect::<Vec<_>>()
                    .join(",")
            )
        };
        let c = compare(&parse(&text(30.0)).unwrap(), &parse(&text(30.0)).unwrap());
        assert!(c.failures.is_empty());
        assert!(c.table.contains("unresolved") && !c.table.contains(" ok"));
    }

    #[test]
    fn more_failed_checks_or_a_missing_workload_fail() {
        let a = results(flat, "d");
        let text = |failed: u64| {
            format!(
                "{{\"seed\":0,\"seconds\":5,\"reps\":3,\"workloads\":[{{\"name\":\"ring-1k\",\
                 \"skipped\":true,\"failed\":{failed}}}]}}"
            )
        };
        let c = compare(&a, &parse(&text(0)).unwrap());
        assert!(c.failures.iter().any(|f| f == "geo-4k: missing from B"));
        let c = compare(&parse(&text(0)).unwrap(), &parse(&text(0)).unwrap());
        assert!(c.failures.is_empty() && c.table.contains("skipped"));
        let forged = |from: &str, to: &str| parse(&results_text(flat, "d").replace(from, to));
        let c = compare(&a, &forged("\"failed\":0", "\"failed\":2").unwrap());
        assert!(c.failures[0].contains("failed checks rose from 0 to 2"));
        let c = compare(&a, &forged("\"seed\":0", "\"seed\":1").unwrap());
        assert!(c.failures[0].contains("different seed"));
    }
}
