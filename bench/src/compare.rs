//! `compare A.json B.json`: one row per (end-to-end metric, workload),
//! judged against the bound `BENCHMARK.json` fixes for the metric.

use crate::json::Json;
use crate::spec::{Better, END_TO_END, END_TO_END_UNGATED, WORKLOADS};

/// Verdict of one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is worse than A by more than the bound.
    Regressed,
    /// B is better than A by more than the bound.
    Improved,
    /// Within the bound, and the recorded spread is within it too.
    Unchanged,
    /// Within the bound, but the recorded window spread exceeds the bound:
    /// the measurement cannot tell.
    Unresolved,
    /// One side does not report the metric.
    Missing,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Regressed => "REGRESSED",
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// One compared (metric, workload) pair.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// Metric name.
    pub metric: &'static str,
    /// Value in A.
    pub a: Option<f64>,
    /// Value in B.
    pub b: Option<f64>,
    /// How much worse B is than A, as a share of A (negative = better).
    pub worsening: Option<f64>,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
    /// Does the verdict count?  `false` for the latency percentiles: shown
    /// for information, they fail neither `compare` nor `selfcheck`.
    pub gates: bool,
}

/// Bounds `compare` shows the two latency percentiles against.  They gate
/// nothing: single same-commit runs on the 2-CPU reference host differ by
/// up to 30 % (p50) and 175 % (p99), so even a larger move is only a hint.
fn ungated_bound(metric: &str) -> f64 {
    match metric {
        "latency_p50_us" => 0.25,
        "latency_p99_us" => 0.60,
        _ => 0.0,
    }
}

/// Judge `a → b` for a metric with direction `better` and bound `bound`;
/// `spread` is the larger recorded window spread of the two runs.
pub fn judge(a: f64, b: f64, better: Better, bound: f64, spread: f64) -> (f64, Verdict) {
    let worsening = match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    };
    let verdict = if worsening > bound {
        Verdict::Regressed
    } else if worsening < -bound {
        Verdict::Improved
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    (worsening, verdict)
}

fn metric_of(doc: &Json, workload: &str, mode: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get(mode)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

fn field_of(doc: &Json, workload: &str, mode: &str, field: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get(mode)?
        .get(field)?
        .as_f64()
}

/// Bounds by metric name, from `BENCHMARK.json`.
pub fn bounds(manifest: &Json) -> Vec<(String, f64)> {
    manifest
        .get("end_to_end")
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .filter_map(|e| {
            Some((
                e.get("name")?.as_str()?.to_string(),
                e.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// All rows for two suite documents.
pub fn rows(a: &Json, b: &Json, manifest: &Json) -> Vec<Row> {
    let bounds = bounds(manifest);
    let mut out = Vec::new();
    let has = |doc: &Json, name: &str| doc.get("workloads").and_then(|w| w.get(name)).is_some();
    for w in &WORKLOADS {
        // A suite run restricted with --workload leaves the others out.
        if !has(a, w.name) && !has(b, w.name) {
            continue;
        }
        let spread = [a, b]
            .into_iter()
            .filter_map(|doc| field_of(doc, w.name, "untraced", "window_spread"))
            .fold(0.0, f64::max);
        for def in END_TO_END {
            let bound = bounds
                .iter()
                .find(|(n, _)| n == def.name)
                .map_or(0.10, |(_, b)| *b);
            let va = metric_of(a, w.name, "untraced", def.name);
            let vb = metric_of(b, w.name, "untraced", def.name);
            let (worsening, verdict) = match (va, vb) {
                (Some(x), Some(y)) if x != 0.0 => {
                    // Window spread describes the windowed throughput
                    // figures; other metrics have no recorded spread.
                    let windowed = matches!(def.name, "throughput_ops_s" | "cpu_us_per_op");
                    let (w, v) =
                        judge(x, y, def.better, bound, if windowed { spread } else { 0.0 });
                    (Some(w), v)
                }
                _ => (None, Verdict::Missing),
            };
            out.push(Row {
                workload: w.name,
                metric: def.name,
                a: va,
                b: vb,
                worsening,
                bound,
                verdict,
                gates: true,
            });
        }
        // End-to-end metrics `BENCHMARK.json` cannot gate.  The latency
        // percentiles are shown against a nominal bound; for the other two
        // any failure, or a different rate step, is a change outright.
        for def in END_TO_END_UNGATED {
            let va = field_of(a, w.name, "untraced", def.name);
            let vb = field_of(b, w.name, "untraced", def.name);
            let bound = ungated_bound(def.name);
            let (worsening, verdict) = match (va, vb) {
                (Some(x), Some(y)) if x == y => (None, Verdict::Unchanged),
                (Some(x), Some(y)) if bound > 0.0 && x != 0.0 => {
                    let (w, v) = judge(x, y, def.better, bound, 0.0);
                    (Some(w), v)
                }
                (Some(x), Some(y)) => {
                    let worse = match def.better {
                        Better::Lower => y > x,
                        Better::Higher => y < x,
                    };
                    (
                        None,
                        if worse {
                            Verdict::Regressed
                        } else {
                            Verdict::Improved
                        },
                    )
                }
                _ => (None, Verdict::Missing),
            };
            out.push(Row {
                workload: w.name,
                metric: def.name,
                a: va,
                b: vb,
                worsening,
                bound,
                verdict,
                gates: bound == 0.0,
            });
        }
    }
    out
}

/// Render rows as a table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<20} {:<26} {:>14} {:>14} {:>9} {:>6}  verdict\n",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    let num = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.4}"));
    for r in rows {
        out.push_str(&format!(
            "{:<20} {:<26} {:>14} {:>14} {:>9} {:>6}  {}{}\n",
            r.workload,
            r.metric,
            num(r.a),
            num(r.b),
            r.worsening
                .map_or("-".to_string(), |w| format!("{:+.1}%", w * 100.0)),
            format!("{:.0}%", r.bound * 100.0),
            r.verdict.as_str(),
            if r.gates { "" } else { " (not gated)" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_direction_bound_and_spread() {
        // Throughput (higher is better) down 12 % against a 10 % bound.
        assert_eq!(
            judge(100.0, 88.0, Better::Higher, 0.10, 0.0).1,
            Verdict::Regressed
        );
        assert_eq!(
            judge(100.0, 112.0, Better::Higher, 0.10, 0.0).1,
            Verdict::Improved
        );
        assert_eq!(
            judge(100.0, 95.0, Better::Higher, 0.10, 0.02).1,
            Verdict::Unchanged
        );
        // Same change, but the windows themselves spread 15 %: cannot tell.
        assert_eq!(
            judge(100.0, 95.0, Better::Higher, 0.10, 0.15).1,
            Verdict::Unresolved
        );
        // Latency (lower is better) up 30 %.
        let (w, v) = judge(10.0, 13.0, Better::Lower, 0.25, 0.0);
        assert!((w - 0.3).abs() < 1e-12);
        assert_eq!(v, Verdict::Regressed);
        assert_eq!(
            judge(10.0, 7.0, Better::Lower, 0.25, 0.0).1,
            Verdict::Improved
        );
    }

    #[test]
    fn rows_cover_every_metric_and_workload() {
        let doc = |tp: f64, failed: f64| {
            let run = Json::object([
                ("window_spread", Json::from(0.01)),
                ("failed_ops_ratio", Json::from(failed)),
                ("max_rate_in_limit_ops_s", Json::from(0.0)),
                (
                    "metrics",
                    Json::object([(
                        "throughput_ops_s",
                        Json::object([("value", Json::from(tp)), ("unit", Json::from("1/s"))]),
                    )]),
                ),
            ]);
            Json::object([(
                "workloads",
                Json::object([("inproc_dram_read", Json::object([("untraced", run)]))]),
            )])
        };
        let manifest = Json::parse(
            r#"{"end_to_end":[{"name":"throughput_ops_s","unit":"1/s","better":"higher","bound":0.05}]}"#,
        )
        .unwrap();
        let rows = rows(&doc(1000.0, 0.0), &doc(900.0, 0.001), &manifest);
        assert_eq!(rows.len(), END_TO_END.len() + END_TO_END_UNGATED.len());
        let find = |m: &str| {
            rows.iter()
                .find(|r| r.workload == "inproc_dram_read" && r.metric == m)
                .unwrap()
        };
        assert_eq!(find("throughput_ops_s").verdict, Verdict::Regressed);
        assert_eq!(find("throughput_ops_s").bound, 0.05);
        assert_eq!(find("failed_ops_ratio").verdict, Verdict::Regressed);
        assert_eq!(find("max_rate_in_limit_ops_s").verdict, Verdict::Unchanged);
        assert_eq!(find("setup_s").verdict, Verdict::Missing);
        assert!(find("failed_ops_ratio").gates && !find("latency_p99_us").gates);
        assert!(render(&rows).contains("REGRESSED"));
    }
}
