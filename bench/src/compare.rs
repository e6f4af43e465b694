//! `compare A.json B.json`: for every workload × end-to-end metric, both
//! medians, their ratio, the bound, and a verdict — `same`, `worse`, or
//! `unresolved` when the runs of either file spread wider than the bound
//! (choosing-metrics §6: report it as unresolved, not as unchanged).

use crate::json::{self, Value};
use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::{iqr_share, median};

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Same,
    Worse,
    Unresolved,
}

#[derive(Debug)]
pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// Wider of the two files' spreads (IQR ÷ median); 0 with one run each.
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Values of `metric` over the untraced runs of `workload` in a result file.
fn values(doc: &Value, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("runs")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
        .filter(|r| r.get("trace").and_then(Value::as_bool) == Some(false))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn spread(v: &mut [f64]) -> f64 {
    if v.len() < 2 {
        0.0
    } else {
        iqr_share(v)
    }
}

/// One row per workload × end-to-end metric present in both files; `a` is
/// the base of every ratio.
pub fn rows(a: &Value, b: &Value) -> Vec<Row> {
    let mut out = Vec::new();
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (mut va, mut vb) = (values(a, w.name, m.name), values(b, w.name, m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&mut va), median(&mut vb));
            let spread = spread(&mut va).max(spread(&mut vb));
            let worse_by = if m.lower_is_better {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let verdict = if spread > m.bound {
                Verdict::Unresolved
            } else if worse_by > m.bound {
                Verdict::Worse
            } else {
                Verdict::Same
            };
            out.push(Row {
                workload: w.name,
                metric: m.name,
                a: ma,
                b: mb,
                spread,
                bound: m.bound,
                verdict,
            });
        }
    }
    out
}

fn disturbed(doc: &Value) -> usize {
    doc.get("runs")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|r| r.get("disturbed").and_then(Value::as_bool) == Some(true))
        .count()
}

/// Print the comparison; `Ok(true)` when no row is `worse`.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let load = |p: &str| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("parse {p}: {e}"))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    let rows = rows(&a, &b);
    if rows.is_empty() {
        return Err("the two files share no workload with end-to-end metrics".to_string());
    }
    println!(
        "{:18} {:16} {:>12} {:>12} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "spread", "bound"
    );
    for r in &rows {
        println!(
            "{:18} {:16} {:12.4} {:12.4} {:9.4} {:7.1}% {:6.1}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.b / r.a,
            100.0 * r.spread,
            100.0 * r.bound,
            match r.verdict {
                Verdict::Same => "same",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    for (path, doc) in [(path_a, &a), (path_b, &b)] {
        match disturbed(doc) {
            0 => {}
            n => println!("note: {n} run(s) in {path} are marked disturbed; re-run them before trusting this table"),
        }
    }
    Ok(rows.iter().all(|r| r.verdict != Verdict::Worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(throughputs: &[f64], setups: &[f64]) -> Value {
        let runs = throughputs
            .iter()
            .zip(setups)
            .map(|(&t, &s)| {
                Value::obj([
                    ("workload", Value::str("lib-read-url2m")),
                    ("trace", Value::Bool(false)),
                    (
                        "metrics",
                        Value::obj([
                            ("throughput_mops", Value::obj([("value", Value::Num(t))])),
                            ("setup_s", Value::obj([("value", Value::Num(s))])),
                        ]),
                    ),
                ])
            })
            .collect();
        Value::obj([("runs", Value::Arr(runs))])
    }

    fn verdict_of<'r>(rows: &'r [Row], metric: &str) -> &'r Verdict {
        &rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn verdicts() {
        let base = file(&[1.00, 1.01, 0.99, 1.00], &[2.0, 2.0, 2.1, 1.9]);
        // Throughput down by a third (higher is better): worse. Set-up equal.
        let slow = file(&[0.66, 0.67, 0.66, 0.65], &[2.0, 2.0, 2.1, 1.9]);
        let r = rows(&base, &slow);
        assert_eq!(r.len(), 2, "only metrics both files carry");
        assert_eq!(verdict_of(&r, "throughput_mops"), &Verdict::Worse);
        assert_eq!(verdict_of(&r, "setup_s"), &Verdict::Same);
        // Faster is not worse.
        assert_eq!(
            verdict_of(&rows(&slow, &base), "throughput_mops"),
            &Verdict::Same
        );
        // Runs that disagree with each other by more than the bound settle nothing.
        let noisy = file(&[0.5, 1.0, 1.5, 2.0], &[2.0, 2.0, 2.1, 1.9]);
        assert_eq!(
            verdict_of(&rows(&base, &noisy), "throughput_mops"),
            &Verdict::Unresolved
        );
        assert!(rows(&base, &Value::obj([("runs", Value::Arr(vec![]))])).is_empty());
    }
}
