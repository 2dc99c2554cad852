//! `--compare PARENT CHANGE`: one verdict per workload and metric between
//! two sets of run records (`--out` files), by the rule the benchmark
//! guide states: compare medians; a gain needs the change to win at least
//! nine tenths of the pairs and to move the median by more than the
//! parent's own quartile spread; a metric whose parent spread exceeds its
//! bound is unresolved unless every change run beats every parent run.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ddpa_obs::JsonValue;

use crate::{digits, median, number, Spec};

/// Bound for a metric `BENCHMARK.json` does not list (the workload-specific
/// ones): ±10%.
const DEFAULT_BOUND: f64 = 0.10;

/// One run record, reduced to what comparing needs.
struct Record {
    workload: String,
    seed: u64,
    /// Measured seconds, reps and tracing: runs that differ in them sent
    /// different traffic.
    shape: (f64, u64, bool),
    metrics: BTreeMap<String, f64>,
    counters: BTreeMap<String, u64>,
}

impl Record {
    /// Whether `other` measured the same inputs.
    fn pairs_with(&self, other: &Record) -> bool {
        self.workload == other.workload && self.seed == other.seed && self.shape == other.shape
    }
}

fn records(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let v = ddpa_obs::parse_json(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            let bad = || format!("line {}: not a run record", i + 1);
            let fields = |key: &str| v.get(key).and_then(JsonValue::as_object).ok_or_else(bad);
            Ok(Record {
                workload: v
                    .get("workload")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(bad)?
                    .to_owned(),
                seed: v.get("seed").and_then(JsonValue::as_u64).ok_or_else(bad)?,
                shape: (
                    v.get("seconds").and_then(number).ok_or_else(bad)?,
                    v.get("reps").and_then(JsonValue::as_u64).ok_or_else(bad)?,
                    v.get("traced")
                        .and_then(JsonValue::as_bool)
                        .ok_or_else(bad)?,
                ),
                metrics: fields("metrics")?
                    .iter()
                    .filter_map(|(k, m)| Some((k.clone(), number(m.get("value")?)?)))
                    .collect(),
                counters: fields("counters")?
                    .iter()
                    .filter_map(|(k, c)| Some((k.clone(), c.as_u64()?)))
                    .collect(),
            })
        })
        .collect()
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default, exclusive method); `None` below two
/// values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Pairs a gain must rest on.
const MIN_PAIRS: usize = 10;

/// The verdict on one metric: `parent` and `change` hold one value per
/// run, paired by index.
pub fn verdict(parent: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> &'static str {
    let better = |b: f64, a: f64| if higher_is_better { b > a } else { b < a };
    let Some((q1, q3)) = quartiles(parent) else {
        return "unresolved";
    };
    if change.len() < 2 {
        return "unresolved";
    }
    let (ma, mb) = (median(parent), median(change));
    let spread = q3 - q1;
    let gain = if parent.len().min(change.len()) >= MIN_PAIRS {
        "improved"
    } else {
        "unresolved"
    };
    let all_better = change.iter().all(|&b| parent.iter().all(|&a| better(b, a)));
    let all_worse = change.iter().all(|&b| parent.iter().all(|&a| better(a, b)));
    if spread > bound * ma.abs() {
        return if all_better {
            gain
        } else if all_worse {
            "worse"
        } else {
            "unresolved"
        };
    }
    let pairs: Vec<(f64, f64)> = parent.iter().copied().zip(change.iter().copied()).collect();
    let wins = pairs.iter().filter(|&&(a, b)| better(b, a)).count();
    if wins * 10 >= pairs.len() * 9 && (mb - ma).abs() > spread && better(mb, ma) {
        gain
    } else if better(ma, mb) && (mb - ma).abs() > bound * ma.abs() {
        "worse"
    } else {
        "unchanged"
    }
}

/// Renders the comparison of two record files' contents.
pub fn compare(parent: &str, change: &str, spec: &Spec) -> Result<String, String> {
    let (a, b) = (records(parent)?, records(change)?);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:<28} {:>14} {:>14} {:>9} {:>6} {:>7}  verdict",
        "workload", "metric", "parent", "change", "change", "wins", "bound"
    );
    let mut workloads: Vec<&str> = a.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    for w in workloads {
        // Pair runs by seed, seconds, reps and tracing, so each pair
        // measured the same inputs.
        let mut pairs: Vec<(&Record, &Record)> = Vec::new();
        for ra in a.iter().filter(|r| r.workload == w) {
            if let Some(rb) = b.iter().find(|rb| ra.pairs_with(rb)) {
                pairs.push((ra, rb));
            }
        }
        if pairs.is_empty() {
            let _ = writeln!(
                out,
                "{w:<8} (no run of the change shares a seed, seconds, reps and tracing with the parent)"
            );
            continue;
        }
        // `host_slowdown` describes the host, not the program.
        for name in pairs[0].0.metrics.keys().filter(|n| *n != "host_slowdown") {
            let values: Option<Vec<(f64, f64)>> = pairs
                .iter()
                .map(|(ra, rb)| Some((*ra.metrics.get(name)?, *rb.metrics.get(name)?)))
                .collect();
            let Some(values) = values else { continue };
            let (pa, pb): (Vec<f64>, Vec<f64>) = values.into_iter().unzip();
            let declared = spec.end_to_end.iter().find(|m| &m.name == name);
            let higher = declared.map_or(name == "qps", |m| m.higher_is_better);
            let bound = declared.and_then(|m| m.bound).unwrap_or(DEFAULT_BOUND);
            let better = |x: f64, y: f64| if higher { x > y } else { x < y };
            let wins = pa.iter().zip(&pb).filter(|&(&x, &y)| better(y, x)).count();
            let (ma, mb) = (median(&pa), median(&pb));
            let change = if ma == mb { 0.0 } else { mb / ma - 1.0 };
            let _ = writeln!(
                out,
                "{w:<8} {name:<28} {:>14} {:>14} {:>+8.2}% {:>6} {:>6.0}%  {}",
                digits(ma),
                digits(mb),
                100.0 * change,
                format!("{wins}/{}", pa.len()),
                100.0 * bound,
                verdict(&pa, &pb, higher, bound)
            );
        }
        // Allocation counts include the server's connection threads, whose
        // reads split differently from run to run.
        let changed: Vec<&String> = pairs[0]
            .0
            .counters
            .keys()
            .filter(|k| !k.starts_with("alloc"))
            .filter(|k| {
                pairs
                    .iter()
                    .any(|(ra, rb)| ra.counters.get(*k) != rb.counters.get(*k))
            })
            .collect();
        let counters = if changed.is_empty() {
            "unchanged".to_owned()
        } else {
            format!(
                "changed: {}",
                changed
                    .iter()
                    .map(|k| k.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        };
        let _ = writeln!(out, "{w:<8} {:<28} counters {counters}", "counter block");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
    }

    #[test]
    fn runs_pair_only_when_they_sent_the_same_traffic() {
        let record = |seconds: f64, traced: bool| {
            format!(
                r#"{{"workload":"warm","seed":3,"seconds":{seconds},"reps":3,"traced":{traced},"metrics":{{"qps":{{"value":100.0}}}},"counters":{{"work":0}}}}"#
            )
        };
        let spec = Spec::builtin();
        let paired = compare(&record(12.0, false), &record(12.0, false), &spec).unwrap();
        assert!(paired.contains("qps"), "{paired}");
        for other in [record(6.0, false), record(12.0, true)] {
            let refused = compare(&record(12.0, false), &other, &spec).unwrap();
            assert!(!refused.contains("qps"), "{refused}");
            assert!(refused.contains("no run of the change"), "{refused}");
        }
    }

    #[test]
    fn verdicts_follow_the_pair_rule() {
        let parent = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        let faster: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&parent, &faster, true, 0.1), "improved");
        let slower: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&parent, &slower, true, 0.1), "worse");
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        assert_eq!(verdict(&parent, &same, true, 0.1), "unchanged");
        let noisy = [
            50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(verdict(&noisy, &same, true, 0.1), "unresolved");
        assert_eq!(verdict(&parent[..3], &faster[..3], true, 0.1), "unresolved");
    }
}
