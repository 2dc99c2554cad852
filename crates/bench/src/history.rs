//! The `--history` trajectory report: compares several `--json-out`
//! summaries (the committed `BENCH_*.json` series) experiment by
//! experiment, so headline numbers can be tracked across PRs.

use ddpa_obs::JsonValue;

use crate::render::table;

/// Loads `--json-out` summary files into `(label, document)` pairs.
///
/// The label is the file name with any `.json` suffix stripped
/// (`target/BENCH_3.json` → `BENCH_3`). Unreadable or syntactically
/// invalid files fail the whole load with a message naming the file — a
/// half-rendered trajectory would silently compare the wrong columns.
pub fn load_summaries(files: &[&str]) -> Result<Vec<(String, JsonValue)>, String> {
    files
        .iter()
        .map(|path| {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            let doc = ddpa_obs::parse_json(&text)
                .map_err(|e| format!("`{path}` is not valid JSON: {e}"))?;
            Ok((label_of(path), doc))
        })
        .collect()
}

/// The column label for a summary path: the final path component with
/// its `.json` suffix stripped.
fn label_of(path: &str) -> String {
    path.rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".json")
        .to_owned()
}

/// Renders one numeric (or boolean) summary value for the history table.
fn cell(v: &JsonValue) -> String {
    match v {
        JsonValue::U64(n) => format!("{n}"),
        JsonValue::F64(x) => {
            if x.fract() == 0.0 && x.abs() < 1e15 {
                format!("{x:.0}")
            } else {
                format!("{x:.3}")
            }
        }
        JsonValue::Bool(b) => (if *b { "✓" } else { "✗" }).to_owned(),
        JsonValue::Str(s) => s.clone(),
        _ => "·".to_owned(),
    }
}

/// Renders per-experiment trajectory tables: metric rows × one column
/// per summary, in argument order.
///
/// Summaries from different eras need not agree on coverage: a file
/// missing an experiment (older summaries predate newer tables) or
/// missing a metric within one renders as `·` in that column instead of
/// failing, and experiment/metric order is first-seen across all files.
pub fn trajectory(docs: &[(String, JsonValue)]) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# ddpa benchmark trajectory ({} summaries)\n",
        docs.len()
    );

    // Experiment ids in first-seen order across all files.
    let mut ids: Vec<String> = Vec::new();
    for (_, doc) in docs {
        if let Some(JsonValue::Object(tables)) = doc.get("tables") {
            for (id, _) in tables {
                if !ids.iter().any(|k| k == id) {
                    ids.push(id.clone());
                }
            }
        }
    }

    for id in &ids {
        // Metric names in first-seen order across all files.
        let mut metrics: Vec<String> = Vec::new();
        for (_, doc) in docs {
            if let Some(JsonValue::Object(fields)) = doc.get("tables").and_then(|t| t.get(id)) {
                for (m, _) in fields {
                    if !metrics.iter().any(|k| k == m) {
                        metrics.push(m.clone());
                    }
                }
            }
        }
        if metrics.is_empty() {
            continue;
        }
        let _ = writeln!(out, "## {id}\n");
        let mut header: Vec<&str> = vec!["metric"];
        header.extend(docs.iter().map(|(label, _)| label.as_str()));
        let rows: Vec<Vec<String>> = metrics
            .iter()
            .map(|m| {
                let mut row = vec![m.clone()];
                for (_, doc) in docs {
                    let value = doc
                        .get("tables")
                        .and_then(|t| t.get(id))
                        .and_then(|fields| fields.get(m))
                        .map(cell)
                        .unwrap_or_else(|| "·".to_owned());
                    row.push(value);
                }
                row
            })
            .collect();
        let _ = writeln!(out, "{}", table(&header, &rows));
    }
    out.push_str(&parallelism_section(docs));
    out
}

/// The T9-vs-T10 cross-cut: the critical-path `W/S` *bound* next to the
/// speedup the frame scheduler actually *measured*, one column per
/// summary. Rendered only when at least one summary carries either
/// table; absent values dot out as everywhere else.
fn parallelism_section(docs: &[(String, JsonValue)]) -> String {
    use std::fmt::Write as _;

    let lookup = |doc: &JsonValue, id: &str, metric: &str| {
        doc.get("tables")
            .and_then(|t| t.get(id))
            .and_then(|fields| fields.get(metric))
            .map(cell)
    };
    let rows_spec: [(&str, &str, &str); 5] = [
        ("T9 W/S headroom (bound)", "t9", "headroom"),
        ("T10 measured speedup", "t10", "speedup"),
        (
            "T10 speedup (W/S > 1.5 rows)",
            "t10",
            "rich_headroom_speedup",
        ),
        ("T10 workers", "t10", "workers"),
        ("T10 work ratio (par/seq)", "t10", "work_ratio"),
    ];
    if !docs.iter().any(|(_, doc)| {
        rows_spec
            .iter()
            .any(|(_, id, m)| lookup(doc, id, m).is_some())
    }) {
        return String::new();
    }
    let mut out = String::new();
    let _ = writeln!(out, "## parallelism — headroom bound vs measured speedup\n");
    let mut header: Vec<&str> = vec!["metric"];
    header.extend(docs.iter().map(|(label, _)| label.as_str()));
    let rows: Vec<Vec<String>> = rows_spec
        .iter()
        .map(|(label, id, metric)| {
            let mut row = vec![(*label).to_owned()];
            for (_, doc) in docs {
                row.push(lookup(doc, id, metric).unwrap_or_else(|| "·".to_owned()));
            }
            row
        })
        .collect();
    let _ = writeln!(out, "{}", table(&header, &rows));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(tables: Vec<(&str, Vec<(&str, JsonValue)>)>) -> JsonValue {
        JsonValue::Object(vec![
            ("suite".to_owned(), JsonValue::str("quick")),
            (
                "tables".to_owned(),
                JsonValue::Object(
                    tables
                        .into_iter()
                        .map(|(id, fields)| {
                            (
                                id.to_owned(),
                                JsonValue::Object(
                                    fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect(),
                                ),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn tolerates_files_missing_an_experiment() {
        // The older summary predates t9; its column renders as dots
        // instead of failing the whole report.
        let old = doc(vec![("t6", vec![("work_on", JsonValue::F64(100.0))])]);
        let new = doc(vec![
            ("t6", vec![("work_on", JsonValue::F64(80.0))]),
            (
                "t9",
                vec![
                    ("headroom", JsonValue::F64(2.5)),
                    ("identical", JsonValue::Bool(true)),
                ],
            ),
        ]);
        let out = trajectory(&[("BENCH_old".into(), old), ("BENCH_new".into(), new)]);
        assert!(out.contains("## t6"), "got: {out}");
        assert!(out.contains("## t9"), "got: {out}");
        assert!(out.contains("headroom"), "got: {out}");
        let t9_section = out.split("## t9").nth(1).expect("t9 section");
        assert!(
            t9_section.contains('·'),
            "missing column dotted: {t9_section}"
        );
        assert!(t9_section.contains("2.500"), "got: {t9_section}");
        assert!(t9_section.contains('✓'), "got: {t9_section}");
    }

    #[test]
    fn tolerates_an_experiment_dropped_later() {
        // A newer summary no longer runs t5: the older column keeps its
        // numbers and the newer one renders as dots.
        let old = doc(vec![
            ("t5", vec![("warm_qps", JsonValue::F64(1000.0))]),
            ("t6", vec![("work_on", JsonValue::F64(100.0))]),
        ]);
        let new = doc(vec![("t6", vec![("work_on", JsonValue::F64(100.0))])]);
        let out = trajectory(&[("BENCH_old".into(), old), ("BENCH_new".into(), new)]);
        let row = out
            .lines()
            .find(|l| l.contains("warm_qps"))
            .expect("dropped metric keeps its row");
        assert!(row.contains("1000") && row.contains('·'), "got: {row}");
        assert!(out.contains("## t6"), "got: {out}");
    }

    #[test]
    fn tolerates_metrics_added_later_within_an_experiment() {
        let old = doc(vec![("t6", vec![("work_on", JsonValue::F64(100.0))])]);
        let new = doc(vec![(
            "t6",
            vec![
                ("work_on", JsonValue::F64(80.0)),
                ("merged_goals", JsonValue::F64(12.0)),
            ],
        )]);
        let out = trajectory(&[("a".into(), old), ("b".into(), new)]);
        let merged_row = out
            .lines()
            .find(|l| l.contains("merged_goals"))
            .expect("new metric row present");
        assert!(merged_row.contains('·'), "got: {merged_row}");
        assert!(merged_row.contains("12"), "got: {merged_row}");
    }

    #[test]
    fn parallelism_section_pairs_t9_bound_with_t10_measurement() {
        let old = doc(vec![("t9", vec![("headroom", JsonValue::F64(2.5))])]);
        let new = doc(vec![
            ("t9", vec![("headroom", JsonValue::F64(3.1))]),
            (
                "t10",
                vec![
                    ("workers", JsonValue::U64(8)),
                    ("speedup", JsonValue::F64(2.2)),
                    ("rich_headroom_speedup", JsonValue::F64(2.9)),
                    ("work_ratio", JsonValue::F64(1.0)),
                ],
            ),
        ]);
        let out = trajectory(&[("BENCH_old".into(), old), ("BENCH_new".into(), new)]);
        let section = out
            .split("## parallelism")
            .nth(1)
            .expect("cross-cut section present");
        assert!(section.contains("T9 W/S headroom"), "got: {section}");
        assert!(section.contains("T10 measured speedup"), "got: {section}");
        assert!(section.contains("2.500"), "the bound column: {section}");
        assert!(section.contains("2.200"), "the measured column: {section}");
        let speedup_row = section
            .lines()
            .find(|l| l.contains("T10 measured speedup"))
            .expect("speedup row");
        assert!(
            speedup_row.contains('·'),
            "pre-T10 summaries dot out: {speedup_row}"
        );
    }

    #[test]
    fn no_parallelism_section_without_either_table() {
        let only_t6 = doc(vec![("t6", vec![("work_on", JsonValue::F64(1.0))])]);
        let out = trajectory(&[("a".into(), only_t6)]);
        assert!(!out.contains("## parallelism"), "got: {out}");
    }

    #[test]
    fn labels_strip_directory_and_extension() {
        assert_eq!(label_of("target/bench/BENCH_3.json"), "BENCH_3");
        assert_eq!(label_of("BENCH_3.json"), "BENCH_3");
        assert_eq!(label_of("plain"), "plain");
    }

    #[test]
    fn load_rejects_unreadable_and_invalid_files() {
        let e = load_summaries(&["/nonexistent/summary.json"]).expect_err("missing file");
        assert!(e.contains("cannot read"), "got: {e}");

        let dir = std::env::temp_dir().join("ddpa-bench-history-tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{not json").expect("write");
        let e = load_summaries(&[bad.to_str().expect("utf8 path")]).expect_err("invalid json");
        assert!(e.contains("not valid JSON"), "got: {e}");
    }
}
