//! Every experiment's table, declared once: each column's header next to
//! its cell, and each summary key next to the per-row value it takes the
//! median of. [`crate::render::Table`] prints them all the same way.

use ddpa_obs::JsonValue;

use crate::harness::*;
use crate::render::{
    col, count, dur, identical, ms, pct, ratio, section, Body, Column, Stat, Table,
};

/// T1: program characteristics.
pub fn t1() -> Table<T1Row> {
    Table {
        title: "T1 — Benchmark characteristics".into(),
        body: Body::Rows(vec![
            col("program", |r| r.name.to_owned()),
            col("locations", |r| count(r.stats.nodes)),
            col("assignments", |r| count(r.stats.assignments())),
            col("addr-of", |r| count(r.stats.addr_ofs)),
            col("copy", |r| count(r.stats.copies)),
            col("load", |r| count(r.stats.loads)),
            col("store", |r| count(r.stats.stores)),
            col("field", |r| count(r.stats.field_addrs)),
            col("funcs", |r| count(r.stats.funcs)),
            col("direct calls", |r| count(r.stats.direct_calls)),
            col("indirect calls", |r| count(r.stats.indirect_calls)),
        ]),
        summary: vec![
            Stat::Median("nodes", |r| r.stats.nodes as f64),
            Stat::Median("assignments", |r| r.stats.assignments() as f64),
        ],
    }
}

/// T2 and A1: exhaustive solve times with cycle collapsing on and off.
pub fn t2() -> Table<T2Row> {
    Table {
        title: "T2 — Exhaustive (whole-program) analysis times; A1 — cycle-collapsing ablation"
            .into(),
        body: Body::Rows(vec![
            col("program", |r| r.name.to_owned()),
            col("solve (cycles on)", |r| dur(r.time)),
            col("solve (cycles off)", |r| dur(r.time_no_cycles)),
            col("propagations", |r| count(r.stats.propagations as usize)),
            col("edges", |r| count(r.stats.edges_added as usize)),
            col("collapsed", |r| count(r.stats.nodes_collapsed as usize)),
            col("Σ|pts|", |r| count(r.total_pts)),
        ]),
        summary: vec![
            Stat::Median("solve_ms", |r| ms(r.time)),
            Stat::Median("solve_no_cycles_ms", |r| ms(r.time_no_cycles)),
            Stat::Median("propagations", |r| r.stats.propagations as f64),
        ],
    }
}

/// T3: the demand-driven call graph against the exhaustive one.
pub fn t3() -> Table<T3Row> {
    Table {
        title: "T3 — Demand-driven indirect-call resolution vs exhaustive (budget ∞)".into(),
        body: Body::Rows(vec![
            col("program", |r| r.name.to_owned()),
            col("queries", |r| count(r.queries)),
            col("resolved", |r| format!("{}/{}", r.resolved, r.queries)),
            col("demand total", |r| dur(r.demand_time)),
            col("per query", |r| dur(r.avg_query_time)),
            col("exhaustive", |r| dur(r.exhaustive_time)),
            col("speedup", |r| ratio(r.speedup)),
            col("fires/query", |r| format!("{:.1}", r.fires_per_query)),
            col("work d/e", |r| match r.work_ratio {
                Some(w) => format!(
                    "{}/{} ({w:.3}x)",
                    count(r.demand_work as usize),
                    count(r.exhaustive_work as usize)
                ),
                None => "n/a".into(),
            }),
            col("avg targets", |r| format!("{:.2}", r.avg_targets)),
            col("precision", |r| identical(r.precision_identical)),
        ]),
        summary: vec![
            Stat::Median("speedup", |r| r.speedup),
            Stat::Median("fires_per_query", |r| r.fires_per_query),
            Stat::All("precision_identical", |r| r.precision_identical),
        ],
    }
}

/// T4: the memo table on and off.
pub fn t4() -> Table<T4Row> {
    Table {
        title: "T4 — Caching (memoization) ablation, ≤500 dereference queries".into(),
        body: Body::Rows(vec![
            col("program", |r| r.name.to_owned()),
            col("queries", |r| count(r.queries)),
            col("cached", |r| dur(r.time_cached)),
            col("uncached", |r| dur(r.time_uncached)),
            col("speedup", |r| {
                ratio(r.time_uncached.as_secs_f64() / r.time_cached.as_secs_f64().max(1e-9))
            }),
            col("work cached", |r| count(r.work_cached as usize)),
            col("work uncached", |r| count(r.work_uncached as usize)),
        ]),
        summary: vec![
            Stat::Median("work_cached", |r| r.work_cached as f64),
            Stat::Median("work_uncached", |r| r.work_uncached as f64),
        ],
    }
}

/// T6: online cycle collapsing on and off.
pub fn t6() -> Table<T6Row> {
    Table {
        title: "T6 — Online cycle collapsing (demand engine, cyclic suite)".into(),
        body: Body::Rows(vec![
            col("program", |r| r.name.clone()),
            col("queries", |r| count(r.queries)),
            col("work (on)", |r| count(r.work_on as usize)),
            col("work (off)", |r| count(r.work_off as usize)),
            col("reduction", |r| ratio(r.work_reduction())),
            col("fires (on)", |r| count(r.fires_on as usize)),
            col("fires (off)", |r| count(r.fires_off as usize)),
            col("time (on)", |r| dur(r.time_on)),
            col("time (off)", |r| dur(r.time_off)),
            col("cycles", |r| count(r.cycles_collapsed as usize)),
            col("merged goals", |r| count(r.merged_goals as usize)),
            col("answers", |r| identical(r.identical)),
        ]),
        summary: vec![
            Stat::Median("work_on", |r| r.work_on as f64),
            Stat::Median("work_off", |r| r.work_off as f64),
            Stat::Median("work_reduction", |r| r.work_reduction()),
            Stat::Median("fires_on", |r| r.fires_on as f64),
            Stat::Median("fires_off", |r| r.fires_off as f64),
            Stat::Median("cycles_collapsed", |r| r.cycles_collapsed as f64),
            Stat::Median("merged_goals", |r| r.merged_goals as f64),
            Stat::All("identical", |r| r.identical),
        ],
    }
}

/// T8: cold against snapshot-restored time to first answer.
pub fn t8() -> Table<T8Row> {
    Table {
        title: "T8 — Durable snapshots: cold vs restored time-to-first-answer".into(),
        body: Body::Rows(vec![
            col("program", |r| r.name.to_owned()),
            col("queries", |r| count(r.queries)),
            col("fixpoints", |r| count(r.entries)),
            col("bytes", |r| count(r.bytes)),
            col("cold", |r| dur(r.time_cold)),
            col("restored", |r| dur(r.time_restored)),
            col("speedup", |r| ratio(r.speedup())),
            col("answers", |r| identical(r.identical)),
        ]),
        summary: vec![
            Stat::Median("time_cold_ms", |r| ms(r.time_cold)),
            Stat::Median("time_restored_ms", |r| ms(r.time_restored)),
            Stat::Median("speedup", |r| r.speedup()),
            Stat::Median("entries", |r| r.entries as f64),
            Stat::Median("bytes", |r| r.bytes as f64),
            Stat::All("identical", |r| r.identical),
        ],
    }
}

/// The T9 rows whose medians the summary reports; the MiniC row reports
/// on its own (`minic_*`).
fn cyclic(r: &T9Row) -> bool {
    r.name.starts_with("cyc-")
}

/// T9: flight-recorder overhead and critical-path headroom.
pub fn t9() -> Table<T9Row> {
    Table {
        title: "T9 — Flight recorder overhead + critical-path headroom (cyclic suite, cold's MiniC program)"
            .into(),
        body: Body::Rows(vec![
            col("program", |r| r.name.clone()),
            col("queries", |r| count(r.queries)),
            col("W (work)", |r| count(r.work as usize)),
            col("S (span)", |r| count(r.span as usize)),
            col("W/S", |r| ratio(r.headroom)),
            col("goals", |r| count(r.goals)),
            col("edges", |r| count(r.edges)),
            col("recorded", |r| count(r.flight_recorded as usize)),
            col("dropped", |r| count(r.flight_dropped as usize)),
            col("events/fire", |r| format!("{:.3}", r.events_per_fire())),
            col("time (off)", |r| dur(r.time_off)),
            col("time (on)", |r| dur(r.time_on)),
            col("overhead", |r| format!("{:+.1}%", r.overhead() * 100.0)),
            col("answers", |r| identical(r.identical)),
        ]),
        summary: vec![
            Stat::MedianOf("work", |r| cyclic(r).then_some(r.work as f64)),
            Stat::MedianOf("span", |r| cyclic(r).then_some(r.span as f64)),
            Stat::MedianOf("headroom", |r| cyclic(r).then_some(r.headroom)),
            Stat::MedianOf("flight_recorded", |r| {
                cyclic(r).then_some(r.flight_recorded as f64)
            }),
            Stat::MedianOf("overhead", |r| cyclic(r).then(|| r.overhead())),
            Stat::MedianOf("minic_overhead", |r| {
                r.name.starts_with("minic-").then(|| r.overhead())
            }),
            Stat::MedianOf("minic_events_per_fire", |r| {
                r.name.starts_with("minic-").then(|| r.events_per_fire())
            }),
            Stat::All("identical", |r| r.identical),
        ],
    }
}

/// T10: one query on the frame scheduler at `workers` threads.
pub fn t10(workers: usize) -> Table<T10Row> {
    Table {
        title: format!(
            "T10 — Intra-query parallel scheduler at max threads ({workers} workers), next to the T9 W/S bound"
        ),
        body: Body::Rows(vec![
            col("program", |r| r.name.clone()),
            col("query", |r| format!("pts({})", r.query)),
            col("workers", |r| r.workers.to_string()),
            col("W/S bound", |r| ratio(r.headroom)),
            col("sequential", |r| dur(r.time_seq)),
            col("parallel", |r| dur(r.time_par)),
            col("speedup", |r| ratio(r.speedup())),
            col("work seq", |r| count(r.work_seq as usize)),
            col("work par", |r| count(r.work_par as usize)),
            col("work ratio", |r| format!("{:.3}x", r.work_ratio())),
            col("steals", |r| count(r.steals as usize)),
            col("parked", |r| count(r.parked as usize)),
            col("wakeups", |r| count(r.wakeups as usize)),
            col("answers", |r| identical(r.identical)),
        ]),
        summary: vec![
            Stat::Fixed("workers", JsonValue::U64(workers as u64)),
            Stat::Median("headroom", |r| r.headroom),
            Stat::Median("speedup", |r| r.speedup()),
            Stat::MedianOf("rich_headroom_speedup", |r| {
                (r.headroom > 1.5).then(|| r.speedup())
            }),
            Stat::Median("work_ratio", |r| r.work_ratio()),
            Stat::Median("steals", |r| r.steals as f64),
            Stat::All("identical", |r| r.identical),
        ],
    }
}

/// T11: selective invalidation against a full reload per edit.
pub fn t11() -> Table<T11Row> {
    Table {
        title: "T11 — Edit-heavy sessions: selective invalidation vs full reload".into(),
        body: Body::Rows(vec![
            col("workload", |r| r.name.clone()),
            col("edits", |r| r.edits.to_string()),
            col("queries/edit", |r| r.queries.to_string()),
            col("retained", |r| pct(r.retained_frac)),
            col("goals kept", |r| count(r.retained)),
            col("goals dirtied", |r| count(r.invalidated)),
            col("incremental", |r| dur(r.time_incremental)),
            col("full reload", |r| dur(r.time_full)),
            col("speedup", |r| ratio(r.speedup())),
            col("answers", |r| identical(r.identical)),
        ]),
        summary: vec![
            Stat::Median("retained_frac", |r| r.retained_frac),
            Stat::Median("speedup", |r| r.speedup()),
            Stat::Median("time_incremental_ms", |r| ms(r.time_incremental)),
            Stat::Median("time_full_ms", |r| ms(r.time_full)),
            Stat::All("identical", |r| r.identical),
        ],
    }
}

/// F1: the per-query work distribution.
pub fn f1() -> Table<F1Row> {
    Table {
        title: "F1 — Per-query cost distribution (rule firings, ≤1000 queries, no cache)".into(),
        body: Body::Rows(vec![
            col("program", |r| r.name.to_owned()),
            col("queries", |r| count(r.work.count)),
            col("min", |r| count(r.work.min as usize)),
            col("p50", |r| count(r.work.p50 as usize)),
            col("p90", |r| count(r.work.p90 as usize)),
            col("p99", |r| count(r.work.p99 as usize)),
            col("max", |r| count(r.work.max as usize)),
            col("mean", |r| format!("{:.0}", r.work.mean())),
        ]),
        summary: vec![Stat::Median("p50_work", |r| r.work.p50 as f64)],
    }
}

/// F2: cumulative demand time against the exhaustive solve, one curve
/// per program.
pub fn f2() -> Table<F2Row> {
    Table {
        title: "F2 — Cumulative demand time vs #queries (crossover against exhaustive)".into(),
        body: Body::Sections(|r| {
            let columns: [Column<(&F2Row, &F2Point)>; 3] = [
                col("k queries", |(_, p)| count(p.k)),
                col("demand cumulative", |(_, p)| dur(p.demand_time)),
                col("vs exhaustive", |(r, p)| {
                    ratio(p.demand_time.as_secs_f64() / r.exhaustive_time.as_secs_f64().max(1e-9))
                }),
            ];
            let points: Vec<_> = r.points.iter().map(|p| (r, p)).collect();
            let heading = format!("{} (exhaustive = {})", r.name, dur(r.exhaustive_time));
            let crossover = match r.crossover_k {
                Some(k) => format!("crossover at k ≈ {k}"),
                None => "no crossover within the sampled range".to_owned(),
            };
            format!("{}{crossover}\n\n", section(&heading, &columns, &points))
        }),
        summary: vec![Stat::Median("exhaustive_ms", |r| ms(r.exhaustive_time))],
    }
}

/// F3: the share of queries resolved under each budget, one sweep per
/// program.
pub fn f3() -> Table<F3Row> {
    Table {
        title: "F3 — Queries resolved within budget (≤500 queries per program)".into(),
        body: Body::Sections(|r| {
            let columns: [Column<F3Point>; 3] = [
                col("budget", |p| count(p.budget as usize)),
                col("resolved", |p| pct(p.resolved)),
                col("avg work/query", |p| format!("{:.0}", p.avg_work)),
            ];
            section(r.name, &columns, &r.points)
        }),
        summary: vec![Stat::MedianOf("max_budget_resolved", |r| {
            r.points.last().map(|p| p.resolved)
        })],
    }
}

/// A3: k-call-string cloning, one sweep per program.
pub fn a3() -> Table<A3Row> {
    Table {
        title: "A3 — Context-sensitivity (k-call-string cloning) ablation".into(),
        body: Body::Sections(|r| {
            let columns: [Column<(&A3Row, &A3Point)>; 6] = [
                col("k", |(_, p)| p.k.to_string()),
                col("clones", |(_, p)| count(p.clones)),
                col("expansion", |(_, p)| format!("{:.2}x", p.expansion)),
                col("expand+solve", |(_, p)| dur(p.time)),
                col("Σ|pts|", |(_, p)| count(p.total_pts)),
                col("spurious facts removed", |(r, p)| {
                    pct(if r.ci_total_pts == 0 {
                        0.0
                    } else {
                        1.0 - p.total_pts as f64 / r.ci_total_pts as f64
                    })
                }),
            ];
            let points: Vec<_> = r.points.iter().map(|p| (r, p)).collect();
            let heading = format!(
                "{} (context-insensitive Σ|pts| = {})",
                r.name,
                count(r.ci_total_pts)
            );
            section(&heading, &columns, &points)
        }),
        summary: vec![Stat::Median("ci_total_pts", |r| r.ci_total_pts as f64)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiments_md_holds_the_full_suite_t1_table() {
        let table = t1().markdown(&run_t1(&ddpa_gen::suite()));
        assert!(
            include_str!("../../../EXPERIMENTS.md").contains(&table),
            "EXPERIMENTS.md's T1 table differs from `report --full t1`:\n{table}"
        );
    }

    #[test]
    fn t1_and_t6_summaries_match_bench_15() {
        // Both summaries are deterministic counts, so `--history` can set
        // them next to the committed BENCH_15.json.
        let doc = ddpa_obs::parse_json(include_str!("../../../BENCH_15.json")).expect("parses");
        let pinned = |id: &str| {
            let summary = doc.get("tables").and_then(|t| t.get(id));
            summary.expect("BENCH_15 has the table").to_string()
        };
        let t1_rows = run_t1(&ddpa_gen::quick_suite());
        assert_eq!(t1().summary(&t1_rows).to_string(), pinned("t1"));
        assert_eq!(t6().summary(&run_t6(&[4, 6, 8])).to_string(), pinned("t6"));
    }
}
