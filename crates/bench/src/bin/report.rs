//! Regenerates every table and figure of the evaluation as Markdown.
//!
//! ```text
//! report [--quick|--full] [--json-out <path>] [t1 t2 ... t11 f1 f2 f3 a3]
//! report --history BENCH_A.json BENCH_B.json ...
//! ```
//!
//! With no experiment ids, all experiments run. `--quick` (default) uses
//! the small-suite prefix; `--full` runs the complete suite (minutes).
//! `--json-out <path>` additionally writes a machine-readable summary —
//! per-table medians of the headline metrics — as one JSON object.
//!
//! `--history` runs nothing: it reads several previously written
//! `--json-out` files (e.g. the committed `BENCH_*.json` series) and
//! prints one trajectory table per experiment, metrics as rows and one
//! column per input file, so headline numbers can be compared across PRs.

#![forbid(unsafe_code)]

use std::time::Duration;

use ddpa_bench::render::{count, dur, pct, ratio, table};
use ddpa_bench::*;
use ddpa_gen::Benchmark;
use ddpa_obs::JsonValue;

/// Median of a sample (upper middle for even sizes); 0 when empty.
fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite metrics"));
    v[v.len() / 2]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--history") {
        let files: Vec<&str> = args
            .iter()
            .filter(|a| !a.starts_with("--"))
            .map(String::as_str)
            .collect();
        history(&files);
        return;
    }
    let full = args.iter().any(|a| a == "--full");
    let json_out: Option<String> = args
        .iter()
        .position(|a| a == "--json-out")
        .map(|i| args.get(i + 1).expect("--json-out needs a path").clone());
    let mut skip_next = false;
    let mut wanted: Vec<&str> = Vec::new();
    for a in &args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a == "--json-out" {
            skip_next = true;
        } else if !a.starts_with("--") {
            wanted.push(a.as_str());
        }
    }
    let want = |id: &str| wanted.is_empty() || wanted.contains(&id);

    let benches: Vec<Benchmark> = if full {
        ddpa_gen::suite()
    } else {
        ddpa_gen::quick_suite()
    };
    // Dense-query experiments (every dereference site is a query) always
    // run on the quick suite: on the saturated large programs, inverse
    // (ptb) reasoning makes dense query sets far more expensive than the
    // sparse call-graph client measured by T3.
    let quick: Vec<Benchmark> = ddpa_gen::quick_suite();
    println!(
        "# ddpa evaluation report ({} suite: {})\n",
        if full { "full" } else { "quick" },
        benches
            .iter()
            .map(|b| b.name)
            .collect::<Vec<_>>()
            .join(", ")
    );

    let mut summary: Vec<(String, JsonValue)> = Vec::new();
    let mut run = |id: &str, section: &mut dyn FnMut() -> JsonValue| {
        if want(id) {
            summary.push((id.to_owned(), section()));
        }
    };
    run("t1", &mut || t1(&benches));
    run("t2", &mut || t2(&benches));
    run("t3", &mut || t3(&benches));
    run("t4", &mut || t4(&quick));
    run("t6", &mut || t6());
    run("t8", &mut || t8(&quick));
    run("t9", &mut || t9());
    run("t10", &mut || t10(full));
    run("t11", &mut || t11(full));
    run("f1", &mut || f1(&quick));
    run("f2", &mut || f2(&quick));
    run("f3", &mut || f3(&quick));
    run("a3", &mut || a3(&quick));

    if let Some(path) = json_out {
        let doc = obj(vec![
            ("suite", JsonValue::str(if full { "full" } else { "quick" })),
            ("tables", JsonValue::Object(summary)),
        ]);
        std::fs::write(&path, format!("{doc}\n")).expect("write --json-out file");
        eprintln!("wrote {path}");
    }
}

fn t1(benches: &[Benchmark]) -> JsonValue {
    println!("## T1 — Benchmark characteristics\n");
    let data = run_t1(benches);
    let med = obj(vec![
        (
            "nodes",
            JsonValue::F64(median(data.iter().map(|r| r.stats.nodes as f64).collect())),
        ),
        (
            "assignments",
            JsonValue::F64(median(
                data.iter().map(|r| r.stats.assignments() as f64).collect(),
            )),
        ),
    ]);
    let rows: Vec<Vec<String>> = data
        .into_iter()
        .map(|r| {
            vec![
                r.name.to_owned(),
                count(r.stats.nodes),
                count(r.stats.assignments()),
                count(r.stats.addr_ofs),
                count(r.stats.copies),
                count(r.stats.loads),
                count(r.stats.stores),
                count(r.stats.field_addrs),
                count(r.stats.funcs),
                count(r.stats.direct_calls),
                count(r.stats.indirect_calls),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "program",
                "locations",
                "assignments",
                "addr-of",
                "copy",
                "load",
                "store",
                "field",
                "funcs",
                "direct calls",
                "indirect calls"
            ],
            &rows
        )
    );
    med
}

fn t2(benches: &[Benchmark]) -> JsonValue {
    println!("## T2 — Exhaustive (whole-program) analysis times; A1 — cycle-collapsing ablation\n");
    let data = run_t2(benches);
    let med = obj(vec![
        (
            "solve_ms",
            JsonValue::F64(median(data.iter().map(|r| ms(r.time)).collect())),
        ),
        (
            "solve_no_cycles_ms",
            JsonValue::F64(median(data.iter().map(|r| ms(r.time_no_cycles)).collect())),
        ),
        (
            "propagations",
            JsonValue::F64(median(
                data.iter().map(|r| r.stats.propagations as f64).collect(),
            )),
        ),
    ]);
    let rows: Vec<Vec<String>> = data
        .into_iter()
        .map(|r| {
            vec![
                r.name.to_owned(),
                dur(r.time),
                dur(r.time_no_cycles),
                count(r.stats.propagations as usize),
                count(r.stats.edges_added as usize),
                count(r.stats.nodes_collapsed as usize),
                count(r.total_pts),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "program",
                "solve (cycles on)",
                "solve (cycles off)",
                "propagations",
                "edges",
                "collapsed",
                "Σ|pts|"
            ],
            &rows
        )
    );
    med
}

fn t3(benches: &[Benchmark]) -> JsonValue {
    println!("## T3 — Demand-driven indirect-call resolution vs exhaustive (budget ∞)\n");
    let data = run_t3(benches, None);
    let med = obj(vec![
        (
            "speedup",
            JsonValue::F64(median(data.iter().map(|r| r.speedup).collect())),
        ),
        (
            "fires_per_query",
            JsonValue::F64(median(data.iter().map(|r| r.fires_per_query).collect())),
        ),
        (
            "precision_identical",
            JsonValue::Bool(data.iter().all(|r| r.precision_identical)),
        ),
    ]);
    let rows: Vec<Vec<String>> = data
        .into_iter()
        .map(|r| {
            vec![
                r.name.to_owned(),
                count(r.queries),
                format!("{}/{}", r.resolved, r.queries),
                dur(r.demand_time),
                dur(r.avg_query_time),
                dur(r.exhaustive_time),
                ratio(r.speedup),
                format!("{:.1}", r.fires_per_query),
                match r.work_ratio {
                    Some(w) => format!(
                        "{}/{} ({w:.3}x)",
                        count(r.demand_work as usize),
                        count(r.exhaustive_work as usize)
                    ),
                    None => "n/a".into(),
                },
                format!("{:.2}", r.avg_targets),
                if r.precision_identical {
                    "identical ✓".into()
                } else {
                    "DIFFERS ✗".into()
                },
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "program",
                "queries",
                "resolved",
                "demand total",
                "per query",
                "exhaustive",
                "speedup",
                "fires/query",
                "work d/e",
                "avg targets",
                "precision"
            ],
            &rows
        )
    );
    med
}

fn t4(benches: &[Benchmark]) -> JsonValue {
    println!("## T4 — Caching (memoization) ablation, ≤500 dereference queries\n");
    let data = run_t4(benches, 500);
    let med = obj(vec![
        (
            "work_cached",
            JsonValue::F64(median(data.iter().map(|r| r.work_cached as f64).collect())),
        ),
        (
            "work_uncached",
            JsonValue::F64(median(
                data.iter().map(|r| r.work_uncached as f64).collect(),
            )),
        ),
    ]);
    let rows: Vec<Vec<String>> = data
        .into_iter()
        .map(|r| {
            let speedup = r.time_uncached.as_secs_f64() / r.time_cached.as_secs_f64().max(1e-9);
            vec![
                r.name.to_owned(),
                count(r.queries),
                dur(r.time_cached),
                dur(r.time_uncached),
                ratio(speedup),
                count(r.work_cached as usize),
                count(r.work_uncached as usize),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "program",
                "queries",
                "cached",
                "uncached",
                "speedup",
                "work cached",
                "work uncached"
            ],
            &rows
        )
    );
    med
}

fn t6() -> JsonValue {
    println!("## T6 — Online cycle collapsing (demand engine, cyclic suite)\n");
    let data = run_t6(&[4, 6, 8]);
    let med = obj(vec![
        (
            "work_on",
            JsonValue::F64(median(data.iter().map(|r| r.work_on as f64).collect())),
        ),
        (
            "work_off",
            JsonValue::F64(median(data.iter().map(|r| r.work_off as f64).collect())),
        ),
        (
            "work_reduction",
            JsonValue::F64(median(data.iter().map(|r| r.work_reduction()).collect())),
        ),
        (
            "fires_on",
            JsonValue::F64(median(data.iter().map(|r| r.fires_on as f64).collect())),
        ),
        (
            "fires_off",
            JsonValue::F64(median(data.iter().map(|r| r.fires_off as f64).collect())),
        ),
        (
            "cycles_collapsed",
            JsonValue::F64(median(
                data.iter().map(|r| r.cycles_collapsed as f64).collect(),
            )),
        ),
        (
            "merged_goals",
            JsonValue::F64(median(data.iter().map(|r| r.merged_goals as f64).collect())),
        ),
        (
            "identical",
            JsonValue::Bool(data.iter().all(|r| r.identical)),
        ),
    ]);
    let rows: Vec<Vec<String>> = data
        .into_iter()
        .map(|r| {
            vec![
                r.name.clone(),
                count(r.queries),
                count(r.work_on as usize),
                count(r.work_off as usize),
                ratio(r.work_reduction()),
                count(r.fires_on as usize),
                count(r.fires_off as usize),
                dur(r.time_on),
                dur(r.time_off),
                count(r.cycles_collapsed as usize),
                count(r.merged_goals as usize),
                if r.identical {
                    "identical ✓".into()
                } else {
                    "DIFFERS ✗".into()
                },
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "program",
                "queries",
                "work (on)",
                "work (off)",
                "reduction",
                "fires (on)",
                "fires (off)",
                "time (on)",
                "time (off)",
                "cycles",
                "merged goals",
                "answers"
            ],
            &rows
        )
    );
    med
}

fn t8(benches: &[Benchmark]) -> JsonValue {
    println!("## T8 — Durable snapshots: cold vs restored time-to-first-answer\n");
    let data = run_t8(benches);
    let med = obj(vec![
        (
            "time_cold_ms",
            JsonValue::F64(median(data.iter().map(|r| ms(r.time_cold)).collect())),
        ),
        (
            "time_restored_ms",
            JsonValue::F64(median(data.iter().map(|r| ms(r.time_restored)).collect())),
        ),
        (
            "speedup",
            JsonValue::F64(median(data.iter().map(|r| r.speedup()).collect())),
        ),
        (
            "entries",
            JsonValue::F64(median(data.iter().map(|r| r.entries as f64).collect())),
        ),
        (
            "bytes",
            JsonValue::F64(median(data.iter().map(|r| r.bytes as f64).collect())),
        ),
        (
            "identical",
            JsonValue::Bool(data.iter().all(|r| r.identical)),
        ),
    ]);
    let rows: Vec<Vec<String>> = data
        .into_iter()
        .map(|r| {
            vec![
                r.name.to_owned(),
                count(r.queries),
                count(r.entries),
                count(r.bytes),
                dur(r.time_cold),
                dur(r.time_restored),
                ratio(r.speedup()),
                if r.identical {
                    "identical ✓".into()
                } else {
                    "DIFFERS ✗".into()
                },
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "program",
                "queries",
                "fixpoints",
                "bytes",
                "cold",
                "restored",
                "speedup",
                "answers"
            ],
            &rows
        )
    );
    med
}

fn t9() -> JsonValue {
    println!(
        "## T9 — Flight recorder overhead + critical-path headroom (cyclic suite, cold's MiniC program)\n"
    );
    // Best-of-9: single cyclic runs are ~1ms, so scheduler noise would
    // swamp the few-percent recorder overhead at fewer repeats.
    let data = run_t9(
        &[
            T9Program::Cyclic(4),
            T9Program::Cyclic(6),
            T9Program::Cyclic(8),
            T9Program::MiniC(240),
        ],
        9,
    );
    // The medians stay over the cyclic rows, as in earlier summaries; the
    // MiniC row reports on its own.
    let cyclic: Vec<&T9Row> = data.iter().filter(|r| r.name.starts_with("cyc-")).collect();
    let minic = data.last().expect("MiniC row");
    let med = obj(vec![
        (
            "work",
            JsonValue::F64(median(cyclic.iter().map(|r| r.work as f64).collect())),
        ),
        (
            "span",
            JsonValue::F64(median(cyclic.iter().map(|r| r.span as f64).collect())),
        ),
        (
            "headroom",
            JsonValue::F64(median(cyclic.iter().map(|r| r.headroom).collect())),
        ),
        (
            "flight_recorded",
            JsonValue::F64(median(
                cyclic.iter().map(|r| r.flight_recorded as f64).collect(),
            )),
        ),
        (
            "overhead",
            JsonValue::F64(median(cyclic.iter().map(|r| r.overhead()).collect())),
        ),
        ("minic_overhead", JsonValue::F64(minic.overhead())),
        (
            "minic_events_per_fire",
            JsonValue::F64(minic.events_per_fire()),
        ),
        (
            "identical",
            JsonValue::Bool(data.iter().all(|r| r.identical)),
        ),
    ]);
    let rows: Vec<Vec<String>> = data
        .into_iter()
        .map(|r| {
            vec![
                r.name.clone(),
                count(r.queries),
                count(r.work as usize),
                count(r.span as usize),
                ratio(r.headroom),
                count(r.goals),
                count(r.edges),
                count(r.flight_recorded as usize),
                count(r.flight_dropped as usize),
                format!("{:.3}", r.events_per_fire()),
                dur(r.time_off),
                dur(r.time_on),
                format!("{:+.1}%", r.overhead() * 100.0),
                if r.identical {
                    "identical ✓".into()
                } else {
                    "DIFFERS ✗".into()
                },
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "program",
                "queries",
                "W (work)",
                "S (span)",
                "W/S",
                "goals",
                "edges",
                "recorded",
                "dropped",
                "events/fire",
                "time (off)",
                "time (on)",
                "overhead",
                "answers"
            ],
            &rows
        )
    );
    med
}

fn t10(full: bool) -> JsonValue {
    // At least two workers even on a single-core host: the scheduler
    // path is only taken at workers > 1, and even there it wins on wide
    // programs because frames run collapse-off (the fire-once discipline
    // bounds work without the sequential engine's periodic cycle scans).
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .max(2);
    println!(
        "## T10 — Intra-query parallel scheduler at max threads ({workers} workers), next to the T9 W/S bound\n"
    );
    // The wide suite is the headroom-rich regime (T9's W/S ≫ 1); the
    // cyclic rows pin down that speedup tracks headroom, not threads.
    let data = if full {
        run_t10(&[1_500, 4_000, 12_000], &[6, 8], workers, 5)
    } else {
        run_t10(&[1_500, 4_000], &[6], workers, 5)
    };
    let rich: Vec<&T10Row> = data.iter().filter(|r| r.headroom > 1.5).collect();
    let med = obj(vec![
        ("workers", JsonValue::U64(workers as u64)),
        (
            "headroom",
            JsonValue::F64(median(data.iter().map(|r| r.headroom).collect())),
        ),
        (
            "speedup",
            JsonValue::F64(median(data.iter().map(|r| r.speedup()).collect())),
        ),
        (
            "rich_headroom_speedup",
            JsonValue::F64(median(rich.iter().map(|r| r.speedup()).collect())),
        ),
        (
            "work_ratio",
            JsonValue::F64(median(data.iter().map(|r| r.work_ratio()).collect())),
        ),
        (
            "steals",
            JsonValue::F64(median(data.iter().map(|r| r.steals as f64).collect())),
        ),
        (
            "identical",
            JsonValue::Bool(data.iter().all(|r| r.identical)),
        ),
    ]);
    let rows: Vec<Vec<String>> = data
        .into_iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("pts({})", r.query),
                r.workers.to_string(),
                ratio(r.headroom),
                dur(r.time_seq),
                dur(r.time_par),
                ratio(r.speedup()),
                count(r.work_seq as usize),
                count(r.work_par as usize),
                format!("{:.3}x", r.work_ratio()),
                count(r.steals as usize),
                count(r.parked as usize),
                count(r.wakeups as usize),
                if r.identical {
                    "identical ✓".into()
                } else {
                    "DIFFERS ✗".into()
                },
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "program",
                "query",
                "workers",
                "W/S bound",
                "sequential",
                "parallel",
                "speedup",
                "work seq",
                "work par",
                "work ratio",
                "steals",
                "parked",
                "wakeups",
                "answers"
            ],
            &rows
        )
    );
    med
}

fn t11(full: bool) -> JsonValue {
    println!("## T11 — Edit-heavy sessions: selective invalidation vs full reload\n");
    // Disjoint copy chains; each edit repoints one chain head, so the
    // support-set machinery should keep (chains-1)/chains of the table
    // warm per edit and the re-answer pass should beat a cold engine.
    let data = if full {
        run_t11(&[(16, 64), (48, 96), (96, 128)], 12, 3)
    } else {
        run_t11(&[(16, 64), (48, 96)], 8, 3)
    };
    let med = obj(vec![
        (
            "retained_frac",
            JsonValue::F64(median(data.iter().map(|r| r.retained_frac).collect())),
        ),
        (
            "speedup",
            JsonValue::F64(median(data.iter().map(|r| r.speedup()).collect())),
        ),
        (
            "time_incremental_ms",
            JsonValue::F64(median(
                data.iter().map(|r| ms(r.time_incremental)).collect(),
            )),
        ),
        (
            "time_full_ms",
            JsonValue::F64(median(data.iter().map(|r| ms(r.time_full)).collect())),
        ),
        (
            "identical",
            JsonValue::Bool(data.iter().all(|r| r.identical)),
        ),
    ]);
    let rows: Vec<Vec<String>> = data
        .into_iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.edits.to_string(),
                r.queries.to_string(),
                pct(r.retained_frac),
                count(r.retained),
                count(r.invalidated),
                dur(r.time_incremental),
                dur(r.time_full),
                ratio(r.speedup()),
                if r.identical {
                    "identical ✓".into()
                } else {
                    "DIFFERS ✗".into()
                },
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "workload",
                "edits",
                "queries/edit",
                "retained",
                "goals kept",
                "goals dirtied",
                "incremental",
                "full reload",
                "speedup",
                "answers"
            ],
            &rows
        )
    );
    med
}

fn f1(benches: &[Benchmark]) -> JsonValue {
    println!("## F1 — Per-query cost distribution (rule firings, ≤1000 queries, no cache)\n");
    let data = run_f1(benches, 1000);
    let med = obj(vec![(
        "p50_work",
        JsonValue::F64(median(data.iter().map(|r| r.work.p50 as f64).collect())),
    )]);
    let rows: Vec<Vec<String>> = data
        .into_iter()
        .map(|r| {
            vec![
                r.name.to_owned(),
                count(r.work.count),
                count(r.work.min as usize),
                count(r.work.p50 as usize),
                count(r.work.p90 as usize),
                count(r.work.p99 as usize),
                count(r.work.max as usize),
                format!("{:.0}", r.work.mean()),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &["program", "queries", "min", "p50", "p90", "p99", "max", "mean"],
            &rows
        )
    );
    med
}

fn f2(benches: &[Benchmark]) -> JsonValue {
    println!("## F2 — Cumulative demand time vs #queries (crossover against exhaustive)\n");
    let ks = [1usize, 2, 5, 10, 20, 50, 100, 200, 500, 1000];
    let data = run_f2(benches, &ks);
    let med = obj(vec![(
        "exhaustive_ms",
        JsonValue::F64(median(data.iter().map(|r| ms(r.exhaustive_time)).collect())),
    )]);
    for row in data {
        println!(
            "### {} (exhaustive = {})\n",
            row.name,
            dur(row.exhaustive_time)
        );
        let rows: Vec<Vec<String>> = row
            .points
            .iter()
            .map(|p| {
                let frac =
                    p.demand_time.as_secs_f64() / row.exhaustive_time.as_secs_f64().max(1e-9);
                vec![count(p.k), dur(p.demand_time), ratio(frac)]
            })
            .collect();
        println!(
            "{}",
            table(&["k queries", "demand cumulative", "vs exhaustive"], &rows)
        );
        match row.crossover_k {
            Some(k) => println!("crossover at k ≈ {k}\n"),
            None => println!("no crossover within the sampled range\n"),
        }
    }
    med
}

fn f3(benches: &[Benchmark]) -> JsonValue {
    println!("## F3 — Queries resolved within budget (≤500 queries per program)\n");
    let budgets = [10u64, 100, 1_000, 10_000, 100_000, 1_000_000];
    let data = run_f3(benches, &budgets, 500);
    let med = obj(vec![(
        "max_budget_resolved",
        JsonValue::F64(median(
            data.iter()
                .filter_map(|r| r.points.last().map(|p| p.resolved))
                .collect(),
        )),
    )]);
    for row in data {
        println!("### {}\n", row.name);
        let rows: Vec<Vec<String>> = row
            .points
            .iter()
            .map(|p| {
                vec![
                    count(p.budget as usize),
                    pct(p.resolved),
                    format!("{:.0}", p.avg_work),
                ]
            })
            .collect();
        println!(
            "{}",
            table(&["budget", "resolved", "avg work/query"], &rows)
        );
    }
    med
}

fn a3(benches: &[Benchmark]) -> JsonValue {
    println!("## A3 — Context-sensitivity (k-call-string cloning) ablation\n");
    let data = run_a3(benches, &[0, 1, 2]);
    let med = obj(vec![(
        "ci_total_pts",
        JsonValue::F64(median(data.iter().map(|r| r.ci_total_pts as f64).collect())),
    )]);
    for row in data {
        println!(
            "### {} (context-insensitive Σ|pts| = {})\n",
            row.name,
            count(row.ci_total_pts)
        );
        let rows: Vec<Vec<String>> = row
            .points
            .iter()
            .map(|p| {
                let gain = if row.ci_total_pts == 0 {
                    0.0
                } else {
                    1.0 - p.total_pts as f64 / row.ci_total_pts as f64
                };
                vec![
                    p.k.to_string(),
                    count(p.clones),
                    format!("{:.2}x", p.expansion),
                    dur(p.time),
                    count(p.total_pts),
                    pct(gain),
                ]
            })
            .collect();
        println!(
            "{}",
            table(
                &[
                    "k",
                    "clones",
                    "expansion",
                    "expand+solve",
                    "Σ|pts|",
                    "spurious facts removed"
                ],
                &rows
            )
        );
    }
    med
}

/// Prints per-experiment trajectory tables from several `--json-out`
/// summaries (metric rows × one column per file, in argument order).
/// The heavy lifting lives in [`ddpa_bench::history`] so files missing
/// newer experiments are tolerated and the rendering is unit-tested.
fn history(files: &[&str]) {
    assert!(
        !files.is_empty(),
        "usage: report --history <summary.json> [more.json ...]"
    );
    let docs = ddpa_bench::history::load_summaries(files).unwrap_or_else(|e| panic!("{e}"));
    print!("{}", ddpa_bench::history::trajectory(&docs));
}
