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
//! per-table medians of the headline metrics — as one JSON object. Each
//! table, with its summary, is declared once in `ddpa_bench::tables`.
//!
//! `--history` runs nothing: it reads several previously written
//! `--json-out` files (e.g. the committed `BENCH_*.json` series) and
//! prints one trajectory table per experiment, metrics as rows and one
//! column per input file, so headline numbers can be compared across PRs.

#![forbid(unsafe_code)]

use ddpa_bench::*;
use ddpa_gen::Benchmark;
use ddpa_obs::JsonValue;

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
    run("t1", &mut || tables::t1().print(&run_t1(&benches)));
    run("t2", &mut || tables::t2().print(&run_t2(&benches)));
    run("t3", &mut || tables::t3().print(&run_t3(&benches, None)));
    run("t4", &mut || tables::t4().print(&run_t4(&quick, 500)));
    run("t6", &mut || tables::t6().print(&run_t6(&[4, 6, 8])));
    run("t8", &mut || tables::t8().print(&run_t8(&quick)));
    // Best-of-9: single cyclic runs are ~1ms, so scheduler noise would
    // swamp the few-percent recorder overhead at fewer repeats.
    run("t9", &mut || {
        let programs = [
            T9Program::Cyclic(4),
            T9Program::Cyclic(6),
            T9Program::Cyclic(8),
            T9Program::MiniC(240),
        ];
        tables::t9().print(&run_t9(&programs, 9))
    });
    run("t10", &mut || {
        // At least two workers even on a single-core host: the scheduler
        // path is only taken at workers > 1, and even there it wins on
        // wide programs because frames run collapse-off (the fire-once
        // discipline bounds work without the sequential engine's
        // periodic cycle scans).
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .max(2);
        // The wide suite is the headroom-rich regime (T9's W/S ≫ 1); the
        // cyclic rows pin down that speedup tracks headroom, not threads.
        let rows = if full {
            run_t10(&[1_500, 4_000, 12_000], &[6, 8], workers, 5)
        } else {
            run_t10(&[1_500, 4_000], &[6], workers, 5)
        };
        tables::t10(workers).print(&rows)
    });
    run("t11", &mut || {
        // Disjoint copy chains; each edit repoints one chain head, so the
        // support-set machinery should keep (chains-1)/chains of the
        // table warm per edit and the re-answer pass should beat a cold
        // engine.
        let rows = if full {
            run_t11(&[(16, 64), (48, 96), (96, 128)], 12, 3)
        } else {
            run_t11(&[(16, 64), (48, 96)], 8, 3)
        };
        tables::t11().print(&rows)
    });
    run("f1", &mut || tables::f1().print(&run_f1(&quick, 1000)));
    run("f2", &mut || {
        let ks = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000];
        tables::f2().print(&run_f2(&quick, &ks))
    });
    run("f3", &mut || {
        let budgets = [10, 100, 1_000, 10_000, 100_000, 1_000_000];
        tables::f3().print(&run_f3(&quick, &budgets, 500))
    });
    run("a3", &mut || {
        tables::a3().print(&run_a3(&quick, &[0, 1, 2]))
    });

    if let Some(path) = json_out {
        let doc = JsonValue::Object(vec![
            (
                "suite".to_owned(),
                JsonValue::str(if full { "full" } else { "quick" }),
            ),
            ("tables".to_owned(), JsonValue::Object(summary)),
        ]);
        std::fs::write(&path, format!("{doc}\n")).expect("write --json-out file");
        eprintln!("wrote {path}");
    }
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
