//! The benchmark command. Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out PATH]
//! cargo run --release --manifest-path servebench/Cargo.toml -- --compare PARENT CHANGE
//! ```
//!
//! The command `BENCHMARK.json` names is run with `--workload`, `--seed`,
//! `--seconds` (its `run_seconds`) and `--trace` appended. `--seconds`
//! sets how much frozen traffic a run sends; run records carry it, with
//! the rep count and whether the run was traced, and `--compare` pairs
//! only runs that agree on all three.
//!
//! Each rep runs in a fresh process: this binary re-executes itself with
//! `--child` once per (workload, rep) and reads the child's report line.
//! The last line of standard output is the result line `BENCHMARK.json`
//! describes. The exit code is 1 when any answer was wrong, 2 on a usage
//! or I/O error.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use ddpa_obs::JsonValue;
use ddpa_servebench::{aggregate, compare, run_rep, Plan, RepReport, Spec, Workload};

/// Reps of an untraced run; a traced run makes one.
const REPS: usize = 3;

const USAGE: &str = "usage: bench [--workload cold|warm|edit|restart|wide] [--seed N] \
[--seconds S] [--trace [0|1]] [--out PATH]\n       bench --compare PARENT.jsonl CHANGE.jsonl";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    /// Measured seconds of a whole run, split over its reps; in a child,
    /// the rep's share.
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    /// Internal: run one rep in this process and print its report.
    child: bool,
    rep: u64,
    spans: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 12.0,
        trace: false,
        out: None,
        compare: None,
        child: false,
        rep: 0,
        spans: None,
    };
    let mut pending: Option<String> = None;
    while let Some(arg) = pending.take().or_else(|| args.next()) {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                parsed.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                parsed.seed = value("a seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a duration")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                parsed.seconds = s;
            }
            "--trace" => {
                parsed.trace = true;
                match args.next() {
                    Some(v) if v == "0" => parsed.trace = false,
                    Some(v) if v == "1" => {}
                    other => pending = other,
                }
            }
            "--out" => parsed.out = Some(value("a path")?.into()),
            "--spans" => parsed.spans = Some(value("a path")?.into()),
            "--compare" => {
                let a = value("two paths")?;
                parsed.compare = Some((a.into(), value("two paths")?.into()));
            }
            "--child" => parsed.child = true,
            "--rep" => {
                parsed.rep = value("a rep index")?
                    .parse()
                    .map_err(|e| format!("--rep: {e}"))?
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match parse_args(args.into_iter()).and_then(run) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run(args: Args) -> Result<ExitCode, String> {
    if let Some((parent, change)) = &args.compare {
        let read =
            |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
        print!(
            "{}",
            compare::compare(&read(parent)?, &read(change)?, &Spec::builtin())?
        );
        return Ok(ExitCode::SUCCESS);
    }
    if args.child {
        let workload = args.workload.ok_or("--child needs --workload")?;
        let plan = Plan::for_seconds(workload, args.seed, args.rep, args.seconds);
        let report = run_rep(&plan, args.trace, args.spans.as_deref())
            .map_err(|e| format!("{} rep: {e}", workload.name()))?;
        println!("{}", report.to_json());
        return Ok(ExitCode::SUCCESS);
    }

    let spec = Spec::builtin();
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let spans = match (&args.out, args.trace) {
        (Some(out), true) => Some(PathBuf::from(format!("{}.spans.jsonl", out.display()))),
        _ => None,
    };
    let reps = if args.trace { 1 } else { REPS as u64 };
    let mut lines = Vec::new();
    for &workload in &workloads {
        let reports = (0..reps)
            .map(|rep| child(workload, rep, &args, spans.as_deref()))
            .collect::<Result<Vec<_>, _>>()?;
        let run = aggregate(&reports, args.seconds);
        print!("{}", run.render());
        if let Some(out) = &args.out {
            append_line(out, &run.to_json())?;
        }
        lines.push((workload, spec.result_line(&run, args.trace)?));
    }
    let line = match lines.as_slice() {
        [(_, line)] => line.clone(),
        _ => combined(&lines),
    };
    println!("{line}");
    let correct = line.get("correct").and_then(JsonValue::as_bool) == Some(true);
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs one rep in a fresh process and reads its report line.
fn child(
    workload: Workload,
    rep: u64,
    args: &Args,
    spans: Option<&Path>,
) -> Result<RepReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--rep", &rep.to_string()])
        .args(["--seconds", &(args.seconds / REPS as f64).to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if let Some(path) = spans {
        cmd.arg("--spans").arg(path);
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a rep: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} rep exited with {}",
            workload.name(),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("a rep printed nothing")?;
    let value = ddpa_obs::parse_json(last).map_err(|e| format!("rep report: {e}"))?;
    RepReport::from_json(&value).ok_or_else(|| "malformed rep report".to_owned())
}

/// One line for a run over every workload: metric names gain a
/// `<workload>.` prefix.
fn combined(lines: &[(Workload, JsonValue)]) -> JsonValue {
    let sum = |key: &str| {
        lines
            .iter()
            .filter_map(|(_, l)| l.get(key).and_then(JsonValue::as_u64))
            .sum::<u64>()
    };
    let correct = lines
        .iter()
        .all(|(_, l)| l.get("correct").and_then(JsonValue::as_bool) == Some(true));
    let metrics = lines
        .iter()
        .flat_map(|(w, l)| {
            let fields = l
                .get("metrics")
                .and_then(JsonValue::as_object)
                .unwrap_or_default();
            fields
                .iter()
                .map(move |(name, v)| (format!("{}.{name}", w.name()), v.clone()))
        })
        .collect();
    JsonValue::Object(vec![
        ("correct".into(), JsonValue::Bool(correct)),
        ("attempted".into(), JsonValue::U64(sum("attempted"))),
        ("failed".into(), JsonValue::U64(sum("failed"))),
        ("metrics".into(), JsonValue::Object(metrics)),
    ])
}

fn append_line(path: &Path, value: &JsonValue) -> Result<(), String> {
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(file, "{value}").map_err(|e| format!("{}: {e}", path.display()))
}
