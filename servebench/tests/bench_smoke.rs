//! Every workload at a tiny scale, through the library: every answer
//! checks, every metric `BENCHMARK.json` names is emitted with its unit,
//! the traced pass emits the per-layer metrics and a ledger that sums to
//! the traced request time, and the counter block repeats between two
//! runs of the same seed.

use std::time::Duration;

use ddpa_servebench::{aggregate, run_rep, Plan, Spec, Workload};

fn tiny(workload: Workload) -> Plan {
    Plan {
        workload,
        seed: 7,
        rep: 0,
        size: 240,
        units: match workload {
            Workload::Warm => 20,
            _ => 4,
        },
        cap: Duration::from_secs(120),
    }
}

#[test]
fn every_workload_checks_and_reports_every_metric() {
    let spec = Spec::builtin();
    let spans = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("servebench-smoke-{}.jsonl", std::process::id()));
    for workload in Workload::ALL {
        let name = workload.name();
        let plan = tiny(workload);

        let first = run_rep(&plan, false, None).expect("rep runs");
        assert!(first.correct, "{name}: {:?}", first.first_failure);
        assert!(first.attempted > 0, "{name}");
        assert_eq!(first.failed, 0, "{name}");
        let failed = first.metrics.iter().find(|m| m.name == "failed_frac");
        assert_eq!(failed.map(|m| m.value), Some(0.0), "{name}");
        let line = spec.result_line(&aggregate(std::slice::from_ref(&first), 1.0), false);
        line.unwrap_or_else(|e| panic!("{name}: {e}"));

        let again = run_rep(&plan, false, None).expect("rep runs");
        let (mut a, mut b) = (first.counters, again.counters);
        // Allocation counts include the server's connection threads,
        // whose reads split differently from run to run.
        (a.allocs, a.alloc_bytes, b.allocs, b.alloc_bytes) = (0, 0, 0, 0);
        assert_eq!(a, b, "{name}: counters repeat for the same seed");
        assert!(a.queries > 0 && a.work > 0, "{name}: {a:?}");
        // Only `wide` asks for the frame scheduler, once per round.
        let scheduled = if workload == Workload::Wide { 4 } else { 0 };
        assert_eq!(a.parallel, scheduled, "{name}: {a:?}");

        let traced = run_rep(&plan, true, Some(&spans)).expect("traced rep runs");
        assert!(traced.correct, "{name}: {:?}", traced.first_failure);
        let line = spec.result_line(&aggregate(std::slice::from_ref(&traced), 1.0), true);
        line.unwrap_or_else(|e| panic!("{name}: {e}"));
        let ledger: f64 = traced.ledger.iter().map(|r| r.ns_per_request).sum();
        assert!(
            (ledger - traced.request_ns).abs() <= 1e-6 * traced.request_ns,
            "{name}: ledger rows sum to {ledger}, not {}",
            traced.request_ns
        );
    }
    let written = std::fs::read_to_string(&spans).expect("spans were written");
    let _ = std::fs::remove_file(&spans);
    for line in written.lines() {
        let span = ddpa_obs::parse_json(line).expect("a span line is JSON");
        for key in ["name", "req", "start_ns", "end_ns", "parent"] {
            assert!(span.get(key).is_some(), "span lacks {key}: {line}");
        }
    }
}
