//! End-to-end tests over real sockets on 127.0.0.1:0.
//!
//! Covers the acceptance criteria of the server PR: batch answers
//! identical to a direct engine, warm-cache hits on repeated batches,
//! no stale answers after `add-constraints`, malformed/truncated/
//! oversized rejection, backpressure, and clean shutdown.

use std::collections::BTreeSet;
use std::net::TcpStream;
use std::thread::JoinHandle;

use ddpa_obs::{JsonValue, Obs};
use ddpa_serve::proto::{build, QuerySpec};
use ddpa_serve::{Client, ServeConfig, Server};

struct TestServer {
    addr: std::net::SocketAddr,
    handle: ddpa_serve::ServerHandle,
    obs: Obs,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl TestServer {
    fn start(config: ServeConfig) -> TestServer {
        let obs = Obs::new();
        let server = Server::bind("127.0.0.1:0", config, obs.clone()).expect("bind 127.0.0.1:0");
        let addr = server.local_addr();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        TestServer {
            addr,
            handle,
            obs,
            thread: Some(thread),
        }
    }

    fn client(&self) -> Client {
        Client::connect(self.addr).expect("connect to test server")
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            t.join().expect("server thread").expect("server run");
        }
    }
}

fn ok(v: &JsonValue) -> bool {
    v.get("ok").and_then(JsonValue::as_bool) == Some(true)
}

fn error_code(v: &JsonValue) -> &str {
    v.get("error")
        .and_then(|e| e.get("code"))
        .and_then(JsonValue::as_str)
        .unwrap_or("<no error code>")
}

fn result_pts(v: &JsonValue) -> BTreeSet<String> {
    v.get("pts")
        .and_then(JsonValue::as_array)
        .expect("result has pts")
        .iter()
        .map(|s| s.as_str().expect("pts entries are strings").to_string())
        .collect()
}

#[test]
fn ping_stats_and_clean_shutdown() {
    let server = TestServer::start(ServeConfig::default());
    let mut c = server.client();
    let resp = c.request(&build::ping()).expect("ping");
    assert!(ok(&resp), "{resp}");
    let stats = c.request(&build::stats()).expect("stats");
    assert!(ok(&stats));
    assert!(stats.get("sessions").is_some());
    let resp = c
        .request(&build::shutdown())
        .expect("shutdown is acknowledged");
    assert!(ok(&resp), "{resp}");
    // Drop joins the server thread; a hang here fails the test by timeout.
}

#[test]
fn open_query_close_lifecycle() {
    let server = TestServer::start(ServeConfig::default());
    let mut c = server.client();
    let resp = c
        .request(&build::open("s", "p = &o\nq = p\n", false, None))
        .expect("open");
    assert!(ok(&resp), "{resp}");
    assert_eq!(resp.get("generation").and_then(JsonValue::as_u64), Some(0));

    // Duplicate open is rejected.
    let resp = c
        .request(&build::open("s", "p = &o\n", false, None))
        .expect("duplicate open answered");
    assert!(!ok(&resp));
    assert_eq!(error_code(&resp), "session-exists");

    let q = QuerySpec::PointsTo { name: "q".into() };
    let resp = c
        .request(&build::query("s", &q, None, None))
        .expect("query");
    assert!(ok(&resp), "{resp}");
    let result = resp.get("result").expect("has result");
    assert_eq!(result_pts(result), BTreeSet::from(["o".to_string()]));
    assert_eq!(
        result.get("complete").and_then(JsonValue::as_bool),
        Some(true)
    );

    // Unknown node and unknown session produce their own codes.
    let ghost = QuerySpec::PointsTo {
        name: "ghost".into(),
    };
    let resp = c
        .request(&build::query("s", &ghost, None, None))
        .expect("answered");
    assert_eq!(error_code(&resp), "no-node");
    let resp = c
        .request(&build::query("nope", &q, None, None))
        .expect("answered");
    assert_eq!(error_code(&resp), "no-session");

    let resp = c.request(&build::close("s")).expect("close");
    assert!(ok(&resp));
    let resp = c
        .request(&build::close("s"))
        .expect("double close answered");
    assert_eq!(error_code(&resp), "no-session");
}

#[test]
fn malformed_truncated_and_oversized_lines() {
    let config = ServeConfig {
        max_line_bytes: 256,
        ..ServeConfig::default()
    };
    let server = TestServer::start(config);

    let mut c = server.client();
    // Malformed JSON gets bad-json and the connection stays usable.
    let resp = c.roundtrip_line("{not json").expect("answered");
    let v = ddpa_obs::parse_json(&resp).expect("response is JSON");
    assert_eq!(error_code(&v), "bad-json");
    // Well-formed JSON, invalid request shape.
    let resp = c.roundtrip_line("[1,2,3]").expect("answered");
    let v = ddpa_obs::parse_json(&resp).expect("response is JSON");
    assert_eq!(error_code(&v), "bad-request");
    // Unknown op.
    let resp = c
        .roundtrip_line("{\"op\":\"frobnicate\"}")
        .expect("answered");
    let v = ddpa_obs::parse_json(&resp).expect("response is JSON");
    assert_eq!(error_code(&v), "unknown-op");

    // Oversized line: rejected, then the same connection resyncs and
    // answers the next request normally.
    let huge = format!("{{\"op\":\"ping\",\"pad\":\"{}\"}}", "x".repeat(512));
    let resp = c.roundtrip_line(&huge).expect("answered");
    let v = ddpa_obs::parse_json(&resp).expect("response is JSON");
    assert_eq!(error_code(&v), "oversized");
    let resp = c
        .request(&build::ping())
        .expect("connection survived oversize");
    assert!(ok(&resp), "{resp}");

    // Truncated frame: bytes then EOF without a newline.
    let mut raw = TcpStream::connect(server.addr).expect("connect");
    use std::io::{Read, Write};
    raw.write_all(b"{\"op\":\"ping\"").expect("partial write");
    raw.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut response = String::new();
    raw.read_to_string(&mut response).expect("read response");
    let line = response.lines().next().expect("got a response line");
    let v = ddpa_obs::parse_json(line).expect("response is JSON");
    assert_eq!(error_code(&v), "bad-request");
    assert!(
        v.get("error")
            .and_then(|e| e.get("message"))
            .and_then(JsonValue::as_str)
            .unwrap_or("")
            .contains("truncated"),
        "{v}"
    );
}

#[test]
fn connection_limit_sheds_with_busy() {
    let config = ServeConfig {
        max_connections: 0,
        ..ServeConfig::default()
    };
    let server = TestServer::start(config);
    let mut c = server.client();
    let line = c.read_line().expect("server pushes a rejection line");
    let v = ddpa_obs::parse_json(&line).expect("rejection is JSON");
    assert_eq!(error_code(&v), "busy");
}

#[test]
fn multi_client_smoke() {
    let server = TestServer::start(ServeConfig::default());
    let mut opener = server.client();
    let resp = opener
        .request(&build::open(
            "shared",
            "p = &o\nq = p\nr = q\n",
            false,
            None,
        ))
        .expect("open");
    assert!(ok(&resp), "{resp}");

    let addr = server.addr;
    let workers: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                for _ in 0..25 {
                    let q = QuerySpec::PointsTo { name: "r".into() };
                    let resp = c
                        .request(&build::query("shared", &q, None, None))
                        .expect("query");
                    assert!(ok(&resp), "{resp}");
                    let result = resp.get("result").expect("has result");
                    assert_eq!(result_pts(result), BTreeSet::from(["o".to_string()]));
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }
    // 1 open + 100 queries, all counted.
    assert!(server.obs.counter("server.requests").get() >= 101);
}

/// A batch response's answers without their `work`: each set answer as
/// `complete:names`, each alias answer as `alias:resolved:may_alias`.
fn digest_server(resp: &JsonValue) -> Vec<String> {
    resp.get("results")
        .and_then(JsonValue::as_array)
        .expect("batch has results")
        .iter()
        .map(|r| {
            if r.get("pts").is_some() {
                let complete = r
                    .get("complete")
                    .and_then(JsonValue::as_bool)
                    .expect("complete");
                let set: Vec<String> = result_pts(r).into_iter().collect();
                format!("{complete}:{}", set.join(","))
            } else {
                let resolved = r
                    .get("resolved")
                    .and_then(JsonValue::as_bool)
                    .expect("resolved");
                let may = r
                    .get("may_alias")
                    .and_then(JsonValue::as_bool)
                    .expect("may_alias");
                format!("alias:{resolved}:{may}")
            }
        })
        .collect()
}

/// The headline acceptance test: a ≥100-query mixed batch against a
/// syn-4k session answers identically to a direct in-process engine,
/// repeats hit the warm cache, and `add-constraints` leaves no stale
/// answer.
#[test]
fn syn4k_batch_matches_direct_engine_and_caches() {
    let cp = ddpa_gen::generate_random(&ddpa_gen::RandomConfig::sized(12, 4_000));
    let text = ddpa_constraints::print_constraints(&cp);

    // The reference: a fresh engine over the same canonical text.
    let ref_cp = ddpa_constraints::parse_constraints(&text).expect("canonical text parses");
    let mut names: Vec<String> = ref_cp.node_ids().map(|n| ref_cp.display_node(n)).collect();
    names.sort();
    let pick = |i: usize| names[(i * 37) % names.len()].clone();

    let mut specs: Vec<QuerySpec> = Vec::new();
    for i in 0..60 {
        specs.push(QuerySpec::PointsTo { name: pick(i) });
    }
    for i in 0..30 {
        specs.push(QuerySpec::PointedToBy { name: pick(i + 60) });
    }
    for i in 0..30 {
        specs.push(QuerySpec::MayAlias {
            a: pick(i + 90),
            b: pick(i + 120),
        });
    }
    assert!(specs.len() >= 100, "acceptance needs a 100+ query batch");

    // Direct answers from an in-process engine.
    let mut engine = ddpa_demand::DemandEngine::new(&ref_cp, ddpa_demand::DemandConfig::default());
    let node_of = |name: &str| {
        ref_cp
            .node_ids()
            .find(|&n| ref_cp.display_node(n) == name)
            .expect("picked names exist")
    };
    let direct: Vec<JsonValue> = specs
        .iter()
        .map(|spec| match spec {
            QuerySpec::PointsTo { name } => {
                let r = engine.points_to(node_of(name));
                let set: BTreeSet<String> = r.pts.iter().map(|&t| ref_cp.display_node(t)).collect();
                JsonValue::str(format!(
                    "pts:{}:{}",
                    r.complete,
                    set.into_iter().collect::<Vec<_>>().join(",")
                ))
            }
            QuerySpec::PointedToBy { name } => {
                let r = engine.pointed_to_by(node_of(name));
                let set: BTreeSet<String> = r.pts.iter().map(|&t| ref_cp.display_node(t)).collect();
                JsonValue::str(format!(
                    "ptb:{}:{}",
                    r.complete,
                    set.into_iter().collect::<Vec<_>>().join(",")
                ))
            }
            QuerySpec::MayAlias { a, b } => {
                let r = engine.may_alias(node_of(a), node_of(b));
                JsonValue::str(format!("alias:{}:{}", r.resolved, r.may_alias))
            }
            QuerySpec::CallTargets { .. } => unreachable!("not generated here"),
        })
        .collect();

    let server = TestServer::start(ServeConfig::default());
    let mut c = server.client();
    let resp = c
        .request(&build::open("syn", &text, false, None))
        .expect("open syn-4k");
    assert!(ok(&resp), "{resp}");

    let digest_direct: Vec<String> = direct
        .iter()
        .map(|d| {
            let s = d.as_str().expect("digest string");
            // strip the kind prefix used for readability
            let mut parts = s.splitn(2, ':');
            let kind = parts.next().expect("kind");
            let rest = parts.next().expect("rest");
            if kind == "alias" {
                format!("alias:{rest}")
            } else {
                rest.to_string()
            }
        })
        .collect();

    // First batch (cold server cache).
    let batch = build::batch("syn", &specs, false, None, Some(60_000));
    let resp = c.request(&batch).expect("first batch");
    assert!(ok(&resp), "{resp}");
    assert_eq!(
        digest_server(&resp),
        digest_direct,
        "server answers identical to direct engine"
    );

    // Second identical batch: warm session cache must register hits.
    let resp = c.request(&batch).expect("second batch");
    assert!(ok(&resp), "{resp}");
    assert_eq!(
        digest_server(&resp),
        digest_direct,
        "warm answers identical"
    );
    let stats = c.expect_ok(&build::stats()).expect("stats");
    let hits = stats
        .get("sessions")
        .and_then(|s| s.get("syn"))
        .and_then(|s| s.get("cache_hits"))
        .and_then(JsonValue::as_u64)
        .expect("per-session cache_hits");
    assert!(hits > 0, "second identical batch must hit the warm cache");

    // A parallel batch returns the same answers.
    let par = build::batch("syn", &specs, true, None, Some(60_000));
    let resp = c.request(&par).expect("parallel batch");
    assert!(ok(&resp), "{resp}");
    assert_eq!(
        digest_server(&resp),
        digest_direct,
        "parallel answers identical"
    );

    // Incremental edit: give the first points-to query's pointer a new
    // object, then check the server's answer includes it (no stale memo).
    let first = specs
        .iter()
        .find_map(|s| match s {
            QuerySpec::PointsTo { name } => Some(name.clone()),
            _ => None,
        })
        .expect("batch has points-to queries");
    let resp = c
        .request(&build::add_constraints(
            "syn",
            &format!("{first} = &fresh_obj\n"),
        ))
        .expect("add-constraints");
    assert!(ok(&resp), "{resp}");
    assert_eq!(resp.get("generation").and_then(JsonValue::as_u64), Some(1));

    let q = QuerySpec::PointsTo {
        name: first.clone(),
    };
    let resp = c
        .request(&build::query("syn", &q, None, Some(60_000)))
        .expect("post-edit query");
    assert!(ok(&resp), "{resp}");
    let result = resp.get("result").expect("has result");
    assert_eq!(
        result.get("generation").and_then(JsonValue::as_u64),
        Some(1),
        "answers are stamped with the post-edit generation"
    );
    assert!(
        result_pts(result).contains("fresh_obj"),
        "no stale answer after add-constraints: {result}"
    );
    assert!(server.obs.counter("server.invalidations").get() >= 1);
}

/// A `"parallel":true` batch answers what the sequential batch answers,
/// on a server without the frame scheduler and on one with two workers.
/// Each batch runs on its own cold session, so the parallel one really
/// reaches the scheduler.
#[test]
fn parallel_batch_equals_sequential_batch_at_one_and_two_workers() {
    let cp = ddpa_gen::generate_random(&ddpa_gen::RandomConfig::sized(5, 1_500));
    let text = ddpa_constraints::print_constraints(&cp);
    let cp = ddpa_constraints::parse_constraints(&text).expect("canonical text parses");
    // Dereferenced pointers and address-taken objects: mostly non-empty
    // answers.
    let ptr = |i: usize| cp.display_node(cp.loads()[(i * 7) % cp.loads().len()].ptr);
    let obj = |i: usize| cp.display_node(cp.addr_ofs()[(i * 7) % cp.addr_ofs().len()].obj);
    let specs: Vec<QuerySpec> = (0..40)
        .map(|i| match i % 3 {
            0 => QuerySpec::PointsTo { name: ptr(i) },
            1 => QuerySpec::PointedToBy { name: obj(i) },
            _ => QuerySpec::MayAlias {
                a: ptr(i),
                b: ptr(i + 1),
            },
        })
        .collect();

    for workers in [1, 2] {
        let server = TestServer::start(ServeConfig {
            workers,
            ..ServeConfig::default()
        });
        let mut c = server.client();
        let mut results = Vec::new();
        for (session, parallel) in [("seq", false), ("par", true)] {
            c.expect_ok(&build::open(session, &text, false, None))
                .expect("open");
            let resp = c
                .expect_ok(&build::batch(session, &specs, parallel, None, Some(60_000)))
                .expect("batch");
            results.push(resp);
        }
        let (seq, par) = (&results[0], &results[1]);
        assert_eq!(digest_server(seq), digest_server(par), "workers {workers}");
        if workers == 1 {
            // Without the scheduler both batches take the same path, work
            // counts included.
            assert_eq!(seq.get("results"), par.get("results"));
        }
    }
}

#[test]
fn timeouts_are_reported_and_counted() {
    // A deep chain with a 0ms... rather, an expired deadline comes from
    // timeout_ms=1 on a cold, large session: the first slice runs, the
    // deadline check fires before convergence.
    let mut text = String::from("v0 = &obj\n");
    for i in 1..60_000 {
        text.push_str(&format!("v{} = v{}\n", i, i - 1));
    }
    let server = TestServer::start(ServeConfig::default());
    let mut c = server.client();
    let resp = c
        .request(&build::open("deep", &text, false, None))
        .expect("open");
    assert!(ok(&resp), "{resp}");
    let q = QuerySpec::PointsTo {
        name: "v59999".into(),
    };
    let resp = c
        .request(&build::query("deep", &q, None, Some(1)))
        .expect("query");
    assert!(ok(&resp), "{resp}");
    let result = resp.get("result").expect("has result");
    if result.get("timed_out").and_then(JsonValue::as_bool) == Some(true) {
        assert_eq!(
            result.get("complete").and_then(JsonValue::as_bool),
            Some(false),
            "a timed-out answer is partial"
        );
        assert!(server.obs.counter("server.timeouts").get() >= 1);
    } else {
        // A fast machine may finish inside 1ms; the contract is only
        // that a timeout, when it happens, is reported and counted.
        assert_eq!(
            result.get("complete").and_then(JsonValue::as_bool),
            Some(true)
        );
    }
}

#[test]
fn minic_sessions_work_over_the_wire() {
    let server = TestServer::start(ServeConfig::default());
    let mut c = server.client();
    let resp = c
        .request(&build::open(
            "mc",
            "int g; void main() { int *p = &g; int *q = p; }",
            true,
            None,
        ))
        .expect("open MiniC");
    assert!(ok(&resp), "{resp}");
    let q = QuerySpec::PointsTo {
        name: "main::q".into(),
    };
    let resp = c
        .request(&build::query("mc", &q, None, None))
        .expect("query");
    assert!(ok(&resp), "{resp}");
    assert_eq!(
        result_pts(resp.get("result").expect("result")),
        BTreeSet::from(["g".to_string()])
    );
}

// ---------------------------------------------------------------------
// Snapshot / warm-start (ddpa-snap integration)
// ---------------------------------------------------------------------

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ddpa-serve-snap-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp snapshot dir");
    dir
}

#[test]
fn snapshot_then_restore_warm_starts_across_server_restarts() {
    let dir = temp_dir("restart");
    let program = {
        let mut text = String::new();
        for i in 0..12 {
            text.push_str(&format!("p{i} = &o{i}\nq{i} = p{i}\nr{i} = q{i}\n"));
        }
        text
    };
    let specs: Vec<QuerySpec> = (0..12)
        .map(|i| QuerySpec::PointsTo {
            name: format!("r{i}"),
        })
        .collect();

    // First life: warm the session, snapshot it, remember the answers.
    let mut cold_answers = Vec::new();
    {
        let server = TestServer::start(ServeConfig {
            snapshot_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let mut c = server.client();
        c.expect_ok(&build::open("warm", &program, false, None))
            .expect("open");
        for spec in &specs {
            let resp = c
                .expect_ok(&build::query("warm", spec, None, None))
                .expect("query");
            cold_answers.push(result_pts(resp.get("result").expect("result")));
        }
        let snap = c
            .expect_ok(&build::snapshot("warm", None))
            .expect("snapshot op");
        assert!(snap.get("entries").and_then(JsonValue::as_u64).unwrap_or(0) > 0);
        assert!(snap.get("bytes").and_then(JsonValue::as_u64).unwrap_or(0) > 0);
        assert_eq!(server.obs.counter("snap.write").get(), 1);
        assert!(server.obs.counter("snap.bytes").get() > 0);
    }
    assert!(
        dir.join("warm.snap").is_file(),
        "snapshot landed in the dir"
    );

    // Second life: restore-on-open warm-starts the same session name.
    let server = TestServer::start(ServeConfig {
        snapshot_dir: Some(dir.clone()),
        restore_on_open: true,
        ..ServeConfig::default()
    });
    let mut c = server.client();
    let opened = c
        .expect_ok(&build::open("warm", &program, false, None))
        .expect("open restores");
    assert!(
        opened
            .get("restored")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
            > 0,
        "open reports restored entries: {opened}"
    );
    assert_eq!(server.obs.counter("snap.load").get(), 1);

    // The first post-restore query is served from the restored memo:
    // nonzero share hits, zero work, bit-identical answer.
    for (spec, cold) in specs.iter().zip(&cold_answers) {
        let resp = c
            .expect_ok(&build::with_trace(build::query("warm", spec, None, None)))
            .expect("restored query");
        let result = resp.get("result").expect("result");
        assert_eq!(&result_pts(result), cold, "restored answers bit-identical");
        assert_eq!(result.get("work").and_then(JsonValue::as_u64), Some(0));
    }
    assert!(
        server.obs.counter("demand.share.hits").get() > 0,
        "post-restore queries report shared-memo hits"
    );

    // Explicit `restore` op into a *different* session over the same
    // program works too.
    c.expect_ok(&build::open("twin", &program, false, None))
        .expect("open twin");
    let restored = c
        .expect_ok(&build::restore(
            "twin",
            &dir.join("warm.snap").display().to_string(),
        ))
        .expect("restore op");
    assert!(
        restored
            .get("installed")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
            > 0,
        "{restored}"
    );
    let resp = c
        .expect_ok(&build::query("twin", &specs[0], None, None))
        .expect("twin query");
    assert_eq!(
        result_pts(resp.get("result").expect("result")),
        cold_answers[0]
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_and_mismatched_snapshots_are_cleanly_refused() {
    let dir = temp_dir("refuse");
    let server = TestServer::start(ServeConfig {
        snapshot_dir: Some(dir.clone()),
        restore_on_open: true,
        ..ServeConfig::default()
    });
    let mut c = server.client();
    c.expect_ok(&build::open("a", "p = &o\nq = p\n", false, None))
        .expect("open a");

    // A corrupt file: refused with the snapshot error code, server fine.
    let corrupt = dir.join("corrupt.snap");
    std::fs::write(&corrupt, b"DDPASNAPgarbage-that-is-not-a-snapshot").expect("write");
    let resp = c
        .request(&build::restore("a", &corrupt.display().to_string()))
        .expect("answered");
    assert!(!ok(&resp));
    assert_eq!(error_code(&resp), "snapshot-error");
    assert_eq!(server.obs.counter("snap.reject").get(), 1);

    // A valid snapshot of a *different* program: program-hash mismatch.
    c.expect_ok(&build::snapshot(
        "a",
        Some(&dir.join("a.snap").display().to_string()),
    ))
    .expect("snapshot a");
    c.expect_ok(&build::open("b", "x = &y\nz = x\n", false, None))
        .expect("open b");
    let resp = c
        .request(&build::restore(
            "b",
            &dir.join("a.snap").display().to_string(),
        ))
        .expect("answered");
    assert!(!ok(&resp));
    assert_eq!(error_code(&resp), "snapshot-error");
    assert_eq!(server.obs.counter("snap.reject").get(), 2);

    // Restore-on-open over a mismatched snapshot proceeds cold instead
    // of failing the open.
    std::fs::copy(dir.join("a.snap"), dir.join("c.snap")).expect("copy");
    let opened = c
        .expect_ok(&build::open("c", "m = &n\n", false, None))
        .expect("open proceeds cold");
    assert_eq!(opened.get("restored").and_then(JsonValue::as_u64), Some(0));
    assert_eq!(server.obs.counter("snap.reject").get(), 3);

    // The server still answers queries after every refusal.
    let resp = c
        .expect_ok(&build::query(
            "a",
            &QuerySpec::PointsTo { name: "q".into() },
            None,
            None,
        ))
        .expect("query");
    assert_eq!(
        result_pts(resp.get("result").expect("result")),
        BTreeSet::from(["o".to_string()])
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_inline_restore_payload_gets_a_clean_error() {
    // Regression test for the protocol decision that `restore` takes a
    // server-side path: a client that tries to inline a snapshot payload
    // larger than max_line_bytes must get a clean `oversized` error and
    // a usable connection afterwards, not a truncated-frame mess.
    let server = TestServer::start(ServeConfig {
        max_line_bytes: 1024,
        ..ServeConfig::default()
    });
    let mut c = server.client();
    let payload = "A".repeat(8 * 1024); // "snapshot" blob, base64-ish
    let line = format!("{{\"op\":\"restore\",\"session\":\"s\",\"data\":\"{payload}\"}}");
    let resp = c.roundtrip_line(&line).expect("answered");
    let resp = ddpa_obs::parse_json(&resp).expect("valid JSON error");
    assert!(!ok(&resp));
    assert_eq!(error_code(&resp), "oversized");

    // The connection resynchronized: the next request works.
    let resp = c.request(&build::ping()).expect("ping after oversized");
    assert!(ok(&resp), "{resp}");

    // And an under-limit inline payload is refused by the parser with a
    // clean bad-request explaining the path-based contract.
    let resp = c
        .request(
            &ddpa_obs::parse_json(
                "{\"op\":\"restore\",\"session\":\"s\",\"path\":\"f\",\"data\":\"AA\"}",
            )
            .expect("valid"),
        )
        .expect("answered");
    assert!(!ok(&resp));
    assert_eq!(error_code(&resp), "bad-request");
}

#[test]
fn periodic_snapshotter_persists_sessions_without_being_asked() {
    let dir = temp_dir("periodic");
    let server = TestServer::start(ServeConfig {
        snapshot_dir: Some(dir.clone()),
        snapshot_every_ms: 100,
        ..ServeConfig::default()
    });
    let mut c = server.client();
    c.expect_ok(&build::open("bg", "p = &o\nq = p\n", false, None))
        .expect("open");
    c.expect_ok(&build::query(
        "bg",
        &QuerySpec::PointsTo { name: "q".into() },
        None,
        None,
    ))
    .expect("query");
    // Wait out a couple of ticks; the snapshotter must write on its own.
    let path = dir.join("bg.snap");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while !path.is_file() && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    assert!(path.is_file(), "periodic snapshotter wrote {path:?}");
    assert!(server.obs.counter("snap.write").get() >= 1);
    // Shutdown runs one final pass and joins the ticker (Drop hangs
    // otherwise); the file must still parse cleanly afterwards.
    drop(server);
    let snap = ddpa_snap::read_file(&path).expect("final snapshot parses");
    assert!(!snap.entries.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
