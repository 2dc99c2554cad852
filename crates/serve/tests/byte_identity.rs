//! Served responses are byte-identical to the `JsonValue` trees the
//! protocol defines.
//!
//! The server renders query and batch answers as text, straight from
//! node ids and a per-session table of escaped names. This test replays a
//! fixed request script twice: over the wire against a live server, and
//! on a mirror [`Session`] driven through the same calls in the same
//! order. Each mirror answer goes through the reference renderer below
//! and [`ok_response`], and the result must equal the served line byte
//! for byte. Only a `trace` object, which carries wall time, is copied
//! from the served line.

use std::time::{Duration, Instant};

use ddpa_demand::SchedPolicy;
use ddpa_obs::{parse_json, JsonValue, Obs};
use ddpa_serve::proto::{build, error_response, ok_response, QuerySpec};
use ddpa_serve::{Client, QueryAnswer, ServeConfig, Server, Session};

/// Frame-scheduler width, on both sides.
const WORKERS: usize = 2;

/// The `result` object of one answer, field by field.
fn reference_answer(answer: &QueryAnswer, generation: u64) -> JsonValue {
    let names = |names: &[String]| {
        JsonValue::Array(names.iter().map(|n| JsonValue::str(n.as_str())).collect())
    };
    let mut fields = match answer {
        QueryAnswer::Set {
            names: set,
            complete,
            work,
            timed_out,
        } => vec![
            ("pts", names(set)),
            ("complete", JsonValue::Bool(*complete)),
            ("work", JsonValue::U64(*work)),
            ("timed_out", JsonValue::Bool(*timed_out)),
        ],
        QueryAnswer::Alias {
            may_alias,
            resolved,
            work,
            timed_out,
        } => vec![
            ("may_alias", JsonValue::Bool(*may_alias)),
            ("resolved", JsonValue::Bool(*resolved)),
            ("work", JsonValue::U64(*work)),
            ("timed_out", JsonValue::Bool(*timed_out)),
        ],
        QueryAnswer::Targets {
            names: targets,
            resolved,
            work,
            timed_out,
        } => vec![
            ("targets", names(targets)),
            ("resolved", JsonValue::Bool(*resolved)),
            ("work", JsonValue::U64(*work)),
            ("timed_out", JsonValue::Bool(*timed_out)),
        ],
    };
    fields.push(("generation", JsonValue::U64(generation)));
    JsonValue::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// A live server and a mirror session fed the same requests.
struct Pair {
    client: Client,
    mirror: Session,
    handle: ddpa_serve::ServerHandle,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Pair {
    fn open(program: &str) -> (Pair, String) {
        let config = ServeConfig {
            workers: WORKERS,
            ..ServeConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config, Obs::new()).expect("bind");
        let addr = server.local_addr();
        let handle = server.handle();
        let thread = Some(std::thread::spawn(move || server.run()));
        let mut client = Client::connect(addr).expect("connect");
        let served = client
            .roundtrip_line(&build::open("s", program, false, None).to_string())
            .expect("open");
        let mirror = Session::open(program, false, None)
            .expect("valid program")
            .with_parallel(WORKERS, SchedPolicy::default(), false);
        let pair = Pair {
            client,
            mirror,
            handle,
            thread,
        };
        (pair, served)
    }

    fn send(&mut self, request: &JsonValue) -> String {
        self.client
            .roundtrip_line(&request.to_string())
            .expect("roundtrip")
    }

    /// The server's default request timeout, as a deadline: the mirror
    /// must take the same (sliced) engine path the server takes.
    fn deadline() -> Option<Instant> {
        let ms = ServeConfig::default().default_timeout_ms;
        Some(Instant::now() + Duration::from_millis(ms))
    }

    /// Sends one `query`, checks the served line against the mirror and
    /// returns it.
    fn query(
        &mut self,
        spec: QuerySpec,
        budget: Option<u64>,
        parallel: bool,
        trace: bool,
    ) -> String {
        let mut request = build::query("s", &spec, budget, None);
        if parallel {
            request = build::with_parallel_query(request);
        }
        if trace {
            request = build::with_trace(request);
        }
        let served = self.send(&request);

        let m = &mut self.mirror;
        let resolved = m.resolve(&spec).expect("mirror resolves");
        let answer = m.query_opt(resolved, budget, Pair::deadline(), parallel.then_some(true));
        let generation = m.generation();
        let mut fields = vec![
            ("session", JsonValue::str("s")),
            ("result", reference_answer(&answer, generation)),
            ("generation", JsonValue::U64(generation)),
        ];
        if let Some(sched) = m.last_sched() {
            fields.push(("sched", JsonValue::str(sched)));
        }
        if trace {
            fields.push(("trace", served_trace(&served)));
        }
        assert_eq!(served, ok_response("query", fields).to_string());
        served
    }

    /// Sends one `batch`, checks the served line against the mirror and
    /// returns it.
    fn batch(&mut self, specs: &[QuerySpec], parallel: bool, trace: bool) -> String {
        let mut request = build::batch("s", specs, parallel, None, None);
        if trace {
            request = build::with_trace(request);
        }
        let served = self.send(&request);

        let m = &mut self.mirror;
        let generation = m.generation();
        let resolved: Vec<_> = specs.iter().map(|spec| m.resolve(spec)).collect();
        let ok: Vec<_> = resolved.iter().filter_map(|r| r.clone().ok()).collect();
        let mut answers: Vec<QueryAnswer> = ok
            .iter()
            .map(|&spec| {
                m.query_ids(spec, None, Pair::deadline(), parallel.then_some(true))
                    .named(m.program())
            })
            .collect();
        answers.reverse();
        let results = resolved
            .iter()
            .map(|r| match r {
                Ok(_) => reference_answer(&answers.pop().expect("one per spec"), generation),
                Err(e) => error_response(e.code, &e.message),
            })
            .collect();
        let mut fields = vec![
            ("session", JsonValue::str("s")),
            ("results", JsonValue::Array(results)),
            ("generation", JsonValue::U64(generation)),
        ];
        if trace {
            fields.push(("trace", served_trace(&served)));
        }
        assert_eq!(served, ok_response("batch", fields).to_string());
        served
    }
}

impl Drop for Pair {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            t.join().expect("server thread").expect("server run");
        }
    }
}

fn served_trace(line: &str) -> JsonValue {
    parse_json(line)
        .expect("served line parses")
        .get("trace")
        .expect("traced response carries a trace")
        .clone()
}

fn pts(name: &str) -> QuerySpec {
    QuerySpec::PointsTo { name: name.into() }
}

/// Two functions behind one indirect call, names that need escaping,
/// and three disjoint 40-link copy chains (sequential, scheduler and
/// budget-limited queries each get a cold one).
fn program() -> String {
    let mut text = String::from(
        "fun f/1\nfun g/1\nfp = &f\nfp = &g\nx = &o\nicall fp(x) -> r\n\
         f::ret = f::arg0\ng::ret = f::arg0\n\
         p = &o\np = &e\"x\nq = p\nq = &b\\s\nq = &c\u{1}t\n",
    );
    for chain in ["v", "w", "u"] {
        text.push_str(&format!("{chain}0 = &{chain}obj\n"));
        for i in 1..40 {
            text.push_str(&format!("{chain}{i} = {chain}{}\n", i - 1));
        }
    }
    for i in 0..4 {
        text.push_str(&format!("z{i} = &zo{i}\n"));
    }
    text
}

#[test]
fn served_lines_match_the_reference_renderer() {
    let program = program();
    let (mut pair, opened) = Pair::open(&program);
    let cp = pair.mirror.program();
    let expected_open = ok_response(
        "open",
        vec![
            ("session", JsonValue::str("s")),
            ("nodes", JsonValue::U64(cp.num_nodes() as u64)),
            ("constraints", JsonValue::U64(cp.num_constraints() as u64)),
            ("generation", JsonValue::U64(0)),
            ("restored", JsonValue::U64(0)),
        ],
    );
    assert_eq!(opened, expected_open.to_string());

    // All four query kinds; `q`'s answer holds the escaped names.
    let line = pair.query(pts("q"), None, false, false);
    for escaped in [r#""b\\s""#, r#""c\u0001t""#, r#""e\"x""#] {
        assert!(line.contains(escaped), "{line}");
    }
    // The same query as a one-spec batch: `results`, not `result`.
    let line = pair.batch(&[pts("q")], false, false);
    assert!(line.contains(r#""results":[{"pts":"#), "{line}");
    pair.query(
        QuerySpec::PointedToBy { name: "o".into() },
        None,
        false,
        false,
    );
    pair.query(
        QuerySpec::MayAlias {
            a: "p".into(),
            b: "q".into(),
        },
        None,
        false,
        false,
    );
    let line = pair.query(QuerySpec::CallTargets { site: 0 }, None, false, false);
    assert!(line.contains(r#""targets":["f","g"]"#), "{line}");
    // A traced query, a scheduler run, a scheduler fallback (memo hit),
    // and a budget-limited partial answer.
    pair.query(pts("v39"), None, false, true);
    let line = pair.query(pts("w39"), None, true, false);
    assert!(line.contains(r#""sched":"parallel""#), "{line}");
    // And as a parallel one-spec batch, which reports no `sched`.
    let line = pair.batch(&[pts("w39")], true, false);
    assert!(!line.contains("sched"), "{line}");
    let line = pair.query(pts("w39"), None, true, false);
    assert!(line.contains(r#""sched":"sequential-fallback""#), "{line}");
    let line = pair.query(pts("u39"), Some(3), false, false);
    assert!(line.contains(r#""complete":false"#), "{line}");

    // A sequential batch with an inline error entry, then a parallel one
    // over disjoint chains.
    let line = pair.batch(
        &[
            pts("q"),
            pts("ghost"),
            QuerySpec::MayAlias {
                a: "x".into(),
                b: "v3".into(),
            },
        ],
        false,
        false,
    );
    assert!(
        line.contains(r#"{"ok":false,"error":{"code":"no-node""#),
        "{line}"
    );
    let zs: Vec<QuerySpec> = (0..4).map(|i| pts(&format!("z{i}"))).collect();
    pair.batch(&zs, true, false);

    // Answers read after an edit carry the new generation.
    let edited = pair.send(&build::add_constraints("s", "q = &o2\n"));
    let edit = pair
        .mirror
        .add_constraints("q = &o2\n")
        .expect("valid edit");
    let cp = pair.mirror.program();
    let expected_edit = ok_response(
        "add-constraints",
        vec![
            ("session", JsonValue::str("s")),
            ("nodes", JsonValue::U64(cp.num_nodes() as u64)),
            ("constraints", JsonValue::U64(cp.num_constraints() as u64)),
            ("generation", JsonValue::U64(1)),
            ("invalidated", JsonValue::U64(edit.invalidated as u64)),
            ("retained", JsonValue::U64(edit.retained as u64)),
            ("full_invalidation", JsonValue::Bool(edit.full)),
        ],
    );
    assert_eq!(edited, expected_edit.to_string());
    let line = pair.query(pts("q"), None, false, false);
    assert!(line.contains(r#""generation":1}"#), "{line}");
    pair.batch(&[pts("q"), pts("v39"), pts("nobody")], false, true);
}
