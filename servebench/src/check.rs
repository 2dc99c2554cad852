//! Checks every answer against the exhaustive solution of the program the
//! session held when it answered, and sums the deterministic counter block
//! from the responses.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};

use ddpa_anders::Solution;
use ddpa_constraints::{CallSiteId, ConstraintProgram, NodeId};
use ddpa_obs::JsonValue;
use ddpa_serve::proto::{parse_request, QuerySpec};
use ddpa_serve::Request;

use crate::traffic::{append_edit, canonical, Op, Req, Traffic};

/// Counters that repeat exactly between runs of the same seed on the
/// single-connection workloads. Allocation counts include every thread
/// of the process, so they are the least exact of them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Queries answered in the measured phase (batch elements count).
    pub queries: u64,
    /// Sum of the per-answer `work` the server reported.
    pub work: u64,
    /// Engine counters from the `stats` op sent before each close.
    pub fires: u64,
    pub goals: u64,
    pub cache_hits: u64,
    pub share_hits: u64,
    /// What `snapshot` responses reported.
    pub snapshot_bytes: u64,
    pub snapshot_entries: u64,
    /// What `add-constraints` responses reported.
    pub edits: u64,
    pub edit_invalidated: u64,
    pub edit_retained: u64,
    /// Answers the server reports as run on the frame scheduler
    /// (`"sched":"parallel"`).
    pub parallel: u64,
    /// Heap allocations (and bytes requested) in the measured phase.
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Counters {
    /// Field names and values, in a fixed order.
    pub fn fields(&self) -> [(&'static str, u64); 14] {
        [
            ("queries", self.queries),
            ("work", self.work),
            ("fires", self.fires),
            ("goals", self.goals),
            ("cache_hits", self.cache_hits),
            ("share_hits", self.share_hits),
            ("snapshot_bytes", self.snapshot_bytes),
            ("snapshot_entries", self.snapshot_entries),
            ("edits", self.edits),
            ("edit_invalidated", self.edit_invalidated),
            ("edit_retained", self.edit_retained),
            ("parallel", self.parallel),
            ("allocs", self.allocs),
            ("alloc_bytes", self.alloc_bytes),
        ]
    }

    /// Rebuilds counters from `(name, value)` pairs; unknown names are
    /// ignored.
    pub fn from_fields<'a>(fields: impl IntoIterator<Item = (&'a str, u64)>) -> Counters {
        let mut c = Counters::default();
        for (name, v) in fields {
            let slot = match name {
                "queries" => &mut c.queries,
                "work" => &mut c.work,
                "fires" => &mut c.fires,
                "goals" => &mut c.goals,
                "cache_hits" => &mut c.cache_hits,
                "share_hits" => &mut c.share_hits,
                "snapshot_bytes" => &mut c.snapshot_bytes,
                "snapshot_entries" => &mut c.snapshot_entries,
                "edits" => &mut c.edits,
                "edit_invalidated" => &mut c.edit_invalidated,
                "edit_retained" => &mut c.edit_retained,
                "parallel" => &mut c.parallel,
                "allocs" => &mut c.allocs,
                "alloc_bytes" => &mut c.alloc_bytes,
                _ => continue,
            };
            *slot = v;
        }
        c
    }

    /// Fieldwise sum.
    pub fn add(&self, other: &Counters) -> Counters {
        let sums = self
            .fields()
            .into_iter()
            .zip(other.fields())
            .map(|((name, a), (_, b))| (name, a + b));
        Counters::from_fields(sums)
    }
}

/// One distinct response to check.
pub struct Answered {
    /// Index into [`Traffic::requests`].
    pub req: u32,
    pub line: String,
    /// How many identical (request, response) pairs this stands for.
    pub count: u64,
    /// Sent in the measured phase, so it counts toward `attempted`.
    pub measured: bool,
}

/// Collects responses, keeping each distinct (request, response) pair
/// once: a warm stream repeats the same few hundred answers.
#[derive(Default)]
pub struct Collector {
    seen: HashMap<(u32, u64, bool), usize>,
    pub answered: Vec<Answered>,
}

impl Collector {
    pub fn add(&mut self, req: u32, line: String, measured: bool) {
        self.add_counted(req, line, measured, 1);
    }

    /// Appends another collector's responses.
    pub fn extend(&mut self, other: Collector) {
        for a in other.answered {
            self.add_counted(a.req, a.line, a.measured, a.count);
        }
    }

    fn add_counted(&mut self, req: u32, line: String, measured: bool, count: u64) {
        let mut h = DefaultHasher::new();
        line.hash(&mut h);
        let key = (req, h.finish(), measured);
        match self.seen.entry(key) {
            Entry::Occupied(slot) => self.answered[*slot.get()].count += count,
            Entry::Vacant(slot) => {
                slot.insert(self.answered.len());
                self.answered.push(Answered {
                    req,
                    line,
                    count,
                    measured,
                });
            }
        }
    }
}

/// What checking found.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Measured requests sent.
    pub attempted: u64,
    /// Measured requests that failed: `ok:false`, a wrong answer, or an
    /// incomplete, unresolved or timed-out one.
    pub failed: u64,
    /// Unmeasured (set-up and teardown) requests that failed.
    pub failed_unmeasured: u64,
    pub counters: Counters,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
}

impl Outcome {
    fn fail(&mut self, traffic: &Traffic, a: &Answered, why: String) {
        if a.measured {
            self.failed += a.count;
        } else {
            self.failed_unmeasured += a.count;
        }
        if self.first_failure.is_none() {
            let line = &traffic.requests[a.req as usize].line;
            let head: String = line.chars().take(120).collect();
            self.first_failure = Some(format!("{why} (request {head})"));
        }
    }

    /// Adds `other`'s requests, failures and counters to these.
    pub fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failed_unmeasured += other.failed_unmeasured;
        self.counters = self.counters.add(&other.counters);
        self.first_failure = self.first_failure.take().or(other.first_failure);
    }
}

/// Checks `answered` against the oracle of each program version.
pub fn check(traffic: &Traffic, answered: &[Answered]) -> Outcome {
    let mut out = Outcome::default();
    // Query answers are grouped by program version so that only one
    // oracle, and one parsed answer, is alive at a time per thread.
    let mut by_version: BTreeMap<u32, Vec<&Answered>> = BTreeMap::new();
    for a in answered {
        let req = &traffic.requests[a.req as usize];
        if a.measured {
            out.attempted += a.count;
        }
        if matches!(req.op, Op::Query | Op::Batch) {
            by_version.entry(req.version).or_default().push(a);
            continue;
        }
        let response = match ok_response(&a.line) {
            Ok(v) => v,
            Err(why) => {
                out.fail(traffic, a, why);
                continue;
            }
        };
        let u = |key: &str| response.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        let c = &mut out.counters;
        match &req.op {
            Op::Stats(session) => {
                let s = response.get("sessions").and_then(|s| s.get(session));
                let field = |key: &str| s.and_then(|s| s.get(key)).and_then(JsonValue::as_u64);
                c.fires += field("fires").unwrap_or(0) * a.count;
                c.goals += field("goals").unwrap_or(0) * a.count;
                c.cache_hits += field("cache_hits").unwrap_or(0) * a.count;
                c.share_hits += field("share_hits").unwrap_or(0) * a.count;
            }
            Op::Edit => {
                c.edits += a.count;
                c.edit_invalidated += u("invalidated") * a.count;
                c.edit_retained += u("retained") * a.count;
            }
            Op::Snapshot => {
                c.snapshot_bytes += u("bytes") * a.count;
                c.snapshot_entries += u("entries") * a.count;
            }
            _ => {}
        }
    }

    // Versions check independently, so two threads split them: solving
    // each version exhaustively is most of a rep's checking time.
    let groups: Vec<(u32, Vec<&Answered>)> = by_version.into_iter().collect();
    let (first, second) = groups.split_at(groups.len() / 2);
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| check_queries(traffic, first));
        let b = check_queries(traffic, second);
        (a.join().expect("the checker does not panic"), b)
    });
    out.merge(a);
    out.merge(b);
    out
}

/// Checks the query and batch answers of consecutive program versions.
fn check_queries(traffic: &Traffic, groups: &[(u32, Vec<&Answered>)]) -> Outcome {
    let mut out = Outcome::default();
    let mut state = OracleState::default();
    for (version, group) in groups {
        let generation = traffic.versions[*version as usize].edits;
        let oracle = state.at(traffic, *version);
        for &a in group {
            let req = &traffic.requests[a.req as usize];
            let response = match ok_response(&a.line) {
                Ok(v) => v,
                Err(why) => {
                    out.fail(traffic, a, why);
                    continue;
                }
            };
            let specs = specs_of(req);
            if a.measured {
                out.counters.queries += a.count * specs.len() as u64;
            }
            let results: Vec<&JsonValue> = match req.op {
                Op::Query => response.get("result").into_iter().collect(),
                _ => response
                    .get("results")
                    .and_then(JsonValue::as_array)
                    .map(|r| r.iter().collect())
                    .unwrap_or_default(),
            };
            if results.len() != specs.len() {
                let why = format!("{} answers, expected {}", results.len(), specs.len());
                out.fail(traffic, a, why);
                continue;
            }
            let mut work = 0;
            let verdict = specs.iter().zip(results).try_for_each(|(spec, result)| {
                work += oracle.check(spec, generation, result)?;
                Ok::<(), String>(())
            });
            // A query that asked for the frame scheduler reports how it
            // ran. Memo hits fall back to the sequential engine with no
            // work; a points-to goal deduced there means the scheduler
            // was skipped.
            let sched = response.get("sched").and_then(JsonValue::as_str);
            let one_goal = matches!(
                specs.as_slice(),
                [QuerySpec::PointsTo { .. } | QuerySpec::PointedToBy { .. }]
            );
            match verdict {
                Ok(()) if sched == Some("sequential-fallback") && work > 0 && one_goal => {
                    let why = format!("{:?} did {work} work off the frame scheduler", specs[0]);
                    out.fail(traffic, a, why);
                }
                Ok(()) => {
                    out.counters.work += work * a.count;
                    if sched == Some("parallel") {
                        out.counters.parallel += a.count;
                    }
                }
                Err(why) => out.fail(traffic, a, why),
            }
        }
    }
    out
}

/// Checks that the traced replay answers in the server's shape: each
/// replayed response must have the keys, in order, and the kinds of value
/// of the served response to the same request, so the replay encodes what
/// the server encodes. `stats` is left out: its server-wide counters have
/// no replay counterpart.
pub fn same_shape(traffic: &Traffic, served: &[Answered], replayed: &[Answered]) -> Outcome {
    let mut shapes: HashMap<u32, String> = HashMap::new();
    for a in served {
        if let Ok(v) = ddpa_obs::parse_json(&a.line) {
            shapes.entry(a.req).or_insert_with(|| shape(&v));
        }
    }
    let mut out = Outcome::default();
    for a in replayed {
        if matches!(traffic.requests[a.req as usize].op, Op::Stats(_)) {
            continue;
        }
        let (Some(want), Ok(v)) = (shapes.get(&a.req), ddpa_obs::parse_json(&a.line)) else {
            continue;
        };
        let have = shape(&v);
        if &have != want {
            let why = format!("the replay answered {have}, the server {want}");
            out.fail(traffic, a, why);
        }
    }
    out
}

/// A JSON value's keys and kinds of value, without the values.
fn shape(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "null".into(),
        JsonValue::Bool(_) => "bool".into(),
        JsonValue::U64(_) | JsonValue::F64(_) => "num".into(),
        JsonValue::Str(_) => "str".into(),
        JsonValue::Array(items) => {
            let mut kinds: Vec<String> = items.iter().map(shape).collect();
            kinds.sort_unstable();
            kinds.dedup();
            format!("[{}]", kinds.join("|"))
        }
        JsonValue::Object(fields) => {
            let fields: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{k}:{}", shape(v)))
                .collect();
            format!("{{{}}}", fields.join(","))
        }
    }
}

/// Parses a response line that must carry `"ok": true`.
fn ok_response(line: &str) -> Result<JsonValue, String> {
    match ddpa_obs::parse_json(line) {
        Ok(v) if v.get("ok").and_then(JsonValue::as_bool) == Some(true) => Ok(v),
        Ok(_) => Err(format!("error response {line}")),
        Err(e) => Err(format!("response is not JSON: {e}")),
    }
}

/// The query specs a query or batch request line asks.
fn specs_of(req: &Req) -> Vec<QuerySpec> {
    let request = ddpa_obs::parse_json(&req.line).map(|v| parse_request(&v));
    match request {
        Ok(Ok(Request::Query { spec, .. })) => vec![spec],
        Ok(Ok(Request::Batch { specs, .. })) => specs,
        _ => unreachable!("query and batch lines are rendered by the proto builders"),
    }
}

/// The oracle of the version checked last; edit versions are reached by
/// appending edits to the previous one.
#[derive(Default)]
struct OracleState {
    open: Option<u32>,
    edits: u32,
    source: String,
    oracle: Option<Oracle>,
}

impl OracleState {
    fn at(&mut self, traffic: &Traffic, version: u32) -> &Oracle {
        let v = traffic.versions[version as usize];
        if self.open != Some(v.open) || self.edits > v.edits {
            let line = &traffic.requests[v.open as usize].line;
            let request = ddpa_obs::parse_json(line).map(|v| parse_request(&v));
            let Ok(Ok(Request::Open { program, minic, .. })) = request else {
                unreachable!("versions point at open requests");
            };
            let (source, cp) = canonical(&program, minic);
            self.source = source;
            self.open = Some(v.open);
            self.edits = 0;
            self.oracle = Some(Oracle::new(cp));
        }
        if self.edits < v.edits {
            for edit in &traffic.edits[self.edits as usize..v.edits as usize] {
                append_edit(&mut self.source, edit);
            }
            let cp =
                ddpa_constraints::parse_constraints(&self.source).expect("session source parses");
            self.oracle = Some(Oracle::new(cp));
            self.edits = v.edits;
        }
        self.oracle.as_ref().expect("an oracle was just built")
    }
}

/// The exhaustive solution of one program version.
struct Oracle {
    cp: ConstraintProgram,
    solution: Solution,
    nodes: HashMap<String, NodeId>,
}

impl Oracle {
    fn new(cp: ConstraintProgram) -> Oracle {
        let solution = ddpa_anders::solve(&cp);
        let nodes = cp.node_ids().map(|n| (cp.display_node(n), n)).collect();
        Oracle {
            cp,
            solution,
            nodes,
        }
    }

    fn node(&self, name: &str) -> Result<NodeId, String> {
        self.nodes
            .get(name)
            .copied()
            .ok_or_else(|| format!("oracle has no node {name:?}"))
    }

    fn names(&self, nodes: impl Iterator<Item = NodeId>) -> Vec<String> {
        let mut names: Vec<String> = nodes.map(|n| self.cp.display_node(n)).collect();
        names.sort_unstable();
        names
    }

    /// Checks one rendered answer; returns its `work`.
    fn check(&self, spec: &QuerySpec, generation: u32, result: &JsonValue) -> Result<u64, String> {
        let field = |key: &str| {
            result
                .get(key)
                .ok_or_else(|| format!("answer lacks {key:?}"))
        };
        let flag = |key: &str| {
            field(key)?
                .as_bool()
                .ok_or(format!("{key:?} is not a boolean"))
        };
        let strings = |key: &str| -> Result<Vec<String>, String> {
            let mut names: Vec<String> = field(key)?
                .as_array()
                .ok_or(format!("{key:?} is not an array"))?
                .iter()
                .map(|v| v.as_str().unwrap_or_default().to_owned())
                .collect();
            names.sort_unstable();
            Ok(names)
        };
        if flag("timed_out")? {
            return Err("answer timed out".into());
        }
        if field("generation")?.as_u64() != Some(u64::from(generation)) {
            return Err(format!("answer is not for generation {generation}"));
        }
        let s = &self.solution;
        let (exact, same) = match spec {
            QuerySpec::PointsTo { name } => {
                let n = self.node(name)?;
                let want = self.names(s.pts(n).iter().map(NodeId::from_u32));
                (flag("complete")?, strings("pts")? == want)
            }
            QuerySpec::PointedToBy { name } => {
                let o = self.node(name)?;
                let want = self.names(self.cp.node_ids().filter(|&w| s.points_to(w, o)));
                (flag("complete")?, strings("pts")? == want)
            }
            QuerySpec::MayAlias { a, b } => {
                let want = s.may_alias(self.node(a)?, self.node(b)?);
                (flag("resolved")?, flag("may_alias")? == want)
            }
            QuerySpec::CallTargets { site } => {
                let cs = CallSiteId::from_u32(*site as u32);
                let mut want: Vec<String> = s
                    .call_targets(cs)
                    .iter()
                    .map(|&f| self.cp.interner().resolve(self.cp.func(f).name).to_owned())
                    .collect();
                want.sort_unstable();
                (flag("resolved")?, strings("targets")? == want)
            }
        };
        if !exact {
            return Err(format!("{spec:?} is incomplete or unresolved"));
        }
        if !same {
            return Err(format!("{spec:?} differs from the exhaustive solution"));
        }
        field("work")?
            .as_u64()
            .ok_or("\"work\" is not a count".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_replayed_response_must_have_the_served_shape() {
        let traffic = Traffic {
            requests: vec![Req {
                line: r#"{"op":"query"}"#.into(),
                op: Op::Query,
                version: 0,
            }],
            ..Traffic::default()
        };
        let answered = |line: &str| {
            vec![Answered {
                req: 0,
                line: line.into(),
                count: 1,
                measured: true,
            }]
        };
        let served = answered(r#"{"ok":true,"result":{"pts":["a"],"work":3},"sched":"parallel"}"#);
        let same = answered(r#"{"ok":true,"result":{"pts":["b"],"work":0},"sched":"parallel"}"#);
        assert_eq!(same_shape(&traffic, &served, &same).failed, 0);
        let drifted = answered(r#"{"ok":true,"result":{"pts":["a"],"work":3}}"#);
        assert_eq!(same_shape(&traffic, &served, &drifted).failed, 1);
    }
}
