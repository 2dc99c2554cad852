//! Seeded workload inputs: the programs, every request line pre-rendered,
//! and what each answer is checked against.
//!
//! Everything derives from the plan's seed; the server only ever sees the
//! rendered text.

use std::path::Path;

use ddpa_constraints::{print_constraints, ConstraintProgram, NodeId};
use ddpa_gen::{
    generate_cyclic, generate_minic, generate_wide, CyclicConfig, MiniCConfig, WideConfig,
};
use ddpa_obs::JsonValue;
use ddpa_serve::proto::{build, QuerySpec};
use ddpa_support::rng::Rng;

use crate::{Plan, Workload};

/// Distinct queries asked in each `cold` round.
const COLD_QUERIES: usize = 250;
/// Queries in the `warm` session's pool.
const WARM_POOL: usize = 400;
/// Queries in each `warm` batch request.
const WARM_BATCH: usize = 16;
/// Requests per `warm` unit on each connection (one of them a batch).
const WARM_GROUP: usize = 10;
/// Queries in the `edit` session's pool.
const EDIT_POOL: usize = 200;
/// Pool queries re-answered after each edit.
const EDIT_QUERIES: usize = 16;
/// Share of edits that add an address-of (`p = &eobjK`); the rest copy.
const EDIT_ADDR_SHARE: f64 = 0.7;
/// Pool queries answered after the first answer of each `restart` round.
const RESTART_POOL: usize = 100;
/// Chain tails asked after `pts(hub)` in each `wide` round.
const WIDE_TAILS: usize = 20;
/// Set-up requests answer pools in batches of this many queries.
const SETUP_BATCH: usize = 50;
/// Frame-scheduler width the server runs `wide` with.
const WIDE_WORKERS: usize = 2;

/// What a request does, as far as timing and checking care.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    Open,
    Restore,
    Query,
    Batch,
    Edit,
    Snapshot,
    /// `stats` sent before a session closes; the named session's engine
    /// counters enter the counter block.
    Stats(String),
    Close,
}

/// One pre-rendered request.
#[derive(Clone, Debug)]
pub struct Req {
    pub line: String,
    pub op: Op,
    /// The program version a query or batch is answered against.
    pub version: u32,
}

/// A program after the first `edits` entries of [`Traffic::edits`].
#[derive(Clone, Copy, Debug)]
pub struct Version {
    /// Index of the `open` request that carries the program's text.
    pub open: u32,
    pub edits: u32,
}

/// A workload's whole input for one rep. Phases list indices into
/// `requests`, so a stream that repeats a request holds it once.
#[derive(Clone, Debug, Default)]
pub struct Traffic {
    pub requests: Vec<Req>,
    /// Constraint lines appended by `add-constraints`, in order.
    pub edits: Vec<String>,
    pub versions: Vec<Version>,
    /// Unmeasured requests sent before the clock starts.
    pub setup: Vec<u32>,
    /// Measured requests, one closed-loop stream per connection.
    pub streams: Vec<Vec<u32>>,
    /// Unmeasured requests sent after every stream has finished.
    pub teardown: Vec<u32>,
    /// The server's frame-scheduler width.
    pub workers: usize,
}

impl Traffic {
    /// Generates the inputs of `plan`. `snapshot` is the file `restart`
    /// snapshots to and restores from.
    pub fn build(plan: &Plan, snapshot: &Path) -> Traffic {
        let mut t = Traffic {
            workers: 1,
            ..Traffic::default()
        };
        let plan = &Plan {
            seed: sub_seed(plan.seed, plan.rep),
            ..plan.clone()
        };
        match plan.workload {
            Workload::Cold => t.cold(plan),
            Workload::Warm => t.warm(plan),
            Workload::Edit => t.edit(plan),
            Workload::Restart => t.restart(plan, &snapshot.display().to_string()),
            Workload::Wide => t.wide(plan),
        }
        t
    }

    fn push(&mut self, op: Op, version: u32, line: JsonValue) -> u32 {
        self.requests.push(Req {
            line: line.to_string(),
            op,
            version,
        });
        self.requests.len() as u32 - 1
    }

    /// Adds the `open` request of a new program; returns it and the
    /// program's unedited version.
    fn open(&mut self, session: &str, text: &str, minic: bool, parallel: bool) -> (u32, u32) {
        let mut line = build::open(session, text, minic, None);
        if parallel {
            line = build::with_parallel_query(line);
        }
        let open = self.push(Op::Open, 0, line);
        (open, self.version(open, 0))
    }

    fn version(&mut self, open: u32, edits: u32) -> u32 {
        self.versions.push(Version { open, edits });
        self.versions.len() as u32 - 1
    }

    fn query(&mut self, session: &str, version: u32, spec: &QuerySpec) -> u32 {
        self.push(Op::Query, version, build::query(session, spec, None, None))
    }

    fn batch(&mut self, session: &str, version: u32, specs: &[QuerySpec]) -> u32 {
        let line = build::batch(session, specs, false, None, None);
        self.push(Op::Batch, version, line)
    }

    /// Batches answering every query of `pool` once.
    fn warm_up(&mut self, session: &str, version: u32, pool: &[QuerySpec]) -> Vec<u32> {
        pool.chunks(SETUP_BATCH)
            .map(|chunk| self.batch(session, version, chunk))
            .collect()
    }

    /// `stats`, then `close`.
    fn close(&mut self, session: &str) -> [u32; 2] {
        [
            self.push(Op::Stats(session.to_owned()), 0, build::stats()),
            self.push(Op::Close, 0, build::close(session)),
        ]
    }

    /// Every round opens a fresh session on a new program: deduction on
    /// an empty memo table. Rounds rotate MiniC source (the frontend on
    /// the path), the same kind of program as constraint text, and
    /// copy-cycle-dominated programs (cycle collapsing on the path).
    fn cold(&mut self, plan: &Plan) {
        let mut stream = Vec::new();
        for round in 0..plan.units {
            let seed = sub_seed(plan.seed, round as u64);
            let (text, minic) = match round % 3 {
                0 => (ddpa_ir::pretty(&minic_program(seed, plan.size)), true),
                1 => (minic_constraints(seed, plan.size), false),
                _ => (cyclic_constraints(seed, plan.size), false),
            };
            let (_, cp) = canonical(&text, minic);
            let solution = ddpa_anders::solve(&cp);
            let specs = mixed_queries(&cp, &solution, COLD_QUERIES, &mut Rng::seed_from_u64(seed));
            let (open, version) = self.open("c", &text, minic, false);
            stream.push(open);
            for spec in &specs {
                stream.push(self.query("c", version, spec));
            }
            stream.extend(self.close("c"));
        }
        self.streams.push(stream);
    }

    /// Two connections share one warmed session: every answer is a memo
    /// hit, so framing, JSON, the session lock and rendering remain.
    fn warm(&mut self, plan: &Plan) {
        let text = minic_constraints(plan.seed, plan.size);
        let (_, cp) = canonical(&text, false);
        let solution = ddpa_anders::solve(&cp);
        let pool = mixed_queries(
            &cp,
            &solution,
            WARM_POOL,
            &mut Rng::seed_from_u64(plan.seed),
        );
        let (open, version) = self.open("w", &text, false, false);
        self.setup.push(open);
        let warm_up = self.warm_up("w", version, &pool);
        self.setup.extend(warm_up);
        let queries: Vec<u32> = pool.iter().map(|s| self.query("w", version, s)).collect();
        let batches: Vec<u32> = pool
            .chunks(WARM_BATCH)
            .map(|chunk| self.batch("w", version, chunk))
            .collect();
        for conn in 0..2u64 {
            let mut rng = Rng::seed_from_u64(sub_seed(plan.seed, 1000 + conn));
            let mut stream = Vec::new();
            for _ in 0..plan.units {
                let batch_at = rng.gen_range(0..WARM_GROUP);
                for i in 0..WARM_GROUP {
                    let pool = if i == batch_at { &batches } else { &queries };
                    stream.push(*pick(pool, &mut rng));
                }
            }
            self.streams.push(stream);
        }
        self.teardown = self.close("w").to_vec();
    }

    /// One-line edits interleaved with re-answers of the pool: writes
    /// beside reads, through selective invalidation.
    fn edit(&mut self, plan: &Plan) {
        let text = minic_constraints(plan.seed, plan.size);
        let (_, cp) = canonical(&text, false);
        let mut rng = Rng::seed_from_u64(plan.seed);
        let solution = ddpa_anders::solve(&cp);
        let pool = mixed_queries(&cp, &solution, EDIT_POOL, &mut rng);
        let derefs = pointers(&cp);
        let (open, base) = self.open("e", &text, false, false);
        self.setup.push(open);
        let warm_up = self.warm_up("e", base, &pool);
        self.setup.extend(warm_up);
        let mut stream = Vec::new();
        for k in 0..plan.units {
            let p = *pick(&derefs, &mut rng);
            let line = if rng.gen_bool(EDIT_ADDR_SHARE) {
                format!("{} = &eobj{k}\n", cp.display_node(p))
            } else {
                let q = *pick(&copy_sources(&cp, &solution, &derefs, p), &mut rng);
                format!("{} = {}\n", cp.display_node(p), cp.display_node(q))
            };
            stream.push(self.push(Op::Edit, 0, build::add_constraints("e", &line)));
            self.edits.push(line);
            let version = self.version(open, k as u32 + 1);
            for _ in 0..EDIT_QUERIES {
                let spec = pick(&pool, &mut rng);
                stream.push(self.query("e", version, spec));
            }
        }
        self.streams.push(stream);
        self.teardown = self.close("e").to_vec();
    }

    /// Every round reopens the same program and warm-starts it from a
    /// snapshot taken during set-up.
    fn restart(&mut self, plan: &Plan, path: &str) {
        let text = minic_constraints(plan.seed, plan.size);
        let (_, cp) = canonical(&text, false);
        let derefs: Vec<QuerySpec> = pointers(&cp)
            .into_iter()
            .map(|n| QuerySpec::PointsTo {
                name: cp.display_node(n),
            })
            .collect();
        let mut rng = Rng::seed_from_u64(plan.seed);
        let pool = sample(&derefs, RESTART_POOL, &mut rng);
        let (open, version) = self.open("donor", &text, false, false);
        self.setup.push(open);
        let warm_up = self.warm_up("donor", version, &derefs);
        self.setup.extend(warm_up);
        let snapshot = self.push(Op::Snapshot, 0, build::snapshot("donor", Some(path)));
        self.setup.push(snapshot);
        let close = self.push(Op::Close, 0, build::close("donor"));
        self.setup.push(close);

        let (open, version) = self.open("r", &text, false, false);
        let restore = self.push(Op::Restore, 0, build::restore("r", path));
        let firsts: Vec<u32> = derefs.iter().map(|s| self.query("r", version, s)).collect();
        let pool: Vec<u32> = pool.iter().map(|s| self.query("r", version, s)).collect();
        let close = self.close("r");
        let mut stream = Vec::new();
        for _ in 0..plan.units {
            stream.extend([open, restore, *pick(&firsts, &mut rng)]);
            stream.extend(&pool);
            stream.extend(close);
        }
        self.streams.push(stream);
    }

    /// Every round asks `pts(hub)` of a fresh wide program on the frame
    /// scheduler, then chain tails that the first query tabled.
    fn wide(&mut self, plan: &Plan) {
        self.workers = WIDE_WORKERS;
        let mut stream = Vec::new();
        for round in 0..plan.units {
            let seed = sub_seed(plan.seed, round as u64);
            // Only node names are asked, and printing keeps them.
            let cp = generate_wide(&WideConfig::sized(seed, plan.size));
            let text = print_constraints(&cp);
            let hub = cp
                .node_ids()
                .find(|&n| cp.display_node(n) == "hub")
                .expect("wide programs have a hub");
            let tails: Vec<QuerySpec> = cp
                .copy_srcs_of(hub)
                .iter()
                .map(|&n| QuerySpec::PointsTo {
                    name: cp.display_node(n),
                })
                .collect();
            let tails = sample(&tails, WIDE_TAILS, &mut Rng::seed_from_u64(seed));
            let (open, version) = self.open("d", &text, false, true);
            stream.push(open);
            let hub = QuerySpec::PointsTo { name: "hub".into() };
            for spec in std::iter::once(&hub).chain(&tails) {
                stream.push(self.query("d", version, spec));
            }
            stream.extend(self.close("d"));
        }
        self.streams.push(stream);
    }
}

/// A seed for sub-stream `stream` of `seed` (SplitMix64 finalizer).
fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The program a session serves for `text`: parsed (or lowered from
/// MiniC), printed canonically and re-parsed, as `Session::open` does, so
/// node names and call-site numbers match the server's.
pub fn canonical(text: &str, minic: bool) -> (String, ConstraintProgram) {
    let cp = if minic {
        let ast = ddpa_ir::parse(text).expect("generated MiniC parses");
        ddpa_constraints::lower(&ast).expect("generated MiniC lowers")
    } else {
        ddpa_constraints::parse_constraints(text).expect("generated constraints parse")
    };
    let source = print_constraints(&cp);
    let cp = ddpa_constraints::parse_constraints(&source).expect("printed constraints re-parse");
    (source, cp)
}

/// Appends `extra` to a session's source text, as `add-constraints` does.
pub fn append_edit(source: &mut String, extra: &str) {
    if !source.is_empty() && !source.ends_with('\n') {
        source.push('\n');
    }
    source.push_str(extra);
}

// The programs come from the MiniC and copy-cycle generators because their
// cost is steady across seeds (work varies by about 5% and 15%). The
// random generator's is not: nearly all of a random program's demand work
// is one fixpoint whose size swings a hundredfold with the seed, so a
// seed change would swamp any code change.

/// A MiniC program of about `size` constraints once lowered.
fn minic_program(seed: u64, size: usize) -> ddpa_ir::Program {
    generate_minic(&MiniCConfig::sized(seed, (size * 6 / 100).max(6)))
}

/// [`minic_program`] lowered and printed as constraint text.
fn minic_constraints(seed: u64, size: usize) -> String {
    let cp = ddpa_constraints::lower(&minic_program(seed, size)).expect("generated MiniC lowers");
    print_constraints(&cp)
}

/// Chained copy rings of about `size` constraints (`5 × scale²`).
fn cyclic_constraints(seed: u64, size: usize) -> String {
    let scale = (size as f64 / 5.0).sqrt().round() as usize;
    print_constraints(&generate_cyclic(&CyclicConfig::sized(seed, scale)))
}

/// The pointers queries ask about: those some load or store dereferences,
/// or, in a program without loads and stores, every copy destination.
fn pointers(cp: &ConstraintProgram) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = cp
        .loads()
        .iter()
        .map(|l| l.ptr)
        .chain(cp.stores().iter().map(|s| s.ptr))
        .collect();
    if nodes.is_empty() {
        nodes = cp.copies().iter().map(|c| c.dst).collect();
    }
    nodes.sort_unstable();
    nodes.dedup();
    nodes
}

/// Sources for a copy edit `p = q`: pointers of `p`'s function (the `f::`
/// prefix of their names) whose points-to set is already inside `p`'s, or
/// `p` itself if there are none. Copy edits then re-run dirtying without
/// joining flows: arbitrary copies merge ever larger components, and the
/// cost of an edit cycle would grow with every edit of the rep.
fn copy_sources(
    cp: &ConstraintProgram,
    solution: &ddpa_anders::Solution,
    pointers: &[NodeId],
    p: NodeId,
) -> Vec<NodeId> {
    let scope = |n: NodeId| {
        let name = cp.display_node(n);
        name.rsplit_once("::").map(|(f, _)| f.to_owned())
    };
    let home = scope(p);
    let inside = |q: NodeId| {
        let target = |o: u32| solution.points_to(p, NodeId::from_u32(o));
        solution.pts(q).iter().all(target)
    };
    let sources: Vec<NodeId> = pointers
        .iter()
        .copied()
        .filter(|&q| q != p && scope(q) == home && inside(q))
        .collect();
    if sources.is_empty() {
        vec![p]
    } else {
        sources
    }
}

/// Up to `n` distinct queries: 60% points-to on [`pointers`], 15%
/// pointed-to-by on address-taken objects, 15% may-alias between
/// pointers, 10% call-targets at indirect sites. A kind the program has
/// too few candidates for is capped, not repeated.
///
/// Pointed-to-by answers range from none to over a thousand names, so
/// objects are ordered by answer size (from `solution`) before
/// [`sample`] spaces its picks: every pool then holds the same mix of
/// answer sizes, whatever the seed.
fn mixed_queries(
    cp: &ConstraintProgram,
    solution: &ddpa_anders::Solution,
    n: usize,
    rng: &mut Rng,
) -> Vec<QuerySpec> {
    let name = |node: NodeId| cp.display_node(node);
    let derefs = pointers(cp);
    let mut pointed_by = vec![0usize; cp.num_nodes()];
    for w in cp.node_ids() {
        for o in solution.pts(w).iter() {
            pointed_by[o as usize] += 1;
        }
    }
    let mut objects: Vec<NodeId> = cp.addr_ofs().iter().map(|a| a.obj).collect();
    objects.sort_unstable_by_key(|&o| (pointed_by[o.as_u32() as usize], o));
    objects.dedup();
    let sites: Vec<u64> = cp
        .indirect_callsites()
        .iter()
        .map(|cs| cs.as_u32() as u64)
        .collect();

    let targets = sample(&sites, n / 10, rng);
    let ptb = sample(&objects, n * 15 / 100, rng);
    let mut specs: Vec<QuerySpec> = Vec::with_capacity(n);
    let mut pairs = std::collections::HashSet::new();
    for _ in 0..(n * 15 / 100) * 4 {
        if pairs.len() == n * 15 / 100 || derefs.len() < 2 {
            break;
        }
        let (a, b) = (*pick(&derefs, rng), *pick(&derefs, rng));
        if a != b && pairs.insert((a.min(b), a.max(b))) {
            specs.push(QuerySpec::MayAlias {
                a: name(a),
                b: name(b),
            });
        }
    }
    let pts = n - targets.len() - ptb.len() - specs.len();
    specs.extend(
        sample(&derefs, pts, rng)
            .into_iter()
            .map(|p| QuerySpec::PointsTo { name: name(p) }),
    );
    specs.extend(
        ptb.into_iter()
            .map(|o| QuerySpec::PointedToBy { name: name(o) }),
    );
    specs.extend(
        targets
            .into_iter()
            .map(|site| QuerySpec::CallTargets { site }),
    );
    shuffle(&mut specs, rng);
    specs
}

fn pick<'a, T>(items: &'a [T], rng: &mut Rng) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

/// Up to `n` distinct elements of `items`, evenly spaced from a random
/// offset, in random order. Spacing keeps every part of the program
/// represented in proportion: in MiniC programs a pointed-to-by answer
/// ranges from none to over a thousand names by layer, and a uniform draw
/// would let the seed decide how many large answers a pool holds.
fn sample<T: Clone>(items: &[T], n: usize, rng: &mut Rng) -> Vec<T> {
    let n = n.min(items.len());
    if n == 0 {
        return Vec::new();
    }
    let step = items.len() as f64 / n as f64;
    let offset = rng.gen_range(0..(step as usize).max(1)) as f64;
    let mut picked: Vec<T> = (0..n)
        .map(|i| items[((offset + i as f64 * step) as usize).min(items.len() - 1)].clone())
        .collect();
    shuffle(&mut picked, rng);
    picked
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}
