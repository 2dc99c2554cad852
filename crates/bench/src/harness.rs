//! Runners for every experiment (tables T1–T11 without the retired T5 and
//! T7, figures F1–F3, ablation A3).

use std::time::{Duration, Instant};

use ddpa_anders::{worklist, SolverConfig};
use ddpa_callgraph::CallGraph;
use ddpa_constraints::{ConstraintProgram, NodeId, ProgramStats};
use ddpa_demand::{DemandConfig, DemandEngine};
use ddpa_gen::Benchmark;
use ddpa_obs::Obs;
use ddpa_support::Summary;

/// Runs `setup` then `timed` `runs` (≥ 1) times; returns the last run's
/// state and result with the best wall time of `timed` alone (setups and
/// drops are never timed).
fn best_of<S, T>(
    runs: usize,
    mut setup: impl FnMut() -> S,
    mut timed: impl FnMut(&mut S) -> T,
) -> (S, T, Duration) {
    let mut best = Duration::MAX;
    let mut last = None;
    for _ in 0..runs.max(1) {
        drop(last.take());
        let mut state = setup();
        let start = Instant::now();
        let out = timed(&mut state);
        best = best.min(start.elapsed());
        last = Some((state, out));
    }
    let (state, out) = last.expect("at least one run");
    (state, out, best)
}

/// The cyclic suite's program at `scale` and its pointer-variable
/// queries: every node whose name lacks `obj` (ring members, tails).
pub fn cyclic_workload(scale: usize) -> (ConstraintProgram, Vec<NodeId>) {
    let cp = ddpa_gen::generate_cyclic(&ddpa_gen::CyclicConfig::sized(42, scale));
    let queries = cp
        .node_ids()
        .filter(|&n| !cp.display_node(n).contains("obj"))
        .collect();
    (cp, queries)
}

/// Function-pointer nodes of all indirect call sites (the paper's query set).
pub fn fp_queries(cp: &ConstraintProgram) -> Vec<NodeId> {
    let mut q: Vec<NodeId> = cp
        .indirect_callsites()
        .iter()
        .map(|&cs| match cp.callsite(cs).callee {
            ddpa_constraints::CalleeRef::Indirect(fp) => fp,
            ddpa_constraints::CalleeRef::Direct(_) => unreachable!("indirect sites only"),
        })
        .collect();
    q.sort_unstable();
    q.dedup();
    q
}

// ---------------------------------------------------------------------
// T1: benchmark characteristics
// ---------------------------------------------------------------------

/// One row of the program-characteristics table.
#[derive(Clone, Debug)]
pub struct T1Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Program statistics.
    pub stats: ProgramStats,
}

/// Regenerates table T1.
pub fn run_t1(benches: &[Benchmark]) -> Vec<T1Row> {
    benches
        .iter()
        .map(|b| T1Row {
            name: b.name,
            stats: ProgramStats::of(&b.build()),
        })
        .collect()
}

// ---------------------------------------------------------------------
// T2 (+A1): exhaustive analysis times
// ---------------------------------------------------------------------

/// One row of the exhaustive-analysis table.
#[derive(Clone, Debug)]
pub struct T2Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Worklist solver with cycle collapsing.
    pub time: Duration,
    /// Ablation (A1): cycle collapsing disabled.
    pub time_no_cycles: Duration,
    /// Work counters of the default configuration.
    pub stats: worklist::SolveStats,
    /// Total points-to set size (precision/size metric).
    pub total_pts: usize,
}

/// Regenerates table T2 and ablation A1.
pub fn run_t2(benches: &[Benchmark]) -> Vec<T2Row> {
    benches
        .iter()
        .map(|b| {
            let cp = b.build();
            let start = Instant::now();
            let (solution, stats) = worklist::solve(&cp, &SolverConfig::default());
            let time = start.elapsed();
            let start = Instant::now();
            let _ = worklist::solve(&cp, &SolverConfig::without_cycle_elimination());
            let time_no_cycles = start.elapsed();
            T2Row {
                name: b.name,
                time,
                time_no_cycles,
                stats,
                total_pts: solution.total_pts_size(&cp),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// T3: demand-driven call-graph client vs exhaustive
// ---------------------------------------------------------------------

/// One row of the demand-vs-exhaustive client table.
#[derive(Clone, Debug)]
pub struct T3Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Indirect call-site queries issued.
    pub queries: usize,
    /// Queries fully resolved within budget.
    pub resolved: usize,
    /// Wall time for the whole demand-driven call-graph build.
    pub demand_time: Duration,
    /// Wall time for exhaustive solve + call-graph extraction.
    pub exhaustive_time: Duration,
    /// Average per-query wall time.
    pub avg_query_time: Duration,
    /// `exhaustive_time / demand_time`.
    pub speedup: f64,
    /// Demand targets identical to exhaustive targets on every site.
    pub precision_identical: bool,
    /// Mean callee-set size at indirect sites (precision of the client).
    pub avg_targets: f64,
    /// Mean rule firings per demand query (`demand.fires / demand.queries`).
    pub fires_per_query: f64,
    /// Total demand-side work units (`demand.work` counter).
    pub demand_work: u64,
    /// Total exhaustive-side work units (`anders.work` counter).
    pub exhaustive_work: u64,
    /// `demand_work / exhaustive_work`, or `None` when the exhaustive side
    /// did no measurable work.
    pub work_ratio: Option<f64>,
}

/// Regenerates table T3 with the given per-query budget.
pub fn run_t3(benches: &[Benchmark], budget: Option<u64>) -> Vec<T3Row> {
    benches
        .iter()
        .map(|b| {
            let cp = b.build();
            // Both sides publish into one registry so the report can
            // compare demand-side and exhaustive-side work directly.
            let obs = Obs::new();

            let start = Instant::now();
            let solution = ddpa_anders::solve_with_obs(&cp, &obs);
            let exhaustive_cg = CallGraph::from_exhaustive(&cp, &solution);
            let exhaustive_time = start.elapsed();

            let config = DemandConfig {
                budget,
                ..DemandConfig::default()
            };
            let mut engine = DemandEngine::with_obs(&cp, config, obs.clone());
            let start = Instant::now();
            let (demand_cg, stats) = CallGraph::from_demand(&mut engine);
            let demand_time = start.elapsed();

            let queries = stats.indirect_resolved + stats.indirect_fallback;
            let avg = if queries == 0 {
                Duration::ZERO
            } else {
                demand_time / queries as u32
            };
            let fires = obs.registry.counter_value("demand.fires");
            let demand_queries = obs.registry.counter_value("demand.queries");
            let demand_work = obs.registry.counter_value("demand.work");
            let exhaustive_work = obs.registry.counter_value("anders.work");
            T3Row {
                name: b.name,
                queries,
                resolved: stats.indirect_resolved,
                demand_time,
                exhaustive_time,
                avg_query_time: avg,
                speedup: exhaustive_time.as_secs_f64() / demand_time.as_secs_f64().max(1e-9),
                precision_identical: demand_cg.same_as(&exhaustive_cg),
                avg_targets: demand_cg.avg_indirect_targets(&cp),
                fires_per_query: if demand_queries == 0 {
                    0.0
                } else {
                    fires as f64 / demand_queries as f64
                },
                demand_work,
                exhaustive_work,
                work_ratio: (exhaustive_work != 0)
                    .then(|| demand_work as f64 / exhaustive_work as f64),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// T4: caching ablation
// ---------------------------------------------------------------------

/// One row of the caching-ablation table.
#[derive(Clone, Debug)]
pub struct T4Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Number of queries in the sample.
    pub queries: usize,
    /// Wall time with memoization across queries.
    pub time_cached: Duration,
    /// Wall time with the table cleared between queries.
    pub time_uncached: Duration,
    /// Total rule firings with caching.
    pub work_cached: u64,
    /// Total rule firings without caching.
    pub work_uncached: u64,
}

/// Regenerates table T4 over (up to) `max_queries` dereference queries.
pub fn run_t4(benches: &[Benchmark], max_queries: usize) -> Vec<T4Row> {
    benches
        .iter()
        .map(|b| {
            let cp = b.build();
            let queries: Vec<NodeId> = cp.deref_pointers().into_iter().take(max_queries).collect();

            let mut cached = DemandEngine::new(&cp, DemandConfig::default());
            let start = Instant::now();
            let mut work_cached = 0;
            for &q in &queries {
                work_cached += cached.points_to(q).work;
            }
            let time_cached = start.elapsed();

            let mut uncached = DemandEngine::new(&cp, DemandConfig::default().without_caching());
            let start = Instant::now();
            let mut work_uncached = 0;
            for &q in &queries {
                work_uncached += uncached.points_to(q).work;
            }
            let time_uncached = start.elapsed();

            T4Row {
                name: b.name,
                queries: queries.len(),
                time_cached,
                time_uncached,
                work_cached,
                work_uncached,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// F1: per-query cost distribution
// ---------------------------------------------------------------------

/// One row of the per-query cost-distribution figure.
#[derive(Clone, Debug)]
pub struct F1Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Distribution of per-query work (rule firings), caching off so each
    /// query is measured in isolation.
    pub work: Summary,
}

/// Regenerates figure F1 over (up to) `max_queries` dereference queries.
pub fn run_f1(benches: &[Benchmark], max_queries: usize) -> Vec<F1Row> {
    benches
        .iter()
        .map(|b| {
            let cp = b.build();
            let mut engine = DemandEngine::new(&cp, DemandConfig::default().without_caching());
            let mut samples: Vec<u64> = cp
                .deref_pointers()
                .into_iter()
                .take(max_queries)
                .map(|q| engine.points_to(q).work)
                .collect();
            F1Row {
                name: b.name,
                work: Summary::of(&mut samples),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// F2: cumulative demand time vs. number of queries (crossover)
// ---------------------------------------------------------------------

/// One sampled point of the crossover figure.
#[derive(Clone, Debug)]
pub struct F2Point {
    /// Number of queries answered (with caching).
    pub k: usize,
    /// Cumulative demand time for those `k` queries.
    pub demand_time: Duration,
}

/// One benchmark's crossover curve.
#[derive(Clone, Debug)]
pub struct F2Row {
    /// Benchmark name.
    pub name: &'static str,
    /// The exhaustive baseline (constant in `k`).
    pub exhaustive_time: Duration,
    /// Demand curve, by increasing `k`.
    pub points: Vec<F2Point>,
    /// Smallest sampled `k` whose cumulative demand time exceeds the
    /// exhaustive time, if any.
    pub crossover_k: Option<usize>,
}

/// Regenerates figure F2. `ks` must be increasing.
pub fn run_f2(benches: &[Benchmark], ks: &[usize]) -> Vec<F2Row> {
    benches
        .iter()
        .map(|b| {
            let cp = b.build();
            let start = Instant::now();
            let _ = ddpa_anders::solve(&cp);
            let exhaustive_time = start.elapsed();

            let queries = cp.deref_pointers();
            let mut points = Vec::new();
            let mut clamped: Vec<usize> = ks.iter().map(|&k| k.min(queries.len())).collect();
            clamped.dedup();
            for k in clamped {
                let mut engine = DemandEngine::new(&cp, DemandConfig::default());
                let start = Instant::now();
                for &q in &queries[..k] {
                    let _ = engine.points_to(q);
                }
                points.push(F2Point {
                    k,
                    demand_time: start.elapsed(),
                });
            }
            let crossover_k = points
                .iter()
                .find(|p| p.demand_time > exhaustive_time)
                .map(|p| p.k);
            F2Row {
                name: b.name,
                exhaustive_time,
                points,
                crossover_k,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// F3: resolution rate vs. budget
// ---------------------------------------------------------------------

/// One sampled point of the budget-sweep figure.
#[derive(Clone, Debug)]
pub struct F3Point {
    /// Per-query budget (rule firings).
    pub budget: u64,
    /// Fraction of queries fully resolved under that budget.
    pub resolved: f64,
    /// Mean per-query work actually consumed.
    pub avg_work: f64,
}

/// One benchmark's budget sweep.
#[derive(Clone, Debug)]
pub struct F3Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Points by increasing budget.
    pub points: Vec<F3Point>,
}

/// Regenerates figure F3 over (up to) `max_queries` dereference queries.
///
/// A fresh engine is used per budget so partial state from one sweep point
/// cannot help the next; caching stays on *within* a sweep point, matching
/// how a client would actually run under a budget.
pub fn run_f3(benches: &[Benchmark], budgets: &[u64], max_queries: usize) -> Vec<F3Row> {
    benches
        .iter()
        .map(|b| {
            let cp = b.build();
            let queries: Vec<NodeId> = cp.deref_pointers().into_iter().take(max_queries).collect();
            let mut points = Vec::new();
            for &budget in budgets {
                let mut engine =
                    DemandEngine::new(&cp, DemandConfig::default().with_budget(budget));
                let mut resolved = 0usize;
                let mut work = 0u64;
                for &q in &queries {
                    let r = engine.points_to(q);
                    resolved += r.complete as usize;
                    work += r.work;
                }
                let n = queries.len().max(1);
                points.push(F3Point {
                    budget,
                    resolved: resolved as f64 / n as f64,
                    avg_work: work as f64 / n as f64,
                });
            }
            F3Row {
                name: b.name,
                points,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// A3: context-sensitivity (cloning) ablation
// ---------------------------------------------------------------------

/// One sampled point of the context-sensitivity ablation.
#[derive(Clone, Debug)]
pub struct A3Point {
    /// Call-string depth.
    pub k: usize,
    /// `(function, context)` clones created.
    pub clones: usize,
    /// Node-count expansion factor vs the original program.
    pub expansion: f64,
    /// Wall time to expand + solve the expansion.
    pub time: Duration,
    /// Σ projected points-to set sizes (lower = more precise).
    pub total_pts: usize,
}

/// One benchmark's context-sensitivity sweep.
#[derive(Clone, Debug)]
pub struct A3Row {
    /// Benchmark name.
    pub name: &'static str,
    /// The context-insensitive baseline total.
    pub ci_total_pts: usize,
    /// Points by increasing k.
    pub points: Vec<A3Point>,
}

/// Regenerates ablation A3: precision/cost of k-call-string cloning.
pub fn run_a3(benches: &[Benchmark], ks: &[usize]) -> Vec<A3Row> {
    benches
        .iter()
        .map(|b| {
            let cp = b.build();
            let ci = ddpa_anders::solve(&cp);
            let ci_total_pts = cp.node_ids().map(|n| ci.pts(n).len()).sum();
            let mut engine = DemandEngine::new(&cp, DemandConfig::default());
            let (cg, _) = CallGraph::from_demand(&mut engine);
            let points = ks
                .iter()
                .map(|&k| {
                    let start = Instant::now();
                    let cs = ddpa_cxt::CsAnalysis::run_with_callgraph(
                        &cp,
                        &cg,
                        &ddpa_cxt::CloneConfig::with_k(k),
                    );
                    let time = start.elapsed();
                    A3Point {
                        k,
                        clones: cs.cloned.clone_count,
                        expansion: cs.cloned.expansion_factor(&cp),
                        time,
                        total_pts: cs.total_pts(&cp),
                    }
                })
                .collect();
            A3Row {
                name: b.name,
                ci_total_pts,
                points,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// T6: online cycle collapsing on cycle-dominated programs
// ---------------------------------------------------------------------

/// One row of the cycle-collapsing table.
#[derive(Clone, Debug)]
pub struct T6Row {
    /// Workload name (`cyc-<scale>`).
    pub name: String,
    /// Pointer-variable queries issued (the copy-flow demand set).
    pub queries: usize,
    /// Total work units with collapsing on (default config).
    pub work_on: u64,
    /// Total work units with collapsing off.
    pub work_off: u64,
    /// Total rule firings with collapsing on.
    pub fires_on: u64,
    /// Total rule firings with collapsing off.
    pub fires_off: u64,
    /// Wall time with collapsing on.
    pub time_on: Duration,
    /// Wall time with collapsing off.
    pub time_off: Duration,
    /// SCC passes run by the collapsing engine.
    pub cycle_runs: u64,
    /// Copy cycles collapsed.
    pub cycles_collapsed: u64,
    /// Goals merged away into representatives.
    pub merged_goals: u64,
    /// Every query answer bit-identical between the two configurations.
    pub identical: bool,
}

impl T6Row {
    /// `work_off / work_on` — the headline reduction factor.
    pub fn work_reduction(&self) -> f64 {
        self.work_off as f64 / self.work_on.max(1) as f64
    }
}

/// Regenerates table T6: demand work with online cycle collapsing on vs
/// off, over the cycle-dominated generated suite ([`ddpa_gen::cyclic`]).
///
/// Queries cover the pointer variables ([`cyclic_workload`]) — the copy
/// flow the optimization targets; querying the address-taken objects
/// would measure the `ptb` judgment, which has no per-goal duplication
/// for collapsing to remove.
pub fn run_t6(scales: &[usize]) -> Vec<T6Row> {
    scales
        .iter()
        .map(|&scale| {
            let (cp, queries) = cyclic_workload(scale);
            let answer = |config: DemandConfig| {
                let mut engine = DemandEngine::new(&cp, config);
                let start = Instant::now();
                let answers: Vec<Vec<NodeId>> =
                    queries.iter().map(|&q| engine.points_to(q).pts).collect();
                (answers, start.elapsed(), engine.stats())
            };
            let (ans_on, time_on, on) = answer(DemandConfig::default());
            let (ans_off, time_off, off) =
                answer(DemandConfig::default().without_cycle_collapsing());
            T6Row {
                name: format!("cyc-{scale}"),
                queries: queries.len(),
                work_on: on.work,
                work_off: off.work,
                fires_on: on.fires,
                fires_off: off.fires,
                time_on,
                time_off,
                cycle_runs: on.cycle_runs,
                cycles_collapsed: on.cycles_collapsed,
                merged_goals: on.merged_goals,
                identical: ans_on == ans_off,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// T8: durable snapshots — cold vs restored time-to-first-answer
// ---------------------------------------------------------------------

/// Timed runs per side of a T8 row.
const T8_RUNS: usize = 3;

/// One row of the snapshot warm-start table.
#[derive(Clone, Debug)]
pub struct T8Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Dereference queries answered in each run.
    pub queries: usize,
    /// Completed fixpoints captured in the snapshot.
    pub entries: usize,
    /// Snapshot size on disk, in bytes.
    pub bytes: usize,
    /// Cold run: fresh engine deduces every answer from scratch.
    pub time_cold: Duration,
    /// Restored run: read + verify + warm-start + answer the same set.
    pub time_restored: Duration,
    /// Restored answers bit-identical to the cold answers.
    pub identical: bool,
}

impl T8Row {
    /// `time_cold / time_restored` — the headline warm-start gain.
    pub fn speedup(&self) -> f64 {
        self.time_cold.as_secs_f64() / self.time_restored.as_secs_f64().max(1e-9)
    }
}

/// Regenerates table T8: time-to-first-answer of a cold engine vs one
/// warm-started from a durable snapshot ([`ddpa_snap`]).
///
/// Programs run in canonical form ([`ddpa_constraints::canonicalize`]).
/// The cold run answers every dereference query from scratch; the
/// snapshot of its memo table round-trips through an actual file, and the
/// restored run measures the full restore path `ddpa restore` takes:
/// read, checksum verification, [`ddpa_snap::restore`] moving the decoded
/// entries in, then answering the identical query set. Each side is timed
/// the same way, as the best of three runs on fresh engines: one run of a
/// small benchmark takes about a millisecond, and a single timing let
/// scheduler noise decide the ratio.
pub fn run_t8(benches: &[Benchmark]) -> Vec<T8Row> {
    let dir = std::env::temp_dir().join("ddpa-bench-t8");
    benches
        .iter()
        .map(|b| {
            let path = dir.join(format!("{}.snap", b.name));
            let row = t8_row(b, &path);
            let _ = std::fs::remove_file(&path);
            row
        })
        .collect()
}

/// One T8 row, leaving its snapshot file at `path`.
fn t8_row(b: &Benchmark, path: &std::path::Path) -> T8Row {
    let (cp, text) =
        ddpa_constraints::canonicalize(b.build(), None).expect("a printed program parses");
    let queries: Vec<NodeId> = cp.deref_pointers();

    let ((), (cold_answers, cold), time_cold) = best_of(
        T8_RUNS,
        || (),
        |_| {
            let mut cold = DemandEngine::new(&cp, DemandConfig::default());
            let answers: Vec<Vec<NodeId>> =
                queries.iter().map(|&q| cold.points_to(q).pts).collect();
            (answers, cold)
        },
    );

    let snapshot = ddpa_snap::Snapshot::capture(&cold, text.as_str());
    let bytes = ddpa_snap::write_file(&snapshot, path).expect("write snapshot");

    let ((), (warm_answers, _), time_restored) = best_of(
        T8_RUNS,
        || (),
        |_| {
            let restored = ddpa_snap::read_file(path).expect("read snapshot");
            let mut warm = DemandEngine::new(&cp, DemandConfig::default());
            ddpa_snap::restore(&mut warm, &text, std::borrow::Cow::Owned(restored))
                .expect("same program");
            let answers: Vec<Vec<NodeId>> =
                queries.iter().map(|&q| warm.points_to(q).pts).collect();
            (answers, warm)
        },
    );

    T8Row {
        name: b.name,
        queries: queries.len(),
        entries: snapshot.entries.len(),
        bytes,
        time_cold,
        time_restored,
        identical: cold_answers == warm_answers,
    }
}

// ---------------------------------------------------------------------
// T9: flight-recorder overhead + critical-path parallelism headroom
// ---------------------------------------------------------------------

/// A T9 program: a cyclic-suite scale or a MiniC function count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum T9Program {
    /// `generate_cyclic(&CyclicConfig::sized(42, scale))`, every pointer
    /// variable queried.
    Cyclic(usize),
    /// `generate_minic(&MiniCConfig::sized(42, funcs))` lowered, every
    /// dereferenced pointer queried. At 240 functions this is the MiniC
    /// program a servebench `cold` round opens; such programs install a
    /// watcher on almost every firing, and each install is a recorded
    /// `blocked` event.
    MiniC(usize),
}

/// One row of the flight-recorder / critical-path table.
#[derive(Clone, Debug)]
pub struct T9Row {
    /// Workload name (`cyc-<scale>` or `minic-<funcs>`).
    pub name: String,
    /// Pointer-variable queries issued.
    pub queries: usize,
    /// Total attributed deduction work `W`.
    pub work: u64,
    /// Critical-path span `S` over the goal-graph condensation.
    pub span: u64,
    /// `W / S` — the parallelism-headroom bound.
    pub headroom: f64,
    /// Live goals in the goal graph.
    pub goals: usize,
    /// Dependency edges between distinct goals.
    pub edges: usize,
    /// Rule firings of the recorder-on run.
    pub fires: u64,
    /// Flight events landed in the ring at the default sampling.
    pub flight_recorded: u64,
    /// Events evicted by ring wrap-around.
    pub flight_dropped: u64,
    /// Wall time with the recorder off (best of the repeats).
    pub time_off: Duration,
    /// Wall time with the recorder on (best of the repeats).
    pub time_on: Duration,
    /// Every query answer bit-identical recorder on vs off.
    pub identical: bool,
}

impl T9Row {
    /// Recorder overhead relative to the recorder-off wall time
    /// (0.03 = 3% slower with the recorder on).
    pub fn overhead(&self) -> f64 {
        self.time_on.as_secs_f64() / self.time_off.as_secs_f64().max(1e-9) - 1.0
    }

    /// Recorded flight events per rule firing: near 1/64 (the default
    /// fire-sampling stride) when firings dominate, near 1 when every
    /// firing also installs a watcher.
    pub fn events_per_fire(&self) -> f64 {
        self.flight_recorded as f64 / self.fires.max(1) as f64
    }
}

/// Regenerates table T9: what the deduction flight recorder costs, and
/// what the goal graph's critical path says about parallelism headroom.
///
/// Each program is answered `repeats` times with the recorder off and on
/// (default capacity/sampling) in turn, on a fresh engine each time,
/// taking the best wall time per configuration so scheduler noise does
/// not swamp the effect being measured. `W` (total attributed work), `S`
/// (the heaviest dependent chain over the SCC condensation of the goal
/// graph) and `W/S` come from the recorder-on engine's drained table. Recording must never
/// change deduction, which the row asserts via `identical`.
pub fn run_t9(programs: &[T9Program], repeats: usize) -> Vec<T9Row> {
    assert!(repeats > 0, "need at least one timed run");
    programs
        .iter()
        .map(|&program| {
            let (name, cp, queries) = match program {
                T9Program::Cyclic(scale) => {
                    let (cp, queries) = cyclic_workload(scale);
                    (format!("cyc-{scale}"), cp, queries)
                }
                T9Program::MiniC(funcs) => {
                    let ast = ddpa_gen::generate_minic(&ddpa_gen::MiniCConfig::sized(42, funcs));
                    let cp = ddpa_constraints::lower(&ast).expect("generated MiniC lowers");
                    let queries = cp.deref_pointers();
                    (format!("minic-{funcs}"), cp, queries)
                }
            };
            let run = |config: &DemandConfig| {
                let mut engine = DemandEngine::new(&cp, config.clone());
                let start = Instant::now();
                let answers: Vec<Vec<NodeId>> =
                    queries.iter().map(|&q| engine.points_to(q).pts).collect();
                (answers, start.elapsed(), engine)
            };
            // Off and on alternate, so a drift in machine speed over the
            // repeats lands on both sides alike.
            let off = DemandConfig::default().without_flight_recorder();
            let (mut time_off, mut time_on) = (Duration::MAX, Duration::MAX);
            let mut kept = None;
            for _ in 0..repeats {
                let (ans_off, t, _) = run(&off);
                time_off = time_off.min(t);
                let (ans_on, t, engine) = run(&DemandConfig::default());
                time_on = time_on.min(t);
                kept = Some((ans_off, ans_on, engine));
            }
            let (ans_off, ans_on, engine) = kept.expect("at least one run");
            let cpath = engine.critical_path();
            let (flight_recorded, flight_dropped) = engine
                .flight_recorder()
                .map(|f| (f.recorded(), f.dropped()))
                .unwrap_or((0, 0));
            T9Row {
                name,
                queries: queries.len(),
                work: cpath.work,
                span: cpath.span,
                headroom: cpath.headroom,
                goals: cpath.goals,
                edges: cpath.edges,
                fires: engine.stats().fires,
                flight_recorded,
                flight_dropped,
                time_off,
                time_on,
                identical: ans_on == ans_off,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// T10: intra-query parallel scheduler speedup vs T9 headroom
// ---------------------------------------------------------------------

/// One row of the single-query parallel-scheduler table.
#[derive(Clone, Debug)]
pub struct T10Row {
    /// Workload name (`wide-<chains>` / `cyc-<scale>`).
    pub name: String,
    /// Display name of the one queried variable.
    pub query: String,
    /// Worker threads used by the parallel run.
    pub workers: usize,
    /// The query's own `W/S` headroom bound (sequential goal graph).
    pub headroom: f64,
    /// Sequential wall time (best of the repeats).
    pub time_seq: Duration,
    /// Parallel wall time at `workers` threads (best of the repeats).
    pub time_par: Duration,
    /// Sequential work with cycle collapsing off — the fire multiset the
    /// scheduler replays.
    pub work_seq: u64,
    /// Total work summed over all workers.
    pub work_par: u64,
    /// Frames taken from another worker's deque.
    pub steals: u64,
    /// Steps that parked an incomplete frame.
    pub parked: u64,
    /// Reschedules of previously stepped frames.
    pub wakeups: u64,
    /// Parallel answer bit-identical to the sequential one.
    pub identical: bool,
}

impl T10Row {
    /// Measured wall-clock speedup of the parallel run.
    pub fn speedup(&self) -> f64 {
        self.time_seq.as_secs_f64() / self.time_par.as_secs_f64().max(1e-9)
    }

    /// Total-work inflation of the parallel run (1.0 = the exact same
    /// fire multiset; the acceptance bound is ≤ 1.1).
    pub fn work_ratio(&self) -> f64 {
        self.work_par as f64 / (self.work_seq as f64).max(1e-9)
    }
}

/// Regenerates table T10: what the frame scheduler actually extracts
/// from the headroom T9 bounds.
///
/// Each workload is answered as ONE query — `pts(hub)` on the wide
/// suite, the first ring variable on the cyclic suite — sequentially and
/// then on the work-stealing scheduler at `workers` threads, best wall
/// time of `repeats` fresh-engine runs each. The wide rows are the
/// headroom-rich regime (independent chains, `W/S ≈ chains`); the cyclic
/// rows are the antithesis (one strongly-connected ring per query,
/// `W/S ≈ 1`) and pin down that speedup tracks headroom rather than
/// thread count. `work_seq` is measured with cycle collapsing off
/// because that is the fire multiset the scheduler replays; on a fresh
/// table the two are equal, which `work_ratio` makes visible.
pub fn run_t10(
    wide_sizes: &[usize],
    cyc_scales: &[usize],
    workers: usize,
    repeats: usize,
) -> Vec<T10Row> {
    assert!(repeats > 0, "need at least one timed run");
    let workers = workers.max(2);
    let workloads: Vec<(String, ConstraintProgram, NodeId)> = wide_sizes
        .iter()
        .map(|&size| {
            let config = ddpa_gen::WideConfig::sized(97, size);
            let cp = ddpa_gen::generate_wide(&config);
            let hub = cp
                .node_ids()
                .find(|&n| cp.display_node(n) == "hub")
                .expect("wide workload has a hub");
            (format!("wide-{}", config.chains), cp, hub)
        })
        .chain(cyc_scales.iter().map(|&scale| {
            let (cp, queries) = cyclic_workload(scale);
            let first = *queries.first().expect("cyclic workload has ring variables");
            (format!("cyc-{scale}"), cp, first)
        }))
        .collect();
    workloads
        .into_iter()
        .map(|(name, cp, q)| {
            let answer = |config: DemandConfig| {
                best_of(
                    repeats,
                    || DemandEngine::new(&cp, config.clone()),
                    |engine| engine.points_to(q),
                )
            };
            let (seq_engine, seq, time_seq) = answer(DemandConfig::default());
            let headroom = seq_engine.critical_path().headroom;
            // The scheduler runs collapse-off; measure the matching
            // sequential fire multiset for the work comparison.
            let (_, seq_off, _) = answer(DemandConfig::default().without_cycle_collapsing());
            let (par_engine, par, time_par) = answer(DemandConfig::default().with_workers(workers));
            let stats = par_engine.stats();
            T10Row {
                name,
                query: cp.display_node(q),
                workers,
                headroom,
                time_seq,
                time_par,
                work_seq: seq_off.work,
                work_par: par.work,
                steals: stats.sched_steals,
                parked: stats.sched_parked,
                wakeups: stats.sched_wakeups,
                identical: par.pts == seq.pts && par.complete == seq.complete,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// T11: edit-heavy sessions — selective invalidation vs full reload
// ---------------------------------------------------------------------

/// One row of the edit-heavy workload table.
#[derive(Clone, Debug)]
pub struct T11Row {
    /// Workload name (`edit-<chains>x<len>`).
    pub name: String,
    /// Single-constraint edits applied in the script.
    pub edits: usize,
    /// Queries re-answered after every edit (one per chain tail).
    pub queries: usize,
    /// Mean fraction of completed goals kept warm across the edits.
    pub retained_frac: f64,
    /// Goals invalidated, summed over the script.
    pub invalidated: usize,
    /// Goals retained, summed over the script.
    pub retained: usize,
    /// Total wall time to apply every edit incrementally and re-answer
    /// the query set after each (best of the repeats).
    pub time_incremental: Duration,
    /// Same script with full invalidation: a cold engine per edit
    /// re-answers the query set (best of the repeats).
    pub time_full: Duration,
    /// Incremental answers bit-identical to the cold engine's at every
    /// generation.
    pub identical: bool,
}

impl T11Row {
    /// Wall-clock advantage of keeping untouched goals warm.
    pub fn speedup(&self) -> f64 {
        self.time_full.as_secs_f64() / self.time_incremental.as_secs_f64().max(1e-9)
    }
}

/// Builds generation `upto` of the T11 workload: `chains` disjoint copy
/// chains of length `len`, where edit `k` repoints the head of chain
/// `k % chains` at a fresh object — dirtying exactly that chain's goals
/// and leaving every other chain's fixpoints warm.
fn edit_workload(chains: usize, len: usize, upto: usize) -> ConstraintProgram {
    let mut b = ddpa_constraints::ConstraintBuilder::new();
    let mut tails = Vec::new();
    for c in 0..chains {
        let obj = b.var(&format!("obj{c}"));
        let mut prev = b.var(&format!("c{c}_0"));
        b.addr_of(prev, obj);
        for i in 1..len {
            let v = b.var(&format!("c{c}_{i}"));
            b.copy(v, prev);
            prev = v;
        }
        tails.push(prev);
    }
    for k in 0..upto {
        let obj = b.var(&format!("eobj{k}"));
        let head = format!("c{}_0", k % chains);
        let head = b.var(&head); // existing name: returns the minted node
        b.addr_of(head, obj);
    }
    b.build()
}

/// Regenerates table T11: the `add-constraints` path under an edit-heavy
/// session. A warm engine steps through `edits` single-constraint edits,
/// each appended as constraint text the way a server session applies a
/// plain edit (`append_constraints`, whose diff costs time proportional
/// to the edit), re-answering one query per chain tail after each; the
/// baseline pays full invalidation (a cold engine per edit) for the same
/// answers. Support-set dirtying keeps `(chains-1)/chains`
/// of the table warm per edit, which is where the speedup comes from.
pub fn run_t11(shapes: &[(usize, usize)], edits: usize, repeats: usize) -> Vec<T11Row> {
    assert!(repeats > 0, "need at least one timed run");
    shapes
        .iter()
        .map(|&(chains, len)| {
            let gens: Vec<ConstraintProgram> =
                (0..=edits).map(|g| edit_workload(chains, len, g)).collect();
            // Edit `k` as text: the constraint generation `k + 1` adds.
            let texts: Vec<String> = (0..edits)
                .map(|k| format!("c{}_0 = &eobj{k}\n", k % chains))
                .collect();
            let tails: Vec<Vec<NodeId>> = gens
                .iter()
                .map(|cp| {
                    (0..chains)
                        .map(|c| {
                            let name = format!("c{c}_{}", len - 1);
                            cp.node_ids()
                                .find(|&n| cp.display_node(n) == name)
                                .expect("chain tail exists")
                        })
                        .collect()
                })
                .collect();

            let mut best_inc = Duration::MAX;
            let mut best_full = Duration::MAX;
            let (mut invalidated, mut retained) = (0usize, 0usize);
            let mut retained_fracs = Vec::new();
            let mut identical = true;
            for rep in 0..repeats {
                let mut engine = DemandEngine::new(gens[0].clone(), DemandConfig::default());
                for &t in &tails[0] {
                    let _ = engine.points_to(t);
                }
                let mut time_inc = Duration::ZERO;
                let mut time_full = Duration::ZERO;
                for g in 1..=edits {
                    let start = Instant::now();
                    // Line numbers only label parse errors, and the
                    // generated edits always parse.
                    let stats = engine
                        .append_constraints(&texts[g - 1], 0)
                        .expect("generated edit parses");
                    let warm: Vec<_> = tails[g].iter().map(|&t| engine.points_to(t)).collect();
                    time_inc += start.elapsed();
                    assert!(!stats.full, "append-only edit stays incremental");
                    if rep == 0 {
                        invalidated += stats.invalidated;
                        retained += stats.retained;
                        let total = stats.invalidated + stats.retained;
                        retained_fracs.push(stats.retained as f64 / total.max(1) as f64);
                    }

                    let start = Instant::now();
                    let mut cold = DemandEngine::new(&gens[g], DemandConfig::default());
                    let full: Vec<_> = tails[g].iter().map(|&t| cold.points_to(t)).collect();
                    time_full += start.elapsed();
                    identical &= warm
                        .iter()
                        .zip(&full)
                        .all(|(w, f)| w.pts == f.pts && w.complete && f.complete);
                }
                best_inc = best_inc.min(time_inc);
                best_full = best_full.min(time_full);
            }
            T11Row {
                name: format!("edit-{chains}x{len}"),
                edits,
                queries: chains,
                retained_frac: retained_fracs.iter().sum::<f64>()
                    / retained_fracs.len().max(1) as f64,
                invalidated,
                retained,
                time_incremental: best_inc,
                time_full: best_full,
                identical,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Vec<Benchmark> {
        vec![ddpa_gen::suite().into_iter().nth(1).expect("syn-1k exists")]
    }

    #[test]
    fn t11_edits_retain_goals_and_stay_exact() {
        let rows = run_t11(&[(8, 12)], 4, 1);
        let r = &rows[0];
        assert!(r.identical, "incremental answers match cold engines: {r:?}");
        assert!(r.retained > 0, "untouched chains stay warm: {r:?}");
        assert!(
            r.retained_frac > 0.5,
            "single-chain edits keep most of the table: {r:?}"
        );
        assert!(r.invalidated > 0, "the edited chain is dirtied: {r:?}");
    }

    #[test]
    fn t1_reports_characteristics() {
        let rows = run_t1(&tiny());
        assert_eq!(rows[0].name, "syn-1k");
        assert!(rows[0].stats.assignments() >= 900);
    }

    #[test]
    fn t3_demand_matches_exhaustive_precision() {
        let rows = run_t3(&tiny(), None);
        assert!(rows[0].precision_identical);
        assert_eq!(rows[0].resolved, rows[0].queries);
    }

    #[test]
    fn t3_reports_registry_work_metrics() {
        let rows = run_t3(&tiny(), None);
        let r = &rows[0];
        assert!(r.fires_per_query > 0.0, "demand queries fire rules: {r:?}");
        assert!(r.demand_work > 0, "demand side records work: {r:?}");
        assert!(r.exhaustive_work > 0, "exhaustive side records work: {r:?}");
        let ratio = r.work_ratio.expect("exhaustive work is nonzero");
        assert!((ratio - r.demand_work as f64 / r.exhaustive_work as f64).abs() < 1e-12);
    }

    #[test]
    fn f3_resolution_rate_is_monotone() {
        let rows = run_f3(&tiny(), &[1, 100, u64::MAX], 50);
        let pts = &rows[0].points;
        assert!(pts[0].resolved <= pts[1].resolved + 1e-9);
        assert!(pts[1].resolved <= pts[2].resolved + 1e-9);
        assert!(
            (pts[2].resolved - 1.0).abs() < 1e-9,
            "an effectively unlimited budget resolves all: {:?}",
            pts[2]
        );
    }

    #[test]
    fn t4_caching_reduces_work() {
        let rows = run_t4(&tiny(), 100);
        assert!(rows[0].work_cached <= rows[0].work_uncached);
    }

    #[test]
    fn t6_collapsing_at_least_halves_work_with_identical_answers() {
        let rows = run_t6(&[6, 8]);
        for r in &rows {
            assert!(r.identical, "answers must be bit-identical: {r:?}");
            assert!(r.cycles_collapsed > 0, "rings must collapse: {r:?}");
            assert!(
                r.work_on * 2 <= r.work_off,
                "expected ≥2× work reduction: {r:?}"
            );
            assert!(r.fires_on * 2 <= r.fires_off, "fires too: {r:?}");
        }
    }

    #[test]
    fn t8_restored_engine_is_faster_with_identical_answers() {
        let rows = run_t8(&tiny());
        for r in &rows {
            assert!(r.identical, "answers must be bit-identical: {r:?}");
            assert!(r.entries > 0, "snapshot must capture fixpoints: {r:?}");
            assert!(r.bytes > 0, "snapshot must land on disk: {r:?}");
            assert!(
                r.speedup() >= 2.0,
                "warm start must beat cold deduction clearly: {r:?}"
            );
        }
    }

    #[test]
    fn t8_snapshot_file_restores_into_its_own_text() {
        let dir = std::env::temp_dir().join(format!("ddpa-bench-t8-file-{}", std::process::id()));
        let path = dir.join("syn-1k.snap");
        t8_row(&tiny()[0], &path);
        let snapshot = ddpa_snap::read_file(&path).expect("T8 leaves its snapshot file");
        let _ = std::fs::remove_dir_all(&dir);
        let cp = ddpa_constraints::parse_constraints(&snapshot.program_text).expect("parses");
        let text = snapshot.program_text.clone();
        let mut restored = DemandEngine::new(&cp, DemandConfig::default());
        let stats = ddpa_snap::restore(&mut restored, &text, std::borrow::Cow::Owned(snapshot))
            .expect("same program");
        assert!(stats.installed > 0 && !stats.rebound, "{stats:?}");
        let mut cold = DemandEngine::new(&cp, DemandConfig::default());
        for q in cp.deref_pointers() {
            assert_eq!(
                restored.points_to(q).pts,
                cold.points_to(q).pts,
                "pts({})",
                cp.display_node(q)
            );
        }
    }

    #[test]
    fn t9_reports_headroom_and_identical_answers() {
        let rows = run_t9(
            &[
                T9Program::Cyclic(6),
                T9Program::Cyclic(8),
                T9Program::MiniC(24),
            ],
            1,
        );
        for r in &rows {
            assert!(r.identical, "recording must not change answers: {r:?}");
            assert!(r.work > 0 && r.span > 0, "work attributed: {r:?}");
            assert!(r.span <= r.work, "span bounded by total work: {r:?}");
            assert!(r.headroom >= 1.0 - 1e-9, "headroom is W/S >= 1: {r:?}");
            assert!((r.headroom - r.work as f64 / r.span as f64).abs() < 1e-9);
            assert!(r.goals > 0, "live goals in the graph: {r:?}");
            assert!(r.flight_recorded > 0, "recorder captured events: {r:?}");
            assert!(r.fires > 0, "firings counted: {r:?}");
        }
        let minic = rows.last().expect("MiniC row");
        assert_eq!(minic.name, "minic-24");
        assert!(
            minic.events_per_fire() > 0.25,
            "MiniC installs a watcher on many firings: {minic:?}"
        );
    }

    #[test]
    fn t10_scheduler_is_exact_and_work_stays_bounded() {
        let rows = run_t10(&[600], &[4], 4, 1);
        assert_eq!(rows.len(), 2);
        let wide = &rows[0];
        assert!(wide.name.starts_with("wide-"), "{wide:?}");
        assert_eq!(wide.query, "hub");
        assert!(wide.identical, "answers must be bit-identical: {wide:?}");
        assert!(
            wide.headroom > 1.5,
            "wide workloads are the headroom-rich regime: {wide:?}"
        );
        assert_eq!(
            wide.work_par, wide.work_seq,
            "acyclic fire multiset is replayed exactly: {wide:?}"
        );
        let cyc = &rows[1];
        assert!(cyc.identical, "answers must be bit-identical: {cyc:?}");
        assert!(
            cyc.work_ratio() >= 1.0 - 1e-9,
            "parallel can't do less than the collapse-off multiset: {cyc:?}"
        );
        for r in &rows {
            assert_eq!(r.workers, 4);
            assert!(r.speedup() > 0.0);
        }
    }

    #[test]
    fn query_sets_are_nonempty() {
        let cp = tiny()[0].build();
        assert!(!cp.deref_pointers().is_empty());
        assert!(!fp_queries(&cp).is_empty());
    }
}
