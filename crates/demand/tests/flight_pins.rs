//! Flight-recorder pins: fixed query scripts on fixed generated programs
//! must leave exactly the recorded events in the engine's flight ring.
//!
//! The literals were recorded at commit 785fb11, before the sequential
//! engine staged its events and published them once per query. Staging
//! must not change what a reader finds when a query returns, so any
//! drift here means an event was lost, reordered or stamped with another
//! `seq`, or that another firing was sampled.
//!
//! The MiniC rows were re-recorded when a per-engine call-edge table
//! replaced the per-goal watchers on every indirect site's `pts(fp)`:
//! fewer firings and subscriptions mean fewer `fire` and `blocked`
//! events. The cyclic rows, whose program has no calls, did not move.
//!
//! Each script mixes a budgeted query that resumes, cycle merges, memo
//! hits, one parallel query between sequential ones, an incremental edit
//! and, on an engine restored from the first one's export, hits on
//! staged entries. The
//! parallel query's scheduler events depend on thread timing, so only
//! its totals are checked; every sequential query is pinned relative to
//! where the ring stood when it began.

use ddpa_constraints::{ConstraintProgram, NodeId};
use ddpa_demand::goal::Goal;
use ddpa_demand::{DemandConfig, DemandEngine};
use ddpa_gen::{generate_cyclic, generate_minic, CyclicConfig, MiniCConfig};
use ddpa_obs::FlightEventKind;

/// What one query left in the ring: how far it moved `recorded`,
/// `dropped` and `fires_seen`; how many of its surviving events are of
/// each kind, in [`FlightEventKind::KIND_NAMES`] order; and an FNV-1a
/// digest of their `(seq, kind, a, b, work)` stream, with `seq` counted
/// from the ring's `recorded` when the query began.
type Row = ([u64; 3], [u64; 10], u64);

/// The ring's position: `(recorded, dropped, fires_seen)`.
fn position(engine: &DemandEngine<'_>) -> [u64; 3] {
    let flight = engine.flight_recorder().expect("recorder on");
    [flight.recorded(), flight.dropped(), flight.fires_seen()]
}

/// The ring agrees with the engine's own totals: every event counted in
/// `demand.flight.events` was recorded, and every firing was offered to
/// the sampler.
fn assert_totals(engine: &DemandEngine<'_>) {
    let flight = engine.flight_recorder().expect("recorder on");
    let stats = engine.stats();
    assert_eq!(flight.recorded(), stats.flight_events, "recorded");
    assert_eq!(flight.fires_seen(), stats.fires, "fires_seen");
    let capacity = flight.capacity() as u64;
    assert_eq!(
        flight.dropped(),
        flight.recorded() - flight.recorded().min(capacity)
    );
}

/// Runs one query and returns its row.
fn ask(engine: &mut DemandEngine<'_>, goal: Goal) -> (bool, Row) {
    let before = position(engine);
    let complete = match goal {
        Goal::Pts(n) => engine.points_to(n).complete,
        Goal::Ptb(n) => engine.pointed_to_by(n).complete,
    };
    assert!(
        !engine.last_query_parallel(),
        "pinned queries run sequentially"
    );
    (complete, row_since(engine, before))
}

/// The row of whatever the engine recorded since the ring stood at
/// `before`.
fn row_since(engine: &DemandEngine<'_>, before: [u64; 3]) -> Row {
    assert_totals(engine);
    let after = position(engine);
    let snap = engine.flight_recorder().expect("recorder on").snapshot();
    let mut kinds = [0u64; 10];
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for e in snap.events.iter().filter(|e| e.seq >= before[0]) {
        kinds[e.kind as usize] += 1;
        for word in [
            e.seq - before[0],
            e.kind as u64,
            u64::from(e.a),
            u64::from(e.b),
            u64::from(e.work),
        ] {
            digest = (digest ^ word).wrapping_mul(0x100_0000_01b3);
        }
    }
    let moved = [
        after[0] - before[0],
        after[1] - before[1],
        after[2] - before[2],
    ];
    (moved, kinds, digest)
}

/// The script: returns the rows of the first engine's sequential
/// queries and its edit, then those of an engine restored from its
/// export.
fn script(cp: &ConstraintProgram, config: DemandConfig, picks: [usize; 6]) -> Vec<Row> {
    let nodes: Vec<NodeId> = cp.node_ids().collect();
    let [n0, n1, n2, n3, n4, np] = picks.map(|k| nodes[k]);
    let mut engine = DemandEngine::new(cp, config.clone());
    let mut rows = Vec::new();

    // A budgeted query suspends, then resumes to completion.
    engine.set_budget(Some(20));
    let (complete, row) = ask(&mut engine, Goal::Pts(n0));
    assert!(!complete, "the budgeted query must suspend");
    rows.push(row);
    engine.set_budget(None);
    let (complete, row) = ask(&mut engine, Goal::Pts(n0));
    assert!(complete);
    rows.push(row);

    // Fresh queries, then memo hits.
    for goal in [
        Goal::Pts(n1),
        Goal::Ptb(n2),
        Goal::Pts(n3),
        Goal::Pts(n0),
        Goal::Ptb(n2),
    ] {
        let (complete, row) = ask(&mut engine, goal);
        assert!(complete);
        rows.push(row);
    }
    let export = engine.export_completed();

    // One parallel query between sequential ones: only its totals hold.
    engine.set_workers(2);
    let recorded = engine.flight_recorder().expect("recorder on").recorded();
    assert!(engine.points_to(np).complete);
    assert!(
        engine.last_query_parallel(),
        "the parallel query must dispatch"
    );
    assert_totals(&engine);
    assert!(engine.flight_recorder().expect("recorder on").recorded() > recorded);
    engine.set_workers(1);
    for goal in [Goal::Ptb(n4), Goal::Pts(n4), Goal::Pts(np)] {
        let (complete, row) = ask(&mut engine, goal);
        assert!(complete);
        rows.push(row);
    }

    // An edit that dirties nothing re-tables every completed goal, each
    // with an `activated` event; queries go on from there.
    let before = position(&engine);
    let edit = engine
        .append_constraints("edit_ptr = &edit_obj\n", 0)
        .expect("the edit parses");
    assert!(!edit.full && edit.retained > 0, "{edit:?}");
    rows.push(row_since(&engine, before));
    for goal in [Goal::Pts(n0), Goal::Ptb(n3)] {
        let (complete, row) = ask(&mut engine, goal);
        assert!(complete);
        rows.push(row);
    }

    // An engine restored from the export answers from staged entries.
    let mut restored = DemandEngine::new(cp, config);
    assert!(restored.warm_start(&export) > 0);
    for goal in [Goal::Pts(n0), Goal::Pts(n4), Goal::Ptb(n2), Goal::Pts(n4)] {
        let (complete, row) = ask(&mut restored, goal);
        assert!(complete);
        rows.push(row);
    }
    assert!(restored.stats().share_hits > 0, "no staged entry was hit");
    rows
}

/// Every event kind the sequential engine records shows up in the
/// script, staged-entry hits included.
fn assert_coverage(rows: &[Row]) {
    let mut kinds = [0u64; 10];
    for (_, k, _) in rows {
        for (sum, n) in kinds.iter_mut().zip(k) {
            *sum += n;
        }
    }
    for kind in [
        FlightEventKind::Activated,
        FlightEventKind::Blocked,
        FlightEventKind::Resumed,
        FlightEventKind::Completed,
        FlightEventKind::MemoHit,
        FlightEventKind::CycleMerged,
        FlightEventKind::Fire,
    ] {
        assert!(kinds[kind as usize] > 0, "no {} event", kind.as_str());
    }
}

fn minic() -> ConstraintProgram {
    ddpa_constraints::lower(&generate_minic(&MiniCConfig::sized(2001, 24))).expect("lowers")
}

fn cyclic() -> ConstraintProgram {
    generate_cyclic(&CyclicConfig::sized(5, 6))
}

const MINIC: [Row; 17] = [
    (
        [44, 0, 12],
        [18, 24, 1, 0, 0, 0, 1, 0, 0, 0],
        13669914597890675893,
    ),
    (
        [676, 0, 964],
        [179, 292, 0, 182, 0, 8, 15, 0, 0, 0],
        2768375052378981645,
    ),
    (
        [212, 0, 418],
        [56, 94, 0, 56, 0, 0, 6, 0, 0, 0],
        8974895329638403578,
    ),
    (
        [44, 0, 200],
        [1, 39, 0, 1, 0, 0, 3, 0, 0, 0],
        11821706364527778089,
    ),
    (
        [161, 0, 309],
        [42, 74, 0, 38, 0, 2, 5, 0, 0, 0],
        13577921573316830886,
    ),
    (
        [1, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
        7264763285681272587,
    ),
    (
        [1, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
        13303203095494000116,
    ),
    (
        [52, 0, 203],
        [3, 43, 0, 3, 0, 0, 3, 0, 0, 0],
        16523225006165840779,
    ),
    (
        [5, 0, 128],
        [1, 1, 0, 1, 0, 0, 2, 0, 0, 0],
        16580652677772096083,
    ),
    (
        [1, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
        16341765012981706072,
    ),
    (
        [339, 0, 0],
        [339, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        7353769677409893199,
    ),
    (
        [1, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
        7264763285681272587,
    ),
    (
        [3, 0, 0],
        [1, 1, 0, 1, 0, 0, 0, 0, 0, 0],
        10174366976396770761,
    ),
    (
        [3, 0, 0],
        [1, 0, 0, 0, 2, 0, 0, 0, 0, 0],
        10357951950492518235,
    ),
    (
        [160, 0, 343],
        [49, 56, 0, 4, 45, 0, 6, 0, 0, 0],
        9746340082386661136,
    ),
    (
        [3, 0, 0],
        [1, 0, 0, 0, 2, 0, 0, 0, 0, 0],
        12173052301599047985,
    ),
    (
        [1, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
        6640598022301218912,
    ),
];

#[test]
fn minic_flight_pins() {
    let rows = script(
        &minic(),
        DemandConfig::default(),
        [45, 188, 106, 61, 140, 192],
    );
    assert_coverage(&rows);
    assert_eq!(rows, MINIC);
}

const CYCLIC: [Row; 17] = [
    (
        [27, 0, 10],
        [12, 11, 1, 0, 0, 0, 3, 0, 0, 0],
        3052899950526658617,
    ),
    (
        [174, 137, 179],
        [18, 21, 0, 3, 0, 2, 20, 0, 0, 0],
        9150283959143980210,
    ),
    (
        [90, 90, 336],
        [0, 0, 0, 2, 0, 0, 62, 0, 0, 0],
        11229470191805969240,
    ),
    (
        [38, 38, 140],
        [1, 1, 0, 1, 0, 0, 35, 0, 0, 0],
        7745772808838071386,
    ),
    (
        [1, 1, 0],
        [0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
        12882250656101755662,
    ),
    (
        [1, 1, 0],
        [0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
        7264763285681272587,
    ),
    (
        [1, 1, 0],
        [0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
        16559504628386141305,
    ),
    (
        [45, 45, 168],
        [1, 1, 0, 1, 0, 0, 42, 0, 0, 0],
        9470086368087052022,
    ),
    (
        [45, 45, 168],
        [1, 1, 0, 1, 0, 0, 42, 0, 0, 0],
        9876032858552979971,
    ),
    (
        [1, 1, 0],
        [0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
        5535006107241297382,
    ),
    (
        [150, 150, 0],
        [64, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        15583125386475976741,
    ),
    (
        [1, 1, 0],
        [0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
        7264763285681272587,
    ),
    (
        [3, 3, 0],
        [1, 1, 0, 1, 0, 0, 0, 0, 0, 0],
        7160203468097579955,
    ),
    (
        [3, 0, 0],
        [1, 0, 0, 0, 2, 0, 0, 0, 0, 0],
        10357951950492518235,
    ),
    (
        [90, 29, 336],
        [0, 0, 0, 2, 0, 0, 62, 0, 0, 0],
        16924083001106833007,
    ),
    (
        [3, 3, 0],
        [1, 0, 0, 0, 2, 0, 0, 0, 0, 0],
        921330802077085656,
    ),
    (
        [1, 1, 0],
        [0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
        6640598022301218912,
    ),
];

/// A small ring and a short stride: the ring wraps, and a query can
/// record more events than the ring holds.
#[test]
fn cyclic_flight_pins() {
    let config = DemandConfig::default().with_flight(64, 4);
    let rows = script(&cyclic(), config, [68, 24, 58, 34, 26, 200]);
    assert_coverage(&rows);
    assert_eq!(rows, CYCLIC);
}
