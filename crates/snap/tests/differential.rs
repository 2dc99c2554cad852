//! Differential suite: a snapshot round-trip must be answer-preserving.
//!
//! For a spread of random generator programs, every query answered by a
//! warm-started engine (fresh process state + snapshot) must be
//! bit-identical to both the live demand engine that produced the
//! snapshot and the exhaustive Andersen solver — the paper's ground
//! truth. Also exercises the file-level negative paths: truncation,
//! checksum damage, version skew, and cross-program restores.
//!
//! Every program is in canonical form, as a served or dumped one is, so
//! [`Snapshot::capture`] can check that its text numbers the nodes as the
//! engine does.

use ddpa_constraints::{canonicalize, print_constraints, ConstraintProgram, NodeId};
use ddpa_demand::{DemandConfig, DemandEngine};
use ddpa_gen::{generate_random, RandomConfig};
use ddpa_snap::{read_file, write_file, SnapError, Snapshot, FORMAT_VERSION};

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("ddpa-snap-differential");
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name)
}

/// The canonical form of the random program of `seed` and `size`: the
/// program its printout parses to.
fn random_program(seed: u64, size: usize) -> ConstraintProgram {
    let cp = generate_random(&RandomConfig::sized(seed, size));
    canonicalize(cp, None).expect("the printout parses").0
}

/// Every node of the program, the query load for the differential runs.
fn all_nodes(cp: &ConstraintProgram) -> Vec<NodeId> {
    cp.node_ids().collect()
}

/// Warms an engine over `nodes`, returning its snapshot and the live
/// answers.
fn warm_live(cp: &ConstraintProgram, nodes: &[NodeId]) -> (Snapshot, Vec<(NodeId, Vec<NodeId>)>) {
    let mut engine = DemandEngine::new(cp, DemandConfig::default());
    let answers = nodes
        .iter()
        .map(|&n| {
            let r = engine.points_to(n);
            assert!(r.complete, "unbudgeted query must resolve");
            (n, r.pts)
        })
        .collect();
    (Snapshot::capture(&engine, print_constraints(cp)), answers)
}

#[test]
fn warm_start_matches_live_engine_and_exhaustive_solver() {
    for (seed, size) in [(1u64, 120usize), (7, 300), (42, 600), (1234, 900)] {
        let cp = random_program(seed, size);
        let text = print_constraints(&cp);
        let nodes = all_nodes(&cp);
        let (snapshot, live) = warm_live(&cp, &nodes);

        // Round-trip the completed fixpoints through the binary format
        // and the filesystem.
        assert!(
            !snapshot.entries.is_empty(),
            "seed {seed}: warm run produced fixpoints"
        );
        let path = temp_path(&format!("diff-{seed}-{size}.snap"));
        write_file(&snapshot, &path).expect("write");
        let restored = read_file(&path).expect("read back");
        assert_eq!(restored.entries.len(), snapshot.entries.len());
        restored.verify_program(&text).expect("same program");

        // A fresh engine (no prior state) warm-starts from the restored
        // snapshot.
        let mut cold = DemandEngine::new(&cp, DemandConfig::default());
        let installed = cold.warm_start(&restored.entries);
        assert_eq!(installed, restored.entries.len(), "seed {seed}");

        // Ground truth: the exhaustive Andersen solution.
        let exhaustive = ddpa_anders::solve(&cp);

        for (node, live_pts) in &live {
            let r = cold.points_to(*node);
            assert_eq!(
                &r.pts,
                live_pts,
                "seed {seed}: pts({}) diverged from the live engine",
                cp.display_node(*node)
            );
            assert_eq!(
                r.pts,
                exhaustive.pts_nodes(*node),
                "seed {seed}: pts({}) diverged from the wave solver",
                cp.display_node(*node)
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn warm_start_preserves_ptb_and_alias_answers() {
    let cp = random_program(9, 400);
    let text = print_constraints(&cp);
    let nodes = all_nodes(&cp);

    // Live run answers both directions plus alias probes.
    let mut live = DemandEngine::new(&cp, DemandConfig::default());
    let live_pts: Vec<_> = nodes.iter().map(|&n| live.points_to(n).pts).collect();
    let live_ptb: Vec<_> = nodes.iter().map(|&n| live.pointed_to_by(n).pts).collect();
    let probes: Vec<(NodeId, NodeId)> = nodes
        .iter()
        .zip(nodes.iter().rev())
        .map(|(&a, &b)| (a, b))
        .take(64)
        .collect();
    let live_alias: Vec<bool> = probes
        .iter()
        .map(|&(a, b)| live.may_alias(a, b).may_alias)
        .collect();

    // Round-trip and warm-start a fresh engine.
    let snapshot = Snapshot::capture(&live, text);
    let bytes = snapshot.to_bytes();
    let restored = Snapshot::from_bytes(&bytes).expect("decode");
    let mut cold = DemandEngine::new(&cp, DemandConfig::default());
    cold.warm_start(&restored.entries);

    for (i, &n) in nodes.iter().enumerate() {
        assert_eq!(cold.points_to(n).pts, live_pts[i]);
        assert_eq!(cold.pointed_to_by(n).pts, live_ptb[i]);
    }
    for (i, &(a, b)) in probes.iter().enumerate() {
        assert_eq!(cold.may_alias(a, b).may_alias, live_alias[i]);
    }
}

#[test]
fn file_level_truncation_is_rejected() {
    let cp = random_program(3, 150);
    let (snapshot, _) = warm_live(&cp, &all_nodes(&cp));
    let path = temp_path("truncated.snap");
    write_file(&snapshot, &path).expect("write");
    let full = std::fs::read(&path).expect("read");

    for keep in [0, 1, 7, 8, 12, 16, full.len() / 2, full.len() - 1] {
        std::fs::write(&path, &full[..keep]).expect("truncate");
        match read_file(&path) {
            Err(SnapError::Corrupt(_)) => {}
            other => panic!("prefix of {keep} bytes: expected Corrupt, got {other:?}"),
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn file_level_bit_flips_break_the_checksum() {
    let cp = random_program(4, 150);
    let (snapshot, _) = warm_live(&cp, &all_nodes(&cp));
    let path = temp_path("bitflip.snap");
    write_file(&snapshot, &path).expect("write");
    let full = std::fs::read(&path).expect("read");

    // Flip one byte in several payload positions; each must be caught.
    for pos in [16, 24, full.len() / 2, full.len() - 1] {
        let mut damaged = full.clone();
        damaged[pos] ^= 0x40;
        std::fs::write(&path, &damaged).expect("damage");
        assert!(
            matches!(read_file(&path), Err(SnapError::Corrupt(_))),
            "flip at {pos} slipped through"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn file_level_version_skew_is_rejected() {
    let cp = random_program(5, 100);
    let (snapshot, _) = warm_live(&cp, &all_nodes(&cp));
    let path = temp_path("version.snap");
    write_file(&snapshot, &path).expect("write");
    let mut bytes = std::fs::read(&path).expect("read");

    let future = (FORMAT_VERSION + 1).to_le_bytes();
    bytes[8..12].copy_from_slice(&future);
    std::fs::write(&path, &bytes).expect("rewrite");
    match read_file(&path) {
        Err(SnapError::Version { found }) => assert_eq!(found, FORMAT_VERSION + 1),
        other => panic!("expected Version error, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn file_level_cross_program_restore_is_rejected() {
    let a = random_program(11, 200);
    let b = random_program(12, 200);
    let (snapshot, _) = warm_live(&a, &all_nodes(&a));
    let path = temp_path("crossprog.snap");
    write_file(&snapshot, &path).expect("write");

    let restored = read_file(&path).expect("reads fine");
    match restored.verify_program(&print_constraints(&b)) {
        Err(SnapError::ProgramMismatch { .. }) => {}
        other => panic!("expected ProgramMismatch, got {other:?}"),
    }
    restored
        .verify_program(&print_constraints(&a))
        .expect("the real program still verifies");
    let _ = std::fs::remove_file(&path);
}
