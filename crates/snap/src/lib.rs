//! Durable memo snapshots — persisting demand fixpoints across process
//! lifetimes.
//!
//! Every server restart starts cold: an engine's memo table of completed
//! fixpoints is process-local and dies with it, so each deploy re-derives
//! answers that were already at fixpoint. This crate turns the table into
//! a durable artifact: [`Snapshot::capture`] takes the completed `(goal,
//! fixpoint)` pairs an engine exports
//! ([`DemandEngine::export_completed`](ddpa_demand::DemandEngine::export_completed))
//! together with the canonical program text, and
//! [`write_file`]/[`read_file`] persist it in a versioned, checksummed
//! binary format with atomic write-temp-then-rename semantics. A fresh
//! process stages the file's entries in an engine with [`restore`], and
//! the first query over each restored goal is a share hit — zero rule
//! firings.
//!
//! # Format
//!
//! Little-endian throughout. The header is 16 bytes:
//!
//! ```text
//! offset  size  field
//!      0     8  magic  "DDPASNAP"
//!      8     4  format version (currently 2)
//!     12     4  CRC-32 (IEEE) over the payload (bytes 16..end)
//! ```
//!
//! followed by the payload:
//!
//! ```text
//! u64  generation the engine was at when exported (informational)
//! u64  FNV-1a 64 hash of the program text (the consistency token)
//! u64  program text byte length, then that many UTF-8 bytes
//! u64  entry count, then per entry:
//!        u8   goal tag (0 = pts, 1 = ptb)
//!        u32  node id
//!        u32  element count
//!        u32× elements, strictly ascending
//!        u32  support count
//!        u32× support node ids, strictly ascending
//!        u32  dep count, then per dep:
//!               u8   goal tag (0 = pts, 1 = ptb)
//!               u32  node id
//!        u8   reads_indirect (0 or 1)
//! ```
//!
//! Version 2 added the per-entry support/dependency metadata that makes
//! restored entries *rebindable* after an edit: a host whose program has
//! drifted since the snapshot can diff the two texts and install every
//! entry the edit did not transitively dirty, instead of refusing the
//! whole file. Version 1 files (no metadata) are rejected with
//! [`SnapError::Version`] — their entries could only ever be restored
//! wholesale, and silently treating "no recorded support" as "empty
//! support" would rebind entries whose provenance is unknown.
//!
//! # Consistency rules
//!
//! * The magic, version and CRC are checked before anything is parsed;
//!   a truncated, corrupted or foreign file is rejected with
//!   [`SnapError::Corrupt`] / [`SnapError::Version`], never a panic.
//! * The stored program hash must match the FNV-1a hash of the stored
//!   text (a second corruption check). The text must parse to the node
//!   ids the entries name, which [`Snapshot::capture`] checks in debug
//!   builds. [`restore`] stages every entry when the hash matches the
//!   *live* program, or else rebinds the entries an edit left valid; a
//!   snapshot whose ids name other locations there is
//!   [`SnapError::ProgramMismatch`].
//! * Element lists must be strictly ascending (the canonical order an
//!   engine exports); violations are treated as corruption.
//! * The stored generation is informational: a restore leaves the
//!   *target* engine's generation as it is. The program hash, not the
//!   generation counter, is the cross-process consistency token —
//!   generation counters are process-local.
//! * Hashes are hand-rolled (FNV-1a, CRC-32) rather than
//!   `DefaultHasher`, whose keys are randomized per process and
//!   therefore useless for persistence. Everything here is `std`-only.
//!
//! Entries carry fixpoints, not derivations. An explanation
//! ([`ddpa_demand::explain_points_to`]) is derived by a private engine
//! over the program alone, so it reads nothing a snapshot stores and is
//! the same whether or not the session it explains was restored.
//!
//! # Examples
//!
//! ```
//! use std::borrow::Cow;
//!
//! use ddpa_demand::{DemandConfig, DemandEngine};
//! use ddpa_snap::Snapshot;
//!
//! let (cp, canonical) = ddpa_constraints::canonicalize(
//!     ddpa_constraints::parse_constraints("p = &g\nq = p\n")?,
//!     None,
//! )?;
//! let q = cp.node_ids().find(|&n| cp.display_node(n) == "q").expect("q exists");
//!
//! // Warm an engine, then capture its memo table.
//! let mut warm = DemandEngine::new(&cp, DemandConfig::default());
//! let full = warm.points_to(q);
//! let snap = Snapshot::capture(&warm, canonical.clone());
//!
//! // A fresh process round-trips through bytes and warm-starts.
//! let restored = Snapshot::from_bytes(&snap.to_bytes())?;
//! let mut cold = DemandEngine::new(&cp, DemandConfig::default());
//! let stats = ddpa_snap::restore(&mut cold, &canonical, Cow::Owned(restored))?;
//! assert!(!stats.rebound);
//! let reused = cold.points_to(q);
//! assert_eq!(full.pts, reused.pts);
//! assert_eq!(reused.work, 0); // zero rule firings
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

use ddpa_constraints::{ConstraintProgram, NodeId};
use ddpa_demand::goal::Goal;
use ddpa_demand::{CompletedGoal, DemandEngine};

/// First 8 bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"DDPASNAP";

/// Current format version; bumped on any layout change. Readers reject
/// other versions outright rather than guessing.
pub const FORMAT_VERSION: u32 = 2;

/// Header bytes before the payload: magic + version + crc.
const HEADER_LEN: usize = 16;

/// Why a snapshot could not be written or restored.
#[derive(Debug)]
pub enum SnapError {
    /// Filesystem-level failure.
    Io(io::Error),
    /// The bytes are not a well-formed snapshot (bad magic, checksum
    /// mismatch, truncation, malformed section). The message says which.
    Corrupt(String),
    /// A well-formed snapshot of a format this build does not speak.
    Version {
        /// Version stamped in the file.
        found: u32,
    },
    /// The snapshot was taken over a different constraint program, so
    /// its fixpoints are meaningless here.
    ProgramMismatch {
        /// Hash of the live program.
        expected: u64,
        /// Hash stored in the snapshot.
        found: u64,
    },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapError::Version { found } => write!(
                f,
                "unsupported snapshot format version {found} (this build speaks {FORMAT_VERSION})"
            ),
            SnapError::ProgramMismatch { expected, found } => write!(
                f,
                "snapshot was taken over a different program \
                 (live hash {expected:#018x}, snapshot hash {found:#018x})"
            ),
        }
    }
}

impl std::error::Error for SnapError {}

impl From<io::Error> for SnapError {
    fn from(e: io::Error) -> Self {
        SnapError::Io(e)
    }
}

/// FNV-1a 64-bit hash — the snapshot's program-identity hash.
///
/// Deliberately hand-rolled: `DefaultHasher` seeds differ per process,
/// so its output can never be compared across a write and a later read.
pub fn program_hash(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let bytes = text.as_bytes();
    // Indexed for the reason `crc32` gives.
    let mut at = 0;
    while at < bytes.len() {
        hash ^= bytes[at] as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        at += 1;
    }
    hash
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `bytes`,
/// eight bytes per step (slicing-by-8).
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLES: [[u32; 256]; 8] = crc32_tables();
    let mut crc: u32 = !0;
    // An index loop rather than an iterator over 8-byte chunks: the same
    // speed when optimized, and twice the speed in unoptimized (test)
    // builds, where restore is timed against cold deduction.
    let words = bytes.len() / 8 * 8;
    let mut at = 0;
    while at < words {
        let w = &bytes[at..at + 8];
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][w[4] as usize]
            ^ TABLES[2][w[5] as usize]
            ^ TABLES[1][w[6] as usize]
            ^ TABLES[0][w[7] as usize];
        at += 8;
    }
    for &byte in &bytes[words..] {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xff) as usize];
    }
    !crc
}

/// `tables[0]` is the byte-at-a-time table; `tables[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// An in-memory snapshot: the completed fixpoints an engine exported,
/// plus the canonical text of the program they were derived over.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Engine generation at export time. Informational — see the module
    /// docs; the program hash is the consistency token.
    pub generation: u64,
    /// Canonical program text (`ddpa_constraints::print_constraints`).
    pub program_text: String,
    /// Completed fixpoints, in the canonical export order.
    pub entries: Vec<(Goal, CompletedGoal)>,
}

/// Lets a restore take its snapshot borrowed (`&snapshot`, whose
/// entries are copied) or owned (`snapshot`, whose entries move).
impl<'a> From<&'a Snapshot> for Cow<'a, Snapshot> {
    fn from(snapshot: &'a Snapshot) -> Self {
        Cow::Borrowed(snapshot)
    }
}

impl From<Snapshot> for Cow<'_, Snapshot> {
    fn from(snapshot: Snapshot) -> Self {
        Cow::Owned(snapshot)
    }
}

impl Snapshot {
    /// Captures `engine`'s fixpoints ([`DemandEngine::export_completed`])
    /// and generation with `program_text`, which must parse to the
    /// engine's node ids: the canonical text
    /// ([`ddpa_constraints::canonicalize`]) plus any lines appended since.
    pub fn capture(engine: &DemandEngine<'_>, program_text: impl Into<String>) -> Self {
        let program_text = program_text.into();
        debug_assert!(
            numbers_nodes_as(&program_text, engine.program()),
            "a snapshot's text must parse to its engine's node ids"
        );
        Snapshot {
            generation: engine.generation(),
            program_text,
            entries: engine.export_completed(),
        }
    }

    /// Builds a snapshot from parts.
    pub fn new(
        generation: u64,
        program_text: impl Into<String>,
        entries: Vec<(Goal, CompletedGoal)>,
    ) -> Self {
        Snapshot {
            generation,
            program_text: program_text.into(),
            entries,
        }
    }

    /// The FNV-1a hash of the stored program text — what gets written to
    /// (and must match in) the file.
    pub fn program_hash(&self) -> u64 {
        program_hash(&self.program_text)
    }

    /// Checks that this snapshot was taken over exactly `live_text`.
    pub fn verify_program(&self, live_text: &str) -> Result<(), SnapError> {
        if live_text == self.program_text {
            return Ok(());
        }
        let expected = program_hash(live_text);
        let found = self.program_hash();
        if expected != found {
            return Err(SnapError::ProgramMismatch { expected, found });
        }
        Ok(())
    }

    /// Serializes to the on-disk byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        SnapshotWriter::encode(self)
    }

    /// Parses and fully validates a snapshot from bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapError> {
        SnapshotReader::new(bytes)?.finish()
    }
}

/// Whether parsing `text` numbers nodes as `cp` does.
fn numbers_nodes_as(text: &str, cp: &ConstraintProgram) -> bool {
    let names = |p: &ConstraintProgram| p.node_ids().map(|n| p.display_node(n)).collect::<Vec<_>>();
    ddpa_constraints::parse_constraints(text).is_ok_and(|parsed| names(&parsed) == names(cp))
}

/// What [`restore`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RestoreStats {
    /// Entries newly staged in the engine.
    pub installed: usize,
    /// The program hash differed, so the entries were rebound.
    pub rebound: bool,
    /// Entries the rebinding dropped as dirtied by the edit.
    pub dropped: usize,
}

/// Stages `snapshot` in `engine`, whose program's text is `live_text`
/// ([`DemandEngine::warm_start`]): every entry when the program hashes
/// match, and otherwise — after an edit since the capture — every entry
/// that diffing the snapshot's text against the live program
/// ([`ddpa_constraints::diff_programs`]) leaves clean
/// ([`ddpa_demand::dirty_closure`]), rebound to the live program. An
/// owned snapshot's entries move in; a borrowed one's are copied.
///
/// # Errors
///
/// [`SnapError::ProgramMismatch`] when the snapshot's node ids name other
/// locations in the live program, [`SnapError::Corrupt`] when its text
/// does not parse. Nothing is staged then.
pub fn restore(
    engine: &mut DemandEngine<'_>,
    live_text: &str,
    snapshot: Cow<'_, Snapshot>,
) -> Result<RestoreStats, SnapError> {
    let mut dirty = HashSet::new();
    let rebound = match snapshot.verify_program(live_text) {
        Ok(()) => false,
        Err(mismatch) => {
            let old = ddpa_constraints::parse_constraints(&snapshot.program_text)
                .map_err(|e| SnapError::Corrupt(format!("program text does not parse: {e}")))?;
            let diff = ddpa_constraints::diff_programs(&old, engine.program());
            if !diff.compatible {
                return Err(mismatch);
            }
            dirty = ddpa_demand::dirty_closure(&snapshot.entries, &diff).0;
            true
        }
    };
    let keep = |(goal, _): &(Goal, CompletedGoal)| !dirty.contains(goal);
    let installed = match snapshot {
        Cow::Borrowed(s) => engine.warm_start(s.entries.iter().filter(|e| keep(e))),
        Cow::Owned(s) => engine.warm_start(s.entries.into_iter().filter(keep)),
    };
    Ok(RestoreStats {
        installed,
        rebound,
        dropped: dirty.len(),
    })
}

/// Encoder for the snapshot byte format. [`Snapshot::to_bytes`] is the
/// usual entry point; the writer is exposed for tests and tooling.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    payload: Vec<u8>,
}

impl SnapshotWriter {
    /// Encodes `snapshot` into a complete file image (header + payload).
    pub fn encode(snapshot: &Snapshot) -> Vec<u8> {
        let mut w = SnapshotWriter::default();
        w.u64(snapshot.generation);
        w.u64(snapshot.program_hash());
        w.u64(snapshot.program_text.len() as u64);
        w.payload
            .extend_from_slice(snapshot.program_text.as_bytes());
        w.u64(snapshot.entries.len() as u64);
        for (goal, result) in &snapshot.entries {
            let (tag, node) = goal.canonical_key();
            w.payload.push(tag);
            w.u32(node);
            w.u32(result.elems.len() as u32);
            for &elem in &result.elems {
                w.u32(elem);
            }
            w.u32(result.support.len() as u32);
            for &node in &result.support {
                w.u32(node);
            }
            w.u32(result.deps.len() as u32);
            for dep in &result.deps {
                let (tag, node) = dep.canonical_key();
                w.payload.push(tag);
                w.u32(node);
            }
            w.payload.push(result.reads_indirect as u8);
        }
        let mut out = Vec::with_capacity(HEADER_LEN + w.payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&crc32(&w.payload).to_le_bytes());
        out.extend_from_slice(&w.payload);
        out
    }

    fn u32(&mut self, v: u32) {
        self.payload.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.payload.extend_from_slice(&v.to_le_bytes());
    }
}

/// Decoder for the snapshot byte format, with every read bounds-checked
/// so corrupt input fails with [`SnapError::Corrupt`], never a panic.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    payload: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Validates the header (magic, version, checksum) of a complete
    /// file image and positions the reader at the payload.
    pub fn new(bytes: &'a [u8]) -> Result<Self, SnapError> {
        if bytes.len() < HEADER_LEN {
            return Err(SnapError::Corrupt(format!(
                "file is {} bytes, shorter than the {HEADER_LEN}-byte header",
                bytes.len()
            )));
        }
        if bytes[..8] != MAGIC {
            return Err(SnapError::Corrupt("bad magic".to_string()));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(SnapError::Version { found: version });
        }
        let stored_crc = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
        let payload = &bytes[HEADER_LEN..];
        let actual_crc = crc32(payload);
        if stored_crc != actual_crc {
            return Err(SnapError::Corrupt(format!(
                "checksum mismatch (stored {stored_crc:#010x}, computed {actual_crc:#010x})"
            )));
        }
        Ok(SnapshotReader { payload, pos: 0 })
    }

    /// Parses the payload into a [`Snapshot`], consuming the reader.
    pub fn finish(mut self) -> Result<Snapshot, SnapError> {
        let generation = self.u64("generation")?;
        let stored_hash = self.u64("program hash")?;
        let text_len = self.len_field("program text length")?;
        let text_bytes = self.take(text_len, "program text")?;
        let program_text = std::str::from_utf8(text_bytes)
            .map_err(|e| SnapError::Corrupt(format!("program text is not UTF-8: {e}")))?
            .to_string();
        if program_hash(&program_text) != stored_hash {
            return Err(SnapError::Corrupt(
                "stored program hash does not match stored program text".to_string(),
            ));
        }
        let count = self.u64("entry count")?;
        // An entry takes at least 18 bytes, so a lying count cannot size
        // the allocation.
        let fits = self.remaining() / 18;
        let mut entries = Vec::with_capacity(usize::try_from(count).map_or(fits, |c| c.min(fits)));
        for i in 0..count {
            let tag = self.u8("goal tag")?;
            let goal = goal_of(tag, self.u32("node id")?)
                .ok_or_else(|| SnapError::Corrupt(format!("entry {i}: unknown goal tag {tag}")))?;
            let elem_count = self.count("element count", "elements", 4, i)?;
            let elems = self.ascending(elem_count, |prev, elem| {
                format!("entry {i}: elements not strictly ascending ({prev} then {elem})")
            })?;
            let support_count = self.count("support count", "support nodes", 4, i)?;
            let support = self.ascending(support_count, |prev, node| {
                format!("entry {i}: support not strictly ascending ({prev} then {node})")
            })?;
            let dep_count = self.count("dep count", "deps", 5, i)?;
            let mut deps = Vec::with_capacity(dep_count);
            let bytes = self.take(dep_count * 5, "deps")?;
            let mut at = 0;
            while at < bytes.len() {
                let (tag, b) = (bytes[at], &bytes[at + 1..at + 5]);
                at += 5;
                let node = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
                deps.push(goal_of(tag, node).ok_or_else(|| {
                    SnapError::Corrupt(format!("entry {i}: unknown dep goal tag {tag}"))
                })?);
            }
            let reads_indirect = match self.u8("reads_indirect flag")? {
                0 => false,
                1 => true,
                other => {
                    return Err(SnapError::Corrupt(format!(
                        "entry {i}: reads_indirect flag is {other}, expected 0 or 1"
                    )))
                }
            };
            entries.push((
                goal,
                CompletedGoal {
                    elems,
                    support,
                    deps,
                    reads_indirect,
                },
            ));
        }
        if self.remaining() != 0 {
            return Err(SnapError::Corrupt(format!(
                "{} trailing bytes after the last entry",
                self.remaining()
            )));
        }
        Ok(Snapshot {
            generation,
            program_text,
            entries,
        })
    }

    fn remaining(&self) -> usize {
        self.payload.len() - self.pos
    }

    /// A u32 count of entry `i`'s `items`, each `width` bytes, that must
    /// fit in the remaining payload.
    fn count(&mut self, what: &str, items: &str, width: usize, i: u64) -> Result<usize, SnapError> {
        let count = self.u32(what)? as usize;
        if count
            .checked_mul(width)
            .is_none_or(|b| b > self.remaining())
        {
            return Err(SnapError::Corrupt(format!(
                "entry {i}: claims {count} {items} but only {} payload bytes remain",
                self.remaining()
            )));
        }
        Ok(count)
    }

    /// `count` little-endian u32s, which must be strictly ascending;
    /// `unordered(prev, next)` describes the first pair that is not.
    /// The caller has checked that `count * 4` bytes remain.
    fn ascending(
        &mut self,
        count: usize,
        unordered: impl Fn(u32, u32) -> String,
    ) -> Result<Vec<u32>, SnapError> {
        let bytes = self.take(count * 4, "u32 list")?;
        let mut values: Vec<u32> = Vec::with_capacity(count);
        let (mut at, mut prev) = (0, 0);
        while at < bytes.len() {
            let v = u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]);
            if at > 0 && v <= prev {
                return Err(SnapError::Corrupt(unordered(prev, v)));
            }
            values.push(v);
            prev = v;
            at += 4;
        }
        Ok(values)
    }

    fn take(&mut self, len: usize, what: &str) -> Result<&'a [u8], SnapError> {
        if len > self.remaining() {
            return Err(SnapError::Corrupt(format!(
                "truncated {what}: need {len} bytes, have {}",
                self.remaining()
            )));
        }
        let slice = &self.payload[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8, SnapError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, SnapError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    /// A u64 length field that must also fit in `usize` and in the
    /// remaining payload (guards against huge allocations on corrupt
    /// input).
    fn len_field(&mut self, what: &str) -> Result<usize, SnapError> {
        let v = self.u64(what)?;
        let v = usize::try_from(v)
            .map_err(|_| SnapError::Corrupt(format!("{what} {v} overflows this platform")))?;
        if v > self.remaining() {
            return Err(SnapError::Corrupt(format!(
                "{what} {v} exceeds the {} remaining payload bytes",
                self.remaining()
            )));
        }
        Ok(v)
    }
}

/// The goal a tag byte and node id encode ([`Goal::canonical_key`]).
fn goal_of(tag: u8, node: u32) -> Option<Goal> {
    let node = NodeId::from_u32(node);
    match tag {
        0 => Some(Goal::Pts(node)),
        1 => Some(Goal::Ptb(node)),
        _ => None,
    }
}

/// Atomically persists `snapshot` at `path`: the bytes are written to a
/// temporary file in the same directory, fsynced, then renamed into
/// place, so readers only ever observe a complete file. Returns the
/// byte count written. Parent directories are created as needed.
pub fn write_file(snapshot: &Snapshot, path: impl AsRef<Path>) -> Result<usize, SnapError> {
    let path = path.as_ref();
    let bytes = snapshot.to_bytes();
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    fs::create_dir_all(dir)?;
    let file_name = path.file_name().ok_or_else(|| {
        SnapError::Io(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("snapshot path {path:?} has no file name"),
        ))
    })?;
    let tmp = dir.join(format!(
        ".{}.tmp.{}",
        file_name.to_string_lossy(),
        std::process::id()
    ));
    let result = (|| -> Result<(), SnapError> {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result.map(|()| bytes.len())
}

/// Reads and fully validates a snapshot file.
pub fn read_file(path: impl AsRef<Path>) -> Result<Snapshot, SnapError> {
    let bytes = fs::read(path.as_ref())?;
    Snapshot::from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn goal(n: u32) -> Goal {
        Goal::Pts(NodeId::from_u32(n))
    }

    fn entry(elems: &[u32]) -> CompletedGoal {
        CompletedGoal {
            elems: elems.to_vec(),
            support: elems.to_vec(),
            ..CompletedGoal::default()
        }
    }

    fn sample() -> Snapshot {
        Snapshot::new(
            3,
            "p = &g\nq = p\n",
            vec![
                (goal(1), entry(&[4, 9, 200])),
                (goal(2), entry(&[])),
                (
                    Goal::Ptb(NodeId::from_u32(5)),
                    CompletedGoal {
                        elems: vec![0],
                        support: vec![5],
                        deps: vec![goal(1), Goal::Ptb(NodeId::from_u32(2))],
                        reads_indirect: true,
                    },
                ),
            ],
        )
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ddpa-snap-test-{}-{tag}.snap", std::process::id()))
    }

    #[test]
    fn bytes_round_trip() {
        let snap = sample();
        let decoded = Snapshot::from_bytes(&snap.to_bytes()).expect("round trip");
        assert_eq!(decoded, snap);
    }

    #[test]
    fn file_round_trip_is_atomic() {
        let snap = sample();
        let path = temp_path("round-trip");
        let written = write_file(&snap, &path).expect("write");
        assert_eq!(written, snap.to_bytes().len());
        assert_eq!(read_file(&path).expect("read"), snap);
        // No temp droppings next to the file.
        let dir = path.parent().expect("parent");
        let leftovers: Vec<_> = std::fs::read_dir(dir)
            .expect("read dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("ddpa-snap-test"))
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "leftover temp files: {leftovers:?}");
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn every_truncation_is_rejected_without_panicking() {
        let bytes = sample().to_bytes();
        for len in 0..bytes.len() {
            match Snapshot::from_bytes(&bytes[..len]) {
                Err(SnapError::Corrupt(_)) => {}
                other => panic!("truncation to {len} bytes not rejected: {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] ^= 0xff;
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapError::Corrupt(msg)) if msg.contains("magic")
        ));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[8] = 99;
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapError::Version { found: 99 })
        ));
    }

    #[test]
    fn flipped_payload_byte_fails_the_checksum() {
        let mut bytes = sample().to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapError::Corrupt(msg)) if msg.contains("checksum")
        ));
    }

    #[test]
    fn support_and_deps_round_trip() {
        let snap = sample();
        let decoded = Snapshot::from_bytes(&snap.to_bytes()).expect("round trip");
        let (_, e) = &decoded.entries[2];
        assert_eq!(e.support, vec![5]);
        assert_eq!(e.deps, vec![goal(1), Goal::Ptb(NodeId::from_u32(2))]);
        assert!(e.reads_indirect);
        let (_, plain) = &decoded.entries[1];
        assert!(plain.deps.is_empty());
        assert!(!plain.reads_indirect);
    }

    #[test]
    fn v1_files_are_rejected_as_unsupported() {
        // A v1 file is byte-identical up to the version field; readers
        // must reject it before attempting to parse the (shorter) entry
        // layout.
        let mut bytes = sample().to_bytes();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapError::Version { found: 1 })
        ));
    }

    #[test]
    fn unsorted_support_is_rejected() {
        let snap = Snapshot::new(
            0,
            "x = &y\n",
            vec![(
                goal(1),
                CompletedGoal {
                    elems: vec![3],
                    support: vec![5, 2],
                    ..CompletedGoal::default()
                },
            )],
        );
        assert!(matches!(
            Snapshot::from_bytes(&snap.to_bytes()),
            Err(SnapError::Corrupt(msg)) if msg.contains("support")
        ));
    }

    #[test]
    fn unsorted_elements_are_rejected() {
        let snap = Snapshot::new(0, "x = &y\n", vec![(goal(1), entry(&[5, 3]))]);
        assert!(matches!(
            Snapshot::from_bytes(&snap.to_bytes()),
            Err(SnapError::Corrupt(msg)) if msg.contains("ascending")
        ));
    }

    #[test]
    fn duplicate_elements_are_rejected() {
        let snap = Snapshot::new(0, "x = &y\n", vec![(goal(1), entry(&[3, 3]))]);
        assert!(matches!(
            Snapshot::from_bytes(&snap.to_bytes()),
            Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn program_mismatch_is_reported_with_both_hashes() {
        let snap = sample();
        snap.verify_program(&snap.program_text).expect("same text");
        match snap.verify_program("something else\n") {
            Err(SnapError::ProgramMismatch { expected, found }) => {
                assert_eq!(expected, program_hash("something else\n"));
                assert_eq!(found, snap.program_hash());
            }
            other => panic!("expected ProgramMismatch, got {other:?}"),
        }
    }

    #[test]
    fn program_hash_is_stable_across_runs() {
        // FNV-1a 64 known-answer test: the whole point is that the hash
        // is identical across processes and platforms.
        assert_eq!(program_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(program_hash("a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn crc32_known_answers() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn crc32_matches_bitwise_definition_at_every_length() {
        let bitwise = |bytes: &[u8]| {
            let mut crc: u32 = !0;
            for &b in bytes {
                crc ^= b as u32;
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        (crc >> 1) ^ 0xedb8_8320
                    } else {
                        crc >> 1
                    };
                }
            }
            !crc
        };
        let bytes: Vec<u8> = (0..70u32).map(|i| (i * 167 + 13) as u8).collect();
        for len in 0..bytes.len() {
            for start in 0..3.min(len + 1) {
                let slice = &bytes[start..len];
                assert_eq!(crc32(slice), bitwise(slice), "bytes {start}..{len}");
            }
        }
    }

    #[test]
    fn memo_capture_and_install_round_trip() {
        let text = "y = &o\nx = &y\nz = x\n";
        let cp = ddpa_constraints::parse_constraints(text).expect("parses");
        let z = cp
            .node_ids()
            .find(|&n| cp.display_node(n) == "z")
            .expect("z");
        let mut engine = ddpa_demand::DemandEngine::new(&cp, Default::default());
        let full = engine.points_to(z);
        let snap = Snapshot::capture(&engine, text);
        assert_eq!(snap.entries.len(), 2, "pts(z) and pts(x)");
        assert_eq!(snap.generation, 0);

        let mut fresh = ddpa_demand::DemandEngine::new(&cp, Default::default());
        let stats = restore(&mut fresh, text, Cow::Borrowed(&snap)).expect("same program");
        assert_eq!(stats.installed, 2);
        let reused = fresh.points_to(z);
        assert_eq!((reused.pts, reused.work), (full.pts, 0));
    }

    #[test]
    fn lying_fields_under_a_valid_checksum_decode_to_typed_errors() {
        // A real snapshot: a warm engine's pts and ptb fixpoints.
        let random = ddpa_gen::generate_random(&ddpa_gen::RandomConfig::sized(7, 60));
        let (cp, text) = ddpa_constraints::canonicalize(random, None).expect("canonical");
        let mut engine = ddpa_demand::DemandEngine::new(&cp, Default::default());
        for n in cp.node_ids() {
            engine.points_to(n);
            engine.pointed_to_by(n);
        }
        let snap = Snapshot::capture(&engine, text);
        let bytes = snap.to_bytes();
        let payload = &bytes[HEADER_LEN..];
        // The layout `SnapshotWriter::encode` writes: each count field as
        // (offset, width, bytes per counted item), each goal and dep tag,
        // and each entry's byte range.
        let mut at = 32 + snap.program_text.len();
        let (mut counts, mut tags, mut entries) = (vec![(at - 8, 8, 18)], vec![], vec![]);
        for (_, e) in &snap.entries {
            let deps = at + 17 + 4 * (e.elems.len() + e.support.len());
            counts.extend([(at + 5, 4, 4), (at + 9 + 4 * e.elems.len(), 4, 4)]);
            counts.push((deps - 4, 4, 5));
            tags.push(at);
            tags.extend((0..e.deps.len()).map(|d| deps + 5 * d));
            entries.push(at..deps + 5 * e.deps.len() + 1);
            at = deps + 5 * e.deps.len() + 1;
        }
        assert_eq!(at, payload.len(), "layout walk covers the payload");
        assert!(tags.len() > entries.len(), "some entry has deps");

        // Decodes under a recomputed checksum, so only the structural
        // checks stand between the lie and a panic or a hang.
        let decode = |payload: &[u8], what: &str| {
            let mut file = bytes[..HEADER_LEN].to_vec();
            file[12..16].copy_from_slice(&crc32(payload).to_le_bytes());
            file.extend_from_slice(payload);
            let started = std::time::Instant::now();
            let result = Snapshot::from_bytes(&file);
            assert!(started.elapsed().as_secs() < 2, "{what}: decode hung");
            match result {
                Ok(_) => false,
                Err(SnapError::Corrupt(_)) => true,
                Err(other) => panic!("{what}: untyped failure {other:?}"),
            }
        };
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize % bound
        };
        for _ in 0..400 {
            let mut lied = payload.to_vec();
            let (rejected, what) = match next(3) {
                0 => {
                    let (off, width, item) = counts[next(counts.len())];
                    let rem = (payload.len() - off - width) as u64;
                    let value = [u32::MAX as u64, rem + 1, rem / item + 1, 0][next(4)];
                    lied[off..off + width].copy_from_slice(&value.to_le_bytes()[..width]);
                    let what = format!("count at {off} = {value}");
                    (decode(&lied, &what) || value == 0, what)
                }
                1 => {
                    let off = tags[next(tags.len())];
                    lied[off] = 2 + next(254) as u8;
                    let what = format!("tag at {off} = {}", lied[off]);
                    (decode(&lied, &what), what)
                }
                _ => {
                    let entry = &entries[next(entries.len())];
                    let cut = entry.start + 1 + next(entry.len() - 1);
                    let what = format!("payload cut at {cut}");
                    (decode(&lied[..cut], &what), what)
                }
            };
            assert!(rejected, "{what} accepted");
        }
        assert!(!decode(payload, "unmutated"));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample().to_bytes();
        // Append garbage *and* fix up the crc so only the structural
        // check can catch it.
        bytes.extend_from_slice(&[1, 2, 3]);
        let crc = crc32(&bytes[HEADER_LEN..]);
        bytes[12..16].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapError::Corrupt(msg)) if msg.contains("trailing")
        ));
    }
}
