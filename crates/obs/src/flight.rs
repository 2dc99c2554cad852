//! Deduction flight recorder — a bounded, lock-free ring of structured
//! engine events.
//!
//! The demand engine emits one [`FlightEvent`] per interesting scheduling
//! decision (goal activated, watcher blocked on a subgoal, goal resumed
//! after budget exhaustion, goal completed, memo hit, cycle merged, and a
//! *sampled* stream of rule firings). The ring is fixed-size: when it
//! fills, the oldest events are overwritten first and the exact number of
//! overwritten events is reported by [`FlightSnapshot::dropped`], so a
//! post-hoc reconstruction always knows how much of the flight it is
//! missing.
//!
//! # Design
//!
//! Each slot is a tiny seqlock: a sequence word plus two data words.
//! A writer claims a slot by a single `fetch_add` on the head counter —
//! the claimed absolute index *is* the event's logical timestamp — then
//! publishes `2·i + 1` (odd: write in progress), the payload, and finally
//! `2·i + 2` (even: stable, encodes `i`). Readers skip slots whose
//! sequence is odd or changes underfoot, so a snapshot taken while the
//! engine is running simply has *gaps* instead of torn events — exactly
//! the tolerance the reconstruction layer is tested for.
//!
//! Slot storage is allocated lazily, one chunk at a time, so the
//! hundreds of short-lived engines the test-suite creates pay only for a
//! few [`OnceLock`]s until they actually record something.
//!
//! # Staging
//!
//! A direct write costs the `fetch_add` on the head, a chunk lookup and
//! four slot stores, and its caller also counts the event. A writer that
//! knows it is the ring's only one for a while (the sequential demand
//! engine during a query) appends to a [`FlightStage`] instead and
//! publishes it with [`FlightRecorder::record_batch`]: one `fetch_add`
//! claims every slot, the slots are written under the same seqlock
//! protocol, `fires_seen` advances once and the event counter is added
//! to once. After a publish the ring holds exactly what direct writes
//! would have left in it, `seq` for `seq`; before it, a concurrent
//! reader sees none of the staged events. The parallel scheduler's
//! workers share the ring, so they keep writing directly.
//!
//! # Sampling and cost
//!
//! Rule firings route through [`FlightRecorder::maybe_record_fire`] (or
//! [`FlightStage::offer_fire`]), which keeps every `sample`-th firing
//! (stride sampling). Structural events are always recorded, so how many
//! events a firing costs depends on the program's shape. The bench T9
//! table's `events/fire` column reads 0.28 on its largest copy-cycle
//! program and 1.12 on its MiniC program, where almost every firing
//! installs a watcher and so records a `blocked` event. T9 also measures
//! the wall-time overhead per shape (see `docs/OBSERVABILITY.md`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::Counter;

/// The kind of a recorded engine event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FlightEventKind {
    /// A goal was activated (tabled for the first time). `a` = goal index.
    Activated,
    /// A watcher was installed: the consumer goal now *blocks on* new
    /// elements of the producer. `a` = producer goal index, `b` =
    /// consumer goal index (`u32::MAX` when the consumer is not tabled
    /// yet).
    Blocked,
    /// A goal was re-queued because the budget ran out mid-drain; a later
    /// query resumes it. `a` = goal index.
    Resumed,
    /// A goal reached its final fixpoint. `a` = goal index, `b` = element
    /// count, `work` = attributed work ticks.
    Completed,
    /// A query or activation was answered from the memo table. `a` = goal
    /// index, `b` = 0 for a tabled goal, 1 for an entry a restore staged.
    MemoHit,
    /// A copy cycle was collapsed into one representative. `a` =
    /// representative goal index, `b` = component size.
    CycleMerged,
    /// A sampled rule firing. `a` = goal index being processed, `b` =
    /// watcher kind index, `work` = sampling stride (each recorded firing
    /// stands for `work` real ones).
    Fire,
    /// A scheduler frame quiesced and left the runnable set, waiting for
    /// a producer goal to publish new facts. `a` = frame slot, `b` =
    /// worker id. (Parallel queries only; slots are frame addresses, not
    /// engine goal indices.)
    Parked,
    /// A worker stole a runnable frame from another worker's deque. `a` =
    /// frame slot, `b` = thief worker id.
    Stolen,
    /// A parked frame was rescheduled because a goal it watches published
    /// new facts. `a` = frame slot, `b` = scheduling worker id.
    Woken,
}

impl FlightEventKind {
    /// Schema names, indexed by discriminant.
    pub const KIND_NAMES: [&'static str; 10] = [
        "activated",
        "blocked",
        "resumed",
        "completed",
        "memo_hit",
        "cycle_merged",
        "fire",
        "parked",
        "stolen",
        "woken",
    ];

    /// The event's schema name.
    pub fn as_str(self) -> &'static str {
        Self::KIND_NAMES[self as usize]
    }

    fn from_u32(v: u32) -> Option<Self> {
        match v {
            0 => Some(FlightEventKind::Activated),
            1 => Some(FlightEventKind::Blocked),
            2 => Some(FlightEventKind::Resumed),
            3 => Some(FlightEventKind::Completed),
            4 => Some(FlightEventKind::MemoHit),
            5 => Some(FlightEventKind::CycleMerged),
            6 => Some(FlightEventKind::Fire),
            7 => Some(FlightEventKind::Parked),
            8 => Some(FlightEventKind::Stolen),
            9 => Some(FlightEventKind::Woken),
            _ => None,
        }
    }
}

/// One recorded engine event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Logical timestamp: the event's absolute position in the recording
    /// order (0-based, monotone across the whole engine lifetime).
    pub seq: u64,
    /// What happened.
    pub kind: FlightEventKind,
    /// Primary operand — a goal index, meaning per [`FlightEventKind`].
    pub a: u32,
    /// Secondary operand, meaning per [`FlightEventKind`].
    pub b: u32,
    /// Work ticks attributed to this event (0 when not applicable).
    pub work: u32,
}

/// A point-in-time copy of the ring.
#[derive(Clone, Debug, Default)]
pub struct FlightSnapshot {
    /// Stable events, ascending by `seq`. May have gaps where a
    /// concurrent writer was mid-publish.
    pub events: Vec<FlightEvent>,
    /// Total events ever recorded (= the next event's `seq`).
    pub recorded: u64,
    /// Exactly how many of the oldest events the ring has overwritten:
    /// `recorded − min(recorded, capacity)`.
    pub dropped: u64,
}

/// Recorder configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightConfig {
    /// Ring capacity in events; rounded up to a power of two, minimum 8.
    pub capacity: usize,
    /// Fire-sampling stride: every `sample`-th rule firing is recorded
    /// (clamped to ≥ 1; structural events are never sampled).
    pub sample: u32,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            capacity: 8192,
            sample: 64,
        }
    }
}

#[derive(Debug)]
struct Slot {
    /// 0 = never written; odd = write in progress; `2·i + 2` = slot holds
    /// the stable event with absolute index `i`.
    seq: AtomicU64,
    /// `kind << 32 | a`.
    kind_a: AtomicU64,
    /// `b << 32 | work`.
    b_work: AtomicU64,
}

/// Slots per lazily allocated chunk of the ring, as a power of two.
const CHUNK_SHIFT: u32 = 8;

/// The bounded lock-free event ring. Cheap to share (`Arc` it); writers
/// never block and allocate only when an event first lands in one of the
/// ring's chunks, so a short run pays for the slots it uses.
#[derive(Debug)]
pub struct FlightRecorder {
    config: FlightConfig,
    /// Total events ever recorded; the low bits index the ring.
    head: AtomicU64,
    /// Total rule firings offered to the sampler (recorded or not).
    fires_seen: AtomicU64,
    /// `capacity - 1`: event `i` lands in slot `i & mask`.
    mask: u64,
    /// Slot `at` is entry `at & (2^shift - 1)` of chunk `at >> shift`.
    shift: u32,
    /// The ring, `2^shift` slots per chunk.
    chunks: Box<[OnceLock<Box<[Slot]>>]>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(FlightConfig::default())
    }
}

impl FlightRecorder {
    /// A recorder with the given ring size and sampling stride.
    pub fn new(config: FlightConfig) -> Self {
        let capacity = config.capacity.next_power_of_two().max(8);
        let shift = CHUNK_SHIFT.min(capacity.trailing_zeros());
        FlightRecorder {
            config,
            head: AtomicU64::new(0),
            fires_seen: AtomicU64::new(0),
            mask: capacity as u64 - 1,
            shift,
            chunks: (0..capacity >> shift).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The effective ring capacity (power of two, ≥ 8).
    pub fn capacity(&self) -> usize {
        self.mask as usize + 1
    }

    /// The effective fire-sampling stride (≥ 1).
    pub fn sample_stride(&self) -> u32 {
        self.config.sample.max(1)
    }

    /// The slot event `i` lands in, allocating its chunk on first use.
    fn slot(&self, i: u64) -> &Slot {
        &self.slots_from(i)[0]
    }

    /// The slots from event `i`'s to the end of its chunk, allocating the
    /// chunk on first use.
    fn slots_from(&self, i: u64) -> &[Slot] {
        let at = (i & self.mask) as usize;
        let chunk = self.chunks[at >> self.shift].get_or_init(|| {
            (0..1usize << self.shift)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    kind_a: AtomicU64::new(0),
                    b_work: AtomicU64::new(0),
                })
                .collect()
        });
        &chunk[at & ((1 << self.shift) - 1)..]
    }

    /// Records one event; returns its logical timestamp.
    pub fn record(&self, kind: FlightEventKind, a: u32, b: u32, work: u32) -> u64 {
        let i = self.head.fetch_add(1, Ordering::Relaxed);
        write(self.slot(i), i, (kind, a, b, work));
        i
    }

    /// Records `events` in order, as consecutive calls to
    /// [`record`](Self::record) would, and counts `fires` rule firings as
    /// offered to the sampler. One `fetch_add` claims every slot, so the
    /// events get consecutive timestamps even with other writers about.
    /// Returns the first event's timestamp.
    pub fn record_batch(&self, events: &[StagedEvent], fires: u64) -> u64 {
        if fires > 0 {
            self.fires_seen.fetch_add(fires, Ordering::Relaxed);
        }
        let first = self.head.fetch_add(events.len() as u64, Ordering::Relaxed);
        // Only the newest `capacity` events of a batch survive it, so the
        // older ones are never written.
        let skip = events.len().saturating_sub(self.capacity());
        let (mut i, mut rest) = (first + skip as u64, &events[skip..]);
        while !rest.is_empty() {
            let slots = self.slots_from(i);
            let n = slots.len().min(rest.len());
            // Indexed rather than zipped: the same when optimized, and
            // cheaper in unoptimized (test) builds.
            for k in 0..n {
                write(&slots[k], i, rest[k]);
                i += 1;
            }
            rest = &rest[n..];
        }
        first
    }

    /// Offers one rule firing to the sampler; records a [`Fire`] event
    /// (with `work` = the stride, the number of real firings it stands
    /// for) every `sample`-th call. Returns `true` if recorded.
    ///
    /// [`Fire`]: FlightEventKind::Fire
    #[inline]
    pub fn maybe_record_fire(&self, goal: u32, watcher_kind: u32) -> bool {
        let stride = self.sample_stride() as u64;
        let n = self.fires_seen.fetch_add(1, Ordering::Relaxed);
        if !n.is_multiple_of(stride) {
            return false;
        }
        self.record(
            FlightEventKind::Fire,
            goal,
            watcher_kind,
            self.sample_stride(),
        );
        true
    }

    /// Total events ever recorded.
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Total rule firings offered to the sampler.
    pub fn fires_seen(&self) -> u64 {
        self.fires_seen.load(Ordering::Relaxed)
    }

    /// Exact count of events overwritten so far (oldest-first).
    pub fn dropped(&self) -> u64 {
        let recorded = self.recorded();
        recorded - recorded.min(self.capacity() as u64)
    }

    /// Copies the stable contents of the ring. Safe concurrently with
    /// writers: slots mid-write (or overwritten between the sequence
    /// check and the payload read) are skipped, producing gaps rather
    /// than torn events. Events come back ascending by `seq`.
    pub fn snapshot(&self) -> FlightSnapshot {
        let recorded = self.recorded();
        let mut events = Vec::new();
        let oldest = recorded - recorded.min(self.capacity() as u64);
        for slot in self.chunks.iter().filter_map(OnceLock::get).flatten() {
            let seq0 = slot.seq.load(Ordering::Acquire);
            if seq0 == 0 || seq0 % 2 == 1 {
                continue; // never written / write in progress
            }
            let i = seq0 / 2 - 1;
            if i < oldest {
                continue; // stale beyond the live window
            }
            let kind_a = slot.kind_a.load(Ordering::Acquire);
            let b_work = slot.b_work.load(Ordering::Acquire);
            if slot.seq.load(Ordering::Acquire) != seq0 {
                continue; // overwritten underfoot — tolerate the gap
            }
            let Some(kind) = FlightEventKind::from_u32((kind_a >> 32) as u32) else {
                continue;
            };
            events.push(FlightEvent {
                seq: i,
                kind,
                a: kind_a as u32,
                b: (b_work >> 32) as u32,
                work: b_work as u32,
            });
        }
        events.sort_unstable_by_key(|e| e.seq);
        FlightSnapshot {
            events,
            recorded,
            dropped: recorded - recorded.min(self.capacity() as u64),
        }
    }
}

/// Publishes event `i` into `slot` under the seqlock protocol.
#[inline]
fn write(slot: &Slot, i: u64, (kind, a, b, work): StagedEvent) {
    slot.seq.store(2 * i + 1, Ordering::Release);
    slot.kind_a
        .store(((kind as u64) << 32) | a as u64, Ordering::Release);
    slot.b_work
        .store(((b as u64) << 32) | work as u64, Ordering::Release);
    slot.seq.store(2 * i + 2, Ordering::Release);
}

/// An event waiting in a [`FlightStage`]: `(kind, a, b, work)`.
pub type StagedEvent = (FlightEventKind, u32, u32, u32);

/// Events a [`FlightStage`] holds before it publishes them on its own.
/// Capped by the ring's capacity, since a larger batch would overwrite
/// its own oldest events.
const STAGE_BOUND: usize = 1024;

/// A single writer's buffer in front of a shared [`FlightRecorder`].
///
/// While one writer is the ring's only one (the sequential engine during
/// a query), it appends events and offers firings here, which costs a
/// push and a countdown instead of atomics on the shared ring and on the
/// event counter. [`publish`](Self::publish) hands the buffer over in one
/// [`FlightRecorder::record_batch`] and adds the events to the counter
/// once; so does an append that fills the buffer. Firings are sampled by
/// a local countdown that [`sync`](Self::sync) derives from the
/// recorder's `fires_seen`, so exactly the firings that
/// [`FlightRecorder::maybe_record_fire`] would keep are kept, even after
/// other writers have offered firings in between. Once published, the
/// ring holds what direct recording would have left in it.
#[derive(Debug)]
pub struct FlightStage {
    recorder: Arc<FlightRecorder>,
    /// Counts every published event.
    counter: Counter,
    events: Vec<StagedEvent>,
    /// Firings offered since the last publish.
    fires: u64,
    /// Firings still to pass before the next one is sampled.
    countdown: u64,
    stride: u32,
    bound: usize,
}

impl FlightStage {
    /// An empty stage publishing into `recorder` and counting each
    /// published event into `counter`.
    pub fn new(recorder: Arc<FlightRecorder>, counter: Counter) -> Self {
        let mut stage = FlightStage {
            stride: recorder.sample_stride(),
            bound: recorder.capacity().min(STAGE_BOUND),
            recorder,
            counter,
            events: Vec::new(),
            fires: 0,
            countdown: 0,
        };
        stage.sync();
        stage
    }

    /// The recorder this stage publishes into.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Whether nothing waits to be published.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.fires == 0
    }

    /// Publishes what is staged, then re-derives the fire countdown from
    /// the recorder, which other writers may have advanced meanwhile.
    pub fn sync(&mut self) {
        self.publish();
        let stride = u64::from(self.stride);
        self.countdown = (stride - self.recorder.fires_seen() % stride) % stride;
    }

    /// Stages one event, publishing the stage once it is full.
    #[inline]
    pub fn record(&mut self, kind: FlightEventKind, a: u32, b: u32, work: u32) {
        self.events.push((kind, a, b, work));
        if self.events.len() >= self.bound {
            self.publish();
        }
    }

    /// Offers one rule firing to the sampler, staging a [`Fire`] event
    /// for every `sample`-th one, as
    /// [`FlightRecorder::maybe_record_fire`] does.
    ///
    /// [`Fire`]: FlightEventKind::Fire
    #[inline]
    pub fn offer_fire(&mut self, goal: u32, watcher_kind: u32) {
        self.fires += 1;
        if self.countdown > 0 {
            self.countdown -= 1;
            return;
        }
        self.countdown = u64::from(self.stride) - 1;
        self.record(FlightEventKind::Fire, goal, watcher_kind, self.stride);
    }

    /// Hands every staged event and firing to the recorder.
    pub fn publish(&mut self) {
        if self.is_empty() {
            return;
        }
        self.recorder.record_batch(&self.events, self.fires);
        self.counter.add(self.events.len() as u64);
        self.events.clear();
        self.fires = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(capacity: usize, sample: u32) -> FlightRecorder {
        FlightRecorder::new(FlightConfig { capacity, sample })
    }

    #[test]
    fn empty_snapshot_is_empty_and_exact() {
        let r = FlightRecorder::default();
        let snap = r.snapshot();
        assert!(snap.events.is_empty());
        assert_eq!(snap.recorded, 0);
        assert_eq!(snap.dropped, 0);
    }

    #[test]
    fn records_in_order_with_logical_timestamps() {
        let r = tiny(16, 1);
        for k in 0..5u32 {
            let seq = r.record(FlightEventKind::Activated, k, 0, 0);
            assert_eq!(seq, k as u64, "claimed index is the timestamp");
        }
        let snap = r.snapshot();
        assert_eq!(snap.recorded, 5);
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.events.len(), 5);
        for (i, e) in snap.events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.a, i as u32);
            assert_eq!(e.kind, FlightEventKind::Activated);
        }
    }

    #[test]
    fn wrap_around_drops_oldest_first_with_exact_counter() {
        let r = tiny(8, 1);
        assert_eq!(r.capacity(), 8);
        for k in 0..20u32 {
            r.record(FlightEventKind::Fire, k, 0, 1);
        }
        let snap = r.snapshot();
        assert_eq!(snap.recorded, 20);
        assert_eq!(snap.dropped, 12, "exactly recorded − capacity dropped");
        assert_eq!(r.dropped(), 12);
        // The survivors are precisely the newest `capacity` events, in order.
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<u64>>());
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two_with_floor() {
        assert_eq!(tiny(0, 1).capacity(), 8);
        assert_eq!(tiny(9, 1).capacity(), 16);
        assert_eq!(tiny(4096, 1).capacity(), 4096);
    }

    #[test]
    fn fire_sampling_keeps_every_nth() {
        let r = tiny(64, 4);
        let mut kept = 0;
        for i in 0..16u32 {
            if r.maybe_record_fire(i, 0) {
                kept += 1;
            }
        }
        assert_eq!(kept, 4, "stride 4 keeps every 4th of 16");
        assert_eq!(r.fires_seen(), 16);
        let snap = r.snapshot();
        assert_eq!(snap.events.len(), 4);
        for e in &snap.events {
            assert_eq!(e.kind, FlightEventKind::Fire);
            assert_eq!(e.work, 4, "each kept firing stands for `stride` real ones");
        }
    }

    #[test]
    fn sample_stride_clamps_to_one() {
        let r = tiny(64, 0);
        assert_eq!(r.sample_stride(), 1);
        for i in 0..5u32 {
            assert!(r.maybe_record_fire(i, 0), "stride 1 keeps everything");
        }
        assert_eq!(r.snapshot().events.len(), 5);
    }

    #[test]
    fn event_payload_round_trips() {
        let r = tiny(8, 1);
        r.record(FlightEventKind::CycleMerged, 7, 3, 41);
        let e = r.snapshot().events[0];
        assert_eq!(e.kind, FlightEventKind::CycleMerged);
        assert_eq!(e.a, 7);
        assert_eq!(e.b, 3);
        assert_eq!(e.work, 41);
        assert_eq!(e.kind.as_str(), "cycle_merged");
    }

    #[test]
    fn kind_names_cover_all_discriminants() {
        for (i, name) in FlightEventKind::KIND_NAMES.iter().enumerate() {
            let k = FlightEventKind::from_u32(i as u32).expect("valid discriminant");
            assert_eq!(k.as_str(), *name);
        }
        assert!(FlightEventKind::from_u32(10).is_none());
    }

    #[test]
    fn concurrent_writers_produce_a_consistent_window() {
        let r = std::sync::Arc::new(tiny(64, 1));
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let r = r.clone();
                s.spawn(move || {
                    for i in 0..1000u32 {
                        r.record(FlightEventKind::Fire, t * 1000 + i, 0, 1);
                    }
                });
            }
        });
        assert_eq!(r.recorded(), 4000);
        assert_eq!(r.dropped(), 4000 - 64);
        let snap = r.snapshot();
        // Quiescent ring: every surviving slot is stable, so the snapshot
        // is the full newest-64 window, strictly ascending.
        assert_eq!(snap.events.len(), 64);
        for w in snap.events.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
        assert_eq!(snap.events.last().map(|e| e.seq), Some(3999));
    }

    #[test]
    fn snapshot_tolerates_gaps_from_in_progress_writes() {
        // Simulate a writer parked mid-publish by forcing a slot's seq odd.
        let r = tiny(8, 1);
        for k in 0..8u32 {
            r.record(FlightEventKind::Activated, k, 0, 0);
        }
        r.slot(3).seq.store(2 * 3 + 1, Ordering::Release);
        let snap = r.snapshot();
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 4, 5, 6, 7], "gap where the write hangs");
        assert_eq!(snap.recorded, 8, "recorded counter unaffected by the gap");
    }

    #[test]
    fn batch_records_like_consecutive_records() {
        let (direct, batched) = (tiny(16, 1), tiny(16, 1));
        let events: Vec<StagedEvent> = (0..40u32)
            .map(|k| (FlightEventKind::Blocked, k, k + 1, k % 3))
            .collect();
        direct.record(FlightEventKind::Activated, 9, 0, 0);
        batched.record(FlightEventKind::Activated, 9, 0, 0);
        for &(kind, a, b, work) in &events[..5] {
            direct.record(kind, a, b, work);
        }
        assert_eq!(batched.record_batch(&events[..5], 7), 1);
        // A batch longer than the ring keeps only its newest events.
        for &(kind, a, b, work) in &events[5..] {
            direct.record(kind, a, b, work);
        }
        assert_eq!(batched.record_batch(&events[5..], 0), 6);
        assert_eq!(batched.recorded(), direct.recorded());
        assert_eq!(batched.fires_seen(), 7);
        let (d, b) = (direct.snapshot(), batched.snapshot());
        assert_eq!(b.events, d.events);
        assert_eq!(b.dropped, d.dropped);
    }

    /// A staged writer leaves exactly what direct recording would, with
    /// another writer's firings and events interleaved between its
    /// publishes, including publishes a full stage triggers.
    #[test]
    fn staged_writer_matches_direct_recording() {
        let config = FlightConfig {
            capacity: 32,
            sample: 5,
        };
        let direct = FlightRecorder::new(config);
        let counter = Counter::default();
        let mut stage = FlightStage::new(Arc::new(FlightRecorder::new(config)), counter.clone());
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut other = 0u64;
        for round in 0..40u32 {
            stage.sync();
            for _ in 0..next() % 90 {
                let r = next();
                let (a, b) = (r as u32 % 1000, (r >> 32) as u32 % 7);
                if r % 3 == 0 {
                    direct.record(FlightEventKind::Completed, a, b, round);
                    stage.record(FlightEventKind::Completed, a, b, round);
                } else {
                    direct.maybe_record_fire(a, b);
                    stage.offer_fire(a, b);
                }
            }
            stage.publish();
            assert!(stage.is_empty());
            // Another writer between two staged runs.
            for k in 0..(next() % 4) as u32 {
                direct.maybe_record_fire(k, 9);
                direct.record(FlightEventKind::Stolen, k, 1, 0);
                other += 1 + u64::from(stage.recorder().maybe_record_fire(k, 9));
                stage.recorder().record(FlightEventKind::Stolen, k, 1, 0);
            }
            let (d, s) = (direct.snapshot(), stage.recorder().snapshot());
            assert_eq!(s.events, d.events, "round {round}");
            assert_eq!(s.recorded, d.recorded);
            assert_eq!(s.dropped, d.dropped);
            assert_eq!(stage.recorder().fires_seen(), direct.fires_seen());
        }
        assert_eq!(
            counter.get(),
            direct.recorded() - other,
            "staged events counted"
        );
    }
}
