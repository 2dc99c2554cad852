//! The host's current speed, from a fixed task timed between requests.
//!
//! On the 2-core reference host the same CPU-bound work runs at one of two
//! speeds about 1.65x apart, switching every few seconds (a parse that
//! takes 3.8 ms takes 6.3 ms a moment later; thread CPU time moves with
//! it, so no clock choice hides it). Timings taken across a switch differ
//! by more than any change worth detecting. Each client therefore times a
//! fixed reference task every [`PROBE_EVERY`] and scales the requests
//! that follow by how fast it ran: reported times are reference-host
//! times, in which the task takes [`NOMINAL_NS`].
//!
//! The task uses only the standard library, never code under test, so a
//! change to the program cannot move its own yardstick.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How long the reference task takes on the reference host at its faster
/// speed.
pub const NOMINAL_NS: f64 = 400_000.0;

/// How often a client times the reference task.
pub const PROBE_EVERY: Duration = Duration::from_millis(25);

/// Runs the reference task (formatting, ordered-map inserts, a sort) and
/// returns its duration in nanoseconds.
pub fn probe() -> u64 {
    let started = Instant::now();
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for i in 0..1500u64 {
        let key = format!("node_{}", i.wrapping_mul(2_654_435_761) % 4099);
        *counts.entry(key).or_default() += i;
    }
    let mut pairs: Vec<(u64, String)> = counts.into_iter().map(|(k, v)| (v, k)).collect();
    pairs.sort_unstable();
    black_box(pairs);
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The recent speed of the host, from the last three probes.
#[derive(Clone, Debug)]
pub struct Speed {
    recent: [u64; 3],
    probes: Vec<u64>,
    last: Instant,
}

impl Speed {
    /// Starts with one probe.
    pub fn new() -> Speed {
        let first = probe();
        Speed {
            recent: [first; 3],
            probes: vec![first],
            last: Instant::now(),
        }
    }

    /// Whether [`PROBE_EVERY`] has passed since the last probe.
    pub fn due(&self) -> bool {
        self.last.elapsed() >= PROBE_EVERY
    }

    /// Probes again.
    pub fn refresh(&mut self) {
        let ns = probe();
        self.recent.rotate_left(1);
        self.recent[2] = ns;
        self.probes.push(ns);
        self.last = Instant::now();
    }

    /// How much slower than the reference host the host runs now (the
    /// median of the last three probes over [`NOMINAL_NS`]).
    pub fn slowdown(&self) -> f64 {
        let mut r = self.recent;
        r.sort_unstable();
        r[1] as f64 / NOMINAL_NS
    }

    /// `ns` measured now, in reference-host nanoseconds.
    pub fn scale(&self, ns: u64) -> u64 {
        (ns as f64 / self.slowdown()) as u64
    }

    /// Every probe taken.
    pub fn probes(&self) -> &[u64] {
        &self.probes
    }
}
