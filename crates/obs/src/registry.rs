//! Named monotonic counters, gauges, and histograms.
//!
//! A [`Registry`] maps names to [`Counter`]/[`Gauge`]/[`Histogram`]
//! handles. Handles are `Arc` clones over atomics, so the hot path
//! (`counter.inc()`, `histogram.record(v)`) is relaxed atomic arithmetic
//! with no lock and no name lookup — callers resolve the handle once and
//! keep it. The registry itself is behind a mutex and is only touched on
//! registration and snapshot; those locks recover from poisoning
//! (`lock_unpoisoned`) so a thread that panics mid-snapshot cannot
//! wedge every later metrics export.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::hist::Histogram;

/// Locks `m`, recovering from poisoning instead of panicking.
///
/// Sound for every map in this crate: registration inserts whole entries
/// (handles are just `Arc`s, never left half-built), and the profiler
/// tree tolerates a span stack abandoned by a panicking thread — see the
/// regression tests. A panic while holding one of these locks must wedge
/// only its own thread, not every later snapshot.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A monotonic event counter. Cloning shares the underlying cell.
///
/// Additions use wrapping arithmetic: past `u64::MAX` the counter wraps
/// to zero rather than panicking or saturating (matching
/// `AtomicU64::fetch_add`), which is the documented overflow behaviour.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A detached counter not registered anywhere (useful as a default).
    pub fn detached() -> Self {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (wrapping on overflow).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge (set, not accumulated).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Stores `v`.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    hists: Mutex<BTreeMap<String, Histogram>>,
}

/// A registry of named counters, gauges, and histograms. Cloning is
/// cheap and shares the name space.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, created (at zero) on first use. Repeated
    /// calls return handles to the same cell.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = lock_unpoisoned(&self.inner.counters);
        match map.get(name) {
            Some(c) => c.clone(),
            None => {
                let c = Counter::default();
                map.insert(name.to_owned(), c.clone());
                c
            }
        }
    }

    /// The gauge named `name`, created (at zero) on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = lock_unpoisoned(&self.inner.gauges);
        match map.get(name) {
            Some(g) => g.clone(),
            None => {
                let g = Gauge::default();
                map.insert(name.to_owned(), g.clone());
                g
            }
        }
    }

    /// The histogram named `name`, created (empty) on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = lock_unpoisoned(&self.inner.hists);
        match map.get(name) {
            Some(h) => h.clone(),
            None => {
                let h = Histogram::default();
                map.insert(name.to_owned(), h.clone());
                h
            }
        }
    }

    /// A name-sorted snapshot of every counter.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let map = lock_unpoisoned(&self.inner.counters);
        map.iter().map(|(k, v)| (k.clone(), v.get())).collect()
    }

    /// A name-sorted snapshot of every gauge.
    pub fn gauges(&self) -> Vec<(String, u64)> {
        let map = lock_unpoisoned(&self.inner.gauges);
        map.iter().map(|(k, v)| (k.clone(), v.get())).collect()
    }

    /// Name-sorted handles to every registered histogram.
    pub fn histograms(&self) -> Vec<(String, Histogram)> {
        let map = lock_unpoisoned(&self.inner.hists);
        map.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    /// The current value of counter `name` (0 if it was never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        let map = lock_unpoisoned(&self.inner.counters);
        map.get(name).map_or(0, Counter::get)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_the_cell() {
        let reg = Registry::new();
        let a = reg.counter("demand.fires");
        let b = reg.counter("demand.fires");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(reg.counter_value("demand.fires"), 3);
    }

    #[test]
    fn snapshot_is_name_sorted() {
        let reg = Registry::new();
        reg.counter("zeta").inc();
        reg.counter("alpha").add(4);
        let snap = reg.counters();
        assert_eq!(snap, vec![("alpha".to_owned(), 4), ("zeta".to_owned(), 1)]);
    }

    #[test]
    fn gauge_is_last_value_wins() {
        let reg = Registry::new();
        let g = reg.gauge("program.nodes");
        g.set(10);
        g.set(7);
        assert_eq!(g.get(), 7);
        assert_eq!(reg.gauges(), vec![("program.nodes".to_owned(), 7)]);
    }

    #[test]
    fn counter_overflow_wraps() {
        let c = Counter::detached();
        c.add(u64::MAX);
        c.add(3);
        // fetch_add wraps: MAX + 3 ≡ 2 (mod 2^64).
        assert_eq!(c.get(), 2);
    }

    #[test]
    fn histogram_handles_share_the_buckets() {
        let reg = Registry::new();
        let a = reg.histogram("server.latency.query_us");
        let b = reg.histogram("server.latency.query_us");
        a.record(10);
        b.record(30);
        let snap = reg.histograms();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].0, "server.latency.query_us");
        assert_eq!(snap[0].1.count(), 2);
        assert_eq!(snap[0].1.max(), 30);
    }

    #[test]
    fn poisoned_registry_recovers() {
        let reg = Registry::new();
        reg.counter("before").inc();
        reg.histogram("h").record(5);
        // A thread panics while holding each registration lock.
        for _ in 0..1 {
            let r = reg.clone();
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                let _guard = r.inner.counters.lock().expect("not yet poisoned");
                panic!("died holding the counter map");
            }));
            let r = reg.clone();
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                let _guard = r.inner.hists.lock().expect("not yet poisoned");
                panic!("died holding the hist map");
            }));
        }
        // Later registrations and snapshots recover instead of panicking.
        reg.counter("after").add(2);
        assert_eq!(reg.counter_value("before"), 1);
        assert_eq!(reg.counter_value("after"), 2);
        assert_eq!(reg.histograms()[0].1.count(), 1);
        assert_eq!(reg.counters().len(), 2);
    }

    #[test]
    fn counters_are_thread_safe() {
        let reg = Registry::new();
        let c = reg.counter("hits");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }
}
