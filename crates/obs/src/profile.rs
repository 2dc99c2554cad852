//! Hierarchical RAII span profiling.
//!
//! A [`Profiler`] aggregates spans into a tree keyed by (parent, name):
//! entering `"solve.wave"` under an open `"solve"` span attributes the
//! elapsed time to the `solve → solve.wave` node. Each node records how
//! many times it was entered, its total wall time, and the portion spent
//! in child spans — so *self* time (total − children) is available per
//! phase, which is what a hot-path hunt actually needs.
//!
//! Each thread keeps its own open-span stack, so a span nests under the
//! innermost span *its own thread* has open: concurrent threads (server
//! connections, scheduler workers) add to one tree without nesting inside
//! each other. Spans must nest like scopes within a thread (RAII guards
//! enforce this in straight-line code). Out-of-order drops are tolerated
//! defensively by unwinding the thread's stack to the guard's node.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use ddpa_support::stats::{fmt_count, fmt_duration};

use crate::registry::lock_unpoisoned;

#[derive(Debug)]
struct Node {
    name: String,
    parent: Option<usize>,
    children: Vec<usize>,
    count: u64,
    total: Duration,
    child_time: Duration,
}

#[derive(Debug, Default)]
struct Tree {
    nodes: Vec<Node>,
    /// Root-level children (nodes with no parent).
    roots: Vec<usize>,
    /// Each thread's currently open spans, outermost first. A thread's
    /// entry goes when its last open span closes.
    stacks: HashMap<ThreadId, Vec<usize>>,
}

impl Tree {
    /// Finds or creates the child named `name` of `thread`'s innermost
    /// open span, and opens it on that thread.
    fn open(&mut self, thread: ThreadId, name: &str) -> usize {
        let parent = self.stacks.get(&thread).and_then(|s| s.last().copied());
        let node = self.child_named(parent, name);
        self.stacks.entry(thread).or_default().push(node);
        node
    }

    /// Finds or creates the child of `parent` (a root if `None`) named
    /// `name`.
    fn child_named(&mut self, parent: Option<usize>, name: &str) -> usize {
        let siblings = match parent {
            Some(p) => &self.nodes[p].children,
            None => &self.roots,
        };
        if let Some(&i) = siblings.iter().find(|&&i| self.nodes[i].name == name) {
            return i;
        }
        let i = self.nodes.len();
        self.nodes.push(Node {
            name: name.to_owned(),
            parent,
            children: Vec::new(),
            count: 0,
            total: Duration::ZERO,
            child_time: Duration::ZERO,
        });
        match parent {
            Some(p) => self.nodes[p].children.push(i),
            None => self.roots.push(i),
        }
        i
    }

    fn close(&mut self, thread: ThreadId, node: usize, elapsed: Duration) {
        // Unwind to the guard's node; ordinarily it is the top of stack.
        if let Some(stack) = self.stacks.get_mut(&thread) {
            while let Some(top) = stack.pop() {
                if top == node {
                    break;
                }
            }
            if stack.is_empty() {
                self.stacks.remove(&thread);
            }
        }
        let n = &mut self.nodes[node];
        n.count += 1;
        n.total += elapsed;
        if let Some(p) = n.parent {
            self.nodes[p].child_time += elapsed;
        }
    }

    fn snapshot(&self, index: usize) -> ProfileNode {
        let n = &self.nodes[index];
        ProfileNode {
            name: n.name.clone(),
            count: n.count,
            total: n.total,
            self_time: n.total.saturating_sub(n.child_time),
            children: n.children.iter().map(|&c| self.snapshot(c)).collect(),
        }
    }
}

/// Aggregated statistics of one span node, with its nested children.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileNode {
    /// Span name as passed to [`crate::Obs::span`].
    pub name: String,
    /// Number of times the span was entered (and closed).
    pub count: u64,
    /// Total wall time across all entries.
    pub total: Duration,
    /// Total minus time attributed to child spans.
    pub self_time: Duration,
    /// Child spans in first-entered order.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// The node's dotted path elements flattened depth-first, each with
    /// its depth — handy for serialization.
    fn flatten_into<'a>(&'a self, depth: usize, out: &mut Vec<(usize, &'a ProfileNode)>) {
        out.push((depth, self));
        for c in &self.children {
            c.flatten_into(depth + 1, out);
        }
    }
}

/// The span aggregation tree. Cloning is cheap and shares the tree.
#[derive(Clone, Debug, Default)]
pub struct Profiler {
    tree: Arc<Mutex<Tree>>,
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Opens a span named `name` under the calling thread's innermost
    /// open span and starts the clock. Prefer [`crate::Obs::span`], which
    /// skips this entirely when profiling is off.
    pub fn enter(&self, name: &str) -> SpanGuard {
        let thread = thread::current().id();
        let node = lock_unpoisoned(&self.tree).open(thread, name);
        SpanGuard {
            profiler: Some((self.clone(), thread)),
            node,
            start: Instant::now(),
        }
    }

    /// A snapshot of the root spans (closed entries only; still-open spans
    /// contribute nothing until their guards drop).
    pub fn snapshot(&self) -> Vec<ProfileNode> {
        let tree = lock_unpoisoned(&self.tree);
        tree.roots.iter().map(|&r| tree.snapshot(r)).collect()
    }

    /// Renders the profile as an indented human-readable tree.
    pub fn render(&self) -> String {
        let roots = self.snapshot();
        let mut flat = Vec::new();
        for r in &roots {
            r.flatten_into(0, &mut flat);
        }
        let name_width = flat
            .iter()
            .map(|(d, n)| 2 * d + n.name.len())
            .max()
            .unwrap_or(0)
            .max(4);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<name_width$}  {:>10}  {:>10}  {:>10}",
            "span", "count", "total", "self"
        );
        for (depth, n) in flat {
            let _ = writeln!(
                out,
                "{:indent$}{:<width$}  {:>10}  {:>10}  {:>10}",
                "",
                n.name,
                fmt_count(n.count),
                fmt_duration(n.total),
                fmt_duration(n.self_time),
                indent = 2 * depth,
                width = name_width - 2 * depth,
            );
        }
        out
    }
}

/// RAII guard returned by [`Profiler::enter`] / [`crate::Obs::span`].
/// Dropping it records the elapsed time. The inert variant (profiling
/// off) carries no profiler and never reads the clock.
#[derive(Debug)]
pub struct SpanGuard {
    /// The profiler and the thread whose stack the span was opened on.
    profiler: Option<(Profiler, ThreadId)>,
    node: usize,
    start: Instant,
}

impl SpanGuard {
    /// A guard that records nothing on drop.
    pub fn noop() -> Self {
        // `Instant::now()` is not called on this path in release builds
        // worth worrying about: a dummy value is still required, and
        // `Instant` has no cheap constant constructor — but the noop guard
        // is only built once per *disabled* span site, where one clock read
        // versus zero is immaterial compared to lock + tree maintenance.
        static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        SpanGuard {
            profiler: None,
            node: 0,
            start: *EPOCH.get_or_init(Instant::now),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((profiler, thread)) = self.profiler.take() {
            let elapsed = self.start.elapsed();
            lock_unpoisoned(&profiler.tree).close(thread, self.node, elapsed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_count() {
        let p = Profiler::new();
        for _ in 0..3 {
            let _outer = p.enter("outer");
            let _inner = p.enter("inner");
        }
        let snap = p.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].name, "outer");
        assert_eq!(snap[0].count, 3);
        assert_eq!(snap[0].children.len(), 1);
        assert_eq!(snap[0].children[0].name, "inner");
        assert_eq!(snap[0].children[0].count, 3);
    }

    #[test]
    fn self_time_excludes_children() {
        let p = Profiler::new();
        {
            let _outer = p.enter("outer");
            std::thread::sleep(Duration::from_millis(5));
            let inner = p.enter("inner");
            std::thread::sleep(Duration::from_millis(10));
            drop(inner);
        }
        let snap = p.snapshot();
        let outer = &snap[0];
        let inner = &outer.children[0];
        assert!(inner.total >= Duration::from_millis(10));
        assert!(outer.total >= inner.total);
        // Self time is total minus the child's contribution, so it must
        // not include the inner sleep.
        assert_eq!(outer.self_time, outer.total - inner.total);
        assert!(outer.self_time >= Duration::from_millis(5));
        assert!(outer.self_time < outer.total);
    }

    #[test]
    fn same_name_under_different_parents_is_distinct() {
        let p = Profiler::new();
        {
            let _a = p.enter("a");
            let _x = p.enter("x");
        }
        {
            let _b = p.enter("b");
            let _x = p.enter("x");
        }
        let snap = p.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].children[0].name, "x");
        assert_eq!(snap[1].children[0].name, "x");
        assert_eq!(snap[0].children[0].count, 1);
        assert_eq!(snap[1].children[0].count, 1);
    }

    #[test]
    fn each_thread_nests_only_its_own_spans() {
        let p = Profiler::new();
        let both_open = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let _req = p.enter("req");
                    // Both threads hold `req` open here.
                    both_open.wait();
                    let _step = p.enter("step");
                });
            }
        });
        let snap = p.snapshot();
        assert_eq!(snap.len(), 1, "{snap:?}");
        assert_eq!((snap[0].name.as_str(), snap[0].count), ("req", 2));
        assert_eq!(snap[0].children.len(), 1, "{snap:?}");
        assert_eq!(snap[0].children[0].name, "step");
        assert_eq!(snap[0].children[0].count, 2);
        assert!(lock_unpoisoned(&p.tree).stacks.is_empty());
    }

    #[test]
    fn out_of_order_drop_does_not_corrupt_the_stack() {
        let p = Profiler::new();
        let a = p.enter("a");
        let b = p.enter("b");
        drop(a); // unwinds past b
        drop(b); // already popped; must not panic
        let _c = p.enter("c");
        drop(_c);
        let snap = p.snapshot();
        assert_eq!(
            snap.iter().map(|n| n.name.as_str()).collect::<Vec<_>>(),
            ["a", "c"]
        );
    }

    #[test]
    fn panicking_span_holder_does_not_wedge_later_snapshots() {
        let p = Profiler::new();
        {
            let _warm = p.enter("healthy");
        }
        // A worker thread panics while holding an open span guard: the
        // guard's drop runs during unwind and takes the tree lock, so the
        // mutex ends up poisoned.
        let clone = p.clone();
        let worker = std::thread::spawn(move || {
            let _open = clone.enter("doomed");
            panic!("worker died mid-span");
        });
        assert!(worker.join().is_err(), "worker must have panicked");

        // Later use recovers instead of dying on a poisoned-lock expect.
        {
            let _after = p.enter("after");
        }
        let snap = p.snapshot();
        let names: Vec<&str> = snap.iter().map(|n| n.name.as_str()).collect();
        assert!(names.contains(&"healthy"), "got {names:?}");
        assert!(names.contains(&"after"), "got {names:?}");
        // The doomed span closed during unwind, so it is recorded too.
        assert!(names.contains(&"doomed"), "got {names:?}");
        assert!(!p.render().is_empty());
    }

    #[test]
    fn render_contains_all_span_names() {
        let p = Profiler::new();
        {
            let _s = p.enter("solve");
            let _w = p.enter("solve.wave");
        }
        let text = p.render();
        assert!(text.contains("solve"));
        assert!(text.contains("solve.wave"));
        assert!(text.contains("count"));
    }
}
