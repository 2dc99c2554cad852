//! The work-stealing deque behind the frame scheduler's workers.

use std::collections::VecDeque;
use std::sync::Mutex;

/// One worker's stealable deque (see [`crate::sched`]).
///
/// The owner pushes and pops at the *back* (LIFO, depth-first) or pops at
/// the *front* (FIFO, breadth-first); thieves always [`steal`] from the
/// front, so under the depth-first policy they take the owner's oldest —
/// coarsest — frames, the classic work-stealing granularity argument.
/// A `Mutex<VecDeque>` rather than a lock-free Chase–Lev deque: frames
/// are coarse units of work (a whole goal-step), so the queue is touched
/// orders of magnitude less often than facts are published, and the
/// uncontended-lock cost is noise next to a frame step.
///
/// [`steal`]: StealQueue::steal
#[derive(Debug, Default)]
pub struct StealQueue<T> {
    items: Mutex<VecDeque<T>>,
}

impl<T> StealQueue<T> {
    /// An empty deque.
    pub fn new() -> Self {
        StealQueue {
            items: Mutex::new(VecDeque::new()),
        }
    }

    /// Owner: enqueues at the back.
    pub fn push(&self, item: T) {
        self.items
            .lock()
            .expect("steal queue poisoned")
            .push_back(item);
    }

    /// Owner, depth-first: pops the newest item.
    pub fn pop_back(&self) -> Option<T> {
        self.items.lock().expect("steal queue poisoned").pop_back()
    }

    /// Owner, breadth-first: pops the oldest item.
    pub fn pop_front(&self) -> Option<T> {
        self.items.lock().expect("steal queue poisoned").pop_front()
    }

    /// Thief: takes the oldest item.
    pub fn steal(&self) -> Option<T> {
        self.items.lock().expect("steal queue poisoned").pop_front()
    }

    /// Number of queued items (racy under concurrency — a hint only).
    pub fn len(&self) -> usize {
        self.items.lock().expect("steal queue poisoned").len()
    }

    /// Whether the deque is empty (racy under concurrency — a hint only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn steal_queue_orders_owner_and_thief_ends() {
        let q = StealQueue::new();
        assert!(q.is_empty());
        q.push(1);
        q.push(2);
        q.push(3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop_back(), Some(3), "owner DFS pops newest");
        assert_eq!(q.steal(), Some(1), "thief takes oldest");
        assert_eq!(q.pop_front(), Some(2), "owner BFS pops oldest");
        assert_eq!(q.pop_back(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn steal_queue_is_safe_across_threads() {
        let q = Arc::new(StealQueue::new());
        for i in 0..1000 {
            q.push(i);
        }
        let taken = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let q = Arc::clone(&q);
                let taken = Arc::clone(&taken);
                s.spawn(move || {
                    while q.steal().is_some() {
                        taken.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(taken.load(Ordering::Relaxed), 1000, "every item taken once");
    }
}
