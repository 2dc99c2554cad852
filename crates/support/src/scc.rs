//! Iterative Tarjan strongly-connected components.
//!
//! Used by the exhaustive solver's periodic cycle-collapsing pass and by the
//! workload generator's structural statistics. The implementation is fully
//! iterative so deep copy-chains in generated programs cannot overflow the
//! call stack.

/// The SCC decomposition of a directed graph over `0..n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SccResult {
    /// `component[v]` is the SCC id of node `v`. Component ids are assigned
    /// in reverse topological order of the condensation (a node's component
    /// id is `>=` those of components it can reach).
    pub component: Vec<u32>,
    /// Total number of components.
    pub count: u32,
}

impl SccResult {
    /// Returns the size of each component, indexed by component id.
    pub fn component_sizes(&self) -> Vec<u32> {
        let mut sizes = vec![0u32; self.count as usize];
        for &c in &self.component {
            sizes[c as usize] += 1;
        }
        sizes
    }

    /// Number of components with more than one node (true cycles).
    pub fn nontrivial_count(&self) -> usize {
        self.component_sizes().iter().filter(|&&s| s > 1).count()
    }
}

/// Computes strongly-connected components of the graph with `n` nodes whose
/// successors are produced by `successors(v, out)`, which appends them to
/// `out`. The buffer is shared by the whole DFS stack, so `out` may already
/// hold other nodes' successors: push, never clear or reorder.
///
/// # Examples
///
/// ```
/// use ddpa_support::scc::tarjan;
///
/// // 0 -> 1 -> 2 -> 0 (cycle), 3 isolated
/// let edges = vec![vec![1], vec![2], vec![0], vec![]];
/// let scc = tarjan(4, |v, out| out.extend(&edges[v as usize]));
/// assert_eq!(scc.count, 2);
/// assert_eq!(scc.component[0], scc.component[1]);
/// assert_eq!(scc.component[1], scc.component[2]);
/// assert_ne!(scc.component[0], scc.component[3]);
/// ```
pub fn tarjan(n: usize, mut successors: impl FnMut(u32, &mut Vec<u32>)) -> SccResult {
    const UNVISITED: u32 = u32::MAX;

    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut component = vec![UNVISITED; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut count = 0u32;

    // Explicit DFS frame. Every frame's successors live in one shared
    // buffer: the top frame owns `succs[start..]` and has consumed up to
    // `pos`. A child's range sits above its parent's, so popping a frame
    // truncates the buffer back to its `start`.
    struct Frame {
        node: u32,
        start: usize,
        pos: usize,
    }

    let mut frames: Vec<Frame> = Vec::new();
    let mut succs: Vec<u32> = Vec::new();
    for start in 0..n as u32 {
        if index[start as usize] != UNVISITED {
            continue;
        }
        index[start as usize] = next_index;
        lowlink[start as usize] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start as usize] = true;
        successors(start, &mut succs);
        frames.push(Frame {
            node: start,
            start: 0,
            pos: 0,
        });

        while let Some(frame) = frames.last_mut() {
            if frame.pos < succs.len() {
                let w = succs[frame.pos];
                frame.pos += 1;
                let wi = w as usize;
                if index[wi] == UNVISITED {
                    index[wi] = next_index;
                    lowlink[wi] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[wi] = true;
                    let child = succs.len();
                    successors(w, &mut succs);
                    frames.push(Frame {
                        node: w,
                        start: child,
                        pos: child,
                    });
                } else if on_stack[wi] {
                    let v = frame.node as usize;
                    lowlink[v] = lowlink[v].min(index[wi]);
                }
            } else {
                let v = frame.node;
                let vi = v as usize;
                if lowlink[vi] == index[vi] {
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        component[w as usize] = count;
                        if w == v {
                            break;
                        }
                    }
                    count += 1;
                }
                succs.truncate(frame.start);
                frames.pop();
                if let Some(parent) = frames.last() {
                    let p = parent.node as usize;
                    lowlink[p] = lowlink[p].min(lowlink[vi]);
                }
            }
        }
    }

    SccResult { component, count }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scc_of(edges: &[Vec<u32>]) -> SccResult {
        tarjan(edges.len(), |v, out| out.extend(&edges[v as usize]))
    }

    #[test]
    fn empty_graph() {
        let r = scc_of(&[]);
        assert_eq!(r.count, 0);
    }

    #[test]
    fn dag_has_singleton_components() {
        let r = scc_of(&[vec![1, 2], vec![2], vec![]]);
        assert_eq!(r.count, 3);
        assert_eq!(r.nontrivial_count(), 0);
        // Reverse topological: node 2 (sink) finishes first.
        assert!(r.component[2] < r.component[1]);
        assert!(r.component[1] < r.component[0]);
    }

    #[test]
    fn self_loop_is_singleton_component() {
        let r = scc_of(&[vec![0]]);
        assert_eq!(r.count, 1);
        // A self loop is a size-1 component (not "nontrivial" by node count).
        assert_eq!(r.nontrivial_count(), 0);
    }

    #[test]
    fn two_cycles_bridge() {
        // 0<->1 -> 2<->3
        let r = scc_of(&[vec![1], vec![0, 2], vec![3], vec![2]]);
        assert_eq!(r.count, 2);
        assert_eq!(r.component[0], r.component[1]);
        assert_eq!(r.component[2], r.component[3]);
        assert_ne!(r.component[0], r.component[2]);
        assert_eq!(r.nontrivial_count(), 2);
        assert_eq!(r.component_sizes(), vec![2, 2]);
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        let n = 200_000;
        let edges: Vec<Vec<u32>> = (0..n)
            .map(|v| {
                if v + 1 < n {
                    vec![v as u32 + 1]
                } else {
                    vec![]
                }
            })
            .collect();
        let r = scc_of(&edges);
        assert_eq!(r.count, n as u32);
    }

    #[test]
    fn big_cycle_is_one_component() {
        let n = 10_000u32;
        let edges: Vec<Vec<u32>> = (0..n).map(|v| vec![(v + 1) % n]).collect();
        let r = scc_of(&edges);
        assert_eq!(r.count, 1);
        assert_eq!(r.component_sizes(), vec![n]);
    }
}
