//! Demand-engine configuration.

/// Order in which a scheduler worker drains its own deque
/// (see [`crate::sched`]).
///
/// Depth-first (the default) pops the most recently scheduled frame —
/// the sequential engine's natural order, which keeps a worker inside
/// one deduction subtree and its caches hot. Breadth-first pops the
/// oldest frame, fanning out across the goal graph sooner. Answers are
/// bit-identical under either policy (and any worker count); only the
/// discovery order — and thus steal/park behavior — changes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SchedPolicy {
    /// Pop newest first (LIFO own-deque order).
    #[default]
    Dfs,
    /// Pop oldest first (FIFO own-deque order).
    Bfs,
}

impl SchedPolicy {
    /// The CLI / config-file spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            SchedPolicy::Dfs => "dfs",
            SchedPolicy::Bfs => "bfs",
        }
    }
}

impl std::str::FromStr for SchedPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "dfs" => Ok(SchedPolicy::Dfs),
            "bfs" => Ok(SchedPolicy::Bfs),
            other => Err(format!("unknown scheduler policy '{other}' (want dfs|bfs)")),
        }
    }
}

/// Configuration for a [`crate::DemandEngine`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DemandConfig {
    /// Per-query work budget (rule firings); `None` = unlimited.
    pub budget: Option<u64>,
    /// Memoize subgoal results across queries (the paper's caching; on by
    /// default). When off, every query starts from scratch — the ablation
    /// baseline for the caching experiment. Also gates restores: a
    /// no-caching engine stages nothing
    /// ([`crate::DemandEngine::warm_start`]).
    pub caching: bool,
    /// Merge the goals of discovered copy cycles into one representative
    /// (the paper's cycle-collapsing rule; on by default). Answers are
    /// identical either way — this is purely a work/memory optimization.
    pub collapse_cycles: bool,
    /// Number of newly discovered copy edges between SCC passes. Lower
    /// values collapse cycles sooner at the cost of more frequent passes.
    pub collapse_threshold: u32,
    /// Record structured engine events into the deduction flight recorder
    /// (on by default — the ring is bounded and rule firings are sampled,
    /// so the cost is a few percent at worst; see `docs/OBSERVABILITY.md`).
    /// Recording never feeds back into deduction, so answers are
    /// bit-identical either way.
    pub flight: bool,
    /// Flight-recorder ring capacity in events (rounded up to a power of
    /// two, minimum 8).
    pub flight_capacity: usize,
    /// Flight-recorder fire-sampling stride: every `N`-th rule firing is
    /// recorded (structural events are always recorded; clamped to ≥ 1).
    pub flight_sample: u32,
    /// Worker threads for a single query. `1` (the default) runs the
    /// classic sequential drain; `> 1` dispatches eligible queries to the
    /// frame scheduler ([`crate::sched`]) with this many workers. Queries
    /// with a budget always run sequentially.
    pub workers: usize,
    /// Own-deque drain order for scheduler workers (ignored when
    /// `workers == 1`).
    pub sched_policy: SchedPolicy,
}

impl Default for DemandConfig {
    fn default() -> Self {
        DemandConfig {
            budget: None,
            caching: true,
            collapse_cycles: true,
            collapse_threshold: 32,
            flight: true,
            flight_capacity: 8192,
            flight_sample: 64,
            workers: 1,
            sched_policy: SchedPolicy::default(),
        }
    }
}

impl DemandConfig {
    /// Unlimited budget, caching on.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the per-query budget.
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Disables cross-query memoization.
    pub fn without_caching(mut self) -> Self {
        self.caching = false;
        self
    }

    /// Disables online cycle collapsing (the ablation baseline for the
    /// T6 experiment).
    pub fn without_cycle_collapsing(mut self) -> Self {
        self.collapse_cycles = false;
        self
    }

    /// Sets the copy-edge count between SCC passes (clamped to ≥ 1).
    pub fn with_collapse_threshold(mut self, threshold: u32) -> Self {
        self.collapse_threshold = threshold.max(1);
        self
    }

    /// Disables the deduction flight recorder (the overhead-measurement
    /// baseline for the T9 experiment).
    pub fn without_flight_recorder(mut self) -> Self {
        self.flight = false;
        self
    }

    /// Sets the flight-recorder ring capacity and fire-sampling stride.
    pub fn with_flight(mut self, capacity: usize, sample: u32) -> Self {
        self.flight = true;
        self.flight_capacity = capacity;
        self.flight_sample = sample;
        self
    }

    /// Sets the per-query worker count (clamped to ≥ 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the scheduler's own-deque drain order.
    pub fn with_sched_policy(mut self, policy: SchedPolicy) -> Self {
        self.sched_policy = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods() {
        let c = DemandConfig::new().with_budget(100).without_caching();
        assert_eq!(c.budget, Some(100));
        assert!(!c.caching);
        let d = DemandConfig::default();
        assert_eq!(d.budget, None);
        assert!(d.caching);
        assert!(d.collapse_cycles, "collapsing defaults to on");
    }

    #[test]
    fn collapse_builders() {
        let c = DemandConfig::new().without_cycle_collapsing();
        assert!(!c.collapse_cycles);
        let t = DemandConfig::new().with_collapse_threshold(0);
        assert_eq!(t.collapse_threshold, 1, "threshold clamps to 1");
    }

    #[test]
    fn sched_builders() {
        let d = DemandConfig::default();
        assert_eq!(d.workers, 1, "sequential by default");
        assert_eq!(d.sched_policy, SchedPolicy::Dfs);
        let c = DemandConfig::new()
            .with_workers(0)
            .with_sched_policy(SchedPolicy::Bfs);
        assert_eq!(c.workers, 1, "workers clamp to 1");
        assert_eq!(c.sched_policy, SchedPolicy::Bfs);
        assert_eq!("dfs".parse::<SchedPolicy>().unwrap(), SchedPolicy::Dfs);
        assert_eq!("bfs".parse::<SchedPolicy>().unwrap(), SchedPolicy::Bfs);
        assert!("steepest".parse::<SchedPolicy>().is_err());
        assert_eq!(SchedPolicy::Bfs.as_str(), "bfs");
    }

    #[test]
    fn flight_builders() {
        let d = DemandConfig::default();
        assert!(d.flight, "flight recorder defaults to on");
        let off = DemandConfig::new().without_flight_recorder();
        assert!(!off.flight);
        let sized = DemandConfig::new().with_flight(1024, 16);
        assert!(sized.flight);
        assert_eq!(sized.flight_capacity, 1024);
        assert_eq!(sized.flight_sample, 16);
    }
}
