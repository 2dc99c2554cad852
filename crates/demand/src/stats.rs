//! Cumulative engine statistics.
//!
//! [`EngineStats`] is a point-in-time snapshot of the engine's counters,
//! which live in a [`ddpa_obs::Registry`] (see [`crate::DemandEngine::obs`]).
//! The struct keeps its original field-access API so existing callers and
//! tests work unchanged.

/// Counters accumulated by a [`crate::DemandEngine`] across queries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Queries issued.
    pub queries: u64,
    /// Queries fully resolved within budget.
    pub complete_queries: u64,
    /// Queries answered entirely from the memo table (zero work).
    pub cache_hits: u64,
    /// Total rule firings.
    pub fires: u64,
    /// Subgoals activated.
    pub goals_activated: u64,
    /// Total work units charged (fires + goal initializations).
    pub work: u64,
    /// SCC passes run over the discovered copy graph.
    pub cycle_runs: u64,
    /// Copy cycles collapsed into a representative goal.
    pub cycles_collapsed: u64,
    /// Goals merged away into a representative (excludes the
    /// representatives themselves).
    pub merged_goals: u64,
    /// Activations answered by an entry a restore staged
    /// ([`crate::DemandEngine::warm_start`]), each one a whole subtree of
    /// rule firings saved.
    pub share_hits: u64,
    /// Activations, while entries were staged, that found none for their
    /// goal.
    pub share_misses: u64,
    /// Events recorded into the deduction flight recorder
    /// (see [`crate::DemandEngine::flight_recorder`]).
    pub flight_events: u64,
    /// Scheduler frames parked awaiting new facts (parallel queries).
    pub sched_parked: u64,
    /// Scheduler steps of a previously stepped frame (parallel queries).
    pub sched_resumed: u64,
    /// Frames stolen between scheduler workers (parallel queries).
    pub sched_steals: u64,
    /// Parked frames rescheduled by new facts/watchers (parallel queries).
    pub sched_wakeups: u64,
}

impl EngineStats {
    /// Fraction of queries fully resolved, or `None` when no queries have
    /// been run — callers must not mistake "no data" for "all resolved".
    pub fn resolution_rate(&self) -> Option<f64> {
        if self.queries == 0 {
            None
        } else {
            Some(self.complete_queries as f64 / self.queries as f64)
        }
    }

    /// The fieldwise difference `self − before`, saturating at zero.
    ///
    /// Counters are monotone, so with snapshots taken around a request
    /// this is exactly the work that request caused (plus any concurrent
    /// engine activity sharing the registry). Saturation guards against
    /// snapshots taken out of order.
    pub fn delta_since(&self, before: &EngineStats) -> EngineStats {
        EngineStats {
            queries: self.queries.saturating_sub(before.queries),
            complete_queries: self
                .complete_queries
                .saturating_sub(before.complete_queries),
            cache_hits: self.cache_hits.saturating_sub(before.cache_hits),
            fires: self.fires.saturating_sub(before.fires),
            goals_activated: self.goals_activated.saturating_sub(before.goals_activated),
            work: self.work.saturating_sub(before.work),
            cycle_runs: self.cycle_runs.saturating_sub(before.cycle_runs),
            cycles_collapsed: self
                .cycles_collapsed
                .saturating_sub(before.cycles_collapsed),
            merged_goals: self.merged_goals.saturating_sub(before.merged_goals),
            share_hits: self.share_hits.saturating_sub(before.share_hits),
            share_misses: self.share_misses.saturating_sub(before.share_misses),
            flight_events: self.flight_events.saturating_sub(before.flight_events),
            sched_parked: self.sched_parked.saturating_sub(before.sched_parked),
            sched_resumed: self.sched_resumed.saturating_sub(before.sched_resumed),
            sched_steals: self.sched_steals.saturating_sub(before.sched_steals),
            sched_wakeups: self.sched_wakeups.saturating_sub(before.sched_wakeups),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_rate_distinguishes_no_data() {
        assert_eq!(EngineStats::default().resolution_rate(), None);
        let s = EngineStats {
            queries: 4,
            complete_queries: 3,
            ..Default::default()
        };
        let rate = s.resolution_rate().expect("has queries");
        assert!((rate - 0.75).abs() < 1e-12);
    }

    #[test]
    fn delta_since_subtracts_fieldwise_and_saturates() {
        let before = EngineStats {
            queries: 2,
            fires: 100,
            work: 150,
            share_hits: 5,
            ..Default::default()
        };
        let after = EngineStats {
            queries: 3,
            fires: 140,
            work: 210,
            share_hits: 5,
            ..Default::default()
        };
        let d = after.delta_since(&before);
        assert_eq!(d.queries, 1);
        assert_eq!(d.fires, 40);
        assert_eq!(d.work, 60);
        assert_eq!(d.share_hits, 0);
        // Out-of-order snapshots saturate to zero rather than wrapping.
        let backwards = before.delta_since(&after);
        assert_eq!(backwards.fires, 0);
        assert_eq!(backwards.queries, 0);
    }
}
