//! Per-query work budgets.
//!
//! The unit of work is one *rule firing* — delivering one points-to /
//! pointed-by fact across one deduction-rule instance, the demand-driven
//! analogue of traversing one value-flow edge. Budgets bound a query's
//! latency in interactive settings; an exhausted query is reported
//! unresolved and the client falls back to a sound over-approximation.
//!
//! A budget may also carry a wall-clock deadline. The engine has no other
//! clock: the budget reads it once before the first charge and then once
//! every [`CLOCK_STRIDE`] charged units, and a charge after the deadline
//! fails like one over the limit.

use std::time::Instant;

/// Work units charged between two reads of a deadline's clock: big
/// enough that reading the clock is noise, small enough that a deadline
/// is honoured within a few milliseconds of deduction.
pub const CLOCK_STRIDE: u64 = 8192;

/// A decrementing work budget.
///
/// # Examples
///
/// ```
/// use ddpa_demand::Budget;
///
/// let mut b = Budget::limited(2);
/// assert!(b.charge(1));
/// assert!(b.charge(1));
/// assert!(!b.charge(1));
/// assert!(b.exhausted());
/// assert_eq!(b.used(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct Budget {
    limit: Option<u64>,
    deadline: Option<Instant>,
    used: u64,
    /// `used` may grow to this without consulting the limit or the clock:
    /// the limit, or the next clock read when there is a deadline.
    check_at: u64,
    exhausted: bool,
    timed_out: bool,
}

impl Budget {
    /// An unlimited budget (still counts work).
    pub fn unlimited() -> Self {
        Budget::new(None)
    }

    /// A budget of `limit` work units.
    pub fn limited(limit: u64) -> Self {
        Budget::new(Some(limit))
    }

    /// Creates a budget from an optional limit.
    pub fn new(limit: Option<u64>) -> Self {
        Budget {
            limit,
            deadline: None,
            used: 0,
            check_at: limit.unwrap_or(u64::MAX),
            exhausted: false,
            timed_out: false,
        }
    }

    /// Adds a wall-clock deadline: once it has passed, charges fail. The
    /// clock is read at the first charge and after every
    /// [`CLOCK_STRIDE`] units, so an expired deadline admits no work.
    pub fn with_deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = deadline;
        if deadline.is_some() {
            self.check_at = 0;
        }
        self
    }

    /// Tries to consume `amount` units. Returns `false` (and marks the
    /// budget exhausted) if the limit would be exceeded or the deadline
    /// has passed.
    ///
    /// Overflowing the `u64` work counter is treated as exhaustion, never
    /// as wrap-around: a budget that has already counted near-`u64::MAX`
    /// work must not suddenly appear fresh.
    #[inline]
    pub fn charge(&mut self, amount: u64) -> bool {
        let Some(next) = self.used.checked_add(amount) else {
            self.exhausted = true;
            return false;
        };
        if next > self.check_at && !self.admits(next) {
            self.exhausted = true;
            return false;
        }
        self.used = next;
        true
    }

    /// The slow path of [`Budget::charge`]: whether the limit admits
    /// `next` and the deadline has not passed. Moves `check_at` to the
    /// next clock read.
    #[cold]
    fn admits(&mut self, next: u64) -> bool {
        if self.limit.is_some_and(|limit| next > limit) {
            return false;
        }
        let Some(deadline) = self.deadline else {
            return true;
        };
        if Instant::now() >= deadline {
            self.timed_out = true;
            return false;
        }
        let stride_end = (self.used / CLOCK_STRIDE + 1).saturating_mul(CLOCK_STRIDE);
        self.check_at = self.limit.map_or(stride_end, |limit| limit.min(stride_end));
        true
    }

    /// Work consumed so far.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Returns `true` once a charge has failed.
    pub fn exhausted(&self) -> bool {
        self.exhausted
    }

    /// Returns `true` once a charge has failed because the deadline had
    /// passed.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }

    /// The configured limit, if any.
    pub fn limit(&self) -> Option<u64> {
        self.limit
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        let mut b = Budget::unlimited();
        for _ in 0..10_000 {
            assert!(b.charge(1));
        }
        assert!(!b.exhausted());
        assert_eq!(b.used(), 10_000);
    }

    #[test]
    fn limited_stops_at_limit() {
        let mut b = Budget::limited(5);
        assert!(b.charge(3));
        assert!(b.charge(2));
        assert!(!b.charge(1));
        assert!(b.exhausted());
        assert_eq!(b.used(), 5);
    }

    #[test]
    fn over_charge_rejected_whole() {
        let mut b = Budget::limited(5);
        assert!(!b.charge(6));
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn new_from_option() {
        assert!(Budget::new(None).limit().is_none());
        assert_eq!(Budget::new(Some(7)).limit(), Some(7));
    }

    #[test]
    fn expired_deadline_admits_no_work() {
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let mut b = Budget::unlimited().with_deadline(Some(past));
        assert!(!b.charge(1));
        assert!(b.exhausted() && b.timed_out());
        assert_eq!(b.used(), 0);
        // A limit does not count as a timeout.
        let mut b = Budget::limited(1).with_deadline(None);
        assert!(b.charge(1));
        assert!(!b.charge(1));
        assert!(b.exhausted() && !b.timed_out());
    }

    #[test]
    fn deadline_is_read_once_per_stride() {
        let deadline = Instant::now() + std::time::Duration::from_millis(20);
        let mut b = Budget::limited(10 * CLOCK_STRIDE).with_deadline(Some(deadline));
        // The first charge reads the clock before the deadline.
        assert!(b.charge(1));
        while Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        // The rest of the stride is charged without reading the clock;
        // the first charge past it reads the clock and fails.
        for _ in 1..CLOCK_STRIDE {
            assert!(b.charge(1));
        }
        assert!(!b.charge(1));
        assert!(b.timed_out());
        assert_eq!(b.used(), CLOCK_STRIDE);
        // A far deadline lets the limit decide.
        let far = Instant::now() + std::time::Duration::from_secs(3600);
        let mut b = Budget::limited(3 * CLOCK_STRIDE + 5).with_deadline(Some(far));
        assert!(b.charge(3 * CLOCK_STRIDE + 5));
        assert!(!b.charge(1));
        assert!(b.exhausted() && !b.timed_out());
    }

    #[test]
    fn counter_overflow_is_exhaustion_not_wraparound() {
        // An unlimited budget near u64::MAX: the next large charge would
        // overflow the work counter. It must fail and mark exhaustion —
        // not wrap and report the budget fresh.
        let mut b = Budget::unlimited();
        assert!(b.charge(u64::MAX - 1));
        assert!(!b.charge(2));
        assert!(b.exhausted());
        assert_eq!(b.used(), u64::MAX - 1);
        // The last representable unit can still be charged exactly.
        let mut c = Budget::unlimited();
        assert!(c.charge(u64::MAX));
        assert_eq!(c.used(), u64::MAX);
        assert!(!c.charge(1));

        // A limited budget with the same near-MAX usage: the overflowing
        // comparison `used + amount > limit` must not wrap either.
        let mut d = Budget::limited(u64::MAX);
        assert!(d.charge(u64::MAX - 1));
        assert!(!d.charge(3));
        assert!(d.exhausted());
        assert_eq!(d.used(), u64::MAX - 1);
    }
}
