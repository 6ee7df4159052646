//! Wall-clock and iteration budgets for solver invocations.
//!
//! The evaluation pipeline shards thousands of independent solves across
//! workers; one pathological netlist must not stall a worker forever. A
//! [`SolverBudget`] bounds a single analysis invocation by wall-clock
//! deadline, by total Newton iterations, or both. Budgets are checked at
//! coarse, cheap boundaries — between recovery-ladder rungs in the DC
//! ladder and between time steps in the transient loop — so an exhausted
//! budget surfaces as [`SolverBudgetExceeded`] within one rung or step,
//! never mid-iteration.
//!
//! [`SolverBudgetExceeded`]: crate::SpiceError::SolverBudgetExceeded

use std::time::{Duration, Instant};

/// A bound on how much work a single solver invocation may perform.
///
/// The default budget is unlimited. Budgets are `Copy` and cheap to check;
/// an exceeded budget is reported as
/// [`SpiceError::SolverBudgetExceeded`](crate::SpiceError::SolverBudgetExceeded)
/// carrying the work done so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverBudget {
    deadline: Option<Instant>,
    max_newton_iterations: Option<usize>,
}

impl SolverBudget {
    /// A budget with no bounds (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Bounds the invocation by an absolute wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Bounds the invocation by a wall-clock timeout from now. A timeout
    /// too far out for an [`Instant`] to represent sets no deadline.
    #[must_use]
    pub fn with_deadline_in(mut self, timeout: Duration) -> Self {
        self.deadline = Instant::now().checked_add(timeout);
        self
    }

    /// Bounds the invocation by a total Newton-iteration count across all
    /// rungs/steps. Clamped to at least 1.
    #[must_use]
    pub fn with_max_newton_iterations(mut self, iterations: usize) -> Self {
        self.max_newton_iterations = Some(iterations.max(1));
        self
    }

    /// Whether this budget imposes no bounds at all.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_newton_iterations.is_none()
    }

    /// Whether the budget is exhausted after `iterations_spent` Newton
    /// iterations. The wall clock is polled here, so call this only at
    /// coarse boundaries (ladder rungs, time steps).
    pub fn exhausted(&self, iterations_spent: usize) -> bool {
        if let Some(limit) = self.max_newton_iterations {
            if iterations_spent >= limit {
                return true;
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_is_never_exhausted() {
        let b = SolverBudget::unlimited();
        assert!(b.is_unlimited());
        assert!(!b.exhausted(0));
        assert!(!b.exhausted(usize::MAX));
    }

    #[test]
    fn iteration_budget_trips_at_the_limit() {
        let b = SolverBudget::unlimited().with_max_newton_iterations(10);
        assert!(!b.is_unlimited());
        assert!(!b.exhausted(9));
        assert!(b.exhausted(10));
        assert!(b.exhausted(11));
        // Clamped to at least one iteration.
        assert!(!SolverBudget::unlimited()
            .with_max_newton_iterations(0)
            .exhausted(0));
    }

    #[test]
    fn past_deadline_is_exhausted_regardless_of_iterations() {
        let b = SolverBudget::unlimited().with_deadline(Instant::now());
        assert!(b.exhausted(0));
        let far = SolverBudget::unlimited().with_deadline_in(Duration::from_secs(60));
        assert!(!far.exhausted(0));
        // A timeout past the clock's range is no bound, not a panic.
        assert!(SolverBudget::unlimited()
            .with_deadline_in(Duration::MAX)
            .is_unlimited());
    }
}
