//! Dense linear solver for the MNA system.
//!
//! Circuits in this workspace are bit cells and small peripheral blocks —
//! tens of unknowns — so dense Gaussian elimination with partial pivoting is
//! simpler and faster than a sparse factorisation would be at this scale.
//!
//! The stamped matrix `a` and right-hand side `b` are never mutated by
//! [`LinearSystem::solve`]: elimination runs on internal workspace copies,
//! so a failed solve leaves the system exactly as stamped. Solutions are
//! vetted twice — pivots are compared against the matrix's own
//! magnitude rather than an absolute floor, and the computed `x` is checked
//! against the pristine `A·x = b` residual — so a nearly-singular system
//! surfaces [`SpiceError::IllConditioned`] instead of finite garbage.

use crate::error::SpiceError;

/// Pivots smaller than this fraction of the matrix's largest entry mean the
/// elimination is dividing by numerical noise: with f64's ~1e-16 relative
/// rounding, a pivot 14 orders below the matrix scale carries no signal.
/// Exactly-zero pivots (structurally singular systems) keep reporting
/// [`SpiceError::SingularMatrix`].
const PIVOT_RTOL: f64 = 1e-14;

/// Post-solve bound on `‖b − A·x‖∞` relative to the solution scale
/// `max(‖b‖∞, ‖A‖max·‖x‖∞)`. Partial-pivoting LU is backward stable, so a
/// genuine solve of a well-conditioned system lands many orders below this;
/// only ill-conditioned garbage (or a NaN that leaked through) trips it.
const RESIDUAL_RTOL: f64 = 1e-6;

/// A dense square matrix stored row-major, paired with a right-hand side,
/// representing `A·x = b`.
#[derive(Clone, Debug)]
pub(crate) struct LinearSystem {
    n: usize,
    a: Vec<f64>,
    b: Vec<f64>,
    /// Elimination workspace: `a` is copied here each solve so the stamped
    /// matrix survives the factorisation untouched.
    lu: Vec<f64>,
    /// Elimination workspace for `b`.
    rhs: Vec<f64>,
    /// Solution vector, reused across solves (no per-call allocation).
    x: Vec<f64>,
}

impl LinearSystem {
    /// Creates an all-zero `n × n` system.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            a: vec![0.0; n * n],
            b: vec![0.0; n],
            lu: vec![0.0; n * n],
            rhs: vec![0.0; n],
            x: vec![0.0; n],
        }
    }

    /// Resets all stamped entries to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.a.fill(0.0);
        self.b.fill(0.0);
    }

    /// Adds `v` to `A[row, col]`.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, v: f64) {
        self.a[row * self.n + col] += v;
    }

    /// Adds `v` to `b[row]`.
    #[inline]
    pub fn add_rhs(&mut self, row: usize, v: f64) {
        self.b[row] += v;
    }

    /// Solves `A·x = b`, returning the solution slice. The stamped `a`/`b`
    /// are left untouched (elimination works on internal copies), even
    /// when the solve fails.
    ///
    /// # Errors
    ///
    /// [`SpiceError::SingularMatrix`] when a pivot column is exactly zero
    /// (floating node, voltage-source loop), and
    /// [`SpiceError::IllConditioned`] when the best pivot is vanishingly
    /// small relative to the matrix's magnitude or the computed solution
    /// fails the `A·x ≈ b` residual check.
    pub fn solve(&mut self) -> Result<&[f64], SpiceError> {
        let n = self.n;
        // Copy the stamped system into the elimination workspace, tracking
        // the largest matrix entry for the relative pivot threshold.
        let mut a_max = 0.0_f64;
        for (dst, &src) in self.lu.iter_mut().zip(self.a.iter()) {
            *dst = src;
            let mag = src.abs();
            if mag > a_max {
                a_max = mag;
            }
        }
        self.rhs.copy_from_slice(&self.b);
        let a = &mut self.lu;
        let b = &mut self.rhs;

        for k in 0..n {
            // Partial pivoting.
            let mut pivot_row = k;
            let mut pivot_mag = a[k * n + k].abs();
            for r in (k + 1)..n {
                let mag = a[r * n + k].abs();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = r;
                }
            }
            if pivot_mag <= 0.0 {
                return Err(SpiceError::SingularMatrix { row: k });
            }
            // `a_max >= pivot_mag > 0` here, so the guard never changes
            // which systems are rejected — it only makes the positivity of
            // the divisor explicit.
            if a_max > 0.0 && pivot_mag < a_max * PIVOT_RTOL {
                return Err(SpiceError::IllConditioned {
                    row: k,
                    ratio: pivot_mag / a_max,
                });
            }
            if pivot_row != k {
                for c in 0..n {
                    a.swap(k * n + c, pivot_row * n + c);
                }
                b.swap(k, pivot_row);
            }

            let pivot = a[k * n + k];
            for r in (k + 1)..n {
                let factor = a[r * n + k] / pivot;
                if factor == 0.0 {
                    continue;
                }
                a[r * n + k] = 0.0;
                for c in (k + 1)..n {
                    a[r * n + c] -= factor * a[k * n + c];
                }
                b[r] -= factor * b[k];
            }
        }

        // Back substitution into the reused solution vector.
        for k in (0..n).rev() {
            let mut acc = b[k];
            for c in (k + 1)..n {
                acc -= a[k * n + c] * self.x[c];
            }
            self.x[k] = acc / a[k * n + k];
        }

        // Residual check against the *pristine* inputs: `r = b − A·x`. A
        // NaN residual is "sticky" in the running maximum — once a row
        // produces one, a later finite row must not mask it.
        let mut r_inf = 0.0_f64;
        let mut worst_row = 0;
        let mut b_inf = 0.0_f64;
        let mut x_inf = 0.0_f64;
        for i in 0..n {
            let mut acc = self.b[i];
            let row = &self.a[i * n..(i + 1) * n];
            for (c, &a_ic) in row.iter().enumerate() {
                acc -= a_ic * self.x[c];
            }
            let r_mag = acc.abs();
            if r_mag.is_nan() || (r_mag > r_inf && !r_inf.is_nan()) {
                r_inf = r_mag;
                worst_row = i;
            }
            let b_mag = self.b[i].abs();
            if b_mag > b_inf {
                b_inf = b_mag;
            }
            let x_mag = self.x[i].abs();
            if x_mag.is_nan() || (x_mag > x_inf && !x_inf.is_nan()) {
                x_inf = x_mag;
            }
        }
        let scale = b_inf.max(a_max * x_inf);
        if r_inf.is_nan() || r_inf > RESIDUAL_RTOL * scale {
            // A zero scale only reaches here with a non-finite residual
            // (an all-zero system has an exactly-zero residual), so the
            // honest ratio for that degenerate case is infinite.
            let ratio = if scale > 0.0 {
                r_inf / scale
            } else {
                f64::INFINITY
            };
            return Err(SpiceError::IllConditioned {
                row: worst_row,
                ratio,
            });
        }
        Ok(&self.x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppatc_units::approx_eq;
    use ppatc_units::rng::SplitMix64;

    #[test]
    fn solves_identity() {
        let mut sys = LinearSystem::new(3);
        for i in 0..3 {
            sys.add(i, i, 1.0);
            sys.add_rhs(i, (i + 1) as f64);
        }
        let x = sys.solve().expect("identity should solve");
        assert_eq!(x, &[1.0, 2.0, 3.0][..]);
    }

    #[test]
    fn solves_with_pivoting() {
        // Requires a row swap: leading zero pivot.
        let mut sys = LinearSystem::new(2);
        sys.add(0, 1, 2.0); // [0 2; 3 1] x = [4; 5]
        sys.add(1, 0, 3.0);
        sys.add(1, 1, 1.0);
        sys.add_rhs(0, 4.0);
        sys.add_rhs(1, 5.0);
        let x = sys.solve().expect("pivoted system should solve");
        assert!(approx_eq(x[0], 1.0, 1e-12));
        assert!(approx_eq(x[1], 2.0, 1e-12));
    }

    #[test]
    fn reports_singular() {
        let mut sys = LinearSystem::new(2);
        sys.add(0, 0, 1.0);
        sys.add(0, 1, 1.0);
        sys.add(1, 0, 2.0);
        sys.add(1, 1, 2.0);
        sys.add_rhs(0, 1.0);
        assert!(matches!(
            sys.solve(),
            Err(SpiceError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn nearly_singular_is_a_typed_error_not_garbage() {
        // Rows differ by 1e-15 — no pivot is exactly zero, so the old
        // absolute 1e-300 threshold accepted this and returned voltages
        // that were pure cancellation noise.
        let mut sys = LinearSystem::new(2);
        sys.add(0, 0, 1.0);
        sys.add(0, 1, 1.0);
        sys.add(1, 0, 1.0);
        sys.add(1, 1, 1.0 + 1e-15);
        sys.add_rhs(0, 1.0);
        sys.add_rhs(1, 2.0);
        match sys.solve() {
            Err(SpiceError::IllConditioned { ratio, .. }) => {
                assert!(ratio < PIVOT_RTOL, "pivot ratio should be tiny: {ratio:e}");
            }
            other => panic!("expected IllConditioned, got {other:?}"),
        }
    }

    #[test]
    fn wildly_mismatched_scales_are_rejected() {
        // A pico-ohm "wire" next to a kilo-ohm load: eliminating the huge
        // conductance leaves the load pivot buried below the matrix's own
        // rounding noise (relative pivot ~1e-15).
        let g_wire = 1e12;
        let g_load = 1e-3;
        let mut sys = LinearSystem::new(2);
        sys.add(0, 0, g_wire);
        sys.add(0, 1, -g_wire);
        sys.add(1, 0, -g_wire);
        sys.add(1, 1, g_wire + g_load);
        sys.add_rhs(0, 1.0);
        assert!(matches!(
            sys.solve(),
            Err(SpiceError::IllConditioned { .. })
        ));
    }

    #[test]
    fn failed_solve_leaves_the_stamped_system_intact() {
        // A singular matrix used to early-return mid-elimination with `a`
        // and `b` half-mutated; the stamped entries must now survive it.
        let mut sys = LinearSystem::new(2);
        sys.add(0, 0, 1.0);
        sys.add(0, 1, 1.0);
        sys.add(1, 0, 2.0);
        sys.add(1, 1, 2.0);
        sys.add_rhs(0, 1.0);
        sys.add_rhs(1, 3.0);
        let before_a = sys.a.clone();
        let before_b = sys.b.clone();
        assert!(sys.solve().is_err());
        assert_eq!(sys.a, before_a, "matrix must not be half-eliminated");
        assert_eq!(sys.b, before_b, "rhs must not be half-eliminated");
        // The same holds after a successful solve.
        sys.clear();
        sys.add(0, 0, 2.0);
        sys.add(1, 1, 4.0);
        sys.add_rhs(0, 1.0);
        sys.add_rhs(1, 2.0);
        let before_a = sys.a.clone();
        let before_b = sys.b.clone();
        assert!(sys.solve().is_ok());
        assert_eq!(sys.a, before_a);
        assert_eq!(sys.b, before_b);
    }

    #[test]
    fn random_well_conditioned_systems_reconstruct_their_rhs() {
        // Property: for diagonally dominant random systems, the solution
        // must reproduce `b` through the *original* `A` within a tight
        // residual bound (the solver's own check uses a much looser one).
        for trial in 0..200_u64 {
            let rng = &mut SplitMix64::stream(0x50_1E_CE, trial);
            let n = 1 + (rng.next_f64() * 8.0) as usize;
            let mut sys = LinearSystem::new(n);
            let mut dense = vec![0.0; n * n];
            let mut rhs = vec![0.0; n];
            for r in 0..n {
                let mut off_diag = 0.0;
                for c in 0..n {
                    if c != r {
                        let v = 2.0 * rng.next_f64() - 1.0;
                        dense[r * n + c] = v;
                        off_diag += v.abs();
                    }
                }
                // Strict diagonal dominance keeps the system well away
                // from singularity.
                dense[r * n + r] = off_diag + 1.0 + rng.next_f64();
                rhs[r] = 10.0 * (2.0 * rng.next_f64() - 1.0);
                for c in 0..n {
                    sys.add(r, c, dense[r * n + c]);
                }
                sys.add_rhs(r, rhs[r]);
            }
            let x = sys.solve().expect("dominant system should solve");
            for r in 0..n {
                let mut acc = 0.0;
                for c in 0..n {
                    acc += dense[r * n + c] * x[c];
                }
                assert!(
                    (acc - rhs[r]).abs() <= 1e-9 * rhs[r].abs().max(1.0),
                    "trial {trial} row {r}: A·x = {acc}, b = {}",
                    rhs[r]
                );
            }
        }
    }

    #[test]
    fn clear_resets_but_keeps_size() {
        let mut sys = LinearSystem::new(2);
        sys.add(0, 0, 5.0);
        sys.add_rhs(0, 5.0);
        sys.clear();
        sys.add(0, 0, 1.0);
        sys.add(1, 1, 1.0);
        sys.add_rhs(0, 7.0);
        let x = sys.solve().expect("cleared system should solve");
        assert!(approx_eq(x[0], 7.0, 1e-12));
        assert!(approx_eq(x[1], 0.0, 1e-12));
    }
}
