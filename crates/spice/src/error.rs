//! Simulator error type.

/// Error returned by circuit analyses.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum SpiceError {
    /// The MNA matrix was singular — usually a floating node or a loop of
    /// ideal voltage sources.
    SingularMatrix {
        /// Index of the pivot row where elimination failed.
        row: usize,
    },
    /// Newton iteration failed to converge within the iteration limit.
    NoConvergence {
        /// Analysis that failed (`"dc"` or `"transient"`).
        analysis: &'static str,
        /// Simulated time at which convergence failed (seconds; 0 for DC).
        time: f64,
        /// Worst node-voltage update in the final iteration, in volts.
        residual: f64,
    },
    /// The MNA matrix was numerically ill-conditioned: elimination met a
    /// pivot vanishingly small relative to the matrix's magnitude, or the
    /// computed solution failed the post-solve residual check. The
    /// "solution" would be finite garbage, so it is rejected instead.
    IllConditioned {
        /// Pivot row where conditioning collapsed (or the worst-residual
        /// row when the post-solve check tripped).
        row: usize,
        /// Offending ratio: pivot magnitude over the matrix max-magnitude,
        /// or residual over the solution scale. Dimensionless; smaller is
        /// worse for pivots, larger is worse for residuals.
        ratio: f64,
    },
    /// A transient was requested with a non-positive step or stop time.
    InvalidTimeAxis,
}

impl core::fmt::Display for SpiceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SpiceError::SingularMatrix { row } => {
                write!(f, "singular MNA matrix at pivot {row} (floating node or voltage-source loop?)")
            }
            SpiceError::NoConvergence {
                analysis,
                time,
                residual,
            } => write!(
                f,
                "{analysis} analysis failed to converge at t = {time:.3e} s (residual {residual:.3e} V)"
            ),
            SpiceError::IllConditioned { row, ratio } => {
                write!(
                    f,
                    "ill-conditioned MNA matrix at row {row} (ratio {ratio:.3e}); \
                     the computed voltages would be numerically meaningless"
                )
            }
            SpiceError::InvalidTimeAxis => {
                write!(f, "transient stop time and step must both be positive")
            }
        }
    }
}

impl std::error::Error for SpiceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SpiceError::NoConvergence {
            analysis: "dc",
            time: 0.0,
            residual: 0.5,
        };
        let msg = e.to_string();
        assert!(msg.contains("dc") && msg.contains("converge"));
    }

    #[test]
    fn ill_conditioned_display_reports_row_and_ratio() {
        let e = SpiceError::IllConditioned {
            row: 3,
            ratio: 1e-17,
        };
        let msg = e.to_string();
        assert!(
            msg.contains("ill-conditioned") && msg.contains('3'),
            "{msg}"
        );
    }
}
