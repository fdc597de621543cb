//! Error type for LP construction and solving.

use std::fmt;

/// Errors produced while building or solving a linear program.
#[derive(Debug, Clone, PartialEq)]
pub enum SimplexError {
    /// The LP has no feasible solution (Phase 1 terminated with a positive artificial sum).
    Infeasible,
    /// The objective is unbounded below (for minimisation) on the feasible region.
    Unbounded,
    /// The iteration limit was reached before convergence.
    IterationLimit {
        /// The limit that was hit.
        limit: usize,
    },
    /// A constraint or objective referenced a variable that does not belong to this program.
    UnknownVariable {
        /// Index of the offending variable.
        index: usize,
        /// Number of variables in the program.
        num_variables: usize,
    },
    /// A coefficient, bound, or right-hand side was NaN or infinite.
    NonFiniteValue {
        /// Human-readable location of the offending value.
        context: &'static str,
    },
    /// The model has no variables.
    EmptyModel,
    /// The solver met a numerically singular or inconsistent state (e.g. a basis
    /// factorisation found no acceptable pivot) and could not recover.  The
    /// revised simplex only reports this after exhausting its basis-repair
    /// budget (two consecutive breakdowns with no successful update between):
    /// every breakdown first triggers a fresh LU factorisation, falling back to
    /// the last good basis.  Usually indicates an extremely ill-conditioned
    /// model.
    NumericalBreakdown {
        /// Human-readable location of the breakdown.
        context: &'static str,
        /// How many basis repairs were attempted before giving up (always zero
        /// for the dense reference, which has no repair path).
        repairs: usize,
    },
    /// Variable bounds are contradictory (lower bound greater than upper bound).
    InconsistentBounds {
        /// Index of the offending variable.
        index: usize,
        /// Lower bound.
        lower: f64,
        /// Upper bound.
        upper: f64,
    },
}

impl fmt::Display for SimplexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimplexError::Infeasible => write!(f, "linear program is infeasible"),
            SimplexError::Unbounded => write!(f, "linear program is unbounded"),
            SimplexError::IterationLimit { limit } => {
                write!(f, "simplex iteration limit of {limit} reached")
            }
            SimplexError::UnknownVariable {
                index,
                num_variables,
            } => write!(
                f,
                "variable index {index} out of range (program has {num_variables} variables)"
            ),
            SimplexError::NonFiniteValue { context } => {
                write!(f, "non-finite value encountered in {context}")
            }
            SimplexError::EmptyModel => write!(f, "linear program has no variables"),
            SimplexError::NumericalBreakdown { context, repairs } => {
                write!(f, "numerical breakdown in {context}")?;
                if *repairs > 0 {
                    write!(f, " (after {repairs} basis repair attempts)")?;
                }
                Ok(())
            }
            SimplexError::InconsistentBounds {
                index,
                lower,
                upper,
            } => write!(
                f,
                "variable {index} has inconsistent bounds [{lower}, {upper}]"
            ),
        }
    }
}

impl std::error::Error for SimplexError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(SimplexError::Infeasible.to_string().contains("infeasible"));
        assert!(SimplexError::Unbounded.to_string().contains("unbounded"));
        assert!(SimplexError::IterationLimit { limit: 7 }
            .to_string()
            .contains('7'));
        assert!(SimplexError::UnknownVariable {
            index: 3,
            num_variables: 2
        }
        .to_string()
        .contains("3"));
        assert!(SimplexError::NonFiniteValue {
            context: "objective"
        }
        .to_string()
        .contains("objective"));
        assert!(SimplexError::EmptyModel
            .to_string()
            .contains("no variables"));
        assert!(SimplexError::NumericalBreakdown {
            context: "refactorisation",
            repairs: 0
        }
        .to_string()
        .contains("refactorisation"));
        let repaired = SimplexError::NumericalBreakdown {
            context: "basis update",
            repairs: 2,
        }
        .to_string();
        assert!(repaired.contains("2 basis repair"), "{repaired}");
        assert!(SimplexError::InconsistentBounds {
            index: 1,
            lower: 2.0,
            upper: 1.0
        }
        .to_string()
        .contains("inconsistent"));
    }

    #[test]
    fn error_implements_std_error() {
        fn assert_error<E: std::error::Error>() {}
        assert_error::<SimplexError>();
    }
}
