//! The BASICDP linear program (Eqs. 3–6) and its property-constrained extensions.
//!
//! Variables are `ρ_{i,j} = Pr[output = i | input = j]`.  The LP minimises
//! `Σ_j w_j Σ_i penalty(i, j) · ρ_{i,j}` subject to
//!
//! * every column summing to one (Eq. 5) with non-negative entries (Eq. 4),
//! * the differential-privacy ratio constraints between adjacent inputs (Eq. 6),
//! * and any requested subset of the structural properties of Section IV-A,
//!   each of which is itself a set of linear (in)equalities (Theorem 2).
//!
//! The upper bound `ρ_{i,j} ≤ 1` of Eq. (4) is implied by non-negativity plus the
//! column-sum equality, so it is omitted to keep the LP smaller.

// The formulation indexes a 2-D grid of LP variables by (row, column) throughout;
// explicit index loops mirror the paper's double subscripts better than iterator
// chains would.
#![allow(clippy::needless_range_loop)]

use serde::{Deserialize, Serialize};

use cpm_simplex::{LinearProgram, Relation, SolveOptions, SolveStats, VariableId};

use crate::alpha::Alpha;
use crate::error::CoreError;
use crate::matrix::Mechanism;
use crate::objective::{Aggregator, Objective};
use crate::properties::{Property, PropertySet};

/// A constrained mechanism-design problem instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignProblem {
    /// Group size `n` (the mechanism is `(n+1) × (n+1)`).
    pub n: usize,
    /// Privacy parameter α of Definition 2.
    pub alpha: Alpha,
    /// The objective to minimise.
    pub objective: Objective,
    /// The structural properties to enforce on top of BASICDP.
    pub properties: PropertySet,
    /// Optional *output-side* DP constraint (the extension suggested in the paper's
    /// conclusion): bound the ratio of probabilities between neighbouring *outputs*
    /// within each column by `[β, 1/β]`.  `None` disables it (the paper's setting).
    #[serde(default)]
    pub output_dp: Option<Alpha>,
    /// Optional warm-start hint: the [`DesignSolution::optimal_basis`] of an
    /// **identically shaped** problem (same `n`, properties, objective family —
    /// only `alpha` may differ), used to seed a dual-simplex re-solve that
    /// skips Phase 1 and most of Phase 2.  A hint that does not fit (or is
    /// dual-infeasible under this problem's coefficients) silently falls back
    /// to the cold primal path — a warm start can never change the answer,
    /// only the pivot count.  Ignored when the caller's explicit
    /// [`SolveOptions::warm_basis`] is already set.
    #[serde(default)]
    pub warm_basis: Option<Vec<usize>>,
    /// Seed otherwise-cold solves from the closed-form **Geometric Mechanism
    /// crash basis** (on by default).  Theorem 3 makes GM the exact optimum of
    /// the unconstrained `L0` program, so the crash collapses that solve to a
    /// single factorisation; on constrained problems the GM basis is still
    /// dual-feasible whenever the objective is the one GM optimises, and the
    /// dual-simplex cleanup drives out the property violations instead of a
    /// full cold solve.  A crash seed that does not fit (other objectives,
    /// presolve reductions, degenerate tightness) is rejected by the solver's
    /// seed validation and the solve proceeds cold — the flag can change pivot
    /// counts, never answers.  Disable for solver benchmarking ablations.
    #[serde(default = "default_crash_seed")]
    pub crash_seed: bool,
}

fn default_crash_seed() -> bool {
    true
}

/// The result of solving a [`DesignProblem`].
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSolution {
    /// The optimal mechanism (column-renormalised to remove LP round-off).
    pub mechanism: Mechanism,
    /// The optimal objective value reported by the LP (unrescaled, Definition 3).
    pub objective_value: f64,
    /// Solver statistics (iteration counts, artificial variables, ...).
    pub solver_stats: SolveStats,
    /// The optimal standard-form basis of the LP solve, when the solver could
    /// report one — the seed for [`DesignProblem::warm_basis`] on a
    /// perturbed re-solve (an α sweep within one problem family).
    pub optimal_basis: Option<Vec<usize>>,
}

impl DesignProblem {
    /// A BASICDP-only problem (Section III) under the given objective.
    pub fn unconstrained(n: usize, alpha: Alpha, objective: Objective) -> Self {
        DesignProblem {
            n,
            alpha,
            objective,
            properties: PropertySet::empty(),
            output_dp: None,
            warm_basis: None,
            crash_seed: true,
        }
    }

    /// A fully-specified constrained problem (Section IV).
    pub fn constrained(
        n: usize,
        alpha: Alpha,
        objective: Objective,
        properties: PropertySet,
    ) -> Self {
        DesignProblem {
            n,
            alpha,
            objective,
            properties,
            output_dp: None,
            warm_basis: None,
            crash_seed: true,
        }
    }

    /// Additionally require the output-side DP constraint with parameter `beta`
    /// (Section VI's suggested extension): within every column, neighbouring outputs
    /// must have probabilities within a factor `[β, 1/β]` of each other.
    #[must_use]
    pub fn with_output_dp(mut self, beta: Alpha) -> Self {
        self.output_dp = Some(beta);
        self
    }

    /// Seed the solve from a neighbouring problem's
    /// [`DesignSolution::optimal_basis`] (see [`DesignProblem::warm_basis`]).
    #[must_use]
    pub fn with_warm_basis(mut self, basis: Option<Vec<usize>>) -> Self {
        self.warm_basis = basis;
        self
    }

    /// Enable or disable the closed-form crash seed for cold solves (see
    /// [`DesignProblem::crash_seed`]).
    #[must_use]
    pub fn with_crash_seed(mut self, crash_seed: bool) -> Self {
        self.crash_seed = crash_seed;
        self
    }

    /// Build the linear program and the `ρ` variable grid (`vars[i][j]`).
    ///
    /// Exposed so that callers (benches, tests) can inspect LP sizes; most users
    /// should call [`DesignProblem::solve`].
    pub fn build_lp(&self) -> Result<(LinearProgram, Vec<Vec<VariableId>>), CoreError> {
        if self.n == 0 {
            return Err(CoreError::InvalidGroupSize { value: self.n });
        }
        let n = self.n;
        let dim = n + 1;
        let weights = self.objective.prior.weights(n)?;
        let alpha = self.alpha.value();

        let mut lp = LinearProgram::minimize();
        // vars[i][j] = rho_{i,j}.
        let mut vars: Vec<Vec<VariableId>> = Vec::with_capacity(dim);
        for i in 0..dim {
            let mut row = Vec::with_capacity(dim);
            for j in 0..dim {
                row.push(lp.add_variable(format!("rho_{i}_{j}")));
            }
            vars.push(row);
        }

        // Objective (Eq. 3).
        match self.objective.aggregator {
            Aggregator::Sum => {
                for j in 0..dim {
                    for i in 0..dim {
                        let coefficient = weights[j] * self.objective.loss.penalty(i, j);
                        if coefficient != 0.0 {
                            lp.set_objective_coefficient(vars[i][j], coefficient);
                        }
                    }
                }
            }
            Aggregator::Max => {
                // Epigraph formulation: minimise t with t >= per-column loss.
                let t = lp.add_variable("t_max");
                lp.set_objective_coefficient(t, 1.0);
                for j in 0..dim {
                    let mut terms: Vec<(VariableId, f64)> = vec![(t, 1.0)];
                    for i in 0..dim {
                        let coefficient = self.objective.loss.penalty(i, j);
                        if coefficient != 0.0 {
                            terms.push((vars[i][j], -coefficient));
                        }
                    }
                    lp.add_constraint(terms, Relation::GreaterEq, 0.0);
                }
            }
        }

        // Column stochasticity (Eq. 5).  Non-negativity (Eq. 4) is the default
        // variable bound.  Rows are streamed straight into the LP's term arena —
        // no per-row `Vec` is materialised anywhere in this builder.
        for j in 0..dim {
            lp.add_constraint((0..dim).map(|i| (vars[i][j], 1.0)), Relation::Equal, 1.0);
        }

        // Differential privacy (Eq. 6): rho_{i,j} >= alpha * rho_{i,j+1} and vice versa.
        for i in 0..dim {
            for j in 0..n {
                lp.add_constraint(
                    [(vars[i][j], 1.0), (vars[i][j + 1], -alpha)],
                    Relation::GreaterEq,
                    0.0,
                );
                lp.add_constraint(
                    [(vars[i][j + 1], 1.0), (vars[i][j], -alpha)],
                    Relation::GreaterEq,
                    0.0,
                );
            }
        }

        // Structural properties (Section IV-A), each as linear constraints.
        for property in self.properties.iter() {
            add_property_constraints(&mut lp, &vars, n, property);
        }

        // Optional output-side DP (the paper's suggested extension): within each
        // column j, rho_{i,j} >= beta * rho_{i+1,j} and vice versa.
        if let Some(beta) = self.output_dp {
            let b = beta.value();
            for j in 0..dim {
                for i in 0..n {
                    lp.add_constraint(
                        [(vars[i][j], 1.0), (vars[i + 1][j], -b)],
                        Relation::GreaterEq,
                        0.0,
                    );
                    lp.add_constraint(
                        [(vars[i + 1][j], 1.0), (vars[i][j], -b)],
                        Relation::GreaterEq,
                        0.0,
                    );
                }
            }
        }

        Ok((lp, vars))
    }

    /// Solver options tuned for this problem instance:
    /// [`SolveOptions::tuned`] sized for the `(n+1)²`-variable LP (a pivot
    /// budget that never trips the generic iteration limit at n = 128 and
    /// beyond) with `LpForm::Auto`.
    ///
    /// `LpForm::Auto` routes the mechanism LPs through the **dual form** once
    /// they are large enough to care (≥ 512 rows, i.e. n ≥ 16 with weak
    /// honesty, and ≥ 1.5x more rows than columns, which every mechanism LP
    /// satisfies at ~2x): the dual basis is half the size and the
    /// nonnegative mechanism costs make phase 1 vanish.  Small or square
    /// programs keep the primal path; [`cpm_simplex::SolveStats::form`]
    /// reports which form actually ran.
    pub fn recommended_options(&self) -> SolveOptions {
        let dim = self.n + 1;
        SolveOptions::tuned(dim * dim)
    }

    /// Solve the design problem with recommended solver options (see
    /// [`DesignProblem::recommended_options`]).
    pub fn solve(&self) -> Result<DesignSolution, CoreError> {
        self.solve_with(&self.recommended_options())
    }

    /// Solve the design problem with explicit solver options.  The problem's
    /// own [`DesignProblem::warm_basis`] hint is applied unless the options
    /// already carry one.
    pub fn solve_with(&self, options: &SolveOptions) -> Result<DesignSolution, CoreError> {
        let (lp, vars) = self.build_lp()?;
        let seed = if options.warm_basis.is_some() {
            None
        } else if self.warm_basis.is_some() {
            self.warm_basis.clone()
        } else if self.crash_seed {
            self.geometric_crash_basis(&lp, &vars)
        } else {
            None
        };
        let solution = if let Some(seed) = seed {
            if options.warm_basis.is_none() && self.warm_basis.is_none() {
                cpm_obs::counter!("cpm_lp_crash_seeded_total").inc();
            }
            let mut seeded = options.clone();
            seeded.warm_basis = Some(seed);
            lp.solve_with(&seeded)?
        } else {
            lp.solve_with(options)?
        };
        let dim = self.n + 1;

        // Extract the matrix, clamping tiny negative round-off and renormalising each
        // column so the result is exactly column-stochastic.
        let mut entries = vec![0.0; dim * dim];
        for (i, row) in vars.iter().enumerate() {
            for (j, &var) in row.iter().enumerate() {
                entries[i * dim + j] = solution.value(var).max(0.0);
            }
        }
        for j in 0..dim {
            let total: f64 = (0..dim).map(|i| entries[i * dim + j]).sum();
            if (total - 1.0).abs() > 1e-4 {
                return Err(CoreError::DegenerateSolution {
                    reason: format!("column {j} sums to {total} after solving"),
                });
            }
            for i in 0..dim {
                entries[i * dim + j] /= total;
            }
        }
        let mechanism = Mechanism::from_row_major_unchecked(self.n, entries);
        mechanism.validate(1e-7)?;

        Ok(DesignSolution {
            mechanism,
            objective_value: solution.objective_value,
            solver_stats: solution.stats,
            optimal_basis: solution.optimal_basis,
        })
    }

    /// The closed-form crash seed for this problem: the active set implied by
    /// the Geometric Mechanism at this `(n, α)`, expressed as a standard-form
    /// basis via [`cpm_simplex::crash_basis`] (see
    /// [`DesignProblem::crash_seed`] for when it helps and how it can fail
    /// safely).
    fn geometric_crash_basis(
        &self,
        lp: &LinearProgram,
        vars: &[Vec<VariableId>],
    ) -> Option<Vec<usize>> {
        let gm = crate::mechanisms::GeometricMechanism::new(self.n, self.alpha).ok()?;
        let gm = gm.matrix();
        let dim = self.n + 1;
        let mut values = vec![0.0; lp.num_variables()];
        for i in 0..dim {
            for j in 0..dim {
                values[vars[i][j].index()] = gm.prob(i, j);
            }
        }
        // The epigraph variable of a `Max` aggregator sits at the largest
        // per-column loss of the conjectured mechanism.
        if let Aggregator::Max = self.objective.aggregator {
            let t = (0..dim)
                .map(|j| {
                    (0..dim)
                        .map(|i| self.objective.loss.penalty(i, j) * gm.prob(i, j))
                        .sum::<f64>()
                })
                .fold(0.0f64, f64::max);
            if let Some(value) = values.get_mut(dim * dim) {
                *value = t;
            }
        }
        cpm_simplex::crash_basis(lp, &values)
    }
}

/// Append the linear constraints encoding one structural property (Theorem 2).
fn add_property_constraints(
    lp: &mut LinearProgram,
    vars: &[Vec<VariableId>],
    n: usize,
    property: Property,
) {
    let dim = n + 1;
    match property {
        // RH (Eq. 7): rho_{i,i} >= rho_{i,j} for all j != i.
        Property::RowHonesty => {
            for i in 0..dim {
                for j in 0..dim {
                    if i != j {
                        lp.add_constraint(
                            [(vars[i][i], 1.0), (vars[i][j], -1.0)],
                            Relation::GreaterEq,
                            0.0,
                        );
                    }
                }
            }
        }
        // RM (Eq. 8): within row i, entries are non-increasing moving away from the
        // diagonal: rho_{i,j-1} <= rho_{i,j} for j <= i and rho_{i,j+1} <= rho_{i,j}
        // for j >= i.
        Property::RowMonotonicity => {
            for i in 0..dim {
                for j in 1..=i {
                    lp.add_constraint(
                        [(vars[i][j], 1.0), (vars[i][j - 1], -1.0)],
                        Relation::GreaterEq,
                        0.0,
                    );
                }
                for j in i..n {
                    lp.add_constraint(
                        [(vars[i][j], 1.0), (vars[i][j + 1], -1.0)],
                        Relation::GreaterEq,
                        0.0,
                    );
                }
            }
        }
        // CH (Eq. 9): rho_{j,j} >= rho_{i,j} for all i != j.
        Property::ColumnHonesty => {
            for j in 0..dim {
                for i in 0..dim {
                    if i != j {
                        lp.add_constraint(
                            [(vars[j][j], 1.0), (vars[i][j], -1.0)],
                            Relation::GreaterEq,
                            0.0,
                        );
                    }
                }
            }
        }
        // CM (Eq. 10): within column j, entries are non-increasing moving away from
        // the diagonal.
        Property::ColumnMonotonicity => {
            for j in 0..dim {
                for i in 1..=j {
                    lp.add_constraint(
                        [(vars[i][j], 1.0), (vars[i - 1][j], -1.0)],
                        Relation::GreaterEq,
                        0.0,
                    );
                }
                for i in j..n {
                    lp.add_constraint(
                        [(vars[i][j], 1.0), (vars[i + 1][j], -1.0)],
                        Relation::GreaterEq,
                        0.0,
                    );
                }
            }
        }
        // F (Eq. 11): all diagonal entries equal.
        Property::Fairness => {
            for i in 1..dim {
                lp.add_constraint(
                    [(vars[i][i], 1.0), (vars[0][0], -1.0)],
                    Relation::Equal,
                    0.0,
                );
            }
        }
        // WH (Eq. 13): diagonal entries at least 1/(n+1).
        Property::WeakHonesty => {
            let bound = 1.0 / dim as f64;
            for i in 0..dim {
                lp.add_constraint([(vars[i][i], 1.0)], Relation::GreaterEq, bound);
            }
        }
        // S (Eq. 14): rho_{i,j} = rho_{n-i,n-j}; only half the pairs are needed.
        Property::Symmetry => {
            for i in 0..dim {
                for j in 0..dim {
                    let (oi, oj) = (n - i, n - j);
                    if (i, j) < (oi, oj) {
                        lp.add_constraint(
                            [(vars[i][j], 1.0), (vars[oi][oj], -1.0)],
                            Relation::Equal,
                            0.0,
                        );
                    }
                }
            }
        }
    }
}

/// The unconstrained (BASICDP-only) optimal mechanism for the given objective — the
/// Ghosh et al. setting of Section III.  For `L0` this is the Geometric Mechanism
/// (Theorem 3).
pub fn optimal_unconstrained(
    n: usize,
    alpha: Alpha,
    objective: Objective,
) -> Result<DesignSolution, CoreError> {
    DesignProblem::unconstrained(n, alpha, objective).solve()
}

/// The optimal mechanism satisfying a subset of the structural properties
/// (Theorem 2).
pub fn optimal_constrained(
    n: usize,
    alpha: Alpha,
    objective: Objective,
    properties: PropertySet,
) -> Result<DesignSolution, CoreError> {
    DesignProblem::constrained(n, alpha, objective, properties).solve()
}

/// The property set defining the paper's WM (Section V-A: "From now on, we use
/// WM to refer to the mechanism with WH, RM and CM properties").
pub fn wm_properties() -> PropertySet {
    PropertySet::empty()
        .with(Property::WeakHonesty)
        .with(Property::RowMonotonicity)
        .with(Property::ColumnMonotonicity)
}

/// Convenience alias for [`LossKind`] users: build the standard `L0` design problem
/// for a property subset.
pub fn l0_problem(n: usize, alpha: Alpha, properties: PropertySet) -> DesignProblem {
    DesignProblem::constrained(n, alpha, Objective::l0(), properties)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed_form;
    use crate::mechanisms::{ExplicitFairMechanism, GeometricMechanism};
    use crate::objective::{rescaled_l0, LossKind, Prior};

    fn a(v: f64) -> Alpha {
        Alpha::new(v).unwrap()
    }

    /// A pre-PR-7 serialized `DesignProblem` carries no `crash_seed` field;
    /// it must deserialize with the seed on (the production default), not
    /// `bool::default()`.
    #[test]
    fn missing_crash_seed_field_defaults_to_on() {
        let problem = DesignProblem::unconstrained(4, a(0.62), Objective::l0());
        let mut json = serde_json::to_string(&problem).unwrap();
        assert!(json.contains("\"crash_seed\":true"));
        json = json.replace(",\"crash_seed\":true", "");
        let back: DesignProblem = serde_json::from_str(&json).unwrap();
        assert!(back.crash_seed);
        assert_eq!(back, problem);
    }

    #[test]
    fn lp_sizes_are_as_expected() {
        let problem = DesignProblem::unconstrained(4, a(0.62), Objective::l0());
        let (lp, vars) = problem.build_lp().unwrap();
        assert_eq!(vars.len(), 5);
        assert_eq!(lp.num_variables(), 25);
        // 5 column sums + 2 * 5 * 4 DP constraints.
        assert_eq!(lp.num_constraints(), 5 + 40);

        let constrained = DesignProblem::constrained(
            4,
            a(0.62),
            Objective::l0(),
            PropertySet::empty().with(Property::WeakHonesty),
        );
        let (lp2, _) = constrained.build_lp().unwrap();
        assert_eq!(lp2.num_constraints(), 45 + 5);
    }

    #[test]
    fn unconstrained_l0_recovers_the_geometric_mechanism() {
        // Theorem 3: GM is the unique optimal BASICDP mechanism for L0.
        for n in [2usize, 3, 5] {
            for alpha in [0.5, 0.62, 0.9] {
                let solution =
                    optimal_unconstrained(n, a(alpha), Objective::l0()).expect("solve ok");
                let gm = GeometricMechanism::new(n, a(alpha)).unwrap();
                let lp_l0 = rescaled_l0(&solution.mechanism);
                assert!(
                    (lp_l0 - gm.l0_score()).abs() < 1e-6,
                    "n={n} alpha={alpha}: LP {lp_l0} vs closed form {}",
                    gm.l0_score()
                );
                // Uniqueness: the matrices should agree entrywise.
                for i in 0..=n {
                    for j in 0..=n {
                        assert!(
                            (solution.mechanism.prob(i, j) - gm.matrix().prob(i, j)).abs() < 1e-5,
                            "n={n} alpha={alpha} cell ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fully_constrained_l0_matches_the_explicit_fair_mechanism_cost() {
        // Theorem 4: EM is L0-optimal among mechanisms with all properties, so the LP
        // optimum with all properties must equal EM's closed-form cost.
        for n in [2usize, 3, 4, 5] {
            for alpha in [0.62, 0.9] {
                let solution =
                    optimal_constrained(n, a(alpha), Objective::l0(), PropertySet::all())
                        .expect("solve ok");
                let em = ExplicitFairMechanism::new(n, a(alpha)).unwrap();
                let lp_l0 = rescaled_l0(&solution.mechanism);
                assert!(
                    (lp_l0 - em.l0_score()).abs() < 1e-6,
                    "n={n} alpha={alpha}: LP {lp_l0} vs EM {}",
                    em.l0_score()
                );
                assert!(PropertySet::all().all_hold(&solution.mechanism, 1e-6));
            }
        }
    }

    #[test]
    fn constrained_solutions_satisfy_dp_and_requested_properties() {
        let properties = PropertySet::empty()
            .with(Property::WeakHonesty)
            .with(Property::ColumnMonotonicity);
        let solution =
            optimal_constrained(5, a(0.76), Objective::l0(), properties).expect("solve ok");
        assert!(solution.mechanism.satisfies_dp(a(0.76), 1e-6));
        assert!(properties.all_hold(&solution.mechanism, 1e-6));
    }

    #[test]
    fn weak_honest_mechanism_cost_is_sandwiched_between_gm_and_em() {
        // Section IV-D: L0(GM) <= L0(WM) <= L0(EM).
        for n in [3usize, 5, 7] {
            for alpha in [0.76, 0.9] {
                let wm = optimal_constrained(n, a(alpha), Objective::l0(), wm_properties())
                    .expect("solve ok");
                let wm_l0 = rescaled_l0(&wm.mechanism);
                let gm_l0 = closed_form::gm_l0(a(alpha));
                let em_l0 = closed_form::em_l0(n, a(alpha));
                assert!(wm_l0 + 1e-6 >= gm_l0, "n={n} alpha={alpha}");
                assert!(wm_l0 <= em_l0 + 1e-6, "n={n} alpha={alpha}");
            }
        }
    }

    #[test]
    fn l2_unconstrained_can_collapse_to_a_constant_output() {
        // Figure 1: for L2 the unconstrained "optimal" mechanism ignores its input.
        // For n = 7 and alpha = 0.62 it always reports 2 (or the mirror image 5) with
        // high probability; at minimum it must have several all-zero rows.
        let solution = optimal_unconstrained(7, a(0.62), Objective::l2()).expect("solve ok");
        let zero_rows = solution.mechanism.zero_rows(1e-7);
        assert!(
            !zero_rows.is_empty(),
            "expected output gaps in the unconstrained L2 mechanism"
        );
    }

    #[test]
    fn constrained_l2_has_no_gaps() {
        // Figure 2: adding the properties eliminates the gaps.
        let solution =
            optimal_constrained(5, a(0.62), Objective::l2(), PropertySet::all()).expect("solve ok");
        assert!(solution.mechanism.zero_rows(1e-9).is_empty());
        assert!(solution.mechanism.min_entry() > 0.0);
    }

    #[test]
    fn minimax_objective_is_supported() {
        let problem = DesignProblem {
            n: 3,
            alpha: a(0.7),
            objective: Objective {
                loss: LossKind::ZeroOne,
                prior: Prior::Uniform,
                aggregator: Aggregator::Max,
            },
            properties: PropertySet::empty().with(Property::Symmetry),
            output_dp: None,
            warm_basis: None,
            crash_seed: true,
        };
        let solution = problem.solve().expect("solve ok");
        // The minimax L0 loss of any DP mechanism is at least the uniform-column
        // loss; sanity-check the value is in (0, 1).
        assert!(solution.objective_value > 0.0 && solution.objective_value < 1.0);
        assert!(solution.mechanism.satisfies_dp(a(0.7), 1e-6));
    }

    #[test]
    fn output_dp_extension_yields_doubly_smooth_mechanisms() {
        // The paper's concluding extension: also bound the ratio between neighbouring
        // outputs.  GM badly violates this for alpha > 1/2 (its boundary rows spike),
        // so the doubly-constrained optimum must cost strictly more than GM but can
        // never exceed EM+uniformity... at minimum it must satisfy both checks.
        let alpha = a(0.9);
        let n = 4;
        let problem = DesignProblem::unconstrained(n, alpha, Objective::l0()).with_output_dp(alpha);
        let solution = problem
            .solve()
            .expect("output-DP LP must solve (UM is feasible)");
        assert!(solution.mechanism.satisfies_dp(alpha, 1e-6));
        assert!(solution.mechanism.satisfies_output_dp(alpha, 1e-6));
        let gm = GeometricMechanism::new(n, alpha).unwrap();
        assert!(!gm.matrix().satisfies_output_dp(alpha, 1e-6));
        assert!(rescaled_l0(&solution.mechanism) >= gm.l0_score() - 1e-6);
        assert!(rescaled_l0(&solution.mechanism) <= 1.0 + 1e-9);

        // Combining with fairness still works (UM witnesses feasibility).
        let fair = DesignProblem::constrained(
            n,
            alpha,
            Objective::l0(),
            PropertySet::empty().with(Property::Fairness),
        )
        .with_output_dp(alpha)
        .solve()
        .expect("fair + output-DP LP must solve");
        assert!(Property::Fairness.holds(&fair.mechanism, 1e-6));
        assert!(fair.mechanism.satisfies_output_dp(alpha, 1e-6));
    }

    #[test]
    fn recommended_options_scale_the_pivot_budget_with_n() {
        let small = DesignProblem::unconstrained(4, a(0.62), Objective::l0());
        assert_eq!(small.recommended_options().max_iterations, 500_000);
        let large = DesignProblem::unconstrained(128, a(0.62), Objective::l0());
        assert_eq!(large.recommended_options().max_iterations, 60 * 129 * 129);
    }

    #[test]
    fn invalid_group_size_is_rejected() {
        let problem = DesignProblem::unconstrained(0, a(0.5), Objective::l0());
        assert!(matches!(
            problem.build_lp(),
            Err(CoreError::InvalidGroupSize { value: 0 })
        ));
    }

    #[test]
    fn fairness_plus_weak_honesty_is_feasible_even_when_gm_is_not_honest() {
        // For alpha = 0.9, n = 2 GM badly violates weak honesty (Example 1), but the
        // constrained LP must still find a fair, weakly honest mechanism (UM witnesses
        // feasibility; EM is the optimum).
        let properties = PropertySet::empty()
            .with(Property::Fairness)
            .with(Property::WeakHonesty);
        let solution =
            optimal_constrained(2, a(0.9), Objective::l0(), properties).expect("solve ok");
        assert!(properties.all_hold(&solution.mechanism, 1e-6));
        let em = ExplicitFairMechanism::new(2, a(0.9)).unwrap();
        assert!((rescaled_l0(&solution.mechanism) - em.l0_score()).abs() < 1e-6);
    }
}
