//! Dual-form solving: build the dual of a standardized primal LP, solve it
//! with the ordinary revised-simplex machinery, and map the dual-optimal
//! basis back to a **primal-optimal basis** by complementary slackness.
//!
//! ## Why
//!
//! The mechanism-design LPs are tall: ~2x more rows than columns (33 153 ×
//! 16 641 at n = 128).  The simplex basis is square in the *row* count, so
//! every FTRAN/BTRAN/factorisation on the primal pays for 33 k rows.  The
//! dual of `min c'z, Az = b, z ≥ 0` is `max b'y, A'y ≤ c` — one row per
//! primal *structural* column — so its basis is half the size.  Better
//! still, every mechanism-LP cost is ≥ 0, which makes `y = 0` feasible for
//! the dual: the dual standard form starts from an all-slack basis and
//! **Phase 1 vanishes entirely**.
//!
//! ## The dualize transform
//!
//! [`dualize`] consumes a row-encoded primal [`StandardForm`] (no boxed
//! columns) and produces the dual as a [`LinearProgram`] that the existing
//! standardisation handles:
//!
//! * each primal row `r` becomes a dual variable `y_r`.  Primal slack
//!   columns are *folded into sign bounds* instead of rows of their own: a
//!   `+1` slack on row `r` means the dual constraint `y_r ≤ 0`, a `−1`
//!   surplus means `y_r ≥ 0`, and an equality row leaves `y_r` free.  This
//!   is what keeps the dual at `num_structural` rows rather than
//!   `num_columns` rows;
//! * each primal structural column `j` becomes the dual row
//!   `Σ_r a_rj · y_r ≤ c_j`;
//! * the dual objective is `min −b'y` (the primal minimisation objective is
//!   `−1 ×` the dual optimum).
//!
//! ## The basis-mapping contract
//!
//! Both directions are purely combinatorial — no numerics:
//!
//! * **dual-optimal → primal basis** ([`Dualized::map_dual_basis`]): the
//!   primal basic set is `S = {j : the dual slack of row j is nonbasic}`
//!   (the structurally tight dual rows), one per basic dual `y` column;
//!   every primal row whose `y_r` is *nonbasic* (so `y_r = 0`) is filled
//!   with its own slack column — or an artificial marker for equality rows.
//!   Nonsingularity of the dual basis is equivalent to nonsingularity of
//!   this primal candidate (expand both determinants along their unit
//!   columns and the same `A[Y, S]` minor remains).
//! * **primal seed → dual seed** ([`Dualized::map_primal_seed`]): the exact
//!   inverse, so a stored primal-optimal warm basis becomes a dual-feasible
//!   seed and α-sweeps chain warm in dual form too.
//!
//! The mapped primal basis is then handed to the ordinary warm-start
//! machinery ([`revised::warm_solve`]), which factors it, verifies dual
//! feasibility of the reduced costs, mops up any degenerate residue in a
//! handful of pivots, and **certifies optimality with the primal machinery**
//! — the dual solve is a (very fast) seed generator, never the authority on
//! the answer.  Anything that goes wrong at any step reports `None` and the
//! caller falls back to the cold primal path.

use crate::error::SimplexError;
use crate::model::{LinearProgram, Relation};
use crate::revised;
use crate::solver::{LpForm, SolveOptions, SolvedPoint};
use crate::standard::{standardize_boxed, StandardForm, VariableMapping};

/// A dualized program plus the bookkeeping needed to map bases across forms.
pub(crate) struct Dualized {
    /// Standard form of the dual LP (never boxed: every `y` bound is
    /// one-sided, so `standardize_boxed` produces no finite uppers).
    pub sf: StandardForm,
    /// Per primal row: the primal slack/surplus column folded into `y_r`'s
    /// sign bound, if the row has one (equality rows do not).
    primal_slack_of_row: Vec<Option<usize>>,
    /// Per dual *structural* column: the primal row whose `y` it encodes
    /// (the split columns of a free `y` both map to their row).
    y_col_row: Vec<usize>,
}

/// Scale of the deterministic dual-rhs anti-degeneracy perturbation (see the
/// comment at the constraint loop in [`dualize`]).  Well above the solver's
/// feasibility tolerance (so ties actually break) and small enough that the
/// perturbed optimal basis stays within a few certification pivots of the
/// true one.
const RHS_PERTURBATION: f64 = 1e-6;

/// Build the dual of a row-encoded primal standard form.  The caller must
/// ensure `primal` has no boxed columns (`solve_via_dual` gates on this).
pub(crate) fn dualize(primal: &StandardForm) -> Dualized {
    let m = primal.num_rows();
    let ns = primal.num_structural;
    debug_assert!(primal.upper.iter().all(|u| u.is_infinite()));

    // Locate each row's slack/surplus singleton so it can fold into a bound.
    let mut slack_of_row: Vec<Option<(usize, f64)>> = vec![None; m];
    for col in ns..primal.num_columns() {
        let mut entries = primal.matrix.column(col);
        let (row, value) = entries
            .next()
            .expect("slack columns are nonempty singletons");
        debug_assert!(entries.next().is_none(), "slack columns are singletons");
        debug_assert!(slack_of_row[row].is_none(), "one slack per row");
        slack_of_row[row] = Some((col, value));
    }

    let mut lp = LinearProgram::minimize();
    let y: Vec<_> = (0..m)
        .map(|r| {
            let (lower, upper) = match slack_of_row[r] {
                // `+1` slack: its dual constraint is `y_r <= 0`.
                Some((_, value)) if value > 0.0 => (f64::NEG_INFINITY, 0.0),
                // `-1` surplus: `-y_r <= 0`, i.e. `y_r >= 0`.
                Some(_) => (0.0, f64::INFINITY),
                // Equality row: free multiplier.
                None => (f64::NEG_INFINITY, f64::INFINITY),
            };
            let var = lp.add_variable_with_bounds(format!("y{r}"), lower, upper);
            // max b'y as a minimisation.
            lp.set_objective_coefficient(var, -primal.rhs[r]);
            var
        })
        .collect();
    // One dual row per primal structural column: the primal CSC column *is*
    // the dual row's sparse term list.
    //
    // The rhs carries a tiny deterministic **anti-degeneracy perturbation**.
    // Mechanism-LP costs are full of exact ties (uniform objective weights),
    // and ties in the dual rhs are what make the dual walk spin on degenerate
    // vertices (60%+ zero-step pivots unperturbed).  A low-discrepancy
    // positive offset breaks every tie while keeping `y = 0` feasible
    // (`c ≥ 0` stays `≥ 0`).  Exactness is *not* lost: the perturbed
    // dual-optimal basis is only used as a seed, and the primal certification
    // re-solves with the true costs.
    const PHI_FRAC: f64 = 0.618_033_988_749_894_9;
    for j in 0..ns {
        let jitter = ((j + 1) as f64 * PHI_FRAC).fract();
        let eps = RHS_PERTURBATION * (1.0 + primal.costs[j].abs()) * (0.5 + jitter);
        lp.add_constraint(
            primal.matrix.column(j).map(|(r, a)| (y[r], a)),
            Relation::LessEq,
            primal.costs[j] + eps,
        );
    }

    let sf = standardize_boxed(&lp);
    debug_assert_eq!(sf.num_rows(), ns);
    debug_assert!(sf.upper.iter().all(|u| u.is_infinite()));

    let mut y_col_row = vec![0usize; sf.num_structural];
    for (r, mapping) in sf.mapping.iter().enumerate() {
        match *mapping {
            VariableMapping::Shifted { col, .. } | VariableMapping::Negated { col, .. } => {
                y_col_row[col] = r;
            }
            VariableMapping::Split { pos, neg } => {
                y_col_row[pos] = r;
                y_col_row[neg] = r;
            }
            VariableMapping::Fixed(_) => unreachable!("no dual variable is bound-fixed"),
        }
    }

    Dualized {
        sf,
        primal_slack_of_row: slack_of_row.iter().map(|s| s.map(|(col, _)| col)).collect(),
        y_col_row,
    }
}

impl Dualized {
    /// The dual standard-form slack column of dual row `j` (every dual row is
    /// a `<=` row, so slacks are appended in row order).
    fn dual_slack_col(&self, j: usize) -> usize {
        self.sf.num_structural + j
    }

    /// The dual standard-form column to make basic when `y_r` must be basic.
    /// For a free `y` (primal equality row) the positive split part is used;
    /// if the optimum wants `y_r < 0` the dual cleanup swaps in the negative
    /// part with an ordinary pivot.
    fn y_entry_col(&self, r: usize) -> usize {
        match self.sf.mapping[r] {
            VariableMapping::Shifted { col, .. } | VariableMapping::Negated { col, .. } => col,
            VariableMapping::Split { pos, .. } => pos,
            VariableMapping::Fixed(_) => unreachable!("no dual variable is bound-fixed"),
        }
    }

    /// Map a primal-optimal basis (primal standard-form column per primal
    /// row) to the complementary dual basis, usable as a dual warm seed.
    ///
    /// Basic primal structural columns become *tight* dual rows (their dual
    /// slack leaves the seed); every primal row covered by a basic slack or
    /// artificial has `y_r = 0` nonbasic, and the remaining rows' `y`
    /// columns pair up with the tight dual rows (the pairing inside the set
    /// is arbitrary — the factorisation re-keys rows).  `None` for any seed
    /// that is malformed or double-covers a row; the dual solve then simply
    /// starts cold.
    pub fn map_primal_seed(&self, primal: &StandardForm, seed: &[usize]) -> Option<Vec<usize>> {
        let m = primal.num_rows();
        let ns = primal.num_structural;
        let num_core = primal.num_columns();
        if seed.len() != m {
            return None;
        }
        let mut in_s = vec![false; ns];
        let mut covered = vec![false; m];
        for (slot, &col) in seed.iter().enumerate() {
            let covered_row = if col < ns {
                if in_s[col] {
                    return None;
                }
                in_s[col] = true;
                continue;
            } else if col < num_core {
                // A slack column covers its own row, wherever it is listed.
                primal
                    .matrix
                    .column(col)
                    .next()
                    .map(|(row, _)| row)
                    .expect("slack columns are nonempty")
            } else {
                // Artificial markers keep the row they are listed under basic
                // (the same convention `RevisedState::with_basis` applies).
                slot
            };
            if covered[covered_row] {
                return None;
            }
            covered[covered_row] = true;
        }

        let mut uncovered = (0..m).filter(|&r| !covered[r]);
        let mut dual_seed = Vec::with_capacity(ns);
        for (j, &in_basis) in in_s.iter().enumerate().take(ns) {
            if in_basis {
                dual_seed.push(self.y_entry_col(uncovered.next()?));
            } else {
                dual_seed.push(self.dual_slack_col(j));
            }
        }
        if uncovered.next().is_some() {
            return None;
        }
        Some(dual_seed)
    }

    /// Map a dual-optimal basis back to a primal basis (see the module docs
    /// for the complementary-slackness argument).  `None` when the dual
    /// basis is not mappable (a split `y` with both parts basic, or a count
    /// mismatch) — the caller falls back to the cold primal path.
    pub fn map_dual_basis(
        &self,
        primal: &StandardForm,
        dual_basis: &[usize],
    ) -> Option<Vec<usize>> {
        let nd = self.sf.num_rows();
        let nds = self.sf.num_structural;
        let dual_core = self.sf.num_columns();
        let m = primal.num_rows();
        if dual_basis.len() != nd {
            return None;
        }
        // `tight[j]`: the dual slack of row j is nonbasic and no artificial
        // pins the row — primal column j joins the basic set S.
        let mut tight = vec![true; nd];
        let mut y_basic = vec![false; m];
        for (slot, &col) in dual_basis.iter().enumerate() {
            if col < nds {
                let r = self.y_col_row[col];
                if y_basic[r] {
                    // Both split parts of a free y basic would be singular.
                    return None;
                }
                y_basic[r] = true;
            } else if col < dual_core {
                tight[col - nds] = false;
            } else {
                tight[slot] = false;
            }
        }

        let mut s_cols = (0..nd).filter(|&j| tight[j]);
        let mut primal_basis = Vec::with_capacity(m);
        let mut next_artificial = primal.num_columns();
        for (r, &y_is_basic) in y_basic.iter().enumerate().take(m) {
            if y_is_basic {
                // A basic y_r pairs with one tight dual row's structural
                // column (pairing arbitrary — the factorisation re-keys).
                primal_basis.push(s_cols.next()?);
            } else if let Some(col) = self.primal_slack_of_row[r] {
                primal_basis.push(col);
            } else {
                // Equality row with y_r = 0: redundant at this vertex; keep
                // it basic through an artificial marker, exactly as a cold
                // primal solve reports redundant rows.
                primal_basis.push(next_artificial);
                next_artificial += 1;
            }
        }
        if s_cols.next().is_some() {
            return None;
        }
        Some(primal_basis)
    }
}

/// Solve `sf` (a row-encoded primal standard form) through its dual.
///
/// `Ok(None)` means "not handled here — run the primal path": the program is
/// ineligible (boxed columns, no rows/structural columns), the dual solve hit
/// a non-budget error (a dual infeasibility/unboundedness maps to a primal
/// unboundedness/infeasibility the primal path classifies authoritatively),
/// a caller warm seed mapped into dual form but was declined there (the
/// primal warm path repairs such seeds natively), the returned basis did not
/// map back, or the primal certification declined.  Only
/// [`SimplexError::IterationLimit`] propagates — the budget is shared, so the
/// primal path could not finish either.
pub(crate) fn solve_via_dual(
    sf: &StandardForm,
    options: &SolveOptions,
) -> Result<Option<SolvedPoint>, SimplexError> {
    if sf.num_rows() == 0 || sf.num_structural == 0 {
        return Ok(None);
    }
    if sf.upper.iter().any(|u| u.is_finite()) {
        return Ok(None);
    }

    let dual = dualize(sf);
    let mapped_seed = options
        .warm_basis
        .as_deref()
        .and_then(|seed| dual.map_primal_seed(sf, seed));
    let dual_options = options
        .clone()
        .with_form(LpForm::Primal)
        .with_warm_basis(None);
    let dual_point = match &mapped_seed {
        // A caller seed that maps is tried through the dual-side warm
        // machinery directly.  If it is declined, do NOT pay a cold dual
        // solve: a declined seed here is almost always an α-neighbour basis
        // that is primal-infeasible under the new coefficients — which the
        // dual form sees as *dual* infeasibility it cannot repair, while the
        // primal warm path's dual-simplex cleanup is built for exactly that.
        // Deferring hands the untouched seed back to the primal path.
        Some(seed) => match revised::warm_solve(&dual.sf, &dual_options, seed) {
            Some(point) => point,
            None => return Ok(None),
        },
        None => match revised::solve(&dual.sf, &dual_options) {
            Ok(point) => point,
            Err(error @ SimplexError::IterationLimit { .. }) => return Err(error),
            Err(_) => return Ok(None),
        },
    };

    let Some(primal_seed) = dual_point
        .basis
        .as_deref()
        .and_then(|basis| dual.map_dual_basis(sf, basis))
    else {
        return Ok(None);
    };

    // Certification: the complementary basis is primal-optimal up to
    // degenerate ties, and the ordinary warm-start machinery proves it —
    // factor, exact reduced costs, dual cleanup (0 pivots when the mapping is
    // exact), primal cleanup, fresh-factor confirmation.
    let certify_options = options.clone().with_warm_basis(None);
    let Some(mut point) = revised::warm_solve(sf, &certify_options, &primal_seed) else {
        return Ok(None);
    };

    let ds = dual_point.stats;
    let stats = &mut point.stats;
    stats.form = LpForm::Dual;
    stats.phase1_iterations += ds.phase1_iterations;
    stats.phase2_iterations += ds.phase2_iterations;
    stats.degenerate_pivots += ds.degenerate_pivots;
    stats.bland_activations += ds.bland_activations;
    stats.artificial_variables += ds.artificial_variables;
    stats.refactorizations += ds.refactorizations;
    stats.basis_updates += ds.basis_updates;
    stats.basis_repairs += ds.basis_repairs;
    stats.steepest_edge_resets += ds.steepest_edge_resets;
    stats.bound_flips += ds.bound_flips;
    stats.dual_iterations += ds.dual_iterations;
    // "Warm-started" reports whether the *caller's* seed steered the solve —
    // here, whether it survived the map into dual form and was accepted
    // there.  The internal certification warm start is an implementation
    // detail of the dual path, not a seeded solve.
    stats.warm_started = ds.warm_started;
    Ok(Some(point))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinearProgram, Relation};
    use crate::solver::SolveOptions;
    use crate::standard::standardize;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    /// Solve `lp` through the dual path and return the point; panics if the
    /// dual path declines (these fixtures are all eligible).
    fn via_dual(lp: &LinearProgram) -> SolvedPoint {
        let sf = standardize(lp);
        solve_via_dual(&sf, &SolveOptions::default())
            .expect("dual solve must not error")
            .expect("fixture must be dual-eligible")
    }

    fn primal_objective(lp: &LinearProgram) -> f64 {
        lp.solve_with(&SolveOptions::default())
            .unwrap()
            .objective_value
    }

    #[test]
    fn dualize_folds_slacks_into_bounds_and_transposes() {
        // min x + 2y  s.t.  x + y >= 2 (surplus),  x - y <= 1 (slack),
        //                   x + 3y = 3 (equality).
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::GreaterEq, 2.0);
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::LessEq, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 3.0)], Relation::Equal, 3.0);
        let sf = standardize(&lp);
        let dual = dualize(&sf);

        // One dual row per primal structural column; the slack columns fold
        // into bounds instead of rows.
        assert_eq!(dual.sf.num_rows(), 2);
        assert_eq!(sf.num_structural, 2);
        // y_0 (>= row with positive rhs keeps its -1 surplus): y_0 >= 0 costs
        // one structural column; y_1 (<= row): y_1 <= 0, negated, one more;
        // y_2 (equality): free, split into two.  Total 4 structural columns.
        assert_eq!(dual.sf.num_structural, 4);
        // Each primal structural column's CSC column became a dual row.
        assert_eq!(dual.sf.num_columns(), 4 + 2);
    }

    #[test]
    fn dual_form_matches_primal_on_inequality_mixes() {
        // The fixture above has a >= row, a <= row, and an equality row.
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::GreaterEq, 2.0);
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::LessEq, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 3.0)], Relation::Equal, 3.0);
        let point = via_dual(&lp);
        assert_close(point.objective, primal_objective(&lp));
        assert_eq!(point.stats.form, LpForm::Dual);
    }

    #[test]
    fn dual_form_handles_free_and_bounded_variables() {
        // A free variable (split in the primal standard form) and variables
        // with shifted/negated one-sided bounds; also a range-like pair of
        // rows bracketing the same expression.
        let mut lp = LinearProgram::minimize();
        let f = lp.add_variable_with_bounds("f", f64::NEG_INFINITY, f64::INFINITY);
        let lo = lp.add_variable_with_bounds("lo", 1.0, f64::INFINITY);
        let hi = lp.add_variable_with_bounds("hi", f64::NEG_INFINITY, 5.0);
        lp.set_objective_coefficient(f, 1.0);
        lp.set_objective_coefficient(lo, 2.0);
        lp.set_objective_coefficient(hi, -1.0);
        // Range rows: 1 <= f + lo <= 6.
        lp.add_constraint(vec![(f, 1.0), (lo, 1.0)], Relation::GreaterEq, 1.0);
        lp.add_constraint(vec![(f, 1.0), (lo, 1.0)], Relation::LessEq, 6.0);
        lp.add_constraint(vec![(f, 1.0), (hi, 1.0)], Relation::GreaterEq, -2.0);
        let point = via_dual(&lp);
        let sf = standardize(&lp);
        let values = sf.recover_values(&point.z);
        assert_close(
            point.objective + sf.objective_constant,
            primal_objective(&lp),
        );
        // f + lo within the range rows.
        let range = values[0] + values[1];
        assert!((1.0 - 1e-9..=6.0 + 1e-9).contains(&range));
    }

    #[test]
    fn dual_basis_maps_back_to_a_zero_pivot_primal_seed() {
        // The recovered basis must be primal-optimal as-is: re-solving the
        // primal seeded with it performs no pivots at all.
        let mut lp = LinearProgram::minimize();
        let vars = lp.add_variables("p", 6);
        for (i, v) in vars.iter().enumerate() {
            lp.set_objective_coefficient(*v, 1.0 + i as f64);
        }
        lp.add_constraint(vars.iter().map(|&v| (v, 1.0)), Relation::Equal, 1.0);
        for w in vars.windows(2) {
            lp.add_constraint(vec![(w[0], 1.0), (w[1], -0.5)], Relation::GreaterEq, 0.0);
        }
        let point = via_dual(&lp);
        let seed = point.basis.clone().expect("dual path reports a basis");
        let sf = standardize(&lp);
        let reseeded = revised::warm_solve(&sf, &SolveOptions::default(), &seed)
            .expect("a dual-recovered basis must be warm-start-valid");
        assert_eq!(reseeded.stats.dual_iterations, 0);
        assert_eq!(reseeded.stats.phase2_iterations, 0);
        assert_close(reseeded.objective, point.objective);
    }

    #[test]
    fn primal_seed_round_trips_through_the_dual_seed_mapping() {
        let mut lp = LinearProgram::minimize();
        let vars = lp.add_variables("p", 5);
        for (i, v) in vars.iter().enumerate() {
            lp.set_objective_coefficient(*v, 1.0 + (i % 3) as f64);
        }
        lp.add_constraint(vars.iter().map(|&v| (v, 1.0)), Relation::Equal, 1.0);
        for w in vars.windows(2) {
            lp.add_constraint(vec![(w[0], 1.0), (w[1], -0.9)], Relation::GreaterEq, 0.0);
        }
        let sf = standardize(&lp);
        let cold = revised::solve(&sf, &SolveOptions::default()).unwrap();
        let primal_basis = cold.basis.unwrap();

        let dual = dualize(&sf);
        let dual_seed = dual
            .map_primal_seed(&sf, &primal_basis)
            .expect("an optimal primal basis maps to a dual seed");
        // The mapped seed must be accepted by the dual solve's warm path and
        // the whole dual path must reproduce the optimum.
        let options = SolveOptions::default().with_warm_basis(Some(primal_basis));
        let point = solve_via_dual(&sf, &options).unwrap().unwrap();
        assert!(point.stats.warm_started, "mapped seed must be accepted");
        assert_close(point.objective, cold.objective);
        // And the dual seed itself is structurally sound: one entry per dual
        // row, all distinct.
        let mut seen = vec![false; dual.sf.num_columns()];
        assert_eq!(dual_seed.len(), dual.sf.num_rows());
        for &col in &dual_seed {
            assert!(!seen[col]);
            seen[col] = true;
        }
    }

    #[test]
    fn infeasible_and_unbounded_programs_fall_back_to_the_primal_path() {
        // Infeasible primal: the dual is unbounded; the path must decline
        // rather than misreport.
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable("x");
        lp.add_constraint(vec![(x, 1.0)], Relation::LessEq, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::GreaterEq, 2.0);
        let sf = standardize(&lp);
        assert!(solve_via_dual(&sf, &SolveOptions::default())
            .unwrap()
            .is_none());

        // Unbounded primal: the dual is infeasible; same contract.
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, -1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::GreaterEq, 1.0);
        let sf = standardize(&lp);
        assert!(solve_via_dual(&sf, &SolveOptions::default())
            .unwrap()
            .is_none());
    }

    #[test]
    fn boxed_standard_forms_are_declined() {
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable_with_bounds("x", 0.0, 2.0);
        lp.set_objective_coefficient(x, -1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::LessEq, 5.0);
        let sf = crate::standard::standardize_boxed(&lp);
        assert!(solve_via_dual(&sf, &SolveOptions::default())
            .unwrap()
            .is_none());
        // The row encoding of the same program is eligible and agrees.
        let point = via_dual(&lp);
        let row_sf = standardize(&lp);
        assert_close(
            point.objective + row_sf.objective_constant,
            primal_objective(&lp),
        );
    }
}
