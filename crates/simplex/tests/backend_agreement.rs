//! Differential tests: the sparse revised simplex and the dense tableau
//! reference must classify every program identically (optimal / infeasible /
//! unbounded) and report the same optimal objective value, on the
//! mechanism-design-shaped LPs this workspace exists for as well as on degenerate
//! and pathological edge cases.
//!
//! The optimal *point* may legitimately differ between backends when the optimum
//! face is not a single vertex, so the tests compare objectives (to `1e-6`) and
//! validate feasibility of each returned point, not coordinates.

// The grid construction mirrors the paper's double-subscript notation; explicit
// index loops are clearer than iterator chains here.
#![allow(clippy::needless_range_loop)]

use cpm_simplex::{LinearProgram, Relation, SimplexError, Solution, SolveOptions, VariableId};
use proptest::prelude::*;

const AGREEMENT_TOLERANCE: f64 = 1e-6;

/// Solve on the revised simplex (sparse) and the dense tableau reference.
fn solve_both(lp: &LinearProgram) -> [Result<Solution, SimplexError>; 2] {
    let options = SolveOptions::default().with_max_iterations(2_000_000);
    [lp.solve_with(&options), lp.solve_dense_reference(&options)]
}

/// Solve with both backends; expect both to succeed and agree on the objective.
/// Returns the two objective values for further checks.
fn assert_backends_agree(lp: &LinearProgram, label: &str) -> (f64, f64) {
    let [sparse, dense] = solve_both(lp);
    let sparse = sparse.unwrap_or_else(|e| panic!("{label}: sparse backend failed: {e}"));
    let dense = dense.unwrap_or_else(|e| panic!("{label}: dense backend failed: {e}"));
    assert!(
        (sparse.objective_value - dense.objective_value).abs() < AGREEMENT_TOLERANCE,
        "{label}: sparse {} vs dense {}",
        sparse.objective_value,
        dense.objective_value
    );
    (sparse.objective_value, dense.objective_value)
}

/// The BASICDP-shaped LP of the paper: an (n+1)x(n+1) grid of probability
/// variables, column sums equal to one, DP ratio rows between adjacent columns,
/// and the (unscaled, uniform-prior) L0 objective.
fn basic_dp_lp(n: usize, alpha: f64) -> (LinearProgram, Vec<Vec<VariableId>>) {
    let dim = n + 1;
    let mut lp = LinearProgram::minimize();
    let mut vars = Vec::with_capacity(dim);
    for i in 0..dim {
        let mut row = Vec::with_capacity(dim);
        for j in 0..dim {
            let v = lp.add_variable(format!("rho_{i}_{j}"));
            if i != j {
                lp.set_objective_coefficient(v, 1.0 / dim as f64);
            }
            row.push(v);
        }
        vars.push(row);
    }
    for j in 0..dim {
        lp.add_constraint((0..dim).map(|i| (vars[i][j], 1.0)), Relation::Equal, 1.0);
    }
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
    (lp, vars)
}

/// Closed form for the BASICDP L0 optimum (Theorem 3 of the paper).
fn geometric_optimum(n: usize, alpha: f64) -> f64 {
    let trace = (n as f64 - 1.0) * (1.0 - alpha) / (1.0 + alpha) + 2.0 / (1.0 + alpha);
    1.0 - trace / (n as f64 + 1.0)
}

#[test]
fn backends_agree_on_mechanism_shaped_lps() {
    for n in [2usize, 4, 6, 9] {
        for alpha in [0.3, 0.62, 0.9] {
            let (lp, vars) = basic_dp_lp(n, alpha);
            let label = format!("basic_dp n={n} alpha={alpha}");
            let (sparse_objective, _) = assert_backends_agree(&lp, &label);
            assert!(
                (sparse_objective - geometric_optimum(n, alpha)).abs() < 1e-7,
                "{label}: objective {sparse_objective} disagrees with the closed form"
            );
            // Each backend's point must be a column-stochastic matrix.
            for (backend, solution) in ["sparse", "dense"].into_iter().zip(solve_both(&lp)) {
                let solution = solution.unwrap();
                for j in 0..=n {
                    let total: f64 = (0..=n).map(|i| solution.value(vars[i][j])).sum();
                    assert!(
                        (total - 1.0).abs() < 1e-7,
                        "{label} ({backend}): column {j} sums to {total}"
                    );
                    for i in 0..=n {
                        assert!(
                            solution.value(vars[i][j]) > -1e-9,
                            "{label}: negative entry"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn backends_agree_with_weak_honesty_rows() {
    for n in [2usize, 4, 6] {
        for alpha in [0.62, 0.9] {
            let (mut lp, vars) = basic_dp_lp(n, alpha);
            let bound = 1.0 / (n as f64 + 1.0);
            for (i, row) in vars.iter().enumerate() {
                lp.add_constraint([(row[i], 1.0)], Relation::GreaterEq, bound);
            }
            assert_backends_agree(&lp, &format!("weak_honesty n={n} alpha={alpha}"));
        }
    }
}

/// Between them the two backends run every entering rule the solver has:
/// Dantzig scoring (the dense tableau, and the revised simplex's Phase 1),
/// projected steepest edge (the revised Phase 2), and the Bland fallback both
/// share.  All of them must land on the same optimum.
#[test]
fn backends_agree_on_all_pivot_rules() {
    let (lp, _) = basic_dp_lp(5, 0.76);
    let (sparse, dense) = assert_backends_agree(&lp, "basic_dp n=5 alpha=0.76");
    assert!((sparse - geometric_optimum(5, 0.76)).abs() < 1e-7);
    assert!((dense - geometric_optimum(5, 0.76)).abs() < 1e-7);
}

#[test]
fn backends_agree_on_degenerate_beale() {
    // Beale's cycling example — maximally degenerate; the Bland fallback must reach
    // the same optimum through either backend.
    let mut lp = LinearProgram::minimize();
    let x1 = lp.add_variable("x1");
    let x2 = lp.add_variable("x2");
    let x3 = lp.add_variable("x3");
    let x4 = lp.add_variable("x4");
    lp.set_objective_coefficient(x1, -0.75);
    lp.set_objective_coefficient(x2, 150.0);
    lp.set_objective_coefficient(x3, -0.02);
    lp.set_objective_coefficient(x4, 6.0);
    lp.add_constraint(
        [(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
        Relation::LessEq,
        0.0,
    );
    lp.add_constraint(
        [(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
        Relation::LessEq,
        0.0,
    );
    lp.add_constraint([(x3, 1.0)], Relation::LessEq, 1.0);
    let (objective, _) = assert_backends_agree(&lp, "beale");
    assert!((objective - (-0.05)).abs() < 1e-7);
}

#[test]
fn backends_agree_that_contradictory_rows_are_infeasible() {
    let mut lp = LinearProgram::minimize();
    let x = lp.add_variable("x");
    let y = lp.add_variable("y");
    lp.add_constraint([(x, 1.0), (y, 1.0)], Relation::Equal, 1.0);
    lp.add_constraint([(x, 1.0), (y, 1.0)], Relation::Equal, 2.0);
    for result in solve_both(&lp) {
        assert_eq!(result.unwrap_err(), SimplexError::Infeasible);
    }
}

#[test]
fn backends_agree_that_open_programs_are_unbounded() {
    let mut lp = LinearProgram::maximize();
    let x = lp.add_variable("x");
    let y = lp.add_variable("y");
    lp.set_objective_coefficient(x, 1.0);
    lp.set_objective_coefficient(y, 2.0);
    lp.add_constraint([(x, 1.0), (y, -1.0)], Relation::LessEq, 3.0);
    for result in solve_both(&lp) {
        assert_eq!(result.unwrap_err(), SimplexError::Unbounded);
    }
}

#[test]
fn backends_agree_on_redundant_equalities() {
    let mut lp = LinearProgram::minimize();
    let x = lp.add_variable("x");
    let y = lp.add_variable("y");
    lp.set_objective_coefficient(x, 2.0);
    lp.set_objective_coefficient(y, 1.0);
    lp.add_constraint([(x, 1.0), (y, 1.0)], Relation::Equal, 4.0);
    lp.add_constraint([(x, 1.0), (y, 1.0)], Relation::Equal, 4.0);
    lp.add_constraint([(x, 2.0), (y, 2.0)], Relation::Equal, 8.0);
    let (objective, _) = assert_backends_agree(&lp, "redundant equalities");
    assert!((objective - 4.0).abs() < 1e-9);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random bounded `<=` programs: both backends find the same optimum.
    #[test]
    fn prop_backends_agree_on_random_le_programs(
        rows in proptest::collection::vec(
            proptest::collection::vec(0.0f64..5.0, 5),
            1..10,
        ),
        rhs in proptest::collection::vec(0.5f64..10.0, 10),
        costs in proptest::collection::vec(-3.0f64..3.0, 5),
    ) {
        // Maximise a mixed-sign objective over a bounded box-ish polytope (the
        // program is bounded because every variable also gets a unit cap).
        let mut lp = LinearProgram::maximize();
        let vars = lp.add_variables("x", 5);
        for (v, c) in vars.iter().zip(costs.iter()) {
            lp.set_objective_coefficient(*v, *c);
        }
        for (i, row) in rows.iter().enumerate() {
            let terms: Vec<_> = vars.iter().zip(row.iter()).map(|(&v, &a)| (v, a)).collect();
            lp.add_constraint(terms, Relation::LessEq, rhs[i.min(rhs.len() - 1)]);
        }
        for &v in &vars {
            lp.add_constraint([(v, 1.0)], Relation::LessEq, 1.0);
        }
        let [sparse, dense] = solve_both(&lp);
        let (sparse, dense) = (sparse.unwrap(), dense.unwrap());
        prop_assert!(
            (sparse.objective_value - dense.objective_value).abs() < AGREEMENT_TOLERANCE,
            "sparse {} vs dense {}", sparse.objective_value, dense.objective_value
        );
    }

    /// Heavily degenerate random programs — many zero right-hand sides, so
    /// nearly every vertex is degenerate and the LU-backed revised simplex
    /// leans hard on its anti-cycling and basis-update machinery.  The dense
    /// tableau is the oracle.
    #[test]
    fn prop_backends_agree_on_degenerate_programs(
        signs in proptest::collection::vec(0.0f64..1.0, 36),
        costs in proptest::collection::vec(-2.0f64..2.0, 6),
    ) {
        let mut lp = LinearProgram::minimize();
        let vars = lp.add_variables("x", 6);
        for (v, c) in vars.iter().zip(costs.iter()) {
            lp.set_objective_coefficient(*v, *c);
        }
        // Six ternary-coefficient rows with rhs 0 (maximum degeneracy), one
        // normalising row, and unit caps to keep the program bounded.
        for row in 0..6 {
            let terms: Vec<_> = vars
                .iter()
                .enumerate()
                .map(|(k, &v)| {
                    let s = signs[row * 6 + k];
                    let coefficient = if s < 1.0 / 3.0 {
                        -1.0
                    } else if s < 2.0 / 3.0 {
                        0.0
                    } else {
                        1.0
                    };
                    (v, coefficient)
                })
                .filter(|&(_, c)| c != 0.0)
                .collect();
            if !terms.is_empty() {
                lp.add_constraint(terms, Relation::GreaterEq, 0.0);
            }
        }
        lp.add_constraint(vars.iter().map(|&v| (v, 1.0)), Relation::Equal, 1.0);
        for &v in &vars {
            lp.add_constraint([(v, 1.0)], Relation::LessEq, 1.0);
        }
        let [sparse, dense] = solve_both(&lp);
        match (sparse, dense) {
            (Ok(s), Ok(d)) => prop_assert!(
                (s.objective_value - d.objective_value).abs() < AGREEMENT_TOLERANCE,
                "sparse {} vs dense {}", s.objective_value, d.objective_value
            ),
            (Err(se), Err(de)) => prop_assert_eq!(se, de),
            (s, d) => prop_assert!(false, "status disagreement: sparse {s:?} vs dense {d:?}"),
        }
    }

    /// Random DP-shaped instances: agreement plus the Theorem-3 closed form.
    #[test]
    fn prop_backends_agree_on_random_dp_instances(n in 1usize..6, alpha in 0.05f64..0.99) {
        let (lp, _) = basic_dp_lp(n, alpha);
        let [sparse, dense] = solve_both(&lp);
        let (sparse, dense) = (sparse.unwrap(), dense.unwrap());
        prop_assert!(
            (sparse.objective_value - dense.objective_value).abs() < AGREEMENT_TOLERANCE,
            "sparse {} vs dense {}", sparse.objective_value, dense.objective_value
        );
        let expected = geometric_optimum(n, alpha);
        prop_assert!((sparse.objective_value - expected).abs() < 1e-6);
    }
}
