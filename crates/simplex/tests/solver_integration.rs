//! Integration and property-based tests for the simplex solver.

use cpm_simplex::{LinearProgram, Relation, SimplexError, SolveOptions, SolveStatus};
use proptest::prelude::*;

fn assert_close(a: f64, b: f64, tol: f64) {
    assert!((a - b).abs() < tol, "{a} != {b} (tol {tol})");
}

#[test]
fn diet_style_problem() {
    // min 0.6 x1 + 0.35 x2
    // s.t. 5 x1 + 7 x2 >= 8
    //      4 x1 + 2 x2 >= 15
    //      2 x1 + 1 x2 >= 3
    let mut lp = LinearProgram::minimize();
    let x1 = lp.add_variable("x1");
    let x2 = lp.add_variable("x2");
    lp.set_objective_coefficient(x1, 0.6);
    lp.set_objective_coefficient(x2, 0.35);
    lp.add_constraint(vec![(x1, 5.0), (x2, 7.0)], Relation::GreaterEq, 8.0);
    lp.add_constraint(vec![(x1, 4.0), (x2, 2.0)], Relation::GreaterEq, 15.0);
    lp.add_constraint(vec![(x1, 2.0), (x2, 1.0)], Relation::GreaterEq, 3.0);
    let solution = lp.solve().unwrap();
    assert_eq!(solution.status, SolveStatus::Optimal);
    // Optimum: x1 = 3.75, x2 = 0 -> 2.25.
    assert_close(solution.objective_value, 2.25, 1e-7);
    assert_close(solution.value(x1), 3.75, 1e-7);
    assert_close(solution.value(x2), 0.0, 1e-7);
}

#[test]
fn transportation_problem_with_equalities() {
    // Two supplies (10, 20), two demands (15, 15); costs [[2, 3], [4, 1]].
    // Optimal: ship 10 from s0->d0, 5 from s1->d0, 15 from s1->d1 => 20 + 20 + 15 = 55.
    let mut lp = LinearProgram::minimize();
    let x00 = lp.add_variable("x00");
    let x01 = lp.add_variable("x01");
    let x10 = lp.add_variable("x10");
    let x11 = lp.add_variable("x11");
    for (v, c) in [(x00, 2.0), (x01, 3.0), (x10, 4.0), (x11, 1.0)] {
        lp.set_objective_coefficient(v, c);
    }
    lp.add_constraint(vec![(x00, 1.0), (x01, 1.0)], Relation::Equal, 10.0);
    lp.add_constraint(vec![(x10, 1.0), (x11, 1.0)], Relation::Equal, 20.0);
    lp.add_constraint(vec![(x00, 1.0), (x10, 1.0)], Relation::Equal, 15.0);
    lp.add_constraint(vec![(x01, 1.0), (x11, 1.0)], Relation::Equal, 15.0);
    let solution = lp.solve().unwrap();
    assert_close(solution.objective_value, 55.0, 1e-7);
    assert_close(solution.value(x00), 10.0, 1e-7);
    assert_close(solution.value(x10), 5.0, 1e-7);
    assert_close(solution.value(x11), 15.0, 1e-7);
}

#[test]
fn probability_simplex_minimisation_picks_cheapest_vertex() {
    // min c'p subject to sum p = 1, p >= 0: the optimum is the smallest cost.
    let costs = [3.0, 1.5, 2.0, 0.25, 4.0];
    let mut lp = LinearProgram::minimize();
    let vars = lp.add_variables("p", costs.len());
    for (v, c) in vars.iter().zip(costs.iter()) {
        lp.set_objective_coefficient(*v, *c);
    }
    lp.add_constraint(vars.iter().map(|&v| (v, 1.0)), Relation::Equal, 1.0);
    let solution = lp.solve().unwrap();
    assert_close(solution.objective_value, 0.25, 1e-9);
    assert_close(solution.value(vars[3]), 1.0, 1e-9);
}

#[test]
fn all_pivot_rules_agree_on_objective() {
    let build = || {
        let mut lp = LinearProgram::minimize();
        let vars = lp.add_variables("x", 6);
        for (i, v) in vars.iter().enumerate() {
            lp.set_objective_coefficient(*v, (i as f64) - 2.5);
        }
        lp.add_constraint(vars.iter().map(|&v| (v, 1.0)), Relation::Equal, 3.0);
        for w in vars.windows(2) {
            lp.add_constraint(vec![(w[0], 1.0), (w[1], -1.0)], Relation::LessEq, 1.0);
            lp.add_constraint(vec![(w[1], 1.0), (w[0], -1.0)], Relation::LessEq, 1.0);
        }
        (lp, vars)
    };
    // The revised simplex (Dantzig Phase 1, steepest-edge Phase 2) and the
    // dense reference (Dantzig throughout), each with the Bland fallback.
    let (lp, _) = build();
    let options = SolveOptions::default();
    let revised = lp.solve_with(&options).unwrap().objective_value;
    let dense = lp.solve_dense_reference(&options).unwrap().objective_value;
    assert_close(revised, dense, 1e-7);
}

#[test]
fn bounded_variables_respect_their_box() {
    // max x + y with 1 <= x <= 2, 0 <= y <= 3 and x + y <= 4.
    let mut lp = LinearProgram::maximize();
    let x = lp.add_variable_with_bounds("x", 1.0, 2.0);
    let y = lp.add_variable_with_bounds("y", 0.0, 3.0);
    lp.set_objective_coefficient(x, 1.0);
    lp.set_objective_coefficient(y, 1.0);
    lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::LessEq, 4.0);
    let solution = lp.solve().unwrap();
    assert_close(solution.objective_value, 4.0, 1e-9);
    assert!(solution.value(x) >= 1.0 - 1e-9 && solution.value(x) <= 2.0 + 1e-9);
    assert!(solution.value(y) >= -1e-9 && solution.value(y) <= 3.0 + 1e-9);
}

#[test]
fn duplicate_terms_are_summed() {
    // 2x expressed as x + x.
    let mut lp = LinearProgram::minimize();
    let x = lp.add_variable("x");
    lp.set_objective_coefficient(x, 1.0);
    lp.add_constraint(vec![(x, 1.0), (x, 1.0)], Relation::GreaterEq, 6.0);
    let solution = lp.solve().unwrap();
    assert_close(solution.value(x), 3.0, 1e-9);
}

#[test]
fn infeasible_bounds_vs_constraints() {
    let mut lp = LinearProgram::minimize();
    let x = lp.add_variable_with_bounds("x", 0.0, 1.0);
    lp.add_constraint(vec![(x, 1.0)], Relation::GreaterEq, 5.0);
    assert_eq!(lp.solve().unwrap_err(), SimplexError::Infeasible);
}

// ------------------------- property-based tests -------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For the probability-simplex LP `min c'p, sum p = 1, p >= 0` the optimum is
    /// always `min_i c_i`, whatever the costs are.
    #[test]
    fn prop_simplex_vertex_optimum(costs in proptest::collection::vec(0.0f64..100.0, 1..12)) {
        let mut lp = LinearProgram::minimize();
        let vars = lp.add_variables("p", costs.len());
        for (v, c) in vars.iter().zip(costs.iter()) {
            lp.set_objective_coefficient(*v, *c);
        }
        lp.add_constraint(vars.iter().map(|&v| (v, 1.0)), Relation::Equal, 1.0);
        let solution = lp.solve().unwrap();
        let best = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert!((solution.objective_value - best).abs() < 1e-7);
        let total: f64 = solution.values.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-7);
        prop_assert!(solution.values.iter().all(|&v| v >= -1e-9));
    }

    /// Randomly generated `<=` programs with non-negative coefficients and rhs are
    /// always feasible (x = 0) and bounded when costs are non-negative, and the
    /// solver must return a feasible point no worse than the origin.
    #[test]
    fn prop_nonnegative_le_programs_are_solved(
        rows in proptest::collection::vec(
            proptest::collection::vec(0.0f64..5.0, 4),
            1..8,
        ),
        rhs in proptest::collection::vec(0.0f64..10.0, 8),
        costs in proptest::collection::vec(0.0f64..3.0, 4),
    ) {
        let mut lp = LinearProgram::minimize();
        let vars = lp.add_variables("x", 4);
        for (v, c) in vars.iter().zip(costs.iter()) {
            lp.set_objective_coefficient(*v, *c);
        }
        for (i, row) in rows.iter().enumerate() {
            let terms: Vec<_> = vars.iter().zip(row.iter()).map(|(&v, &a)| (v, a)).collect();
            lp.add_constraint(terms, Relation::LessEq, rhs[i.min(rhs.len() - 1)]);
        }
        let solution = lp.solve().unwrap();
        // With non-negative costs the origin is optimal, so the optimum is 0.
        prop_assert!(solution.objective_value.abs() < 1e-7);
        // The returned point must satisfy every constraint.
        for (i, row) in rows.iter().enumerate() {
            let lhs: f64 = row.iter().zip(solution.values.iter()).map(|(a, x)| a * x).sum();
            prop_assert!(lhs <= rhs[i.min(rhs.len() - 1)] + 1e-7);
        }
    }

    /// The solver's optimum for `max c'x, Ax <= b, x >= 0` must match a brute-force
    /// scan over the vertices of a tiny 2-variable polytope (enumerated via pairwise
    /// constraint intersections).
    #[test]
    fn prop_two_variable_max_matches_vertex_enumeration(
        a in proptest::collection::vec((0.1f64..4.0, 0.1f64..4.0, 1.0f64..20.0), 2..5),
        c0 in 0.1f64..5.0,
        c1 in 0.1f64..5.0,
    ) {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, c0);
        lp.set_objective_coefficient(y, c1);
        for &(ax, ay, b) in &a {
            lp.add_constraint(vec![(x, ax), (y, ay)], Relation::LessEq, b);
        }
        let solution = lp.solve().unwrap();

        // Enumerate candidate vertices: axis intersections and pairwise intersections.
        let feasible = |px: f64, py: f64| {
            px >= -1e-9
                && py >= -1e-9
                && a.iter().all(|&(ax, ay, b)| ax * px + ay * py <= b + 1e-7)
        };
        let mut best = 0.0f64; // origin
        let mut consider = |px: f64, py: f64| {
            if feasible(px, py) {
                best = best.max(c0 * px + c1 * py);
            }
        };
        for &(ax, ay, b) in &a {
            consider(b / ax, 0.0);
            consider(0.0, b / ay);
        }
        for i in 0..a.len() {
            for j in (i + 1)..a.len() {
                let (a1, b1, r1) = a[i];
                let (a2, b2, r2) = a[j];
                let det = a1 * b2 - a2 * b1;
                if det.abs() > 1e-9 {
                    let px = (r1 * b2 - r2 * b1) / det;
                    let py = (a1 * r2 - a2 * r1) / det;
                    consider(px, py);
                }
            }
        }
        prop_assert!((solution.objective_value - best).abs() < 1e-5,
            "simplex {} vs enumeration {}", solution.objective_value, best);
    }
}
