//! Differential unit tests for projected steepest-edge pricing and the
//! long-step/bound-flipping ratio test: the revised simplex must land on the
//! dense oracle's optimum, and boxed LPs must flip bounds instead of pivoting
//! where the long step applies.

// The grid construction mirrors the paper's double-subscript notation; explicit
// index loops are clearer than iterator chains here.
#![allow(clippy::needless_range_loop)]

use cpm_simplex::{LinearProgram, Relation, SolveOptions, VariableId};

/// The BASICDP-shaped grid LP from the mechanism formulation (see
/// `mechanism_shaped_lps.rs`): degenerate, ratio-coupled, equality-normalised.
fn dp_lp(n: usize, alpha: f64) -> LinearProgram {
    let dim = n + 1;
    let mut lp = LinearProgram::minimize();
    let mut vars: Vec<Vec<VariableId>> = Vec::with_capacity(dim);
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
        let terms: Vec<_> = (0..dim).map(|i| (vars[i][j], 1.0)).collect();
        lp.add_constraint(terms, Relation::Equal, 1.0);
    }
    for i in 0..dim {
        for j in 0..n {
            lp.add_constraint(
                vec![(vars[i][j], 1.0), (vars[i][j + 1], -alpha)],
                Relation::GreaterEq,
                0.0,
            );
            lp.add_constraint(
                vec![(vars[i][j + 1], 1.0), (vars[i][j], -alpha)],
                Relation::GreaterEq,
                0.0,
            );
        }
    }
    lp
}

fn options() -> SolveOptions {
    SolveOptions::default().with_max_iterations(2_000_000)
}

/// Devex and Dantzig are no longer Phase-2 options: Dantzig survives as the
/// dense oracle's rule (and Phase 1's), so steepest edge is checked against
/// that, on the larger and more degenerate of the two grid instances.
#[test]
fn steepest_edge_agrees_with_devex_and_dantzig_on_the_dp_lp() {
    let lp = dp_lp(6, 0.76);
    let steepest = lp.solve_with(&options()).unwrap();
    let dantzig = lp.solve_dense_reference(&options()).unwrap();
    assert!((steepest.objective_value - dantzig.objective_value).abs() < 1e-8);
    // Phase 2 (the steepest-edge phase) must actually have pivoted.
    assert!(steepest.stats.phase2_iterations > 0);
    assert!(dantzig.stats.phase2_iterations > 0);
}

#[test]
fn steepest_edge_agrees_with_the_dense_oracle() {
    let lp = dp_lp(5, 0.62);
    let sparse = lp.solve_with(&options()).unwrap();
    let dense = lp.solve_dense_reference(&options()).unwrap();
    assert!((sparse.objective_value - dense.objective_value).abs() < 1e-8);
    assert!(sparse.stats.phase2_iterations > 0);
}

/// A pure box LP: maximise the sum of K variables in `[0, 1]` under one loose
/// aggregate cap.  Every entering variable hits its *own* upper bound before
/// the slack blocks, so the long-step ratio test should flip each one to its
/// upper bound without a single basis change.
#[test]
fn loose_caps_are_solved_by_bound_flips_not_pivots() {
    const K: usize = 12;
    let mut lp = LinearProgram::minimize();
    let vars: Vec<VariableId> = (0..K)
        .map(|i| {
            let v = lp.add_variable_with_bounds(format!("x{i}"), 0.0, 1.0);
            lp.set_objective_coefficient(v, -1.0);
            v
        })
        .collect();
    lp.add_constraint(
        vars.iter().map(|&v| (v, 1.0)),
        Relation::LessEq,
        2.0 * K as f64,
    );
    let solution = lp.solve_with(&options()).unwrap();
    assert!((solution.objective_value - -(K as f64)).abs() < 1e-9);
    for &v in &vars {
        assert!((solution.value(v) - 1.0).abs() < 1e-9);
    }
    assert!(
        solution.stats.bound_flips >= K,
        "every variable should reach its box by flipping (flips: {}, pivots: {})",
        solution.stats.bound_flips,
        solution.stats.phase1_iterations + solution.stats.phase2_iterations
    );
    assert_eq!(solution.stats.phase1_iterations, 0);
}

/// With a *tight* cap the flips can no longer finish the job: some variables
/// must enter the basis, and the optimum sits on the cap.  Flip-enabled and
/// dense solves must agree exactly.
#[test]
fn tight_caps_mix_flips_and_pivots_and_agree_with_dense() {
    const K: usize = 8;
    let cap = 4.5;
    let mut lp = LinearProgram::minimize();
    let vars: Vec<VariableId> = (0..K)
        .map(|i| {
            let v = lp.add_variable_with_bounds(format!("x{i}"), 0.0, 1.0);
            // Distinct costs make the optimum unique: fill the cheapest first.
            lp.set_objective_coefficient(v, -(K as f64 - i as f64));
            v
        })
        .collect();
    lp.add_constraint(vars.iter().map(|&v| (v, 1.0)), Relation::LessEq, cap);
    let sparse = lp.solve_with(&options()).unwrap();
    let dense = lp.solve_dense_reference(&options()).unwrap();
    // Greedy closed form: x0..x3 = 1, x4 = 0.5 -> -(8+7+6+5) - 4*0.5.
    let expected = -(8.0 + 7.0 + 6.0 + 5.0) - 4.0 * 0.5;
    assert!((sparse.objective_value - expected).abs() < 1e-9);
    assert!((sparse.objective_value - dense.objective_value).abs() < 1e-9);
    assert!(
        sparse.stats.bound_flips > 0,
        "the cheap prefix should still arrive by flipping (stats: {:?})",
        sparse.stats
    );
}
