//! # cpm-simplex
//!
//! A small, dependency-free **sparse** linear-programming solver used by
//! [`cpm-core`](https://example.org) to solve the constrained mechanism-design LPs of
//! *"Constrained Private Mechanisms for Count Data"* (ICDE 2018).
//!
//! The paper solves all constrained designs with an off-the-shelf LP solver
//! (PyLPSolve / lp_solve).  No LP solver crate is part of the allowed offline
//! dependency set for this reproduction, so this crate implements the classic
//! **two-phase primal simplex** method along one solver route:
//!
//! * a [`LinearProgram`] model-builder API (named variables, bounds, `<=`/`>=`/`=`
//!   constraints, minimisation or maximisation objectives) storing constraints
//!   sparsely in a term arena,
//! * an **LP presolve pass** that shrinks the model before standardisation and
//!   reconstructs the full solution — values, duals, and basis — afterwards,
//! * conversion to sparse (CSC) standard form with slack / surplus / artificial
//!   variables — see [`SparseMatrix`],
//! * Phase 1 (minimise the sum of artificials) to find a basic feasible solution,
//! * Phase 2 with the user objective,
//! * the **revised simplex**: the basis inverse is a **sparse LU
//!   factorisation** maintained by Forrest–Tomlin rank-one updates, so a pivot
//!   costs `O(nnz)` instead of the dense tableau's `O(rows · cols)` — the
//!   mechanism-design LPs have only 2 to `n+1` nonzeros per row, so this is the
//!   difference between toy and production group sizes,
//! * the dense full tableau, kept only as the differential-testing oracle
//!   behind [`LinearProgram::solve_dense_reference`],
//! * **dual-simplex warm starts** ([`SolveOptions::warm_basis`]): seeding a
//!   solve with the [`Solution::optimal_basis`] of an identically shaped
//!   program skips Phase 1 entirely and replaces most of Phase 2 with a short
//!   dual cleanup (dual Devex row pricing + Harris-style dual ratio test),
//!   then certifies optimality with the ordinary primal machinery — the
//!   re-optimisation tool behind α sweeps, where one `(n, properties,
//!   objective)` family is re-solved under small coefficient perturbations.
//!   Any defective seed (wrong shape, singular, dual-infeasible) falls back
//!   to the cold primal path silently; [`SolveStats::warm_started`] and
//!   [`SolveStats::dual_iterations`] report which path ran,
//! * a **dual-form solve path** ([`SolveOptions::form`], [`LpForm`]): tall
//!   programs (the mechanism LPs have ~2x more rows than columns) are
//!   transposed by `dual.rs` and solved as `min −b'y, A'y ≤ c` — one row per
//!   primal *structural* column, so the basis is half the size, and because
//!   the mechanism costs satisfy `c ≥ 0` the all-slack start is feasible and
//!   **phase 1 vanishes**.  The dual-optimal basis maps back to a
//!   primal-optimal basis by complementary slackness and is certified with
//!   the ordinary warm-start machinery, so callers still receive primal
//!   values, duals, objective, and a warm-start-valid
//!   [`Solution::optimal_basis`].  [`SolveStats::form`] reports which form
//!   ran,
//! * a **crash-basis constructor** ([`crash_basis`]): turns a conjectured
//!   optimal point (e.g. a closed-form mechanism the caller believes is the
//!   LP's optimum) into a standard-form basis by classifying tight rows and
//!   interior columns, usable as a warm seed.  The seed is a *hint, never an
//!   answer*: it flows through the same warm-start verification as any other
//!   seed, so a wrong conjecture costs one declined factorisation and falls
//!   back to the cold path — it can never produce a wrong optimum.
//!
//! ## Architecture: the presolve → standardise → solve → postsolve pipeline
//!
//! A call to [`LinearProgram::solve`] flows through five layers:
//!
//! ```text
//! LinearProgram          model.rs      named variables, bounds, constraint arena
//!       │ presolve                     (skipped when SolveOptions::presolve = false)
//!       ▼
//! PresolvedProgram       presolve.rs   α≈1 ratio-row aliasing, singleton rows →
//!       │                              bounds, fixed-variable substitution,
//!       │                              duplicate/dominated row folding, empty
//!       │                              columns; records a postsolve map
//!       │ standardize
//!       ▼
//! StandardForm           standard.rs   min c'z, Az = b, z ≥ 0 (boxed columns keep
//!       │                sparse.rs     finite uppers), b ≥ 0; CSC matrix
//!       │                              (SparseMatrix + RowMajor mirror + SPA utils)
//!       │ LpForm::Dual (tall programs, row-encoded, Auto-picked by aspect ratio)
//!       ├──────────────▶ dual.rs       dualize: rows ↔ columns, slack columns fold
//!       │                              into y sign bounds, c ≥ 0 ⇒ all-slack start
//!       │                              (no phase 1); solve the transpose with the
//!       │                              same revised machinery below, then map the
//!       │                              dual basis back by complementary slackness
//!       │                              (basic structural column ⇔ tight dual row,
//!       │                              basic y_r ⇔ nonbasic primal slack) and
//!       │                              certify it through the warm-start path —
//!       │                              the recovered basis is primal-optimal and
//!       │                              warm-start-valid (a re-solve takes 0 pivots)
//!       ▼
//! revised simplex        revised.rs    two-phase driver, Harris two-pass +
//!       │                              long-step/bound-flipping ratio tests,
//!       │                              Dantzig (phase 1) / steepest-edge
//!       │                              (phase 2) pricing with a Bland fallback,
//!       │                              incremental reduced costs, basis
//!       │                              repair, dual-simplex warm starts
//!       ▼
//! LU basis inverse       lu.rs         Markowitz factorisation (singleton peeling
//!       │                              + threshold pivoting), Suhl–Suhl ordered
//!       │ postsolve                    sparse triangular FTRAN/BTRAN with
//!       ▼                              dense-result pattern harvest,
//! Solution               solution.rs   Forrest–Tomlin updates; postsolve expands
//!                                      values and basis back to the original model
//! ```
//!
//! Presolve (on by default via [`SolveOptions::presolve`]) targets the
//! reductions that actually occur in the mechanism LPs: weak-honesty
//! singleton rows fold into variable bounds, α = 1 DP-ratio pairs alias whole
//! variable chains, and property rows duplicated by the implication closure
//! collapse to the tightest representative.  The postsolve map restores
//! removed variables and rows so [`Solution::optimal_basis`] stays expressed
//! in the *original* standard form — warm starts and basis provenance work
//! identically with presolve on or off.  [`SolveStats::presolve_rows_removed`]
//! and [`SolveStats::presolve_cols_removed`] attribute the shrinkage.
//!
//! The LU factors are rebuilt every 64 Forrest–Tomlin updates — stretched to
//! `rows / 32` on tall problems — and whenever an update signals numerical
//! trouble (the *basis repair* path, which gives up after two consecutive
//! breakdowns with no successful update in between).
//!
//! ## Pricing and the ratio test
//!
//! The solver has one pricing route, chosen by measurement (see the
//! pricing/pivot-rule ablation in `BENCHMARKS.md`):
//!
//! | phase   | score                         | why |
//! |---------|-------------------------------|-----|
//! | Phase 1 | Dantzig: most negative reduced cost | drives the artificials out in near-minimal pivots |
//! | Phase 2 | projected steepest edge: `d_j² / ‖B⁻¹a_j‖²` exact in the reference frame, weights rebuilt on refactorisation | fewest pivots on the mechanism LPs at every measured n (8 052 against Devex's 11 592 and Dantzig's 15 937 on the cold n = 64 solve) |
//!
//! Both phases fall back to Bland's rule after 64 consecutive degenerate
//! pivots and return to their scoring rule after the next improving pivot,
//! which guarantees termination.  The leaving side always runs the Harris
//! two-pass ratio test extended with long-step **bound flips**: when the
//! tightest limit is the entering (or a passing boxed) variable's *opposite
//! bound*, the variable flips across its box without a basis change
//! ([`SolveStats::bound_flips`]).  The dual warm-start path prices its
//! leaving row with dual Devex weights.
//!
//! What a caller can still set is [`SolveOptions`]: the pivot budget, the
//! tolerance, a warm basis, presolve, and the LP form.  `cpm-core`'s
//! `recommended_options` scales the pivot budget to `60 · dim²` through
//! [`SolveOptions::tuned`].  [`SolveStats`] reports factorisations, rank-one
//! updates, repairs, bound flips, and steepest-edge framework resets
//! ([`SolveStats::steepest_edge_resets`]) separately.
//!
//! ## Example
//!
//! ```
//! use cpm_simplex::{LinearProgram, Relation, SolveStatus};
//!
//! // minimise  -3x - 5y
//! // subject to x      <= 4
//! //                 2y <= 12
//! //            3x + 2y <= 18
//! //            x, y >= 0
//! let mut lp = LinearProgram::minimize();
//! let x = lp.add_variable("x");
//! let y = lp.add_variable("y");
//! lp.set_objective_coefficient(x, -3.0);
//! lp.set_objective_coefficient(y, -5.0);
//! lp.add_constraint(vec![(x, 1.0)], Relation::LessEq, 4.0);
//! lp.add_constraint(vec![(y, 2.0)], Relation::LessEq, 12.0);
//! lp.add_constraint(vec![(x, 3.0), (y, 2.0)], Relation::LessEq, 18.0);
//!
//! let solution = lp.solve().unwrap();
//! assert_eq!(solution.status, SolveStatus::Optimal);
//! assert!((solution.objective_value - (-36.0)).abs() < 1e-9);
//! assert!((solution.value(x) - 2.0).abs() < 1e-9);
//! assert!((solution.value(y) - 6.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dual;
mod error;
mod lu;
mod model;
mod presolve;
mod revised;
mod solution;
mod solver;
pub mod sparse;
mod standard;
mod tableau;

pub use error::SimplexError;
pub use model::{Constraint, LinearProgram, Objective, Relation, VariableId};
pub use solution::{Solution, SolveStatus};
pub use solver::{LpForm, SolveOptions, SolveStats};
pub use sparse::SparseMatrix;
pub use standard::crash_basis;
