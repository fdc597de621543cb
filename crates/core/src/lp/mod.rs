//! Linear-programming based mechanism design (Sections III and IV).
//!
//! [`formulation`] builds the BASICDP linear program of Eqs. (3)–(6) over the
//! `(n+1)²` probability variables `ρ_{i,j}`, optionally extended with any subset of
//! the seven structural properties (Theorem 2), and [`DesignProblem::solve`] turns
//! the LP optimum back into a validated [`crate::Mechanism`].

pub mod formulation;

pub use formulation::{
    optimal_constrained, optimal_unconstrained, wm_properties, DesignProblem, DesignSolution,
};
