//! Golden pin for the production solver route.
//!
//! Every served design runs one route: `MechanismSpec::design` →
//! `DesignProblem::recommended_options` → `SolveOptions::tuned(n)`, i.e.
//! projected steepest-edge pricing, the Dantzig→Bland fallback after a run of
//! degenerate pivots, `LpForm::Auto` and presolve.  This test designs a fixed
//! grid of specs through that route and hashes each matrix's `f64` bits
//! together with the solve's pivot, factorisation, form and warm-start
//! statistics.  The constant was recorded before the solver's configuration
//! surface was cut down to that single route, so a change that alters which
//! pivots a design takes, or which matrix it ends on, fails here.

use cpm_core::prelude::*;
use cpm_simplex::LpForm;

/// FNV-1a over [`route_words`] for the grid in [`golden_hash`].
const GOLDEN_HASH: u64 = 0x699C_D048_3EA1_4DDE;

fn fnv1a(words: &[u64]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// The matrix bits of one design, then its solve statistics (a lone
/// `u64::MAX` marks a closed-form design, which runs no LP).
fn route_words(designed: &DesignedMechanism) -> Vec<u64> {
    let mut words: Vec<u64> = designed
        .mechanism()
        .entries()
        .iter()
        .map(|p| p.to_bits())
        .collect();
    match designed.solver_stats() {
        Some(stats) => words.extend([
            stats.phase1_iterations as u64,
            stats.phase2_iterations as u64,
            stats.dual_iterations as u64,
            stats.refactorizations as u64,
            stats.basis_updates as u64,
            u64::from(stats.form == LpForm::Dual),
            u64::from(stats.warm_started),
        ]),
        None => words.push(u64::MAX),
    }
    words
}

fn golden_hash() -> u64 {
    let property_sets = ["{}", "WH", "CM", "WH+CM", "F"];
    let mut words = Vec::new();
    for objective in [ObjectiveKey::L0, ObjectiveKey::L1] {
        for properties in property_sets {
            let properties: PropertySet = properties.parse().unwrap();
            for n in [8, 16] {
                for alpha in [0.62, 0.9] {
                    let designed = MechanismSpec::new(n, Alpha::new(alpha).unwrap())
                        .properties(properties)
                        .objective(objective)
                        .build()
                        .unwrap()
                        .design()
                        .unwrap();
                    assert!(designed
                        .mechanism()
                        .satisfies_dp(Alpha::new(alpha).unwrap(), 1e-6));
                    words.extend(route_words(&designed));
                }
            }
        }
    }
    fnv1a(&words)
}

#[test]
fn production_route_designs_match_the_golden_hash() {
    let hash = golden_hash();
    assert_eq!(
        hash, GOLDEN_HASH,
        "solver route hash {hash:#018X} differs from the recorded {GOLDEN_HASH:#018X}"
    );
}
