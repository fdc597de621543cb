//! Criterion bench: the cold-solve hot path — presolve on vs off on the
//! constrained (weak-honesty) family whose singleton rows presolve folds into
//! bounds.
//!
//! Headline numbers from this bench (and the one-shot n = 128 / n = 256 runs
//! of the `backend_scaling` bin) live in BENCHMARKS.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cpm_core::prelude::*;
use cpm_simplex::SolveOptions;

/// Group sizes for the presolve on/off comparison on constrained designs.
const PRESOLVE_SWEEP: [usize; 3] = [8, 16, 32];

fn bench_presolve(c: &mut Criterion) {
    let alpha = Alpha::new(0.9).unwrap();
    let mut group = c.benchmark_group("cold_solve_presolve");
    group.sample_size(10);
    for &n in &PRESOLVE_SWEEP {
        let problem = DesignProblem::constrained(n, alpha, Objective::l0(), wm_properties());
        for (label, presolve) in [("presolve_on", true), ("presolve_off", false)] {
            let options = SolveOptions {
                presolve,
                ..problem.recommended_options()
            };
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| {
                    problem
                        .solve_with(&options)
                        .expect("constrained cold solve")
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_presolve);
criterion_main!(benches);
