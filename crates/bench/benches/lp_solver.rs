//! Criterion bench: building and solving the constrained mechanism-design LPs
//! on the production solver route.
//!
//! The paper reports that solving its LPs is "negligible (sub-second)" at paper
//! scale (n ≤ ~20); this bench verifies the same holds for this reproduction and
//! measures how far the solver scales.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cpm_core::prelude::*;
use cpm_simplex::SolveOptions;

/// Group sizes swept by the build benchmark.
const SWEEP: [usize; 5] = [8, 16, 32, 64, 128];
/// Group sizes the solver is asked to *solve*.
const SOLVE_SWEEP: [usize; 4] = [8, 16, 32, 64];

fn bench_unconstrained_solves(c: &mut Criterion) {
    let alpha = Alpha::new(0.9).unwrap();
    let mut group = c.benchmark_group("lp_solve_unconstrained");
    group.sample_size(10);
    for &n in &SOLVE_SWEEP {
        let problem = DesignProblem::unconstrained(n, alpha, Objective::l0());
        let options = SolveOptions::tuned((n + 1) * (n + 1)).with_max_iterations(5_000_000);
        group.bench_with_input(BenchmarkId::new("unconstrained_l0", n), &n, |b, _| {
            b.iter(|| problem.solve_with(&options).expect("unconstrained solve"))
        });
    }
    group.finish();
}

fn bench_constrained_solves(c: &mut Criterion) {
    let alpha = Alpha::new(0.9).unwrap();
    let mut group = c.benchmark_group("lp_solve_constrained");
    group.sample_size(10);
    for &n in &[8usize, 16, 32] {
        group.bench_with_input(BenchmarkId::new("wm_wh_rm_cm", n), &n, |b, &n| {
            b.iter(|| optimal_constrained(n, alpha, Objective::l0(), wm_properties()).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("all_properties", n), &n, |b, &n| {
            b.iter(|| optimal_constrained(n, alpha, Objective::l0(), PropertySet::all()).unwrap())
        });
    }
    group.finish();
}

fn bench_lp_build_only(c: &mut Criterion) {
    let alpha = Alpha::new(0.9).unwrap();
    let mut group = c.benchmark_group("lp_build");
    for &n in &SWEEP {
        group.bench_with_input(BenchmarkId::new("build_all_properties", n), &n, |b, &n| {
            let problem = DesignProblem::constrained(n, alpha, Objective::l0(), PropertySet::all());
            b.iter(|| problem.build_lp().unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_unconstrained_solves,
    bench_constrained_solves,
    bench_lp_build_only
);
criterion_main!(benches);
