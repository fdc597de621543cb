//! Two-phase primal simplex drivers and the options shared between them.
//!
//! Every solve runs one route: the revised simplex over the CSC constraint
//! matrix, with the basis inverse held as a sparse LU factorisation updated in
//! place by Forrest–Tomlin rank-one updates and refactorised periodically, so
//! per-pivot cost is `O(nnz)` (see [`crate::revised`] and [`crate::lu`]).
//! Phase 2 prices with projected steepest edge, and both phases fall back from
//! their scoring rule to Bland's rule after a run of degenerate pivots.
//!
//! The classic dense full-tableau method (`O(rows · cols)` per pivot) is kept
//! only as the oracle the revised simplex is tested against, reachable through
//! [`LinearProgram::solve_dense_reference`].  Both share standardisation, the
//! anti-cycling fallback and termination behaviour, so they report the same
//! optima (the backend-agreement integration tests assert this).

use serde::{Deserialize, Serialize};

use crate::error::SimplexError;
use crate::model::LinearProgram;
use crate::revised;
use crate::solution::{Solution, SolveStatus};
use crate::standard::{standardize, StandardForm};
use crate::tableau::Tableau;

/// Consecutive degenerate pivots tolerated before the entering rule falls
/// back to Bland's rule (it returns to the scoring rule after the next
/// improving pivot).
const DEGENERATE_THRESHOLD: usize = 64;

/// Which form of the linear program the revised simplex pivots on.
///
/// The mechanism-design LPs have ~2x more constraint rows than columns, so
/// their **dual** has a basis half the size — and because every cost is
/// non-negative, `y = 0` is dual-feasible, which makes Phase 1 vanish in dual
/// form.  [`crate::dual`] builds the dual, solves it with the ordinary
/// machinery, and maps the dual-optimal basis back to a primal-optimal one by
/// complementary slackness, so [`Solution::optimal_basis`](crate::Solution)
/// stays expressed in the *primal* standard form either way: warm starts,
/// serialized bases, and α-family seeding are form-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum LpForm {
    /// Decide per problem: solve tall programs (rows ≥ 1.5 · cols and at
    /// least [`LpForm::AUTO_MIN_ROWS`] rows, no two-sided variable bounds)
    /// in dual form, everything else in primal form.  The default.
    #[default]
    Auto,
    /// Always pivot on the primal (the pre-dual behaviour).
    Primal,
    /// Pivot on the dual whenever the program is eligible (sparse backend,
    /// at least one row and one structural column).  An ineligible or
    /// numerically unlucky dual attempt silently falls back to the primal
    /// path — [`SolveStats::form`] reports which form actually ran.
    Dual,
}

impl LpForm {
    /// Minimum row count before [`LpForm::Auto`] considers the dual form:
    /// below this the whole solve is milliseconds and the extra
    /// dualize/certify factorisations are pure overhead.
    pub const AUTO_MIN_ROWS: usize = 512;
}

impl std::fmt::Display for LpForm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpForm::Auto => write!(f, "auto"),
            LpForm::Primal => write!(f, "primal"),
            LpForm::Dual => write!(f, "dual"),
        }
    }
}

/// Options controlling a solve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolveOptions {
    /// Hard cap on the total number of pivots across both phases.
    pub max_iterations: usize,
    /// Absolute tolerance used for reduced costs, ratio tests, and feasibility checks.
    pub tolerance: f64,
    /// Seed the solve from this standard-form basis (one column index per
    /// constraint row, as reported by
    /// [`Solution::optimal_basis`](crate::Solution::optimal_basis) of an
    /// earlier solve of an *identically shaped* program).  A valid, dual-feasible
    /// seed skips Phase 1 entirely and replaces most of Phase 2 with a short
    /// **dual simplex** cleanup; a seed that is malformed, singular, or
    /// dual-infeasible silently falls back to the ordinary two-phase primal
    /// path ([`SolveStats::warm_started`] reports which path ran).
    #[serde(default)]
    pub warm_basis: Option<Vec<usize>>,
    /// Run the LP presolve pipeline (aliasing, singleton/empty/duplicate row
    /// elimination, fixed-variable substitution) before standardising.  The
    /// reductions are deterministic, so warm bases and the design cache stay
    /// consistent across runs with the same setting; disable only to compare
    /// against the raw formulation.  [`SolveStats::presolve_rows_removed`] and
    /// [`SolveStats::presolve_cols_removed`] report what it accomplished.
    #[serde(default = "default_presolve")]
    pub presolve: bool,
    /// Which form of the LP to pivot on (see [`LpForm`]).  [`LpForm::Auto`]
    /// (the default) solves tall programs in dual form; a warm seed composes
    /// with either choice — in dual form the stored primal-optimal basis is
    /// mapped to a dual-feasible seed by complementary slackness, so α-sweeps
    /// chain warm in dual form too.
    #[serde(default)]
    pub form: LpForm,
}

// Referenced by the string path in the `#[serde(default = "...")]` attribute
// above; rustc's dead-code pass cannot see through that.
#[allow(dead_code)]
fn default_presolve() -> bool {
    true
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            max_iterations: 500_000,
            tolerance: 1e-9,
            warm_basis: None,
            presolve: true,
            form: LpForm::default(),
        }
    }
}

impl SolveOptions {
    /// Options for a problem with `num_variables` LP variables: the defaults
    /// with a pivot budget scaled to the variable count (~60 pivots per
    /// variable comfortably covers the observed worst case — degenerate
    /// constrained designs pivot ≈ 3x columns).  Chain the `with_*` builders
    /// below to override a single knob without re-deriving the rest:
    ///
    /// ```
    /// use cpm_simplex::{LpForm, SolveOptions};
    /// let options = SolveOptions::tuned(4_096).with_form(LpForm::Primal);
    /// assert_eq!(options.form, LpForm::Primal);
    /// assert!(options.max_iterations >= 60 * 4_096);
    /// ```
    pub fn tuned(num_variables: usize) -> Self {
        SolveOptions {
            max_iterations: 500_000usize.max(60 * num_variables),
            ..SolveOptions::default()
        }
    }

    /// Builder: replace [`SolveOptions::max_iterations`].
    #[must_use]
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Builder: replace [`SolveOptions::warm_basis`].
    #[must_use]
    pub fn with_warm_basis(mut self, warm_basis: Option<Vec<usize>>) -> Self {
        self.warm_basis = warm_basis;
        self
    }

    /// Builder: replace [`SolveOptions::form`].
    #[must_use]
    pub fn with_form(mut self, form: LpForm) -> Self {
        self.form = form;
        self
    }
}

/// Statistics about a completed solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SolveStats {
    /// Pivots performed in Phase 1 (finding a feasible basis).
    pub phase1_iterations: usize,
    /// Pivots performed in Phase 2 (optimising the user objective).
    pub phase2_iterations: usize,
    /// Number of pivots that were degenerate (did not change the objective).
    pub degenerate_pivots: usize,
    /// Number of times the entering rule fell back to Bland's rule.
    pub bland_activations: usize,
    /// Number of artificial variables that were required.
    pub artificial_variables: usize,
    /// How many full LU factorisations of the basis were performed (the
    /// initial one, the periodic rebuilds, and any repairs).  This is
    /// deliberately **not** the pivot count — each pivot between
    /// factorisations is a rank-one update, reported separately in
    /// [`SolveStats::basis_updates`].  Zero for the dense reference.
    pub refactorizations: usize,
    /// Total Forrest–Tomlin rank-one basis updates applied across the solve
    /// (one per pivot that did not trigger a refactorisation).
    pub basis_updates: usize,
    /// How many numerical breakdowns were repaired by rebuilding the
    /// factorisation (possibly from the last good basis) instead of aborting
    /// the solve.
    pub basis_repairs: usize,
    /// How many times the projected steepest-edge reference framework was
    /// rebuilt because an entering column's stored weight disagreed with the
    /// exact projected norm of its FTRANed column, or a basis repair
    /// invalidated the weights.
    #[serde(default)]
    pub steepest_edge_resets: usize,
    /// Boxed nonbasic variables flipped to their opposite bound by the
    /// long-step ratio tests instead of being pivoted through the basis.
    #[serde(default)]
    pub bound_flips: usize,
    /// Constraint rows removed by presolve before standardisation.
    #[serde(default)]
    pub presolve_rows_removed: usize,
    /// Variables eliminated by presolve (fixed, aliased, or empty) before
    /// standardisation.
    #[serde(default)]
    pub presolve_cols_removed: usize,
    /// Dual-simplex pivots performed by a warm-started solve before the
    /// primal cleanup confirmed optimality.  Zero for cold solves (and for
    /// warm seeds that fell back to the primal path).
    #[serde(default)]
    pub dual_iterations: usize,
    /// Whether this solve was produced by the warm-start path (a seeded basis
    /// plus a dual-simplex cleanup) rather than the two-phase primal method.
    #[serde(default)]
    pub warm_started: bool,
    /// Which form of the LP the pivots ran on.  [`LpForm::Dual`] means the
    /// dualized program was solved and its optimal basis mapped back to the
    /// primal by complementary slackness; `phase1_iterations` /
    /// `phase2_iterations` then count the dual-form pivots plus the primal
    /// certification cleanup.  Always `Primal` or `Dual` in a reported stat —
    /// never `Auto` (that is an *options* value, resolved before the solve).
    #[serde(default = "default_stats_form")]
    pub form: LpForm,
}

// Pre-dual snapshots carry no `form` field; every solve they describe ran on
// the primal.  (Referenced by the serde attribute string above.)
#[allow(dead_code)]
fn default_stats_form() -> LpForm {
    LpForm::Primal
}

/// Outcome of running simplex iterations to optimality on one phase.
pub(crate) enum PhaseOutcome {
    /// No improving column remains.
    Optimal,
    /// An improving column has no blocking row.
    Unbounded,
}

/// Book-keeping shared by both backends: remaining pivot budget, statistics, and
/// the fallback to Bland's rule after [`DEGENERATE_THRESHOLD`] consecutive
/// degenerate pivots.
pub(crate) struct PivotState {
    pub iterations_left: usize,
    pub stats: SolveStats,
    pub using_bland: bool,
    degenerate_streak: usize,
}

impl PivotState {
    pub fn new(options: &SolveOptions) -> Self {
        PivotState {
            iterations_left: options.max_iterations,
            stats: SolveStats {
                // The dual path overrides this after merging its own counters.
                form: LpForm::Primal,
                ..SolveStats::default()
            },
            using_bland: false,
            degenerate_streak: 0,
        }
    }

    /// Reset the per-phase Bland fallback (each phase starts on the scoring rule).
    pub fn start_phase(&mut self) {
        self.using_bland = false;
        self.degenerate_streak = 0;
    }

    /// Record one pivot and update the Bland fallback.
    pub fn record_pivot(&mut self, nondegenerate: bool) {
        self.iterations_left -= 1;
        if nondegenerate {
            self.degenerate_streak = 0;
            self.using_bland = false;
        } else {
            self.stats.degenerate_pivots += 1;
            self.degenerate_streak += 1;
            if !self.using_bland && self.degenerate_streak >= DEGENERATE_THRESHOLD {
                self.using_bland = true;
                self.stats.bland_activations += 1;
            }
        }
    }
}

/// A standard-form optimum as produced by a backend: the point over the core
/// (structural + slack) columns plus the minimisation objective value.
pub(crate) struct SolvedPoint {
    pub z: Vec<f64>,
    pub objective: f64,
    pub stats: SolveStats,
    /// The optimal basis: one column index per row, where an index `>=` the
    /// core column count marks a redundant row whose artificial variable
    /// stayed (harmlessly) basic at zero.  `None` only when the program had
    /// no constraint rows.
    pub basis: Option<Vec<usize>>,
}

/// Solve an already-validated program.  Called by [`LinearProgram::solve_with`]
/// and, with `dense_reference` set, by
/// [`LinearProgram::solve_dense_reference`].
///
/// This is the observability choke point for the whole solver: every solve is
/// wrapped in a `simplex/lp_solve` span, completed stats are folded into the
/// global metrics registry, and a [`SimplexError::NumericalBreakdown`] that
/// *escapes* (repair budget exhausted — the recoverable ones are handled in
/// [`crate::revised`]) dumps the flight recorder to stderr.  Setting
/// `CPM_OBS_INJECT_BREAKDOWN=1` forces that terminal path without needing a
/// genuinely singular basis (used by the observability integration test; keep
/// it out of multi-test processes — it poisons every solve).
pub(crate) fn solve_prepared(
    lp: &LinearProgram,
    options: &SolveOptions,
    dense_reference: bool,
) -> Result<Solution, SimplexError> {
    let span = cpm_obs::span!("simplex", "lp_solve");
    let injected = std::env::var("CPM_OBS_INJECT_BREAKDOWN")
        .map(|v| !matches!(v.trim(), "" | "0" | "off" | "false"))
        .unwrap_or(false);
    let result = if injected {
        Err(SimplexError::NumericalBreakdown {
            context: "injected by CPM_OBS_INJECT_BREAKDOWN",
            repairs: 0,
        })
    } else {
        solve_prepared_inner(lp, options, dense_reference)
    };
    match &result {
        Ok(solution) => record_solve_metrics(&solution.stats, span.elapsed_nanos()),
        Err(SimplexError::NumericalBreakdown { context, repairs }) => {
            cpm_obs::counter!("cpm_lp_breakdowns_total").inc();
            cpm_obs::error(
                "simplex",
                format!("terminal numerical breakdown: {context} (after {repairs} repairs)"),
            );
            cpm_obs::flight::dump("solver numerical breakdown");
        }
        Err(_) => {}
    }
    result
}

/// Fold one completed solve's [`SolveStats`] into the metrics registry (see
/// the cpm-obs crate docs for the catalogue).
fn record_solve_metrics(stats: &SolveStats, solve_nanos: u64) {
    if !cpm_obs::enabled() {
        return;
    }
    if stats.form == LpForm::Dual {
        cpm_obs::counter!("cpm_lp_solves_total{form=\"dual\"}").inc();
        cpm_obs::histogram!("cpm_lp_solve_nanos{form=\"dual\"}").record(solve_nanos);
    } else {
        cpm_obs::counter!("cpm_lp_solves_total{form=\"primal\"}").inc();
        cpm_obs::histogram!("cpm_lp_solve_nanos{form=\"primal\"}").record(solve_nanos);
    }
    cpm_obs::counter!("cpm_lp_pivots_total{phase=\"primal\"}")
        .add((stats.phase1_iterations + stats.phase2_iterations) as u64);
    cpm_obs::counter!("cpm_lp_pivots_total{phase=\"dual\"}").add(stats.dual_iterations as u64);
    cpm_obs::counter!("cpm_lp_refactorizations_total").add(stats.refactorizations as u64);
    cpm_obs::counter!("cpm_lp_repairs_total").add(stats.basis_repairs as u64);
    if stats.warm_started {
        cpm_obs::counter!("cpm_lp_warm_started_total").inc();
    }
}

fn solve_prepared_inner(
    lp: &LinearProgram,
    options: &SolveOptions,
    dense_reference: bool,
) -> Result<Solution, SimplexError> {
    let presolved = if options.presolve {
        Some(crate::presolve::presolve(lp)?)
    } else {
        None
    };
    let (lp, map) = match &presolved {
        Some(pre) => (&pre.lp, Some(&pre.map)),
        None => (lp, None),
    };

    // Presolve may eliminate the entire program (every variable aliased or
    // fixed): the map alone reconstructs the optimum.
    if lp.num_variables() == 0 {
        let map = map.expect("only presolve produces an empty program");
        return Ok(Solution {
            status: SolveStatus::Optimal,
            objective_value: map.objective_offset,
            values: map.expand_values(&[]),
            stats: SolveStats {
                form: LpForm::Primal,
                presolve_rows_removed: map.rows_removed,
                presolve_cols_removed: map.cols_removed,
                ..SolveStats::default()
            },
            optimal_basis: None,
        });
    }

    // The revised simplex understands boxed columns natively (bound-flipping
    // ratio test), so two-sided bounds stay as boxes instead of extra rows;
    // the dense tableau still wants the row encoding.  The dual-form path
    // wants the row encoding too (its dualize transform folds slack columns
    // into sign bounds on `y`, which requires every primal column unboxed),
    // so the standard form is chosen together with the resolved LP form.
    // The dense tableau always pivots on the primal.
    let form = if dense_reference {
        LpForm::Primal
    } else {
        resolve_form(options, lp)
    };
    let sf = if dense_reference || form == LpForm::Dual {
        standardize(lp)
    } else {
        crate::standard::standardize_boxed(lp)
    };

    let mut solution = if sf.num_rows() == 0 {
        // No constraints: the optimum of a non-negative-variable LP is attained
        // at the lower bounds unless a negative cost runs to an open upper
        // bound, in which case it is unbounded.
        solve_unconstrained(&sf)?
    } else {
        let point = if dense_reference {
            solve_dense(&sf, options)?
        } else if form == LpForm::Dual {
            match crate::dual::solve_via_dual(&sf, options)? {
                Some(point) => point,
                // Ineligible or numerically unlucky dual attempt: the primal
                // path is always correct.  The row-encoded form is a valid
                // input for it (a superset of the boxed one).
                None => revised::solve(&sf, options)?,
            }
        } else {
            revised::solve(&sf, options)?
        };

        let values = sf.recover_values(&point.z);
        let mut objective_value = point.objective + sf.objective_constant;
        if sf.maximize {
            objective_value = -objective_value;
        }
        Solution {
            status: SolveStatus::Optimal,
            objective_value,
            values,
            stats: point.stats,
            optimal_basis: point.basis,
        }
    };

    if let Some(map) = map {
        solution.objective_value += map.objective_offset;
        solution.values = map.expand_values(&solution.values);
        solution.stats.presolve_rows_removed = map.rows_removed;
        solution.stats.presolve_cols_removed = map.cols_removed;
    }
    Ok(solution)
}

/// Resolve [`SolveOptions::form`] to the form the solve will actually run on:
/// `Auto` becomes `Dual` exactly when the (presolved) program is tall enough
/// for the half-size dual basis to pay for the dualize and certification
/// factorisations — at least [`LpForm::AUTO_MIN_ROWS`] rows and rows ≥
/// 1.5 · cols — and no variable carries two-sided bounds (boxed columns keep
/// the primal and dual standard forms, and therefore their warm-basis spaces,
/// from coinciding).
fn resolve_form(options: &SolveOptions, lp: &LinearProgram) -> LpForm {
    match options.form {
        LpForm::Primal => LpForm::Primal,
        LpForm::Dual => LpForm::Dual,
        LpForm::Auto => {
            let rows = lp.num_constraints();
            let cols = lp.num_variables();
            let boxed = lp
                .variables
                .iter()
                .any(|v| v.lower.is_finite() && v.upper.is_finite() && v.upper > v.lower);
            if rows >= LpForm::AUTO_MIN_ROWS && 2 * rows >= 3 * cols && !boxed {
                LpForm::Dual
            } else {
                LpForm::Primal
            }
        }
    }
}

/// Handle the degenerate "no constraints" case directly.
fn solve_unconstrained(sf: &StandardForm) -> Result<Solution, SimplexError> {
    // A negative-cost column runs to its upper bound — or without bound when
    // the box is open above.
    let mut z = vec![0.0; sf.num_columns()];
    for (j, &c) in sf.costs.iter().enumerate() {
        if c < 0.0 {
            if sf.upper[j].is_finite() {
                z[j] = sf.upper[j];
            } else {
                return Err(SimplexError::Unbounded);
            }
        }
    }
    let values = sf.recover_values(&z);
    let mut objective_value = sf.objective_constant
        + sf.costs
            .iter()
            .zip(z.iter())
            .map(|(&c, &v)| c * v)
            .sum::<f64>();
    if sf.maximize {
        objective_value = -objective_value;
    }
    Ok(Solution {
        status: SolveStatus::Optimal,
        objective_value,
        values,
        stats: SolveStats {
            form: LpForm::Primal,
            ..SolveStats::default()
        },
        optimal_basis: None,
    })
}

// ---------------------------------------------------------------------------
// Dense tableau reference backend.
// ---------------------------------------------------------------------------

fn solve_dense(sf: &StandardForm, options: &SolveOptions) -> Result<SolvedPoint, SimplexError> {
    let eps = options.tolerance;

    // Densify the CSC matrix and append artificial columns for rows without a
    // basic slack.
    let num_core_columns = sf.num_columns();
    let num_artificials = sf.basis_hint.iter().filter(|h| h.is_none()).count();
    let total_columns = num_core_columns + num_artificials;

    let mut rows = sf.matrix.to_dense_rows();
    for row in rows.iter_mut() {
        row.resize(total_columns, 0.0);
    }
    // Insert artificial basics in row order so that `basis[r]` lines up with row `r`.
    let mut basis = vec![usize::MAX; sf.num_rows()];
    let mut artificial_index = 0;
    for (r, hint) in sf.basis_hint.iter().enumerate() {
        match hint {
            Some(col) => basis[r] = *col,
            None => {
                let col = num_core_columns + artificial_index;
                rows[r][col] = 1.0;
                basis[r] = col;
                artificial_index += 1;
            }
        }
    }

    let mut tableau = Tableau::new(rows, sf.rhs.clone(), basis);
    let mut state = PivotState::new(options);
    state.stats.artificial_variables = num_artificials;

    // ------------------------------- Phase 1 -------------------------------
    if num_artificials > 0 {
        let mut phase1_costs = vec![0.0; total_columns];
        for cost in phase1_costs.iter_mut().skip(num_core_columns) {
            *cost = 1.0;
        }
        tableau.set_costs(&phase1_costs);
        let before = state.iterations_left;
        let outcome = run_phase(
            &mut tableau,
            options,
            eps,
            num_core_columns,
            &mut state,
            true,
        )?;
        state.stats.phase1_iterations = before - state.iterations_left;
        if matches!(outcome, PhaseOutcome::Unbounded) {
            // Phase 1 objective is bounded below by zero; unboundedness indicates a
            // numerical breakdown.
            return Err(SimplexError::NumericalBreakdown {
                context: "phase 1 of the dense tableau became unbounded",
                repairs: 0,
            });
        }
        if tableau.objective() > 1e-6 {
            return Err(SimplexError::Infeasible);
        }
        drive_out_artificials(&mut tableau, num_core_columns, eps);
    }

    // ------------------------------- Phase 2 -------------------------------
    let mut phase2_costs = sf.costs.clone();
    phase2_costs.resize(total_columns, 0.0);
    tableau.set_costs(&phase2_costs);
    state.start_phase();
    let before = state.iterations_left;
    let outcome = run_phase(
        &mut tableau,
        options,
        eps,
        num_core_columns,
        &mut state,
        false,
    )?;
    state.stats.phase2_iterations = before - state.iterations_left;
    if matches!(outcome, PhaseOutcome::Unbounded) {
        return Err(SimplexError::Unbounded);
    }

    let z = tableau.basic_solution();
    Ok(SolvedPoint {
        z: z[..num_core_columns].to_vec(),
        objective: tableau.objective(),
        stats: state.stats,
        basis: Some(tableau.basis().to_vec()),
    })
}

/// Run simplex pivots until optimality or unboundedness for the current cost row.
fn run_phase(
    tableau: &mut Tableau,
    options: &SolveOptions,
    eps: f64,
    num_core_columns: usize,
    state: &mut PivotState,
    is_phase1: bool,
) -> Result<PhaseOutcome, SimplexError> {
    // In Phase 1 artificial columns may appear in the basis (they start there) but
    // must never *re-enter* once they have left; in Phase 2 they must never enter.
    let entering_limit = if is_phase1 {
        tableau.num_cols()
    } else {
        num_core_columns
    };

    loop {
        if state.iterations_left == 0 {
            return Err(SimplexError::IterationLimit {
                limit: options.max_iterations,
            });
        }

        let entering = choose_entering(
            tableau,
            entering_limit,
            num_core_columns,
            eps,
            state.using_bland,
            is_phase1,
        );
        let Some(col) = entering else {
            return Ok(PhaseOutcome::Optimal);
        };
        let Some(row) = tableau.ratio_test(col, eps) else {
            return Ok(PhaseOutcome::Unbounded);
        };

        let nondegenerate = tableau.pivot(row, col);
        state.record_pivot(nondegenerate);
    }
}

/// Choose the entering column according to the active rule.
///
/// Artificial columns (indices `>= num_core_columns`) are never allowed to enter:
/// in Phase 1 they start basic and only ever leave, and in Phase 2 `entering_limit`
/// already excludes them.
fn choose_entering(
    tableau: &Tableau,
    entering_limit: usize,
    num_core_columns: usize,
    eps: f64,
    use_bland: bool,
    is_phase1: bool,
) -> Option<usize> {
    let limit = entering_limit.min(tableau.num_cols());
    let excluded_from = if is_phase1 { num_core_columns } else { limit };
    if use_bland {
        (0..limit)
            .filter(|&j| j < excluded_from)
            .find(|&j| tableau.reduced_cost(j) < -eps)
    } else {
        let mut best: Option<(usize, f64)> = None;
        for j in 0..limit {
            if j >= excluded_from {
                continue;
            }
            let rc = tableau.reduced_cost(j);
            if rc < -eps {
                match best {
                    None => best = Some((j, rc)),
                    Some((_, best_rc)) if rc < best_rc => best = Some((j, rc)),
                    _ => {}
                }
            }
        }
        best.map(|(j, _)| j)
    }
}

/// After Phase 1, pivot any artificial variables that are still basic (at value zero)
/// out of the basis.  Rows where this is impossible are redundant constraints; their
/// artificial stays basic at zero and is harmless because the entire row is zero on
/// the structural columns.
fn drive_out_artificials(tableau: &mut Tableau, num_core_columns: usize, eps: f64) {
    for row in 0..tableau.num_rows() {
        let basic = tableau.basis()[row];
        if basic >= num_core_columns {
            if let Some(col) = tableau.first_nonzero_in_row(row, num_core_columns, eps) {
                tableau.pivot(row, col);
            } else {
                debug_assert!(tableau.row_is_zero_up_to(row, num_core_columns, eps));
                debug_assert!(tableau.rhs(row).abs() <= 1e-6);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinearProgram, Relation};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} != {b}");
    }

    /// Solve on the revised simplex and on the dense reference, so every
    /// shared driver test exercises both implementations.
    fn solve_both(
        lp: &LinearProgram,
        options: &SolveOptions,
    ) -> [Result<Solution, SimplexError>; 2] {
        [lp.solve_with(options), lp.solve_dense_reference(options)]
    }

    /// Pre-PR-6 serialized options carry no `presolve` field and pre-dual
    /// stats carry no `form`; both must fill from their documented defaults
    /// (`true` / `Primal`), not `Default::default()` — this pins the vendored
    /// derive's `#[serde(default = "path")]` support.
    #[test]
    fn serde_defaults_for_missing_presolve_and_form_fields() {
        let mut options_json = serde_json::to_string(&SolveOptions::default()).unwrap();
        assert!(options_json.contains("\"presolve\":true"));
        options_json = options_json.replace("\"presolve\":true,", "");
        let options: SolveOptions = serde_json::from_str(&options_json).unwrap();
        assert!(options.presolve, "missing `presolve` defaults to on");

        let mut stats_json = serde_json::to_string(&SolveStats {
            form: LpForm::Dual,
            ..SolveStats::default()
        })
        .unwrap();
        assert!(stats_json.contains("\"form\":"));
        stats_json = stats_json.replace(",\"form\":\"Dual\"", "");
        assert!(
            !stats_json.contains("form"),
            "field removed from the fixture"
        );
        let stats: SolveStats = serde_json::from_str(&stats_json).unwrap();
        assert_eq!(
            stats.form,
            LpForm::Primal,
            "a pre-dual snapshot's solve ran on the primal"
        );
    }

    #[test]
    fn classic_textbook_maximisation() {
        // max 3x + 5y subject to x <= 4, 2y <= 12, 3x + 2y <= 18.
        let mut lp = LinearProgram::maximize();
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 3.0);
        lp.set_objective_coefficient(y, 5.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::LessEq, 4.0);
        lp.add_constraint(vec![(y, 2.0)], Relation::LessEq, 12.0);
        lp.add_constraint(vec![(x, 3.0), (y, 2.0)], Relation::LessEq, 18.0);
        for solution in solve_both(&lp, &SolveOptions::default()) {
            let solution = solution.unwrap();
            assert_close(solution.objective_value, 36.0);
            assert_close(solution.value(x), 2.0);
            assert_close(solution.value(y), 6.0);
        }
    }

    #[test]
    fn equality_constraints_need_phase_one() {
        // min x + 2y subject to x + y = 10, x - y >= 2.
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Equal, 10.0);
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::GreaterEq, 2.0);
        for solution in solve_both(&lp, &SolveOptions::default()) {
            let solution = solution.unwrap();
            // Optimal at y = 0, x = 10 -> objective 10.
            assert_close(solution.objective_value, 10.0);
            assert_close(solution.value(x), 10.0);
            assert_close(solution.value(y), 0.0);
            assert!(solution.stats.artificial_variables >= 1);
        }
    }

    #[test]
    fn infeasible_program_is_detected() {
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable("x");
        lp.add_constraint(vec![(x, 1.0)], Relation::LessEq, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::GreaterEq, 2.0);
        for result in solve_both(&lp, &SolveOptions::default()) {
            assert_eq!(result.unwrap_err(), SimplexError::Infeasible);
        }
    }

    #[test]
    fn unbounded_program_is_detected() {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_variable("x");
        lp.set_objective_coefficient(x, 1.0);
        lp.add_constraint(vec![(x, -1.0)], Relation::LessEq, 1.0);
        for result in solve_both(&lp, &SolveOptions::default()) {
            assert_eq!(result.unwrap_err(), SimplexError::Unbounded);
        }
    }

    #[test]
    fn unconstrained_minimisation_sits_at_lower_bounds() {
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable_with_bounds("x", 2.0, f64::INFINITY);
        lp.set_objective_coefficient(x, 3.0);
        let solution = lp.solve().unwrap();
        assert_close(solution.objective_value, 6.0);
        assert_close(solution.value(x), 2.0);
    }

    #[test]
    fn unconstrained_with_negative_cost_is_unbounded() {
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable("x");
        lp.set_objective_coefficient(x, -1.0);
        assert_eq!(lp.solve().unwrap_err(), SimplexError::Unbounded);
    }

    #[test]
    fn degenerate_problem_terminates_with_anticycling_rules() {
        // Beale's classic cycling example: the pure Dantzig rule cycles forever
        // on this instance, so termination relies on the fallback to Bland's
        // rule after a run of degenerate pivots.  The optimum is -0.05.
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
            vec![(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
            Relation::LessEq,
            0.0,
        );
        lp.add_constraint(
            vec![(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
            Relation::LessEq,
            0.0,
        );
        lp.add_constraint(vec![(x3, 1.0)], Relation::LessEq, 1.0);
        for solution in solve_both(&lp, &SolveOptions::default()) {
            assert_close(solution.unwrap().objective_value, -0.05);
        }
    }

    #[test]
    fn redundant_equalities_are_tolerated() {
        // x + y = 4 stated twice; the second row becomes redundant after Phase 1.
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 3.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Equal, 4.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Equal, 4.0);
        for solution in solve_both(&lp, &SolveOptions::default()) {
            let solution = solution.unwrap();
            assert_close(solution.objective_value, 4.0);
            assert_close(solution.value(x), 4.0);
        }
    }

    #[test]
    fn stats_are_populated() {
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Equal, 2.0);
        let solution = lp.solve().unwrap();
        assert!(solution.stats.phase1_iterations + solution.stats.phase2_iterations >= 1);
        assert_eq!(solution.stats.artificial_variables, 1);
        // LU accounting: the initial factorisation always runs, every pivot is
        // a rank-one update, and a clean solve needs no repairs.
        assert!(solution.stats.refactorizations >= 1);
        assert!(solution.stats.basis_updates >= 1);
        // Every recorded pivot is a rank-one update (driving residual
        // artificials out after Phase 1 may add a few more).
        assert!(
            solution.stats.basis_updates
                >= solution.stats.phase1_iterations + solution.stats.phase2_iterations
        );
        assert_eq!(solution.stats.basis_repairs, 0);
    }

    #[test]
    fn iteration_limit_is_enforced() {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 3.0);
        lp.set_objective_coefficient(y, 5.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::LessEq, 4.0);
        lp.add_constraint(vec![(y, 2.0)], Relation::LessEq, 12.0);
        lp.add_constraint(vec![(x, 3.0), (y, 2.0)], Relation::LessEq, 18.0);
        let options = SolveOptions::default().with_max_iterations(1);
        for result in solve_both(&lp, &options) {
            assert!(matches!(
                result.unwrap_err(),
                SimplexError::IterationLimit { limit: 1 }
            ));
        }
    }
}
