//! Revised simplex over the sparse standard form.
//!
//! The dense tableau updates every entry of an `m × n` matrix per pivot —
//! `O(m · n)` — even though the mechanism-design LPs have only 2 to `n+1` nonzeros
//! per row.  The revised method never materialises the tableau: it keeps the
//! original CSC matrix `A` untouched and represents the basis inverse implicitly
//! through a **sparse LU factorisation** (see [`crate::lu`]), so one pivot costs
//! `O(nnz)`.
//!
//! ## Basis representation: LU factors with Forrest–Tomlin updates
//!
//! The basis matrix is factorised as `B = L·U` with Markowitz pivoting
//! (row/column-singleton peeling plus threshold pivoting on the residual bump).
//! Each simplex pivot then applies a Forrest–Tomlin rank-one **update** to the
//! factors instead of appending a product-form eta: U only ever *loses* stored
//! entries between factorisations, so FTRAN/BTRAN stay flat over long runs —
//! the property the old eta file lacked.  Every [`REFACTOR_INTERVAL`] updates
//! (stretched to `rows / 32` on tall problems) the factors are rebuilt from
//! the exact basis columns, which also bounds numerical drift.
//!
//! * **FTRAN** (`B⁻¹ a`) is a forward pass through the L operators followed by
//!   a backward sparse triangular solve with U.
//! * **BTRAN** (`y' B⁻¹`) is the transposed pair in reverse.
//!
//! ## Pricing: steepest edge with incremental reduced costs
//!
//! Outside the anti-cycling Bland fallback, the driver maintains the reduced
//! costs `d` incrementally from the pivot row of each iteration (one extra
//! BTRAN of a unit vector plus a sparse row-wise pass over `A`).  Phase 2
//! scores entering candidates by projected steepest edge, `d_j² / γ_j`, with
//! the exact reference-framework norms `γ` updated from the same pivot row;
//! Phase 1 scores by `|d_j|` (Dantzig), which drives the artificials out in
//! near-minimal pivots.  `d` is recomputed exactly at every refactorisation
//! and before optimality is declared.
//!
//! ## Basis repair
//!
//! A numerical breakdown during an update or a factorisation no longer aborts
//! the solve: the driver refactorises from scratch, falling back to the last
//! good basis if the current one is singular, up to [`MAX_REPAIRS`] times in a
//! row ([`SolveStats::basis_repairs`](crate::SolveStats::basis_repairs)
//! reports how often this fired).

use crate::error::SimplexError;
use crate::lu::LuFactors;
use crate::solver::{PhaseOutcome, PivotState, SolveOptions, SolvedPoint};
use crate::sparse::{RowMajor, SparseAccumulator};
use crate::standard::StandardForm;

/// Refactorise the basis after this many Forrest–Tomlin updates.  A floor:
/// tall problems stretch the cadence to `rows / 32`, which tracks the
/// measured optimum on the mechanism LPs.
const REFACTOR_INTERVAL: usize = 64;

/// How many *consecutive* numerical breakdowns (with no successful basis
/// update in between) may be repaired before the solve gives up with
/// [`SimplexError::NumericalBreakdown`].  Isolated breakdowns over a long run
/// each get a fresh budget.
const MAX_REPAIRS: usize = 2;

/// A dense vector paired with its nonzero pattern, as produced by the
/// hypersparse LU solves.  `dense` marks a vector whose pattern is stale —
/// a sparse solve fell back to the dense scan — so consumers must walk the
/// whole vector instead of the pattern.
#[derive(Clone)]
struct PatVec {
    values: Vec<f64>,
    pattern: Vec<usize>,
    dense: bool,
}

impl PatVec {
    fn new(len: usize) -> Self {
        PatVec {
            values: vec![0.0; len],
            pattern: Vec::new(),
            dense: false,
        }
    }

    /// Zero the vector, using the pattern when it is trustworthy.
    fn clear(&mut self) {
        if self.dense {
            self.values.fill(0.0);
            self.dense = false;
        } else {
            for &r in &self.pattern {
                self.values[r] = 0.0;
            }
        }
        self.pattern.clear();
    }

    /// Record a nonzero on a freshly cleared vector.
    fn set(&mut self, r: usize, v: f64) {
        self.values[r] = v;
        self.pattern.push(r);
    }
}

/// Iterate the nonzeros of a [`PatVec`] as `(index, value)` pairs, walking the
/// pattern when it is valid and the whole vector otherwise.
macro_rules! for_nz {
    ($pv:expr, $r:ident, $v:ident, $body:block) => {
        if $pv.dense {
            for ($r, &$v) in $pv.values.iter().enumerate() {
                if $v != 0.0 $body
            }
        } else {
            for &$r in $pv.pattern.iter() {
                let $v = $pv.values[$r];
                if $v != 0.0 $body
            }
        }
    };
}

/// What the (long-step) ratio test decided for an entering column.
enum RatioOutcome {
    /// No basic variable and no bound blocks the step: the program is
    /// unbounded along this column.
    Unbounded,
    /// The entering column hits its **own** opposite bound before any basic
    /// variable blocks: flip it through the box — no pivot, no factor update.
    BoundFlip,
    /// Ordinary pivot: the basic variable on `row` leaves, at its lower bound
    /// or (boxed basics only) at its upper bound.
    Pivot { row: usize, to_upper: bool },
}

/// The revised-simplex working state: basis bookkeeping, the LU factors, and
/// the current basic solution.
struct RevisedState<'a> {
    sf: &'a StandardForm,
    /// Structural + slack column count; columns `>= num_core` are artificials.
    num_core: usize,
    /// Unit row of each artificial column (`col = num_core + i`).
    artificial_rows: Vec<usize>,
    /// Basic column of each row.
    basis: Vec<usize>,
    /// Whether each column (core + artificial) is currently basic.
    in_basis: Vec<bool>,
    /// The LU factorisation of the current basis.
    lu: LuFactors,
    /// CSR mirror of the core constraint matrix, for the pivot-row pass.
    row_major: RowMajor,
    /// Current basic solution `x_B = B⁻¹ b`, indexed by row.
    xb: Vec<f64>,
    /// Basis snapshot taken at the last successful factorisation — the
    /// fallback point of the repair path.
    last_good_basis: Vec<usize>,
    /// Partial FTRAN (through the L operators only) of the last entering
    /// column — the spike consumed by the Forrest–Tomlin update — with its
    /// nonzero pattern (`spike_dense` marks a stale pattern, as in [`PatVec`]).
    spike: Vec<f64>,
    spike_pattern: Vec<usize>,
    spike_dense: bool,
    /// EWMA of the FTRAN result density (`nnz / m`), used to skip the
    /// reach-based U pass when results have been filling in anyway — the
    /// bookkeeping up to the abort point is pure overhead then.
    ftran_density: f64,
    factorizations: usize,
    total_updates: usize,
    /// Total repairs across the solve (reported in the stats).
    repairs: usize,
    /// Repairs since the last successful Forrest–Tomlin update — the value
    /// checked against [`MAX_REPAIRS`], so isolated breakdowns
    /// over a long run never exhaust the budget, while breakdowns that recur
    /// without any progress in between still terminate the solve.
    repair_streak: usize,
    /// Set when the factorisation was rebuilt: reduced costs must be
    /// recomputed before the next pricing decision.
    dirty_reduced_costs: bool,
    /// Set when a repair rolled the basis back: pricing weights must reset.
    dirty_weights: bool,
    /// Whether any core column is boxed (`sf.upper` finite); gates all the
    /// bound-side bookkeeping so unboxed programs pay nothing.
    has_boxes: bool,
    /// Nonbasic boxed core columns currently sitting at their **upper** bound
    /// (`z_j = u_j`); everything else nonbasic sits at zero.
    at_upper: Vec<bool>,
    /// `at_upper` snapshot taken with [`RevisedState::last_good_basis`] — a
    /// repair rollback must restore both or the recomputed `x_B` would belong
    /// to a different vertex.
    last_good_at_upper: Vec<bool>,
}

impl<'a> RevisedState<'a> {
    fn new(sf: &'a StandardForm) -> Result<Self, SimplexError> {
        let num_rows = sf.num_rows();
        let num_core = sf.num_columns();
        let mut artificial_rows = Vec::new();
        let mut basis = vec![usize::MAX; num_rows];
        for (r, hint) in sf.basis_hint.iter().enumerate() {
            match hint {
                Some(col) => basis[r] = *col,
                None => {
                    basis[r] = num_core + artificial_rows.len();
                    artificial_rows.push(r);
                }
            }
        }
        let mut in_basis = vec![false; num_core + artificial_rows.len()];
        for &col in &basis {
            in_basis[col] = true;
        }
        let mut state = RevisedState {
            sf,
            num_core,
            artificial_rows,
            basis: basis.clone(),
            in_basis,
            // Placeholder; replaced by the initial factorisation below (the
            // initial basis is all slacks/artificials, i.e. the identity, so
            // this cannot fail for want of pivots).
            lu: LuFactors::factor(0, &[], 1e-11)
                .expect("empty factorisation")
                .0,
            row_major: sf.matrix.to_row_major(),
            xb: sf.rhs.clone(),
            last_good_basis: basis,
            spike: vec![0.0; num_rows],
            spike_pattern: Vec::new(),
            spike_dense: false,
            ftran_density: 0.0,
            factorizations: 0,
            total_updates: 0,
            repairs: 0,
            repair_streak: 0,
            dirty_reduced_costs: false,
            dirty_weights: false,
            has_boxes: sf.upper.iter().any(|u| u.is_finite()),
            at_upper: vec![false; num_core],
            last_good_at_upper: vec![false; num_core],
        };
        state.refactorize()?;
        Ok(state)
    }

    /// A state seeded from an explicit (already validated: right length, core
    /// entries distinct) basis — the warm-start entry point.  Seed entries
    /// `>= num_core` mark rows the donor solve kept basic through an
    /// artificial variable (redundant constraints); each such row receives a
    /// fresh artificial column here.  Fails when the seeded basis is
    /// numerically singular.
    fn with_basis(sf: &'a StandardForm, seed: &[usize]) -> Result<Self, SimplexError> {
        let num_rows = sf.num_rows();
        let num_core = sf.num_columns();
        let mut artificial_rows = Vec::new();
        let mut basis = Vec::with_capacity(num_rows);
        for (r, &col) in seed.iter().enumerate() {
            if col < num_core {
                basis.push(col);
            } else {
                basis.push(num_core + artificial_rows.len());
                artificial_rows.push(r);
            }
        }
        let mut in_basis = vec![false; num_core + artificial_rows.len()];
        for &col in &basis {
            in_basis[col] = true;
        }
        let mut state = RevisedState {
            sf,
            num_core,
            artificial_rows,
            basis: basis.clone(),
            in_basis,
            lu: LuFactors::factor(0, &[], 1e-11)
                .expect("empty factorisation")
                .0,
            row_major: sf.matrix.to_row_major(),
            xb: sf.rhs.clone(),
            last_good_basis: basis,
            spike: vec![0.0; num_rows],
            spike_pattern: Vec::new(),
            spike_dense: false,
            ftran_density: 0.0,
            factorizations: 0,
            total_updates: 0,
            repairs: 0,
            repair_streak: 0,
            dirty_reduced_costs: false,
            dirty_weights: false,
            has_boxes: sf.upper.iter().any(|u| u.is_finite()),
            at_upper: vec![false; num_core],
            last_good_at_upper: vec![false; num_core],
        };
        state.refactorize()?;
        Ok(state)
    }

    /// Upper bound of a column's standard-form value (`z`), `INFINITY` for
    /// slacks without boxes and for artificials.
    #[inline]
    fn ub(&self, col: usize) -> f64 {
        if col < self.num_core {
            self.sf.upper[col]
        } else {
            f64::INFINITY
        }
    }

    fn num_rows(&self) -> usize {
        self.sf.num_rows()
    }

    fn num_artificials(&self) -> usize {
        self.artificial_rows.len()
    }

    /// The `(row, value)` entries of column `j`, covering artificials as unit
    /// columns.
    fn column_rows(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (rows, values, unit) = if j < self.num_core {
            let (rows, values) = self.sf.matrix.column_slices(j);
            (rows, values, None)
        } else {
            (
                &[][..],
                &[][..],
                Some(self.artificial_rows[j - self.num_core]),
            )
        };
        rows.iter()
            .copied()
            .zip(values.iter().copied())
            .chain(unit.map(|r| (r, 1.0)))
    }

    /// Dot product of column `j` with a dense row vector.
    fn column_dot(&self, j: usize, dense: &[f64]) -> f64 {
        if j < self.num_core {
            self.sf.matrix.column_dot(j, dense)
        } else {
            dense[self.artificial_rows[j - self.num_core]]
        }
    }

    /// FTRAN the entering column `j` into `w` (`w = B⁻¹ a_j`), saving the
    /// partial result after the L pass as the Forrest–Tomlin spike (with its
    /// pattern, so the update can stay sparse too).
    fn ftran_column(&mut self, j: usize, w: &mut PatVec) {
        w.clear();
        if j < self.num_core {
            for (r, v) in self.sf.matrix.column(j) {
                w.set(r, v);
            }
        } else {
            w.set(self.artificial_rows[j - self.num_core], 1.0);
        }
        let l_sparse = self.lu.solve_l_sparse(&mut w.values, &mut w.pattern);

        // Save the spike before the U pass.
        if self.spike_dense {
            self.spike.fill(0.0);
        } else {
            for &r in &self.spike_pattern {
                self.spike[r] = 0.0;
            }
        }
        self.spike_pattern.clear();
        if l_sparse {
            for &r in &w.pattern {
                self.spike[r] = w.values[r];
            }
            self.spike_pattern.extend_from_slice(&w.pattern);
            self.spike_dense = false;
            if self.ftran_density > 0.2 {
                self.lu.solve_u(&mut w.values);
                w.dense = true;
            } else {
                w.dense = !self.lu.solve_u_sparse(&mut w.values, &mut w.pattern);
            }
            if !w.dense {
                // Ascending row order keeps every pattern consumer (ratio-test
                // tie-breaks, FP accumulation) bitwise identical to the dense
                // scans, so the pivot trajectory is independent of which path
                // each solve took.
                w.pattern.sort_unstable();
            }
        } else {
            self.spike.copy_from_slice(&w.values);
            self.spike_dense = true;
            self.lu.solve_u(&mut w.values);
            w.dense = true;
        }
        if w.dense {
            // Harvest the nonzero pattern from the dense result: even solves
            // that densified *during elimination* usually end mostly zero on
            // these LPs, and every downstream consumer (ratio test, basic-
            // solution update, steepest-edge masking) iterates the pattern.
            // The ascending harvest order matches the dense scan order, so
            // trajectories are bitwise unchanged.
            w.pattern.clear();
            for (r, &v) in w.values.iter().enumerate() {
                if v != 0.0 {
                    w.pattern.push(r);
                }
            }
            if w.pattern.len() * 4 <= w.values.len() {
                w.dense = false;
            } else {
                w.pattern.clear();
            }
        }
        let m = w.values.len().max(1);
        let density = if w.dense {
            1.0
        } else {
            w.pattern.len() as f64 / m as f64
        };
        self.ftran_density = 0.9 * self.ftran_density + 0.1 * density;
        if !w.dense {}
    }

    /// BTRAN: overwrite `y` with `y B⁻¹` (dense — used for full cost vectors).
    fn btran(&self, y: &mut [f64]) {
        self.lu.btran(y);
    }

    /// Sparse BTRAN of the unit vector `e_row` into `rho` — the pivot-row
    /// transform `ρ' = e_r' B⁻¹`.
    fn btran_unit(&mut self, row: usize, rho: &mut PatVec) {
        rho.clear();
        rho.set(row, 1.0);
        rho.dense = !self.lu.btran_sparse(&mut rho.values, &mut rho.pattern);
        if !rho.dense {
            rho.pattern.sort_unstable(); // see ftran_column on why
        } else {
            // Same dense-result pattern harvest as `ftran_column`.
            rho.pattern.clear();
            for (r, &v) in rho.values.iter().enumerate() {
                if v != 0.0 {
                    rho.pattern.push(r);
                }
            }
            if rho.pattern.len() * 4 <= rho.values.len() {
                rho.dense = false;
            } else {
                rho.pattern.clear();
            }
        }
        if !rho.dense {}
    }

    /// Bounded sparse BTRAN of an already-populated pattern vector in place
    /// (used for the masked steepest-edge reference vector `w̃`).  Returns
    /// `false` — with `v` zeroed back out — when the solve abandoned because
    /// the result densified; the caller treats the cross term as unavailable
    /// rather than paying a dense solve for an optional quantity.
    fn btran_patvec(&mut self, v: &mut PatVec) -> bool {
        debug_assert!(!v.dense);
        let cap = (2 * v.pattern.len()).max(128);
        if self
            .lu
            .btran_sparse_bounded(&mut v.values, &mut v.pattern, cap)
        {
            v.pattern.sort_unstable(); // see ftran_column on why
            true
        } else {
            false
        }
    }

    /// Ratio test.  `None` means the column is unbounded.
    ///
    /// Two variants, matching the entering rule in force:
    ///
    /// * **Bland mode** (`use_bland`): the textbook rule — exact minimum ratio,
    ///   ties broken by the smallest basic-variable index.  This is what Bland's
    ///   termination guarantee requires of the *leaving* choice, so the
    ///   anti-cycling fallback keeps its guarantee on this backend too.
    /// * **Harris mode** (default): pass 1 computes the largest step `θ` that
    ///   keeps every basic variable above `−feas_tol` (a slightly relaxed
    ///   bound); pass 2 picks, among the rows whose exact ratio fits under that
    ///   bound, the one with the **largest pivot element**.  Preferring large
    ///   pivots is what keeps the basis numerically honest over thousands of
    ///   degenerate pivots; the tiny transient infeasibility (≤ `feas_tol`) is
    ///   absorbed by the clamping in [`RevisedState::apply_pivot`] and by the
    ///   exact `x_B` recomputation at every refactorisation.
    ///
    /// Boxed extension (the *long-step* part): an entering column at its lower
    /// bound moves up (`σ = +1`), one at its upper bound moves down
    /// (`σ = −1`); basic variables move by `−σ θ w_r` and may block at either
    /// of their own bounds, and the entering column's own span `u_q` is a
    /// third limit — when it is the tightest, the column just flips to its
    /// opposite bound with no pivot at all ([`RatioOutcome::BoundFlip`]).
    fn ratio_test(&self, w: &PatVec, entering: usize, eps: f64, use_bland: bool) -> RatioOutcome {
        let sigma = if self.has_boxes && entering < self.num_core && self.at_upper[entering] {
            -1.0
        } else {
            1.0
        };
        let span = self.ub(entering);
        if use_bland {
            let mut best: Option<(usize, f64, bool)> = None;
            for_nz!(w, r, wr, {
                let delta = sigma * wr;
                let cand = if delta > eps {
                    Some((self.xb[r] / delta, false))
                } else if delta < -eps {
                    let ub = self.ub(self.basis[r]);
                    if ub.is_finite() {
                        Some(((ub - self.xb[r]) / -delta, true))
                    } else {
                        None
                    }
                } else {
                    None
                };
                if let Some((ratio, to_upper)) = cand {
                    match best {
                        None => best = Some((r, ratio, to_upper)),
                        Some((best_row, best_ratio, _)) => {
                            if ratio < best_ratio - eps
                                || (ratio < best_ratio + eps
                                    && self.basis[r] < self.basis[best_row])
                            {
                                best = Some((r, ratio, to_upper));
                            }
                        }
                    }
                }
            });
            return match best {
                Some((row, ratio, to_upper)) if ratio <= span => {
                    RatioOutcome::Pivot { row, to_upper }
                }
                _ if span.is_finite() => RatioOutcome::BoundFlip,
                Some((row, _, to_upper)) => RatioOutcome::Pivot { row, to_upper },
                None => RatioOutcome::Unbounded,
            };
        }
        let feas_tol = eps.max(1e-10);
        let mut theta_bound = f64::INFINITY;
        for_nz!(w, r, wr, {
            let delta = sigma * wr;
            if delta > eps {
                theta_bound = theta_bound.min((self.xb[r] + feas_tol) / delta);
            } else if delta < -eps {
                let ub = self.ub(self.basis[r]);
                if ub.is_finite() {
                    theta_bound = theta_bound.min((ub - self.xb[r] + feas_tol) / -delta);
                }
            }
        });
        if span < theta_bound {
            return RatioOutcome::BoundFlip;
        }
        if theta_bound.is_infinite() {
            return RatioOutcome::Unbounded;
        }
        let mut best: Option<(usize, f64, bool)> = None;
        for_nz!(w, r, wr, {
            let delta = sigma * wr;
            let cand = if delta > eps && self.xb[r] / delta <= theta_bound {
                Some(false)
            } else if delta < -eps {
                let ub = self.ub(self.basis[r]);
                if ub.is_finite() && (ub - self.xb[r]) / -delta <= theta_bound {
                    Some(true)
                } else {
                    None
                }
            } else {
                None
            };
            if let Some(to_upper) = cand {
                match best {
                    None => best = Some((r, delta.abs(), to_upper)),
                    Some((_, best_mag, _)) if delta.abs() > best_mag => {
                        best = Some((r, delta.abs(), to_upper))
                    }
                    _ => {}
                }
            }
        });
        match best {
            Some((row, _, to_upper)) => RatioOutcome::Pivot { row, to_upper },
            // Unreachable in exact arithmetic (the pass-1 minimiser fits its
            // own bound); flip if the box allows, else report unbounded and
            // let the caller's certification machinery decide.
            None if span.is_finite() => RatioOutcome::BoundFlip,
            None => RatioOutcome::Unbounded,
        }
    }

    /// Execute the basis change `col` enters / row `row` leaves, given the
    /// already FTRANed entering column `w` (whose L-stage spike is still saved
    /// from [`RevisedState::ftran_column`]).  Updates the basic solution, the
    /// basis books, and the LU factors (repairing on breakdown).  Returns
    /// `true` for a non-degenerate pivot.
    fn apply_pivot(
        &mut self,
        row: usize,
        col: usize,
        w: &PatVec,
        to_upper: bool,
    ) -> Result<bool, SimplexError> {
        let pivot_value = w.values[row];
        debug_assert!(pivot_value.abs() > 0.0, "pivot on a zero element");
        let sigma = if self.has_boxes && col < self.num_core && self.at_upper[col] {
            -1.0
        } else {
            1.0
        };
        let leaving = self.basis[row];
        // Step length t: how far the entering variable travels from its
        // current bound (`t >= 0`); the leaving variable lands exactly on the
        // bound the ratio test picked.
        let t = if to_upper {
            (self.ub(leaving) - self.xb[row]) / -(sigma * pivot_value)
        } else {
            self.xb[row] / (sigma * pivot_value)
        };
        let nondegenerate = t > 0.0;

        // Update the basic solution: the entering variable moves by t from its
        // bound, every other basic variable retreats along the column.
        for_nz!(w, r, wr, {
            if r != row {
                self.xb[r] -= sigma * wr * t;
                if self.xb[r] < 0.0 && self.xb[r] > -1e-11 {
                    self.xb[r] = 0.0;
                } else if self.has_boxes {
                    let ub = self.ub(self.basis[r]);
                    if self.xb[r] > ub && self.xb[r] < ub + 1e-11 {
                        self.xb[r] = ub;
                    }
                }
            }
        });
        self.xb[row] = if sigma > 0.0 { t } else { self.ub(col) - t };

        if self.has_boxes {
            if to_upper {
                // Artificials and plain slacks have no finite upper bound, so
                // a variable leaving at its upper bound is always a core
                // boxed column.
                self.at_upper[leaving] = true;
            }
            if col < self.num_core {
                self.at_upper[col] = false;
            }
        }
        self.in_basis[self.basis[row]] = false;
        self.in_basis[col] = true;
        self.basis[row] = col;
        self.total_updates += 1;

        let spike_pattern = if self.spike_dense {
            None
        } else {
            Some(self.spike_pattern.as_slice())
        };
        if self.lu.update(row, &self.spike, spike_pattern).is_err() {
            // The update left the factors unusable; rebuild from scratch (this
            // recomputes x_B exactly from the repaired basis).
            self.repair("Forrest–Tomlin update met a singular basis", false)?;
        } else {
            self.repair_streak = 0;
        }
        Ok(nondegenerate)
    }

    /// Flip a nonbasic boxed column to its opposite bound: the basic solution
    /// absorbs the full span of the box along the FTRANed column `w`, the
    /// basis and its factors stay untouched.
    fn bound_flip(&mut self, col: usize, w: &PatVec) {
        debug_assert!(col < self.num_core && self.ub(col).is_finite());
        let span = self.ub(col);
        let sigma = if self.at_upper[col] { -1.0 } else { 1.0 };
        for_nz!(w, r, wr, {
            self.xb[r] -= sigma * wr * span;
            if self.xb[r] < 0.0 && self.xb[r] > -1e-11 {
                self.xb[r] = 0.0;
            } else {
                let ub = self.ub(self.basis[r]);
                if self.xb[r] > ub && self.xb[r] < ub + 1e-11 {
                    self.xb[r] = ub;
                }
            }
        });
        self.at_upper[col] = !self.at_upper[col];
    }

    /// Rebuild the LU factors from the current basis columns and recompute
    /// `x_B = B⁻¹ b` from scratch.  Retries once with a relaxed pivot
    /// threshold before reporting the basis singular — a basis reached by
    /// exact pivoting is nonsingular, so a rejected pivot usually means drift,
    /// and a badly conditioned exact representation beats none.
    fn refactorize(&mut self) -> Result<(), SimplexError> {
        let refactor_started = std::time::Instant::now();
        let num_rows = self.num_rows();
        let columns: Vec<Vec<(usize, f64)>> = self
            .basis
            .iter()
            .map(|&col| self.column_rows(col).collect())
            .collect();
        let (lu, row_of_slot) = LuFactors::factor(num_rows, &columns, 1e-11)
            .or_else(|_| LuFactors::factor(num_rows, &columns, 1e-13))
            .map_err(|_| SimplexError::NumericalBreakdown {
                context: "LU factorisation met a numerically singular basis",
                repairs: self.repairs,
            })?;

        // The factorisation may re-key which row each basic column pivots on.
        let old_basis = self.basis.clone();
        for (slot, &new_row) in row_of_slot.iter().enumerate() {
            self.basis[new_row] = old_basis[slot];
        }
        self.lu = lu;
        self.factorizations += 1;
        // Fresh factors are at their sparsest: let the FTRAN path try the
        // hypersparse route again instead of staying locked dense by the
        // tail-of-window density estimate.
        self.ftran_density = 0.0;
        self.last_good_basis.clone_from(&self.basis);
        if self.has_boxes {
            self.last_good_at_upper.clone_from(&self.at_upper);
        }
        self.dirty_reduced_costs = true;

        // Fresh basic solution; clamp the usual tiny negative round-off.  With
        // boxed columns the effective right-hand side subtracts the at-upper
        // nonbasic contributions: x_B = B⁻¹ (b − Σ_{j at upper} u_j a_j).
        self.xb.copy_from_slice(&self.sf.rhs);
        if self.has_boxes {
            let mut xb = std::mem::take(&mut self.xb);
            for (j, &up) in self.at_upper.iter().enumerate() {
                if up {
                    let u = self.sf.upper[j];
                    for (r, v) in self.sf.matrix.column(j) {
                        xb[r] -= u * v;
                    }
                }
            }
            self.xb = xb;
        }
        let mut xb = std::mem::take(&mut self.xb);
        self.lu.ftran(&mut xb);
        for (r, value) in xb.iter_mut().enumerate() {
            if *value < 0.0 && *value > -1e-9 {
                *value = 0.0;
            } else if self.has_boxes {
                let ub = self.ub(self.basis[r]);
                if *value > ub && *value < ub + 1e-9 {
                    *value = ub;
                }
            }
        }
        self.xb = xb;
        cpm_obs::histogram!("cpm_lp_refactorize_nanos").record_duration(refactor_started.elapsed());
        Ok(())
    }

    /// Basis-repair recovery: refactorise from scratch after a breakdown,
    /// rolling back to the last good basis when the current one is singular.
    /// Each attempt (one factorisation, preceded by a rollback where needed)
    /// consumes one unit of [`MAX_REPAIRS`].
    ///
    /// `current_basis_failed` tells the repair that a factorisation of the
    /// *current* basis was just attempted and failed (the refactorisation call
    /// sites), so re-running the identical deterministic factorisation would
    /// waste a budget unit — roll back first instead.  Breakdowns during a
    /// Forrest–Tomlin update pass `false`: there the current basis has not
    /// been factorised yet and usually is fine.
    fn repair(
        &mut self,
        context: &'static str,
        current_basis_failed: bool,
    ) -> Result<(), SimplexError> {
        // Repairs are rare and always interesting: span them so the flight
        // recorder shows the recovery attempts leading up to any breakdown.
        let repair_span = cpm_obs::span!("simplex", "basis_repair");
        let mut roll_back_first = current_basis_failed;
        loop {
            if self.repair_streak >= MAX_REPAIRS {
                return Err(SimplexError::NumericalBreakdown {
                    context,
                    repairs: self.repairs,
                });
            }
            self.repairs += 1;
            self.repair_streak += 1;
            self.dirty_weights = true;
            if roll_back_first {
                if self.basis == self.last_good_basis {
                    // Nothing left to roll back to.
                    return Err(SimplexError::NumericalBreakdown {
                        context,
                        repairs: self.repairs,
                    });
                }
                self.basis.clone_from(&self.last_good_basis);
                if self.has_boxes {
                    self.at_upper.clone_from(&self.last_good_at_upper);
                }
                self.in_basis.fill(false);
                for &col in &self.basis {
                    self.in_basis[col] = true;
                }
            }
            if self.refactorize().is_ok() {
                cpm_obs::histogram!("cpm_lp_repair_nanos").record(repair_span.elapsed_nanos());
                return Ok(());
            }
            roll_back_first = true;
        }
    }

    /// Updates tolerated before the next periodic refactorisation:
    /// [`REFACTOR_INTERVAL`], stretched to `rows / 32` on tall problems,
    /// where a longer update run amortises the factorisation better.
    fn refactor_interval(&self) -> usize {
        REFACTOR_INTERVAL.max(self.num_rows() / 32)
    }

    /// The current objective `c_B' x_B` (plus `Σ c_j u_j` over nonbasic
    /// at-upper boxed columns) under the given cost vector.
    fn objective(&self, costs: &[f64]) -> f64 {
        let basic: f64 = self
            .basis
            .iter()
            .zip(self.xb.iter())
            .map(|(&col, &value)| costs[col] * value)
            .sum();
        if !self.has_boxes {
            return basic;
        }
        basic
            + self
                .at_upper
                .iter()
                .enumerate()
                .filter(|&(_, &up)| up)
                .map(|(j, _)| costs[j] * self.sf.upper[j])
                .sum::<f64>()
    }
}

/// Entering-column pricing state shared across a phase: reduced costs over the
/// core columns (maintained incrementally from the pivot row) and the
/// projected steepest-edge reference weights.
struct Pricing {
    /// Score candidates by projected steepest edge (Phase 2); otherwise by
    /// the reduced cost alone (Dantzig, Phase 1).
    steepest: bool,
    /// Reduced costs of the core columns (meaningless for basic columns).
    d: Vec<f64>,
    /// Exact projected steepest-edge norms `γ_j` (steepest edge only).
    weights: Vec<f64>,
    /// Steepest edge only: membership of each core column in the reference
    /// framework `F` fixed at the last rebuild (`γ_j = δ(j∈F) + Σ w_i²` over
    /// rows whose basic variable is in `F`).
    in_ref: Vec<bool>,
    /// Steepest edge only: the framework must be rebuilt from the current
    /// nonbasic set before the next pivot.
    ref_stale: bool,
    /// Candidate list: the nonbasic columns whose reduced cost is currently
    /// attractive.  Maintained incrementally (the pivot-row update is the only
    /// thing that changes a reduced cost), so pricing scans this list instead
    /// of every column; an exact recompute rebuilds it, which is what keeps
    /// optimality proofs sound even if the list went stale.
    list: Vec<usize>,
    in_list: Vec<bool>,
    /// `d` must be recomputed from scratch before the next use.
    dirty: bool,
    /// `d` is exact (recomputed and not yet drifted by incremental updates), so
    /// entering candidates need no FTRAN-side verification and an empty scan
    /// proves optimality.
    exact: bool,
    resets: usize,
}

/// Reduced costs below this join the candidate list (a strict superset of the
/// `d < -tolerance` test pricing applies, so the list never hides a winner).
const CANDIDATE_EPS: f64 = 1e-10;

/// Lower bound applied to steepest-edge weights after each update.
const GAMMA_FLOOR: f64 = 1e-4;

impl Pricing {
    fn new(num_core: usize, steepest: bool) -> Self {
        Pricing {
            steepest,
            d: vec![0.0; num_core],
            weights: vec![1.0; num_core],
            in_ref: vec![false; num_core],
            ref_stale: true,
            list: Vec::new(),
            in_list: vec![false; num_core],
            dirty: true,
            exact: false,
            resets: 0,
        }
    }

    /// Reset the reference framework (all weights back to one; steepest edge
    /// additionally re-anchors `F` to the current nonbasic set lazily).
    fn reset_weights(&mut self) {
        self.weights.fill(1.0);
        self.ref_stale = true;
        self.resets += 1;
    }

    /// Steepest edge: fix the reference framework to the current nonbasic set
    /// with unit weights (each nonbasic column's projected norm is then
    /// exactly `δ(j∈F) = 1`).
    fn rebuild_reference(&mut self, in_basis: &[bool]) {
        for (j, r) in self.in_ref.iter_mut().enumerate() {
            *r = !in_basis[j];
        }
        self.weights.fill(1.0);
        self.ref_stale = false;
    }

    /// Exact projected steepest-edge norm of the entering column from its
    /// FTRANed representation `w = B⁻¹ a_q`.
    fn exact_gamma(&self, w: &PatVec, basis_cols: &[usize], entering: usize) -> f64 {
        let mut g = if self.in_ref[entering] { 1.0 } else { 0.0 };
        for_nz!(w, i, wi, {
            let c = basis_cols[i];
            if c < self.in_ref.len() && self.in_ref[c] {
                g += wi * wi;
            }
        });
        g
    }

    /// Put `j` on the candidate list if its reduced cost warrants it
    /// (side-aware: an at-upper column prices favourably on *positive* `d`).
    #[inline]
    fn consider_candidate(&mut self, j: usize, up: bool) {
        if !self.in_list[j] && favourable(self.d[j], up, CANDIDATE_EPS) {
            self.in_list[j] = true;
            self.list.push(j);
        }
    }

    /// Recompute the reduced costs exactly: `y = c_B' B⁻¹`, then
    /// `d_j = c_j − y' a_j` per nonbasic core column.
    fn recompute(&mut self, basis: &RevisedState<'_>, costs: &[f64], y: &mut [f64]) {
        for (r, slot) in y.iter_mut().enumerate() {
            *slot = costs[basis.basis[r]];
        }
        basis.btran(y);
        for &j in &self.list {
            self.in_list[j] = false;
        }
        self.list.clear();
        for (j, d) in self.d.iter_mut().enumerate() {
            *d = if basis.in_basis[j] {
                0.0
            } else {
                costs[j] - basis.column_dot(j, y)
            };
            if !basis.in_basis[j]
                && favourable(*d, basis.has_boxes && basis.at_upper[j], CANDIDATE_EPS)
            {
                self.in_list[j] = true;
                self.list.push(j);
            }
        }
        self.dirty = false;
        self.exact = true;
    }

    /// Pick the entering column per the active rule, or `None` when no
    /// candidate prices favourably.  Scans the candidate list, evicting
    /// entries that went basic or stopped pricing favourably (they re-join
    /// through [`Pricing::consider_candidate`] if an update revives them).
    fn select(&mut self, eps: f64, in_basis: &[bool], at_upper: &[bool]) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        let mut k = 0;
        while k < self.list.len() {
            let j = self.list[k];
            if in_basis[j] || !favourable(self.d[j], at_upper[j], CANDIDATE_EPS) {
                self.in_list[j] = false;
                self.list.swap_remove(k);
                continue;
            }
            let d = self.d[j];
            if favourable(d, at_upper[j], eps) {
                let score = if self.steepest {
                    d * d / self.weights[j]
                } else {
                    d.abs()
                };
                match best {
                    None => best = Some((j, score)),
                    Some((_, best_score)) if score > best_score => best = Some((j, score)),
                    _ => {}
                }
            }
            k += 1;
        }
        best.map(|(j, _)| j)
    }

    /// Incrementally update `d` from the pivot row.
    ///
    /// `alpha` holds the pivot row `e_r' B⁻¹ A` over the core columns,
    /// `alpha_rq = w[row]` is the pivot element, `d_q` the entering column's
    /// (verified) reduced cost, and `leaving` the column leaving the basis.
    #[allow(clippy::too_many_arguments)]
    fn update_reduced_costs(
        &mut self,
        alpha: &SparseAccumulator,
        alpha_rq: f64,
        entering: usize,
        d_q: f64,
        leaving: usize,
        leaving_to_upper: bool,
        in_basis: &[bool],
        at_upper: &[bool],
    ) {
        let theta_d = d_q / alpha_rq;
        for &j in alpha.pattern() {
            if j == entering || in_basis[j] {
                continue;
            }
            let a = alpha.get(j);
            if a == 0.0 {
                continue;
            }
            self.d[j] -= theta_d * a;
            self.consider_candidate(j, at_upper[j]);
        }
        // The leaving column re-enters the nonbasic set: its pivot-row entry is
        // exactly one (B⁻¹ a_leaving = e_r), so its new reduced cost is −θ_d.
        if leaving < self.d.len() {
            self.d[leaving] = -theta_d;
            self.consider_candidate(leaving, leaving_to_upper);
        }
        self.d[entering] = 0.0;
        self.exact = false;
    }

    /// Update the projected steepest-edge weights from the pivot row (the
    /// reduced costs are [`Pricing::update_reduced_costs`]'s job).
    ///
    /// With `q` entering on row `r` and `l = basis[r]` leaving, the projected
    /// norm of every nonbasic column with `α_rj ≠ 0` transforms as
    ///
    /// ```text
    /// γ_j' = γ_j − 2·(α_rj/α_rq)·τ_j + (α_rj/α_rq)²·γ_q − 2·δ(l∈F)·α_rj²
    /// ```
    ///
    /// where `γ_q` is the **exact** norm of the entering column (recomputed
    /// from its FTRAN) and `τ_j = a_j' B⁻ᵀ w̃` with `w̃` the entering FTRAN
    /// masked to reference rows other than `r`.  The leaving column's new
    /// representation is `e_r − (w − e_r)/α_rq`, which collapses to
    /// `γ_l' = γ_q / α_rq²` in the reference norm.  Every weight is clamped
    /// from below by the exactly-known row-`r` component so drift can only
    /// make columns *more* attractive to the verification step, never
    /// invisible to it.
    #[allow(clippy::too_many_arguments)]
    fn update_steepest(
        &mut self,
        alpha: &SparseAccumulator,
        tau: &SparseAccumulator,
        alpha_rq: f64,
        gamma_q: f64,
        entering: usize,
        leaving: usize,
        leaving_in_ref: bool,
        in_basis: &[bool],
    ) {
        let entering_in_ref = self.in_ref[entering];
        for &j in alpha.pattern() {
            if j == entering || in_basis[j] {
                continue;
            }
            let a = alpha.get(j);
            if a == 0.0 {
                continue;
            }
            let ratio = a / alpha_rq;
            let mut g = self.weights[j] - 2.0 * ratio * tau.get(j) + ratio * ratio * gamma_q;
            if leaving_in_ref {
                g -= 2.0 * a * a;
            }
            // The new row-r component is exactly α_rj/α_rq (projected iff the
            // entering column sits in F), plus δ(j∈F): a hard lower bound.
            let mut floor = if self.in_ref[j] { 1.0 } else { 0.0 };
            if entering_in_ref {
                floor += ratio * ratio;
            }
            self.weights[j] = g.max(floor).max(GAMMA_FLOOR);
        }
        if leaving < self.d.len() {
            let inv = 1.0 / (alpha_rq * alpha_rq);
            self.weights[leaving] = (gamma_q * inv).max(GAMMA_FLOOR);
        }
    }
}

/// Does a nonbasic column price favourably?  At the lower bound it wants a
/// negative reduced cost (move up); at the upper bound a positive one (move
/// down).
#[inline]
fn favourable(d: f64, at_upper: bool, thresh: f64) -> bool {
    if at_upper {
        d > thresh
    } else {
        d < -thresh
    }
}

/// Work vectors shared across phases: a dense cost-BTRAN buffer plus
/// pattern-tracked FTRAN/BTRAN results and the pivot-row accumulator.
struct Workspace {
    y: Vec<f64>,
    w: PatVec,
    rho: PatVec,
    alpha: SparseAccumulator,
    /// Steepest-edge scratch: the masked reference vector `w̃` (then `B⁻ᵀ w̃`).
    v: PatVec,
    /// Steepest-edge scratch: the row `τ = (B⁻ᵀ w̃)' A` over the core columns.
    tau: SparseAccumulator,
}

impl Workspace {
    fn new(num_rows: usize, num_core: usize) -> Self {
        Workspace {
            y: vec![0.0; num_rows],
            w: PatVec::new(num_rows),
            rho: PatVec::new(num_rows),
            alpha: SparseAccumulator::with_len(num_core),
            v: PatVec::new(num_rows),
            tau: SparseAccumulator::with_len(num_core),
        }
    }

    /// Compute the pivot row `α = ρ' A` over the core columns into `alpha`
    /// from the BTRANed unit vector in `rho`.
    fn pivot_row(&mut self, row_major: &RowMajor) {
        self.alpha.clear();
        let rho = &self.rho;
        let alpha = &mut self.alpha;
        for_nz!(rho, r, rho_r, {
            for (j, v) in row_major.row(r) {
                alpha.add(j, v * rho_r);
            }
        });
    }

    /// Compute `τ = v' A` over the core columns into `tau` from the BTRANed
    /// masked reference vector in `v` (the steepest-edge cross term).
    fn tau_row(&mut self, row_major: &RowMajor) {
        self.tau.clear();
        let v = &self.v;
        let tau = &mut self.tau;
        for_nz!(v, r, v_r, {
            for (j, a) in row_major.row(r) {
                tau.add(j, a * v_r);
            }
        });
    }
}

/// Solve the standard form with the sparse revised simplex.
///
/// When [`SolveOptions::warm_basis`] carries a usable seed (right shape,
/// nonsingular, dual feasible), the solve runs the **dual simplex** warm-start
/// path instead of the two-phase primal method; any defect in the seed falls
/// back to the cold path silently ([`crate::SolveStats::warm_started`] reports
/// which path produced the answer).
pub(crate) fn solve(
    sf: &StandardForm,
    options: &SolveOptions,
) -> Result<SolvedPoint, SimplexError> {
    if let Some(seed) = options.warm_basis.as_deref() {
        if let Some(point) = warm_solve(sf, options, seed) {
            return Ok(point);
        }
    }
    cold_solve(sf, options)
}

/// The original two-phase primal path (Phase 1 over artificials, Phase 2 with
/// the user costs).
fn cold_solve(sf: &StandardForm, options: &SolveOptions) -> Result<SolvedPoint, SimplexError> {
    let eps = options.tolerance;
    let num_rows = sf.num_rows();
    let num_core = sf.num_columns();

    let mut basis = RevisedState::new(sf)?;
    let total_columns = num_core + basis.num_artificials();

    let mut state = PivotState::new(options);
    state.stats.artificial_variables = basis.num_artificials();

    let mut ws = Workspace::new(num_rows, num_core);
    // Phase 1 prices with Dantzig scoring: on the artificial-sum objective
    // reference-weight norms systematically prefer small-pivot columns and
    // inflate the pivot count ~10x (measured with Devex on the mechanism
    // LPs), while Dantzig drives the artificials out in near-minimal pivots.
    let mut pricing = Pricing::new(num_core, false);

    // ------------------------------- Phase 1 -------------------------------
    if basis.num_artificials() > 0 {
        let mut phase1_costs = vec![0.0; total_columns];
        for cost in phase1_costs.iter_mut().skip(num_core) {
            *cost = 1.0;
        }
        let before = state.iterations_left;
        let phase_span = cpm_obs::span!("simplex", "phase1");
        let outcome = run_phase(
            &mut basis,
            &phase1_costs,
            options,
            &mut state,
            &mut pricing,
            &mut ws,
        )?;
        cpm_obs::histogram!("cpm_lp_phase_nanos{phase=\"phase1\"}")
            .record(phase_span.elapsed_nanos());
        drop(phase_span);
        state.stats.phase1_iterations = before - state.iterations_left;
        if matches!(outcome, PhaseOutcome::Unbounded) {
            // Phase 1 is bounded below by zero; unboundedness is numerical.
            return Err(SimplexError::NumericalBreakdown {
                context: "phase 1 of the revised simplex became unbounded",
                repairs: basis.repairs,
            });
        }
        if basis.objective(&phase1_costs) > 1e-6 {
            return Err(SimplexError::Infeasible);
        }
        drive_out_artificials(&mut basis, eps, &mut ws)?;
    }

    // ------------------------------- Phase 2 -------------------------------
    let mut phase2_costs = sf.costs.clone();
    phase2_costs.resize(total_columns, 0.0);
    state.start_phase();
    pricing.steepest = true;
    pricing.dirty = true;
    pricing.reset_weights();
    pricing.resets -= 1; // the phase boundary is not a mid-run framework reset
    let before = state.iterations_left;
    let phase_span = cpm_obs::span!("simplex", "phase2");
    let outcome = run_phase(
        &mut basis,
        &phase2_costs,
        options,
        &mut state,
        &mut pricing,
        &mut ws,
    )?;
    cpm_obs::histogram!("cpm_lp_phase_nanos{phase=\"phase2\"}").record(phase_span.elapsed_nanos());
    drop(phase_span);
    state.stats.phase2_iterations = before - state.iterations_left;
    if matches!(outcome, PhaseOutcome::Unbounded) {
        return Err(SimplexError::Unbounded);
    }

    let mut z = vec![0.0; num_core];
    if basis.has_boxes {
        for (j, &up) in basis.at_upper.iter().enumerate() {
            if up {
                z[j] = sf.upper[j];
            }
        }
    }
    for (r, &col) in basis.basis.iter().enumerate() {
        if col < num_core {
            z[col] = basis.xb[r];
        }
    }
    state.stats.refactorizations = basis.factorizations;
    state.stats.basis_updates = basis.total_updates;
    state.stats.basis_repairs = basis.repairs;
    state.stats.steepest_edge_resets = pricing.resets;
    Ok(SolvedPoint {
        objective: basis.objective(&phase2_costs),
        z,
        stats: state.stats,
        basis: Some(basis.basis.clone()),
    })
}

// ---------------------------------------------------------------------------
// Dual-simplex warm starts.
// ---------------------------------------------------------------------------

/// How a dual-simplex cleanup ended.
enum DualOutcome {
    /// Every basic variable is (within tolerance) non-negative — hand over to
    /// the primal Phase-2 machinery for certification.
    PrimalFeasible,
    /// The cleanup cannot make progress (no entering candidate, a numerical
    /// breakdown beyond the repair budget, or the pivot budget ran out).  The
    /// caller falls back to the cold primal path, which is always correct.
    Stalled,
}

/// Exact reduced costs of every core column under the current basis:
/// `y = c_B' B⁻¹`, then `d_j = c_j − y' a_j` (zero for basic columns).
fn exact_reduced_costs(basis: &RevisedState<'_>, costs: &[f64], y: &mut [f64], d: &mut [f64]) {
    for (r, slot) in y.iter_mut().enumerate() {
        *slot = costs[basis.basis[r]];
    }
    basis.btran(y);
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = if basis.in_basis[j] {
            0.0
        } else {
            costs[j] - basis.column_dot(j, y)
        };
    }
}

/// Attempt the warm-started solve: factor the seeded basis, verify dual
/// feasibility of the Phase-2 costs, run the dual simplex to primal
/// feasibility, and certify with a primal cleanup.  `None` means "fall back to
/// the cold path" — a malformed/singular/dual-infeasible seed, a stalled dual
/// phase, or anything numerically suspicious.
pub(crate) fn warm_solve(
    sf: &StandardForm,
    options: &SolveOptions,
    seed: &[usize],
) -> Option<SolvedPoint> {
    let num_rows = sf.num_rows();
    let num_core = sf.num_columns();

    // The dual warm path has no bound-flipping machinery: a boxed standard
    // form (only produced for LPs with two-sided bounds, which mechanism LPs
    // never have) takes the cold primal path instead.
    if sf.upper.iter().any(|u| u.is_finite()) {
        return None;
    }

    // Shape check: one column per row, core entries distinct.  Entries beyond
    // the core columns mark rows the donor kept basic through an artificial
    // (redundant constraints) — those need no distinctness, each receives a
    // fresh artificial in `with_basis`.
    if seed.len() != num_rows || num_rows == 0 {
        return None;
    }
    let mut seen = vec![false; num_core];
    for &col in seed {
        if col < num_core {
            if seen[col] {
                return None;
            }
            seen[col] = true;
        }
    }

    let _warm_span = cpm_obs::span!("simplex", "warm_solve");
    let mut basis = RevisedState::with_basis(sf, seed).ok()?;
    let mut state = PivotState::new(options);
    state.stats.artificial_variables = basis.num_artificials();
    let mut ws = Workspace::new(num_rows, num_core);
    // Phase-2 costs; residual artificials cost zero, exactly as in the cold
    // path's Phase 2 (they can only leave the basis, never enter — neither
    // the dual ratio test nor the primal pricing scans beyond the core).
    let mut costs = sf.costs.clone();
    costs.resize(num_core + basis.num_artificials(), 0.0);
    let costs = &costs[..];

    // Dual feasibility at the seed.  The tolerance is deliberately looser than
    // the pivot tolerance: an α-neighbour's optimal basis is typically a few
    // ulps dual-infeasible under the perturbed matrix, and the primal cleanup
    // below repairs anything this slack lets through.
    let mut d = vec![0.0; num_core];
    exact_reduced_costs(&basis, costs, &mut ws.y, &mut d);
    let dual_tol = (options.tolerance * 100.0).max(1e-7);
    if d.iter()
        .enumerate()
        .any(|(j, &dj)| !basis.in_basis[j] && dj < -dual_tol)
    {
        return None;
    }

    match dual_phase(&mut basis, costs, &mut d, options, &mut state, &mut ws) {
        Ok(DualOutcome::PrimalFeasible) => {}
        _ => return None,
    }

    // Primal cleanup: mops up the bounded dual infeasibility the relaxed seed
    // check and the ratio-test slack allowed, and certifies optimality with
    // the existing (fresh-factor-confirming) phase machinery.  Near-neighbour
    // warm starts terminate here in a handful of pivots.
    let mut pricing = Pricing::new(num_core, true);
    state.start_phase();
    let before = state.iterations_left;
    let outcome = run_phase(
        &mut basis,
        costs,
        options,
        &mut state,
        &mut pricing,
        &mut ws,
    )
    .ok()?;
    state.stats.phase2_iterations = before - state.iterations_left;
    if matches!(outcome, PhaseOutcome::Unbounded) {
        // Could be genuine unboundedness or a bad seed; let the cold path be
        // the authority either way.
        return None;
    }

    // A residual artificial that refuses to stay at zero means the donor's
    // redundant rows are *not* redundant under this problem's coefficients —
    // the "optimum" would violate a real constraint.  Only the cold path
    // (whose Phase 1 minimises exactly these) can decide feasibility.
    for (r, &col) in basis.basis.iter().enumerate() {
        if col >= num_core && basis.xb[r].abs() > 1e-7 {
            return None;
        }
    }

    let mut z = vec![0.0; num_core];
    if basis.has_boxes {
        for (j, &up) in basis.at_upper.iter().enumerate() {
            if up {
                z[j] = sf.upper[j];
            }
        }
    }
    for (r, &col) in basis.basis.iter().enumerate() {
        if col < num_core {
            z[col] = basis.xb[r];
        }
    }
    state.stats.refactorizations = basis.factorizations;
    state.stats.basis_updates = basis.total_updates;
    state.stats.basis_repairs = basis.repairs;
    state.stats.steepest_edge_resets = pricing.resets;
    state.stats.warm_started = true;
    Some(SolvedPoint {
        objective: basis.objective(costs),
        z,
        stats: state.stats,
        basis: Some(basis.basis.clone()),
    })
}

/// Run dual-simplex pivots until the basic solution is primal feasible.
///
/// Per iteration:
///
/// 1. **Leaving row** by dual Devex pricing: score `x_r² / w_r` over the rows
///    with `x_r < −tol` (the reference weights `w` are updated from the
///    FTRANed entering column each pivot — Devex reference weights with the
///    roles of rows and columns swapped).
/// 2. **Pivot row** `e_r' B⁻¹ A` over the core columns — the same
///    BTRAN-plus-CSR-pass the primal pricing update uses.
/// 3. **Dual ratio test** (Harris-style two passes) over the nonbasic columns
///    with `α_rj < −eps`: pass 1 bounds the dual step by the most restrictive
///    slightly-relaxed ratio `d_j / −α_rj`, pass 2 picks the largest pivot
///    element under that bound.  Negative `d_j` within the seed slack is
///    clamped to zero for the test; the primal cleanup settles the difference.
/// 4. **Pivot** via the ordinary Forrest–Tomlin update path, plus an
///    incremental dual update of `d` from the pivot row.
///
/// Any stall (no entering candidate — primal infeasible in exact arithmetic —
/// a breakdown beyond the repair budget, or the pivot budget running out)
/// reports [`DualOutcome::Stalled`] and the caller falls back to the cold
/// path, so this phase never has to be heroic about edge cases.
fn dual_phase(
    basis: &mut RevisedState<'_>,
    costs: &[f64],
    d: &mut [f64],
    options: &SolveOptions,
    state: &mut PivotState,
    ws: &mut Workspace,
) -> Result<DualOutcome, SimplexError> {
    let eps = options.tolerance;
    let feas_tol = eps.max(1e-9);
    // Dual Devex weights above this bound reset the reference framework.
    const WEIGHT_LIMIT: f64 = 1e7;
    let mut weights = vec![1.0f64; basis.num_rows()];
    let mut weight_max = 1.0f64;
    // A warm start whose cleanup rivals a cold solve in pivots is not worth
    // finishing — give up and let the cold path run undisturbed.
    let budget = basis.num_rows().max(512);
    let mut pivots = 0usize;
    // Whether the current iteration is already the post-refactorisation retry
    // of a FTRAN/BTRAN pivot disagreement (see below).
    let mut mismatch_retry = false;

    loop {
        if pivots >= budget || state.iterations_left == 0 {
            return Ok(DualOutcome::Stalled);
        }
        if basis.lu.updates() >= basis.refactor_interval()
            && basis.refactorize().is_err()
            && basis
                .repair("dual-phase periodic refactorisation", true)
                .is_err()
        {
            return Ok(DualOutcome::Stalled);
        }
        if basis.dirty_reduced_costs {
            exact_reduced_costs(basis, costs, &mut ws.y, d);
            basis.dirty_reduced_costs = false;
        }
        if basis.dirty_weights {
            weights.fill(1.0);
            weight_max = 1.0;
            basis.dirty_weights = false;
        }

        // ---- leaving row (dual Devex) -----------------------------------
        let mut leaving: Option<(usize, f64)> = None;
        for (r, &x) in basis.xb.iter().enumerate() {
            if x < -feas_tol {
                let score = x * x / weights[r];
                if leaving.is_none_or(|(_, best)| score > best) {
                    leaving = Some((r, score));
                }
            }
        }
        let Some((row, _)) = leaving else {
            return Ok(DualOutcome::PrimalFeasible);
        };

        // ---- pivot row over the core columns ----------------------------
        basis.btran_unit(row, &mut ws.rho);
        ws.pivot_row(&basis.row_major);

        // ---- dual ratio test (two passes) -------------------------------
        let mut theta_bound = f64::INFINITY;
        for &j in ws.alpha.pattern() {
            if basis.in_basis[j] {
                continue;
            }
            let a = ws.alpha.get(j);
            if a < -eps {
                theta_bound = theta_bound.min((d[j].max(0.0) + feas_tol) / -a);
            }
        }
        if theta_bound.is_infinite() {
            return Ok(DualOutcome::Stalled);
        }
        let mut entering: Option<(usize, f64)> = None;
        for &j in ws.alpha.pattern() {
            if basis.in_basis[j] {
                continue;
            }
            let a = ws.alpha.get(j);
            if a < -eps
                && d[j].max(0.0) / -a <= theta_bound
                && entering.is_none_or(|(_, best)| -a > best)
            {
                entering = Some((j, -a));
            }
        }
        let Some((col, _)) = entering else {
            return Ok(DualOutcome::Stalled);
        };

        basis.ftran_column(col, &mut ws.w);
        let pivot = ws.w.values[row];
        if pivot >= -eps * 0.5 {
            // The FTRANed pivot disagrees with the BTRAN pivot row: the
            // factors have drifted.  Rebuild once and retry the iteration —
            // but only once per pivot: with *fresh* factors the disagreement
            // is pure rounding at the tolerance boundary, and since nothing
            // else in the iteration changes, retrying again would select the
            // identical (row, col) and spin forever.
            if mismatch_retry || basis.refactorize().is_err() {
                return Ok(DualOutcome::Stalled);
            }
            mismatch_retry = true;
            continue;
        }
        mismatch_retry = false;

        // ---- incremental dual update from the pivot row ------------------
        let theta_d = d[col].max(0.0) / pivot; // ≤ 0 by construction
        for &j in ws.alpha.pattern() {
            if j == col || basis.in_basis[j] {
                continue;
            }
            let a = ws.alpha.get(j);
            if a != 0.0 {
                d[j] -= theta_d * a;
            }
        }
        let leaving_col = basis.basis[row];
        if leaving_col < d.len() {
            d[leaving_col] = -theta_d;
        }
        d[col] = 0.0;

        // ---- dual Devex weight update from the FTRANed column ------------
        let gamma_r = weights[row].max(1.0);
        {
            let w = &ws.w;
            for_nz!(w, i, wi, {
                if i != row {
                    let ratio = wi / pivot;
                    let candidate = ratio * ratio * gamma_r;
                    if candidate > weights[i] {
                        weights[i] = candidate;
                        weight_max = weight_max.max(candidate);
                    }
                }
            });
        }
        weights[row] = (gamma_r / (pivot * pivot)).max(1.0);
        weight_max = weight_max.max(weights[row]);
        if weight_max > WEIGHT_LIMIT {
            weights.fill(1.0);
            weight_max = 1.0;
        }

        if basis.apply_pivot(row, col, &ws.w, false).is_err() {
            return Ok(DualOutcome::Stalled);
        }
        state.iterations_left -= 1;
        state.stats.dual_iterations += 1;
        pivots += 1;
    }
}

/// Run revised-simplex pivots until the current costs are optimal or unbounded.
fn run_phase(
    basis: &mut RevisedState<'_>,
    costs: &[f64],
    options: &SolveOptions,
    state: &mut PivotState,
    pricing: &mut Pricing,
    ws: &mut Workspace,
) -> Result<PhaseOutcome, SimplexError> {
    let eps = options.tolerance;
    loop {
        if state.iterations_left == 0 {
            return Err(SimplexError::IterationLimit {
                limit: options.max_iterations,
            });
        }
        if basis.lu.updates() >= basis.refactor_interval() {
            if basis.refactorize().is_err() {
                basis.repair("periodic refactorisation", true)?;
            }
            // Steepest edge re-initialises exactly at each refactorisation:
            // re-anchoring `F` to the current nonbasic set makes every weight
            // exactly one, and a young framework keeps the masked reference
            // vector w̃ small, which is what keeps the per-pivot cross-term
            // BTRAN on the sparse path.
            pricing.ref_stale = true;
        }
        if basis.dirty_reduced_costs {
            pricing.dirty = true;
            basis.dirty_reduced_costs = false;
        }
        if basis.dirty_weights {
            pricing.reset_weights();
            basis.dirty_weights = false;
        }
        if pricing.steepest && pricing.ref_stale {
            pricing.rebuild_reference(&basis.in_basis);
        }

        // ---- entering column -------------------------------------------------
        let entering = loop {
            if state.using_bland {
                break price_bland(basis, costs, eps, &mut ws.y);
            }
            if pricing.dirty {
                pricing.recompute(basis, costs, &mut ws.y);
            }
            match pricing.select(eps, &basis.in_basis, &basis.at_upper) {
                Some(j) => break Some(j),
                None if !pricing.exact => {
                    // The incremental reduced costs may have drifted; prove
                    // optimality (or find a survivor) from exact ones.
                    pricing.dirty = true;
                }
                None => break None,
            }
        };
        let Some(col) = entering else {
            // Confirm optimality on *fresh* factors: the reduced costs above
            // are exact with respect to the current factorisation, but the
            // factorisation itself accumulates Forrest–Tomlin round-off, so a
            // long update run can fake convergence.  One rebuild per phase end
            // is cheap insurance; after it `updates() == 0`, so a clean second
            // pass terminates.
            if !state.using_bland && basis.lu.updates() > 0 {
                if basis.refactorize().is_err() {
                    basis.repair("optimality confirmation refactorisation", true)?;
                }
                continue;
            }
            return Ok(PhaseOutcome::Optimal);
        };

        basis.ftran_column(col, &mut ws.w);

        // Verify a candidate priced from drifted reduced costs against the
        // FTRANed column before pivoting on it.
        let mut d_actual = costs[col];
        {
            let w = &ws.w;
            for_nz!(w, r, wr, {
                d_actual -= costs[basis.basis[r]] * wr;
            });
        }
        let entering_up = basis.has_boxes && col < basis.num_core && basis.at_upper[col];
        if !state.using_bland && !pricing.exact && !favourable(d_actual, entering_up, eps * 0.5) {
            pricing.d[col] = d_actual;
            pricing.dirty = true;
            continue;
        }

        let (row, to_upper) = match basis.ratio_test(&ws.w, col, eps, state.using_bland) {
            RatioOutcome::Unbounded => return Ok(PhaseOutcome::Unbounded),
            RatioOutcome::BoundFlip => {
                // Long-step: the entering column's own box is the tightest
                // limit — flip it through to the opposite bound.  The basis
                // (and its factors) are untouched, the reduced costs are
                // unchanged, and the move strictly improves the objective, so
                // it is safe even under Bland's rule.
                basis.bound_flip(col, &ws.w);
                state.stats.bound_flips += 1;
                state.record_pivot(true);
                continue;
            }
            RatioOutcome::Pivot { row, to_upper } => (row, to_upper),
        };

        // ---- pricing update from the pivot row (before the basis changes) ----
        if !state.using_bland {
            basis.btran_unit(row, &mut ws.rho);
            ws.pivot_row(&basis.row_major);
            let leaving = basis.basis[row];
            if pricing.steepest {
                // The entering FTRAN gives the projected norm exactly, for
                // free; a stored weight far from it means the incremental
                // updates have degraded and the framework is re-anchored.
                let exact = pricing.exact_gamma(&ws.w, &basis.basis, col);
                let stored = pricing.weights[col];
                let gamma_q = if exact > 16.0 * stored || stored > 16.0 * exact {
                    pricing.rebuild_reference(&basis.in_basis);
                    pricing.resets += 1;
                    1.0
                } else {
                    exact
                };
                let leaving_in_ref = leaving < pricing.in_ref.len() && pricing.in_ref[leaving];
                // Build w̃ — the entering FTRAN masked to reference rows other
                // than the pivot row — then τ = (B⁻ᵀ w̃)' A for the cross term.
                ws.v.clear();
                {
                    let (w, v) = (&ws.w, &mut ws.v);
                    for_nz!(w, i, wi, {
                        if i != row {
                            let c = basis.basis[i];
                            if c < pricing.in_ref.len() && pricing.in_ref[c] {
                                v.set(i, wi);
                            }
                        }
                    });
                }
                if ws.v.pattern.is_empty() {
                    ws.tau.clear();
                } else {
                    let have_tau = basis.btran_patvec(&mut ws.v);
                    if have_tau {
                        ws.tau_row(&basis.row_major);
                    } else {
                        // Abandoned BTRAN: update without the cross term; the
                        // floors keep the weights safe and the entering-side
                        // exactness check catches any 16x drift.
                        ws.tau.clear();
                    }
                }
                pricing.update_steepest(
                    &ws.alpha,
                    &ws.tau,
                    ws.w.values[row],
                    gamma_q,
                    col,
                    leaving,
                    leaving_in_ref,
                    &basis.in_basis,
                );
            }
            pricing.update_reduced_costs(
                &ws.alpha,
                ws.w.values[row],
                col,
                d_actual,
                leaving,
                to_upper,
                &basis.in_basis,
                &basis.at_upper,
            );
        } else {
            // Bland mode prices exactly each iteration; the incremental state
            // is stale once we leave it.
            pricing.dirty = true;
        }

        let nondegenerate = basis.apply_pivot(row, col, &ws.w, to_upper)?;
        state.record_pivot(nondegenerate);
    }
}

/// Bland's rule pricing: the smallest-index nonbasic column with a negative
/// exact reduced cost (recomputed every iteration, as the termination
/// guarantee requires).  Artificial columns are never allowed to enter — the
/// scan stops at the core columns (they start basic and only ever leave).
fn price_bland(basis: &RevisedState<'_>, costs: &[f64], eps: f64, y: &mut [f64]) -> Option<usize> {
    for (r, slot) in y.iter_mut().enumerate() {
        *slot = costs[basis.basis[r]];
    }
    basis.btran(y);
    (0..basis.num_core).find(|&j| {
        !basis.in_basis[j]
            && favourable(
                costs[j] - basis.column_dot(j, y),
                basis.has_boxes && basis.at_upper[j],
                eps,
            )
    })
}

/// After Phase 1, pivot any artificial variables that are still basic (at value
/// zero) out of the basis.  For each such row `r` the structural coefficients of
/// the transformed row are `ρ' a_j` with `ρ = (B⁻¹)' e_r` (one BTRAN of a unit
/// vector); rows where every structural coefficient vanishes are redundant
/// constraints, and their artificial stays harmlessly basic at zero.
fn drive_out_artificials(
    basis: &mut RevisedState<'_>,
    eps: f64,
    ws: &mut Workspace,
) -> Result<(), SimplexError> {
    // A repair inside apply_pivot refactorises, which can re-key (permute)
    // which row each basic column lives on — a fixed front-to-back scan would
    // then skip an artificial that moved to an already-visited row.  Restart
    // the scan whenever a repair fired; the restart budget is generous (each
    // restart requires a fresh breakdown, and redundant rows pivot nothing).
    let mut restarts = 0usize;
    'scan: loop {
        for row in 0..basis.num_rows() {
            if basis.basis[row] < basis.num_core {
                continue;
            }
            basis.btran_unit(row, &mut ws.rho);
            let replacement = (0..basis.num_core)
                .find(|&j| !basis.in_basis[j] && basis.column_dot(j, &ws.rho.values).abs() > eps);
            if let Some(col) = replacement {
                basis.ftran_column(col, &mut ws.w);
                debug_assert!(ws.w.values[row].abs() > eps * 0.5);
                let repairs_before = basis.repairs;
                basis.apply_pivot(row, col, &ws.w, false)?;
                if basis.repairs != repairs_before && restarts < basis.num_rows() {
                    restarts += 1;
                    continue 'scan;
                }
            } else {
                debug_assert!(basis.xb[row].abs() <= 1e-6);
            }
        }
        return Ok(());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinearProgram, Relation};
    use crate::standard::standardize;

    /// FTRAN then BTRAN against hand-checked basis algebra.
    #[test]
    fn lu_transforms_match_matrix_algebra() {
        // B = [[2, 1], [0, 1]]: pivot col0 at row0 (w = [2, 0]), then col1 at row1.
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.add_constraint(vec![(x, 2.0), (y, 1.0)], Relation::Equal, 4.0);
        lp.add_constraint(vec![(y, 1.0)], Relation::Equal, 1.0);
        let sf = standardize(&lp);
        let mut state = RevisedState::new(&sf).unwrap();

        let mut w = PatVec::new(2);
        state.ftran_column(0, &mut w);
        let w0 = w.clone();
        state.apply_pivot(0, 0, &w0, false).unwrap();
        state.ftran_column(1, &mut w);
        let w1 = w.clone();
        state.apply_pivot(1, 1, &w1, false).unwrap();

        // B^{-1} = [[0.5, -0.5], [0, 1]]; check on a probe vector.
        let mut v = vec![4.0, 1.0];
        state.lu.ftran(&mut v);
        assert!((v[0] - 1.5).abs() < 1e-12);
        assert!((v[1] - 1.0).abs() < 1e-12);

        // y' B^{-1} for y = [1, 0] is the first row of B^{-1}.
        let mut row = vec![1.0, 0.0];
        state.btran(&mut row);
        assert!((row[0] - 0.5).abs() < 1e-12);
        assert!((row[1] - (-0.5)).abs() < 1e-12);
    }

    #[test]
    fn refactorisation_preserves_the_basic_solution() {
        let mut lp = LinearProgram::minimize();
        let vars = lp.add_variables("x", 4);
        for (i, v) in vars.iter().enumerate() {
            lp.set_objective_coefficient(*v, (i + 1) as f64);
        }
        lp.add_constraint(vars.iter().map(|&v| (v, 1.0)), Relation::Equal, 2.0);
        for w in vars.windows(2) {
            lp.add_constraint(vec![(w[0], 1.0), (w[1], -0.8)], Relation::GreaterEq, 0.0);
        }
        let sf = standardize(&lp);
        let options = SolveOptions::default();
        let mut state = PivotState::new(&options);
        let mut basis = RevisedState::new(&sf).unwrap();
        let mut ws = Workspace::new(sf.num_rows(), sf.num_columns());
        let mut pricing = Pricing::new(sf.num_columns(), false);

        // Run phase 1 to completion, then refactorise and compare xb.
        let total = sf.num_columns() + basis.num_artificials();
        let mut phase1 = vec![0.0; total];
        for cost in phase1.iter_mut().skip(sf.num_columns()) {
            *cost = 1.0;
        }
        let _ = run_phase(
            &mut basis,
            &phase1,
            &options,
            &mut state,
            &mut pricing,
            &mut ws,
        );
        let before = basis.xb.clone();
        // The factorisation may re-key rows, so compare as multisets of
        // (basic column, value) pairs.
        let mut pairs_before: Vec<(usize, i64)> = basis
            .basis
            .iter()
            .zip(before.iter())
            .map(|(&c, &v)| (c, (v * 1e8).round() as i64))
            .collect();
        basis.refactorize().unwrap();
        let mut pairs_after: Vec<(usize, i64)> = basis
            .basis
            .iter()
            .zip(basis.xb.iter())
            .map(|(&c, &v)| (c, (v * 1e8).round() as i64))
            .collect();
        pairs_before.sort_unstable();
        pairs_after.sort_unstable();
        assert_eq!(pairs_before, pairs_after);
    }

    #[test]
    fn repair_rolls_back_to_the_last_good_basis() {
        let mut lp = LinearProgram::minimize();
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.add_constraint(vec![(x, 1.0)], Relation::LessEq, 3.0);
        lp.add_constraint(vec![(y, 1.0)], Relation::LessEq, 4.0);
        let sf = standardize(&lp);
        let mut basis = RevisedState::new(&sf).unwrap();
        let good = {
            let mut sorted = basis.basis.clone();
            sorted.sort_unstable();
            sorted
        };

        // Corrupt the books into a structurally singular basis (one column
        // basic in both rows): refactorisation must fail, and repair must
        // fall back to the last good snapshot.
        basis.basis[1] = basis.basis[0];
        assert!(basis.refactorize().is_err());
        basis.repair("test corruption", true).unwrap();
        let mut restored = basis.basis.clone();
        restored.sort_unstable();
        assert_eq!(restored, good);
        assert!(basis.repairs >= 1, "repair count must be recorded");
        assert!(
            basis.dirty_weights,
            "a rollback must reset the pricing weights"
        );

        // With the budget exhausted the same corruption reports breakdown.
        basis.repair_streak = MAX_REPAIRS;
        basis.basis[1] = basis.basis[0];
        assert!(matches!(
            basis.repair("test corruption", true),
            Err(SimplexError::NumericalBreakdown { .. })
        ));
    }
}
