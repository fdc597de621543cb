//! # cpm-eval — experiment harness for constrained private mechanisms
//!
//! Reproduces the evaluation (Section V) of *"Constrained Private Mechanisms for
//! Count Data"* (ICDE 2018):
//!
//! * [`metrics`] — empirical error probability, `L0,d` tail error, RMSE, and
//!   mean/standard-error summaries for error bars.
//! * [`runner`] — the named mechanisms GM / WM / EM / UM (plus extended baselines),
//!   their `L0` scores, and the repeated-trial runner.
//! * [`experiments`] — one module per figure: LP heat maps (Figs. 1–2, 7), structure
//!   printouts (Figs. 3–4), score sweeps (Figs. 6, 8, 9), the Adult experiment
//!   (Fig. 10), and the Binomial experiments (Figs. 11–13).
//! * [`table`] — fixed-width text tables for the figure binaries.
//! * [`par`] — a persistent worker pool; the figure sweeps fan their
//!   independent `(n, α, property-set)` LP solves across it, and the serving
//!   engine its sampling shards (`CPM_THREADS` pins the worker count,
//!   `CPM_THREADS=1` recovers serial execution).
//!
//! The `cpm-bench` crate contains one binary per figure that calls into this crate
//! and prints the corresponding series (plus optional JSON output).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod metrics;
pub mod par;
pub mod runner;
pub mod table;

pub use metrics::{
    confidence_interval, empirical_error_rate, empirical_error_rate_beyond, mean_absolute_error,
    root_mean_square_error, z_critical, ConfidenceInterval, SummaryStats,
};
pub use runner::{build_mechanism, evaluate_repeated, l0_score, NamedMechanism};

/// Commonly used items, re-exported for `use cpm_eval::prelude::*`.
pub mod prelude {
    pub use crate::experiments::{adult_experiment, binomial_experiments, heatmaps, score_sweeps};
    pub use crate::metrics::{
        confidence_interval, empirical_error_rate, empirical_error_rate_beyond,
        mean_absolute_error, root_mean_square_error, z_critical, ConfidenceInterval, SummaryStats,
    };
    pub use crate::par::parallel_map;
    pub use crate::runner::{build_mechanism, evaluate_repeated, l0_score, NamedMechanism};
    pub use crate::table::{fmt, render_table};
}
