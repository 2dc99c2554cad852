//! Experiment harness: one runner per table/figure of the evaluation.
//!
//! Each `run_*` function in [`harness`] regenerates the data behind one
//! table or figure (experiment ids T1–T11, F1–F3 and A3; `DESIGN.md`
//! describes them and `EXPERIMENTS.md` records the measured outputs).
//! [`tables`] declares each experiment's table once: its columns and its
//! summary keys. [`render::Table`] prints every one of them as Markdown
//! and builds its `--json-out` summary, and [`history`] compares such
//! summaries across runs. The `report` binary only picks the experiments,
//! runs them in order and prints them.

#![forbid(unsafe_code)]

pub mod harness;
pub mod history;
pub mod render;
pub mod tables;

pub use harness::*;
