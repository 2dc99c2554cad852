//! Experiment harness: one runner per table/figure of the evaluation.
//!
//! Each `run_*` function regenerates the data behind one table or figure
//! (experiment ids T1–T11, F1–F3 and A3; `DESIGN.md` describes them and
//! `EXPERIMENTS.md` records the measured outputs). The `report` binary
//! times them and renders them as Markdown.

#![forbid(unsafe_code)]

pub mod harness;
pub mod history;
pub mod render;

pub use harness::*;
