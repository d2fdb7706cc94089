//! Shared helpers for the figure-reproduction harness.
//!
//! Each `fig*` binary regenerates one table or figure of the paper's
//! evaluation (§6).  The binaries print plain-text tables (one row per
//! plotted point / series) so the output can be diffed, redirected into a
//! plotting tool, or pasted into EXPERIMENTS.md.
//!
//! Every binary accepts `--scale <full|paper|small>`-style options through
//! [`Args`], a tiny dependency-free argument parser: experiments default to
//! a laptop-friendly scale and can be pushed towards the paper's scale
//! explicitly.

pub mod args;
pub mod json;
pub mod table;
pub mod workloads;

pub use args::Args;
pub use json::Json;
pub use table::Table;
