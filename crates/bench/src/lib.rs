//! Shared helpers for the figure-reproduction harness.
//!
//! Each `fig*` binary regenerates one table or figure of the paper's
//! evaluation (§6).  The binaries print plain-text tables (one row per
//! plotted point / series) so the output can be diffed or redirected into a
//! plotting tool; `docs/REPRODUCING.md` maps every figure to its binary.
//!
//! Every binary takes `--key value` options through [`Args`], a tiny
//! dependency-free parser: experiments default to a laptop-friendly scale
//! (`--series`, `--max-population`, `--runs`, … push them towards the
//! paper's), and a value that does not parse or is not one of an option's
//! choices exits with status 2.  [`workloads`] describes every run two or
//! more figures share, so a bin is its flags plus its own table and JSON.

pub mod args;
pub mod json;
pub mod table;
pub mod workloads;

pub use args::Args;
pub use json::Json;
pub use table::Table;
