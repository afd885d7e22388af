//! # fanstore-bench
//!
//! Regenerates every table and figure of the FanStore paper's evaluation
//! (§VII). Each experiment lives in [`experiments`] as a function
//! returning a markdown report, and [`experiments::EXPERIMENTS`] lists
//! them all; the `fanstore-bench` binary prints one by name, or the full
//! EXPERIMENTS.md with `all`.
//!
//! Two kinds of numbers appear in the reports, always labelled:
//!
//! * **measured** — produced by running this repository's real code
//!   (codecs, FanStore cluster, TFRecord reader) on this machine over
//!   synthetic datasets;
//! * **modelled** — produced by the `io-sim` models calibrated to the
//!   paper's published hardware measurements (we have no Lustre, fabric,
//!   or 512 nodes here).

pub mod evaluate;
pub mod experiments;
pub mod report;
