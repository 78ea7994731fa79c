//! Implementation of the `agebo` command-line tool.
//!
//! Subcommands:
//!
//! * `agebo info` — search-space and benchmark-data summary;
//! * `agebo search` — run AgE/AgEBO on a benchmark data set or a CSV,
//!   write the history (and optionally the best model) to JSON;
//! * `agebo resume` — continue a search exactly-once from its durable store;
//! * `agebo evaluate` — load a saved model and a CSV, print metrics.

pub mod args;
pub mod commands;

pub use args::{Cli, Command, ParseError};
