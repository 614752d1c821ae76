//! End-to-end and per-layer benchmark of the SD-PCM simulator.
//!
//! `cargo run --release -- --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>` measures one workload; without `--workload` it
//! measures both, untraced and traced, each in its own process.
//! `cargo run --release -- compare OLD NEW` compares two result sets.
//! See `WORKLOADS.md` for the workloads and metrics.

pub mod check;
pub mod compare;
pub mod host;
pub mod json;
mod kernels;
pub mod run;
pub mod stats;
pub mod workloads;
