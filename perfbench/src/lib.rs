//! The SXSI benchmark: one runner, four named workloads, one result schema.
//!
//! `bench run --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! sets the workload up from the seed, checks the program's answers, runs a
//! closed loop for the given time and prints every metric of the contract in
//! `BENCHMARK.json` by name.  See `README.md` for the workloads, the metric
//! definitions and the layer → end-to-end predictions.
//!
//! Every call into the program under test goes through [`sut`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod compare;
pub mod host;
pub mod json;
pub mod layers;
pub mod load;
pub mod measure;
pub mod run;
pub mod spec;
pub mod stats;
pub mod sut;
pub mod trace;
pub mod workloads;
