//! The repo benchmark: five steady-state workloads against the TRAPP query
//! service, eight end-to-end metrics, per-layer probes and a traced run.
//! See `benchmark/README.md` for the glossary and how to run it.

pub mod compare;
pub mod driver;
pub mod json;
pub mod oracle;
pub mod probes;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod traced;
pub mod workload;
