//! # orchestrator — coupling Active Harmony to the simulated cluster
//!
//! The glue layer of the reproduction:
//!
//! * [`binding`] — maps cluster tunables ↔ Harmony search spaces for the
//!   three §III tuning layouts (full per-node, per-tier duplication,
//!   per-work-line partitioning);
//! * [`session`] — tuning sessions: propose → simulate one
//!   warm-up/measure/cool-down cycle → observe WIPS, for every §III
//!   method through one loop (resilient sessions included);
//! * [`schedule`] — changing-workload sessions (Figure 5);
//! * [`reconfigure`] — tuning plus the §IV automatic reconfiguration
//!   controller (Figure 7);
//! * [`resilient`] — fault-tolerant duplication sessions: the session
//!   loop plus retry/backoff, re-measurement, circuit breaking, failure
//!   detection and failure-driven reconfiguration;
//! * [`checkpoint`] — crash-safe session persistence: write-ahead
//!   journal, periodic snapshots, and deterministic resume;
//! * [`eval`] — the evaluation engine: memoized measurements and
//!   speculative parallel candidate evaluation;
//! * [`experiments`] — one typed runner per paper table/figure;
//! * [`par`] — std-thread parallel fan-out of independent runs: scoped
//!   threads for borrowed inputs and the shared worker pool for owned
//!   batches;
//! * [`report`] — text tables and sparklines for the regenerators.

//!
//! ## A complete tuning session
//!
//! ```
//! use orchestrator::session::{tune, SessionConfig};
//! use harmony::strategy::TuningMethod;
//! use cluster::config::Topology;
//! use tpcw::metrics::IntervalPlan;
//! use tpcw::mix::Workload;
//!
//! let cfg = SessionConfig::new(Topology::single(), Workload::Shopping, 200)
//!     .plan(IntervalPlan::tiny());
//! let run = tune(&cfg, TuningMethod::Default, 5).expect("session");
//! assert_eq!(run.records.len(), 5);
//! assert!(run.best_wips > 0.0);
//! ```

// Session code must surface failures as `SessionError`, never panic;
// test modules (cfg(test)) are exempt. CI enforces this with a clippy
// step dedicated to this crate.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod binding;
pub mod checkpoint;
pub mod eval;
pub mod experiments;
pub mod export;
pub mod par;
pub mod reconfigure;
pub mod report;
pub mod resilient;
pub mod schedule;
pub mod session;

pub use checkpoint::CheckpointPolicy;
pub use eval::{EvalEngine, EvalSettings};
pub use experiments::Effort;
pub use resilient::{run_resilient_session, ResilienceSettings, ResilientRun};
pub use session::{tune, SessionConfig, SessionError, TuningRun};
