//! `sigma-e2e`: the benchmark every later change to this repository is
//! measured with. One named workload per process, generated from a seed,
//! every answer checked, every metric printed by name and unit.
//!
//! * [`gen`] — the seeded edit scripts of the five workloads
//! * [`env`] — the system under test and its three kinds of client
//! * [`run`] — set-up, the timed closed loop, the reference comparison
//! * [`layers`] / [`trace`] — the outside-in per-layer trace
//! * [`report`] — percentiles, quartiles, `VmHWM`, JSON

pub mod env;
pub mod gen;
pub mod layers;
pub mod report;
pub mod run;
pub mod trace;
