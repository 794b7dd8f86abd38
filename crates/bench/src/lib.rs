//! # gcm-bench — shared experiment harness
//!
//! Code shared by the bench targets and the integration tests:
//!
//! * [`exec`] — *pattern executors*: programs that drive the memory
//!   simulator with exactly the access sequence a basic pattern
//!   describes. They are the "measured" side of Figures 5 and 6.
//! * [`compare`] — measured-vs-predicted assertion helpers with explicit
//!   tolerances.
//! * [`paper`] — the tolerance gate and JSON rows of the `paper` bench
//!   target's `BENCH_paper.json`.
//! * [`table`] — plain-text series printing.

pub mod compare;
pub mod exec;
pub mod paper;
pub mod table;
