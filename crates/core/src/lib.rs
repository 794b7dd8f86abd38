//! # gcm-core — Generic database cost models for hierarchical memory systems
//!
//! The core of the reproduction of Manegold, Boncz & Kersten (CWI
//! INS-R0203 / VLDB 2002): a *generic* technique for deriving the memory
//! access cost of database algorithms.
//!
//! The workflow the paper proposes (and this crate implements):
//!
//! 1. Describe data structures as [`Region`]s (`R.n` items × `R.w` bytes,
//!    §3.1).
//! 2. Describe an algorithm's memory behaviour as a [`Pattern`]: a
//!    combination of six basic access patterns under sequential (`⊕`) and
//!    concurrent (`⊙`) execution (§3.2–3.3; ready-made descriptions of the
//!    classic operators are in [`library`], the paper's Table 2).
//! 3. Let the model estimate sequential/random misses per cache level
//!    (Eq 4.2–4.9 in [`misses`], combination rules Eq 5.1–5.3 in [`eval`])
//!    and score them with the machine's miss latencies (Eq 3.1/6.1 in
//!    [`cost`]).
//!
//! ```
//! use gcm_core::{library, CostModel, Region};
//! use gcm_hardware::presets;
//!
//! let model = CostModel::new(presets::origin2000());
//! let u = Region::new("U", 1_000_000, 8);
//! let v = Region::new("V", 1_000_000, 8);
//! let h = Region::new("H", 1_000_000, 16);
//! let w = Region::new("W", 1_000_000, 8);
//!
//! let pattern = library::hash_join(u, v, h, w);
//! println!("{pattern}");           // the paper's pattern language
//! let report = model.report(&pattern);
//! assert!(report.mem_ns > 0.0);
//! ```

pub mod cost;
pub mod distinct;
pub mod eval;
pub mod library;
pub mod misses;
pub mod pattern;
pub mod region;

pub use cost::{
    BatchCost, CostModel, CostReport, CpuCost, HierarchyState, LevelCost, ParallelCost, StagedPrice,
};
pub use eval::{concurrent_shares, footprint_lines, CacheState};
pub use misses::{Geometry, MissPair};
pub use pattern::{Direction, GlobalOrder, LatencyClass, LocalPattern, Pattern};
pub use region::{Region, RegionId};
