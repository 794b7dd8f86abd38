//! # Hierarchical memory simulator
//!
//! The measurement substrate of this reproduction. The paper validates its
//! cost model against the hardware event counters of a MIPS R10000; we do
//! not have that machine, so this crate provides the substitute documented
//! in `DESIGN.md`: a deterministic software simulation of the same memory
//! hierarchy.
//!
//! * [`cache::SimCache`] — a set-associative cache with LRU replacement,
//!   parameterised by the [`gcm_hardware::CacheLevel`] it simulates.
//! * [`memory::MemorySystem`] — the full hierarchy: data caches probed
//!   inside-out, a TLB probed per page, per-level hit/miss counters, and a
//!   *charged-latency clock* that scores each miss with the level's
//!   sequential or random miss latency (sequential = the missed line is
//!   adjacent to the previously missed line of that level, modelling the
//!   EDO/prefetch behaviour of §2.2).
//! * [`arena::Arena`] — the simulated address space with real backing
//!   bytes, so database operators compute real results while their memory
//!   behaviour is measured.
//! * [`stats::LevelStats`] — the counter set corresponding to the paper's
//!   "exact number of cache and TLB misses" measurements (§6.1), extended
//!   with the compulsory/capacity/conflict classification of `[HS89]` (§2.1).
//!
//! The simulator is intentionally single-threaded: miss counts are exactly
//! reproducible, which the validation experiments rely on.
//!
//! ```
//! use gcm_hardware::presets;
//! use gcm_sim::MemorySystem;
//!
//! let mut mem = MemorySystem::new(presets::tiny());
//! let buf = mem.alloc(4096, 64);
//! for i in 0..64 {
//!     mem.read(buf + i * 64, 8); // sequential sweep, 64-byte stride
//! }
//! let l1 = &mem.stats()[0];
//! assert!(l1.misses() > 0);
//! ```

pub mod arena;
pub mod cache;
mod lru;
pub mod memory;
pub mod stats;

pub use arena::Arena;
pub use cache::{AccessOutcome, SimCache};
pub use memory::{MemorySystem, Snapshot};
pub use stats::{LevelStats, MissClass};

/// A simulated memory address (an offset into the [`Arena`]).
pub type Addr = u64;
