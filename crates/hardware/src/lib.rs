//! # Unified hardware model for hierarchical memory systems
//!
//! This crate implements Section 2 of Manegold, Boncz & Kersten,
//! *Generic Database Cost Models for Hierarchical Memory Systems*
//! (CWI INS-R0203, 2002).
//!
//! A computer's memory hardware is described as a cascading hierarchy of
//! `N` levels of caches (including TLBs, and — by the same abstraction —
//! main memory viewed as a cache for disk pages). Each level `i` is
//! characterised by a small set of parameters (the paper's Table 1):
//!
//! | symbol   | meaning                                   |
//! |----------|-------------------------------------------|
//! | `C_i`    | capacity in bytes                         |
//! | `B_i`    | cache line (block) size in bytes          |
//! | `#_i`    | number of lines, `C_i / B_i`              |
//! | `A_i`    | associativity                             |
//! | `l_s,i`  | sequential miss latency (ns)              |
//! | `l_r,i`  | random miss latency (ns)                  |
//! | `b_s,i`  | sequential miss bandwidth, `B_i / l_s,i`  |
//! | `b_r,i`  | random miss bandwidth, `B_i / l_r,i`      |
//!
//! The distinction between *sequential* and *random* miss latency models the
//! Extended-Data-Output (EDO) / prefetch behaviour of DRAM: sequential
//! access streams exploit excess bandwidth, random accesses pay the full
//! latency (paper §2.2).
//!
//! TLBs are modelled as caches whose line size is the memory page size and
//! whose capacity is `entries × page size`; they are usually fully
//! associative and have identical sequential and random latency, and a TLB
//! miss transfers no data (paper §2.2, "Address translation").
//!
//! # Quickstart
//!
//! ```
//! use gcm_hardware::presets;
//!
//! let hw = presets::origin2000();
//! assert_eq!(hw.levels().len(), 3); // L1, L2, TLB
//! let l1 = &hw.levels()[0];
//! assert_eq!(l1.lines(), 1024);
//! ```

pub mod builder;
pub mod error;
pub mod level;
pub mod presets;
pub mod spec;
pub mod stride;

pub use builder::HardwareBuilder;
pub use error::HardwareError;
pub use level::{Associativity, CacheLevel, LevelKind, Sharing};
pub use spec::HardwareSpec;

/// Convenience: kibibytes to bytes.
pub const fn kib(n: u64) -> u64 {
    n * 1024
}

/// Convenience: mebibytes to bytes.
pub const fn mib(n: u64) -> u64 {
    n * 1024 * 1024
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_helpers() {
        assert_eq!(kib(32), 32768);
        assert_eq!(mib(4), 4 * 1024 * 1024);
    }
}
