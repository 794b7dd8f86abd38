//! Fluent construction of custom [`HardwareSpec`]s.

use crate::error::HardwareError;
use crate::level::{Associativity, CacheLevel, LevelKind, Sharing};
use crate::spec::HardwareSpec;

/// Fluent builder for a [`HardwareSpec`].
///
/// ```
/// use gcm_hardware::{HardwareBuilder, Associativity};
///
/// let hw = HardwareBuilder::new("my box", 1000.0)
///     .cache("L1", 64 * 1024, 64, Associativity::Ways(8), 3.0, 6.0)
///     .cache("L2", 2 * 1024 * 1024, 64, Associativity::Ways(16), 20.0, 60.0)
///     .tlb("TLB", 128, 4096, 40.0)
///     .build()
///     .unwrap();
/// assert_eq!(hw.levels().len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct HardwareBuilder {
    name: String,
    cpu_mhz: f64,
    levels: Vec<CacheLevel>,
}

impl HardwareBuilder {
    /// Start a description for a machine running at `cpu_mhz` MHz.
    pub fn new(name: impl Into<String>, cpu_mhz: f64) -> Self {
        HardwareBuilder {
            name: name.into(),
            cpu_mhz,
            levels: Vec::new(),
        }
    }

    /// Append a data-cache level (inside-out order).
    pub fn cache(
        mut self,
        name: impl Into<String>,
        capacity: u64,
        line: u64,
        assoc: Associativity,
        seq_miss_ns: f64,
        rand_miss_ns: f64,
    ) -> Self {
        self.levels.push(CacheLevel {
            name: name.into(),
            kind: LevelKind::Cache,
            capacity,
            line,
            assoc,
            seq_miss_ns,
            rand_miss_ns,
            sharing: Sharing::Private,
        });
        self
    }

    /// Append a TLB with `entries` entries over `page`-byte pages and a
    /// single miss latency (TLBs do not distinguish sequential from random
    /// access, paper §2.2).
    pub fn tlb(mut self, name: impl Into<String>, entries: u64, page: u64, miss_ns: f64) -> Self {
        self.levels.push(CacheLevel {
            name: name.into(),
            kind: LevelKind::Tlb,
            capacity: entries * page,
            line: page,
            assoc: Associativity::Full,
            seq_miss_ns: miss_ns,
            rand_miss_ns: miss_ns,
            sharing: Sharing::Private,
        });
        self
    }

    /// Validate and produce the spec.
    pub fn build(self) -> Result<HardwareSpec, HardwareError> {
        HardwareSpec::new(self.name, self.cpu_mhz, self.levels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_mixed_hierarchy() {
        let hw = HardwareBuilder::new("b", 500.0)
            .cache("L1", 1024, 32, Associativity::DirectMapped, 4.0, 10.0)
            .tlb("TLB", 16, 4096, 80.0)
            .build()
            .unwrap();
        assert_eq!(hw.levels().len(), 2);
        assert_eq!(hw.level("TLB").unwrap().capacity, 16 * 4096);
        assert_eq!(hw.level("TLB").unwrap().kind, LevelKind::Tlb);
    }

    #[test]
    fn propagates_validation_errors() {
        let r = HardwareBuilder::new("b", 500.0)
            .cache("L1", 1000, 24, Associativity::Full, 4.0, 10.0)
            .build();
        assert!(r.is_err());
    }
}
