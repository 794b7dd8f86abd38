//! # gcm-workload — deterministic data generators
//!
//! The paper's experiments (§6) use "randomly distributed (numerical)
//! data", 1:1 join matches, and sorted inputs for merge-join. This crate
//! generates those workloads deterministically (seeded), so every
//! experiment run measures identical access sequences — a property the
//! simulator-based validation relies on.

pub mod rng;

use rng::SplitMix64;

/// A deterministic generator of experiment columns.
#[derive(Debug)]
pub struct Workload {
    rng: SplitMix64,
}

impl Workload {
    /// A workload source with the given seed.
    pub fn new(seed: u64) -> Workload {
        Workload {
            rng: SplitMix64::new(seed),
        }
    }

    /// Uniformly random keys bounded to `[0, bound)`.
    pub fn uniform_keys_bounded(&mut self, n: usize, bound: u64) -> Vec<u64> {
        assert!(bound > 0);
        (0..n).map(|_| self.rng.next_below(bound)).collect()
    }

    /// The keys `0..n` in random order: distinct values, random placement —
    /// the paper's "randomly distributed data" for sorting and 1:1 joins.
    pub fn shuffled_keys(&mut self, n: usize) -> Vec<u64> {
        let mut keys: Vec<u64> = (0..n as u64).collect();
        self.shuffle(&mut keys);
        keys
    }

    /// A pair of columns with a perfect 1:1 match: both contain the keys
    /// `0..n`, each in its own random order (the paper's §6.2 merge- and
    /// hash-join workload).
    pub fn join_pair(&mut self, n: usize) -> (Vec<u64>, Vec<u64>) {
        (self.shuffled_keys(n), self.shuffled_keys(n))
    }

    /// Zipf-distributed keys over `[0, universe)` with exponent `theta`
    /// (skewed workloads for the robustness tests). `theta = 0` is
    /// uniform; larger values are more skewed.
    pub fn zipf_keys(&mut self, n: usize, universe: u64, theta: f64) -> Vec<u64> {
        assert!(universe > 0);
        // Inverse-CDF sampling over a precomputed harmonic table.
        let table = universe.min(1 << 16);
        let mut cdf = Vec::with_capacity(table as usize);
        let mut acc = 0.0;
        for k in 1..=table {
            acc += 1.0 / (k as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        let scale = universe as f64 / table as f64;
        (0..n)
            .map(|_| {
                let x = self.rng.next_f64() * total;
                let i = match cdf.binary_search_by(|p| p.partial_cmp(&x).expect("finite")) {
                    Ok(i) | Err(i) => i as u64,
                };
                // For universes beyond the table, spread each bucket
                // uniformly over its share of the key space.
                let base = (i as f64 * scale) as u64;
                let width = scale.max(1.0) as u64;
                (base + self.rng.next_below(width)).min(universe - 1)
            })
            .collect()
    }

    /// A foreign-key column: `n` uniform draws from `[0, dim_n)`,
    /// referencing a dimension keyed `0..dim_n` (star-schema fact
    /// tables; duplicates expected).
    pub fn foreign_keys(&mut self, n: usize, dim_n: u64) -> Vec<u64> {
        self.uniform_keys_bounded(n, dim_n)
    }

    /// A Zipf-skewed foreign-key column: `n` draws from `[0, dim_n)`
    /// with exponent `theta`. A handful of hot dimension keys carry
    /// most references — exactly the shape that imbalances hash
    /// partitions, since every duplicate of a hot key lands in the same
    /// partition no matter how good the hash is.
    pub fn zipf_foreign_keys(&mut self, n: usize, dim_n: u64, theta: f64) -> Vec<u64> {
        self.zipf_keys(n, dim_n, theta)
    }

    /// A star scenario whose fact table references its dimensions with
    /// Zipf-skewed foreign keys (exponent `theta`; `theta = 0` recovers
    /// [`Workload::star_scenario`]'s uniform shape). The partition-skew
    /// workload of the parallel-join experiments: chained fact ⋈ dim
    /// joins still preserve the fact cardinality, but partition-
    /// parallel workers inherit very unequal probe loads.
    pub fn skewed_star_scenario(
        &mut self,
        fact_n: usize,
        dim_n: usize,
        dims: usize,
        theta: f64,
    ) -> StarScenario {
        StarScenario {
            fact: self.zipf_foreign_keys(fact_n, dim_n as u64, theta),
            dims: (0..dims).map(|_| self.shuffled_keys(dim_n)).collect(),
            key_bound: dim_n as u64,
        }
    }

    /// A star-style multi-table scenario: one fact table of `fact_n`
    /// foreign keys plus `dims` dimension tables, each holding the keys
    /// `0..dim_n` exactly once in its own random order. Every fact
    /// tuple matches exactly one tuple per dimension, so chained
    /// fact ⋈ dim joins preserve the fact cardinality — the workload
    /// shape of the whole-plan optimizer experiments.
    pub fn star_scenario(&mut self, fact_n: usize, dim_n: usize, dims: usize) -> StarScenario {
        StarScenario {
            fact: self.foreign_keys(fact_n, dim_n as u64),
            dims: (0..dims).map(|_| self.shuffled_keys(dim_n)).collect(),
            key_bound: dim_n as u64,
        }
    }

    /// A multi-tenant query mix: `n` query requests, each owned by one
    /// of the `tenants` (drawn Zipf-skewed with exponent `theta`, so
    /// tenant 0 is the hottest — the arrival pattern of a service where
    /// a few tenants dominate traffic). Each request carries its
    /// tenant's [`TenantClass`] and a selectivity drawn from the
    /// class's small *quantized* bucket set — real services see the
    /// same parameterised query shapes over and over, which is what
    /// makes a plan cache pay off.
    pub fn query_mix(
        &mut self,
        n: usize,
        tenants: &[TenantClass],
        theta: f64,
    ) -> Vec<QueryRequest> {
        assert!(!tenants.is_empty(), "need at least one tenant");
        let owners = self.zipf_keys(n, tenants.len() as u64, theta);
        owners
            .into_iter()
            .map(|t| {
                let tenant = t as usize;
                let class = tenants[tenant];
                let buckets = class.selectivity_buckets();
                let selectivity = buckets[self.rng.next_below(buckets.len() as u64) as usize];
                QueryRequest {
                    tenant,
                    class,
                    selectivity,
                }
            })
            .collect()
    }

    /// Open-loop Poisson arrival times: `n` cumulative timestamps (in
    /// nanoseconds from an arbitrary epoch) whose gaps are i.i.d.
    /// exponential with the given mean — the arrival process of a
    /// service facing many independent users, where requests keep
    /// coming whether or not earlier ones finished. Timestamps are
    /// strictly derived from the seed, so a load run can be replayed
    /// exactly.
    pub fn poisson_arrivals(&mut self, n: usize, mean_interarrival_ns: f64) -> Vec<u64> {
        assert!(
            mean_interarrival_ns > 0.0 && mean_interarrival_ns.is_finite(),
            "mean interarrival must be positive and finite"
        );
        let mut t = 0.0f64;
        (0..n)
            .map(|_| {
                // Inverse-CDF of Exp(1/mean): -ln(1-U) * mean, U ∈ [0,1).
                let u = self.rng.next_f64();
                t += -(1.0 - u).ln() * mean_interarrival_ns;
                t.round() as u64
            })
            .collect()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.rng.next_below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// A random permutation of `0..n` (as indices).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx
    }

    /// `n` independent random indices into `[0, bound)` (with
    /// replacement) — the access sequence of `r_acc`.
    pub fn random_indices(&mut self, n: usize, bound: u64) -> Vec<usize> {
        (0..n)
            .map(|_| self.rng.next_below(bound) as usize)
            .collect()
    }
}

/// A tenant's workload profile in a multi-tenant query mix (see
/// [`Workload::query_mix`]): what shape of query the tenant sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TenantClass {
    /// Highly selective single-table probes (σ keeping a sliver of the
    /// key domain): tiny footprints, the classic cache-friendly OLTP
    /// shape.
    PointLookup,
    /// Broad single-table sweeps with an aggregate on top: streaming
    /// footprints that batch almost freely.
    ScanHeavy,
    /// Fact ⋈ dimension joins with an aggregate: the build-table
    /// footprints that contend for the shared cache level.
    JoinHeavy,
}

impl TenantClass {
    /// All classes, in shedding-priority order (see
    /// [`TenantClass::priority`]).
    pub const ALL: [TenantClass; 3] = [
        TenantClass::PointLookup,
        TenantClass::ScanHeavy,
        TenantClass::JoinHeavy,
    ];

    /// A stable snake_case label for metric series and artifacts.
    pub fn label(self) -> &'static str {
        match self {
            TenantClass::PointLookup => "point_lookup",
            TenantClass::ScanHeavy => "scan_heavy",
            TenantClass::JoinHeavy => "join_heavy",
        }
    }

    /// Shedding priority: lower values are served first when an
    /// overloaded service must pick what to keep. Point lookups are the
    /// cheapest and most latency-sensitive, so they outrank scans,
    /// which outrank joins.
    pub fn priority(self) -> u8 {
        match self {
            TenantClass::PointLookup => 0,
            TenantClass::ScanHeavy => 1,
            TenantClass::JoinHeavy => 2,
        }
    }

    /// A stable wire index (inverse of [`TenantClass::from_index`]).
    pub fn index(self) -> u8 {
        self.priority()
    }

    /// Decode a wire index produced by [`TenantClass::index`].
    pub fn from_index(i: u8) -> Option<TenantClass> {
        match i {
            0 => Some(TenantClass::PointLookup),
            1 => Some(TenantClass::ScanHeavy),
            2 => Some(TenantClass::JoinHeavy),
            _ => None,
        }
    }

    /// The class's quantized selectivity buckets. Requests draw from a
    /// deliberately small set so a service sees repeated plan shapes
    /// (the plan-cache workload); the values parameterise the
    /// `key < threshold` predicate via
    /// [`StarScenario::threshold`]-style scaling.
    pub fn selectivity_buckets(&self) -> &'static [f64] {
        match self {
            TenantClass::PointLookup => &[0.002, 0.01],
            TenantClass::ScanHeavy => &[0.5, 1.0],
            TenantClass::JoinHeavy => &[0.25, 0.5],
        }
    }
}

/// One query request of a multi-tenant mix (see
/// [`Workload::query_mix`]): which tenant sent it, the tenant's query
/// shape, and the request's (quantized) selectivity.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// Index into the tenant list the mix was generated from.
    pub tenant: usize,
    /// The owning tenant's query shape.
    pub class: TenantClass,
    /// Fraction of the key domain the request's predicate keeps, drawn
    /// from [`TenantClass::selectivity_buckets`].
    pub selectivity: f64,
}

/// A star-style multi-table scenario (see [`Workload::star_scenario`]):
/// fact foreign keys plus per-dimension primary-key columns over the
/// shared key domain `[0, key_bound)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StarScenario {
    /// Fact-table foreign keys (uniform draws, duplicates expected).
    pub fact: Vec<u64>,
    /// One key column per dimension: `0..key_bound`, shuffled.
    pub dims: Vec<Vec<u64>>,
    /// Exclusive upper bound of the shared key domain.
    pub key_bound: u64,
}

impl StarScenario {
    /// The `key < threshold` cut-off that keeps the given fraction of
    /// the key domain — the selectivity-parameterised predicate of the
    /// optimizer workloads (`selectivity` clamped to `[0, 1]`).
    pub fn threshold(&self, selectivity: f64) -> u64 {
        (selectivity.clamp(0.0, 1.0) * self.key_bound as f64).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_runs() {
        let a = Workload::new(42).uniform_keys_bounded(100, 1 << 40);
        let b = Workload::new(42).uniform_keys_bounded(100, 1 << 40);
        assert_eq!(a, b);
        let c = Workload::new(43).uniform_keys_bounded(100, 1 << 40);
        assert_ne!(a, c);
    }

    #[test]
    fn shuffled_keys_are_a_permutation() {
        let mut w = Workload::new(7);
        let mut keys = w.shuffled_keys(1000);
        keys.sort_unstable();
        assert_eq!(keys, (0..1000).collect::<Vec<u64>>());
    }

    #[test]
    fn shuffle_actually_shuffles() {
        let mut w = Workload::new(7);
        let keys = w.shuffled_keys(1000);
        let sorted: Vec<u64> = (0..1000).collect();
        assert_ne!(keys, sorted);
    }

    #[test]
    fn join_pair_matches_one_to_one() {
        let mut w = Workload::new(1);
        let (l, r) = w.join_pair(500);
        let mut ls = l.clone();
        let mut rs = r.clone();
        ls.sort_unstable();
        rs.sort_unstable();
        assert_eq!(ls, rs);
        assert_ne!(l, r); // different orders
    }

    #[test]
    fn bounded_keys_respect_bound() {
        let mut w = Workload::new(3);
        for k in w.uniform_keys_bounded(10_000, 37) {
            assert!(k < 37);
        }
    }

    #[test]
    fn permutation_and_indices() {
        let mut w = Workload::new(9);
        let mut p = w.permutation(256);
        p.sort_unstable();
        assert_eq!(p, (0..256).collect::<Vec<usize>>());
        for i in w.random_indices(1000, 50) {
            assert!(i < 50);
        }
    }

    #[test]
    fn star_scenario_shapes() {
        let mut w = Workload::new(21);
        let star = w.star_scenario(5_000, 700, 3);
        assert_eq!(star.fact.len(), 5_000);
        assert_eq!(star.dims.len(), 3);
        assert_eq!(star.key_bound, 700);
        // Every fact key references an existing dimension key.
        assert!(star.fact.iter().all(|&k| k < 700));
        // Each dimension is a permutation of 0..700 (a primary-key set).
        for d in &star.dims {
            let mut sorted = d.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..700).collect::<Vec<u64>>());
        }
        // Dimensions differ in order (independent shuffles).
        assert_ne!(star.dims[0], star.dims[1]);
    }

    #[test]
    fn star_threshold_tracks_selectivity() {
        let star = Workload::new(22).star_scenario(100, 1000, 1);
        assert_eq!(star.threshold(0.0), 0);
        assert_eq!(star.threshold(0.25), 250);
        assert_eq!(star.threshold(1.0), 1000);
        // Out-of-range selectivities clamp.
        assert_eq!(star.threshold(7.0), 1000);
        assert_eq!(star.threshold(-1.0), 0);
        // The predicate keeps roughly the requested fraction of facts.
        let mut w = Workload::new(23);
        let s = w.star_scenario(10_000, 1_000, 1);
        let t = s.threshold(0.3);
        let kept = s.fact.iter().filter(|&&k| k < t).count();
        assert!((2_500..3_500).contains(&kept), "kept {kept}");
    }

    #[test]
    fn zipf_is_skewed() {
        let mut w = Workload::new(11);
        let keys = w.zipf_keys(20_000, 1000, 1.0);
        let low = keys.iter().filter(|&&k| k < 100).count();
        let high = keys.iter().filter(|&&k| k >= 500).count();
        // The lowest decile must dominate the whole upper half.
        assert!(low > high, "low={low} high={high}");
        for k in keys {
            assert!(k < 1000);
        }
    }

    #[test]
    fn zipf_theta_zero_is_roughly_uniform() {
        let mut w = Workload::new(13);
        let keys = w.zipf_keys(50_000, 100, 0.0);
        let zeros = keys.iter().filter(|&&k| k == 0).count();
        // Uniform expectation: 500 hits; allow generous slack.
        assert!(zeros > 300 && zeros < 800, "zeros={zeros}");
    }

    #[test]
    fn skewed_star_scenario_shapes() {
        let mut w = Workload::new(24);
        let star = w.skewed_star_scenario(20_000, 1_000, 2, 1.2);
        assert_eq!(star.fact.len(), 20_000);
        assert_eq!(star.key_bound, 1_000);
        assert!(star.fact.iter().all(|&k| k < 1_000));
        for d in &star.dims {
            let mut sorted = d.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..1_000).collect::<Vec<u64>>());
        }
        // The head of the key domain dominates the tail.
        let head = star.fact.iter().filter(|&&k| k < 100).count();
        let tail = star.fact.iter().filter(|&&k| k >= 500).count();
        assert!(head > 2 * tail, "head={head} tail={tail}");
        // theta = 0 falls back to (roughly) uniform references.
        let flat = Workload::new(25).skewed_star_scenario(20_000, 1_000, 1, 0.0);
        let head = flat.fact.iter().filter(|&&k| k < 100).count();
        assert!((1_200..2_800).contains(&head), "head={head}");
    }

    #[test]
    fn query_mix_shapes_and_skew() {
        let tenants = [
            TenantClass::PointLookup,
            TenantClass::ScanHeavy,
            TenantClass::JoinHeavy,
        ];
        let mut w = Workload::new(31);
        let mix = w.query_mix(2_000, &tenants, 1.2);
        assert_eq!(mix.len(), 2_000);
        for q in &mix {
            assert!(q.tenant < tenants.len());
            assert_eq!(q.class, tenants[q.tenant]);
            assert!(q.class.selectivity_buckets().contains(&q.selectivity));
        }
        // Zipf arrival skew: tenant 0 dominates.
        let count = |t: usize| mix.iter().filter(|q| q.tenant == t).count();
        assert!(count(0) > count(1) && count(1) > count(2), "skew missing");
        // Every tenant still appears.
        assert!(count(2) > 0);
        // The distinct plan-shape space stays small (the plan-cache
        // property): ≤ 2 buckets per class.
        let distinct: std::collections::HashSet<(usize, u64)> = mix
            .iter()
            .map(|q| (q.tenant, q.selectivity.to_bits()))
            .collect();
        assert!(distinct.len() <= 2 * tenants.len(), "{}", distinct.len());
    }

    #[test]
    fn query_mix_is_deterministic() {
        let tenants = [TenantClass::ScanHeavy, TenantClass::JoinHeavy];
        let a = Workload::new(5).query_mix(100, &tenants, 0.8);
        let b = Workload::new(5).query_mix(100, &tenants, 0.8);
        assert_eq!(a, b);
        let c = Workload::new(6).query_mix(100, &tenants, 0.8);
        assert_ne!(a, c);
    }

    #[test]
    fn poisson_arrivals_are_monotone_and_deterministic() {
        let a = Workload::new(44).poisson_arrivals(1_000, 50_000.0);
        let b = Workload::new(44).poisson_arrivals(1_000, 50_000.0);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|p| p[0] <= p[1]), "must be cumulative");
        let c = Workload::new(45).poisson_arrivals(1_000, 50_000.0);
        assert_ne!(a, c);
    }

    #[test]
    fn poisson_arrivals_hit_the_offered_rate() {
        let mean = 20_000.0;
        let n = 50_000;
        let arr = Workload::new(46).poisson_arrivals(n, mean);
        let measured = arr[n - 1] as f64 / n as f64;
        let err = (measured - mean).abs() / mean;
        assert!(err < 0.05, "mean gap {measured} vs {mean}");
        // Exponential gaps: the coefficient of variation is ~1 (a fixed
        // interarrival schedule would be 0) — the open-loop burstiness
        // the shedder has to absorb.
        let gaps: Vec<f64> = std::iter::once(arr[0])
            .chain(arr.windows(2).map(|p| p[1] - p[0]))
            .map(|g| g as f64)
            .collect();
        let m = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - m) * (g - m)).sum::<f64>() / gaps.len() as f64;
        let cv2 = var / (m * m);
        assert!((0.85..1.15).contains(&cv2), "cv² = {cv2}");
    }

    #[test]
    fn tenant_class_labels_and_indices_round_trip() {
        for c in TenantClass::ALL {
            assert_eq!(TenantClass::from_index(c.index()), Some(c));
        }
        assert_eq!(TenantClass::from_index(3), None);
        assert_eq!(TenantClass::PointLookup.label(), "point_lookup");
        assert_eq!(TenantClass::ScanHeavy.label(), "scan_heavy");
        assert_eq!(TenantClass::JoinHeavy.label(), "join_heavy");
        // Priorities: point lookups outrank scans outrank joins.
        assert!(TenantClass::PointLookup.priority() < TenantClass::ScanHeavy.priority());
        assert!(TenantClass::ScanHeavy.priority() < TenantClass::JoinHeavy.priority());
    }

    #[test]
    fn zipf_large_universe() {
        let mut w = Workload::new(17);
        let keys = w.zipf_keys(1000, 1 << 30, 0.8);
        assert!(keys.iter().all(|&k| k < (1 << 30)));
        assert!(keys.iter().any(|&k| k > 1 << 20)); // tail is populated
    }
}
