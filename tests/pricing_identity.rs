//! Pricing is bit-identical to the recursive reference evaluator.
//!
//! `gcm_core` prices a pattern by lowering it once into a flat program
//! over dense region slots (see the `eval` module doc). This file keeps a
//! test-local copy of the plain recursive evaluator it replaced — a
//! `HashMap` cache state cloned per `⊙` child, footprints re-walked at
//! every `⊙` — and checks, over random patterns, warm states and four
//! machines, that every per-level miss pair, every level's and the
//! whole report's nanoseconds, every thread's time and every fraction
//! left in the state agree **to the bit** (`f64::to_bits`), not within a
//! tolerance: the lowering may change how a price is computed, never
//! what it is. The two shortcuts pricing takes are held to the full
//! computation the same way: a cold `⊙` composition that evaluates only
//! the shared levels, taking each member's private-level misses from its
//! solo report, and staged pricing that prices level by level and stops
//! once a lower bound exceeds a given bound.

use gcm::core::misses::{self, Geometry, MissPair};
use gcm::core::{
    CacheState, CostModel, CostReport, Direction, GlobalOrder, HierarchyState, LatencyClass,
    LocalPattern, Pattern, Region, RegionId,
};
use gcm::hardware::{presets, HardwareSpec, Sharing};
use proptest::prelude::*;
use std::collections::HashMap;

// ---------------------------------------------------------------------
// The reference: the recursive evaluator, as it was.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Default)]
struct RefState {
    frac: HashMap<RegionId, f64>,
}

impl RefState {
    fn fraction(&self, r: &Region) -> f64 {
        self.frac.get(&r.id()).copied().unwrap_or(0.0)
    }

    fn set(&mut self, r: &Region, fraction: f64) {
        self.frac.insert(r.id(), fraction.clamp(0.0, 1.0));
    }

    fn fully_cached(&self, r: &Region) -> bool {
        self.fraction(r) >= 1.0 - 1e-9
    }

    fn replace_with(&mut self, r: &Region, geo: &Geometry) {
        self.frac.clear();
        let cached = geo.c.min(r.bytes() as f64);
        let root = r.root_bytes() as f64;
        if root > 0.0 {
            self.frac.insert(r.id(), (cached / root).clamp(0.0, 1.0));
        }
    }

    fn merge_add(&mut self, other: &RefState) {
        for (id, f) in &other.frac {
            let e = self.frac.entry(*id).or_insert(0.0);
            *e = (*e + f).clamp(0.0, 1.0);
        }
    }
}

fn benefits_proportionally(p: &Pattern) -> bool {
    matches!(
        p,
        Pattern::RTrav { .. }
            | Pattern::RrTrav { .. }
            | Pattern::RAcc { .. }
            | Pattern::Nest {
                local: LocalPattern::RandTraversal { .. },
                ..
            }
    )
}

fn footprint_lines(p: &Pattern, geo: &Geometry) -> f64 {
    match p {
        Pattern::STrav { .. } => 1.0,
        Pattern::RTrav { r, u } => {
            if (r.w.saturating_sub(*u)) as f64 >= geo.b {
                1.0
            } else {
                r.lines(geo.b as u64).max(1.0)
            }
        }
        Pattern::RsTrav { r, .. }
        | Pattern::RrTrav { r, .. }
        | Pattern::RAcc { r, .. }
        | Pattern::Nest { r, .. } => r.lines(geo.b as u64).max(1.0),
        Pattern::Seq(ps) => ps
            .iter()
            .map(|q| footprint_lines(q, geo))
            .fold(0.0_f64, f64::max)
            .max(if ps.is_empty() { 0.0 } else { 1.0 }),
        Pattern::Conc(ps) => ps.iter().map(|q| footprint_lines(q, geo)).sum(),
        Pattern::Repeat { inner, .. } => footprint_lines(inner, geo),
    }
}

fn footprint_lines_excluding(p: &Pattern, geo: &Geometry, exclude: &[RegionId]) -> f64 {
    match p {
        Pattern::Seq(ps) => ps
            .iter()
            .map(|q| footprint_lines_excluding(q, geo, exclude))
            .fold(0.0_f64, f64::max)
            .max(if ps.is_empty() { 0.0 } else { 1.0 }),
        Pattern::Conc(ps) => ps
            .iter()
            .map(|q| footprint_lines_excluding(q, geo, exclude))
            .sum(),
        Pattern::Repeat { inner, .. } => footprint_lines_excluding(inner, geo, exclude),
        basic => {
            let r = basic.region().expect("basic pattern has a region");
            if exclude.contains(&r.id()) {
                0.0
            } else {
                footprint_lines(basic, geo)
            }
        }
    }
}

fn references_region(p: &Pattern, id: RegionId) -> bool {
    match p {
        Pattern::Seq(ps) | Pattern::Conc(ps) => ps.iter().any(|q| references_region(q, id)),
        Pattern::Repeat { inner, .. } => references_region(inner, id),
        basic => basic.region().is_some_and(|r| r.id() == id),
    }
}

fn basic_misses(p: &Pattern, geo: &Geometry) -> MissPair {
    match p {
        Pattern::STrav { r, u, latency } => misses::s_trav(r, *u, *latency, geo),
        Pattern::RsTrav {
            r,
            u,
            k,
            dir,
            latency,
        } => misses::rs_trav(r, *u, *k, *dir, *latency, geo),
        Pattern::RTrav { r, u } => misses::r_trav(r, *u, geo),
        Pattern::RrTrav { r, u, k } => misses::rr_trav(r, *u, *k, geo),
        Pattern::RAcc { r, u, accesses } => misses::r_acc(r, *u, *accesses, geo),
        Pattern::Nest { r, m, local, order } => misses::nest(r, *m, local, *order, geo),
        Pattern::Seq(_) | Pattern::Conc(_) | Pattern::Repeat { .. } => unreachable!(),
    }
}

fn eval_level(p: &Pattern, geo: &Geometry, state: &mut RefState) -> MissPair {
    match p {
        Pattern::Seq(ps) => {
            let mut total = MissPair::default();
            for child in ps {
                total += eval_level(child, geo, state);
            }
            total
        }
        Pattern::Repeat { k, inner } => {
            if *k == 0 {
                return MissPair::default();
            }
            let first = eval_level(inner, geo, state);
            if *k == 1 {
                return first;
            }
            let steady = eval_level(inner, geo, state);
            first + steady * (*k - 1) as f64
        }
        Pattern::Conc(ps) => {
            if ps.is_empty() {
                return MissPair::default();
            }
            let feet: Vec<f64> = ps.iter().map(|q| footprint_lines(q, geo)).collect();
            let total_foot: f64 = feet.iter().sum();
            let mut total = MissPair::default();
            let mut merged = RefState::default();
            for (child, foot) in ps.iter().zip(&feet) {
                let share = if total_foot > 0.0 {
                    foot / total_foot
                } else {
                    1.0
                };
                let sub_geo = geo.scaled(share);
                let mut sub_state = state.clone();
                total += eval_level(child, &sub_geo, &mut sub_state);
                merged.merge_add(&sub_state);
            }
            *state = merged;
            total
        }
        basic => {
            let r = basic.region().expect("basic pattern has a region");
            let rho = state.fraction(r);
            let raw = basic_misses(basic, geo);
            let cached_bytes = rho * r.root_bytes() as f64;
            let slice_cached = (r.bytes() as f64) < cached_bytes;
            let result = if state.fully_cached(r) || slice_cached {
                MissPair::default()
            } else if benefits_proportionally(basic) {
                raw * (1.0 - rho)
            } else {
                raw
            };
            state.replace_with(r, geo);
            result
        }
    }
}

/// A reference report: `(seq, rand, ns)` per level, and `T_mem`.
struct RefReport {
    levels: Vec<(f64, f64, f64)>,
    mem_ns: f64,
}

fn score(spec: &HardwareSpec, pairs: &[MissPair]) -> RefReport {
    let levels: Vec<(f64, f64, f64)> = spec
        .levels()
        .iter()
        .zip(pairs)
        .map(|(lvl, m)| {
            (
                m.seq,
                m.rand,
                m.seq * lvl.seq_miss_ns + m.rand * lvl.rand_miss_ns,
            )
        })
        .collect();
    let mem_ns = levels.iter().map(|l| l.2).sum();
    RefReport { levels, mem_ns }
}

fn ref_report_from(spec: &HardwareSpec, p: &Pattern, state: &RefState) -> RefReport {
    let pairs: Vec<MissPair> = spec
        .levels()
        .iter()
        .map(|lvl| eval_level(p, &Geometry::of(lvl), &mut state.clone()))
        .collect();
    score(spec, &pairs)
}

fn ref_advance(spec: &HardwareSpec, p: &Pattern, states: &mut [RefState]) -> RefReport {
    let pairs: Vec<MissPair> = spec
        .levels()
        .iter()
        .zip(states.iter_mut())
        .map(|(lvl, state)| eval_level(p, &Geometry::of(lvl), state))
        .collect();
    score(spec, &pairs)
}

/// The reference `advance_parallel_shared`: the report and each
/// thread's nanoseconds.
fn ref_parallel(
    spec: &HardwareSpec,
    threads: &[Pattern],
    states: &mut [RefState],
    shared: &[Region],
) -> (RefReport, Vec<f64>) {
    let d = threads.len();
    if d <= 1 {
        let report = match threads.first() {
            Some(p) => ref_advance(spec, p, states),
            None => ref_advance(spec, &Pattern::empty(), states),
        };
        let wall = report.mem_ns;
        return (report, vec![wall]);
    }
    let mut shared_unique: Vec<&Region> = Vec::with_capacity(shared.len());
    for r in shared {
        if !shared_unique.iter().any(|s| s.id() == r.id()) {
            shared_unique.push(r);
        }
    }
    let shared_ids: Vec<RegionId> = shared_unique.iter().map(|r| r.id()).collect();
    let mut per_thread_ns = vec![0.0; d];
    let mut levels = Vec::new();
    for (lvl, state) in spec.levels().iter().zip(states.iter_mut()) {
        let geo = Geometry::of(lvl);
        let mut pairs = Vec::with_capacity(d);
        if lvl.sharing == Sharing::Shared {
            let feet: Vec<f64> = threads.iter().map(|t| footprint_lines(t, &geo)).collect();
            let mut denom: f64 = threads
                .iter()
                .map(|t| footprint_lines_excluding(t, &geo, &shared_ids))
                .sum();
            for r in &shared_unique {
                if threads.iter().any(|t| references_region(t, r.id())) {
                    denom += r.lines(geo.b as u64).max(1.0);
                }
            }
            let mut merged = RefState::default();
            for (t, foot) in threads.iter().zip(&feet) {
                let share = if denom > 0.0 {
                    (foot / denom).min(1.0)
                } else {
                    1.0
                };
                let mut sub = state.clone();
                pairs.push(eval_level(t, &geo.scaled(share), &mut sub));
                merged.merge_add(&sub);
            }
            *state = merged;
        } else {
            let mut core0 = None;
            for (i, t) in threads.iter().enumerate() {
                let mut sub = if i == 0 {
                    state.clone()
                } else {
                    RefState::default()
                };
                pairs.push(eval_level(t, &geo, &mut sub));
                if i == 0 {
                    core0 = Some(sub);
                }
            }
            *state = core0.expect("d >= 2 threads");
        }
        let mut sum = MissPair::default();
        for (t, pair) in pairs.iter().enumerate() {
            per_thread_ns[t] += pair.seq * lvl.seq_miss_ns + pair.rand * lvl.rand_miss_ns;
            sum += *pair;
        }
        levels.push((
            sum.seq,
            sum.rand,
            sum.seq * lvl.seq_miss_ns + sum.rand * lvl.rand_miss_ns,
        ));
    }
    let mem_ns = levels.iter().map(|l| l.2).sum();
    (RefReport { levels, mem_ns }, per_thread_ns)
}

// ---------------------------------------------------------------------
// Random machines, regions, patterns and states.
// ---------------------------------------------------------------------

/// SplitMix64: a deterministic stream from one proptest seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

fn machine(i: u64) -> HardwareSpec {
    match i % 4 {
        0 => presets::origin2000(),
        1 => presets::tiny(),
        2 => presets::tiny_smp(4),
        _ => presets::modern_smp(2),
    }
}

/// Root regions from a few bytes to beyond the largest cache, one of
/// them empty now and then.
fn roots(rng: &mut Rng) -> Vec<Region> {
    let count = 2 + rng.below(4);
    (0..count)
        .map(|i| {
            let w = *rng.pick(&[1u64, 4, 8, 16, 24, 64, 256]);
            let n = if rng.chance(4) {
                0
            } else {
                let bits = rng.below(22);
                (1u64 << bits) + rng.below(1 << bits)
            };
            Region::new(format!("R{i}"), n, w)
        })
        .collect()
}

/// A root or a slice of it (slices share the root's identity).
fn region(rng: &mut Rng, pool: &[Region]) -> Region {
    let root = rng.pick(pool);
    match rng.below(3) {
        0 => root.clone(),
        1 => root.slice(1 << rng.below(8)),
        _ => root.slice_items(rng.below(root.n + 1)),
    }
}

fn leaf(rng: &mut Rng, pool: &[Region]) -> Pattern {
    let r = region(rng, pool);
    let u = 1 + rng.below(r.w);
    let k = *rng.pick(&[1u64, 2, 3, 17, 1000]);
    let dir = *rng.pick(&[Direction::Uni, Direction::Bi]);
    match rng.below(10) {
        0 => Pattern::s_trav(r),
        1 => Pattern::s_trav_u(r, u),
        2 => Pattern::STrav {
            r,
            u,
            latency: LatencyClass::Random,
        },
        3 => Pattern::rs_trav(r, k, dir),
        4 => Pattern::r_trav(r),
        5 => Pattern::r_trav_u(r, u),
        6 => Pattern::rr_trav(r, u, k),
        7 => {
            let q = rng.below(4 * r.n + 2);
            Pattern::r_acc(r, q)
        }
        _ => {
            let bits = rng.below(14);
            let m = 1 + rng.below(1 << bits);
            let local = if rng.chance(50) {
                LocalPattern::RandTraversal { u }
            } else {
                LocalPattern::SeqTraversal {
                    u,
                    latency: *rng.pick(&[LatencyClass::Sequential, LatencyClass::Random]),
                }
            };
            let order = if rng.chance(30) {
                GlobalOrder::Random
            } else {
                GlobalOrder::Sequential(dir)
            };
            Pattern::nest(r, m, local, order)
        }
    }
}

/// A random pattern at least `min_depth` compound levels deep along its
/// first branch, at most `max_depth` anywhere. Compounds are built by
/// hand as well as by the canonicalising constructors, so nested `⊕`/`⊙`,
/// ε children inside `⊙`, and `k × P` with `k ∈ {0, 1, large}` all occur.
fn pattern(rng: &mut Rng, pool: &[Region], min_depth: u32, max_depth: u32) -> Pattern {
    if max_depth == 0 || (min_depth == 0 && rng.chance(35)) {
        return if rng.chance(5) {
            Pattern::empty()
        } else {
            leaf(rng, pool)
        };
    }
    let kids = |rng: &mut Rng, at_least: usize| -> Vec<Pattern> {
        let count = at_least as u64 + rng.below(4);
        (0..count)
            .map(|i| {
                let min = if i == 0 {
                    min_depth.saturating_sub(1)
                } else {
                    0
                };
                pattern(rng, pool, min, max_depth - 1)
            })
            .collect()
    };
    match rng.below(7) {
        0 => Pattern::Seq(kids(rng, 1)),
        1 => Pattern::seq(kids(rng, 1)),
        2 => Pattern::Conc(kids(rng, 1)),
        3 => {
            // ε among the ⊙ children.
            let mut ps = kids(rng, 1);
            let at = rng.below(ps.len() as u64 + 1) as usize;
            ps.insert(at, Pattern::empty());
            Pattern::Conc(ps)
        }
        4 => Pattern::conc(kids(rng, 1)),
        _ => {
            let k = *rng.pick(&[0u64, 1, 1, 2, 3, 64, 1 << 20, u64::MAX >> 11]);
            let inner = pattern(rng, pool, min_depth.saturating_sub(1), max_depth - 1);
            Pattern::Repeat {
                k,
                inner: Box::new(inner),
            }
        }
    }
}

/// A random pattern of any depth up to `max_depth`.
fn some_pattern(rng: &mut Rng, pool: &[Region], max_depth: u32) -> Pattern {
    let min_depth = rng.below(u64::from(max_depth)) as u32;
    pattern(rng, pool, min_depth, max_depth)
}

/// A warm state over some pool roots and some regions no pattern
/// references, with fractions from cold to fully resident.
fn warm(rng: &mut Rng, pool: &[Region], foreign: &[Region]) -> Vec<(Region, f64)> {
    let mut out = Vec::new();
    for r in pool.iter().chain(foreign) {
        if rng.chance(45) {
            let f = match rng.below(7) {
                0 => 0.0,
                1 => 1.0,
                2 => 1.0 - 1e-10,
                3 => 0.5,
                4 => -0.0,
                5 => 1e-12,
                _ => rng.below(1 << 20) as f64 / (1 << 20) as f64,
            };
            out.push((r.clone(), f));
        }
    }
    out
}

fn cache_state(entries: &[(Region, f64)]) -> CacheState {
    let mut st = CacheState::cold();
    for (r, f) in entries {
        st.set(r, *f);
    }
    st
}

fn ref_state(entries: &[(Region, f64)]) -> RefState {
    let mut st = RefState::default();
    for (r, f) in entries {
        st.set(r, *f);
    }
    st
}

// ---------------------------------------------------------------------
// Bit-for-bit comparisons.
// ---------------------------------------------------------------------

fn same_report(got: &CostReport, want: &RefReport, what: &str) -> Result<(), String> {
    if got.levels.len() != want.levels.len() {
        return Err(format!("{what}: level count differs"));
    }
    for (g, w) in got.levels.iter().zip(&want.levels) {
        let pairs = [
            ("seq", g.seq_misses, w.0),
            ("rand", g.rand_misses, w.1),
            ("ns", g.ns, w.2),
        ];
        for (field, a, b) in pairs {
            if a.to_bits() != b.to_bits() {
                return Err(format!(
                    "{what}: {} {field} {a:e} != reference {b:e}",
                    g.name
                ));
            }
        }
    }
    if got.mem_ns.to_bits() != want.mem_ns.to_bits() {
        return Err(format!(
            "{what}: mem_ns {:e} != reference {:e}",
            got.mem_ns, want.mem_ns
        ));
    }
    Ok(())
}

fn same_states(
    got: &HierarchyState,
    want: &[RefState],
    universe: &[Region],
    what: &str,
) -> Result<(), String> {
    for (level, (g, w)) in got.levels().iter().zip(want).enumerate() {
        for r in universe {
            let (a, b) = (g.fraction(r), w.fraction(r));
            if a.to_bits() != b.to_bits() {
                return Err(format!(
                    "{what}: level {level} fraction of {r} {a:e} != reference {b:e}"
                ));
            }
        }
    }
    Ok(())
}

fn same_bits(got: &[f64], want: &[f64], what: &str) -> Result<(), String> {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if bits(got) != bits(want) {
        return Err(format!("{what}: {got:?} != reference {want:?}"));
    }
    Ok(())
}

/// Price one random case both ways; `Err` names the first difference.
fn check_report(seed: u64) -> Result<(), String> {
    let mut rng = Rng(seed);
    let spec = machine(rng.next());
    let model = CostModel::new(spec.clone());
    let pool = roots(&mut rng);
    let foreign = roots(&mut rng);
    let min_depth = if rng.chance(50) { 4 } else { 0 };
    let p = pattern(&mut rng, &pool, min_depth, 6);
    let entries = warm(&mut rng, &pool, &foreign);
    let what = format!("{} / {p}", spec.name);
    same_report(
        &model.report(&p),
        &ref_report_from(&spec, &p, &RefState::default()),
        &format!("report {what}"),
    )?;
    same_report(
        &model.report_from(&p, &cache_state(&entries)),
        &ref_report_from(&spec, &p, &ref_state(&entries)),
        &format!("report_from {what}"),
    )
}

/// A chain of staged stages — single patterns and parallel stages with
/// duplicate and unreferenced shared regions — from a warm start, both
/// ways, comparing every report, thread time and state on the way.
fn check_chain(seed: u64) -> Result<(), String> {
    let mut rng = Rng(seed);
    let spec = machine(rng.next());
    let model = CostModel::new(spec.clone());
    let pool = roots(&mut rng);
    let foreign = roots(&mut rng);
    let universe: Vec<Region> = pool.iter().chain(&foreign).cloned().collect();
    let entries = warm(&mut rng, &pool, &foreign);
    let mut st = model.staged(&cache_state(&entries));
    let mut reference = vec![ref_state(&entries); spec.levels().len()];
    for step in 0..1 + rng.below(4) {
        if rng.chance(50) {
            let p = some_pattern(&mut rng, &pool, 5);
            let what = format!("{} step {step} advance {p}", spec.name);
            same_report(
                &model.advance(&p, &mut st),
                &ref_advance(&spec, &p, &mut reference),
                &what,
            )?;
            same_states(&st, &reference, &universe, &what)?;
        } else {
            let d = rng.below(5);
            let threads: Vec<Pattern> = (0..d).map(|_| some_pattern(&mut rng, &pool, 4)).collect();
            let mut shared: Vec<Region> = Vec::new();
            for _ in 0..rng.below(4) {
                let r = if rng.chance(70) {
                    region(&mut rng, &pool)
                } else {
                    rng.pick(&foreign).clone()
                };
                if rng.chance(40) {
                    shared.push(r.clone());
                }
                shared.push(r);
            }
            let listed: Vec<String> = threads.iter().map(|t| t.to_string()).collect();
            let what = format!(
                "{} step {step} parallel [{}] shared {shared:?}",
                spec.name,
                listed.join(" | ")
            );
            let got = model.advance_parallel_shared(&threads, &mut st, &shared);
            let (want, want_threads) = ref_parallel(&spec, &threads, &mut reference, &shared);
            same_report(&got.report, &want, &what)?;
            same_bits(
                &got.per_thread_ns,
                &want_threads,
                &format!("{what} per_thread_ns"),
            )?;
            let wall = want_threads.iter().copied().fold(0.0, f64::max);
            same_bits(&[got.wall_ns], &[wall], &format!("{what} wall_ns"))?;
            same_states(&st, &reference, &universe, &what)?;
        }
    }
    Ok(())
}

/// A random batch: its machine, a warm state, the member patterns, and
/// a shared list holding one region twice and one no member references.
struct RandomBatch {
    spec: HardwareSpec,
    entries: Vec<(Region, f64)>,
    queries: Vec<Pattern>,
    shared: Vec<Region>,
}

fn random_batch(seed: u64) -> RandomBatch {
    let mut rng = Rng(seed);
    let spec = machine(rng.next());
    let pool = roots(&mut rng);
    let foreign = roots(&mut rng);
    let entries = warm(&mut rng, &pool, &foreign);
    let queries: Vec<Pattern> = (0..1 + rng.below(4))
        .map(|_| some_pattern(&mut rng, &pool, 5))
        .collect();
    let mut shared = vec![region(&mut rng, &pool), rng.pick(&foreign).clone()];
    shared.push(shared[0].clone());
    RandomBatch {
        spec,
        entries,
        queries,
        shared,
    }
}

/// A batch priced with `batch_cost_shared` against the reference's
/// parallel stage and solo reports, from a warm start.
fn check_batch(seed: u64) -> Result<(), String> {
    let RandomBatch {
        spec,
        entries,
        queries,
        shared,
    } = random_batch(seed);
    let model = CostModel::new(spec.clone());
    let got = model.batch_cost_shared(&queries, &cache_state(&entries), &shared);
    let mut reference = vec![ref_state(&entries); spec.levels().len()];
    let (_, want) = ref_parallel(&spec, &queries, &mut reference, &shared);
    let what = format!("{} batch of {}", spec.name, queries.len());
    same_bits(&got.per_query_ns, &want, &format!("{what} per_query_ns"))?;
    let solos: Vec<f64> = queries
        .iter()
        .map(|q| ref_report_from(&spec, q, &ref_state(&entries)).mem_ns)
        .collect();
    same_bits(&got.solo_ns, &solos, &format!("{what} solo_ns"))
}

/// Every level's misses and nanoseconds and the total, as bits.
fn report_bits(r: &CostReport) -> Vec<u64> {
    let levels = r
        .levels
        .iter()
        .flat_map(|l| [l.seq_misses, l.rand_misses, l.ns]);
    levels.chain([r.mem_ns]).map(f64::to_bits).collect()
}

/// The same random batch composed from cold caches two ways: in full by
/// `advance_parallel_shared`, and at the shared levels only by
/// `compose_cold_shared`, given each member's cold solo report.
fn check_cold_composition(seed: u64) -> Result<(), String> {
    let RandomBatch {
        spec,
        queries,
        shared,
        ..
    } = random_batch(seed);
    let model = CostModel::new(spec.clone());
    let solos: Vec<CostReport> = queries.iter().map(|q| model.report(q)).collect();
    let full =
        model.advance_parallel_shared(&queries, &mut model.staged(&CacheState::cold()), &shared);
    let got = model.compose_cold_shared(queries.iter().zip(&solos), &shared);
    let what = format!("{} cold batch of {}", spec.name, queries.len());
    same_bits(
        &got.per_thread_ns,
        &full.per_thread_ns,
        &format!("{what} per_thread_ns"),
    )?;
    same_bits(&[got.wall_ns], &[full.wall_ns], &format!("{what} wall_ns"))?;
    if report_bits(&got.report) != report_bits(&full.report) {
        return Err(format!("{what}: report {} != {}", got.report, full.report));
    }
    Ok(())
}

/// A staged chain from a warm start priced by `staged_within` under a
/// random level order, CPU term and bound — one of them exactly the
/// chain's total — against the fold of `advance` over its stages.
fn check_bounded_chain(seed: u64) -> Result<(), String> {
    let mut rng = Rng(seed);
    let spec = machine(rng.next());
    let model = CostModel::new(spec.clone());
    let pool = roots(&mut rng);
    let foreign = roots(&mut rng);
    let initial = cache_state(&warm(&mut rng, &pool, &foreign));
    let stages: Vec<Pattern> = (0..rng.below(5))
        .map(|_| some_pattern(&mut rng, &pool, 4))
        .collect();
    let mut st = model.staged(&initial);
    let mut mem = 0.0;
    let mut level_ns = vec![Vec::new(); spec.levels().len()];
    for p in &stages {
        let report = model.advance(p, &mut st);
        mem += report.mem_ns;
        for (per, l) in level_ns.iter_mut().zip(&report.levels) {
            per.push(l.ns);
        }
    }
    let level_ns: Vec<f64> = level_ns.iter().map(|per| per.iter().sum()).collect();
    let cpu = rng.below(1 << 20) as f64 * rng.below(3) as f64;
    let total = mem + cpu;
    let dearest: Vec<f64> = if rng.chance(20) {
        Vec::new()
    } else {
        (0..spec.levels().len())
            .map(|_| rng.below(4) as f64)
            .collect()
    };
    let what = format!("{} chain of {} under {dearest:?}", spec.name, stages.len());
    let bounds = [
        total,
        f64::INFINITY,
        0.0,
        total * rng.below(1 << 10) as f64 / (1 << 9) as f64,
        mem,
        cpu,
    ];
    for bound in bounds {
        match model.staged_within(&stages, &initial, &dearest, cpu, bound) {
            Some(price) => {
                same_bits(&[price.mem_ns], &[mem], &format!("{what} bound {bound:e}"))?;
                same_bits(&price.level_ns, &level_ns, &format!("{what} level_ns"))?;
            }
            None if total > bound => {}
            None => {
                return Err(format!(
                    "{what}: pruned at bound {bound:e} though mem {mem:e} + cpu {cpu:e} fits"
                ))
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn reports_match_the_recursive_reference_to_the_bit(seed in 0u64..u64::MAX) {
        let checked = check_report(seed);
        prop_assert!(checked.is_ok(), "seed {seed}: {}", checked.unwrap_err());
    }

    #[test]
    fn staged_chains_match_the_recursive_reference_to_the_bit(seed in 0u64..u64::MAX) {
        let checked = check_chain(seed);
        prop_assert!(checked.is_ok(), "seed {seed}: {}", checked.unwrap_err());
    }

    #[test]
    fn batches_match_the_recursive_reference_to_the_bit(seed in 0u64..u64::MAX) {
        let checked = check_batch(seed);
        prop_assert!(checked.is_ok(), "seed {seed}: {}", checked.unwrap_err());
    }

    #[test]
    fn shared_level_composition_matches_the_full_one_to_the_bit(seed in 0u64..u64::MAX) {
        let checked = check_cold_composition(seed);
        prop_assert!(checked.is_ok(), "seed {seed}: {}", checked.unwrap_err());
    }

    #[test]
    fn bounded_staged_pricing_matches_the_fold_or_exceeds_the_bound(seed in 0u64..u64::MAX) {
        let checked = check_bounded_chain(seed);
        prop_assert!(checked.is_ok(), "seed {seed}: {}", checked.unwrap_err());
    }
}

/// The quick-sort pattern is the deepest library shape (a `⊕` of
/// `2^i × ⊙` per recursion depth); price it both ways at several sizes
/// on every machine.
#[test]
fn library_quick_sort_matches_the_reference_to_the_bit() {
    for m in 0..4 {
        let spec = machine(m);
        let model = CostModel::new(spec.clone());
        for n in [1_000u64, 15_000, 60_000, 1 << 22] {
            let p = gcm::core::library::quick_sort(Region::new("U", n, 8));
            let checked = same_report(
                &model.report(&p),
                &ref_report_from(&spec, &p, &RefState::default()),
                &format!("{} quick_sort n={n}", spec.name),
            );
            assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }
    }
}
