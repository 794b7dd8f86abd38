//! Evaluating compound patterns: cache state, footprints, and the
//! `⊕`/`⊙` combination rules (paper §5).
//!
//! The evaluator prices a [`Pattern`] once per cache level (Eq 3.1 treats
//! levels independently), threading a [`CacheState`] that records which
//! fraction of each data region the level currently holds:
//!
//! * **Sequential execution `⊕`** (§5.1/5.2): patterns run one after the
//!   other; a pattern over a region the previous pattern left (partially)
//!   cached saves misses. A fully cached region costs nothing; random
//!   patterns benefit *proportionally* from a partially cached region;
//!   sequential patterns benefit only from a fully cached one (the cached
//!   fraction would have to be exactly the "head" of the region, which we
//!   cannot know). After a pattern, (only) its region remains cached, with
//!   fraction `min(1, C/||R||)`.
//! * **Concurrent execution `⊙`** (§5.2/Eq 5.3): patterns compete for the
//!   cache and are each granted a share proportional to their *footprint*
//!   (the lines they potentially revisit): single sequential traversals
//!   revisit nothing (footprint 1 line), as do random traversals with
//!   gaps ≥ line; every other basic pattern may revisit its whole region
//!   (`|R|` lines). Each pattern is then evaluated against a cache scaled
//!   to its share, and afterwards each region is cached in proportion to
//!   its share.
//!
//! # How a pricing call runs
//!
//! A pricing call first **lowers** its patterns, once, into a flat
//! program: one node per pattern node in pre-order, so a node's children
//! follow it, each after its predecessor's subtree, and every node
//! records where its subtree ends. Every level then runs over that
//! program; nothing in it allocates, and nothing outlives the call.
//! Several patterns lowered together run either concurrently (the
//! threads of a parallel stage or the members of a batch) or one after
//! another from the state each leaves (a chain of staged `⊕` phases
//! priced one level at a time), and a level that a caller already knows,
//! or does not need, is simply not run.
//!
//! * **State.** A level's [`CacheState`] becomes a short list of
//!   `(region, fraction)` entries in a buffer allocated once per call,
//!   sized for every region the call can meet (the patterns' own and
//!   those the incoming state holds). After each basic pattern the state
//!   holds one region (§5.1), so the list stays short: reading a
//!   region's fraction scans a few entries. The current state is a view
//!   into that buffer, so every `⊙` member starts from the incoming
//!   view as it is, and the members' merged residue, written to an area
//!   of the `⊙`'s nesting depth, is the view afterwards. No state is
//!   cloned or copied per member.
//! * **Footprints.** A footprint depends only on the line size `B`,
//!   which [`Geometry::scaled`] keeps. So each node's footprint is
//!   computed once per level, bottom-up over the program, and again only
//!   when the next level's line size differs. Nothing re-walks a
//!   subtree at every `⊙` it sits under.
//!
//! Every floating-point sum keeps one fixed order: `⊕` and `⊙` add their
//! children's misses in child order, a `⊙` merge adds each region's
//! residues in child order, footprints fold in child order, and levels
//! add up in spec order. Float addition is not associative, so this
//! order is part of the model's definition: a change to the evaluator's
//! machinery must change no price, miss pair or resulting fraction, to
//! the bit. `tests/pricing_identity.rs` holds it to a recursive
//! reference evaluator.

use crate::misses::{self, Geometry, MissPair};
use crate::pattern::{LocalPattern, Pattern};
use crate::region::{Region, RegionId};
use gcm_hardware::HardwareSpec;

/// Which fraction of each region's *root* bytes a cache level holds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheState {
    /// `(region, cached fraction of its root)`, sorted by region id.
    frac: Vec<(RegionId, f64)>,
}

impl CacheState {
    /// An empty (cold) cache.
    pub fn cold() -> CacheState {
        CacheState::default()
    }

    /// Cached fraction of the region's root (0 if unknown).
    pub fn fraction(&self, r: &Region) -> f64 {
        self.find(r.id()).map_or(0.0, |i| self.frac[i].1)
    }

    /// Declare a region (fraction of its root) resident — e.g. to model a
    /// warm start.
    pub fn set(&mut self, r: &Region, fraction: f64) {
        let fraction = fraction.clamp(0.0, 1.0);
        match self.find(r.id()) {
            Ok(i) => self.frac[i].1 = fraction,
            Err(i) => self.frac.insert(i, (r.id(), fraction)),
        }
    }

    fn find(&self, id: RegionId) -> Result<usize, usize> {
        self.frac.binary_search_by_key(&id, |&(id, _)| id)
    }
}

/// Does this basic pattern benefit *proportionally* from a partially
/// cached region (paper Eq 5.1: the random patterns do; sequential
/// patterns require the full region)?
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

/// Footprint of a basic pattern at line size `b`, in cache lines
/// (paper §5.2): the number of lines the pattern potentially revisits.
fn leaf_footprint(p: &Pattern, b: f64) -> f64 {
    match p {
        Pattern::STrav { .. } => 1.0,
        Pattern::RTrav { r, u } => {
            if (r.w.saturating_sub(*u)) as f64 >= b {
                1.0
            } else {
                r.lines(b as u64).max(1.0)
            }
        }
        Pattern::RsTrav { r, .. }
        | Pattern::RrTrav { r, .. }
        | Pattern::RAcc { r, .. }
        | Pattern::Nest { r, .. } => r.lines(b as u64).max(1.0),
        Pattern::Seq(_) | Pattern::Conc(_) | Pattern::Repeat { .. } => {
            unreachable!("compound patterns are lowered to program nodes")
        }
    }
}

/// Raw (cold-cache) misses of a basic pattern at one level.
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
        Pattern::Seq(_) | Pattern::Conc(_) | Pattern::Repeat { .. } => {
            unreachable!("compound patterns are lowered to program nodes")
        }
    }
}

/// Eq 5.3's share of one of `members` concurrent patterns: its
/// footprint over the capacity denominator, never more than the whole
/// level. The one share rule of the model — a `⊙` inside a pattern, the
/// threads of [`crate::CostModel::advance_parallel_shared`] and the
/// per-member views a batch executes on ([`concurrent_shares`]) all
/// take their shares here.
///
/// A zero denominator means no member has a basic pattern under it
/// (every basic footprint is at least one line, and a shared region a
/// member references adds at least one line), so no price reads the
/// share; the members then split the level evenly.
fn eq53_share(foot: f64, denom: f64, members: usize) -> f64 {
    if denom > 0.0 {
        (foot / denom).min(1.0)
    } else {
        1.0 / members as f64
    }
}

/// What a node of a lowered program does.
#[derive(Clone, Copy)]
enum Node<'p> {
    /// A basic pattern and its region.
    Leaf { pat: &'p Pattern, r: &'p Region },
    /// `⊕` over the node's children.
    Seq,
    /// `⊙` over the node's children, of which it has this many.
    Conc(usize),
    /// `k ×` the node's one child.
    Repeat(u64),
}

/// One node of a lowered program. Nodes are laid out in pre-order, so a
/// node's first child directly follows it, each further child follows
/// its predecessor's subtree, and every child sits after its parent.
#[derive(Clone, Copy)]
struct Op<'p> {
    node: Node<'p>,
    /// One past the last node of this node's subtree.
    end: usize,
    /// Footprint at the current level's line size.
    foot: f64,
    /// The same with the shared regions excluded.
    foot_excl: f64,
}

impl Op<'_> {
    fn foot(&self, excl: bool) -> f64 {
        if excl {
            self.foot_excl
        } else {
            self.foot
        }
    }
}

/// The nodes from `at` to `end` that follow one another as siblings: a
/// node's children, or a program's lowered patterns.
struct Siblings<'a, 'p> {
    ops: &'a [Op<'p>],
    at: usize,
    end: usize,
}

impl Iterator for Siblings<'_, '_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        (self.at < self.end).then(|| {
            let node = self.at;
            self.at = self.ops[node].end;
            node
        })
    }
}

/// Patterns lowered for one pricing call, with the call's scratch state.
///
/// States are `(region, fraction)` entries in one buffer, in areas of
/// `cap` entries (one per region the call can meet) — the loaded state,
/// the first core's residue at a private level — and per `⊙` depth `d`
/// one entry for a basic pattern's residue and two areas for merged
/// residues. The current state is a *view*: an area and a length. A `⊙`
/// member starts from the incoming view as it is, and the merged residue
/// becomes the view afterwards, so no state is copied per member. The
/// merge at depth `d` writes the one of depth `d`'s two areas the
/// incoming view does not use; everything a member writes lies deeper.
pub(crate) struct Compiled<'p> {
    /// The lowered patterns, one after another, each in pre-order.
    ops: Vec<Op<'p>>,
    /// How many patterns were lowered.
    roots: usize,
    /// Shared regions a lowered pattern reads: counted once across
    /// concurrent members, not once per member.
    excluded: Vec<RegionId>,
    entries: Vec<(RegionId, f64)>,
    /// The current state: `entries[cur.0..cur.0 + cur.1]`, each region
    /// at most once; a region it does not hold reads 0.
    cur: (usize, usize),
    cap: usize,
    /// Whether any `⊙` node (and so any footprint) is lowered.
    has_conc: bool,
    /// The line sizes the footprints and the excluded footprints were
    /// last computed for (NaN: not yet).
    feet_for: f64,
    excl_for: f64,
}

impl<'p> Compiled<'p> {
    /// Lower `patterns` into one program that can start from any of
    /// `states`.
    pub(crate) fn lower<'s, P, S>(patterns: P, states: S) -> Compiled<'p>
    where
        P: IntoIterator<Item = &'p Pattern>,
        P::IntoIter: Clone,
        S: IntoIterator<Item = &'s CacheState>,
    {
        let patterns = patterns.into_iter();
        let mut size = Size::default();
        for p in patterns.clone() {
            size.add(p, 0);
        }
        let held = states.into_iter().map(|s| s.frac.len()).max().unwrap_or(0);
        let mut ops = Vec::with_capacity(size.nodes);
        let mut roots = 0;
        for p in patterns {
            push(&mut ops, p);
            roots += 1;
        }
        // A state holds each region once: at most the regions the
        // patterns read plus those a starting state holds. A lone
        // pattern runs from depth 0, each `⊙` one depth deeper; a
        // parallel stage merges at depth 0 and runs its members from
        // depth 1, so the depths run to one past the deepest nesting.
        let cap = size.leaves + held;
        let depths = size.depth + 2;
        Compiled {
            ops,
            roots,
            excluded: Vec::new(),
            entries: vec![(RegionId(0), 0.0); 2 * cap + depths * (1 + 2 * cap)],
            cur: (0, 0),
            cap,
            has_conc: size.depth > 0,
            feet_for: f64::NAN,
            excl_for: f64::NAN,
        }
    }

    /// How many patterns were lowered.
    pub(crate) fn patterns(&self) -> usize {
        self.roots
    }

    /// Where a basic pattern at depth `depth` leaves its residue.
    fn leaf_area(&self, depth: usize) -> usize {
        2 * self.cap + depth * (1 + 2 * self.cap)
    }

    /// The area a `⊙` at depth `depth` merges into: the one of its two
    /// that the current view does not use.
    fn merge_area(&self, depth: usize) -> usize {
        let first = self.leaf_area(depth) + 1;
        if self.cur.0 == first {
            first + self.cap
        } else {
            first
        }
    }

    fn siblings(&self, at: usize, end: usize) -> Siblings<'_, 'p> {
        Siblings {
            ops: &self.ops,
            at,
            end,
        }
    }

    /// The children of node `at`.
    fn kids(&self, at: usize) -> Siblings<'_, 'p> {
        self.siblings(at + 1, self.ops[at].end)
    }

    /// The lowered patterns' nodes, in argument order.
    fn roots(&self) -> Siblings<'_, 'p> {
        self.siblings(0, self.ops.len())
    }

    /// Every node's footprint at line size `b`, bottom-up; with `excl`,
    /// into `foot_excl` and with the shared regions contributing nothing.
    fn footprints(&mut self, b: f64, excl: bool) {
        let done = if excl {
            &mut self.excl_for
        } else {
            &mut self.feet_for
        };
        if done.to_bits() == b.to_bits() {
            return;
        }
        *done = b;
        for at in (0..self.ops.len()).rev() {
            let foot = match self.ops[at].node {
                Node::Leaf { pat, r } => {
                    if !excl {
                        leaf_footprint(pat, b)
                    } else if self.excluded.contains(&r.id()) {
                        0.0
                    } else {
                        self.ops[at].foot
                    }
                }
                // Sequentially executed patterns never coexist: the
                // combination's footprint is the largest individual one
                // (documented assumption, DESIGN.md §2). The empty
                // composition ε claims no lines at all, so it never
                // steals a share from ⊙-siblings.
                Node::Seq => self
                    .kids(at)
                    .map(|k| self.ops[k].foot(excl))
                    .fold(0.0_f64, f64::max)
                    .max(if at + 1 == self.ops[at].end { 0.0 } else { 1.0 }),
                // Concurrent patterns coexist: footprints add (§5.2).
                Node::Conc(_) => self.kids(at).map(|k| self.ops[k].foot(excl)).sum(),
                // Repetitions of one pattern occupy what one iteration
                // occupies.
                Node::Repeat(_) => self.ops[at + 1].foot(excl),
            };
            let op = &mut self.ops[at];
            if excl {
                op.foot_excl = foot;
            } else {
                op.foot = foot;
            }
        }
    }

    /// Make `state` the current state.
    pub(crate) fn load(&mut self, state: &CacheState) {
        let held = state.frac.len();
        self.entries[..held].copy_from_slice(&state.frac);
        self.cur = (0, held);
    }

    /// Write the current state back into `state`.
    pub(crate) fn store(&self, state: &mut CacheState) {
        let (at, held) = self.cur;
        state.frac.clear();
        state.frac.extend_from_slice(&self.entries[at..at + held]);
        state.frac.sort_unstable_by_key(|&(id, _)| id);
    }

    /// Evaluate the (only) lowered pattern at one level from the current
    /// state, updating it (Eq 5.1–5.3).
    pub(crate) fn level(&mut self, geo: &Geometry) -> MissPair {
        let mut misses = MissPair::default();
        self.chain(geo, |m| misses = m);
        misses
    }

    /// Evaluate the lowered patterns one after another at one level from
    /// the current state, each from the state the one before left — the
    /// `⊕` of staged pricing, one [`crate::CostModel::advance`] per
    /// pattern — handing each one's misses to `each`, in order.
    pub(crate) fn chain(&mut self, geo: &Geometry, mut each: impl FnMut(MissPair)) {
        if self.has_conc {
            self.footprints(geo.b, false);
        }
        let mut at = 0;
        while at < self.ops.len() {
            each(self.eval(at, geo, 0));
            at = self.ops[at].end;
        }
    }

    fn eval(&mut self, at: usize, geo: &Geometry, depth: usize) -> MissPair {
        match self.ops[at].node {
            Node::Seq => {
                // Eq 5.2: children run in order, sharing the evolving state.
                let mut total = MissPair::default();
                let (mut kid, end) = (at + 1, self.ops[at].end);
                while kid < end {
                    total += self.eval(kid, geo, depth);
                    kid = self.ops[kid].end;
                }
                total
            }
            Node::Repeat(k) => {
                // k sequential executions of the same sub-pattern. The
                // first runs from the incoming state; iterations 2..k all
                // start from the state the previous iteration left (which
                // is a fixed point after one iteration, since the state
                // update depends only on the pattern itself).
                if k == 0 {
                    return MissPair::default();
                }
                let first = self.eval(at + 1, geo, depth);
                if k == 1 {
                    return first;
                }
                let steady = self.eval(at + 1, geo, depth);
                first + steady * (k - 1) as f64
            }
            Node::Conc(members) => {
                // Eq 5.3: divide the cache proportionally to footprints;
                // every child starts from the same incoming state. An empty
                // ⊙ is a no-op: zero misses, state untouched (the
                // constructors canonicalise it away, but a hand-built node
                // must not reset the state to cold via an empty merge).
                let mut total = MissPair::default();
                if members > 0 {
                    let denom = self.ops[at].foot;
                    let end = self.ops[at].end;
                    self.compose(at + 1..end, members, denom, geo, depth, |m| total += m);
                }
                total
            }
            Node::Leaf { pat, r } => {
                let id = r.id();
                let (held_at, held) = self.cur;
                let rho = self.entries[held_at..held_at + held]
                    .iter()
                    .find(|&&(held, _)| held == id)
                    .map_or(0.0, |&(_, frac)| frac);
                // A sequential pattern over a *slice* of a partially
                // cached region is free when the slice fits within the
                // region's cached bytes: this is how recursive
                // divide-and-conquer algorithms (quick-sort, §6.2) stop
                // missing once their working segments fit the cache — the
                // paper's Figure-7a step. A full-region sequential pattern
                // still requires full residency (the cached fraction would
                // have to be exactly the region's head, which we cannot
                // know; §5.1). Strictly smaller: a segment that exactly
                // equals the cached bytes thrashes at the margin under LRU
                // (its own traversal plus any concurrent traffic evicts
                // its tail), so only strictly-fitting segments ride free.
                let cached_bytes = rho * r.root_bytes() as f64;
                let slice_cached = (r.bytes() as f64) < cached_bytes;
                // A fully (to rounding) resident region costs nothing.
                let result = if rho >= 1.0 - 1e-9 || slice_cached {
                    MissPair::default()
                } else if benefits_proportionally(pat) {
                    basic_misses(pat, geo) * (1.0 - rho)
                } else {
                    basic_misses(pat, geo)
                };
                // §5.1: after a pattern, (only) its region remains, with
                // fraction min(C, ||R||)/root.
                let area = self.leaf_area(depth);
                let root = r.root_bytes() as f64;
                if root > 0.0 {
                    let frac = (geo.c.min(r.bytes() as f64) / root).clamp(0.0, 1.0);
                    self.entries[area] = (id, frac);
                    self.cur = (area, 1);
                } else {
                    self.cur = (area, 0);
                }
                result
            }
        }
    }

    /// Run the `members` sibling nodes in `nodes` concurrently under
    /// Eq 5.3 from the current state: each starts from it with its
    /// share of `geo` (its footprint over `denom`), and afterwards each
    /// region holds the members' residues summed in member order, clamped
    /// to the whole root. Hands each member's misses to `each`, in order.
    fn compose(
        &mut self,
        nodes: std::ops::Range<usize>,
        members: usize,
        denom: f64,
        geo: &Geometry,
        depth: usize,
        mut each: impl FnMut(MissPair),
    ) {
        let incoming = self.cur;
        let into = self.merge_area(depth);
        let mut merged = 0;
        let mut member = nodes.start;
        while member < nodes.end {
            self.cur = incoming;
            let share = eq53_share(self.ops[member].foot, denom, members);
            each(self.eval(member, &geo.scaled(share), depth + 1));
            // Each member's resulting residency (computed against its
            // scaled share) contributes to the combined state.
            let (held_at, held) = self.cur;
            for i in held_at..held_at + held {
                let (id, frac) = self.entries[i];
                let sums = &mut self.entries[into..into + merged];
                match sums.iter_mut().find(|(held, _)| *held == id) {
                    Some((_, sum)) => *sum = (*sum + frac).clamp(0.0, 1.0),
                    None => {
                        self.entries[into + merged] = (id, (0.0 + frac).clamp(0.0, 1.0));
                        merged += 1;
                    }
                }
            }
            member = self.ops[member].end;
        }
        self.cur = (into, merged);
    }

    /// Mark the regions of `shared` that some lowered pattern references
    /// as counted once across members; returns them, first occurrence
    /// first, duplicates dropped.
    pub(crate) fn mark_shared<'r>(
        &mut self,
        shared: impl IntoIterator<Item = &'r Region>,
    ) -> Vec<&'r Region> {
        let mut unique: Vec<&Region> = Vec::new();
        for r in shared {
            if unique.iter().any(|s| s.id() == r.id()) {
                continue;
            }
            let read = self
                .ops
                .iter()
                .any(|op| matches!(op.node, Node::Leaf { r: leaf, .. } if leaf.id() == r.id()));
            if read {
                self.excluded.push(r.id());
                unique.push(r);
            }
        }
        unique
    }

    /// The lowered patterns' footprints and their Eq 5.3 capacity
    /// denominator at line size `b`: every member's footprint with the
    /// shared regions excluded, plus each referenced shared region's
    /// lines exactly once (they revisit the *same* lines, so under Eq 5.3
    /// the data claims one footprint, not one per member). `shared` is
    /// what [`Compiled::mark_shared`] returned.
    fn denominator(&mut self, b: f64, shared: &[&Region]) -> f64 {
        self.footprints(b, false);
        let excl = !shared.is_empty();
        if excl {
            self.footprints(b, true);
        }
        let mut denom: f64 = self.roots().map(|r| self.ops[r].foot(excl)).sum();
        for r in shared {
            denom += r.lines(b as u64).max(1.0);
        }
        denom
    }

    /// Each lowered pattern's Eq 5.3 share of a shared level with line
    /// size `b`, appended to `out` in pattern order.
    fn shares(&mut self, b: f64, shared: &[&Region], out: &mut Vec<f64>) {
        let denom = self.denominator(b, shared);
        out.extend(
            self.roots()
                .map(|r| eq53_share(self.ops[r].foot, denom, self.roots)),
        );
    }

    /// Run every lowered pattern concurrently on its own core, at a level
    /// all cores share: each takes its Eq 5.3 share (`shared` regions
    /// counted once) of `geo`, starting from the current state, which
    /// afterwards holds the combined residue.
    pub(crate) fn members_shared(
        &mut self,
        geo: &Geometry,
        shared: &[&Region],
        each: impl FnMut(MissPair),
    ) {
        let denom = self.denominator(geo.b, shared);
        self.compose(0..self.ops.len(), self.roots, denom, geo, 0, each);
    }

    /// Run every lowered pattern on its own core at a level each core has
    /// privately: the first from the current state, the rest cold; the
    /// state afterwards is the first core's residue.
    pub(crate) fn members_private(&mut self, geo: &Geometry, mut each: impl FnMut(MissPair)) {
        if self.has_conc {
            self.footprints(geo.b, false);
        }
        let mut first = (self.cap, 0);
        let mut member = 0;
        while member < self.ops.len() {
            if member > 0 {
                self.cur = (0, 0);
            }
            each(self.eval(member, geo, 1));
            if member == 0 {
                let (held_at, held) = self.cur;
                self.entries.copy_within(held_at..held_at + held, self.cap);
                first.1 = held;
            }
            member = self.ops[member].end;
        }
        self.cur = first;
    }
}

/// The size of a set of patterns, for the buffers lowering allocates.
#[derive(Default)]
struct Size {
    nodes: usize,
    leaves: usize,
    /// The deepest `⊙` nesting.
    depth: usize,
}

impl Size {
    /// Count `p`, which `concs` `⊙`s enclose.
    fn add(&mut self, p: &Pattern, concs: usize) {
        self.nodes += 1;
        match p {
            Pattern::Seq(ps) => ps.iter().for_each(|q| self.add(q, concs)),
            Pattern::Conc(ps) => {
                self.depth = self.depth.max(concs + 1);
                ps.iter().for_each(|q| self.add(q, concs + 1));
            }
            Pattern::Repeat { inner, .. } => self.add(inner, concs),
            _ => self.leaves += 1,
        }
    }
}

/// Append `p`'s nodes to `ops` in pre-order.
fn push<'p>(ops: &mut Vec<Op<'p>>, p: &'p Pattern) {
    let at = ops.len();
    let node = match p {
        Pattern::Seq(_) => Node::Seq,
        Pattern::Conc(ps) => Node::Conc(ps.len()),
        Pattern::Repeat { k, .. } => Node::Repeat(*k),
        basic => Node::Leaf {
            pat: basic,
            r: basic.region().expect("basic pattern has a region"),
        },
    };
    ops.push(Op {
        node,
        end: at,
        foot: 0.0,
        foot_excl: 0.0,
    });
    match p {
        Pattern::Seq(ps) | Pattern::Conc(ps) => ps.iter().for_each(|q| push(ops, q)),
        Pattern::Repeat { inner, .. } => push(ops, inner),
        _ => {}
    }
    ops[at].end = ops.len();
}

/// Footprint of a pattern at a level, in cache lines (paper §5.2): the
/// number of lines the pattern potentially revisits. `⊕` takes the
/// largest of its parts (they never coexist), `⊙` the sum (they do), and
/// the empty composition ε claims none.
pub fn footprint_lines(p: &Pattern, geo: &Geometry) -> f64 {
    let mut c = Compiled::lower([p], std::iter::empty());
    c.footprints(geo.b, false);
    c.ops[0].foot
}

/// Evaluate `p` at one cache level with geometry `geo`, starting from (and
/// updating) `state`. Returns the estimated miss pair for this level
/// (Eq 5.1–5.3).
pub fn eval_level(p: &Pattern, geo: &Geometry, state: &mut CacheState) -> MissPair {
    let mut c = Compiled::lower([p], [&*state]);
    c.load(state);
    let m = c.level(geo);
    c.store(state);
    m
}

/// Each member's Eq 5.3 share of every level of `spec` when `members`
/// run concurrently, one per core: `[member][level]`, in spec order. A
/// [`Private`](gcm_hardware::Sharing::Private) level is each core's
/// whole (share 1); a [`Shared`](gcm_hardware::Sharing::Shared) level is
/// divided by footprint, with the regions in `shared` (immutable data
/// several members reference, e.g. one hash-join build) counted once in
/// the denominator. These are the shares
/// [`CostModel::advance_parallel_shared`](crate::CostModel::advance_parallel_shared)
/// prices a stage with, so an executor that enforces them runs what was
/// priced.
pub fn concurrent_shares<'r>(
    spec: &HardwareSpec,
    members: &[&Pattern],
    shared: impl IntoIterator<Item = &'r Region>,
) -> Vec<Vec<f64>> {
    let mut c = Compiled::lower(members.iter().copied(), []);
    let shared = c.mark_shared(shared);
    let mut out = vec![Vec::with_capacity(spec.levels().len()); members.len()];
    let mut level = Vec::with_capacity(members.len());
    for lvl in spec.levels() {
        level.clear();
        if lvl.sharing == gcm_hardware::Sharing::Shared {
            c.shares(Geometry::of(lvl).b, &shared, &mut level);
        } else {
            level.resize(members.len(), 1.0);
        }
        for (row, &s) in out.iter_mut().zip(&level) {
            row.push(s);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Pattern;
    use gcm_hardware::presets;

    fn geo(c: u64, b: u64) -> Geometry {
        Geometry {
            c: c as f64,
            b: b as f64,
            lines: c as f64 / b as f64,
        }
    }

    #[test]
    fn seq_of_disjoint_regions_sums() {
        let a = Region::new("A", 1000, 8);
        let b = Region::new("B", 1000, 8);
        let g = geo(1024, 32);
        let pa = Pattern::s_trav(a);
        let pb = Pattern::s_trav(b);
        let ma = eval_level(&pa, &g, &mut CacheState::cold()).total();
        let mb = eval_level(&pb, &g, &mut CacheState::cold()).total();
        let seq = Pattern::seq(vec![pa, pb]);
        let m = eval_level(&seq, &g, &mut CacheState::cold()).total();
        assert!((m - (ma + mb)).abs() < 1e-9);
    }

    #[test]
    fn seq_reuse_of_fully_cached_region_is_free() {
        // Region fits the cache: second traversal costs nothing (Eq 5.1).
        let a = Region::new("A", 100, 8); // 800 B < 1 KB
        let g = geo(1024, 32);
        let p = Pattern::seq(vec![Pattern::s_trav(a.clone()), Pattern::s_trav(a)]);
        let once = Pattern::s_trav(Region::new("X", 100, 8));
        let m = eval_level(&p, &g, &mut CacheState::cold()).total();
        let m1 = eval_level(&once, &g, &mut CacheState::cold()).total();
        assert!((m - m1).abs() < 1e-9);
    }

    #[test]
    fn seq_partial_cache_benefits_random_not_sequential() {
        // Region is 2× the cache: ρ = 0.5 after the first sweep.
        let a = Region::new("A", 256, 8); // 2048 B vs 1024 B cache
        let g = geo(1024, 32);
        // Sequential second sweep: no benefit (needs full residency).
        let p_seq = Pattern::seq(vec![Pattern::s_trav(a.clone()), Pattern::s_trav(a.clone())]);
        let m_seq = eval_level(&p_seq, &g, &mut CacheState::cold()).total();
        assert!((m_seq - 2.0 * 64.0).abs() < 1e-9); // 2 × |R| lines

        // Random second sweep: proportional benefit.
        let p_rand = Pattern::seq(vec![Pattern::s_trav(a.clone()), Pattern::r_trav(a.clone())]);
        let m_rand = eval_level(&p_rand, &g, &mut CacheState::cold()).total();
        let r_cold = eval_level(&Pattern::r_trav(a), &g, &mut CacheState::cold()).total();
        assert!((m_rand - (64.0 + 0.5 * r_cold)).abs() < 1e-9);
    }

    #[test]
    fn state_replacement_evicts_previous_region() {
        // A fits; then a big B sweep evicts it; A costs full misses again.
        let a = Region::new("A", 100, 8);
        let b = Region::new("B", 10_000, 8);
        let g = geo(1024, 32);
        let p = Pattern::seq(vec![
            Pattern::s_trav(a.clone()),
            Pattern::s_trav(b),
            Pattern::s_trav(a.clone()),
        ]);
        let m = eval_level(&p, &g, &mut CacheState::cold()).total();
        let expect = 25.0 + 2500.0 + 25.0;
        assert!((m - expect).abs() < 1e-9);
    }

    #[test]
    fn warm_start_via_explicit_state() {
        let a = Region::new("A", 100, 8);
        let g = geo(1024, 32);
        let mut st = CacheState::cold();
        st.set(&a, 1.0);
        let m = eval_level(&Pattern::s_trav(a), &g, &mut st).total();
        assert_eq!(m, 0.0);
    }

    #[test]
    fn conc_divides_cache_by_footprint() {
        // s_trav (footprint 1) ⊙ r_trav over region = cache size: the
        // random traversal gets essentially the whole cache, so its misses
        // stay near the fitting-case |R|.
        let a = Region::new("A", 100_000, 8);
        let h = Region::new("H", 128, 8); // 1024 B = full cache
        let g = geo(1024, 32);
        let p = Pattern::conc(vec![Pattern::s_trav(a.clone()), Pattern::r_trav(h.clone())]);
        let m = eval_level(&p, &g, &mut CacheState::cold()).total();
        let scan = 100_000.0 * 8.0 / 32.0;
        let h_lines = 32.0;
        // r_trav of H at ~full cache: ≈ |H| plus a small shortfall because
        // its share is (|H|)/(|H|+1) of the cache.
        assert!(m > scan + h_lines - 1e-9);
        assert!(m < scan + h_lines + 110.0, "m={m}");
    }

    #[test]
    fn conc_equal_footprints_split_evenly() {
        // Two random traversals over cache-sized regions: each gets half
        // the cache, so each sees ~half its region uncachable.
        let a = Region::new("A", 128, 8);
        let b = Region::new("B", 128, 8);
        let g = geo(1024, 32);
        let p = Pattern::conc(vec![Pattern::r_trav(a.clone()), Pattern::r_trav(b)]);
        let m = eval_level(&p, &g, &mut CacheState::cold()).total();
        let solo = eval_level(&Pattern::r_trav(a), &g, &mut CacheState::cold()).total();
        assert!(
            m > 2.0 * solo,
            "interference must cost extra: {m} vs 2×{solo}"
        );
    }

    #[test]
    fn conc_state_contains_both_regions() {
        let a = Region::new("A", 64, 8); // 512 B
        let b = Region::new("B", 64, 8); // 512 B
        let g = geo(1024, 32);
        let p = Pattern::conc(vec![Pattern::r_trav(a.clone()), Pattern::r_trav(b.clone())]);
        let mut st = CacheState::cold();
        eval_level(&p, &g, &mut st);
        assert!(st.fraction(&a) > 0.9);
        assert!(st.fraction(&b) > 0.9);
    }

    #[test]
    fn quicksort_shape_state_carries_through_seq_of_conc() {
        // Two passes of half-region concurrent sweeps over a fitting table:
        // the second pass is free (the Fig 7a step).
        let u = Region::new("U", 100, 8); // 800 B < 1 KB
        let g = geo(1024, 32);
        let pass = |r: &Region| {
            Pattern::conc(vec![
                Pattern::s_trav(r.slice(2)),
                Pattern::s_trav(r.slice(2)),
            ])
        };
        let p = Pattern::seq(vec![pass(&u), pass(&u)]);
        let m = eval_level(&p, &g, &mut CacheState::cold()).total();
        // One full sweep's worth of misses only (both halves, once).
        assert!((m - 26.0).abs() < 2.0, "m={m}"); // 2×⌈400/32⌉ = 26 lines

        // Oversized table: both passes pay.
        let big = Region::new("B", 10_000, 8);
        let pb = Pattern::seq(vec![pass(&big), pass(&big)]);
        let mb = eval_level(&pb, &g, &mut CacheState::cold()).total();
        assert!(mb > 1.9 * 2500.0);
    }

    #[test]
    fn eval_runs_per_level() {
        let hw = presets::tiny();
        let a = Region::new("A", 1000, 8);
        let pairs = crate::CostModel::new(hw).misses(&Pattern::s_trav(a));
        assert_eq!(pairs.len(), 3);
        // L1 (32 B lines): 250 misses; L2 (64 B): 125; TLB (1 KB pages): 8.
        assert!((pairs[0].total() - 250.0).abs() < 1e-9);
        assert!((pairs[1].total() - 125.0).abs() < 1e-9);
        assert!((pairs[2].total() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn footprints() {
        let g = geo(1024, 32);
        let small = Region::new("S", 100, 8); // 25 lines
        assert_eq!(footprint_lines(&Pattern::s_trav(small.clone()), &g), 1.0);
        assert_eq!(footprint_lines(&Pattern::r_trav(small.clone()), &g), 25.0);
        // Sparse random traversal never revisits a line.
        let wide = Region::new("W", 100, 256);
        assert_eq!(footprint_lines(&Pattern::r_trav_u(wide, 8), &g), 1.0);
        // Conc sums, Seq maxes.
        let c = Pattern::conc(vec![
            Pattern::s_trav(small.clone()),
            Pattern::r_trav(small.clone()),
        ]);
        assert_eq!(footprint_lines(&c, &g), 26.0);
        let s = Pattern::seq(vec![Pattern::s_trav(small.clone()), Pattern::r_trav(small)]);
        assert_eq!(footprint_lines(&s, &g), 25.0);
    }

    #[test]
    fn empty_composition_costs_nothing_and_preserves_state() {
        let g = geo(1024, 32);
        let a = Region::new("A", 100, 8);
        // ε has zero cost from any starting state...
        let mut st = CacheState::cold();
        st.set(&a, 0.7);
        let before = st.clone();
        for p in [
            Pattern::empty(),
            Pattern::Seq(vec![]),
            Pattern::Conc(vec![]), // hand-built degenerate node
        ] {
            assert_eq!(eval_level(&p, &g, &mut st).total(), 0.0, "{p}");
            assert_eq!(st, before, "state must survive a no-op: {p}");
        }
        // ...zero footprint, so it claims no ⊙ share...
        assert_eq!(footprint_lines(&Pattern::empty(), &g), 0.0);
        // ...and composing it with a real pattern changes nothing.
        let real = Pattern::r_trav(a.clone());
        let solo = eval_level(&real, &g, &mut CacheState::cold()).total();
        let padded = Pattern::conc(vec![Pattern::empty(), real.clone()]);
        let with_eps = eval_level(&padded, &g, &mut CacheState::cold()).total();
        assert_eq!(solo, with_eps);
    }

    #[test]
    fn concurrent_shares_split_shared_levels_by_footprint() {
        let spec = presets::tiny_smp(4); // L2 shared, 64 B lines
        let l2 = spec.level_index("L2").unwrap();
        let a = Pattern::r_trav(Region::new("A", 96, 8)); // 12 lines
        let b = Pattern::s_trav(Region::new("B", 1_000, 8)); // 1 line
        let eps = Pattern::empty();
        let shares = concurrent_shares(&spec, &[&a, &b, &eps], &[]);
        assert_eq!(shares[0][l2], 12.0 / 13.0);
        assert_eq!(shares[1][l2], 1.0 / 13.0);
        // ε claims no line while any member reads memory.
        assert_eq!(shares[2][l2], 0.0);
        // Private levels are each core's whole.
        for (l, lvl) in spec.levels().iter().enumerate() {
            if l != l2 {
                assert!(shares.iter().all(|s| s[l] == 1.0), "{}", lvl.name);
            }
        }
        // Members that read only shared data still claim its lines, and
        // the data counts once: 12 / (0 + 0 + 12) each.
        let h = Region::new("H", 96, 8);
        let p = Pattern::r_acc(h.clone(), 50);
        let q = Pattern::r_acc(h.clone(), 70);
        let both = concurrent_shares(&spec, &[&p, &q], std::slice::from_ref(&h));
        assert_eq!((both[0][l2], both[1][l2]), (1.0, 1.0));
    }

    #[test]
    fn concurrent_shares_split_evenly_only_when_no_member_reads_memory() {
        // Every basic footprint is at least one line, so the Eq 5.3
        // denominator is zero only when no member has a basic pattern;
        // then the level splits evenly, and no price reads the share.
        let spec = presets::tiny_smp(4);
        let l2 = spec.level_index("L2").unwrap();
        let eps = Pattern::empty();
        let idle = Pattern::Conc(vec![Pattern::empty(), Pattern::repeat(3, Pattern::empty())]);
        let shares = concurrent_shares(&spec, &[&eps, &idle, &eps, &eps], &[]);
        assert!(shares.iter().all(|s| s[l2] == 0.25));
        let model = crate::CostModel::new(spec);
        let batch = model.batch_cost(&[eps, idle], &CacheState::cold());
        assert_eq!(batch.per_query_ns, vec![0.0, 0.0]);
    }

    #[test]
    fn deep_nesting_evaluates() {
        // ⊕ of ⊙ of ⊕: regression test for recursion handling.
        let a = Region::new("A", 100, 8);
        let b = Region::new("B", 100, 8);
        let inner = Pattern::seq(vec![Pattern::s_trav(a.clone()), Pattern::r_trav(b.clone())]);
        let p = Pattern::seq(vec![
            Pattern::conc(vec![inner, Pattern::s_trav(a.clone())]),
            Pattern::r_acc(b, 50),
        ]);
        let g = geo(1024, 32);
        let m = eval_level(&p, &g, &mut CacheState::cold());
        assert!(m.total() > 0.0 && m.total().is_finite());
    }
}
