//! Operators that write their output densely in one charged pass size it
//! from that pass: the output is allocated at an upper bound, grown in
//! place by doubling if the bound was short, and sealed to the count
//! written. These tests check the result against a count taken
//! independently here, on both backends:
//!
//! * the output's cardinality and bytes equal a naive host-side
//!   evaluation over the raw key vectors (no engine code);
//! * the output and the next allocation land exactly where they land
//!   when the output is allocated at its exact size, so a seal that
//!   drops the `max(1)` of an empty output or is off by one line shows;
//! * probes and merge joins whose duplicate build keys push the matches
//!   past `|U|` exercise the doubling path;
//! * empty outputs are covered for every operator.

use gcm_engine::ops::hash::{build_hash, hash_join_with_table};
use gcm_engine::ops::{aggregate, merge_join, nl_join, scan};
use gcm_engine::{ExecContext, MemoryBackend, NativeBackend, Relation, SimBackend};
use gcm_hardware::presets;

/// Join output width (key + zero payload).
const OUT_W: u64 = 16;

/// Width of the unary operators' input tuples: wider than the key, so
/// the copied payload is checked too.
const WIDE: u64 = 24;

type Run<B> = Box<dyn Fn(&mut ExecContext<B>, &[Relation]) -> Relation>;

/// One sealed operator: its inputs, the operator and the keys a naive
/// evaluation expects, in output order.
struct Case<B: MemoryBackend> {
    name: String,
    inputs: Vec<Vec<u64>>,
    input_w: u64,
    /// The operator builds a hash table on the second input before it
    /// allocates its output; the exact-sized reference does the same.
    builds_first: bool,
    op: Run<B>,
    expected: Vec<u64>,
    out_w: u64,
}

fn load<B: MemoryBackend>(ctx: &mut ExecContext<B>, case: &Case<B>) -> Vec<Relation> {
    case.inputs
        .iter()
        .enumerate()
        .map(|(i, keys)| ctx.relation_from_keys(&format!("T{i}"), keys, case.input_w))
        .collect()
}

/// `w`-byte tuples holding `keys` with zero payload.
fn tuple_bytes(keys: &[u64], w: u64) -> Vec<u8> {
    let mut bytes = vec![0u8; keys.len() * w as usize];
    for (i, k) in keys.iter().enumerate() {
        let at = i * w as usize;
        bytes[at..at + 8].copy_from_slice(&k.to_le_bytes());
    }
    bytes
}

fn check<B: MemoryBackend>(fresh: fn() -> ExecContext<B>, case: &Case<B>) {
    let name = &case.name;
    let mut ctx = fresh();
    let rels = load(&mut ctx, case);
    let out = (case.op)(&mut ctx, &rels);
    let next = ctx.relation("next", 1, 8).base();
    assert_eq!(out.n(), case.expected.len() as u64, "{name}: cardinality");
    assert_eq!(out.w(), case.out_w, "{name}: width");
    assert_eq!(
        ctx.relation_bytes(&out),
        tuple_bytes(&case.expected, case.out_w),
        "{name}: output bytes"
    );

    // The same inputs and build, then an output allocated at its
    // exact size: the output and the allocation after it must match.
    let mut exact = fresh();
    let rels = load(&mut exact, case);
    if case.builds_first {
        build_hash(&mut exact, &rels[1], "H");
    }
    let sized = exact.relation("W", case.expected.len() as u64, case.out_w);
    let sized_next = exact.relation("next", 1, 8).base();
    assert_eq!(out.base(), sized.base(), "{name}: output address");
    assert_eq!(next, sized_next, "{name}: next allocation address");
}

/// Naive equi-join in outer order: each outer key once per equal inner key.
fn naive_join(u: &[u64], v: &[u64]) -> Vec<u64> {
    u.iter()
        .flat_map(|&k| std::iter::repeat_n(k, v.iter().filter(|&&x| x == k).count()))
        .collect()
}

fn sorted_distinct(keys: impl IntoIterator<Item = u64>) -> Vec<u64> {
    let mut out: Vec<u64> = keys.into_iter().collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Every sealed operator over key-sorted inputs `u`, `v` (merge join
/// needs them so); the selection keeps keys below `threshold`.
fn cases<B: MemoryBackend + 'static>(u: &[u64], v: &[u64], threshold: u64) -> Vec<Case<B>> {
    let binary = |name: &str, op: Run<B>, expected, out_w| Case {
        name: name.to_string(),
        inputs: vec![u.to_vec(), v.to_vec()],
        input_w: 8,
        builds_first: false,
        op,
        expected,
        out_w,
    };
    let unary = |name: &str, op: Run<B>, expected| Case {
        name: name.to_string(),
        inputs: vec![u.to_vec()],
        input_w: WIDE,
        builds_first: false,
        op,
        expected,
        out_w: WIDE,
    };
    vec![
        Case {
            builds_first: true,
            ..binary(
                "hash probe",
                Box::new(|c, r| {
                    let table = build_hash(c, &r[1], "H");
                    hash_join_with_table(c, &r[0], &table, "W", OUT_W)
                }),
                naive_join(u, v),
                OUT_W,
            )
        },
        binary(
            "merge join",
            Box::new(|c, r| merge_join::merge_join(c, &r[0], &r[1], "W", OUT_W)),
            naive_join(u, v),
            OUT_W,
        ),
        binary(
            "nested-loop join",
            Box::new(|c, r| nl_join::nested_loop_join(c, &r[0], &r[1], "W", OUT_W)),
            naive_join(u, v),
            OUT_W,
        ),
        unary(
            "select",
            Box::new(move |c, r| scan::select_lt(c, &r[0], threshold, "W")),
            u.iter().copied().filter(|&k| k < threshold).collect(),
        ),
        unary(
            "sort dedup",
            Box::new(|c, r| aggregate::sort_dedup(c, &r[0], "W")),
            sorted_distinct(u.iter().copied()),
        ),
    ]
}

fn sim() -> ExecContext<SimBackend> {
    ExecContext::new(presets::tiny())
}

fn on_both_backends(u: &[u64], v: &[u64], threshold: u64) {
    for case in cases::<SimBackend>(u, v, threshold) {
        check(sim, &case);
    }
    for case in cases::<NativeBackend>(u, v, threshold) {
        check(ExecContext::native, &case);
    }
}

#[test]
fn outputs_match_a_naive_evaluation_on_both_backends() {
    let u: Vec<u64> = (0..40).map(|i| i / 3 * 2).collect();
    let v: Vec<u64> = (0..30).map(|i| i / 2 * 3).collect();
    on_both_backends(&u, &v, 17);
}

#[test]
fn duplicate_build_keys_push_matches_past_the_outer_size() {
    // 3 outer tuples, 4 + 3 + 5 = 12 matches: the output doubles twice
    // past its initial `|U|` capacity.
    let (u, v) = ([1, 2, 3], [1, 1, 1, 1, 2, 2, 2, 3, 3, 3, 3, 3]);
    assert_eq!(naive_join(&u, &v).len(), 12);
    on_both_backends(&u, &v, 2);
    // 64 outer tuples over two keys against 50-long inner runs: 3,200
    // matches from a capacity of 64.
    let u: Vec<u64> = (0..64).map(|i| i / 32).collect();
    let v: Vec<u64> = (0..100).map(|i| i / 50).collect();
    assert_eq!(naive_join(&u, &v).len(), 3_200);
    on_both_backends(&u, &v, 1);
}

#[test]
fn empty_outputs_seal_like_an_empty_relation() {
    // Disjoint keys, nothing below the threshold: every join, the
    // intersection and the selection produce nothing.
    on_both_backends(&[1, 3, 5], &[2, 4, 6], 0);
    // Empty inputs: every operator's output is empty.
    on_both_backends(&[], &[], 0);
    // An empty outer against a non-empty inner.
    on_both_backends(&[], &[7, 8], 0);
}
