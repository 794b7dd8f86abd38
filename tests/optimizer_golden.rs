//! Bit-identity golden of the whole-plan optimizer.
//!
//! Every plan [`Optimizer::enumerate`] returns (beam 16) for 10 query
//! shapes × 3 table scales × 5 machines is one line of
//! `tests/golden/optimizer.txt`: the plan, the `to_bits()` of its
//! `mem_ns` and `cpu_ns`, its `ops`, and an FNV-1a hash of its pattern
//! text. The pattern text is the pattern's notation followed by every
//! leaf's region as (first-appearance index of its identity, `n`, `w`,
//! root bytes), so sizes and which leaves share one region are pinned
//! too, while the process-global id values are not.
//!
//! Any change to how alternatives are built, ranked or priced that
//! moves one bit of one plan fails here, naming the first line that
//! differs. After a deliberate change of the optimizer's output,
//! regenerate the file with
//! `GOLDEN_BLESS=1 cargo test --release --test optimizer_golden`.

use gcm::core::{CostModel, Pattern, RegionId};
use gcm::engine::plan::{LogicalPlan, Optimizer, PlannedQuery, TableStats};
use gcm::hardware::{presets, HardwareSpec};
use std::fmt::Write as _;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/optimizer.txt");
const BEAM: usize = 16;

fn machines() -> Vec<(&'static str, HardwareSpec)> {
    vec![
        ("origin2000", presets::origin2000()),
        ("tiny", presets::tiny()),
        ("tiny_full_assoc", presets::tiny_full_assoc()),
        ("modern_commodity", presets::modern_commodity()),
        ("modern_smp4", presets::modern_smp(4)),
    ]
}

/// `(name, fact rows, dimension rows)` per scale.
const SCALES: [(&str, u64, u64); 3] = [
    ("small", 3_000, 256),
    ("churn", 60_000, 4_096),
    ("large", 1_500_000, 120_000),
];

/// Tables 0–3: an unsorted fact column of foreign keys, an unsorted and
/// a sorted dimension key column, and a sorted wide fact key column.
fn tables(fact: u64, dim: u64) -> Vec<TableStats> {
    vec![
        TableStats::uniform(fact, 8, dim, false),
        TableStats::key_column(dim, 8, false),
        TableStats::key_column(dim, 8, true),
        TableStats::key_column(fact, 16, true),
    ]
}

fn shapes(dim: u64) -> Vec<(&'static str, LogicalPlan)> {
    let scan = LogicalPlan::scan;
    vec![
        ("point", scan(1).select_lt(dim / 8)),
        ("scan_group", scan(0).select_lt(dim / 2).group_count()),
        (
            "join_group",
            scan(0).select_lt(dim / 2).join(scan(1)).group_count(),
        ),
        (
            "star",
            scan(0)
                .select_lt(dim * 3 / 4)
                .join(scan(1))
                .join(scan(2))
                .group_count(),
        ),
        ("sorted_join", scan(3).join(scan(2))),
        ("self_join", scan(1).join(scan(1))),
        ("sort_dedup", scan(0).select_lt(dim / 2).sort().dedup()),
        ("open_partition", scan(0).partition(None)),
        (
            "partitioned_join",
            scan(0).partition(Some(4)).join(scan(1).partition(None)),
        ),
        (
            "bushy",
            scan(0)
                .join(scan(1))
                .join(scan(3).select_lt(dim).join(scan(2)))
                .dedup(),
        ),
    ]
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The pattern's notation plus each leaf's region, identities numbered
/// in order of first appearance.
fn pattern_text(p: &Pattern) -> String {
    let mut text = p.to_string();
    let mut ids: Vec<RegionId> = Vec::new();
    for r in p.leaves().into_iter().filter_map(Pattern::region) {
        let idx = ids.iter().position(|&id| id == r.id()).unwrap_or_else(|| {
            ids.push(r.id());
            ids.len() - 1
        });
        write!(
            text,
            "; {}#{idx} {}×{}/{}",
            r.name(),
            r.n,
            r.w,
            r.root_bytes()
        )
        .unwrap();
    }
    text
}

fn line(case: &str, rank: usize, p: &PlannedQuery) -> String {
    format!(
        "{case} #{rank} | {} | mem={:016x} cpu={:016x} ops={} pattern={:016x}",
        p.plan,
        p.mem_ns.to_bits(),
        p.cpu_ns.to_bits(),
        p.ops,
        fnv1a(&pattern_text(&p.pattern)),
    )
}

fn current() -> Vec<String> {
    let mut out = Vec::new();
    for (machine, spec) in machines() {
        let model = CostModel::new(spec);
        let opt = Optimizer::new(&model).with_beam(BEAM);
        for (scale, fact, dim) in SCALES {
            let stats = tables(fact, dim);
            for (shape, plan) in shapes(dim) {
                let case = format!("{machine} {scale} {shape}");
                let plans = opt.enumerate(&plan, &stats).expect("every shape plans");
                out.extend(plans.iter().enumerate().map(|(i, p)| line(&case, i, p)));
            }
        }
    }
    out
}

#[test]
fn optimizer_output_matches_the_committed_golden() {
    let lines = current();
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, lines.join("\n") + "\n").expect("golden written");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden file present");
    let golden: Vec<&str> = golden.lines().collect();
    for (i, (want, got)) in golden.iter().zip(&lines).enumerate() {
        assert_eq!(
            want,
            got,
            "line {} of {GOLDEN_PATH} differs (want, then got)",
            i + 1
        );
    }
    assert_eq!(
        golden.len(),
        lines.len(),
        "plan count differs from the golden"
    );
}
