//! Reference answers, computed before the measured system starts.
//!
//! Every distinct query gets its `output_n` from a naive evaluator over
//! the raw key vectors (no engine code) and its `output_hash` from one
//! solo run of the same logical plan on the simulator backend; every
//! native or socket answer must match both. The same solo runs give the
//! workload's `model_err`: the model's prediction against the
//! simulator's charged clock, no wall time in it.

use crate::workload::{self, Def, Inputs, Kind};
use gcm_engine::plan::LogicalPlan;
use gcm_service::{QueryService, ServiceConfig};
use std::collections::{HashMap, HashSet};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    pub output_n: u64,
    pub output_hash: u64,
}

pub struct Oracle {
    /// By distinct-query index; `None` where the workload checks plans
    /// rather than answers (`plan_churn` references a sample only).
    pub refs: Vec<Option<Reference>>,
    /// Mean `|predicted − simulated| ÷ simulated` over the solo runs.
    pub model_err: f64,
}

/// The keys a logical plan produces, as a multiset in no particular
/// order: filter, equi-join and distinct over plain vectors.
pub fn naive_keys(plan: &LogicalPlan, tables: &[&[u64]]) -> Vec<u64> {
    match plan {
        LogicalPlan::Scan { table } => tables[*table].to_vec(),
        LogicalPlan::Select { input, threshold } => naive_keys(input, tables)
            .into_iter()
            .filter(|k| k < threshold)
            .collect(),
        LogicalPlan::Join { left, right } => {
            let mut matches: HashMap<u64, usize> = HashMap::new();
            for k in naive_keys(right, tables) {
                *matches.entry(k).or_default() += 1;
            }
            naive_keys(left, tables)
                .into_iter()
                .flat_map(|k| std::iter::repeat_n(k, matches.get(&k).copied().unwrap_or(0)))
                .collect()
        }
        LogicalPlan::Aggregate { input } | LogicalPlan::Dedup { input } => {
            let distinct: HashSet<u64> = naive_keys(input, tables).into_iter().collect();
            distinct.into_iter().collect()
        }
        LogicalPlan::Sort { input } | LogicalPlan::Partition { input, .. } => {
            naive_keys(input, tables)
        }
    }
}

/// `plan_churn` executes nothing; a fixed sample of its plans stands
/// for the population in `model_err`: every 128th fingerprint.
pub const CHURN_SAMPLE_STRIDE: usize = 128;

pub fn build(def: &Def, inputs: &Inputs) -> Result<Oracle, String> {
    // One query per batch, no co-runner: the solo reference.
    let cfg = ServiceConfig {
        max_batch: 1,
        ..ServiceConfig::default()
    };
    let mut sim = QueryService::with_config(workload::spec(), cfg);
    sim.set_tracing(false);
    sim.register_table("F", inputs.fact.clone(), 8);
    sim.register_table("D", inputs.dim.clone(), 8);
    let tables: [&[u64]; 2] = [&inputs.fact, &inputs.dim];

    let mut refs = vec![None; inputs.distinct.len()];
    let stride = if def.kind == Kind::PlanChurn {
        CHURN_SAMPLE_STRIDE
    } else {
        1
    };
    for (i, q) in inputs.distinct.iter().enumerate().step_by(stride) {
        let naive_n = naive_keys(&q.plan, &tables).len() as u64;
        sim.submit(q.plan.clone())
            .map_err(|e| format!("oracle cannot plan {}: {e}", q.plan))?;
        let batch = sim.next_batch().expect("one query queued");
        sim.execute_batch(batch)
            .map_err(|e| format!("oracle cannot run {}: {e}", q.plan))?;
        let rec = sim.metrics().queries.last().expect("query recorded");
        if rec.output_n != naive_n {
            return Err(format!(
                "references disagree on {}: naive {naive_n}, simulator {}",
                q.plan, rec.output_n
            ));
        }
        refs[i] = Some(Reference {
            output_n: naive_n,
            output_hash: rec.output_hash,
        });
    }
    let model_err = sim.metrics().mean_query_error();
    Ok(Oracle { refs, model_err })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_evaluator_filters_joins_and_counts_distinct() {
        let fact = [1u64, 1, 2, 5, 7, 7, 7];
        let dim = [0u64, 1, 2, 3, 7];
        let tables: [&[u64]; 2] = [&fact, &dim];
        let select = LogicalPlan::scan(0).select_lt(6);
        assert_eq!(naive_keys(&select, &tables).len(), 4);
        let join = LogicalPlan::scan(0).join(LogicalPlan::scan(1));
        assert_eq!(naive_keys(&join, &tables).len(), 6); // 5 has no match
        let grouped = join.group_count();
        assert_eq!(naive_keys(&grouped, &tables).len(), 3); // {1, 2, 7}
    }

    #[test]
    fn oracle_agrees_with_itself_on_a_small_mix() {
        let d = workload::def("model_sim").unwrap();
        let small = Def {
            fact_n: 4_096,
            dim_n: 512,
            ..*d
        };
        let inputs = workload::inputs(&small, 3);
        let o = build(&small, &inputs).expect("references agree");
        assert!(o.refs.iter().all(Option::is_some));
        assert!(o.model_err > 0.0 && o.model_err < 1.0);
        let again = build(&small, &inputs).unwrap();
        assert_eq!(o.model_err.to_bits(), again.model_err.to_bits());
    }
}
