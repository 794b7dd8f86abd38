//! The pending queue and its scheduler: which queries run next, together,
//! and which are refused.
//!
//! Everything between [`QueryService::submit`] and execution lives here:
//! the queue entry (`Pending`), the admitted [`Batch`], the ⊙ sojourn
//! projection that sheds classed queries past their budget, the
//! class-priority order, and the hand-off to the ⊙-priced admission
//! controller ([`crate::admission`]). Batch formation and shedding are
//! decided nowhere else.

use crate::admission;
use crate::builds::SharedBuild;
use crate::executor::Tables;
use crate::metrics::{self, ShedRecord};
use crate::QueryService;
use gcm_core::{Pattern, Region};
use gcm_engine::plan::{LogicalPlan, PhysicalPlan, PlannedQuery};
use gcm_obs::SpanKind;
use gcm_workload::TenantClass;
use std::sync::Arc;

/// One pending (optimized, not yet executed) query.
#[derive(Debug, Clone)]
pub(crate) struct Pending {
    pub(crate) id: u64,
    pub(crate) plan: LogicalPlan,
    pub(crate) planned: Arc<PlannedQuery>,
    /// The catalog version the query was admitted with: it executes
    /// over exactly these tables, whatever was published since.
    pub(crate) tables: Tables,
    /// The pattern the admission controller prices: the planned pattern
    /// with every shared build phase stripped and the probe redirected
    /// at the build's canonical region
    /// ([`strip_build_phase`](crate::strip_build_phase)); the planned
    /// pattern unchanged when nothing is shared.
    pub(crate) pattern: Arc<Pattern>,
    /// Predicted CPU time matching `pattern`: the planned `cpu_ns`
    /// minus the build share of every stripped build phase.
    pub(crate) cpu_ns: f64,
    /// The shared builds this query probes instead of building.
    pub(crate) builds: Vec<Arc<SharedBuild>>,
    /// The submitter's tenant class ([`QueryService::submit_classed`]):
    /// `None` for plain [`QueryService::submit`], which exempts the
    /// query from shedding and sorts it behind every classed one.
    pub(crate) class: Option<TenantClass>,
    /// When the query arrived, in the caller's clock (ns) — the sojourn
    /// the shed pass projects starts here.
    pub(crate) arrival_ns: u64,
    /// Predicted stand-alone time (planned memory + serving-path CPU),
    /// ns — the query's contribution to the backlog projection.
    pub(crate) solo_ns: f64,
    /// The shed gate already evaluated this query and kept it. A
    /// committed query is never re-judged — the shed/serve decision is
    /// made exactly once, at arrival cost, which is what makes shed
    /// responses *fast* (a late re-shed would cost the client the very
    /// sojourn the budget was supposed to cap).
    pub(crate) committed: bool,
}

/// An admitted batch, ready to execute. Produced by
/// [`QueryService::next_batch`], consumed by
/// [`QueryService::dispatch`] — or by one of its waiting forms,
/// [`QueryService::execute_batch`] and
/// [`QueryService::execute_batch_native_observed`].
#[derive(Debug, Clone)]
pub struct Batch {
    pub(crate) entries: Vec<Pending>,
    /// Predicted wall time (⊙-composed slowest member + dispatch), ns.
    pub predicted_wall_ns: f64,
    /// Predicted serial fallback for the same members, ns.
    pub predicted_serial_ns: f64,
    pub(crate) per_query_ns: Vec<f64>,
}

impl Batch {
    /// Number of member queries.
    pub fn size(&self) -> usize {
        self.entries.len()
    }

    /// Member query ids, in batch order.
    pub fn ids(&self) -> Vec<u64> {
        self.entries.iter().map(|p| p.id).collect()
    }

    /// Member physical plans, in batch order.
    pub fn plans(&self) -> Vec<&PhysicalPlan> {
        self.entries.iter().map(|p| &p.planned.plan).collect()
    }

    /// Predicted batching speedup over serial execution (1.0 for a
    /// singleton).
    pub fn predicted_speedup(&self) -> f64 {
        if self.predicted_wall_ns > 0.0 {
            self.predicted_serial_ns / self.predicted_wall_ns
        } else {
            1.0
        }
    }

    /// The canonical regions of every shared build the batch probes,
    /// each exactly once.
    pub(crate) fn shared_regions(&self) -> Vec<Region> {
        shared_regions(self.entries.iter())
    }
}

/// The canonical regions of every shared build attached to `entries`,
/// each exactly once — the `shared` list for Eq 5.3-with-shared-data
/// pricing and for the executor's member views.
fn shared_regions<'a>(entries: impl Iterator<Item = &'a Pending>) -> Vec<Region> {
    let mut out: Vec<Region> = Vec::new();
    for p in entries {
        for b in &p.builds {
            if !out.iter().any(|r| r.id() == b.region.id()) {
                out.push(b.region.clone());
            }
        }
    }
    out
}

impl QueryService {
    /// Ask the admission controller for the next batch, removing the
    /// admitted queries from the queue. `None` when the queue is empty
    /// or every slot is taken by members still in flight. The decision
    /// is pure pricing — callers may inspect the batch (sizes,
    /// predicted times) without executing it.
    pub fn next_batch(&mut self) -> Option<Batch> {
        let order: Vec<usize> = (0..self.queue.len()).collect();
        self.form_batch(&order)
    }

    /// The SLO-aware scheduling step: run the shed pass at `now_ns`
    /// (the caller's clock, same units as the `arrival_ns` handed to
    /// [`submit_classed`](QueryService::submit_classed)), then form the
    /// next batch from the surviving queue in class-priority order.
    /// Returns the queries shed this turn — the caller owes each a
    /// fail-fast response — and the batch (`None` when the queue is
    /// empty or no slot is free; see
    /// [`next_batch`](QueryService::next_batch)).
    ///
    /// The shed predicate is a ⊙ sojourn projection. Walking the queue
    /// in ([`TenantClass::priority`], arrival) order and keeping a
    /// running sum of predicted stand-alone work `cum`, a query `q` is
    /// shed iff
    ///
    /// ```text
    /// waited(q) + scale · (cum + solo(q)) / speedup  >  budget(class(q))
    /// ```
    ///
    /// where `speedup` is the EWMA of the admission controller's
    /// ⊙-priced batch speedup (how much faster than serial the service
    /// drains when the model lets queries coexist) and `scale` the
    /// EWMA of measured-wall / predicted-wall (model nanoseconds →
    /// caller-clock nanoseconds). Unclassed queries never shed but
    /// their work still counts toward the backlog.
    ///
    /// The decision is made **once**, at the query's first pass: shed
    /// now (the fail-fast reply costs one projection, no execution) or
    /// commit to serving it even if the projection later sours. Without
    /// commitment the steady-state backlog hovers exactly at the
    /// budget, every borderline query is kept and re-judged until its
    /// deadline passes, and "shed" responses arrive as late as served
    /// ones — the opposite of fail-fast.
    ///
    /// Without an [`SloPolicy`](crate::SloPolicy) installed this
    /// degenerates to [`next_batch`](QueryService::next_batch) in
    /// arrival order and sheds nothing.
    pub fn next_batch_at(&mut self, now_ns: u64) -> (Vec<ShedRecord>, Option<Batch>) {
        if self.cfg.slo.is_none() {
            return (Vec::new(), self.next_batch());
        }
        let shed = self.shed_pass(now_ns);
        let order = self.priority_order();
        let batch = self.form_batch(&order);
        (shed, batch)
    }

    /// Queue indices in ([`TenantClass::priority`], arrival) order;
    /// unclassed queries sort behind every classed one.
    fn priority_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.queue.len()).collect();
        order.sort_by_key(|&i| self.queue[i].class.map_or(u8::MAX, TenantClass::priority));
        order
    }

    /// Shed every classed query whose projected sojourn overruns its
    /// class budget (see [`next_batch_at`](QueryService::next_batch_at)
    /// for the predicate), removing it from the queue and recording it
    /// into [`ServiceMetrics`](crate::ServiceMetrics).
    fn shed_pass(&mut self, now_ns: u64) -> Vec<ShedRecord> {
        let Some(slo) = self.cfg.slo else {
            return Vec::new();
        };
        let speedup = self.drain_speedup.max(1.0);
        let scale = self.wall_scale;
        let mut cum = 0.0f64;
        let mut doomed: Vec<usize> = Vec::new();
        let mut records: Vec<ShedRecord> = Vec::new();
        for i in self.priority_order() {
            let p = &self.queue[i];
            let Some(class) = p.class else {
                cum += p.solo_ns;
                continue;
            };
            // Already judged and kept: it counts toward the backlog
            // but is never shed (see the method docs — re-judging is
            // what makes sheds slow).
            if p.committed {
                cum += p.solo_ns;
                continue;
            }
            let waited = now_ns.saturating_sub(p.arrival_ns) as f64;
            let projected = waited + scale * (cum + p.solo_ns) / speedup;
            let budget = slo.budget_ns(class);
            if projected > budget {
                doomed.push(i);
                records.push(ShedRecord {
                    id: p.id,
                    class,
                    waited_ns: waited as u64,
                    projected_ns: projected,
                    budget_ns: budget,
                });
            } else {
                cum += p.solo_ns;
                self.queue[i].committed = true;
            }
        }
        doomed.sort_unstable_by(|a, b| b.cmp(a));
        for i in doomed {
            self.queue.remove(i);
        }
        for r in &records {
            self.metrics.record_shed(r.clone());
        }
        self.metrics
            .registry
            .set_gauge(metrics::QUEUE_DEPTH, self.queue.len() as f64);
        records
    }

    /// Form a batch from the queue considered in `order` (indices into
    /// the queue), removing the admitted queries. The batch gets at
    /// most the [`free_slots`](QueryService::free_slots) — `None` when
    /// there are none.
    fn form_batch(&mut self, order: &[usize]) -> Option<Batch> {
        let free = self.free_slots();
        if free == 0 {
            return None;
        }
        let t0 = self.ctl.now_ns();
        let candidates: Vec<admission::Candidate<'_>> = order
            .iter()
            .map(|&i| {
                let p = &self.queue[i];
                admission::Candidate {
                    pattern: &p.pattern,
                    cpu_ns: p.cpu_ns,
                }
            })
            .collect();
        let shared = shared_regions(self.queue.iter());
        let decision = admission::next_batch(&self.model, &candidates, free, &shared)?;
        // `admitted` indexes into `order`; map back to queue indices,
        // remove back to front so earlier indices stay valid, then
        // restore admission order.
        let chosen: Vec<usize> = decision.admitted.iter().map(|&k| order[k]).collect();
        let mut by_desc = chosen.clone();
        by_desc.sort_unstable_by(|a, b| b.cmp(a));
        let mut removed: Vec<(usize, Pending)> = by_desc
            .into_iter()
            .map(|i| (i, self.queue.remove(i).expect("admitted index in queue")))
            .collect();
        let entries: Vec<Pending> = chosen
            .iter()
            .map(|i| {
                let pos = removed
                    .iter()
                    .position(|(j, _)| j == i)
                    .expect("admitted exactly once");
                removed.swap_remove(pos).1
            })
            .collect();
        // Fold the decision's ⊙ speedup into the drain-rate EWMA the
        // shed projection divides by.
        self.drain_speedup = 0.7 * self.drain_speedup + 0.3 * decision.predicted_speedup();
        self.metrics
            .registry
            .set_gauge(metrics::QUEUE_DEPTH, self.queue.len() as f64);
        let t1 = self.ctl.now_ns();
        self.ctl_span(
            format!("admission[{}]", entries.len()),
            SpanKind::Admission,
            t0,
            t1,
            entries.len() as u64,
        );
        Some(Batch {
            entries,
            predicted_wall_ns: decision.predicted_wall_ns,
            predicted_serial_ns: decision.predicted_serial_ns,
            per_query_ns: decision.per_query_ns,
        })
    }
}
