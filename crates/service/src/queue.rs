//! The pending queue and its scheduler: which queries run next, together,
//! and which are refused.
//!
//! Everything between [`QueryService::submit`] and execution lives here:
//! the queue entry (`Pending`), the admitted [`Batch`], the ⊙ sojourn
//! projection that sheds classed queries past their budget, the
//! class-priority order, and the hand-off to the ⊙-priced admission
//! controller ([`crate::admission`]). Batch formation and shedding are
//! decided nowhere else.

use crate::admission::{self, BatchPrice};
use crate::executor::Tables;
use crate::metrics::{self, ShedRecord};
use crate::{QueryService, Serving};
use gcm_core::Region;
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
    /// The form the query is served in: its serving pattern, its solo
    /// price, its CPU term and the shared builds it probes — shared with
    /// every submit of the same plan served the same form.
    pub(crate) serving: Arc<Serving>,
    /// The submitter's tenant class ([`QueryService::submit_classed`]):
    /// `None` for plain [`QueryService::submit`], which exempts the
    /// query from shedding and sorts it behind every classed one.
    pub(crate) class: Option<TenantClass>,
    /// When the query arrived, in the caller's clock (ns) — the sojourn
    /// the shed pass projects starts here.
    pub(crate) arrival_ns: u64,
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
    /// What admission predicted for the members, in batch order.
    pub(crate) price: BatchPrice,
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
        self.price.speedup()
    }

    /// The canonical regions of every shared build the batch probes,
    /// each exactly once.
    pub(crate) fn shared_regions(&self) -> Vec<&Region> {
        shared_regions(self.entries.iter())
    }
}

/// The canonical regions of every shared build attached to `entries`,
/// each exactly once — the `shared` list for Eq 5.3-with-shared-data
/// pricing and for the executor's member views.
fn shared_regions<'a>(entries: impl Iterator<Item = &'a Pending>) -> Vec<&'a Region> {
    let mut out: Vec<&Region> = Vec::new();
    for p in entries {
        for b in &p.serving.builds {
            if !out.iter().any(|r| r.id() == b.region.id()) {
                out.push(&b.region);
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
    /// where `solo(q)` is the query's solo memory price, taken once at
    /// submit from its serving pattern, plus its CPU — to the bit what
    /// admission predicts for `q` as a singleton batch — `speedup` is
    /// the EWMA of the admission controller's
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
        let mut order = self.priority_order();
        let shed = self.shed_pass(now_ns, &mut order);
        let batch = self.form_batch(&order);
        (shed, batch)
    }

    /// Queue indices in ([`TenantClass::priority`], arrival) order;
    /// unclassed queries sort behind every classed one.
    fn priority_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.queue.len()).collect();
        order.sort_by_cached_key(|&i| self.queue[i].class.map_or(u8::MAX, TenantClass::priority));
        order
    }

    /// Shed every classed query whose projected sojourn overruns its
    /// class budget (see [`next_batch_at`](QueryService::next_batch_at)
    /// for the predicate), walking the queue in `order` (its
    /// [`priority_order`](QueryService::priority_order)), removing each
    /// shed query from the queue and recording it into
    /// [`ServiceMetrics`](crate::ServiceMetrics). `order` is left as the
    /// surviving queue's indices, still in priority order.
    fn shed_pass(&mut self, now_ns: u64, order: &mut Vec<usize>) -> Vec<ShedRecord> {
        let Some(slo) = self.cfg.slo else {
            return Vec::new();
        };
        let speedup = self.drain_speedup.max(1.0);
        let scale = self.wall_scale;
        let mut cum = 0.0f64;
        let mut doomed: Vec<usize> = Vec::new();
        let mut records: Vec<ShedRecord> = Vec::new();
        for &i in order.iter() {
            let p = &self.queue[i];
            // Stand-alone time: exactly admission's price for `p` alone.
            let solo = p.serving.solo.mem_ns + p.serving.cpu_ns;
            let Some(class) = p.class else {
                cum += solo;
                continue;
            };
            // Already judged and kept: it counts toward the backlog
            // but is never shed (see the method docs — re-judging is
            // what makes sheds slow).
            if p.committed {
                cum += solo;
                continue;
            }
            let waited = now_ns.saturating_sub(p.arrival_ns) as f64;
            let projected = waited + scale * (cum + solo) / speedup;
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
                cum += solo;
                self.queue[i].committed = true;
            }
        }
        // Survivors keep their order and move down past the shed.
        doomed.sort_unstable();
        order.retain(|i| doomed.binary_search(i).is_err());
        for i in order.iter_mut() {
            *i -= doomed.partition_point(|&d| d < *i);
        }
        for &i in doomed.iter().rev() {
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
                let s = &self.queue[i].serving;
                admission::Candidate {
                    pattern: &s.pattern,
                    solo: &s.solo,
                    cpu_ns: s.cpu_ns,
                }
            })
            .collect();
        let shared = shared_regions(self.queue.iter());
        let (admitted, price) = admission::next_batch(&self.model, &candidates, free, &shared)?;
        // `admitted` indexes into `order`; map back to queue indices and
        // take the members out in admission order.
        let mut chosen: Vec<usize> = admitted.iter().map(|&k| order[k]).collect();
        let mut entries = Vec::with_capacity(chosen.len());
        for k in 0..chosen.len() {
            let i = chosen[k];
            entries.push(self.queue.remove(i).expect("admitted index in queue"));
            // The later picks behind `i` moved one slot forward.
            for j in &mut chosen[k + 1..] {
                *j -= usize::from(*j > i);
            }
        }
        // Fold the decision's ⊙ speedup into the drain-rate EWMA the
        // shed projection divides by.
        self.drain_speedup = 0.7 * self.drain_speedup + 0.3 * price.speedup();
        self.metrics
            .registry
            .set_gauge(metrics::QUEUE_DEPTH, self.queue.len() as f64);
        let t1 = self.ctl.now_ns();
        let n = entries.len();
        self.ctl_span(
            || format!("admission[{n}]"),
            SpanKind::Admission,
            t0,
            t1,
            n as u64,
        );
        Some(Batch { entries, price })
    }
}
