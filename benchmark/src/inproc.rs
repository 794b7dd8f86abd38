//! One closed-loop pass against an in-process `QueryService`: the
//! caller submits `window` requests, then drains the queue through
//! `next_batch_at` and whatever the workload does with a batch, and
//! only then submits the next `window`.

use crate::oracle::{Oracle, Reference};
use crate::pass::Pass;
use crate::spans::{Tracer, NO_REQUEST};
use crate::workload::{Def, Exec, Inputs, FACT};
use gcm_service::QueryService;
use std::time::Instant;

/// The fact table's two versions and which one is registered now.
pub struct Flipper {
    versions: [Vec<u64>; 2],
    current: usize,
}

impl Flipper {
    pub fn new(inputs: &Inputs) -> Flipper {
        Flipper {
            versions: [inputs.fact.clone(), inputs.fact_small.clone()],
            current: 0,
        }
    }

    /// Any workload can flip once and back: its own table and the head
    /// half of it (the traced run's `service.update_table_ns` sample).
    pub fn halving(inputs: &Inputs) -> Flipper {
        Flipper {
            versions: [
                inputs.fact.clone(),
                inputs.fact[..inputs.fact.len() / 2].to_vec(),
            ],
            current: 0,
        }
    }

    pub fn flip(&mut self, svc: &mut QueryService, tr: &mut Tracer) -> bool {
        self.current ^= 1;
        let keys = self.versions[self.current].clone();
        tr.span("service.update_table", NO_REQUEST, || {
            svc.update_table(FACT, keys)
        })
    }
}

struct InFlight {
    qid: u64,
    key: usize,
    request: u64,
    /// Wall clock, for the trace.
    sent_ns: u64,
    /// The workload's clock, for its latency.
    sent_clock: u64,
}

fn settle(
    pass: &mut Pass,
    tr: &mut Tracer,
    pending: &mut Vec<InFlight>,
    qid: u64,
    got: Option<Reference>,
    oracle: &Oracle,
    sim_clock: Option<u64>,
) {
    let Some(pos) = pending.iter().position(|p| p.qid == qid) else {
        pass.wrong += 1; // an answer nobody asked for
        return;
    };
    let p = pending.swap_remove(pos);
    // `got` is `None` where the workload has no answer to check (a
    // dropped batch): being admitted is the answer.
    if got.is_some() && got != oracle.refs[p.key] {
        pass.wrong += 1;
    }
    let now = tr.now_ns();
    pass.latencies.push(sim_clock.unwrap_or(now) - p.sent_clock);
    tr.record("request", p.sent_ns, now, p.request);
}

/// Run `order` (indices into `inputs.distinct`) once. `first_request`
/// numbers the requests for the trace.
///
/// A simulator pass (`Exec::Sim`) lives on the simulated clock: it
/// starts at zero, stands still while the service plans and admits,
/// and advances by each batch's measured wall — the slowest member's
/// charged time plus dispatch, as `BENCH_service.json` counts it.
/// Latencies and the pass's elapsed time are read from that clock, so
/// they repeat exactly for a seed; how fast the simulator itself runs
/// is the per-layer `sim.access_ns`.
#[allow(clippy::too_many_arguments)]
pub fn run_pass(
    svc: &mut QueryService,
    def: &Def,
    inputs: &Inputs,
    order: &[usize],
    oracle: &Oracle,
    mut flipper: Option<&mut Flipper>,
    tr: &mut Tracer,
    first_request: u64,
) -> Pass {
    let mut pass = Pass::default();
    let mut pending: Vec<InFlight> = Vec::with_capacity(def.window);
    let queries_before = svc.metrics().queries.len();
    let t0 = Instant::now();
    let mut sim_clock = (def.exec == Exec::Sim).then_some(0u64);
    let mut submitted = 0usize;
    for chunk in order.chunks(def.window) {
        let cycle = tr.begin(NO_REQUEST);
        for &key in chunk {
            let q = &inputs.distinct[key];
            let request = first_request + submitted as u64;
            let misses_before = svc.cache().misses();
            let sent_ns = tr.now_ns();
            let open = tr.begin(request);
            let submit = svc.submit_classed(q.plan.clone(), q.class, sent_ns);
            let missed = svc.cache().misses() > misses_before;
            tr.end(
                open,
                if missed {
                    "service.submit_miss"
                } else {
                    "service.submit_hit"
                },
            );
            pass.attempted += 1;
            match submit {
                Ok(qid) => pending.push(InFlight {
                    qid,
                    key,
                    request,
                    sent_ns,
                    sent_clock: sim_clock.unwrap_or(sent_ns),
                }),
                Err(_) => pass.shed += 1,
            }
            submitted += 1;
            if let (Some(every), Some(f)) = (def.flip_every, flipper.as_deref_mut()) {
                if submitted.is_multiple_of(every) {
                    f.flip(svc, tr);
                }
            }
        }
        loop {
            let now_ns = tr.now_ns();
            let (shed, batch) = tr.span("service.admit", NO_REQUEST, || svc.next_batch_at(now_ns));
            for s in shed {
                // A shed request got no answer, but its latency still
                // ends here.
                pass.shed += 1;
                if let Some(pos) = pending.iter().position(|p| p.qid == s.id) {
                    let p = pending.swap_remove(pos);
                    pass.latencies
                        .push(sim_clock.unwrap_or(tr.now_ns()) - p.sent_clock);
                }
            }
            let Some(batch) = batch else { break };
            pass.batches += 1;
            let ids = batch.ids();
            match def.exec {
                Exec::Drop => {
                    for qid in ids {
                        settle(&mut pass, tr, &mut pending, qid, None, oracle, None);
                    }
                }
                Exec::Native => {
                    let open = tr.begin(NO_REQUEST);
                    let runs = svc.execute_batch_native_observed(batch);
                    tr.end(open, "service.exec");
                    match runs {
                        Ok(runs) => {
                            let longest =
                                runs.iter().map(|(_, r)| r.measured_ns).fold(0.0, f64::max);
                            tr.synthetic_child("engine.measured", longest as u64);
                            for (qid, run) in runs {
                                let got = Reference {
                                    output_n: run.output_n,
                                    output_hash: run.output_hash,
                                };
                                settle(&mut pass, tr, &mut pending, qid, Some(got), oracle, None);
                            }
                        }
                        Err(_) => pass.shed += ids.len() as u64,
                    }
                }
                Exec::Sim => {
                    let seen = svc.metrics().queries.len();
                    let open = tr.begin(NO_REQUEST);
                    let ran = svc.execute_batch(batch);
                    tr.end(open, "service.exec");
                    let Ok(batch_idx) = ran else {
                        pass.shed += ids.len() as u64;
                        continue;
                    };
                    let wall = svc.metrics().batches[batch_idx].measured_wall_ns;
                    sim_clock = sim_clock.map(|t| t + wall.round() as u64);
                    let records: Vec<(u64, Reference)> = svc.metrics().queries[seen..]
                        .iter()
                        .map(|r| {
                            (
                                r.id,
                                Reference {
                                    output_n: r.output_n,
                                    output_hash: r.output_hash,
                                },
                            )
                        })
                        .collect();
                    for (qid, got) in records {
                        settle(
                            &mut pass,
                            tr,
                            &mut pending,
                            qid,
                            Some(got),
                            oracle,
                            sim_clock,
                        );
                    }
                }
            }
        }
        // Whatever is still pending was neither shed nor batched.
        pass.lost += pending.len() as u64;
        pending.clear();
        tr.end(cycle, "cycle");
    }
    pass.wall_ns = t0.elapsed().as_nanos() as u64;
    pass.elapsed_ns = sim_clock.unwrap_or(pass.wall_ns);
    if def.exec == Exec::Sim {
        let ran = &svc.metrics().queries[queries_before..];
        let sum: f64 = ran.iter().map(|r| r.error()).sum();
        pass.model_err = Some(sum / ran.len().max(1) as f64);
    }
    pass
}
