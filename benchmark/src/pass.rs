//! What one pass over a request sequence yields, whichever way the
//! requests travelled.

/// A client thread busier than this is measuring itself.
pub const MAX_BUSY_SHARE: f64 = 0.5;
/// Holding less than the stated requests in flight by more than this
/// share, over a pass, is not the load the workload states.
pub const MAX_INFLIGHT_SHORTFALL: f64 = 0.01;

#[derive(Debug, Default, Clone)]
pub struct Pass {
    /// On the workload's clock: the wall clock, or the simulated one on
    /// a simulator pass.
    pub elapsed_ns: u64,
    /// Always the wall clock.
    pub wall_ns: u64,
    /// Send → answer verified, one per answered request, ns.
    pub latencies: Vec<u64>,
    pub attempted: u64,
    /// Requests without a correct answer, by what went wrong: refused
    /// by the shed gate (or an execution error), answered differently
    /// from the reference, never answered.
    pub shed: u64,
    pub wrong: u64,
    pub lost: u64,
    /// Batches the service formed (in-process passes).
    pub batches: u64,
    /// Mean per-query model error of this pass (simulator passes).
    pub model_err: Option<f64>,
    /// `SERVED.sojourn_ns` of each served response (socket passes).
    pub sojourns: Vec<u64>,
    /// Largest CPU ÷ wall over the client threads (socket passes).
    pub busy_share: f64,
    /// Time-weighted requests in flight over all connections
    /// (Little: Σ latency ÷ wall; socket passes), against the number
    /// the workload states. The ramp at either end of a pass and every
    /// moment a client sat on an answer before sending the next
    /// request count against it.
    pub inflight_mean: f64,
    pub inflight_stated: f64,
}

impl Pass {
    pub fn failed(&self) -> u64 {
        self.shed + self.wrong + self.lost
    }

    /// Add another pass's request counts to this one's (a run's totals).
    pub fn count(&mut self, other: &Pass) {
        self.attempted += other.attempted;
        self.shed += other.shed;
        self.wrong += other.wrong;
        self.lost += other.lost;
    }

    /// Requests completed and verified per second.
    pub fn qps(&self) -> f64 {
        (self.attempted - self.failed()) as f64 / (self.elapsed_ns as f64 / 1e9)
    }

    /// Why this pass says more about the generator than the server.
    pub fn generator_fault(&self) -> Option<String> {
        if self.busy_share > MAX_BUSY_SHARE {
            return Some(format!(
                "a client thread was {:.2} busy (limit {MAX_BUSY_SHARE})",
                self.busy_share
            ));
        }
        if self.inflight_mean < (1.0 - MAX_INFLIGHT_SHORTFALL) * self.inflight_stated {
            return Some(format!(
                "{:.3} requests in flight held of {} stated (limit {MAX_INFLIGHT_SHORTFALL} short)",
                self.inflight_mean, self.inflight_stated
            ));
        }
        None
    }
}
