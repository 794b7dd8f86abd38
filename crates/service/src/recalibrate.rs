//! Drift-triggered auto-recalibration: the service *acting* on the
//! drift flag instead of merely raising it.
//!
//! The loop the paper's workflow implies (§2.3: adapt the model by
//! re-instantiating its parameters) but leaves manual: when the
//! [`DriftMonitor`](gcm_obs::DriftMonitor) flags an operator class,
//! the service hands the stale class list to a [`Recalibrator`], which
//! runs calibration probes on a **background thread** (probes take
//! milliseconds to seconds — the serving path must not stall) and
//! returns a [`Recalibration`]. The service then atomically swaps the
//! refreshed parameters in: `per_op_ns` (and optionally the whole
//! hardware spec) replace the models' calibration, the statistics
//! catalog's epoch is force-bumped so every cached plan re-prices
//! under the new parameters, and the drift monitor resets to start
//! judging the *new* calibration.
//!
//! The probe is injectable (`Recalibrator::new` takes any closure) so
//! tests pin the control loop deterministically; production
//! constructors run the real host probes from `gcm-engine` /
//! `gcm-calibrate`.
//!
//! The service's side of the loop lives here too: pumping the
//! recalibrator after each batch, swapping a result in, and the
//! model-ns → wall-ns EWMA the shed projection scales by.

use crate::QueryService;
use gcm_core::CostModel;
use gcm_hardware::HardwareSpec;
use std::sync::Arc;
use std::thread::JoinHandle;

/// The refreshed parameters one probe run produced.
#[derive(Debug, Clone)]
pub struct Recalibration {
    /// Re-measured CPU charge per logical operation (Eq 6.1 `T_cpu`).
    pub per_op_ns: f64,
    /// A re-calibrated hardware spec, when the probe re-ran the full
    /// hierarchy detection; `None` refreshes only the CPU side.
    pub spec: Option<HardwareSpec>,
}

/// The injectable probe: stale operator classes in, refreshed
/// calibration out. Must be callable from the background thread.
pub type ProbeFn = dyn Fn(&[String]) -> Recalibration + Send + Sync;

/// Runs calibration probes off the serving path and hands results back
/// for the service to apply. At most one probe run is in flight at a
/// time; re-triggers while one is running are coalesced into it.
pub struct Recalibrator {
    probe: Arc<ProbeFn>,
    inflight: Option<(Vec<String>, JoinHandle<Recalibration>)>,
    runs: u64,
}

impl std::fmt::Debug for Recalibrator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recalibrator")
            .field("inflight", &self.inflight.is_some())
            .field("runs", &self.runs)
            .finish()
    }
}

impl Recalibrator {
    /// A recalibrator running `probe` on a background thread whenever
    /// triggered. The probe receives the stale operator classes that
    /// caused the trigger (informational — probes may log or scope by
    /// them).
    pub fn new(probe: impl Fn(&[String]) -> Recalibration + Send + Sync + 'static) -> Recalibrator {
        Recalibrator {
            probe: Arc::new(probe),
            inflight: None,
            runs: 0,
        }
    }

    /// The production CPU-side probe: re-measure `per_op_ns` with the
    /// in-cache scalar probe of
    /// [`gcm_engine::native::calibrate_per_op_ns`] (milliseconds).
    /// The hierarchy spec is left as-is — CPU drift is what the
    /// service-level monitor attributes per class.
    pub fn host_cpu() -> Recalibrator {
        Recalibrator::new(|_stale| Recalibration {
            per_op_ns: gcm_engine::native::calibrate_per_op_ns(),
            spec: None,
        })
    }

    /// The full production probe: re-run the hierarchy detection of
    /// [`gcm_calibrate::calibrate_host`] over working sets up to
    /// `max_bytes` (seconds of probing) *and* the CPU-side per-op
    /// probe, swapping in a freshly calibrated spec. Falls back to a
    /// CPU-only refresh if the detected hierarchy fails spec
    /// validation.
    pub fn host_full(max_bytes: u64) -> Recalibrator {
        Recalibrator::new(move |_stale| {
            let per_op_ns = gcm_engine::native::calibrate_per_op_ns();
            let spec = gcm_calibrate::calibrate_host(max_bytes)
                .to_spec("recalibrated host", 0.0)
                .ok();
            Recalibration { per_op_ns, spec }
        })
    }

    /// Completed probe runs whose results were collected.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// True while a probe thread is running.
    pub fn in_flight(&self) -> bool {
        self.inflight.is_some()
    }

    /// Start a background probe run for `stale` classes. Returns
    /// `true` if a run was started, `false` when one is already in
    /// flight (the trigger coalesces into it).
    pub fn trigger(&mut self, stale: &[String]) -> bool {
        if self.inflight.is_some() {
            return false;
        }
        let probe = Arc::clone(&self.probe);
        let classes = stale.to_vec();
        let thread_classes = classes.clone();
        let handle = std::thread::spawn(move || probe(&thread_classes));
        self.inflight = Some((classes, handle));
        true
    }

    /// Collect a finished probe run without blocking: `Some((stale
    /// classes, result))` when the background thread has completed,
    /// `None` when none is in flight or it is still probing.
    pub fn poll(&mut self) -> Option<(Vec<String>, Recalibration)> {
        if self.inflight.as_ref().is_some_and(|(_, h)| h.is_finished()) {
            return self.wait();
        }
        None
    }

    /// Collect the in-flight probe run, blocking until it finishes.
    /// `None` when none is in flight. A panicked probe thread is
    /// swallowed (the run is discarded; calibration stays unchanged).
    pub fn wait(&mut self) -> Option<(Vec<String>, Recalibration)> {
        let (classes, handle) = self.inflight.take()?;
        match handle.join() {
            Ok(r) => {
                self.runs += 1;
                Some((classes, r))
            }
            Err(_) => None,
        }
    }
}

impl QueryService {
    /// Install the auto-recalibration loop: from now on a raised drift
    /// flag triggers `recal`'s probe on a background thread, and each
    /// completed probe atomically updates the CPU calibration (and the
    /// spec, when the probe refreshes it), force-bumps the statistics
    /// epoch so every cached plan re-prices, and resets the drift
    /// monitor.
    pub fn set_recalibrator(&mut self, recal: Recalibrator) {
        self.recal = Some(recal);
    }

    /// Completed recalibrations applied to this service.
    pub fn recalibrations(&self) -> u64 {
        self.recalibrations
    }

    /// Synchronously drive the recalibration loop: trigger a probe if
    /// the drift flag is raised (or collect the one already running),
    /// block until it finishes, and apply it. Returns `true` when a
    /// recalibration was applied. The asynchronous path is automatic —
    /// [`execute_batch`](QueryService::execute_batch) pumps the loop
    /// without blocking; this entry point is for tests and shutdown
    /// paths that must observe the swap.
    pub fn recalibrate_now(&mut self) -> bool {
        self.pump_recalibration(true)
    }

    /// One turn of the recalibration loop. `block` waits for the probe
    /// thread; otherwise only a finished probe is collected. Returns
    /// `true` when a result was applied.
    pub(crate) fn pump_recalibration(&mut self, block: bool) -> bool {
        let stale = self.drift.stale_classes();
        let Some(recal) = self.recal.as_mut() else {
            return false;
        };
        if !stale.is_empty() {
            recal.trigger(&stale);
        }
        let done = if block { recal.wait() } else { recal.poll() };
        match done {
            Some((_, result)) => {
                self.apply_recalibration(result);
                true
            }
            None => false,
        }
    }

    /// Atomically swap a probe result into the serving path: replace
    /// the CPU calibration (and the model when the probe refreshed
    /// the hierarchy), force-bump the statistics epoch so every cached
    /// plan and shared build re-prices under the new parameters, and
    /// reset the drift monitor to judge the new calibration from
    /// scratch.
    fn apply_recalibration(&mut self, r: Recalibration) {
        self.cfg.per_op_ns = r.per_op_ns;
        if let Some(spec) = r.spec {
            self.model = CostModel::new(spec);
        }
        let epoch = self.catalog.force_epoch_bump();
        self.cache.retire_epochs_before(epoch);
        self.builds.retire_epochs_before(epoch);
        self.drift.reset();
        self.recalibrations += 1;
    }

    /// Fold one measured/predicted batch-wall ratio into the
    /// [`wall_scale`](QueryService::wall_scale) EWMA (seeded by the
    /// first observation, clamped to keep one outlier batch from
    /// poisoning the projection).
    pub(crate) fn observe_wall_scale(&mut self, measured_wall_ns: f64, predicted_wall_ns: f64) {
        let ratio = measured_wall_ns / predicted_wall_ns.max(1.0);
        self.wall_scale = if self.wall_scale_seeded {
            0.8 * self.wall_scale + 0.2 * ratio
        } else {
            ratio
        };
        self.wall_scale_seeded = true;
        self.wall_scale = self.wall_scale.clamp(1e-4, 1e4);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn trigger_poll_wait_lifecycle() {
        let calls = Arc::new(AtomicU64::new(0));
        let calls2 = Arc::clone(&calls);
        let mut r = Recalibrator::new(move |stale| {
            calls2.fetch_add(1, Ordering::SeqCst);
            assert_eq!(stale, ["sort"]);
            Recalibration {
                per_op_ns: 7.5,
                spec: None,
            }
        });
        assert!(!r.in_flight());
        assert!(r.poll().is_none());
        assert!(r.trigger(&["sort".into()]));
        // A second trigger coalesces into the running probe.
        assert!(!r.trigger(&["sort".into()]));
        let (classes, result) = r.wait().expect("probe completes");
        assert_eq!(classes, ["sort"]);
        assert_eq!(result.per_op_ns, 7.5);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(r.runs(), 1);
        assert!(!r.in_flight());
        // Drained: nothing more to collect until the next trigger.
        assert!(r.wait().is_none());
    }

    #[test]
    fn panicked_probe_discards_the_run() {
        let mut r = Recalibrator::new(|_| panic!("probe blew up"));
        assert!(r.trigger(&[]));
        assert!(r.wait().is_none());
        assert_eq!(r.runs(), 0);
        // The recalibrator survives and can run again.
        assert!(!r.in_flight());
    }

    #[test]
    fn host_cpu_probe_returns_a_sane_charge() {
        let mut r = Recalibrator::host_cpu();
        assert!(r.trigger(&[]));
        let (_, result) = r.wait().expect("host probe completes");
        assert!(
            result.per_op_ns > 0.0 && result.per_op_ns < 1000.0,
            "per_op_ns = {}",
            result.per_op_ns
        );
        assert!(result.spec.is_none());
    }
}
