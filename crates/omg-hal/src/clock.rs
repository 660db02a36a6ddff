//! Virtual time accounting.
//!
//! The simulation reports runtimes the way the paper does (milliseconds on
//! the device) by combining two sources of time:
//!
//! 1. **Measured compute** — real host wall-clock time of actual work (e.g.
//!    an int8 inference), captured with [`SimClock::measure`].
//! 2. **Modelled hardware events** — fixed costs for things the host cannot
//!    execute (world switches, core boots, TZASC reconfiguration), charged
//!    with [`SimClock::charge`] using a [`CostModel`].
//!
//! This mirrors the paper's own methodology: Table I times the inference
//! loop on real hardware, while the world-switch cost (≈0.3 ms) is taken
//! from the SANCTUARY paper \[11\].
//!
//! Measured compute uses **per-thread CPU time** where the OS exposes it
//! (`clock_gettime(CLOCK_THREAD_CPUTIME_ID)` on 64-bit Linux), falling
//! back to wall-clock time elsewhere. Each simulated device models
//! independent hardware, so
//! when many devices execute on fewer host cores (the `omg-serve` worker
//! fleet), a device must be charged only the cycles its own computation
//! consumed — wall time would overcharge it with time spent preempted by
//! *other* devices' threads.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// Process-wide monotonic timestamp in nanoseconds — the clock seam the
/// observability layer stamps flight-recorder events with. Re-exported
/// here so enclave and serving code keep a single clock module even
/// though the implementation lives at the bottom of the dependency
/// order in `omg-obs`.
pub use omg_obs::monotonic_ns;

/// A hardware event with a modelled (not measured) cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum HwEvent {
    /// One direction of an SMC world switch (normal↔secure or SA↔secure).
    WorldSwitch,
    /// Powering a core off.
    CoreShutdown,
    /// Booting a core into an execution environment.
    CoreBoot,
    /// Reprogramming a TZASC region (lock/unlock).
    TzascConfig,
    /// Invalidating a core's L1 cache.
    L1Invalidate,
    /// Scrubbing memory, per byte.
    ScrubPerByte,
    /// Copying between regions (e.g. secure world → shared buffer), per byte.
    CopyPerByte,
}

/// Per-event costs in nanoseconds.
///
/// Defaults follow the calibration table in `DESIGN.md` §7, anchored to the
/// 0.3 ms round-trip world switch reported by SANCTUARY \[11\] and cited in
/// the paper's evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// One-way world switch (half of the 0.3 ms round trip).
    pub world_switch_ns: u64,
    /// Core power-off latency.
    pub core_shutdown_ns: u64,
    /// Core boot latency (into the SANCTUARY library environment).
    pub core_boot_ns: u64,
    /// TZASC region reconfiguration.
    pub tzasc_config_ns: u64,
    /// L1 cache invalidation.
    pub l1_invalidate_ns: u64,
    /// Memory scrubbing, per byte (≈1 GB/s → 1 ns/byte).
    pub scrub_ns_per_byte: f64,
    /// Cross-region copy, per byte.
    pub copy_ns_per_byte: f64,
    /// Multiplicative penalty on *measured* compute inside an enclave whose
    /// memory is excluded from the shared L2 cache. Calibrated so Table I's
    /// ≈2 % end-to-end overhead is reproduced; set to `0.0` to model an
    /// enclave that keeps L2 (the paper's ablation: "the shared L2 can be
    /// excluded from SANCTUARY memory without severe performance impact").
    pub l2_exclusion_compute_penalty: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            world_switch_ns: 150_000, // 0.15 ms each way = 0.3 ms round trip [11]
            core_shutdown_ns: 3_000_000,
            core_boot_ns: 5_000_000,
            tzasc_config_ns: 50_000,
            l1_invalidate_ns: 10_000,
            scrub_ns_per_byte: 1.0,
            copy_ns_per_byte: 0.25,
            l2_exclusion_compute_penalty: 0.02,
        }
    }
}

impl CostModel {
    /// The modelled cost of one event, with `bytes` scaling the per-byte
    /// events (ignored for fixed-cost events).
    pub fn cost_ns(&self, event: HwEvent, bytes: usize) -> u64 {
        match event {
            HwEvent::WorldSwitch => self.world_switch_ns,
            HwEvent::CoreShutdown => self.core_shutdown_ns,
            HwEvent::CoreBoot => self.core_boot_ns,
            HwEvent::TzascConfig => self.tzasc_config_ns,
            HwEvent::L1Invalidate => self.l1_invalidate_ns,
            HwEvent::ScrubPerByte => (self.scrub_ns_per_byte * bytes as f64) as u64,
            HwEvent::CopyPerByte => (self.copy_ns_per_byte * bytes as f64) as u64,
        }
    }
}

#[derive(Debug, Default)]
struct ClockInner {
    /// Total virtual nanoseconds.
    now_ns: u64,
    /// Nanoseconds attributed to modelled hardware events.
    modelled_ns: u64,
    /// Nanoseconds attributed to measured compute.
    measured_ns: u64,
    /// Nanoseconds attributed to scripted stalls (scenario harnesses).
    stalled_ns: u64,
    /// Count of each charged event kind (for reports).
    world_switches: u64,
}

/// A cloneable handle to the platform's virtual clock.
///
/// All clones share one underlying counter, so subsystems (HAL, SANCTUARY,
/// the OMG protocol) accumulate into a single timeline.
///
/// # Examples
///
/// ```
/// use omg_hal::clock::{CostModel, HwEvent, SimClock};
///
/// let clock = SimClock::new(CostModel::default());
/// clock.charge(HwEvent::WorldSwitch, 0);
/// clock.charge(HwEvent::WorldSwitch, 0);
/// // A round trip costs 0.3 ms, as reported by SANCTUARY [11].
/// assert_eq!(clock.now().as_micros(), 300);
/// ```
#[derive(Clone)]
pub struct SimClock {
    inner: Arc<Mutex<ClockInner>>,
    cost: Arc<CostModel>,
}

impl fmt::Debug for SimClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("SimClock")
            .field("now_ns", &inner.now_ns)
            .field("modelled_ns", &inner.modelled_ns)
            .field("measured_ns", &inner.measured_ns)
            .finish()
    }
}

impl SimClock {
    /// Creates a clock at time zero with the given cost model.
    pub fn new(cost: CostModel) -> Self {
        SimClock {
            inner: Arc::new(Mutex::new(ClockInner::default())),
            cost: Arc::new(cost),
        }
    }

    /// The cost model this clock charges with.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Current virtual time since platform reset.
    pub fn now(&self) -> Duration {
        Duration::from_nanos(self.inner.lock().now_ns)
    }

    /// Virtual time spent in modelled hardware events.
    pub fn modelled(&self) -> Duration {
        Duration::from_nanos(self.inner.lock().modelled_ns)
    }

    /// Virtual time spent in measured compute sections.
    pub fn measured(&self) -> Duration {
        Duration::from_nanos(self.inner.lock().measured_ns)
    }

    /// Number of one-way world switches charged so far.
    pub fn world_switch_count(&self) -> u64 {
        self.inner.lock().world_switches
    }

    /// Charges a modelled hardware event (per-byte events scale by `bytes`).
    pub fn charge(&self, event: HwEvent, bytes: usize) {
        let ns = self.cost.cost_ns(event, bytes);
        let mut inner = self.inner.lock();
        inner.now_ns += ns;
        inner.modelled_ns += ns;
        if event == HwEvent::WorldSwitch {
            inner.world_switches += 1;
        }
    }

    /// Advances the clock by an externally computed duration, attributed to
    /// measured compute.
    pub fn advance_measured(&self, d: Duration) {
        let ns = d.as_nanos() as u64;
        let mut inner = self.inner.lock();
        inner.now_ns += ns;
        inner.measured_ns += ns;
    }

    /// Advances virtual time without attributing it to hardware events or
    /// compute: the device was *stalled* — wedged on a slow bus, descheduled,
    /// or deliberately delayed by a chaos scenario. Simulation harnesses use
    /// this to script slow devices: the device's timeline moves forward, but
    /// neither the modelled-cost nor the measured-compute accounting is
    /// polluted by time the device did not actually work.
    pub fn stall(&self, d: Duration) {
        let ns = d.as_nanos().min(u128::from(u64::MAX)) as u64;
        let mut inner = self.inner.lock();
        inner.now_ns += ns;
        inner.stalled_ns += ns;
    }

    /// Virtual time spent stalled (see [`Self::stall`]).
    pub fn stalled(&self) -> Duration {
        Duration::from_nanos(self.inner.lock().stalled_ns)
    }

    /// Runs `f`, measures the host compute time it consumed, and adds it to
    /// the virtual clock (scaled by `1 + penalty` — used for the
    /// L2-exclusion compute penalty inside enclaves).
    ///
    /// The measurement is the calling thread's CPU time where available
    /// (see the module docs), so concurrent simulations charge each
    /// virtual device only its own work; sub-resolution measurements fall
    /// back to host wall-clock time.
    ///
    /// Returns the closure result together with the *scaled* duration that
    /// was charged.
    pub fn measure_scaled<T>(&self, penalty: f64, f: impl FnOnce() -> T) -> (T, Duration) {
        let cpu_start = thread_cpu_ns();
        let wall_start = Instant::now();
        let out = f();
        let raw = match (cpu_start, thread_cpu_ns()) {
            (Some(before), Some(after)) if after > before => Duration::from_nanos(after - before),
            _ => wall_start.elapsed(),
        };
        let scaled = Duration::from_nanos((raw.as_nanos() as f64 * (1.0 + penalty)) as u64);
        self.advance_measured(scaled);
        (out, scaled)
    }

    /// Runs `f`, measures the compute time it consumed, and adds it to the
    /// virtual clock unscaled.
    pub fn measure<T>(&self, f: impl FnOnce() -> T) -> (T, Duration) {
        self.measure_scaled(0.0, f)
    }

    /// Resets the clock to zero (used between benchmark iterations).
    pub fn reset(&self) {
        *self.inner.lock() = ClockInner::default();
    }
}

impl Default for SimClock {
    fn default() -> Self {
        Self::new(CostModel::default())
    }
}

/// Cumulative CPU nanoseconds consumed by the calling thread, where the OS
/// exposes them. On 64-bit Linux this is
/// `clock_gettime(CLOCK_THREAD_CPUTIME_ID)` — one system call, no
/// allocation — which excludes time the thread spent preempted or
/// blocked. The kernel brings a running thread's runtime up to date on
/// this call (a `/proc/thread-self/schedstat` read does not), so
/// back-to-back sections are each charged their own time and never the
/// time of the ones before.
fn thread_cpu_ns() -> Option<u64> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        /// `struct timespec` on 64-bit Linux: `time_t` and `long` are both
        /// 64 bits wide.
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            // std links the C library on Linux, which provides this.
            fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable value with the C layout of
        // `struct timespec` on this target, and `clock_gettime` writes
        // only that struct; the clock id is a constant the kernel knows.
        if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
            return None;
        }
        let secs = u64::try_from(ts.tv_sec).ok()?;
        let nanos = u64::try_from(ts.tv_nsec).ok()?;
        Some(secs * 1_000_000_000 + nanos)
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates_events() {
        let clock = SimClock::new(CostModel::default());
        clock.charge(HwEvent::WorldSwitch, 0);
        clock.charge(HwEvent::WorldSwitch, 0);
        assert_eq!(clock.now(), Duration::from_micros(300));
        assert_eq!(clock.world_switch_count(), 2);
        assert_eq!(clock.modelled(), clock.now());
        assert_eq!(clock.measured(), Duration::ZERO);
    }

    #[test]
    fn per_byte_events_scale() {
        let clock = SimClock::new(CostModel::default());
        clock.charge(HwEvent::ScrubPerByte, 1_000_000);
        // 1 ns/byte × 1 MB = 1 ms.
        assert_eq!(clock.now(), Duration::from_millis(1));
    }

    #[test]
    fn clones_share_the_timeline() {
        let a = SimClock::default();
        let b = a.clone();
        a.charge(HwEvent::TzascConfig, 0);
        b.charge(HwEvent::TzascConfig, 0);
        assert_eq!(a.now(), b.now());
        assert_eq!(a.now(), Duration::from_micros(100));
    }

    #[test]
    fn measure_adds_real_time() {
        let clock = SimClock::default();
        let (value, dur) = clock.measure(|| {
            let mut acc = 0u64;
            for i in 0..100_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(value > 0);
        assert!(dur > Duration::ZERO);
        assert_eq!(clock.measured(), clock.now());
    }

    #[test]
    fn measure_scaled_applies_penalty() {
        // Burn real CPU (measured compute is CPU time, so sleeping would
        // charge nothing) and compare the 100%-penalty charge against an
        // unscaled measurement of the same work.
        let busy = || {
            let mut acc = 0u64;
            for i in 0..2_000_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            std::hint::black_box(acc)
        };
        let clock = SimClock::default();
        // Penalty of 100% doubles the charge; the 1.5x threshold leaves
        // slack for jitter in the underlying CPU-time measurement, and a
        // bounded retry rides out scheduler noise when the whole suite
        // runs in parallel (each attempt measures fresh, so a pass is
        // still evidence of the penalty, not of accumulated luck).
        let mut last = (Duration::ZERO, Duration::ZERO);
        for _ in 0..3 {
            let (_, baseline) = clock.measure(busy);
            let (_, charged) = clock.measure_scaled(1.0, busy);
            assert!(baseline > Duration::ZERO);
            if charged > baseline + baseline / 2 {
                return;
            }
            last = (charged, baseline);
        }
        panic!("charged {:?} vs baseline {:?}", last.0, last.1);
    }

    #[test]
    fn measure_charges_cpu_not_preempted_time() {
        // A sleeping closure consumes (almost) no CPU: the virtual device
        // must not be billed for host time it never computed. Where the
        // per-thread clock is unavailable the wall fallback makes this
        // assertion vacuous, so only enforce it when CPU time is in use.
        if thread_cpu_ns().is_none() {
            return;
        }
        let clock = SimClock::default();
        let (_, charged) = clock.measure(|| std::thread::sleep(Duration::from_millis(50)));
        assert!(
            charged < Duration::from_millis(25),
            "sleep was billed as compute: {charged:?}"
        );
    }

    #[test]
    fn back_to_back_sections_are_charged_at_most_their_wall_time() {
        // One thread's CPU time cannot exceed its wall time, so however
        // loaded the host, 200 back-to-back measured sections of ~500 µs
        // busy work may be charged no more than the loop's wall time (5 %
        // slack for rounding). A CPU clock that lags the running thread
        // charges a section that sees no update its wall time and the
        // next one again for the same CPU time: ~1.7-2x here.
        let clock = SimClock::default();
        let busy = || {
            let start = Instant::now();
            while start.elapsed() < Duration::from_micros(500) {
                std::hint::spin_loop();
            }
        };
        let wall = Instant::now();
        for _ in 0..200 {
            clock.measure(busy);
        }
        let wall = wall.elapsed();
        let charged = clock.measured();
        assert!(
            charged.as_secs_f64() <= wall.as_secs_f64() * 1.05,
            "charged {charged:?} for {wall:?} of wall time"
        );
    }

    #[test]
    fn reset_zeroes_everything() {
        let clock = SimClock::default();
        clock.charge(HwEvent::CoreBoot, 0);
        clock.stall(Duration::from_millis(5));
        clock.reset();
        assert_eq!(clock.now(), Duration::ZERO);
        assert_eq!(clock.world_switch_count(), 0);
        assert_eq!(clock.stalled(), Duration::ZERO);
    }

    #[test]
    fn stall_advances_time_without_charging_work() {
        let clock = SimClock::default();
        clock.charge(HwEvent::TzascConfig, 0);
        clock.stall(Duration::from_millis(7));
        assert_eq!(clock.stalled(), Duration::from_millis(7));
        assert_eq!(
            clock.now(),
            Duration::from_millis(7) + Duration::from_micros(50)
        );
        // Stalls are neither modelled hardware events nor measured compute.
        assert_eq!(clock.modelled(), Duration::from_micros(50));
        assert_eq!(clock.measured(), Duration::ZERO);
    }

    #[test]
    fn default_cost_model_matches_design_doc() {
        let m = CostModel::default();
        assert_eq!(m.cost_ns(HwEvent::WorldSwitch, 0) * 2, 300_000); // 0.3 ms round trip
        assert_eq!(m.cost_ns(HwEvent::CoreBoot, 0), 5_000_000);
        assert_eq!(m.cost_ns(HwEvent::ScrubPerByte, 1000), 1000);
    }
}
