//! `omg-serve`: a concurrent multi-device serving runtime with latency
//! SLOs.
//!
//! The paper evaluates one query on one device; production serving (the
//! MLCapsule framing: guarded offline inference *as a service*) needs the
//! opposite shape — many provisioned devices executing concurrently behind
//! one submission interface, with admission control and tail-latency
//! accounting. This crate provides that runtime:
//!
//! * **Workers** — N provisioned [`omg_core::OmgDevice`]s, each moved into
//!   its own thread and served through a warm
//!   [`omg_core::QuerySession`]-style loop (resume once, classify many,
//!   park once);
//! * **Admission control** — a bounded, sharded MPMC [`queue::ShardedQueue`]
//!   between submitters and workers; a saturated queue rejects with
//!   [`ServeError::Overloaded`] instead of queuing unboundedly, and
//!   deadline-stamped queries ([`ServeHandle::submit_with_deadline`])
//!   whose budget expires while queued are shed at dequeue with
//!   [`ServeError::Expired`] instead of serving doomed work;
//! * **Latency SLOs** — every query's submit-to-completion latency lands in
//!   a fixed-bucket log-scale [`omg_obs::Histogram`];
//!   [`ServeStats`] reports throughput, p50/p95/p99, and violations of the
//!   configured SLO target;
//! * **Graceful drain** — [`ServeHandle::drain`] stops admission, finishes
//!   every in-flight query, scrubs each worker's enclave arena (no user's
//!   activations survive the runtime), parks the enclaves, and returns the
//!   devices for inspection;
//! * **Supervision** — every fleet runs under a supervisor thread, the one
//!   place that decides what happens to a lost worker slot. With
//!   [`ServeConfig::restart`] set it re-provisions a replacement device
//!   through the fleet's warm model cache, governed by a
//!   [`RestartPolicy`] (exponential backoff, restart budget, crash-loop
//!   quarantine); without one the slot is retired
//!   [`WorkerHealth::Dead`]. [`ServeHandle::health`] exposes the fleet
//!   state machine and [`ServeHandle::submit_with_retry`] lets callers
//!   ride restarts out (see [`supervisor`]);
//! * **Hang detection** — with [`ServeConfig::hang`] set, the supervisor
//!   doubles as a liveness watchdog: workers renew per-slot heartbeat
//!   leases, a wedged worker is *preempted* behind a per-slot generation
//!   fence (its ticket resolves with the retryable [`ServeError::Hung`],
//!   its late publishes are discarded), and the slot is lost exactly like
//!   a crashed one — re-provisioned under a restart policy, retired
//!   `Dead` without one.
//!
//! # Quickstart
//!
//! ```
//! use omg_serve::{ServeConfig, ServeHandle};
//! # use omg_nn::model::{Activation, Model, Op};
//! # use omg_nn::quantize::QuantParams;
//! # use omg_nn::tensor::DType;
//! #
//! # fn tiny_model() -> Model {
//! #     const FINGERPRINT_LEN: usize = 49 * 43;
//! #     let mut b = Model::builder();
//! #     let input = b.add_activation("in", vec![1, FINGERPRINT_LEN], DType::I8,
//! #         Some(QuantParams { scale: 1.0 / 255.0, zero_point: -128 }));
//! #     let w = b.add_weight_i8("w", vec![12, FINGERPRINT_LEN],
//! #         vec![1i8; 12 * FINGERPRINT_LEN], QuantParams::symmetric(0.01));
//! #     let bias = b.add_weight_i32("b", vec![12], (0..12).map(|i| i * 50).collect());
//! #     let out = b.add_activation("out", vec![1, 12], DType::I8,
//! #         Some(QuantParams { scale: 0.5, zero_point: 0 }));
//! #     b.add_op(Op::FullyConnected { input, filter: w, bias, output: out,
//! #         activation: Activation::None });
//! #     b.set_input(input);
//! #     b.set_output(out);
//! #     b.set_labels(["a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"]);
//! #     b.build().unwrap()
//! # }
//! // Two workers, each a fully provisioned enclave device.
//! let handle = ServeHandle::provision(2, ServeConfig::default(), "kws", tiny_model(), 7)?;
//!
//! let samples = vec![500i16; 16_000];
//! let pending: Vec<_> = (0..8).map(|_| handle.submit(&samples).unwrap()).collect();
//! for p in pending {
//!     let t = p.wait()?;
//!     assert!(!t.label.is_empty());
//! }
//!
//! let drained = handle.drain();
//! assert!(drained.is_healthy());
//! assert_eq!(drained.stats.completed, 8);
//! // Every worker's arena was scrubbed before its thread joined.
//! for device in &drained.devices {
//!     assert_eq!(device.interpreter_arena_scrubbed(), Some(true));
//! }
//! # Ok::<(), omg_serve::ServeError>(())
//! ```

#![warn(missing_docs)]

pub mod fault;
pub mod queue;
pub mod supervisor;

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use omg_core::session::{provision_devices, provision_devices_with_cache, ModelCache};
use omg_core::{OmgDevice, OmgError, Transcription};
use omg_nn::Model;
use omg_obs::{
    Counter, FlightRecorder, Gauge, Histogram, ObsConfig, Registry, Stage, TraceSnapshot,
};

use fault::{FaultPlan, QueryFault};
use queue::{PushError, ShardedQueue};
pub use supervisor::{FleetHealth, HangPolicy, RestartPolicy, RetryPolicy, WorkerHealth};
use supervisor::{ReprovisionContext, SlotState, Supervisor};

/// Longest *real* sleep a scripted [`QueryFault::Delay`] performs; the full
/// delay is charged to virtual time (`SimClock::stall`), so scenarios can
/// model multi-second stalls without slowing the suite.
const MAX_REAL_DELAY: Duration = Duration::from_millis(25);

/// Slice length for a scripted stall's real sleep: the worker renews its
/// heartbeat lease between slices (the profiler-style tick seam), so a
/// *scripted* delay — unlike a genuine wedge — never expires the lease.
const DELAY_TICK_SLICE: Duration = Duration::from_millis(5);

/// Errors surfaced by the serving runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The work queue is saturated: the query was rejected at admission
    /// (backpressure). Retry later or shed load.
    Overloaded,
    /// The query's deadline had already passed when a worker dequeued it,
    /// so it was shed instead of serving doomed work (see
    /// [`ServeHandle::submit_with_deadline`]).
    Expired,
    /// The runtime is draining (or a query was abandoned by it); no new
    /// work is accepted.
    ShuttingDown,
    /// Invalid runtime configuration.
    Config(&'static str),
    /// The underlying device query failed.
    Query(OmgError),
    /// A worker thread panicked (its device is lost).
    WorkerPanicked,
    /// The liveness watchdog declared the serving worker hung (its
    /// heartbeat lease expired past TTL + grace) and preempted it: the
    /// wedged thread is detached and the slot is lost like a crashed one.
    /// Retryable — a sibling or the replacement can serve a fresh
    /// submission.
    Hung,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "serving queue saturated; query rejected"),
            ServeError::Expired => {
                write!(f, "query deadline passed while queued; shed unserved")
            }
            ServeError::ShuttingDown => write!(f, "serving runtime is shutting down"),
            ServeError::Config(reason) => write!(f, "invalid serve config: {reason}"),
            ServeError::Query(e) => write!(f, "query failed: {e}"),
            ServeError::WorkerPanicked => write!(f, "a serving worker panicked"),
            ServeError::Hung => write!(f, "a serving worker hung mid-query and was preempted"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<OmgError> for ServeError {
    fn from(e: OmgError) -> Self {
        ServeError::Query(e)
    }
}

impl ServeError {
    /// Whether re-submitting the same query may succeed — the
    /// classification [`ServeHandle::submit_with_retry`] consults.
    ///
    /// Retryable: [`ServeError::Overloaded`] (backpressure is transient),
    /// [`ServeError::WorkerPanicked`], [`ServeError::Hung`] (the watchdog
    /// preempted the worker; the fleet is recovering) and device-crash
    /// query failures (under a restart policy the fleet recovers, and a
    /// sibling worker may serve the retry even without it). Everything
    /// else is terminal for this caller: [`ServeError::Expired`] means
    /// the deadline budget is already gone, [`ServeError::ShuttingDown`]
    /// and [`ServeError::Config`] will not change on a retry, and the
    /// remaining query errors are deterministic device verdicts.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ServeError::Overloaded
                | ServeError::WorkerPanicked
                | ServeError::Hung
                | ServeError::Query(OmgError::DeviceCrashed)
        )
    }
}

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Total admission-queue capacity across shards. Once this many queries
    /// are waiting, [`ServeHandle::submit`] returns
    /// [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Optional latency SLO target: queries whose submit-to-completion
    /// latency exceeds it are counted in [`ServeStats::slo_violations`].
    pub slo: Option<Duration>,
    /// Optional deterministic fault schedule (chaos harnesses only; see
    /// [`fault::FaultPlan`]). `None` in production: workers then pay a
    /// single branch per query for the hook.
    pub faults: Option<Arc<FaultPlan>>,
    /// Flight-recorder ring capacity, in events per ring (one ring per
    /// worker plus one shared ring for submitter-side events).
    ///
    /// `None` (the default) defers to the environment: enabled with
    /// [`omg_obs::ObsConfig::DEFAULT_CAPACITY`] events unless
    /// `OMG_OBS=off`, capacity overridable via `OMG_OBS_CAPACITY`.
    /// `Some(0)` disables the recorder outright; `Some(n)` forces
    /// capacity `n` regardless of the environment.
    pub recorder_capacity: Option<usize>,
    /// Optional restart policy (see [`supervisor`]): when set, the
    /// supervisor restarts lost workers on re-provisioned devices under
    /// this policy; without one it retires a lost slot
    /// [`WorkerHealth::Dead`]. Only honored through
    /// [`ServeHandle::provision`] — re-provisioning needs the model and
    /// seed, so [`ServeHandle::start`] rejects the knob.
    pub restart: Option<RestartPolicy>,
    /// Optional liveness watchdog (see [`HangPolicy`]): when set, the
    /// supervisor thread scans every slot's heartbeat lease and preempts
    /// workers that stop renewing — resolving their in-flight ticket with
    /// the retryable [`ServeError::Hung`] and losing the slot like a
    /// crashed one (restarted under [`ServeConfig::restart`], retired
    /// `Dead` without it).
    pub hang: Option<HangPolicy>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 64,
            slo: None,
            faults: None,
            recorder_capacity: None,
            restart: None,
            hang: None,
        }
    }
}

/// One query's completion slot, shared between the submitting thread and
/// the worker that serves it.
#[derive(Debug)]
struct ResponseSlot {
    state: Mutex<ResponseState>,
    ready: Condvar,
}

/// The slot's settle latch is separate from the result itself: the waiter
/// *takes* the result out, but `settled` stays `true` forever, so a
/// preempted zombie whose completion arrives after the waiter has already
/// consumed the watchdog's verdict still loses the fill race instead of
/// "winning" an emptied slot and double-publishing stats.
#[derive(Debug, Default)]
struct ResponseState {
    result: Option<Result<Transcription, ServeError>>,
    settled: bool,
}

impl ResponseSlot {
    fn new() -> Arc<Self> {
        Arc::new(ResponseSlot {
            state: Mutex::new(ResponseState::default()),
            ready: Condvar::new(),
        })
    }

    /// First-writer-wins: returns whether *this* call set the result.
    /// The slot is the atomic arbiter between a worker's completion and a
    /// watchdog preemption racing it — exactly one side's verdict (and
    /// accounting) lands. (Non-test code always has accounting to attach,
    /// so it goes through [`Self::fill_with`].)
    #[cfg(test)]
    fn fill(&self, result: Result<Transcription, ServeError>) -> bool {
        self.fill_with(result, || {})
    }

    /// [`Self::fill`] with an accounting hook: `publish` runs *inside* the
    /// winning critical section, before the result becomes visible. A
    /// waiter that observes the result is therefore guaranteed to observe
    /// the winner's counters too — and a losing filler publishes nothing,
    /// which is what keeps the accounting identity exact when a watchdog
    /// preemption races the worker's own completion.
    fn fill_with(&self, result: Result<Transcription, ServeError>, publish: impl FnOnce()) -> bool {
        let mut state = self.state.lock();
        let won = !state.settled;
        if won {
            publish();
            state.settled = true;
            state.result = Some(result);
        }
        drop(state);
        self.ready.notify_all();
        won
    }
}

/// A ticket for a submitted query; redeem with [`Pending::wait`].
///
/// **Liveness guarantee:** an admitted ticket *always* resolves — waiting
/// on it can never hang, no matter what happens to the fleet. If the query
/// is served, the ticket yields the transcription (or the device error).
/// If the serving worker panics mid-query, the unwinding worker delivers
/// [`ServeError::WorkerPanicked`]. If the fleet loses its last worker with
/// the job still queued, the supervisor's terminal sweep delivers
/// [`ServeError::WorkerPanicked`] when that worker panicked and
/// [`ServeError::ShuttingDown`] otherwise; a job left queued at drain gets
/// [`ServeError::ShuttingDown`]. Every such abandoned job is counted in
/// [`ServeStats::discarded`].
#[derive(Debug)]
pub struct Pending {
    slot: Arc<ResponseSlot>,
}

impl Pending {
    /// Blocks until the query completes and returns its transcription.
    ///
    /// # Errors
    ///
    /// [`ServeError::Query`] if the device query failed,
    /// [`ServeError::WorkerPanicked`] if the serving worker panicked with
    /// the query in hand, [`ServeError::ShuttingDown`] if the runtime
    /// abandoned the query at teardown.
    pub fn wait(self) -> Result<Transcription, ServeError> {
        let mut state = self.slot.state.lock();
        while state.result.is_none() {
            self.slot.ready.wait(&mut state);
        }
        state.result.take().expect("checked some")
    }

    /// Non-blocking completion check: returns the result if the query has
    /// finished, `None` (and the ticket back) otherwise.
    pub fn try_wait(self) -> Result<Result<Transcription, ServeError>, Pending> {
        let mut state = self.slot.state.lock();
        match state.result.take() {
            Some(r) => Ok(r),
            None => {
                drop(state);
                Err(self)
            }
        }
    }

    /// Blocks until the query completes or `timeout` elapses, whichever
    /// comes first. On timeout the ticket is handed back, so the caller can
    /// keep waiting, retry elsewhere, or abandon the query — this is the
    /// wait-side primitive for *admission-time* SLO enforcement (a caller
    /// that will not wait past its SLO budget simply passes the budget
    /// here), complementing the runtime's after-the-fact violation
    /// counters.
    ///
    /// # Errors
    ///
    /// `Err(self)` if the deadline passed with the query still in flight;
    /// otherwise the completed result exactly as [`Pending::wait`] would
    /// return it.
    pub fn wait_deadline(
        self,
        timeout: Duration,
    ) -> Result<Result<Transcription, ServeError>, Pending> {
        // A timeout too large to represent as an Instant (e.g. the natural
        // `Duration::MAX` "no deadline" sentinel) means wait unboundedly —
        // never panic on the addition.
        let deadline = Instant::now().checked_add(timeout);
        let mut state = self.slot.state.lock();
        loop {
            if let Some(r) = state.result.take() {
                return Ok(r);
            }
            match deadline {
                None => self.slot.ready.wait(&mut state),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        drop(state);
                        return Err(self);
                    }
                    // Spurious wakeups and early notifies just re-loop;
                    // the deadline check above bounds total waiting.
                    let _ = self.slot.ready.wait_for(&mut state, deadline - now);
                }
            }
        }
    }
}

/// One unit of work flowing through the queue.
#[derive(Debug)]
struct Job {
    /// Submission sequence number (admission order) — the deterministic
    /// key fault plans target.
    seq: u64,
    samples: Vec<i16>,
    submitted: Instant,
    /// If set, the instant past which serving this job is pointless: a
    /// worker dequeueing it later sheds it with [`ServeError::Expired`].
    deadline: Option<Instant>,
    slot: Arc<ResponseSlot>,
    /// Set once a definitive result reached the slot (or the admission
    /// error return *is* the waiter's answer): teardown then neither
    /// overwrites the result nor counts the job discarded.
    resolved: bool,
    /// The runtime's discard counter, bumped when an unresolved job is
    /// dropped (worker panic, fleet teardown) — what keeps the accounting
    /// identity exact through crashes.
    discarded: Counter,
    /// The runtime's flight recorder, so the drop path can stamp the
    /// job's stage of death onto the shared submitter ring.
    recorder: Option<Arc<FlightRecorder>>,
}

impl Job {
    /// Delivers `result` to the waiter with the winner's accounting hook
    /// (see [`ResponseSlot::fill_with`]); returns whether this completion
    /// won the slot (false if a watchdog preemption already resolved it).
    fn complete_with(
        mut self,
        result: Result<Transcription, ServeError>,
        publish: impl FnOnce(),
    ) -> bool {
        self.resolved = true;
        self.slot.fill_with(result, publish)
    }

    /// Defuses a job bounced at admission: the submit call's error return
    /// is the waiter's answer, so the drop must not fill the slot or count
    /// a discard.
    fn into_rejected(mut self) {
        self.resolved = true;
    }

    /// Resolves a job no worker will serve with `verdict`, counted as
    /// discarded. `in_hand` is the recorded stage of death: payload 1 =
    /// died in a panicking worker's hands, 0 = still queued.
    fn discard(&mut self, verdict: ServeError, in_hand: bool) {
        self.resolved = true;
        let seq = self.seq;
        let discarded = &self.discarded;
        let recorder = &self.recorder;
        // First-writer-wins: if a watchdog preemption already resolved
        // this job, it also counted it — counting here too would break
        // the accounting identity.
        self.slot.fill_with(Err(verdict), || {
            discarded.inc();
            if let Some(rec) = recorder {
                rec.record(rec.rings() - 1, Stage::Discard, seq, u64::from(in_hand));
            }
        });
    }
}

impl Drop for Job {
    fn drop(&mut self) {
        // A job dropped without completion (queue torn down, worker
        // unwinding) must not strand its waiter: deliver the reason the
        // job died. `std::thread::panicking()` distinguishes a worker
        // unwinding with the job in hand from orderly teardown.
        if !self.resolved {
            let panicking = std::thread::panicking();
            let verdict = if panicking {
                ServeError::WorkerPanicked
            } else {
                ServeError::ShuttingDown
            };
            self.discard(verdict, panicking);
        }
    }
}

/// What a worker thread hands back when it exits cleanly. (Served-query
/// counts live in [`Slot::served`], so they survive worker deaths and
/// restarts.)
pub(crate) struct WorkerExit {
    pub(crate) device: OmgDevice,
}

/// One slot's heartbeat lease: the liveness contract between a worker
/// incarnation and the supervisor's watchdog.
///
/// The worker renews the lease (a `monotonic_ns` stamp) at dequeue, at
/// compute start, and periodically through the stall tick seam; zero
/// means idle (no query in hand — an idle worker is *never* hung, it is
/// just parked on an empty queue). The `generation` is the preemption
/// fence: a worker captures it at loop entry and every renewal is gated
/// on it still matching, so once the watchdog bumps the generation the
/// wedged incarnation can no longer stamp, publish stats, or perform
/// exit bookkeeping — it is a zombie whose effects are all discarded.
pub(crate) struct HeartbeatLease {
    /// Preemption fence, bumped by the watchdog when it declares the slot
    /// hung. Compared (not CAS-raced) by the worker on every publish.
    pub(crate) generation: AtomicU64,
    /// Last renewal, `omg_obs::monotonic_ns()`; 0 = idle.
    pub(crate) stamp_ns: AtomicU64,
    /// Relaxed renewal count — observability only (how many heartbeats
    /// this slot has stamped across incarnations).
    pub(crate) epoch: AtomicU64,
    /// The in-flight query's (seq, response slot), parked here at dequeue
    /// so the watchdog can resolve the wedged ticket without touching the
    /// queue. Cleared at completion.
    pub(crate) current: Mutex<Option<(u64, Arc<ResponseSlot>)>>,
}

impl HeartbeatLease {
    fn new() -> Self {
        HeartbeatLease {
            generation: AtomicU64::new(0),
            stamp_ns: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            current: Mutex::new(None),
        }
    }

    /// Dequeue-time renewal: parks the query's ticket with the lease and
    /// stamps it fresh. Gated on the caller's generation still owning the
    /// slot.
    fn begin(&self, generation: u64, seq: u64, slot: &Arc<ResponseSlot>) {
        if self.generation.load(Ordering::Acquire) != generation {
            return;
        }
        *self.current.lock() = Some((seq, Arc::clone(slot)));
        self.epoch.fetch_add(1, Ordering::Relaxed);
        self.stamp_ns
            .store(omg_obs::monotonic_ns(), Ordering::Release);
    }

    /// Mid-query renewal (compute start, stall ticks).
    fn tick(&self, generation: u64) {
        if self.generation.load(Ordering::Acquire) != generation {
            return;
        }
        self.epoch.fetch_add(1, Ordering::Relaxed);
        self.stamp_ns
            .store(omg_obs::monotonic_ns(), Ordering::Release);
    }

    /// Completion: back to idle (stamp 0), ticket unparked.
    fn end(&self, generation: u64) {
        if self.generation.load(Ordering::Acquire) != generation {
            return;
        }
        *self.current.lock() = None;
        self.stamp_ns.store(0, Ordering::Release);
    }
}

/// One worker slot's record: everything the runtime tracks per slot,
/// across every worker incarnation that serves on it.
///
/// Aligned so that no two slots share a cache line (or an adjacent-line
/// prefetch pair): each worker stores into its own slot's lease and
/// served count on every query.
#[repr(align(128))]
pub(crate) struct Slot {
    /// Written `Down` by a dying worker's presence guard and otherwise
    /// only by the supervisor; [`ServeHandle::health`] derives
    /// [`FleetHealth`] from it.
    pub(crate) health: Mutex<WorkerHealth>,
    pub(crate) lease: HeartbeatLease,
    /// Queries served on this slot, by every incarnation: the slots' sum
    /// always equals `completed`.
    pub(crate) served: AtomicU64,
}

/// Shared runtime state visible to workers and submitters.
///
/// The counters and histograms are registry-backed ([`omg_obs`] handles):
/// every recording lands simultaneously in [`ServeStats`] and in the
/// rendered [`ServeHandle::metrics_text`] / [`ServeHandle::metrics_json`]
/// exports, without a second bookkeeping path. Histograms hold
/// nanoseconds.
pub(crate) struct Shared {
    queue: ShardedQueue<Job>,
    /// End-to-end submit-to-completion latency of *successful* queries.
    latency: Arc<Histogram>,
    /// Admission-to-dequeue wait of every job a worker picked up.
    queue_wait: Arc<Histogram>,
    /// Enclave compute time (classify + scrub) of every served query.
    compute: Arc<Histogram>,
    /// Every submission attempt, accepted or not; doubles as the sequence
    /// allocator, so seq numbers reflect admission order deterministically.
    submitted: Counter,
    rejected: Counter,
    failed: Counter,
    shed: Counter,
    /// Admitted jobs dropped unresolved (worker panic, fleet teardown).
    discarded: Counter,
    slo_violations: Counter,
    slo: Option<Duration>,
    faults: Option<Arc<FaultPlan>>,
    /// Set once drain begins: from here on a lost slot is retired, never
    /// restarted.
    shutting_down: AtomicBool,
    /// One record per worker slot, in slot order.
    slots: Box<[Slot]>,
    /// Dead workers brought back by the supervisor.
    restarts: Counter,
    /// Workers the supervisor permanently quarantined.
    quarantined: Counter,
    /// Caller-side re-submissions via [`ServeHandle::submit_with_retry`].
    retried: Counter,
    /// Death-to-restart recovery time per supervised restart.
    time_to_recover: Arc<Histogram>,
    /// Workers the liveness watchdog declared hung and preempted.
    hung: Counter,
    /// Publishes by preempted (zombie) worker incarnations that lost the
    /// completion race and were discarded by generation check.
    zombie_discards: Counter,
    /// Lease age at hang declaration — the watchdog's detection latency.
    hang_detect: Arc<Histogram>,
    /// Flight recorder: one ring per worker (single-writer) plus a final
    /// shared ring for submitter-side events. `None` when disabled.
    recorder: Option<Arc<FlightRecorder>>,
    /// This fleet's metric registry, rendered by the metrics endpoints.
    registry: Registry,
    queued_gauge: Gauge,
    workers_gauge: Gauge,
    recorder_dropped: Gauge,
}

/// A duration in whole nanoseconds, saturating: the unit every histogram
/// records.
fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// A histogram's `(p50, p95, p99)`, from one snapshot of its buckets, so
/// the ladder stays monotone even while workers record concurrently.
fn percentiles(h: &Histogram) -> (Duration, Duration, Duration) {
    let q = h.quantiles_ns(&[0.50, 0.95, 0.99]);
    (
        Duration::from_nanos(q[0]),
        Duration::from_nanos(q[1]),
        Duration::from_nanos(q[2]),
    )
}

impl Shared {
    /// Ring index for submitter-side events (submit/reject/discard): the
    /// extra multi-producer ring after the per-worker rings.
    fn submit_ring(rec: &FlightRecorder) -> usize {
        rec.rings() - 1
    }

    /// Per-slot health, in slot order.
    pub(crate) fn worker_health(&self) -> Vec<WorkerHealth> {
        self.slots.iter().map(|slot| *slot.health.lock()).collect()
    }

    /// Bring point-in-time gauges up to date before rendering metrics.
    fn refresh_gauges(&self) {
        self.queued_gauge.set(self.queue.len() as i64);
        let live = self
            .slots
            .iter()
            .filter(|slot| *slot.health.lock() == WorkerHealth::Live)
            .count();
        self.workers_gauge.set(live as i64);
        if let Some(rec) = &self.recorder {
            self.recorder_dropped.set(rec.dropped_events() as i64);
        }
    }

    /// One JSON document combining this fleet's registry with the
    /// process-global one.
    fn render_metrics_json(&self) -> String {
        self.refresh_gauges();
        format!(
            "{{\"serve\":{},\"global\":{}}}",
            self.registry.render_json(),
            omg_obs::global().render_json()
        )
    }
}

/// Marks the slot `Down` on scope exit (including unwinding) and notifies
/// the supervisor, which decides the slot's fate.
struct WorkerPresence<'a> {
    slot: &'a Slot,
    index: usize,
    /// The slot generation this incarnation was spawned under. A watchdog
    /// preemption bumps the slot's generation (and hands the slot to the
    /// supervisor itself), so a stale guard — the detached zombie finally
    /// exiting — must do *nothing*: no health write (a replacement may be
    /// serving), no exit notification (the supervisor would try to join
    /// the replacement's handle and wedge).
    generation: u64,
    /// The worker-exit notification channel. Held by the guard so even a
    /// panic unwind reports the death.
    exit_tx: mpsc::Sender<usize>,
}

impl Drop for WorkerPresence<'_> {
    fn drop(&mut self) {
        let lease = &self.slot.lease;
        if lease.generation.load(Ordering::Acquire) != self.generation {
            // Preempted incarnation: the watchdog already handed the slot
            // to the supervisor when it declared the hang. Vanish quietly.
            return;
        }
        // Clear the lease so the watchdog never reads this incarnation's
        // last stamp against a freshly restarted replacement (the job the
        // ticket belonged to delivers its own verdict during unwind).
        lease.stamp_ns.store(0, Ordering::Release);
        *lease.current.lock() = None;
        *self.slot.health.lock() = WorkerHealth::Down;
        let _ = self.exit_tx.send(self.index);
    }
}

/// The job a worker currently holds, parked one declaration *above* the
/// worker's [`WorkerPresence`] guard.
///
/// Ordering is the whole point: locals drop in reverse declaration order,
/// so when a worker dies with a query in hand — injected panic, genuine
/// kernel panic, or device crash — the presence guard (which marks the
/// slot `Down` and notifies the supervisor) runs *before* this holder
/// delivers the job's verdict. An observer that sees the ledger balance
/// is therefore guaranteed the death itself is already registered; the
/// chaos harness's await-settled step and [`ServeHandle::health`] rely on
/// never finding a balanced ledger with an unregistered death behind it.
#[derive(Default)]
struct InFlightJob {
    job: Option<Job>,
    /// Set on an orderly error exit (device crash): the deferred drop
    /// counts the job failed and delivers the real failure instead of a
    /// generic teardown verdict.
    verdict: Option<(ServeError, Counter)>,
}

impl InFlightJob {
    fn park(&mut self, job: Job) {
        self.job = Some(job);
    }

    /// Takes the job back into the worker's hands for normal completion.
    fn unpark(&mut self) -> Job {
        self.job.take().expect("a parked in-flight job")
    }

    fn samples(&self) -> &[i16] {
        &self.job.as_ref().expect("a parked in-flight job").samples
    }

    /// Marks the parked job failed: when the holder drops — after the
    /// presence guard has registered the worker's death — `failed` is
    /// incremented and the waiter receives `error`. Deferring the counter
    /// along with the verdict keeps the ledger from balancing while the
    /// death is still unregistered.
    fn fail(&mut self, error: ServeError, failed: &Counter) {
        self.verdict = Some((error, failed.clone()));
    }
}

impl Drop for InFlightJob {
    fn drop(&mut self) {
        if let Some(job) = self.job.take() {
            match self.verdict.take() {
                Some((error, failed)) => {
                    // Count the failure only if this verdict actually
                    // reached the waiter (a watchdog preemption may have
                    // beaten it and counted the job already).
                    job.complete_with(Err(error), || failed.inc());
                }
                // Panic unwind (or teardown with a job in hand): `Job`'s
                // own drop classifies the death and counts the discard.
                None => drop(job),
            }
        }
    }
}

/// Aggregate serving statistics at a point in time.
///
/// The counters satisfy an exact accounting identity once the runtime has
/// drained (no in-flight or queued work):
///
/// ```text
/// completed + rejected + failed + shed + discarded == submitted
/// ```
///
/// Every submission attempt lands in exactly one bucket — nothing is
/// double-counted and nothing vanishes, even through worker panics and
/// device crashes. The `omg-sim` chaos harness asserts this identity after
/// every scenario.
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Worker (device) count.
    pub workers: usize,
    /// Every submission attempt, whether admitted or bounced.
    pub submitted: u64,
    /// Queries completed *successfully* (these are what the latency
    /// percentiles describe).
    pub completed: u64,
    /// Queries bounced at admission: [`ServeError::Overloaded`]
    /// (backpressure) or [`ServeError::ShuttingDown`] (submitted after
    /// drain began).
    pub rejected: u64,
    /// Queries accepted but failed on the device
    /// ([`ServeError::Query`] delivered to the waiter).
    pub failed: u64,
    /// Queries shed at dequeue because their deadline had already passed
    /// ([`ServeError::Expired`] delivered to the waiter) — doomed work
    /// the runtime refused to spend device time on.
    pub shed: u64,
    /// Admitted queries the runtime dropped unresolved — stranded in the
    /// queue at teardown, or in a panicking worker's hand. Their waiters
    /// received [`ServeError::ShuttingDown`] / [`ServeError::WorkerPanicked`].
    pub discarded: u64,
    /// Queries currently waiting in the queue (racy snapshot).
    pub queued: usize,
    /// Wall-clock time since the runtime started.
    pub elapsed: Duration,
    /// Completed queries per second of wall-clock time.
    pub throughput_qps: f64,
    /// Median submit-to-completion latency.
    pub p50: Duration,
    /// 95th-percentile latency.
    pub p95: Duration,
    /// 99th-percentile latency.
    pub p99: Duration,
    /// Mean latency.
    pub mean: Duration,
    /// Worst observed latency.
    pub max: Duration,
    /// Median admission-to-dequeue queue wait (every dequeued job, not
    /// just successful ones).
    pub queue_p50: Duration,
    /// 95th-percentile queue wait.
    pub queue_p95: Duration,
    /// 99th-percentile queue wait.
    pub queue_p99: Duration,
    /// Median enclave compute time (classify + scrub) per served query.
    pub compute_p50: Duration,
    /// 95th-percentile compute time.
    pub compute_p95: Duration,
    /// 99th-percentile compute time.
    pub compute_p99: Duration,
    /// The configured SLO target, if any.
    pub slo: Option<Duration>,
    /// Completed queries that exceeded the SLO target.
    pub slo_violations: u64,
    /// Dead workers the supervisor brought back on re-provisioned devices
    /// (zero without a restart policy). Not part of the accounting identity:
    /// restarts concern workers, not queries.
    pub restarts: u64,
    /// Workers the supervisor permanently quarantined (crash loop or
    /// exhausted restart budget) instead of restarting.
    pub quarantined: u64,
    /// Caller-side re-submissions performed by
    /// [`ServeHandle::submit_with_retry`]. Each re-submission is also a
    /// fresh submission (own sequence number, own `submitted` count), so
    /// the accounting identity is untouched.
    pub retried: u64,
    /// Workers the liveness watchdog declared hung and preempted (their
    /// in-flight query counts as `discarded`; see [`ServeConfig::hang`]).
    pub hung: u64,
    /// Publishes by preempted (zombie) worker incarnations discarded by
    /// the generation check: verdicts that lost the first-writer-wins
    /// completion race. The **zombie-discard rule** extending the
    /// accounting identity: a preempted query lands in exactly one bucket
    /// (`discarded`, counted by the watchdog's winning fill — or a normal
    /// bucket if the zombie's own completion won the race instead), and
    /// every publish on the losing side is counted here and nowhere else.
    pub zombie_discards: u64,
    /// Per-slot worker health at snapshot time, in slot order.
    pub worker_health: Vec<WorkerHealth>,
}

impl fmt::Display for ServeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        write!(
            f,
            "{} workers: {:.1} q/s, {} submitted: {} ok / {} rejected / {} failed \
             / {} shed / {} discarded, p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms",
            self.workers,
            self.throughput_qps,
            self.submitted,
            self.completed,
            self.rejected,
            self.failed,
            self.shed,
            self.discarded,
            ms(self.p50),
            ms(self.p95),
            ms(self.p99),
        )?;
        if let Some(slo) = self.slo {
            write!(
                f,
                ", SLO {:.2} ms: {} violations",
                ms(slo),
                self.slo_violations
            )?;
        }
        // Per-stage decomposition: where completed queries spent their time.
        write!(
            f,
            "\n  stages: queue-wait p50 {:.2} ms p95 {:.2} ms p99 {:.2} ms, \
             compute p50 {:.2} ms p95 {:.2} ms p99 {:.2} ms",
            ms(self.queue_p50),
            ms(self.queue_p95),
            ms(self.queue_p99),
            ms(self.compute_p50),
            ms(self.compute_p95),
            ms(self.compute_p99),
        )?;
        // Recovery line only when something recovered (or failed to).
        if self.restarts + self.quarantined + self.retried + self.hung > 0 {
            write!(
                f,
                "\n  recovery: {} restarts, {} quarantined, {} retried",
                self.restarts, self.quarantined, self.retried
            )?;
            if self.hung > 0 {
                write!(
                    f,
                    ", {} hung ({} zombie publishes discarded)",
                    self.hung, self.zombie_discards
                )?;
            }
        }
        // The fleet state at a glance, so bench and chaos failure dumps
        // show who was serving when things went wrong.
        let count = |want: WorkerHealth| self.worker_health.iter().filter(|h| **h == want).count();
        write!(
            f,
            "\n  health: {:?} ({} live, {} hung, {} quarantined)",
            supervisor::fleet_health(&self.worker_health),
            count(WorkerHealth::Live),
            count(WorkerHealth::Hung),
            count(WorkerHealth::Quarantined),
        )?;
        // The accounting identity, with a verdict a human can grep for.
        // A live snapshot legitimately has work still in flight (sum <
        // submitted); a sum *exceeding* submitted is double-counting and
        // always a bug.
        let settled = self.completed + self.rejected + self.failed + self.shed + self.discarded;
        let verdict = if settled == self.submitted {
            "[OK]".to_owned()
        } else if settled < self.submitted {
            format!("[IN-FLIGHT {}]", self.submitted - settled)
        } else {
            "[VIOLATED]".to_owned()
        };
        write!(
            f,
            "\n  accounting: {}+{}+{}+{}+{} == {} {}",
            self.completed,
            self.rejected,
            self.failed,
            self.shed,
            self.discarded,
            self.submitted,
            verdict
        )
    }
}

/// Everything [`ServeHandle::drain`] leaves behind: final statistics plus
/// the (scrubbed, parked) devices for inspection or re-use.
#[derive(Debug)]
pub struct DrainedServe {
    /// Final statistics snapshot.
    pub stats: ServeStats,
    /// The devices of workers that exited cleanly, arenas scrubbed, in
    /// worker order. Under a restart policy a slot's device may be a
    /// re-provisioned replacement rather than the original.
    pub devices: Vec<OmgDevice>,
    /// Queries served per worker *slot*, in slot order (one entry per
    /// slot, even for slots whose worker died). A slot's count spans
    /// every incarnation that served on it; the sum
    /// always equals [`ServeStats::completed`].
    pub served_per_worker: Vec<u64>,
    /// Terminal errors from worker slots that did not end with a live
    /// device (their devices are lost). A death the supervisor restarted
    /// over is *not* terminal and is not reported here — only in
    /// [`ServeStats::restarts`]. Empty on a fully healthy drain.
    pub worker_errors: Vec<ServeError>,
    /// Final metrics snapshot (same JSON document as
    /// [`ServeHandle::metrics_json`]), taken after every worker joined.
    pub metrics_json: String,
    /// Final merged flight-recorder trace, if the recorder was enabled.
    pub flight_trace: Option<TraceSnapshot>,
}

impl DrainedServe {
    /// Whether every worker slot ended with a live device *and* the books
    /// balance: the accounting identity `completed + rejected + failed +
    /// shed + discarded == submitted` must hold exactly on the final
    /// snapshot. A drain with imbalanced books is unhealthy even when no
    /// worker errored — some submission was double-counted or vanished.
    pub fn is_healthy(&self) -> bool {
        let s = &self.stats;
        self.worker_errors.is_empty()
            && s.completed + s.rejected + s.failed + s.shed + s.discarded == s.submitted
    }
}

/// Handle to a running serving fleet: submit queries, read stats, drain.
///
/// The handle is `Sync` — submit from as many threads as you like (e.g.
/// behind an `Arc` or via scoped threads).
pub struct ServeHandle {
    shared: Arc<Shared>,
    /// The supervisor thread: it joins every worker incarnation and
    /// returns one device-or-error per slot once every slot is retired.
    supervisor: JoinHandle<Vec<Result<OmgDevice, ServeError>>>,
    started: Instant,
}

impl fmt::Debug for ServeHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeHandle")
            .field("workers", &self.workers())
            .field("queued", &self.shared.queue.len())
            .finish_non_exhaustive()
    }
}

impl ServeHandle {
    /// Provisions `workers` fresh devices (full preparation + initialization
    /// against one vendor, through [`omg_core::session::provision_devices`])
    /// and starts a worker thread per device.
    ///
    /// With [`ServeConfig::restart`] set, the provisioning arguments (and
    /// the warm model cache they built) are retained by the supervisor,
    /// which re-provisions replacement devices for lost workers (see
    /// [`supervisor`]).
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for a zero worker count or queue capacity;
    /// any protocol failure during provisioning.
    pub fn provision(
        workers: usize,
        config: ServeConfig,
        model_id: &str,
        model: Model,
        seed: u64,
    ) -> Result<ServeHandle, ServeError> {
        if workers == 0 {
            return Err(ServeError::Config("need at least one worker"));
        }
        let Some(policy) = config.restart.clone() else {
            let devices = provision_devices(workers, model_id, model, seed)?;
            return Self::start(devices, config);
        };
        // Keep the cache the initial provisioning warmed: replacement
        // devices reuse the same sealed-model image, making
        // re-provisioning nearly free.
        let mut cache = ModelCache::new();
        let devices =
            provision_devices_with_cache(workers, model_id, model.clone(), seed, &mut cache)?;
        let ctx = ReprovisionContext {
            policy,
            model_id: model_id.to_owned(),
            model,
            seed,
            cache,
            replacements: 0,
        };
        Self::launch(devices, config, Some(ctx))
    }

    /// Starts the runtime over already provisioned devices (one worker
    /// thread per device). Devices must be initialized; each worker opens a
    /// warm query session on its device and serves until drain. A lost
    /// worker's slot is retired [`WorkerHealth::Dead`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] if `devices` is empty, the queue capacity
    /// is zero, or [`ServeConfig::restart`] is set (restarts need the
    /// model and seed to re-provision — use [`Self::provision`]).
    pub fn start(devices: Vec<OmgDevice>, config: ServeConfig) -> Result<ServeHandle, ServeError> {
        if config.restart.is_some() {
            return Err(ServeError::Config(
                "restart supervision needs the model to re-provision; use ServeHandle::provision",
            ));
        }
        Self::launch(devices, config, None)
    }

    /// Spawns one worker per device and the supervisor that owns their
    /// join handles and, given a reprovisioning context, restarts them.
    fn launch(
        devices: Vec<OmgDevice>,
        config: ServeConfig,
        restart: Option<ReprovisionContext>,
    ) -> Result<ServeHandle, ServeError> {
        let shared = build_shared(devices.len(), &config)?;
        let (exit_tx, exit_rx) = mpsc::channel();
        let slots = devices
            .into_iter()
            .enumerate()
            .map(|(index, device)| {
                SlotState::running(spawn_worker(index, device, &shared, exit_tx.clone()))
            })
            .collect();
        let sup = Supervisor {
            shared: Arc::clone(&shared),
            restart,
            hang: config.hang,
            slots,
            exit_tx,
        };
        let supervisor = std::thread::Builder::new()
            .name("omg-serve-supervisor".to_owned())
            .spawn(move || sup.run(exit_rx))
            .expect("spawn supervisor thread");
        Ok(ServeHandle {
            shared,
            supervisor,
            started: Instant::now(),
        })
    }

    /// Number of worker slots (the fleet's target capacity — a slot's
    /// worker may be down or restarting right now).
    pub fn workers(&self) -> usize {
        self.shared.slots.len()
    }

    /// The fleet health state machine: `Healthy` (every slot live),
    /// `Degraded` (deaths pending recovery), `Quarantined` (at least one
    /// slot permanently retired), `Dead` (no slot live or returning).
    /// Point-in-time and racy by nature, like [`Self::stats`].
    pub fn health(&self) -> FleetHealth {
        supervisor::fleet_health(&self.shared.worker_health())
    }

    /// Per-slot worker health, in slot order — the raw states
    /// [`Self::health`] is derived from. Useful for awaiting quiescence:
    /// a fleet has settled once no slot is `Down`, `Restarting`, or
    /// `Hung`.
    pub fn worker_health(&self) -> Vec<WorkerHealth> {
        self.shared.worker_health()
    }

    /// Submits one utterance for classification. Non-blocking: the samples
    /// are copied into the queue and a [`Pending`] ticket is returned.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when the bounded queue is saturated
    /// (backpressure — retry later), [`ServeError::ShuttingDown`] after
    /// [`Self::drain`] began.
    pub fn submit(&self, samples: &[i16]) -> Result<Pending, ServeError> {
        self.enqueue(samples, None)
    }

    /// Like [`Self::submit`], but with a latency budget: if the queue is
    /// backed up enough that a worker only reaches the job after
    /// `budget` has elapsed, the job is **shed at dequeue** — the ticket
    /// completes with [`ServeError::Expired`] and no device time is spent
    /// on an answer the caller would have abandoned. Sheds are counted in
    /// [`ServeStats::shed`], alongside the SLO-violation accounting; this
    /// is the admission-side complement of [`Pending::wait_deadline`].
    ///
    /// # Errors
    ///
    /// Same admission errors as [`Self::submit`].
    pub fn submit_with_deadline(
        &self,
        samples: &[i16],
        budget: Duration,
    ) -> Result<Pending, ServeError> {
        // An unrepresentable deadline (e.g. a Duration::MAX "no budget"
        // sentinel) degrades to no deadline rather than panicking.
        self.enqueue(samples, Instant::now().checked_add(budget))
    }

    /// Submits with caller-side retries: transient failures
    /// ([`ServeError::is_retryable`]) are re-submitted with exponential
    /// backoff until [`RetryPolicy::max_attempts`] or the wall-clock
    /// [`RetryPolicy::budget`] runs out. Pair it with a restart policy
    /// ([`ServeConfig::restart`]) to ride worker deaths out invisibly.
    ///
    /// Blocking, unlike [`Self::submit`]: each attempt is waited on. Each
    /// re-submission is a *fresh* submission — own sequence number,
    /// counted in both [`ServeStats::submitted`] and
    /// [`ServeStats::retried`] — so the accounting identity stays exact.
    ///
    /// # Errors
    ///
    /// The first non-retryable error, as-is; [`ServeError::Expired`] if
    /// the budget lapses with the query unresolved (including timing out
    /// while an attempt is still in flight — the runtime still resolves
    /// that ticket internally, the caller just stops waiting); otherwise
    /// the last retryable error once attempts are exhausted.
    pub fn submit_with_retry(
        &self,
        samples: &[i16],
        policy: &RetryPolicy,
    ) -> Result<Transcription, ServeError> {
        // An unrepresentable budget (Duration::MAX) means no deadline.
        let deadline = Instant::now().checked_add(policy.budget);
        let remaining = |deadline: Option<Instant>| match deadline {
            None => Duration::MAX,
            Some(d) => d.saturating_duration_since(Instant::now()),
        };
        // Decorrelated-jitter backoff between attempts: a pure function of
        // (jitter_seed, attempt), so a seeded chaos run replays the exact
        // schedule while differently seeded callers desynchronize instead
        // of re-storming a recovering fleet together.
        let mut prev_backoff = Duration::ZERO;
        let mut last = ServeError::Expired;
        for attempt in 0..policy.max_attempts.max(1) {
            if attempt > 0 {
                let backoff = policy.jittered_backoff(attempt, prev_backoff);
                prev_backoff = backoff;
                let pause = backoff.min(remaining(deadline));
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
            }
            let budget = remaining(deadline);
            if budget.is_zero() {
                return Err(ServeError::Expired);
            }
            if attempt > 0 {
                self.shared.retried.inc();
            }
            let error = match self.submit(samples) {
                Ok(pending) => match pending.wait_deadline(budget) {
                    Ok(Ok(t)) => return Ok(t),
                    Ok(Err(e)) => e,
                    // Budget gone with the attempt still in flight.
                    Err(_in_flight) => return Err(ServeError::Expired),
                },
                Err(e) => e,
            };
            if !error.is_retryable() {
                return Err(error);
            }
            last = error;
        }
        Err(last)
    }

    fn enqueue(&self, samples: &[i16], deadline: Option<Instant>) -> Result<Pending, ServeError> {
        let slot = ResponseSlot::new();
        // Counting *every* attempt (and allocating the seq from the same
        // counter) keeps the accounting identity total: a bounced
        // submission is still a submission.
        let seq = self.shared.submitted.fetch_inc();
        // Stamp admission time *before* the push: a worker can dequeue
        // (and record) the job before this thread records the Submit
        // event, and the merged trace must still order Submit first.
        let submit_ns = omg_obs::monotonic_ns();
        let job = Job {
            seq,
            samples: samples.to_vec(),
            submitted: Instant::now(),
            deadline,
            slot: Arc::clone(&slot),
            resolved: false,
            discarded: self.shared.discarded.clone(),
            recorder: self.shared.recorder.clone(),
        };
        let recorder = self.shared.recorder.as_deref();
        match self.shared.queue.push(job) {
            Ok(()) => {
                if let Some(rec) = recorder {
                    rec.record_at(
                        Shared::submit_ring(rec),
                        Stage::Submit,
                        seq,
                        samples.len() as u64,
                        submit_ns,
                    );
                }
                Ok(Pending { slot })
            }
            Err(PushError::Full(job)) => {
                self.shared.rejected.inc();
                if let Some(rec) = recorder {
                    rec.record_at(Shared::submit_ring(rec), Stage::Reject, seq, 0, submit_ns);
                }
                // The error return is the waiter's answer.
                job.into_rejected();
                Err(ServeError::Overloaded)
            }
            Err(PushError::Closed(job)) => {
                self.shared.rejected.inc();
                if let Some(rec) = recorder {
                    rec.record_at(Shared::submit_ring(rec), Stage::Reject, seq, 1, submit_ns);
                }
                job.into_rejected();
                Err(ServeError::ShuttingDown)
            }
        }
    }

    /// A point-in-time statistics snapshot.
    pub fn stats(&self) -> ServeStats {
        snapshot_stats(
            &self.shared,
            self.started,
            self.workers(),
            self.shared.queue.len(),
        )
    }

    /// The fleet's flight recorder, if enabled: one event ring per worker
    /// plus one shared ring for submitter-side events. Clone the `Arc`
    /// before [`Self::drain`] to keep trace access after the handle is
    /// consumed.
    pub fn recorder(&self) -> Option<Arc<FlightRecorder>> {
        self.shared.recorder.clone()
    }

    /// A merged, time-ordered flight-recorder trace, or `None` when the
    /// recorder is disabled. Safe to call at any time — readers never
    /// block writers.
    pub fn flight_trace(&self) -> Option<TraceSnapshot> {
        self.shared.recorder.as_ref().map(|r| r.snapshot())
    }

    /// Render this fleet's metrics — and the process-global registry
    /// (model-cache, interpreter-construction counters) — in Prometheus
    /// text exposition format.
    pub fn metrics_text(&self) -> String {
        self.shared.refresh_gauges();
        let mut out = self.shared.registry.render_prometheus();
        out.push_str(&omg_obs::global().render_prometheus());
        out
    }

    /// Render the same metrics as one flat JSON document:
    /// `{"serve":{…},"global":{…}}`. Histogram entries carry
    /// `count`/`sum_ns`/`max_ns` and a coherent `p50_ns`/`p95_ns`/`p99_ns`
    /// ladder.
    pub fn metrics_json(&self) -> String {
        self.shared.render_metrics_json()
    }

    /// Gracefully shuts the runtime down: closes admission, lets every
    /// worker finish the queries already queued, scrubs each worker's
    /// enclave arena, parks the enclave, and joins the threads.
    ///
    /// Drain is best-effort and total: it never discards a healthy
    /// worker's device because a sibling failed. Workers that errored or
    /// panicked are reported in [`DrainedServe::worker_errors`]
    /// (check [`DrainedServe::is_healthy`]).
    ///
    /// **Termination and accounting guarantees:** drain always terminates
    /// — workers exit once the closed queue is empty, and if every worker
    /// is already dead the stranded jobs are failed over instead of waited
    /// on. No admitted ticket is left unresolved: jobs still queued when
    /// the last worker is gone are swept by the supervisor (see
    /// [`Pending`] for their verdicts), counted in
    /// [`ServeStats::discarded`] so the identity `completed + rejected +
    /// failed + shed + discarded == submitted` holds exactly on the final
    /// snapshot.
    pub fn drain(self) -> DrainedServe {
        // Order matters: mark shutdown *before* closing the queue, so a
        // worker whose exit races the drain is retired, never restarted.
        self.shared.shutting_down.store(true, Ordering::Release);
        self.shared.queue.close();
        // Every live worker now exits on the closed queue; the supervisor
        // joins each one and returns once every slot is retired.
        let mut devices = Vec::new();
        let mut worker_errors = Vec::new();
        for outcome in self.supervisor.join().unwrap_or_default() {
            match outcome {
                Ok(device) => devices.push(device),
                Err(error) => worker_errors.push(error),
            }
        }
        // Straggler sweep: with every worker joined, anything still queued
        // would otherwise be dropped silently with the queue. Popping
        // resolves each stranded job's waiter (ShuttingDown) and counts it
        // discarded; the loop cannot block because the queue is closed.
        while self.shared.queue.pop(0).is_some() {}
        let queued = self.shared.queue.len();
        let served_per_worker: Vec<u64> = self
            .shared
            .slots
            .iter()
            .map(|slot| slot.served.load(Ordering::Relaxed))
            .collect();
        let stats = snapshot_stats(&self.shared, self.started, devices.len(), queued);
        let metrics_json = self.shared.render_metrics_json();
        let flight_trace = self.shared.recorder.as_ref().map(|r| r.snapshot());
        DrainedServe {
            stats,
            devices,
            served_per_worker,
            worker_errors,
            metrics_json,
            flight_trace,
        }
    }
}

/// Builds a [`ServeStats`] from the shared counters — the single source
/// for both live [`ServeHandle::stats`] snapshots and the final
/// [`ServeHandle::drain`] report.
fn snapshot_stats(shared: &Shared, started: Instant, workers: usize, queued: usize) -> ServeStats {
    let completed = shared.latency.count();
    let elapsed = started.elapsed();
    let (p50, p95, p99) = percentiles(&shared.latency);
    let (queue_p50, queue_p95, queue_p99) = percentiles(&shared.queue_wait);
    let (compute_p50, compute_p95, compute_p99) = percentiles(&shared.compute);
    ServeStats {
        workers,
        submitted: shared.submitted.get(),
        completed,
        rejected: shared.rejected.get(),
        failed: shared.failed.get(),
        shed: shared.shed.get(),
        discarded: shared.discarded.get(),
        queued,
        elapsed,
        throughput_qps: completed as f64 / elapsed.as_secs_f64().max(1e-12),
        p50,
        p95,
        p99,
        mean: Duration::from_nanos(shared.latency.mean_ns()),
        max: Duration::from_nanos(shared.latency.max_ns()),
        queue_p50,
        queue_p95,
        queue_p99,
        compute_p50,
        compute_p95,
        compute_p99,
        slo: shared.slo,
        slo_violations: shared.slo_violations.get(),
        restarts: shared.restarts.get(),
        quarantined: shared.quarantined.get(),
        retried: shared.retried.get(),
        hung: shared.hung.get(),
        zombie_discards: shared.zombie_discards.get(),
        worker_health: shared.worker_health(),
    }
}

/// Builds the shared runtime state — queue, metrics registry, recorder,
/// slot records — for a fleet of `worker_count` workers.
fn build_shared(worker_count: usize, config: &ServeConfig) -> Result<Arc<Shared>, ServeError> {
    if worker_count == 0 {
        return Err(ServeError::Config("need at least one device"));
    }
    if config.queue_capacity == 0 {
        return Err(ServeError::Config("queue capacity must be nonzero"));
    }
    let recorder_capacity = config
        .recorder_capacity
        .unwrap_or_else(|| ObsConfig::from_env().recorder_capacity);
    let recorder = (recorder_capacity > 0)
        .then(|| Arc::new(FlightRecorder::new(worker_count + 1, recorder_capacity)));
    let registry = Registry::new();
    let latency = registry.histogram(
        "omg_serve_latency_seconds",
        "end-to-end submit-to-completion latency of successful queries",
    );
    let queue_wait = registry.histogram(
        "omg_serve_queue_wait_seconds",
        "admission-to-dequeue wait of every job a worker picked up",
    );
    let compute = registry.histogram(
        "omg_serve_compute_seconds",
        "enclave compute time (classify + scrub) per served query",
    );
    let submitted = registry.counter(
        "omg_serve_submitted_total",
        "every submission attempt, admitted or bounced",
    );
    let rejected = registry.counter(
        "omg_serve_rejected_total",
        "queries bounced at admission (overload or shutdown)",
    );
    let failed = registry.counter(
        "omg_serve_failed_total",
        "admitted queries that failed on the device",
    );
    let shed = registry.counter(
        "omg_serve_shed_total",
        "queries shed at dequeue for a blown deadline",
    );
    let discarded = registry.counter(
        "omg_serve_discarded_total",
        "admitted queries dropped unresolved (worker panic, teardown)",
    );
    let slo_violations = registry.counter(
        "omg_serve_slo_violations_total",
        "completed queries that exceeded the SLO target",
    );
    let restarts = registry.counter(
        "omg_serve_restarts_total",
        "dead workers restarted on re-provisioned devices",
    );
    let quarantined = registry.counter(
        "omg_serve_quarantined_total",
        "workers quarantined for crash-looping or an exhausted restart budget",
    );
    let retried = registry.counter(
        "omg_serve_retried_total",
        "caller-side re-submissions via submit_with_retry",
    );
    let time_to_recover = registry.histogram(
        "omg_serve_time_to_recover_seconds",
        "death-to-restart recovery time per supervised worker restart",
    );
    let hung = registry.counter(
        "omg_serve_hangs_total",
        "workers the liveness watchdog declared hung and preempted",
    );
    let zombie_discards = registry.counter(
        "omg_serve_zombie_discards_total",
        "late publishes by preempted worker incarnations, discarded by generation check",
    );
    let hang_detect = registry.histogram(
        "omg_serve_hang_detect_seconds",
        "heartbeat-lease age at hang declaration (watchdog detection latency)",
    );
    let queued_gauge = registry.gauge("omg_serve_queued", "queries waiting in the admission queue");
    let workers_gauge = registry.gauge("omg_serve_workers_live", "worker slots reading Live");
    let recorder_dropped = registry.gauge(
        "omg_serve_recorder_dropped_events",
        "flight-recorder events evicted by ring wraparound",
    );
    Ok(Arc::new(Shared {
        queue: ShardedQueue::new(worker_count, config.queue_capacity),
        latency,
        queue_wait,
        compute,
        submitted,
        rejected,
        failed,
        shed,
        discarded,
        slo_violations,
        slo: config.slo,
        faults: config.faults.clone(),
        shutting_down: AtomicBool::new(false),
        slots: (0..worker_count)
            .map(|_| Slot {
                health: Mutex::new(WorkerHealth::Live),
                lease: HeartbeatLease::new(),
                served: AtomicU64::new(0),
            })
            .collect(),
        restarts,
        quarantined,
        retried,
        time_to_recover,
        hung,
        zombie_discards,
        hang_detect,
        recorder,
        registry,
        queued_gauge,
        workers_gauge,
        recorder_dropped,
    }))
}

/// Spawns one worker thread serving `device` on queue shard `index`;
/// its exit is reported to the supervisor on `exit_tx`.
pub(crate) fn spawn_worker(
    index: usize,
    device: OmgDevice,
    shared: &Arc<Shared>,
    exit_tx: mpsc::Sender<usize>,
) -> JoinHandle<Result<WorkerExit, ServeError>> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("omg-serve-{index}"))
        .spawn(move || worker_loop(index, device, &shared, exit_tx))
        .expect("spawn serving worker")
}

/// The per-worker serve loop: open a warm session once, classify queue
/// items until the queue closes and drains, then scrub and park.
///
/// Successive queries come from *different principals*, so the session is
/// scrubbed after every query ([`omg_core::QuerySession::scrub`]) — no
/// user's activations or audio features are resident while the next
/// user's query runs.
fn worker_loop(
    index: usize,
    mut device: OmgDevice,
    shared: &Shared,
    exit_tx: mpsc::Sender<usize>,
) -> Result<WorkerExit, ServeError> {
    // Declared *before* the presence guard so it drops *after* it: a
    // worker dying with a query in hand registers its death (slot marked,
    // supervisor notified) before the held job's verdict — and its
    // accounting — land. See `InFlightJob`.
    let mut in_flight = InFlightJob::default();
    // The slot generation this incarnation serves under. If the liveness
    // watchdog preempts this worker, it bumps the slot's generation:
    // every lease renewal, stat publish, and exit-bookkeeping path below
    // is gated on the captured value still matching, so a preempted
    // (zombie) incarnation publishes nothing.
    let slot = &shared.slots[index];
    let lease = &slot.lease;
    let generation = lease.generation.load(Ordering::Acquire);
    // Runs on every exit path (error returns and panics alike): marks the
    // slot `Down` and hands it to the supervisor.
    let _presence = WorkerPresence {
        slot,
        index,
        generation,
        exit_tx,
    };
    let clock = device.clock();
    // This worker's single-writer ring is its own index; recording is a
    // handful of relaxed stores, so the hot path pays one branch when the
    // recorder is disabled and no locks or allocation either way.
    let recorder = shared.recorder.as_deref();
    {
        let mut session = device.session()?;
        while let Some(job) = shared.queue.pop(index) {
            let wait = job.submitted.elapsed();
            shared.queue_wait.record_ns(nanos(wait));
            let (seq, deadline, submitted) = (job.seq, job.deadline, job.submitted);
            if let Some(rec) = recorder {
                rec.record(index, Stage::Dequeue, seq, wait.as_nanos() as u64);
            }
            // Heartbeat: the lease now carries this query's ticket, so a
            // watchdog preemption can resolve it without touching the
            // queue. Stamped unconditionally (two atomics); only the
            // watchdog scan is gated on a HangPolicy being installed.
            lease.begin(generation, seq, &job.slot);
            // Parked for the rest of the iteration: any death from here on
            // (injected or genuine) registers before the verdict lands.
            in_flight.park(job);
            // Fault hook. The pause gate is checked *after* popping, so a
            // parked worker holds exactly one job — scenarios prime the
            // queue with one job per worker before awaiting the gate,
            // leaving the admission queue at a deterministic depth.
            let fault = match shared.faults.as_deref() {
                Some(plan) => {
                    plan.checkpoint();
                    plan.take(seq)
                }
                None => None,
            };
            match fault {
                Some(QueryFault::WorkerPanic) => {
                    // The held job rides the unwind inside `in_flight`; its
                    // waiter receives WorkerPanicked only after the presence
                    // guard has registered the death (see `Job::drop`).
                    panic!("injected fault: worker {index} panics mid-query (seq {seq})");
                }
                Some(QueryFault::DeviceCrash) => {
                    // The enclave is torn down through the scrub-on-release
                    // path; the query in hand fails over to its waiter and
                    // the worker exits as errored (its device is lost).
                    session.crash_device()?;
                    if let Some(rec) = recorder {
                        rec.record(index, Stage::Reply, seq, u64::MAX);
                    }
                    in_flight.fail(ServeError::Query(OmgError::DeviceCrashed), &shared.failed);
                    return Err(ServeError::Query(OmgError::DeviceCrashed));
                }
                Some(QueryFault::Delay(d)) => {
                    // Charge the full stall to virtual time; sleep only a
                    // capped real amount so deadline paths observe it
                    // without slowing the suite by the modelled duration.
                    // The real sleep is sliced so the lease is renewed
                    // between slices: a scripted stall is *slow*, not
                    // wedged, and must never be preempted as a hang.
                    clock.stall(d);
                    let mut remaining = d.min(MAX_REAL_DELAY);
                    while !remaining.is_zero() {
                        let slice = remaining.min(DELAY_TICK_SLICE);
                        std::thread::sleep(slice);
                        lease.tick(generation);
                        remaining = remaining.saturating_sub(slice);
                    }
                }
                Some(QueryFault::Hang) => {
                    // The worker wedges: it parks on the plan's hang gate
                    // and stops renewing its lease — from outside this is
                    // exactly a livelocked kernel or stuck enclave call.
                    // If (when) the gate is later released, the thread
                    // falls through and serves the query normally; by
                    // then the watchdog has usually preempted it, so its
                    // completion loses the fill race and publishes
                    // nothing.
                    if let Some(plan) = shared.faults.as_deref() {
                        plan.hang_until_released();
                    }
                }
                None => {}
            }
            // Deadline-aware pop: a job whose deadline already passed is
            // doomed — its submitter has (or should have) walked away —
            // so shed it instead of burning warm-enclave time on it.
            if let Some(deadline) = deadline {
                if Instant::now() >= deadline {
                    let won = in_flight
                        .unpark()
                        .complete_with(Err(ServeError::Expired), || {
                            shared.shed.inc();
                            // Stage of death: shed at dequeue, payload = how
                            // long it sat queued before the deadline buried it.
                            if let Some(rec) = recorder {
                                rec.record(index, Stage::Shed, seq, wait.as_nanos() as u64);
                            }
                        });
                    if !won {
                        shared.zombie_discards.inc();
                    }
                    lease.end(generation);
                    if lease.generation.load(Ordering::Acquire) != generation {
                        break;
                    }
                    continue;
                }
            }
            lease.tick(generation);
            if let Some(rec) = recorder {
                rec.record(index, Stage::ComputeStart, seq, 0);
            }
            let compute_start = Instant::now();
            let result = session
                .classify(in_flight.samples())
                .map_err(ServeError::from);
            session.scrub();
            let compute = compute_start.elapsed();
            let latency = submitted.elapsed();
            let ok = result.is_ok();
            let reply_payload = if ok {
                latency.as_nanos() as u64
            } else {
                u64::MAX
            };
            // Stamp ComputeEnd and Reply *before* handing the slot to the
            // waiter: once `wait()` returns, the query's full life cycle
            // is guaranteed to be in the trace. Gated on the generation —
            // the per-worker ring is single-writer, and a preempted
            // incarnation must not write beside its replacement.
            if lease.generation.load(Ordering::Acquire) == generation {
                if let Some(rec) = recorder {
                    rec.record(index, Stage::ComputeEnd, seq, compute.as_nanos() as u64);
                    rec.record(index, Stage::Reply, seq, reply_payload);
                }
            }
            // First-writer-wins completion: the stats publish rides the
            // winning critical section, so a waiter that sees the result
            // also sees the counters — and a preempted incarnation whose
            // verdict lost the race to the watchdog publishes *nothing*
            // (its only trace is `zombie_discards`).
            let won = in_flight.unpark().complete_with(result, || {
                shared.compute.record_ns(nanos(compute));
                if ok {
                    shared.latency.record_ns(nanos(latency));
                    // The slot's served counter, not a local: counts
                    // survive this incarnation's death and accumulate
                    // across restarts, so they always sum to `completed`.
                    slot.served.fetch_add(1, Ordering::Relaxed);
                    if let Some(slo) = shared.slo {
                        if latency > slo {
                            shared.slo_violations.inc();
                        }
                    }
                } else {
                    shared.failed.inc();
                }
            });
            if !won {
                shared.zombie_discards.inc();
            }
            lease.end(generation);
            if lease.generation.load(Ordering::Acquire) != generation {
                // Preempted mid-query: a replacement owns this shard (and
                // this ring) now. Exit quietly — scrub and park the
                // enclave on the way out, publish nothing.
                break;
            }
        }
        // Park the enclave (final scrub included) before the device leaves
        // the thread: no activation residue outlives the runtime.
        session.finish()?;
    }
    Ok(WorkerExit { device })
}

#[cfg(test)]
mod tests {
    use super::*;
    use omg_nn::model::{Activation, Op};
    use omg_nn::quantize::QuantParams;
    use omg_nn::tensor::DType;
    use omg_speech::frontend::FINGERPRINT_LEN;

    /// A small FC model over the fingerprint so runtime tests stay fast.
    fn test_model() -> Model {
        let mut b = Model::builder();
        let input = b.add_activation(
            "in",
            vec![1, FINGERPRINT_LEN],
            DType::I8,
            Some(QuantParams {
                scale: 1.0 / 255.0,
                zero_point: -128,
            }),
        );
        let w = b.add_weight_i8(
            "w",
            vec![12, FINGERPRINT_LEN],
            (0..12 * FINGERPRINT_LEN)
                .map(|i| ((i % 17) as i8) - 8)
                .collect(),
            QuantParams::symmetric(0.01),
        );
        let bias = b.add_weight_i32("b", vec![12], (0..12).map(|i| i * 50).collect());
        let out = b.add_activation(
            "logits",
            vec![1, 12],
            DType::I8,
            Some(QuantParams {
                scale: 0.5,
                zero_point: 0,
            }),
        );
        b.add_op(Op::FullyConnected {
            input,
            filter: w,
            bias,
            output: out,
            activation: Activation::None,
        });
        b.set_input(input);
        b.set_output(out);
        b.set_labels(omg_speech::dataset::LABELS);
        b.build().unwrap()
    }

    #[test]
    fn serve_matches_single_device_results() {
        let data = omg_speech::dataset::SyntheticSpeechCommands::new(60);
        let handle =
            ServeHandle::provision(2, ServeConfig::default(), "kws", test_model(), 600).unwrap();

        // Reference: the same model behind a plain provisioned device.
        let mut reference = provision_devices(1, "kws", test_model(), 601)
            .unwrap()
            .pop()
            .unwrap();

        for class in 2..8 {
            let samples = data.utterance(class, 0).unwrap();
            let served = handle.submit(&samples).unwrap().wait().unwrap();
            let expected = reference.classify_utterance(&samples).unwrap();
            assert_eq!(served.class_index, expected.class_index);
            assert_eq!(served.label, expected.label);
        }

        let drained = handle.drain();
        assert!(drained.is_healthy(), "{:?}", drained.worker_errors);
        assert_eq!(drained.stats.completed, 6);
        assert_eq!(drained.stats.rejected, 0);
        assert_eq!(drained.devices.len(), 2);
        assert_eq!(drained.served_per_worker.iter().sum::<u64>(), 6);
    }

    #[test]
    fn drain_scrubs_every_worker_arena() {
        let data = omg_speech::dataset::SyntheticSpeechCommands::new(61);
        let handle =
            ServeHandle::provision(3, ServeConfig::default(), "kws", test_model(), 610).unwrap();
        let pending: Vec<_> = (0..9)
            .map(|i| {
                handle
                    .submit(&data.utterance(2 + i % 6, 1).unwrap())
                    .unwrap()
            })
            .collect();
        for p in pending {
            p.wait().unwrap();
        }
        let drained = handle.drain();
        assert!(drained.is_healthy(), "{:?}", drained.worker_errors);
        assert_eq!(drained.devices.len(), 3);
        for device in &drained.devices {
            assert_eq!(device.interpreter_arena_scrubbed(), Some(true));
        }
    }

    #[test]
    fn drain_finishes_in_flight_queries() {
        let data = omg_speech::dataset::SyntheticSpeechCommands::new(62);
        let samples = data.utterance(3, 0).unwrap();
        let handle = ServeHandle::provision(
            1,
            ServeConfig {
                queue_capacity: 32,
                ..ServeConfig::default()
            },
            "kws",
            test_model(),
            620,
        )
        .unwrap();
        // Queue a burst, then drain immediately: every accepted query must
        // still complete with a real result.
        let pending: Vec<_> = (0..16).map(|_| handle.submit(&samples).unwrap()).collect();
        let drained = handle.drain();
        assert!(drained.is_healthy(), "{:?}", drained.worker_errors);
        for p in pending {
            let t = p.wait().unwrap();
            assert!(t.class_index < 12);
        }
        assert_eq!(drained.stats.completed, 16);
    }

    #[test]
    fn submit_after_drain_is_rejected() {
        let handle =
            ServeHandle::provision(1, ServeConfig::default(), "kws", test_model(), 630).unwrap();
        let shared = Arc::clone(&handle.shared);
        assert!(handle.drain().is_healthy());
        // The queue is closed: a late producer (simulated directly against
        // the shared state) is refused.
        let slot = ResponseSlot::new();
        let job = Job {
            seq: 0,
            samples: vec![0i16; 16_000],
            submitted: Instant::now(),
            deadline: None,
            slot: Arc::clone(&slot),
            resolved: false,
            discarded: Counter::new(),
            recorder: None,
        };
        match shared.queue.push(job) {
            Err(PushError::Closed(job)) => job.into_rejected(),
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    #[test]
    fn overload_rejects_with_backpressure() {
        let data = omg_speech::dataset::SyntheticSpeechCommands::new(63);
        let samples = data.utterance(4, 0).unwrap();
        let handle = ServeHandle::provision(
            1,
            ServeConfig {
                queue_capacity: 2,
                ..ServeConfig::default()
            },
            "kws",
            test_model(),
            640,
        )
        .unwrap();
        // Far more submissions than one worker can absorb through a
        // 2-entry queue: some must be rejected, accepted ones all complete.
        let mut accepted = Vec::new();
        let mut rejected = 0u64;
        for _ in 0..64 {
            match handle.submit(&samples) {
                Ok(p) => accepted.push(p),
                Err(ServeError::Overloaded) => rejected += 1,
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
        assert!(
            rejected > 0,
            "64 rapid submits never saturated a 2-slot queue"
        );
        for p in accepted {
            p.wait().unwrap();
        }
        let drained = handle.drain();
        assert!(drained.is_healthy(), "{:?}", drained.worker_errors);
        assert_eq!(drained.stats.rejected, rejected);
        assert_eq!(drained.stats.completed + rejected, 64);
    }

    #[test]
    fn stats_report_latency_percentiles_and_slo() {
        let data = omg_speech::dataset::SyntheticSpeechCommands::new(64);
        let samples = data.utterance(5, 0).unwrap();
        let handle = ServeHandle::provision(
            2,
            ServeConfig {
                queue_capacity: 64,
                // Impossible SLO: every query violates it, making the
                // counter deterministic.
                slo: Some(Duration::from_nanos(1)),
                ..ServeConfig::default()
            },
            "kws",
            test_model(),
            650,
        )
        .unwrap();
        let pending: Vec<_> = (0..10).map(|_| handle.submit(&samples).unwrap()).collect();
        for p in pending {
            p.wait().unwrap();
        }
        let stats = handle.stats();
        assert_eq!(stats.completed, 10);
        assert!(stats.throughput_qps > 0.0);
        assert!(stats.p50 > Duration::ZERO);
        assert!(stats.p95 >= stats.p50);
        assert!(stats.p99 >= stats.p95);
        assert!(stats.max >= stats.mean);
        assert_eq!(stats.slo_violations, 10);
        let rendered = stats.to_string();
        assert!(rendered.contains("q/s"), "{rendered}");
        assert!(rendered.contains("SLO"), "{rendered}");
        assert!(handle.drain().is_healthy());
    }

    #[test]
    fn zero_workers_and_zero_capacity_are_rejected() {
        assert!(matches!(
            ServeHandle::provision(0, ServeConfig::default(), "kws", test_model(), 660),
            Err(ServeError::Config(_))
        ));
        let devices = provision_devices(1, "kws", test_model(), 661).unwrap();
        assert!(matches!(
            ServeHandle::start(
                devices,
                ServeConfig {
                    queue_capacity: 0,
                    ..ServeConfig::default()
                }
            ),
            Err(ServeError::Config(_))
        ));
    }

    #[test]
    fn dead_workers_fail_over_stranded_jobs() {
        // Start the runtime on a device that was never initialized:
        // every worker's session() fails immediately, so no one can serve.
        // Accepted jobs must still resolve (with ShuttingDown) instead of
        // deadlocking their waiters.
        let uninitialized = OmgDevice::new(990).unwrap();
        let handle = ServeHandle::start(
            vec![uninitialized],
            ServeConfig {
                queue_capacity: 8,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        // Submissions may race the dying worker: accepted ones must
        // eventually resolve with an error, never hang.
        let mut outcomes = Vec::new();
        for _ in 0..4 {
            if let Ok(pending) = handle.submit(&[0i16; 16_000]) {
                outcomes.push(pending.wait());
            }
        }
        for outcome in outcomes {
            assert!(outcome.is_err(), "query served by a dead fleet?");
        }
        let drained = handle.drain();
        assert!(!drained.is_healthy());
        assert!(matches!(drained.worker_errors[0], ServeError::Query(_)));
    }

    #[test]
    fn worker_panic_mid_flight_resolves_the_waiter() {
        // Regression for the liveness bug: a worker that panics with a job
        // in hand must deliver WorkerPanicked to the waiter — before the
        // fix the ResponseSlot was filled with the generic ShuttingDown
        // (or, without Job::drop, never filled: wait() hung forever).
        let data = omg_speech::dataset::SyntheticSpeechCommands::new(70);
        let samples = data.utterance(3, 0).unwrap();
        let plan = Arc::new(FaultPlan::new());
        // Kill the single worker on its very first query.
        plan.fault_query(0, QueryFault::WorkerPanic);
        let handle = ServeHandle::provision(
            1,
            ServeConfig {
                queue_capacity: 8,
                faults: Some(Arc::clone(&plan)),
                ..ServeConfig::default()
            },
            "kws",
            test_model(),
            700,
        )
        .unwrap();
        let doomed = handle.submit(&samples).unwrap();
        // Must resolve — not hang — with the panic-specific error.
        assert_eq!(doomed.wait(), Err(ServeError::WorkerPanicked));
        let drained = handle.drain();
        assert!(!drained.is_healthy());
        assert!(matches!(
            drained.worker_errors[0],
            ServeError::WorkerPanicked
        ));
        // The panicked job is accounted as discarded, keeping the identity.
        assert_eq!(drained.stats.discarded, 1);
        assert_eq!(drained.stats.submitted, 1);
        assert_eq!(
            drained.stats.completed
                + drained.stats.rejected
                + drained.stats.failed
                + drained.stats.shed
                + drained.stats.discarded,
            drained.stats.submitted
        );
    }

    #[test]
    fn device_crash_mid_flight_fails_the_query() {
        let data = omg_speech::dataset::SyntheticSpeechCommands::new(71);
        let samples = data.utterance(4, 0).unwrap();
        let plan = Arc::new(FaultPlan::new());
        plan.fault_query(1, QueryFault::DeviceCrash);
        let handle = ServeHandle::provision(
            2,
            ServeConfig {
                queue_capacity: 8,
                faults: Some(Arc::clone(&plan)),
                ..ServeConfig::default()
            },
            "kws",
            test_model(),
            710,
        )
        .unwrap();
        // seq 0 serves normally; seq 1 crashes its device mid-query.
        let ok = handle.submit(&samples).unwrap();
        let crashed = handle.submit(&samples).unwrap();
        assert!(ok.wait().is_ok());
        assert_eq!(
            crashed.wait(),
            Err(ServeError::Query(OmgError::DeviceCrashed))
        );
        let drained = handle.drain();
        // The crashed worker's device is lost; the healthy one survives.
        assert_eq!(drained.devices.len(), 1);
        assert!(matches!(
            drained.worker_errors[0],
            ServeError::Query(OmgError::DeviceCrashed)
        ));
        assert_eq!(drained.stats.failed, 1);
        assert_eq!(
            drained.stats.completed
                + drained.stats.rejected
                + drained.stats.failed
                + drained.stats.shed
                + drained.stats.discarded,
            drained.stats.submitted
        );
    }

    #[test]
    fn accounting_identity_holds_through_dead_fleet_teardown() {
        // An uninitialized device: the worker dies instantly, stranding
        // whatever was admitted. Every bucket must still sum to submitted.
        let uninitialized = OmgDevice::new(991).unwrap();
        let handle = ServeHandle::start(
            vec![uninitialized],
            ServeConfig {
                queue_capacity: 8,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let mut waiters = Vec::new();
        for _ in 0..6 {
            if let Ok(p) = handle.submit(&[0i16; 16_000]) {
                waiters.push(p);
            }
        }
        for w in waiters {
            assert!(w.wait().is_err(), "dead fleet served a query?");
        }
        let drained = handle.drain();
        let s = &drained.stats;
        assert_eq!(s.submitted, 6);
        assert_eq!(
            s.completed + s.rejected + s.failed + s.shed + s.discarded,
            s.submitted,
            "identity violated: {s}"
        );
    }

    #[test]
    fn expired_jobs_are_shed_not_served() {
        let data = omg_speech::dataset::SyntheticSpeechCommands::new(67);
        let samples = data.utterance(4, 0).unwrap();
        let handle =
            ServeHandle::provision(1, ServeConfig::default(), "kws", test_model(), 690).unwrap();
        // Occupy the single worker, then queue a burst of already-expired
        // jobs behind the in-flight one: by the time the worker dequeues
        // them their (zero-budget) deadline has passed, so each must be
        // shed with `Expired` instead of being served.
        let busy = handle.submit(&samples).unwrap();
        let doomed: Vec<_> = (0..4)
            .map(|_| {
                handle
                    .submit_with_deadline(&samples, Duration::ZERO)
                    .unwrap()
            })
            .collect();
        assert!(busy.wait().is_ok());
        for pending in doomed {
            assert_eq!(pending.wait(), Err(ServeError::Expired));
        }
        let drained = handle.drain();
        assert!(drained.is_healthy(), "{:?}", drained.worker_errors);
        assert_eq!(drained.stats.shed, 4);
        assert_eq!(drained.stats.completed, 1);
        assert_eq!(drained.stats.failed, 0, "sheds are not device failures");
        assert!(drained.stats.to_string().contains("shed"));
    }

    #[test]
    fn generous_deadlines_serve_normally() {
        let data = omg_speech::dataset::SyntheticSpeechCommands::new(68);
        let handle =
            ServeHandle::provision(1, ServeConfig::default(), "kws", test_model(), 695).unwrap();
        // A comfortable budget: the job is served, not shed — and a
        // Duration::MAX budget degrades to "no deadline", not a panic.
        let t = handle
            .submit_with_deadline(&data.utterance(2, 0).unwrap(), Duration::from_secs(60))
            .unwrap()
            .wait()
            .unwrap();
        assert!(t.class_index < 12);
        let t = handle
            .submit_with_deadline(&data.utterance(3, 0).unwrap(), Duration::MAX)
            .unwrap()
            .wait()
            .unwrap();
        assert!(t.class_index < 12);
        let drained = handle.drain();
        assert_eq!(drained.stats.shed, 0);
        assert_eq!(drained.stats.completed, 2);
    }

    #[test]
    fn wait_deadline_times_out_and_hands_the_ticket_back() {
        // A slot nobody will ever fill: the deadline must fire and return
        // the ticket, which must then still be redeemable once filled.
        let slot = ResponseSlot::new();
        let pending = Pending {
            slot: Arc::clone(&slot),
        };
        let start = Instant::now();
        let ticket = pending
            .wait_deadline(Duration::from_millis(30))
            .expect_err("unfilled slot must time out");
        assert!(
            start.elapsed() >= Duration::from_millis(30),
            "returned before the deadline"
        );
        // Fill from "a worker" and redeem the returned ticket.
        slot.fill(Err(ServeError::ShuttingDown));
        assert!(matches!(
            ticket.wait_deadline(Duration::from_millis(30)),
            Ok(Err(ServeError::ShuttingDown))
        ));
    }

    #[test]
    fn wait_deadline_with_duration_max_waits_instead_of_panicking() {
        let slot = ResponseSlot::new();
        let pending = Pending {
            slot: Arc::clone(&slot),
        };
        let filler = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            slot.fill(Err(ServeError::ShuttingDown));
        });
        // Duration::MAX overflows Instant arithmetic; it must degrade to an
        // unbounded wait, not a panic.
        assert!(matches!(
            pending.wait_deadline(Duration::MAX),
            Ok(Err(ServeError::ShuttingDown))
        ));
        filler.join().unwrap();
    }

    #[test]
    fn wait_deadline_race_with_completion_never_loses_the_result() {
        // Completion and deadline expiry race head-on: a filler thread
        // completes the slot at a random point around the waiter's
        // deadline. Whatever side wins, the result must never be lost —
        // a timed-out ticket handed back must still redeem to the filled
        // result, and a won wait must carry it directly.
        for round in 0..200u64 {
            let slot = ResponseSlot::new();
            let pending = Pending {
                slot: Arc::clone(&slot),
            };
            let filler = {
                let slot = Arc::clone(&slot);
                std::thread::spawn(move || {
                    // Jitter the fill around the 1 ms deadline so both
                    // orderings (fill-first, timeout-first) are exercised.
                    std::thread::sleep(Duration::from_micros((round % 40) * 50));
                    slot.fill(Err(ServeError::Expired));
                })
            };
            let result = match pending.wait_deadline(Duration::from_millis(1)) {
                Ok(r) => r,
                // Timed out: the ticket must still redeem once filled.
                Err(ticket) => ticket.wait(),
            };
            assert_eq!(result, Err(ServeError::Expired), "round {round}");
            filler.join().unwrap();
        }
    }

    #[test]
    fn wait_deadline_returns_completed_queries_in_time() {
        let data = omg_speech::dataset::SyntheticSpeechCommands::new(66);
        let handle =
            ServeHandle::provision(1, ServeConfig::default(), "kws", test_model(), 680).unwrap();
        let pending = handle.submit(&data.utterance(3, 0).unwrap()).unwrap();
        // A generous deadline: the query must complete well within it.
        let result = pending
            .wait_deadline(Duration::from_secs(30))
            .expect("query completes within deadline")
            .expect("query succeeds");
        assert!(result.class_index < 12);
        assert!(handle.drain().is_healthy());
    }

    #[test]
    fn metrics_endpoints_and_per_stage_percentiles() {
        let data = omg_speech::dataset::SyntheticSpeechCommands::new(72);
        let samples = data.utterance(2, 0).unwrap();
        let handle = ServeHandle::provision(
            2,
            ServeConfig {
                recorder_capacity: Some(256),
                ..ServeConfig::default()
            },
            "kws",
            test_model(),
            720,
        )
        .unwrap();
        let pending: Vec<_> = (0..8).map(|_| handle.submit(&samples).unwrap()).collect();
        for p in pending {
            p.wait().unwrap();
        }

        let stats = handle.stats();
        // Per-stage ladders are monotone and the compute stage did real work.
        assert!(stats.queue_p50 <= stats.queue_p95 && stats.queue_p95 <= stats.queue_p99);
        assert!(stats.compute_p50 <= stats.compute_p95 && stats.compute_p95 <= stats.compute_p99);
        assert!(stats.compute_p50 > Duration::ZERO);
        // Compute can't exceed the end-to-end tail it is part of.
        assert!(stats.compute_p99 <= stats.p99.max(stats.max));

        let text = handle.metrics_text();
        for needle in [
            "# TYPE omg_serve_submitted_total counter",
            "omg_serve_submitted_total 8",
            "omg_serve_latency_seconds_bucket",
            "omg_serve_queue_wait_seconds_count 8",
            "omg_serve_compute_seconds_count 8",
            "omg_serve_workers_live 2",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        let json = handle.metrics_json();
        assert!(json.starts_with("{\"serve\":{"), "{json}");
        assert!(json.contains("\"omg_serve_submitted_total\":8"), "{json}");
        assert!(
            json.contains("\"omg_serve_compute_seconds\":{\"count\":8"),
            "{json}"
        );
        assert!(json.contains("\"global\":{"), "{json}");

        let drained = handle.drain();
        assert!(drained
            .metrics_json
            .contains("\"omg_serve_submitted_total\":8"));
        let trace = drained.flight_trace.as_ref().expect("recorder enabled");
        assert!(!trace.events.is_empty());
        assert!(drained.stats.to_string().contains("[OK]"));
    }

    #[test]
    fn flight_trace_orders_stages_per_query() {
        let data = omg_speech::dataset::SyntheticSpeechCommands::new(73);
        let handle = ServeHandle::provision(
            1,
            ServeConfig {
                recorder_capacity: Some(64),
                ..ServeConfig::default()
            },
            "kws",
            test_model(),
            730,
        )
        .unwrap();
        handle
            .submit(&data.utterance(3, 0).unwrap())
            .unwrap()
            .wait()
            .unwrap();
        let trace = handle.flight_trace().expect("recorder enabled");
        // The merged trace replays seq 0's full life cycle in stage order.
        let stages: Vec<Stage> = trace
            .events
            .iter()
            .filter(|e| e.seq == 0)
            .map(|e| e.stage)
            .collect();
        assert_eq!(
            stages,
            [
                Stage::Submit,
                Stage::Dequeue,
                Stage::ComputeStart,
                Stage::ComputeEnd,
                Stage::Reply
            ],
            "full trace:\n{}",
            trace.render()
        );
        // Timestamps are monotone through the merge.
        let ts: Vec<u64> = trace.events.iter().map(|e| e.ts_ns).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
        // The reply event carries the end-to-end latency.
        let reply = trace
            .events
            .iter()
            .find(|e| e.stage == Stage::Reply)
            .unwrap();
        assert!(reply.payload > 0 && reply.payload < u64::MAX);
        assert!(handle.drain().is_healthy());
    }

    #[test]
    fn recorder_can_be_disabled() {
        let data = omg_speech::dataset::SyntheticSpeechCommands::new(74);
        let handle = ServeHandle::provision(
            1,
            ServeConfig {
                recorder_capacity: Some(0),
                ..ServeConfig::default()
            },
            "kws",
            test_model(),
            740,
        )
        .unwrap();
        handle
            .submit(&data.utterance(4, 0).unwrap())
            .unwrap()
            .wait()
            .unwrap();
        assert!(handle.recorder().is_none());
        assert!(handle.flight_trace().is_none());
        // Metrics still work without the recorder.
        assert!(handle
            .metrics_text()
            .contains("omg_serve_submitted_total 1"));
        let drained = handle.drain();
        assert!(drained.flight_trace.is_none());
        assert_eq!(drained.stats.completed, 1);
    }

    #[test]
    fn shed_and_discarded_events_carry_their_stage_of_death() {
        // Sheds: a busy single worker with zero-budget jobs queued behind
        // the in-flight one.
        let data = omg_speech::dataset::SyntheticSpeechCommands::new(75);
        let samples = data.utterance(5, 0).unwrap();
        let handle = ServeHandle::provision(
            1,
            ServeConfig {
                recorder_capacity: Some(128),
                ..ServeConfig::default()
            },
            "kws",
            test_model(),
            750,
        )
        .unwrap();
        let busy = handle.submit(&samples).unwrap();
        let doomed = handle
            .submit_with_deadline(&samples, Duration::ZERO)
            .unwrap();
        assert!(busy.wait().is_ok());
        assert_eq!(doomed.wait(), Err(ServeError::Expired));
        let trace = handle.flight_trace().unwrap();
        let shed = trace
            .events
            .iter()
            .find(|e| e.stage == Stage::Shed)
            .expect("shed event recorded");
        assert_eq!(shed.seq, 1);
        assert!(handle.drain().is_healthy());

        // Discards: a worker that panics with a job in hand drops it during
        // unwind; the Drop impl stamps Discard with payload 1 ("died in a
        // panicking worker's hands").
        let plan = Arc::new(FaultPlan::new());
        plan.fault_query(0, QueryFault::WorkerPanic);
        let handle = ServeHandle::provision(
            1,
            ServeConfig {
                queue_capacity: 8,
                faults: Some(Arc::clone(&plan)),
                recorder_capacity: Some(128),
                ..ServeConfig::default()
            },
            "kws",
            test_model(),
            751,
        )
        .unwrap();
        let recorder = handle.recorder().unwrap();
        let doomed = handle.submit(&samples).unwrap();
        assert_eq!(doomed.wait(), Err(ServeError::WorkerPanicked));
        let drained = handle.drain();
        let discards: Vec<_> = recorder
            .snapshot()
            .events
            .into_iter()
            .filter(|e| e.stage == Stage::Discard)
            .collect();
        assert_eq!(discards.len() as u64, drained.stats.discarded);
        assert_eq!(discards.len(), 1);
        assert_eq!(
            discards[0].payload, 1,
            "discard must name a panicking worker as its stage of death"
        );
    }

    #[test]
    fn display_prints_accounting_identity_marker() {
        let data = omg_speech::dataset::SyntheticSpeechCommands::new(76);
        let handle =
            ServeHandle::provision(1, ServeConfig::default(), "kws", test_model(), 760).unwrap();
        handle
            .submit(&data.utterance(2, 0).unwrap())
            .unwrap()
            .wait()
            .unwrap();
        let drained = handle.drain();
        let rendered = drained.stats.to_string();
        assert!(rendered.contains("stages: queue-wait"), "{rendered}");
        assert!(
            rendered.contains("accounting: 1+0+0+0+0 == 1 [OK]"),
            "{rendered}"
        );

        // A corrupted snapshot (sum exceeding submitted) must scream.
        let mut broken = drained.stats.clone();
        broken.completed += 1;
        assert!(broken.to_string().contains("[VIOLATED]"));
        // A live snapshot with work still in flight reports the gap.
        let mut live = drained.stats.clone();
        live.submitted += 3;
        assert!(live.to_string().contains("[IN-FLIGHT 3]"));
    }

    #[test]
    fn try_wait_returns_ticket_until_complete() {
        let data = omg_speech::dataset::SyntheticSpeechCommands::new(65);
        let handle =
            ServeHandle::provision(1, ServeConfig::default(), "kws", test_model(), 670).unwrap();
        let mut pending = handle.submit(&data.utterance(2, 0).unwrap()).unwrap();
        let result = loop {
            match pending.try_wait() {
                Ok(result) => break result,
                Err(ticket) => {
                    pending = ticket;
                    std::thread::yield_now();
                }
            }
        };
        assert!(result.unwrap().class_index < 12);
        assert!(handle.drain().is_healthy());
    }

    /// A restart policy tuned for tests: millisecond backoffs, and
    /// `stable_after: ZERO` so spaced kills never read as a crash loop.
    fn quick_restart_policy() -> RestartPolicy {
        RestartPolicy {
            backoff_initial: Duration::from_millis(1),
            backoff_max: Duration::from_millis(4),
            max_restarts: 8,
            crash_loop_threshold: 3,
            stable_after: Duration::ZERO,
        }
    }

    fn await_health(handle: &ServeHandle, want: FleetHealth) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while handle.health() != want {
            assert!(
                Instant::now() < deadline,
                "fleet never reached {want:?}; stuck at {:?}",
                handle.worker_health()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn error_retryability_covers_every_variant() {
        // Retryable: transient conditions a fresh submission can outlive.
        assert!(ServeError::Overloaded.is_retryable());
        assert!(ServeError::WorkerPanicked.is_retryable());
        assert!(ServeError::Hung.is_retryable());
        assert!(ServeError::Query(OmgError::DeviceCrashed).is_retryable());
        // Terminal: the retry layer must never re-submit on these.
        assert!(!ServeError::Expired.is_retryable());
        assert!(!ServeError::ShuttingDown.is_retryable());
        assert!(!ServeError::Config("bad knob").is_retryable());
        // Non-crash query verdicts are deterministic: same answer again.
        assert!(!ServeError::Query(OmgError::RollbackDetected).is_retryable());
    }

    #[test]
    fn start_rejects_restart_policy_without_a_model() {
        // Supervision needs the model and seed to re-provision, which only
        // `provision` has — `start` must refuse rather than silently not
        // supervise.
        let devices = provision_devices(1, "kws", test_model(), 830).unwrap();
        assert!(matches!(
            ServeHandle::start(
                devices,
                ServeConfig {
                    restart: Some(RestartPolicy::default()),
                    ..ServeConfig::default()
                }
            ),
            Err(ServeError::Config(_))
        ));
    }

    #[test]
    fn is_healthy_requires_balanced_books() {
        let data = omg_speech::dataset::SyntheticSpeechCommands::new(84);
        let handle =
            ServeHandle::provision(1, ServeConfig::default(), "kws", test_model(), 840).unwrap();
        handle
            .submit(&data.utterance(2, 0).unwrap())
            .unwrap()
            .wait()
            .unwrap();
        let mut drained = handle.drain();
        assert!(drained.is_healthy());
        // No worker errors, but imbalanced books: a submission vanished —
        // that drain must not report healthy.
        drained.stats.submitted += 1;
        assert!(!drained.is_healthy());
    }

    #[test]
    fn supervised_fleet_restarts_a_panicked_worker() {
        let data = omg_speech::dataset::SyntheticSpeechCommands::new(80);
        let samples = data.utterance(3, 0).unwrap();
        let plan = Arc::new(FaultPlan::new());
        plan.fault_query(0, QueryFault::WorkerPanic);
        let handle = ServeHandle::provision(
            1,
            ServeConfig {
                queue_capacity: 8,
                faults: Some(Arc::clone(&plan)),
                restart: Some(quick_restart_policy()),
                recorder_capacity: Some(256),
                ..ServeConfig::default()
            },
            "kws",
            test_model(),
            800,
        )
        .unwrap();
        assert_eq!(handle.health(), FleetHealth::Healthy);
        let doomed = handle.submit(&samples).unwrap();
        assert_eq!(doomed.wait(), Err(ServeError::WorkerPanicked));
        // The supervisor re-provisions a device and restarts the slot.
        await_health(&handle, FleetHealth::Healthy);
        // The replacement answers exactly like an untouched reference.
        let mut reference = provision_devices(1, "kws", test_model(), 801)
            .unwrap()
            .pop()
            .unwrap();
        let served = handle.submit(&samples).unwrap().wait().unwrap();
        let expected = reference.classify_utterance(&samples).unwrap();
        assert_eq!(served.class_index, expected.class_index);
        assert_eq!(served.label, expected.label);
        let drained = handle.drain();
        assert!(drained.is_healthy(), "{:?}", drained.worker_errors);
        assert_eq!(drained.stats.restarts, 1);
        assert_eq!(drained.stats.quarantined, 0);
        assert_eq!(drained.devices.len(), 1, "capacity restored");
        assert_eq!(drained.served_per_worker, vec![1]);
        assert!(drained.stats.to_string().contains("recovery: 1 restarts"));
        // The death and the recovery are both in the flight trace.
        let trace = drained.flight_trace.expect("recorder enabled");
        assert!(trace.events.iter().any(|e| e.stage == Stage::WorkerDown));
        assert!(trace
            .events
            .iter()
            .any(|e| e.stage == Stage::WorkerRestart && e.payload > 0));
        let s = &drained.stats;
        assert_eq!(
            s.completed + s.rejected + s.failed + s.shed + s.discarded,
            s.submitted
        );
    }

    #[test]
    fn crash_looping_worker_is_quarantined_not_restarted_forever() {
        let data = omg_speech::dataset::SyntheticSpeechCommands::new(81);
        let samples = data.utterance(4, 0).unwrap();
        let plan = Arc::new(FaultPlan::new());
        for seq in 0..3 {
            plan.fault_query(seq, QueryFault::WorkerPanic);
        }
        let handle = ServeHandle::provision(
            1,
            ServeConfig {
                queue_capacity: 16,
                faults: Some(Arc::clone(&plan)),
                restart: Some(RestartPolicy {
                    backoff_initial: Duration::from_millis(1),
                    backoff_max: Duration::from_millis(2),
                    max_restarts: 10,
                    crash_loop_threshold: 3,
                    // Every death is "rapid": strikes accumulate.
                    stable_after: Duration::from_secs(3600),
                }),
                recorder_capacity: Some(256),
                ..ServeConfig::default()
            },
            "kws",
            test_model(),
            810,
        )
        .unwrap();
        // Admit all three kills deterministically before any fires.
        plan.pause();
        let doomed: Vec<_> = (0..3).map(|_| handle.submit(&samples).unwrap()).collect();
        plan.await_parked(1);
        plan.resume();
        for d in doomed {
            assert_eq!(d.wait(), Err(ServeError::WorkerPanicked));
        }
        // Third rapid death hits the threshold: quarantine, not restart #3.
        await_health(&handle, FleetHealth::Quarantined);
        // The fleet is terminally down: admission is closed.
        assert!(matches!(
            handle.submit(&samples),
            Err(ServeError::ShuttingDown)
        ));
        let drained = handle.drain();
        assert!(!drained.is_healthy());
        assert_eq!(drained.stats.restarts, 2, "two restarts, then quarantine");
        assert_eq!(drained.stats.quarantined, 1);
        assert_eq!(drained.devices.len(), 0);
        assert!(matches!(
            drained.worker_errors[0],
            ServeError::WorkerPanicked
        ));
        let trace = drained.flight_trace.expect("recorder enabled");
        assert!(trace
            .events
            .iter()
            .any(|e| e.stage == Stage::WorkerQuarantine && e.payload == 3));
        let s = &drained.stats;
        assert_eq!(
            s.completed + s.rejected + s.failed + s.shed + s.discarded,
            s.submitted
        );
    }

    #[test]
    fn submit_with_retry_rides_out_a_worker_death() {
        let data = omg_speech::dataset::SyntheticSpeechCommands::new(82);
        let samples = data.utterance(5, 0).unwrap();
        let plan = Arc::new(FaultPlan::new());
        plan.fault_query(0, QueryFault::WorkerPanic);
        let handle = ServeHandle::provision(
            1,
            ServeConfig {
                queue_capacity: 8,
                faults: Some(Arc::clone(&plan)),
                restart: Some(quick_restart_policy()),
                ..ServeConfig::default()
            },
            "kws",
            test_model(),
            820,
        )
        .unwrap();
        // Attempt 1 dies with the worker; the retry lands on (or queues
        // for) the supervisor's replacement and succeeds.
        let t = handle
            .submit_with_retry(
                &samples,
                &RetryPolicy {
                    max_attempts: 5,
                    backoff_initial: Duration::from_millis(2),
                    backoff_max: Duration::from_millis(20),
                    budget: Duration::from_secs(30),
                    jitter_seed: 82,
                },
            )
            .unwrap();
        assert!(t.class_index < 12);
        let drained = handle.drain();
        assert!(drained.is_healthy(), "{:?}", drained.worker_errors);
        assert_eq!(drained.stats.restarts, 1);
        assert!(drained.stats.retried >= 1);
        assert_eq!(drained.stats.completed, 1);
        let s = &drained.stats;
        assert_eq!(
            s.completed + s.rejected + s.failed + s.shed + s.discarded,
            s.submitted
        );
    }

    #[test]
    fn submit_with_retry_returns_nonretryable_errors_immediately() {
        // An uninitialized device: the only worker dies at once, the
        // supervisor retires its slot Dead and closes the queue.
        let uninitialized = OmgDevice::new(825).unwrap();
        let handle = ServeHandle::start(vec![uninitialized], ServeConfig::default()).unwrap();
        await_health(&handle, FleetHealth::Dead);
        // ShuttingDown (refused at admission) must not be retried.
        let before = handle.stats().submitted;
        assert_eq!(
            handle.submit_with_retry(&[0i16; 16_000], &RetryPolicy::default()),
            Err(ServeError::ShuttingDown)
        );
        let stats = handle.stats();
        assert_eq!(
            stats.submitted,
            before + 1,
            "a non-retryable error must consume exactly one attempt"
        );
        assert_eq!(stats.retried, 0);
        assert!(!handle.drain().is_healthy());
    }

    /// A hang policy tuned for tests: tens-of-milliseconds detection so
    /// suites stay fast, with a scan interval well under the expiry.
    fn quick_hang_policy() -> HangPolicy {
        HangPolicy {
            lease_ttl: Duration::from_millis(40),
            grace: Duration::from_millis(40),
            max_hangs: 8,
            scan_interval: Duration::from_millis(5),
        }
    }

    #[test]
    fn hang_without_restart_policy_retires_the_slot_dead() {
        // A `start` fleet has no restart policy: the watchdog preempts the
        // wedged worker and the supervisor retires its slot for good.
        let data = omg_speech::dataset::SyntheticSpeechCommands::new(85);
        let samples = data.utterance(3, 0).unwrap();
        let plan = Arc::new(FaultPlan::new());
        plan.fault_query(0, QueryFault::Hang);
        let devices = provision_devices(1, "kws", test_model(), 850).unwrap();
        let handle = ServeHandle::start(
            devices,
            ServeConfig {
                queue_capacity: 8,
                faults: Some(Arc::clone(&plan)),
                hang: Some(quick_hang_policy()),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        // The single worker wedges on seq 0, so seq 1 waits in the queue.
        let doomed = handle.submit(&samples).unwrap();
        let queued = handle.submit(&samples).unwrap();
        assert_eq!(doomed.wait(), Err(ServeError::Hung));
        await_health(&handle, FleetHealth::Dead);
        assert_eq!(handle.worker_health(), vec![WorkerHealth::Dead]);
        // Nobody is left to serve: the queued job is failed over.
        assert_eq!(queued.wait(), Err(ServeError::ShuttingDown));
        // Release the zombie: its late completion publishes nothing.
        plan.wake_hung();
        let deadline = Instant::now() + Duration::from_secs(10);
        while handle.stats().zombie_discards < 1 {
            assert!(Instant::now() < deadline, "zombie never discarded");
            std::thread::sleep(Duration::from_millis(1));
        }
        let drained = handle.drain();
        assert_eq!(drained.worker_errors, vec![ServeError::Hung]);
        let s = &drained.stats;
        assert_eq!((s.hung, s.restarts, s.quarantined), (1, 0, 0));
        assert_eq!((s.completed, s.discarded, s.zombie_discards), (0, 2, 1));
        assert_eq!(
            s.completed + s.rejected + s.failed + s.shed + s.discarded,
            s.submitted,
            "identity violated: {s}"
        );
    }

    #[test]
    fn watchdog_preempts_a_hung_worker_and_restarts_the_slot() {
        let data = omg_speech::dataset::SyntheticSpeechCommands::new(85);
        let samples = data.utterance(3, 0).unwrap();
        let plan = Arc::new(FaultPlan::new());
        // The single worker wedges mid-query on its first dequeue.
        plan.fault_query(0, QueryFault::Hang);
        let handle = ServeHandle::provision(
            1,
            ServeConfig {
                queue_capacity: 8,
                faults: Some(Arc::clone(&plan)),
                restart: Some(quick_restart_policy()),
                hang: Some(quick_hang_policy()),
                recorder_capacity: Some(256),
                ..ServeConfig::default()
            },
            "kws",
            test_model(),
            860,
        )
        .unwrap();
        let doomed = handle.submit(&samples).unwrap();
        let submitted_at = Instant::now();
        // The watchdog must detect the wedge and resolve the ticket with
        // the retryable Hung verdict — the waiter never hangs.
        assert_eq!(doomed.wait(), Err(ServeError::Hung));
        // Detection latency is bounded by ttl + grace + scan (plus real
        // scheduling slack; keep the bound generous but meaningful).
        assert!(
            submitted_at.elapsed() < Duration::from_secs(5),
            "hang detection took {:?}",
            submitted_at.elapsed()
        );
        // The slot is re-provisioned back to Healthy and serves again.
        await_health(&handle, FleetHealth::Healthy);
        let served = handle.submit(&samples).unwrap().wait().unwrap();
        assert!(served.class_index < 12);
        let stats = handle.stats();
        assert_eq!(stats.hung, 1);
        assert!(
            stats
                .to_string()
                .contains("health: Healthy (1 live, 0 hung, 0 quarantined)"),
            "{stats}"
        );
        assert!(handle.metrics_text().contains("omg_serve_hangs_total 1"));
        // Release the wedged zombie: it wakes, serves its long-preempted
        // query, loses the fill race, and publishes nothing but the
        // zombie-discard count.
        plan.wake_hung();
        let deadline = Instant::now() + Duration::from_secs(10);
        while handle.stats().zombie_discards < 1 {
            assert!(Instant::now() < deadline, "zombie never discarded");
            std::thread::sleep(Duration::from_millis(1));
        }
        let drained = handle.drain();
        assert!(drained.is_healthy(), "{:?}", drained.worker_errors);
        let s = &drained.stats;
        assert_eq!(s.hung, 1);
        assert_eq!(s.restarts, 1);
        assert_eq!(s.quarantined, 0);
        assert_eq!(s.discarded, 1, "the preempted query is discarded");
        assert_eq!(s.completed, 1);
        assert_eq!(s.zombie_discards, 1);
        assert_eq!(
            s.completed + s.rejected + s.failed + s.shed + s.discarded,
            s.submitted,
            "identity violated: {s}"
        );
        assert_eq!(drained.devices.len(), 1, "capacity restored");
        let trace = drained.flight_trace.expect("recorder enabled");
        assert!(trace.events.iter().any(|e| e.stage == Stage::WorkerHang));
        let rendered = s.to_string();
        assert!(rendered.contains("1 hung"), "{rendered}");
    }

    #[test]
    fn submit_with_retry_budget_expires_mid_wait() {
        // Satellite: the wall-clock budget runs out while the caller is
        // blocked in wait_deadline — not between attempts. The returned
        // error must be Expired, and `retried` must count exactly the
        // re-submissions actually made.
        let data = omg_speech::dataset::SyntheticSpeechCommands::new(86);
        let samples = data.utterance(4, 0).unwrap();
        let plan = Arc::new(FaultPlan::new());
        plan.fault_query(0, QueryFault::WorkerPanic);
        let handle = ServeHandle::provision(
            1,
            ServeConfig {
                queue_capacity: 8,
                faults: Some(Arc::clone(&plan)),
                // A glacial restart: the slot stays Restarting for far
                // longer than the retry budget, so the re-submission can
                // only sit in the queue until the caller's budget dies.
                restart: Some(RestartPolicy {
                    backoff_initial: Duration::from_secs(30),
                    backoff_max: Duration::from_secs(30),
                    max_restarts: 8,
                    crash_loop_threshold: 5,
                    stable_after: Duration::ZERO,
                }),
                ..ServeConfig::default()
            },
            "kws",
            test_model(),
            870,
        )
        .unwrap();
        let before = Instant::now();
        let result = handle.submit_with_retry(
            &samples,
            &RetryPolicy {
                max_attempts: 3,
                backoff_initial: Duration::from_millis(1),
                backoff_max: Duration::from_millis(2),
                budget: Duration::from_millis(300),
                jitter_seed: 86,
            },
        );
        let elapsed = before.elapsed();
        assert_eq!(result, Err(ServeError::Expired));
        // The budget died mid-wait: the call consumed (roughly) all of
        // it, rather than returning early between attempts.
        assert!(
            elapsed >= Duration::from_millis(250),
            "returned after {elapsed:?}; never blocked in wait_deadline"
        );
        let stats = handle.stats();
        assert_eq!(
            stats.retried, 1,
            "attempt 1 panicked, attempt 2 timed out mid-wait: exactly one re-submission"
        );
        assert_eq!(stats.submitted, 2);
        let drained = handle.drain();
        let s = &drained.stats;
        // Attempt 1 died in the panicking worker's hands; attempt 2 was
        // swept out of the queue at teardown. Both are discards.
        assert_eq!(
            s.completed + s.rejected + s.failed + s.shed + s.discarded,
            s.submitted,
            "identity violated: {s}"
        );
    }

    #[test]
    fn unsupervised_dead_fleet_reports_dead_health() {
        // An uninitialized device: the worker dies instantly and no
        // supervisor exists to bring it back.
        let uninitialized = OmgDevice::new(992).unwrap();
        let handle = ServeHandle::start(
            vec![uninitialized],
            ServeConfig {
                queue_capacity: 8,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        await_health(&handle, FleetHealth::Dead);
        assert!(!handle.drain().is_healthy());
    }
}
