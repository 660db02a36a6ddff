//! Self-healing supervision: restart policy, fleet health, caller retries.
//!
//! The serving runtime fails *cleanly* — a worker panic or device crash
//! resolves every affected ticket and keeps the accounting identity exact —
//! but without this module nothing ever *recovers*: a dead worker
//! permanently shrinks the fleet. Supervision turns those terminal
//! failures into transient ones:
//!
//! * a **supervisor thread** (one per fleet) joins each dead worker and,
//!   under a [`RestartPolicy`], re-provisions a replacement device through
//!   the fleet's warm [`omg_core::session::ModelCache`] image (the
//!   expensive preparation work is shared, so a replacement is nearly
//!   free) and restarts the worker on the same queue shard;
//! * a [`RestartPolicy`] governs the loop: exponential backoff between
//!   restarts, a per-worker restart budget, and **crash-loop detection**
//!   that [quarantines](WorkerHealth::Quarantined) a flapping worker
//!   instead of burning CPU on a restart storm;
//! * [`FleetHealth`] summarizes the fleet as a state machine
//!   (`Healthy → Degraded → Quarantined → Dead`), derived from the
//!   per-slot [`WorkerHealth`] states and read via
//!   [`ServeHandle::health`](crate::ServeHandle::health);
//! * a caller-side [`RetryPolicy`] drives
//!   [`ServeHandle::submit_with_retry`](crate::ServeHandle::submit_with_retry),
//!   re-submitting retryable errors within a wall-clock budget so callers
//!   ride out a restart without seeing it;
//! * with a [`HangPolicy`] installed, the supervisor thread doubles as a
//!   **liveness watchdog**: it periodically scans every slot's heartbeat
//!   lease and *preempts* a worker that stopped renewing — the wedged
//!   thread is detached behind a per-slot generation token (its
//!   late-waking publishes are discarded), its in-flight ticket resolves
//!   with the retryable [`ServeError::Hung`], and the slot is lost like a
//!   crashed one (under a [`RestartPolicy`], hangs count as strikes and
//!   repeat hangers quarantine). A hang thereby becomes just another
//!   transient fault.
//!
//! Every fleet runs under a supervisor: a worker exit and a watchdog
//! preemption both reach the supervisor's `slot_lost`, the one place a
//! slot's fate is decided. A fleet without a restart policy retires a
//! lost slot [`WorkerHealth::Dead`]. Restarts are enabled by setting
//! `ServeConfig::restart` and starting the fleet through
//! [`ServeHandle::provision`](crate::ServeHandle::provision) —
//! re-provisioning needs the model and seed, so
//! [`ServeHandle::start`](crate::ServeHandle::start) rejects the knob.
//! When no slot is left to serve or come back, the supervisor closes the
//! queue and fails over every job still in it.
//!
//! Every lifecycle transition is stamped into the flight recorder
//! ([`Stage::WorkerDown`], [`Stage::WorkerRestart`],
//! [`Stage::WorkerQuarantine`], [`Stage::WorkerHang`]) and mirrored in
//! the metrics registry (`omg_serve_restarts_total`,
//! `omg_serve_quarantined_total`, `omg_serve_time_to_recover_seconds`,
//! `omg_serve_hangs_total`, `omg_serve_hang_detect_seconds`).

use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use omg_core::session::{provision_devices_with_cache, ModelCache};
use omg_core::OmgDevice;
use omg_nn::Model;
use omg_obs::Stage;

use crate::{spawn_worker, ServeError, Shared, WorkerExit};

/// How the supervisor treats a dead worker: restart it (with backoff) or
/// quarantine it once it looks like a crash loop.
///
/// The policy is per-slot: each worker carries its own restart budget and
/// crash-loop strike count, so one flapping device cannot exhaust the
/// fleet's patience for its siblings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestartPolicy {
    /// Backoff before the first restart of a crash streak; doubles per
    /// consecutive rapid death, capped at [`RestartPolicy::backoff_max`].
    pub backoff_initial: Duration,
    /// Ceiling on the exponential backoff.
    pub backoff_max: Duration,
    /// Lifetime restart budget per worker slot: once a slot has been
    /// restarted this many times, its next death quarantines it.
    pub max_restarts: u32,
    /// Consecutive *rapid* deaths (lifetime shorter than
    /// [`RestartPolicy::stable_after`]) that mark a slot as crash-looping:
    /// reaching this many strikes quarantines the slot instead of
    /// restarting it again.
    pub crash_loop_threshold: u32,
    /// A worker that serves at least this long is considered stable again:
    /// its death resets the crash-loop strike count (but still spends one
    /// unit of the restart budget).
    pub stable_after: Duration,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy {
            backoff_initial: Duration::from_millis(10),
            backoff_max: Duration::from_millis(500),
            max_restarts: 16,
            crash_loop_threshold: 3,
            stable_after: Duration::from_secs(1),
        }
    }
}

impl RestartPolicy {
    /// Backoff before restarting a slot with `strikes` consecutive rapid
    /// deaths: `backoff_initial * 2^(strikes-1)`, capped at `backoff_max`.
    /// This is the deterministic *ceiling*; the supervisor sleeps the
    /// jittered value from [`RestartPolicy::jittered_backoff`].
    pub(crate) fn backoff(&self, strikes: u32) -> Duration {
        let doublings = strikes.saturating_sub(1).min(20);
        self.backoff_initial
            .saturating_mul(1u32 << doublings)
            .min(self.backoff_max)
    }

    /// Decorrelated-jitter backoff (AWS style): uniform in
    /// `[backoff_initial, min(prev * 3, backoff(strikes))]`, with the
    /// uniform pick taken from `word` — a value derived deterministically
    /// from the fleet seed and the slot's event count, so seeded chaos
    /// runs replay bit-identically while concurrent slot deaths still
    /// spread their restarts instead of thundering in lockstep.
    ///
    /// `prev == ZERO` (start of a streak) yields exactly
    /// `backoff_initial`. The result is always within
    /// `[backoff_initial, backoff(strikes)] ⊆ [backoff_initial, backoff_max]`.
    pub(crate) fn jittered_backoff(&self, strikes: u32, prev: Duration, word: u64) -> Duration {
        decorrelated_jitter(self.backoff_initial, self.backoff(strikes), prev, word)
    }
}

/// Stateless splitmix64 mix: the jitter words for both restart and retry
/// backoff flow through this, keyed on seeds the caller controls, so the
/// "randomness" is a pure function of (seed, slot, event count).
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform pick in `[min(initial, ceiling), min(prev * 3, ceiling)]`
/// driven by `word`; `prev == ZERO` pins the result to the lower bound.
fn decorrelated_jitter(
    initial: Duration,
    ceiling: Duration,
    prev: Duration,
    word: u64,
) -> Duration {
    let lo = initial.min(ceiling);
    if prev.is_zero() {
        return lo;
    }
    let hi = prev.saturating_mul(3).min(ceiling).max(lo);
    let lo_ns = lo.as_nanos().min(u128::from(u64::MAX)) as u64;
    let hi_ns = hi.as_nanos().min(u128::from(u64::MAX)) as u64;
    let span = hi_ns - lo_ns;
    let pick = if span == 0 {
        lo_ns
    } else {
        lo_ns + word % (span + 1)
    };
    Duration::from_nanos(pick)
}

/// When (and whether) the supervisor's liveness watchdog declares a
/// worker hung. Install via `ServeConfig::hang`; a preempted slot is
/// re-provisioned under `ServeConfig::restart`, or retired `Dead` without
/// it.
///
/// A worker renews its per-slot heartbeat lease at dequeue, at compute
/// start, and periodically through the stall tick seam, so a *legitimate*
/// long query keeps its lease fresh. A slot whose lease age exceeds
/// `lease_ttl + grace` is declared [`WorkerHealth::Hung`] on the next
/// watchdog scan: detection latency is bounded by
/// `lease_ttl + grace + scan_interval`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HangPolicy {
    /// How long a lease stays fresh after its last renewal.
    pub lease_ttl: Duration,
    /// Extra slack past the TTL before the watchdog declares the hang —
    /// absorbs scheduler noise between a worker's renewals.
    pub grace: Duration,
    /// Hang budget per slot: a slot preempted this many times is
    /// quarantined instead of re-provisioned (hangs also count as
    /// crash-loop strikes under the [`RestartPolicy`]).
    pub max_hangs: u32,
    /// How often the watchdog scans the leases.
    pub scan_interval: Duration,
}

impl Default for HangPolicy {
    fn default() -> Self {
        HangPolicy {
            lease_ttl: Duration::from_millis(500),
            grace: Duration::from_millis(500),
            max_hangs: 4,
            scan_interval: Duration::from_millis(50),
        }
    }
}

/// Caller-side retry governance for
/// [`ServeHandle::submit_with_retry`](crate::ServeHandle::submit_with_retry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first submission (minimum 1).
    pub max_attempts: u32,
    /// Pause before the first re-submission; doubles per retry, capped at
    /// [`RetryPolicy::backoff_max`].
    pub backoff_initial: Duration,
    /// Ceiling on the retry backoff.
    pub backoff_max: Duration,
    /// Total wall-clock budget across all attempts (waits and backoffs
    /// included). `Duration::MAX` means no deadline.
    pub budget: Duration,
    /// Seed for the decorrelated retry jitter: the same seed replays the
    /// identical backoff schedule (omg-sim traces stay bit-identical),
    /// while callers seeded differently spread their retries instead of
    /// re-storming a recovering fleet in lockstep.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            backoff_initial: Duration::from_millis(2),
            backoff_max: Duration::from_millis(50),
            budget: Duration::from_secs(5),
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// Decorrelated-jitter pause before re-submission number `attempt`
    /// (1-based): uniform in `[backoff_initial, min(prev * 3, ceiling)]`
    /// where the ceiling is the classic exponential
    /// `backoff_initial * 2^(attempt-1)` capped at `backoff_max`, and the
    /// pick is a pure function of `(jitter_seed, attempt)`.
    pub(crate) fn jittered_backoff(&self, attempt: u32, prev: Duration) -> Duration {
        let doublings = attempt.saturating_sub(1).min(20);
        let ceiling = self
            .backoff_initial
            .saturating_mul(1u32 << doublings)
            .min(self.backoff_max);
        let word = splitmix64(
            self.jitter_seed
                .wrapping_add(0x0052_4554_5259_u64.wrapping_mul(u64::from(attempt))),
        );
        decorrelated_jitter(self.backoff_initial, ceiling, prev, word)
    }
}

/// One worker slot's health, as tracked by the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerHealth {
    /// The slot's worker thread is serving.
    Live,
    /// The worker died; the supervisor has not yet picked the death up
    /// (it will restart, quarantine or retire the slot).
    Down,
    /// The supervisor is between death and replacement: backing off or
    /// re-provisioning a device for this slot.
    Restarting,
    /// The liveness watchdog declared the slot's worker hung (heartbeat
    /// lease expired past TTL + grace): the wedged thread is detached,
    /// its ticket resolved with [`ServeError::Hung`], and the slot is
    /// about to restart, quarantine or retire per policy.
    Hung,
    /// The supervisor gave up on the slot — crash loop or exhausted
    /// restart budget. Quarantined slots never restart.
    Quarantined,
    /// The slot is terminally gone: the supervisor retired it after a
    /// loss on a fleet without a restart policy, or after its worker
    /// exited during drain.
    Dead,
}

/// Fleet-wide health, derived from the per-slot [`WorkerHealth`] states.
///
/// The state machine callers see: `Healthy → Degraded → Quarantined →
/// Dead`. `Degraded` and `Quarantined` fleets may still serve (surviving
/// workers steal the dead slot's queued work); a `Dead` fleet never will.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetHealth {
    /// Every slot is live.
    Healthy,
    /// At least one slot is down or restarting, but nothing is
    /// quarantined and service continues (or will resume).
    Degraded,
    /// At least one slot is permanently quarantined; the rest of the
    /// fleet (if any) keeps serving.
    Quarantined,
    /// No slot is live or coming back, and none was quarantined: the
    /// fleet died outright (e.g. a fleet without a restart policy losing
    /// every worker).
    Dead,
}

/// Derives the fleet state from per-slot health.
pub(crate) fn fleet_health(slots: &[WorkerHealth]) -> FleetHealth {
    let live = slots
        .iter()
        .filter(|h| matches!(h, WorkerHealth::Live))
        .count();
    let recovering = slots
        .iter()
        .filter(|h| {
            matches!(
                h,
                WorkerHealth::Down | WorkerHealth::Restarting | WorkerHealth::Hung
            )
        })
        .count();
    let quarantined = slots
        .iter()
        .filter(|h| matches!(h, WorkerHealth::Quarantined))
        .count();
    if live == slots.len() {
        FleetHealth::Healthy
    } else if quarantined > 0 {
        FleetHealth::Quarantined
    } else if live + recovering > 0 {
        FleetHealth::Degraded
    } else {
        FleetHealth::Dead
    }
}

/// Everything the supervisor needs to restart a lost slot: the restart
/// policy, the original provisioning arguments and the fleet's warm model
/// cache.
pub(crate) struct ReprovisionContext {
    pub(crate) policy: RestartPolicy,
    pub(crate) model_id: String,
    pub(crate) model: Model,
    pub(crate) seed: u64,
    pub(crate) cache: ModelCache,
    /// Replacements provisioned so far, fleet-wide: salts the replacement
    /// seed so every replacement device is distinct yet deterministic.
    pub(crate) replacements: u64,
}

/// The supervisor's book-keeping for one worker slot.
pub(crate) struct SlotState {
    pub(crate) handle: Option<JoinHandle<Result<WorkerExit, ServeError>>>,
    /// Device captured from a clean exit, returned at drain.
    pub(crate) device: Option<OmgDevice>,
    /// The slot's most recent terminal error. Cleared when a later
    /// incarnation exits cleanly — restarted-over deaths are recovered,
    /// not reported.
    pub(crate) error: Option<ServeError>,
    pub(crate) restarts: u32,
    pub(crate) strikes: u32,
    /// Watchdog preemptions of this slot (the [`HangPolicy::max_hangs`]
    /// budget).
    pub(crate) hangs: u32,
    /// Previous jittered backoff actually slept for this slot — the
    /// `prev` term of the decorrelated jitter.
    pub(crate) prev_backoff: Duration,
    pub(crate) spawned_at: Instant,
}

impl SlotState {
    pub(crate) fn running(handle: JoinHandle<Result<WorkerExit, ServeError>>) -> Self {
        SlotState {
            handle: Some(handle),
            device: None,
            error: None,
            restarts: 0,
            strikes: 0,
            hangs: 0,
            prev_backoff: Duration::ZERO,
            spawned_at: Instant::now(),
        }
    }
}

/// Slice length for interruptible backoff sleeps: drain never waits more
/// than this behind a supervisor mid-backoff.
const BACKOFF_SLICE: Duration = Duration::from_millis(5);

/// The supervisor thread's state: owns every worker's join handle and,
/// under a restart policy, the re-provisioning context.
pub(crate) struct Supervisor {
    pub(crate) shared: Arc<Shared>,
    /// `None` for a fleet without a restart policy: a lost slot is
    /// retired `Dead`.
    pub(crate) restart: Option<ReprovisionContext>,
    pub(crate) hang: Option<HangPolicy>,
    pub(crate) slots: Vec<SlotState>,
    pub(crate) exit_tx: mpsc::Sender<usize>,
}

impl Supervisor {
    /// The supervisor loop: receive worker-exit notifications and hand
    /// each lost slot to [`Self::slot_lost`]. With a [`HangPolicy`]
    /// installed the receive is timed, and every timeout runs a watchdog
    /// scan over the heartbeat leases — a wedged worker never sends an
    /// exit event, so hang detection is purely scan-driven. Returns once
    /// every slot is retired (drain closes the queue, so every worker
    /// exits), with one device-or-error per slot.
    pub(crate) fn run(
        mut self,
        exit_rx: mpsc::Receiver<usize>,
    ) -> Vec<Result<OmgDevice, ServeError>> {
        // No hang policy: `recv_timeout` treats an unrepresentable
        // deadline as none and blocks like `recv`. The channel never
        // disconnects, since `self.exit_tx` is a live sender.
        let scan_every = self
            .hang
            .as_ref()
            .map_or(Duration::MAX, |h| h.scan_interval);
        while !self
            .shared
            .slots
            .iter()
            .all(|slot| retired(*slot.health.lock()))
        {
            match exit_rx.recv_timeout(scan_every) {
                Ok(index) => self.worker_exited(index),
                Err(_) => self.scan_leases(),
            }
        }
        self.slots
            .into_iter()
            .map(|slot| match (slot.device, slot.error) {
                (Some(device), _) => Ok(device),
                (None, Some(error)) => Err(error),
                // Unreachable by construction; never silently shrink the
                // conservation count if it regresses.
                (None, None) => Err(ServeError::WorkerPanicked),
            })
            .collect()
    }

    /// Joins an exited worker and classifies the exit: a clean exit (the
    /// queue closed) retires the slot with its device, a death is a lost
    /// slot.
    fn worker_exited(&mut self, index: usize) {
        let Some(handle) = self.slots[index].handle.take() else {
            return; // already settled
        };
        let cause = match handle.join() {
            Ok(Ok(exit)) => {
                self.slots[index].device = Some(exit.device);
                self.slots[index].error = None;
                self.retire(index, WorkerHealth::Dead);
                return;
            }
            Ok(Err(e)) => e,
            Err(_) => ServeError::WorkerPanicked,
        };
        if let Some(rec) = &self.shared.recorder {
            rec.record(
                Shared::submit_ring(rec),
                Stage::WorkerDown,
                index as u64,
                u64::from(cause == ServeError::WorkerPanicked),
            );
        }
        self.slot_lost(index, cause);
    }

    /// Decides a lost slot's fate, for a dead worker and a preempted one
    /// alike. Draining, or without a restart policy, the slot is retired
    /// `Dead`; otherwise strike accounting picks restart (after backoff,
    /// on a freshly provisioned device) or quarantine.
    fn slot_lost(&mut self, index: usize, cause: ServeError) {
        let lost_at = Instant::now();
        let hung = cause == ServeError::Hung;
        self.slots[index].error = Some(cause);
        let Some(ctx) = self
            .restart
            .as_ref()
            .filter(|_| !self.shared.shutting_down.load(Ordering::Acquire))
        else {
            return self.retire(index, WorkerHealth::Dead);
        };
        let policy = &ctx.policy;
        let slot = &mut self.slots[index];
        // Strike accounting: a loss after a stable run starts a fresh
        // streak; a rapid one extends the current streak.
        if lost_at.duration_since(slot.spawned_at) >= policy.stable_after {
            slot.strikes = 0;
        }
        slot.strikes += 1;
        slot.hangs += u32::from(hung);
        let strikes = slot.strikes;
        let max_hangs = self.hang.as_ref().map_or(u32::MAX, |h| h.max_hangs);
        if (hung && slot.hangs >= max_hangs)
            || slot.restarts >= policy.max_restarts
            || strikes >= policy.crash_loop_threshold
        {
            self.quarantine(index, strikes);
        } else {
            self.restart_slot(index, lost_at, strikes);
        }
    }

    /// Scans every live slot's heartbeat lease against the hang policy
    /// and preempts the expired ones. No-op without a policy.
    fn scan_leases(&mut self) {
        let Some(expiry) = self.hang.as_ref().map(|h| h.lease_ttl + h.grace) else {
            return;
        };
        let expiry_ns = crate::nanos(expiry);
        let now = omg_obs::monotonic_ns();
        for index in 0..self.slots.len() {
            let slot = &self.shared.slots[index];
            // Only Live slots carry a lease a worker should be renewing;
            // Hung/Restarting slots were already preempted this incarnation.
            if *slot.health.lock() != WorkerHealth::Live {
                continue;
            }
            let stamp = slot.lease.stamp_ns.load(Ordering::Acquire);
            if stamp == 0 {
                continue; // idle: no query in hand, nothing to preempt
            }
            let age = now.saturating_sub(stamp);
            if age > expiry_ns {
                self.declare_hang(index, age);
            }
        }
    }

    /// Declares one slot hung: fences out the wedged incarnation behind a
    /// fresh generation, detaches (never joins) the wedged thread, marks
    /// the slot `Hung`, resolves its in-flight ticket with the retryable
    /// [`ServeError::Hung`], and hands the slot to [`Self::slot_lost`].
    fn declare_hang(&mut self, index: usize, age_ns: u64) {
        let slot = &self.shared.slots[index];
        // Generation bump FIRST: from here on, everything the zombie
        // publishes — verdict, stats, its presence guard's exit
        // bookkeeping — is discarded by generation check.
        slot.lease.generation.fetch_add(1, Ordering::AcqRel);
        slot.lease.stamp_ns.store(0, Ordering::Release);
        self.shared.hung.inc();
        self.shared.hang_detect.record_ns(age_ns);
        if let Some(rec) = &self.shared.recorder {
            rec.record(
                Shared::submit_ring(rec),
                Stage::WorkerHang,
                index as u64,
                age_ns,
            );
        }
        // Detach, never join: joining a wedged thread hangs the watchdog.
        // Its eventual exit is generation-gated and sends no exit event
        // (joining the live replacement by mistake would wedge this very
        // supervisor).
        drop(self.slots[index].handle.take());
        // The slot reads Hung, and the hang is counted, before the verdict
        // lands — as a dying worker's slot reads Down before its verdict
        // does: an observer that sees the books balance must also see
        // the slot recovering.
        *slot.health.lock() = WorkerHealth::Hung;
        // Resolve the wedged ticket. The response slot is first-writer-
        // wins, so exactly one of {watchdog, late-waking zombie} counts
        // the query: if our fill wins, the query is `discarded` (it died
        // unserved); if the zombie somehow completed in the race window,
        // its own publish won and we count nothing.
        if let Some((_seq, response)) = slot.lease.current.lock().take() {
            let discarded = &self.shared.discarded;
            response.fill_with(Err(ServeError::Hung), || discarded.inc());
        }
        self.slot_lost(index, ServeError::Hung);
    }

    /// Backs off (jittered, interruptibly), provisions a replacement
    /// device through the warm cache, and restarts the slot on it.
    fn restart_slot(&mut self, index: usize, down_at: Instant, strikes: u32) {
        let ctx = self
            .restart
            .as_mut()
            .expect("only a fleet with a restart policy restarts slots");
        *self.shared.slots[index].health.lock() = WorkerHealth::Restarting;
        // Decorrelated-jitter backoff: the word is a pure function of
        // (fleet seed, slot, slot event count), so seeded runs replay
        // identically while simultaneous deaths de-synchronize. Slept in
        // short slices so a drain that begins mid-backoff is never stuck
        // behind the full sleep.
        let events = u64::from(self.slots[index].restarts) + u64::from(self.slots[index].hangs) + 1;
        let word = splitmix64(
            ctx.seed
                .wrapping_add(0x0042_4143_4b4f_4646_u64.wrapping_mul(index as u64 + 1))
                .wrapping_add(events.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        let backoff = ctx
            .policy
            .jittered_backoff(strikes, self.slots[index].prev_backoff, word);
        self.slots[index].prev_backoff = backoff;
        let mut remaining = backoff;
        while !remaining.is_zero() && !self.shared.shutting_down.load(Ordering::Acquire) {
            let slice = remaining.min(BACKOFF_SLICE);
            std::thread::sleep(slice);
            remaining = remaining.saturating_sub(slice);
        }
        if self.shared.shutting_down.load(Ordering::Acquire) {
            // The slot's error stands; drain reports it.
            return self.retire(index, WorkerHealth::Dead);
        }
        ctx.replacements += 1;
        // Deterministic and distinct per replacement: a seeded scenario
        // re-run provisions bit-identical replacement devices.
        let replacement_seed = ctx
            .seed
            .wrapping_add(0x5245_5052_4f56u64.wrapping_mul(ctx.replacements));
        match provision_devices_with_cache(
            1,
            &ctx.model_id,
            ctx.model.clone(),
            replacement_seed,
            &mut ctx.cache,
        ) {
            Ok(mut devices) => {
                let device = devices.pop().expect("asked for one device");
                self.slots[index].restarts += 1;
                self.slots[index].spawned_at = Instant::now();
                // Count the restart while the slot still reads Restarting:
                // an observer that no longer sees the slot recovering must
                // already see the restart in the stats (the chaos
                // harness's await-settled step reads them right after).
                self.shared.restarts.inc();
                let recovered_in = down_at.elapsed();
                self.shared
                    .time_to_recover
                    .record_ns(crate::nanos(recovered_in));
                if let Some(rec) = &self.shared.recorder {
                    rec.record(
                        Shared::submit_ring(rec),
                        Stage::WorkerRestart,
                        index as u64,
                        recovered_in.as_nanos() as u64,
                    );
                }
                // Mark live *before* the spawn: if the replacement dies
                // instantly, its presence guard's `Down` must not be
                // overwritten.
                *self.shared.slots[index].health.lock() = WorkerHealth::Live;
                self.slots[index].handle = Some(spawn_worker(
                    index,
                    device,
                    &self.shared,
                    self.exit_tx.clone(),
                ));
            }
            Err(e) => {
                // No replacement device to be had: the slot is done.
                self.slots[index].error = Some(ServeError::from(e));
                self.quarantine(index, strikes);
            }
        }
    }

    /// Permanently retires a slot as `Quarantined` (crash loop, exhausted
    /// budget, or no replacement device).
    fn quarantine(&mut self, index: usize, strikes: u32) {
        // Counter before slot state, for the same reason the restart path
        // counts before marking Live: once the slot stops reading as
        // recovering, its terminal outcome must already be in the stats.
        self.shared.quarantined.inc();
        if let Some(rec) = &self.shared.recorder {
            rec.record(
                Shared::submit_ring(rec),
                Stage::WorkerQuarantine,
                index as u64,
                u64::from(strikes),
            );
        }
        self.retire(index, WorkerHealth::Quarantined);
    }

    /// Moves a slot to its terminal `state`. If that leaves nobody
    /// serving and nobody coming back, the fleet is over: the queue
    /// closes *before* the state shows (a caller that sees the fleet gone
    /// is refused at admission), and every job still queued is failed
    /// over with the verdict of this last loss — `WorkerPanicked` after a
    /// panic, `ShuttingDown` otherwise.
    fn retire(&mut self, index: usize, state: WorkerHealth) {
        let slots = &self.shared.slots;
        // Only this thread writes terminal states, so the other slots'
        // cannot change under the check.
        let nobody_left = slots
            .iter()
            .enumerate()
            .all(|(i, slot)| i == index || retired(*slot.health.lock()));
        if nobody_left {
            self.shared.queue.close();
        }
        *slots[index].health.lock() = state;
        if nobody_left {
            let verdict = match self.slots[index].error {
                Some(ServeError::WorkerPanicked) => ServeError::WorkerPanicked,
                _ => ServeError::ShuttingDown,
            };
            while let Some(mut job) = self.shared.queue.pop(index) {
                job.discard(verdict.clone(), false);
            }
        }
    }
}

/// Whether a slot state is terminal: no worker serves it and none will.
fn retired(health: WorkerHealth) -> bool {
    matches!(health, WorkerHealth::Quarantined | WorkerHealth::Dead)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_per_strike_and_caps() {
        let policy = RestartPolicy {
            backoff_initial: Duration::from_millis(10),
            backoff_max: Duration::from_millis(70),
            ..RestartPolicy::default()
        };
        assert_eq!(policy.backoff(1), Duration::from_millis(10));
        assert_eq!(policy.backoff(2), Duration::from_millis(20));
        assert_eq!(policy.backoff(3), Duration::from_millis(40));
        // Capped from here on — no unbounded sleep however long the streak.
        assert_eq!(policy.backoff(4), Duration::from_millis(70));
        assert_eq!(policy.backoff(u32::MAX), Duration::from_millis(70));
        // Strike counts start at 1; 0 degrades to the initial backoff.
        assert_eq!(policy.backoff(0), Duration::from_millis(10));
    }

    #[test]
    fn fleet_health_state_machine() {
        use FleetHealth as F;
        use WorkerHealth as W;
        let cases: &[(&[W], F)] = &[
            (&[W::Live, W::Live], F::Healthy),
            (&[W::Live, W::Down], F::Degraded),
            (&[W::Live, W::Restarting], F::Degraded),
            // Every worker gone but recovery pending: degraded, not dead.
            (&[W::Down, W::Restarting], F::Degraded),
            // A hung slot is recovering (the watchdog preempts and
            // restarts it), not terminal.
            (&[W::Live, W::Hung], F::Degraded),
            (&[W::Hung, W::Hung], F::Degraded),
            (&[W::Hung, W::Quarantined], F::Quarantined),
            // Any quarantined slot dominates while the fleet lives on...
            (&[W::Live, W::Quarantined], F::Quarantined),
            // ...and when the whole fleet is gone, quarantine still names
            // the terminal cause over a generic death.
            (&[W::Quarantined], F::Quarantined),
            (&[W::Quarantined, W::Dead], F::Quarantined),
            // No one serving, no one returning, nothing quarantined.
            (&[W::Dead, W::Dead], F::Dead),
            (&[W::Live, W::Dead], F::Degraded),
        ];
        for (slots, expected) in cases {
            assert_eq!(fleet_health(slots), *expected, "slots {slots:?}");
        }
    }

    #[test]
    fn default_policies_are_sane() {
        let restart = RestartPolicy::default();
        assert!(restart.backoff_initial <= restart.backoff_max);
        assert!(restart.max_restarts >= 1);
        assert!(
            restart.crash_loop_threshold >= 2,
            "one crash must not quarantine"
        );
        let retry = RetryPolicy::default();
        assert!(retry.max_attempts >= 2, "a retry policy that never retries");
        assert!(retry.backoff_initial <= retry.backoff_max);
        assert!(!retry.budget.is_zero());
        let hang = HangPolicy::default();
        assert!(!hang.lease_ttl.is_zero());
        assert!(hang.max_hangs >= 1);
        assert!(
            hang.scan_interval < hang.lease_ttl + hang.grace,
            "a scan slower than the expiry budget adds a full period of \
             detection latency"
        );
    }

    #[test]
    fn restart_jitter_stays_within_bounds_and_is_deterministic() {
        let policy = RestartPolicy {
            backoff_initial: Duration::from_millis(10),
            backoff_max: Duration::from_millis(500),
            ..RestartPolicy::default()
        };
        // Start of a streak (prev == ZERO): exactly the initial backoff,
        // regardless of the jitter word.
        for word in [0u64, 1, u64::MAX, splitmix64(42)] {
            assert_eq!(
                policy.jittered_backoff(1, Duration::ZERO, word),
                policy.backoff_initial
            );
        }
        // Every later pick lands in [initial, backoff(strikes)] and never
        // exceeds 3x the previous pick.
        let mut prev = policy.jittered_backoff(1, Duration::ZERO, splitmix64(0));
        for (i, strikes) in (1..=6u32).cycle().take(500).enumerate() {
            let word = splitmix64(i as u64);
            let picked = policy.jittered_backoff(strikes, prev, word);
            assert!(picked >= policy.backoff_initial, "{picked:?} below floor");
            assert!(
                picked <= policy.backoff(strikes),
                "{picked:?} above the strike-{strikes} ceiling {:?}",
                policy.backoff(strikes)
            );
            assert!(picked <= prev.saturating_mul(3).max(policy.backoff_initial));
            // Same inputs, same pick: bit-identical replays.
            assert_eq!(picked, policy.jittered_backoff(strikes, prev, word));
            prev = picked;
        }
    }

    #[test]
    fn retry_jitter_bounded_by_exponential_ceiling_and_seeded() {
        let policy = RetryPolicy {
            max_attempts: 8,
            backoff_initial: Duration::from_millis(2),
            backoff_max: Duration::from_millis(50),
            budget: Duration::from_secs(5),
            jitter_seed: 7,
        };
        let mut prev = Duration::ZERO;
        let mut schedule = Vec::new();
        for attempt in 1..=8u32 {
            let picked = policy.jittered_backoff(attempt, prev);
            let ceiling = policy
                .backoff_initial
                .saturating_mul(1u32 << (attempt - 1).min(20))
                .min(policy.backoff_max);
            assert!(picked >= policy.backoff_initial);
            assert!(picked <= ceiling, "{picked:?} > {ceiling:?} at {attempt}");
            schedule.push(picked);
            prev = picked;
        }
        assert_eq!(schedule[0], policy.backoff_initial, "first retry is exact");
        // Same seed replays the identical schedule; a different seed
        // diverges somewhere.
        let mut prev = Duration::ZERO;
        let replay: Vec<_> = (1..=8u32)
            .map(|a| {
                let p = policy.jittered_backoff(a, prev);
                prev = p;
                p
            })
            .collect();
        assert_eq!(schedule, replay);
        let reseeded = RetryPolicy {
            jitter_seed: 8,
            ..policy
        };
        let mut prev = Duration::ZERO;
        let other: Vec<_> = (1..=8u32)
            .map(|a| {
                let p = reseeded.jittered_backoff(a, prev);
                prev = p;
                p
            })
            .collect();
        assert_ne!(schedule, other, "jitter_seed must actually decorrelate");
    }
}
