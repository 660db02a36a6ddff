//! The scenario catalog: the fault modes the fleet must survive, written
//! as data. Each constructor returns a [`Scenario`] whose outcome is
//! fully determined by its seed — the comments state the exact expected
//! accounting so a drifting runtime shows up as a trace diff, not a
//! shrug.
//!
//! The catalog leans on one determinism trick throughout: a paused fault
//! gate ([`Scenario::pause`]) parks each worker right after its next
//! dequeue, *holding exactly one job*. That pins queue depth and
//! worker/job assignment at script time, so saturation counts and fault
//! targeting don't depend on thread scheduling.

use std::time::Duration;

use omg_serve::fault::QueryFault;
use omg_serve::{HangPolicy, RestartPolicy};

use crate::{Provisioning, Scenario, SimModel};

/// The restart policy the recovery scenarios run under: millisecond
/// backoffs (CI-friendly), and `stable_after: ZERO` so every death counts
/// as an isolated incident — spaced kills never accumulate crash-loop
/// strikes.
fn recovery_policy() -> RestartPolicy {
    RestartPolicy {
        backoff_initial: Duration::from_millis(1),
        backoff_max: Duration::from_millis(8),
        max_restarts: 16,
        crash_loop_threshold: 3,
        stable_after: Duration::ZERO,
    }
}

/// The hang policy the liveness scenarios run under: a lease TTL + grace
/// small enough for CI (a wedge is declared within ~80 ms plus one scan
/// tick) and a hang budget high enough that no scripted scenario
/// quarantines by accident.
fn liveness_policy() -> HangPolicy {
    HangPolicy {
        lease_ttl: Duration::from_millis(40),
        grace: Duration::from_millis(40),
        max_hangs: 8,
        scan_interval: Duration::from_millis(5),
    }
}

/// A worker panics mid-query in a two-worker fleet. The victim's waiter
/// must resolve with `WorkerPanicked` (the liveness fix under test: before
/// it, this ticket hung forever) and the survivor serves everything else.
///
/// Expected accounting: submitted=5, completed=4, discarded=1.
pub fn worker_panic() -> Scenario {
    Scenario::new("worker-panic", 2)
        .queue_capacity(8)
        .pause()
        .submit(2) // primers: one held per parked worker
        .await_parked(2)
        .fault(0, QueryFault::WorkerPanic)
        .submit(3)
        .resume()
}

/// The *last* worker panics with work still queued. Failover must close
/// the queue and deliver a verdict to every stranded waiter — none may
/// hang, and every stranded job lands in `discarded`.
///
/// Expected accounting: submitted=4, completed=0, discarded=4.
pub fn stranded_queue_panic() -> Scenario {
    Scenario::new("stranded-queue-panic", 1)
        .queue_capacity(8)
        .pause()
        .submit(1) // held by the only worker
        .await_parked(1)
        .submit(3) // stranded behind the doomed primer
        .fault(0, QueryFault::WorkerPanic)
        .resume()
}

/// A device crashes mid-query (enclave torn down, memory scrubbed). The
/// victim query fails cleanly with `DeviceCrashed`; the fleet keeps
/// serving on the surviving device and drain reports exactly one lost
/// worker.
///
/// Expected accounting: submitted=6, completed=5, failed=1;
/// one surviving device, one worker error.
pub fn device_crash() -> Scenario {
    Scenario::new("device-crash", 2)
        .queue_capacity(8)
        .pause()
        .submit(2)
        .await_parked(2)
        .fault(1, QueryFault::DeviceCrash)
        .submit(4)
        .resume()
}

/// Drain begins while the queue is still loaded. Every admitted job must
/// be served before drain returns — drain is completion, not abandonment.
///
/// Expected accounting: submitted=8, completed=8.
pub fn drain_under_load() -> Scenario {
    Scenario::new("drain-under-load", 2)
        .queue_capacity(8)
        .pause()
        .submit(2)
        .await_parked(2)
        .submit(6) // queued when the implicit drain starts
        .resume()
}

/// Queue saturation with the workers parked: the queue fills to exactly
/// its capacity, then every further submission bounces `Overloaded` —
/// deterministically, because no worker is draining.
///
/// Expected accounting: submitted=9, completed=6, rejected=3.
pub fn saturation_burst() -> Scenario {
    Scenario::new("saturation-burst", 2)
        .queue_capacity(4)
        .pause()
        .submit(2) // held by parked workers, not in the queue
        .await_parked(2)
        .submit(4) // fills the queue exactly
        .submit(3) // every one of these must bounce
        .resume()
}

/// One query on a single-device fleet stalls for two virtual seconds
/// (`SimClock::stall`, wall-clock capped by the runtime). The stall must
/// not corrupt results or accounting, and the device's clock records the
/// stall as neither modelled nor measured time.
///
/// Expected accounting: submitted=3, completed=3; the surviving device
/// reports 2 s of stalled virtual time.
pub fn slow_device() -> Scenario {
    Scenario::new("slow-device", 1)
        .queue_capacity(8)
        .fault(1, QueryFault::Delay(SLOW_DEVICE_STALL))
        .submit(3)
}

/// The stall injected by [`slow_device`], exported so tests can assert
/// the drained device's clock accounted for exactly this much.
pub const SLOW_DEVICE_STALL: Duration = Duration::from_secs(2);

/// Zero-budget queries behind a parked worker: by the time the worker
/// dequeues them their deadline has passed, so every one is shed at
/// dequeue — no device time spent on doomed work.
///
/// Expected accounting: submitted=5, completed=1, shed=4.
pub fn expired_deadline_shed() -> Scenario {
    Scenario::new("expired-deadline-shed", 1)
        .queue_capacity(8)
        .pause()
        .submit(1) // primer, held; serves fine after resume
        .await_parked(1)
        .submit_with_budget(4, Duration::ZERO)
        .resume()
}

/// A worker panics mid-query while serving the conv-heavy model under a
/// GEMM thread budget of 4: every query runs scoped row-panel threads
/// *inside* the panicking worker. `std::thread::scope` joins the panel
/// threads before the panic propagates, so the teardown must leave no
/// hung waiters, the survivor keeps serving threaded queries, and the
/// surviving device's arena still scrubs on drain.
///
/// Expected accounting: submitted=5, completed=4, discarded=1 (the
/// worker-panic shape, now with multithreaded kernels underneath).
pub fn threaded_gemm_panic() -> Scenario {
    Scenario::new("threaded-gemm-panic", 2)
        .queue_capacity(8)
        .model(SimModel::ConvHeavy)
        .kernel_threads(4)
        .pause()
        .submit(2) // primers: one held per parked worker
        .await_parked(2)
        .fault(0, QueryFault::WorkerPanic)
        .submit(3)
        .resume()
}

/// A tampered enclave runtime image is offered during provisioning: the
/// vendor's attestation must reject it and leave the device fresh. The
/// fleet then serves genuinely so the full invariant suite still runs.
pub fn tampered_runtime_image() -> Scenario {
    Scenario::new("tampered-runtime-image", 1)
        .queue_capacity(8)
        .provisioning(Provisioning::TamperedRuntimeImage)
        .submit(3)
}

/// The sealed model blob is flipped in untrusted storage before
/// initialization: authenticated decryption must reject it (reported as
/// rollback/tamper detection), and a genuine fleet then serves.
pub fn tampered_sealed_model() -> Scenario {
    Scenario::new("tampered-sealed-model", 1)
        .queue_capacity(8)
        .provisioning(Provisioning::TamperedSealedModel)
        .submit(3)
}

/// A supervised two-worker fleet is kill-looped: three spaced worker
/// panics across a ten-query stream. Each victim's waiter resolves
/// `WorkerPanicked`, the supervisor re-provisions a replacement device
/// through the shared model cache after every kill, and the fleet settles
/// back at full capacity — replacement answers bit-identical to the
/// reference device (invariant 5 covers every completed query).
///
/// Expected accounting: submitted=10, completed=7, discarded=3;
/// restarts=3, quarantined=0, health=Healthy, 2 devices back.
pub fn kill_loop() -> Scenario {
    Scenario::new("kill-loop", 2)
        .queue_capacity(16)
        .restart(recovery_policy())
        .fault(0, QueryFault::WorkerPanic)
        .fault(3, QueryFault::WorkerPanic)
        .fault(6, QueryFault::WorkerPanic)
        .submit(10)
        .await_settled()
}

/// Every worker in the fleet dies at once (both parked workers hold a
/// faulted job when the gate opens). A supervised fleet must not close
/// the queue at zero live workers — the submissions that arrive while
/// both slots are down wait for the replacements and complete.
///
/// Expected accounting: submitted=6, completed=4, discarded=2;
/// restarts=2, health=Healthy, 2 devices back.
pub fn all_workers_die_then_recover() -> Scenario {
    Scenario::new("all-workers-die-then-recover", 2)
        .queue_capacity(8)
        .restart(recovery_policy())
        .pause()
        .fault(0, QueryFault::WorkerPanic)
        .fault(1, QueryFault::WorkerPanic)
        .submit(2) // one doomed primer held per parked worker
        .await_parked(2)
        .resume()
        .submit(4) // admitted while zero workers are live
        .await_settled()
}

/// A crash-looping device: the sole worker dies on three consecutive
/// queries under a policy that treats every death as rapid
/// (`stable_after` far beyond the run). Strike three quarantines the slot
/// instead of restarting it — no restart storm — and the queue closes
/// terminally, discarding the stranded jobs.
///
/// Expected accounting: submitted=6, completed=0, discarded=6;
/// restarts=2, quarantined=1, health=Quarantined, 0 devices back.
pub fn crash_loop_quarantine() -> Scenario {
    Scenario::new("crash-loop-quarantine", 1)
        .queue_capacity(16)
        .restart(RestartPolicy {
            backoff_initial: Duration::from_millis(1),
            backoff_max: Duration::from_millis(2),
            max_restarts: 16,
            crash_loop_threshold: 3,
            // Longer than any run: every death reads as rapid, so the
            // three kills are strikes 1, 2, 3 of one crash loop.
            stable_after: Duration::from_secs(3600),
        })
        .pause()
        .fault(0, QueryFault::WorkerPanic)
        .fault(1, QueryFault::WorkerPanic)
        .fault(2, QueryFault::WorkerPanic)
        .submit(6) // all admitted before the first kill: gate is shut
        .await_parked(1)
        .resume()
        .await_settled()
}

/// Capacity restoration under sustained load: a three-worker fleet loses
/// one worker inside the first burst, settles (supervisor restores the
/// third device), then serves a second full burst — which the restored
/// capacity must absorb completely.
///
/// Expected accounting: submitted=16, completed=15, discarded=1;
/// restarts=1, health=Healthy, 3 devices back.
pub fn capacity_restored_under_load() -> Scenario {
    Scenario::new("capacity-restored-under-load", 3)
        .queue_capacity(24)
        .restart(recovery_policy())
        .fault(2, QueryFault::WorkerPanic)
        .submit(8)
        .await_settled()
        .submit(8)
        .await_settled()
}

/// A worker wedges mid-query (permanent stall) in a supervised two-worker
/// fleet with the liveness watchdog on. The watchdog must preempt the
/// wedged slot within `lease_ttl + grace` (+ one scan tick): the victim's
/// waiter resolves with retryable `Hung`, the survivor keeps serving, and
/// the slot is re-provisioned back to `Healthy`. The zombie stays wedged
/// until the engine's pre-drain release and publishes nothing.
///
/// Expected accounting: submitted=5, completed=4, discarded=1;
/// restarts=1, hung=1, health=Healthy, 2 devices back.
pub fn hang_preempted() -> Scenario {
    Scenario::new("hang-preempted", 2)
        .queue_capacity(8)
        .restart(recovery_policy())
        .hang(liveness_policy())
        .pause()
        .fault(0, QueryFault::Hang)
        .submit(2) // primers: one held per parked worker, seq 0 doomed
        .await_parked(2)
        .resume()
        .submit(3)
        .await_settled()
}

/// The stall-then-wake case: the sole worker wedges, is preempted and
/// replaced, and *then* the zombie wakes. Its long-preempted completion
/// must lose the fill race and publish nothing — observable as exactly one
/// zombie discard, with the identity buckets untouched.
///
/// Expected accounting: submitted=3, completed=2, discarded=1;
/// restarts=1, hung=1, zombie_discards=1, health=Healthy.
pub fn hang_zombie_publishes_nothing() -> Scenario {
    Scenario::new("hang-zombie-discarded", 1)
        .queue_capacity(8)
        .restart(recovery_policy())
        .hang(liveness_policy())
        .fault(0, QueryFault::Hang)
        .submit(3)
        .await_settled()
        .wake_hung()
        .await_zombies(1)
}

/// Every worker wedges at once: both parked primers carry a hang fault, so
/// for a window the fleet has zero live workers *and* zero dead ones —
/// only leases going stale. The watchdog must preempt both slots and the
/// supervisor must restore full capacity; the submissions that arrived
/// while everything was wedged complete on the replacements.
///
/// Expected accounting: submitted=6, completed=4, discarded=2;
/// restarts=2, hung=2, health=Healthy, 2 devices back.
pub fn all_workers_hang() -> Scenario {
    Scenario::new("all-workers-hang", 2)
        .queue_capacity(8)
        .restart(recovery_policy())
        .hang(liveness_policy())
        .pause()
        .fault(0, QueryFault::Hang)
        .fault(1, QueryFault::Hang)
        .submit(2) // one doomed primer held per parked worker
        .await_parked(2)
        .resume()
        .submit(4) // admitted while every slot is wedged
        .await_settled()
}

/// Every catalog scenario, in a stable order (CI runs all of them across
/// the seed matrix).
pub fn all() -> Vec<Scenario> {
    vec![
        worker_panic(),
        stranded_queue_panic(),
        device_crash(),
        drain_under_load(),
        saturation_burst(),
        slow_device(),
        expired_deadline_shed(),
        threaded_gemm_panic(),
        tampered_runtime_image(),
        tampered_sealed_model(),
        kill_loop(),
        all_workers_die_then_recover(),
        crash_loop_quarantine(),
        capacity_restored_under_load(),
        hang_preempted(),
        hang_zombie_publishes_nothing(),
        all_workers_hang(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_distinct_and_named() {
        let scenarios = all();
        assert!(scenarios.len() >= 6, "catalog shrank below the floor");
        let mut names: Vec<_> = scenarios.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), scenarios.len(), "duplicate scenario names");
    }

    #[test]
    fn every_pause_is_resumed() {
        // A scenario that pauses but never resumes would hang its own
        // drain; catch that statically.
        for s in all() {
            let pauses = s
                .steps
                .iter()
                .filter(|x| matches!(x, crate::Step::Pause))
                .count();
            let resumes = s
                .steps
                .iter()
                .filter(|x| matches!(x, crate::Step::Resume))
                .count();
            assert_eq!(
                pauses, resumes,
                "scenario {:?} leaves the gate shut",
                s.name
            );
        }
    }

    #[test]
    fn every_hang_scenario_is_supervised() {
        // Every catalog hang scenario expects the preempted slot back,
        // which takes a RestartPolicy next to the HangPolicy (without one
        // the slot is retired Dead); catch a mis-built entry statically.
        for s in all() {
            let hangs_scripted = s.steps.iter().any(
                |x| matches!(x, crate::Step::Fault { fault, .. } if *fault == QueryFault::Hang),
            );
            if hangs_scripted {
                assert!(
                    s.hang.is_some() && s.restart.is_some(),
                    "scenario {:?} scripts a hang without watchdog + supervision",
                    s.name
                );
            }
            if s.hang.is_some() {
                assert!(
                    s.restart.is_some(),
                    "scenario {:?} installs a HangPolicy without a RestartPolicy",
                    s.name
                );
            }
        }
    }
}
