//! Hang-recovery bench: how fast the liveness watchdog turns a wedged
//! worker into a caller-visible, retryable verdict, and how much
//! availability the retry layer preserves when workers keep wedging.
//!
//! Two phases, both on real provisioned fleets with the chaos seam
//! installed:
//!
//! 1. **Detection latency** — K rounds of: wedge one worker of a
//!    two-worker fleet mid-compute (seq-keyed [`QueryFault::Hang`]), then
//!    measure from submission until the waiter receives the watchdog's
//!    `ServeError::Hung` verdict. Every sample is asserted against the
//!    policy bound `lease_ttl + grace + scans + slack` — the tentpole
//!    claim that a hang is never an unbounded caller stall. Each round
//!    also proves the re-provisioned slot *serves*, bit-identical to an
//!    untouched reference device. The wedged zombies stay parked on the
//!    plan's one-way hang gate until the end of the phase, where a single
//!    wake proves every one of them publishes nothing but a
//!    `zombie_discards` tick.
//! 2. **Availability under sustained hangs** — a query stream with a
//!    hang scheduled every 25th admission, submitted through
//!    `submit_with_retry`. Availability is the fraction of queries that
//!    ultimately succeed; the bench asserts it stays ≥ 0.95 (preemption +
//!    retry together make a wedged worker a transient, not an outage).
//!
//! The harness records the results as JSON in
//! `target/bench-json/hang_recovery.json` and `trajectory.jsonl`;
//! `availability` and `preemptions_per_s` are watched by the
//! `bench_check` regression gate. Run with `--quick` for the CI smoke
//! mode.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use omg_bench::harness::{self, await_full_capacity, RECOVERY_TIMEOUT};
use omg_bench::{cached_tiny_conv, paper_test_subset, ModelKind};
use omg_core::session::provision_devices;
use omg_serve::fault::{FaultPlan, QueryFault};
use omg_serve::{
    FleetHealth, HangPolicy, RestartPolicy, RetryPolicy, ServeConfig, ServeError, ServeHandle,
};

/// Every 25th admission wedges in the chaos phase.
const HANG_EVERY: u64 = 25;

fn bench_hang_policy() -> HangPolicy {
    HangPolicy {
        lease_ttl: Duration::from_millis(40),
        grace: Duration::from_millis(40),
        // Hangs are the *workload* here, not a defect pattern: the budget
        // must never quarantine a slot mid-bench.
        max_hangs: u32::MAX,
        scan_interval: Duration::from_millis(5),
    }
}

fn bench_restart_policy() -> RestartPolicy {
    RestartPolicy {
        backoff_initial: Duration::from_millis(1),
        backoff_max: Duration::from_millis(8),
        max_restarts: u32::MAX,
        crash_loop_threshold: u32::MAX,
        stable_after: Duration::ZERO,
    }
}

/// The asserted ceiling on caller-observed detection latency: the lease
/// must expire (`ttl + grace`), the watchdog must notice (a few scans),
/// and the host may be noisy (flat slack). Generous against CI jitter,
/// tiny against an unwatched hang (which would wait forever).
fn detect_bound(policy: &HangPolicy) -> Duration {
    policy.lease_ttl + policy.grace + policy.scan_interval * 20 + Duration::from_millis(500)
}

/// Releases the plan's one-way hang gate and waits until every
/// accumulated zombie has lost its fill race and ticked `zombie_discards`.
fn wake_and_settle_zombies(handle: &ServeHandle, plan: &FaultPlan, expected: u64) {
    plan.wake_hung();
    let deadline = Instant::now() + RECOVERY_TIMEOUT;
    while handle.stats().zombie_discards < expected {
        assert!(
            Instant::now() < deadline,
            "only {}/{expected} zombies discarded their publish",
            handle.stats().zombie_discards
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

struct PreemptResult {
    detect_mean: Duration,
    detect_p95: Duration,
    preemptions_per_s: f64,
}

/// Phase 1: K wedge-preempt-restart rounds on a two-worker supervised
/// fleet with the watchdog on.
fn run_preempt_rounds(rounds: usize, samples: &[i16], seed: u64) -> PreemptResult {
    let model = cached_tiny_conv(ModelKind::Fast);
    // Ground truth for the bit-identical-replacement check.
    let mut reference = provision_devices(1, "kws", model.clone(), seed ^ 0x4841_4e00)
        .expect("reference device")
        .pop()
        .expect("one device");
    let expected = reference
        .classify_utterance(samples)
        .expect("reference classification");

    let policy = bench_hang_policy();
    let bound = detect_bound(&policy);
    let plan = Arc::new(FaultPlan::new());
    let handle = ServeHandle::provision(
        2,
        ServeConfig {
            queue_capacity: 16,
            faults: Some(Arc::clone(&plan)),
            restart: Some(bench_restart_policy()),
            hang: Some(policy),
            ..ServeConfig::default()
        },
        "kws",
        model,
        seed,
    )
    .expect("provision supervised fleet");
    harness::watch(&handle);

    let mut seq = 0u64;
    let mut detects = Vec::with_capacity(rounds);
    let mut total_cycle = Duration::ZERO;
    for round in 0..rounds {
        plan.fault_query(seq, QueryFault::Hang);
        let round_start = Instant::now();
        let doomed = handle.submit(samples).expect("admit doomed query");
        seq += 1;
        // The clock measures what the caller sees: submission until the
        // watchdog's retryable verdict lands in the waiter.
        assert_eq!(doomed.wait(), Err(ServeError::Hung));
        let detect = round_start.elapsed();
        assert!(
            detect < bound,
            "hang detection took {detect:?}, bound is {bound:?}"
        );
        detects.push(detect);
        // The preemption is only *handled* once the slot is live again.
        await_full_capacity(&handle, round as u64 + 1);
        total_cycle += round_start.elapsed();
        // The re-provisioned fleet serves, and the answer (whichever slot
        // takes it) is bit-identical to the reference device's.
        let t = handle
            .submit(samples)
            .expect("admit probe")
            .wait()
            .expect("probe completes");
        seq += 1;
        assert_eq!(t.class_index, expected.class_index);
        assert_eq!(t.label, expected.label);
    }
    assert_eq!(handle.health(), FleetHealth::Healthy);
    // One wake releases every accumulated zombie; each must lose its fill
    // race against the verdict its waiter already consumed.
    wake_and_settle_zombies(&handle, &plan, rounds as u64);
    let drained = handle.drain();
    assert!(drained.is_healthy(), "{:?}", drained.worker_errors);
    let s = &drained.stats;
    assert_eq!(s.hung, rounds as u64);
    assert_eq!(s.restarts, rounds as u64);
    assert_eq!(s.zombie_discards, rounds as u64);
    assert_eq!(
        s.discarded, rounds as u64,
        "every preempted query discarded"
    );
    assert_eq!(s.quarantined, 0);
    assert_eq!(drained.devices.len(), 2, "capacity must converge");
    assert_eq!(
        s.completed + s.rejected + s.failed + s.shed + s.discarded,
        s.submitted,
        "identity violated: {s}"
    );

    detects.sort_unstable();
    let total_detect: Duration = detects.iter().sum();
    PreemptResult {
        detect_mean: total_detect / rounds as u32,
        detect_p95: detects[((rounds - 1) as f64 * 0.95).round() as usize],
        preemptions_per_s: rounds as f64 / total_cycle.as_secs_f64().max(1e-12),
    }
}

struct ChaosResult {
    queries: usize,
    hangs: u64,
    successes: u64,
    availability: f64,
    retried: u64,
    restarts: u64,
    host_qps: f64,
}

/// Phase 2: a sustained stream with a wedge every [`HANG_EVERY`]
/// admissions, ridden out by `submit_with_retry`.
fn run_chaos_stream(workload: &[&[i16]], seed: u64) -> ChaosResult {
    let model = cached_tiny_conv(ModelKind::Fast);
    let plan = Arc::new(FaultPlan::new());
    // Hangs keyed on admission sequence: submissions are sequential here,
    // so every scheduled seq below the query count is reached (retries
    // consume seqs *between* the scheduled hangs, never displacing them
    // below the last one).
    let mut hangs = 0u64;
    let mut s = 0u64;
    while s < workload.len() as u64 {
        plan.fault_query(s, QueryFault::Hang);
        hangs += 1;
        s += HANG_EVERY;
    }
    let handle = ServeHandle::provision(
        2,
        ServeConfig {
            queue_capacity: 16,
            faults: Some(Arc::clone(&plan)),
            restart: Some(bench_restart_policy()),
            hang: Some(bench_hang_policy()),
            ..ServeConfig::default()
        },
        "kws",
        model,
        seed,
    )
    .expect("provision chaos fleet");
    harness::watch(&handle);
    let retry = RetryPolicy {
        max_attempts: 6,
        backoff_initial: Duration::from_millis(1),
        backoff_max: Duration::from_millis(20),
        budget: Duration::from_secs(10),
        jitter_seed: seed,
    };

    let start = Instant::now();
    let mut successes = 0u64;
    for &samples in workload {
        match handle.submit_with_retry(samples, &retry) {
            Ok(t) => {
                assert!(!t.label.is_empty());
                successes += 1;
            }
            Err(e) => assert!(e.is_retryable(), "non-retryable failure under chaos: {e}"),
        }
    }
    let elapsed = start.elapsed();
    // Let the last preemption's restart settle, then release the parked
    // zombies so drain sees every wedge fully accounted for.
    await_full_capacity(&handle, hangs);
    wake_and_settle_zombies(&handle, &plan, hangs);
    let drained = handle.drain();
    assert!(drained.is_healthy(), "{:?}", drained.worker_errors);
    assert_eq!(drained.stats.hung, hangs, "every wedge was preempted");
    assert_eq!(drained.stats.restarts, hangs, "every wedge restarted");
    assert_eq!(drained.stats.zombie_discards, hangs);
    assert_eq!(drained.stats.quarantined, 0, "hang budget misfire");
    assert_eq!(drained.devices.len(), 2);
    assert!(drained.stats.retried >= hangs, "each wedge forced a retry");

    ChaosResult {
        queries: workload.len(),
        hangs,
        successes,
        availability: successes as f64 / workload.len() as f64,
        retried: drained.stats.retried,
        restarts: drained.stats.restarts,
        host_qps: workload.len() as f64 / elapsed.as_secs_f64().max(1e-12),
    }
}

fn main() {
    harness::run("hang_recovery", bench);
}

fn bench(quick: bool) -> String {
    let rounds = if quick { 3 } else { 8 };
    let queries = if quick { 120 } else { 600 };
    let eval = paper_test_subset(1);
    let workload: Vec<&[i16]> = (0..queries)
        .map(|i| eval.utterances[i % eval.utterances.len()].as_slice())
        .collect();

    println!(
        "== OMG hang detection & preemption ({rounds} wedge rounds, {queries} chaos queries{}) ==",
        if quick { ", --quick" } else { "" }
    );

    let bound = detect_bound(&bench_hang_policy());
    let preempt = run_preempt_rounds(rounds, workload[0], 9200);
    println!(
        "caller-observed detection: {:.2} ms mean / {:.2} ms p95 over {rounds} wedges \
         (bound {:.0} ms, {:.1} preemptions/s incl. re-provisioning)",
        preempt.detect_mean.as_secs_f64() * 1e3,
        preempt.detect_p95.as_secs_f64() * 1e3,
        bound.as_secs_f64() * 1e3,
        preempt.preemptions_per_s,
    );

    let chaos = run_chaos_stream(&workload, 9300);
    println!(
        "chaos stream: {}/{} served through {} wedges ({} retries, {} restarts) \
         — availability {:.4} at {:.1} q/s host",
        chaos.successes,
        chaos.queries,
        chaos.hangs,
        chaos.retried,
        chaos.restarts,
        chaos.availability,
        chaos.host_qps,
    );

    // The headline claim, asserted so it stays regression-checked: with
    // the watchdog + caller retries, sustained mid-compute wedges cost
    // < 5% of availability.
    assert!(
        chaos.availability >= 0.95,
        "availability {:.4} under sustained hangs fell below 0.95",
        chaos.availability
    );
    println!(
        "PASS: availability {:.4} >= 0.95, every wedge detected within {:.0} ms",
        chaos.availability,
        bound.as_secs_f64() * 1e3,
    );

    // --- JSON trajectory ---------------------------------------------------
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"bench\":\"hang_recovery\",\"quick\":{quick},\"rounds\":{rounds},\
         \"detect_mean_ms\":{:.3},\"detect_p95_ms\":{:.3},\"detect_bound_ms\":{:.0},\
         \"preemptions_per_s\":{:.2},\"chaos_queries\":{},\"hangs\":{},\"retried\":{},\
         \"restarts\":{},\"availability\":{:.4},\"chaos_host_qps\":{:.1}}}",
        preempt.detect_mean.as_secs_f64() * 1e3,
        preempt.detect_p95.as_secs_f64() * 1e3,
        bound.as_secs_f64() * 1e3,
        preempt.preemptions_per_s,
        chaos.queries,
        chaos.hangs,
        chaos.retried,
        chaos.restarts,
        chaos.availability,
        chaos.host_qps,
    );
    json
}
