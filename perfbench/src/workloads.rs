//! The three workloads: `table1` (one device, one query at a time),
//! `serve` (a 2-worker fleet under open and closed load) and `cold`
//! (fresh devices, and supervised restarts after scripted kills).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use omg_core::device::expected_enclave_measurement;
use omg_core::session::ModelCache;
use omg_core::{OmgDevice, OmgError, Transcription, User, Vendor};
use omg_nn::Model;
use omg_obs::{monotonic_ns, TraceSnapshot};
use omg_serve::fault::{FaultPlan, QueryFault};
use omg_serve::{
    DrainedServe, Pending, RestartPolicy, ServeConfig, ServeError, ServeHandle, WorkerHealth,
};
use omg_speech::dataset::SyntheticSpeechCommands;
use omg_speech::frontend::FeatureExtractor;

use crate::checks::{self, Books, Ledger};
use crate::oracle::Oracle;
use crate::{
    interquartile_mean, layers, mix, ms, percentile, timed, Args, HostSpeed, Report, Span, Workload,
};

/// Every untraced run reports each of these, on every workload.
pub const END_TO_END: &[&str] = &[
    "latency_p50_ms",
    "latency_p99_ms",
    "throughput_qps",
    "device_ms_per_query",
    "provision_ms",
    "setup_s",
    "peak_rss_mb",
];

const MODEL_ID: &str = "kws-tiny-conv";
/// Open-phase Poisson arrival rate on `serve`, set once by hand: about a
/// 26th of the fleet's saturated closed-phase throughput on the reference
/// host at full speed (2.6k q/s), and still a tenth of it when other load
/// on the shared host slows the fleet fourfold, where 500 q/s filled the
/// queue (README).
pub const OPEN_RATE_QPS: f64 = 100.0;
/// Arrivals per open-phase round (0.25 s at 100 q/s): short enough that a
/// host-speed sample between rounds follows the host's swings.
const OPEN_ROUND: usize = 25;
/// Most open-phase queries in flight at once, half the default queue
/// capacity of 64. When the fleet falls this far behind, the generator
/// waits for the oldest answer before it submits the next query, so a
/// slow host delays arrivals (latency still runs from the due time)
/// instead of overflowing the queue into `Overloaded` rejections.
const OPEN_IN_FLIGHT: usize = 32;
/// Queries the closed phase keeps in flight: enough that neither worker
/// idles, well under the default queue capacity of 64.
pub const CLOSED_OUTSTANDING: usize = 8;
/// Queries in flight during `cold`'s probe passes: one per worker. With 8
/// the probes queued behind the restarted worker's first, slow queries,
/// and the 99th percentile moved 21 % between runs, against 12 % with 2.
pub const PROBE_OUTSTANDING: usize = 2;
/// Per-ring flight-recorder capacity of a traced fleet, large enough that
/// no event of a run is overwritten.
pub const TRACE_CAPACITY: usize = 1 << 18;
/// The device under test on `table1` and the two on `serve` are the same
/// on every run, so set-up repeats the same key generation; `cold`
/// derives its devices from the run's seed.
const TABLE1_DEVICE_SEED: u64 = 0x7AB1_E001;
const SERVE_DEVICE_SEEDS: [u64; 2] = [0x5E7E_0001, 0x5E7E_0002];
/// `cold`'s supervised fleet is the same on every run too (its replacement
/// devices follow from this seed); its fresh devices come from the run's.
const COLD_FLEET_SEED: u64 = 0xC01D_F1EE;
/// Probe passes over the inputs after each recovery on `cold`, so that
/// most probes reach a warm restarted worker.
const PROBE_PASSES: u64 = 2;
/// Fixed-seed devices `table1` and `serve` provision after their query
/// phases, beside their set-up devices, for `provision_ms`. The count is
/// fixed, not timed, so that every run measures the same keys (key
/// generation time differs from seed to seed).
const EXTRA_DEVICES: u64 = 24;
/// Share of a `table1` or `serve` run left to those devices (about 2.5 s
/// of a 30 s run at full host speed).
const PROVISION_SHARE: f64 = 0.1;
/// Keyword utterances per class: 10 classes, as in the paper's Table I
/// subset (`table1`, `cold`) or a few hundred distinct ones (`serve`).
fn per_class(w: Workload) -> usize {
    match w {
        Workload::Serve => 30,
        Workload::Table1 | Workload::Cold => 10,
    }
}

/// The benchmark's inputs: keyword utterances drawn from held-out
/// dataset indices chosen by the run's seed.
pub struct Inputs {
    pub utterances: Vec<Vec<i16>>,
}

fn inputs(seed: u64, per_class: usize) -> Inputs {
    let dataset = SyntheticSpeechCommands::new(0);
    let base = 2_000_000 + mix(seed) % 1_000_000_000;
    let utterances = (2..12)
        .flat_map(|class| (0..per_class).map(move |i| (class, base + i as u64)))
        .map(|(class, index)| dataset.utterance(class, index).expect("keyword class"))
        .collect();
    Inputs { utterances }
}

/// The checked-in `tiny_conv` Fast model.
pub fn load_model() -> Model {
    omg_bench::cached_tiny_conv(omg_bench::ModelKind::Fast)
}

/// A seeded visiting order over `n` inputs (Fisher–Yates).
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed ^ i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Host time of each protocol step of one fresh device.
#[derive(Debug, Clone, Copy)]
pub struct DeviceTimes {
    pub new: Duration,
    pub prepare: Duration,
    pub initialize: Duration,
    pub first_query: Duration,
}

impl DeviceTimes {
    pub fn total(&self) -> Duration {
        self.new + self.prepare + self.initialize + self.first_query
    }
}

/// One vendor, one user and one model cache, provisioning devices through
/// the public protocol calls.
pub struct Provisioner {
    vendor: Vendor,
    user: User,
    cache: ModelCache,
}

impl Provisioner {
    pub fn new(model: Model, seed: u64) -> Self {
        Provisioner {
            vendor: Vendor::new(
                mix(seed ^ 0x56),
                MODEL_ID,
                model,
                expected_enclave_measurement(),
            ),
            user: User::new(mix(seed ^ 0x55)),
            cache: ModelCache::new(),
        }
    }

    /// `OmgDevice::new`, `prepare`, `initialize_with_cache`, then the
    /// first query.
    pub fn device(
        &mut self,
        seed: u64,
        first: &[i16],
    ) -> Result<(OmgDevice, DeviceTimes, Transcription), OmgError> {
        let (device, new) = timed(|| OmgDevice::new(seed));
        let mut device = device?;
        let (r, prepare) = timed(|| device.prepare(&mut self.user, &mut self.vendor));
        r?;
        let (r, initialize) =
            timed(|| device.initialize_with_cache(&mut self.vendor, &mut self.cache));
        r?;
        let (t, first_query) = timed(|| device.classify_utterance(first));
        let times = DeviceTimes {
            new,
            prepare,
            initialize,
            first_query,
        };
        Ok((device, times, t?))
    }
}

/// The devices a run provisions through the public protocol calls: each
/// one's protocol-step times, and its `new`-to-first-answer time scaled by
/// the host speed sampled on this thread before and after it.
pub struct Devices {
    provisioner: Provisioner,
    pub times: Vec<DeviceTimes>,
    scaled_ms: Vec<f64>,
}

impl Devices {
    fn new(model: Model, vendor_seed: u64) -> Self {
        Devices {
            provisioner: Provisioner::new(model, vendor_seed),
            times: Vec::new(),
            scaled_ms: Vec::new(),
        }
    }

    /// Provisions a device on `seed` whose first query is input `input`,
    /// and checks that answer.
    fn add(
        &mut self,
        host: &HostSpeed,
        seed: u64,
        input: usize,
        inputs: &Inputs,
        oracle: &Oracle,
        report: &mut Report,
    ) -> Option<OmgDevice> {
        report.attempted += 1;
        let before = host.scale();
        match self.provisioner.device(seed, &inputs.utterances[input]) {
            Ok((device, times, t)) => {
                let scale = (before + host.scale()) / 2.0;
                report.check(checks::answer(
                    "first query",
                    input,
                    t.class_index,
                    &oracle.classes,
                ));
                self.scaled_ms.push(ms(times.total()) * scale);
                self.times.push(times);
                Some(device)
            }
            Err(e) => {
                report.failed += 1;
                report
                    .errors
                    .push(format!("provisioning on seed {seed:#x}: {e}"));
                None
            }
        }
    }

    /// `EXTRA_DEVICES` more devices on seeds after `seed`, dropped once
    /// provisioned, so that `provision_ms` is measured on every workload.
    fn add_extra(
        &mut self,
        host: &HostSpeed,
        seed: u64,
        inputs: &Inputs,
        oracle: &Oracle,
        report: &mut Report,
    ) {
        for i in 1..=EXTRA_DEVICES {
            let input = i as usize % inputs.utterances.len();
            self.add(host, seed.wrapping_add(i), input, inputs, oracle, report);
        }
    }

    /// `provision_ms`: the interquartile mean of the scaled times. Key
    /// generation time differs from seed to seed, so the median of a few
    /// dozen devices jumped between two of them from run to run.
    fn metric(&self, report: &mut Report) {
        if self.scaled_ms.is_empty() {
            report.errors.push("no device was provisioned".into());
        } else {
            let mean = interquartile_mean(&self.scaled_ms);
            report.metric("provision_ms", mean, "ms", self.scaled_ms.len());
        }
    }
}

/// Answers a run collected, for the query metrics, with host and virtual
/// times scaled to the reference host speed by the factor sampled before
/// each round (see [`HostSpeed`]).
#[derive(Debug)]
pub struct Answers {
    latency_ms: Vec<f64>,
    compute_ms: f64,
    count: u64,
    /// Scaled host seconds of the phase, for throughput.
    busy_s: f64,
    scale: f64,
}

impl Default for Answers {
    fn default() -> Self {
        Answers {
            latency_ms: Vec::new(),
            compute_ms: 0.0,
            count: 0,
            busy_s: 0.0,
            scale: 1.0,
        }
    }
}

impl Answers {
    fn add(&mut self, latency: Duration, t: &Transcription) {
        self.latency_ms.push(ms(latency) * self.scale);
        self.compute_ms += ms(t.compute) * self.scale;
        self.count += 1;
    }

    /// Starts a round whose answers are scaled by `scale`.
    fn round(&mut self, scale: f64) -> Instant {
        self.scale = scale;
        Instant::now()
    }

    /// Ends a round begun at `start`.
    fn end_round(&mut self, start: Instant) {
        self.busy_s += start.elapsed().as_secs_f64() * self.scale;
    }

    /// A call timed on its own, scaled by `scale`; its time is the busy
    /// time.
    fn add_call(&mut self, latency: Duration, t: &Transcription, scale: f64) {
        self.scale = scale;
        self.add(latency, t);
        self.busy_s += latency.as_secs_f64() * scale;
    }

    fn throughput(&self) -> f64 {
        self.count as f64 / self.busy_s
    }

    fn device_ms(&self) -> f64 {
        self.compute_ms / self.count as f64
    }
}

/// One answered fleet query, on the `monotonic_ns` clock of the flight
/// recorder (traced runs only).
#[derive(Debug, Clone, Copy)]
pub struct QuerySpan {
    pub seq: u64,
    pub submit_start_ns: u64,
    pub submit_end_ns: u64,
    pub answer_ns: u64,
}

/// What the benchmark did to one fleet, and what a traced run saw of it.
#[derive(Debug, Default)]
pub struct FleetLog {
    pub trace: bool,
    pub ledger: Ledger,
    pub queries: Vec<QuerySpan>,
    pub recover_ms: Vec<f64>,
    pub snapshot: Option<TraceSnapshot>,
}

/// What a traced run hands to the per-layer metrics besides its report.
#[derive(Debug, Default)]
pub struct Layers {
    pub devices: Vec<DeviceTimes>,
    pub fleet: Option<FleetLog>,
    pub charged_over_wall: Option<(Duration, Duration)>,
}

fn push_span(report: &mut Report, trace: bool, name: &'static str, id: u64, start_ns: u64) {
    if trace {
        report.spans.push(Span {
            name,
            id,
            start_ns,
            end_ns: monotonic_ns(),
        });
    }
}

/// Submits every input in `order` with `outstanding` queries in flight,
/// checking each answer against the oracle.
#[allow(clippy::too_many_arguments)]
fn closed_pass(
    handle: &ServeHandle,
    inputs: &Inputs,
    oracle: &Oracle,
    order: &[usize],
    outstanding: usize,
    log: &mut FleetLog,
    answers: &mut Answers,
    report: &mut Report,
) {
    let mut in_flight = VecDeque::with_capacity(outstanding);
    let mut next = order.iter();
    loop {
        while in_flight.len() < outstanding {
            let Some(&input) = next.next() else { break };
            report.attempted += 1;
            let seq = log.ledger.submitted;
            log.ledger.submitted += 1;
            let start_ns = if log.trace { monotonic_ns() } else { 0 };
            let start = Instant::now();
            match handle.submit(&inputs.utterances[input]) {
                Ok(p) => {
                    let end_ns = if log.trace { monotonic_ns() } else { 0 };
                    in_flight.push_back((input, seq, start, start_ns, end_ns, p));
                }
                Err(e) => {
                    report.failed += 1;
                    report.errors.push(format!("submit: {e}"));
                }
            }
        }
        let Some((input, seq, start, start_ns, end_ns, pending)) = in_flight.pop_front() else {
            break;
        };
        let result = pending.wait();
        let latency = start.elapsed();
        match result {
            Ok(t) => {
                if log.trace {
                    log.queries.push(QuerySpan {
                        seq,
                        submit_start_ns: start_ns,
                        submit_end_ns: end_ns,
                        answer_ns: monotonic_ns(),
                    });
                }
                log.ledger.answered += 1;
                report.check(checks::answer(
                    "fleet",
                    input,
                    t.class_index,
                    &oracle.classes,
                ));
                answers.add(latency, &t);
            }
            Err(e) => {
                report.failed += 1;
                report.errors.push(format!("query {seq}: {e}"));
            }
        }
    }
}

/// Drains a fleet and checks its books against the benchmark's own.
pub fn drain(handle: ServeHandle, log: &mut FleetLog, report: &mut Report) -> DrainedServe {
    let drained = handle.drain();
    report
        .errors
        .extend(checks::drained(&Books::of(&drained), &log.ledger, 2));
    if log.trace {
        match &drained.flight_trace {
            Some(t) if t.dropped == 0 && t.torn == 0 => {}
            Some(t) => report.errors.push(format!(
                "flight trace lost events: {} dropped, {} torn",
                t.dropped, t.torn
            )),
            None => report
                .errors
                .push("traced fleet has no flight trace".into()),
        }
        log.snapshot = drained.flight_trace.clone();
    }
    drained
}

/// A supervised 2-worker fleet that restarts a killed worker after a 1 ms
/// backoff, however often it dies.
pub fn supervised_fleet(
    model: Model,
    seed: u64,
    plan: &Arc<FaultPlan>,
    trace: bool,
) -> Result<ServeHandle, ServeError> {
    let config = ServeConfig {
        faults: Some(Arc::clone(plan)),
        recorder_capacity: trace.then_some(TRACE_CAPACITY),
        restart: Some(RestartPolicy {
            backoff_initial: Duration::from_millis(1),
            backoff_max: Duration::from_millis(1),
            max_restarts: u32::MAX,
            crash_loop_threshold: 3,
            stable_after: Duration::ZERO,
        }),
        ..ServeConfig::default()
    };
    ServeHandle::provision(2, config, MODEL_ID, model, seed)
}

/// One restart round: a scripted `WorkerPanic` kills whichever worker
/// takes the query; the caller times from the `WorkerPanicked` verdict
/// until every slot reads `Live`, then sends one probe pass.
#[allow(clippy::too_many_arguments)]
pub fn restart_round(
    handle: &ServeHandle,
    plan: &FaultPlan,
    inputs: &Inputs,
    oracle: &Oracle,
    probes: &[usize],
    log: &mut FleetLog,
    answers: &mut Answers,
    report: &mut Report,
) {
    report.attempted += 1;
    plan.fault_query(log.ledger.submitted, QueryFault::WorkerPanic);
    log.ledger.submitted += 1;
    let verdict = handle
        .submit(&inputs.utterances[probes[0]])
        .map(|p| p.wait());
    let verdict_ns = monotonic_ns();
    let down = Instant::now();
    if !matches!(verdict, Ok(Err(ServeError::WorkerPanicked))) {
        report.failed += 1;
        report
            .errors
            .push(format!("kill {}: {verdict:?}", log.ledger.killed));
        return;
    }
    log.ledger.killed += 1;
    while !handle
        .worker_health()
        .iter()
        .all(|h| *h == WorkerHealth::Live)
    {
        if down.elapsed() > Duration::from_secs(30) {
            report.failed += 1;
            report
                .errors
                .push(format!("no recovery 30 s after kill {}", log.ledger.killed));
            return;
        }
        std::thread::sleep(Duration::from_micros(50));
    }
    log.recover_ms.push(ms(down.elapsed()));
    push_span(
        report,
        log.trace,
        "omg-serve.recover",
        log.ledger.killed,
        verdict_ns,
    );
    closed_pass(
        handle,
        inputs,
        oracle,
        probes,
        PROBE_OUTSTANDING,
        log,
        answers,
        report,
    );
}

fn query_metrics(report: &mut Report, answers: &Answers) {
    let n = answers.latency_ms.len();
    if n == 0 {
        report.errors.push("no query was answered".into());
        return;
    }
    report.metric(
        "latency_p50_ms",
        percentile(&answers.latency_ms, 0.5),
        "ms",
        n,
    );
    report.metric(
        "latency_p99_ms",
        percentile(&answers.latency_ms, 0.99),
        "ms",
        n,
    );
    report.metric("device_ms_per_query", answers.device_ms(), "ms", n);
}

/// Runs one workload and returns its report: end-to-end metrics, or with
/// tracing the per-layer ones.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    // Input synthesis and the oracle come first and are not set-up time.
    let inputs = inputs(args.seed, per_class(args.workload));
    let model = load_model();
    let oracle = match Oracle::new(&model, &inputs.utterances) {
        Ok(o) => o,
        Err(e) => {
            report.errors.push(e);
            return report;
        }
    };
    let extractor = FeatureExtractor::new().expect("frontend plan");
    let program: Vec<Vec<i8>> = inputs
        .utterances
        .iter()
        .map(|u| extractor.fingerprint(u).expect("one-second utterance"))
        .collect();
    report.check(checks::fingerprints(&program, &oracle.fingerprints));

    let host = HostSpeed::default();
    let mut layers = match args.workload {
        Workload::Table1 => table1(args, &host, &inputs, &oracle, &mut report),
        Workload::Serve => serve(args, &host, &inputs, &oracle, &mut report),
        Workload::Cold => cold(args, &host, &inputs, &oracle, &mut report),
    };
    if args.trace {
        let traced_p50 = report
            .metrics
            .iter()
            .find(|m| m.name == "latency_p50_ms")
            .map(|m| (m.value, m.samples));
        report.metrics.clear();
        if let Some((value, n)) = traced_p50 {
            report.metric("traced.latency_p50_ms", value, "ms", n);
        }
        layers::measure(args, &model, &inputs, &oracle, &mut layers, &mut report);
    }
    report
}

/// Set-up time as a sum of segments, each scaled by the host speed
/// sampled when it began.
struct Setup {
    seconds: f64,
    scale: f64,
    start: Instant,
}

impl Setup {
    fn start(host: &HostSpeed) -> Setup {
        Setup {
            seconds: 0.0,
            scale: host.scale(),
            start: Instant::now(),
        }
    }

    /// Closes the current segment and opens the next.
    fn split(&mut self, host: &HostSpeed) {
        self.seconds += self.start.elapsed().as_secs_f64() * self.scale;
        self.scale = host.scale();
        self.start = Instant::now();
    }

    fn finish(mut self, host: &HostSpeed, report: &mut Report) {
        self.split(host);
        report.metric("setup_s", self.seconds, "s", 1);
    }
}

/// `table1`: one device provisioned once, then `classify_utterance` on
/// one utterance at a time, in seeded passes over the evaluation subset.
fn table1(
    args: &Args,
    host: &HostSpeed,
    inputs: &Inputs,
    oracle: &Oracle,
    report: &mut Report,
) -> Layers {
    let mut layers = Layers::default();
    let n = inputs.utterances.len();
    let mut setup = Setup::start(host);
    let mut devices = Devices::new(load_model(), TABLE1_DEVICE_SEED);
    setup.split(host);
    let Some(mut device) = devices.add(host, TABLE1_DEVICE_SEED, 0, inputs, oracle, report) else {
        return layers;
    };
    setup.split(host);
    for (input, u) in inputs.utterances.iter().enumerate() {
        match device.classify_utterance(u) {
            Ok(t) => report.check(checks::answer(
                "warm-up",
                input,
                t.class_index,
                &oracle.classes,
            )),
            Err(e) => report.errors.push(format!("warm-up: {e}")),
        }
    }
    setup.finish(host, report);

    let budget = Duration::from_secs_f64(args.seconds * (1.0 - PROVISION_SHARE));
    let mut answers = Answers::default();
    let (mut charged, mut wall) = (Duration::ZERO, Duration::ZERO);
    let start = Instant::now();
    let mut round = 0u64;
    while start.elapsed() < budget {
        // Each call is scaled by the host speed sampled on this thread
        // just before and just after it: the host changes speed within
        // tens of milliseconds, faster than a pass takes.
        let mut before = host.scale();
        for input in shuffled(n, args.seed ^ round) {
            report.attempted += 1;
            let start_ns = if args.trace { monotonic_ns() } else { 0 };
            let (result, latency) = timed(|| device.classify_utterance(&inputs.utterances[input]));
            let after = host.scale();
            push_span(
                report,
                args.trace,
                "omg-core.classify_utterance",
                input as u64,
                start_ns,
            );
            match result {
                Ok(t) => {
                    report.check(checks::answer(
                        "table1",
                        input,
                        t.class_index,
                        &oracle.classes,
                    ));
                    charged += t.compute;
                    wall += latency;
                    answers.add_call(latency, &t, (before + after) / 2.0);
                }
                Err(e) => {
                    report.failed += 1;
                    report.errors.push(format!("classify: {e}"));
                }
            }
            before = after;
        }
        round += 1;
    }
    query_metrics(report, &answers);
    report.metric(
        "throughput_qps",
        answers.throughput(),
        "queries/s",
        answers.latency_ms.len(),
    );
    devices.add_extra(host, TABLE1_DEVICE_SEED, inputs, oracle, report);
    devices.metric(report);
    layers.devices = devices.times;
    layers.charged_over_wall = Some((charged, wall));
    layers
}

/// `serve`: a 2-worker fleet with the flight recorder at its default, fed
/// seeded Poisson arrivals at a fixed rate (open phase, latency from each
/// query's due time) and then a fixed number of outstanding queries
/// (closed phase, throughput).
fn serve(
    args: &Args,
    host: &HostSpeed,
    inputs: &Inputs,
    oracle: &Oracle,
    report: &mut Report,
) -> Layers {
    let mut layers = Layers::default();
    let n = inputs.utterances.len();
    let mut setup = Setup::start(host);
    let mut devices = Devices::new(load_model(), SERVE_DEVICE_SEEDS[0]);
    let mut fleet = Vec::new();
    for (input, seed) in SERVE_DEVICE_SEEDS.into_iter().enumerate() {
        setup.split(host);
        match devices.add(host, seed, input, inputs, oracle, report) {
            Some(device) => fleet.push(device),
            None => return layers,
        }
    }
    // The fleet `ServeHandle::provision(2, ServeConfig::default(), ..)`
    // builds, with each device's protocol steps timed on the way.
    let config = ServeConfig {
        recorder_capacity: args.trace.then_some(TRACE_CAPACITY),
        ..ServeConfig::default()
    };
    let handle = match ServeHandle::start(fleet, config) {
        Ok(h) => h,
        Err(e) => {
            report.errors.push(format!("fleet start: {e}"));
            return layers;
        }
    };
    let mut log = FleetLog {
        trace: args.trace,
        ..FleetLog::default()
    };
    let mut warm = Answers::default();
    let warm_order: Vec<usize> = (0..n).collect();
    setup.split(host);
    closed_pass(
        &handle,
        inputs,
        oracle,
        &warm_order,
        CLOSED_OUTSTANDING,
        &mut log,
        &mut warm,
        report,
    );
    setup.finish(host, report);

    // The open phase's median is steady on fewer samples than the closed
    // phase's tail, so the closed phase gets the larger share.
    let phase = Duration::from_secs_f64(args.seconds * 0.4);
    let (open, lateness) = open_phase(
        &handle, host, inputs, oracle, args.seed, phase, &mut log, report,
    );
    let mut closed = Answers::default();
    let phase = Duration::from_secs_f64(args.seconds * (0.6 - PROVISION_SHARE));
    let start = Instant::now();
    let mut round = 0u64;
    while start.elapsed() < phase {
        let order = shuffled(n, args.seed ^ 0xC105ED ^ round);
        let round_start = closed.round(host.scale_both());
        closed_pass(
            &handle,
            inputs,
            oracle,
            &order,
            CLOSED_OUTSTANDING,
            &mut log,
            &mut closed,
            report,
        );
        closed.end_round(round_start);
        round += 1;
    }
    drain(handle, &mut log, report);
    devices.add_extra(host, SERVE_DEVICE_SEEDS[1], inputs, oracle, report);

    // The median comes from the open phase; the tail from the closed one,
    // where both workers stay busy. At light load the 99th percentile
    // measured how fast the shared host woke an idle core (README).
    query_metrics(report, &open);
    if !closed.latency_ms.is_empty() {
        report.set(
            "latency_p99_ms",
            percentile(&closed.latency_ms, 0.99),
            closed.latency_ms.len(),
        );
    }
    report.set(
        "device_ms_per_query",
        (open.compute_ms + closed.compute_ms) / (open.count + closed.count) as f64,
        (open.count + closed.count) as usize,
    );
    report.metric(
        "throughput_qps",
        closed.throughput(),
        "queries/s",
        closed.latency_ms.len(),
    );
    devices.metric(report);
    layers.devices = devices.times;
    if !lateness.is_empty() {
        eprintln!(
            "open phase: {} arrivals at {OPEN_RATE_QPS} q/s, generator lateness p50 {:.1} us, p99 {:.1} us",
            lateness.len(),
            percentile(&lateness, 0.5),
            percentile(&lateness, 0.99)
        );
    }
    layers.fleet = Some(log);
    layers
}

/// A submitted open-phase query.
struct Arrival {
    input: usize,
    due: Instant,
    seq: u64,
    start_ns: u64,
    end_ns: u64,
    pending: Pending,
}

/// The open phase: seeded Poisson arrivals at a fixed rate, in passes over
/// the inputs, each split into rounds of `OPEN_ROUND` arrivals. One thread
/// submits each query at its due time and, until the next one is due,
/// waits for the oldest outstanding answer (past the due time too while
/// `OPEN_IN_FLIGHT` are outstanding); latency runs from the due time.
/// Between rounds the fleet drains, the host speed is sampled on both
/// cores, and the arrival clock restarts. Returns the answers and the
/// generator's lateness in µs.
#[allow(clippy::too_many_arguments)]
fn open_phase(
    handle: &ServeHandle,
    host: &HostSpeed,
    inputs: &Inputs,
    oracle: &Oracle,
    seed: u64,
    phase: Duration,
    log: &mut FleetLog,
    report: &mut Report,
) -> (Answers, Vec<f64>) {
    let n = inputs.utterances.len();
    let mut lateness = Vec::new();
    let mut answers = Answers::default();
    let mut in_flight = VecDeque::new();
    let mut draw = mix(seed ^ 0x0BE7);
    let start = Instant::now();
    let mut round = 0u64;
    while start.elapsed() < phase {
        for chunk in shuffled(n, seed ^ 0x0BE7 ^ round).chunks(OPEN_ROUND) {
            let mut due = answers.round(host.scale_both());
            for &input in chunk {
                draw = mix(draw);
                let u = ((draw >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
                due += Duration::from_secs_f64(-u.ln() / OPEN_RATE_QPS);
                collect(&mut in_flight, Some(due), oracle, log, &mut answers, report);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                report.attempted += 1;
                let seq = log.ledger.submitted;
                log.ledger.submitted += 1;
                let start_ns = if log.trace { monotonic_ns() } else { 0 };
                lateness.push(due.elapsed().as_secs_f64() * 1e6);
                match handle.submit(&inputs.utterances[input]) {
                    Ok(pending) => {
                        let end_ns = if log.trace { monotonic_ns() } else { 0 };
                        in_flight.push_back(Arrival {
                            input,
                            due,
                            seq,
                            start_ns,
                            end_ns,
                            pending,
                        });
                    }
                    Err(e) => {
                        report.failed += 1;
                        report.errors.push(format!("submit: {e}"));
                    }
                }
            }
            collect(&mut in_flight, None, oracle, log, &mut answers, report);
        }
        round += 1;
    }
    (answers, lateness)
}

/// Takes answers oldest first until `until` passes and fewer than
/// `OPEN_IN_FLIGHT` are outstanding, or all of them.
fn collect(
    in_flight: &mut VecDeque<Arrival>,
    until: Option<Instant>,
    oracle: &Oracle,
    log: &mut FleetLog,
    answers: &mut Answers,
    report: &mut Report,
) {
    while let Some(Arrival {
        input,
        due,
        seq,
        start_ns,
        end_ns,
        pending,
    }) = in_flight.pop_front()
    {
        let result = match until {
            Some(until) if in_flight.len() + 1 < OPEN_IN_FLIGHT => {
                match pending.wait_deadline(until.saturating_duration_since(Instant::now())) {
                    Ok(result) => result,
                    Err(pending) => {
                        in_flight.push_front(Arrival {
                            input,
                            due,
                            seq,
                            start_ns,
                            end_ns,
                            pending,
                        });
                        return;
                    }
                }
            }
            _ => pending.wait(),
        };
        let latency = due.elapsed();
        match result {
            Ok(t) => {
                log.ledger.answered += 1;
                if log.trace {
                    log.queries.push(QuerySpan {
                        seq,
                        submit_start_ns: start_ns,
                        submit_end_ns: end_ns,
                        answer_ns: monotonic_ns(),
                    });
                }
                report.check(checks::answer(
                    "open phase",
                    input,
                    t.class_index,
                    &oracle.classes,
                ));
                answers.add(latency, &t);
            }
            Err(e) => {
                report.failed += 1;
                report.errors.push(format!("query {seq}: {e}"));
            }
        }
    }
}

/// `cold`: fresh devices provisioned one after another on never-used
/// seeds, then rounds of scripted kills against a supervised fleet.
fn cold(
    args: &Args,
    host: &HostSpeed,
    inputs: &Inputs,
    oracle: &Oracle,
    report: &mut Report,
) -> Layers {
    let mut layers = Layers::default();
    let n = inputs.utterances.len();
    let mut setup = Setup::start(host);
    let model = load_model();
    let mut devices = Devices::new(model.clone(), args.seed);
    let plan = Arc::new(FaultPlan::new());
    setup.split(host);
    let handle = match supervised_fleet(model, COLD_FLEET_SEED, &plan, args.trace) {
        Ok(h) => h,
        Err(e) => {
            report.errors.push(format!("fleet provisioning: {e}"));
            return layers;
        }
    };
    let mut log = FleetLog {
        trace: args.trace,
        ..FleetLog::default()
    };
    let probes: Vec<usize> = (0..n).collect();
    let mut warm = Answers::default();
    setup.split(host);
    closed_pass(
        &handle,
        inputs,
        oracle,
        &probes,
        PROBE_OUTSTANDING,
        &mut log,
        &mut warm,
        report,
    );
    setup.finish(host, report);

    // Fresh devices: every seed is new to the process, so the RSA key
    // memo never hits, as on real hardware.
    let phase = Duration::from_secs_f64(args.seconds / 2.0);
    let start = Instant::now();
    let mut i = 0u64;
    let seed_base = mix(args.seed ^ 0xC01D);
    while start.elapsed() < phase {
        let start_ns = if args.trace { monotonic_ns() } else { 0 };
        let input = (i as usize * 7) % n;
        devices.add(
            host,
            seed_base.wrapping_add(i),
            input,
            inputs,
            oracle,
            report,
        );
        push_span(report, args.trace, "omg-core.fresh_device", i, start_ns);
        i += 1;
    }

    // Restarts: each round kills a worker, waits for full capacity, then
    // probes the healed fleet; throughput counts the recovery time too.
    let mut probed = Answers::default();
    let start = Instant::now();
    let mut round = 0u64;
    while start.elapsed() < phase {
        let order: Vec<usize> = (0..PROBE_PASSES)
            .flat_map(|pass| shuffled(n, args.seed ^ 0x9E57 ^ (round * PROBE_PASSES + pass)))
            .collect();
        let round_start = probed.round(host.scale_both());
        restart_round(
            &handle,
            &plan,
            inputs,
            oracle,
            &order,
            &mut log,
            &mut probed,
            report,
        );
        probed.end_round(round_start);
        round += 1;
    }
    drain(handle, &mut log, report);

    query_metrics(report, &probed);
    report.metric(
        "throughput_qps",
        probed.throughput(),
        "queries/s",
        probed.latency_ms.len(),
    );
    devices.metric(report);
    layers.devices = devices.times;
    eprintln!(
        "cold: {} fresh devices, {} kills, recovery p50 {:.1} ms",
        layers.devices.len(),
        log.ledger.killed,
        if log.recover_ms.is_empty() {
            f64::NAN
        } else {
            percentile(&log.recover_ms, 0.5)
        }
    );
    layers.fleet = Some(log);
    layers
}
