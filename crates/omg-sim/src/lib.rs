//! `omg-sim`: a deterministic fleet chaos harness.
//!
//! The paper's security argument (§V: enclave-isolated inference that
//! stays safe under an adversarial normal world) is only as strong as the
//! fleet's behavior under faults. This crate drives a **real**
//! [`omg_serve::ServeHandle`] fleet — fully provisioned enclave devices,
//! real worker threads, the real admission queue — through *scenarios as
//! data*: each [`Scenario`] is a script of fault injections (worker panic
//! mid-query, device crash, scripted stalls, saturation bursts, drain
//! under load, tampered provisioning) executed by one engine,
//! [`Scenario::run`]. Adding a new fault mode is one declaration, not a
//! new test file.
//!
//! # Determinism
//!
//! Everything the scenario observes is derived from its seed: utterance
//! picks come from a seeded [`rand::rngs::StdRng`]; faults are keyed by
//! *submission sequence number* (admission order), not wall-clock time or
//! worker identity; the pause gate pins queue depths before bursts; and
//! the event trace records per-query *outcomes in submission order* (never
//! latencies or worker ids). Same scenario + same seed ⇒ byte-identical
//! [`SimReport::trace`], so every failure ships with a one-line
//! reproducer (see [`SimReport::reproducer`]).
//!
//! # Invariant suite
//!
//! After **every** run — whatever the scenario scripted — the engine
//! checks a fixed suite:
//!
//! 1. **No hung waiters**: every admitted `Pending` ticket resolves.
//! 2. **Drain terminates** (watchdog-bounded).
//! 3. **Accounting identity**: `completed + rejected + failed + shed +
//!    discarded == submitted`, exactly.
//! 4. **Per-worker counts** sum to `completed`, exactly — the per-slot
//!    counters live in shared state, so even a worker that panicked (or
//!    was restarted by the supervisor) leaves its completions behind.
//! 5. **Correct answers**: every successful response matches the ground
//!    truth computed on an isolated reference device — including answers
//!    from supervisor-re-provisioned replacement devices, which must be
//!    bit-identical to the reference.
//! 6. **Arenas scrubbed** on every surviving device.
//! 7. **No plaintext model bytes** in any device's untrusted storage
//!    (16-byte-window scan, as in the omg-serve stress suite).
//! 8. **Worker conservation**: surviving devices + worker errors == the
//!    fleet size.
//! 9. **Capacity convergence** (supervised scenarios only): when a
//!    [`RestartPolicy`] is installed and no slot ended quarantined, the
//!    fleet must converge back to its target capacity — every death
//!    restarted, no terminal worker errors, all devices back at drain.
//!
//! # Replaying a failure
//!
//! ```text
//! OMG_SIM_SEEDS=1337 cargo test -p omg-sim
//! ```
//!
//! [`SimReport::assert_clean`] panics with the scenario script and the
//! seed, so the line above reproduces the identical event trace.

#![warn(missing_docs)]

pub mod catalog;

use std::fmt;
use std::sync::mpsc;
use std::time::Duration;

use omg_core::session::provision_devices;
use omg_core::{OmgDevice, OmgError, User, Vendor};
use omg_nn::model::{Activation, Model, Op, Padding};
use omg_nn::quantize::QuantParams;
use omg_nn::tensor::DType;
use omg_obs::TraceSnapshot;
use omg_serve::fault::{FaultPlan, QueryFault};
use omg_serve::{
    DrainedServe, HangPolicy, Pending, RestartPolicy, ServeConfig, ServeError, ServeHandle,
    WorkerHealth,
};
use omg_speech::dataset::SyntheticSpeechCommands;
use omg_speech::frontend::FINGERPRINT_LEN;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use std::sync::Arc;

/// How long the engine will wait on any single ticket before declaring a
/// hung waiter — generous against CI jitter, tiny against a real hang.
const TICKET_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a drain may take before the watchdog declares it hung.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// How the fleet's devices are provisioned before serving starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provisioning {
    /// The genuine OMG runtime and an untampered sealed model.
    Genuine,
    /// The enclave runtime image is tampered before preparation: vendor
    /// attestation must reject it (the scenario then serves on a genuine
    /// fleet so the full invariant suite still runs).
    TamperedRuntimeImage,
    /// The sealed (encrypted) model blob is tampered in untrusted storage
    /// before initialization: authenticated decryption must reject it.
    TamperedSealedModel,
}

/// One scripted action in a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Close the pause gate: each worker parks right after its next
    /// dequeue, holding exactly one job.
    Pause,
    /// Open the gate, releasing every parked worker.
    Resume,
    /// Block until `n` workers are parked at the gate (requires a
    /// preceding [`Step::Pause`] and enough submitted jobs to hold).
    AwaitParked(usize),
    /// Schedule a fault for the query with submission seq `query`.
    Fault {
        /// Submission sequence number (0-based admission order).
        query: u64,
        /// The fault to inject while that query is served.
        fault: QueryFault,
    },
    /// Submit `count` queries (utterances picked by the seeded RNG).
    Submit {
        /// Number of queries to submit.
        count: usize,
    },
    /// Submit `count` queries carrying a latency budget (deadline).
    SubmitWithBudget {
        /// Number of queries to submit.
        count: usize,
        /// Each query's latency budget ([`ServeError::Expired`] when the
        /// queue outlasts it).
        budget: Duration,
    },
    /// Block until the fleet has settled: every submission so far has
    /// reached a terminal outcome (the accounting identity balances), the
    /// queue is empty, and no worker slot is mid-recovery (`Down` /
    /// `Restarting` / `Hung`). This is what makes supervised scenarios
    /// deterministic: after it, restart counts and fleet health are fixed
    /// facts, not races against the supervisor thread.
    AwaitSettled,
    /// Release the fault plan's hang gate (one-way): every wedged zombie
    /// thread wakes, serves its long-preempted query, loses the fill race,
    /// and exits. Scenarios that scripted a [`QueryFault::Hang`] use this
    /// to prove the zombie publishes nothing.
    WakeHung,
    /// Block until at least `n` preempted zombie completions have been
    /// discarded ([`omg_serve::ServeStats::zombie_discards`] ≥ `n`) —
    /// the observable proof that a woken zombie lost the fill race.
    AwaitZombies(u64),
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Pause => write!(f, "pause"),
            Step::Resume => write!(f, "resume"),
            Step::AwaitParked(n) => write!(f, "await-parked {n}"),
            Step::Fault { query, fault } => write!(f, "fault seq={query} {fault:?}"),
            Step::Submit { count } => write!(f, "submit {count}"),
            Step::SubmitWithBudget { count, budget } => {
                write!(f, "submit {count} budget={budget:?}")
            }
            Step::AwaitSettled => write!(f, "await-settled"),
            Step::WakeHung => write!(f, "wake-hung"),
            Step::AwaitZombies(n) => write!(f, "await-zombies {n}"),
        }
    }
}

/// Which model the scenario's fleet serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimModel {
    /// The frequency-band-selective FC model (cheap; one dot product per
    /// class).
    BandSelective,
    /// A conv-heavy model: the paper's `tiny_conv` geometry (8 filters of
    /// 10×8, stride 2, SAME) over the 49×43 fingerprint, feeding an FC to
    /// the 12 labels. Its im2col GEMM (550×8 over k=80) clears the
    /// row-panel threading thresholds, so with a kernel thread budget > 1
    /// every query runs scoped worker threads inside the serving worker.
    ConvHeavy,
}

/// A scripted chaos scenario: fleet shape + provisioning mode + a list of
/// timed fault-injection steps. Build with the fluent methods, execute
/// with [`Scenario::run`].
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (used in reports and reproducers).
    pub name: &'static str,
    /// Worker / device count.
    pub workers: usize,
    /// Admission-queue capacity.
    pub queue_capacity: usize,
    /// How devices are provisioned (see [`Provisioning`]).
    pub provisioning: Provisioning,
    /// The model the fleet serves (see [`SimModel`]).
    pub model: SimModel,
    /// GEMM kernel thread budget installed for the run (1 = inference
    /// stays single-threaded inside each serving worker).
    pub kernel_threads: usize,
    /// When set, dead workers are re-provisioned and restarted under this
    /// policy (retired `Dead` without it), and the engine checks the
    /// capacity convergence invariant after drain.
    pub restart: Option<RestartPolicy>,
    /// When set, the supervisor's liveness watchdog runs under this policy:
    /// wedged workers are preempted ([`ServeError::Hung`] to the waiter)
    /// and their slots re-provisioned (retired `Dead` without
    /// [`Scenario::restart`]).
    pub hang: Option<HangPolicy>,
    /// The script.
    pub steps: Vec<Step>,
}

impl Scenario {
    /// A new scenario with `workers` devices and the default queue
    /// capacity (16), genuinely provisioned, with an empty script.
    pub fn new(name: &'static str, workers: usize) -> Self {
        Scenario {
            name,
            workers,
            queue_capacity: 16,
            provisioning: Provisioning::Genuine,
            model: SimModel::BandSelective,
            kernel_threads: 1,
            restart: None,
            hang: None,
            steps: Vec::new(),
        }
    }

    /// Sets the admission-queue capacity.
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the model the fleet serves.
    #[must_use]
    pub fn model(mut self, model: SimModel) -> Self {
        self.model = model;
        self
    }

    /// Sets the GEMM kernel thread budget for the run (restored to its
    /// previous value afterwards).
    #[must_use]
    pub fn kernel_threads(mut self, threads: usize) -> Self {
        self.kernel_threads = threads;
        self
    }

    /// Sets the provisioning mode.
    #[must_use]
    pub fn provisioning(mut self, provisioning: Provisioning) -> Self {
        self.provisioning = provisioning;
        self
    }

    /// Restarts lost workers under `policy` (see
    /// [`omg_serve::RestartPolicy`]).
    #[must_use]
    pub fn restart(mut self, policy: RestartPolicy) -> Self {
        self.restart = Some(policy);
        self
    }

    /// Enables the liveness watchdog under `policy` (see
    /// [`omg_serve::HangPolicy`]).
    #[must_use]
    pub fn hang(mut self, policy: HangPolicy) -> Self {
        self.hang = Some(policy);
        self
    }

    /// Appends a [`Step::Pause`].
    #[must_use]
    pub fn pause(mut self) -> Self {
        self.steps.push(Step::Pause);
        self
    }

    /// Appends a [`Step::Resume`].
    #[must_use]
    pub fn resume(mut self) -> Self {
        self.steps.push(Step::Resume);
        self
    }

    /// Appends a [`Step::AwaitParked`].
    #[must_use]
    pub fn await_parked(mut self, n: usize) -> Self {
        self.steps.push(Step::AwaitParked(n));
        self
    }

    /// Appends a [`Step::Fault`].
    #[must_use]
    pub fn fault(mut self, query: u64, fault: QueryFault) -> Self {
        self.steps.push(Step::Fault { query, fault });
        self
    }

    /// Appends a [`Step::Submit`].
    #[must_use]
    pub fn submit(mut self, count: usize) -> Self {
        self.steps.push(Step::Submit { count });
        self
    }

    /// Appends a [`Step::SubmitWithBudget`].
    #[must_use]
    pub fn submit_with_budget(mut self, count: usize, budget: Duration) -> Self {
        self.steps.push(Step::SubmitWithBudget { count, budget });
        self
    }

    /// Appends a [`Step::AwaitSettled`].
    #[must_use]
    pub fn await_settled(mut self) -> Self {
        self.steps.push(Step::AwaitSettled);
        self
    }

    /// Appends a [`Step::WakeHung`].
    #[must_use]
    pub fn wake_hung(mut self) -> Self {
        self.steps.push(Step::WakeHung);
        self
    }

    /// Appends a [`Step::AwaitZombies`].
    #[must_use]
    pub fn await_zombies(mut self, n: u64) -> Self {
        self.steps.push(Step::AwaitZombies(n));
        self
    }

    /// Renders the script, one step per line — what a failure report
    /// prints as the reproducer.
    pub fn script(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "scenario {:?}: workers={} queue_capacity={} provisioning={:?} model={:?} kernel_threads={}",
            self.name,
            self.workers,
            self.queue_capacity,
            self.provisioning,
            self.model,
            self.kernel_threads
        );
        // Only rendered for supervised scenarios, so every pre-supervision
        // script (and its recorded trace) stays byte-identical.
        if let Some(policy) = &self.restart {
            let _ = writeln!(out, "  restart: {policy:?}");
        }
        if let Some(policy) = &self.hang {
            let _ = writeln!(out, "  hang: {policy:?}");
        }
        for (i, step) in self.steps.iter().enumerate() {
            let _ = writeln!(out, "  {i:>2}. {step}");
        }
        out
    }

    /// Executes the scenario against a real fleet and checks the full
    /// invariant suite. Never panics on scenario failure — violations are
    /// collected in the report (see [`SimReport::assert_clean`]).
    pub fn run(&self, seed: u64) -> SimReport {
        Engine::new(self, seed).run()
    }
}

/// The outcome of one [`Scenario::run`].
#[derive(Debug)]
pub struct SimReport {
    /// Scenario name.
    pub name: &'static str,
    /// The seed this run used.
    pub seed: u64,
    /// The deterministic event trace: scripted steps, per-query admission
    /// results and outcomes (in submission order), and the final
    /// accounting line. Same scenario + same seed ⇒ identical trace.
    pub trace: Vec<String>,
    /// Invariant violations found after the run; empty on a clean run.
    pub violations: Vec<String>,
    /// The rendered script + seed (one-line reproducer material).
    pub script: String,
    /// What drain returned, when it terminated in time.
    pub drained: Option<DrainedServe>,
    /// Merged time-ordered flight-recorder snapshot, taken from a recorder
    /// handle cloned **before** drain — so it survives even a drain that
    /// hangs or a fleet that died. Timestamps make it non-deterministic;
    /// the replay-equality guarantee covers [`Self::trace`] only.
    pub flight_trace: Option<TraceSnapshot>,
    /// Final metrics snapshot (the serve registry + global registry as
    /// JSON), when drain terminated in time.
    pub metrics_json: Option<String>,
}

impl SimReport {
    /// Whether every invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The copy-paste command that replays this exact run.
    pub fn reproducer(&self) -> String {
        format!("OMG_SIM_SEEDS={} cargo test -p omg-sim", self.seed)
    }

    /// Panics with the scenario script, seed, reproducer, and the tail of
    /// the flight-recorder trace if any invariant was violated — the
    /// failure mode CI prints, so a chaos failure ships with the last
    /// thing every worker was doing.
    pub fn assert_clean(&self) {
        if self.is_clean() {
            return;
        }
        let trace_tail = match &self.flight_trace {
            Some(snapshot) => snapshot.render_tail(40),
            None => "flight recorder: disabled".to_string(),
        };
        panic!(
            "scenario {:?} (seed {}) violated {} invariant(s):\n  - {}\n\nscript:\n{}\n{}\nreproduce with: {}\n",
            self.name,
            self.seed,
            self.violations.len(),
            self.violations.join("\n  - "),
            self.script,
            trace_tail,
            self.reproducer(),
        );
    }
}

/// A frequency-band-selective FC model over the 49×43 fingerprint: output
/// `r` sums the energy in frequency band `r`, so utterances of different
/// synthetic words (distinct formant tracks) map to *different* classes —
/// a cross-wired or residue-contaminated response cannot hide behind a
/// constant prediction.
fn band_selective_model() -> Model {
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
    let mut w = vec![0i8; 12 * FINGERPRINT_LEN];
    for r in 0..12 {
        for t in 0..49 {
            for c in 0..43 {
                if c * 12 / 43 == r {
                    w[r * FINGERPRINT_LEN + t * 43 + c] = 4;
                }
            }
        }
    }
    let wt = b.add_weight_i8(
        "w",
        vec![12, FINGERPRINT_LEN],
        w,
        QuantParams::symmetric(0.01),
    );
    let bias = b.add_weight_i32("b", vec![12], vec![0; 12]);
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
        filter: wt,
        bias,
        output: out,
        activation: Activation::None,
    });
    b.set_input(input);
    b.set_output(out);
    b.set_labels(omg_speech::dataset::LABELS);
    b.build().expect("band-selective model builds")
}

/// A conv-heavy keyword model with the paper's `tiny_conv` geometry: 8
/// filters of 10×8 (stride 2×2, SAME, ReLU) over the 49×43 fingerprint,
/// then an FC onto the 12 labels. Still band-selective end to end: each
/// conv channel samples a distinct tap phase with positive weights (so
/// channel energy is monotone in window energy), and FC row `r` sums the
/// conv columns that fold back onto frequency band `r` — distinct formant
/// tracks still map to distinct classes.
///
/// The point of the geometry is the im2col GEMM it lowers to: m=550
/// output cells × n=8 channels × k=80 taps clears both row-panel
/// threading thresholds, so a kernel thread budget > 1 makes every query
/// spawn scoped GEMM threads *inside* the serving worker.
fn conv_heavy_model() -> Model {
    let mut b = Model::builder();
    let input = b.add_activation(
        "in",
        vec![1, 49, 43, 1],
        DType::I8,
        Some(QuantParams {
            scale: 1.0 / 255.0,
            zero_point: -128,
        }),
    );
    let mut cw = vec![0i8; 8 * 10 * 8];
    for ch in 0..8 {
        for kh in 0..10 {
            for kw in 0..8 {
                if (kh + kw) % 8 == ch {
                    cw[ch * 80 + kh * 8 + kw] = 3;
                }
            }
        }
    }
    let cwt = b.add_weight_i8(
        "conv/w",
        vec![8, 10, 8, 1],
        cw,
        QuantParams::symmetric(0.02),
    );
    let cb = b.add_weight_i32("conv/b", vec![8], vec![0; 8]);
    let conv = b.add_activation(
        "conv",
        vec![1, 25, 22, 8],
        DType::I8,
        Some(QuantParams {
            scale: 0.01,
            zero_point: -128,
        }),
    );
    b.add_op(Op::Conv2D {
        input,
        filter: cwt,
        bias: cb,
        output: conv,
        stride_h: 2,
        stride_w: 2,
        padding: Padding::Same,
        activation: Activation::Relu,
    });
    let conv_len = 25 * 22 * 8;
    let mut w = vec![0i8; 12 * conv_len];
    for r in 0..12 {
        for oh in 0..25 {
            for ow in 0..22 {
                // Conv column `ow` covers input columns starting near
                // `2*ow`; fold it back onto its frequency band.
                if (ow * 2).min(42) * 12 / 43 == r {
                    for ch in 0..8 {
                        w[r * conv_len + (oh * 22 + ow) * 8 + ch] = 2;
                    }
                }
            }
        }
    }
    let wt = b.add_weight_i8("fc/w", vec![12, conv_len], w, QuantParams::symmetric(0.01));
    let bias = b.add_weight_i32("fc/b", vec![12], vec![0; 12]);
    let out = b.add_activation(
        "logits",
        vec![1, 12],
        DType::I8,
        Some(QuantParams {
            scale: 0.1,
            zero_point: 0,
        }),
    );
    b.add_op(Op::FullyConnected {
        input: conv,
        filter: wt,
        bias,
        output: out,
        activation: Activation::None,
    });
    b.set_input(input);
    b.set_output(out);
    b.set_labels(omg_speech::dataset::LABELS);
    b.build().expect("conv-heavy model builds")
}

/// One submission's bookkeeping: which utterance was sent and how to
/// redeem the answer.
struct Ticket {
    seq: u64,
    pick: usize,
    waiter: Option<Pending>,
    admission: Option<ServeError>,
}

struct Engine<'s> {
    scenario: &'s Scenario,
    seed: u64,
    rng: StdRng,
    trace: Vec<String>,
    violations: Vec<String>,
}

impl<'s> Engine<'s> {
    fn new(scenario: &'s Scenario, seed: u64) -> Self {
        Engine {
            scenario,
            seed,
            rng: StdRng::seed_from_u64(seed),
            trace: Vec::new(),
            violations: Vec::new(),
        }
    }

    fn event(&mut self, line: String) {
        self.trace.push(line);
    }

    fn violation(&mut self, line: String) {
        self.violations.push(line);
    }

    /// Provisioning-attack preamble: attempt the scripted tampered
    /// provisioning and record that the protocol rejected it. The scenario
    /// then proceeds on a genuine fleet so every other invariant is still
    /// exercised.
    fn run_provisioning_attack(&mut self, model: &Model) {
        match self.scenario.provisioning {
            Provisioning::Genuine => {}
            Provisioning::TamperedRuntimeImage => {
                let mut device = OmgDevice::new(self.seed ^ 0x7441_4D50).expect("device");
                let mut user = User::new(self.seed ^ 1);
                let mut vendor = Vendor::new(
                    self.seed ^ 2,
                    "kws",
                    model.clone(),
                    omg_core::device::expected_enclave_measurement(),
                );
                let mut evil = omg_core::device::omg_enclave_image();
                evil[64] ^= 0x01;
                match device.prepare_with_image(&mut user, &mut vendor, evil) {
                    Err(OmgError::Sanctuary(_)) => self
                        .event("provision: tampered runtime image rejected by attestation".into()),
                    Err(e) => self.violation(format!(
                        "tampered runtime rejected with the wrong error: {e:?}"
                    )),
                    Ok(()) => self.violation("tampered runtime image passed attestation".into()),
                }
                // A rejected enclave must leave a genuinely fresh device.
                if device.phase() != omg_core::device::DevicePhase::Fresh {
                    self.violation("rejected preparation left a non-fresh device".into());
                }
            }
            Provisioning::TamperedSealedModel => {
                let mut device = OmgDevice::new(self.seed ^ 0x5345_414C).expect("device");
                let mut user = User::new(self.seed ^ 3);
                let mut vendor = Vendor::new(
                    self.seed ^ 4,
                    "kws",
                    model.clone(),
                    omg_core::device::expected_enclave_measurement(),
                );
                device
                    .prepare(&mut user, &mut vendor)
                    .expect("genuine preparation succeeds");
                device
                    .storage_mut()
                    .tamper("kws")
                    .expect("stored package present")
                    .ciphertext[17] ^= 0x80;
                match device.initialize(&mut vendor) {
                    Err(OmgError::RollbackDetected) => self.event(
                        "provision: tampered sealed model rejected by authenticated decryption"
                            .into(),
                    ),
                    Err(e) => self.violation(format!(
                        "tampered sealed model rejected with the wrong error: {e:?}"
                    )),
                    Ok(()) => self.violation("tampered sealed model decrypted successfully".into()),
                }
            }
        }
    }

    fn run(mut self) -> SimReport {
        let model = match self.scenario.model {
            SimModel::BandSelective => band_selective_model(),
            SimModel::ConvHeavy => conv_heavy_model(),
        };
        // Install the scenario's GEMM thread budget for the whole run
        // (ground truth included — the threaded path is bit-exact, so this
        // cannot skew the comparison) and restore it afterwards.
        let prev_budget = omg_nn::gemm::set_thread_budget(self.scenario.kernel_threads);

        self.run_provisioning_attack(&model);

        // Ground truth on an isolated reference device: the pool spans
        // multiple classes, so a cross-wired response cannot hide.
        let data = SyntheticSpeechCommands::new(900);
        let pool: Vec<Vec<i16>> = (0..12)
            .map(|i| data.utterance(2 + i % 10, i as u64).expect("utterance"))
            .collect();
        let mut reference = provision_devices(1, "kws", model.clone(), self.seed ^ 0x5245_4600)
            .expect("reference device")
            .pop()
            .expect("one device");
        let expected: Vec<(usize, std::sync::Arc<str>)> = pool
            .iter()
            .map(|samples| {
                let t = reference
                    .classify_utterance(samples)
                    .expect("reference classification");
                (t.class_index, t.label)
            })
            .collect();

        // The fleet under test, with the chaos seam installed.
        let plan = Arc::new(FaultPlan::new());
        let handle = ServeHandle::provision(
            self.scenario.workers,
            ServeConfig {
                queue_capacity: self.scenario.queue_capacity,
                slo: None,
                faults: Some(Arc::clone(&plan)),
                restart: self.scenario.restart.clone(),
                hang: self.scenario.hang.clone(),
                // Forced on (not env-dependent): every chaos failure must
                // be able to dump a merged trace of what the fleet did.
                recorder_capacity: Some(1024),
            },
            "kws",
            model.clone(),
            self.seed,
        )
        .expect("fleet provisions");

        // Execute the script.
        let mut tickets: Vec<Ticket> = Vec::new();
        for step in &self.scenario.steps {
            self.trace.push(format!("step: {step}"));
            match step {
                Step::Pause => plan.pause(),
                Step::Resume => plan.resume(),
                Step::AwaitParked(n) => plan.await_parked(*n),
                Step::Fault { query, fault } => plan.fault_query(*query, fault.clone()),
                Step::Submit { count } => {
                    for _ in 0..*count {
                        let seq = tickets.len() as u64;
                        let pick = self.rng.gen_range(0..pool.len());
                        let (waiter, admission) = match handle.submit(&pool[pick]) {
                            Ok(p) => (Some(p), None),
                            Err(e) => (None, Some(e)),
                        };
                        self.trace.push(admission_line(seq, pick, &admission));
                        tickets.push(Ticket {
                            seq,
                            pick,
                            waiter,
                            admission,
                        });
                    }
                }
                Step::SubmitWithBudget { count, budget } => {
                    for _ in 0..*count {
                        let seq = tickets.len() as u64;
                        let pick = self.rng.gen_range(0..pool.len());
                        let (waiter, admission) =
                            match handle.submit_with_deadline(&pool[pick], *budget) {
                                Ok(p) => (Some(p), None),
                                Err(e) => (None, Some(e)),
                            };
                        self.trace.push(admission_line(seq, pick, &admission));
                        tickets.push(Ticket {
                            seq,
                            pick,
                            waiter,
                            admission,
                        });
                    }
                }
                Step::AwaitSettled => {
                    let deadline = std::time::Instant::now() + TICKET_TIMEOUT;
                    loop {
                        let s = handle.stats();
                        let books_balance =
                            s.completed + s.rejected + s.failed + s.shed + s.discarded
                                == s.submitted;
                        let recovering = handle.worker_health().iter().any(|h| {
                            matches!(
                                h,
                                WorkerHealth::Down | WorkerHealth::Restarting | WorkerHealth::Hung
                            )
                        });
                        if books_balance && s.queued == 0 && !recovering {
                            break;
                        }
                        if std::time::Instant::now() >= deadline {
                            self.violations.push(format!(
                                "await-settled: fleet did not settle within {TICKET_TIMEOUT:?} \
                                 (queued={}, identity gap={}, recovering={recovering})",
                                s.queued,
                                s.submitted
                                    - (s.completed + s.rejected + s.failed + s.shed + s.discarded),
                            ));
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                Step::WakeHung => plan.wake_hung(),
                Step::AwaitZombies(n) => {
                    let deadline = std::time::Instant::now() + TICKET_TIMEOUT;
                    loop {
                        let discards = handle.stats().zombie_discards;
                        if discards >= *n {
                            break;
                        }
                        if std::time::Instant::now() >= deadline {
                            self.violations.push(format!(
                                "await-zombies: {discards} zombie discard(s) after \
                                 {TICKET_TIMEOUT:?}, wanted {n}"
                            ));
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            }
        }

        // Supervised scenarios record the recovery tally in the
        // deterministic trace (they settle first via `await_settled`, so
        // these are fixed facts, not races against the supervisor).
        if self.scenario.restart.is_some() {
            let s = handle.stats();
            self.trace.push(format!(
                "recovery: restarts={} quarantined={} retried={} hung={} health={:?}",
                s.restarts,
                s.quarantined,
                s.retried,
                s.hung,
                handle.health()
            ));
        }

        // Hygiene before drain: release any still-wedged zombies (one-way,
        // a no-op when the script already did or nothing ever hung) so the
        // detached threads can exit instead of leaking a parked wait. Their
        // late completions lose the fill race and publish nothing, so the
        // deterministic trace is unaffected.
        plan.wake_hung();

        // Clone the recorder handle *before* the serve handle moves into
        // the drainer thread: if drain hangs, the post-mortem trace is
        // still reachable.
        let recorder = handle.recorder();

        // Invariant 2: drain terminates (watchdog-bounded). The drain runs
        // on a helper thread so a hang is a report line, not a hung suite.
        let (tx, rx) = mpsc::channel();
        let drainer = std::thread::spawn(move || {
            let _ = tx.send(handle.drain());
        });
        let drained = match rx.recv_timeout(DRAIN_TIMEOUT) {
            Ok(d) => {
                let _ = drainer.join();
                Some(d)
            }
            Err(_) => {
                self.violation(format!("drain did not terminate within {DRAIN_TIMEOUT:?}"));
                None
            }
        };
        let flight_trace = recorder.as_ref().map(|r| r.snapshot());
        let metrics_json = drained.as_ref().map(|d| d.metrics_json.clone());

        // Invariant 1 + 5: every ticket resolves, and successful answers
        // match the reference. Outcomes are traced in submission order, so
        // the trace is independent of completion interleaving.
        for ticket in tickets.iter_mut() {
            let outcome = match (ticket.waiter.take(), &ticket.admission) {
                (None, Some(err)) => format!("rejected at admission ({})", error_tag(err)),
                (Some(pending), _) => match pending.wait_deadline(TICKET_TIMEOUT) {
                    Ok(Ok(t)) => {
                        let (want_class, want_label) = &expected[ticket.pick];
                        if t.class_index != *want_class || t.label != *want_label {
                            self.violations.push(format!(
                                "seq {}: wrong answer: got class {} ({}), want {} ({})",
                                ticket.seq, t.class_index, t.label, want_class, want_label
                            ));
                        }
                        format!("ok class={} label={}", t.class_index, t.label)
                    }
                    Ok(Err(e)) => error_tag(&e).to_string(),
                    Err(_) => {
                        self.violations.push(format!(
                            "seq {}: ticket never resolved (hung waiter)",
                            ticket.seq
                        ));
                        "HUNG".into()
                    }
                },
                (None, None) => unreachable!("ticket without waiter or admission error"),
            };
            self.trace
                .push(format!("outcome seq={}: {outcome}", ticket.seq));
        }

        // Invariants 3, 4, 6, 7, 8 need the drained fleet.
        if let Some(drained) = &drained {
            let s = &drained.stats;
            self.trace.push(format!(
                "accounting: submitted={} completed={} rejected={} failed={} shed={} discarded={} queued={}",
                s.submitted, s.completed, s.rejected, s.failed, s.shed, s.discarded, s.queued
            ));
            let mut errors: Vec<&'static str> =
                drained.worker_errors.iter().map(error_tag).collect();
            errors.sort_unstable();
            self.trace.push(format!(
                "drain: healthy={} surviving_devices={} worker_errors={errors:?}",
                drained.is_healthy(),
                drained.devices.len(),
            ));

            if s.completed + s.rejected + s.failed + s.shed + s.discarded != s.submitted {
                self.violations.push(format!(
                    "accounting identity violated: {} + {} + {} + {} + {} != {}",
                    s.completed, s.rejected, s.failed, s.shed, s.discarded, s.submitted
                ));
            }
            if s.submitted != tickets.len() as u64 {
                self.violations.push(format!(
                    "runtime saw {} submissions, driver made {}",
                    s.submitted,
                    tickets.len()
                ));
            }
            if s.queued != 0 {
                self.violations
                    .push(format!("{} jobs still queued after drain", s.queued));
            }
            // Per-slot served counters live in shared state and survive
            // panics and supervisor restarts, so the sum is *exactly* the
            // completed count — for dirty drains too.
            let per_worker: u64 = drained.served_per_worker.iter().sum();
            if per_worker != s.completed {
                self.violations.push(format!(
                    "per-worker counts sum to {per_worker}, completed is {}",
                    s.completed
                ));
            }
            if drained.devices.len() + drained.worker_errors.len() != self.scenario.workers {
                self.violations.push(format!(
                    "worker conservation violated: {} devices + {} errors != {} workers",
                    drained.devices.len(),
                    drained.worker_errors.len(),
                    self.scenario.workers
                ));
            }
            // Invariant 9 (capacity convergence): a supervised fleet with
            // no quarantined slot must have restarted every death — full
            // capacity back, no terminal worker errors.
            if self.scenario.restart.is_some() && s.quarantined == 0 {
                if !drained.worker_errors.is_empty() {
                    let mut errors: Vec<&'static str> =
                        drained.worker_errors.iter().map(error_tag).collect();
                    errors.sort_unstable();
                    self.violations.push(format!(
                        "supervised fleet left terminal worker errors without quarantine: \
                         {errors:?}"
                    ));
                }
                if drained.devices.len() != self.scenario.workers {
                    self.violations.push(format!(
                        "capacity did not converge: {} devices back, fleet size {}",
                        drained.devices.len(),
                        self.scenario.workers
                    ));
                }
            }

            // Invariant 6 + 7: scrubbed arenas, ciphertext-only storage.
            let plaintext = omg_nn::format::serialize(&model);
            let windows: std::collections::HashSet<&[u8]> = plaintext.windows(16).collect();
            for (i, device) in drained.devices.iter().enumerate() {
                if device.interpreter_arena_scrubbed() != Some(true) {
                    self.violations
                        .push(format!("surviving device {i}: arena not scrubbed"));
                }
                let view = device.storage().attacker_view();
                if view.windows(16).any(|w| windows.contains(w)) {
                    self.violations.push(format!(
                        "surviving device {i}: plaintext model bytes visible in untrusted storage"
                    ));
                }
            }
        }

        // Faults the scenario scheduled but no worker consumed point at a
        // script bug (e.g. targeting a rejected seq) — surface them.
        if plan.pending_faults() != 0 {
            self.violations.push(format!(
                "{} scheduled fault(s) were never reached",
                plan.pending_faults()
            ));
        }

        omg_nn::gemm::set_thread_budget(prev_budget);

        let report = SimReport {
            name: self.scenario.name,
            seed: self.seed,
            trace: self.trace,
            violations: self.violations,
            script: self.scenario.script(),
            drained,
            flight_trace,
            metrics_json,
        };
        dump_artifacts(&report);
        report
    }
}

/// When `OMG_SIM_TRACE_DIR` is set, writes the run's merged flight trace
/// and metrics snapshot as `<name>-<seed>.trace.txt` / `.metrics.json`
/// under that directory (created if needed) — the files CI uploads as
/// workflow artifacts. Best-effort: IO failures never fail a scenario.
fn dump_artifacts(report: &SimReport) {
    let Ok(dir) = std::env::var("OMG_SIM_TRACE_DIR") else {
        return;
    };
    if dir.is_empty() || std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let base = format!("{dir}/{}-{}", report.name, report.seed);
    if let Some(snapshot) = &report.flight_trace {
        let _ = std::fs::write(format!("{base}.trace.txt"), snapshot.render());
    }
    if let Some(json) = &report.metrics_json {
        let _ = std::fs::write(format!("{base}.metrics.json"), json);
    }
}

/// Parses an `OMG_SIM_SEEDS`-style seed matrix: comma-separated u64
/// seeds, surrounding whitespace tolerated, empty tokens skipped (so a
/// trailing comma is fine). A malformed token fails with an error that
/// names the bad token and the expected format — not a bare `ParseIntError`
/// panic deep inside a test helper.
///
/// # Errors
///
/// A message naming the offending token and the expected format.
pub fn parse_seed_matrix(raw: &str) -> Result<Vec<u64>, String> {
    let mut seeds = Vec::new();
    for token in raw.split(',') {
        let token = token.trim();
        if token.is_empty() {
            continue;
        }
        let seed = token.parse::<u64>().map_err(|_| {
            format!(
                "OMG_SIM_SEEDS: bad token {token:?} in {raw:?}; expected comma-separated \
                 unsigned 64-bit seeds, e.g. \"7,42,1337\""
            )
        })?;
        seeds.push(seed);
    }
    Ok(seeds)
}

fn admission_line(seq: u64, pick: usize, admission: &Option<ServeError>) -> String {
    match admission {
        None => format!("submit seq={seq} pick={pick} -> admitted"),
        Some(e) => format!("submit seq={seq} pick={pick} -> bounced ({})", error_tag(e)),
    }
}

/// A stable, latency-free tag for an error — what the deterministic trace
/// records instead of `Display` text that might grow detail over time.
fn error_tag(e: &ServeError) -> &'static str {
    match e {
        ServeError::Overloaded => "Overloaded",
        ServeError::Expired => "Expired",
        ServeError::ShuttingDown => "ShuttingDown",
        ServeError::Config(_) => "Config",
        ServeError::WorkerPanicked => "WorkerPanicked",
        ServeError::Hung => "Hung",
        ServeError::Query(OmgError::DeviceCrashed) => "Query(DeviceCrashed)",
        ServeError::Query(_) => "Query",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_renders_every_step() {
        let s = Scenario::new("demo", 2)
            .queue_capacity(4)
            .pause()
            .submit(2)
            .await_parked(2)
            .fault(0, QueryFault::WorkerPanic)
            .submit_with_budget(1, Duration::ZERO)
            .resume();
        let script = s.script();
        for needle in [
            "workers=2",
            "queue_capacity=4",
            "pause",
            "submit 2",
            "await-parked 2",
            "fault seq=0 WorkerPanic",
            "budget=",
            "resume",
        ] {
            assert!(script.contains(needle), "missing {needle:?} in:\n{script}");
        }
    }

    #[test]
    fn reproducer_names_the_seed() {
        let report = SimReport {
            name: "x",
            seed: 1337,
            trace: vec![],
            violations: vec![],
            script: String::new(),
            drained: None,
            flight_trace: None,
            metrics_json: None,
        };
        assert!(report.reproducer().contains("OMG_SIM_SEEDS=1337"));
        report.assert_clean();
    }

    #[test]
    #[should_panic(expected = "reproduce with")]
    fn assert_clean_panics_with_reproducer() {
        let report = SimReport {
            name: "x",
            seed: 7,
            trace: vec![],
            violations: vec!["boom".into()],
            script: "scenario".into(),
            drained: None,
            flight_trace: None,
            metrics_json: None,
        };
        report.assert_clean();
    }

    #[test]
    #[should_panic(expected = "flight recorder:")]
    fn assert_clean_dumps_the_trace_tail() {
        // A violated report with a captured trace prints its tail.
        let recorder = omg_obs::FlightRecorder::new(1, 8);
        recorder.record(0, omg_obs::Stage::Submit, 0, 16_000);
        let report = SimReport {
            name: "x",
            seed: 7,
            trace: vec![],
            violations: vec!["boom".into()],
            script: "scenario".into(),
            drained: None,
            flight_trace: Some(recorder.snapshot()),
            metrics_json: None,
        };
        report.assert_clean();
    }

    #[test]
    fn seed_matrix_parses_and_names_bad_tokens() {
        assert_eq!(parse_seed_matrix("7,42,1337").unwrap(), vec![7, 42, 1337]);
        assert_eq!(
            parse_seed_matrix(" 8675309 , 1 ,").unwrap(),
            vec![8675309, 1]
        );
        assert_eq!(parse_seed_matrix("").unwrap(), Vec::<u64>::new());
        let err = parse_seed_matrix("7,fortytwo,9").unwrap_err();
        assert!(err.contains("\"fortytwo\""), "{err}");
        assert!(err.contains("comma-separated"), "{err}");
        let err = parse_seed_matrix("-3").unwrap_err();
        assert!(err.contains("\"-3\""), "{err}");
    }

    #[test]
    fn run_captures_flight_trace_and_metrics() {
        let report = Scenario::new("obs-capture", 2).submit(6).run(11);
        report.assert_clean();
        let trace = report.flight_trace.as_ref().expect("recorder forced on");
        // 6 queries × (submit, dequeue, compute-start, compute-end, reply).
        assert_eq!(trace.events.len(), 30, "{}", trace.render());
        assert_eq!(trace.dropped, 0);
        let json = report.metrics_json.as_ref().expect("drain terminated");
        assert!(json.contains("\"omg_serve_submitted_total\":6"), "{json}");
        assert!(
            json.contains("omg_core_devices_provisioned_total"),
            "{json}"
        );
    }
}
