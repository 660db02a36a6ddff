//! Per-layer metrics of a traced run.
//!
//! Each layer is timed from outside, through calls into its public
//! functions, or read from the boundary stamps the program already
//! publishes: the flight trace, `Transcription::compute` and the
//! interpreter's `Profiler`. Layers the workload itself reaches are
//! measured on it; the fleet layers of a workload without a fleet (and
//! the restart layers of one without restarts) come from a small
//! supervised fleet probed the same way on every run.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use omg_core::NativeSpotter;
use omg_crypto::aead::ChaCha20Poly1305;
use omg_crypto::rng::ChaChaRng;
use omg_crypto::rsa::RsaPrivateKey;
use omg_hal::clock::SimClock;
use omg_nn::{format, Interpreter, Model, ModelBuf};
use omg_obs::Stage;
use omg_serve::fault::FaultPlan;
use omg_speech::fft::FixedFft;
use omg_speech::frontend::{FeatureExtractor, FingerprintBuffer};

use crate::oracle::{Frontend, Oracle, FFT, FRAMES, SHIFT, WINDOW};
use crate::workloads::{self, Answers, DeviceTimes, FleetLog, Inputs, Layers, Provisioner};
use crate::{checks, mix, ms, percentile, timed, us, Args, Report, Span};

/// Every traced run reports each of these, on every workload.
pub const PER_LAYER: &[&str] = &[
    "traced.latency_p50_ms",
    "omg-speech.fingerprint_us",
    "omg-speech.fft_us",
    "omg-nn.classify_us",
    "omg-nn.conv2d_us",
    "omg-nn.fully_connected_us",
    "omg-nn.softmax_us",
    "omg-nn.scrub_us",
    "omg-nn.load_us",
    "omg-sanctuary.wrapper_us",
    "omg-core.classify_us",
    "omg-core.native_classify_us",
    "omg-core.device_new_ms",
    "omg-core.prepare_ms",
    "omg-core.initialize_ms",
    "omg-core.first_query_ms",
    "omg-crypto.rsa_keygen_ms",
    "omg-crypto.rsa_sign_ms",
    "omg-crypto.rsa_decrypt_ms",
    "omg-crypto.aead_open_us",
    "omg-hal.charged_over_wall",
    "omg-serve.submit_us",
    "omg-serve.queue_wait_p50_us",
    "omg-serve.queue_wait_p99_us",
    "omg-serve.compute_us",
    "omg-serve.handoff_us",
    "omg-serve.leftover_us",
    "omg-serve.restart_ms",
    "omg-serve.recover_ms",
    "omg-obs.events_per_query",
];

/// Direct calls per query layer (two passes over the Table I subset).
const SWEEP_CALLS: usize = 200;
/// Utterances whose 49 frames each time one FFT.
const FFT_UTTERANCES: usize = 10;
/// Repetitions of each crypto and model-load call.
const MICRO_CALLS: usize = 20;
/// Fresh-seed RSA-1024 keys generated per run.
const KEYGEN_SAMPLES: usize = 8;
/// Kills the fleet probe makes (each followed by one probe pass).
const PROBE_KILLS: usize = 5;
/// The sweep's own device and the probe fleet are the same on every run.
const SWEEP_DEVICE_SEED: u64 = 0x5EEE_0001;
const PROBE_FLEET_SEED: u64 = 0x9B0B_E001;

fn p50(report: &mut Report, name: &'static str, samples: &[f64], unit: &'static str) {
    if samples.is_empty() {
        report.errors.push(format!("{name}: no samples"));
    } else {
        report.metric(name, percentile(samples, 0.5), unit, samples.len());
    }
}

pub fn measure(
    args: &Args,
    model: &Model,
    inputs: &Inputs,
    oracle: &Oracle,
    layers: &mut Layers,
    report: &mut Report,
) {
    query_layers(model, inputs, oracle, layers, report);
    fft_layer(inputs, report);
    cold_layers(args.seed, model, &layers.devices, report);

    let own = layers.fleet.take();
    let probe = match &own {
        Some(log) if !log.recover_ms.is_empty() => None,
        _ => Some(fleet_probe(model, inputs, oracle, report)),
    };
    let queries = own
        .iter()
        .chain(probe.iter())
        .find(|log| !log.queries.is_empty());
    let restarts = own
        .iter()
        .chain(probe.iter())
        .find(|log| !log.recover_ms.is_empty());
    match (queries, restarts) {
        (Some(q), Some(r)) => {
            fleet_query_layers(q, report);
            fleet_restart_layers(r, report);
        }
        _ => report
            .errors
            .push("no traced fleet to read the serving layers from".into()),
    }
    for log in own.iter().chain(probe.iter()) {
        if let Some(snap) = &log.snapshot {
            report.spans.extend(snap.events.iter().map(|e| Span {
                name: e.stage.name(),
                id: e.seq,
                start_ns: e.ts_ns,
                end_ns: e.ts_ns,
            }));
        }
    }
}

/// Frontend, interpreter, scrub, enclave wrapper and the protected and
/// unprotected whole query, each timed on the same utterances.
fn query_layers(
    model: &Model,
    inputs: &Inputs,
    oracle: &Oracle,
    layers: &Layers,
    report: &mut Report,
) {
    let extractor = FeatureExtractor::new().expect("frontend plan");
    let (mut interpreter, mut profiled, mut native) = match (
        Interpreter::new(model.clone()),
        Interpreter::new(model.clone()),
        NativeSpotter::new(model.clone()),
    ) {
        (Ok(i), Ok(p), Ok(n)) => (i, p, n),
        _ => {
            report
                .errors
                .push("building the sweep's interpreters failed".into());
            return;
        }
    };
    profiled.enable_profiling();
    let native_clock = SimClock::default();
    let mut provisioner = Provisioner::new(model.clone(), SWEEP_DEVICE_SEED);
    let mut device = match provisioner.device(SWEEP_DEVICE_SEED, &inputs.utterances[0]) {
        Ok((device, _, _)) => device,
        Err(e) => {
            report.errors.push(format!("sweep device: {e}"));
            return;
        }
    };
    let mut buf = FingerprintBuffer::new();
    let n = inputs.utterances.len();
    let (mut fingerprint, mut classify, mut scrub) = (Vec::new(), Vec::new(), Vec::new());
    let (mut core, mut native_us, mut wrapper) = (Vec::new(), Vec::new(), Vec::new());
    let (mut charged, mut wall) = (Duration::ZERO, Duration::ZERO);
    for call in 0..SWEEP_CALLS {
        let input = call % n;
        let u = &inputs.utterances[input];
        let want = &oracle.classes;
        let (r, t_fp) = timed(|| extractor.fingerprint_into(u, &mut buf));
        if let Err(e) = r {
            report.errors.push(format!("fingerprint_into: {e}"));
            return;
        }
        if buf.fingerprint() != oracle.fingerprints[input].as_slice() {
            report.errors.push(format!(
                "input {input}: fingerprint_into differs from the oracle"
            ));
        }
        let (r, t_cls) = timed(|| interpreter.classify(buf.fingerprint()));
        let r2 = profiled.classify(buf.fingerprint());
        for (what, r) in [("classify", r), ("profiled classify", r2)] {
            match r {
                Ok((class, _)) => report.check(checks::answer(what, input, class, want)),
                Err(e) => report.errors.push(format!("{what}: {e}")),
            }
        }
        let (_, t_scrub) = timed(|| {
            interpreter.scrub();
            buf.scrub();
        });
        let (r, t_core) = timed(|| device.classify_utterance(u));
        match r {
            Ok(t) => {
                report.check(checks::answer("device", input, t.class_index, want));
                charged += t.compute;
                wall += t_core;
            }
            Err(e) => report.errors.push(format!("device classify: {e}")),
        }
        let (r, t_native) = timed(|| native.classify_utterance(&native_clock, u));
        match r {
            Ok(t) => report.check(checks::answer("native", input, t.class_index, want)),
            Err(e) => report.errors.push(format!("native classify: {e}")),
        }
        fingerprint.push(us(t_fp));
        classify.push(us(t_cls));
        scrub.push(us(t_scrub));
        core.push(us(t_core));
        native_us.push(us(t_native));
        wrapper.push(us(t_core) - us(t_fp) - us(t_cls));
    }
    p50(report, "omg-speech.fingerprint_us", &fingerprint, "us");
    p50(report, "omg-nn.classify_us", &classify, "us");
    p50(report, "omg-nn.scrub_us", &scrub, "us");
    p50(report, "omg-core.classify_us", &core, "us");
    p50(report, "omg-core.native_classify_us", &native_us, "us");
    p50(report, "omg-sanctuary.wrapper_us", &wrapper, "us");

    // Per-op means from the interpreter's own profiler.
    let profile = profiled.profile().expect("profiling enabled");
    for (kernel, name) in [
        ("conv2d", "omg-nn.conv2d_us"),
        ("fully_connected", "omg-nn.fully_connected_us"),
        ("softmax", "omg-nn.softmax_us"),
    ] {
        let (calls, total_ns) = profile
            .entries
            .iter()
            .filter(|e| e.kernel == kernel)
            .fold((0u64, 0u64), |(c, t), e| (c + e.calls, t + e.total_ns));
        if calls == 0 {
            report.errors.push(format!("profiler saw no {kernel} call"));
        } else {
            report.metric(
                name,
                total_ns as f64 / calls as f64 / 1e3,
                "us",
                calls as usize,
            );
        }
    }

    // Virtual device time charged against host time of the same calls:
    // the workload's own calls on `table1`, the sweep's elsewhere.
    let (charged, wall) = layers.charged_over_wall.unwrap_or((charged, wall));
    report.metric(
        "omg-hal.charged_over_wall",
        charged.as_secs_f64() / wall.as_secs_f64(),
        "ratio",
        SWEEP_CALLS,
    );
}

/// One 512-point `FixedFft::forward` per windowed frame, checked against
/// the oracle's own transform.
fn fft_layer(inputs: &Inputs, report: &mut Report) {
    let fft = FixedFft::new(FFT).expect("power-of-two plan");
    let frontend = Frontend::new();
    let mut samples = Vec::new();
    for u in inputs.utterances.iter().take(FFT_UTTERANCES) {
        for frame in 0..FRAMES {
            let mut x = frontend.windowed(&u[frame * SHIFT..frame * SHIFT + WINDOW]);
            let mut re: Vec<i16> = x.iter().map(|c| c.0).collect();
            let mut im: Vec<i16> = x.iter().map(|c| c.1).collect();
            let (r, d) = timed(|| fft.forward(&mut re, &mut im));
            frontend.fft(&mut x);
            if r.is_err()
                || x.iter()
                    .zip(re.iter().zip(&im))
                    .any(|(c, (r, i))| c.0 != *r || c.1 != *i)
            {
                report.errors.push(format!(
                    "FixedFft::forward differs from the oracle on frame {frame}"
                ));
                return;
            }
            samples.push(us(d));
        }
    }
    p50(report, "omg-speech.fft_us", &samples, "us");
}

/// The cold path's protocol steps on the run's own fresh devices, and
/// the crypto and model-load calls under them.
fn cold_layers(seed: u64, model: &Model, devices: &[DeviceTimes], report: &mut Report) {
    let col =
        |f: fn(&DeviceTimes) -> Duration| devices.iter().map(|d| ms(f(d))).collect::<Vec<_>>();
    p50(report, "omg-core.device_new_ms", &col(|d| d.new), "ms");
    p50(report, "omg-core.prepare_ms", &col(|d| d.prepare), "ms");
    p50(
        report,
        "omg-core.initialize_ms",
        &col(|d| d.initialize),
        "ms",
    );
    p50(
        report,
        "omg-core.first_query_ms",
        &col(|d| d.first_query),
        "ms",
    );

    let mut rng = ChaChaRng::seed_from_u64(mix(seed ^ 0x4B45_5947));
    let mut keygen = Vec::new();
    let mut key = None;
    for i in 0..KEYGEN_SAMPLES {
        let mut fresh =
            ChaChaRng::seed_from_u64(mix(seed ^ 0x4B45_5947).wrapping_add(i as u64 + 1));
        let (k, d) = timed(|| RsaPrivateKey::generate(&mut fresh, 1024));
        match k {
            Ok(k) => key = Some(k),
            Err(e) => report.errors.push(format!("rsa generate: {e}")),
        }
        keygen.push(ms(d));
    }
    p50(report, "omg-crypto.rsa_keygen_ms", &keygen, "ms");
    let Some(key) = key else { return };

    // An attestation certificate payload is about 190 bytes.
    let message = [0xA5u8; 192];
    let mut sign = Vec::new();
    for _ in 0..MICRO_CALLS {
        let (sig, d) = timed(|| key.sign(&message));
        if sig
            .and_then(|s| key.public_key().verify(&message, &s))
            .is_err()
        {
            report.errors.push("rsa signature does not verify".into());
        }
        sign.push(ms(d));
    }
    p50(report, "omg-crypto.rsa_sign_ms", &sign, "ms");

    let model_key = [0x4Bu8; 32];
    let mut decrypt = Vec::new();
    match key.public_key().encrypt(&mut rng, &model_key) {
        Ok(wrapped) => {
            for _ in 0..MICRO_CALLS {
                let (plain, d) = timed(|| key.decrypt(&wrapped));
                if plain.as_deref() != Ok(&model_key[..]) {
                    report
                        .errors
                        .push("rsa unwrap returned the wrong key".into());
                }
                decrypt.push(ms(d));
            }
        }
        Err(e) => report.errors.push(format!("rsa wrap: {e}")),
    }
    p50(report, "omg-crypto.rsa_decrypt_ms", &decrypt, "ms");

    let image = format::serialize(model);
    let cipher = ChaCha20Poly1305::new(&model_key);
    let nonce = [0u8; 12];
    let sealed = cipher.seal(&nonce, b"kws-tiny-conv", &image);
    let mut plain = vec![0u8; image.len()];
    let mut open = Vec::new();
    for _ in 0..MICRO_CALLS {
        let (r, d) = timed(|| cipher.open_into(&nonce, b"kws-tiny-conv", &sealed, &mut plain));
        if r.is_err() || plain != image {
            report
                .errors
                .push("aead open_into did not return the sealed image".into());
        }
        open.push(us(d));
    }
    p50(report, "omg-crypto.aead_open_us", &open, "us");

    let mut load = Vec::new();
    for _ in 0..MICRO_CALLS {
        let buf = ModelBuf::copy_from_slice(&image);
        let (r, d) = timed(|| format::deserialize_shared(buf).and_then(Interpreter::new));
        if let Err(e) = r {
            report.errors.push(format!("model load: {e}"));
        }
        load.push(us(d));
    }
    p50(report, "omg-nn.load_us", &load, "us");
}

/// A supervised 2-worker fleet with a raised recorder capacity, a few
/// scripted kills and a probe pass after each recovery.
fn fleet_probe(model: &Model, inputs: &Inputs, oracle: &Oracle, report: &mut Report) -> FleetLog {
    let plan = Arc::new(FaultPlan::new());
    let mut log = FleetLog {
        trace: true,
        ..FleetLog::default()
    };
    let handle = match workloads::supervised_fleet(model.clone(), PROBE_FLEET_SEED, &plan, true) {
        Ok(h) => h,
        Err(e) => {
            report.errors.push(format!("probe fleet: {e}"));
            return log;
        }
    };
    let order: Vec<usize> = (0..inputs.utterances.len()).collect();
    let mut answers = Answers::default();
    for _ in 0..PROBE_KILLS {
        workloads::restart_round(
            &handle,
            &plan,
            inputs,
            oracle,
            &order,
            &mut log,
            &mut answers,
            report,
        );
    }
    workloads::drain(handle, &mut log, report);
    log
}

/// Submit, queue wait, compute and hand-off of every answered query,
/// joined by sequence number with the flight trace.
fn fleet_query_layers(log: &FleetLog, report: &mut Report) {
    let Some(snap) = &log.snapshot else {
        report.errors.push("fleet has no flight trace".into());
        return;
    };
    let mut by_seq: HashMap<u64, [Option<u64>; 3]> = HashMap::new();
    for e in &snap.events {
        let slot = match e.stage {
            Stage::Dequeue => 0,
            Stage::ComputeEnd => 1,
            Stage::Reply => 2,
            _ => continue,
        };
        by_seq.entry(e.seq).or_default()[slot] = Some(if slot == 2 { e.ts_ns } else { e.payload });
    }
    let (mut submit, mut wait, mut compute, mut handoff, mut leftover) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for q in &log.queries {
        let Some([Some(w), Some(c), Some(reply)]) = by_seq.get(&q.seq).copied() else {
            report
                .errors
                .push(format!("query {} is missing from the flight trace", q.seq));
            continue;
        };
        let s = q.submit_end_ns.saturating_sub(q.submit_start_ns) as f64;
        let h = q.answer_ns as f64 - reply as f64;
        let total = q.answer_ns.saturating_sub(q.submit_start_ns) as f64;
        submit.push(s / 1e3);
        wait.push(w as f64 / 1e3);
        compute.push(c as f64 / 1e3);
        handoff.push(h / 1e3);
        leftover.push((total - s - w as f64 - c as f64 - h) / 1e3);
    }
    p50(report, "omg-serve.submit_us", &submit, "us");
    p50(report, "omg-serve.queue_wait_p50_us", &wait, "us");
    if !wait.is_empty() {
        report.metric(
            "omg-serve.queue_wait_p99_us",
            percentile(&wait, 0.99),
            "us",
            wait.len(),
        );
    }
    p50(report, "omg-serve.compute_us", &compute, "us");
    p50(report, "omg-serve.handoff_us", &handoff, "us");
    p50(report, "omg-serve.leftover_us", &leftover, "us");
    report.metric(
        "omg-obs.events_per_query",
        snap.events.len() as f64 / log.ledger.answered.max(1) as f64,
        "count",
        log.ledger.answered as usize,
    );
}

/// The supervisor's own death-to-restart time, and the caller's view of
/// the same recovery.
fn fleet_restart_layers(log: &FleetLog, report: &mut Report) {
    let restarts: Vec<f64> = log
        .snapshot
        .iter()
        .flat_map(|s| &s.events)
        .filter(|e| e.stage == Stage::WorkerRestart)
        .map(|e| e.payload as f64 / 1e6)
        .collect();
    p50(report, "omg-serve.restart_ms", &restarts, "ms");
    p50(report, "omg-serve.recover_ms", &log.recover_ms, "ms");
}
