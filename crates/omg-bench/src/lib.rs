//! Shared code for the OMG report binaries and benches.
//!
//! Provides the trained model (disk-cached so the expensive training run
//! happens once per checkout), the paper's evaluation subset, and the
//! Table I runner reused by the `table1` report binary and the tests;
//! [`harness`] runs the gated benches and [`regression`] checks their
//! records.

#![warn(missing_docs)]

pub mod harness;
pub mod regression;

use std::path::PathBuf;
use std::time::Duration;

use omg_core::device::expected_enclave_measurement;
use omg_core::{NativeSpotter, OmgDevice, User, Vendor};
use omg_nn::Model;
use omg_speech::dataset::{SyntheticSpeechCommands, LABELS, NUM_CLASSES};
use omg_speech::frontend::FeatureExtractor;
use omg_train::export::export_quantized;
use omg_train::trainer::{train, TrainConfig};

/// Which training budget to use for the cached model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// The full Table I configuration (the paper's evaluation model).
    Paper,
    /// A reduced configuration for fast tests.
    Fast,
}

/// Bump when the dataset calibration or training recipe changes, so stale
/// cached models are retrained instead of silently reused. When bumping,
/// also regenerate the checked-in [`FAST_MODEL_BLOB`].
const CACHE_VERSION: &str = "v2";

/// Pre-trained `ModelKind::Fast` artifact checked into the repo so a cold
/// `cargo test` run does not pay the 1–2 min training cost. Produced by the
/// exact training path below (`TrainConfig::fast()`, seed 0) and versioned
/// by its file name.
///
/// The artifact **deliberately stays in the legacy OMGM v1 layout** as a
/// permanent compatibility probe for the copying decoder (the `_v2` in
/// the file name is the *cache* version, not the format version). When
/// regenerating after a [`CACHE_VERSION`] bump, do NOT copy the
/// `target/omg-model-cache/` file (that one is written with the current
/// v2 `serialize`); instead re-serialize the trained model with
/// `omg_nn::format::serialize_v1` — the
/// `checked_in_v1_blob_round_trips_through_v2` test enforces this.
const FAST_MODEL_BLOB: &[u8] = include_bytes!("../data/tiny_conv_fast_seed0_v2.omgm");

fn cache_path(kind: ModelKind) -> PathBuf {
    let name = match kind {
        ModelKind::Paper => format!("tiny_conv_paper_seed0_{CACHE_VERSION}.omgm"),
        ModelKind::Fast => format!("tiny_conv_fast_seed0_{CACHE_VERSION}.omgm"),
    };
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/omg-model-cache")
        .join(name)
}

/// Returns the trained, quantized `tiny_conv` model, training it on first
/// use and caching the serialized artifact under `target/omg-model-cache/`.
///
/// # Panics
///
/// Panics if training or serialization fails (harness-level invariant).
pub fn cached_tiny_conv(kind: ModelKind) -> Model {
    // The fast model ships pre-trained in the repo: no disk, no training.
    if kind == ModelKind::Fast {
        if let Ok(model) = omg_nn::format::deserialize(FAST_MODEL_BLOB) {
            return model;
        }
    }
    let path = cache_path(kind);
    if let Ok(bytes) = std::fs::read(&path) {
        if let Ok(model) = omg_nn::format::deserialize(&bytes) {
            return model;
        }
    }
    let config = match kind {
        ModelKind::Paper => TrainConfig::default(),
        ModelKind::Fast => TrainConfig::fast(),
    };
    eprintln!("[omg-bench] training tiny_conv ({kind:?} config); cached at {path:?} afterwards");
    let outcome = train(&config).expect("training failed");
    let model = export_quantized(&outcome.net, &outcome.train_set.inputs).expect("export failed");
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let _ = std::fs::write(&path, omg_nn::format::serialize(&model));
    model
}

/// A labelled evaluation set of raw utterances and fingerprints.
#[derive(Debug, Clone)]
pub struct EvalSet {
    /// 1-second PCM utterances.
    pub utterances: Vec<Vec<i16>>,
    /// Precomputed 49×43 fingerprints.
    pub fingerprints: Vec<Vec<i8>>,
    /// Class labels.
    pub labels: Vec<usize>,
}

impl EvalSet {
    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Total audio duration.
    pub fn audio_duration(&self) -> Duration {
        Duration::from_secs(self.len() as u64)
    }
}

/// The paper's Table I evaluation subset: "10 examples for each class,
/// excluding the two rejection classes 'silence' and 'unknown'" (§VI) —
/// 100 utterances, 100 s of audio, drawn from held-out indices.
///
/// # Panics
///
/// Panics on frontend failures (harness-level invariant).
pub fn paper_test_subset(per_class: usize) -> EvalSet {
    let dataset = SyntheticSpeechCommands::new(0);
    let extractor = FeatureExtractor::new().expect("frontend");
    let mut utterances = Vec::new();
    let mut fingerprints = Vec::new();
    let mut labels = Vec::new();
    for class in 2..NUM_CLASSES {
        for i in 0..per_class {
            let u = dataset
                .utterance(class, 2_000_000 + i as u64)
                .expect("utterance");
            fingerprints.push(extractor.fingerprint(&u).expect("fingerprint"));
            utterances.push(u);
            labels.push(class);
        }
    }
    EvalSet {
        utterances,
        fingerprints,
        labels,
    }
}

/// One row of Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Configuration name as printed in the paper.
    pub name: String,
    /// Accuracy over the evaluation subset.
    pub accuracy: f64,
    /// Total runtime for the whole subset.
    pub runtime: Duration,
}

/// The complete Table I result.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// The unprotected row.
    pub native: Table1Row,
    /// The OMG-protected row.
    pub omg: Table1Row,
    /// Real-time factor of the protected configuration.
    pub real_time_factor: f64,
    /// Serialized model size in bytes ("about 49 kB" in the paper).
    pub model_bytes: usize,
    /// One-time preparation-phase virtual time.
    pub prepare_time: Duration,
    /// One-time initialization-phase virtual time.
    pub init_time: Duration,
}

/// Runs the Table I experiment: the same model and test subset evaluated
/// natively and under full OMG protection.
///
/// # Panics
///
/// Panics on protocol failures (harness-level invariant: the happy path
/// must succeed; failure modes are exercised by the test suite).
pub fn run_table1(model: &Model, eval: &EvalSet) -> Table1 {
    // --- native row -------------------------------------------------------
    let mut native = NativeSpotter::new(model.clone()).expect("native spotter");
    let native_clock = omg_hal::clock::SimClock::default();
    // Warm up caches/branch predictors so the first measured row is not
    // penalized relative to the second.
    let warmup_clock = omg_hal::clock::SimClock::default();
    for u in eval.utterances.iter().take(3) {
        let _ = native.classify_utterance(&warmup_clock, u);
    }
    let mut native_correct = 0usize;
    let native_start = native_clock.now();
    for (u, &label) in eval.utterances.iter().zip(eval.labels.iter()) {
        let t = native
            .classify_utterance(&native_clock, u)
            .expect("native classify");
        if t.class_index == label {
            native_correct += 1;
        }
    }
    let native_runtime = native_clock.now() - native_start;

    // --- OMG row ----------------------------------------------------------
    let mut device = OmgDevice::new(1).expect("device");
    let mut user = User::new(2);
    let mut vendor = Vendor::new(
        3,
        "kws-tiny-conv",
        model.clone(),
        expected_enclave_measurement(),
    );
    let clock = device.clock();

    let prep_start = clock.now();
    device.prepare(&mut user, &mut vendor).expect("prepare");
    let prepare_time = clock.now() - prep_start;

    let init_start = clock.now();
    device.initialize(&mut vendor).expect("initialize");
    let init_time = clock.now() - init_start;

    for u in eval.utterances.iter().take(3) {
        let _ = device.classify_utterance(u);
    }
    let mut omg_correct = 0usize;
    let omg_start = clock.now();
    for (u, &label) in eval.utterances.iter().zip(eval.labels.iter()) {
        let t = device.classify_utterance(u).expect("omg classify");
        if t.class_index == label {
            omg_correct += 1;
        }
    }
    let omg_runtime = clock.now() - omg_start;

    let n = eval.len().max(1) as f64;
    Table1 {
        native: Table1Row {
            name: "TensorFlow Lite \"micro\"".to_owned(),
            accuracy: native_correct as f64 / n,
            runtime: native_runtime,
        },
        omg: Table1Row {
            name: "TensorFlow Lite \"micro\" (OMG)".to_owned(),
            accuracy: omg_correct as f64 / n,
            runtime: omg_runtime,
        },
        real_time_factor: omg_runtime.as_secs_f64() / eval.audio_duration().as_secs_f64(),
        model_bytes: omg_nn::format::serialize(model).len(),
        prepare_time,
        init_time,
    }
}

/// Formats a [`Table1`] in the layout of the paper.
pub fn format_table1(t: &Table1) -> String {
    let mut out = String::new();
    out.push_str("TABLE I: Accuracy and runtime results for running the keyword\n");
    out.push_str("recognition with and without OMG protection.\n\n");
    out.push_str(&format!(
        "{:<38} {:>9} {:>12}\n",
        "Model", "Accuracy", "Runtime"
    ));
    out.push_str(&format!("{:-<38} {:->9} {:->12}\n", "", "", ""));
    for row in [&t.native, &t.omg] {
        out.push_str(&format!(
            "{:<38} {:>8.0} % {:>9.0} ms\n",
            row.name,
            row.accuracy * 100.0,
            row.runtime.as_secs_f64() * 1e3,
        ));
    }
    out.push('\n');
    out.push_str("paper reference:   75 % / 75 %,  379 ms / 387 ms (HiKey 960)\n");
    out.push_str(&format!(
        "overhead:          {:+.1} % runtime, {:+.1} pp accuracy\n",
        (t.omg.runtime.as_secs_f64() / t.native.runtime.as_secs_f64() - 1.0) * 100.0,
        (t.omg.accuracy - t.native.accuracy) * 100.0,
    ));
    out.push_str(&format!(
        "real-time factor:  {:.4}x (paper: 0.004x)\n",
        t.real_time_factor
    ));
    out.push_str(&format!(
        "model size:        {} bytes (paper: \"about 49 kB\")\n",
        t.model_bytes
    ));
    out.push_str(&format!(
        "phase I (prepare): {:.1} ms one-time\n",
        t.prepare_time.as_secs_f64() * 1e3
    ));
    out.push_str(&format!(
        "phase II (init):   {:.1} ms one-time (amortized over queries)\n",
        t.init_time.as_secs_f64() * 1e3
    ));
    out
}

/// The 12 class labels (re-exported for binaries).
pub fn class_labels() -> &'static [&'static str; 12] {
    &LABELS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_subset_matches_paper_description() {
        let eval = paper_test_subset(2);
        // 10 non-rejection classes × 2.
        assert_eq!(eval.len(), 20);
        assert!(eval.labels.iter().all(|&l| l >= 2));
        assert_eq!(eval.audio_duration(), Duration::from_secs(20));
        assert!(!eval.is_empty());
    }

    #[test]
    fn table1_runs_on_fast_model() {
        let model = cached_tiny_conv(ModelKind::Fast);
        let eval = paper_test_subset(2);
        let t = run_table1(&model, &eval);
        // The load-bearing reproduction claim: protection changes nothing
        // about accuracy.
        assert_eq!(t.native.accuracy, t.omg.accuracy);
        assert!(t.native.runtime > Duration::ZERO);
        assert!(t.omg.runtime > Duration::ZERO);
        // Overhead should be small (L2-exclusion penalty ≈ 2%); allow a
        // generous band because the test harness runs suites in parallel.
        let ratio = t.omg.runtime.as_secs_f64() / t.native.runtime.as_secs_f64();
        assert!(ratio < 2.5, "omg/native ratio {ratio}");
        // Real time factor far below 1 (the subset is 20 s of audio).
        assert!(t.real_time_factor < 0.5, "rtf {}", t.real_time_factor);
        let rendered = format_table1(&t);
        assert!(rendered.contains("TABLE I"));
        assert!(rendered.contains("OMG"));
    }

    #[test]
    fn cached_model_is_stable() {
        let a = cached_tiny_conv(ModelKind::Fast);
        let b = cached_tiny_conv(ModelKind::Fast);
        assert_eq!(a, b);
        assert_eq!(a.labels().len(), 12);
    }

    #[test]
    fn checked_in_v1_blob_round_trips_through_v2() {
        // The pre-trained artifact was serialized with format v1 (the
        // copying layout). It must keep loading unmodified through the
        // version dispatch, survive a v1 -> v2 re-serialization round
        // trip, and serve identical predictions from both containers.
        assert_eq!(
            u16::from_le_bytes([FAST_MODEL_BLOB[4], FAST_MODEL_BLOB[5]]),
            omg_nn::format::VERSION_V1,
            "the checked-in blob is the v1 compatibility artifact"
        );
        let model = omg_nn::format::deserialize(FAST_MODEL_BLOB).unwrap();

        let v2_blob = omg_nn::format::serialize(&model);
        assert_eq!(
            u16::from_le_bytes([v2_blob[4], v2_blob[5]]),
            omg_nn::format::VERSION
        );
        let restored = omg_nn::format::deserialize(&v2_blob).unwrap();
        assert_eq!(restored, model);

        // Same predictions from the v1-loaded and v2-loaded models.
        let eval = paper_test_subset(1);
        let mut from_v1 = omg_nn::Interpreter::new(model).unwrap();
        let mut from_v2 = omg_nn::Interpreter::new(restored).unwrap();
        for fp in &eval.fingerprints {
            assert_eq!(from_v1.classify(fp).unwrap(), from_v2.classify(fp).unwrap());
        }
    }

    #[test]
    fn checked_in_fast_blob_matches_cache_version() {
        // The include_bytes! path names its version independently of
        // CACHE_VERSION; this pins the two together so a version bump
        // without a regenerated blob fails loudly instead of silently
        // serving the stale artifact.
        let expected_name = format!("tiny_conv_fast_seed0_{CACHE_VERSION}.omgm");
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("data")
            .join(&expected_name);
        let on_disk = std::fs::read(&path)
            .unwrap_or_else(|_| panic!("regenerate the checked-in blob {expected_name}"));
        assert_eq!(on_disk, FAST_MODEL_BLOB, "embedded blob is out of date");
        // A corrupt blob must fail here, not silently fall back to
        // retraining in cached_tiny_conv.
        omg_nn::format::deserialize(FAST_MODEL_BLOB).expect("checked-in blob must deserialize");
    }
}
