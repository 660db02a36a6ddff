//! The benchmark's own answer oracle, written apart from the program.
//!
//! The frontend below is a plain scalar reading of the paper's §VI recipe
//! as `omg-speech` documents it: a q15 Hann window over 30 ms frames, a
//! 512-point radix-2 q15 FFT that halves after every butterfly stage,
//! 6-bin magnitude averages by integer square root, and `ln` compression
//! to `u8` recentred to `i8`. The class for each fingerprint comes from the
//! interpreter's scalar reference kernels, which the program keeps as the
//! oracle for its fast tiers.

use omg_nn::{Interpreter, KernelSet, Model};

pub const RATE: usize = 16_000;
pub const WINDOW: usize = 480;
pub const SHIFT: usize = 320;
pub const FFT: usize = 512;
pub const BANDS: usize = 43;
pub const FRAMES: usize = (RATE - WINDOW) / SHIFT + 1;
pub const FINGERPRINT: usize = FRAMES * BANDS;

/// Precomputed q15 tables of the scalar frontend.
pub struct Frontend {
    window: Vec<i16>,
    /// `(cos, sin)` of `-2πk/FFT` in q15, for `k < FFT / 2`.
    twiddles: Vec<(i16, i16)>,
}

/// Rounded q15 product, truncated to 16 bits exactly as a 16-bit DSP
/// register would hold it (so `-1 · -1` wraps to `-1`).
fn mul_q15(a: i16, b: i16) -> i16 {
    ((i32::from(a) * i32::from(b) + 0x4000) >> 15) as i16
}

impl Frontend {
    pub fn new() -> Self {
        let pi = std::f64::consts::PI;
        let window = (0..WINDOW)
            .map(|n| {
                let hann = 0.5 * (1.0 - (2.0 * pi * n as f64 / (WINDOW - 1) as f64).cos());
                (hann * 32767.0).round() as i16
            })
            .collect();
        let twiddles = (0..FFT / 2)
            .map(|k| {
                let phase = -2.0 * pi * k as f64 / FFT as f64;
                (
                    (phase.cos() * 32767.0).round() as i16,
                    (phase.sin() * 32767.0).round() as i16,
                )
            })
            .collect();
        Frontend { window, twiddles }
    }

    /// Windows one 480-sample frame into a zero-padded complex buffer.
    pub fn windowed(&self, frame: &[i16]) -> [(i16, i16); FFT] {
        let mut x = [(0i16, 0i16); FFT];
        for (slot, (&s, &w)) in x.iter_mut().zip(frame.iter().zip(&self.window)) {
            slot.0 = ((i32::from(s) * i32::from(w) + 0x4000) >> 15) as i16;
        }
        x
    }

    /// In-place decimation-in-time FFT with a halving after every stage.
    pub fn fft(&self, x: &mut [(i16, i16); FFT]) {
        let bits = FFT.trailing_zeros();
        for i in 0..FFT {
            let j = i.reverse_bits() >> (usize::BITS - bits);
            if j > i {
                x.swap(i, j);
            }
        }
        let mut span = 1;
        while span < FFT {
            let step = FFT / (2 * span);
            for group in (0..FFT).step_by(2 * span) {
                for j in 0..span {
                    let (wr, wi) = self.twiddles[j * step];
                    let (ar, ai) = x[group + j];
                    let (br, bi) = x[group + j + span];
                    let tr = i32::from(mul_q15(wr, br)) - i32::from(mul_q15(wi, bi));
                    let ti = i32::from(mul_q15(wr, bi)) + i32::from(mul_q15(wi, br));
                    let (ar, ai) = (i32::from(ar), i32::from(ai));
                    x[group + j] = (((ar + tr) >> 1) as i16, ((ai + ti) >> 1) as i16);
                    x[group + j + span] = (((ar - tr) >> 1) as i16, ((ai - ti) >> 1) as i16);
                }
            }
            span *= 2;
        }
    }

    /// The 49 × 43 fingerprint of a one-second utterance.
    pub fn fingerprint(&self, samples: &[i16]) -> Vec<i8> {
        assert_eq!(samples.len(), RATE, "one second of 16 kHz audio");
        let mut out = Vec::with_capacity(FINGERPRINT);
        for frame in 0..FRAMES {
            let start = frame * SHIFT;
            let mut x = self.windowed(&samples[start..start + WINDOW]);
            self.fft(&mut x);
            for band in 0..BANDS {
                let bins = &x[band * 6..(band * 6 + 6).min(FFT / 2)];
                let total: u32 = bins
                    .iter()
                    .map(|&(r, i)| {
                        let power = (i32::from(r) * i32::from(r)) as u32
                            + (i32::from(i) * i32::from(i)) as u32;
                        power.isqrt()
                    })
                    .sum();
                let mean = total / bins.len() as u32;
                let level = ((f64::from(mean) + 1.0).ln() * 25.6).min(255.0) as u8;
                out.push((i16::from(level) - 128) as i8);
            }
        }
        out
    }
}

/// Fingerprints and reference-kernel classes for a set of utterances.
pub struct Oracle {
    pub fingerprints: Vec<Vec<i8>>,
    pub classes: Vec<usize>,
}

impl Oracle {
    pub fn new(model: &Model, utterances: &[Vec<i16>]) -> Result<Self, String> {
        let frontend = Frontend::new();
        let mut reference = Interpreter::with_kernels(model.clone(), KernelSet::Reference)
            .map_err(|e| format!("reference interpreter: {e}"))?;
        let fingerprints: Vec<Vec<i8>> =
            utterances.iter().map(|u| frontend.fingerprint(u)).collect();
        let classes = fingerprints
            .iter()
            .map(|fp| reference.classify(fp).map(|(class, _)| class))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("reference classify: {e}"))?;
        Ok(Oracle {
            fingerprints,
            classes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omg_speech::frontend::FeatureExtractor;

    fn program(samples: &[i16]) -> Vec<i8> {
        FeatureExtractor::new()
            .expect("extractor")
            .fingerprint(samples)
            .expect("fingerprint")
    }

    #[test]
    fn q15_product_wraps_like_a_16_bit_register() {
        assert_eq!(mul_q15(i16::MIN, i16::MIN), i16::MIN);
        assert_eq!(mul_q15(16384, 16384), 8192);
    }

    #[test]
    fn matches_the_program_on_clipped_audio() {
        let frontend = Frontend::new();
        let cases: Vec<Vec<i16>> = vec![
            vec![i16::MAX; RATE],
            vec![i16::MIN; RATE],
            vec![0; RATE],
            // Square waves at full scale, and runs of each rail.
            (0..RATE)
                .map(|t| if (t / 8) % 2 == 0 { i16::MAX } else { i16::MIN })
                .collect(),
            (0..RATE)
                .map(|t| if (t / 400) % 2 == 0 { i16::MIN } else { 0 })
                .collect(),
            (0..RATE)
                .map(|t| {
                    if (t / 3) % 2 == 0 {
                        -i16::MAX
                    } else {
                        i16::MAX
                    }
                })
                .collect(),
        ];
        for (i, samples) in cases.iter().enumerate() {
            assert_eq!(frontend.fingerprint(samples), program(samples), "case {i}");
        }
    }

    #[test]
    fn matches_the_program_on_speech() {
        let frontend = Frontend::new();
        let dataset = omg_speech::dataset::SyntheticSpeechCommands::new(0);
        for class in 0..12 {
            let samples = dataset.utterance(class, 77).expect("utterance");
            assert_eq!(frontend.fingerprint(&samples), program(&samples));
        }
    }
}
