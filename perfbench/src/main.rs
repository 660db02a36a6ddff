//! End-to-end and per-layer benchmark of the OMG keyword-spotting stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1|serve|cold --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. Without tracing the metrics are
//! the end-to-end ones; with tracing they are the per-layer ones. A
//! readable summary with sample counts goes to standard error. See
//! `README.md` beside this file for the workloads and metrics.

mod checks;
mod layers;
mod oracle;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Which workload a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table1,
    Serve,
    Cold,
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "table1" => Workload::Table1,
                    "serve" => Workload::Serve,
                    "cold" => Workload::Cold,
                    other => return Err(format!("unknown workload {other}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What one run found: operation counts, check failures and metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Spans kept in memory during a traced run, written when it ends.
    pub spans: Vec<Span>,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub samples: usize,
}

/// One timed call into a layer, on the `omg_obs::monotonic_ns` clock.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Replaces the value and sample count of a metric already reported.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        if let Some(m) = self.metrics.iter_mut().find(|m| m.name == name) {
            m.value = value;
            m.samples = samples;
        }
    }

    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.errors.push(e);
        }
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Mean of the samples between the first and the third quartile: robust
/// to outliers like the median, but it moves smoothly where the median
/// jumps between two distant neighbours.
pub fn interquartile_mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let middle = &sorted[n / 4..n - n / 4];
    middle.iter().sum::<f64>() / middle.len() as f64
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs `f` and returns its result with the host time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// splitmix64: the benchmark's own seeded stream for input choices.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Host-speed calibration. The shared host this benchmark is tuned on
/// changes speed by up to 1.8× within seconds, and its two cores drift
/// apart, whatever runs on them. So every host-time (and measured
/// virtual-time) sample is multiplied by `REFERENCE_US / t`, where `t` is
/// the time of a fixed piece of the benchmark's own work (scalar q15 FFTs
/// from the oracle) timed just before the round the sample belongs to:
/// on the measuring thread's core for single-threaded rounds, and as the
/// mean over both cores for rounds of a 2-worker fleet, sampled while the
/// fleet is idle. The program never runs this code, so a change to the
/// program moves the scaled figures as it moves the raw ones; only the
/// host's swings cancel.
pub struct HostSpeed {
    frontend: oracle::Frontend,
    frame: [(i16, i16); oracle::FFT],
    /// Scale factors handed out, for the summary line.
    handed: std::cell::RefCell<Vec<f64>>,
}

/// Time of one calibration sample on the reference host at full speed.
const REFERENCE_US: f64 = 70.0;

/// Best of three timings of eight FFTs of `frame`, in µs.
fn fft_sample_us(frontend: &oracle::Frontend, frame: &[(i16, i16); oracle::FFT]) -> f64 {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..8 {
                let mut x = std::hint::black_box(*frame);
                frontend.fft(&mut x);
                std::hint::black_box(&x);
            }
            us(start.elapsed())
        })
        .fold(f64::INFINITY, f64::min)
}

impl Default for HostSpeed {
    fn default() -> Self {
        let frontend = oracle::Frontend::new();
        let chirp: Vec<i16> = (0..oracle::WINDOW)
            .map(|t| ((t * t % 977) as i16 - 488) * 40)
            .collect();
        let frame = frontend.windowed(&chirp);
        HostSpeed {
            frontend,
            frame,
            handed: Default::default(),
        }
    }
}

impl HostSpeed {
    fn hand_out(&self, sample_us: f64) -> f64 {
        let scale = REFERENCE_US / sample_us;
        self.handed.borrow_mut().push(scale);
        scale
    }

    /// The factor that maps host time measured now, on this thread's
    /// core, onto the reference host speed.
    pub fn scale(&self) -> f64 {
        self.hand_out(fft_sample_us(&self.frontend, &self.frame))
    }

    /// The same factor for work spread over both cores: one sample on
    /// this thread and one on a helper thread, started together.
    pub fn scale_both(&self) -> f64 {
        let (frontend, frame) = (&self.frontend, &self.frame);
        let barrier = std::sync::Barrier::new(2);
        let (a, b) = std::thread::scope(|scope| {
            let helper = scope.spawn(|| {
                barrier.wait();
                fft_sample_us(frontend, frame)
            });
            barrier.wait();
            let a = fft_sample_us(frontend, frame);
            (a, helper.join().expect("calibration thread"))
        });
        self.hand_out((a + b) / 2.0)
    }
}

impl Drop for HostSpeed {
    fn drop(&mut self) {
        let handed = self.handed.borrow();
        if !handed.is_empty() {
            eprintln!(
                "host speed: {} samples, scale p10 {:.3} p50 {:.3} p90 {:.3}",
                handed.len(),
                percentile(&handed, 0.1),
                percentile(&handed, 0.5),
                percentile(&handed, 0.9)
            );
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Writes a traced run's spans as tab-separated lines.
fn write_spans(args: &Args, spans: &[Span]) -> std::io::Result<String> {
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{:?}-{}.tsv", args.workload, args.seed).to_lowercase());
    let mut text = String::from("name\tid\tstart_ns\tend_ns\n");
    for s in spans {
        let _ = writeln!(text, "{}\t{}\t{}\t{}", s.name, s.id, s.start_ns, s.end_ns);
    }
    std::fs::write(&path, text)?;
    Ok(path.display().to_string())
}

fn json(report: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.errors.is_empty(),
        report.attempted,
        report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Scripted kills panic a worker on purpose; keep their messages out of
    // the log and let every other panic through.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let scripted = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("injected fault"));
        if !scripted {
            default_hook(info);
        }
    }));

    eprintln!("kernel tier: {}", omg_nn::arch::detect().name);
    let mut report = workloads::run(&args);
    if !args.trace {
        match peak_rss_mb() {
            Some(mb) => report.metric("peak_rss_mb", mb, "MB", 1),
            None => report.errors.push("VmHWM not readable".into()),
        }
    }
    if args.trace {
        match write_spans(&args, &report.spans) {
            Ok(path) => eprintln!("spans: {} written to {path}", report.spans.len()),
            Err(e) => report.errors.push(format!("writing spans: {e}")),
        }
    }
    let expected = if args.trace {
        layers::PER_LAYER
    } else {
        workloads::END_TO_END
    };
    for name in expected {
        if !report.metrics.iter().any(|m| m.name == *name) {
            report
                .errors
                .push(format!("metric {name} was not measured"));
        }
    }
    report.metrics.retain(|m| m.value.is_finite());
    for m in &report.metrics {
        eprintln!(
            "{:<32} {:>14.4} {:<10} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for e in &report.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    println!("{}", json(&report));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
    }

    #[test]
    fn interquartile_mean_drops_both_quarters() {
        let xs = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -100.0];
        assert_eq!(interquartile_mean(&xs), 3.5);
        assert_eq!(interquartile_mean(&[7.0]), 7.0);
    }

    #[test]
    fn args_round_trip() {
        let argv = [
            "--workload",
            "serve",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ];
        let a = parse_args(argv.iter().map(|s| s.to_string())).unwrap();
        assert_eq!(a.workload, Workload::Serve);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(parse_args(["--workload", "nope"].iter().map(|s| s.to_string())).is_err());
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.check(checks::answer("q", 0, 1, &[2]));
        assert!(json(&r).starts_with("{\"correct\": false"));
    }
}
