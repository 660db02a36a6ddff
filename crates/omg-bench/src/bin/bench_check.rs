//! CI gate: compares the bench JSON uploaded from this run
//! (`target/bench-json/`) against the committed baseline trajectory
//! (`crates/omg-bench/baselines/`) and exits nonzero on a >25% regression
//! of any metric in [`WATCHED_METRICS`].
//!
//! Usage:
//!
//! ```text
//! bench_check [--current-dir DIR] [--baseline-dir DIR] [--tolerance F]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use omg_bench::regression::{compare_bench, WATCHED_METRICS};

fn main() -> ExitCode {
    let mut current_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/bench-json");
    let mut baseline_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("baselines");
    let mut tolerance = 0.25f64;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--current-dir" => current_dir = PathBuf::from(args.next().expect("dir after flag")),
            "--baseline-dir" => baseline_dir = PathBuf::from(args.next().expect("dir after flag")),
            "--tolerance" => {
                tolerance = args
                    .next()
                    .expect("fraction after flag")
                    .parse()
                    .expect("tolerance must be a fraction like 0.25")
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let benches: Vec<&str> = {
        let mut seen = Vec::new();
        for m in WATCHED_METRICS {
            if !seen.contains(&m.bench) {
                seen.push(m.bench);
            }
        }
        seen
    };

    let mut failures = Vec::new();
    for bench in benches {
        let current_path = current_dir.join(format!("{bench}.json"));
        let baseline_path = baseline_dir.join(format!("{bench}.json"));
        let Ok(current) = std::fs::read_to_string(&current_path) else {
            failures.push(format!(
                "{bench}: no current record at {} (did the bench run?)",
                current_path.display()
            ));
            continue;
        };
        let Ok(baseline) = std::fs::read_to_string(&baseline_path) else {
            println!(
                "{bench}: no committed baseline at {} — skipping",
                baseline_path.display()
            );
            continue;
        };
        let bench_failures = compare_bench(bench, &current, &baseline, tolerance);
        if bench_failures.is_empty() {
            println!("{bench}: OK (within {:.0}% of baseline)", tolerance * 100.0);
        }
        failures.extend(bench_failures);
    }

    if failures.is_empty() {
        println!("bench_check: no throughput regressions");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("REGRESSION: {f}");
        }
        eprintln!(
            "bench_check: {} regression(s) beyond {:.0}% tolerance",
            failures.len(),
            tolerance * 100.0
        );
        ExitCode::FAILURE
    }
}
