//! Bench-trajectory regression checking.
//!
//! The gated benches (every bench [`WATCHED_METRICS`] names) emit flat
//! JSON records to `target/bench-json/`. CI compares those records against
//! the committed baseline trajectory in `crates/omg-bench/baselines/` and
//! fails the job when a watched metric regresses by more than the
//! tolerance (25% by default). The committed baselines are deliberately conservative floors
//! (about half of a local workstation measurement) so the gate catches
//! real collapses — an accidental O(n) → O(n²), a lost fast path — rather
//! than machine-to-machine variance.
//!
//! No serde is available offline, so extraction is a tiny scanner over the
//! flat `"key":number` records our benches emit (first occurrence wins).

/// Extracts the first `"key": <number>` value from a flat JSON record
/// (whitespace around the colon tolerated, so a pretty-printed baseline
/// still parses).
///
/// Returns `None` when the key is absent or not followed by a number.
pub fn json_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let start = json.find(&needle)? + needle.len();
    let rest = json[start..].trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Whether the record mentions `key` at all (used to distinguish "metric
/// absent from baseline" — skipped for forward compatibility — from
/// "metric present but unparsable" — a hard failure, so a reformatted or
/// corrupted baseline cannot silently disarm the gate).
fn has_key(json: &str, key: &str) -> bool {
    json.contains(&format!("\"{key}\""))
}

/// A higher-is-better metric the regression gate watches.
#[derive(Debug, Clone, Copy)]
pub struct WatchedMetric {
    /// Which bench record the metric lives in (`<bench>.json`).
    pub bench: &'static str,
    /// The JSON key (first occurrence).
    pub key: &'static str,
}

/// The throughput metrics CI gates on. For `serving`, the first
/// `virtual_qps` occurrence is the 1-worker configuration; `speedup_4v1`
/// guards the scaling claim; `recorder_overhead` guards the
/// leave-it-on cost of the flight recorder (enabled/disabled host
/// throughput ratio — the bench itself asserts >= 0.95, the committed
/// baseline floor is looser to absorb shared-runner noise). For `provisioning`, `v2_loads_per_s` is the
/// zero-copy cold-load throughput and `v2_v1_load_ratio` guards the
/// fast-path advantage itself (machine-independent). For `kernels`,
/// `conv_speedup` is the machine-independent fast-vs-reference advantage
/// on the conv-heavy shapes, `conv_mmacs_per_s` the absolute fast-conv
/// throughput floor, `fc_speedup` the reworked classifier head's
/// advantage, and `gemm_threads_speedup` the best row-panel-threaded GEMM
/// speedup over a 1/2/4-thread sweep (>= 1.0 by construction since the
/// sweep includes one thread, so the floor stays honest on small hosts).
/// For `recovery`, `availability` is the fraction of queries served under
/// sustained worker kills (retry layer + supervisor together) and
/// `recoveries_per_s` the rate at which the supervisor returns a killed
/// fleet to full capacity. For `hang_recovery`, `availability` is the
/// served fraction under sustained random *hangs* (watchdog preemption +
/// retry together) and `preemptions_per_s` the rate at which the watchdog
/// detects a wedge and re-provisions the slot (its detection latency is
/// asserted against `lease_ttl + grace` inside the bench itself).
pub const WATCHED_METRICS: &[WatchedMetric] = &[
    WatchedMetric {
        bench: "serving",
        key: "virtual_qps",
    },
    WatchedMetric {
        bench: "serving",
        key: "speedup_4v1",
    },
    WatchedMetric {
        bench: "serving",
        key: "recorder_overhead",
    },
    WatchedMetric {
        bench: "provisioning",
        key: "v2_loads_per_s",
    },
    WatchedMetric {
        bench: "provisioning",
        key: "v2_v1_load_ratio",
    },
    WatchedMetric {
        bench: "kernels",
        key: "conv_speedup",
    },
    WatchedMetric {
        bench: "kernels",
        key: "conv_mmacs_per_s",
    },
    WatchedMetric {
        bench: "kernels",
        key: "fc_speedup",
    },
    WatchedMetric {
        bench: "kernels",
        key: "gemm_threads_speedup",
    },
    WatchedMetric {
        bench: "recovery",
        key: "availability",
    },
    WatchedMetric {
        bench: "recovery",
        key: "recoveries_per_s",
    },
    WatchedMetric {
        bench: "hang_recovery",
        key: "availability",
    },
    WatchedMetric {
        bench: "hang_recovery",
        key: "preemptions_per_s",
    },
];

/// Compares one bench's current record against its baseline. Returns a
/// human-readable failure line per metric that regressed by more than
/// `tolerance` (a fraction: 0.25 = fail below 75% of baseline), that
/// vanished from the current record, or that cannot be parsed.
/// Metrics missing from the *baseline* are skipped (forward
/// compatibility: new metrics gate only once a baseline records them).
pub fn compare_bench(
    bench: &str,
    current_json: &str,
    baseline_json: &str,
    tolerance: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for metric in WATCHED_METRICS.iter().filter(|m| m.bench == bench) {
        let Some(baseline) = json_number(baseline_json, metric.key) else {
            if has_key(baseline_json, metric.key) {
                failures.push(format!(
                    "{bench}.{}: present in baseline but unparsable — fix the baseline \
                     rather than silently disarming the gate",
                    metric.key
                ));
            }
            continue;
        };
        let Some(current) = json_number(current_json, metric.key) else {
            failures.push(format!(
                "{bench}.{}: missing from current record (baseline {baseline:.3})",
                metric.key
            ));
            continue;
        };
        let floor = baseline * (1.0 - tolerance);
        if current < floor {
            failures.push(format!(
                "{bench}.{}: {current:.3} is below {floor:.3} \
                 (baseline {baseline:.3} - {:.0}% tolerance)",
                metric.key,
                tolerance * 100.0
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    const RECORD: &str = r#"{"bench":"serving","quick":true,"queries":96,"baseline_ms":1.5,
        "speedup_4v1":2.70,"configs":[{"workers":1,"virtual_qps":120.5,"p50_ms":1.2},
        {"workers":4,"virtual_qps":325.0}]}"#;

    #[test]
    fn extracts_first_occurrence() {
        assert_eq!(json_number(RECORD, "virtual_qps"), Some(120.5));
        assert_eq!(json_number(RECORD, "speedup_4v1"), Some(2.70));
        assert_eq!(json_number(RECORD, "queries"), Some(96.0));
        assert_eq!(json_number(RECORD, "not_there"), None);
        // Non-numeric values are not numbers.
        assert_eq!(json_number(RECORD, "bench"), None);
    }

    #[test]
    fn negative_and_scientific_numbers_parse() {
        assert_eq!(json_number(r#"{"x":-3.5}"#, "x"), Some(-3.5));
        assert_eq!(json_number(r#"{"x":1e3,"y":2}"#, "x"), Some(1000.0));
    }

    #[test]
    fn pretty_printed_records_still_parse() {
        let pretty = "{\n  \"virtual_qps\": 160.0,\n  \"speedup_4v1\" : 2.0\n}";
        assert_eq!(json_number(pretty, "virtual_qps"), Some(160.0));
        assert_eq!(json_number(pretty, "speedup_4v1"), Some(2.0));
    }

    #[test]
    fn unparsable_baseline_metric_is_a_failure_not_a_skip() {
        // A corrupted/reformatted baseline value must trip the gate, not
        // silently disarm it.
        let baseline = r#"{"virtual_qps":"oops"}"#;
        let current = r#"{"virtual_qps":100.0,"speedup_4v1":2.0}"#;
        let failures = compare_bench("serving", current, baseline, 0.25);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("unparsable"), "{failures:?}");
    }

    #[test]
    fn passes_within_tolerance_and_fails_below() {
        let baseline = r#"{"virtual_qps":100.0,"speedup_4v1":2.0}"#;
        // 80 >= 100 * 0.75: fine.
        let ok = r#"{"virtual_qps":80.0,"speedup_4v1":1.9}"#;
        assert!(compare_bench("serving", ok, baseline, 0.25).is_empty());
        // 70 < 75: regression.
        let bad = r#"{"virtual_qps":70.0,"speedup_4v1":1.9}"#;
        let failures = compare_bench("serving", bad, baseline, 0.25);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("virtual_qps"), "{failures:?}");
    }

    #[test]
    fn missing_current_metric_fails_missing_baseline_skips() {
        let baseline = r#"{"virtual_qps":100.0}"#; // no speedup_4v1 baseline
        let current = r#"{"speedup_4v1":2.5}"#; // no virtual_qps current
        let failures = compare_bench("serving", current, baseline, 0.25);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("missing from current"), "{failures:?}");
    }

    #[test]
    fn provisioning_metrics_are_watched() {
        let baseline = r#"{"v2_loads_per_s":100000,"v2_v1_load_ratio":2.5}"#;
        let bad = r#"{"v2_loads_per_s":10000,"v2_v1_load_ratio":1.0}"#;
        let failures = compare_bench("provisioning", bad, baseline, 0.25);
        assert_eq!(failures.len(), 2, "{failures:?}");
    }

    #[test]
    fn recovery_metrics_are_watched() {
        let baseline = r#"{"availability":0.9,"recoveries_per_s":2.0}"#;
        let ok = r#"{"availability":0.97,"recoveries_per_s":5.0}"#;
        assert!(compare_bench("recovery", ok, baseline, 0.25).is_empty());
        let bad = r#"{"availability":0.5,"recoveries_per_s":1.0}"#;
        let failures = compare_bench("recovery", bad, baseline, 0.25);
        assert_eq!(failures.len(), 2, "{failures:?}");
    }

    #[test]
    fn hang_recovery_metrics_are_watched() {
        let baseline = r#"{"availability":0.9,"preemptions_per_s":2.0}"#;
        let ok = r#"{"availability":0.99,"preemptions_per_s":6.0}"#;
        assert!(compare_bench("hang_recovery", ok, baseline, 0.25).is_empty());
        let bad = r#"{"availability":0.4,"preemptions_per_s":0.5}"#;
        let failures = compare_bench("hang_recovery", bad, baseline, 0.25);
        assert_eq!(failures.len(), 2, "{failures:?}");
    }

    #[test]
    fn kernel_metrics_are_watched() {
        let baseline = r#"{"conv_speedup":5.0,"conv_mmacs_per_s":2500}"#;
        let ok = r#"{"conv_speedup":4.2,"conv_mmacs_per_s":2100}"#;
        assert!(compare_bench("kernels", ok, baseline, 0.25).is_empty());
        let bad = r#"{"conv_speedup":1.1,"conv_mmacs_per_s":500}"#;
        let failures = compare_bench("kernels", bad, baseline, 0.25);
        assert_eq!(failures.len(), 2, "{failures:?}");
    }
}
