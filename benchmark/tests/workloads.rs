//! Scaled-down runs of every workload: each must pass its output checks
//! and print every metric `BENCHMARK.json` names, with its unit.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_lottery-benchmark");
/// Input size of the scaled-down runs, as a share of the benchmark's.
const SCALE: &str = "0.02";

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    body.lines()
        .filter(|l| l.contains("\"unit\""))
        .map(|l| (field(l, "name"), field(l, "unit")))
        .collect()
}

/// The string value of `"key": "value"` in one line of JSON.
fn field(line: &str, key: &str) -> String {
    let tag = format!("\"{key}\"");
    let rest = &line[line.find(&tag).expect("key present") + tag.len()..];
    let rest = &rest[rest.find('"').expect("value opens") + 1..];
    rest[..rest.find('"').expect("value closes")].to_string()
}

/// Runs the benchmark in its own scratch directory, where the traced run
/// writes its spans.
fn run(workload: &str, seed: u64, trace: bool, dir: &Path) -> Output {
    std::fs::create_dir_all(dir).expect("scratch directory");
    Command::new(BIN)
        .current_dir(dir)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", "0.3"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", SCALE])
        .output()
        .expect("benchmark binary runs")
}

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// The last line of standard output: the result object.
fn result_line(out: &Output) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout.lines().last().expect("a result line").to_string()
}

/// The numeric value printed for `name`, checking its unit.
fn value(result: &str, name: &str, unit: &str) -> f64 {
    let tag = format!("\"{name}\":{{\"value\":");
    let at = result
        .find(&tag)
        .unwrap_or_else(|| panic!("{name} missing from {result}"));
    let rest = &result[at + tag.len()..];
    let end = rest.find(',').expect("value ends");
    let expected_unit = format!(",\"unit\":\"{unit}\"}}");
    assert!(
        rest[end..].starts_with(&expected_unit),
        "{name} is not printed in {unit}: {}",
        &rest[..rest.len().min(80)]
    );
    rest[..end].parse().expect("a number")
}

fn check_workload(workload: &str) {
    for trace in [false, true] {
        let dir = scratch(&format!("{workload}-{trace}"));
        let out = run(workload, 7, trace, &dir);
        let result = result_line(&out);
        assert!(
            out.status.success(),
            "{workload} trace={trace} failed: {}\n{result}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            result.starts_with("{\"correct\":true,\"attempted\":"),
            "{result}"
        );
        assert!(!result.contains("\"attempted\":0,"), "{result}");
        let section = if trace { "per_layer" } else { "end_to_end" };
        let metrics = declared(section);
        assert!(!metrics.is_empty());
        for (name, unit) in &metrics {
            let v = value(&result, name, unit);
            assert!(v.is_finite(), "{name} = {v}");
            if !trace {
                assert!(v > 0.0, "{workload}: end-to-end {name} reads {v}");
            }
        }
        let printed = result.matches("\"unit\":").count();
        assert_eq!(printed, metrics.len(), "extra metrics in {result}");
        if trace {
            let spans = dir.join(format!("benchmark/out/spans-{workload}-seed7.jsonl"));
            let written = std::fs::read_to_string(spans).expect("spans written");
            assert!(written.lines().count() > 0);
        }
    }
}

#[test]
fn serve_prints_every_metric_and_passes_its_checks() {
    check_workload("serve");
}

#[test]
fn mechanisms_prints_every_metric_and_passes_its_checks() {
    check_workload("mechanisms");
}

#[test]
fn par_prints_every_metric_and_passes_its_checks() {
    check_workload("par");
}

/// The simulated metrics of `serve` and `mechanisms` are a function of the
/// seed alone.
#[test]
fn simulated_metrics_repeat_bit_for_bit() {
    let simulated = [
        ("failed_frac", "ratio"),
        ("p50_response_ms", "ms"),
        ("p99_response_ms.gold", "ms"),
        ("p99_response_ms.silver", "ms"),
        ("p99_response_ms.bronze", "ms"),
        ("max_stretch", "ratio"),
        ("share_error", "ratio"),
    ];
    for workload in ["serve", "mechanisms"] {
        let dir = scratch(&format!("{workload}-repeat"));
        let a = result_line(&run(workload, 11, false, &dir));
        let b = result_line(&run(workload, 11, false, &dir));
        let c = result_line(&run(workload, 12, false, &dir));
        for (name, unit) in simulated {
            let (va, vb) = (value(&a, name, unit), value(&b, name, unit));
            assert_eq!(va.to_bits(), vb.to_bits(), "{workload}: {name} moved");
        }
        let differs = simulated
            .iter()
            .any(|(name, unit)| value(&a, name, unit) != value(&c, name, unit));
        assert!(differs, "{workload}: another seed gave identical metrics");
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(BIN)
        .args([
            "--workload",
            "nosuch",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
