//! The repository's end-to-end benchmark.
//!
//! ```text
//! lottery-benchmark --workload <serve|mechanisms|par> --seed <n> --seconds <s> --trace <0|1>
//!                   [--scale <f>]
//! ```
//!
//! Untraced runs (`--trace 0`) print every end-to-end metric; the traced
//! run (`--trace 1`) prints every per-layer metric and writes its spans
//! as JSON lines to `benchmark/out/` under the working directory. The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`; the
//! line before it stamps the run's provenance and work counts. A failed
//! output check prints `"correct": false` and exits with code 1.
//! See `README.md` for the workloads and metrics.

mod common;
mod layers;
mod mechanisms;
mod par;
mod serve;

use std::fmt::Write as _;
use std::process::ExitCode;

use common::{Report, RunConfig};

const USAGE: &str = "usage: lottery-benchmark --workload <serve|mechanisms|par> --seed <n> \
                     --seconds <s> --trace <0|1> [--scale <f>]";

struct Args {
    workload: String,
    config: RunConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = 1.0;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--scale" => scale = value.parse::<f64>().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["serve", "mechanisms", "par"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    if !(scale.is_finite() && scale > 0.0 && scale <= 1.0) {
        return Err("--scale must be in (0, 1]".into());
    }
    Ok(Args {
        workload,
        config: RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            scale,
        },
    })
}

/// The current git revision, read from `.git` without running git; a
/// checkout that is not a git repository reports `unknown`.
fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn stamp_line(args: &Args, report: &Report, nproc: usize) -> String {
    let mut s = String::from("{\"stamp\":{");
    let _ = write!(
        s,
        "\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"scale\":{},\"nproc\":{nproc},\
         \"rustc\":{},\"git_revision\":{},\"profile\":{},\"work\":{{",
        json_string(&args.workload),
        args.config.seed,
        args.config.seconds,
        args.config.trace,
        args.config.scale,
        json_string(env!("BENCH_RUSTC_VERSION")),
        json_string(&git_revision()),
        json_string(env!("BENCH_PROFILE")),
    );
    for (i, (name, value)) in report.counts.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(s, "{sep}{}:{value}", json_string(name));
    }
    s.push_str("}}}");
    s
}

fn result_line(report: &Report, correct: bool) -> String {
    let mut s = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        report.attempted, report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}{}:{{\"value\":{},\"unit\":{}}}",
            json_string(&m.name),
            m.value,
            json_string(m.unit)
        );
    }
    s.push_str("}}");
    s
}

fn write_spans(args: &Args, report: &Report) -> Result<String, String> {
    let Some(spans) = &report.spans else {
        return Ok(String::new());
    };
    let dir = std::path::Path::new("benchmark/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload, args.config.seed
    ));
    std::fs::write(&path, spans.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Before any repetition pins itself to one CPU.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut report = match args.workload.as_str() {
        "serve" => serve::run(&args.config),
        "mechanisms" => mechanisms::run(&args.config),
        _ => par::run(&args.config),
    };
    if args.config.trace {
        layers::complete(&mut report);
    }
    for m in &mut report.metrics {
        if !m.value.is_finite() {
            report
                .check_failures
                .push(format!("{} is not a finite number", m.name));
            m.value = 0.0;
        }
    }
    match write_spans(&args, &report) {
        Ok(path) if !path.is_empty() => {
            let n = report.spans.as_ref().map_or(0, |s| s.len());
            println!("spans: {n} written to {path}");
        }
        Ok(_) => {}
        Err(e) => report.check_failures.push(format!("writing spans: {e}")),
    }
    for f in &report.check_failures {
        eprintln!("check failed: {f}");
    }
    let correct = report.check_failures.is_empty();
    println!("{}", stamp_line(&args, &report, nproc));
    println!("{}", result_line(&report, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
