//! `benchmark` — runs the repository benchmark.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--json PATH]
//! ```
//!
//! With `--workload`, runs that workload in this process for `S` host
//! seconds, prints every metric as `workload metric value unit`, and
//! ends with one JSON line (`correct`, `attempted`, `failed`,
//! `metrics`): the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Without `--workload`, runs every workload
//! in its own child process, untraced and traced unless `--trace`
//! picks one, and ends with the merged JSON line. `--json` also writes
//! the final line to a file. The exit code is non-zero when any check
//! fails; the failed checks are named on standard error.

use std::process::{Command, ExitCode};
use vasched::obs::{parse_json, JsonValue};
use vasp_benchmark::{run, Kind, RunOptions, Sizing};

const DEFAULT_SEED: u64 = 20_080_621;
const DEFAULT_SECONDS: f64 = 4.0;
const USAGE: &str =
    "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--json PATH]";

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    json: Option<String>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        json: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = Some(Kind::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad --seconds `{v}`"))?;
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace `{v}` (0 or 1)")),
                });
            }
            "--json" => args.json = Some(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn finish(json: &str, path: Option<&str>) -> bool {
    println!("{json}");
    match path {
        Some(p) => match std::fs::write(p, format!("{json}\n")) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("benchmark: cannot write {p}: {e}");
                false
            }
        },
        None => true,
    }
}

fn single(kind: Kind, args: &Args) -> ExitCode {
    let report = run(&RunOptions {
        kind,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace.unwrap_or(false),
        sizing: Sizing::full(),
    });
    let name = kind.name();
    println!("{name} digest {:016x} hex", report.digest);
    for m in report.metrics.iter().chain(&report.info) {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    if !report.not_applicable.is_empty() {
        println!(
            "# {name}: not measured by this workload, reported as 0: {}",
            report.not_applicable.join(" ")
        );
    }
    for f in &report.failures {
        eprintln!("benchmark: {name}: check failed: {f}");
    }
    let written = finish(&report.to_json(), args.json.as_deref());
    if report.correct() && written {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process of its own and merges their
/// final lines, prefixing each metric with its workload.
fn all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("benchmark: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let traces = args.trace.map_or(vec![false, true], |t| vec![t]);
    let (mut correct, mut attempted, mut failed) = (true, 0.0, 0.0);
    let mut metrics = Vec::new();
    let mut failures = Vec::new();
    for kind in Kind::ALL {
        for &trace in &traces {
            let label = format!("{} --trace {}", kind.name(), u8::from(trace));
            let out = Command::new(&exe)
                .args(["--workload", kind.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .output();
            let out = match out {
                Ok(o) => o,
                Err(e) => {
                    failures.push(format!("{label}: cannot start: {e}"));
                    continue;
                }
            };
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            let stdout = String::from_utf8_lossy(&out.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let last = lines.pop().and_then(|l| parse_json(l).ok());
            for l in lines {
                println!("{l}");
            }
            let Some(result) = last else {
                correct = false;
                failures.push(format!("{label}: no result line"));
                continue;
            };
            correct &= result.get("correct") == Some(&JsonValue::Bool(true));
            attempted += result
                .get("attempted")
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0);
            failed += result.get("failed").and_then(|v| v.as_f64()).unwrap_or(0.0);
            if let Some(JsonValue::Obj(entries)) = result.get("metrics") {
                for (name, m) in entries {
                    metrics.push((format!("{}.{name}", kind.name()), m.clone()));
                }
            }
            if !out.status.success() {
                failures.push(format!("{label}: exited with {}", out.status));
            }
        }
    }
    let json = JsonValue::Obj(vec![
        (
            "correct".to_string(),
            JsonValue::Bool(correct && failures.is_empty()),
        ),
        ("attempted".to_string(), JsonValue::Num(attempted)),
        ("failed".to_string(), JsonValue::Num(failed)),
        ("metrics".to_string(), JsonValue::Obj(metrics)),
    ])
    .to_json();
    let written = finish(&json, args.json.as_deref());
    for f in &failures {
        eprintln!("benchmark: failed: {f}");
    }
    if correct && failures.is_empty() && written {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(kind) => single(kind, &args),
        None => all(&args),
    }
}
