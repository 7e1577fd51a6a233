//! Validates machine-readable benchmark output (`BENCH_*.json`).
//!
//! ```text
//! cargo run --release -p vasp-bench --bin check_bench -- \
//!     [--baseline <dir>] [files...]
//! ```
//!
//! With no file arguments, validates every `BENCH_*.json` under
//! `results/` (the bins write there relative to their working
//! directory). Each file must parse as JSON, carry the `vasp.bench.v1`
//! schema tag, and every case/stage must have the required keys with
//! positive, finite timings. Exits non-zero on the first malformed
//! file, so CI can gate on it (`scripts/ci.sh bench-smoke`).
//!
//! With `--baseline <dir>`, each checked file is additionally diffed
//! against the same-named file in `<dir>`: any case present in both
//! whose median regressed by more than [`REGRESSION_FACTOR`]× fails
//! the check. The factor is deliberately loose — CI machines are noisy
//! shared boxes and the gate exists to catch order-of-magnitude
//! mistakes (an accidentally quadratic loop, a lost scratch buffer),
//! not single-digit-percent drift. Cases present on only one side are
//! ignored, so adding or retiring benches does not trip the gate.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use vasched::obs::{parse_json, JsonValue};
use vasp_bench::json_report::BENCH_SCHEMA;

/// A case fails the `--baseline` diff when its median exceeds the
/// baseline median by more than this factor.
const REGRESSION_FACTOR: f64 = 3.0;

/// Validates one report; returns a description of the first problem.
fn validate(text: &str) -> Result<(usize, usize), String> {
    let doc = parse_json(text).map_err(|e| e.to_string())?;
    match doc.get("schema").and_then(JsonValue::as_str) {
        Some(BENCH_SCHEMA) => {}
        Some(other) => return Err(format!("unknown schema '{other}'")),
        None => return Err("missing schema tag".to_string()),
    }
    let cases = doc
        .get("cases")
        .and_then(JsonValue::as_arr)
        .ok_or("missing 'cases' array")?;
    for (i, case) in cases.iter().enumerate() {
        case.get("id")
            .and_then(JsonValue::as_str)
            .ok_or(format!("case {i}: missing id"))?;
        for key in ["median_ns", "min_ns", "max_ns"] {
            let v = case
                .get(key)
                .and_then(JsonValue::as_f64)
                .ok_or(format!("case {i}: missing {key}"))?;
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("case {i}: {key} = {v} is not a positive time"));
            }
        }
        for key in ["iters", "samples"] {
            let v = case
                .get(key)
                .and_then(JsonValue::as_f64)
                .ok_or(format!("case {i}: missing {key}"))?;
            if !(v.is_finite() && v >= 1.0 && v.fract() == 0.0) {
                return Err(format!("case {i}: {key} = {v} is not a positive count"));
            }
        }
    }
    let stages = doc
        .get("stages")
        .and_then(JsonValue::as_arr)
        .ok_or("missing 'stages' array")?;
    for (i, stage) in stages.iter().enumerate() {
        stage
            .get("stage")
            .and_then(JsonValue::as_str)
            .ok_or(format!("stage {i}: missing name"))?;
        let v = stage
            .get("wall_s")
            .and_then(JsonValue::as_f64)
            .ok_or(format!("stage {i}: missing wall_s"))?;
        if !(v.is_finite() && v >= 0.0) {
            return Err(format!("stage {i}: wall_s = {v} is not a valid time"));
        }
    }
    Ok((cases.len(), stages.len()))
}

/// Extracts `id -> median_ns` from a parsed report's cases.
fn case_medians(doc: &JsonValue) -> Vec<(String, f64)> {
    let Some(cases) = doc.get("cases").and_then(JsonValue::as_arr) else {
        return Vec::new();
    };
    cases
        .iter()
        .filter_map(|case| {
            let id = case.get("id").and_then(JsonValue::as_str)?;
            let median = case.get("median_ns").and_then(JsonValue::as_f64)?;
            Some((id.to_string(), median))
        })
        .collect()
}

/// Diffs `current` against `baseline` case by case. Returns the list
/// of regressions: `(id, baseline_ns, current_ns)` where the current
/// median exceeds `factor` times the baseline median.
fn regressions(baseline: &JsonValue, current: &JsonValue, factor: f64) -> Vec<(String, f64, f64)> {
    let base = case_medians(baseline);
    case_medians(current)
        .into_iter()
        .filter_map(|(id, now)| {
            let (_, then) = base.iter().find(|(bid, _)| *bid == id)?;
            (now > factor * then).then_some((id, *then, now))
        })
        .collect()
}

/// Runs the `--baseline` diff for `path` if the baseline directory has
/// a file of the same name. Returns false when any case regressed.
fn check_against_baseline(path: &Path, text: &str, baseline_dir: &Path) -> bool {
    let Some(name) = path.file_name() else {
        return true;
    };
    let base_path = baseline_dir.join(name);
    let base_text = match std::fs::read_to_string(&base_path) {
        Ok(t) => t,
        // No committed baseline for this report: nothing to diff.
        Err(_) => return true,
    };
    let (Ok(base_doc), Ok(cur_doc)) = (parse_json(&base_text), parse_json(text)) else {
        // Malformed JSON is already reported by `validate`.
        return true;
    };
    let bad = regressions(&base_doc, &cur_doc, REGRESSION_FACTOR);
    for (id, then, now) in &bad {
        eprintln!(
            "FAIL {}: case '{id}' regressed {:.1}x ({:.0} ns -> {:.0} ns, limit {REGRESSION_FACTOR}x)",
            path.display(),
            now / then,
            then,
            now
        );
    }
    bad.is_empty()
}

fn check_file(path: &Path, baseline_dir: Option<&Path>) -> bool {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("FAIL {}: {e}", path.display());
            return false;
        }
    };
    let mut ok = match validate(&text) {
        Ok((cases, stages)) => {
            println!(
                "ok   {}: {cases} case(s), {stages} stage(s)",
                path.display()
            );
            true
        }
        Err(why) => {
            eprintln!("FAIL {}: {why}", path.display());
            false
        }
    };
    if let Some(dir) = baseline_dir {
        ok &= check_against_baseline(path, &text, dir);
    }
    ok
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline_dir: Option<PathBuf> = None;
    if let Some(pos) = args.iter().position(|a| a == "--baseline") {
        if pos + 1 >= args.len() {
            eprintln!("--baseline requires a directory argument");
            return ExitCode::FAILURE;
        }
        args.remove(pos);
        baseline_dir = Some(PathBuf::from(args.remove(pos)));
    }
    let files: Vec<PathBuf> = if args.is_empty() {
        let mut found: Vec<PathBuf> = std::fs::read_dir("results")
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.extension().is_some_and(|e| e == "json")
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("BENCH_"))
            })
            .collect();
        found.sort();
        found
    } else {
        args.into_iter().map(PathBuf::from).collect()
    };

    if files.is_empty() {
        eprintln!("no BENCH_*.json files found (run a bench first, or pass paths)");
        return ExitCode::FAILURE;
    }
    // Check every file (no short-circuit) so one failure does not hide
    // the rest of the report.
    let mut all_ok = true;
    for f in &files {
        all_ok &= check_file(f, baseline_dir.as_deref());
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cases: &[(&str, f64)]) -> JsonValue {
        let body: Vec<String> = cases
            .iter()
            .map(|(id, med)| {
                format!(
                    r#"{{"id":"{id}","median_ns":{med},"min_ns":{med},"max_ns":{med},"iters":1,"samples":1}}"#
                )
            })
            .collect();
        let text = format!(
            r#"{{"schema":"vasp.bench.v1","cases":[{}],"stages":[]}}"#,
            body.join(",")
        );
        parse_json(&text).expect("valid test report")
    }

    #[test]
    fn within_factor_passes() {
        let base = report(&[("a/x", 100.0), ("a/y", 50.0)]);
        let cur = report(&[("a/x", 299.0), ("a/y", 20.0)]);
        assert!(regressions(&base, &cur, 3.0).is_empty());
    }

    #[test]
    fn over_factor_fails_with_details() {
        let base = report(&[("a/x", 100.0)]);
        let cur = report(&[("a/x", 301.0)]);
        let bad = regressions(&base, &cur, 3.0);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].0, "a/x");
        assert_eq!(bad[0].1, 100.0);
        assert_eq!(bad[0].2, 301.0);
    }

    #[test]
    fn unmatched_cases_are_ignored() {
        // New benches and retired benches must not trip the gate.
        let base = report(&[("old/case", 10.0)]);
        let cur = report(&[("new/case", 1e9)]);
        assert!(regressions(&base, &cur, 3.0).is_empty());
    }
}
