//! The benchmark's own rules, checked through its library API at
//! test sizes: metric names, the catalog against `BENCHMARK.json`, the
//! tail-percentile rule, and digest invariance to the worker count.

use std::collections::BTreeSet;
use vasched::obs::{parse_json, JsonValue};
use vasp_benchmark::metrics::{valid_name, END_TO_END, PER_LAYER};
use vasp_benchmark::stats::{checked_percentile, samples_beyond, tail};
use vasp_benchmark::workload::Workload;
use vasp_benchmark::{run, Kind, RunOptions, Sizing};

fn tiny_run(kind: Kind, seed: u64, trace: bool) -> vasp_benchmark::RunReport {
    run(&RunOptions {
        kind,
        seed,
        seconds: 0.0,
        trace,
        sizing: Sizing::tiny(),
    })
}

#[test]
fn metric_names_and_units_are_legal_and_unique() {
    let mut seen = BTreeSet::new();
    for d in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid_name(d.name), "bad metric name {}", d.name);
        assert!(seen.insert(d.name), "metric {} listed twice", d.name);
        assert!(
            !d.unit.is_empty()
                && d.unit.len() <= 16
                && d.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {} of {}",
            d.unit,
            d.name
        );
    }
    for k in Kind::ALL {
        assert!(valid_name(k.name()));
    }
    assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b"));
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));
    let setup_bound = END_TO_END[0].bound.expect("end-to-end metrics are bounded");
    for d in &END_TO_END {
        let bound = d.bound.expect("end-to-end metrics are bounded");
        assert!(bound > 0.0 && bound <= 0.25 && bound <= setup_bound);
    }
}

#[test]
fn catalog_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = parse_json(&text).expect("BENCHMARK.json parses");
    let entries = |key: &str| -> Vec<JsonValue> {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
            .to_vec()
    };
    let field = |e: &JsonValue, k: &str| -> String {
        e.get(k)
            .and_then(|v| v.as_str())
            .unwrap_or_else(|| panic!("entry lacks `{k}`"))
            .to_string()
    };

    let workloads: Vec<String> = entries("workloads")
        .iter()
        .map(|e| field(e, "name"))
        .collect();
    let kinds: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
    assert_eq!(workloads, kinds);

    let e2e = entries("end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (e, d) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(field(e, "name"), d.name);
        assert_eq!(field(e, "unit"), d.unit);
        assert_eq!(field(e, "better"), d.better.as_str());
        assert_eq!(
            e.get("bound").and_then(|v| v.as_f64()),
            d.bound,
            "{}",
            d.name
        );
    }
    let layers = entries("per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (e, d) in layers.iter().zip(&PER_LAYER) {
        assert_eq!(field(e, "name"), d.name);
        assert_eq!(field(e, "unit"), d.unit);
        assert_eq!(field(e, "better"), d.better.as_str());
    }
}

#[test]
fn runs_emit_exactly_the_catalog_and_pass_their_checks() {
    let mut produced = BTreeSet::new();
    for kind in Kind::ALL {
        for (trace, catalog) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            // A seed no committed number was tuned on.
            let report = tiny_run(kind, 7, trace);
            assert!(report.correct(), "{kind:?}: {:?}", report.failures);
            assert_eq!(report.failed, 0);
            assert!(report.attempted >= 3);
            let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
            let expected: Vec<&str> = catalog.iter().map(|d| d.name).collect();
            assert_eq!(names, expected, "{kind:?} trace={trace}");
            for m in &report.metrics {
                assert!(m.value.is_finite(), "{kind:?} {} = {}", m.name, m.value);
                if !report.not_applicable.contains(&m.name) {
                    produced.insert(m.name);
                }
            }
            if !trace {
                // End-to-end metrics exist on every workload and are
                // never zero.
                assert!(report.not_applicable.is_empty(), "{kind:?}");
                assert!(report.metrics.iter().all(|m| m.value > 0.0), "{kind:?}");
            }
            let json = parse_json(&report.to_json()).expect("result line is JSON");
            assert_eq!(json.get("correct"), Some(&JsonValue::Bool(true)));
        }
    }
    // Every per-layer metric is measured by at least one workload.
    for d in &PER_LAYER {
        assert!(produced.contains(d.name), "no workload produces {}", d.name);
    }
}

#[test]
fn tail_helper_reports_the_highest_percentile_with_ten_samples_beyond() {
    let sample = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
    // 1000 samples: p99 has exactly 10 beyond it, p99.9 only 1.
    assert_eq!(samples_beyond(1000, 99.0), 10);
    let t = tail(&sample(1000)).expect("enough samples");
    assert_eq!((t.pct, t.value), (99.0, 990.0));
    // 10 000 samples qualify p99.9.
    assert_eq!(tail(&sample(10_000)).map(|t| t.pct), Some(99.9));
    // 999 samples leave 9 beyond p99, so the helper falls back to p95.
    assert_eq!(tail(&sample(999)).map(|t| t.pct), Some(95.0));
    assert_eq!(checked_percentile(&sample(999), 99.0), None);
    assert_eq!(checked_percentile(&sample(1000), 99.0), Some(990.0));
    // 20 samples still qualify the median; 19 are refused outright.
    assert_eq!(tail(&sample(20)).map(|t| t.pct), Some(50.0));
    assert_eq!(tail(&sample(19)), None);
    assert_eq!(tail(&[]), None);
}

#[test]
fn digest_is_the_same_at_one_and_two_workers() {
    for kind in Kind::ALL {
        let wl = Workload::new(kind, Sizing::tiny(), 20_080_621);
        let one = wl.round(1);
        let two = wl.round(2);
        let (traced, _) = wl.traced_round(2);
        assert!(one.problems.is_empty(), "{kind:?}: {:?}", one.problems);
        assert_eq!(one.digest, two.digest, "{kind:?}: worker count leaked in");
        assert_eq!(
            one.digest, traced.digest,
            "{kind:?}: tracing changed outputs"
        );
        assert_eq!(one.values, two.values);
    }
}
