//! Deterministic trace replay: re-run a scenario and diff its JSONL
//! trace against a reference, reporting the first divergent field.
//!
//! Byte comparison (`expected == actual`) is the CI gate — it is total
//! and cannot lie. This module is the *diagnosis* layer behind that
//! gate: when two traces differ, [`diff_traces`] walks both documents
//! record by record and field by field and names the first divergence
//! (`record 14, cores[7].f_hz: 3.1e9 vs 3.05e9`) instead of leaving a
//! kilobyte-long byte offset to stare at. The golden tests
//! (`tests/obs.rs`, `tests/fleet.rs`, `tests/tournament.rs`) re-run
//! their committed scenarios, byte-compare, and print this diff on
//! failure.
//!
//! The walk understands nothing about the trace schema beyond "JSONL
//! with one value per line": it works on any pair of documents the
//! [`super::json`] parser accepts, so snapshot JSON and experiment CSV
//! headers can reuse it.

use super::json::{parse_json, JsonValue};
use std::fmt;

/// The first point where two traces disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// 0-based line (record) index in the JSONL document.
    pub record: usize,
    /// Dotted path to the divergent field (`cores[7].f_hz`), or a
    /// structural description (`<line count>`, `<parse>`).
    pub field: String,
    /// The reference side's value, rendered.
    pub expected: String,
    /// The replayed side's value, rendered.
    pub actual: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "record {} diverges at {}: expected {}, got {}",
            self.record, self.field, self.expected, self.actual
        )
    }
}

/// Renders a value for a divergence report: scalars verbatim,
/// containers as a length summary (the walk recurses into containers,
/// so a container only appears here on a kind or length mismatch).
fn render(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "null".to_string(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Num(n) => format!("{n}"),
        JsonValue::Str(s) => format!("{s:?}"),
        JsonValue::Arr(items) => format!("<array of {}>", items.len()),
        JsonValue::Obj(entries) => format!("<object with {} keys>", entries.len()),
    }
}

/// Recursively compares two values, returning the first divergence
/// found in document order. Numbers compare by bit pattern — replay is
/// a byte-identity contract, so `0.0` vs `-0.0` is a real divergence.
fn diff_values(
    path: &str,
    expected: &JsonValue,
    actual: &JsonValue,
) -> Option<(String, String, String)> {
    match (expected, actual) {
        (JsonValue::Null, JsonValue::Null) => None,
        (JsonValue::Bool(a), JsonValue::Bool(b)) if a == b => None,
        (JsonValue::Num(a), JsonValue::Num(b)) if a.to_bits() == b.to_bits() => None,
        (JsonValue::Str(a), JsonValue::Str(b)) if a == b => None,
        (JsonValue::Arr(a), JsonValue::Arr(b)) => {
            for (i, (ea, eb)) in a.iter().zip(b.iter()).enumerate() {
                if let Some(d) = diff_values(&format!("{path}[{i}]"), ea, eb) {
                    return Some(d);
                }
            }
            if a.len() != b.len() {
                return Some((
                    format!("{path}.<len>"),
                    a.len().to_string(),
                    b.len().to_string(),
                ));
            }
            None
        }
        (JsonValue::Obj(a), JsonValue::Obj(b)) => {
            for (i, ((ka, va), (kb, vb))) in a.iter().zip(b.iter()).enumerate() {
                if ka != kb {
                    return Some((
                        format!("{path}.<key {i}>"),
                        format!("{ka:?}"),
                        format!("{kb:?}"),
                    ));
                }
                let sub = if path.is_empty() {
                    ka.clone()
                } else {
                    format!("{path}.{ka}")
                };
                if let Some(d) = diff_values(&sub, va, vb) {
                    return Some(d);
                }
            }
            if a.len() != b.len() {
                return Some((
                    format!("{path}.<keys>"),
                    a.len().to_string(),
                    b.len().to_string(),
                ));
            }
            None
        }
        _ => Some((path.to_string(), render(expected), render(actual))),
    }
}

/// Diffs two JSONL documents record by record, returning the first
/// divergence (`None`: semantically identical).
///
/// Lines must parse on both sides; a line that parses on one side only
/// is reported as a `<parse>` divergence, and a trailing-record-count
/// mismatch as `<line count>`. A `None` from this function does *not*
/// guarantee byte identity (e.g. whitespace differences survive it) —
/// CI byte-compares first and uses this only to explain failures.
pub fn diff_traces(expected: &str, actual: &str) -> Option<Divergence> {
    let exp_lines: Vec<&str> = expected.lines().collect();
    let act_lines: Vec<&str> = actual.lines().collect();
    for (record, (el, al)) in exp_lines.iter().zip(act_lines.iter()).enumerate() {
        let ev = parse_json(el);
        let av = parse_json(al);
        match (ev, av) {
            (Ok(ev), Ok(av)) => {
                if let Some((field, expected, actual)) = diff_values("", &ev, &av) {
                    return Some(Divergence {
                        record,
                        field,
                        expected,
                        actual,
                    });
                }
            }
            (Err(e), Ok(_)) => {
                return Some(Divergence {
                    record,
                    field: "<parse>".to_string(),
                    expected: format!("unparseable reference line ({e})"),
                    actual: "a parseable record".to_string(),
                });
            }
            (Ok(_), Err(e)) => {
                return Some(Divergence {
                    record,
                    field: "<parse>".to_string(),
                    expected: "a parseable record".to_string(),
                    actual: format!("unparseable replayed line ({e})"),
                });
            }
            (Err(_), Err(_)) => {
                // Both unparseable: fall back to byte comparison of the
                // raw lines so garbage-vs-same-garbage still passes.
                if el != al {
                    return Some(Divergence {
                        record,
                        field: "<parse>".to_string(),
                        expected: format!("{el:?}"),
                        actual: format!("{al:?}"),
                    });
                }
            }
        }
    }
    if exp_lines.len() != act_lines.len() {
        return Some(Divergence {
            record: exp_lines.len().min(act_lines.len()),
            field: "<line count>".to_string(),
            expected: exp_lines.len().to_string(),
            actual: act_lines.len().to_string(),
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_documents_have_no_divergence() {
        let doc = "{\"a\":1,\"b\":[1,2,{\"c\":null}]}\n{\"a\":2}\n";
        assert_eq!(diff_traces(doc, doc), None);
    }

    #[test]
    fn first_divergent_field_is_named_with_its_path() {
        let a = "{\"t\":1,\"cores\":[{\"id\":0,\"f\":3.0},{\"id\":1,\"f\":2.5}]}\n";
        let b = "{\"t\":1,\"cores\":[{\"id\":0,\"f\":3.0},{\"id\":1,\"f\":2.4}]}\n";
        let d = diff_traces(a, b).expect("must diverge");
        assert_eq!(d.record, 0);
        assert_eq!(d.field, "cores[1].f");
        assert_eq!(d.expected, "2.5");
        assert_eq!(d.actual, "2.4");
    }

    #[test]
    fn later_records_report_their_index() {
        let a = "{\"x\":1}\n{\"x\":2}\n{\"x\":3}\n";
        let b = "{\"x\":1}\n{\"x\":2}\n{\"x\":4}\n";
        let d = diff_traces(a, b).expect("must diverge");
        assert_eq!(d.record, 2);
        assert_eq!(d.field, "x");
    }

    #[test]
    fn truncated_documents_report_a_line_count_mismatch() {
        let a = "{\"x\":1}\n{\"x\":2}\n";
        let b = "{\"x\":1}\n";
        let d = diff_traces(a, b).expect("must diverge");
        assert_eq!(d.field, "<line count>");
        assert_eq!(d.record, 1);
        assert_eq!(d.expected, "2");
        assert_eq!(d.actual, "1");
    }

    #[test]
    fn sign_of_zero_and_key_order_are_divergences() {
        let d = diff_traces("{\"x\":0}\n", "{\"x\":-0}\n").expect("0 vs -0");
        assert_eq!(d.field, "x");
        let d = diff_traces("{\"a\":1,\"b\":2}\n", "{\"b\":2,\"a\":1}\n").expect("key order");
        assert!(d.field.contains("<key"), "{}", d.field);
    }

    #[test]
    fn missing_trailing_key_is_reported() {
        let d = diff_traces("{\"a\":1,\"b\":2}\n", "{\"a\":1}\n").expect("must diverge");
        assert_eq!(d.field, ".<keys>");
    }
}
