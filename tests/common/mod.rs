//! Helpers shared by the integration tests.

use vasp::vasched::obs::diff_traces;

/// Compares `actual` against `tests/golden/<name>`, or rewrites the
/// golden when `UPDATE_GOLDENS` is set. A mismatch names the first
/// divergent record and field (byte comparison for lines that are not
/// JSON).
pub fn check_golden(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert!(
        expected == actual,
        "{name} drifted from its golden ({} vs {} bytes); if the engine \
         change is intentional, regenerate with UPDATE_GOLDENS=1: {:?}",
        expected.len(),
        actual.len(),
        diff_traces(&expected, actual),
    );
}
