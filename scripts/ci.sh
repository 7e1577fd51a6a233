#!/usr/bin/env bash
# CI gate. The CI environment has no crates.io access, so every step
# runs --offline; the workspace must build from the standard library
# alone (see README "no dependencies" note).
#
# Modes:
#   scripts/ci.sh               the standard gates (fmt, build, test,
#                               clippy, rustdoc)
#   scripts/ci.sh bench-smoke   additionally runs the timing benches
#                               and the smoke-scale trace/figure bins,
#                               then validates every BENCH_*.json with
#                               the check_bench bin
#   scripts/ci.sh replay-smoke  additionally runs the deterministic-
#                               replay gate: re-run the committed
#                               scenario, checkpoint mid-run, restore,
#                               and byte-compare both the full trace
#                               (against tests/golden/replay_online.jsonl)
#                               and the restored tail; any byte
#                               difference fails the build
#   scripts/ci.sh fleet-smoke   additionally runs the fleet gates:
#                               the fleet_gate bin replays the
#                               committed cluster scenario at two
#                               worker counts and byte-compares it
#                               against tests/golden/fleet_smoke.jsonl,
#                               then the fleet bench runs at smoke
#                               scale and check_bench diffs its
#                               BENCH_fleet.json against the committed
#                               snapshot
#   scripts/ci.sh tournament-smoke
#                               additionally runs the tournament gates:
#                               the tournament_gate bin replays the
#                               committed contender x scenario grid at
#                               three worker counts and byte-compares
#                               the ranked report against
#                               tests/golden/tournament_smoke.jsonl,
#                               then the tournament bench runs at smoke
#                               scale (which also enforces the solver
#                               cost and budget-tracking gates) and
#                               check_bench diffs BENCH_tournament.json
#                               against the committed snapshot
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-default}"
case "$mode" in
  default|bench-smoke|replay-smoke|fleet-smoke|tournament-smoke) ;;
  *) echo "usage: $0 [bench-smoke|replay-smoke|fleet-smoke|tournament-smoke]" >&2; exit 2 ;;
esac

cargo fmt --check
cargo build --release --offline --workspace
cargo test -q --offline --workspace
cargo clippy --offline --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

if [[ "$mode" == bench-smoke ]]; then
  # Snapshot the committed BENCH_*.json files before the benches
  # overwrite them: check_bench --baseline diffs the fresh run against
  # this snapshot and fails on >3x per-case median regressions.
  baseline_dir=target/bench-baseline
  rm -rf "$baseline_dir"
  mkdir -p "$baseline_dir"
  cp results/BENCH_*.json "$baseline_dir"/ 2>/dev/null || true

  # Machine-readable bench output: the benches write
  # results/BENCH_{optimizers,substrates}.json, the kernel bin writes
  # the per-tick microbench medians to results/BENCH_kernel.json, the
  # all bin writes per-stage wall-times to results/BENCH_all.json, and
  # the trace bin exports JSONL run traces. check_bench exits non-zero
  # unless every BENCH_*.json is well-formed with positive timings and
  # no case regressed >3x against the committed snapshot.
  # The kernel bin's --gate additionally enforces the optimized-kernel
  # speedups against results/BENCH_kernel_baseline.json (>=8x on
  # machine/step_1ms_20t, >=10x on the large-grid field cases, >=3x on
  # profile/thread_profiles_20t).
  cargo bench --offline -p vasp-bench
  cargo run -q --release --offline -p vasp-bench --bin kernel -- --gate
  cargo run -q --release --offline -p vasp-bench --bin all -- --scale smoke
  cargo run -q --release --offline -p vasp-bench --bin trace -- --scale smoke
  cargo run -q --release --offline -p vasp-bench --bin check_bench -- --baseline "$baseline_dir"
fi

if [[ "$mode" == replay-smoke ]]; then
  # Deterministic replay gate: the replay bin re-runs the committed
  # scenario, drills checkpoint -> serialize -> restore, and exits
  # non-zero on any byte difference, printing the first divergent
  # field (see crates/core/src/experiments/replay.rs).
  cargo run -q --release --offline -p vasp-bench --bin replay
fi

if [[ "$mode" == fleet-smoke ]]; then
  # Fleet determinism gate: replay the committed 8-chip cluster
  # scenario at two worker counts and byte-compare against the golden
  # (see crates/core/src/experiments/fleet.rs), then run the fleet
  # bench at smoke scale and diff its BENCH_fleet.json medians against
  # the committed snapshot.
  baseline_dir=target/bench-baseline
  rm -rf "$baseline_dir"
  mkdir -p "$baseline_dir"
  cp results/BENCH_*.json "$baseline_dir"/ 2>/dev/null || true

  cargo run -q --release --offline -p vasp-bench --bin fleet_gate
  cargo run -q --release --offline -p vasp-bench --bin fleet -- --scale smoke
  cargo run -q --release --offline -p vasp-bench --bin check_bench -- \
    results/BENCH_fleet.json --baseline "$baseline_dir"
fi

if [[ "$mode" == tournament-smoke ]]; then
  # Tournament determinism gate: replay the committed contender x
  # scenario grid at three worker counts and byte-compare the ranked
  # report against the golden (see
  # crates/core/src/experiments/tournament.rs), then run the
  # tournament bench at smoke scale — which itself fails on a solver
  # cost ratio under 10x or a budget-tracking gap over 2 points — and
  # diff its BENCH_tournament.json medians against the committed
  # snapshot.
  baseline_dir=target/bench-baseline
  rm -rf "$baseline_dir"
  mkdir -p "$baseline_dir"
  cp results/BENCH_*.json "$baseline_dir"/ 2>/dev/null || true

  cargo run -q --release --offline -p vasp-bench --bin tournament_gate
  cargo run -q --release --offline -p vasp-bench --bin tournament -- --scale smoke
  cargo run -q --release --offline -p vasp-bench --bin check_bench -- \
    results/BENCH_tournament.json --baseline "$baseline_dir"
fi
