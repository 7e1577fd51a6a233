#!/usr/bin/env bash
# CI gate. The CI environment has no crates.io access, so every step
# runs --offline; the workspace must build from the standard library
# alone (see README "no dependencies" note).
#
# Modes:
#   scripts/ci.sh               the standard gates (fmt, build, test,
#                               clippy, rustdoc)
#   scripts/ci.sh bench-smoke   additionally runs the kernel bench
#                               with its speedup gate and the
#                               smoke-scale all/trace bins, then
#                               validates their BENCH_*.json with the
#                               check_bench bin
#   scripts/ci.sh fleet-smoke   additionally runs the fleet bench at
#                               smoke scale and check_bench diffs its
#                               BENCH_fleet.json against the committed
#                               results/BENCH_fleet.json
#   scripts/ci.sh tournament-smoke
#                               additionally runs the tournament bench
#                               at smoke scale (which also enforces the
#                               solver cost and budget-tracking gates)
#                               and check_bench diffs
#                               BENCH_tournament.json against the
#                               committed results/BENCH_tournament.json
#
# The golden replay, fleet and tournament scenarios (byte-compared
# against tests/golden/ and across worker counts) are tier-1 tests in
# tests/obs.rs, tests/fleet.rs and tests/tournament.rs, so every mode
# checks them in its cargo test step.
#   scripts/ci.sh results-check additionally rebuilds every committed
#                               results/*.csv with the bin that writes
#                               it (all, slo, fleet, tournament) at
#                               paper scale and the default seed, each
#                               in a temp directory so results/ is
#                               never overwritten, and cmp's it against
#                               the committed file; fig15.csv (host
#                               timings) is skipped
#
# The bins write results/ relative to their working directory, so every
# mode runs them in a temp directory: no mode rewrites the committed
# paper-scale results/ (CSVs, REPORT.md, BENCH_*.json) with smoke-scale
# or host-dependent numbers. Regenerate those by running the owning bin
# from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-default}"
case "$mode" in
  default|bench-smoke|fleet-smoke|tournament-smoke|results-check) ;;
  *) echo "usage: $0 [bench-smoke|fleet-smoke|tournament-smoke|results-check]" >&2; exit 2 ;;
esac

cargo fmt --check
cargo build --release --offline --workspace
cargo test -q --offline --workspace
cargo clippy --offline --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

# Release bins of the workspace (built above) and a scratch working
# directory for the modes that run them.
bin_dir="$PWD/target/release"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

if [[ "$mode" == bench-smoke ]]; then
  # Machine-readable bench output: in the temp directory the kernel
  # bin writes the per-tick microbench medians to
  # results/BENCH_kernel.json, the all bin writes per-stage wall-times
  # to results/BENCH_all.json, and the trace bin exports JSONL run
  # traces. check_bench exits non-zero unless every committed
  # and fresh BENCH_*.json is well-formed with positive timings and no
  # fresh case regressed >3x against its committed results/ copy.
  # The kernel bin's --gate additionally enforces the optimized-kernel
  # speedups against results/BENCH_kernel_baseline.json (>=8x on
  # machine/step_1ms_20t, >=10x on the large-grid field cases, >=15x on
  # profile/thread_profiles_20t, >=1.3x on solver/sann_20c, >=1.8x on
  # construct/machine_grid60), each raw speedup multiplied by the host
  # factor of the benchmark's host-reference kernel, timed just before
  # and just after that case.
  (cd "$tmp" && "$bin_dir/kernel" --gate)
  (cd "$tmp" && "$bin_dir/all" --scale smoke)
  (cd "$tmp" && "$bin_dir/trace" --scale smoke)
  cargo run -q --release --offline -p vasp-bench --bin check_bench -- \
    results/BENCH_*.json "$tmp"/results/BENCH_*.json \
    --baseline results
fi

if [[ "$mode" == fleet-smoke ]]; then
  # Run the fleet bench at smoke scale in the temp directory — which
  # itself fails when its routing-cost ratios miss their bounds — and
  # diff its BENCH_fleet.json medians against the committed copy.
  (cd "$tmp" && "$bin_dir/fleet" --scale smoke)
  cargo run -q --release --offline -p vasp-bench --bin check_bench -- \
    "$tmp/results/BENCH_fleet.json" --baseline results
fi

if [[ "$mode" == tournament-smoke ]]; then
  # Run the tournament bench at smoke scale in the temp directory —
  # which itself fails on a solver cost ratio under 10x or a
  # budget-tracking gap over 2 points — and diff its
  # BENCH_tournament.json medians against the committed copy.
  (cd "$tmp" && "$bin_dir/tournament" --scale smoke)
  cargo run -q --release --offline -p vasp-bench --bin check_bench -- \
    "$tmp/results/BENCH_tournament.json" --baseline results
fi

if [[ "$mode" == results-check ]]; then
  # Results gate: every committed CSV must be reproducible from the
  # source. Each bin runs once at paper scale in its own temp
  # directory (the bins write results/ relative to their cwd). A CSV
  # belongs to the bin named by owner_of; `all` owns the rest, because
  # it runs every figure of vasp_bench::figures, and each figure bin
  # (fig04 ... faults) writes the same bytes as its stage of `all`.
  owner_of() {
    case "$1" in
      fig15.csv) ;; # host timings: never reproducible
      slo_*.csv) echo slo ;;
      fleet_*.csv) echo fleet ;;
      tournament_*.csv) echo tournament ;;
      *) echo all ;;
    esac
  }
  for bin in all slo fleet tournament; do
    mkdir -p "$tmp/$bin"
    (cd "$tmp/$bin" && "$bin_dir/$bin" --scale paper > run.log)
  done
  failed=0
  for committed in results/*.csv; do
    name="$(basename "$committed")"
    bin="$(owner_of "$name")"
    [[ -n "$bin" ]] || continue
    if ! cmp "$committed" "$tmp/$bin/results/$name"; then
      echo "results-check: $name differs from a fresh $bin run" >&2
      failed=1
    fi
  done
  [[ "$failed" == 0 ]] || exit 1
  echo "results-check: every committed CSV reproduces"
fi
