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
#                               results/BENCH_fleet.json
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
#                               against the committed
#                               results/BENCH_tournament.json
#   scripts/ci.sh results-check additionally rebuilds every committed
#                               results/*.csv with the bin that writes
#                               it (all, fig04, ablation, slo, fleet,
#                               tournament) at paper scale and the
#                               default seed, each in a temp directory
#                               so results/ is never overwritten, and
#                               cmp's it against the committed file;
#                               fig15.csv (host timings) is skipped
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
  default|bench-smoke|replay-smoke|fleet-smoke|tournament-smoke|results-check) ;;
  *) echo "usage: $0 [bench-smoke|replay-smoke|fleet-smoke|tournament-smoke|results-check]" >&2; exit 2 ;;
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
  # machine/step_1ms_20t, >=10x on the large-grid field cases, >=3x on
  # profile/thread_profiles_20t, >=1.3x on solver/sann_20c), each raw
  # speedup multiplied by the host factor of the benchmark's
  # host-reference kernel, timed in the same process.
  (cd "$tmp" && "$bin_dir/kernel" --gate)
  (cd "$tmp" && "$bin_dir/all" --scale smoke)
  (cd "$tmp" && "$bin_dir/trace" --scale smoke)
  cargo run -q --release --offline -p vasp-bench --bin check_bench -- \
    results/BENCH_*.json "$tmp"/results/BENCH_*.json \
    --baseline results
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
  # bench at smoke scale in the temp directory — which itself fails
  # when its routing-cost ratios miss their bounds — and diff its
  # BENCH_fleet.json medians against the committed copy.
  cargo run -q --release --offline -p vasp-bench --bin fleet_gate
  (cd "$tmp" && "$bin_dir/fleet" --scale smoke)
  cargo run -q --release --offline -p vasp-bench --bin check_bench -- \
    "$tmp/results/BENCH_fleet.json" --baseline results
fi

if [[ "$mode" == tournament-smoke ]]; then
  # Tournament determinism gate: replay the committed contender x
  # scenario grid at three worker counts and byte-compare the ranked
  # report against the golden (see
  # crates/core/src/experiments/tournament.rs), then run the
  # tournament bench at smoke scale in the temp directory — which
  # itself fails on a solver cost ratio under 10x or a budget-tracking
  # gap over 2 points — and diff its BENCH_tournament.json medians
  # against the committed copy.
  cargo run -q --release --offline -p vasp-bench --bin tournament_gate
  (cd "$tmp" && "$bin_dir/tournament" --scale smoke)
  cargo run -q --release --offline -p vasp-bench --bin check_bench -- \
    "$tmp/results/BENCH_tournament.json" --baseline results
fi

if [[ "$mode" == results-check ]]; then
  # Results gate: every committed CSV must be reproducible from the
  # source. Each bin runs once at paper scale in its own temp
  # directory (the bins write results/ relative to their cwd). A CSV
  # belongs to the bin named by owner_of; `all` owns the rest, because
  # it offsets the seed per figure and the standalone figNN bins do
  # not. ablation also writes ablation_granularity/transition.csv, but
  # the committed copies come from `all`.
  owner_of() {
    case "$1" in
      fig15.csv) ;; # host timings: never reproducible
      fig04.csv) echo fig04 ;;
      ablation_gain_vs_sigma.csv) echo ablation ;;
      slo_*.csv) echo slo ;;
      fleet_*.csv) echo fleet ;;
      tournament_*.csv) echo tournament ;;
      *) echo all ;;
    esac
  }
  for bin in all fig04 ablation slo fleet tournament; do
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
