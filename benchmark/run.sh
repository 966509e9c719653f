#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run: the form BENCHMARK.json's command takes. The last line of
#       standard output is the JSON result.
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--smoke]
#       every workload (or the named one) once untraced, for the end-to-end
#       metrics, and once traced, for the per-layer ones. About 8 minutes at
#       the default 50 s a run; --seconds 10 for a first look.
#
# Every metric is printed as `workload/name value unit`. The exit status is
# non-zero if the build fails or any run fails a correctness check.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/cvc-benchmark"

workload=""
traced_given=0
rest=()
while (($#)); do
    case "$1" in
        --workload) workload="${2:?--workload needs a value}"; shift 2 ;;
        --trace) traced_given=1; rest+=("$1" "${2:?--trace needs a value}"); shift 2 ;;
        *) rest+=("$1"); shift ;;
    esac
done

if ((traced_given)); then
    exec "$bin" --workload "$workload" "${rest[@]}"
fi

status=0
for w in ${workload:-$("$bin" --list)}; do
    for trace in 0 1; do
        "$bin" --workload "$w" --trace "$trace" "${rest[@]}" || status=1
    done
done
exit "$status"
