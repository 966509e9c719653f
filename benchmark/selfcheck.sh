#!/usr/bin/env bash
# A/A check: run the benchmark twice on the same code and hold the two sets
# to the benchmark's own bounds.
#
#   benchmark/selfcheck.sh [--runs N] [--seed S] [--seconds T] [--workload NAME]
#
# Each set is N untraced runs per workload (seeds S, S+1, ...; default N=3,
# N=10 is what an acceptance check uses). The two sets alternate run by run,
# so both see the same stretch of this host's weather. For every end-to-end
# metric it prints both medians, how much worse the second is than the
# first, the spread of the first set (distance between its quartiles over
# its median, N >= 2) and the bound from BENCHMARK.json. It exits non-zero
# if a second median is worse than the first by more than the bound, or a
# spread other than setup_s's exceeds it. The `host` block tells a noisy
# host from a noisy benchmark; every run's full output is kept in
# benchmark/out/selfcheck.log.
set -euo pipefail
cd "$(dirname "$0")/.."

runs=3 seed=1 seconds="" workload=""
while (($#)); do
    case "$1" in
        --runs) runs="${2:?}"; shift 2 ;;
        --seed) seed="${2:?}"; shift 2 ;;
        --seconds) seconds="${2:?}"; shift 2 ;;
        --workload) workload="${2:?}"; shift 2 ;;
        *) echo "unknown argument $1" >&2; exit 2 ;;
    esac
done

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/cvc-benchmark"
# The workloads BENCHMARK.json lists are the ones held to bounds.
workloads="${workload:-$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')}"
mkdir -p benchmark/out
results=benchmark/out/selfcheck.tsv log=benchmark/out/selfcheck.log
: > "$results"
: > "$log"

pressure() { awk '/^some/ { sub("total=", "", $5); print $5 }' /proc/pressure/cpu 2>/dev/null || echo 0; }

echo "host:"
echo "  nproc: $(nproc)"
echo "  loadavg at start: $(cut -d' ' -f1-3 /proc/loadavg)"
echo "  stray cvc-serve/cvc-load: $(ps -eo pid=,comm= | awk '$2 ~ /^cvc-(serve|load)$/ { printf "%s(%s) ", $2, $1 }')"

# A and B alternate run by run, and which goes first flips each time: this
# host's speed drifts over minutes (README.md, noise study item 7), and only
# neighbouring runs share it.
status=0
declare -A busy=([A]=0 [B]=0)
for w in $workloads; do
    for ((i = 0; i < runs; i++)); do
        if ((i % 2)); then order="B A"; else order="A B"; fi
        for set in $order; do
            before=$(pressure)
            "$bin" --workload "$w" --trace 0 --seed $((seed + i)) ${seconds:+--seconds "$seconds"} \
                | tee -a "$log" \
                | awk -v set="$set" -v w="$w" '$1 ~ "^" w "/" { sub(w "/", "", $1); print set "\t" w "\t" $1 "\t" $2 }' \
                >> "$results" || status=1
            busy[$set]=$((busy[$set] + $(pressure) - before))
        done
    done
done
for set in A B; do
    echo "  set $set: cpu pressure (some) +${busy[$set]} us over its runs"
done
echo "  loadavg at end: $(cut -d' ' -f1-3 /proc/loadavg)"

python3 - "$results" BENCHMARK.json <<'PY' || status=1
import json, statistics, sys
from collections import defaultdict

values = defaultdict(list)
for line in open(sys.argv[1]):
    which, workload, metric, value = line.split("\t")
    values[(workload, metric, which)].append(float(value))
defs = {m["name"]: m for m in json.load(open(sys.argv[2]))["end_to_end"]}

failed = False
print(f"{'workload':12} {'metric':22} {'A median':>12} {'B median':>12} {'B worse by':>10} {'A spread':>9} {'bound':>6}")
for (workload, metric, which), a in sorted(values.items()):
    if which != "A":
        continue
    b = values.get((workload, metric, "B"), [])
    d = defs[metric]
    ma, mb = statistics.median(a), statistics.median(b) if b else float("nan")
    worse = (mb - ma) / ma if d["better"] == "lower" else (ma - mb) / ma
    spread = None
    if len(a) >= 2:
        q1, _, q3 = statistics.quantiles(a, n=4)
        spread = (q3 - q1) / ma
    bad = not worse <= d["bound"] or (metric != "setup_s" and spread is not None and spread > d["bound"])
    failed |= bad
    shown = "-" if spread is None else f"{spread:9.4f}"
    print(f"{workload:12} {metric:22} {ma:12.4f} {mb:12.4f} {worse:10.4f} {shown:>9} {d['bound']:6.2f}{'  FAIL' if bad else ''}")
sys.exit(1 if failed else 0)
PY
exit "$status"
