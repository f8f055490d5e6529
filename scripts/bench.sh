#!/bin/sh
# Writes BENCH_<workload>.json for each workload of BENCHMARK.json from
# bench/ (see bench/README.md): the host provenance, the end-to-end
# summary of five untraced runs and the per-layer summary of three
# traced runs, each metric as median, quartiles and spread. A failed
# run leaves the committed file as it was. About 20 min on 2 vCPU.
# Run from the repository root:  sh scripts/bench.sh
set -eu

e2e="$(mktemp)"
layers="$(mktemp)"
trap 'rm -f "$e2e" "$layers" BENCH_*.json.tmp' EXIT
for w in suite-sched corpus-compile serve-cold serve-hot; do
    bash bench/run.sh --workload "$w" --repeat 5 > "$e2e"
    bash bench/run.sh --workload "$w" --repeat 3 --trace 1 > "$layers"
    {
        printf '{"provenance": %s,\n' "$(sed -n 's/^provenance //p' "$e2e" | head -n 1)"
        printf ' "end_to_end": %s,\n' "$(tail -n 1 "$e2e")"
        printf ' "per_layer": %s}\n' "$(tail -n 1 "$layers")"
    } > "BENCH_$w.json.tmp"
    mv "BENCH_$w.json.tmp" "BENCH_$w.json"
    echo "bench: wrote BENCH_$w.json"
done
