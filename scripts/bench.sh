#!/bin/sh
# Pipeline benchmark: times the full scheduling pipeline over the
# synthetic suite via pipeline.RunBatch (per-worker reusable sessions,
# warm-started II search) and writes BENCH_pipeline.json — batch
# throughput as ns/op plus the aggregated search-effort statistics,
# including the ii_warm_starts / ii_warm_fallbacks warm-start counters.
# The workers, warm_start and reps fields of the JSON say how the
# number was produced; -workers 1 -warmstart=off reproduces the
# pre-session sequential baseline. ns_per_op is the fastest of
# -benchreps passes over the suite: the bench hosts are time-shared,
# a single pass is hostage to whatever else holds the CPU, and the
# minimum is the least-interfered estimate (scheduling outcomes are
# deterministic, so repetition changes timing only).
# Run from the repository root:  sh scripts/bench.sh [count]
#
# Baseline mode:  sh scripts/bench.sh -baseline [count]
# Re-measures the assignment and pipeline suites (fastest of several
# passes) and diffs them against the committed BENCH_assign.json /
# BENCH_pipeline.json, exiting non-zero on a >10% regression of the
# assignment ns_per_op rows or the pipeline ns_per_op / assign_ns.
#
# Trend mode:  sh scripts/bench.sh -trend [count]
# Re-measures the assignment and pipeline suites and appends one dated
# JSON line per suite — {date, sha, suite, ns_per_op} — to
# BENCH_TREND.jsonl, the long-run performance log the point-in-time
# baseline gate cannot provide.
#
# Compile mode:  sh scripts/bench.sh -compile
# Times the whole-TU streaming compile path (clusterc -O) over the
# checked-in regression corpus — Livermore kernels plus the fuzz-mined
# loopgen set — and writes BENCH_compile.json: per-loop cold-start
# ns/op, streaming ns/op at 1 and 4 workers with per-stage breakdowns,
# and the two speedup ratios. The corpus is sim cross-validated before
# any timing, and the cpus field records the core count the w4/w1
# ratio was measured on (on a single-core host it is honestly ~1).
#
# Fleet mode:  sh scripts/bench.sh -fleet [count]
# Boots three local clusterd workers plus a clusterlb in front of
# them, replays the suite through the balancer (cold pass, cached
# pass), and writes BENCH_fleet.json — p50/p99 latency for each pass
# plus the hedge win rate and failover counters. When a committed
# BENCH_fleet.json exists the fresh cached p50 is diffed against it
# under the same regression gate as -baseline.
set -eu

if [ "${1:-}" = "-baseline" ]; then
    shift
    COUNT="${1:-400}"
    exec go run ./cmd/clusterbench -baseline -count "$COUNT" -benchreps 10
fi

if [ "${1:-}" = "-trend" ]; then
    shift
    COUNT="${1:-400}"
    TREND_OUT="BENCH_TREND.jsonl"
    SHA="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
    # Write to a temp file first so a failed run never truncates or
    # half-appends to the committed log.
    go run ./cmd/clusterbench -trend -trendsha "$SHA" -count "$COUNT" -benchreps 10 > "$TREND_OUT.tmp"
    cat "$TREND_OUT.tmp" >> "$TREND_OUT"
    rm -f "$TREND_OUT.tmp"
    echo "bench: appended $(wc -l < "$TREND_OUT" | tr -d ' ') total rows to $TREND_OUT"
    exit 0
fi

if [ "${1:-}" = "-compile" ]; then
    COMPILE_OUT="BENCH_compile.json"
    # Write to a temp file first: a failed pass (a corpus loop losing
    # its schedule or sim validation) must not truncate the committed
    # numbers the -baseline gate diffs against.
    go run ./cmd/clusterbench -compilejson -benchreps 10 > "$COMPILE_OUT.tmp"
    mv "$COMPILE_OUT.tmp" "$COMPILE_OUT"
    echo "bench: wrote $COMPILE_OUT"
    exit 0
fi

if [ "${1:-}" = "-fleet" ]; then
    shift
    COUNT="${1:-400}"
    FLEET_OUT="BENCH_fleet.json"
    BIN="${TMPDIR:-/tmp}/clustersched.bench"
    mkdir -p "$BIN"
    go build -o "$BIN/clusterd" ./cmd/clusterd
    go build -o "$BIN/clusterlb" ./cmd/clusterlb
    WLOG1="$(mktemp)"; WLOG2="$(mktemp)"; WLOG3="$(mktemp)"; LBLOG="$(mktemp)"
    "$BIN/clusterd" -addr 127.0.0.1:0 > "$WLOG1" 2>&1 & W1=$!
    "$BIN/clusterd" -addr 127.0.0.1:0 > "$WLOG2" 2>&1 & W2=$!
    "$BIN/clusterd" -addr 127.0.0.1:0 > "$WLOG3" 2>&1 & W3=$!
    trap 'kill $W1 $W2 $W3 ${LB:-} 2>/dev/null || true' EXIT
    wait_url() { # logfile prefix -> prints URL
        for _ in $(seq 1 50); do
            U="$(sed -n "s/^$2: listening on \(http:.*\)$/\1/p" "$1")"
            [ -n "$U" ] && { echo "$U"; return 0; }
            sleep 0.1
        done
        return 1
    }
    U1="$(wait_url "$WLOG1" clusterd)" || { echo "bench: worker 1 did not start"; cat "$WLOG1"; exit 1; }
    U2="$(wait_url "$WLOG2" clusterd)" || { echo "bench: worker 2 did not start"; cat "$WLOG2"; exit 1; }
    U3="$(wait_url "$WLOG3" clusterd)" || { echo "bench: worker 3 did not start"; cat "$WLOG3"; exit 1; }
    "$BIN/clusterlb" -addr 127.0.0.1:0 -workers "$U1,$U2,$U3" > "$LBLOG" 2>&1 & LB=$!
    LBURL="$(wait_url "$LBLOG" clusterlb)" || { echo "bench: clusterlb did not start"; cat "$LBLOG"; exit 1; }
    # Write to a temp file first: the gate inside clusterbench diffs
    # against the committed $FLEET_OUT, which a direct redirect would
    # truncate before the run. On a gate failure the committed file
    # survives untouched.
    go run ./cmd/clusterbench -fleet "$LBURL" -count "$COUNT" -benchreps 10 > "$FLEET_OUT.tmp"
    mv "$FLEET_OUT.tmp" "$FLEET_OUT"
    kill $W1 $W2 $W3 $LB 2>/dev/null || true
    echo "bench: wrote $FLEET_OUT"
    exit 0
fi

COUNT="${1:-400}"
OUT="BENCH_pipeline.json"

go run ./cmd/clusterbench -benchjson -benchreps 10 -count "$COUNT" > "$OUT"
echo "bench: wrote $OUT"

# Assignment-only benchmark: the incremental-engine suite (ns/op per
# machine plus the deltas/full-derives work counters).
ASSIGN_OUT="BENCH_assign.json"
go run ./cmd/clusterbench -assignjson -count "$COUNT" > "$ASSIGN_OUT"
echo "bench: wrote $ASSIGN_OUT"

# The Go benchmarks for the zero-cost observer path; BenchmarkSchedule
# (no observer) against BenchmarkScheduleObserved is the overhead.
go test -run xxx -bench 'BenchmarkSchedule$|BenchmarkScheduleObserved$' -benchtime 300x .

# Daemon benchmark: replay the suite against a freshly started
# clusterd (cold pass, then a fully cached pass) and record the
# cached-vs-uncached throughput in BENCH_server.json.
SERVER_OUT="BENCH_server.json"
SERVER_LOG="$(mktemp)"
go build -o "${TMPDIR:-/tmp}/clusterd.bench" ./cmd/clusterd
"${TMPDIR:-/tmp}/clusterd.bench" -addr 127.0.0.1:0 > "$SERVER_LOG" 2>&1 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT
URL=""
for _ in $(seq 1 50); do
    URL="$(sed -n 's/^clusterd: listening on \(http:.*\)$/\1/p' "$SERVER_LOG")"
    [ -n "$URL" ] && break
    sleep 0.1
done
[ -n "$URL" ] || { echo "bench: clusterd did not start"; cat "$SERVER_LOG"; exit 1; }
go run ./cmd/clusterbench -server "$URL" -count "$COUNT" > "$SERVER_OUT"
kill "$SERVER_PID"
echo "bench: wrote $SERVER_OUT"
