#!/bin/sh
# Full tier-1 gate: build, vet, tests, a race pass over the concurrent
# packages, and the lint gate.
# Run from the repository root:  sh scripts/check.sh
set -eu

go build ./...
go vet ./...
go test ./...
# Static determinism/zero-alloc gate: schedvet must run clean over the
# whole module (an //schedvet:alloc-free function gaining an allocation
# or a critical package gaining an unordered map range fails here).
go run ./cmd/schedvet ./...
# Race pass over every package that runs goroutines (worker pools,
# shared observers, the daemon and its cache, the speculative II
# search and batch sharding) plus the public API that feeds them, and
# the assignment engine's differential/fuzz-seed tests.
go test -race ./internal/pool/ ./internal/obs/ ./internal/experiments/ ./internal/explore/ ./internal/cache/ ./internal/server/ ./internal/assign/ ./internal/pipeline/ ./internal/compile/ .
# Compile-corpus oracle: every kernel the streaming executor emits for
# the regression corpus must execute functionally identical to the
# naive non-pipelined loop (sim cross-validation plus the Livermore
# value-differential, across two machine configs).
go test -run 'TestCorpusSchedulesAndSimValidates|TestLivermoreValueDifferential' -count=1 ./internal/compile/
# Short benchmark smoke pass: the assignment benchmarks, the
# session/batch benchmarks and the kernel emitter's benchmark must
# still run (allocation regressions fail
# in the test pass above; this catches benchmarks broken by API drift).
go test -run xxx -bench . -benchtime 2x ./internal/assign/
go test -run xxx -bench 'BenchmarkRunBatch|BenchmarkSessionSchedule' -benchtime 1x ./internal/pipeline/
go test -run xxx -bench BenchmarkKernel -benchtime 1x ./internal/emit/
# Baseline-gate smoke: exercises the bench.sh -baseline plumbing (fresh
# runs parsed and diffed against the committed BENCH JSONs) on a short
# suite. The loose tolerance keeps a time-shared host from flaking the
# tier-1 gate; the strict 10% gate is  sh scripts/bench.sh -baseline.
go run ./cmd/clusterbench -baseline -count 60 -benchreps 2 -basetol 5.0
# Fleet kill-a-worker smoke: the multi-process e2e boots a clusterlb
# over three real clusterd processes, SIGKILLs one mid-load, and
# requires every reply to complete byte-identical to a single-node
# oracle with the survivors' caches still warm.
go test -run TestFleetKillWorkerEndToEnd -count=1 ./internal/fleettest/
# The seeded benchmark is a nested module (bench/go.mod) that imports
# internal/cache, internal/server, and internal/ddgio; the root
# build and test above do not reach it.
go -C bench vet ./...
go -C bench test ./...
sh scripts/lint.sh
echo "check: OK"
