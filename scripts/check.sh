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
# shared observers, the daemon and its cache, the pipeline's batch
# sharding) plus the public API that feeds them, the
# dependence graph's lazily built caches (concurrent readers race to
# build them), the assignment engine's differential/fuzz-seed tests,
# and the frontend (compile.Source builds loops on several workers
# while the parser goes on appending to the slabs they view), and the
# fleet front end (the balancer shares its worker counters across
# dispatches, the heartbeat fan-out and hedge legs).
go test -race ./internal/ddg/ ./internal/pool/ ./internal/obs/ ./internal/experiments/ ./internal/explore/ ./internal/cache/ ./internal/server/ ./internal/assign/ ./internal/pipeline/ ./internal/compile/ ./internal/frontend/ ./internal/balance/ ./internal/membership/ ./internal/cachering/ .
# Compile-corpus oracle: every kernel the streaming executor emits for
# the regression corpus must execute functionally identical to the
# naive non-pipelined loop (sim cross-validation plus the Livermore
# value-differential, across two machine configs).
go test -run 'TestCorpusSchedulesAndSimValidates|TestLivermoreValueDifferential' -count=1 ./internal/compile/
# Short benchmark smoke pass: the assignment benchmarks, the
# session/batch benchmarks and the long-recurrence one, the kernel emitter's, the MVE register
# allocator's, the frontend's and the whole-unit compile's benchmarks
# must still run (allocation regressions fail in the test pass above;
# this catches benchmarks broken by API drift). BenchmarkSourceCorpus
# runs both its cases: corpus-compile's two workers, and one worker
# with sim validation.
go test -run xxx -bench . -benchtime 2x ./internal/assign/
go test -run xxx -bench 'BenchmarkRunBatch|BenchmarkSessionSchedule|BenchmarkLongRecurrence' -benchtime 1x ./internal/pipeline/
go test -run xxx -bench BenchmarkKernel -benchtime 1x ./internal/emit/
go test -run xxx -bench BenchmarkAllocateMVE -benchtime 1x ./internal/regalloc/
go test -run xxx -bench BenchmarkCompile -benchtime 1x ./internal/frontend/
go test -run xxx -bench BenchmarkSourceCorpus -benchtime 1x ./internal/compile/
# Multi-process smoke: the fleet e2e boots a clusterlb over three real
# clusterd processes, SIGKILLs one mid-load, and requires every reply
# to complete byte-identical to a single-node oracle with the
# survivors' caches still warm; the daemon e2e checks one clusterd's
# cache hit and its graceful drain on SIGTERM.
go test -count=1 ./internal/fleettest/
# The seeded benchmark is a nested module (bench/go.mod) that imports
# internal/cache, internal/server, and internal/ddgio; the root
# build and test above do not reach it. Its TestQuickSmoke runs all
# four workloads, untraced and traced, under their correctness
# oracles: with the AllocsPerRun gates of the test pass above, it is
# the performance smoke of this gate.
go -C bench vet ./...
go -C bench test ./...
sh scripts/lint.sh
echo "check: OK"
