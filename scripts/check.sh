#!/bin/sh
# Repo-wide checks: formatting, the docs lint, vet, build, tests (with
# the race detector). CI runs the same steps; run this locally before
# pushing. It writes nothing into the tree. Numbers come from the
# benchmark harness (go run -C cmd/bench .), never from here.
#
# QUICK=1 passes -short to go test, which skips the slow tests
# (TestFaultSweepFull's rate sweep, TestKnobMatrixFillsRing on a
# generated 100k-node graph, the harness's smoke run); the default runs
# everything under -race.
set -eu
cd "$(dirname "$0")/.."
short=
if [ "${QUICK:-0}" = "1" ]; then
    short=-short
fi

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

# README.md and DESIGN.md cite only paths, commands and tests that exist.
sh scripts/doclint.sh

go vet ./...
go build ./...

# The benchmark harness is a module of its own (cmd/bench/go.mod), so
# nothing above compiles it: vet it and run its tests so an API change
# underneath it cannot break the benchmark silently. The smoke run
# (TestSmokeNoDrift, ~7 s on 2 cores) generates a 20k-node dataset,
# checksums it and opens it through every workload — the path a
# dataset-format change moves.
go vet -C cmd/bench ./...
go test -C cmd/bench $short ./...

# Determinism gates, also part of the full suite below — run first so a
# break fails loudly and early. Per-batch digests identical across
# thread counts (uniform and every strategy); router responses over 2
# and 4 shards, injected shard faults included, digest-identical to a
# single node; loss curve and weights bit-identical across thread counts
# and pipeline modes (DESIGN.md §13); the adaptive feature cache's
# pinned set and bytes thread-invariant, payloads identical across
# re-admissions, re-admission race-free (DESIGN.md §10).
go test -race -run 'TestEpochThreadInvariance|TestStrategyThreadInvariance' ./internal/core
go test -race -run 'TestRouterMatchesSingleNode|TestRouterShardFaultStillIdentical' ./internal/shard
go test -race -run 'TestShardConformance' ./internal/serve
go test -race -run 'TestTrainThreadInvariance|TestTrainOverlappedMatchesSerialized' ./internal/train
go test -race -run 'TestFeatureCacheThreadInvariance|TestFeatureCacheBypassAcrossReadmissions|TestFeatureCacheReadmitConcurrentWithSamplers' ./internal/core

go test -race $short ./...

# cmd/bench superseded the per-command sweep modes and their checked-in
# JSON summaries; fail if either grows back outside it.
dash=- under=_
if git grep -n -e "${dash}bench-" -e "BENCH${under}" -- . ':!cmd/bench' ':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md'; then
    echo "check: a second measurement harness is growing back (matches above); use cmd/bench" >&2
    exit 1
fi
