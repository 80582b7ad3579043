#!/bin/sh
# Repo-wide checks: formatting, vet, build, tests (with the race
# detector). CI runs the same steps; run this locally before pushing.
#
# QUICK=1 passes -short to go test, which skips the slow fault-sweep
# tests (internal/exp TestFaultSweepFull); the default runs everything,
# including the cross-backend conformance suites under -race.
set -eu
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go build ./...

# The benchmark harness is a module of its own (cmd/bench/go.mod), so
# nothing above compiles it: vet it and run its unit tests (-short skips
# the 20k-node smoke run) so an API change in uring/sample/core/serve/
# shard/train underneath it cannot break the benchmark silently.
go vet -C cmd/bench ./...
go test -C cmd/bench -short ./...

# Thread-count invariance: the epoch runner must produce byte-identical
# per-batch sample digests at Threads=1,2,8 (the test runs all three and
# diffs the digest streams; -race also sweeps the fan-out for races),
# and every sampling strategy must hold the same contract at
# Threads=1,2,4. Shard conformance rides in the same gate: router
# responses over 2 and 4 shards (including injected shard faults) must
# be digest-identical to a single-node run. Also part of the full suite
# below — run first so a determinism break fails loudly and early.
go test -race -run 'TestEpochThreadInvariance|TestEpochScalingInvariance|TestStrategyThreadInvariance' ./internal/core ./internal/exp
go test -race -run 'TestRouterMatchesSingleNode|TestRouterShardFaultStillIdentical' ./internal/shard
go test -race -run 'TestShardConformance' ./internal/serve
# Training rides in the same gate: after 3 epochs the loss curve and
# the final model weights must be BIT-identical at 1 vs 4 worker
# threads (fixed-order gradient reduction over the in-order batch
# stream; DESIGN.md §13).
go test -race -run 'TestTrainThreadInvariance|TestTrainOverlappedMatchesSerialized' ./internal/train
# So does the adaptive feature cache (DESIGN.md §10): what it pins and
# what each epoch reads must not depend on the thread count, payloads
# must stay byte-identical to a cache-off run across re-admissions, and
# re-admitting while other workers sample must be race-free.
go test -race -run 'TestFeatureCacheThreadInvariance|TestFeatureCacheBypassAcrossReadmissions|TestFeatureCacheReadmitConcurrentWithSamplers' ./internal/core

if [ "${QUICK:-0}" = "1" ]; then
    go test -race -short ./...
else
    go test -race ./...
fi

# io_uring knob-ablation sweep: entries/s, syscalls-per-batch, and
# device bytes per fast-path knob combination (fixed buffers, registered
# files, SQPOLL, O_DIRECT, bounded depth), with byte identity enforced
# across every combination. Written as benchdata/BENCH_uring.json so
# runs are diffable across commits; QUICK=1 keeps only the plain+fixed
# smoke pair.
uring_quick=""
if [ "${QUICK:-0}" = "1" ]; then
    uring_quick="-bench-uring-quick"
fi
go run ./cmd/epoch -data benchdata/bench/ogbn-papers-div20000 \
    -threads 4 -targets 2048 -batch 256 \
    -bench-uring benchdata/BENCH_uring.json $uring_quick >/dev/null
echo "wrote benchdata/BENCH_uring.json"

# Feature-store conformance + ablation (DESIGN.md §10): sweep the
# hot-node feature cache budget on a temp-generated featureful graph.
# The sweep itself enforces the contract — byte-identical digest
# stream at every budget, monotone non-increasing device feature
# bytes, exactly zero at an unlimited budget — and writes
# benchdata/BENCH_features.json. QUICK=1 keeps the budget endpoints.
feat_quick=""
if [ "${QUICK:-0}" = "1" ]; then
    feat_quick="-bench-features-quick"
fi
go run ./cmd/epoch -nodes 20000 -edges 300000 -feature-dim 16 \
    -threads 4 -targets 2048 -batch 256 \
    -bench-features benchdata/BENCH_features.json $feat_quick >/dev/null
echo "wrote benchdata/BENCH_features.json"

# Sampling-strategy sweep (DESIGN.md §11): run the same epoch workload
# under each strategy (uniform, weighted, walk), enforcing per-strategy
# digest identity between 1-thread and multi-thread runs before
# emitting the point. Written as benchdata/BENCH_strategy.json; QUICK=1
# keeps the uniform+walk pair (skips the alias-table build).
strat_quick=""
if [ "${QUICK:-0}" = "1" ]; then
    strat_quick="-bench-strategy-quick"
fi
go run ./cmd/epoch -data benchdata/bench/ogbn-papers-div20000 \
    -threads 4 -targets 2048 -batch 256 \
    -bench-strategy benchdata/BENCH_strategy.json $strat_quick >/dev/null
echo "wrote benchdata/BENCH_strategy.json"

# Training pipeline sweep (DESIGN.md §13): GraphSAGE training on the
# checked-in labeled dataset through {overlapped, serialized} ×
# {feature cache off, full}. The sweep enforces bit-identical final
# weights and loss curves across all four points, and (full mode) that
# the overlapped pipeline's end-to-end throughput strictly beats the
# serialized reference. Written as benchdata/BENCH_train.json; QUICK=1
# drops to a 1-epoch smoke run (determinism checks only — a 1-epoch
# run has no stable timing signal).
train_flags="-train-epochs 3"
if [ "${QUICK:-0}" = "1" ]; then
    train_flags="-train-epochs 1 -bench-train-quick"
fi
go run ./cmd/epoch -data benchdata/bench/ogbn-papers-div20000 \
    -threads 4 -targets 8192 -batch 256 \
    -bench-train benchdata/BENCH_train.json $train_flags >/dev/null
echo "wrote benchdata/BENCH_train.json"

# Bench summary: epoch throughput (entries/s, bytes/s) and hot-neighbor
# cache hit rate at budgets 0 and 64 MiB on the checked-in dataset,
# written as benchdata/BENCH_epoch.json so runs are diffable across
# commits. Skipped with QUICK=1.
if [ "${QUICK:-0}" != "1" ]; then
    go run ./cmd/epoch -data benchdata/bench/ogbn-papers-div20000 \
        -threads 4 -targets 2048 -batch 256 \
        -bench-json benchdata/BENCH_epoch.json >/dev/null
    echo "wrote benchdata/BENCH_epoch.json"

    # Serving load smoke: the closed-loop offered-load sweep against an
    # in-process server (throughput, p50/p99, rejection rate per client
    # count). CI uploads the JSON as an artifact.
    go run ./cmd/serve -data benchdata/bench/ogbn-papers-div20000 \
        -backend pool -threads 4 -batch 256 \
        -bench-json benchdata/BENCH_serve.json -bench-quick >/dev/null
    echo "wrote benchdata/BENCH_serve.json"

    # Shard sweep (DESIGN.md §12): partition the dataset at 1/2/4
    # shards, digest-check every count against the single-node baseline
    # (a mismatch aborts the sweep), then measure routed throughput.
    # QUICK=1 skips the sweep — the conformance tests in the gate above
    # still cover digest identity.
    go run ./cmd/serve -data benchdata/bench/ogbn-papers-div20000 \
        -backend pool -threads 4 -batch 256 \
        -bench-shard-json benchdata/BENCH_shard.json >/dev/null
    echo "wrote benchdata/BENCH_shard.json"
fi
