#!/bin/sh
# Repo-wide checks: formatting, the docs lint, vet, build, tests (with
# the race detector), fuzz smokes, one iteration of every
# micro-benchmark and the grep guards. This is the one list: CI runs
# exactly this script, so run it locally before pushing. It writes
# nothing into the tree. Numbers come from the benchmark harness
# (go run -C cmd/bench .), never from here.
#
# QUICK=1 passes -short to go test, which skips the harness's smoke
# run; TestKnobMatrixFillsRing (full-SQ groups on a generated 100k-node
# graph, ~5 s) runs either way. The default runs everything under -race.
set -eu
cd "$(dirname "$0")/.."
short=
if [ "${QUICK:-0}" = "1" ]; then
    short=-short
fi

# gate PKG NAMES [FLAG...] runs go test FLAG... -run NAMES PKG, NAMES being
# test names joined by |, after checking with go test -list that each of
# them is a test of PKG: a renamed or deleted test fails here, where
# -run alone would pass on "no tests to run".
gate() {
    pkg=$1 names=$2
    shift 2
    listed=$(go test -list . "$pkg")
    for name in $(echo "$names" | tr '|' ' '); do
        if ! echo "$listed" | grep -qx "$name"; then
            echo "check: gate names $name, which is not a test of $pkg" >&2
            exit 1
        fi
    done
    go test "$@" -run "$names" "$pkg"
}

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

# README.md, DESIGN.md and the commands' usage comments cite only paths,
# commands, flags and tests that exist.
sh scripts/doclint.sh

go vet ./...
go build ./...

# Format gates (DESIGN.md §10): storage.Writer writes every dataset
# file, so a writer change that moves a byte fails here, early and by
# name — the checked-in dataset regenerates byte for byte, and the
# checksums the writer stages equal a re-read of the files it wrote.
gate ./cmd/benchprep 'TestPrepareRegenMatchesCheckedIn'
gate ./internal/storage 'TestWriterChecksumMatchesFile'

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
# thread counts (two seeds and thread sets, and io_uring); in-process router
# responses over 2 and 4 shards, injected shard faults included,
# digest-identical to a single node; loss curve and weights bit-identical across thread counts
# and pipeline modes (DESIGN.md §13); the adaptive feature cache's
# pinned set and bytes thread-invariant, payloads identical across
# re-admissions, re-admission race-free, its charge equal to the bytes it
# holds, its counters' order kept over long runs, its rows moved in place
# both ways, and every cache's rank index, static caches' included, equal
# to a sorted list; the cache select's picks equal a sort's at every cut
# and core count (DESIGN.md §10).
gate ./internal/core 'TestEpochThreadInvariance|TestStrategyThreadInvariance' -race
gate ./internal/shard 'TestRouterMatchesSingleNode|TestRouterShardFaultStillIdentical' -race
gate ./internal/serve 'TestShardConformance' -race
gate ./internal/train 'TestTrainThreadInvariance|TestTrainOverlappedMatchesSerialized' -race
gate ./internal/core 'TestFeatureCacheThreadInvariance|TestFeatureCacheBypassAcrossReadmissions|TestFeatureCacheReadmitConcurrentWithSamplers' -race
gate ./internal/cache 'TestChargeEqualsHeld|TestCountersKeepOrderOverLongRuns|TestRankedAgainstSorted|TestReadmitMovesInPlace|TestSelectCutsMatchSort|TestColdStartMatchesSort|TestSelectDeepKeys|TestReadmitMatchesSort' -race

# Serving shutdown order (DESIGN.md §8): no handler may still send on the
# admission queue when Shutdown closes it, and the queue_depth and
# inflight gauges must land back at zero after a graceful or forced
# drain; the worker pool under them retires a broken worker and keeps
# its counters, keeps each job on one OS thread, and charges CPU per
# job. Repeated, because a wrong order loses a race only sometimes.
gate ./internal/serve 'TestServeForcedShutdownQueueGaugeZero|TestServeGracefulDrain' -race -count=5
gate ./internal/core 'TestPoolRetiresBrokenWorker|TestPoolJobStaysOnOneThread|TestPoolChargesCPUPerJob' -race -count=5

# Epoch runner hand-off (DESIGN.md §6): every batch reports exactly once,
# so an epoch canceled after its last batch started completes, returns
# nil and folds its feature-cache counts. Repeated, because a collector
# that races cancellation against the last results loses only sometimes.
gate ./internal/core 'TestEpochCancellation|TestEpochCtxPreCanceled|TestEpochHandlerError|TestEpochCancelNearEnd' -race -count=5

go test -race $short ./...

# Fuzz smokes of the trust boundaries: storage open-time validation of
# the dataset, feature and label files (DESIGN.md §10, §13) — a corrupt
# file is refused with an error, never a panic — and serving (DESIGN.md
# §8): arbitrary /v1/sample bodies and ?features= values through decode
# and validation never panic, are refused 400/413, or are accepted
# within every limit. Minimizing a new input is bounded to 1 s: at the
# default 60 s a smoke can stop executing inputs for half of its 30 s.
for fuzz in FuzzOpen FuzzOpenFeatures FuzzOpenLabels; do
    go test -fuzz="^$fuzz\$" -fuzztime=30s -fuzzminimizetime=1s ./internal/storage
done
go test -fuzz='^FuzzSampleRequest$' -fuzztime=30s -fuzzminimizetime=1s ./internal/serve

# Micro-benchmarks, one iteration each, so none rots: BenchmarkOpen runs
# the concurrent open-time validator, BenchmarkNewFeatureCache and
# BenchmarkNewNeighborCache the cold start's select and split ring
# fill, BenchmarkBatchDigest the collector's per-batch digest.
go test -run '^$' -bench . -benchtime 1x ./...

# cmd/bench superseded the per-command sweep modes and their checked-in
# JSON summaries; fail if either grows back outside it.
dash=- under=_
if git grep -n -e "${dash}bench-" -e "BENCH${under}" -- . ':!cmd/bench' ':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md'; then
    echo "check: a second measurement harness is growing back (matches above); use cmd/bench" >&2
    exit 1
fi

# Every read goes through uring.Driver (DESIGN.md §4); fail if a second
# read loop grows back. cmd/bench's probe drives the raw ring on purpose,
# and tests wrap rings.
if git grep -n '\.PrepRead' -- '*.go' ':!internal/uring' ':!cmd/bench' ':!*_test.go'; then
    echo "check: a second read loop is growing back (matches above); use uring.Driver" >&2
    exit 1
fi

# One read opcode (DESIGN.md §9): every read is a plain IORING_OP_READ;
# fail if registered buffers or READ_FIXED grow back.
if git grep -nE 'READ_FIXED|PrepReadFixed|REGISTER_BUFFERS|FixedBuffers' -- '*.go'; then
    echo "check: registered buffers are growing back (matches above); reads are plain PrepRead" >&2
    exit 1
fi

# One sampling path (DESIGN.md §3): offset reads through the asynchronous
# pipeline; fail if the full-fetch or submit-then-wait switch grows back.
if git grep -nE '\b(AsyncPipeline|OffsetSampling)\b' -- '*.go'; then
    echo "check: a second sampling path is growing back (matches above); the engine has one" >&2
    exit 1
fi

# Sharding is in-process only (DESIGN.md §12): fail if the shard HTTP
# protocol grows back. Tests may name its routes to check they 404.
if git grep -nE '/v1/shard|NewRemote|LayerRequest|FeaturesRequest|EncodeState|ParseState' -- '*.go' ':!*_test.go'; then
    echo "check: the shard HTTP protocol is growing back (matches above); shards are in-process only" >&2
    exit 1
fi

# One worker lifecycle (DESIGN.md §6, §8, §12, §13): core.Pool locks the
# thread per job, charges the job's CPU, creates and retires every pooled
# worker; fail if serve, shard or train grows a copy of it back.
if git grep -nE 'NewWorker\(|LockOSThread' -- internal/serve internal/shard internal/train ':!*_test.go'; then
    echo "check: a second worker lifecycle is growing back (matches above); use core.Pool" >&2
    exit 1
fi

# One CPU clock (DESIGN.md §6, §14): a worker's CPU is the sum of its
# jobs' thread CPU, read around each job in core.Pool; fail if the
# life-long thread clock grows back.
if git grep -nE '\bThreadClock\b|StartThreadClock' -- '*.go'; then
    echo "check: a life-long thread clock is growing back (matches above); core.Pool charges CPU per job" >&2
    exit 1
fi

# The ring backend is probed, never named (DESIGN.md §1): uring.Auto
# picks io_uring or the pread pool; fail if a backend flag, config field
# or name parser grows back.
if git grep -nE '\bParseBackend\b|\.String\("backend"|\bcfg\.Backend\b' -- '*.go'; then
    echo "check: a named ring backend is growing back (matches above); use uring.Auto" >&2
    exit 1
fi

# One serving front end (DESIGN.md §8, §12): pooled and in-process
# router mode are the same serve.Server; fail if a second HTTP front end grows back.
muxes=$(git grep -c 'http.NewServeMux' -- 'internal/serve/*.go' ':!*_test.go' | awk -F: '{n += $2} END {print n + 0}')
if [ "$muxes" -ne 1 ]; then
    echo "check: internal/serve builds $muxes HTTP muxes, want exactly one front end" >&2
    exit 1
fi
