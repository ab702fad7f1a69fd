GO ?= go
FUZZTIME ?= 10s

.PHONY: all build vet test race bench benchcheck check difftest faultinject fuzz soak obs cluster chaos storagefault

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The race pass runs in -short mode: the brute-force reference miners of
# the heavyweight cross-validation tests are orders of magnitude slower
# under the race detector and those tests exercise no concurrency — the
# plain `test` pass covers them, and the parallel-scheduling determinism
# and cancellation tests (the ones the race detector is for) do not skip.
race:
	$(GO) test -race -short ./...

bench:
	$(GO) test -bench=. -benchmem .

# The full differential grid (128 generated/mutated databases × every
# miner and DISC option combination) under the race detector. The plain
# `test` pass already runs the grid without -race; `race` samples it
# (-short). This target is the exhaustive combination CI runs as its own
# job.
difftest:
	$(GO) test -race -run TestDifferentialGrid -count=1 ./internal/difftest

# Deterministic fault injection under the race detector: injected worker
# panics must surface as typed errors (never crashes), and runs killed at
# injected partition boundaries must resume from their checkpoints
# byte-identically to a straight run, across a sampled differential grid.
faultinject:
	$(GO) test -race -run 'TestFaultInjection' -count=1 ./internal/difftest
	$(GO) test -race -run 'TestWorkerPanicContained|TestPanicContainedEverySite|TestCheckpointResumeByteIdentical|TestProgressNeverConcurrent' -count=1 ./internal/core
	$(GO) test -race -run 'TestInjectedPanic|TestKillRestartResubmit|TestResubmitSameManager|TestPeriodicSnapshots|TestConcurrent' -count=1 ./internal/jobs
	$(GO) test -race -run 'TestWorkerPanicTypedPayload|TestInjectedCancel|TestFlakyRequestBody' -count=1 ./cmd/discserve

# End-to-end soak of the discserve binary as a real process: build it,
# drive the operational contract over HTTP (413 on oversized input, 429
# with Retry-After under overload, dedup, cancel), kill -9 it mid-job,
# restart over the same checkpoint dir and require the resumed result to
# be byte-identical to a discmine run, then SIGTERM for a clean drain
# with exit code 0. Opt-in via the DISC_SOAK gate because it builds
# binaries and mines a deliberately slow job.
soak:
	DISC_SOAK=1 $(GO) test -race -run TestServiceSoak -count=1 -v -timeout 600s ./cmd/discserve

# Distributed mining under the race detector: the sharded-engine
# foundation in core (shard-union byte identity, including the
# policy-less configurations), the shard protocol and coordinator
# retry/reschedule logic in internal/cluster, the discserve role wiring
# (in-process fleets over the real HTTP surface), and the
# cluster-equals-local differential grid with injected worker faults
# (mid-shard panic rescheduled from its checkpoint, dropped
# connections).
cluster:
	$(GO) test -race -run 'TestShard' -count=1 ./internal/core ./internal/checkpoint
	$(GO) test -race -count=1 ./internal/cluster
	$(GO) test -race -run 'TestFleet|TestParseFlagsCluster' -count=1 ./cmd/discserve
	$(GO) test -race -run TestClusterEqualsLocalGrid -count=1 ./internal/difftest

# Coordinator-side chaos under the race detector: the self-healing
# suite in internal/cluster (circuit breakers, heartbeat-TTL expiry
# rescheduling, hedged dispatch, injected coordinator crash resumed from
# the durable shard ledger), the startup-validation and ledger recovery
# wiring in discserve, the chaos differential grid (every regime must
# end byte-identical to a local run AND prove its fault fired), and the
# real-binary drill: a two-worker fleet whose coordinator is kill -9'd
# mid-job and restarted over the same -ledger-dir, resuming only the
# unfinished shards to a byte-identical result.
chaos:
	$(GO) test -race -run 'TestBreaker|TestExpiredWorker|TestHedged|TestCoordinatorCrash|TestRecoverResubmits' -count=1 ./internal/cluster
	$(GO) test -race -run 'TestParseFlagsRejectsWedged|TestOrphanedCheckpoints' -count=1 ./cmd/discserve ./internal/jobs
	$(GO) test -race -run TestClusterChaosGrid -count=1 ./internal/difftest
	DISC_CHAOS=1 $(GO) test -race -run TestFleetCoordinatorKill9 -count=1 -v -timeout 600s ./cmd/discserve

# Storage faults under the race detector: the durable-state plane's
# filesystem seam and fault FS (deterministic ENOSPC budgets, torn
# writes, sync errors, silent bit flips), the shared degraded-durability
# latch, quarantine-not-crash recovery and degraded durability in jobs
# and cluster, retention GC and the resting-file scrubber, the
# healthz/metrics surfacing in discserve, and
# the disk-fault differential grid (byte-identical or typed degraded
# completion, never a crash, every regime proving its fault fired).
# Finishes with a fuzz smoke of both durable-document decoders: any
# input either decodes or fails typed (ErrCorrupt/ErrVersion) — never a
# panic.
storagefault:
	$(GO) test -race -run 'TestStorage|TestKindOf|TestSweep|TestScrub|TestQuarantine|TestFSNil|TestDurability' -count=1 ./internal/checkpoint ./internal/faultinject ./internal/cluster
	$(GO) test -race -run 'TestCheckpointFailuresCountedAndDegrade|TestDurabilityRearmsAfterProbe|TestCorruptCheckpointQuarantinedNotCrash|TestStartupGCReclaimsOrphans|TestStartupScrubQuarantinesBitRot|TestPeriodicStorageGC' -count=1 ./internal/jobs
	$(GO) test -race -run 'TestHealthzSurfacesDegradedDurability|TestMetricsExposeStorageFamilies' -count=1 ./cmd/discserve
	$(GO) test -race -run TestStorageFaultGrid -count=1 ./internal/difftest
	$(GO) test -run '^$$' -fuzz FuzzRead$$ -fuzztime $(FUZZTIME) ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz FuzzReadLedger -fuzztime $(FUZZTIME) ./internal/checkpoint

# The observability suite under the race detector: the registry/tracer
# package itself (including the 16-goroutine hammer and the exposition
# golden file), the engine's registry-vs-Stats read-through parity and
# progress-stream closing contract, the substrate recorders, and the
# metrics/trace surfaces of both binaries.
obs:
	$(GO) test -race -count=1 ./internal/obs
	$(GO) test -race -run 'TestObs|TestProgressFinal' -count=1 ./internal/core
	$(GO) test -race -run 'TestRecorder' -count=1 ./internal/avl ./internal/counting
	$(GO) test -race -run 'TestMetricsEndpoint|TestHealthzKeepsOldKeys' -count=1 ./cmd/discserve
	$(GO) test -race -run 'TestMetricsOut|TestTraceEmits' -count=1 ./cmd/discmine

# Coverage-guided fuzzing smoke pass: Go allows one -fuzz pattern per
# invocation, so each target gets its own run.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDISCAllVsOracle -fuzztime $(FUZZTIME) ./internal/difftest
	$(GO) test -run '^$$' -fuzz FuzzDynamicVsOracle -fuzztime $(FUZZTIME) ./internal/difftest

# The benchmark module (discbench/) has its own go.mod, so ./... never
# reaches it: vet it and run its short tests, which pin the seed-1 paper
# counts (rounds, hits, skips, KMS/CKMS calls, partitions per level) the
# engine must keep.
benchcheck:
	cd discbench && $(GO) vet ./... && $(GO) test -short ./...

# check is what CI runs: vet, build, the full suite, the race pass, then
# the benchmark module's checks.
check: vet build test race benchcheck
