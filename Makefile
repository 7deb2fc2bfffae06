GO ?= go

.PHONY: build vet test race verify bench-check simfree-check gobfree-check onereader-check serialcore-check cover-check fmt-check bench bench-smoke core-smoke chaos-smoke gateway-smoke multigroup-smoke trust-smoke storage-smoke fuzz-smoke linkcheck clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# verify is the tier-1 gate: build + vet + full test suite under the race
# detector (the ReconcileAll, streaming and store tests rely on -race to
# catch data races between peers and in the stores), then the same for the
# benchmark's module, the guard that production binaries stay
# simulator-free, the guard that gob stays out of the store and the wire,
# the guard that they keep one binary reader, the guard that the
# reconciliation engine stays on its caller's goroutine, and the guard that
# no function goes untested unless it is on the coverage allowlist.
verify: build vet race bench-check simfree-check gobfree-check onereader-check serialcore-check cover-check

# bench-check vets the repository's benchmark (bench/, a nested module that
# ./... does not reach) and runs its 1/50-scale smoke test under the race
# detector, so that a change to an API the benchmark uses fails here and not
# in the driver.
bench-check:
	(cd bench && $(GO) vet . && $(GO) test -race -count=1 .)

# simfree-check fails if a production binary links the network simulator
# (the sentinels IsTransient tests live in internal/rpc for this reason) or
# anything under internal/exp. The root library is covered too — and
# through it orchestra-demo, the examples and bench/: fleet.go needs only
# internal/dht's Placement, and the Pastry overlay that runs on the
# simulator is internal/exp/pastry, beside its one importer.
simfree-check:
	test "$$($(GO) list -deps . ./cmd/orchestra-store ./cmd/orchestra-gateway ./cmd/orchestra-peer ./cmd/orchestra-demo ./examples/... | grep -cE 'internal/(simnet|exp)')" = 0

# gobfree-check fails if a non-test package outside internal/exp (the DHT
# experiment's messages, which Figures 10/12 count) imports encoding/gob.
# reldb's files, the store's payloads, the rpc envelope and every remote
# body are hand-rolled.
gobfree-check:
	test "$$($(GO) list -f '{{.ImportPath}} {{join .Imports " "}}' ./... | grep -vE '^orchestra/internal/exp[/ ]' | grep -c 'encoding/gob')" = 0

# onereader-check fails if a non-test file outside internal/codec and
# internal/exp calls binary.Uvarint or binary.Varint: every byte the store,
# the wire and core's tuples read goes through codec's minimal-varint
# reader, and this keeps a second, laxer reader from growing back. (bench/
# is a nested module that ./... does not reach.)
onereader-check:
	test -z "$$($(GO) list -f '{{range .GoFiles}}{{$$.Dir}}/{{.}} {{end}}' ./... | tr ' ' '\n' | grep -vE '/internal/(codec|exp)/' | xargs grep -lE 'binary\.(Uvarint|Varint)\(')"

# serialcore-check fails if a non-test file under internal/core contains a
# go statement: an engine runs every stage on its caller's goroutine, and
# concurrency lives per peer (System.ReconcileAll) and per group
# (Scheduler). This keeps a worker pool from growing back inside the engine.
serialcore-check:
	test -z "$$($(GO) list -f '{{range .GoFiles}}{{$$.Dir}}/{{.}} {{end}}' ./internal/core/... | tr ' ' '\n' | xargs grep -lE '^[[:space:]]*go[[:space:]]+[[:alnum:]_(]')"

# cover-check runs the test suite with coverage of every package
# (-coverpkg=./..., ~40 s on a 2-vCPU host) and fails, printing a diff, if a
# non-test function outside cmd/, examples/ and internal/store/storetest is
# never run and is not on cover-allowlist.txt (its file's import path, then
# its name, one per line, sorted), or if a listed function is run or gone.
# The list may only shrink: a new function gets a test or is deleted, and
# a covered one leaves the list.
cover-check:
	$(GO) test -coverpkg=./... -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | awk '$$NF == "0.0%" { sub(/:[0-9]+:$$/, "", $$1); print $$1, $$2 }' | grep -vE '^orchestra/(cmd|examples|internal/store/storetest)/' | LC_ALL=C sort | diff cover-allowlist.txt -

# fmt-check fails (listing the offenders) if any file is not gofmt-clean;
# CI runs this as its lint step.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# bench runs every Go benchmark with allocation reporting.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# bench-smoke runs every benchmark for exactly one iteration — no timing
# value, but it executes every bench body, so harness rot (benchmarks that
# no longer compile or crash) is caught on every PR without CI paying for a
# real measurement run.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# core-smoke runs the reconciliation engine's shape and equivalence gates
# by name under the race detector, three times each: the one-update fast
# paths against the general computation (TestUpdateExtensionMatchesGeneral:
# operation, malformedness, conflicts both ways round and against the
# naive reference, subsumption, sharing and touched keys over random
# lists; TestUpdateExtensionsShareRunScratch: the same over extensions
# built on one shared scratch, as a run builds them), the per-candidate
# allocation budgets
# (TestReconcileSingleUpdateAllocations, TestReconcileOwnDeltaAllocations)
# and the warm-run byte budget (TestReconcileSingleUpdateBytes), a resolve's
# bytes not growing with the deferred set it leaves alone
# (TestResolveDrainAllocations), the text of conflict groups and their
# options' effects (TestConflictGroupsGolden), the pooled
# run scratch (TestRunScratch*: engines sharing it equal fresh ones, nothing
# a run hands out aliases it, and it is zeroed after every run),
# the scoped resolve re-run against the full one
# (TestResolveScopedMatchesFullRerun), the engine invariants (TestInvariant*:
# disjoint decision sets, idle fixpoints, instance consistency, every held
# value's row naming an applied producer whose updates wrote it, and the
# soft state a run keeps where it reproduces it equal to soft state built
# from nothing, TestInvariantSoftStateRebuilds), a
# verbatim re-insert counting its foreign-key references once in the
# instance and in a live engine against its Restore
# (TestInstanceVerbatimInsertCountsOnce,
# TestVerbatimReinsertLiveMatchesRestore), an accepted list leaving the same
# state however it is cut into runs, live, restored, and from a snapshot
# plus its tail (TestHeldInsertDeletedLiveMatchesRestore,
# TestApplyFlattensOnTheRunsInstance, TestAppliedRunsMatchRestore), the
# bytes of exported engine snapshots through the store's codec
# (TestEngineSnapshotGolden: version 2) and the version-1 golden refused
# with the commits that upgrade it (TestSnapshotRefusesV1), central's begin
# window (TestBeginWindowBlock: its candidates in one block equal the old
# per-candidate build, and an engine keeps nothing of the block), and the
# concurrent ReconcileAll against the sequential reference
# (TestReconcileAllDifferential). make verify covers these too; running
# them by name makes an engine regression unmissable in CI.
core-smoke:
	$(GO) test -race -count=3 -run '^TestUpdateExtensionMatchesGeneral$$|^TestUpdateExtensionsShareRunScratch$$|^TestReconcileSingleUpdateAllocations$$|^TestReconcileOwnDeltaAllocations$$|^TestReconcileSingleUpdateBytes$$|^TestResolveDrainAllocations$$|^TestConflictGroupsGolden$$|^TestRunScratch|^TestResolveScopedMatchesFullRerun$$|^TestInvariant|^TestInstanceVerbatimInsertCountsOnce$$|^TestVerbatimReinsertLiveMatchesRestore$$|^TestHeldInsertDeletedLiveMatchesRestore$$|^TestApplyFlattensOnTheRunsInstance$$|^TestAppliedRunsMatchRestore$$' ./internal/core
	$(GO) test -race -count=3 -run '^TestEngineSnapshotGolden$$|^TestSnapshotRefusesV1$$' ./internal/store
	$(GO) test -race -count=3 -run '^TestBeginWindowBlock$$' ./internal/store/central
	$(GO) test -race -count=3 -run '^TestReconcileAllDifferential$$' .

# chaos-smoke runs both fault-injection convergence matrices — the 4-peer
# cells (loss, dup, jitter, partition, store crash + snapshot rebuild, and
# the streaming cells that cut the watch stream mid-flight) and the
# 16/32-peer scale matrix (churn, asymmetric partitions, store crash
# composed with client rebuild, slow store — see docs/FAULTS.md) — with
# TestOwedDecisions (a store that fails decision writes, before the commit
# and after it, through Reconcile, ReconcileAll, Resolve and
# ReconcileStream: the peer owes the batch and pays it first), and the
# fabric/retry unit layer under the race detector, with the rpc.Client
# pool's cut-connection test (one client shared by a watch loop and store
# calls is the production shape) and its cancellation test (a cancelled
# call returns at once and drops its connection). make verify covers these
# too; this target runs them by name so a chaos regression is unmissable in
# CI.
chaos-smoke:
	$(GO) test -race -count=1 -run '^TestChaosMatrix|^TestScaleMatrix|^TestOwedDecisions' .
	$(GO) test -race -count=1 -run '^TestFault|^TestOneWayPartition|^TestCrashRestart|^TestLinkFaults|^TestRetry|^TestClientSharedAcrossGoroutinesSurvivesDrops$$|^TestTCPCallHonoursCancel$$|^TestTCPCancelSparesQueuedCaller$$' ./internal/simnet ./internal/rpc

# gateway-smoke runs the gateway contract suite under the race detector
# (auth, per-group rate limits, backpressure shedding, idempotent retry
# after a 429, long-poll + SSE watch, pool round-robin — see
# docs/GATEWAY.md), including TestGatewayClosedLoopExactlyOnce: concurrent
# keyed clients saturating a tiny gate, with the exactly-once audit
# required to find every operation despite the shedding.
gateway-smoke:
	$(GO) test -race -count=1 ./internal/gateway

# multigroup-smoke runs the multi-group contract gates under the race
# detector (see docs/MULTIGROUP.md): the cross-tenant differential (every
# fleet-hosted group bit-identical to a standalone run, across fleet sizes
# and drive modes), the tenant-isolation suite with the torn multi-tenant
# WAL crash cell, the placement/rebalance drain proofs, and the store
# contract's suites over a group's routed store (TestFleetConformance,
# TestFleetWatchConformance: every forwarder runs). make verify
# covers these too; running them by name makes a tenancy regression
# unmissable in CI.
multigroup-smoke:
	$(GO) test -race -count=1 -run '^TestFleet' .
	$(GO) test -race -count=1 -run '^TestTenant' ./internal/store/central

# trust-smoke runs the trust-layer contract gates under the race detector
# (see docs/TRUST.md): the planned-vs-reference differentials (whole-
# system reconciliation transcripts across every topology, plus the
# 1k-peer effective-policy sweep with its mid-stream blast-radius
# assertions), the policy/graph unit layer, the engine's re-pricing cells,
# the recompile-counter and restart-persistence cells, and a short fuzz
# budget that parses policies and compares the two evaluators. make verify
# covers the tests too; running them by name makes a trust regression
# unmissable in CI.
trust-smoke:
	$(GO) test -race -count=1 -run '^TestTrustTopologyDifferential$$|^TestTrustScale|^TestTrustTopologyGenerator$$' .
	$(GO) test -race -count=1 ./internal/trust
	$(GO) test -race -count=1 -run '^TestTrust' ./internal/store/central
	$(GO) test -race -count=1 -run '^TestRefreshTrust|^TestSetTrustInvalidatesCache$$' ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzTrustParse$$' -fuzztime 10s ./internal/trust

# storage-smoke runs the storage contract of docs/STORAGE.md by name under
# the race detector: the whole wal and reldb suites (frame reader, rotation
# and directory-sync bookkeeping, the table model test, the record format's
# round-trip, golden and malformed-input tests, the refusal of a gob
# directory, group commit and every checkpoint crash point), the record
# format's table ids by name (TestPutRecordNamesTableByID: a put's record
# is as long for a 40-byte table name as for "t" and holds no name;
# TestRefuseVersion1Dir: a version-1 directory is refused untouched with
# the commits that upgrade it), the one binary
# reader's contract (TestReader: minimal varints at every width, bounded
# counts, a sticky error, trailing bytes refused, Str owns its bytes), the
# frame reader's
# one-read contract by name (TestReplayTornHugeLengthAllocatesLittle: a
# torn header's length is bounded by the bytes left;
# TestDecodedRecordOwnsItsBytes: what reldb decodes never aliases the
# segment buffer), central's durability, torn-commit, compaction and
# late-decision cells with the differential matrix, the batched decision
# rows (TestRedecidedSurvivesReopen: an id decided twice recovers to its
# highest dseq; TestCompactionSplitsDecisionRow: a horizon that splits a
# row keeps exactly the entries the per-decision rule keeps;
# TestDecisionRowsPerBatch; TestRefuseLayout3: a layout-3 directory is
# refused untouched), the layout-5 upgrade (TestUpgradeLayout4: directories
# an earlier release wrote in layout 4, at 8 and 4 shards, read out what
# that release read; TestUpgradeLayout4RefusesCollision: a duplicate key
# across shards fails Open and rolls back; TestFreshDirectoryLayout5: a new
# directory has no shard, epochs or table_shards entry), the decode-once
# snapshot cache (TestSnapshotCacheDecodedOnce,
# TestLatestSnapshotNeverGoesBack, TestSharedSnapshotSurvivesConcurrentRebuilds),
# the build-once decoders (TestDecodeTupleCanonical: canonical tuples, one
# allocation; TestDecodeSeedsEncodingCaches: a decoded update keeps the
# encodings it read, and owns them; TestScanSharesRowsReadOnly: the values
# Scan hands out share the stored row's bytes, uncopied, and survive later
# writes), reldb's reused transaction (TestPooledTxStartsClean: a
# rolled-back Update leaves the next commit's WAL record byte-equal to a
# fresh database's),
# and a short budget each for FuzzWALReplay (the frame reader) and
# FuzzDecodeWALRecord (what is inside a frame). make verify covers the
# tests too; running them by name makes a regression in the layer under
# the store unmissable in CI.
storage-smoke:
	$(GO) test -race -count=1 ./internal/wal ./internal/reldb
	$(GO) test -race -count=3 -run '^TestReader$$' ./internal/codec
	$(GO) test -race -count=3 -run '^TestReplayTornHugeLengthAllocatesLittle$$' ./internal/wal
	$(GO) test -race -count=3 -run '^TestDecodedRecordOwnsItsBytes$$' ./internal/reldb
	$(GO) test -race -count=3 -run '^TestPutRecordNamesTableByID$$|^TestRefuseVersion1Dir$$' ./internal/reldb
	$(GO) test -race -count=1 -run 'TestDurabilityAcrossReopen|TestCheckpointPreservesState|TestCrashTornPublish|TestTornSnapshot|TestDifferentialMatrix|TestCompaction|TestLateDecision|TestSnapshotWith|TestTenantCrash|TestRedecidedSurvivesReopen|TestCompactionSplitsDecisionRow|TestDecisionRowsPerBatch|TestRefuseLayout3|TestUpgradeLayout4|TestFreshDirectoryLayout5' ./internal/store/central
	$(GO) test -race -count=3 -run '^TestSnapshotCacheDecodedOnce$$|^TestLatestSnapshotNeverGoesBack$$|^TestSharedSnapshotSurvivesConcurrentRebuilds$$' ./internal/store/central
	$(GO) test -race -count=3 -run '^TestDecodeTupleCanonical$$' ./internal/core
	$(GO) test -race -count=3 -run '^TestDecodeSeedsEncodingCaches$$' ./internal/store
	$(GO) test -race -count=3 -run '^TestScanSharesRowsReadOnly$$' ./internal/reldb
	$(GO) test -race -count=3 -run '^TestPooledTxStartsClean$$' ./internal/reldb
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeWALRecord$$' -fuzztime 10s ./internal/reldb

# fuzz-smoke gives every native fuzz target a short budget on top of its
# checked-in seed corpus (testdata/fuzz): enough to catch decoder panics
# and corpus rot on every PR without CI paying for a real fuzzing campaign:
# the canonical tuple decoder (FuzzDecodeTuple), the store codec (publish
# payloads, snapshots, reconciliations) and the wire (the rpc envelope,
# every remote body) — each holding what it accepts to re-encode to its
# input byte for byte — the WAL's frame reader, reldb's
# record and snapshot.db decoders (FuzzDecodeWALRecord,
# FuzzDecodeSnapshotDB), central's decision rows (FuzzDecodeDecisionRow),
# the namespace codec, the trust parser, and core's decided table
# (FuzzDecidedTable, model-checked against plain maps). go's
# -fuzz runs one target per invocation, so each gets its own line.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeTuple$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzDecidedTable$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePublishedTxns$$' -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeReconciliation$$' -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime 10s ./internal/rpc
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeWireBody$$' -fuzztime 10s ./internal/store/remote
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSnapshot$$' -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeWALRecord$$' -fuzztime 10s ./internal/reldb
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSnapshotDB$$' -fuzztime 10s ./internal/reldb
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeDecisionRow$$' -fuzztime 10s ./internal/store/central
	$(GO) test -run '^$$' -fuzz '^FuzzNamespaceCodec$$' -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzNamespacePrefixFree$$' -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzTrustParse$$' -fuzztime 10s ./internal/trust

# linkcheck verifies every relative markdown link in README.md and docs/
# resolves to an existing file (offline; external URLs are not fetched).
# make verify covers it too — this target just runs it by name for CI.
linkcheck:
	$(GO) test -run '^TestMarkdownLinks$$' .

clean:
	$(GO) clean ./...
