# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet test race cover bench bench-batch bench-check bench-baseline figures examples fuzz chaos chaos-cluster crash fence reuse delta allocs shapes reach metrics clean lint-capabilities

all: build lint-capabilities test

build: vet
	go build ./...

# go vet plus formatting: any file gofmt would rewrite fails the target.
vet:
	go vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "$$unformatted"; \
		echo 'vet: the files above are not gofmt-clean (run gofmt -w)' >&2; \
		exit 1; \
	fi

# Capability dispatch must go through kv.As so it survives wrapper stacks.
# Direct assertions to the kv capability interfaces outside package kv (only
# there is the qualified `kv.` form used) fail the build. `var _ kv.Batch`
# implementation asserts and `case *kv.Batch:` Intercepts switches do not
# match the pattern and stay legal.
lint-capabilities:
	@matches=$$(grep -rEn --include='*.go' \
		'\.\(kv\.(Versioned|VersionedBatch|Batch|Expiring|SQL|CompareAndPut|Ranged)\)' . || true); \
	if [ -n "$$matches" ]; then \
		echo "$$matches"; \
		echo 'lint-capabilities: direct capability type assertions found; use kv.As[T] (see DESIGN.md "Middleware architecture")' >&2; \
		exit 1; \
	fi

test:
	go test ./...

race:
	go test -race ./...

cover:
	go test -cover ./...

# Short fuzz passes: the RESP protocol reader (internal/resp/fuzz_test.go),
# the minisql parser and the typed-parameter vs rendered-literal differential
# (internal/minisql/fuzz_test.go, params_test.go), and the storage engine's
# page decoder + B-tree operations (internal/minisql/storage_fuzz_test.go),
# the one-shot gzip encoder against the stdlib reader
# (internal/pack/oneshot_test.go), the cloudsim path parser against the
# strings.Split implementation it replaced (internal/cloudsim/hotpath_test.go),
# and the cloudsim client's response head reader against http.ReadResponse
# (internal/cloudsim/conn_test.go).
# The one list of targets: CI runs it with FUZZTIME=30s.
FUZZTIME ?= 10s
fuzz:
	go test ./internal/resp -run='^$$' -fuzz=FuzzRead -fuzztime=$(FUZZTIME)
	go test ./internal/minisql -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME)
	go test ./internal/minisql -run='^$$' -fuzz=FuzzParamsMatchLiterals -fuzztime=$(FUZZTIME)
	go test ./internal/minisql -run='^$$' -fuzz=FuzzPageDecode -fuzztime=$(FUZZTIME)
	go test ./internal/minisql -run='^$$' -fuzz=FuzzBTreeOps -fuzztime=$(FUZZTIME)
	go test ./internal/pack -run='^$$' -fuzz=FuzzOneShotRoundTrip -fuzztime=$(FUZZTIME)
	go test ./internal/cloudsim -run='^$$' -fuzz=FuzzParsePath -fuzztime=$(FUZZTIME)
	go test ./internal/cloudsim -run='^$$' -fuzz=FuzzReadResponseHead -fuzztime=$(FUZZTIME)

# The chaos conformance suite at aggressive settings: 4x the operations,
# doubled fault rates, race detector on — every store must still pass.
chaos:
	EDSC_CHAOS=aggressive go test -race -run 'Chaos' ./...

# The node-kill chaos suite: whole backend nodes die and restart under the
# replicated cluster tier while the linearizability checker watches, plus
# the cluster conformance (quorum loss, hinted handoff, read repair,
# membership change under load) — race detector on.
chaos-cluster:
	EDSC_CHAOS=aggressive go test -race -run 'TestClusterChaos|TestClusterSuite' -v ./kv/cluster

# run-named runs `go test` with the given arguments and fails, beyond what go
# test itself fails on, when a package's -run pattern matched no test: a
# renamed suite passes `go test` silently.
define run-named
	@out=$$(go test $(1) 2>&1); status=$$?; \
	echo "$$out"; \
	if echo "$$out" | grep -q 'no tests to run'; then \
		echo '$@: the -run pattern matched no test' >&2; \
		exit 1; \
	fi; \
	exit $$status
endef

# minisql's crash, disk-fault and commit-pipeline suites by name, repeated
# under the race detector: every kill point of every torture workload, from
# kill -9 and power-loss images (DESIGN.md "Crash model"); the key-value
# adapter's shared statements beside an open batch, and its refusal of
# transaction control; Open's refusal of a directory already open; and the
# lifetimes of recycled page structs, commit batches and writer scratch.
crash:
	$(call run-named,-race -count=3 -run 'Crash|Fault|GroupCommit|EarlyWriterRelease|Durab|TestKVStoreSharedStatements|TestKVStoreSQLRefusesTransactionControl|TestOpenRefusesOpenDirectory|TestRecycledFramesAndBatches' ./internal/minisql)

# dscl's fill fence: every interleaving of a cache fill with a racing write,
# and the shared-key monotone-read workload, repeated under the race detector
# (DESIGN.md "Cache coherence").
fence:
	$(call run-named,-race -count=200 -run 'TestFenceInterleavings|TestSharedKeysMonotoneReads' ./dscl)

# The reuse rules of the quorum-over-RESP path, repeated under the race
# detector: pooled fan-out state and the lent record buffer under node
# failures, the round context's contract (a deadline, a parent's end, a
# context kept past its round, a stale fire of the fanout's reused timer),
# the two-round read over that state, replica state by replica
# state, and its two deadlines against a hung replica, a round over whole
# nodes against a silent member, a version stamped under the key lock from a
# clock-seeded counter (the two histories that lose an acknowledged write
# otherwise), a muxed caller that gives up while a leader is parked
# mid-frame, a caller holding an idle socket through each outcome of its
# exchange and handing the role on, a caller leading other callers' calls
# (flushed; its ctx ending after the flush, during it, or while a write is
# parked; a write cut past the batch's deadline; a batch already past it), and
# the retry after a server restart (DESIGN.md "Buffer ownership for the *To
# APIs", "Distributed cluster tier", "Network hot path"); and the cloudsim
# client's connection pool: which requests go out again after a lost
# connection, a ctx cutting a body read, the header timeout against a silent
# server, a reset connection, a coalesced caller giving up, and sockets
# draining after wire faults (DESIGN.md "HTTP hot path"). Then the Put slice
# rule: a Put cut by its deadline mid-call leaves the slice to its caller in
# the muxed miniredis client, the cloudsim client, the cluster and resilient
# under OpTimeout; dscl's pooled put envelope stays the store call's until it
# returns and never backs a transformed cache entry; and the nonces of one
# secure.Cipher never repeat across goroutines (DESIGN.md "Buffer ownership
# for the *To APIs").
reuse:
	$(call run-named,-race -count=20 -run 'TestFanoutReuseUnderFailures|TestRoundContext|TestProbeReadStateTable|TestHungReplicaCutOffAtNodeTimeout|TestVersionStampedUnderKeyLock|TestLaterLockedPutWinsOverDegradedReplica|TestRestartedCoordinatorWriteSurvives|TestNodeRoundCutsHungNode' ./kv/cluster)
	$(call run-named,-race -count=20 -run 'TestMuxAbandonWaitsOutParkedWriter|TestRetryAfterStalePoolUsesFreshDial|TestExchangeOwnership/(Idle|Leader)' ./internal/miniredis)
	$(call run-named,-race -count=20 -run 'TestConnectionLossReplay|TestCtxCancelAbortsBodyRead|TestResponseHeaderTimeoutCutsSilentServer|TestServerFaultInjection/ConnectionReset|TestCoalescePerCallerCancel|TestCoalesceChaosConnHygiene' ./internal/cloudsim)
	$(call run-named,-race -count=20 -run '(TestMuxStoreConformance|TestConformance|TestClusterConformance|TestPutCutConformance)/PutCutByDeadline' ./internal/miniredis ./internal/cloudsim ./kv/cluster ./kv/resilient)
	$(call run-named,-race -count=20 -run 'TestPutEnvelopeOwnership|TestSealNoncesNeverRepeat' ./dscl ./internal/secure)

# The delta chain as a store: every inner write of a scripted history failed
# before and after it applied (the key reads as the last acknowledged value or
# the failed write's, from the surviving chain and from a fresh one), Clear
# dropping the shadow, and the kv.Store contract over the bare chain and over
# a delta-encoded client, repeated under the race detector (DESIGN.md "Delta
# encoding").
delta:
	$(call run-named,-race -count=20 -run 'TestChainFaultEnumeration|TestChainConformance|TestChainClearThenPut|TestDeltaClientConformance' ./internal/delta ./dscl)

# The wall-clock shape tests (who is slower than whom in §V's figures, and
# cloudsim's latency model), 100 times in one process: a shape that holds in
# a fresh process but not under -count samples too little.
shapes:
	$(call run-named,-count=100 -run Shape ./internal/benchkit ./internal/cloudsim)

# The allocation guards of the request path, by name: they skip under -race
# and a renamed or skipped guard passes `go test`, so each one must show up as
# a PASS line. The one list to edit when a guard is added.
ALLOC_GUARDS = TestAllocGuardMuxRoundTrip TestAllocGuardPagedPutGet TestAllocGuardFileCommit \
	TestAllocGuardKVStoreGetPut TestPreparedExecutionAllocs TestAllocGuardClusterGetPut \
	TestAllocGuardTrace TestAllocGuardTransformChain TestAllocGuardOneShot \
	TestAllocGuardDecodeSizedOnce TestAllocGuardConditionalGet TestAllocGuardClientGetPut \
	TestAllocGuardQuorumOverRESP TestAllocGuardDataStoreHit TestAllocGuardGetRangeRoundTrip \
	TestAllocGuardQuorumGetBytes TestAllocGuardGetUnderTimeout TestAllocGuardRoundDone \
	TestAllocGuardSealOpen TestAllocGuardQuorumOverSQL
allocs:
	@out=$$(go test -count=1 -v -run '^TestAllocGuard|^TestPreparedExecutionAllocs$$' \
		./internal/miniredis ./internal/minisql ./internal/pack ./internal/secure ./internal/cloudsim ./dscl ./kv/cluster ./monitor . 2>&1); status=$$?; \
	echo "$$out"; \
	for t in $(ALLOC_GUARDS); do \
		echo "$$out" | grep -q -- "--- PASS: $$t " || { echo "allocs: $$t did not pass (skipped, renamed or failed)" >&2; status=1; }; \
	done; \
	exit $$status

bench:
	go test -bench=. -benchmem .

# Run the gated experiments (mux, http, sql, commit; `udsm-bench run <name>`
# for one) and fail on any regression against the committed BENCH.json:
# guarded cells' ops/s and p99 relative to the baseline, errors on any cell,
# and the structural gates declared beside each experiment in
# internal/benchkit/experiments.go. The same command CI runs.
bench-check:
	go run ./cmd/udsm-bench run -baseline BENCH.json

# Regenerate BENCH.json wholesale, every experiment at its declared size.
# Commit the result.
bench-baseline:
	go run ./cmd/udsm-bench run -json BENCH.json

# Batched multi-key ablation (one bulk round trip vs a per-key loop) plus
# the per-store speedup sweep into results/ext_batch_speedup.dat.
bench-batch:
	go test -bench=BenchmarkAblationBatch -benchmem .
	go run ./cmd/udsm-bench -fig batch -out results -scale 0.05

# Regenerate every figure's data series into results/ (see EXPERIMENTS.md).
figures:
	go run ./cmd/udsm-bench -fig all -out results -scale 0.05 -runs 4 -ops 2

# Which statements the programs reach: the examples, the four bench/
# workloads and udsm-bench (figures, then the gated experiments), built with
# -cover over the whole module and run under one GOCOVERDIR, merged into
# results/reach.tsv (per package, then every function no program entered).
reach:
	bash scripts/reach.sh

examples:
	go run ./examples/quickstart
	go run ./examples/securestore
	go run ./examples/asyncpipeline
	go run ./examples/multistore
	go run ./examples/cloudcache

clean:
	rm -rf results/*.tmp

# Observability acceptance: workload through the resilient stack, then
# assert the /metrics scrape carries per-op histograms + resilience counters.
metrics:
	go test -race -run TestMetricsEndpointAcceptance -v .
