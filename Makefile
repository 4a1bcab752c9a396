# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet test race cover bench bench-batch bench-cluster bench-json bench-check bench-mux bench-http bench-sql bench-commit figures examples fuzz chaos chaos-cluster metrics clean lint-capabilities

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
		'\.\(kv\.(Versioned|VersionedBatch|Batch|Expiring|SQL|CompareAndPut)\)' . || true); \
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
# (internal/pack/oneshot_test.go), and the cloudsim path parser against the
# strings.Split implementation it replaced (internal/cloudsim/hotpath_test.go).
fuzz:
	go test ./internal/resp -run='^$$' -fuzz=FuzzRead -fuzztime=10s
	go test ./internal/minisql -run='^$$' -fuzz=FuzzParse -fuzztime=10s
	go test ./internal/minisql -run='^$$' -fuzz=FuzzParamsMatchLiterals -fuzztime=10s
	go test ./internal/minisql -run='^$$' -fuzz=FuzzPageDecode -fuzztime=10s
	go test ./internal/minisql -run='^$$' -fuzz=FuzzBTreeOps -fuzztime=10s
	go test ./internal/pack -run='^$$' -fuzz=FuzzOneShotRoundTrip -fuzztime=10s
	go test ./internal/cloudsim -run='^$$' -fuzz=FuzzParsePath -fuzztime=30s

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

bench:
	go test -bench=. -benchmem .

# Regenerate the machine-readable allocation baseline (BENCH_PR5.json):
# ns/op, B/op and allocs/op for every hot path. Commit the result.
bench-json:
	go run ./cmd/udsm-bench -json BENCH_PR5.json

# Re-measure and fail if any guarded path's allocs/op regressed >20% vs the
# committed baseline, if the network hot path's throughput / p99 / mux
# speedup regressed vs BENCH_PR7.json, if the cloudsim HTTP hot path's
# throughput / p99 / coalesce speedup regressed vs BENCH_PR8.json, if the
# paged SQL storage engine's data/cache ratio or cached/paged penalty
# regressed vs BENCH_PR9.json, or if the commit pipeline's grouped/serial
# speedup fell below 3x at 16 writers vs BENCH_PR10.json — the same gates
# CI runs.
bench-check:
	go run ./cmd/udsm-bench -json /tmp/edsc-bench-current.json -baseline BENCH_PR5.json
	go run ./cmd/udsm-bench -tjson /tmp/edsc-bench-mux.json -tbaseline BENCH_PR7.json
	go run ./cmd/udsm-bench -hjson /tmp/edsc-bench-http.json -hbaseline BENCH_PR8.json
	go run ./cmd/udsm-bench -sjson /tmp/edsc-bench-sql.json -sbaseline BENCH_PR9.json
	go run ./cmd/udsm-bench -cjson /tmp/edsc-bench-commit.json -cbaseline BENCH_PR10.json

# Closed-loop network hot-path throughput (per-request vs pooled vs mux
# clients, 1k goroutines) into results/ext_mux_throughput.dat, and
# regenerate the committed throughput baseline BENCH_PR7.json.
bench-mux:
	go run ./cmd/udsm-bench -fig mux -out results
	go run ./cmd/udsm-bench -tjson BENCH_PR7.json

# Closed-loop cloudsim HTTP hot-path throughput (per-op vs tuned pool vs
# coalesced clients, 256 goroutines) — regenerate the committed baseline
# BENCH_PR8.json. ("-fig mux" above also writes results/ext_http_throughput.dat.)
bench-http:
	go run ./cmd/udsm-bench -hjson BENCH_PR8.json

# Closed-loop paged SQL storage-engine throughput (whole dataset cached vs
# dataset ~10x the page cache) into results/ext_sql_paged.dat, and
# regenerate the committed baseline BENCH_PR9.json.
bench-sql:
	go run ./cmd/udsm-bench -fig sql -out results
	go run ./cmd/udsm-bench -sjson BENCH_PR9.json

# Closed-loop commit-pipeline throughput (serial vs grouped commits at
# 1/4/16/64 concurrent writers, plus a Zipfian hot-key pair) into
# results/ext_commit_group.dat, and regenerate the committed baseline
# BENCH_PR10.json.
bench-commit:
	go run ./cmd/udsm-bench -fig commit -out results
	go run ./cmd/udsm-bench -cjson BENCH_PR10.json

# Batched multi-key ablation (one bulk round trip vs a per-key loop) plus
# the per-store speedup sweep into results/ext_batch_speedup.dat.
bench-batch:
	go test -bench=BenchmarkAblationBatch -benchmem .
	go run ./cmd/udsm-bench -fig batch -out results -scale 0.05

# Cluster-tier scaling sweep (miniredis-backed nodes at N=1,3,5) into
# results/ext_cluster_scaling.dat.
bench-cluster:
	go run ./cmd/udsm-bench -fig cluster -out results

# Regenerate every figure's data series into results/ (see EXPERIMENTS.md).
figures:
	go run ./cmd/udsm-bench -fig all -out results -scale 0.05 -runs 4 -ops 2

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
