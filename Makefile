# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml); tier-1 is `make check`.

GO ?= go

.PHONY: check test race vet bench-baseline bench-pipeline clean

check: vet
	test -z "$$(gofmt -l .)"
	$(GO) build ./...
	$(GO) test ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/...

vet:
	$(GO) vet ./...

# bench-baseline snapshots the server's hot-path benchmarks into a
# machine-readable baseline for regression diffing. -count and -benchtime
# are overridable: make bench-baseline BENCHTIME=100x
BENCHTIME ?= 1s
BENCHCOUNT ?= 1

bench-baseline:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) \
		./internal/server/ | tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_server.json
	@echo "wrote BENCH_server.json"

# bench-pipeline snapshots the discovery/normalization hot paths —
# streaming ingest, HyFD worker counts (with pairs_compared/op,
# agree_sets_sampled/op and fds_induced/op), shared-substrate reuse,
# the UCC search behind primary-key selection (inline and on a pool,
# with plis_intersected/op), the end-to-end pipeline (unconstrained and
# under a -max-memory ceiling), the compressed PLI store
# (compress/decode/spill-reload), the incremental delta append (full
# re-run vs delta revalidation, with candidates_checked/op counters)
# and the decode of its saved parent result — into a machine-readable
# baseline. The worker-count series only
# spreads on multi-core hosts; the substrate and allocation wins show
# everywhere.
bench-pipeline:
	$(GO) test -run '^$$' -bench 'Ingest|HyFDWorkers|HyFDSubstrate|UCC|NormalizeWorkers|Figure3TPCH|DeltaAppend|DecodeResult|PLIStore' \
		-benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) \
		. ./internal/plistore/ | tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_pipeline.json
	@echo "wrote BENCH_pipeline.json"

clean:
	rm -f BENCH_server.json BENCH_pipeline.json
