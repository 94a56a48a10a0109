GO ?= go

.PHONY: build test test-dist test-rescale stress race fuzz bench bench-engine bench-paper bench-build benchmark examples cover lint loc verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-dist runs the distributed-runtime batteries: the in-process network
# transport and coordinator tests, then the multi-process caplive battery
# (real worker OS processes over loopback TCP, including SIGKILL recovery).
test-dist:
	$(GO) test -timeout 5m -run 'TestWorkerRun|TestPrepareWorkerAttempt|TestDist' ./internal/engine ./internal/controller
	$(GO) test -timeout 5m -run 'TestProcessCluster' ./cmd/caplive

# test-rescale runs the live-rescaling battery race-checked end to end: the
# key-group partitioning invariants (incl. the fuzz seed corpus) in
# statebackend, the engine's drain→repartition→resume protocol (identity,
# validation, fault-interleaving, all transports) and its per-operator
# restore/rescale matrix (TestKeyedStateRestoreAndRescale), the in-process
# and distributed controller paths, and the fused/unfused × transport study.
test-rescale:
	$(GO) test -race -timeout 5m ./internal/statebackend
	$(GO) test -race -timeout 5m -run 'Rescale|KeyedState|RouteMatchesStateAssignment' ./internal/engine ./internal/controller ./internal/experiments

# stress repeats the schedule-sensitive batteries — the distributed control
# plane, worker attempts over the wire, wire payloads, rescale (the keyed-
# state restore matrix included) and fusion — five times each at GOMAXPROCS 1
# and 4, once plain and once under the race detector: a flake that needs a
# particular interleaving gets twenty chances to show instead of one.
STRESS_RUN = TestDist|TestWorkerRun|TestWire|TestPrepareWorkerAttempt|Rescale|KeyedState|Fus
stress:
	$(GO) test -timeout 20m -count=5 -cpu 1,4 -run '$(STRESS_RUN)' ./internal/engine ./internal/controller
	$(GO) test -race -timeout 30m -count=5 -cpu 1,4 -run '$(STRESS_RUN)' ./internal/engine ./internal/controller

race:
	$(GO) test -race ./...

# fuzz runs every Fuzz* target in the tree for ten seconds each (go test
# takes one -fuzz target per invocation, so they are found by name): the
# frame envelope, the data-plane batch codec and the join state record,
# query specs, metric names, key-group partitioning and namespace images. A failing input is written under the
# package's testdata/fuzz/ and fails the target.
fuzz:
	@set -e; grep -rEo --include='*_test.go' '^func Fuzz[A-Za-z0-9_]+' cmd internal | sort | \
	while IFS=: read -r file fn; do \
		echo "== ./$$(dirname $$file) $${fn#func }"; \
		$(GO) test -run '^$$' -fuzz "^$${fn#func }\$$" -fuzztime=10s ./$$(dirname $$file); \
	done

# bench and bench-engine are plain `go test -bench` microbenchmarks for a
# quick look while working on a layer: the CAPS search (incremental vs
# scratch evaluation, cold vs warm start) with threshold auto-tuning
# (searches against probes) and namespace images (snapshot, restore and
# repartition of a join-shaped and a window-shaped state), and the data plane
# (the wire codec alone, the batched sender alone, then short runs of a few
# query shapes per transport). They record nothing; performance claims rest on
# `make benchmark`.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSearch|BenchmarkAutoTune' -benchmem ./internal/caps
	$(GO) test -run '^$$' -bench 'BenchmarkSnapshot|BenchmarkRestore|BenchmarkRepartition' -benchmem ./internal/statebackend

bench-engine:
	$(GO) test -run '^$$' -bench 'BenchmarkWireCodec|BenchmarkBatchedSend|BenchmarkEngineThroughput' -benchmem ./internal/engine

# bench-paper runs the original end-to-end paper benchmarks at the repo root.
bench-paper:
	$(GO) test -bench=. -benchmem .

# benchmark runs the repository's benchmark (bench/, contract in
# BENCHMARK.json): every workload in a fresh child process, results in
# bench/out/result.json. This is the basis for any performance claim; see
# bench/README.md for compare and -trace.
benchmark:
	bash bench/run.sh run

# bench-build vets, builds and tests bench/ against the working tree. bench/
# is its own module, so the root `go build ./...` does not notice when a
# refactor breaks the exported engine/controller surface it compiles against.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) build -o /dev/null ./... && $(GO) test ./...

# examples runs the four examples/* mains, each under a two-minute timeout:
# they have no tests, so running them is what notices when a refactor of the
# controller or engine surface breaks one (about 50 s in total on 2 vCPUs).
examples:
	@set -e; for d in examples/*/; do \
		echo "== ./$$d"; \
		timeout 120 $(GO) run ./$$d >/dev/null; \
	done

# loc prints the non-test, non-blank, non-comment Go line counts the
# simplification PRs are judged on: the lifecycle packages, the three CLIs
# (with the flag package they share shown separately), and the studies and
# examples that call into them.
loc:
	@count() { find "$$@" -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | grep -v '^[[:space:]]*$$' | grep -cv '^[[:space:]]*//'; }; \
	echo "internal/engine + internal/controller: $$(count internal/engine internal/controller)"; \
	echo "cmd/{caplive,capsim,capsysctl}:          $$(count cmd/caplive cmd/capsim cmd/capsysctl)"; \
	echo "cmd/internal/cliflags:                   $$(count cmd/internal/cliflags)"; \
	echo "internal/experiments:                    $$(count internal/experiments)"; \
	echo "examples/:                               $$(count examples)"

# cover writes an aggregate coverage profile and prints the per-function
# summary; open with `go tool cover -html=cover.out`.
cover:
	$(GO) test -coverprofile=cover.out -covermode=atomic ./...
	$(GO) tool cover -func=cover.out | tail -n 1

# lint runs capslint, the project's own static analysis suite — per-package
# checks (determinism, lock pairing, channel hygiene, goroutine lifecycle,
# metric naming) plus the whole-program analyzers (lock-order cycles across
# the call graph, sync/atomic access discipline, wire-frame protocol
# exhaustiveness) — in strict mode, which additionally reports stale
# //capslint:allow comments. Built on the standard library only, so it
# works from a clean checkout.
lint:
	$(GO) run ./cmd/capslint -strict ./...

# verify is the full pre-merge gate: vet, capslint, build everything,
# race-check the search, engine, controller and state-backend packages (the
# concurrency-heavy cores, including the heartbeat-piggyback metric
# aggregation path and the key-group repartitioning under rescale), run the
# entire test suite under the race detector (benchmarks skip themselves
# under -race; see bench_race_on_test.go), finish with the live-rescale and
# multi-process distributed batteries, check that the separate bench/
# module still builds and passes against the tree, and run the examples.
verify:
	$(GO) vet ./...
	$(GO) run ./cmd/capslint -strict ./...
	$(GO) build ./...
	$(GO) test -race ./internal/caps/... ./internal/engine/... ./internal/controller/... ./internal/statebackend/...
	$(GO) test -race ./...
	$(MAKE) test-rescale
	$(GO) test -timeout 5m -run 'TestProcessCluster' ./cmd/caplive
	$(MAKE) bench-build
	$(MAKE) examples
