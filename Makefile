GO ?= go

# BENCHTIME scales the bench-json micro-benchmarks; ci overrides it to 1x
# so the harness is smoke-tested without paying for stable numbers.
# PIPELINE_BENCHTIME scales the end-to-end discovery and clustering
# benchmarks separately: at a large fraction of a second per op, the
# default -benchtime 1s runs them for one or two iterations, so the
# recorded number carries first-run noise (pool/page-cache warm-up). 5x
# keeps the recording honest without making bench-json take minutes.
# BENCH_COUNT repeats every invocation; cmd/benchjson records the median
# of the counts, since GC-driven pool misses swing a single count's B/op
# and a single 1 s count of a micro-benchmark swings its ns/op on a
# shared machine.
# BENCH_OUT is where bench-json writes its JSON; the ci smoke discards it
# so a ci run never clobbers the committed performance trajectory.
BENCHTIME ?= 1s
PIPELINE_BENCHTIME ?= 5x
BENCH_COUNT ?= 5
BENCH_OUT ?= BENCH_pipeline.json

.PHONY: ci fmt-check vet lint lint-smoke build test-short test test-race \
	test-persist test-dist test-obs test-sweep suite-check golden-update \
	test-purego fuzz-kmeans \
	fuzz-sqdist fuzz-cache fuzz-polar fuzz-units fuzz-codecs fuzz-batch fuzz-memtrace bench \
	bench-json bench-json-smoke bench-diff

# ci is the tier-1 gate: formatting, static checks (go vet plus the
# project's own bpvet analyzers), build, fast tests, the race detector
# over the whole tree, the persistence suite, the distributed-execution
# suite, the observability suite, the batch-sweep suite, the
# evaluation suite's stdout against its golden, the scalar-fallback
# kernel leg, short fuzzes of the accelerated k-means
# against its plain-Lloyd oracle, of the k-means distance kernel against
# sqDist, of the recency-ordered cache against its timestamped-LRU oracle,
# of the polar transform kernel against the scalar transform,
# of the worker's POST /units decoder, of the artifact codecs, of the
# POST /studies:batch decoder and of the memory-trace decoder and replay,
# and a 1x smoke of the bench-json harness so it cannot bit-rot.
ci: fmt-check vet lint build test-short test-race test-persist test-dist test-obs test-sweep suite-check test-purego fuzz-kmeans fuzz-sqdist fuzz-cache fuzz-polar fuzz-units fuzz-codecs fuzz-batch fuzz-memtrace bench-json-smoke

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# lint runs cmd/bpvet, the project-specific analyzer suite (keyfields,
# locksafe, spanend, codecreg, noalloc — see the README "Static
# analysis" section), then proves the gate still bites: each analyzer's
# deliberate-violation corpus must make bpvet exit non-zero.
lint:
	$(GO) run ./cmd/bpvet ./...
	@$(MAKE) --no-print-directory lint-smoke

lint-smoke:
	@for dir in \
		internal/analysis/testdata/keyfields/bad \
		internal/analysis/testdata/locksafe/bad/service \
		internal/analysis/testdata/spanend/bad \
		internal/analysis/testdata/codecreg/bad \
		internal/analysis/testdata/noalloc/bad; do \
		if $(GO) run ./cmd/bpvet ./$$dir >/dev/null 2>&1; then \
			echo "lint-smoke: bpvet did not flag $$dir"; exit 1; fi; \
	done; echo "lint-smoke: bpvet flags all violation corpora"

build:
	$(GO) build ./...

# test-short skips the slow experiment sweeps (< 1 minute).
test-short:
	$(GO) test -short ./...

# test runs everything, including the full experiment smoke sweeps.
test:
	$(GO) test ./...

# test-race runs the whole tree under the race detector (-short skips
# the slow experiment sweeps, which test-persist/test-dist/test-obs
# already cover under -race where concurrency matters). It used to gate
# a hand-picked package list; a new concurrent package is now covered the
# day it lands instead of when someone remembers to add it here.
test-race:
	$(GO) test -race -short ./...

# test-persist exercises the persistent cache store and every layer's
# warm-restart path (store scan/eviction/corruption recovery, scheduler,
# HTTP service, batch runner) against temp directories, under the race
# detector.
test-persist:
	$(GO) test -race ./internal/cachestore/...
	$(GO) test -race -run 'Persist|WarmRestart|RestartServes' ./internal/sched/... ./internal/service/... ./internal/experiments/... .

# test-dist exercises distributed execution end to end under the race
# detector: an in-process worker + coordinator pair over httptest (golden
# equivalence vs the local path, worker death mid-study, dead-fleet local
# fallback, cancellation of in-flight remote units, cross-process trace
# propagation and grafting) plus the executor layer's unit tests.
test-dist:
	$(GO) test -race -run 'Distributed|Worker|Executor|UnitRequest|LongPoll' \
		./internal/sched/... ./internal/service/...

# test-obs exercises the observability layer under the race detector: the
# registry/exposition/tracer/logger unit tests (graft re-basing, event
# ring eviction, /debug/events filtering), the wire round trip of units
# carrying their dependency artifacts (no dependency cache:* span on a
# cold worker), plus the end-to-end smokes that run studies against live
# servers and assert the key /metrics series are present and non-zero,
# the trace endpoint serves a rooted span tree (also the moment a study
# reads done), and a two-worker study's trace merges the grafted worker
# subtrees into one tree.
test-obs:
	$(GO) test -race ./internal/obs/...
	$(GO) test -race -run 'MetricsEndToEnd|TraceEndToEnd|TraceRootedWhenDone|UnitRequestDepsRoundTrip|DistributedTracePropagation' \
		./internal/sched/... ./internal/service/...

# test-sweep exercises the batch sweep compiler end to end under the race
# detector: planner-level dedup/subsumption accounting, discovery and
# collection members, the program-keyed fingerprint memo and the golden
# batch-vs-serial byte-identity invariant (internal/sched), the
# POST /studies:batch service surface with cancellation cascades and the
# 2-worker fleet equivalence run (internal/service), and the evaluation
# suite's path (internal/experiments): planned studies byte-identical to
# serial ones, the studies six experiments declare, and the discoveries
# and collections limits declares, each executed as one plan, then
# rendered against their goldens without a cache miss.
# -timeout 30m: the sched leg's golden equivalence runs (batch plus a
# serial reference per member) exceed go test's default 10m per-package
# budget under the race detector's ~10x slowdown.
test-sweep:
	$(GO) test -race -timeout 30m -run 'Sweep|BatchStudies|PlanStudies|Table3And4QuickRun|LimitsOutput' \
		./internal/sched/... ./internal/service/... ./internal/experiments/...

# suite-check runs the whole evaluation suite at its quick configuration
# on one worker and on four, and compares each stdout byte for byte with
# cmd/bpexperiments/testdata/quick.golden, so the output depends neither
# on the worker budget nor on drift from the committed bytes. It checks
# -list against list.golden too.
SUITE_DIR = .suite_build
suite-check:
	$(GO) build -o $(SUITE_DIR)/bpexperiments ./cmd/bpexperiments
	$(SUITE_DIR)/bpexperiments -list > $(SUITE_DIR)/list.out
	cmp $(SUITE_DIR)/list.out cmd/bpexperiments/testdata/list.golden
	$(SUITE_DIR)/bpexperiments -exp all -quick -unit-workers 1 > $(SUITE_DIR)/quick-1.out
	cmp $(SUITE_DIR)/quick-1.out cmd/bpexperiments/testdata/quick.golden
	$(SUITE_DIR)/bpexperiments -exp all -quick -unit-workers 4 > $(SUITE_DIR)/quick-4.out
	cmp $(SUITE_DIR)/quick-4.out cmd/bpexperiments/testdata/quick.golden

# golden-update re-blesses every committed output after a deliberate
# behaviour change: through the tests' -update flag, the experiment
# goldens under internal/experiments/testdata, the study reports and
# result digests under internal/core/testdata and internal/sched/testdata
# and the discovery sets and collection digests beside them; then
# suite-check's two goldens from a fresh build. Review the diff before
# committing it.
golden-update:
	$(GO) test -count=1 ./internal/experiments ./internal/core ./internal/sched -update
	$(GO) build -o $(SUITE_DIR)/bpexperiments ./cmd/bpexperiments
	$(SUITE_DIR)/bpexperiments -list > cmd/bpexperiments/testdata/list.golden
	$(SUITE_DIR)/bpexperiments -exp all -quick > cmd/bpexperiments/testdata/quick.golden

# test-purego proves the scalar fallbacks of the k-means, cache-set and
# polar-transform kernels stay healthy on both of their paths: the purego
# build tag compiles the SIMD kernels out entirely, and BP_PUREGO=1
# exercises the runtime override on the normal build (internal/cpu's
# TestPuregoOverride only bites under it). The scalar loops are arm64's
# only path, so the Lloyd-oracle and scratch-reuse tests, the cache's
# LRU-oracle tests, the batch normal draws' and papi's tests run on both
# legs. sigvec has no kernel, one Go loop on every build, so test-short
# already runs the only path it has. -count=1 defeats test caching, which
# would otherwise replay results recorded without the env var.
PUREGO_PKGS = ./internal/cpu/ ./internal/simpoint/ \
	./internal/mem/ ./internal/xrand/ ./internal/papi/
test-purego:
	$(GO) test -tags purego -count=1 $(PUREGO_PKGS) ./internal/core/
	BP_PUREGO=1 $(GO) test -count=1 $(PUREGO_PKGS)

# fuzz-kmeans feeds simpoint's bounded k-means raw float64 bit patterns
# (NaN, ±Inf, subnormals, wild scale mixes) for 10 s and fails on the
# first call that differs from the plain Lloyd loop by a single bit.
fuzz-kmeans:
	$(GO) test -run '^$$' -fuzz '^FuzzKMeansExact$$' -fuzztime 10s ./internal/simpoint

# fuzz-sqdist feeds the AVX2 k-means distance kernel raw float64 bit
# patterns for 10 s, over dims 1-64 and partial last blocks whose padding
# lanes hold stale NaNs, and fails on the first live lane that differs
# from sqDist by a single bit (all NaNs count as equal). It skips on a
# host without AVX2.
fuzz-sqdist:
	$(GO) test -run '^$$' -fuzz '^FuzzSqDistBlock$$' -fuzztime 10s ./internal/simpoint

# fuzz-cache feeds mem.Cache fuzzer-chosen Access/Fill/Contains/Reset
# sequences for 10 s and fails on the first result or counter that
# differs from the timestamped true-LRU oracle.
fuzz-cache:
	$(GO) test -run '^$$' -fuzz '^FuzzCacheExact$$' -fuzztime 10s ./internal/mem

# fuzz-polar maps arbitrary float64 bits into (0, 1), subnormals
# included, for 10 s and fails on the first lane of the AVX2 polar
# transform (xrand's sqrt(-2*log(s)/s), four at a time) that differs from
# the scalar math.Sqrt(-2*math.Log(s)/s) by a single bit. It skips on a
# host without AVX2.
fuzz-polar:
	$(GO) test -run '^$$' -fuzz '^FuzzPolarExact$$' -fuzztime 10s ./internal/xrand

# fuzz-units feeds the worker's POST /units handler arbitrary bodies for
# 10 s, seeded with real collect and jittered units, a validate body as a
# coordinator that shipped set scoring to workers sent it (a 409:
# validation is a study's assembly step, not a unit kind), a malformed
# dependency probe and three collect units whose platform cannot be
# resolved (an unknown ISA, a machine override without its ISA and CPU,
# a vectorised ISA with no vector width), and fails on a panic or on any
# status outside 200, 409, 422 and 429. Seeds are multi-KB bodies, so minimising each new
# input under the default 60 s budget would eat the whole run.
fuzz-units:
	$(GO) test -run '^$$' -fuzz '^FuzzWorkerUnit$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/service

# fuzz-codecs feeds cachestore.Decode arbitrary bytes under every artifact
# codec internal/sched registers for 10 s, seeded with real MCB encodings
# of each, and scores whatever decodes to a collection or a set against a
# valid counterpart, as a study's assembly step would: a malformed
# artifact, shipped in a unit's deps or read back from a cachestore file,
# must be an error, never a panic.
# Minimising is capped at 200 calls per new input; a time budget, even
# fuzz-units' 2 s, leaves the multi-KB seeds fuzzing for a fraction of
# the run.
fuzz-codecs:
	$(GO) test -run '^$$' -fuzz '^FuzzArtifactDecode$$' -fuzztime 10s -fuzzminimizetime 200x ./internal/sched

# fuzz-batch feeds the POST /studies:batch decode and validation path
# (decodeSubmission, then the batch and member checks, never execution)
# arbitrary bodies for 10 s and fails on a panic or on a rejection
# outside 4xx.
fuzz-batch:
	$(GO) test -run '^$$' -fuzz '^FuzzBatchSubmit$$' -fuzztime 10s ./internal/service

# fuzz-memtrace feeds the memory-trace decoder arbitrary bytes for 10 s
# and replays whatever decodes: a malformed trace (wrong length, trailing
# bytes, a varint overflowing 64 bits) or one whose shape does not match
# the run must be an error, never a panic, and decoding must allocate no
# more than its input. Cachestore files reach the same decoder.
fuzz-memtrace:
	$(GO) test -run '^$$' -fuzz '^FuzzMemTrace$$' -fuzztime 10s ./internal/omp

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# bench-json records the signature-pipeline performance trajectory: the
# mem/pin/sigvec micro-benchmarks, papi's 20-rep counter collection
# (plain and multiplexed), the sweep-planner compile benchmark,
# end-to-end discovery, SimPoint clustering on synthetic and on real
# signature vectors (HPCG's canonical discovery run, LULESH's canonical
# run and its jittered run 1), native Step 3 collection of HPCG on
# both ISAs, the cache model alone replaying HPCG's touch stream on both
# machines' hierarchies, and single-study latency at the paper configuration, parsed
# into BENCH_pipeline.json (fails if any benchmark fails or produces no
# results). Each invocation APPENDS a run entry to the trajectory, so the
# history across PRs is preserved; see cmd/benchjson. Every invocation
# runs BENCH_COUNT times (see the variables' comments). The discovery,
# clustering and collection benchmarks run in their own invocation at
# PIPELINE_BENCHTIME iterations, and BenchmarkStudy in another at one
# iteration per count, since one cold study takes seconds. If any
# invocation fails, benchjson sees the FAIL line and refuses to record.
bench-json:
	{ $(GO) test -run '^$$' -benchmem -benchtime $(BENCHTIME) -count $(BENCH_COUNT) \
		-bench 'StackDist|^BenchmarkStream|BuilderSparse|CollectMultiplexed' \
		./internal/mem ./internal/pin ./internal/sigvec ./internal/papi; \
	  $(GO) test -run '^$$' -benchmem -benchtime $(BENCHTIME) -count $(BENCH_COUNT) \
		-bench 'SweepPlanner' ./internal/sched; \
	  $(GO) test -run '^$$' -benchmem -benchtime $(PIPELINE_BENCHTIME) -count $(BENCH_COUNT) \
		-bench 'DiscoveryPipeline|KMeansClustering|ClusterHPCG$$|ClusterLULESH$$|ClusterLULESHJittered$$|^BenchmarkCollect$$|HierarchyReplay' .; \
	  $(GO) test -run '^$$' -benchmem -benchtime 1x -count $(BENCH_COUNT) \
		-bench '^BenchmarkStudy$$' .; } \
		| $(GO) run ./cmd/benchjson -out $(BENCH_OUT)

# bench-json-smoke is the ci wiring: one iteration per benchmark, just to
# prove the harness and the JSON emitter stay healthy; the output is
# discarded rather than overwriting the recorded trajectory.
bench-json-smoke: BENCHTIME = 1x
bench-json-smoke: PIPELINE_BENCHTIME = 1x
bench-json-smoke: BENCH_COUNT = 1
bench-json-smoke: BENCH_OUT = /dev/null
bench-json-smoke: bench-json

# bench-diff compares the two newest runs of the recorded trajectory and
# fails on regressions (>10% ns/op on the same CPU, or any allocation on
# a benchmark the previous run pinned at zero allocs). Run bench-json
# first to record the candidate run.
bench-diff:
	$(GO) run ./cmd/benchjson -diff $(BENCH_OUT)
