# Tier-1 gate for the BIDL reproduction. `make ci` is what must stay green:
# formatting, vet, build, and the full test suite under the race detector —
# the parallel sweep runner is the repo's first real concurrency, so -race
# is part of the gate, not an extra.

GO ?= go

# The smoke targets drive the `bidl` command; it is built once per mode per
# make invocation (FORCE: go's own cache decides whether anything recompiles)
# and every target reuses the binary.
BINDIR ?= /tmp/bidl-bin
BIDL := $(BINDIR)/bidl
BIDL_RACE := $(BINDIR)/bidl-race

.PHONY: all build test race vet fmt-check ci trace-smoke \
	profile bench-hotpath hotpath-smoke scenario-smoke pdes-smoke \
	chaos-smoke anatomy-smoke workload-smoke heap-smoke bench-workload \
	shard-smoke examples-smoke benchmark benchmark-test loc loc-check fuzz-smoke FORCE

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 30m ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

ci: fmt-check vet loc-check build race fuzz-smoke trace-smoke hotpath-smoke scenario-smoke pdes-smoke chaos-smoke \
	anatomy-smoke workload-smoke heap-smoke shard-smoke examples-smoke benchmark-test

$(BIDL): FORCE
	$(GO) build -o $@ ./cmd/bidl

$(BIDL_RACE): FORCE
	$(GO) build -race -o $@ ./cmd/bidl

# Non-test Go lines per package directory and in total; benchmark/, a module
# of its own, is not counted. These are the numbers ROADMAP item 5 ("one of
# each", fewer lines) is judged by; constest is a test harness, so the
# consensus protocols are also summed without it.
LOC_TOTAL = find . -path ./benchmark -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l
loc:
	@for d in $$(find . -path ./benchmark -prune -o -name '*.go' ! -name '*_test.go' -printf '%h\n' | sort -u); do \
		printf '%6d %s\n' "$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)" "$$d"; \
	done
	@printf '%6d internal/consensus without constest\n' \
		"$$(find internal/consensus -path '*/constest' -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l)"
	@printf '%6d total\n' "$$($(LOC_TOTAL))"

# Neither total may grow unnoticed: a PR that needs more lines raises the
# ceiling here, in its own diff, where a reviewer sees it; one that shrinks the
# tree lowers it to the measured value. PR 22 lowered both (19317 -> 18849,
# 1619 -> 1617): experiments written once as sweeps of row groups, the chaos
# specs only as their files, six never-set options and scenario.Driver gone.
# PR 23 raised the first by its measured net, +229 (18849 -> 19078), for a
# 41 % cut in steady's host time and 54 % in its live heap: internal/dense (87,
# one table and one paged array for both users), the paged ledger.State with
# Resolve/ApplyResolved (+71 over the two maps and their bookkeeping), the id
# memos on SeqBatch and PersistEntry (+32), the by-ordinal pool entry points
# (+14, the record slab gone), -heap-check measured per run (+12), wiring (+13).
# PR 24 raised it by its measured net, +91 (19078 -> 19169; the issue aimed at
# +70), for a 4x cut in `fabric`'s host time and 58 % in its live heap: the
# memos on fabric.Envelope and FabricBlock with VSCC moved onto the envelope
# (+55 in messages.go, -26 in peer.go), ledger.State's ResolveReads and
# ValidateResolved with ValidateMVCC now a call of it (+35), types.TipBlock,
# the block-per-chain-tip rule written once (+30, -14 in core/messages.go), the
# orderer's resolver and the client's sorted replies (+13), the hash table
# moved from core.Cluster to substrate.Deployment (-1).
# The shared PERSIST echo raised it by its measured net, +28 (19169 -> 19197),
# for a 38 % cut in `wide`'s host time and 30 % in its live heap:
# dense.Ordinals, the one ordinal memo of SeqBatch, FabricBlock and
# PersistEntry (+36 in dense, -25 in the two mirror copies it replaced); the
# consensus node's slot per sequence number in the pool's pages (+21 in
# pool.go, isCommitted moved to the tests that alone call it) for its five
# maps (-18 in consnode.go); the tally by echo object (+11 in normalnode.go).
# Lowered to the measured count (19197 -> 19052, 1617 -> 1616): the imperative
# bidl.System facade with its constructors and aliases gone (-113 in bidl.go),
# simnet.MultiDCTopology and scenario.ScheduleTicks with it (-18), the examples
# run scenarios (-19), one ledger.Resolver for State.Resolve, ResolveReads and
# the orderer (+8), one execute step in NormalNode (-3).
LOC_CEILING := 19052
DOC_CEILING := 1616
loc-check:
	@total=$$($(LOC_TOTAL)); if [ "$$total" -gt $(LOC_CEILING) ]; then \
		echo "loc-check: $$total non-test Go lines, ceiling is $(LOC_CEILING) (LOC_CEILING in the Makefile)"; exit 1; \
	fi; echo "loc-check: $$total non-test Go lines <= $(LOC_CEILING)"
	@docs=$$(cat README.md DESIGN.md EXPERIMENTS.md | wc -l); if [ "$$docs" -gt $(DOC_CEILING) ]; then \
		echo "loc-check: $$docs lines in README.md + DESIGN.md + EXPERIMENTS.md, ceiling is $(DOC_CEILING) (DOC_CEILING in the Makefile)"; exit 1; \
	fi; echo "loc-check: $$docs doc lines <= $(DOC_CEILING)"

# Each fuzz target for a bounded time (their checked-in seeds already run as
# ordinary tests in `make test`). The short minimisation budget matters: with
# the default 60 s the 4 KB JSONL seed stalls a 10 s run at 0 execs/s. A
# crasher lands in the package's testdata/fuzz/ and is kept as a seed.
FUZZ_TARGETS := internal/types:FuzzTransaction internal/types:FuzzOrdering \
	internal/scenario:FuzzParse internal/trace/anatomy:FuzzTraceJSONL
fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		echo "fuzz-smoke: $$t"; \
		$(GO) test ./$${t%%:*} -run '^$$' -fuzz "^$${t##*:}\$$" -fuzztime 10s -fuzzminimizetime 5s || exit 1; \
	done

# The repository benchmark (BENCHMARK.json, benchmark/README.md) is a Go
# module of its own, so `go build ./... && go test ./...` never sees it. It is
# the one place simulator speed and memory are measured. `benchmark-test`
# runs its unit tests and a 1/20-size smoke over all seven workloads (~7 s);
# `benchmark` prints the full report (~4 min) and leaves the results where
# `bash benchmark/run.sh -compare old.json new.json` can read them.
benchmark-test:
	cd benchmark && $(GO) test ./...

benchmark:
	bash benchmark/run.sh -seed 7 -out /tmp/bidl-results.json

# One-iteration smoke run of the hot-path benchmarks so the suite can never
# bitrot: one transaction through the end-to-end pipeline and one 500-
# transaction block through a normal node, with the echoes of 4 and of 97
# consensus nodes (settings A and B), and through a baseline peer (each
# asserts that it commits).
hotpath-smoke:
	$(GO) test ./internal/bench/ -run XXX -bench BenchmarkPipelineHotPath -benchtime 1x
	$(GO) test ./internal/core/ -run XXX -bench BenchmarkNormalNodeCommit -benchtime 1x
	$(GO) test ./internal/baseline/fabric/ -run XXX -bench BenchmarkPeerValidateAndCommit -benchtime 1x

# Full hot-path benchmark suite: end-to-end pipeline cost, a normal node's
# cost per committed block, and the simnet delivery/event-loop
# microbenchmarks they build on.
bench-hotpath:
	$(GO) test ./internal/bench/ -run XXX -bench BenchmarkPipelineHotPath -benchtime 2s
	$(GO) test ./internal/core/ -run XXX -bench BenchmarkNormalNodeCommit -benchtime 2s
	$(GO) test ./internal/baseline/fabric/ -run XXX -bench BenchmarkPeerValidateAndCommit -benchtime 200x
	$(GO) test ./internal/simnet/ -run XXX -bench 'BenchmarkEndpointDelivery|BenchmarkSimEventLoop|BenchmarkSimBroadcast'

# Capture CPU + allocation profiles (the profile-guided optimization loop): of
# the fig5 sweep, or with SCENARIO=benchmark/workloads/steady.json of one run
# of that spec. Inspect with:
#   go tool pprof $(BIDL) /tmp/bidl-cpu.pprof
#   go tool pprof -sample_index=alloc_objects $(BIDL) /tmp/bidl-mem.pprof
SCENARIO ?=
profile: $(BIDL)
	$(BIDL) $(if $(SCENARIO),run -scenario $(SCENARIO),bench -run fig5 -scale 0.15 -q) \
		-cpuprofile /tmp/bidl-cpu.pprof -memprofile /tmp/bidl-mem.pprof > /dev/null
	@echo "profiles: /tmp/bidl-cpu.pprof /tmp/bidl-mem.pprof (binary $(BIDL))"

# Declarative-scenario smoke: every checked-in example spec must run
# end-to-end through `bidl run -scenario` and pass its safety check, and
# `bidl bench -dump-scenarios` must emit the full registry as JSON.
scenario-smoke: $(BIDL)
	@for f in examples/scenario-*.json; do \
		echo "scenario-smoke: $$f"; \
		$(BIDL) run -scenario $$f | grep -q "safety check: all correct nodes consistent" \
			|| { echo "scenario-smoke: $$f failed"; exit 1; }; \
	done
	@$(BIDL) bench -dump-scenarios -scale 0.1 | grep -q '"id": "fig5"' \
		|| { echo "scenario-smoke: -dump-scenarios failed"; exit 1; }

# Chaos gate: the fault-injection catalog under the race detector. Each
# entry's invariants (consistency audit, committed floors, trace-backed
# recovery deadlines) must pass AND the rendered report must match its
# golden byte-for-byte — pinning every chaos run's deterministic outcome.
# The two §6.2 adversary tests check the denylist catches the broadcaster,
# always-on and smart. Regenerate goldens deliberately with:
#   go test ./internal/chaos -run TestChaosCatalog -golden-update
chaos-smoke:
	$(GO) test -race -count=1 ./internal/chaos \
		-run 'TestChaosCatalog|TestChaosSameSeedReproducible|TestDenylistCatchesBroadcaster|TestSmartAdversaryStillDenied'

# PDES smoke: one small multi-DC deployment through `bidl run` twice — the
# 4-worker conservative PDES engine under the race detector, then the serial
# reference — and the full reports must be byte-identical; then the same pair
# for FastFabric (the benchmark's `fabric` spec: 50 peers in three partitions
# reading the memos on shared blocks and envelopes, DESIGN.md §7.1). The
# exhaustive per-experiment determinism gate is
# TestPDESDeterminismAllExperiments (internal/bench), which `make race` runs
# for the whole registry.
pdes-smoke: $(BIDL) $(BIDL_RACE)
	$(BIDL_RACE) run -dcs 2 -rate 4000 -duration 400ms -sim-workers 4 > /tmp/bidl-pdes-par.txt
	$(BIDL) run -dcs 2 -rate 4000 -duration 400ms > /tmp/bidl-pdes-ser.txt
	@cmp /tmp/bidl-pdes-par.txt /tmp/bidl-pdes-ser.txt \
		&& echo "pdes-smoke: parallel output byte-identical to serial"
	$(BIDL_RACE) run -scenario benchmark/workloads/fabric.json -sim-workers 4 > /tmp/bidl-pdes-ff-par.txt
	$(BIDL) run -scenario benchmark/workloads/fabric.json > /tmp/bidl-pdes-ff-ser.txt
	@cmp /tmp/bidl-pdes-ff-par.txt /tmp/bidl-pdes-ff-ser.txt \
		&& echo "pdes-smoke: fastfabric parallel output byte-identical to serial"

# End-to-end trace smoke: a short traced run must produce a valid,
# Perfetto-loadable Chrome trace (parses, has spans and counter tracks) AND
# a schema-valid raw JSONL export (frozen schema, per-tx monotonic stamps).
trace-smoke: $(BIDL)
	$(BIDL) run -rate 4000 -duration 300ms -trace /tmp/bidl-trace-smoke.json \
		-trace-jsonl /tmp/bidl-trace-smoke.jsonl > /dev/null
	$(BIDL) trace-check /tmp/bidl-trace-smoke.json
	$(BIDL) trace-check -jsonl /tmp/bidl-trace-smoke.jsonl

# Latency-anatomy smoke: one traced run emits the in-process anatomy report
# plus the raw JSONL export; `bidl report` recomputes the report offline from
# the JSONL and both renderings (text + CSV) must be byte-identical — the
# frozen-schema guarantee of DESIGN.md §12, checked end to end.
anatomy-smoke: $(BIDL)
	$(BIDL) run -rate 4000 -duration 300ms \
		-anatomy /tmp/bidl-anatomy.txt -anatomy-csv /tmp/bidl-anatomy.csv \
		-trace-jsonl /tmp/bidl-anatomy.jsonl > /dev/null
	$(BIDL) report -trace-jsonl /tmp/bidl-anatomy.jsonl \
		-out /tmp/bidl-anatomy-offline.txt -csv /tmp/bidl-anatomy-offline.csv
	@cmp /tmp/bidl-anatomy.txt /tmp/bidl-anatomy-offline.txt
	@cmp /tmp/bidl-anatomy.csv /tmp/bidl-anatomy-offline.csv
	@echo "anatomy-smoke: offline report byte-identical to in-process"

# Million-user memory smoke: the 10⁶-account Zipf scenario must run to a
# clean safety check under a hard 256 MiB GOMEMLIMIT, and what the run keeps
# live at its end, the whole deployment still reachable, must stay under
# 4.7 MiB (-heap-check: 4.1 MiB measured + 15 %). Only O(1)-per-node
# prepopulation passes: materializing 2×10⁶ entries in every node state
# would need gigabytes.
workload-smoke: $(BIDL)
	GOMEMLIMIT=256MiB $(BIDL) run \
		-scenario examples/scenario-zipf-million.json -heap-check 4928000

# Live-heap gate for the node index and world state (DESIGN.md §7.1): the
# benchmark's `steady` spec ends with 59.1 MiB live, every node's records and
# entries being arrays over cluster-wide ids; the limit is that + 15 %. With a
# map by hash and a map by key in each of the 54 nodes it ended with 128.5 MiB.
# The `fabric` spec ends with 43.0 MiB, its 50 peers marking committed
# transactions in arrays over the deployment's hash ordinals; with a map by
# hash in each it ended with 101.3 MiB. Same + 15 %. The `wide` spec (97
# consensus nodes) ends with 43.3 MiB, each consensus node keeping one slot
# per sequence number in the pool's pages and one shared echo object per
# result; with five maps by sequence number in each and a copy of every echo
# per sender it ended with 61.6 MiB, which fails this limit. Same + 15 %.
heap-smoke: $(BIDL)
	$(BIDL) run -scenario benchmark/workloads/steady.json -heap-check 71303168
	$(BIDL) run -scenario benchmark/workloads/fabric.json -heap-check 51852083
	$(BIDL) run -scenario benchmark/workloads/wide.json -heap-check 52213841

# Per-node prepopulation microbenchmark (O(1) via the shared copy-on-write
# base). Per-transaction generation is the benchmark ladder's workload.* rungs.
bench-workload:
	$(GO) test ./internal/bench/ -run XXX -bench BenchmarkPrepopulate -benchtime 2s

# Sharding gate (DESIGN.md §14): `shards: 1` must compile through the
# single-channel target and reproduce the unsharded engine field-for-field
# (TestShardsOneMatchesUnsharded), and a 4-shard spec — cross-shard 2PC
# traffic included — must be serial-vs-PDES identical under the race
# detector (TestShardedSpecSerialVsPDES). The same identity is then checked
# end to end through `bidl run`: full report output must be byte-identical
# with and without -sim-workers 4.
shard-smoke: $(BIDL) $(BIDL_RACE)
	$(GO) test -race -count=1 ./internal/scenario \
		-run 'TestShardsOneMatchesUnsharded|TestShardedSpecSerialVsPDES'
	$(BIDL_RACE) run -orgs 8 -rate 4000 -duration 400ms \
		-shards 4 -cross-shard 0.1 -sim-workers 4 > /tmp/bidl-shard-par.txt
	$(BIDL) run -orgs 8 -rate 4000 -duration 400ms \
		-shards 4 -cross-shard 0.1 > /tmp/bidl-shard-ser.txt
	@cmp /tmp/bidl-shard-par.txt /tmp/bidl-shard-ser.txt \
		&& echo "shard-smoke: 4-shard PDES output byte-identical to serial"

# The example programs through the public API: supplychain and multidc must
# print their pinned stdout byte for byte (examples/testdata/*.golden, quoted
# by EXPERIMENTS.md; multidc takes ~9 s), quickstart and trading must exit 0.
examples-smoke:
	@for e in supplychain multidc; do \
		$(GO) run ./examples/$$e > /tmp/bidl-example-$$e.txt || exit 1; \
		diff -u examples/testdata/$$e.golden /tmp/bidl-example-$$e.txt || exit 1; \
		echo "examples-smoke: $$e matches its golden"; \
	done
	$(GO) run ./examples/quickstart > /dev/null
	$(GO) run ./examples/trading > /dev/null
