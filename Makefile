GO ?= go
GOFMT ?= gofmt
STATICCHECK_VERSION ?= 2023.1.7

FUZZTIME ?= 10s

.PHONY: all build vet test race bench lintbudget fuzz lint staticcheck determinism crashsafety shardci profile perfbench ci

all: vet lint test

build:
	$(GO) build ./...

# vet also fails when gofmt would reformat any tracked Go file outside
# testdata/ (some lint fixtures are deliberately unformatted).
vet:
	$(GO) vet ./...
	@files=$$(git ls-files '*.go' ':(exclude)**/testdata/**') || exit 1; \
	unformatted=$$($(GOFMT) -l $$files) || exit 1; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: these files need formatting:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# lintbudget times one full-module studylint pass (BenchmarkLintModule,
# three runs) and fails if the mean exceeds its wall-clock budget (2x
# the five-analyzer baseline of ~4.92s), so the always-on lint gate
# cannot quietly eat the CI budget as analyzers accumulate. The pipe
# hides go test's exit status, so awk also fails when a run failed or
# no result line arrived: a missing measurement must not pass.
lintbudget:
	$(GO) test -run '^$$' -bench 'BenchmarkLintModule$$' -benchtime=1x -count=3 ./internal/lint/ \
		| awk -v max=9.84 '{ print } \
			/^(--- )?FAIL/ { failed = 1 } \
			/^BenchmarkLintModule/ { sum += $$3; n++ } \
			END { if (failed || n == 0) { print "lintbudget: no BenchmarkLintModule result"; exit 1 } \
				mean = sum / n / 1e9; \
				printf "lintbudget: BenchmarkLintModule mean %.3f s over %d runs, budget %.2f s\n", mean, n, max; \
				if (mean > max) { print "lintbudget: over budget"; exit 1 } }'

# fuzz gives each native fuzz target a short budget; failing inputs land
# in testdata/fuzz/ and then fail `make test` forever after.
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzParse' -fuzztime $(FUZZTIME) ./internal/blocklist/
	$(GO) test -run '^$$' -fuzz 'FuzzClassify' -fuzztime $(FUZZTIME) ./internal/domain/
	$(GO) test -run '^$$' -fuzz 'FuzzSuppression' -fuzztime $(FUZZTIME) ./internal/lint/
	$(GO) test -run '^$$' -fuzz 'FuzzSchemaParse' -fuzztime $(FUZZTIME) ./internal/lint/
	$(GO) test -run '^$$' -fuzz 'FuzzParse' -fuzztime $(FUZZTIME) ./internal/profparse/
	$(GO) test -run '^$$' -fuzz 'FuzzReplay' -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^$$' -fuzz 'FuzzShardCodec' -fuzztime $(FUZZTIME) ./internal/shard/

# lint runs studylint, the repo's first-party analyzer suite
# (internal/lint): stdlib-only, no module downloads, so unlike
# staticcheck it is an always-on gate even in offline CI. Exits
# nonzero on any unsuppressed finding. -suppressions also audits every
# //studylint:ignore directive and fails on stale ones (directives that
# no longer suppress anything), so dead ignores cannot accumulate.
lint:
	$(GO) run ./cmd/studylint -suppressions

# staticcheck runs via `go run` so nothing is installed into the module.
# The probe distinguishes "cannot fetch the tool" (offline CI, no module
# proxy — skip with a note) from "tool ran and failed" (version or
# toolchain mismatch — fail the build): only download/connectivity
# errors are skippable, everything else surfaces. Real findings still
# fail the build via the second invocation.
staticcheck:
	@probe=$$($(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) -version 2>&1); \
	status=$$?; \
	if [ $$status -eq 0 ]; then \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	elif echo "$$probe" | grep -qiE 'dial tcp|proxyconnect|connection refused|i/o timeout|no such host|TLS handshake|could not download|connection reset|unrecognized import path|server misbehaving|404 Not Found|410 Gone'; then \
		echo "staticcheck: cannot fetch tool (offline?); skipping"; \
	else \
		echo "staticcheck: probe failed (not a fetch error):" >&2; \
		echo "$$probe" >&2; \
		exit $$status; \
	fi

# determinism runs the seeded study twice and requires the two run
# manifests to be identical — the provenance system's core promise.
# Run a goes one stage at a time and run b at the default NumCPU stage
# workers, so the gate also proves the two schedules byte-identical.
# studydiff exits nonzero naming the earliest diverging pipeline stage
# if any figure drifted, which fails the build.
determinism:
	rm -rf .provgate
	$(GO) run ./cmd/pornstudy -scale 0.004 -seed 2019 -stage-workers 1 -provenance .provgate/a >/dev/null
	$(GO) run ./cmd/pornstudy -scale 0.004 -seed 2019 -provenance .provgate/b >/dev/null
	$(GO) run ./cmd/studydiff .provgate/a .provgate/b
	rm -rf .provgate

# crashsafety proves the durable store's central claim end to end: a
# run killed by a seeded crash at a store append (exit 137, with a torn
# half-written record on disk) and then resumed against the surviving
# directory must produce a manifest byte-identical to an uninterrupted
# run. studydiff checks semantic identity and cmp the exact bytes.
# Runs fault-free: the injector's burst counters live in the server
# process, so only deterministic runs can promise byte equality.
crashsafety:
	rm -rf .crashgate
	mkdir -p .crashgate
	$(GO) build -o .crashgate/pornstudy ./cmd/pornstudy
	.crashgate/pornstudy -scale 0.004 -seed 2019 -store .crashgate/store-a -provenance .crashgate/a >/dev/null
	@.crashgate/pornstudy -scale 0.004 -seed 2019 -store .crashgate/store-b \
		-kill-after-appends 25 -kill-torn >/dev/null 2>&1; \
	status=$$?; \
	if [ $$status -ne 137 ]; then \
		echo "crashsafety: killed run exited $$status, want 137" >&2; exit 1; \
	fi; \
	echo "crashsafety: run killed at append 25 (exit 137), resuming"
	.crashgate/pornstudy -scale 0.004 -seed 2019 -store .crashgate/store-b -resume -provenance .crashgate/b >/dev/null
	$(GO) run ./cmd/studydiff .crashgate/a .crashgate/b
	cmp .crashgate/a/manifest.json .crashgate/b/manifest.json
	rm -rf .crashgate

# shardci proves shard equivalence end to end with real process
# isolation: a serial run and a coordinator + 3 worker processes over
# loopback must produce byte-identical manifest.json files — the
# workers rebuild the same deterministic ecosystem from (seed, config)
# and return each visit in its durable serialized form, so the merge
# reproduces the serial crawl exactly. studydiff checks semantic
# identity (including the shards.json sidecar rules) and cmp the bytes.
# fleetcheck scrapes the coordinator's /fleet, /metrics and /trace
# while the run is live and fails the gate if any registered worker is
# missing from the federated metrics, under-accounted in visits, or
# absent from the merged single-trace-ID fleet trace.
shardci:
	rm -rf .shardgate
	mkdir -p .shardgate
	$(GO) build -o .shardgate/pornstudy ./cmd/pornstudy
	$(GO) build -o .shardgate/fleetcheck ./cmd/fleetcheck
	.shardgate/pornstudy -scale 0.004 -seed 2019 -provenance .shardgate/serial >/dev/null
	@set -e; \
	.shardgate/pornstudy -scale 0.004 -seed 2019 -shards 4 \
		-coordinator-addr 127.0.0.1:19733 -shard-min-workers 3 \
		-metrics-addr 127.0.0.1:19734 \
		-provenance .shardgate/sharded >/dev/null & coord=$$!; \
	.shardgate/fleetcheck -addr 127.0.0.1:19734 -min-workers 3 & check=$$!; \
	.shardgate/pornstudy -worker -coordinator 127.0.0.1:19733 \
		-scale 0.004 -seed 2019 >/dev/null 2>&1 & w1=$$!; \
	.shardgate/pornstudy -worker -coordinator 127.0.0.1:19733 \
		-scale 0.004 -seed 2019 >/dev/null 2>&1 & w2=$$!; \
	.shardgate/pornstudy -worker -coordinator 127.0.0.1:19733 \
		-scale 0.004 -seed 2019 >/dev/null 2>&1 & w3=$$!; \
	wait $$coord; st=$$?; \
	wait $$w1 $$w2 $$w3 2>/dev/null || true; \
	if [ $$st -ne 0 ]; then echo "shardci: coordinator exited $$st" >&2; exit 1; fi; \
	wait $$check; chk=$$?; \
	if [ $$chk -ne 0 ]; then echo "shardci: fleetcheck exited $$chk" >&2; exit 1; fi; \
	echo "shardci: coordinator + 3 workers completed, fleet observability verified"
	$(GO) run ./cmd/studydiff .shardgate/serial .shardgate/sharded
	cmp .shardgate/serial/manifest.json .shardgate/sharded/manifest.json
	rm -rf .shardgate

# profile runs the seeded study under a CPU profile and requires at
# least 90% of samples to be attributable to a named pipeline stage
# (measured headroom: 97-99% at this scale). A drop below the floor
# means a new goroutine family is running outside the stage labels.
profile:
	$(GO) run ./cmd/studyprof -scale 0.004 -seed 2019 -top 3 -min-attrib 0.9

# perfbench vets and tests the benchmark module in _perfbench/. It has
# its own go.mod (replace pornweb => ../), so ./... at the root skips
# it, and a break in an API it uses would otherwise surface only when
# the benchmark next runs. Offline and read-only: nothing is fetched.
perfbench:
	cd _perfbench && GOFLAGS=-mod=readonly GOPROXY=off $(GO) vet . && \
		GOFLAGS=-mod=readonly GOPROXY=off $(GO) test .

# ci is the full gate: vet, studylint with the suppression audit
# (always-on, offline-safe), the test suite, the race detector, a short
# fuzz pass, the run-manifest determinism gate, the kill/resume
# crash-safety gate, the coordinator/worker shard-equivalence gate, the
# profile-attribution gate, the lint wall-clock budget, the benchmark
# module's vet and tests, and staticcheck when the environment can
# reach it.
ci: vet lint test race fuzz determinism crashsafety shardci profile lintbudget perfbench staticcheck
