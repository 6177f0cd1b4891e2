GO ?= go

.PHONY: build test race vet lint lint-json invariants attr-invariants check obs-smoke serve-smoke postmortem-smoke kernel-check bench-test

build:
	$(GO) build ./...

test:
	$(GO) build ./... && $(GO) test ./...

# The concurrency-sensitive packages under the race detector: the
# worker-pool runner (parallel determinism test included) and the
# event-skipping simulator core.
race:
	$(GO) test -race ./internal/experiments ./internal/sim

vet:
	$(GO) vet ./...

# Formatting, go vet, and the project analyzers (nodeterminism,
# cycletypes, clockdomain, nolibpanic, wakecontract). mnpulint exits
# non-zero on any finding that is not allowlisted with a justified
# //lint:allow directive.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/mnpulint ./...

# The analyzer suite with machine-readable output: one JSON array of
# {file, line, col, analyzer, message} findings on stdout (empty array
# when clean), same exit codes as lint.
lint-json:
	$(GO) run ./cmd/mnpulint -json ./...

# The full test suite with the build-tag-gated runtime invariants
# compiled in (DRAM timing windows, MSHR accounting, SPM
# double-buffer bounds, clock monotonicity).
invariants:
	$(GO) test -tags=invariants ./...

# The stall-cycle attribution engine's exactness contract
# (sum(buckets) == core cycles) with the invariant checks compiled in
# and the race detector watching the serving/SSE paths.
attr-invariants:
	$(GO) test -race -tags=invariants ./internal/obs/attrib
	$(GO) test -race -tags=invariants -run Attribution ./internal/sim

# Everything CI runs: analyzers, plain tests, race detector, and the
# invariant-checked build.
check: lint test race invariants

# The event kernel's proof obligations against the test-only tick
# reference (internal/sim/tickref_test.go), with the runtime invariants
# compiled in and the race detector on: serialized results are
# deterministic and byte-identical across the two loops, stall-cycle
# attribution stays exact under both, the event kernel reproduces the
# reference's Result and full probe-event stream for every config class
# and every seed of the differential fuzz corpus, every class still
# matches the digests pinned from the busy-polling code, and a core that
# sleeps on a full MSHR matches its twin ticked every cycle. The
# benchmark lives in bench/ (see bench/README.md).
kernel-check:
	$(GO) test -race -tags=invariants \
		-run 'TestRunDeterministic|TestAttributionSumsMatchResult|TestKernelEventMatchesTick|TestPinnedDigests|FuzzKernelMatchesTick' \
		./internal/sim
	$(GO) test -race -tags=invariants -run 'TestCoreSleepsOnFullMSHR' ./internal/npu

# The benchmark's correctness gate: every bench/ workload at smoke size,
# untraced and traced, with every result checked against the golden
# digests in bench/golden (~15 s). bench/ is a module of its own, so the
# root `go test ./...` does not reach it; a simulator change that alters
# any result fails here.
bench-test:
	cd bench && $(GO) test ./...

# End-to-end observability smoke: run a tiny dual-core simulation with
# the Chrome-trace exporter and counter registry on, then re-validate
# the trace's structural invariants with the exporter's own checker.
obs-smoke:
	$(GO) run ./cmd/mnpusim -workloads ncf,gpt2 -scale tiny -sharing +dwt \
		-obs /tmp/mnpusim_obs_smoke.json -obs-counters /tmp/mnpusim_obs_smoke.txt
	$(GO) run ./cmd/mnputrace -mode validate -in /tmp/mnpusim_obs_smoke.json
	@head -3 /tmp/mnpusim_obs_smoke.txt

# End-to-end serving smoke: boot mnpuserved, run a job over HTTP,
# byte-compare the served result against `mnpusim -json`, verify the
# result cache short-circuits a resubmission, run a traced quad sweep
# twice (the second all cache hits) and validate its trace, cancel an
# in-flight job, and drain via SIGTERM (see scripts/serve_smoke.sh).
serve-smoke:
	sh scripts/serve_smoke.sh

# End-to-end post-mortem smoke, race + invariants enabled: kill a job
# mid-run, fetch its flight-recorder dump over HTTP, validate it with
# `mnputrace -mode postmortem`, and drive the anomaly watchdog through
# a dump + CPU-profile capture (see scripts/postmortem_smoke.sh).
postmortem-smoke:
	sh scripts/postmortem_smoke.sh
