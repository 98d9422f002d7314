# Convenience targets for the lulesh-go reproduction.

GO ?= go

.PHONY: all build test race fuzz cover bench verify figures examples clean perfgate chaos net benchgate sweep bce tracegate overlap serve

# The race lane is a first-class gate: all runtime/scheduler changes must
# survive the race detector, not just the plain test run.
all: build test race

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Longer randomized exploration of the work-stealing deque; the checked-in
# seed corpus already runs (in milliseconds) as part of `make test`.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzDeque -fuzztime=30s ./internal/amt/

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem .

# The artifact-style correctness gate.
verify:
	$(GO) run ./cmd/luleshverify

# The observability gate: instrumented dispatch must stay within the
# overhead budget (percent; override with PERF_OVERHEAD_BUDGET), and the
# recording path must be race-clean.
perfgate:
	$(GO) test -run TestForEachBlockOverheadBudget -count=1 -v ./internal/perf/
	$(GO) test -run TestDistTraceOverheadBudget -count=1 -v ./internal/dist/
	$(GO) test -race -count=1 ./internal/perf/ ./internal/trace/

# The tracing gate: the span/clock/merge tests race-clean, a 4-rank wire
# run with tracing on, and smoke checks over its artifacts — the merged
# Chrome trace must contain flow arrows, the fleet snapshot must feed
# the stall report.
tracegate:
	$(GO) test -race -count=1 -run 'Trace|Clock|Fleet|Stall|Blob|WaitBucket' \
		./internal/wire/ ./internal/comm/ ./internal/perf/ ./internal/dist/
	$(GO) build -o /tmp/lulesh-trace ./cmd/lulesh
	/tmp/lulesh-trace -np 4 -s 8 -i 20 -q \
		-trace /tmp/lulesh-trace.json -fleet-out /tmp/lulesh-fleet.json
	grep -q '"ph":"s"' /tmp/lulesh-trace.json
	grep -q '"ph":"f"' /tmp/lulesh-trace.json
	$(GO) run ./cmd/luleshbench -stall-report /tmp/lulesh-fleet.json

# The chaos gate: fault injection, retry/backoff recovery, and
# checkpoint-based restart must all hold under the race detector, the
# checkpoint reader must survive 10 s of fuzzing, and a faulted
# end-to-end run must reproduce the unfaulted energies exactly.
chaos:
	$(GO) test -race -count=1 -run 'Fault|Crash|Corrupt|Recover|Checkpoint|Reorder|Duplicate|Deadline' \
		./internal/comm/ ./internal/dist/ ./internal/checkpoint/
	$(GO) test -run=NONE -fuzz=FuzzCheckpointLoad -fuzztime=10s ./internal/checkpoint/
	$(GO) run ./cmd/lulesh -ranks 2 -s 8 -i 30 \
		-faults drop=0.05,dup=0.02,crash=1@20 -fault-seed 9 \
		-exchange-deadline 20ms -checkpoint-every 5

# The network gate: the TCP fabric's protocol tests under the race
# detector, the frame-decoder and fleet-trace-blob fuzz corpora, a clean
# multi-process smoke run, a chaos run (drops over real sockets plus a
# SIGKILLed rank recovering from durable checkpoints), and the wire ≡
# in-process bitwise-identity proof.
net:
	$(GO) test -race -count=1 -run 'Wire|Bootstrap|Exchange|PeerDeath|Goodbye|FileStore|Frame|Header|Float|Slab' \
		./internal/wire/ ./internal/dist/
	$(GO) test -run=NONE -fuzz=FuzzDecodeFrame -fuzztime=10s ./internal/wire/
	$(GO) test -run=NONE -fuzz=FuzzFleetBlob -fuzztime=10s ./internal/perf/
	$(GO) build -race -o /tmp/lulesh-net ./cmd/lulesh
	/tmp/lulesh-net -np 4 -s 8 -i 20 -q
	/tmp/lulesh-net -np 4 -s 8 -i 30 -q -faults drop=0.02,dup=0.02 \
		-checkpoint-every 5 -wire-kill 2@12
	$(GO) run ./cmd/luleshverify -net

# The overlap gate: the boundary-first schedule and tree allreduce
# race-clean; bitwise identity of every toggle combination against the
# synchronous schedule, per scenario, including an 8-process wire run of
# the fully overlapped schedule against an in-process synchronous ground
# truth (inside luleshverify -net); then
# the headroom check — an 8-rank run with injected link latency must
# keep its overlap headroom (from the stall report, see ROADMAP item 3)
# under the recorded ceiling. Like BCE_CEILING this is a recorded
# regression backstop, not a target: ~63–66 % was measured on the
# single-core reference container (EXPERIMENTS.md "Overlapping the hot
# network path"), where headroom is mostly rank serialization; tighten
# it on real multi-core runners. The gated run uses async with the tree
# reduction off: a binomial tree serializes 2·log2(n) latency hops where
# the flat gather pays concurrent ones, so under injected
# latency the tree is the wrong tool — its win is rank-0 message count,
# which TestTreeReduceMessageCounts pins exactly.
OVERLAP_HEADROOM_CEILING ?= 70
overlap:
	$(GO) test -race -count=1 -run 'Overlap|TreeReduce|AttributeStep|ZeroExchange|Delay|AllReduceMinTree' \
		./internal/dist/ ./internal/comm/ ./internal/domain/
	$(GO) run ./cmd/luleshverify -s 6 -i 12 -net
	$(GO) run ./cmd/luleshverify -s 6 -i 12 -net -scenario piston
	$(GO) run ./cmd/luleshverify -s 6 -i 12 -net -scenario multimat
	$(GO) build -o /tmp/lulesh-overlap ./cmd/lulesh
	/tmp/lulesh-overlap -ranks 8 -s 8 -i 40 -q -latency 200us \
		-fleet-out /tmp/lulesh-overlap-sync.json
	/tmp/lulesh-overlap -ranks 8 -s 8 -i 40 -q -latency 200us \
		-dist-async -fleet-out /tmp/lulesh-overlap-async.json
	@echo "--- stall report: sync + 200us injected latency ---"
	@$(GO) run ./cmd/luleshbench -stall-report /tmp/lulesh-overlap-sync.json \
		| tee /tmp/lulesh-overlap-sync-stall.txt
	@echo "--- stall report: async + 200us injected latency ---"
	@$(GO) run ./cmd/luleshbench -stall-report /tmp/lulesh-overlap-async.json \
		| tee /tmp/lulesh-overlap-async-stall.txt
	@pct=$$(sed -n 's/.*overlap headroom.*(\([0-9.]*\)% of wall.*/\1/p' \
		/tmp/lulesh-overlap-async-stall.txt); \
	echo "overlapped headroom: $$pct% of wall (ceiling $(OVERLAP_HEADROOM_CEILING)%)"; \
	if [ -z "$$pct" ]; then echo "FAIL: no headroom line in stall report"; exit 1; fi; \
	awk -v p=$$pct -v c=$(OVERLAP_HEADROOM_CEILING) 'BEGIN { exit !(p <= c) }' || { \
		echo "FAIL: overlap headroom regressed above the recorded ceiling"; exit 1; }

# The bounds-check-elimination gate: count the static check sites the
# compiler leaves in the hot-kernel package and fail if the count rises
# above the recorded ceiling (per-file breakdown in EXPERIMENTS.md). The
# remaining sites are data-dependent indirect loads (mesh connectivity)
# plus one-per-call view setup; the hot loop bodies themselves are clean.
# -a busts the build cache so the diagnostics always print.
BCE_CEILING ?= 330
bce:
	@n=$$($(GO) build -a -gcflags='-d=ssa/check_bce' ./internal/kernels/ 2>&1 | grep -c 'Found Is'); \
	echo "check_bce sites in internal/kernels: $$n (ceiling $(BCE_CEILING))"; \
	if [ $$n -gt $(BCE_CEILING) ]; then \
		echo "FAIL: bounds-check sites regressed above the recorded ceiling"; \
		exit 1; \
	fi

# The control-plane gate: the serve package (shared-pool job contexts,
# fair queue, admission control, SSE, store, HTTP API) race-clean; then a
# race-instrumented luleshd driven over real HTTP — three concurrent jobs
# via curl, SSE progress + terminal frames asserted on the wire, every
# result re-validated through `luleshd -validate` (perf.BenchRecord
# schema), SIGTERM drain leaving a flushed INDEX.json; finally the
# in-process load generator with the p99 budget. The budget is a recorded
# regression backstop for the race-instrumented binary on the single-core
# reference box, not a target: the plain build measured p99=81ms over 500
# jobs (EXPERIMENTS.md "Simulation as a service").
SERVE_P99_BUDGET ?= 10s
serve:
	$(GO) test -race -count=1 ./internal/serve/
	$(GO) build -race -o /tmp/luleshd ./cmd/luleshd
	@set -e; \
	rm -rf /tmp/luleshd-ci; mkdir -p /tmp/luleshd-ci; \
	/tmp/luleshd -addr 127.0.0.1:18790 -threads 2 \
		-results-dir /tmp/luleshd-ci/results >/tmp/luleshd-ci/server.log 2>&1 & \
	pid=$$!; trap 'kill $$pid 2>/dev/null || true' EXIT; \
	ok=; for i in $$(seq 1 50); do \
		curl -sf -o /dev/null http://127.0.0.1:18790/healthz && { ok=1; break; }; \
		sleep 0.2; done; \
	[ -n "$$ok" ] || { echo "FAIL: luleshd never came up"; cat /tmp/luleshd-ci/server.log; exit 1; }; \
	ids=; for spec in \
		'{"scenario":"sedov","size":5,"iterations":12}' \
		'{"scenario":"piston","size":6,"iterations":12,"tenant":"ci-b"}' \
		'{"scenario":"multimat:regions=8","size":5,"iterations":12,"tenant":"ci-c"}'; do \
		id=$$(curl -sf -X POST -d "$$spec" http://127.0.0.1:18790/jobs \
			| grep -o 'job-[0-9]*' | head -1); \
		[ -n "$$id" ] || { echo "FAIL: submit rejected: $$spec"; exit 1; }; \
		ids="$$ids $$id"; done; \
	echo "submitted:$$ids"; \
	first=$${ids# }; first=$${first%% *}; \
	curl -s --max-time 30 -N http://127.0.0.1:18790/jobs/$$first/events \
		> /tmp/luleshd-ci/events.txt; \
	grep -q '^event: progress' /tmp/luleshd-ci/events.txt \
		|| { echo "FAIL: no SSE progress frames"; exit 1; }; \
	grep -q '^event: done' /tmp/luleshd-ci/events.txt \
		|| { echo "FAIL: no SSE terminal frame"; exit 1; }; \
	for id in $$ids; do \
		code=; for i in $$(seq 1 150); do \
			code=$$(curl -s -o /tmp/luleshd-ci/res-$$id.json -w '%{http_code}' \
				http://127.0.0.1:18790/jobs/$$id/result); \
			[ "$$code" = 200 ] && break; sleep 0.2; done; \
		[ "$$code" = 200 ] || { echo "FAIL: $$id result never ready ($$code)"; exit 1; }; \
		/tmp/luleshd -validate /tmp/luleshd-ci/res-$$id.json; done; \
	kill -TERM $$pid; wait $$pid || true; trap - EXIT; \
	[ -f /tmp/luleshd-ci/results/INDEX.json ] \
		|| { echo "FAIL: drain left no INDEX.json"; exit 1; }; \
	echo "serve smoke: 3 jobs, SSE frames, validated results, drained + flushed"
	/tmp/luleshd -selftest 100 -selftest-clients 8 -threads 2 \
		-selftest-p99-budget $(SERVE_P99_BUDGET)

# The perf-trajectory gate: re-measure the configurations pinned by the
# committed BENCH_<n>.json baselines (scenarios x backends) and fail on a
# >10% grind-time regression. Ratios are median-normalized so a uniformly
# slower machine does not trip the gate; see internal/perf/gate.go.
benchgate:
	$(GO) run ./cmd/luleshbench -benchgate -baseline . -reps 3

# Re-run the scenario sweep behind the committed baselines. Append new
# trajectory points with: make sweep SWEEP_FLAGS='-record .'
sweep:
	$(GO) run ./cmd/luleshbench -sweep -sizes 10 -threads 2 -backends omp,task -reps 5 $(SWEEP_FLAGS)

# Regenerate every table/figure of the paper's evaluation.
figures:
	$(GO) run ./cmd/luleshbench -fig 9
	$(GO) run ./cmd/luleshbench -fig 10
	$(GO) run ./cmd/luleshbench -fig 11
	$(GO) run ./cmd/luleshbench -fig naive
	$(GO) run ./cmd/luleshbench -fig dist
	$(GO) run ./cmd/luleshbench -table 1
	$(GO) run ./cmd/luleshbench -ablation

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/taskgraph
	$(GO) run ./examples/regions
	$(GO) run ./examples/ablation
	$(GO) run ./examples/distributed

clean:
	$(GO) clean ./...
