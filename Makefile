# Build/test entry points. `make check` is the tier-1 gate; `make race`
# exercises the concurrent packages (the study fan-out, the v2 block
# read-ahead behind treebuild.BuildV2, the lagd job supervisor, and
# the per-file load pool with its release-mode folds, which lagreport
# -traces and lagalyzer share)
# under the race detector. `make chaos` is the robustness
# tier: the fault-injection suites (salvage decoding, lenient rebuild,
# engine panic containment, checkpoint-store corruption, hostile
# payloads and stalled reads, service shedding/retry/shutdown, CLI kill-and-resume, and the
# multi-node distributed-study suite under network fault injection,
# the live-ingest chaos suite: flaky upload swarms, kill-and-resume
# over the ingest journal, budget eviction, and drain, and lagalyzer's
# per-file panic containment) plus a fuzz smoke pass over the
# decoders — the strict-reader target also drives the release-mode
# stream path, and the block inflate runs against compress/flate — and
# the streaming ingest endpoint, whose consumer runs
# the same release-mode builder leniently and folds the engine's
# analysis of each episode into its window. `make profile` runs three
# commands under the CPU and heap profilers and prints the top-10 hot
# spots from each profile: the paper_study command (`lagreport -seed 42
# -sessions 1 -seconds 240 -out`), `lagreport -traces` over a 28-file
# corpus (the 14 apps, session 0 v2-flate and session 1 raw v2, seed
# 42), and `lagalyzer stats` on a 2-hour GanttProject v2-flate trace;
# the corpus and the trace are written with lilasim on the first run
# and kept in $(PROFILE_DIR). `make loc` prints the non-test and test
# Go line counts outside the benchmark module (bench/), the size
# ROADMAP.md tracks, and the README.md and DESIGN.md line counts.

GO ?= go
PROFILE_DIR ?= profiles
FUZZTIME ?= 30s

.PHONY: build test check race chaos vet bench profile loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

check: build test

race:
	$(GO) test -race ./internal/engine ./internal/report ./internal/patterns ./internal/obs \
		./internal/serve ./internal/checkpoint ./internal/lila ./internal/dist \
		./internal/ingest ./internal/treebuild ./internal/sim ./cmd/lagalyzer

chaos:
	$(GO) test ./internal/faultinject ./internal/lila ./internal/treebuild \
		-run 'Salvage|Lenient|Robust|Fault|Panic|Budget'
	$(GO) test ./internal/engine ./internal/report -run 'Robust|Panic|Cancel|Damaged|Salvaged|Resume|TimedOut' -race
	$(GO) test ./internal/checkpoint ./internal/serve \
		-run 'Fault|Corrupt|Truncat|Orphan|Hostile|Resume|Shed|Panic|Retry|Backoff|Shutdown|Deadline|Shard|Drain' -race
	$(GO) test ./internal/dist \
		-run 'Golden|Hedge|Eject|Degrad|Itemized|Resume|Pool|Metrics|Concurrent' -race
	$(GO) test ./internal/ingest \
		-run 'Chaos|Golden|Journal|Shed|Drain|Budget|Idle|Duplicate|Garbage|Degrad' -race
	$(GO) test ./cmd/lagalyzer -run Panic
	$(GO) test -run TestCLIFaultTolerance .
	$(GO) test -run TestCLICheckpointKillResume .
	$(GO) test -run TestCLIConvertGolden .
	$(GO) test -run TestCLISelfProfile .
	$(GO) test ./internal/lila -run '^$$' -fuzz FuzzSalvageText -fuzztime $(FUZZTIME) -fuzzminimizetime 2s
	$(GO) test ./internal/lila -run '^$$' -fuzz FuzzSalvageBinaryV2 -fuzztime $(FUZZTIME) -fuzzminimizetime 2s
	$(GO) test ./internal/lila -run '^$$' -fuzz 'FuzzReader$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s
	$(GO) test ./internal/lila -run '^$$' -fuzz FuzzInflate -fuzztime $(FUZZTIME) -fuzzminimizetime 2s
	$(GO) test ./internal/ingest -run '^$$' -fuzz FuzzIngestStream -fuzztime $(FUZZTIME) -fuzzminimizetime 2s

vet:
	$(GO) vet ./...

GO_SOURCES = find . -name '*.go' -not -path './bench/*' -not -path './.bench_build/*'

loc:
	@printf 'non-test Go lines: %s\n' "$$($(GO_SOURCES) -not -name '*_test.go' -print0 | xargs -0 cat | wc -l)"
	@printf 'test Go lines:     %s\n' "$$($(GO_SOURCES) -name '*_test.go' -print0 | xargs -0 cat | wc -l)"
	@printf 'README.md lines:   %s\n' "$$(wc -l < README.md)"
	@printf 'DESIGN.md lines:   %s\n' "$$(wc -l < DESIGN.md)"

bench:
	./scripts/bench.sh

PROFILE_APPS = Arabeske ArgoUML CrosswordSage Euclide FindBugs FreeMind GanttProject \
	JEdit JFreeChart JHotDraw Jmol Laoe NetBeans SwingSet

$(PROFILE_DIR)/lilasim:
	mkdir -p $(PROFILE_DIR)
	$(GO) build -o $(PROFILE_DIR)/lilasim ./cmd/lilasim

$(PROFILE_DIR)/corpus: | $(PROFILE_DIR)/lilasim
	rm -rf $@.tmp && mkdir -p $@.tmp
	for app in $(PROFILE_APPS); do \
		$(PROFILE_DIR)/lilasim -app $$app -session 0 -seed 42 -compress -o $@.tmp/$$app-0.lila && \
		$(PROFILE_DIR)/lilasim -app $$app -session 1 -seed 42 -o $@.tmp/$$app-1.lila || exit 1; \
	done
	mv $@.tmp $@

$(PROFILE_DIR)/GanttProject-2h.lila: | $(PROFILE_DIR)/lilasim
	$(PROFILE_DIR)/lilasim -app GanttProject -seconds 7200 -seed 42 -compress -o $@.tmp
	mv $@.tmp $@

profile: $(PROFILE_DIR)/corpus $(PROFILE_DIR)/GanttProject-2h.lila
	rm -rf $(PROFILE_DIR)/study $(PROFILE_DIR)/traces # a checkpoint left there would profile a resume
	$(GO) build -o $(PROFILE_DIR)/lagreport ./cmd/lagreport
	$(GO) build -o $(PROFILE_DIR)/lagalyzer ./cmd/lagalyzer
	$(PROFILE_DIR)/lagreport -seed 42 -sessions 1 -seconds 240 -out $(PROFILE_DIR)/study \
		-cpuprofile $(PROFILE_DIR)/cpu.out -memprofile $(PROFILE_DIR)/mem.out > $(PROFILE_DIR)/study.txt
	$(PROFILE_DIR)/lagreport -traces $(PROFILE_DIR)/corpus -out $(PROFILE_DIR)/traces \
		-cpuprofile $(PROFILE_DIR)/traces-cpu.out -memprofile $(PROFILE_DIR)/traces-mem.out > $(PROFILE_DIR)/traces.txt
	$(PROFILE_DIR)/lagalyzer -cpuprofile $(PROFILE_DIR)/stats-cpu.out -memprofile $(PROFILE_DIR)/stats-mem.out \
		stats $(PROFILE_DIR)/GanttProject-2h.lila > $(PROFILE_DIR)/stats.txt
	@echo "== study: top-10 CPU =="
	$(GO) tool pprof -top -nodecount=10 $(PROFILE_DIR)/lagreport $(PROFILE_DIR)/cpu.out
	@echo "== study: top-10 allocations (alloc_space) =="
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_space $(PROFILE_DIR)/lagreport $(PROFILE_DIR)/mem.out
	@echo "== lagreport -traces: top-10 CPU =="
	$(GO) tool pprof -top -nodecount=10 $(PROFILE_DIR)/lagreport $(PROFILE_DIR)/traces-cpu.out
	@echo "== lagreport -traces: top-10 allocations (alloc_space) =="
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_space $(PROFILE_DIR)/lagreport $(PROFILE_DIR)/traces-mem.out
	@echo "== lagalyzer stats: top-10 CPU =="
	$(GO) tool pprof -top -nodecount=10 $(PROFILE_DIR)/lagalyzer $(PROFILE_DIR)/stats-cpu.out
	@echo "== lagalyzer stats: top-10 allocations (alloc_space) =="
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_space $(PROFILE_DIR)/lagalyzer $(PROFILE_DIR)/stats-mem.out
