# Developer gates.  `make check` is what CI runs: the static lint, the
# tier-1 test suite, the seeded schedule-exploration smoke, and the
# bench smoke (one quick sweep, schema-checked BENCH_padico.json).
# Everything goes through PYTHONPATH=src so no install step is needed.

PYTHON ?= python
PYTHONPATH := src

.PHONY: check lint lint-full lint-mutants test copy-budget examples \
	schedule-smoke bench-smoke bench-wallclock bench-topology \
	bench-collectives perfbench sarif

check: lint lint-mutants test copy-budget examples schedule-smoke \
	bench-smoke bench-wallclock bench-topology bench-collectives

# Incremental: per-file results and call-graph summaries are cached by
# content hash in .repro-lint-cache.json; the interprocedural phase
# always re-runs, so a callee change re-derives its cached callers.
lint:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.analysis.cli --changed \
		--stats src examples

# Full run, no cache — what CI gates on (cold containers have no cache
# to trust anyway).  --stats prints per-checker wall time and per-rule
# finding counts into the CI log.
lint-full:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.analysis.cli --stats \
		src examples

# Seeded-mutant gate: every buf-*/ker-block-deep/obs-guard corpus
# defect must be caught, every good-corpus pattern must stay clean
lint-mutants:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.analysis.mutants

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

# Deterministic copy-budget gate: replays the §4.4 CORBA+MPI workload
# and 16 MiB GridCCM scatters (block, cyclic and block-cyclic targets)
# and pins the wire.copied_bytes.* totals to committed expected values
# (runs inside `test` too; the named target keeps the gate visible and
# re-runnable on its own)
copy-budget:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q \
		tests/obs/test_copy_budget.py

# Every example script must run to completion: a non-zero exit fails
# the target (stdout is dropped, errors still reach the log)
examples:
	@set -e; for f in examples/*.py; do \
		echo "examples: $$f"; \
		PYTHONPATH=$(PYTHONPATH) $(PYTHON) $$f > /dev/null; \
	done

schedule-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.sanitizer --seeds 5

# Writes to a scratch path so it never clobbers the committed full
# sweep (BENCH_padico.json, regenerated with `python -m benchmarks.run`)
bench-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m benchmarks.run --quick \
		--out BENCH_smoke.json
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.tools.trace bench \
		BENCH_smoke.json

# Wall-clock smoke: quick sizes, schema validity, plus the switch
# backend gate at a conservative 3x (shared CI runners are noisy; the
# committed full document carries the real 10x margin).  The committed
# full document is BENCH_wallclock.json, regenerated with
# `python -m benchmarks.run --wallclock --gate-backend-speedup 10`.
bench-wallclock:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m benchmarks.run --wallclock \
		--quick --gate-backend-speedup 3 \
		--out BENCH_wallclock_smoke.json
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.tools.trace bench \
		BENCH_wallclock_smoke.json

# Grid-scale smoke: the 100-host slice of the topology-scaling series
# (the full 10k-host sweep lives in the committed BENCH_wallclock.json,
# regenerated with `python -m benchmarks.run --wallclock`).  The run
# itself asserts the sharded and flat solvers produce byte-identical
# flow logs, so this is an exactness gate as much as a perf smoke.
bench-topology:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m benchmarks.run \
		--topology-scaling --quick --out BENCH_topology_smoke.json
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.tools.trace bench \
		BENCH_topology_smoke.json

# Hierarchical-collectives smoke: the 2-site slice of the
# wallclock.collectives series (full 2/4/8-site sweep lives in the
# committed BENCH_wallclock.json).  The run asserts the topology-aware
# replay is bit-identical to the flat oracle and the gate pins the
# MPICH-G2 invariant: aware bcast crosses the WAN exactly sites - 1
# times per call.
bench-collectives:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m benchmarks.run \
		--collectives --quick --gate-wan-crossings \
		--out BENCH_collectives_smoke.json
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.tools.trace bench \
		BENCH_collectives_smoke.json

# The repo benchmark (BENCHMARK.json): perfbench's own tests, then a
# 5-second pass of every workload, each checked against the virtual-
# clock digests pinned in perfbench/digests.json.  run.py exits 0 either
# way, so its output goes through PERFBENCH_CORRECT, which echoes it and
# fails unless the last line is JSON with "correct": true (a digest
# mismatch or a failed op makes it false).  Kept out of `check`: the
# timings are a wall-clock measurement; CI runs it as its own step.
PERFBENCH_CORRECT = import json, sys; out = sys.stdin.read(); \
	sys.stdout.write(out); sys.exit(None if json.loads( \
	out.splitlines()[-1])["correct"] is True else \
	"perfbench: results are not correct")

perfbench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q perfbench
	$(PYTHON) perfbench/run.py --workload all --seed 1 --seconds 5 \
		--trace 0 | $(PYTHON) -c '$(PERFBENCH_CORRECT)'

# SARIF findings for CI/PR annotation (exit status intentionally ignored:
# the gating run is `lint`, this one only produces the report artifact)
sarif:
	-PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.analysis.cli \
		--format sarif src examples > repro-lint.sarif
