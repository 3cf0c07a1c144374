PYTHON ?= python
export PYTHONPATH := src

.PHONY: check test chaos chaos-multiproc scenarios aggregates-diff ledger-smoke lint analysis ruff mypy graph

## Tier-1 gate: the full test suite.
check: test

## Static gates: project linter (always) + ruff/mypy (when installed; CI
## installs both via `pip install ruff mypy`, see .github/workflows/ci.yml).
lint: analysis ruff mypy

## Project-specific AST linter: protocol exhaustiveness, determinism,
## async safety, hot-path slots, typed-API completeness (docs/ANALYSIS.md).
## Any finding fails it: fix the finding, or noqa it with a reason.
analysis:
	$(PYTHON) -m repro.analysis src

## Dump the message-flow graph extracted by the project model (JSON on
## stdout; `--graph dot` renders for GraphViz — see docs/ANALYSIS.md).
graph:
	$(PYTHON) -m repro.analysis src --graph json

ruff:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests; \
	else \
		echo "ruff not installed; skipping (pip install ruff)"; \
	fi

mypy:
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHON) -m mypy; \
	else \
		echo "mypy not installed; skipping (pip install mypy)"; \
	fi

test:
	$(PYTHON) -m pytest -x -q

## Seeded chaos + resilience suites, including the slow soak variants that
## tier-1 skips (the command-line -m overrides the addopts marker filter),
## then the long sweep of the binary decoder's hostile-frame fuzzer.
chaos:
	$(PYTHON) -m pytest tests/test_chaos.py tests/test_resilience.py -q -m "slow or not slow"
	$(PYTHON) -m pytest tests/test_codec_runs.py -q -m slow

## Real-process fault tolerance: SIGKILL one stage worker and one
## maintainer worker mid-run, and the stage worker at seeded instants inside
## a 256-in-flight burst, and require fault-free output (docs/FAULTS.md).
## `timeout` hard-caps the wall clock — a wedged worker must fail the run,
## not hang it.
chaos-multiproc:
	timeout 300 $(PYTHON) -m repro.scenarios run multiproc-crash-recovery --no-persist
	timeout 600 $(PYTHON) -m pytest tests/test_multiproc_chaos.py tests/test_supervision_commit.py -q -m "slow or not slow"

## Run the full deterministic scenario catalog (paper figures, soaks,
## chaos, overload) and persist artifacts under runs/ (docs/SCENARIOS.md).
scenarios:
	$(PYTHON) -m repro.scenarios run --deterministic

## Run the deterministic catalog on BASE (a git revision, extracted with
## `git archive` into a temporary directory) and on the working tree, and
## name each scenario whose aggregates.json differs or exists on one side
## only; exits non-zero if any does.  Runs the catalog twice (~1 min each).
BASE ?= HEAD
aggregates-diff:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/base" && git archive $(BASE) | tar -x -C "$$tmp/base" && \
	(cd "$$tmp/base" && $(PYTHON) -m repro.scenarios run --deterministic --run-root "$$tmp/base-runs" > /dev/null) && \
	$(PYTHON) -m repro.scenarios run --deterministic --run-root "$$tmp/head-runs" > /dev/null || exit 1; \
	status=0; count=0; \
	for name in $$( (ls "$$tmp/base-runs"; ls "$$tmp/head-runs") | sort -u); do \
		count=$$((count + 1)); \
		if ! cmp -s "$$tmp"/base-runs/$$name/run-*/aggregates.json "$$tmp"/head-runs/$$name/run-*/aggregates.json; then \
			echo "aggregates differ: $$name"; status=1; \
		fi; \
	done; \
	echo "aggregates-diff: $$count scenarios compared against $(BASE)"; \
	exit $$status

## The perf ledger's correctness gate at 1/20 size: every BENCHMARK.json
## workload once (a failed gate, a failed op or a wedged trial exits
## non-zero), then the ledger's self-test.  Run before a benchmark run so a
## src/ change that breaks the gate is caught in a minute, not after twenty.
LEDGER_WORKLOADS := geo-local geo-mp geo-mp-supervised flstore-tcp-mixed
ledger-smoke:
	@for workload in $(LEDGER_WORKLOADS); do \
		echo "== ledger smoke: $$workload"; \
		timeout 170 $(PYTHON) ledger/run.py --workload $$workload --seed 1 --smoke > /dev/null || exit 1; \
	done
	timeout 600 $(PYTHON) -m pytest ledger/ -q
