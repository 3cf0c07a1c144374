PYTHON ?= python
export PYTHONPATH := src

.PHONY: check test chaos chaos-multiproc scenarios ledger-smoke lint analysis ruff mypy baseline graph

## Tier-1 gate: the full test suite.
check: test

## Static gates: project linter (always) + ruff/mypy (when installed; CI
## installs both via `pip install ruff mypy`, see .github/workflows/ci.yml).
lint: analysis ruff mypy

## Project-specific AST linter: protocol exhaustiveness, determinism,
## async safety, hot-path slots, typed-API completeness (docs/ANALYSIS.md).
analysis:
	$(PYTHON) -m repro.analysis src --baseline analysis-baseline.json

## Regenerate the curated baseline (only for intentionally accepted debt —
## fix findings instead where possible; tests assert the file is fresh).
baseline:
	$(PYTHON) -m repro.analysis src --baseline analysis-baseline.json --write-baseline

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
