PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint lint-units lint-determinism lint-vectorize lint-sarif test check rules invariants chaos

lint:
	$(PYTHON) -m repro.analysis lint

lint-units:
	$(PYTHON) -m repro.analysis lint --select REP2

lint-determinism:
	$(PYTHON) -m repro.analysis lint --select REP3

lint-vectorize:
	$(PYTHON) -m repro.analysis lint --select REP4

lint-sarif:
	$(PYTHON) -m repro.analysis lint --format sarif --output lint-results.sarif

rules:
	$(PYTHON) -m repro.analysis rules

invariants:
	$(PYTHON) -m repro.analysis invariants

test:
	REPRO_CHECK_INVARIANTS=1 $(PYTHON) -m pytest -x -q

chaos:
	$(PYTHON) -m repro chaos --jobs 2 --manifest CHAOS.manifest.json

check: lint test
