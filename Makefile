PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint test check rules invariants

lint:
	$(PYTHON) -m repro.analysis lint

rules:
	$(PYTHON) -m repro.analysis rules

invariants:
	$(PYTHON) -m repro.analysis invariants

test:
	REPRO_CHECK_INVARIANTS=1 $(PYTHON) -m pytest -x -q

check: lint test
