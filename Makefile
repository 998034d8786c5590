PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint test check rules invariants bench-test report-check

lint:
	$(PYTHON) -m repro.analysis lint

rules:
	$(PYTHON) -m repro.analysis rules

invariants:
	$(PYTHON) -m repro.analysis invariants

test:
	REPRO_CHECK_INVARIANTS=1 $(PYTHON) -m pytest -x -q

check: lint test

# The benchmark's own tests (tier-1 collects only tests/).
bench-test:
	$(PYTHON) -m pytest bench -q

# EXPERIMENTS.md is a pure function of the source: a serial report and a
# pooled one must each reproduce it byte for byte.
report-check:
	$(PYTHON) -m repro report
	git diff --exit-code EXPERIMENTS.md
	$(PYTHON) -m repro report --jobs 2
	git diff --exit-code EXPERIMENTS.md
