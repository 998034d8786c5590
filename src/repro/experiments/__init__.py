"""Per-figure experiment harnesses.

One module per table/figure of the paper (see DESIGN.md section 4 for
the index).  Every module exposes ``run(...)`` returning a
:class:`~repro.experiments.common.FigureData`, printable as an aligned
text table; :mod:`repro.experiments.report` runs the full suite and
writes EXPERIMENTS.md.
"""

from repro.experiments.common import FigureData, FigureRow
from repro.experiments.runner import ExperimentRunner, RunKey
from repro.experiments.paper import PAPER, stat
from repro.experiments.validate import CheckResult, summarize, validate

__all__ = [
    "FigureData",
    "FigureRow",
    "ExperimentRunner",
    "RunKey",
    "PAPER",
    "stat",
    "CheckResult",
    "validate",
    "summarize",
]
