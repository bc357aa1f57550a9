"""Experiment implementations and reporting utilities.

One experiment per table/figure of the paper's evaluation section, each
returning plain data structures that the benchmark harness prints and the
tests assert on.  The entry point is the :mod:`repro.api` experiment
registry: ``repro.api.ExperimentRunner().run("fig9_cycles", ...)`` returns
a typed result whose ``raw`` field is the experiment's native return value.
"""

from repro.evaluation.experiments import (
    Fig5Result,
    Fig9Row,
    Fig10Row,
    Table2Row,
)
from repro.evaluation.reporting import format_table, series_to_rows

__all__ = [
    "Fig5Result",
    "Fig9Row",
    "Fig10Row",
    "Table2Row",
    "format_table",
    "series_to_rows",
]
