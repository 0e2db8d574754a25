"""Benchmark harness: experiment runner, paper data, and reporting.

:mod:`repro.bench.runner` sets up one (architecture, workload,
client-count) cell and measures it;
:mod:`repro.bench.experiments` defines every figure panel of the
paper's evaluation as a sweep; :mod:`repro.bench.paper_data` digitises
the paper's reported values; :mod:`repro.bench.report` renders
paper-vs-measured tables and checks the qualitative shape criteria.
"""

from repro.bench.runner import Cell, RunResult, run_cell
from repro.bench.experiments import EXPERIMENTS, Experiment, run_experiment
from repro.bench.report import format_table, shape_checks
from repro.bench.charts import render_series

__all__ = [
    "Cell",
    "EXPERIMENTS",
    "Experiment",
    "RunResult",
    "format_table",
    "render_series",
    "run_cell",
    "run_experiment",
    "shape_checks",
]
