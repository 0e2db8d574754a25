"""Benchmark harness plumbing.

Each benchmark test regenerates one figure panel of the paper: it runs
the sweep on the simulated testbed, prints a measured-vs-paper table,
asserts the qualitative shape criteria from DESIGN.md §3, and records
the measured values under ``benchmarks/results/`` (consumed when
updating EXPERIMENTS.md).  The recorded file holds only what the
simulation determines — the same run writes the same bytes — so the
engine's host-side cost is printed, not stored.

Scale: set ``REPRO_SCALE`` (default 0.25 — 125 MB IOR files) to trade
run time against steady-state fidelity; 1.0 reproduces the paper's full
500 MB-per-client runs.  Client counts default to {1, 2, 4, 8} (the
paper sweeps 1-8); set ``REPRO_FULL_SWEEP=1`` for every count.

Parallelism: ``REPRO_JOBS=N`` fans each panel's cells over N worker
processes (results are identical whatever N is — the cells are pure
functions of their specs).  ``REPRO_CACHE=1`` enables the content-
addressed result cache so unchanged panels are free to re-run; the
cache key includes a fingerprint of every ``repro`` source file, so any
code edit invalidates it.
"""

import json
import os
import pathlib

import pytest

from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.report import format_table, shape_checks
from repro.parallel import ResultCache, default_jobs

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def bench_scale() -> float:
    return float(os.environ.get("REPRO_SCALE", "0.25"))


def bench_cache():
    """Shared result cache when ``REPRO_CACHE=1`` (else ``None``)."""
    if not os.environ.get("REPRO_CACHE"):
        return None
    return ResultCache()


def bench_counts(exp_id: str) -> list[int] | None:
    exp = EXPERIMENTS[exp_id]
    if os.environ.get("REPRO_FULL_SWEEP") or len(exp.client_counts) <= 4:
        return None  # the experiment's own counts
    return [n for n in exp.client_counts if n in (1, 2, 4, 8)]


@pytest.fixture
def run_panel(benchmark):
    """Run one figure panel under pytest-benchmark; verify its shape."""

    def _run(exp_id: str):
        holder = {}

        def once():
            holder["res"] = run_experiment(
                exp_id,
                scale=bench_scale(),
                client_counts=bench_counts(exp_id),
                jobs=default_jobs(),
                cache=bench_cache(),
            )

        benchmark.pedantic(once, rounds=1, iterations=1)
        res = holder["res"]
        print()
        print(format_table(res))
        checks = shape_checks(res)
        for check in checks:
            print("  ", check)
        # Aggregate engine cost over the sweep: how much the cells
        # cost to *simulate*, alongside what they measured.
        cells = list(res.raw.values())
        print(
            f"   engine: {sum(c.engine['events_processed'] for c in cells)} events, "
            f"peak heap {max(c.engine['peak_heap'] for c in cells)}, "
            f"{sum(c.engine['flows_chunked'] for c in cells)} wire flows, "
            f"{sum(c.engine['wall_seconds'] for c in cells):.2f}s in the event loop"
        )
        RESULTS_DIR.mkdir(exist_ok=True)
        with open(RESULTS_DIR / f"{exp_id}.json", "w") as fh:
            json.dump(
                {
                    "experiment": exp_id,
                    "title": res.experiment.title,
                    "metric": res.experiment.metric,
                    "scale": res.scale,
                    "values": res.values,
                    "checks": [
                        {"name": c.name, "ok": c.ok, "detail": c.detail}
                        for c in checks
                    ],
                },
                fh,
                indent=2,
            )
        failed = [c for c in checks if not c.ok]
        assert not failed, "shape criteria failed: " + "; ".join(
            f"{c.name} ({c.detail})" for c in failed
        )
        return res

    return _run
