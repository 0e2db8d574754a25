#!/usr/bin/env python3
"""Check or re-record the pinned figure hashes.

Every figure panel, run at scale 0.02 on its first and last client
count, must reproduce the ``result_hash`` (``repro.bench.report``) that
``tests/bench/figure_pins.json`` records for it: a change that moves one
value, makespan, byte count or shape verdict of any panel fails here and
names the panel::

    python scripts/figure_pins.py --check     # exit 1 on any difference
    python scripts/figure_pins.py --update    # re-record (one reviewed commit)

A re-pin is a commit of its own that names every moved panel.  All 14
panels take about eight seconds; tier-1 replays ``sshbuild``, ``fig8a``
and ``fig7a`` (``tests/bench/test_figure_pins.py``) and CI's
torture-smoke job checks all of them.  The check / re-record loop is
``scripts/trace_pins.py``'s.
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "scripts"))

import trace_pins  # noqa: E402
from repro.bench.experiments import EXPERIMENTS, run_experiment  # noqa: E402
from repro.bench.report import experiment_report  # noqa: E402

PINS = ROOT / "tests" / "bench" / "figure_pins.json"
SCALE = 0.02


def keys() -> list[str]:
    return list(EXPERIMENTS)


def run_pin(panel: str) -> str:
    """The ``result_hash`` of ``panel`` at :data:`SCALE` on its first
    and last client count."""
    counts = EXPERIMENTS[panel].client_counts
    res = run_experiment(panel, scale=SCALE, client_counts=sorted({counts[0], counts[-1]}))
    return experiment_report(res)["result_hash"]


def mismatches(selected: list[str]) -> list[str]:
    """One line per selected panel whose replay differs from its pin."""
    return trace_pins.mismatches(selected, PINS, run_pin)


def main(argv=None) -> int:
    return trace_pins.main(argv, PINS, keys, run_pin, "panels", __doc__)


if __name__ == "__main__":
    sys.exit(main())
