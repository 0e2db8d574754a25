#!/usr/bin/env python3
"""Record every figure panel and regenerate EXPERIMENTS.md::

    python scripts/update_experiments.py

Runs each panel of ``EXPERIMENTS`` at ``REPRO_SCALE`` (default 0.25)
over ``REPRO_JOBS`` worker processes, prints its table and shape
checks, and writes its report to ``benchmarks/results/<panel>.json``.
A panel that sweeps more than four client counts records 1, 2, 4 and
8 (``repro run <panel>`` shows every count).  The generated document
records, per figure panel: measured vs paper values at every client
count swept, plus the verdicts of the qualitative shape criteria.
Sections of the existing document that this script does not generate
(the hand-written "Torture sweeps" guide) are carried over unchanged,
after the generated ones.  Exits 1 if any shape check failed.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.bench.experiments import EXPERIMENTS, run_experiment  # noqa: E402
from repro.bench.paper_data import PAPER  # noqa: E402
from repro.bench.report import experiment_report, format_table, shape_checks  # noqa: E402
from repro.parallel import default_jobs  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]
RESULTS = ROOT / "benchmarks" / "results"
#: The client counts recorded for a panel that sweeps more than four.
RECORDED_COUNTS = (1, 2, 4, 8)

HEADER = """\
# Experiments: paper vs measured

Every figure panel of the paper's evaluation (§6), regenerated on the
calibrated simulator.  Absolute values are *not* expected to match the
authors' 2006 testbed; the comparison criteria are the paper's claims —
who wins, by roughly what factor, where curves flatten.  Each table
reports ``measured (paper)`` per client count; the shape criteria below
each table are asserted by the benchmark suite
(``python scripts/update_experiments.py`` runs them and writes this file).

Scale note: these results were produced at the scale recorded per
experiment (fraction of the paper's 500 MB-per-client data volumes);
steady-state throughputs and all ratios are scale-invariant to within a
few percent, except where noted in DESIGN.md.

## Known deviations (and why)

Reproduced faithfully: every Figure 6/7 ordering and plateau; the
small-block invariance of the NFS-based systems vs PVFS2's collapse
(6d/6e, 7c/7d); the 2-tier halving on 100 Mbps (6c); OLTP's absolute
level (≈25 vs the paper's 26 MB/s) and winner; BTIO parity; the
SSH-build phase split (Direct faster compiling, slower in the
metadata-bound phases).

Deviations we do not attempt to force:

* **Fig 8a (ATLAS)** — Direct-pNFS's *relative* penalty from the small
  request mix (~14% off its own peak) is reproduced, but our PVFS2
  loses far less than the paper's 59%.  Our storage daemon drains
  random writes through a sorted elevator over its write-behind
  buffer; a rational model of 2 MB-extent random writes simply is not
  2× slower than sequential.  The paper's measured collapse most
  likely reflects PVFS2 1.5.1 implementation pathologies (trove/BDB
  behaviour, allocator fragmentation) that we chose not to hard-code.
* **Fig 7b (single-file read crossover)** — the paper shows PVFS2
  edging past Direct-pNFS at eight clients (530.7 vs ~505 MB/s); we
  measure near-parity.  The loopback-conduit CPU tax narrows
  Direct-pNFS's lead exactly as the paper's mechanism predicts, to
  where the pipe-arbitration seed decides who is ahead: over seeds 1–6
  Direct-pNFS leads by ~2 % in the mean (482 vs 474 MB/s), while the
  default-seed run tabulated below has PVFS2 ahead by 3 %.
* **Fig 8c (OLTP)** — measured ratio ≈2.7× vs the paper's ≈4.3×; both
  absolute levels are close (25 vs 26 and 9 vs 6 MB/s).
* **Fig 8d (Postmark)** — the paper reports up to 36× more
  transactions/s for Direct-pNFS, with PVFS2 at ~1 tps.  In our model
  both systems sit on the *same* metadata substrate (synchronous
  create/remove journalling at the MDS and storage daemons), which
  bounds both sides equally; PVFS2's measured ~1 tps (≈1 s per small
  transaction) is only reachable by hard-coding second-scale
  per-operation penalties into its client, for which the paper offers
  no mechanism — note it would contradict §6.4.3, where native PVFS2
  *wins* the create-dominated build phases.  We reproduce direction at
  parity-or-better and record the magnitude gap here.
* **Fig 6 absolute writes** sit ~10% above the paper's 119 MB/s at
  benchmark scale because the final write-cache allowance (16 MB per
  daemon, the era's lying-ATA-cache semantics) is a larger fraction of
  a scaled run; at scale 1.0 the gap shrinks to a few percent.
"""


def metric_unit(metric: str) -> str:
    return {"mbps": "MB/s", "runtime": "s", "tps": "tps"}[metric]


def hand_written(existing: str, generated_titles: set[str]) -> str:
    """The ``## `` sections of ``existing`` that are not regenerated."""
    kept: list[str] = []
    keeping = False
    for line in existing.splitlines(keepends=True):
        if line.startswith("## "):
            keeping = line[3:].strip() not in generated_titles
        if keeping:
            kept.append(line)
    return "".join(kept)


def render(existing: str = "") -> str:
    """The whole document; ``existing`` is the current EXPERIMENTS.md."""
    sections: list[str] = [HEADER]
    for exp_id, exp in EXPERIMENTS.items():
        path = RESULTS / f"{exp_id}.json"
        if not path.exists():
            sections.append(
                f"\n## {exp_id}: {exp.title}\n\n*(no results recorded — run the benchmarks)*\n"
            )
            continue
        data = json.loads(path.read_text())
        values = {
            system: {int(n): v for n, v in series.items()}
            for system, series in data["values"].items()
        }
        paper = PAPER.get(exp_id, {})
        systems = [s for s in exp.systems if s in values]
        counts = sorted(next(iter(values.values())).keys())
        unit = metric_unit(data["metric"])

        lines = [f"\n## {exp_id}: {exp.title}", ""]
        lines.append(f"Scale: {data['scale']}.  Values in {unit}, shown as measured (paper).")
        lines.append("")
        lines.append("| clients | " + " | ".join(systems) + " |")
        lines.append("|---:|" + "---|" * len(systems))
        for n in counts:
            row = [f"{n}"]
            for s in systems:
                measured = values[s].get(n)
                ref = paper.get(s, {}).get(n)
                cell = f"{measured:.1f}" if measured is not None else "-"
                if ref is not None:
                    cell += f" ({ref:g})"
                row.append(cell)
            lines.append("| " + " | ".join(row) + " |")
        lines.append("")
        lines.append("Shape criteria:")
        for check in data.get("checks", []):
            mark = "✅" if check["ok"] else "❌"
            lines.append(f"* {mark} {check['name']} — {check['detail']}")
        sections.append("\n".join(lines) + "\n")

    generated = {"Known deviations (and why)"} | {
        f"{exp_id}: {exp.title}" for exp_id, exp in EXPERIMENTS.items()
    }
    tail = hand_written(existing, generated)
    if tail:
        sections.append("\n" + tail)
    return "\n".join(sections)


def record(exp_id: str, scale: float, jobs: int) -> bool:
    """Run one panel, print its table and checks, write its report;
    ``True`` if every shape check holds."""
    counts = EXPERIMENTS[exp_id].client_counts
    if len(counts) > 4:
        counts = [n for n in counts if n in RECORDED_COUNTS]
    res = run_experiment(exp_id, scale=scale, client_counts=counts, jobs=jobs)
    print(format_table(res))
    checks = shape_checks(res)
    for check in checks:
        print("  ", check)
    print()
    (RESULTS / f"{exp_id}.json").write_text(json.dumps(experiment_report(res), indent=2) + "\n")
    return all(check.ok for check in checks)


def main() -> int:
    scale = float(os.environ.get("REPRO_SCALE", "0.25"))
    jobs = default_jobs()
    ok = all([record(exp_id, scale, jobs) for exp_id in EXPERIMENTS])  # a failure stops none
    out = ROOT / "EXPERIMENTS.md"
    out.write_text(render(out.read_text() if out.exists() else ""))
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
