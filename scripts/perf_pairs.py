#!/usr/bin/env python3
"""Alternating parent/change pairs of ``perf/`` workloads, with the verdicts.

    python scripts/perf_pairs.py PARENT_REF --workload bulk_read[,small_read,...] [--pairs 10] [--seed S]

Extracts ``PARENT_REF`` into ``<tmp>/parent`` (``git archive``: the
committed files, nothing of this checkout's state) and copies this
checkout — uncommitted edits and untracked, unignored files included —
into ``<tmp>/change`` (once), then, for each listed workload in turn,
runs ``python3 perf/run.py --workload W`` in each ``--pairs`` times,
alternating which side goes first.  The two trees sit at paths of one
length because the path alone moves host time: the same commit run
from two directories whose paths differ in length read ``wall_norm_s``
3.7 % apart on ``torture_batch``, 5 of 5 pairs the same way.  Every
run of either side must report the same ``sim_time_s`` and ``failed``
(a perf change alters no physics), and every run of one side the same
``events_total`` and ``sim_fingerprint`` (which hashes the count); a
workload stops at the first run that does not, the others still run,
and the exit status is 1.

``events_total`` may differ *between* the sides — a change that drops
queue entries is measured in them — and is reported as the exact count
it is: parent, change, direction and percentage.  Prints beside it, per
host-time metric, each side's median [quartiles], how many pairs the
change won and the verdict of the ``choosing-metrics`` guide, section
8: a gain may be claimed only when the change wins at least nine
tenths of the pairs (ties count for neither side) and the medians are
further apart than the parent's own quartiles.

Then, for each of ``BENCHMARK.json``'s ``end_to_end`` metrics, the
bound verdict of the guide's section 6.5: the change's median is
``within bound`` or ``WORSE than bound`` (further from the parent's, in
the metric's bad direction, than the bound's fraction of it) —
``unresolved`` when the run-to-run spread (the wider side's quartiles,
as a fraction of the parent's median) exceeds the bound, unless every
run of the change beats every run of the parent.  A workload with a
metric worse than its bound also makes the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
HOST_METRICS = ("wall_norm_s", "setup_s", "peak_rss_mb")
#: The host metrics each pair's progress line shows.
PAIR_METRICS = ("wall_norm_s", "setup_s")


def run_once(tree: pathlib.Path, workload: str, seed: int | None, out: pathlib.Path) -> dict:
    """One ``perf/run.py --workload`` in ``tree``; its workload record."""
    cmd = [sys.executable, "perf/run.py", "--workload", workload, "--out", str(out)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed in {tree}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return json.loads(out.read_text())["workloads"][workload]


def copy_checkout(dest: pathlib.Path) -> None:
    """This checkout's files as they are on disk: tracked ones, and
    untracked ones ``.gitignore`` does not exclude."""
    listed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        capture_output=True,
        check=True,
    )
    for name in listed.stdout.decode().split("\0"):
        if name and (ROOT / name).is_file():  # skips tracked files deleted in the checkout
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def physics(record: dict) -> tuple:
    """What every run of either side must report alike."""
    return record["end_to_end"]["sim_time_s"]["value"], record["failed"]


def count(record: dict) -> tuple:
    """What every run of one side must report alike."""
    return record["end_to_end"]["events_total"]["value"], record["sim_fingerprint"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def end_to_end_bounds() -> dict[str, tuple[float, str]]:
    """``name -> (bound, better)`` of ``BENCHMARK.json``'s end-to-end metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: (metric["bound"], metric["better"]) for metric in spec["end_to_end"]}


def bound_verdict(parent: list[float], change: list[float], bound: float, better: str) -> str:
    """Section 6.5: is the change's median worse than the parent's by more than ``bound``?"""
    sign = 1 if better == "lower" else -1
    (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
    scale = abs(pmed) or 1.0
    worse = sign * (cmed - pmed) / scale
    spread = max(pq3 - pq1, cq3 - cq1) / scale
    if worse > 0:
        moved = f"median {100 * worse:.1f} % worse"
    elif worse < 0:
        moved = f"median {-100 * worse:.1f} % better"
    else:
        moved = "medians equal"
    moved += f", bound {100 * bound:g} %"
    if max(sign * c for c in change) < min(sign * p for p in parent):
        return f"within bound: every change run better than every parent run ({moved})"
    if spread > bound:
        return f"unresolved: spread {100 * spread:.1f} % is wider than the bound ({moved})"
    if worse > bound:
        return f"WORSE than bound: {moved}"
    return f"within bound: {moved}"


def verdict(parent: list[float], change: list[float]) -> str:
    """Section 8: enough pairs won, and medians apart by more than the parent's spread."""
    n = len(parent)
    ahead = sum(c < p for p, c in zip(parent, change))
    behind = sum(c > p for p, c in zip(parent, change))
    q1, p_med, q3 = quartiles(parent)
    gap, spread = p_med - statistics.median(change), q3 - q1
    if ahead >= 0.9 * n and gap > spread:
        return f"GAIN: ahead in {ahead}/{n}, medians apart by more than the parent's quartiles"
    if behind >= 0.9 * n and -gap > spread:
        return (
            f"REGRESSION: behind in {behind}/{n}, medians apart by more than the parent's quartiles"
        )
    why = []
    if ahead < 0.9 * n:
        why.append(f"ahead in {ahead}/{n} (needs nine tenths)")
    if gap <= spread:
        why.append(f"medians {gap:+.4f} apart, parent's quartiles {spread:.4f}")
    return "UNRESOLVED: " + "; ".join(why)


def compare(workload: str, pairs: int, run) -> int:
    """``pairs`` alternating parent/change pairs of one workload, with
    the physics check, a line per pair and the verdicts; 1 if the
    physics (or one side's count) differ or a metric is worse than its
    bound, else 0.  ``run(side, workload)``
    returns one ``perf/run.py`` record of that side's tree."""
    records: dict[str, list[dict]] = {"parent": [], "change": []}

    def series(side: str, key: str) -> list[float]:
        return [record["end_to_end"][key]["value"] for record in records[side]]

    print(f"== {workload}", flush=True)
    reference = None
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            record = run(side, workload)
            if reference is None:
                reference = physics(record)
            elif physics(record) != reference:
                print(f"pair {pair + 1}, {side}: physics differ")
                print(f"  {physics(record)}\n  {reference}")
                return 1
            if records[side] and count(record) != count(records[side][0]):
                print(f"pair {pair + 1}, {side}: events_total differs between runs of one side")
                print(f"  {count(record)}\n  {count(records[side][0])}")
                return 1
            records[side].append(record)
        moves = []
        for key in PAIR_METRICS:
            before, after = series("parent", key)[-1], series("change", key)[-1]
            moves.append(f"{key} {before:.4f} -> {after:.4f} ({100 * (after / before - 1):+.1f} %)")
        print(f"pair {pair + 1:2d} ({order[0]} first): " + "  ".join(moves), flush=True)

    sim_time, failed = reference
    print(f"\n{workload}: sim_time_s {sim_time!r}, failed {failed} — equal in all {2 * pairs} runs")
    (before, parent_print), (after, change_print) = (
        count(records[side][0]) for side in ("parent", "change")
    )
    if parent_print == change_print:
        print(f"  events_total {before:.0f}, sim_fingerprint {parent_print[:12]} on both sides")
    else:
        direction = "fewer" if after < before else "more" if after > before else "as many"
        print(
            f"  events_total parent {before:.0f}  change {after:.0f}: {direction},"
            f" {100 * (after / before - 1):+.1f} % (exact, equal in every run of a side;"
            f" sim_fingerprint {parent_print[:12]} -> {change_print[:12]})"
        )
    for key in HOST_METRICS:
        parent, change = series("parent", key), series("change", key)
        (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
        ahead = sum(c < p for p, c in zip(parent, change))
        print(
            f"  {key:12s} parent {pmed:.4f} [{pq1:.4f}-{pq3:.4f}]"
            f"  change {cmed:.4f} [{cq1:.4f}-{cq3:.4f}]"
            f"  {100 * (cmed / pmed - 1):+.1f} % of parent's median,"
            f" change ahead {ahead}/{pairs}"
        )
    for key in HOST_METRICS:
        print(f"{key}: {verdict(series('parent', key), series('change', key))}")
    status = 0
    for key, (bound, better) in end_to_end_bounds().items():
        result = bound_verdict(series("parent", key), series("change", key), bound, better)
        print(f"{key} bound: {result}")
        if result.startswith("WORSE"):
            status = 1
    return status


def run_pairs(workloads: list[str], pairs: int, run) -> int:
    """:func:`compare` each workload in turn, all of them whatever one
    reports; 1 if any workload's physics differ or a bound is broken."""
    status = 0
    for i, workload in enumerate(workloads):
        if i:
            print()
        status |= compare(workload, pairs, run)
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_ref", help="commit to compare this tree against")
    p.add_argument("--workload", required=True, help="one workload, or a comma-separated list")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=None, help="passed to perf/run.py")
    args = p.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="perf_pairs_") as tmp:
        tmp = pathlib.Path(tmp)
        parent_tree = tmp / "parent"
        parent_tree.mkdir()
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", args.parent_ref], capture_output=True
        )
        if archive.returncode != 0:
            sys.exit(archive.stderr.decode())
        subprocess.run(["tar", "-x", "-C", str(parent_tree)], input=archive.stdout, check=True)

        change_tree = tmp / "change"
        copy_checkout(change_tree)

        sides = {"parent": parent_tree, "change": change_tree}

        def run(side: str, workload: str) -> dict:
            return run_once(sides[side], workload, args.seed, tmp / "out.json")

        return run_pairs(args.workload.split(","), args.pairs, run)


if __name__ == "__main__":
    sys.exit(main())
