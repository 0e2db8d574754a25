"""Compare two result files of ``perf/run.py``, one row per workload.

    python3 perf/compare.py A.json B.json            # two runs of the same code
    python3 perf/compare.py --change A.json B.json   # B is a change on top of A

For every end-to-end metric: both values, the relative difference and
the bound from ``BENCHMARK.json``.

Two runs of the same code must agree: a host-time metric within its
bound in either direction, and everything the simulator decides —
``events_total``, ``sim_time_s``, ``fail_pct``, ``sim_fingerprint`` —
exactly (given the same seed).  With ``--change`` a metric fails only
when B is *worse* than A by more than its bound, and differences in the
simulated numbers are shown, not failed: a change may mean them.

Exit status 1 when any row fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Decided by the simulator alone: identical for one seed and one code.
EXACT = ("events_total", "sim_time_s")


def _load(path):
    data = json.loads(Path(path).read_text())
    return data["seed"], data["workloads"]


def compare(path_a, path_b, change=False, out=sys.stdout) -> bool:
    """Print the comparison; True when no row fails."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seed_a, a = _load(path_a)
    seed_b, b = _load(path_b)
    same_seed = seed_a == seed_b
    if not same_seed:
        print(f"seeds differ ({seed_a} vs {seed_b}): simulated numbers not comparable", file=out)
    names = [w["name"] for w in spec["workloads"] if w["name"] in a and w["name"] in b]
    ok = True

    def row(name, va, vb, rel, verdict):
        nonlocal ok
        ok &= not verdict.startswith("FAIL")
        diff = f"{100 * rel:+9.3f} %" if rel is not None else " " * 11
        print(f"  {name:20s} {va:>16} {vb:>16} {diff}  {verdict}", file=out)

    for metric in spec["end_to_end"]:
        key, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        print(f"\n{key} ({metric['unit']}, {metric['better']} is better, bound {100 * bound:g} %)",
              file=out)
        for name in names:
            va = a[name]["end_to_end"][key]["value"]
            vb = b[name]["end_to_end"][key]["value"]
            rel = (vb - va) / va if va else 0.0
            if change:
                bad = sign * rel > bound
            elif key in EXACT and same_seed:
                bad = va != vb
            else:
                bad = abs(rel) > bound
            row(name, f"{va:.6g}", f"{vb:.6g}", rel, "FAIL" if bad else "ok")
    print("\nfail_pct (%, any increase fails)", file=out)
    for name in names:
        va, vb = a[name]["fail_pct"], b[name]["fail_pct"]
        bad = vb > va or (not change and va != vb)
        row(name, f"{va:.4g}", f"{vb:.4g}", None, "FAIL" if bad else "ok")
    print("\nsim_fingerprint (equal = bit-identical physics)", file=out)
    for name in names:
        fa, fb = a[name]["sim_fingerprint"], b[name]["sim_fingerprint"]
        if fa == fb:
            verdict = "ok"
        elif change or not same_seed:
            verdict = "differs"
        else:
            verdict = "FAIL"
        row(name, fa[:12], fb[:12], None, verdict)
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("a", help="result file of the first (or parent) run")
    p.add_argument("b", help="result file of the second (or changed) run")
    p.add_argument("--change", action="store_true", help="B is a change on top of A")
    args = p.parse_args(argv)
    ok = compare(args.a, args.b, change=args.change)
    print("\n" + ("within bounds" if ok else "OUT OF BOUNDS"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
