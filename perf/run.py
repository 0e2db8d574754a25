"""The benchmark's one command.

One workload, as the driver runs it::

    python3 perf/run.py --workload bulk_write --seed 7 --seconds 12 --trace 0

prints every metric by name and unit, then one JSON line
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Without ``--workload`` it runs all seven, each in a fresh subprocess of
its own, and writes ``perf/results/latest.json``.  It exits non-zero if
any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The script's own directory would shadow the standard ``trace`` module
# with perf/trace.py; the checkout root and its sources go there instead.
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from perf import bench  # noqa: E402
from perf.calib import CALIB_REF_S  # noqa: E402
from perf.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

RESULTS = ROOT / "perf" / "results"
QUICK_SHRINK = 10.0


def _parse(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), help="run this one, in-process")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                   help="how long to keep repeating (at least %d repetitions)" % bench.MIN_REPS)
    p.add_argument("--reps", type=int, help="exactly this many repetitions instead")
    p.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                   help="1: the traced run (per-layer metrics, span files)")
    p.add_argument("--quick", action="store_true",
                   help="scales / %d, one repetition: a smoke run" % QUICK_SHRINK)
    p.add_argument("--calib-report", action="store_true",
                   help="5 repetitions of one workload: raw vs normalised spread")
    p.add_argument("--out", type=Path, help="write the full record(s) here as JSON")
    return p.parse_args(argv)


def _print_metrics(record) -> None:
    for section in ("end_to_end", "per_layer"):
        for name, m in record.get(section, {}).items():
            extra = ""
            if "q1" in m and m["n"] > 1:
                extra = f"   [q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n={m['n']}]"
            print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}{extra}")
    print(
        f"  ops attempted {record['attempted']}, failed {record['failed']} "
        f"(fail_pct {record['fail_pct']:.4g} %), {record['reps']} repetitions"
    )
    info = record.get("info", {})
    if "wall_raw_s" in info:
        print(
            f"  bench.wall_raw_s {info['wall_raw_s']['value']:.4f} s (not gated), "
            f"bench.noisy_units {info['noisy_units']}, measured for {info['elapsed_s']:.1f} s"
        )
    print(f"  sim_fingerprint {record['sim_fingerprint']}")
    for error in record["errors"]:
        print(f"  ERROR {error}")


def run_one(args) -> dict:
    """Measure ``args.workload`` in this process; print and return its record."""
    shrink = QUICK_SHRINK if args.quick else 1.0
    reps = 1 if args.quick else args.reps
    print(f"{args.workload}  seed {args.seed}" + ("  (traced)" if args.trace else ""))
    if args.trace:
        spans_path = RESULTS / "spans" / f"{args.workload}.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        record = bench.trace_workload(args.workload, args.seed, shrink, spans_path)
        print(f"  {record['info']['spans']} spans -> {spans_path.relative_to(ROOT)}")
    else:
        record = bench.measure_workload(args.workload, args.seed, args.seconds, reps, shrink)
    _print_metrics(record)
    return record


def _contract_line(record) -> str:
    section = record.get("per_layer") or record["end_to_end"]
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in section.items()},
    })


def run_suite(args) -> dict:
    """Every workload, one after another, each in its own interpreter."""
    records = {}
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        for name in WORKLOADS:
            out = Path(tmp) / f"{name}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", str(out)]
            if args.reps:
                cmd += ["--reps", str(args.reps)]
            if args.quick:
                cmd.append("--quick")
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]), flush=True)  # the last line is the child's JSON
            if out.exists():
                records[name] = json.loads(out.read_text())["workloads"][name]
            else:
                records[name] = {"correct": False, "errors": [f"exit code {done.returncode}"]}
    return records


def _spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return 100.0 * (q3 - q1) / statistics.median(values)


def _range(values) -> float:
    return 100.0 * (max(values) - min(values)) / statistics.median(values)


def calib_report(args) -> int:
    """Does normalising help on this machine?  Five repetitions say."""
    name = args.workload or "bulk_write"
    reps = [bench.run_repetition(WORKLOADS[name], args.seed, 1.0) for _ in range(5)]
    raw = [rep.wall_raw for rep in reps]
    norm = [rep.wall_norm for rep in reps]
    print(f"{name}: 5 repetitions, measured phase")
    print("  raw s        " + "  ".join(f"{v:.4f}" for v in raw))
    print("  normalised s " + "  ".join(f"{v:.4f}" for v in norm))
    print(f"  quartile spread / median: raw {_spread(raw):.2f} %, normalised {_spread(norm):.2f} %")
    print(f"  range / median:           raw {_range(raw):.2f} %, normalised {_range(norm):.2f} %")
    print(f"  reference kernel, ms (CALIB_REF_S = {CALIB_REF_S * 1e3:.0f} ms):")
    for rep in reps:
        print("    " + " ".join(f"{t * 1e3:.1f}" for t in rep.calib_series))
    if _spread(norm) >= _spread(raw):
        print("  normalising did NOT narrow the spread here: distrust wall_norm_s on this machine")
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.calib_report:
        return calib_report(args)
    RESULTS.mkdir(parents=True, exist_ok=True)
    started = time.time()
    if args.workload:
        record = run_one(args)
        records = {args.workload: record}
    else:
        records = run_suite(args)
    ok = all(r.get("correct") for r in records.values())
    summary = {
        "benchmark": "perf",
        "seed": args.seed,
        "trace": args.trace,
        "quick": args.quick,
        "calib_ref_s": CALIB_REF_S,
        "elapsed_s": round(time.time() - started, 3),
        "workloads": records,
        "correct": ok,
        "claim": None,
    }
    out = args.out or RESULTS / "latest.json"
    out.write_text(json.dumps(summary, indent=1) + "\n")
    if args.workload:
        print(_contract_line(record))
    else:
        print(f"\nwrote {out}: " + ("all outputs correct" if ok else "CORRECTNESS FAILURE"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
