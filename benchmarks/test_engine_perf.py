"""Engine smoke: observability is pay-for-use, the parallel engine is exact.

Two gates on what it costs to *simulate*, not on what is simulated:

* metrics + tracing switched on leave the simulated physics
  bit-identical and add only the sampler's own events, within a bounded
  wall-clock ratio;
* ``repro.parallel`` (``jobs=N``, the result cache) is hash-identical
  to a serial run, and a warm cache makes a re-run nearly free
  (``benchmarks/results/BENCH_parallel.json``).

The configs ignore the ``REPRO_*`` knobs so the numbers stay comparable
across runs and machines.
"""

import json
import os
import pathlib
import time

import pytest

from repro.bench.runner import Cell
from repro.cluster.configs import ARCHITECTURES
from repro.workloads import IorWorkload

MB = 1024 * 1024
RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
def test_observability_is_pay_for_what_you_use(arch):
    """The obs layer's contract: off means free, on means same physics,
    on every row of the architecture table.

    * With no registry or collector installed (the default), the
      instrumented code paths must not change the simulated outcome;
      the repository benchmark (``perf/``) is the wall-clock guard for
      that path.
    * With metrics + tracing on, the simulation must compute the exact
      same physics (makespan, bytes, throughput): observation reads the
      run, it never perturbs it.  Wall overhead must stay bounded.
    """
    from repro.obs import SpanCollector, measure_with_metrics, spans as obs_spans

    assert obs_spans.ACTIVE is None  # default-off really is off

    workload_kw = dict(op="write", block_size=4 * MB, shared_file=False, scale=0.05)

    def run(observe: bool):
        t0 = time.perf_counter()
        cell = Cell(arch, IorWorkload(**workload_kw), 4)
        cell.setup()
        if observe:
            with SpanCollector(cell.sim) as spans:
                res, section = measure_with_metrics(cell)
        else:
            res, section, spans = cell.measure(), None, None
        return res, section, spans, time.perf_counter() - t0

    plain, _, _, wall_off = run(observe=False)
    observed, section, spans, wall_on = run(observe=True)

    # Identical simulated physics, to the bit.
    assert observed.makespan == plain.makespan
    assert observed.total_bytes == plain.total_bytes
    # The only extra engine events allowed are the sampler's own ticks
    # (one timeout per sample); spans and gauges schedule nothing.
    extra_events = (
        observed.engine["events_processed"] - plain.engine["events_processed"]
    )
    n_samples = len(section["series"]["t"])
    assert 0 <= extra_events <= n_samples + 2

    # The observed run actually captured something.
    assert section["counters"]
    assert section["bottleneck"]
    assert len(section["series"]["t"]) >= 2
    assert spans.spans

    # Collector is uninstalled again: later runs are back to zero-cost.
    assert obs_spans.ACTIVE is None

    ratio = wall_on / wall_off
    print(f"\n  obs overhead ({arch}): {wall_off:.3f}s off, {wall_on:.3f}s on ({ratio:.2f}x)")
    # Generous bound (CI wall clocks are noisy); catches accidental
    # per-event work sneaking into the hot path, not micro-costs.
    assert ratio < 3.0, f"observability overhead {ratio:.1f}x (need < 3x)"


# ---------------------------------------------------------------------------
# Parallel experiment engine (repro.parallel): determinism and cache
# ---------------------------------------------------------------------------

PANEL = "fig7a"
PANEL_KW = dict(scale=0.05, client_counts=[1, 2, 4])
TORTURE_ARCHES = ["direct-pnfs", "pnfs-2tier"]
TORTURE_SEEDS = 20  # x2 arches = 40 episodes

CORES = os.cpu_count() or 1
#: Worker count for the parallel legs: up to 8 (the acceptance
#: criterion's core count), at least 2 so the pool path is always
#: exercised — even a 1-core CI runner must produce identical results.
PAR_JOBS = min(8, CORES) if CORES > 1 else 2


def test_parallel_engine_determinism_and_cache(tmp_path):
    """The tentpole gate: jobs=N is hash-identical to jobs=1.

    * figure panel: the deterministic report (values, per-cell
      makespans/bytes/event counts) is byte-identical between serial
      and process-pool runs;
    * torture sweep: every episode trace hash matches serially;
    * cache: a second run of the unchanged panel completes in < 10% of
      the cold time.

    Serial and pool wall-clock are recorded, not compared: the pool's
    pay-off depends on the cores the recording machine happens to have.
    Everything lands in ``benchmarks/results/BENCH_parallel.json``.
    """
    from repro.bench.experiments import run_experiment
    from repro.bench.report import canonical_json, experiment_report
    from repro.check.runner import sweep
    from repro.parallel import ResultCache

    # -- figure panel: serial vs parallel --------------------------------
    t0 = time.perf_counter()
    serial = run_experiment(PANEL, **PANEL_KW)
    panel_serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    par = run_experiment(PANEL, jobs=PAR_JOBS, **PANEL_KW)
    panel_par_s = time.perf_counter() - t0
    serial_report = canonical_json(experiment_report(serial))
    par_report = canonical_json(experiment_report(par))
    assert serial_report == par_report, (
        f"parallel panel diverged from serial (jobs={PAR_JOBS})"
    )

    # -- torture sweep: serial vs parallel trace hashes ------------------
    t0 = time.perf_counter()
    eps_serial = sweep(TORTURE_ARCHES, seeds=TORTURE_SEEDS)
    torture_serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    eps_par = sweep(TORTURE_ARCHES, seeds=TORTURE_SEEDS, jobs=PAR_JOBS)
    torture_par_s = time.perf_counter() - t0
    assert [e.trace_hash for e in eps_serial] == [
        e.trace_hash for e in eps_par
    ], "parallel torture episodes diverged from serial"
    assert not any(e.violations for e in eps_serial)

    # -- content-addressed cache: warm run nearly free -------------------
    cache = ResultCache(tmp_path / "cache")
    t0 = time.perf_counter()
    cold = run_experiment(PANEL, cache=cache, **PANEL_KW)
    cold_s = time.perf_counter() - t0
    assert canonical_json(experiment_report(cold)) == serial_report
    warm_cache = ResultCache(tmp_path / "cache")
    t0 = time.perf_counter()
    warm = run_experiment(PANEL, cache=warm_cache, **PANEL_KW)
    warm_s = time.perf_counter() - t0
    assert canonical_json(experiment_report(warm)) == serial_report
    assert warm.parallel["cache_hits"] == len(serial.raw), "warm run missed the cache"
    assert warm_s < 0.10 * cold_s, (
        f"cached re-run took {warm_s:.2f}s vs {cold_s:.2f}s cold "
        f"(need < 10%)"
    )

    out_path = RESULTS_DIR / "BENCH_parallel.json"
    report = {
        "cores": CORES,
        "jobs": PAR_JOBS,
        "panel": {
            "experiment": PANEL,
            "cells": len(serial.raw),
            "serial_seconds": panel_serial_s,
            "parallel_seconds": panel_par_s,
        },
        "torture": {
            "arches": TORTURE_ARCHES,
            "episodes": TORTURE_SEEDS * len(TORTURE_ARCHES),
            "serial_seconds": torture_serial_s,
            "parallel_seconds": torture_par_s,
        },
        "cache": {
            "cold_seconds": cold_s,
            "warm_seconds": warm_s,
            "hits": warm.parallel["cache_hits"],
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2)
    print()
    print(f"  panel   {panel_serial_s:5.1f}s serial  {panel_par_s:5.1f}s x{PAR_JOBS} jobs")
    print(f"  torture {torture_serial_s:5.1f}s serial  {torture_par_s:5.1f}s x{PAR_JOBS} jobs")
    print(f"  cache   {cold_s:5.1f}s cold    {warm_s:5.2f}s warm")
