"""Process-pool job engine: fan experiment cells across cores.

Every figure panel and every torture sweep in this repo is a batch of
independent jobs — (architecture x client-count) cells, (seed x arch)
episodes — and each job is a pure, deterministic function of a small
picklable spec (:mod:`repro.parallel.jobs`).  ``run_jobs`` maps a list
of specs to their results:

* ``jobs=1`` (the default) runs in-process, serially, in order — this
  is the reference execution, byte-identical to what the callers did
  before the engine existed;
* ``jobs=N`` fans the batch over a ``ProcessPoolExecutor``.  Workers
  rebuild everything from the spec, so results do not depend on which
  process ran them or in what order they finished: the parallel run is
  hash-identical to the serial one (``repro.check``'s trace hash and
  the benchmark determinism gate are the enforced oracles);
* an optional :class:`~repro.parallel.cache.ResultCache` short-circuits
  jobs whose (spec, code-fingerprint) key already has a stored result.

Results always come back in input order.  The accompanying
:class:`EngineReport` aggregates per-job wall time, cache hits, and the
simulated-engine event counters — surfaced through the ``--json``
outputs and attachable to a :class:`repro.obs.MetricsRegistry`.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field

from repro.parallel.jobs import describe, timed_job

__all__ = ["EngineReport", "default_jobs", "run_jobs"]


def default_jobs(requested: int | None = None) -> int:
    """Worker count: ``requested``, else ``REPRO_JOBS``, else 1 (serial).

    Raises ``ValueError`` naming the variable if ``REPRO_JOBS`` is set
    but is not an integer >= 1.
    """
    if requested is not None:
        return requested
    env = os.environ.get("REPRO_JOBS")
    if not env:
        return 1
    if env.strip().isdigit() and int(env) >= 1:
        return int(env)
    raise ValueError(f"REPRO_JOBS={env!r} is not an integer >= 1")


@dataclass
class EngineReport:
    """Cost telemetry for one batch."""

    workers: int
    jobs: int = 0
    cache_hits: int = 0
    #: Elapsed wall seconds for the whole batch (what the user waited).
    wall_seconds: float = 0.0
    #: Sum of per-job worker wall seconds (the serial-equivalent cost);
    #: cache hits contribute nothing.
    job_seconds: float = 0.0
    #: Simulated-engine event totals summed over jobs that expose them.
    events_processed: int = 0
    per_job: list = field(default_factory=list)

    @property
    def speedup(self) -> float:
        """Serial-equivalent cost over elapsed wall: parallel+cache win."""
        return self.job_seconds / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def as_dict(self) -> dict:
        return {
            "workers": self.workers,
            "jobs": self.jobs,
            "cache_hits": self.cache_hits,
            "wall_seconds": self.wall_seconds,
            "job_seconds": self.job_seconds,
            "events_processed": self.events_processed,
            "speedup": self.speedup,
            "per_job": self.per_job,
        }

    def _record(self, spec: dict, wall: float, cached: bool, result) -> None:
        self.jobs += 1
        if cached:
            self.cache_hits += 1
        else:
            self.job_seconds += wall
        engine = getattr(result, "engine", None)
        events = int(engine.get("events_processed", 0)) if isinstance(engine, dict) else 0
        self.events_processed += events
        self.per_job.append(
            {
                "job": describe(spec),
                "wall_seconds": wall,
                "cached": cached,
                "events_processed": events,
            }
        )


def run_jobs(specs, jobs: int = 1, cache=None, progress=None):
    """Execute every spec; return ``(results_in_input_order, report)``.

    ``progress(spec, result, wall, cached)`` is called once per
    finished job, in completion order (input order when serial).
    """
    specs = list(specs)
    t0 = time.perf_counter()
    workers = max(1, min(jobs, len(specs) or 1))
    report = EngineReport(workers=workers)
    results: list = [None] * len(specs)

    def finish(i, spec, result, wall, cached):
        results[i] = result
        report._record(spec, wall, cached, result)
        if cache is not None and not cached:
            cache.put(keys[i], result)
        if progress is not None:
            progress(spec, result, wall, cached)

    keys = [cache.key_for(s) for s in specs] if cache is not None else [None] * len(specs)
    todo: list[int] = []
    for i, spec in enumerate(specs):
        hit = cache.get(keys[i]) if cache is not None else None
        if hit is not None:
            finish(i, spec, hit, 0.0, cached=True)
        else:
            todo.append(i)

    if workers <= 1 or len(todo) <= 1:
        for i in todo:
            wall, result = timed_job(specs[i])
            finish(i, specs[i], result, wall, cached=False)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pending = {pool.submit(timed_job, specs[i]): i for i in todo}
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for fut in done:
                    i = pending.pop(fut)
                    wall, result = fut.result()
                    finish(i, specs[i], result, wall, cached=False)

    report.wall_seconds = time.perf_counter() - t0
    return results, report
