"""Measure one workload: repetitions of its units, timed and checked.

A repetition runs every unit once — set-up, then the measured phase —
each bracketed by the reference kernel (``perf/calib.py``).  The plain
run repeats for ``--seconds`` and reports medians; the traced run makes
three repetitions (plain, under cProfile, under the span wrappers) and
reports the per-layer numbers.  Either way every repetition must
reproduce the same simulation, or the run is not correct.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import resource
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from perf import layers
from perf.calib import CALIB_REF_S, Bracket
from perf.phases import UnitResult
from perf.trace import Tracer, self_times, write_chrome_trace
from perf.workloads import WORKLOADS

__all__ = ["MAX_REPS", "MIN_REPS", "measure_workload", "trace_workload"]

MIN_REPS = 3
MAX_REPS = 7

END_TO_END_UNITS = {
    "wall_norm_s": "s",
    "setup_s": "s",
    "events_total": "count",
    "sim_time_s": "sim_s",
    "peak_rss_mb": "MB",
}


@dataclass
class Repetition:
    """One pass over a workload's units: host time and simulated outcome."""

    units: list = field(default_factory=list)  # (spec, UnitResult)
    setup_norm: float = 0.0
    wall_norm: float = 0.0
    wall_raw: float = 0.0
    noisy_units: int = 0
    calib_series: list = field(default_factory=list)

    def _sum(self, attr):
        return sum(getattr(result, attr) for _, result in self.units)

    events = property(lambda self: self._sum("events"))
    sim_time = property(lambda self: self._sum("sim_time"))
    bytes_moved = property(lambda self: self._sum("bytes_moved"))
    ops = property(lambda self: self._sum("ops"))

    @property
    def failed(self) -> int:
        return sum(result.ops for _, result in self.units if result.error)

    @property
    def errors(self) -> list[str]:
        return [result.error for _, result in self.units if result.error]

    @property
    def writes(self) -> bool:
        return any(getattr(spec, "kind", "") == "ior-write" for spec, _ in self.units)

    @property
    def check(self) -> dict:
        out: dict = {}
        for _, result in self.units:
            for key, value in result.check.items():
                out[key] = out.get(key, 0) + value
        return out

    @property
    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        for _, result in self.units:
            digest.update(repr(result.physics()).encode())
        return digest.hexdigest()


def run_repetition(
    specs, seed, shrink, measuring=lambda spec: nullcontext(), watch=None
) -> Repetition:
    """Run every unit once.  ``measuring(spec)`` wraps each measured phase."""
    rep = Repetition()
    bracket = Bracket()
    for spec in specs:
        gc.collect()
        t0 = t1 = time.perf_counter()
        try:
            state = spec.setup(seed, shrink)
            t1 = time.perf_counter()
            with measuring(spec):
                result = spec.measure(state, watch)
        except Exception as exc:  # a unit that raises fails its ops; the run goes on
            result = UnitResult(spec.unit_id, ops=1, error=f"{type(exc).__name__}: {exc}")
        t2 = time.perf_counter()
        factor, noisy = bracket.close()
        rep.noisy_units += noisy
        rep.units.append((spec, result))
        rep.setup_norm += (t1 - t0) * factor
        rep.wall_norm += (t2 - t1) * factor
        rep.wall_raw += t2 - t1
    rep.calib_series = bracket.series
    return rep


def _summary(values: list[float], unit: str) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "value": statistics.median(values), "unit": unit, "q1": q1, "q3": q3, "n": len(values),
    }


def _verdict(name, seed, shrink, reps) -> dict:
    """The part of a record both kinds of run share: what ran, was it right."""
    prints = {rep.fingerprint for rep in reps}
    errors = [e for rep in reps for e in rep.errors]
    if len(prints) > 1:
        errors.append(f"{len(prints)} different sim_fingerprints in one run")
    attempted = sum(rep.ops for rep in reps)
    failed = sum(rep.failed for rep in reps)
    return {
        "workload": name,
        "seed": seed,
        "shrink": shrink,
        "reps": len(reps),
        "correct": not errors,
        "attempted": max(attempted, 1),
        "failed": failed,
        "fail_pct": 100.0 * failed / max(attempted, 1),
        "sim_fingerprint": reps[0].fingerprint,
        "errors": errors,
    }


def measure_workload(name, seed, seconds, reps=None, shrink=1.0) -> dict:
    """Plain run: repeat for about ``seconds`` (or exactly ``reps`` times)."""
    specs = WORKLOADS[name]
    done: list[Repetition] = []
    started = time.perf_counter()
    while True:
        done.append(run_repetition(specs, seed, shrink))
        used = time.perf_counter() - started
        if reps is not None:
            if len(done) >= reps:
                break
        elif len(done) >= MAX_REPS or (
            len(done) >= MIN_REPS and used + used / len(done) / 2 > seconds
        ):
            break
    record = _verdict(name, seed, shrink, done)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    series = {
        "wall_norm_s": [rep.wall_norm for rep in done],
        "setup_s": [rep.setup_norm for rep in done],
        "events_total": [float(rep.events) for rep in done],
        "sim_time_s": [rep.sim_time for rep in done],
        "peak_rss_mb": [rss_mb],
    }
    record["end_to_end"] = {
        metric: _summary(values, END_TO_END_UNITS[metric]) for metric, values in series.items()
    }
    record["info"] = {
        "ops_per_rep": done[0].ops,
        "bytes_per_rep": done[0].bytes_moved,
        "wall_raw_s": _summary([rep.wall_raw for rep in done], "s"),
        "noisy_units": sum(rep.noisy_units for rep in done),
        "elapsed_s": time.perf_counter() - started,
        "calib_ms": [round(t * 1e3, 3) for rep in done for t in rep.calib_series],
        "calib_ref_s": CALIB_REF_S,
    }
    return record


class _CounterWatch:
    """Counter increases over the measured phases a repetition runs."""

    def __init__(self):
        self.delta: dict[str, float] = {}
        self.peak: dict[str, float] = {}
        self._open: list = []

    def __call__(self, dep, clients) -> None:
        self._open.append((dep, clients, layers.read_counters(dep, clients)))

    def close(self) -> None:
        for dep, clients, before in self._open:
            for key, value in layers.read_counters(dep, clients).items():
                self.delta[key] = self.delta.get(key, 0.0) + value - before.get(key, 0.0)
                self.peak[key] = max(self.peak.get(key, 0.0), value)
        self._open.clear()


def trace_workload(name, seed, shrink=1.0, spans_path=None) -> dict:
    """Traced run: the per-layer metrics, and the span file if asked."""
    specs = WORKLOADS[name]
    base = run_repetition(specs, seed, shrink)

    profile = cProfile.Profile(builtins=False)

    @contextmanager
    def profiling(spec):
        profile.enable()
        try:
            yield
        finally:
            profile.disable()

    profiled = run_repetition(specs, seed, shrink, measuring=profiling)

    tracer = Tracer()
    watch = _CounterWatch()

    @contextmanager
    def tracing(spec):
        tracer.unit = spec.unit_id
        with tracer.installed():
            try:
                yield
            finally:
                watch.close()

    traced = run_repetition(specs, seed, shrink, measuring=tracing, watch=watch)

    record = _verdict(name, seed, shrink, [base, profiled, traced])
    metrics = layers.per_layer_metrics(
        base, profiled, traced,
        shares=layers.host_shares(profile),
        spans=tracer.spans,
        self_s=self_times(tracer.spans),
        delta=watch.delta,
        peak=watch.peak,
    )
    record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["info"] = {"spans": len(tracer.spans)}
    if spans_path is not None:
        write_chrome_trace(tracer.spans, spans_path)
    return record
