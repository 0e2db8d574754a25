"""Picklable job specs + the worker entry point.

A *job spec* is a plain JSON-able dict that fully determines one unit
of embarrassingly parallel work.  Workers never receive live objects
(workload instances hold lambdas, deployments hold a whole simulator);
they receive the spec and rebuild everything from it, which is exactly
what makes parallel runs bit-identical to serial ones: each job is a
pure function of its spec, whichever process runs it.

Two kinds exist today:

* ``figure-cell`` — one (system, client-count) cell of a figure panel
  from :data:`repro.bench.experiments.EXPERIMENTS`; the worker rebuilds
  the workload from the experiment's factory and runs
  :func:`repro.bench.runner.run_cell`.  Returns a ``RunResult``.
* ``torture`` — one torture episode: the worker regenerates the seeded
  program and runs :func:`repro.check.runner.run_episode`.  Returns an
  ``EpisodeResult`` whose ``trace_hash`` is the parallel-equals-serial
  oracle.

:func:`run_job` is the single dispatch point and must stay importable
at module top level — ``ProcessPoolExecutor`` pickles it by reference
under every start method.
"""

from __future__ import annotations

import time

__all__ = ["figure_cell_spec", "torture_spec", "run_job", "timed_job"]


def figure_cell_spec(exp_id: str, system: str, n_clients: int, scale: float) -> dict:
    """Spec for one (system, client-count) cell of figure ``exp_id``."""
    return {
        "kind": "figure-cell",
        "exp_id": exp_id,
        "system": system,
        "n_clients": n_clients,
        "scale": scale,
    }


def torture_spec(seed: int, arch: str, metadata: bool = False) -> dict:
    """Spec for one torture episode (seed x architecture)."""
    return {"kind": "torture", "seed": seed, "arch": arch, "metadata": metadata}


def describe(spec: dict) -> str:
    """One-line human label for progress output."""
    if spec["kind"] == "figure-cell":
        return f"{spec['exp_id']} {spec['system']} n={spec['n_clients']}"
    if spec["kind"] == "torture":
        return f"torture seed {spec['seed']} / {spec['arch']}"
    return repr(spec)


def _run_figure_cell(spec: dict):
    from repro.bench.experiments import EXPERIMENTS
    from repro.bench.runner import run_cell

    exp = EXPERIMENTS[spec["exp_id"]]
    workload = exp.workload(spec["scale"] * exp.scale_factor)
    return run_cell(
        spec["system"],
        workload,
        spec["n_clients"],
        net_bw=exp.net_bw,
        nfs_overrides=exp.nfs_overrides or None,
        pvfs_overrides=exp.pvfs_overrides or None,
    )


def _run_torture(spec: dict):
    from repro.check.program import generate
    from repro.check.runner import run_episode

    program = generate(spec["seed"], metadata_ops=spec.get("metadata", False))
    return run_episode(program, spec["arch"])


_RUNNERS = {
    "figure-cell": _run_figure_cell,
    "torture": _run_torture,
}


def run_job(spec: dict):
    """Execute one job spec; pure function of ``spec``."""
    try:
        runner = _RUNNERS[spec["kind"]]
    except KeyError:
        raise ValueError(f"unknown job kind {spec.get('kind')!r}") from None
    return runner(spec)


def timed_job(spec: dict):
    """``(wall_seconds, result)`` — the worker-side entry point.

    Timing in the worker (not submit-to-done in the parent) keeps the
    per-job cost honest: queueing delay behind a busy pool is not work.
    """
    t0 = time.perf_counter()
    result = run_job(spec)
    return time.perf_counter() - t0, result
