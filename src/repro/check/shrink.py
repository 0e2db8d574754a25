"""Greedy delta-debugging: minimise failing inputs by re-running them.

:func:`shrink_list` is the generic core (also used by the property
tests to minimise counterexamples); :func:`shrink_program` applies it
to a failing torture program — first dropping whole fault specs, then
halves/quarters/single ops — re-running the candidate episode after
each removal and keeping it only while the failure persists.
Determinism (same program → same trace → same verdict) is what makes
this sound: a kept removal can never "un-fail" later.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

from repro.check.program import Program
from repro.check.runner import run_episode

__all__ = ["shrink_list", "shrink_program"]

T = TypeVar("T")


def shrink_list(items: list[T], still_fails: Callable[[list[T]], bool]) -> list[T]:
    """Greedy ddmin: smallest sublist for which ``still_fails`` holds.

    ``still_fails(items)`` must be True on entry.  Tries removing
    contiguous blocks of halving size; restarts the pass whenever a
    removal sticks, until no single element can be removed.
    """
    if not still_fails(items):
        raise ValueError("shrink_list needs a failing input to start from")
    block = max(1, len(items) // 2)
    while block >= 1:
        i, shrunk = 0, False
        while i < len(items):
            candidate = items[:i] + items[i + block :]
            if candidate and still_fails(candidate):
                items = candidate
                shrunk = True
            else:
                i += block
        block = block // 2 if not shrunk else min(block, max(1, len(items) // 2))
        if block == 0:
            break
    return items


def _violation_kinds(violations: Iterable[str]) -> set:
    """The failure fingerprint: the checker name before each ':'."""
    return {v.split(":", 1)[0] for v in violations}


def shrink_program(
    program: Program,
    arch: str,
    max_runs: int = 400,
    progress=None,
) -> tuple[Program, int]:
    """Minimise a failing program; returns (minimal program, runs used).

    A candidate counts as still-failing when it reproduces at least one
    violation of the same *kind* (same checker) as the original — so
    the shrinker chases one bug instead of hopping between bugs.
    """
    baseline = run_episode(program, arch)
    if not baseline.violations:
        raise ValueError("program does not fail; nothing to shrink")
    target_kinds = _violation_kinds(baseline.violations)
    runs = 1

    def fails(candidate: Program) -> bool:
        nonlocal runs
        if runs >= max_runs:
            return False  # budget exhausted: stop accepting removals
        runs += 1
        res = run_episode(candidate, arch)
        hit = bool(_violation_kinds(res.violations) & target_kinds)
        if progress is not None:
            progress(candidate, hit, runs)
        return hit

    # 1. Faults: drop them all if the bug survives, else ddmin the set.
    if program.faults:
        idx = list(range(len(program.faults)))
        if fails(program.without(drop_faults=set(idx))):
            program = program.without(drop_faults=set(idx))
        else:
            try:
                kept = shrink_list(
                    idx,
                    lambda keep: fails(
                        program.without(drop_faults=set(idx) - set(keep))
                    ),
                )
                program = program.without(drop_faults=set(idx) - set(kept))
            except ValueError:  # budget ran out on the entry re-check
                pass

    # 2. Ops: flatten to (client, index) labels and ddmin over them.
    labels = [
        (c, j) for c, track in enumerate(program.ops) for j in range(len(track))
    ]
    all_labels = set(labels)
    try:
        kept = shrink_list(
            labels, lambda keep: fails(program.without(drop_ops=all_labels - set(keep)))
        )
        program = program.without(drop_ops=all_labels - set(kept))
    except ValueError:
        pass
    return program, runs
