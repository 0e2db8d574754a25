"""Property tests: IntervalSet and LockManager vs naive reference models.

Seeded random op sequences (numpy ``default_rng`` — same generator the
torture harness uses) run against both the real structure and a
brute-force per-byte model; any divergence is minimised with the
harness's :func:`repro.check.shrink.shrink_list` before being reported,
so a failure prints the smallest op sequence that still disagrees.
"""

import pytest
from numpy.random import default_rng

from repro.check.shrink import shrink_list
from repro.nfs.intervals import IntervalSet
from repro.nfs.locks import LockConflict, LockManager

LIMIT = 64  # byte universe for interval ops
SEEDS = 150


# --------------------------------------------------------------------------
# IntervalSet vs set-of-bytes
# --------------------------------------------------------------------------

def gen_interval_ops(rng, count=30):
    ops = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.15:
            # ("tail", back, length): an add placed relative to the set's
            # current end — beyond it, touching it, or reaching back into
            # the last run: the append stream ``add`` handles without bisect.
            ops.append(("tail", int(rng.integers(-2, 6)), int(rng.integers(0, 5))))
            continue
        if roll < 0.25:
            # ("head", length): a take from the first run's start — short
            # of its end, to it, or past it: a sequential reader consuming
            # prefetched bytes, which ``take`` trims in place.
            ops.append(("head", int(rng.integers(0, 8))))
            continue
        kind = "add" if roll < 0.6 else "remove"
        s = int(rng.integers(0, LIMIT))
        e = int(rng.integers(s, LIMIT + 1))  # empty ranges allowed on purpose
        ops.append((kind, s, e))
    return ops


def interval_violation(ops):
    """First invariant broken by replaying ``ops``, or None."""
    ivs = IntervalSet()
    model = set()
    for step, (kind, *args) in enumerate(ops):
        if kind == "tail":
            back, length = args
            s = max(0, max(model, default=-1) + 1 - back)
            kind, e = "add", s + length
        elif kind == "head":
            s = min(model, default=0)
            kind, e = "remove", s + args[0]
        else:
            s, e = args
        if kind == "add":
            run = ivs.add(s, e)
            model |= set(range(s, e))
            if s < e:
                lo, hi = run
                while lo - 1 in model:
                    lo -= 1
                while hi in model:
                    hi += 1
                if not (run[0] <= s and e <= run[1]) or (lo, hi) != run:
                    return f"step {step}: add({s},{e}) returned {run}, maximal run is {(lo, hi)}"
                if not model.issuperset(range(*run)):
                    return f"step {step}: add({s},{e}) returned uncovered {run}"
            elif run != (s, e):
                return f"step {step}: empty add({s},{e}) returned {run}"
        else:
            # ``remove`` is ``take``: the count of bytes it uncovered.
            taken = ivs.take(s, e)
            if taken != len(model & set(range(s, e))):
                return f"step {step}: take({s},{e}) returned {taken}"
            model -= set(range(s, e))
        got = {b for rs, re_ in ivs for b in range(rs, re_)}
        if got != model:
            return f"step {step}: coverage {sorted(got ^ model)} diverges"
        if ivs.total != len(model):
            return f"step {step}: total {ivs.total} != {len(model)}"
        runs = list(ivs)
        for (a_s, a_e), (b_s, b_e) in zip(runs, runs[1:]):
            if a_e >= b_s:
                return f"step {step}: runs not coalesced/sorted: {runs}"
        if any(rs >= re_ for rs, re_ in runs):
            return f"step {step}: empty run in {runs}"
        # Probe covers/gaps/runs_in on a sliding window.
        ps, pe = (step * 7) % LIMIT, (step * 7) % LIMIT + 9
        want_cover = all(b in model for b in range(ps, pe))
        if ivs.covers(ps, pe) != want_cover:
            return f"step {step}: covers({ps},{pe}) wrong"
        gap_bytes = {b for gs, ge in ivs.gaps(ps, pe) for b in range(gs, ge)}
        if gap_bytes != {b for b in range(ps, pe) if b not in model}:
            return f"step {step}: gaps({ps},{pe}) wrong"
        run_bytes = {b for rs, re_ in ivs.runs_in(ps, pe) for b in range(rs, re_)}
        if run_bytes != {b for b in range(ps, pe) if b in model}:
            return f"step {step}: runs_in({ps},{pe}) wrong"
    return None


def test_interval_set_matches_byte_model():
    for seed in range(SEEDS):
        ops = gen_interval_ops(default_rng(seed))
        if interval_violation(ops) is None:
            continue
        minimal = shrink_list(ops, lambda c: interval_violation(c) is not None)
        pytest.fail(
            f"seed {seed}: {interval_violation(minimal)}\n"
            f"minimal ops: {minimal}"
        )


def test_interval_set_remove_heavy_sequences():
    """Remove-biased sequences: the splice path with many splits."""
    for seed in range(SEEDS):
        rng = default_rng(10_000 + seed)
        ops = []
        for _ in range(40):
            kind = "remove" if rng.random() < 0.6 else "add"
            s = int(rng.integers(0, LIMIT))
            e = int(rng.integers(s, LIMIT + 1))
            ops.append((kind, s, e))
        if interval_violation(ops) is None:
            continue
        minimal = shrink_list(ops, lambda c: interval_violation(c) is not None)
        pytest.fail(
            f"seed {10_000 + seed}: {interval_violation(minimal)}\n"
            f"minimal ops: {minimal}"
        )


def test_interval_set_probe_windows_cover_bisect_boundaries():
    """gaps/runs_in/covers probed at every window over a fragmented set.

    A comb of single-byte runs makes the bisect landing index matter at
    every boundary: windows starting inside a run, exactly at a run
    start, exactly at a run end, and before/after the whole set.
    """
    ivs = IntervalSet()
    model = set()
    for s in range(0, LIMIT, 3):  # runs [s, s+2)
        ivs.add(s, s + 2)
        model |= {s, s + 1}
    for ws in range(-2, LIMIT + 2):
        for length in (0, 1, 2, 3, 7):
            we = ws + length
            win = set(range(max(ws, 0), max(we, 0)))
            gap_bytes = {b for gs, ge in ivs.gaps(ws, we) for b in range(gs, ge)}
            run_bytes = {b for rs, re_ in ivs.runs_in(ws, we) for b in range(rs, re_)}
            if ws >= 0:
                assert gap_bytes == {b for b in win if b not in model}, (ws, we)
                assert run_bytes == win & model, (ws, we)
                assert ivs.covers(ws, we) == (win <= model or ws >= we), (ws, we)
            # gaps/runs_in must tile the window exactly, in order.
            pieces = sorted(ivs.gaps(ws, we) + ivs.runs_in(ws, we))
            pos = ws
            for ps, pe in pieces:
                assert ps == pos and pe > ps, (ws, we, pieces)
                pos = pe
            if ws < we:
                assert pos == we, (ws, we, pieces)


def test_interval_set_sparse_large_universe():
    """Sparse intervals over a big coordinate space (page-cache shaped).

    The old implementations scanned from index 0; these sequences keep
    hundreds of distant runs alive so a scan bug or off-by-one in the
    bisect landing shows up as a model divergence.
    """
    for seed in range(25):
        rng = default_rng(20_000 + seed)
        ivs = IntervalSet()
        naive: list[tuple[int, int]] = []

        def naive_apply(kind, s, e):
            out = []
            for ns, ne in naive:
                if kind == "add" or ne <= s or ns >= e:
                    out.append((ns, ne))
                    continue
                if ns < s:
                    out.append((ns, s))
                if ne > e:
                    out.append((e, ne))
            if kind == "add":
                out.append((s, e))
            out.sort()
            merged: list[tuple[int, int]] = []
            for ns, ne in out:
                if merged and ns <= merged[-1][1]:
                    merged[-1] = (merged[-1][0], max(merged[-1][1], ne))
                else:
                    merged.append((ns, ne))
            return merged

        for _ in range(300):
            kind = "add" if rng.random() < 0.65 else "remove"
            s = int(rng.integers(0, 1 << 20)) * 4096
            e = s + int(rng.integers(1, 16)) * 4096
            if kind == "add":
                ivs.add(s, e)
            else:
                ivs.remove(s, e)
            naive = naive_apply(kind, s, e)
        assert list(ivs) == naive, f"seed {20_000 + seed}"
        ws = naive[len(naive) // 2][0] - 4096 if naive else 0
        we = ws + 64 * 4096
        want_runs = [
            (max(ns, ws), min(ne, we))
            for ns, ne in naive
            if max(ns, ws) < min(ne, we)
        ]
        assert ivs.runs_in(ws, we) == want_runs
        pos, want_gaps = ws, []
        for rs, re_ in want_runs:
            if rs > pos:
                want_gaps.append((pos, rs))
            pos = re_
        if pos < we:
            want_gaps.append((pos, we))
        assert ivs.gaps(ws, we) == want_gaps


# --------------------------------------------------------------------------
# LockManager vs brute-force per-byte model
# --------------------------------------------------------------------------

class NaiveLocks:
    """Per-byte lock table: dict[(fh, byte) -> dict[owner -> kind]]."""

    def __init__(self):
        self.bytes = {}

    def can_lock(self, fh, owner, start, end, kind):
        for b in range(start, end):
            for o, k in self.bytes.get((fh, b), {}).items():
                if o != owner and (kind == "write" or k == "write"):
                    return False
        return True

    def lock(self, fh, owner, start, end, kind):
        for b in range(start, end):
            self.bytes.setdefault((fh, b), {})[owner] = kind

    def unlock(self, fh, owner, start, end):
        for b in range(start, end):
            held = self.bytes.get((fh, b))
            if held is not None:
                held.pop(owner, None)
                if not held:
                    del self.bytes[(fh, b)]

    def release_owner(self, owner):
        for key in list(self.bytes):
            self.bytes[key].pop(owner, None)
            if not self.bytes[key]:
                del self.bytes[key]

    def held(self, fh, owner):
        return {
            (b, held[owner])
            for (f, b), held in self.bytes.items()
            if f == fh and owner in held
        }

    def active_fhs(self):
        return {f for (f, _b) in self.bytes}


def gen_lock_ops(rng, count=25):
    ops = []
    for _ in range(count):
        roll = rng.random()
        fh = int(rng.integers(0, 2))
        owner = f"o{int(rng.integers(0, 3))}"
        s = int(rng.integers(0, 32))
        e = int(rng.integers(s + 1, 33))
        if roll < 0.55:
            kind = "write" if rng.random() < 0.5 else "read"
            ops.append(("lock", fh, owner, s, e, kind))
        elif roll < 0.9:
            ops.append(("unlock", fh, owner, s, e, ""))
        else:
            ops.append(("release", fh, owner, 0, 0, ""))
    return ops


def lock_violation(ops):
    mgr = LockManager()
    model = NaiveLocks()
    for step, (op, fh, owner, s, e, kind) in enumerate(ops):
        if op == "lock":
            want = model.can_lock(fh, owner, s, e, kind)
            try:
                mgr.lock(fh, owner, s, e, kind)
                granted = True
            except LockConflict:
                granted = False
            if granted != want:
                return f"step {step}: lock granted={granted}, model says {want}"
            if granted:
                model.lock(fh, owner, s, e, kind)
        elif op == "unlock":
            mgr.unlock(fh, owner, s, e)
            model.unlock(fh, owner, s, e)
        else:
            mgr.release_owner(owner)
            model.release_owner(owner)
        # Per-owner byte coverage (with kinds) must match exactly.
        for f in (0, 1):
            for o in ("o0", "o1", "o2"):
                got = {
                    (b, lk.kind)
                    for lk in mgr.held(f)
                    if lk.owner == o
                    for b in range(lk.start, lk.end)
                }
                if got != model.held(f, o):
                    return (
                        f"step {step}: held({f}, {o}) diverges: "
                        f"{sorted(got ^ model.held(f, o))}"
                    )
        # test() must agree with the model on every owner's next move.
        probe_s = (step * 5) % 32
        for o in ("o0", "o1"):
            conflict = mgr.test(0, o, probe_s, probe_s + 4, "write")
            if (conflict is None) != model.can_lock(0, o, probe_s, probe_s + 4, "write"):
                return f"step {step}: test(0, {o}) disagrees with model"
        # Bounded tables: one per fh with live locks, none for empty fhs.
        if len(mgr._locks) != len(model.active_fhs()):
            return (
                f"step {step}: {len(mgr._locks)} tables for "
                f"{len(model.active_fhs())} active fhs"
            )
    return None


def test_lock_manager_matches_byte_model():
    for seed in range(SEEDS):
        ops = gen_lock_ops(default_rng(seed))
        if lock_violation(ops) is None:
            continue
        minimal = shrink_list(ops, lambda c: lock_violation(c) is not None)
        pytest.fail(
            f"seed {seed}: {lock_violation(minimal)}\n"
            f"minimal ops: {minimal}"
        )
