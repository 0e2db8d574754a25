"""Property tests for the server-side namespace (repro.vfs.namespace).

A seeded op fuzzer drives :class:`Namespace` against a naive
path-set reference model; any divergence is minimised with
:func:`repro.check.shrink_list` before being reported.  Targeted
cases pin the rename/remove edge semantics the torture harness
leans on: rename into one's own descendant (EINVAL), rename over an
existing file (target dies) or directory (EEXIST), rename onto
itself (no-op), handle staleness after remove, handle stability and
the entry's path after rename.
"""

import numpy as np
import pytest

from repro.check import shrink_list
from repro.vfs.api import Exists, FsError, InvalidArgument, NoEntry
from repro.vfs.namespace import FsErrorNotEmpty, Namespace


# ---------------------------------------------------------------------------
# Targeted edge cases
# ---------------------------------------------------------------------------


class TestRenameEdges:
    def test_rename_dir_into_own_descendant_is_einval(self):
        ns = Namespace()
        ns.create("/a", is_dir=True)
        ns.create("/a/b", is_dir=True)
        with pytest.raises(InvalidArgument):
            ns.rename("/a", "/a/b/a2")
        # The tree is untouched: both directories still resolve.
        assert ns.listdir("/a") == ["b"]
        assert ns.listdir("/a/b") == []

    def test_rename_dir_onto_itself_via_descendant_parent(self):
        ns = Namespace()
        ns.create("/d", is_dir=True)
        with pytest.raises(InvalidArgument):
            ns.rename("/d", "/d/sub")

    def test_rename_over_existing_file_replaces_it(self):
        ns = Namespace()
        src = ns.create("/src")
        victim = ns.create("/victim")
        moved = ns.rename("/src", "/victim")
        assert moved is src
        assert ns.resolve("/victim") is src
        with pytest.raises(NoEntry):
            ns.resolve("/src")
        # The replaced file's handle is stale, the mover's survives.
        with pytest.raises(NoEntry):
            ns.by_handle(victim.handle)
        assert ns.by_handle(src.handle) is src

    def test_rename_over_existing_dir_is_eexist(self):
        ns = Namespace()
        ns.create("/f")
        ns.create("/d", is_dir=True)
        with pytest.raises(Exists):
            ns.rename("/f", "/d")
        assert ns.resolve("/f") is not None

    def test_rename_dir_over_file_is_enotdir(self):
        # Found by the fuzzer below: the old code silently unlinked the
        # file target when a *directory* was renamed over it.
        from repro.vfs.api import NotDirectory

        ns = Namespace()
        ns.create("/d", is_dir=True)
        f = ns.create("/f")
        with pytest.raises(NotDirectory):
            ns.rename("/d", "/f")
        assert ns.resolve("/f") is f
        assert ns.listdir("/d") == []

    def test_rename_onto_itself_is_noop(self):
        ns = Namespace()
        e = ns.create("/same")
        assert ns.rename("/same", "/same") is e
        assert ns.resolve("/same") is e
        assert ns.by_handle(e.handle) is e  # not dropped from the handle map

    def test_path_of_follows_rename(self):
        ns = Namespace()
        ns.create("/d1", is_dir=True)
        ns.create("/d2", is_dir=True)
        f = ns.create("/d1/f")
        assert ns.resolve("/d1/f") is f
        ns.rename("/d1/f", "/d2/g")
        assert ns.resolve("/d2/g") is f
        with pytest.raises(NoEntry):
            ns.resolve("/d1/f")

    def test_path_of_inside_renamed_dir(self):
        ns = Namespace()
        ns.create("/old", is_dir=True)
        leaf = ns.create("/old/leaf")
        ns.rename("/old", "/new")
        assert ns.resolve("/new/leaf") is leaf
        with pytest.raises(NoEntry):
            ns.resolve("/old/leaf")
        with pytest.raises(NoEntry):
            ns.resolve("/old/leaf")


class TestRemoveEdges:
    def test_remove_invalidates_handle(self):
        ns = Namespace()
        f = ns.create("/gone")
        ns.remove("/gone")
        with pytest.raises(NoEntry):
            ns.by_handle(f.handle)

    def test_recreate_never_reuses_the_dead_handle(self):
        ns = Namespace()
        first = ns.create("/cycle")
        ns.remove("/cycle")
        second = ns.create("/cycle")
        assert second.handle != first.handle
        assert second.handle > first.handle  # monotonic allocation

    def test_remove_nonempty_dir_refused(self):
        ns = Namespace()
        ns.create("/d", is_dir=True)
        ns.create("/d/child")
        with pytest.raises(FsErrorNotEmpty):
            ns.remove("/d")
        ns.remove("/d/child")
        ns.remove("/d")  # empty now: fine
        with pytest.raises(NoEntry):
            ns.resolve("/d")


# ---------------------------------------------------------------------------
# Seeded fuzz against a naive reference model
# ---------------------------------------------------------------------------

_NAMES = ["a", "b", "c", "d"]


def _paths():
    out = []
    for n in _NAMES:
        out.append(f"/{n}")
        for m in _NAMES:
            out.append(f"/{n}/{m}")
    return out


class _RefModel:
    """Path-set semantics of a POSIX-ish namespace (no handles)."""

    def __init__(self):
        self.dirs = {"/"}
        self.files = set()

    def _parent(self, path):
        return path.rsplit("/", 1)[0] or "/"

    def _children(self, path):
        prefix = path.rstrip("/") + "/"
        return {p for p in (self.dirs | self.files) if p.startswith(prefix)}

    def create(self, path, is_dir):
        if self._parent(path) not in self.dirs:
            raise FsError(path)
        if path in self.dirs or path in self.files:
            raise Exists(path)
        (self.dirs if is_dir else self.files).add(path)

    def remove(self, path):
        if path in self.dirs:
            if self._children(path):
                raise FsErrorNotEmpty(path)
            self.dirs.discard(path)
        elif path in self.files:
            self.files.discard(path)
        else:
            raise NoEntry(path)

    def rename(self, old, new):
        if old not in self.dirs and old not in self.files:
            raise NoEntry(old)
        if new == old:
            return
        if old in self.dirs and (new + "/").startswith(old + "/"):
            raise InvalidArgument(new)
        if self._parent(new) not in self.dirs:
            raise FsError(new)
        if new in self.dirs:
            raise Exists(new)
        if old in self.files:
            self.files.discard(old)
            self.files.discard(new)
            self.files.add(new)
            return
        if new in self.files:
            raise FsError(new)  # dir over file: implementation-defined refusal
        moved = self._children(old)
        self.dirs.discard(old)
        self.dirs.add(new)
        for p in moved:
            tail = p[len(old):]
            tgt = new + tail
            if p in self.dirs:
                self.dirs.discard(p)
                self.dirs.add(tgt)
            else:
                self.files.discard(p)
                self.files.add(tgt)

    def listdir(self, path):
        if path not in self.dirs:
            raise NoEntry(path)
        prefix = path.rstrip("/") + "/"
        return sorted(
            p[len(prefix):]
            for p in (self.dirs | self.files)
            if p != path and p.startswith(prefix) and "/" not in p[len(prefix):]
        )


def _gen_ops(seed, count=60):
    rng = np.random.default_rng(seed)
    paths = _paths()
    ops = []
    for _ in range(count):
        kind = str(rng.choice(["create", "mkdir", "remove", "rename", "list"]))
        p = paths[int(rng.integers(len(paths)))]
        q = paths[int(rng.integers(len(paths)))]
        ops.append((kind, p, q))
    return ops


def _divergence(ops):
    """First op index where Namespace and the reference model disagree,
    or None if they agree throughout."""
    ns = Namespace()
    ref = _RefModel()
    for i, (kind, p, q) in enumerate(ops):
        for impl, m in ((ns, "ns"), (ref, "ref")):
            try:
                if kind == "create":
                    impl.create(p) if m == "ns" else impl.create(p, False)
                elif kind == "mkdir":
                    impl.create(p, is_dir=True) if m == "ns" else impl.create(p, True)
                elif kind == "remove":
                    impl.remove(p)
                elif kind == "rename":
                    impl.rename(p, q)
                else:
                    impl.listdir(p)
                outcome = "ok"
            except FsError:
                outcome = "err"
            if m == "ns":
                ns_outcome = outcome
            else:
                if (outcome == "ok") != (ns_outcome == "ok"):
                    return i
        # Structural agreement on every extant directory.
        for d in sorted(ref.dirs):
            if ns.listdir(d) != ref.listdir(d):
                return i
    return None


class TestFuzzAgainstModel:
    @pytest.mark.parametrize("seed", range(25))
    def test_agrees_with_reference_model(self, seed):
        ops = _gen_ops(seed)
        bad = _divergence(ops)
        if bad is not None:
            minimal = shrink_list(
                ops[: bad + 1], lambda sub: _divergence(sub) is not None
            )
            pytest.fail(f"namespace diverges from model on: {minimal}")

    def test_handles_stay_unique_and_monotonic(self):
        rng = np.random.default_rng(7)
        ns = Namespace()
        seen = set()
        last = 1
        paths = _paths()
        for _ in range(200):
            p = paths[int(rng.integers(len(paths)))]
            try:
                if rng.random() < 0.55:
                    e = ns.create(p, is_dir=bool(rng.random() < 0.3))
                    assert e.handle not in seen
                    assert e.handle > last
                    seen.add(e.handle)
                    last = e.handle
                else:
                    ns.remove(p)
            except FsError:
                pass
