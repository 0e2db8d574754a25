"""Byte-range lock tests: manager semantics and wire protocol."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nfs.locks import READ_LT, WRITE_LT, LockConflict, LockManager
from repro.vfs import Payload

from tests.conftest import build_nfs, drive


class TestLockManager:
    def test_exclusive_conflicts_with_overlap(self):
        lm = LockManager()
        lm.lock("fh", "a", 0, 100, WRITE_LT)
        with pytest.raises(LockConflict):
            lm.lock("fh", "b", 50, 150, WRITE_LT)

    def test_shared_locks_coexist(self):
        lm = LockManager()
        lm.lock("fh", "a", 0, 100, READ_LT)
        lm.lock("fh", "b", 0, 100, READ_LT)
        assert len(list(lm.held("fh"))) == 2

    def test_read_blocks_write_and_vice_versa(self):
        lm = LockManager()
        lm.lock("fh", "a", 0, 10, READ_LT)
        with pytest.raises(LockConflict):
            lm.lock("fh", "b", 5, 15, WRITE_LT)
        lm.lock("fh", "c", 20, 30, WRITE_LT)
        with pytest.raises(LockConflict):
            lm.lock("fh", "d", 25, 35, READ_LT)

    def test_disjoint_ranges_fine(self):
        lm = LockManager()
        lm.lock("fh", "a", 0, 10, WRITE_LT)
        lm.lock("fh", "b", 10, 20, WRITE_LT)  # half-open: no overlap

    def test_different_files_independent(self):
        lm = LockManager()
        lm.lock("f1", "a", 0, 10, WRITE_LT)
        lm.lock("f2", "b", 0, 10, WRITE_LT)

    def test_owner_upgrade_and_merge(self):
        lm = LockManager()
        lm.lock("fh", "a", 0, 100, READ_LT)
        lm.lock("fh", "a", 25, 75, WRITE_LT)  # own range upgrade
        kinds = sorted((l.start, l.end, l.kind) for l in lm.held("fh"))
        assert kinds == [(0, 25, READ_LT), (25, 75, WRITE_LT), (75, 100, READ_LT)]

    def test_unlock_splits_range(self):
        lm = LockManager()
        lm.lock("fh", "a", 0, 100, WRITE_LT)
        freed = lm.unlock("fh", "a", 40, 60)
        assert freed == 20
        spans = sorted((l.start, l.end) for l in lm.held("fh"))
        assert spans == [(0, 40), (60, 100)]
        # a stranger can now lock the hole
        lm.lock("fh", "b", 40, 60, WRITE_LT)

    def test_unlock_only_own_locks(self):
        lm = LockManager()
        lm.lock("fh", "a", 0, 10, WRITE_LT)
        assert lm.unlock("fh", "b", 0, 10) == 0
        assert len(list(lm.held("fh"))) == 1

    def test_release_owner(self):
        lm = LockManager()
        lm.lock("f1", "a", 0, 10, WRITE_LT)
        lm.lock("f2", "a", 0, 10, READ_LT)
        lm.lock("f1", "b", 20, 30, WRITE_LT)
        assert lm.release_owner("a") == 2
        assert len(list(lm.held("f1"))) == 1

    def test_test_reports_conflict_without_granting(self):
        lm = LockManager()
        lm.lock("fh", "a", 0, 10, WRITE_LT)
        conflict = lm.test("fh", "b", 5, 6, READ_LT)
        assert conflict is not None and conflict.owner == "a"
        assert lm.test("fh", "b", 50, 60, WRITE_LT) is None

    def test_invalid_ranges_rejected(self):
        lm = LockManager()
        with pytest.raises(ValueError):
            lm.lock("fh", "a", 10, 10, WRITE_LT)
        with pytest.raises(ValueError):
            lm.lock("fh", "a", -1, 5, WRITE_LT)
        with pytest.raises(ValueError):
            lm.lock("fh", "a", 0, 5, "exclusive-ish")

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["lock", "unlock"]),
                st.sampled_from(["a", "b"]),
                st.integers(0, 50),
                st.integers(1, 20),
                st.sampled_from([READ_LT, WRITE_LT]),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_property_no_illegal_coexistence(self, ops):
        """After any op sequence, no two different owners hold
        overlapping locks where either is exclusive."""
        lm = LockManager()
        for op, owner, start, length, kind in ops:
            try:
                if op == "lock":
                    lm.lock("fh", owner, start, start + length, kind)
                else:
                    lm.unlock("fh", owner, start, start + length)
            except LockConflict:
                pass
        held = list(lm.held("fh"))
        for i, x in enumerate(held):
            for y in held[i + 1 :]:
                if x.owner != y.owner and x.overlaps(y.start, y.end):
                    assert x.kind == READ_LT and y.kind == READ_LT


class TestWireProtocol:
    @pytest.fixture
    def nfs(self, cluster):
        return build_nfs(cluster)

    def test_lock_excludes_other_client(self, cluster, nfs):
        c0, c1, _server = nfs

        def scenario():
            f = yield from c0.create("/db")
            yield from c0.write(f, 0, Payload(b"x" * 100))
            yield from c0.fsync(f)
            yield from c0.lock(f, 0, 50, "write")
            g = yield from c1.open("/db")
            try:
                yield from c1.lock(g, 25, 75, "write")
            except LockConflict:
                # disjoint range still fine
                yield from c1.lock(g, 50, 100, "write")
                return "conflicted-then-disjoint"

        assert drive(cluster.sim, scenario()) == "conflicted-then-disjoint"

    def test_unlock_allows_waiting_peer(self, cluster, nfs):
        c0, c1, _server = nfs

        def scenario():
            f = yield from c0.create("/u")
            yield from c0.lock(f, 0, 10, "write")
            g = yield from c1.open("/u")
            with pytest.raises(LockConflict):
                yield from c1.lock(g, 0, 10, "write")
            yield from c0.unlock(f, 0, 10)
            yield from c1.lock(g, 0, 10, "write")
            return "ok"

        assert drive(cluster.sim, scenario()) == "ok"

    def test_lease_expiry_frees_locks(self, cluster, nfs):
        c0, c1, server = nfs

        def scenario():
            f = yield from c0.create("/lease")
            yield from c0.lock(f, 0, 10, "write")
            server.expire_client(c0._cb)
            g = yield from c1.open("/lease")
            yield from c1.lock(g, 0, 10, "write")  # no longer conflicts
            return "freed"

        assert drive(cluster.sim, scenario()) == "freed"


class TestLockTableBounded:
    """Regression: read paths must not materialise per-fh tables.

    ``test``/``unlock``/``held`` used ``setdefault`` and so inserted an
    empty table for every filehandle ever *queried*; ``release_owner``
    left empty per-fh lists behind.  Over open/lock/close churn the
    table count must stay bounded by the number of filehandles with
    live locks.
    """

    def test_read_paths_do_not_materialise_tables(self):
        lm = LockManager()
        for i in range(100):
            assert lm.test(f"fh{i}", "o", 0, 10, WRITE_LT) is None
            assert lm.held(f"fh{i}") == ()
            assert lm.unlock(f"fh{i}", "o", 0, 10) == 0
        assert len(lm._locks) == 0

    def test_unlock_prunes_emptied_table(self):
        lm = LockManager()
        lm.lock("fh", "o", 0, 10, WRITE_LT)
        assert len(lm._locks) == 1
        lm.unlock("fh", "o", 0, 10)
        assert len(lm._locks) == 0

    def test_release_owner_prunes_emptied_tables(self):
        lm = LockManager()
        for i in range(8):
            lm.lock(f"fh{i}", "o", 0, 10, WRITE_LT)
        lm.lock("shared", "o", 0, 10, READ_LT)
        lm.lock("shared", "p", 20, 30, READ_LT)
        assert lm.release_owner("o") == 9
        assert len(lm._locks) == 1  # only "shared" (p's lock) survives

    def test_open_lock_close_churn_stays_bounded(self):
        lm = LockManager()
        for round_ in range(50):
            fh = f"fh{round_}"
            lm.test(fh, "o", 0, 10, WRITE_LT)
            lm.lock(fh, "o", 0, 10, WRITE_LT)
            lm.held(fh)
            lm.release_owner("o")
            assert len(lm._locks) <= 1
        assert len(lm._locks) == 0
