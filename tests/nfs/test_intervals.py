"""IntervalSet unit and property tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nfs.intervals import IntervalSet


class TestBasics:
    def test_empty(self):
        s = IntervalSet()
        assert not s
        assert s.total == 0
        assert s.gaps(0, 10) == [(0, 10)]
        assert s.covers(5, 5)  # empty range trivially covered

    def test_add_and_cover(self):
        s = IntervalSet()
        s.add(10, 20)
        assert s.covers(10, 20)
        assert s.covers(12, 15)
        assert not s.covers(5, 15)
        assert not s.covers(15, 25)

    def test_adjacent_merge(self):
        s = IntervalSet()
        s.add(0, 10)
        s.add(10, 20)
        assert list(s) == [(0, 20)]

    def test_overlapping_merge(self):
        s = IntervalSet()
        s.add(0, 10)
        s.add(5, 15)
        s.add(30, 40)
        assert list(s) == [(0, 15), (30, 40)]

    def test_bridge_merge(self):
        s = IntervalSet()
        s.add(0, 10)
        s.add(20, 30)
        s.add(8, 22)
        assert list(s) == [(0, 30)]

    def test_empty_add_ignored(self):
        s = IntervalSet()
        s.add(5, 5)
        s.add(7, 3)
        assert not s

    def test_remove_middle_splits(self):
        s = IntervalSet()
        s.add(0, 30)
        s.remove(10, 20)
        assert list(s) == [(0, 10), (20, 30)]

    def test_remove_edges(self):
        s = IntervalSet()
        s.add(0, 30)
        s.remove(0, 10)
        s.remove(25, 40)
        assert list(s) == [(10, 25)]

    def test_gaps(self):
        s = IntervalSet()
        s.add(10, 20)
        s.add(30, 40)
        assert s.gaps(0, 50) == [(0, 10), (20, 30), (40, 50)]
        assert s.gaps(12, 18) == []
        assert s.gaps(15, 35) == [(20, 30)]

    def test_runs_in(self):
        s = IntervalSet()
        s.add(10, 20)
        s.add(30, 40)
        assert s.runs_in(15, 35) == [(15, 20), (30, 35)]
        assert s.runs_in(0, 5) == []

    @staticmethod
    def _two_runs():
        s = IntervalSet()
        s.add(10, 20)
        s.add(30, 40)
        return s

    def test_take_trims_the_front_of_the_first_run(self):
        s = self._two_runs()
        assert s.take(10, 15) == 5
        assert list(s) == [(15, 20), (30, 40)]

    def test_take_to_the_end_of_the_first_run_drops_it(self):
        s = self._two_runs()
        assert s.take(10, 20) == 10
        assert list(s) == [(30, 40)]

    def test_take_from_before_the_first_run(self):
        s = self._two_runs()
        assert s.take(5, 15) == 5
        assert list(s) == [(15, 20), (30, 40)]

    @pytest.mark.parametrize(
        "end, run", [(35, (20, 40)), (40, (20, 40)), (45, (20, 45))]
    )
    def test_add_inside_the_tail_run(self, end, run):
        # ``end`` below, at and beyond the tail run's end.
        s = IntervalSet()
        s.add(0, 10)
        s.add(20, 40)
        assert s.add(25, end) == run
        assert list(s) == [(0, 10), run]

    def test_copy_is_independent(self):
        s = IntervalSet()
        s.add(0, 10)
        c = s.copy()
        c.add(20, 30)
        assert list(s) == [(0, 10)]
        assert list(c) == [(0, 10), (20, 30)]


ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove"]),
        st.integers(0, 100),
        st.integers(0, 100),
    ),
    max_size=40,
)


class ReferenceSet:
    """Boolean-array reference model."""

    def __init__(self, n=220):
        self.bits = [False] * n

    def add(self, s, e):
        for i in range(s, min(e, len(self.bits))):
            self.bits[i] = True

    def remove(self, s, e):
        for i in range(s, min(e, len(self.bits))):
            self.bits[i] = False

    def covers(self, s, e):
        return all(self.bits[i] for i in range(s, e))

    def total(self):
        return sum(self.bits)


class TestProperties:
    @given(operations=ops)
    @settings(max_examples=120, deadline=None)
    def test_property_matches_reference_model(self, operations):
        ivs = IntervalSet()
        ref = ReferenceSet()
        for op, a, b in operations:
            s, e = min(a, b), max(a, b)
            getattr(ivs, op)(s, e)
            getattr(ref, op)(s, e)
        assert ivs.total == ref.total()
        for s, e in [(0, 100), (10, 50), (99, 100)]:
            assert ivs.covers(s, e) == ref.covers(s, e)
        # intervals sorted, disjoint, non-adjacent
        prev_end = -1
        for s, e in ivs:
            assert s < e
            assert s > prev_end  # strictly after previous end => coalesced
            prev_end = e

    @given(operations=ops, window=st.tuples(st.integers(0, 100), st.integers(0, 100)))
    @settings(max_examples=80, deadline=None)
    def test_property_gaps_and_runs_partition_window(self, operations, window):
        ivs = IntervalSet()
        for op, a, b in operations:
            getattr(ivs, op)(min(a, b), max(a, b))
        lo, hi = min(window), max(window)
        pieces = sorted(ivs.gaps(lo, hi) + ivs.runs_in(lo, hi))
        pos = lo
        for s, e in pieces:
            assert s == pos
            pos = e
        assert pos == hi or (lo == hi and not pieces)
