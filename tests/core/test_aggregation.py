"""Aggregation driver mapping tests: the rows of ``AGGREGATIONS``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import AGGREGATIONS, aggregation_for
from repro.vfs.striping import Run


def round_robin(nslots, stripe_unit, first_slot=0):
    return aggregation_for(
        {"type": "round_robin", "nslots": nslots, "stripe_unit": stripe_unit, "first_slot": first_slot}
    )


def device_cycle(cycle, stripe_unit):
    return aggregation_for({"type": "device_cycle", "cycle": cycle, "stripe_unit": stripe_unit})


def varstrip(pattern):
    return aggregation_for({"type": "varstrip", "pattern": pattern})


def hierarchical(ngroups, group_size, outer_unit, inner_unit):
    return aggregation_for(
        {
            "type": "hierarchical",
            "ngroups": ngroups,
            "group_size": group_size,
            "outer_unit": outer_unit,
            "inner_unit": inner_unit,
        }
    )


def replicated(inner, replicas):
    return aggregation_for({"type": "replicated", "inner": inner, "replicas": replicas})


RR_2x10 = {"type": "round_robin", "nslots": 2, "stripe_unit": 10}


def slots(runs):
    return [(r.server, r.logical, r.length) for r in runs]


def covered(runs, offset, nbytes):
    """Runs must tile [offset, offset+nbytes) in logical order."""
    pos = offset
    for run in runs:
        assert run.logical == pos
        assert run.length > 0
        pos += run.length
    return pos == offset + nbytes


class TestRoundRobin:
    def test_basic_striping(self):
        assert slots(round_robin(nslots=3, stripe_unit=10)(0, 35)) == [
            (0, 0, 10),
            (1, 10, 10),
            (2, 20, 10),
            (0, 30, 5),
        ]

    def test_mid_stripe_start(self):
        assert slots(round_robin(nslots=2, stripe_unit=10)(15, 10)) == [
            (1, 15, 5),
            (0, 20, 5),
        ]

    def test_adjacent_same_slot_merges(self):
        runs = round_robin(nslots=1, stripe_unit=10)(0, 100)
        assert len(runs) == 1
        assert runs[0].length == 100

    def test_empty_map(self):
        assert round_robin(2, 10)(5, 0) == []

    def test_invalid(self):
        with pytest.raises(ValueError):
            round_robin(0, 10)
        with pytest.raises(ValueError):
            round_robin(2, 10, first_slot=2)
        with pytest.raises(ValueError):
            round_robin(2, 10)(-1, 5)

    @given(
        nslots=st.integers(1, 6),
        unit=st.integers(1, 64),
        offset=st.integers(0, 5000),
        nbytes=st.integers(0, 2000),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_tiles_range(self, nslots, unit, offset, nbytes):
        runs = round_robin(nslots, unit)(offset, nbytes)
        assert covered(runs, offset, nbytes)
        for run in runs:
            assert run.server == (run.logical // unit) % nslots


class TestDeviceCycle:
    def test_weighted_cycle(self):
        runs = device_cycle(cycle=[0, 1, 0, 2], stripe_unit=5)(0, 20)
        assert [r.server for r in runs] == [0, 1, 0, 2]

    def test_cycle_merges_repeats(self):
        runs = device_cycle(cycle=[0, 0, 1], stripe_unit=5)(0, 15)
        assert [(r.server, r.length) for r in runs] == [(0, 10), (1, 5)]

    def test_invalid(self):
        with pytest.raises(ValueError):
            device_cycle([], 5)
        with pytest.raises(ValueError):
            device_cycle([-1], 5)


class TestVarStrip:
    def test_pattern(self):
        assert slots(varstrip(pattern=[(0, 7), (1, 3)])(0, 20)) == [
            (0, 0, 7),
            (1, 7, 3),
            (0, 10, 7),
            (1, 17, 3),
        ]

    @given(
        pattern=st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, 16)), min_size=1, max_size=4
        ),
        offset=st.integers(0, 1000),
        nbytes=st.integers(0, 500),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_tiles_range(self, pattern, offset, nbytes):
        assert covered(varstrip(pattern)(offset, nbytes), offset, nbytes)


class TestReplicated:
    def test_write_fans_out_to_all_replicas(self):
        runs = replicated(RR_2x10, replicas=[0, 2])(0, 20, for_write=True)
        # Each inner run appears on slot and slot+2.
        assert sorted((r.server, r.logical) for r in runs) == [(0, 0), (1, 10), (2, 0), (3, 10)]

    def test_read_uses_one_replica_per_segment(self):
        inner = aggregation_for(RR_2x10)
        runs = replicated(RR_2x10, replicas=[0, 2])(0, 40, for_write=False)
        assert covered(runs, 0, 40)
        # Alternating replica offsets spread the read load.
        offsets_used = {r.server - inner(r.logical, 1)[0].server for r in runs}
        assert offsets_used == {0, 2}

    def test_invalid(self):
        with pytest.raises(ValueError):
            replicated({"type": "round_robin", "nslots": 1, "stripe_unit": 1}, [])


class TestHierarchical:
    def test_two_level_layout(self):
        # 2 groups of 2 slots; outer unit 20, inner unit 10.
        runs = hierarchical(ngroups=2, group_size=2, outer_unit=20, inner_unit=10)(0, 80)
        assert covered(runs, 0, 80)
        assert [r.server for r in runs] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_inner_wraps_within_group(self):
        runs = hierarchical(ngroups=1, group_size=2, outer_unit=40, inner_unit=10)(0, 40)
        assert [r.server for r in runs] == [0, 1, 0, 1]

    def test_invalid_units(self):
        with pytest.raises(ValueError):
            hierarchical(2, 2, 10, 20)  # outer < inner
        with pytest.raises(ValueError):
            hierarchical(2, 2, 25, 10)  # not a multiple


class TestRegistry:
    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            aggregation_for({"type": "exotic"})

    def test_custom_driver_plugs_in(self):
        """A new scheme is a new row."""
        AGGREGATIONS["slot_zero"] = lambda d: lambda offset, nbytes, for_write=False: [
            Run(0, offset, nbytes, offset)
        ]
        try:
            assert aggregation_for({"type": "slot_zero"})(0, 100) == [Run(0, 0, 100, 0)]
        finally:
            del AGGREGATIONS["slot_zero"]
