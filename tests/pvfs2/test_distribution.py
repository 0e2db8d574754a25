"""Distribution mapping tests: the rows of ``DISTRIBUTIONS``, striping
correctness and inverses."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import rpc
from repro.pvfs2 import DISTRIBUTIONS, Pvfs2Config, Pvfs2System
from repro.pvfs2.distribution import extents as extents_of
from repro.vfs.api import InvalidArgument, NoEntry
from repro.vfs.striping import StripPattern, round_robin

from tests.conftest import drive


def simple_stripe(nservers, stripe_size, start_server=0):
    desc = {
        "type": "simple_stripe",
        "nservers": nservers,
        "stripe_size": stripe_size,
        "start_server": start_server,
    }
    return DISTRIBUTIONS["simple_stripe"](desc)


def varstrip(nservers, pattern):
    return DISTRIBUTIONS["varstrip"]({"type": "varstrip", "nservers": nservers, "pattern": pattern})


def check_extents(d: StripPattern, offset: int, nbytes: int) -> None:
    """``extents`` is ``runs`` regrouped: one bstream extent per server."""
    runs = d.runs(offset, nbytes)
    extents = extents_of(d, offset, nbytes)
    # One locally-contiguous extent per server touched, in order of first touch.
    assert [e.server for e in extents] == list(dict.fromkeys(r.server for r in runs))
    for e in extents:
        assert list(e.pieces) == [r for r in runs if r.server == e.server]
        pos = e.local
        for piece in e.pieces:
            assert piece.local == pos
            pos += piece.length
        assert pos == e.local + e.length
    # The pieces cover the logical range exactly, and gathering a
    # payload into extents then scattering it back is the identity.
    pieces = sorted((p for e in extents for p in e.pieces), key=lambda p: p.logical)
    assert pieces == runs
    data = bytes(i % 251 for i in range(nbytes))
    out = bytearray(nbytes)
    for e in extents:
        gathered = b"".join(
            data[p.logical - offset : p.logical - offset + p.length] for p in e.pieces
        )
        assert len(gathered) == e.length
        for p in e.pieces:
            at = p.local - e.local
            out[p.logical - offset : p.logical - offset + p.length] = gathered[
                at : at + p.length
            ]
    assert bytes(out) == data
    # An op that revisits no server maps to the same requests as its runs.
    if len(extents) == len(runs):
        assert [(e.server, e.local, e.length) for e in extents] == [
            (r.server, r.local, r.length) for r in runs
        ]


class TestSimpleStripe:
    def test_first_stripes_round_robin(self):
        d = simple_stripe(nservers=3, stripe_size=10)
        assert d.locate(0) == (0, 0, 10)
        assert d.locate(10) == (1, 0, 10)
        assert d.locate(20) == (2, 0, 10)
        assert d.locate(30) == (0, 10, 10)

    def test_mid_stripe_offset(self):
        d = simple_stripe(nservers=2, stripe_size=100)
        server, local, rem = d.locate(250)
        assert (server, local, rem) == (0, 150, 50)

    def test_runs_split_and_merge(self):
        d = simple_stripe(nservers=2, stripe_size=10)
        runs = d.runs(5, 20)
        # [5,10) s0, [10,20) s1, [20,25) s0-local10
        assert [(r.server, r.local, r.length, r.logical) for r in runs] == [
            (0, 5, 5, 5),
            (1, 0, 10, 10),
            (0, 10, 5, 20),
        ]

    def test_runs_merge_contiguous_single_server(self):
        d = simple_stripe(nservers=1, stripe_size=10)
        runs = d.runs(0, 100)
        assert len(runs) == 1
        assert runs[0].length == 100

    def test_logical_size_round_trip_exact_stripes(self):
        d = simple_stripe(nservers=3, stripe_size=10)
        # file of 65 bytes: stripes 0..6, last is 5 bytes on server 0
        local = [0, 0, 0]
        for run in d.runs(0, 65):
            local[run.server] = max(local[run.server], run.local + run.length)
        assert d.logical_size(local) == 65

    def test_logical_size_empty(self):
        d = simple_stripe(nservers=4, stripe_size=10)
        assert d.logical_size([0, 0, 0, 0]) == 0

    def test_logical_size_wrong_arity_rejected(self):
        d = simple_stripe(nservers=2, stripe_size=10)
        with pytest.raises(ValueError):
            d.logical_size([1])

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            simple_stripe(0, 10)
        with pytest.raises(ValueError):
            simple_stripe(2, 0)
        with pytest.raises(ValueError):
            simple_stripe(2, 10, start_server=2)

    @given(
        nservers=st.integers(1, 6),
        stripe=st.integers(1, 64),
        offset=st.integers(0, 10_000),
        nbytes=st.integers(0, 4_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_runs_cover_range_exactly(self, nservers, stripe, offset, nbytes):
        d = simple_stripe(nservers, stripe)
        runs = d.runs(offset, nbytes)
        assert sum(r.length for r in runs) == nbytes
        pos = offset
        for r in runs:
            assert r.logical == pos
            pos += r.length
        # Every byte maps where locate says it should.
        for r in runs:
            server, local, _rem = d.locate(r.logical)
            assert (server, local) == (r.server, r.local)

    def test_extents_one_per_server_in_first_touch_order(self):
        d = simple_stripe(nservers=2, stripe_size=10, start_server=1)
        extents = extents_of(d, 5, 40)
        # [5,10) s1 | [10,20) s0 | [20,30) s1 | [30,40) s0 | [40,45) s1
        assert [(e.server, e.local, e.length) for e in extents] == [
            (1, 5, 20),
            (0, 0, 20),
        ]
        assert [p.logical for p in extents[0].pieces] == [5, 20, 40]
        assert extents_of(d, 7, 0) == []

    @given(
        nservers=st.integers(1, 6),
        stripe=st.integers(1, 64),
        start=st.integers(0, 5),
        offset=st.integers(0, 10_000),
        nbytes=st.integers(0, 4_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_extents(self, nservers, stripe, start, offset, nbytes):
        check_extents(simple_stripe(nservers, stripe, start % nservers), offset, nbytes)

    @given(
        nservers=st.integers(1, 5),
        stripe=st.integers(1, 32),
        size=st.integers(0, 3_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_logical_size_inverse(self, nservers, stripe, size):
        d = simple_stripe(nservers, stripe)
        local = [0] * nservers
        for run in d.runs(0, size):
            local[run.server] = max(local[run.server], run.local + run.length)
        assert d.logical_size(local) == size


class TestVarStrip:
    def test_pattern_layout(self):
        d = varstrip(nservers=3, pattern=[(0, 5), (1, 3), (2, 7)])
        assert d.locate(0) == (0, 0, 5)
        assert d.locate(5) == (1, 0, 3)
        assert d.locate(8) == (2, 0, 7)
        # Second cycle: server 0 again, local continues its own stream.
        assert d.locate(15) == (0, 5, 5)

    def test_same_server_twice_per_cycle(self):
        d = varstrip(nservers=2, pattern=[(0, 4), (1, 4), (0, 2)])
        # Third strip also on server 0, local base = 4 in cycle 0.
        assert d.locate(8) == (0, 4, 2)
        # Cycle 1 first strip: server 0 local = per_cycle(6)*1 = 6.
        assert d.locate(10) == (0, 6, 4)

    def test_invalid_patterns(self):
        with pytest.raises(ValueError):
            varstrip(2, [])
        with pytest.raises(ValueError):
            varstrip(2, [(5, 4)])
        with pytest.raises(ValueError):
            varstrip(2, [(0, 0)])

    @given(
        pattern=st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, 16)), min_size=1, max_size=5
        ),
        offset=st.integers(0, 2_000),
        nbytes=st.integers(0, 1_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_runs_cover_range(self, pattern, offset, nbytes):
        d = varstrip(4, pattern)
        runs = d.runs(offset, nbytes)
        assert sum(r.length for r in runs) == nbytes
        pos = offset
        for r in runs:
            assert r.logical == pos
            pos += r.length

    @given(
        pattern=st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, 16)), min_size=1, max_size=5
        ),
        offset=st.integers(0, 2_000),
        nbytes=st.integers(0, 1_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_extents(self, pattern, offset, nbytes):
        # Includes patterns that name one server several times per cycle.
        check_extents(varstrip(4, pattern), offset, nbytes)

    @given(
        pattern=st.lists(
            st.tuples(st.integers(0, 2), st.integers(1, 8)), min_size=1, max_size=4
        ),
        size=st.integers(0, 600),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_logical_size_inverse(self, pattern, size):
        d = varstrip(3, pattern)
        local = [0, 0, 0]
        for run in d.runs(0, size):
            local[run.server] = max(local[run.server], run.local + run.length)
        assert d.logical_size(local) == size

    @given(
        pattern=st.lists(
            st.tuples(st.integers(0, 2), st.integers(1, 8)), min_size=1, max_size=4
        ),
        offsets=st.lists(st.integers(0, 400), min_size=1, max_size=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_no_two_bytes_share_a_local_slot(self, pattern, offsets):
        """Distinct logical bytes never collide on (server, local)."""
        d = varstrip(3, pattern)
        seen = {}
        for off in range(0, 300):
            server, local, _ = d.locate(off)
            key = (server, local)
            assert key not in seen or seen[key] == off
            seen[key] = off


def test_unknown_description_rejected(cluster):
    """The MDS refuses to create a file no row can place."""
    fs = Pvfs2System(cluster.sim, cluster.storage, Pvfs2Config())

    def create():
        args = {"path": "/m", "dist": {"type": "mystery", "nservers": 3}}
        yield from rpc.call(cluster.clients[0], fs.mds.rpc, "create", args)

    with pytest.raises(InvalidArgument):
        drive(cluster.sim, create())
    with pytest.raises(NoEntry):
        fs.mds.namespace.resolve("/m")


def test_extents_start_a_second_extent_where_runs_do_not_abut():
    """The one-extent-per-server fact is a property of striping, not an
    assumption: a distribution that breaks it still maps correctly."""

    class Backwards(StripPattern):
        def locate(self, offset):
            server, local, remaining = super().locate(offset)
            # Server 0 stores its 10-byte stripe units in reverse order.
            if server == 0:
                local = (9 - local // 10) * 10 + local % 10
            return server, local, remaining

    extents = extents_of(Backwards(round_robin(2, 10)), 0, 40)
    assert [(e.server, e.local, e.length) for e in extents] == [
        (0, 90, 10),
        (1, 0, 20),
        (0, 80, 10),
    ]
    assert [p.logical for e in extents for p in e.pieces] == [0, 10, 30, 20]
