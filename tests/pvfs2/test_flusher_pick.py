"""Differential test: the flusher's one-walk C-SCAN pick against the
list-based pick it replaced.

The storage daemon's write-behind flusher chooses the next dirty
extent with :func:`repro.pvfs2.storage.cscan_pick`, one walk of the
disk's dirty map.  It used to build the list of every bstream's first
extent, filter those at or after the sweep position, and take the
minimum of that or of all.  The drawn maps below have empty interval
sets (a write waiting for admission tokens leaves one), several
bstreams in any insertion order, and sweep positions before, on,
between and past them; both picks must name the same bstream, or both
must find nothing to do.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nfs.intervals import IntervalSet
from repro.pvfs2.storage import cscan_pick


def reference_pick(dirty, sweep_pos):
    """The list-based pick: ``None`` when idle, else the bstream handle."""
    if not any(dirty.values()):
        return None
    candidates = [(h, next(iter(ivs))[0]) for h, ivs in dirty.items() if ivs]
    ahead = [c for c in candidates if c >= sweep_pos]
    handle, _start = min(ahead) if ahead else min(candidates)
    return handle


@st.composite
def dirty_maps(draw):
    handles = draw(st.lists(st.integers(0, 9), unique=True, max_size=6))
    dirty = {}
    starts = [0]
    for handle in handles:  # insertion order is drawn too
        ivs = IntervalSet()
        for start, length in draw(
            st.lists(st.tuples(st.integers(0, 200), st.integers(1, 40)), max_size=3)
        ):
            ivs.add(start, start + length)
            starts += [start - 1, start, start + 1]
        dirty[handle] = ivs
    # On a drawn bstream or beside one, at, before or past its extents.
    sweep_handle = draw(st.one_of(st.sampled_from(handles or [0]), st.integers(-1, 10)))
    sweep_offset = draw(st.one_of(st.sampled_from(starts), st.integers(0, 260)))
    return dirty, (sweep_handle, sweep_offset)


@given(dirty_maps())
@settings(max_examples=150, deadline=None)
def test_one_walk_picks_what_the_candidate_lists_picked(case):
    dirty, sweep_pos = case
    assert cscan_pick(dirty, sweep_pos) == reference_pick(dirty, sweep_pos)


def test_the_sweep_wraps_and_an_empty_set_is_idle():
    def ivs(*runs):
        out = IntervalSet()
        for start, end in runs:
            out.add(start, end)
        return out

    dirty = {7: ivs((50, 60)), 3: ivs((10, 20)), 5: IntervalSet()}
    assert cscan_pick(dirty, (3, 10)) == 3  # at the sweep's own offset
    assert cscan_pick(dirty, (3, 11)) == 7  # past it: the next bstream
    assert cscan_pick(dirty, (7, 51)) == 3  # past every extent: wrap
    assert cscan_pick({5: IntervalSet()}, (0, 0)) is None
    assert cscan_pick({}, (0, 0)) is None
