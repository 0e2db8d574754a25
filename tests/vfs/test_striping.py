"""The one placement walk (repro.vfs.striping) and the table rows built on it.

Three angles: a per-byte brute-force oracle on random strip patterns;
golden vectors recorded from the six hand-written walks this module
replaced (``striping_golden.json``, written at the commit before the
replacement by running the old ``SimpleStripe`` / ``VarStrip`` ``runs``
and ``logical_size`` and the old drivers' ``map`` on fixed inputs, and
keyed by those class names); and the size inversions against each other.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.aggregation import aggregation_for
from repro.pvfs2.distribution import DISTRIBUTIONS
from repro.vfs.striping import Run, StripPattern


def place(strips, ndevices, nbytes):
    """Brute force: ``(device, local)`` of every logical byte below ``nbytes``,
    found by laying the cycle down one byte at a time."""
    fill = [0] * ndevices
    placed = []
    while len(placed) < nbytes:
        for device, length in strips:
            for _ in range(length):
                placed.append((device, fill[device]))
                fill[device] += 1
    return placed[:nbytes]


def oracle_runs(placed, offset, nbytes):
    """Maximal runs of ``[offset, offset+nbytes)``: a byte extends the run
    before it when it sits one past it on the same device."""
    out = []
    for pos in range(offset, offset + nbytes):
        device, local = placed[pos]
        if out and out[-1][0] == device and out[-1][1] + out[-1][2] == local:
            out[-1][2] += 1
        else:
            out.append([device, local, 1, pos])
    return [Run(*r) for r in out]


def oracle_local_sizes(placed, ndevices, size):
    sizes = [0] * ndevices
    for device, local in placed[:size]:
        sizes[device] = max(sizes[device], local + 1)
    return sizes


def random_pattern(rng):
    """Patterns of every shape: one strip length or several, repeated
    devices, devices no strip names, a single device."""
    ndevices = int(rng.integers(1, 6))
    nstrips = int(rng.integers(1, 7))
    uniform = rng.random() < 0.4
    unit = int(rng.integers(1, 9))
    used = rng.integers(0, ndevices, size=nstrips)
    if rng.random() < 0.3:
        used[:] = used[0]
    return [
        (int(device), unit if uniform else int(rng.integers(1, 9))) for device in used
    ], ndevices


class TestAgainstPerByteOracle:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_patterns(self, seed):
        rng = np.random.default_rng(seed)
        strips, ndevices = random_pattern(rng)
        pattern = StripPattern(strips, ndevices)
        span = 6 * pattern.cycle + 3
        placed = place(strips, ndevices, span)
        for pos in range(span):
            device, local, remaining = pattern.locate(pos)
            assert (device, local) == placed[pos]
            assert remaining >= 1
        for _ in range(12):
            offset = int(rng.integers(0, span))
            nbytes = int(rng.integers(0, span - offset + 1))
            assert pattern.runs(offset, nbytes) == oracle_runs(placed, offset, nbytes)
        # One range crossing every cycle placed.
        assert pattern.runs(1, span - 1) == oracle_runs(placed, 1, span - 1)
        for size in range(span + 1):
            sizes = oracle_local_sizes(placed, ndevices, size)
            assert pattern.local_sizes(size) == sizes
            assert pattern.logical_size(sizes) == size

    def test_repeated_device_merges_across_strips_and_cycles(self):
        pattern = StripPattern([(0, 3), (0, 2), (1, 4), (0, 1)])
        assert pattern.runs(0, 5) == [Run(0, 0, 5, 0)]
        # Last strip of one cycle and first of the next are both device 0.
        assert pattern.runs(9, 4) == [Run(0, 5, 4, 9)]
        assert pattern.per_cycle == [6, 4]

    def test_device_without_a_strip(self):
        pattern = StripPattern([(2, 4)], ndevices=4)
        assert pattern.local_sizes(10) == [0, 0, 10, 0]
        assert pattern.logical_size([0, 0, 10, 0]) == 10
        # A stray bstream on a device the pattern never uses adds nothing.
        assert pattern.logical_size([7, 0, 10, 0]) == 10

    def test_single_device_is_the_identity(self):
        pattern = StripPattern([(0, 8)])
        assert pattern.runs(5, 1000) == [Run(0, 5, 1000, 5)]
        assert pattern.local_sizes(12345) == [12345]

    def test_invalid(self):
        with pytest.raises(ValueError):
            StripPattern([])
        with pytest.raises(ValueError):
            StripPattern([(0, 0)])
        with pytest.raises(ValueError):
            StripPattern([(-1, 4)])
        with pytest.raises(ValueError):
            StripPattern([(2, 4)], ndevices=2)
        pattern = StripPattern([(0, 4), (1, 4)])
        with pytest.raises(ValueError):
            pattern.runs(-1, 4)
        with pytest.raises(ValueError):
            pattern.runs(0, -4)
        with pytest.raises(ValueError):
            pattern.local_sizes(-1)
        with pytest.raises(ValueError):
            pattern.logical_size([1])


# ---------------------------------------------------------------------------
# Golden vectors from the replaced walks
# ---------------------------------------------------------------------------

GOLDEN = json.loads((Path(__file__).parent / "striping_golden.json").read_text())


def simple_stripe(nservers, stripe_size, start_server=0):
    return {
        "type": "simple_stripe",
        "nservers": nservers,
        "stripe_size": stripe_size,
        "start_server": start_server,
    }


def pvfs2_varstrip(nservers, pattern):
    return {"type": "varstrip", "nservers": nservers, "pattern": pattern}


#: The recorded class -> its constructor arguments as a description.
DESCRIPTIONS = {
    "SimpleStripe": simple_stripe,
    "VarStrip": pvfs2_varstrip,
    "RoundRobinDriver": lambda nslots, unit, first=0: {
        "type": "round_robin",
        "nslots": nslots,
        "stripe_unit": unit,
        "first_slot": first,
    },
    "DeviceCycleDriver": lambda cycle, unit: {
        "type": "device_cycle",
        "cycle": cycle,
        "stripe_unit": unit,
    },
    "VarStripDriver": lambda pattern: {"type": "varstrip", "pattern": pattern},
    "HierarchicalDriver": lambda ngroups, group_size, outer, inner: {
        "type": "hierarchical",
        "ngroups": ngroups,
        "group_size": group_size,
        "outer_unit": outer,
        "inner_unit": inner,
    },
}


def pattern_of(dist):
    return DISTRIBUTIONS[dist["type"]](dist)


@pytest.mark.parametrize(
    "entry", GOLDEN, ids=[f"{e['cls']}{i}" for i, e in enumerate(GOLDEN)]
)
def test_golden_vectors_from_the_six_replaced_walks(entry):
    desc = DESCRIPTIONS[entry["cls"]](*entry["args"])
    if "map" in entry:
        map_ = aggregation_for(desc)
        for offset, nbytes, expected in entry["map"]:
            got = map_(offset, nbytes)
            assert [[r.server, r.logical, r.length] for r in got] == expected
        return
    pattern = pattern_of(desc)
    for offset, nbytes, expected in entry["runs"]:
        got = pattern.runs(offset, nbytes)
        assert [[r.server, r.local, r.length, r.logical] for r in got] == expected
    for sizes, expected in entry["logical_size"]:
        assert pattern.logical_size(sizes) == expected


def test_golden_file_covers_all_six_classes():
    assert {e["cls"] for e in GOLDEN} == set(DESCRIPTIONS)
    for entry in GOLDEN:
        assert len(entry.get("runs", entry.get("map"))) >= 12
        assert set(entry) in ({"cls", "args", "map"}, {"cls", "args", "runs", "logical_size"})


# ---------------------------------------------------------------------------
# The two size inversions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "desc",
    [
        simple_stripe(3, 10),
        simple_stripe(4, 7, start_server=2),
        simple_stripe(1, 5),
        pvfs2_varstrip(3, [(0, 5), (1, 3), (2, 7)]),
        pvfs2_varstrip(2, [(0, 4), (1, 4), (0, 2)]),
        pvfs2_varstrip(4, [(3, 1), (3, 2), (0, 16), (3, 1)]),
    ],
    ids=lambda d: f"{d['type']}-{d['nservers']}-{pattern_of(d).cycle}",
)
def test_logical_size_inverts_local_sizes(desc):
    dist = pattern_of(desc)
    for size in range(4 * dist.cycle + 2):
        sizes = dist.local_sizes(size)
        assert sum(sizes) == size
        assert dist.logical_size(sizes) == size
        # What the replaced truncate computed by walking the file.
        walked = [0] * desc["nservers"]
        for run in dist.runs(0, size):
            walked[run.server] = max(walked[run.server], run.local + run.length)
        assert sizes == walked
