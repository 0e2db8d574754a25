"""The layout translator gives clients the exact location of every byte
(paper §4.2): for any PVFS2 distribution description, the client's
aggregation row over the translated description places every byte of
any range where the PVFS2 distribution row does."""

import numpy as np
import pytest

from repro.core.aggregation import aggregation_for
from repro.core.layout_translator import translate_aggregation
from repro.pvfs2.distribution import DISTRIBUTIONS

KB = 1024
SEEDS = range(40)
#: Units that are neither powers of two nor divisors of 16 KB.
AWKWARD_UNITS = (3, 7, 1000, 5 * KB + 1, 12 * KB, 24 * KB + 3)


def awkward(unit):
    return unit & (unit - 1) != 0 and (16 * KB) % unit != 0


def draw(seed):
    """A ``simple_stripe`` or ``varstrip`` description: a rotated start
    server, mixed strip lengths, a repeated device, a server that holds
    no strip, and units of any size."""
    rng = np.random.default_rng(seed)
    nservers = int(rng.integers(1, 7))
    if rng.random() < 0.5:
        unit = int(rng.choice(AWKWARD_UNITS)) if rng.random() < 0.5 else int(rng.integers(1, 64 * KB))
        return {
            "type": "simple_stripe",
            "nservers": nservers,
            "stripe_size": unit,
            "start_server": int(rng.integers(0, nservers)),
        }
    nstrips = int(rng.integers(1, 7))
    # Devices drawn with replacement: repeats, and servers left out.
    devices = rng.integers(0, nservers, size=nstrips)
    lengths = rng.integers(1, 48 * KB, size=nstrips)
    if rng.random() < 0.3:
        lengths[:] = lengths[0]
    pattern = [(int(d), int(n)) for d, n in zip(devices, lengths)]
    return {"type": "varstrip", "nservers": nservers, "pattern": pattern}


def shapes(desc):
    """Which of the shapes the draws must cover ``desc`` has."""
    if desc["type"] == "simple_stripe":
        return {
            "awkward_unit": awkward(desc["stripe_size"]),
            "rotated_start": desc["start_server"] != 0,
        }
    devices = [d for d, _ in desc["pattern"]]
    return {
        "awkward_unit": any(awkward(n) for _, n in desc["pattern"]),
        "mixed_lengths": len({n for _, n in desc["pattern"]}) > 1,
        "repeated_device": len(set(devices)) < len(devices),
        "server_without_strip": len(set(devices)) < desc["nservers"],
    }


def test_draws_cover_every_shape():
    covered = {}
    for seed in SEEDS:
        for shape, has in shapes(draw(seed)).items():
            covered[shape] = covered.get(shape, False) or has
    assert covered == dict.fromkeys(
        [
            "awkward_unit",
            "rotated_start",
            "mixed_lengths",
            "repeated_device",
            "server_without_strip",
        ],
        True,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_translated_aggregation_places_bytes_like_the_distribution(seed):
    desc = draw(seed)
    pattern = DISTRIBUTIONS[desc["type"]](desc)
    aggregation = translate_aggregation(desc)
    map_ = aggregation_for(aggregation)
    rng = np.random.default_rng(1000 + seed)
    span = 3 * pattern.cycle
    for _ in range(20):
        offset = int(rng.integers(0, span))
        nbytes = int(rng.integers(0, span))
        expected = [(r.server, r.logical, r.length) for r in pattern.runs(offset, nbytes)]
        for for_write in (False, True):
            got = [(r.server, r.logical, r.length) for r in map_(offset, nbytes, for_write)]
            assert got == expected, (desc, aggregation, offset, nbytes)
