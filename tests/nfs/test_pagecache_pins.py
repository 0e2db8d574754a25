"""Replay the page-cache golden counters (``scripts/pagecache_pins.py``).

Recorded at the commit before the ``PageCache`` hit path existed: a
change to the cache's bookkeeping that moves one simulated instant, one
event, one RPC, one counter or one byte read on any program fails here.
"""

import json

from tests.conftest import load_script


def test_pin_file_covers_exactly_the_pinned_table():
    script = load_script("pagecache_pins")
    table = script.keys()
    assert sorted(json.loads(script.PINS.read_text())) == sorted(table)
    assert {k.split(":")[0] for k in table} == set(script.CONFIGS)
    assert {k.split(":")[1] for k in table} == set(script.ARCHES)
    assert {k.split(":")[2] for k in table} == set(script.MIXES)


def test_every_pinned_program_replays_bit_identically():
    script = load_script("pagecache_pins")
    assert script.mismatches(script.keys()) == []
