"""Tier-1 slice of the pinned torture trace hashes.

``scripts/trace_pins.py --check`` replays all 300 pinned episodes (CI's
torture-smoke job); this replays every sixth — 50 episodes that still
cover both program modes and all five architectures.
"""

import json

from tests.conftest import load_script as _load_script


def load_script():
    return _load_script("trace_pins")


def test_pin_file_covers_exactly_the_pinned_table():
    script = load_script()
    assert sorted(json.loads(script.PINS.read_text())) == sorted(script.keys())


def test_pinned_subset_replays_bit_identically():
    script = load_script()
    subset = script.keys()[::6]
    assert len(subset) == 50
    assert {k.split(":")[2] for k in subset} == set(script.ARCHES)
    assert {k.split(":")[0] for k in subset} == set(script.MODES)
    assert script.mismatches(subset) == []
