"""Tier-1 slice of the pinned torture trace hashes.

``scripts/trace_pins.py --check`` replays all 360 pinned episodes (CI's
torture-smoke job); this replays every seventh — 52 episodes that still
cover both program modes and all six architectures (a stride of six
would land on one architecture only).
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
    subset = script.keys()[::7]
    assert len(subset) == 52
    assert {k.split(":")[2] for k in subset} == set(script.ARCHES)
    assert {k.split(":")[0] for k in subset} == set(script.MODES)
    assert script.mismatches(subset) == []
