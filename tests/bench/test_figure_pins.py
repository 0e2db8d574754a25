"""Tier-1 slice of the pinned figure hashes.

``scripts/figure_pins.py --check`` replays all 14 panels (CI's
torture-smoke job); this replays three: the build workload, a metadata
panel and a small-I/O panel.
"""

import json

from tests.conftest import load_script


def test_pin_file_covers_exactly_the_panels():
    script = load_script("figure_pins")
    assert sorted(json.loads(script.PINS.read_text())) == sorted(script.keys())


def test_pinned_slice_replays_bit_identically():
    script = load_script("figure_pins")
    assert script.mismatches(["sshbuild", "fig8a", "fig7a"]) == []
