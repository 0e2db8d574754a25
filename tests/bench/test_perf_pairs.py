"""The section-8 verdict ``scripts/perf_pairs.py`` prints per host metric."""

import pytest

from tests.conftest import load_script

#: The parent's ten runs: median 1.0, quartiles 0.9825-1.0175 (spread 0.035).
PARENT = [0.95, 0.97, 0.98, 0.99, 1.00, 1.00, 1.01, 1.02, 1.03, 1.05]


@pytest.fixture(scope="module")
def verdict():
    return load_script("perf_pairs").verdict


def test_gain_needs_nine_tenths_and_a_gap_beyond_the_spread(verdict):
    change = [p - 0.2 for p in PARENT[:9]] + [PARENT[9] + 0.1]
    assert verdict(PARENT, change).startswith("GAIN: ahead in 9/10")


def test_regression_mirrors_gain(verdict):
    change = [p + 0.2 for p in PARENT]
    assert verdict(PARENT, change).startswith("REGRESSION: behind in 10/10")


def test_too_few_pairs_won_is_unresolved(verdict):
    change = [p - 0.2 for p in PARENT[:8]] + [p + 0.1 for p in PARENT[8:]]
    result = verdict(PARENT, change)
    assert result.startswith("UNRESOLVED: ahead in 8/10 (needs nine tenths)")
    assert "quartiles" not in result


def test_a_gap_inside_the_parent_spread_is_unresolved(verdict):
    change = [p - 0.01 for p in PARENT]
    assert verdict(PARENT, change) == (
        "UNRESOLVED: medians +0.0100 apart, parent's quartiles 0.0350"
    )


def test_ties_count_for_neither_side(verdict):
    # Nine wins and a tie is a gain; eight wins and two ties is not.
    nine = [p - 0.2 for p in PARENT[:9]] + PARENT[9:]
    assert verdict(PARENT, nine).startswith("GAIN: ahead in 9/10")
    eight = [p - 0.2 for p in PARENT[:8]] + PARENT[8:]
    assert verdict(PARENT, eight).startswith("UNRESOLVED: ahead in 8/10")
    # All ties: neither ahead nor behind, and no gap.
    assert verdict(PARENT, list(PARENT)).startswith("UNRESOLVED: ahead in 0/10")
