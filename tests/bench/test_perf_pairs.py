"""``scripts/perf_pairs.py``: the section-8 verdict it prints per host
metric, and its loop over several workloads."""

import pytest

from tests.conftest import load_script

#: The parent's ten runs: median 1.0, quartiles 0.9825-1.0175 (spread 0.035).
PARENT = [0.95, 0.97, 0.98, 0.99, 1.00, 1.00, 1.01, 1.02, 1.03, 1.05]


@pytest.fixture(scope="module")
def perf_pairs():
    return load_script("perf_pairs")


@pytest.fixture(scope="module")
def verdict(perf_pairs):
    return perf_pairs.verdict


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


def record(sim_time, wall, events=1000):
    metrics = {"sim_time_s": sim_time, "events_total": events, "wall_norm_s": wall}
    metrics.update(setup_s=0.1, peak_rss_mb=50.0)
    return {
        "end_to_end": {key: {"value": value} for key, value in metrics.items()},
        "failed": 0,
        "sim_fingerprint": f"fp{events}",
    }


def test_every_workload_runs_and_differing_physics_exits_one(perf_pairs, capsys):
    """Two workloads: the first is a clean gain; the change moves the
    second's simulated time, which fails the run after both have run."""
    runs = []

    def stub(side, workload):
        runs.append((side, workload))
        if workload == "small_write":
            return record(17.5, 1.0 if side == "parent" else 0.8)
        return record(2.0 if side == "parent" else 2.5, 0.3)

    assert perf_pairs.run_pairs(["small_write", "small_read"], 3, stub) == 1
    out = capsys.readouterr().out
    assert runs[:6] == [
        ("parent", "small_write"), ("change", "small_write"),
        ("change", "small_write"), ("parent", "small_write"),
        ("parent", "small_write"), ("change", "small_write"),
    ]
    assert runs[6:] == [("parent", "small_read"), ("change", "small_read")]
    first, second = out.split("== small_read")
    assert "small_write: sim_time_s 17.5, failed 0" in first
    assert "wall_norm_s: GAIN: ahead in 3/3" in first
    assert "pair 1, change: physics differ" in second
    assert "GAIN" not in second


def test_equal_physics_on_every_workload_exits_zero(perf_pairs, capsys):
    def stub(side, workload):
        return record(len(workload), 0.5, events=900 if side == "change" else 1000)

    assert perf_pairs.run_pairs(["a", "bb"], 2, stub) == 0
    out = capsys.readouterr().out
    assert out.count("events_total parent 1000  change 900: fewer, -10.0 %") == 2
