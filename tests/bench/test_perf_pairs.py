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


@pytest.fixture(scope="module")
def bound_verdict(perf_pairs):
    return perf_pairs.bound_verdict


def test_a_small_lean_inside_a_tight_spread_is_within_bound(bound_verdict):
    # The section-8 rule reads a +0.3 % memory lean as a regression; the
    # 10 % bound does not.
    parent = [50.0, 50.0, 50.1, 50.1, 50.1]
    change = [50.2, 50.2, 50.25, 50.3, 50.3]
    assert bound_verdict(parent, change, 0.10, "lower") == (
        "within bound: median 0.3 % worse, bound 10 %"
    )


def test_a_median_past_the_bound_is_worse(bound_verdict):
    change = [p * 1.3 for p in PARENT]
    assert bound_verdict(PARENT, change, 0.25, "lower").startswith(
        "WORSE than bound: median 30.0 % worse, bound 25 %"
    )
    # "higher is better": the bad direction is down.
    assert bound_verdict(PARENT, [p * 0.7 for p in PARENT], 0.25, "higher").startswith(
        "WORSE than bound: median 30.0 % worse"
    )
    assert bound_verdict(PARENT, change, 0.25, "higher") == (
        "within bound: every change run better than every parent run"
        " (median 30.0 % better, bound 25 %)"
    )


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better(
    bound_verdict,
):
    noisy = [0.6, 0.8, 1.0, 1.2, 1.4, 1.6]
    assert bound_verdict(noisy, [0.7, 0.9, 1.1, 1.3, 1.5, 1.7], 0.10, "lower").startswith(
        "unresolved: spread"
    )
    # The change's own spread counts too.
    assert bound_verdict(PARENT, noisy, 0.10, "lower").startswith("unresolved")
    assert bound_verdict(noisy, [0.1, 0.2, 0.3, 0.4, 0.5, 0.55], 0.10, "lower").startswith(
        "within bound: every change run better than every parent run"
    )


def test_compare_prints_a_bound_verdict_per_end_to_end_metric_and_fails_past_one(
    perf_pairs, capsys
):
    bounds = perf_pairs.end_to_end_bounds()
    assert set(bounds) == {"wall_norm_s", "setup_s", "events_total", "sim_time_s", "peak_rss_mb"}

    def stub(side, workload):
        return record(1.0, 1.0 if side == "parent" else 1.5)

    assert perf_pairs.run_pairs(["w"], 2, stub) == 1
    out = capsys.readouterr().out
    assert "wall_norm_s bound: WORSE than bound: median 50.0 % worse, bound 25 %" in out
    for key in ("setup_s", "events_total", "sim_time_s", "peak_rss_mb"):
        assert f"{key} bound: within bound: medians equal, bound" in out
