"""``BENCHMARK.json`` against its contract, and against what the runner emits."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RUN = [sys.executable, str(ROOT / "perf" / "run.py")]


def _names(section):
    return [m["name"] for m in SPEC[section]]


def test_benchmark_json_is_within_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["perf"]
    assert SPEC["command"][:2] == ["python3", "perf/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert len(SPEC["workloads"]) == 7
    assert 1 <= len(SPEC["end_to_end"]) <= 6 and 1 <= len(SPEC["per_layer"]) <= 128
    names = _names("workloads") + _names("end_to_end") + _names("per_layer")
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    # 4 + 22 runs per workload inside 3420 s: a run must fit with room to spare.
    assert 3420 / (4 + 22 * len(SPEC["workloads"])) > 1.5 * SPEC["run_seconds"]


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """The whole suite at a tenth of the scale, plain and traced."""
    tmp = tmp_path_factory.mktemp("quick")
    records = {}
    for trace in (0, 1):
        out = tmp / f"trace{trace}.json"
        done = subprocess.run(
            RUN + ["--quick", "--trace", str(trace), "--out", str(out)],
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        records[trace] = json.loads(out.read_text())
    return records, tmp


def test_quick_suite_emits_exactly_what_is_declared(quick):
    records, _ = quick
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        summary = records[trace]
        assert summary["claim"] is None and summary["correct"] is True
        assert list(summary["workloads"]) == _names("workloads")
        for name, record in summary["workloads"].items():
            assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
            assert record["fail_pct"] == 0.0
            assert sorted(record[section]) == sorted(_names(section)), name
            for metric, m in record[section].items():
                assert m["unit"] == units[metric], (name, metric)
                assert isinstance(m["value"], (int, float))
        if trace == 0:
            assert summary["elapsed_s"] < 30
            for record in summary["workloads"].values():
                assert all(m["value"] > 0 for m in record["end_to_end"].values())
    torture = records[1]["workloads"]["torture_batch"]["per_layer"]
    assert torture["check.episodes"]["value"] > 0
    assert torture["check.violations"]["value"] == 0 and torture["check.wedged"]["value"] == 0


def test_one_workload_ends_with_the_contract_line():
    done = subprocess.run(
        RUN + ["--workload", "small_write", "--seed", "3", "--seconds", "1", "--trace", "0",
               "--quick"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert sorted(last["metrics"]) == sorted(_names("end_to_end"))
    for name in _names("end_to_end"):
        assert name in done.stdout.split("\n{")[0]  # printed by name, with its unit


def test_compare_accepts_equal_runs_and_rejects_drift(quick):
    from perf.compare import compare

    _, tmp = quick
    path = tmp / "trace0.json"
    sink = open(tmp / "compare.txt", "w")
    assert compare(path, path, out=sink)
    drifted = json.loads(path.read_text())
    drifted["workloads"]["meta_storm"]["end_to_end"]["events_total"]["value"] += 1
    (tmp / "drifted.json").write_text(json.dumps(drifted))
    assert not compare(path, tmp / "drifted.json", out=sink)
    assert compare(path, tmp / "drifted.json", change=True, out=sink)
    slower = json.loads(path.read_text())
    slower["workloads"]["bulk_read"]["end_to_end"]["wall_norm_s"]["value"] *= 1.5
    (tmp / "slower.json").write_text(json.dumps(slower))
    assert not compare(path, tmp / "slower.json", change=True, out=sink)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perf", tmp_path / "perf",
        ignore=shutil.ignore_patterns("__pycache__", "results", ".pytest_cache"),
    )
    done = subprocess.run(
        SPEC["command"] + ["--workload", "bulk_write", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_ruff_is_clean():
    if shutil.which("ruff") is None:
        pytest.skip("ruff is not installed here")
    done = subprocess.run(["ruff", "check", "perf"], cwd=ROOT, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout
