"""scripts/update_experiments.py records the figure panels and keeps
what it does not generate."""

import json
import pathlib

from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.report import experiment_report, result_hash

from tests.conftest import load_script as _load_script

ROOT = pathlib.Path(__file__).resolve().parents[2]
RESULTS = ROOT / "benchmarks" / "results"


def load_script():
    return _load_script("update_experiments")


def test_hand_written_sections_survive_regeneration():
    script = load_script()
    guide = "## Torture sweeps: a guide\n\nprose\n\n### A subsection\n\nmore prose\n"
    stale = (
        script.HEADER
        + "\n## fig6a: IOR write, separate files, large block\n\nold table\n\n"
        + guide
    )
    out = script.render(stale)
    assert out.endswith("\n\n" + guide)
    assert "old table" not in out  # generated sections are replaced, not kept
    assert out.count("## Known deviations (and why)") == 1
    assert script.render(out) == out  # idempotent
    assert script.render("") == out[: -len("\n\n" + guide)]


def test_committed_document_is_what_the_script_writes():
    """EXPERIMENTS.md is in step with benchmarks/results/ and loses
    nothing when regenerated."""
    script = load_script()
    committed = (ROOT / "EXPERIMENTS.md").read_text()
    assert "## Torture sweeps" in committed
    assert script.render(committed) == committed


def recorded():
    return {
        exp_id: json.loads((RESULTS / f"{exp_id}.json").read_text())
        for exp_id in EXPERIMENTS
    }


def test_every_panel_has_a_results_file():
    assert all((RESULTS / f"{exp_id}.json").exists() for exp_id in EXPERIMENTS)


def test_each_results_file_carries_the_hash_of_its_content():
    for exp_id, report in recorded().items():
        assert report["result_hash"] == result_hash(report), exp_id


def test_every_recorded_shape_check_holds():
    for exp_id, report in recorded().items():
        assert report["checks"], exp_id
        assert all(check["ok"] for check in report["checks"]), exp_id


def test_a_recorded_panel_is_its_experiment_report(tmp_path, monkeypatch, capsys):
    script = load_script()
    monkeypatch.setattr(script, "RESULTS", tmp_path)
    assert script.record("sshbuild", 0.02, 1)
    assert "[PASS]" in capsys.readouterr().out
    report = experiment_report(run_experiment("sshbuild", scale=0.02))
    written = (tmp_path / "sshbuild.json").read_text()
    assert written == json.dumps(report, indent=2) + "\n"
