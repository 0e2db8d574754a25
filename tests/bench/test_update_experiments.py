"""scripts/update_experiments.py keeps what it does not generate."""

import pathlib

from tests.conftest import load_script as _load_script

ROOT = pathlib.Path(__file__).resolve().parents[2]


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
