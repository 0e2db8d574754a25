"""Report formatting and shape-check logic on synthetic results (no sims)."""

import pytest

from repro.bench.experiments import EXPERIMENTS
from repro.bench.paper_data import PAPER
from repro.bench.report import experiment_report, format_table, result_hash, shape_checks
from repro.bench.experiments import ExperimentResult
from repro.bench.runner import RunResult


def synthetic(exp_id: str, values: dict) -> ExperimentResult:
    return ExperimentResult(
        experiment=EXPERIMENTS[exp_id], scale=0.1, values=values, raw={}
    )


def paperlike(exp_id: str, counts=None) -> dict:
    """Values copied straight from the paper's digitised data."""
    exp = EXPERIMENTS[exp_id]
    counts = counts or exp.client_counts
    return {
        system: {n: PAPER[exp_id][system][n] for n in counts}
        for system in exp.systems
    }


class TestFormatTable:
    def test_table_contains_measured_and_paper(self):
        res = synthetic("fig6a", paperlike("fig6a", [1, 4]))
        table = format_table(res)
        assert "fig6a" in table
        assert "119.2" in table  # paper reference rendered (4-client anchor)
        assert "direct-pnfs" in table and "nfsv4" in table

    def test_table_handles_missing_paper_gracefully(self):
        res = synthetic("fig6a", {"direct-pnfs": {3: 42.0}})
        table = format_table(res)
        assert "42.0" in table


class TestShapeChecksOnPaperValues:
    """The paper's own numbers must pass every check (sanity of the
    criteria themselves)."""

    @pytest.mark.parametrize(
        "exp_id",
        ["fig6a", "fig6b", "fig6c", "fig6d", "fig6e", "fig7a", "fig7c", "fig7d",
         "fig8a", "fig8b", "fig8c", "fig8d"],
    )
    def test_paper_data_satisfies_criteria(self, exp_id):
        res = synthetic(exp_id, paperlike(exp_id))
        failures = [c for c in shape_checks(res) if not c.ok]
        assert not failures, failures

    def test_fig7b_paper_values_pass(self):
        res = synthetic("fig7b", paperlike("fig7b"))
        failures = [c for c in shape_checks(res) if not c.ok]
        assert not failures, failures


class TestResultHash:
    @staticmethod
    def _report(events: int) -> dict:
        raw = {
            ("direct-pnfs", 1): RunResult(
                "direct-pnfs", "ior", 1, makespan=2.0, total_bytes=200 * 10**6,
                engine={"events_processed": events, "events_scheduled": events},
            ),
        }
        res = ExperimentResult(
            experiment=EXPERIMENTS["fig7c"], scale=0.1,
            values={"direct-pnfs": {1: 100.0}}, raw=raw,
        )
        return experiment_report(res)

    def test_kernel_event_counts_do_not_move_the_hash(self):
        """An order-preserving kernel change moves the queue-entry count
        of every cell and nothing the simulation computed."""
        a, b = self._report(1000), self._report(700)
        assert a["result_hash"] == b["result_hash"]
        assert a == b
        # ... while a simulated value still does.
        assert result_hash(dict(a, values={"direct-pnfs": {1: 100.5}})) != a["result_hash"]


class TestShapeChecksCatchViolations:
    def test_flat_direct_curve_fails_6a(self):
        values = paperlike("fig6a")
        # sabotage: direct collapses to nfsv4 levels
        values["direct-pnfs"] = {n: 45 for n in values["direct-pnfs"]}
        res = synthetic("fig6a", values)
        assert any(not c.ok for c in shape_checks(res))

    def test_pvfs2_not_collapsing_fails_6d(self):
        values = paperlike("fig6d")
        values["pvfs2"] = dict(values["direct-pnfs"])  # no collapse
        res = synthetic("fig6d", values)
        assert any(not c.ok for c in shape_checks(res))

    def test_slow_direct_fails_8c(self):
        values = paperlike("fig8c")
        values["direct-pnfs"] = {n: v for n, v in values["pvfs2"].items()}
        res = synthetic("fig8c", values)
        assert any(not c.ok for c in shape_checks(res))

    def test_checks_have_detail_strings(self):
        res = synthetic("fig6a", paperlike("fig6a"))
        for check in shape_checks(res):
            assert check.name and check.detail
            assert str(check).startswith("[")
