"""Tests for the benchmark harness itself (small scales)."""

import pytest

from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.paper_data import PAPER
from repro.bench.report import format_table, shape_checks
from repro.bench.runner import run_cell
from repro.workloads import IorWorkload

MB = 1024 * 1024


class TestRunner:
    def test_run_cell_reports_aggregate_throughput(self):
        w = IorWorkload(op="write", block_size=256 * 1024, scale=0.01)
        result = run_cell("direct-pnfs", w, n_clients=2)
        assert result.n_clients == 2
        assert result.total_bytes == 2 * w.file_size
        assert result.aggregate_mbps > 0
        assert len(result.results) == 2

    def test_deterministic_given_same_seed(self):
        def once():
            w = IorWorkload(op="write", block_size=256 * 1024, scale=0.01)
            return run_cell("pvfs2", w, n_clients=2).makespan

        assert once() == once()

    def test_tps_uses_transaction_window_when_present(self):
        from repro.bench.runner import RunResult
        from repro.workloads.base import WorkloadResult

        r = RunResult(
            arch="x",
            workload="postmark",
            n_clients=2,
            makespan=100.0,
            total_bytes=0,
            results=[
                WorkloadResult(transactions=50, extra={"txn_start": 10, "txn_end": 20}),
                WorkloadResult(transactions=50, extra={"txn_start": 12, "txn_end": 22}),
            ],
        )
        assert r.transactions_per_second == pytest.approx(100 / 12)


class TestExperimentDefinitions:
    def test_all_figures_defined(self):
        expected = {
            "fig6a", "fig6b", "fig6c", "fig6d", "fig6e",
            "fig7a", "fig7b", "fig7c", "fig7d",
            "fig8a", "fig8b", "fig8c", "fig8d", "sshbuild",
        }
        assert expected <= set(EXPERIMENTS)

    def test_paper_data_covers_experiment_systems(self):
        for exp_id, exp in EXPERIMENTS.items():
            if exp_id == "sshbuild":
                continue  # in-text result, no figure series
            assert exp_id in PAPER
            for system in exp.systems:
                assert system in PAPER[exp_id], (exp_id, system)
                for n in exp.client_counts:
                    assert n in PAPER[exp_id][system], (exp_id, system, n)

    def test_paper_series_helper(self):
        series = [PAPER["fig6a"]["direct-pnfs"][n] for n in (1, 4, 8)]
        assert len(series) == 3
        assert series[1] == 119.2

    def test_run_experiment_small(self):
        res = run_experiment("fig8a", scale=0.02, client_counts=[1])
        assert set(res.values) == {"direct-pnfs", "pvfs2"}
        assert res.values["direct-pnfs"][1] > 0
        table = format_table(res)
        assert "fig8a" in table and "direct-pnfs" in table

    def test_shape_checks_produce_verdicts(self):
        res = run_experiment("fig8a", scale=0.02, client_counts=[1])
        checks = shape_checks(res)
        assert checks
        assert all(isinstance(c.ok, bool) for c in checks)
