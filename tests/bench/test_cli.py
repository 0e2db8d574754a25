"""CLI smoke tests."""

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "direct-pnfs" in out
        assert "fig6a" in out
        assert "postmark" in out

    def test_cell(self, capsys):
        rc = main(
            ["cell", "direct-pnfs", "ior-write", "--clients", "2", "--scale", "0.02"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "aggregate" in out

    def test_run_small_panel(self, capsys):
        rc = main(["run", "fig8a", "--scale", "0.02", "--clients", "1,2"])
        out = capsys.readouterr().out
        assert "fig8a" in out
        assert rc in (0, 1)  # shape checks may not hold at tiny scale

    def test_metrics(self, capsys, tmp_path):
        import json

        out_json = tmp_path / "m.json"
        rc = main(
            [
                "metrics", "nfsv4", "ior-write",
                "--clients", "2", "--scale", "0.02", "--json", str(out_json),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "utilisation" in out
        assert "bottleneck" in out
        report = json.loads(out_json.read_text())
        assert set(report["metrics"]) == {
            "bottleneck", "counters", "series", "utilisation",
        }
        counters = report["metrics"]["counters"]
        assert any(name.endswith("writeback_errors") for name in counters)
        assert any(name.endswith("readahead_errors") for name in counters)

    def test_trace(self, capsys, tmp_path):
        import json

        out_trace = tmp_path / "run.trace.json"
        rc = main(
            [
                "trace", "nfsv4", "ior-write",
                "--clients", "2", "--scale", "0.02", "--out", str(out_trace),
            ]
        )
        assert rc == 0
        assert "spans" in capsys.readouterr().out
        doc = json.loads(out_trace.read_text())
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert {"client-op", "rpc", "server", "disk"} <= cats

    def test_torture_json_holds_the_program_that_failed(self, capsys, tmp_path):
        """A failing sweep writes (and tells how to replay) the program
        it ran — the metadata program ``--mutant truncate`` implies, not
        the plain program of the same seed."""
        import json

        out_json = tmp_path / "failures.json"
        rc = main(
            [
                "torture", "--seeds", "1", "--arch", "nfsv4",
                "--mutant", "truncate", "--json", str(out_json),
            ]
        )
        assert rc == 1  # seed 0 is the mutant's pinned catching seed
        hint = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("reproduce with:")
        ]
        assert hint and "--mutant truncate" in hint[0]
        (failure,) = json.loads(out_json.read_text())
        kinds = {op["kind"] for ops in failure["program"]["ops"] for op in ops}
        assert "truncate" in kinds

    def test_metrics_json_dash_owns_stdout(self, capsys, tmp_path, monkeypatch):
        import json

        monkeypatch.chdir(tmp_path)
        rc = main(
            [
                "metrics", "nfsv4", "ior-write",
                "--clients", "2", "--scale", "0.02", "--json", "-",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["arch"] == "nfsv4" and "utilisation" in report["metrics"]
        assert "bottleneck" in captured.err
        assert not (tmp_path / "-").exists()

    def test_torture_json_dash_owns_stdout(self, capsys, tmp_path, monkeypatch):
        import json

        monkeypatch.chdir(tmp_path)
        rc = main(
            [
                "torture", "--seeds", "1", "--arch", "nfsv4",
                "--mutant", "truncate", "--json", "-",
            ]
        )
        assert rc == 1
        captured = capsys.readouterr()
        (failure,) = json.loads(captured.out)
        assert failure["seed"] == 0 and failure["violations"]
        assert "reproduce with:" in captured.err
        assert not (tmp_path / "-").exists()

    def test_profile_reports_the_hottest_functions(self, capsys, tmp_path, monkeypatch):
        import json

        monkeypatch.chdir(tmp_path)
        rc = main(
            [
                "profile", "nfsv4", "ior-write",
                "--clients", "1", "--scale", "0.02", "--top", "5", "--json", "-",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["arch"] == "nfsv4" and len(report["top"]) == 5
        cumtimes = [row["cumtime"] for row in report["top"]]
        assert cumtimes == sorted(cumtimes, reverse=True)
        assert "cumulative" in captured.err
        assert not (tmp_path / "-").exists()

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["cell", "direct-pnfs", "nope"])
