"""CLI smoke tests."""

import pytest

from repro.cli import main
from repro.cluster.configs import ARCHITECTURES
from tests.check import mutants


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

    def test_metrics_shows_protocol_events(self, capsys):
        """The layout grants and read delegations a Direct-pNFS read
        cell runs on its MDS are counters in the report."""
        import json

        rc = main(
            [
                "metrics", "direct-pnfs", "ior-read",
                "--clients", "2", "--scale", "0.02", "--json", "-",
            ]
        )
        assert rc == 0
        counters = json.loads(capsys.readouterr().out)["metrics"]["counters"]
        for event in ("layouts_granted", "delegations_granted"):
            assert len([
                name for name, value in counters.items()
                if name.endswith(f".{event}") and value > 0
            ]) == 1, event

    @pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
    def test_metrics_reports_every_measured_client(self, capsys, arch):
        """Every row runs; each measured client's counters are in the
        report — on the sharded row, each shard's client under its own
        name (a router keeps no counters of its own)."""
        import json

        rc = main(
            [
                "metrics", arch, "mdtest",
                "--clients", "2", "--scale", "0.02", "--json", "-",
            ]
        )
        assert rc == 0
        counters = json.loads(capsys.readouterr().out)["metrics"]["counters"]
        for i in range(2):
            read = [
                name for name in counters
                if name.startswith(f"client{i}.") and name.endswith(".bytes_read")
            ]
            assert len(read) == ARCHITECTURES[arch].n_meta, read

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
        # The collector outlives the measured phase until the storage
        # daemons have drained, so every span it opened is closed.
        assert not [e for e in doc["traceEvents"] if e.get("args", {}).get("unfinished")]

    def test_torture_json_holds_the_program_that_failed(
        self, capsys, tmp_path, monkeypatch
    ):
        """A failing sweep writes (and tells how to replay) the program
        it ran — the metadata program ``--metadata`` asks for, not the
        plain program of the same seed."""
        import json

        mutants.apply(monkeypatch, "truncate")
        out_json = tmp_path / "failures.json"
        rc = main(
            [
                "torture", "--seeds", "1", "--arch", "nfsv4",
                "--metadata", "--jobs", "1", "--json", str(out_json),
            ]
        )
        assert rc == 1  # seed 0 is the mutant's pinned catching seed
        hint = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("reproduce with:")
        ]
        assert hint and "--metadata" in hint[0]
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
        mutants.apply(monkeypatch, "truncate")
        rc = main(
            [
                "torture", "--seeds", "1", "--arch", "nfsv4",
                "--metadata", "--jobs", "1", "--json", "-",
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

    @pytest.mark.parametrize(
        "argv, valid",
        [
            (["cell", "afs", "ior-write"], "direct-pnfs"),
            (["run", "fig9"], "fig7a"),
            (["torture", "--arch", "afs"], "pnfs-2tier"),
        ],
    )
    def test_unknown_name_lists_the_valid_ones(self, argv, valid, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and valid in err

    @pytest.mark.parametrize(
        "argv", [["torture", "--mutant", "writeback"], ["quickstart"]]
    )
    def test_removed_options_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, value",
        [
            (["cell", "direct-pnfs", "ior-write", "--clients", "10"], "'10'"),
            (["cell", "direct-pnfs", "ior-write", "--clients", "0"], "'0'"),
            (["run", "fig7a", "--clients", "1,x"], "'x'"),
            (["run", "fig7a", "--clients", "1,10"], "'10'"),
            (["cell", "direct-pnfs", "ior-write", "--scale", "0"], "'0'"),
            (["run", "fig7a", "--scale", "-1"], "'-1'"),
            (["metrics", "direct-pnfs", "ior-write", "--interval", "0"], "'0'"),
            (["torture", "--replay", "-1"], "'-1'"),
            (["torture", "--start-seed", "-3"], "'-3'"),
            (["torture", "--seeds", "0"], "'0'"),
            (["run", "fig7a", "--jobs", "0"], "'0'"),
            (["run", "fig7a", "--jobs", "-2"], "'-2'"),
            (["torture", "--jobs", "0"], "'0'"),
            (["profile", "direct-pnfs", "ior-write", "--top", "-3"], "'-3'"),
        ],
    )
    def test_out_of_range_number_exits_2_with_one_error_line(self, argv, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and value in errors[0]
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("env", ["abc", "0", "-2", "1.5"])
    @pytest.mark.parametrize("argv", [["run", "fig8b"], ["torture"]])
    def test_bad_repro_jobs_exits_2_with_one_error_line_naming_it(
        self, argv, env, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_JOBS", env)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"REPRO_JOBS={env!r}" in errors[0]
        assert "Traceback" not in captured.err and captured.out == ""
