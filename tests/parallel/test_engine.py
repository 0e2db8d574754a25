"""Parallel experiment engine: cache, determinism, reporting, wiring.

The heavyweight speedup/scale gates live in
``benchmarks/test_engine_perf.py``; these tier-1 tests pin the
*semantics* — content-addressed keys, parallel-equals-serial results,
cache round-trips, clean stdout — on batches small enough for the unit
suite.
"""

import io
import json
import pickle

from repro.parallel import (
    EngineReport,
    ProgressReporter,
    ResultCache,
    describe,
    figure_cell_spec,
    run_job,
    run_jobs,
    spec_key,
    torture_spec,
)


class TestCacheKeys:
    def test_key_is_stable_and_order_insensitive(self):
        a = {"kind": "torture", "seed": 3, "arch": "nfsv4", "metadata": False}
        b = {"metadata": False, "arch": "nfsv4", "seed": 3, "kind": "torture"}
        assert spec_key(a, "fp") == spec_key(b, "fp")

    def test_key_depends_on_every_spec_field_and_code(self):
        base = torture_spec(3, "nfsv4")
        assert spec_key(base, "fp") != spec_key(torture_spec(4, "nfsv4"), "fp")
        assert spec_key(base, "fp") != spec_key(torture_spec(3, "pvfs2"), "fp")
        metadata = torture_spec(3, "nfsv4", metadata=True)
        assert spec_key(base, "fp") != spec_key(metadata, "fp")
        assert spec_key(base, "fp") != spec_key(base, "other-code")

    def test_code_fingerprint_covers_the_package(self):
        from repro.parallel.cache import code_fingerprint

        fp = code_fingerprint()
        assert len(fp) == 64
        assert code_fingerprint() == fp  # cached, stable in-process


class TestResultCache:
    def test_roundtrip_misses_then_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for({"kind": "x", "n": 1})
        assert cache.get(key) is None
        cache.put(key, {"value": 42})
        assert cache.get(key) == {"value": 42}

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for({"kind": "x"})
        cache.put(key, [1, 2, 3])
        cache._path(key).write_bytes(b"not a pickle")
        assert cache.get(key) is None

    def test_one_flipped_byte_degrades_to_miss(self, tmp_path):
        """A damaged pickle can raise ValueError ("unsupported pickle
        protocol"), OverflowError or MemoryError, not only
        UnpicklingError: every one is a miss, never a crash."""
        cache = ResultCache(tmp_path)
        key = cache.key_for({"kind": "x"})
        cache.put(key, {"value": [1, 2, 3]})
        raw = bytearray(cache._path(key).read_bytes())
        raw[1] ^= 0x5A
        cache._path(key).write_bytes(bytes(raw))
        assert cache.get(key) is None

    def test_unpicklable_value_is_not_stored(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for({"kind": "x"})
        cache.put(key, lambda: None)  # silently skipped
        assert cache.get(key) is None


class TestEngine:
    SPECS = [torture_spec(seed, "direct-pnfs") for seed in (0, 1, 2)]

    def test_parallel_results_identical_to_serial(self):
        serial, _ = run_jobs(self.SPECS, jobs=1)
        parallel, report = run_jobs(self.SPECS, jobs=2)
        assert [r.trace_hash for r in serial] == [r.trace_hash for r in parallel]
        assert report.jobs == len(self.SPECS)
        assert report.workers == 2

    def test_results_come_back_in_input_order(self):
        results, _ = run_jobs(self.SPECS, jobs=2)
        assert [r.seed for r in results] == [0, 1, 2]

    def test_cache_short_circuits_second_run(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold, cold_report = run_jobs(self.SPECS[:2], cache=cache)
        assert cold_report.cache_hits == 0
        warm, warm_report = run_jobs(self.SPECS[:2], cache=ResultCache(tmp_path))
        assert warm_report.cache_hits == 2
        assert warm_report.job_seconds == 0.0
        assert [r.trace_hash for r in cold] == [r.trace_hash for r in warm]

    def test_episode_results_survive_pickling(self):
        result = run_job(self.SPECS[0])
        clone = pickle.loads(pickle.dumps(result))
        assert clone.trace_hash == result.trace_hash
        assert clone.violations == result.violations

    def test_progress_called_per_job(self):
        seen = []
        run_jobs(
            self.SPECS[:2],
            progress=lambda spec, res, wall, cached: seen.append(
                (describe(spec), cached)
            ),
        )
        assert seen == [
            ("torture seed 0 / direct-pnfs", False),
            ("torture seed 1 / direct-pnfs", False),
        ]

    def test_unknown_kind_rejected(self):
        try:
            run_job({"kind": "nope"})
        except ValueError as exc:
            assert "nope" in str(exc)
        else:
            raise AssertionError("unknown kind accepted")


class TestEngineReport:
    def test_as_dict_round_trips_through_json(self):
        report = EngineReport(workers=2, jobs=1)
        report.job_seconds = 8.0
        report.wall_seconds = 2.0
        doc = json.loads(json.dumps(report.as_dict()))
        assert doc["workers"] == 2
        assert doc["speedup"] == 4.0


class TestExperimentWiring:
    KW = dict(scale=0.02, client_counts=[1], systems=["nfsv4"])

    def test_run_experiment_parallel_equals_serial(self):
        from repro.bench.experiments import run_experiment
        from repro.bench.report import canonical_json, experiment_report

        serial = run_experiment("fig6d", **self.KW)
        parallel = run_experiment("fig6d", jobs=2, **self.KW)
        assert canonical_json(experiment_report(serial)) == canonical_json(
            experiment_report(parallel)
        )
        assert parallel.parallel["workers"] >= 1
        assert parallel.parallel["jobs"] == 1

    def test_figure_cell_spec_runs_and_matches_run_cell(self):
        from repro.bench.experiments import EXPERIMENTS
        from repro.bench.runner import run_cell

        spec = figure_cell_spec("fig6d", "nfsv4", 1, 0.02)
        via_engine = run_job(spec)
        exp = EXPERIMENTS["fig6d"]
        direct = run_cell(
            "nfsv4", exp.workload(0.02 * exp.scale_factor), 1, net_bw=exp.net_bw
        )
        assert via_engine.makespan == direct.makespan
        assert via_engine.total_bytes == direct.total_bytes

    def test_sweep_jobs_matches_serial(self):
        from repro.check.runner import sweep

        serial = sweep(["nfsv4"], seeds=2)
        parallel = sweep(["nfsv4"], seeds=2, jobs=2)
        assert [r.trace_hash for r in serial] == [r.trace_hash for r in parallel]


class TestReporter:
    def test_progress_goes_to_given_stream_only(self, capsys):
        stream = io.StringIO()
        rep = ProgressReporter(2, label="cells", stream=stream)
        rep.update("cell-a", 0.5)
        rep.update("cell-b", cached=True)
        rep.note("FAIL something")
        rep.close()
        text = stream.getvalue()
        assert "[1/2] cell-a" in text
        assert "cached" in text
        assert "FAIL something" in text
        assert "2/2 cells" in text and "1 cached" in text
        assert capsys.readouterr().out == ""  # stdout untouched


class TestCliJson:
    def test_run_json_dash_keeps_stdout_machine_readable(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "run", "fig8b", "--scale", "0.02", "--clients", "1",
                "--jobs", "2", "--json", "-",
            ]
        )
        captured = capsys.readouterr()
        report = json.loads(captured.out)  # stdout is one JSON document
        assert report["experiment"] == "fig8b"
        assert report["result_hash"]
        assert report["timing"]["workers"] >= 1
        assert "[" in captured.err  # progress lines went to stderr
        assert rc in (0, 1)

    def test_profile_verb_reports_hot_functions(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "profile", "nfsv4", "ior-write", "--clients", "1",
                "--scale", "0.02", "--top", "5", "--json", "-",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["top"], "no profile rows"
        assert any(
            "bench/runner.py" in row["function"] and row["function"].endswith("(measure)")
            for row in report["top"]
        )
        assert "cumulative" in captured.err or "makespan" in captured.err
