"""Command-line interface: ``python -m repro``.

Subcommands::

    python -m repro list                         # architectures & experiments
    python -m repro run fig7a --scale 0.1        # regenerate a figure panel
    python -m repro run fig7a --jobs 8 --cache \\
        --json fig7a.json                        # parallel + cached sweep
    python -m repro cell direct-pnfs ior-write \\
        --clients 4 --scale 0.2                  # one (arch, workload) cell
    python -m repro metrics direct-pnfs ior-write \\
        --clients 4 --json out.json              # cell + metrics/utilisation
    python -m repro trace direct-pnfs ior-write \\
        --out run.trace.json                     # cell + Perfetto trace
    python -m repro profile direct-pnfs ior-write \\
        --clients 4 --top 25                     # cProfile one cell
    python -m repro torture --seeds 50 --jobs 8  # invariant-checked sweeps
    python -m repro torture --replay 7 --shrink  # minimal failing program
    python -m repro quickstart                   # the quickstart demo

Progress/ETA lines always go to stderr; results (tables, JSON with
``--json -``) own stdout.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main"]


def _cmd_list(_args) -> int:
    from repro.bench.experiments import EXPERIMENTS
    from repro.cluster.configs import ARCHITECTURES

    print("architectures:")
    for name in sorted(ARCHITECTURES):
        print(f"  {name}")
    print("\nexperiments (figure panels):")
    for exp_id, exp in EXPERIMENTS.items():
        systems = ",".join(exp.systems)
        print(f"  {exp_id:9s} {exp.title}  [{exp.metric}; {systems}]")
    print("\nworkloads for `repro cell`:")
    for name in sorted(_WORKLOADS):
        print(f"  {name}")
    return 0


def _cmd_run(args) -> int:
    import json

    from repro.bench.experiments import EXPERIMENTS, run_experiment
    from repro.bench.report import experiment_report, format_table, shape_checks
    from repro.parallel import ProgressReporter, ResultCache, default_jobs, describe

    counts = [int(c) for c in args.clients.split(",")] if args.clients else None
    jobs = default_jobs(args.jobs)
    cache = ResultCache(args.cache_dir) if args.cache else None
    exp = EXPERIMENTS[args.experiment]
    total = len(exp.systems) * len(counts or exp.client_counts)
    reporter = ProgressReporter(total, label="cells")
    result = run_experiment(
        args.experiment,
        scale=args.scale,
        client_counts=counts,
        jobs=jobs,
        cache=cache,
        progress=lambda spec, res, wall, cached: reporter.update(
            describe(spec), wall, cached
        ),
    )
    reporter.close()

    # Human-readable output moves to stderr when the JSON document owns
    # stdout (`--json -`): stdout stays machine-parseable either way.
    out = sys.stderr if args.json == "-" else sys.stdout
    print(format_table(result), file=out)
    if args.chart:
        from repro.bench.charts import render_series

        print(file=out)
        print(render_series(result), file=out)
    ok = True
    for check in shape_checks(result):
        print("  ", check, file=out)
        ok = ok and check.ok
    if args.json:
        report = experiment_report(result)
        report["timing"] = result.parallel  # wall-clock: outside the hash
        _emit_json(json.dumps(report, indent=2), args.json, out)
    return 0 if ok else 1


def _emit_json(text: str, dest: str, out) -> None:
    """``--json DEST``: ``-`` owns stdout, anything else is a file."""
    if dest == "-":
        print(text)
    else:
        with open(dest, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {dest}", file=out)


_WORKLOADS = {
    "ior-write": lambda scale: _ior("write", scale),
    "ior-read": lambda scale: _ior("read", scale),
    "ior-write-8k": lambda scale: _ior("write", scale, block=8192),
    "ior-read-8k": lambda scale: _ior("read", scale, block=8192),
    "atlas": lambda scale: _mk("AtlasWorkload", scale),
    "btio": lambda scale: _mk("BtioWorkload", scale),
    "oltp": lambda scale: _mk("OltpWorkload", scale),
    "postmark": lambda scale: _mk("PostmarkWorkload", scale),
    "sshbuild": lambda scale: _mk("SshBuildWorkload", scale),
    "mdtest": lambda scale: _mk("MdtestWorkload", scale),
}


def _ior(op: str, scale: float, block: int = 4 * 1024 * 1024):
    from repro.workloads import IorWorkload

    return IorWorkload(op=op, block_size=block, scale=scale)


def _mk(name: str, scale: float):
    import repro.workloads as w

    return getattr(w, name)(scale=scale)


def _add_cell_args(parser) -> None:
    """The (architecture, workload, clients, scale) of one cell."""
    parser.add_argument("arch", help="architecture (see `repro list`)")
    parser.add_argument("workload", choices=sorted(_WORKLOADS))
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--scale", type=float, default=0.1)


def _cell(args):
    """``(header, run)`` for the cell ``_add_cell_args`` describes;
    ``run(**run_cell_kwargs)`` executes it."""
    from functools import partial

    from repro.bench.runner import run_cell

    workload = _WORKLOADS[args.workload](args.scale)
    header = (
        f"{args.arch} / {args.workload} @ {args.clients} clients "
        f"(scale {args.scale}):"
    )
    return header, partial(run_cell, args.arch, workload, n_clients=args.clients)


def _cmd_cell(args) -> int:
    header, run = _cell(args)
    result = run()
    print(header)
    print(f"  makespan   : {result.makespan:.3f} s")
    print(f"  aggregate  : {result.aggregate_mbps:.1f} MB/s")
    print(f"  tps        : {result.transactions_per_second:.1f}")
    return 0


def _cmd_metrics(args) -> int:
    """Run one cell with the metrics registry attached and report it."""
    import json

    from repro.bench.report import format_metrics

    header, run = _cell(args)
    result = run(metrics=True, sample_interval=args.interval)
    out = sys.stderr if args.json == "-" else sys.stdout
    print(
        f"{header} {result.makespan:.3f} s makespan, {result.aggregate_mbps:.1f} MB/s",
        file=out,
    )
    print(format_metrics(result), file=out)
    if args.json:
        report = {
            "arch": result.arch,
            "workload": result.workload,
            "n_clients": result.n_clients,
            "makespan": result.makespan,
            "total_bytes": result.total_bytes,
            "aggregate_mbps": result.aggregate_mbps,
            "engine": result.engine,
            "metrics": result.metrics,
        }
        _emit_json(json.dumps(report, indent=2, default=str), args.json, out)
    return 0


def _cmd_trace(args) -> int:
    """Run one cell under a span collector and export a Chrome trace."""
    header, run = _cell(args)
    result = run(trace=True)
    result.trace.write_chrome_trace(args.out)
    cats = {c: len(s) for c, s in sorted(result.trace.by_category().items())}
    print(f"{header} {result.makespan:.3f} s makespan")
    print(f"  {len(result.trace.spans)} spans: " + ", ".join(
        f"{n} {c}" for c, n in cats.items()
    ))
    print(f"wrote {args.out} (open at https://ui.perfetto.dev)")
    return 0


def _cmd_profile(args) -> int:
    """cProfile one cell: where do the simulation's cycles actually go?

    Prints the top-N functions by cumulative time (the measurement
    future perf PRs should quote); ``--json`` dumps them machine-
    readable, ``--json -`` to stdout with the human report on stderr.
    """
    import cProfile
    import io
    import json
    import pstats

    header, run = _cell(args)
    prof = cProfile.Profile()
    prof.enable()
    result = run()
    prof.disable()

    out = sys.stderr if args.json == "-" else sys.stdout
    print(
        f"{header} {result.makespan:.3f} s sim makespan, "
        f"{result.aggregate_mbps:.1f} MB/s",
        file=out,
    )
    stream = io.StringIO()
    stats = pstats.Stats(prof, stream=stream)
    stats.sort_stats("cumulative").print_stats(args.top)
    print(stream.getvalue().rstrip(), file=out)

    if args.json:
        rows = [
            {
                "function": f"{path}:{line}({name})",
                "ncalls": nc,
                "tottime": round(tt, 6),
                "cumtime": round(ct, 6),
            }
            for (path, line, name), (cc, nc, tt, ct, _callers) in stats.stats.items()
        ]
        rows.sort(key=lambda r: r["cumtime"], reverse=True)
        report = {
            "arch": args.arch,
            "workload": args.workload,
            "n_clients": args.clients,
            "scale": args.scale,
            "makespan": result.makespan,
            "top": rows[: args.top],
        }
        _emit_json(json.dumps(report, indent=2), args.json, out)
    return 0


def _cmd_torture(args) -> int:
    """Seeded torture sweeps, replay, and shrinking (repro.check)."""
    import json

    from repro.check import generate, run_episode, shrink_program
    from repro.check.runner import MUTANTS

    arches = args.arch or ["direct-pnfs", "pnfs-2tier"]
    if args.mutant and args.mutant not in MUTANTS:
        print(
            f"unknown mutant {args.mutant!r}; choose from {sorted(MUTANTS)}",
            file=sys.stderr,
        )
        return 2
    factory = MUTANTS[args.mutant] if args.mutant else None
    metadata = args.metadata or args.mutant == "truncate"
    out = sys.stderr if args.json == "-" else sys.stdout

    if args.replay is not None:
        program = generate(args.replay, metadata_ops=metadata)
        failing = None
        for arch in arches:
            res = run_episode(program, arch, client_factory=factory)
            status = "FAIL" if res.violations else "ok"
            print(
                f"seed {args.replay} / {arch}: {status}  "
                f"trace {res.trace_hash[:16]}  "
                f"({res.op_count} ops, {len(program.faults)} faults, "
                f"{res.stats.get('sim_time', 0)} sim s)",
                file=out,
            )
            for v in res.violations:
                print(f"  - {v}", file=out)
            if res.violations and failing is None:
                failing = arch
        if failing is None:
            return 0
        if args.shrink:
            print(f"\nshrinking against {failing} ...", file=out)
            minimal, runs = shrink_program(
                program, failing, client_factory=factory
            )
            print(
                f"minimal failing program after {runs} runs: "
                f"{minimal.op_count} ops, {len(minimal.faults)} faults",
                file=out,
            )
            print(minimal.to_json(), file=out)
            if args.json:
                _emit_json(minimal.to_json(), args.json, out)
        return 1

    from repro.check.runner import sweep
    from repro.parallel import ProgressReporter, default_jobs

    total = args.seeds * len(arches)
    reporter = ProgressReporter(total, label="episodes")

    def progress(_spec, res, wall, cached):
        reporter.update(f"seed {res.seed} / {res.arch}", wall, cached)
        if res.violations:
            reporter.note(f"FAIL seed {res.seed} / {res.arch}:")
            for v in res.violations:
                reporter.note(f"  - {v}")

    results = sweep(
        arches,
        args.seeds,
        start_seed=args.start_seed,
        mutant=args.mutant,
        progress=progress,
        jobs=default_jobs(args.jobs),
        metadata=metadata,
    )
    reporter.close()
    failures = [r for r in results if r.violations]
    print(
        f"{total - len(failures)}/{total} episodes clean "
        f"(seeds {args.start_seed}..{args.start_seed + args.seeds - 1}, "
        f"arches: {', '.join(arches)})",
        file=out,
    )
    if not failures:
        return 0
    first = failures[0]
    # The sweep's own program flags: without them the replay (and the
    # programs written below) would be the plain program of the seed.
    flags = " --metadata" if args.metadata else ""
    if args.mutant:
        flags += f" --mutant {args.mutant}"
    print(
        f"\nreproduce with: repro torture --replay {first.seed} "
        f"--arch {first.arch}{flags} --shrink",
        file=out,
    )
    if args.json:
        report = [
            {
                "seed": r.seed,
                "arch": r.arch,
                "violations": r.violations,
                "trace_hash": r.trace_hash,
                "program": json.loads(generate(r.seed, metadata_ops=metadata).to_json()),
            }
            for r in failures
        ]
        _emit_json(json.dumps(report, indent=2), args.json, out)
    return 1


def _cmd_quickstart(_args) -> int:
    import pathlib
    import runpy

    demo = pathlib.Path(__file__).resolve().parents[2] / "examples" / "quickstart.py"
    runpy.run_path(str(demo), run_name="__main__")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="Direct-pNFS reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list architectures, experiments, workloads")

    p_run = sub.add_parser("run", help="regenerate one figure panel")
    p_run.add_argument("experiment", help="e.g. fig6a, fig7c, fig8d")
    p_run.add_argument("--scale", type=float, default=0.1)
    p_run.add_argument("--clients", help="comma-separated counts, e.g. 1,4,8")
    p_run.add_argument(
        "--chart", action="store_true", help="also render an ASCII bar chart"
    )
    p_run.add_argument(
        "--jobs",
        type=int,
        help="worker processes for the cell fan-out (default: REPRO_JOBS or 1; "
        "results are identical whatever the value)",
    )
    p_run.add_argument(
        "--cache",
        action="store_true",
        help="skip cells already in the content-addressed result cache",
    )
    p_run.add_argument(
        "--cache-dir",
        help="cache root (default: REPRO_CACHE_DIR or .repro-cache)",
    )
    p_run.add_argument(
        "--json",
        help="write the deterministic result report as JSON "
        "('-' for stdout; progress and tables then move to stderr)",
    )

    p_cell = sub.add_parser("cell", help="run one (architecture, workload) cell")
    _add_cell_args(p_cell)

    p_metrics = sub.add_parser(
        "metrics", help="run one cell with the metrics registry attached"
    )
    _add_cell_args(p_metrics)
    p_metrics.add_argument(
        "--interval", type=float, default=0.25, help="sampler interval (sim s)"
    )
    p_metrics.add_argument(
        "--json", help="also write the full report as JSON ('-' for stdout)"
    )

    p_trace = sub.add_parser(
        "trace", help="run one cell and export a Chrome/Perfetto trace"
    )
    _add_cell_args(p_trace)
    p_trace.add_argument(
        "--out", default="repro.trace.json", help="trace file path"
    )

    p_torture = sub.add_parser(
        "torture",
        help="seeded workload×fault torture sweeps with invariant checkers",
    )
    p_torture.add_argument(
        "--arch",
        action="append",
        help="architecture to torture (repeatable; default: direct-pnfs, "
        "pnfs-2tier)",
    )
    p_torture.add_argument("--seeds", type=int, default=25, help="seed budget")
    p_torture.add_argument("--start-seed", type=int, default=0)
    p_torture.add_argument(
        "--replay", type=int, help="replay one seed instead of sweeping"
    )
    p_torture.add_argument(
        "--shrink",
        action="store_true",
        help="with --replay: print the minimal failing program",
    )
    p_torture.add_argument(
        "--metadata",
        action="store_true",
        help="generate metadata/namespace op kinds (truncate, remove+"
        "recreate, rename, mkdir/readdir, getattr) with coherence oracles",
    )
    p_torture.add_argument(
        "--mutant",
        metavar="NAME",
        help="run with one shipped fix reverted, to demonstrate checker "
        "power: 'writeback' = pre-fix silent write-back loss, 'truncate' "
        "= pre-fix attr-cache-only truncate (implies --metadata)",
    )
    p_torture.add_argument(
        "--json", help="write failing programs as JSON ('-' for stdout)"
    )
    p_torture.add_argument(
        "--jobs",
        type=int,
        help="worker processes for the episode fan-out (default: REPRO_JOBS "
        "or 1; trace hashes are identical whatever the value)",
    )

    p_profile = sub.add_parser(
        "profile", help="cProfile one cell and print the hottest functions"
    )
    _add_cell_args(p_profile)
    p_profile.add_argument(
        "--top", type=int, default=25, help="functions to print (by cumtime)"
    )
    p_profile.add_argument(
        "--json", help="dump the top functions as JSON ('-' for stdout)"
    )

    sub.add_parser("quickstart", help="run the quickstart demo")

    args = parser.parse_args(argv)
    handler = {
        "list": _cmd_list,
        "run": _cmd_run,
        "cell": _cmd_cell,
        "metrics": _cmd_metrics,
        "trace": _cmd_trace,
        "profile": _cmd_profile,
        "torture": _cmd_torture,
        "quickstart": _cmd_quickstart,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
