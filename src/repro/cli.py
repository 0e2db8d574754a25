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

Progress/ETA lines always go to stderr; results (tables, JSON with
``--json -``) own stdout.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.experiments import EXPERIMENTS, MB, _ior
from repro.cluster.configs import ARCHITECTURES
from repro.cluster.testbed import MAX_CLIENTS

__all__ = ["main"]


# -- argument types: a bad number exits 2 with argparse's one error line --
def _number(text: str, kind, ok, want: str):
    try:
        value = kind(text)
        if ok(value):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{text!r} is not {want}")


def _clients(text: str) -> int:
    return _number(
        text, int, lambda n: 1 <= n <= MAX_CLIENTS, f"a client count between 1 and {MAX_CLIENTS}"
    )


def _client_list(text: str) -> list[int]:
    return [_clients(part) for part in text.split(",")]


def _positive(text: str) -> float:
    return _number(text, float, lambda x: x > 0, "a positive number")


def _at_least(lo: int):
    def parse(text: str) -> int:
        return _number(text, int, lambda n: n >= lo, f"an integer >= {lo}")

    return parse


def _cmd_list(args) -> int:
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

    from repro.bench.experiments import run_experiment
    from repro.bench.report import experiment_report, format_table, shape_checks
    from repro.parallel import ProgressReporter, ResultCache, describe

    cache = ResultCache(args.cache_dir) if args.cache else None
    exp = EXPERIMENTS[args.experiment]
    total = len(exp.systems) * len(args.clients or exp.client_counts)
    reporter = ProgressReporter(total, label="cells")
    result = run_experiment(
        args.experiment,
        scale=args.scale,
        client_counts=args.clients,
        jobs=args.jobs,
        cache=cache,
        progress=lambda spec, res, wall, cached: reporter.update(
            describe(spec), wall, cached
        ),
    )
    reporter.close()

    out = args.out
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
        _emit_json(json.dumps(report, indent=2), args)
    return 0 if ok else 1


def _emit_json(text: str, args) -> None:
    """``--json DEST``: ``-`` owns stdout, anything else is a file."""
    if args.json == "-":
        print(text)
    else:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.json}", file=args.out)


_WORKLOADS = {
    "ior-write": _ior("write", 4 * MB, shared=False),
    "ior-read": _ior("read", 4 * MB, shared=False),
    "ior-write-8k": _ior("write", 8192, shared=False),
    "ior-read-8k": _ior("read", 8192, shared=False),
    "atlas": lambda scale: _mk("AtlasWorkload", scale),
    "btio": lambda scale: _mk("BtioWorkload", scale),
    "oltp": lambda scale: _mk("OltpWorkload", scale),
    "postmark": lambda scale: _mk("PostmarkWorkload", scale),
    "sshbuild": lambda scale: _mk("SshBuildWorkload", scale),
    "mdtest": lambda scale: _mk("MdtestWorkload", scale),
}


def _mk(name: str, scale: float):
    import repro.workloads as w

    return getattr(w, name)(scale=scale)


def _cell(args):
    """``(header, cell)`` for the :class:`~repro.bench.runner.Cell` a
    ``cell=True`` verb describes, not yet set up."""
    from repro.bench.runner import Cell

    workload = _WORKLOADS[args.workload](args.scale)
    header = (
        f"{args.arch} / {args.workload} @ {args.clients} clients "
        f"(scale {args.scale}):"
    )
    return header, Cell(args.arch, workload, args.clients)


def _cmd_cell(args) -> int:
    header, cell = _cell(args)
    cell.setup()
    result = cell.measure()
    print(header)
    print(f"  makespan   : {result.makespan:.3f} s")
    print(f"  aggregate  : {result.aggregate_mbps:.1f} MB/s")
    print(f"  tps        : {result.transactions_per_second:.1f}")
    return 0


def _cmd_metrics(args) -> int:
    """Run one cell with the metrics registry attached and report it."""
    import json

    from repro.bench.report import format_metrics
    from repro.obs import measure_with_metrics

    header, cell = _cell(args)
    cell.setup()
    result, section = measure_with_metrics(cell, interval=args.interval)
    print(
        f"{header} {result.makespan:.3f} s makespan, {result.aggregate_mbps:.1f} MB/s",
        file=args.out,
    )
    print(format_metrics(result, section), file=args.out)
    if args.json:
        report = {
            "arch": result.arch,
            "workload": result.workload,
            "n_clients": result.n_clients,
            "makespan": result.makespan,
            "total_bytes": result.total_bytes,
            "aggregate_mbps": result.aggregate_mbps,
            "engine": result.engine,
            "metrics": section,
        }
        _emit_json(json.dumps(report, indent=2, default=str), args)
    return 0


def _cmd_trace(args) -> int:
    """Export a Chrome trace of one cell's measured phase, collected on
    through the storage daemons' drain after it so that no span is left
    open (the makespan printed is the measured phase's)."""
    from repro.obs import SpanCollector

    header, cell = _cell(args)
    cell.setup()
    with SpanCollector(cell.sim) as spans:
        result = cell.measure()
        cell.settle()
    spans.write_chrome_trace(args.trace_out)
    cats = {c: len(s) for c, s in sorted(spans.by_category().items())}
    print(f"{header} {result.makespan:.3f} s makespan")
    print(f"  {len(spans.spans)} spans: " + ", ".join(
        f"{n} {c}" for c, n in cats.items()
    ))
    print(f"wrote {args.trace_out} (open at https://ui.perfetto.dev)")
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

    header, cell = _cell(args)
    prof = cProfile.Profile()
    prof.enable()
    cell.setup()
    result = cell.measure()
    prof.disable()

    print(
        f"{header} {result.makespan:.3f} s sim makespan, "
        f"{result.aggregate_mbps:.1f} MB/s",
        file=args.out,
    )
    stream = io.StringIO()
    stats = pstats.Stats(prof, stream=stream)
    stats.sort_stats("cumulative").print_stats(args.top)
    print(stream.getvalue().rstrip(), file=args.out)

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
        _emit_json(json.dumps(report, indent=2), args)
    return 0


def _cmd_torture(args) -> int:
    """Seeded torture sweeps, replay, and shrinking (repro.check)."""
    import json

    from repro.check import generate, run_episode, shrink_program

    arches = args.arch or ["direct-pnfs", "pnfs-2tier"]
    out = args.out

    if args.replay is not None:
        program = generate(args.replay, metadata_ops=args.metadata)
        failing = None
        for arch in arches:
            res = run_episode(program, arch)
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
            minimal, runs = shrink_program(program, failing)
            print(
                f"minimal failing program after {runs} runs: "
                f"{minimal.op_count} ops, {len(minimal.faults)} faults",
                file=out,
            )
            print(minimal.to_json(), file=out)
            if args.json:
                _emit_json(minimal.to_json(), args)
        return 1

    from repro.check.runner import sweep
    from repro.parallel import ProgressReporter

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
        progress=progress,
        jobs=args.jobs,
        metadata=args.metadata,
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
    # The sweep's own program flag: without it the replay (and the
    # programs written below) would be the plain program of the seed.
    flags = " --metadata" if args.metadata else ""
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
                "program": json.loads(
                    generate(r.seed, metadata_ops=args.metadata).to_json()
                ),
            }
            for r in failures
        ]
        _emit_json(json.dumps(report, indent=2), args)
    return 1


def _verb(sub, name: str, func, help: str, cell: bool = False, json: str = ""):
    """Register verb ``name``, run by ``func(args)``.

    ``cell=True`` takes the (architecture, workload, clients, scale) of
    one cell; ``json`` names what ``--json DEST`` writes.
    """
    parser = sub.add_parser(name, help=help)
    parser.set_defaults(func=func)
    if cell:
        parser.add_argument("arch", choices=sorted(ARCHITECTURES))
        parser.add_argument("workload", choices=sorted(_WORKLOADS))
        parser.add_argument("--clients", type=_clients, default=4)
        parser.add_argument("--scale", type=_positive, default=0.1)
    if json:
        parser.add_argument(
            "--json",
            help=f"write {json} as JSON ('-' for stdout; the human-readable "
            "report then moves to stderr)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="Direct-pNFS reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _verb(sub, "list", _cmd_list, "list architectures, experiments, workloads")

    p = _verb(
        sub, "run", _cmd_run, "regenerate one figure panel",
        json="the deterministic result report",
    )
    p.add_argument("experiment", choices=list(EXPERIMENTS))
    p.add_argument("--scale", type=_positive, default=0.1)
    p.add_argument("--clients", type=_client_list, help="comma-separated counts, e.g. 1,4,8")
    p.add_argument("--chart", action="store_true", help="also render an ASCII bar chart")
    p.add_argument(
        "--jobs",
        type=_at_least(1),
        help="worker processes for the cell fan-out (default: REPRO_JOBS or 1; "
        "results are identical whatever the value)",
    )
    p.add_argument(
        "--cache",
        action="store_true",
        help="skip cells already in the content-addressed result cache",
    )
    p.add_argument(
        "--cache-dir", help="cache root (default: REPRO_CACHE_DIR or .repro-cache)"
    )

    _verb(sub, "cell", _cmd_cell, "run one (architecture, workload) cell", cell=True)

    p = _verb(
        sub, "metrics", _cmd_metrics, "run one cell with the metrics registry attached",
        cell=True, json="the full report",
    )
    p.add_argument("--interval", type=_positive, default=0.25, help="sampler interval (sim s)")

    p = _verb(
        sub, "trace", _cmd_trace, "run one cell and export a Chrome/Perfetto trace",
        cell=True,
    )
    p.add_argument(
        "--out", dest="trace_out", default="repro.trace.json", help="trace file path"
    )

    p = _verb(
        sub, "torture", _cmd_torture,
        "seeded workload×fault torture sweeps with invariant checkers",
        json="failing programs",
    )
    p.add_argument(
        "--arch",
        action="append",
        choices=sorted(ARCHITECTURES),
        help="architecture to torture (repeatable; default: direct-pnfs, pnfs-2tier)",
    )
    p.add_argument("--seeds", type=_at_least(1), default=25, help="seed budget")
    p.add_argument("--start-seed", type=_at_least(0), default=0)
    p.add_argument("--replay", type=_at_least(0), help="replay one seed instead of sweeping")
    p.add_argument(
        "--shrink",
        action="store_true",
        help="with --replay: print the minimal failing program",
    )
    p.add_argument(
        "--metadata",
        action="store_true",
        help="generate metadata/namespace op kinds (truncate, remove+"
        "recreate, rename, mkdir/readdir, getattr) with coherence oracles",
    )
    p.add_argument(
        "--jobs",
        type=_at_least(1),
        help="worker processes for the episode fan-out (default: REPRO_JOBS "
        "or 1; trace hashes are identical whatever the value)",
    )

    p = _verb(
        sub, "profile", _cmd_profile, "cProfile one cell and print the hottest functions",
        cell=True, json="the top functions",
    )
    p.add_argument("--top", type=_at_least(1), default=25, help="functions to print (by cumtime)")

    args = parser.parse_args(argv)
    if "jobs" in vars(args):
        from repro.parallel import default_jobs

        try:
            args.jobs = default_jobs(args.jobs)
        except ValueError as exc:
            parser.error(str(exc))
    # Human-readable output moves to stderr when the JSON document owns
    # stdout (`--json -`): stdout stays machine-parseable either way.
    args.out = sys.stderr if getattr(args, "json", None) == "-" else sys.stdout
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
