#!/usr/bin/env python3
"""Call census: which ``src/repro`` functions does product traffic enter?

Every named function in ``src/repro`` must be entered by a figure panel,
a torture episode, an example, a CLI verb or a benchmark workload, or be
named in ``scripts/reach_allow.json`` with a one-line reason (a failure
path, a ROADMAP item that will use it, a reader outside ``src/``)::

    python scripts/reach.py            # run the census, list the unreached
    python scripts/reach.py --check    # ... and exit 1 on a gap or a stale entry
    python scripts/reach.py --options  # ... and list the parameters held at one value

``--check`` fails when a named function no source enters is not in the
allowlist, or when an allowlist entry names no function any more.  An
allowlisted function that traffic now reaches is only reported.

``--options`` compares, in the same pass, the value each call binds to
a parameter with a default with the value the first call bound
(``!=``, falling back to ``is not`` where ``!=`` raises), and prints
the parameters of entered functions that every call held at one value
— the default or another — with that value and the call count; then,
the same way, the fields with a default of ``src/repro`` frozen
dataclasses (their generated ``__init__``) that every construction held
at one value.  A mutable dataclass is a state record, not a
configuration: its defaults are initial values, so it is not listed.  It is a report: such a parameter or field is a candidate for a
constant, not a verdict.  The figures run at scale 0.02 only, so a
value that only larger runs vary reads as held: ``Resource.acquire``'s
``units`` is 1 in every census call, yet a storage daemon's write-behind
wait asks for more than one unit once an IOR write at scale 0.25 fills
it.

A function is ``module:qualname`` (``repro.nfs.server:Nfs4Server._h_read``);
lambdas, comprehensions, module and class bodies are not counted.  The
census is ``sys.settrace`` with call events only (no line tracer, so
``repro profile``'s cProfile runs under it), in this process, so every
source runs serially.  The traffic, one source after another:

* ``figures``: every panel at scale 0.02, its first and last client count;
* ``torture``: the 360 episodes ``scripts/trace_pins.py`` replays;
* ``examples``: every example, with the arguments ``tests/test_examples.py``
  gives it;
* ``cli``: every verb once, ``run --cache`` twice and ``torture --replay``;
* ``perf``: ``perf/run.py --workload W --quick --reps 1`` for every
  workload at ``--trace 0`` and ``--trace 1``.

It takes several minutes; CI's torture-smoke job runs ``--check``.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import dataclasses
import dis
import inspect
import io
import json
import os
import pathlib
import runpy
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
ALLOW = ROOT / "scripts" / "reach_allow.json"
FIGURE_SCALE = 0.02


def _module_of(path: pathlib.Path, root: pathlib.Path) -> str:
    parts = path.relative_to(root).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _functions(code, prefix: str = ""):
    """``(qualname, code)`` of every ``def`` below ``code``: not lambdas,
    comprehensions or class bodies (the qualname is computed, not read
    off ``co_qualname``, which Python 3.10 lacks)."""
    for const in code.co_consts:
        if not inspect.iscode(const):
            continue
        qualname = prefix + const.co_name
        if not const.co_flags & inspect.CO_OPTIMIZED:  # a class body
            yield from _functions(const, qualname + ".")
            continue
        if not const.co_name.startswith("<"):
            yield qualname, const
        yield from _functions(const, qualname + ".<locals>.")


Site = tuple[str, int, str]  # (file, first line, name) of a code object


def named_functions(package: pathlib.Path = PACKAGE) -> dict[str, set[Site]]:
    """``module:qualname`` -> the site of each of its code objects (a
    name defined twice, say in two branches, has two), read off the
    source without importing it."""
    out: dict[str, set[Site]] = {}
    for path in sorted(package.rglob("*.py")):
        filename = os.path.realpath(path)
        module = _module_of(path, package.parent)
        for qualname, code in _functions(compile(path.read_text(), filename, "exec")):
            site = (filename, code.co_firstlineno, code.co_name)
            out.setdefault(f"{module}:{qualname}", set()).add(site)
    return out


def _defaults(package: pathlib.Path) -> dict[Site, list[str]]:
    """Site -> the parameters with a default of every ``def`` below
    ``package`` that has any (a decorated def's code starts at its
    first decorator)."""
    out = {}
    for path in sorted(package.rglob("*.py")):
        filename = os.path.realpath(path)
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            pairs = list(zip(positional[len(positional) - len(a.defaults):], a.defaults))
            pairs += [(arg, d) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            if pairs:
                line = min([node.lineno] + [d.lineno for d in node.decorator_list])
                out[(filename, line, node.name)] = [arg.arg for arg, _default in pairs]
    return out


def _first_yield(code) -> int:
    """Offset of ``code``'s first yield: a call event below it enters the
    frame, one at or past it resumes a generator (not a call)."""
    offsets = [
        ins.offset for ins in dis.get_instructions(code)
        if ins.opname in ("YIELD_VALUE", "YIELD_FROM", "SEND")
    ]
    return min(offsets, default=sys.maxsize)


class OptionCounter:
    """Per ``(function, parameter with a default)``: the calls that
    entered the function, the value the first call bound it to, and
    whether a later call bound another.  A frozen dataclass's generated
    ``__init__`` counts as function ``module:Class``, its fields with a
    default as the parameters.  :meth:`call` is fed every call event."""

    def __init__(self, package: pathlib.Path = PACKAGE):
        self._defaults = _defaults(package)
        self._names = {site: key for key, sites in named_functions(package).items()
                       for site in sites}
        self._modules = {_module_of(path, package.parent) for path in package.rglob("*.py")}
        self._entries: dict = {}  # code -> (function, [parameter], first yield)
        self.calls: dict[tuple[str, str], int] = {}
        #: The value the first call bound, kept while no call has varied it.
        self.held: dict[tuple[str, str], object] = {}
        self.varied: set[tuple[str, str]] = set()
        #: The ``module:Class`` keys of the dataclasses entered.
        self.dataclasses: set[str] = set()

    def _dataclass(self, frame):
        """``(module:Class, [field with a default])`` if ``frame`` runs
        the generated ``__init__`` of a frozen dataclass of the package:
        a value object, a candidate for a constant.  A mutable one is a
        state record whose fields start at their initial values."""
        code = frame.f_code
        if code.co_name != "__init__" or not code.co_argcount:
            return None, []
        for cls in type(frame.f_locals.get(code.co_varnames[0])).__mro__:
            init = cls.__dict__.get("__init__")
            if getattr(init, "__code__", None) is code:
                break
        else:
            return None, []
        if (not dataclasses.is_dataclass(cls) or not cls.__dataclass_params__.frozen
                or cls.__module__ not in self._modules):
            return None, []
        function = f"{cls.__module__}:{cls.__qualname__}"
        self.dataclasses.add(function)
        return function, [
            p.name for p in inspect.signature(init).parameters.values()
            if p.default is not p.empty
        ]

    def _entry(self, frame):
        code = frame.f_code
        site = (os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name)
        function = self._names.get(site)
        if function:
            params = self._defaults.get(site, [])
        else:
            function, params = self._dataclass(frame)
        for name in params:
            self.calls[function, name] = 0
        return (function, params, _first_yield(code)) if params else None

    def call(self, frame) -> None:
        code = frame.f_code
        try:
            entry = self._entries[code]
        except KeyError:
            entry = self._entries[code] = self._entry(frame)
        if entry is None or frame.f_lasti >= entry[2]:
            return
        function, params, _ = entry
        local = frame.f_locals
        for name in params:
            key = function, name
            value = local[name]
            self.calls[key] += 1
            if key in self.varied:
                continue
            if key not in self.held:
                self.held[key] = value
                continue
            held = self.held[key]
            try:
                differs = bool(value != held)
            except Exception:
                differs = value is not held
            if differs:
                self.varied.add(key)
                del self.held[key]  # no reference kept to a varied value

    def entered(self, fields: bool = False) -> int:
        """How many parameters with a default (``fields``: dataclass
        fields) entered functions have."""
        return sum(1 for (function, _), n in self.calls.items()
                   if n and (function in self.dataclasses) == fields)

    def unvaried(self, fields: bool = False) -> list[tuple[str, str, int, object]]:
        """``(function, parameter, calls, value)`` of every entered
        function's parameter (``fields``: dataclass field) that every
        call held at one value, most calls first."""
        return sorted(
            ((function, name, n, self.held[function, name])
             for (function, name), n in self.calls.items()
             if n and (function, name) not in self.varied
             and (function in self.dataclasses) == fields),
            key=lambda row: (-row[2], row[0], row[1]),
        )


# -- traffic ------------------------------------------------------------------


def _figures(tmp: pathlib.Path) -> None:
    from repro.bench.experiments import EXPERIMENTS, run_experiment

    for name, exp in EXPERIMENTS.items():
        counts = sorted({exp.client_counts[0], exp.client_counts[-1]})
        run_experiment(name, scale=FIGURE_SCALE, client_counts=counts)


def _torture(tmp: pathlib.Path) -> None:
    sys.path.insert(0, str(ROOT / "scripts"))
    import trace_pins

    for key in trace_pins.keys():
        trace_pins.run_pin(key)


def example_runs() -> list[tuple[str, ...]]:
    """``(script, *argv)`` of every ``run_example`` call in the examples'
    smoke tests."""
    tree = ast.parse((ROOT / "tests" / "test_examples.py").read_text())
    return [
        tuple(arg.value for arg in node.args)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "run_example"
    ]


def _examples(tmp: pathlib.Path) -> None:
    runs = example_runs()
    missing = {p.name for p in (ROOT / "examples").glob("*.py")} - {r[0] for r in runs}
    if missing:
        raise SystemExit(f"examples the smoke tests do not run: {sorted(missing)}")
    saved = sys.argv
    try:
        for name, *argv in runs:
            sys.argv = [name, *argv]
            runpy.run_path(str(ROOT / "examples" / name), run_name="__main__")
    finally:
        sys.argv = saved


def _cli(tmp: pathlib.Path) -> None:
    from repro.cli import main

    cell = ["--clients", "1", "--scale", str(FIGURE_SCALE)]
    cached_run = ["run", "fig6a", "--scale", str(FIGURE_SCALE), "--clients", "1",
                  "--jobs", "1", "--cache", "--cache-dir", str(tmp / "cache")]
    for argv in [
        ["list"],
        cached_run + ["--json", str(tmp / "fig6a.json")],
        cached_run + ["--chart"],
        ["cell", "direct-pnfs", "ior-write", *cell],
        ["metrics", "direct-pnfs", "ior-read", *cell, "--interval", "0.01",
         "--json", str(tmp / "metrics.json")],
        ["trace", "pnfs-2tier", "ior-read-8k", *cell, "--out", str(tmp / "trace.json")],
        ["profile", "nfsv4", "mdtest", *cell, "--top", "5"],
        ["torture", "--seeds", "2", "--arch", "pvfs2", "--jobs", "1",
         "--json", str(tmp / "fail.json")],
        ["torture", "--replay", "3", "--metadata", "--arch", "direct-pnfs", "--shrink"],
    ]:
        main(argv)


def _perf(tmp: pathlib.Path) -> None:
    sys.path.insert(0, str(ROOT))
    from perf import run
    from perf.workloads import WORKLOADS

    for trace in ("0", "1"):
        for name in WORKLOADS:
            run.main(["--workload", name, "--quick", "--reps", "1", "--trace", trace,
                      "--out", str(tmp / f"perf-{name}-{trace}.json")])


SOURCES = {
    "figures": _figures,
    "torture": _torture,
    "examples": _examples,
    "cli": _cli,
    "perf": _perf,
}


def census(options: OptionCounter | None = None) -> dict[str, set[Site]]:
    """Source name -> the site of every ``src/repro`` code object it
    entered; ``options``, if given, is fed every call event as well."""
    sys.path.insert(0, str(SRC))
    prefix = os.path.realpath(PACKAGE) + os.sep
    reached: dict[str, set[Site]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, source in SOURCES.items():
            codes = set()
            enter = codes.add

            if options is None:
                def tracer(frame, event, arg):
                    enter(frame.f_code)
            else:
                def tracer(frame, event, arg, count=options.call):
                    enter(frame.f_code)
                    count(frame)

            started = time.perf_counter()
            sys.settrace(tracer)
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    source(pathlib.Path(tmp))
            finally:
                sys.settrace(None)
            reached[name] = {
                (os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name)
                for c in codes
                if os.path.realpath(c.co_filename).startswith(prefix)
            }
            print(f"  {name:9s} {time.perf_counter() - started:6.1f} s", flush=True)
    return reached


def _short(value, width: int = 40) -> str:
    text = repr(value)
    return text if len(text) <= width else text[: width - 3] + "..."


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on an unlisted unreached function or a stale entry")
    parser.add_argument("--options", action="store_true",
                        help="also list the parameters with a default held at one value")
    args = parser.parse_args(argv)
    functions = named_functions()
    allow = json.loads(ALLOW.read_text())
    options = OptionCounter() if args.options else None
    print(f"{len(functions)} named functions in src/repro; census:")
    reached = census(options)
    for name, codes in reached.items():
        print(f"  {name:9s} enters {sum(1 for sites in functions.values() if sites & codes)}")
    entered = set().union(*reached.values())
    unreached = sorted(key for key, sites in functions.items() if not sites & entered)
    gaps = [key for key in unreached if key not in allow]
    stale = sorted(key for key in allow if key not in functions)
    now_reached = sorted(key for key in allow if key in functions and key not in unreached)
    print(f"{len(functions) - len(unreached)} reached, {len(unreached)} unreached "
          f"({len(unreached) - len(gaps)} allowlisted)")
    for key in now_reached:
        print(f"  reached now, may leave the allowlist: {key}")
    for key in stale:
        print(f"  STALE allowlist entry (no such function): {key}")
    for key in gaps:
        print(f"  UNREACHED, not allowlisted: {key}")
    if options is not None:
        for fields, what in ((False, "parameters"), (True, "dataclass fields")):
            rows = options.unvaried(fields)
            print(f"{len(rows)} of {options.entered(fields)} entered {what} with a "
                  f"default: every call held them at one value (calls)")
            for function, name, n, value in rows:
                print(f"  {n:9d}  {function}({name}={_short(value)})")
    return 1 if args.check and (gaps or stale) else 0


if __name__ == "__main__":
    sys.exit(main())
