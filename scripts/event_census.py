#!/usr/bin/env python3
"""Census of scheduled events for one cell: who schedules what, per RPC.

Wraps ``Simulator._enqueue`` from outside for one ``run_cell`` and
classifies every scheduled call by

* what it is: when an event fires, its class (``Process``) or, for a
  plain ``Event``, what the kernel call that queued it makes of it
  (``Timeout`` for a timer, armed or re-armed; ``grant`` for a queued
  ``Resource`` acquire handed its units; ``Join`` for a fan-in that
  ended with its last leg or failed with its first; ``AnyOf`` for a
  first-of; ``Event`` for anything else, such as a message's
  ``done``); else the
  function called (``_Message._tx_served``, ``Pipe._start`` for a
  pipe's grant hop, ``Process._resume`` for a start kick,
  ``Resource._end_service`` for the end of a service time ...),
* zero or positive delay (positive = a physical delay on the heap;
  ``lone`` = zero, scheduled while nothing else was due in that
  instant from the tail of a queue entry — a pipe grant, a wire
  completion, or a completion (a join, a first-of or a process firing)
  queued from the last callback of a firing or from a process's start
  entry — or by a pipe's ``release()`` handing on a service of
  positive duration),
* the kernel call that scheduled it (``serve[Resource]``,
  ``acquire[Resource]``, ``serve[Pipe]``, ``release[Pipe]``, ``spawn``, ``process``,
  ``timeout``, ``end`` of a process ...; a service that ends and hands
  its unit to a queued one reads ``release[Resource]`` from the event
  loop), and
* the first frame outside the kernel (``sim/engine.py``,
  ``sim/resources.py`` and :class:`~repro.sim.network.Pipe`) — or, for
  a process completion, the generator that finished,

then prints events by class per front-end RPC (ROADMAP item 2c's table).
It counts generator resumes (``_Driver._resume`` entries) beside them,
and prints the class mix the kernel's hot sites meet: the fired events
by exact class, and the resumes by (driver class, handed-event class)
(docs/architecture.md, "One event class").
A reader, not a hook: nothing in ``src/repro`` knows it exists, so it is
free when not run.  :func:`recording` is the one wrap of the kernel the
repo has; the events-per-RPC gate (``benchmarks/test_rpc_overhead.py``)
and the exact event budgets (``tests/sim/test_event_budget.py``) read
it too::

    python scripts/event_census.py direct-pnfs pinned            # BENCH_engine.json's cell
    python scripts/event_census.py nfsv4 ior-read-8k --clients 4 --scale 0.1
    python scripts/event_census.py direct-pnfs pinned --check    # exit 1 on a relay

``--check`` fails when the cell schedules a grant of a *free* FIFO
``Resource`` or a ``spawn`` start kick — the two relay classes PR 20
removed (docs/architecture.md, "resource grants") — or a ``lone`` call:
a pipe grant, hand-off, wire completion or completion of a join,
first-of or process that was the next thing the loop would run and
should have run in place (docs/architecture.md, "The tail rule").
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import pathlib
import sys
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.bench.experiments import MB, _ior  # noqa: E402
from repro.bench.runner import run_cell  # noqa: E402
from repro.cli import _WORKLOADS, _clients, _positive  # noqa: E402
from repro.cluster.configs import ARCHITECTURES, make_deployment  # noqa: E402
from repro.sim.engine import Event, Simulator, _Driver  # noqa: E402
from repro.sim.network import Pipe, _Message, _WireFlow  # noqa: E402

SRC = str(ROOT / "src" / "repro") + "/"
KERNEL = (SRC + "sim/engine.py", SRC + "sim/resources.py")

#: The wire's completions: always the last act of their queue entry.
WIRE_TAILS = (_WireFlow._finish.__code__, _Message._rx_served.__code__)

#: What a completion's firing is called: it fires in place at a tail.
COMPLETIONS = ("Join", "AnyOf", "Process")

#: ``pinned`` is the workload of benchmarks/test_rpc_overhead.py (with
#: the defaults below, ``direct-pnfs pinned`` is its cell).
KINDS = {
    **_WORKLOADS,
    "pinned": _ior("write", 2 * MB, shared=False),
}


#: A plain ``Event`` named by the kernel call that queued it.  A join
#: fires from its last generator leg's ``end`` (or first failure), from
#: an event leg's ``_leg_fired``, or at once from the call that built
#: it when every leg had fired already; an any-of from ``_first_fired``
#: or its builder.
PLAIN_EVENTS = {
    "timeout": "Timeout",
    "reset": "Timeout",
    "acquire[Resource]": "grant",
    "release[Resource]": "grant",
    "end": "Join",
    "_leg_fired": "Join",
    "spawn": "Join",
    "all_of": "Join",
    "_first_fired": "AnyOf",
    "any_of": "AnyOf",
}


def what(fn, arg, kernel_call: str = "?") -> str:
    """Name a queued call: the event it fires, or the function it is."""
    if fn is Event._process_callbacks:
        if type(arg) is Event:
            return PLAIN_EVENTS.get(kernel_call, "Event")
        return type(arg).__name__
    owner = getattr(fn, "__self__", None)
    if owner is not None:
        return f"{type(owner).__name__}.{fn.__name__}"
    return getattr(fn, "__qualname__", repr(fn))


def classify(fn, arg, delay: float, frame, alone: bool = False) -> tuple[str, str, str, str]:
    """``(what, delay class, kernel call, site)`` of one scheduling.

    Walks out of the kernel: the kernel call is the outermost kernel
    function on the way (what product code called), the site the first
    frame beyond it.  ``alone`` is ``Simulator.nothing_else_due()`` at
    the scheduling; with a frame on the way that calls itself a tail
    (``Pipe.serve(..., tail=True)``, the wire's completions) a
    zero-delay call is ``lone`` — unless an event fired in between:
    what a waiter of an in-place ``done`` schedules is its own.  So is
    a hand-off hop ``release[Pipe]`` queues for a job (``arg``) of
    positive duration: the hop would only schedule the job's end, and
    a completion queued at a tail (:func:`last_act`).  Past an event
    that fired in place, only the site is left to find: what its
    waiters queue is not the kernel call that fired it.
    """
    kernel_call = "?"
    site = "(event loop)"
    tail = fired = False
    start = frame
    while frame is not None:
        code = frame.f_code
        owner = frame.f_locals.get("self")
        tail = tail or (
            not fired and (frame.f_locals.get("tail") is True or code in WIRE_TAILS)
        )
        if code.co_filename not in KERNEL and not isinstance(owner, Pipe):
            site = f"{code.co_filename.removeprefix(SRC)}:{code.co_name}"
            break
        name = code.co_name
        if name == "run":
            break  # a kernel callback (a condition's check) fired it
        if name in ("_process_callbacks", "_end_service"):
            # How the kernel got here, not what was asked of it.
            fired = True
        elif fired:
            pass
        elif name == "_resume":
            # No product frame between the generator driver and the
            # scheduling: the generator itself ended (or failed).
            gen = owner._generator
            kernel_call, site = "end", getattr(gen, "__qualname__", str(gen))
            break
        else:
            if name in ("acquire", "release", "serve"):
                name += f"[{type(owner).__name__}]"
            kernel_call = name
        frame = frame.f_back
    called = what(fn, arg, kernel_call)
    if delay > 0:
        when = "delay"
    elif alone and (
        tail
        or kernel_call == "release[Pipe]" and arg[0] > 0
        or called in COMPLETIONS and last_act(start)
    ):
        when = "lone"
    else:
        when = "zero"
    return called, when, kernel_call, site


def last_act(frame) -> bool:
    """Whether the kernel frames out from ``frame`` are the last act of
    their queue entry: the last callback of a firing (none left in the
    event's ``_cbs``) or the entry itself — not a builder adding legs
    (``add_callback`` calling back on a fired leg, a spawn leg's first
    segment in ``_join``) nor anything product code called."""
    while frame is not None and frame.f_code.co_filename in KERNEL:
        name = frame.f_code.co_name
        if name == "_process_callbacks":
            return not frame.f_locals["self"]._cbs
        if name == "run":
            return True
        if name in ("add_callback", "_join"):
            return False
        frame = frame.f_back
    return False


class Recording:
    """What the simulators of a :func:`recording` block scheduled and resumed."""

    def __init__(self):
        #: Scheduled calls by :func:`classify`'s class.
        self.classes: Counter = Counter()
        #: Queued event firings by the event's exact class.
        self.fired: Counter = Counter()
        #: ``_Driver._resume`` entries by (driver class, handed-event class).
        self.drives: Counter = Counter()

    @property
    def resumes(self) -> int:
        """``_Driver._resume`` entries: generator resumes."""
        return sum(self.drives.values())

    def count(self, when: str) -> int:
        """Calls scheduled with delay class ``when`` (``delay`` = physical)."""
        return sum(n for cls, n in self.classes.items() if cls[1] == when)

    def class_mix(self) -> list[str]:
        """The two lines of what the kernel's hot sites met: fired
        events by exact class, and resumes by driver and event class."""

        def shares(counter: Counter) -> str:
            total = sum(counter.values()) or 1
            return ", ".join(
                f"{name} {100 * n / total:.1f} %" for name, n in counter.most_common()
            )

        drives = Counter({f"{d}<-{e}": n for (d, e), n in self.drives.items()})
        return [
            f"fired by class ({sum(self.fired.values())}): {shares(self.fired)}",
            f"resumes by driver<-event ({self.resumes}): {shares(drives)}",
        ]


@contextlib.contextmanager
def recording():
    """Wrap ``Simulator._enqueue`` and ``_Driver._resume`` for the block,
    class-wide, and yield the :class:`Recording` they fill."""
    rec = Recording()
    enqueue, resume = Simulator._enqueue, _Driver._resume

    def counted(self, fn, arg, delay, urgent=False):
        # ``nothing_else_due()``, read off the queue: a kernel that never
        # lets the tail rule apply still shows what it queued alone.
        queue = self._queue
        alone = not queue or queue[0][0] > self.now
        rec.classes[classify(fn, arg, delay, sys._getframe(1), alone)] += 1
        if fn is Event._process_callbacks:
            rec.fired[type(arg).__name__] += 1
        enqueue(self, fn, arg, delay, urgent)

    @functools.wraps(resume)  # a queued resume keeps its name in the census
    def resumed(self, event):
        rec.drives[type(self).__name__, type(event).__name__] += 1
        resume(self, event)

    Simulator._enqueue, _Driver._resume = counted, resumed
    try:
        yield rec
    finally:
        Simulator._enqueue, _Driver._resume = enqueue, resume


def census(arch: str, kind: str, clients: int, scale: float, seed: int | None):
    """Run the cell recorded; ``(recording, front-end RPCs, RunResult)``.

    The deployment is built inside the recorded block: construction
    queues the flushers' start kicks, and they are the cell's too."""
    with recording() as rec:
        dep = make_deployment(arch, n_clients=clients, seed=seed)
        res = run_cell(dep, KINDS[kind](scale), clients)
    return rec, sum(s.rpc.calls_served for s in dep.servers), res


def relays(classes: Counter) -> Counter:
    """The classes ``--check`` refuses: free FIFO grants, spawn kicks,
    and tail calls, pipe hand-offs and completions queued with nothing
    else due."""
    return Counter(
        {
            cls: n
            for cls, n in classes.items()
            if (cls[1] == "zero" and cls[2] == "acquire[Resource]")
            or (cls[0].endswith("._resume") and cls[2] == "spawn")
            or cls[1] == "lone"
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("arch", choices=sorted(ARCHITECTURES))
    parser.add_argument("kind", choices=sorted(KINDS))
    parser.add_argument("--clients", type=_clients, default=8)
    parser.add_argument("--scale", type=_positive, default=0.2)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--top", type=int, default=40, help="classes to print")
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 if a free FIFO grant, a spawn kick or a lone call was scheduled",
    )
    args = parser.parse_args(argv)
    rec, rpcs, _res = census(args.arch, args.kind, args.clients, args.scale, args.seed)
    classes = rec.classes
    total = sum(classes.values())
    physical = rec.count("delay")
    print(
        f"{args.arch} / {args.kind} @ {args.clients} clients (scale {args.scale}): "
        f"{total} events, {rpcs} front-end RPCs, {total / rpcs:.1f} events/RPC, "
        f"{100 * physical / total:.0f} % physical delays"
    )
    print(f"{'per RPC':>8} {'share':>6}  {'call':21} {'delay':5} {'kernel call':17} site")
    top = classes.most_common(args.top)
    for cls, n in top:
        print(f"{n / rpcs:8.2f} {100 * n / total:5.1f}%  {cls[0]:21} {cls[1]:5} {cls[2]:17} {cls[3]}")
    rest = total - sum(n for _cls, n in top)
    if rest:
        print(f"{rest / rpcs:8.2f} {100 * rest / total:5.1f}%  ({len(classes) - len(top)} more classes)")
    for line in rec.class_mix():
        print(line)
    bad = relays(classes)
    if bad:
        nbad = sum(bad.values())
        print(f"relays: {nbad} events ({nbad / rpcs:.1f} per RPC)")
        if args.check:
            for cls, n in bad.most_common():
                print(f"  {n:7d}  {' '.join(cls)}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
