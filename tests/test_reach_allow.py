"""The call census's allowlist names real functions, each with its reason.

``scripts/reach.py --check`` (CI's torture-smoke job) runs the census;
these tests only read the allowlist and the source, running no product
traffic (the ``--options`` counter is driven on a toy module).
"""

import importlib.util
import json
import pathlib
import sys

from tests.conftest import load_script

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "examples"

#: The only reasons a function may sit in ``src/`` with no product
#: caller.  A function only tests read is not one of them.
REASONS = (
    "abstract method",
    "`__repr__` / `__str__`",
    "failure path",
    "ROADMAP 2a",
    "ROADMAP 2b",
    "ROADMAP 2c",
)


def test_every_allowlist_entry_names_a_function_with_a_reason():
    reach = load_script("reach")
    functions = reach.named_functions()
    allow = json.loads(reach.ALLOW.read_text())
    assert allow
    assert [key for key in allow if key not in functions] == []
    assert [key for key, why in allow.items() if not (isinstance(why, str) and why.strip())] == []


def test_every_reason_is_one_of_four_kinds():
    allow = json.loads(load_script("reach").ALLOW.read_text())
    assert [key for key, why in allow.items() if not why.startswith(REASONS)] == []


def test_function_names_are_module_and_qualname():
    functions = load_script("reach").named_functions()
    assert "repro.nfs.server:Nfs4Server._h_read" in functions
    assert "repro.check.shrink:shrink_program.<locals>.fails" in functions
    assert not any("<lambda>" in key or "<listcomp>" in key for key in functions)


def test_census_runs_every_example():
    runs = load_script("reach").example_runs()
    assert {run[0] for run in runs} == {path.name for path in EXAMPLES.glob("*.py")}


TOY = """\
from dataclasses import dataclass, field

SIZE = 64


def send(n, size=SIZE, *, name="", fast=False):
    yield n
    size = 0  # a resumed generator is not a call: this is never counted
    yield size


def go(k, scale=1.0, tag=None):
    return list(send(k, name=tag or "", fast=True))


@dataclass(frozen=True)
class Spec:
    name: str
    width: int = 8
    tags: tuple = field(default_factory=tuple)


@dataclass
class Record:
    name: str
    count: int = 0
"""


def test_the_option_counter_counts_calls_that_vary_a_default(tmp_path):
    """``--options`` counts entered calls per defaulted parameter and
    finds the ones every call held at one value, the default or another
    (``send(fast=)``); ``!=`` that raises falls back to ``is not``.  A
    frozen dataclass's fields with a default count per construction."""
    reach = load_script("reach")
    package = tmp_path / "toy"
    package.mkdir()
    (package / "mod.py").write_text(TOY)
    spec = importlib.util.spec_from_file_location("toy.mod", package / "mod.py")
    toy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(toy)

    class Unequal:
        def __ne__(self, other):
            raise TypeError("no ordering")

    counter = reach.OptionCounter(package)
    saved = sys.gettrace()
    sys.settrace(lambda frame, event, arg: counter.call(frame))
    try:
        toy.go(1)
        toy.go(2, scale=1)  # equal to the default: not varied
        toy.go(3, tag="x")
        toy.go(4, scale=Unequal())
        toy.Spec("a")
        toy.Spec("b", width=8)
        toy.Spec("c", tags=("x",))
        toy.Record("a")
        toy.Record("b")
    finally:
        sys.settrace(saved)
    assert counter.calls == {
        ("toy.mod:go", "scale"): 4,
        ("toy.mod:go", "tag"): 4,
        ("toy.mod:send", "size"): 4,
        ("toy.mod:send", "name"): 4,
        ("toy.mod:send", "fast"): 4,
        ("toy.mod:Spec", "width"): 3,
        ("toy.mod:Spec", "tags"): 3,
    }
    assert counter.varied == {
        ("toy.mod:go", "scale"), ("toy.mod:go", "tag"), ("toy.mod:send", "name"),
        ("toy.mod:Spec", "tags"),
    }
    assert counter.unvaried() == [
        ("toy.mod:send", "fast", 4, True), ("toy.mod:send", "size", 4, 64),
    ]
    # A frozen dataclass's fields with a default, read off its generated
    # ``__init__``, are reported apart from the functions' parameters;
    # a mutable one's (``Record.count``) are a state record's initial
    # values, not candidates for a constant, and are not counted.
    assert counter.unvaried(fields=True) == [("toy.mod:Spec", "width", 3, 8)]
    assert (counter.entered(), counter.entered(fields=True)) == (5, 2)
