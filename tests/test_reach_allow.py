"""The call census's allowlist names real functions, each with its reason.

``scripts/reach.py --check`` (CI's torture-smoke job) runs the census;
these tests only read the allowlist and the source, running no traffic.
"""

import json
import pathlib

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
    "the \u00a73.1 authorization model",
)


def test_every_allowlist_entry_names_a_function_with_a_reason():
    reach = load_script("reach")
    functions = reach.named_functions()
    allow = json.loads(reach.ALLOW.read_text())
    assert allow
    assert [key for key in allow if key not in functions] == []
    assert [key for key, why in allow.items() if not (isinstance(why, str) and why.strip())] == []


def test_every_reason_is_one_of_five_kinds():
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
