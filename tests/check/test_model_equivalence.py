"""The checker's model against the per-byte model it replaced.

A :class:`Tee` stands in for ``repro.check.runner.Model``: every call
the runner makes goes to both the product model and the reference
(``tests/check/reference_model.py``), and each must return the same
thing — the same write indices, and every oracle the same list of
violation strings.  The mutant gates make that comparison cover
non-empty violation lists, not only clean episodes.
"""

import pytest

from repro.check import runner
from repro.check.model import Model
from repro.check.program import generate
from repro.cluster.configs import ARCHITECTURES
from tests.check import mutants
from tests.check.reference_model import Model as ReferenceModel


class Tee:
    """Forwards each method call to both models; asserts equal results.

    Attribute reads that are not methods (``files``, ``dirs``, the
    counters) come from the product model, which is what the runner
    would have used.
    """

    def __init__(self, program):
        self.new = Model(program)
        self.ref = ReferenceModel(program)
        self.compared: dict[str, int] = {}

    def __getattr__(self, name):
        got = getattr(self.new, name)
        if not callable(got):
            return got
        want = getattr(self.ref, name)

        def both(*args, **kwargs):
            a, b = got(*args, **kwargs), want(*args, **kwargs)
            assert a == b, (name, args, a, b)
            self.compared[name] = self.compared.get(name, 0) + 1
            return a

        return both


@pytest.fixture
def teed(monkeypatch):
    """The tees ``run_episode`` builds, in order; one per episode."""
    made: list[Tee] = []

    def make(program):
        made.append(Tee(program))
        return made[-1]

    monkeypatch.setattr(runner, "Model", make)
    return made


def _episode(teed, program, arch):
    res = runner.run_episode(program, arch)
    tee = teed.pop()
    assert not teed
    assert tee.compared.get("on_write_start")
    for counter in ("reads_checked", "bytes_checked", "synthetic_reads"):
        assert getattr(tee.new, counter) == getattr(tee.ref, counter)
    return res, tee


@pytest.mark.parametrize("metadata", [False, True], ids=["data", "metadata"])
@pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
def test_every_oracle_answers_as_the_per_byte_model(teed, arch, metadata):
    for seed in range(6):
        _episode(teed, generate(seed, metadata_ops=metadata), arch)


@pytest.mark.parametrize(
    "name, seed, metadata, kind",
    [
        ("writeback", 28, False, "silent-loss"),
        ("truncate", 0, True, "truncate-resurrection"),
    ],
)
def test_violations_match_string_for_string_under_a_mutant(
    teed, monkeypatch, name, seed, metadata, kind
):
    mutants.apply(monkeypatch, name)
    res, tee = _episode(teed, generate(seed, metadata_ops=metadata), "nfsv4")
    assert any(kind in v for v in res.violations)
    assert tee.compared["check_final"]
