"""Differential test: ``Payload.concat`` / ``Payload.assemble`` against
the generator-expression forms they replaced.

The joins run on every striped read and every multi-piece write
gather, so they became plain loops; these references are the old
bodies, kept verbatim.  Drawn piece lists cover the empty list, real
and synthetic pieces mixed, empty pieces, interior holes (a piece
shorter than asked and followed by data) and a trailing shortfall
(end of file).  Both forms must give the same length, the same bytes
and the same synthetic-ness.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vfs import Payload


def reference_concat(parts):
    total = sum(p.nbytes for p in parts)
    if any(p.is_synthetic for p in parts):
        return Payload.synthetic(total)
    return Payload(b"".join(p.data for p in parts))


def reference_assemble(pieces):
    last_with_data = max(
        (i for i, (_want, p) in enumerate(pieces) if p.nbytes > 0), default=-1
    )
    parts = []
    for i, (want, p) in enumerate(pieces):
        if i < last_with_data and p.nbytes < want:
            gap = want - p.nbytes
            pad = Payload.synthetic(gap) if p.is_synthetic else Payload(bytes(gap))
            p = reference_concat([p, pad])
        parts.append(p)
    return reference_concat(parts)


def same(a: Payload, b: Payload) -> bool:
    return (a.nbytes, a.data, a.is_synthetic) == (b.nbytes, b.data, b.is_synthetic)


@st.composite
def payloads(draw, max_size=12):
    n = draw(st.integers(0, max_size))
    if draw(st.booleans()):
        return Payload.synthetic(n)
    return Payload(draw(st.binary(min_size=n, max_size=n)))


@st.composite
def read_pieces(draw):
    """``(asked, reply)`` in file order; a reply is never longer than asked."""
    synthetic = draw(st.sampled_from(["real", "synthetic", "mixed"]))
    pieces = []
    for _ in range(draw(st.integers(0, 6))):
        want = draw(st.integers(1, 12))
        got = draw(st.sampled_from([want, want, 0, draw(st.integers(0, want))]))
        fake = synthetic == "synthetic" or (synthetic == "mixed" and draw(st.booleans()))
        reply = Payload.synthetic(got) if fake else Payload(bytes(range(got)))
        pieces.append((want, reply))
    return pieces


@given(st.lists(payloads(), max_size=6))
@settings(max_examples=100, deadline=None)
def test_concat_matches_the_generator_form(parts):
    assert same(Payload.concat(parts), reference_concat(parts))


@given(read_pieces())
@settings(max_examples=150, deadline=None)
def test_assemble_matches_the_generator_form(pieces):
    assert same(Payload.assemble(pieces), reference_assemble(pieces))


def test_holes_fill_and_a_trailing_shortfall_stays_short():
    pieces = [(4, Payload(b"ab")), (4, Payload(b"")), (4, Payload(b"wxyz")), (4, Payload(b"q"))]
    out = Payload.assemble(pieces)
    assert out.data == b"ab\0\0\0\0\0\0wxyzq"
    assert same(out, reference_assemble(pieces))
    assert Payload.assemble([]).nbytes == 0 and not Payload.assemble([]).is_synthetic
