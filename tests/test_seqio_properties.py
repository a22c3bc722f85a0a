"""Property tests for sequence files: write -> read -> write is byte-identical
and reads back the same values, for exact sequences with large numerators and
denominators and for float sequences with signed zeros, subnormals and values
near the float range.
"""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dimwalk.seqio import read_sequence, write_sequence  # noqa: E402
from dimwalk.walk import CoeffSeq  # noqa: E402

BIG = 10**60
EXACT_VALUES = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))
FLOAT_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]),
)
PROPERTY = settings(max_examples=100, deadline=None)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("seq") / "seq.json"


def _round_trip(path, seq):
    write_sequence(path, seq)
    first = path.read_bytes()
    again = read_sequence(path)
    write_sequence(path, again)
    assert path.read_bytes() == first
    return again


@PROPERTY
@given(st.integers(1, 9), st.lists(EXACT_VALUES, min_size=1, max_size=20))
def test_exact_file_round_trip(path, dimension, values):
    seq = CoeffSeq.exact(dimension, values)
    assert _round_trip(path, seq) == seq


@PROPERTY
@given(st.integers(1, 9), st.lists(FLOAT_VALUES, min_size=1, max_size=20))
def test_float_file_round_trip(path, dimension, values):
    again = _round_trip(path, CoeffSeq.floats(dimension, values))
    # hex keeps the sign of zero apart
    assert [v.hex() for v in again.values] == [float(v).hex() for v in values]
    assert all(math.isfinite(v) for v in again.values)
