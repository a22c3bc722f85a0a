"""Sequence file format: byte-identical round-trips and schema policing."""

import json
from fractions import Fraction as Q

import pytest

from dimwalk.seqio import (
    SequenceFormatError,
    read_sequence,
    sequence_from_json,
    sequence_to_json,
    write_sequence,
)
from dimwalk.walk import CoeffSeq


def test_exact_round_trip_is_byte_identical(tmp_path):
    seq = CoeffSeq.exact(3, [Q(1, 2), Q(-2, 7), 0, 3])
    path = tmp_path / "seq.json"
    write_sequence(path, seq)
    first = path.read_bytes()
    write_sequence(path, read_sequence(path))
    assert path.read_bytes() == first


def test_float_round_trip_is_byte_identical(tmp_path):
    seq = CoeffSeq.floats(1, [0.0, 0.6079271018540267, 1e-17, -0.25])
    path = tmp_path / "seq.json"
    write_sequence(path, seq)
    first = path.read_bytes()
    again = read_sequence(path)
    assert again.values == seq.values
    write_sequence(path, again)
    assert path.read_bytes() == first


def test_json_schema_fields():
    seq = CoeffSeq.exact(2, [Q(2, 4), Q(1, 2)])
    doc = json.loads(sequence_to_json(seq))
    assert doc == {
        "dimension": 2,
        "n_max": 1,
        "kind": "exact",
        "values": ["1/2", "1/2"],  # stored reduced
    }


@pytest.mark.parametrize(
    "text",
    [
        "not json at all",
        "[1, 2, 3]",
        '{"dimension": 1, "n_max": 1, "values": ["1", "2"]}',
        '{"dimension": 0, "n_max": 1, "kind": "exact", "values": ["1", "2"]}',
        '{"dimension": 1, "n_max": 2, "kind": "exact", "values": ["1", "2"]}',
        '{"dimension": 1, "n_max": -1, "kind": "exact", "values": []}',
        '{"dimension": 1, "n_max": 1, "kind": "decimal", "values": ["1", "2"]}',
        '{"dimension": 1, "n_max": 1, "kind": "exact", "values": ["1", "1/0"]}',
        '{"dimension": 1, "n_max": 1, "kind": "exact", "values": ["1", "x/y"]}',
        '{"dimension": 1, "n_max": 1, "kind": "float", "values": ["1.0", "inf"]}',
        '{"dimension": 1, "n_max": 1, "kind": "float", "values": ["1.0", "abc"]}',
        '{"dimension": 1, "n_max": 1, "kind": "float", "values": [1.0, 2.0]}',
        '{"dimension": true, "n_max": 1, "kind": "float", "values": ["1.0", "2.0"]}',
        '{"dimension": -3, "n_max": 1, "kind": "float", "values": ["1.0", "2.0"]}',
        '{"dimension": 1, "n_max": 1, "kind": "Float", "values": ["1.0", "2.0"]}',
        '{"dimension": 1, "n_max": 1, "kind": "float", "values": ["1.0", "nan"]}',
    ],
)
def test_malformed_documents_rejected(text):
    with pytest.raises(SequenceFormatError):
        sequence_from_json(text)
