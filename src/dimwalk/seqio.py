"""Reading and writing coefficient-sequence files.

The canonical on-disk form is JSON with string-encoded values: exact entries
as reduced fractions ("p/q" or a bare integer), float entries as shortest
round-trip decimals. Writing is deterministic, so write -> read -> write is
byte-identical.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .walk import EXACT, CoeffSeq

__all__ = [
    "SequenceFormatError",
    "sequence_to_json",
    "sequence_from_json",
    "read_sequence",
    "write_sequence",
]


class SequenceFormatError(ValueError):
    """A sequence file does not match the expected schema."""


def sequence_to_json(seq: CoeffSeq) -> str:
    if seq.kind == EXACT:
        vals = [str(v) for v in seq.values]
    else:
        vals = [repr(v) for v in seq.values]
    doc = {
        "dimension": seq.dimension,
        "n_max": seq.n_max,
        "kind": seq.kind,
        "values": vals,
    }
    return json.dumps(doc, indent=2) + "\n"


def sequence_from_json(text: str) -> CoeffSeq:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SequenceFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SequenceFormatError("top level must be a JSON object")
    keys = ("dimension", "n_max", "kind", "values")
    for key in keys:
        if key not in doc:
            raise SequenceFormatError(f"missing required key {key!r}")
    dimension, n_max, kind, raw = (doc[key] for key in keys)
    if not isinstance(dimension, int) or isinstance(dimension, bool):
        raise SequenceFormatError("'dimension' must be an integer")
    if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 0:
        raise SequenceFormatError("'n_max' must be an integer >= 0")
    if not isinstance(raw, list) or not all(isinstance(v, str) for v in raw):
        raise SequenceFormatError("'values' must be a list of strings")
    if len(raw) != n_max + 1:
        raise SequenceFormatError(
            f"'values' must have n_max + 1 = {n_max + 1} entries, got {len(raw)}"
        )
    parse = Fraction if kind == EXACT else float
    try:
        values = tuple(parse(s) for s in raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise SequenceFormatError(f"bad value: {exc}") from exc
    try:  # CoeffSeq judges dimension >= 1, the kind and finiteness
        return CoeffSeq(dimension, values, kind)
    except ValueError as exc:
        raise SequenceFormatError(str(exc)) from exc


def read_sequence(path) -> CoeffSeq:
    return sequence_from_json(Path(path).read_text(encoding="utf-8"))


def write_sequence(path, seq: CoeffSeq) -> None:
    Path(path).write_text(sequence_to_json(seq), encoding="utf-8")
