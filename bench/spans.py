"""Spans recorded around calls into dimwalk's modules, from outside the program.

``install`` replaces each traced public function by a wrapper at every
dimwalk module attribute bound to it, so calls from one module into another
(``dimwalk.walk.odd_weights``, ``dimwalk.models.evaluate_series``, ...) and
calls through the defining module (``dimwalk.series.evaluate_series``) all
pass through the wrapper. Spans (name, start, end, parent) stay in memory
until the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys
import time

# (span name, defining module, attribute)
FUNCTIONS = (
    ("exactnum.pochhammer", "dimwalk.exactnum", "pochhammer"),
    ("weights.odd_weights", "dimwalk.weights", "odd_weights"),
    ("weights.even_weights", "dimwalk.weights", "even_weights"),
    ("walk.walk_closed_form", "dimwalk.walk", "walk_closed_form"),
    ("walk.step_up", "dimwalk.walk", "step_up"),
    ("walk.verify_walk_equivalence", "dimwalk.walk", "verify_walk_equivalence"),
    ("series.evaluate_series", "dimwalk.series", "evaluate_series"),
    ("series.extract_fourier", "dimwalk.series", "extract_fourier"),
    ("series.extract_legendre", "dimwalk.series", "extract_legendre"),
    ("series.gauss_legendre_rule", "dimwalk.series", "gauss_legendre_rule"),
    ("series.gram_psd_check", "dimwalk.series", "gram_psd_check"),
    ("series.symmetric_eigenvalues", "dimwalk.series", "symmetric_eigenvalues"),
    ("series.check_membership", "dimwalk.series", "check_membership"),
    ("seqio.read_sequence", "dimwalk.seqio", "read_sequence"),
    ("seqio.write_sequence", "dimwalk.seqio", "write_sequence"),
)
AS_FLOATS = "weights.as_floats"  # WalkWeights.as_floats, a method
EVALUATOR = "models.evaluator"  # SphericalModel.evaluator of every model built
SPAN_NAMES = tuple(name for name, _, _ in FUNCTIONS) + (AS_FLOATS, EVALUATOR)
COUNTERS = ("seqio.bytes_read", "seqio.bytes_written")
# Layers whose cold cost is paid once per process (memoised rows, the
# recursion beneath them, cached quadrature rules): also reported for the
# untimed warm-up round.
WARMUP_SPANS = (
    "exactnum.pochhammer",
    "weights.odd_weights",
    "weights.even_weights",
    "series.gauss_legendre_rule",
)


class Recorder:
    """Spans and byte counters of one process, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._open: list[int] = []

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1])
            self._open.append(idx)
            self.spans[idx][1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._open.pop()

        return wrapper

    def take(self) -> tuple[list, dict]:
        """Hand over and forget what was recorded so far."""
        spans, counters = self.spans, self.counters
        self.spans, self.counters = [], dict.fromkeys(COUNTERS, 0)
        return spans, counters

    def dump(self, path) -> None:
        spans, counters = self.take()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "counters": counters}, fh)


def self_times(spans) -> dict[str, list]:
    """name -> [calls, self seconds]; self time is a span's duration minus
    the durations of its direct children (children nest inside parents)."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = {}
    for i, (name, start, end, _) in enumerate(spans):
        acc = out.setdefault(name, [0, 0.0])
        acc[0] += 1
        acc[1] += (end - start) - child[i]
    return out


def install(rec: Recorder):
    """Wrap the traced functions; returns a callable that undoes it."""
    import dimwalk  # noqa: F401  (loads every submodule)

    mods = [m for n, m in sys.modules.items() if n == "dimwalk" or n.startswith("dimwalk.")]
    undo = []

    def rebind(orig, new):
        for m in mods:
            for attr, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, attr, new)
                    undo.append((m, attr, orig))

    for name, modname, attr in FUNCTIONS:
        orig = getattr(sys.modules[modname], attr)
        wrapped = rec.span(name, orig)
        if attr == "read_sequence":
            wrapped = _count_bytes(rec, "seqio.bytes_read", wrapped, before=True)
        elif attr == "write_sequence":
            wrapped = _count_bytes(rec, "seqio.bytes_written", wrapped, before=False)
        rebind(orig, wrapped)

    weights = sys.modules["dimwalk.weights"]
    orig_as_floats = weights.WalkWeights.as_floats
    weights.WalkWeights.as_floats = rec.span(AS_FLOATS, orig_as_floats)
    undo.append((weights.WalkWeights, "as_floats", orig_as_floats))

    # Models carry their evaluator as a field, so wrap it where models are made.
    for modname, attr in (("dimwalk.models", "get_model"), ("dimwalk.series", "model_from_seq")):
        orig = getattr(sys.modules[modname], attr)
        rebind(orig, _wrap_evaluator(rec, orig))

    def uninstall():
        for target, attr, orig in reversed(undo):
            setattr(target, attr, orig)

    return uninstall


def _count_bytes(rec, counter, fn, before):
    @functools.wraps(fn)
    def wrapper(path, *args, **kwargs):
        if before:
            rec.counters[counter] += os.path.getsize(path)
        out = fn(path, *args, **kwargs)
        if not before:
            rec.counters[counter] += os.path.getsize(path)
        return out

    return wrapper


def _wrap_evaluator(rec, factory):
    @functools.wraps(factory)
    def wrapper(*args, **kwargs):
        model = factory(*args, **kwargs)
        return dataclasses.replace(model, evaluator=rec.span(EVALUATOR, model.evaluator))

    return wrapper
