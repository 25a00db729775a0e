"""Spans around the library's public layer boundaries, for the traced pass only.

The tracer wraps module attributes from outside the library while a traced
operation runs and restores them afterwards, so untraced passes run the
library untouched. Each span records its name, start, end, parent span and
solve id. Operator applies (outermost ``matvec``/``rmatvec`` calls only) are
far too many to keep one by one (nearly 900,000 in a paper-n128 pass), so
each span instead counts the applies made directly inside it, with their
total time and their dense-equivalent bytes.
"""

from __future__ import annotations

import functools
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from varproj import deconv, linops, varpro

_FLOAT_BYTES = 8


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    solve: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    applies: int = 0
    apply_s: float = 0.0
    apply_bytes: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus what child spans and direct applies cover."""
        return self.duration - self.child_s - self.apply_s

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent, "solve": self.solve,
                "start": self.start, "end": self.end, "self_s": self.self_s,
                "applies": self.applies, "apply_s": self.apply_s,
                "apply_bytes": self.apply_bytes, **self.attrs}


def _dense_bytes(op) -> int:
    """Bytes of the dense forward matrix one apply streams: the m x n top block."""
    top = getattr(op, "top", op)
    return _FLOAT_BYTES * top.rows * top.cols


def stall_iterations(history) -> int:
    """Iterations after the last one that cut the best criterion by 10% or more.

    This is the stall rule of ``lsqr_solve`` itself, applied to the kept
    criterion history, so it stays fixed when the solver's rule changes.
    """
    best = math.inf
    last = -1
    for i, crit in enumerate(history):
        if crit < 0.9 * best:
            last = i
        best = min(best, crit)
    return len(history) - (last + 1)


def _lsqr_attrs(span: Span, result) -> None:
    span.attrs["iters"] = result.iterations
    span.attrs["converged"] = result.converged
    span.attrs["stall_iters"] = 0 if result.converged else stall_iterations(
        result.criterion_history)


def _grid_attrs(span: Span, result) -> None:
    span.attrs["points"] = int(len(result[0]))


# (module or class, attribute, span name, recorder of the return value)
_BOUNDARIES = (
    (varpro, "lsqr_solve", "lsqr", _lsqr_attrs),
    (varpro, "DirectFactorization", "direct", None),
    (varpro, "condition_number", "svd", None),
    (varpro, "exact_jacobian", "jacobian", None),
    (varpro, "approx_jacobian", "jacobian", None),
    (varpro, "gauss_newton_step", "gn_step", None),
    (varpro, "stack", "build", None),
    (deconv, "stack", "build", None),
    (deconv, "gaussian_toeplitz", "build", None),
    (deconv, "gaussian_toeplitz_derivative", "build", None),
    (deconv, "objective_grid", "grid", _grid_attrs),
)


class Tracer:
    """Keeps every span of a run in memory until :meth:`write`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._in_apply = False

    def open(self, name: str, solve: int | None = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        if solve is None and parent is not None:
            solve = parent.solve
        span = Span(len(self.spans), name, parent.id if parent else None, solve,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.duration

    @contextmanager
    def span(self, name: str, solve: int | None = None):
        span = self.open(name, solve)
        try:
            yield span
        finally:
            self.close(span)

    def _wrap_call(self, fn, name, record):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if record is not None:
                record(span, result)
            return result
        return wrapper

    def _wrap_apply(self, fn):
        @functools.wraps(fn)
        def wrapper(op, v):
            if self._in_apply or not self._stack:
                return fn(op, v)
            self._in_apply = True
            tic = time.perf_counter()
            try:
                return fn(op, v)
            finally:
                elapsed = time.perf_counter() - tic
                self._in_apply = False
                span = self._stack[-1]
                span.applies += 1
                span.apply_s += elapsed
                span.apply_bytes += _dense_bytes(op)
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every layer boundary for the duration of the block."""
        saved = []
        targets = [(owner, attr, self._wrap_call(getattr(owner, attr), name, record))
                   for owner, attr, name, record in _BOUNDARIES]
        targets += [(linops.LinearOperator, attr,
                     self._wrap_apply(getattr(linops.LinearOperator, attr)))
                    for attr in ("matvec", "rmatvec")]
        try:
            for owner, attr, wrapper in targets:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path, header: dict) -> None:
        """Write the header and then one JSON object per span."""
        with open(path, "w") as handle:
            handle.write(json.dumps(header) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer work counts, busy times and waste ratios of a traced pass."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def group(name):
        return by_name.get(name, [])

    def total(name, attr):
        return sum(getattr(s, attr) for s in group(name))

    def mean(value, count, scale):
        return value / count * scale if count else 0.0

    applies = sum(s.applies for s in spans)
    apply_s = sum(s.apply_s for s in spans)
    apply_bytes = sum(s.apply_bytes for s in spans)
    lsqr = group("lsqr")
    iters = sum(s.attrs["iters"] for s in lsqr)
    stall = sum(s.attrs["stall_iters"] for s in lsqr)
    grid_points = sum(s.attrs["points"] for s in group("grid"))
    return {
        "linops.apply.count": applies,
        "linops.apply.us": mean(apply_s, applies, 1e6),
        "linops.apply.gbs_computed": mean(apply_bytes, apply_s, 1e-9),
        "linops.build.count": len(group("build")),
        "linops.build.us": mean(total("build", "duration"), len(group("build")), 1e6),
        "lsqr.calls": len(lsqr),
        "lsqr.iters": iters,
        "lsqr.us_per_iter": mean(total("lsqr", "duration"), iters, 1e6),
        "lsqr.self_s": total("lsqr", "self_s"),
        "lsqr.applies_per_iter": mean(sum(s.applies for s in lsqr), iters, 1.0),
        "lsqr.unconverged": sum(not s.attrs["converged"] for s in lsqr),
        "lsqr.unconverged_iters": sum(s.attrs["iters"] for s in lsqr if not s.attrs["converged"]),
        "lsqr.stall_iters": stall,
        "lsqr.useful_frac": 1.0 - stall / iters if iters else 1.0,
        "direct.count": len(group("direct")),
        "direct.ms": mean(total("direct", "duration"), len(group("direct")), 1e3),
        "direct.self_s": total("direct", "self_s"),
        "svd.count": len(group("svd")),
        "svd.s": total("svd", "duration"),
        "outer.self_s": total("solve", "self_s"),
        "jacobian.count": len(group("jacobian")),
        "jacobian.ms": mean(total("jacobian", "duration"), len(group("jacobian")), 1e3),
        "gn_step.count": len(group("gn_step")),
        "gn_step.us": mean(total("gn_step", "duration"), len(group("gn_step")), 1e6),
        "grid.points": grid_points,
        "grid.us_per_point": mean(total("grid", "duration"), grid_points, 1e6),
    }
