"""In-memory spans around the sqwt layers, recorded from outside the package.

Each layer's public functions are wrapped at the module attribute their
callers look up (the CLI imports them inside each command, `forward` and
`inverse` call `solve` / `apply_sign_matrix` through `sqwt.transform`, and
refinement calls `sqwt.linsolve.apply_sign_matrix`), so the package itself
is unchanged. `install` returns an undo function that restores the originals.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str
    section: str
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _file_bytes(args, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _solve_report(args, result) -> dict:
    report = result[1]
    return {
        "residual_inf": report.residual_inf_norm,
        "refine_steps": report.refinement_steps_used,
    }


def _generated_values(args, result) -> dict:
    return {"values": result.series.n}


def targets():
    """(module, attribute, span name, attribute extractor) for every wrapped call."""
    import sqwt.fileio
    import sqwt.linsolve
    import sqwt.random_series
    import sqwt.transform

    fio = sqwt.fileio
    return [
        (fio, "read_series_values", "fileio.read_series", _file_bytes),
        (fio, "write_series_values", "fileio.write_series", _file_bytes),
        (fio, "read_spectrum", "fileio.read_spectrum", _file_bytes),
        (fio, "write_spectrum", "fileio.write_spectrum", _file_bytes),
        (fio, "write_plotdata", "fileio.write_plotdata", _file_bytes),
        (fio, "write_report", "fileio.write_report", _file_bytes),
        (sqwt.random_series, "generate", "random_series.generate", _generated_values),
        (sqwt.transform, "forward", "transform.forward", None),
        (sqwt.transform, "inverse", "transform.inverse", None),
        (sqwt.transform, "reconstruction_report", "transform.report", None),
        (sqwt.transform, "solve", "linsolve.solve", _solve_report),
        (sqwt.transform, "apply_sign_matrix", "linsolve.matvec", None),
        (sqwt.linsolve, "apply_sign_matrix", "linsolve.matvec", None),
    ]


class Tracer:
    """Collects spans in memory; `request` and `section` tag what follows."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = ""
        self.section = ""
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        span = Span(
            len(self.spans), name, time.perf_counter(), 0.0,
            self._stack[-1] if self._stack else None, self.request, self.section,
        )
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        self._stack.pop()
        span.end = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, fn, name: str, extract=None):
        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s)
            if extract is not None:
                s.attrs.update(extract(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target in place; returns a function that undoes it."""
        saved = []
        for module, attr, name, extract in targets():
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, extract))

        def restore():
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

        return restore


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children cover."""
    own = {s.id: s.seconds for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


def summarize(spans: list[Span]) -> dict[tuple[str, str], dict]:
    """Calls, total and self seconds per (section, span name)."""
    own = self_seconds(spans)
    table: dict[tuple[str, str], dict] = {}
    for s in spans:
        row = table.setdefault((s.section, s.name), {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.seconds
        row["self_s"] += own[s.id]
    return table


def span_cost_seconds(calls: int = 20_000) -> float:
    """Measured cost of one traced call over a plain call to the same no-op."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap(noop, "noop")
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        traced()
    return (time.perf_counter() - t0 - plain) / calls
