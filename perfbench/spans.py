"""In-memory spans recorded around calls into the flow's layers.

The benchmark traces the library from the outside: :func:`instrument`
temporarily replaces the public entry points at the import sites that
``run_blasys`` and ``explore`` use with wrappers that open a span per
call, and restores the originals on exit.  Nothing under ``src/``
changes.  A boundary that no longer exists (renamed or removed at a later
commit) is reported as absent, never as an error.

Spans are kept in memory and written once, as Chrome trace-event JSON
(opens in Perfetto / ``chrome://tracing``), when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

#: (module, attribute path, span name): the layer boundaries, named after
#: the module that owns the traced function.  Module-level names are
#: patched where the *caller* looks them up (``repro.flow`` for
#: ``run_blasys``'s callees, ``repro.core.explorer`` for ``explore``'s);
#: methods are patched on their class.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.flow", "explore", "core.explorer"),
    ("repro.flow", "evaluate_design", "synth.evaluate_design"),
    ("repro.flow", "measure_error", "flow.measure_error"),
    ("repro.core.explorer", "decompose", "partition.decompose"),
    ("repro.core.explorer", "profile_windows", "core.profile"),
    ("repro.core.explorer", "ExplorationResult.realize", "partition.realize"),
    ("repro.core.engine", "CompiledEvaluator.preview_scan", "core.engine.scan"),
    ("repro.core.engine", "CompiledEvaluator.commit", "core.engine.commit"),
    ("repro.core.qor", "QoREvaluator.evaluate_delta", "core.qor.delta"),
    ("repro.core.qor", "QoREvaluator.rebase", "core.qor.rebase"),
)


@dataclass(frozen=True)
class Span:
    """One timed call.  ``parent`` is ``-1`` for a root span."""

    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int
    run: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Collects nested spans from one thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 0
        self.run = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.run))

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def run_spans(self, run: int) -> List[Span]:
        return [s for s in self.spans if s.run == run]


def _resolve(module: str, path: str):
    """``(owner, attribute, original, owned)`` or ``None`` when absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    if not callable(original):
        return None
    owned = attr in vars(owner)
    return owner, attr, original, owned


@contextmanager
def instrument(
    tracer: Tracer, boundaries=BOUNDARIES
) -> Iterator[List[str]]:
    """Wrap every present boundary for the duration of the block.

    Yields the span names of absent boundaries.
    """
    patched = []
    absent = []
    try:
        for module, path, name in boundaries:
            found = _resolve(module, path)
            if found is None:
                absent.append(name)
                continue
            owner, attr, original, owned = found
            setattr(owner, attr, tracer.wrap(original, name))
            patched.append((owner, attr, original, owned))
        yield absent
    finally:
        for owner, attr, original, owned in reversed(patched):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def self_times(spans: List[Span]) -> Dict[int, int]:
    """Each span's duration minus the part its children cover (ns)."""
    children: Dict[int, List[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0
        cursor = s.start_ns
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start_ns):
            lo, hi = max(c.start_ns, cursor), min(c.end_ns, s.end_ns)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration_ns - covered
    return out


def check_self_times(
    spans: List[Span], tolerance: float = 0.01
) -> List[str]:
    """Spans whose children plus self time miss their duration by more
    than ``tolerance`` of it — overlapping or escaping children."""
    selfs = self_times(spans)
    child_sum: Dict[int, int] = {}
    for s in spans:
        child_sum[s.parent] = child_sum.get(s.parent, 0) + s.duration_ns
    bad = []
    for s in spans:
        total = child_sum.get(s.id, 0) + selfs[s.id]
        if abs(total - s.duration_ns) > tolerance * s.duration_ns:
            bad.append(
                f"{s.name}#{s.id}: children+self {total} ns vs "
                f"duration {s.duration_ns} ns"
            )
    return bad


def layer_totals(spans: List[Span]) -> Dict[str, Tuple[int, int, int]]:
    """``name -> (calls, total ns, self ns)`` summed over ``spans``."""
    selfs = self_times(spans)
    out: Dict[str, Tuple[int, int, int]] = {}
    for s in spans:
        calls, total, own = out.get(s.name, (0, 0, 0))
        out[s.name] = (calls + 1, total + s.duration_ns, own + selfs[s.id])
    return out


def write_chrome_trace(
    spans: List[Span], path: str, meta: Optional[dict] = None
) -> None:
    """Chrome trace-event JSON: one complete ("X") event per span, one
    track per traced run."""
    origin = min((s.start_ns for s in spans), default=0)
    events = [
        {
            "name": s.name,
            "ph": "X",
            "ts": (s.start_ns - origin) / 1e3,
            "dur": s.duration_ns / 1e3,
            "pid": 1,
            "tid": s.run,
            "args": {"span": s.id, "parent": s.parent, "run": s.run},
        }
        for s in sorted(spans, key=lambda s: (s.run, s.start_ns))
    ]
    doc = {"traceEvents": events, "displayTimeUnit": "ms"}
    if meta:
        doc["metadata"] = meta
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
