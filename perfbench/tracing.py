"""Benchmark-side tracing: spans recorded around calls into each layer.

Nothing here touches the program's own telemetry.  A :class:`Tracer`
replaces public functions and methods of :mod:`repro` with thin wrappers
that append one span per call (name, start, end, parent, thread) to an
in-memory list; :func:`layer_metrics` and :func:`layer_table` turn the
spans into the per-layer numbers after the run.

A span's layer is the part of its name before the first dot.  Its parent
is the innermost open span on the same thread; a span that opens on a
thread with nothing open (an SPMD rank thread) is parented, after the
run, to the innermost ``parallel.spmd`` span on another thread whose
interval contains it.  Self time is a span's duration minus the union of
its children's intervals, so it is measured in thread-seconds: rows of
the table add up to more than the wall clock when threads overlap.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
from time import perf_counter
from typing import Any, Callable

#: (span id, name, start, end, parent id, thread id); parent 0 = root
Span = tuple[int, str, float, float, int, int]


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: span id -> payload size recorded by a ``note`` callback
        self.bytes: dict[int, int] = {}
        #: free-form facts recorded by ``note`` callbacks
        self.notes: dict[str, list[Any]] = {}
        self._ids = itertools.count(1)
        self._tls = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, note: Callable | None = None) -> Callable:
        """``fn`` with one span per call; ``note(tracer, sid, args, out)`` after."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, t0, t1, parent, threading.get_ident()))
            if note is not None:
                note(tracer, sid, args, out)
            return out

        return traced

    def note(self, key: str, value: Any) -> None:
        self.notes.setdefault(key, []).append(value)

    # -- patching ------------------------------------------------------------

    def patch_method(self, cls: type, attr: str, name: str, note: Callable | None = None) -> None:
        setattr(cls, attr, self.wrap(name, cls.__dict__[attr], note))

    def patch_function(
        self, module: str, attr: str, name: str, note: Callable | None = None
    ) -> None:
        """Replace ``module.attr`` in every loaded module bound to it.

        Callers that did ``from module import attr`` hold their own
        reference, so each ``repro`` module whose global is the same
        object gets the wrapper too.
        """
        original = getattr(sys.modules[module], attr)
        wrapper = self.wrap(name, original, note)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro" or mod is None:
                continue
            if vars(mod).get(attr) is original:
                setattr(mod, attr, wrapper)

    # -- analysis ------------------------------------------------------------

    def resolved(self) -> list[Span]:
        """Spans with cross-thread roots parented to their SPMD call."""
        spmd = [s for s in self.spans if s[1] == "parallel.spmd"]
        out = []
        for s in self.spans:
            if s[4] == 0:
                holders = [
                    p for p in spmd if p[5] != s[5] and p[2] <= s[2] and s[3] <= p[3]
                ]
                if holders:
                    s = (*s[:4], max(holders, key=lambda p: p[2])[0], s[5])
            out.append(s)
        return out


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _overlap(a: float, b: float, intervals: list[tuple[float, float]]) -> float:
    return _union_length([(max(a, x), min(b, y)) for x, y in intervals if x < b and y > a])


def _self_seconds(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[4]:
            children.setdefault(s[4], []).append((s[2], s[3]))
    return {s[0]: (s[3] - s[2]) - _overlap(s[2], s[3], children.get(s[0], [])) for s in spans}


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self thread-seconds per layer."""
    own = _self_seconds(spans)
    out: dict[str, float] = {}
    for s in spans:
        layer = s[1].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own[s[0]]
    return out


def _outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans called ``name`` with no ancestor of the same name."""
    by_id = {s[0]: s for s in spans}
    keep = []
    for s in spans:
        if s[1] != name:
            continue
        p = by_id.get(s[4])
        while p is not None and p[1] != name:
            p = by_id.get(p[4])
        if p is None:
            keep.append(s)
    return keep


def totals(spans: list[Span], name: str) -> tuple[float, int]:
    """(inclusive seconds, call count) of the outermost ``name`` spans."""
    top = _outermost(spans, name)
    return sum(s[3] - s[2] for s in top), len(top)


def layer_metrics(tracer: Tracer, solver_thread: int | None) -> dict[str, float]:
    """Every span-derived per-layer metric (absent layers read 0)."""
    spans = tracer.resolved()
    m: dict[str, float] = {}
    for name in (
        "sim.force",
        "insitu.fof",
        "parallel.spmd",
        "analysis.fof_grid",
        "analysis.halo_centers",
        "exec.centers",
        "core.offline_job",
        "streaming.ingest",
        "service.payload",
    ):
        m[f"{name}_s"], m[f"{name}_calls"] = totals(spans, name)
    m["service.transition_s"], m["service.transitions"] = totals(spans, "service.transition")
    for name in (
        "insitu.centers",
        "insitu.l2_write",
        "core.merge",
        "streaming.ps_update",
        "streaming.finalize",
        "service.submit",
        "service.pack",
    ):
        m[f"{name}_s"] = totals(spans, name)[0]
    for kind in ("write", "read"):
        top = _outermost(spans, f"io.{kind}")
        m[f"io.{kind}_s"] = sum(s[3] - s[2] for s in top)
        m[f"io.{kind}_bytes"] = sum(tracer.bytes.get(s[0], 0) for s in top)

    by_id = {s[0]: s for s in spans}
    own = _self_seconds(spans)
    m["sim.step_self_s"] = sum(own[s[0]] for s in spans if s[1] == "sim.step")
    hook = [
        s
        for s in spans
        if s[5] == solver_thread
        and s[1] in ("insitu.hook", "insitu.async_execute", "insitu.async_close")
        and by_id.get(s[4], (0, ""))[1] not in ("insitu.hook", "insitu.async_execute")
    ]
    m["insitu.stall_s"] = sum(s[3] - s[2] for s in hook)
    force = [s for s in spans if s[1] == "sim.force"]
    busy = [(s[2], s[3]) for s in spans if s[1] == "insitu.hook" and s[5] != solver_thread]
    overlap = sum(_overlap(s[2], s[3], busy) for s in force)
    m["insitu.overlap_frac"] = overlap / m["sim.force_s"] if m["sim.force_s"] else 0.0

    runs = [s for s in spans if s[1] == "sim.run"]
    flows = [s for s in spans if s[1] == "core.workflow"]
    m["core.post_sim_s"] = (
        max(s[3] for s in flows) - max(s[3] for s in runs) if runs and flows else 0.0
    )
    # Level 2 write returned -> off-line job on that file started
    written = {path: by_id[sid][3] for sid, path in tracer.notes.get("l2_written", [])}
    lags = [
        by_id[sid][2] - written[path]
        for sid, path in tracer.notes.get("job_started", [])
        if path in written
    ]
    m["machines.detect_lag_p50_s"] = statistics.median(lags) if lags else 0.0
    for layer, secs in self_times(spans).items():
        m[f"layer.{layer}.self_s"] = secs
    return m


def layer_table(spans: list[Span], wall: float) -> list[str]:
    """Human-readable self-time table, one row per layer."""
    st = self_times(spans)
    rows = [f"{'layer':<10} {'self s':>9} {'% of wall':>9}"]
    for layer, secs in sorted(st.items(), key=lambda kv: -kv[1]):
        rows.append(f"{layer:<10} {secs:9.3f} {100 * secs / wall:8.1f}%")
    rows.append(f"{'(sum)':<10} {sum(st.values()):9.3f}  thread-s; wall {wall:.3f} s")
    return rows
