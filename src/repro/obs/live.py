"""Live journal following: watch a run while it is still writing.

The journal's atomic line framing (one buffered ``write`` per record)
makes concurrent reading safe: a reader only ever sees whole lines plus
at most one torn tail, which it simply waits out.  That turns the
journal into a broadcast channel — ``python -m repro.obs tail`` follows
a run from another terminal, and mid-run ``report``/``timeline`` work
on whatever prefix has been flushed so far.
"""

from __future__ import annotations

import os
import time
from typing import Any, Iterator

from .journal import find_journal, read_log

__all__ = ["follow_journal", "format_record"]


def follow_journal(
    path: str | os.PathLike,
    poll_interval: float = 0.2,
    max_seconds: float | None = None,
    from_start: bool = True,
) -> Iterator[dict[str, Any]]:
    """Yield journal records as they are appended.

    Tails the file by byte offset, yielding only complete
    (newline-terminated) lines — a torn tail is left in place and
    retried on the next poll, never mis-parsed.  Stops when a
    ``run.end`` record arrives (the run closed) or after
    ``max_seconds`` of wall time (``None`` = follow forever).
    ``from_start=False`` skips history and follows only new records.
    """
    journal_path = find_journal(path)
    deadline = None if max_seconds is None else time.perf_counter() + max_seconds
    offset = 0 if from_start else os.path.getsize(journal_path)
    while True:
        if os.path.getsize(journal_path) < offset:  # replaced/truncated: restart
            offset = 0
        # interior corruption is skipped (read_log reports it, we keep following)
        log = read_log(journal_path, offset)
        offset = log.end
        for record in log.records:
            yield record
            if record.get("kind") == "run.end":
                return
        if deadline is not None and time.perf_counter() >= deadline:
            return
        time.sleep(poll_interval)


def format_record(record: dict[str, Any]) -> str:
    """One-line human rendering of a journal record (for ``tail``)."""
    kind = record.get("kind", "?")
    seq = record.get("seq", "?")
    if kind == "event":
        level = record.get("level", "info")
        extra = record.get("fields") or {}
        detail = " ".join(f"{k}={v}" for k, v in extra.items())
        return f"[{seq}] event {level:<7} {record.get('name', '?')} {detail}".rstrip()
    if kind == "span":
        t0 = float(record.get("t0", 0.0))
        t1 = record.get("t1")
        dur = (float(t1) - t0) * 1e3 if t1 is not None else 0.0
        return f"[{seq}] span  {record.get('name', '?')} {dur:.2f} ms"
    if kind == "metrics":
        return f"[{seq}] metrics snapshot ({len(record.get('values') or {})} series)"
    if kind == "failure":
        return (
            f"[{seq}] FAILURE stage={record.get('stage', '?')} "
            f"key={record.get('key', '?')} reason={record.get('reason', '?')}"
        )
    if kind == "run.start":
        return f"[{seq}] run.start run={record.get('run', '?')}"
    if kind == "run.end":
        return f"[{seq}] run.end status={record.get('status', '?')}"
    return f"[{seq}] {kind}"
