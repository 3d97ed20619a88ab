"""Durable run journal: a crash-safe on-disk record of one workflow run.

Campaign services (Balsam — see PAPERS.md) are built on a durable job
store first and analytics second: nothing a run learns is worth much if
it dies with the producing process.  This module is that store for the
repro stack.  A *run directory* holds exactly two files::

    <root>/<run_id>/
        manifest.json     # who/what/how: config hash, seeds, fault plan
        journal.jsonl     # append-only stream of everything that happened

**Manifest** (:class:`RunManifest`): the run's identity — ``run_id``,
creation wall time, the workflow configuration and its SHA-256 hash,
every seed in play, the active fault plan (so a failure is replayable),
and the code version.  Written by :func:`write_json_atomic` (temp file,
fsync, ``os.replace``) so a reader never sees a torn manifest.

**The append log** (:class:`AppendLog`): the one JSONL writer in the
tree.  The run journal, the campaign service's ``jobs.jsonl``
(:mod:`repro.service.store`) and the telemetry recorder's
``jsonl_path`` sink are all an :class:`AppendLog` with a different
durability policy.  The log owns the framing: every record gets the
next ``seq`` as its first key and is serialized to one
newline-terminated line handed to the OS in a single ``write`` under a
lock, so concurrent writers (the sim loop, the listener thread, merged
exec-worker telemetry) never interleave within a line.  Opening a log
truncates a torn final line away (:func:`recover_tail`) and continues
``seq`` from the surviving line count; closing flushes and fsyncs.
Its policies:

=====================  ===================================================
run journal            flush every ``flush_every`` records (default 32),
                       fsync on close, flush at interpreter exit
campaign store         flush and fsync every record
telemetry sink         flush on close and at interpreter exit
=====================  ===================================================

**The reader** (:func:`read_log`): the one JSONL parser, from a byte
offset (which is how :func:`repro.obs.live.follow_journal` tails a
live run).  It leaves an unterminated final line unparsed and flags it
(``truncated``), and reports complete lines that fail to parse instead
of raising; each caller picks its own damage policy.
:func:`read_journal` counts them as ``corrupt`` (a torn-looking *final*
line counts as ``truncated``), so ``tail`` and ``report`` can follow a
journal that is still being written; the campaign store raises.

Journal records carry a ``kind`` discriminator: ``run.start`` /
``event`` / ``span`` / ``metrics`` / ``failure`` / ``run.end``.
Unknown kinds are preserved by readers, so the format is
forward-compatible.  A run that crashes rather than closing cleanly
still keeps its buffered tail on disk through the log's ``atexit``
flush; the missing ``run.end`` marks it incomplete.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .events import Event, _json_default
from .spans import Span

__all__ = [
    "JOURNAL_FILE",
    "MANIFEST_FILE",
    "AppendLog",
    "JournalView",
    "LogContents",
    "RunJournal",
    "RunManifest",
    "config_hash",
    "detect_code_version",
    "find_journal",
    "read_journal",
    "read_jsonl",
    "read_log",
    "recover_tail",
    "write_json_atomic",
]

MANIFEST_FILE = "manifest.json"
JOURNAL_FILE = "journal.jsonl"

#: Journal format tag written into every manifest.
JOURNAL_FORMAT = "repro-journal/1"

#: Flush the journal file to the OS every N records (the atexit hook and
#: ``close`` flush unconditionally; a torn final line is recoverable).
DEFAULT_FLUSH_EVERY = 32


def config_hash(config: dict[str, Any] | None) -> str:
    """Canonical SHA-256 of a configuration dict (sorted-key JSON)."""
    payload = json.dumps(config or {}, sort_keys=True, default=_json_default)
    return hashlib.sha256(payload.encode()).hexdigest()


def detect_code_version() -> str:
    """Best-effort code version: env override, git commit, or package."""
    env = os.environ.get("REPRO_CODE_VERSION")
    if env:
        return env
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            timeout=5.0,
            text=True,
        )
        if out.returncode == 0 and out.stdout.strip():
            return f"git:{out.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):  # pragma: no cover - no git
        pass
    from importlib.metadata import PackageNotFoundError, version

    try:
        return f"pkg:{version('repro')}"
    except PackageNotFoundError:  # pragma: no cover - not installed
        return "unknown"


def write_json_atomic(path: str | os.PathLike, obj: Any) -> str:
    """Write ``obj`` as indented JSON: temp file, fsync, ``os.replace``."""
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


@dataclass
class RunManifest:
    """The run's identity card (``manifest.json``)."""

    run_id: str
    created: float = 0.0  # epoch seconds
    config: dict[str, Any] = field(default_factory=dict)
    config_hash: str = ""
    seeds: dict[str, Any] = field(default_factory=dict)
    fault_plan: dict[str, Any] | None = None
    code_version: str = ""
    extra: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.config_hash:
            self.config_hash = config_hash(self.config)

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": JOURNAL_FORMAT,
            "run_id": self.run_id,
            "created": self.created,
            "config": self.config,
            "config_hash": self.config_hash,
            "seeds": self.seeds,
            "fault_plan": self.fault_plan,
            "code_version": self.code_version,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "RunManifest":
        return cls(
            run_id=d["run_id"],
            created=float(d.get("created", 0.0)),
            config=dict(d.get("config") or {}),
            config_hash=d.get("config_hash", ""),
            seeds=dict(d.get("seeds") or {}),
            fault_plan=d.get("fault_plan"),
            code_version=d.get("code_version", ""),
            extra=dict(d.get("extra") or {}),
        )

    def save(self, path: str | os.PathLike) -> str:
        return write_json_atomic(path, self.to_dict())

    @classmethod
    def load(cls, path: str | os.PathLike) -> "RunManifest":
        with open(os.fspath(path), "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


# -- the append log ------------------------------------------------------------


def recover_tail(path: str | os.PathLike) -> int:
    """Truncate an append-target log back to its last complete line.

    Returns the number of torn-tail bytes dropped (0 for a clean file).
    """
    path = os.fspath(path)
    try:
        size = os.path.getsize(path)
    except OSError:
        return 0
    if size == 0:
        return 0
    with open(path, "rb+") as fh:
        # scan backwards in one bounded read: torn tails are < one line
        chunk = min(size, 1 << 20)
        fh.seek(size - chunk)
        data = fh.read(chunk)
        if data.endswith(b"\n"):
            return 0
        last_nl = data.rfind(b"\n")
        keep = size - chunk + last_nl + 1 if last_nl >= 0 else size - chunk
        if last_nl < 0 and chunk < size:  # pragma: no cover - pathological line
            keep = 0
        fh.truncate(keep)
        return size - keep


class AppendLog:
    """One append-only JSONL file (see the module docstring).

    Opening recovers a torn tail (:attr:`recovered_bytes` says how much)
    and continues ``seq`` from the surviving non-blank line count.  The
    durability policy is fixed by the owner: ``sync=True`` flushes and
    fsyncs every record before :meth:`append` returns; otherwise the
    buffer reaches the OS every ``flush_every`` records (``0``: only on
    :meth:`flush`, :meth:`close` and interpreter exit).  Appends after
    :meth:`close` are ignored and return ``-1``.
    """

    def __init__(self, path: str | os.PathLike, flush_every: int = 0, sync: bool = False):
        self.path = os.fspath(path)
        self.flush_every = flush_every
        self.sync = sync
        self.recovered_bytes = recover_tail(self.path)
        self._seq = 0
        if os.path.exists(self.path):
            with open(self.path, "rb") as fh:
                self._seq = sum(1 for line in fh if line.strip())
        self._lock = threading.Lock()
        self._fh = open(self.path, "a", encoding="utf-8")
        if not sync:
            atexit.register(self.flush)

    def append(self, record: dict[str, Any]) -> int:
        """Write one record as ``{"seq": n, **record}``; returns ``n``."""
        with self._lock:
            if self._fh.closed:
                return -1
            seq = self._seq
            self._fh.write(json.dumps({"seq": seq, **record}, default=_json_default) + "\n")
            self._seq += 1
            if self.sync:
                self._fh.flush()
                _fsync(self._fh)
            elif self.flush_every and self._seq % self.flush_every == 0:
                self._fh.flush()
            return seq

    def flush(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.flush()

    def close(self) -> None:
        """Flush, fsync and close (idempotent)."""
        with self._lock:
            if self._fh.closed:
                return
            self._fh.flush()
            _fsync(self._fh)
            self._fh.close()
        if not self.sync:
            atexit.unregister(self.flush)

    @property
    def closed(self) -> bool:
        return self._fh.closed


def _fsync(fh: Any) -> None:
    try:
        os.fsync(fh.fileno())
    except OSError:  # pragma: no cover - fs without fsync
        pass


@dataclass
class LogContents:
    """One read of an append log: records plus what was damaged."""

    records: list[dict[str, Any]]
    #: an unterminated final line was left unparsed
    truncated: bool = False
    #: newline-terminated lines that failed to parse: line number -> error
    bad: dict[int, str] = field(default_factory=dict)
    #: number of newline-terminated lines read (blank ones included)
    lines: int = 0
    #: byte offset just past the last complete line (where to resume)
    end: int = 0


def read_log(path: str | os.PathLike, offset: int = 0) -> LogContents:
    """Parse an append log from byte ``offset``; never raises on damage."""
    with open(os.fspath(path), "rb") as fh:
        fh.seek(offset)
        data = fh.read()
    lines = data.split(b"\n")
    tail = lines.pop()  # b"" for a newline-terminated file
    out = LogContents(
        records=[],
        truncated=bool(tail.strip()),
        lines=len(lines),
        end=offset + len(data) - len(tail),
    )
    for n, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        try:
            out.records.append(json.loads(raw.decode("utf-8")))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            out.bad[n] = str(exc)
    return out


def read_jsonl(path: str) -> tuple[list[Event], list[dict[str, Any]]]:
    """Replay a telemetry sink: returns ``(events, span_records)``.

    Span records are returned as plain dicts (see
    :meth:`repro.obs.spans.Span.to_dict` for their shape).  Unknown
    kinds are ignored, so the format is forward-compatible; an
    unparseable line raises :class:`ValueError`.
    """
    log = read_log(path)
    if log.bad:
        n, err = next(iter(log.bad.items()))
        raise ValueError(f"{path}: unparseable line {n}: {err}")
    events = [Event.from_dict(r) for r in log.records if r.get("kind") == "event"]
    spans = [r for r in log.records if r.get("kind") == "span"]
    return events, spans


# -- the run journal -----------------------------------------------------------


class RunJournal:
    """Append-only journal for one run directory.

    Use :meth:`create` for a fresh run and :meth:`open` to resume
    appending to an existing one (torn tail recovered first).  All
    writes are thread-safe; each record gets the next ``seq``.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        manifest: RunManifest,
        flush_every: int = DEFAULT_FLUSH_EVERY,
    ):
        self.directory = os.fspath(directory)
        self.manifest = manifest
        self._log = AppendLog(self.journal_path, flush_every=max(1, int(flush_every)))

    # -- construction ----------------------------------------------------------

    @classmethod
    def create(
        cls,
        root: str | os.PathLike,
        run_id: str,
        config: dict[str, Any] | None = None,
        seeds: dict[str, Any] | None = None,
        fault_plan: dict[str, Any] | None = None,
        code_version: str | None = None,
        extra: dict[str, Any] | None = None,
        flush_every: int = DEFAULT_FLUSH_EVERY,
    ) -> "RunJournal":
        """Create ``<root>/<run_id>/`` with a manifest and empty journal.

        Raises :class:`FileExistsError` if the run directory already
        exists — run ids are unique per root by construction.
        """
        directory = Path(os.fspath(root)) / run_id
        directory.mkdir(parents=True, exist_ok=False)
        manifest = RunManifest(
            run_id=run_id,
            created=time.time(),
            config=dict(config or {}),
            config_hash=config_hash(config),
            seeds=dict(seeds or {}),
            fault_plan=fault_plan,
            code_version=code_version if code_version is not None else detect_code_version(),
            extra=dict(extra or {}),
        )
        manifest.save(directory / MANIFEST_FILE)
        journal = cls(directory, manifest, flush_every=flush_every)
        journal.write({"kind": "run.start", "run": run_id, "wall": manifest.created})
        return journal

    @classmethod
    def open(cls, path: str | os.PathLike, flush_every: int = DEFAULT_FLUSH_EVERY) -> "RunJournal":
        """Re-open an existing run directory for appending.

        Any torn final line (a crash mid-flush) is truncated away first;
        ``seq`` continues from the surviving record count.
        """
        directory = Path(find_journal(path)).parent
        manifest_path = directory / MANIFEST_FILE
        if manifest_path.is_file():
            manifest = RunManifest.load(manifest_path)
        else:
            manifest = RunManifest(run_id=directory.name)
        return cls(directory, manifest, flush_every=flush_every)

    # -- paths -----------------------------------------------------------------

    @property
    def journal_path(self) -> str:
        return os.path.join(self.directory, JOURNAL_FILE)

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, MANIFEST_FILE)

    # -- writing ---------------------------------------------------------------

    def write(self, record: dict[str, Any]) -> int:
        """Append one record (adds ``seq``); returns its sequence number.

        Returns ``-1`` if the journal is already closed (late writers
        during shutdown).
        """
        return self._log.append(record)

    def metrics_snapshot(self, values: dict[str, Any], label: str = "") -> int:
        """Journal a point-in-time metrics snapshot (flat name → value)."""
        record: dict[str, Any] = {"kind": "metrics", "values": values}
        if label:
            record["label"] = label
        return self.write(record)

    def failure(self, record: dict[str, Any]) -> int:
        """Journal one terminal-failure record (a ``FailureRecord`` dict)."""
        return self.write({"kind": "failure", **record})

    def flush(self) -> None:
        self._log.flush()

    def close(self, status: str = "ok", **fields: Any) -> None:
        """Write the terminal ``run.end`` record and close the file."""
        self.write(
            {"kind": "run.end", "run": self.manifest.run_id, "status": status, **fields}
        )
        self._log.close()

    @property
    def closed(self) -> bool:
        return self._log.closed

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self.closed:
            self.close(status="error" if exc is not None else "ok")


# -- reading -------------------------------------------------------------------


def find_journal(path: str | os.PathLike) -> str:
    """Resolve a user-supplied path to a ``journal.jsonl`` file.

    Accepts the journal file itself, a run directory containing one, or
    a root directory containing exactly one run directory.
    """
    p = Path(os.fspath(path))
    if p.is_file():
        return str(p)
    if p.is_dir():
        direct = p / JOURNAL_FILE
        if direct.is_file():
            return str(direct)
        candidates = sorted(d for d in p.iterdir() if (d / JOURNAL_FILE).is_file())
        if len(candidates) == 1:
            return str(candidates[0] / JOURNAL_FILE)
        if candidates:
            names = ", ".join(d.name for d in candidates)
            raise FileNotFoundError(
                f"{p}: contains multiple run journals ({names}); pass one run directory"
            )
    raise FileNotFoundError(f"{p}: no {JOURNAL_FILE} found")


@dataclass
class JournalView:
    """One read of a journal: parsed records + recovery diagnostics."""

    path: str
    manifest: RunManifest | None
    records: list[dict[str, Any]]
    truncated: bool = False  # a torn final line was dropped
    corrupt: int = 0  # interior lines that failed to parse (never ours)

    @property
    def run_id(self) -> str | None:
        if self.manifest is not None:
            return self.manifest.run_id
        for r in self.records:
            if r.get("kind") == "run.start":
                return r.get("run")
        return None

    @property
    def complete(self) -> bool:
        """Whether the run closed cleanly (a ``run.end`` record exists)."""
        return any(r.get("kind") == "run.end" for r in self.records)

    def events(self) -> list[Event]:
        return [Event.from_dict(r) for r in self.records if r.get("kind") == "event"]

    def spans(self) -> list[Span]:
        return [Span.from_dict(r) for r in self.records if r.get("kind") == "span"]

    def failures(self) -> list[dict[str, Any]]:
        return [r for r in self.records if r.get("kind") == "failure"]

    def last_metrics(self) -> dict[str, float]:
        """The most recent journaled metrics snapshot (flat dict)."""
        for r in reversed(self.records):
            if r.get("kind") == "metrics":
                return dict(r.get("values") or {})
        return {}


def read_journal(path: str | os.PathLike) -> JournalView:
    """Read a journal (possibly live/crashed) into a :class:`JournalView`.

    Safe against a torn final line: an unterminated or unparseable tail
    is dropped and flagged via ``truncated`` instead of raising, so
    ``tail``/``report`` can follow a journal that is still being
    written.  Unparseable interior lines are counted in ``corrupt``.
    """
    journal_path = find_journal(path)
    manifest_path = Path(journal_path).parent / MANIFEST_FILE
    manifest = RunManifest.load(manifest_path) if manifest_path.is_file() else None
    log = read_log(journal_path)
    torn_last = log.lines in log.bad  # final complete-looking line still torn
    return JournalView(
        path=journal_path,
        manifest=manifest,
        records=log.records,
        truncated=log.truncated or torn_last,
        corrupt=len(log.bad) - torn_last,
    )
