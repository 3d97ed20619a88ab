"""SPMD transports: one rank body, two ways to run it.

:func:`~repro.parallel.communicator.run_spmd` runs every rank program
the same way — one :class:`_RankWorld`, one rank entry
(:func:`_rank_main`) and one collector (:func:`run_ranks`).  Only the
:class:`Transport` table underneath differs:

* ``THREAD`` — one OS thread per rank over ``queue``/``threading``
  primitives.  Messages are copied (``_isolate``) so ranks cannot share
  mutable state; results come back uncopied.  The deterministic
  reference.
* ``PROCESS`` — one forked OS process per rank over ``multiprocessing``
  primitives, for real multi-core parallelism.  Any NumPy array of at
  least :data:`SHM_THRESHOLD` bytes crosses in a
  :class:`~repro.exec.sharedmem.SharedParticleStore` segment and only
  its picklable spec rides the queue; the receiver adopts (attaches and
  frees) the segment.  Senders register every segment name on a cleanup
  queue, so the parent reaps whatever a crashed receiver never adopted.

Both move logically identical payloads, so a rank program produces
bit-for-bit the same results on either (property-tested in
``tests/test_parallel_transport.py``).  Forked ranks may be closures
over parent arrays exactly like thread ranks.  They install a fresh
copy of the parent's fault plan and a local telemetry recorder, whose
snapshot comes back with the result and is merged into the parent trace
(one trace per run), labelled ``spmd-rank-N``.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
import traceback
from dataclasses import dataclass
from multiprocessing import resource_tracker
from typing import Any, Callable

import numpy as np

from ..exec.sharedmem import SharedParticleStore, _attach_segment
from ..faults import FaultPlan, get_fault_plan, set_fault_plan
from ..obs import TelemetryRecorder, get_recorder, set_recorder
from ..obs.context import export_snapshot, merge_snapshot
from .communicator import ANY_SOURCE, ANY_TAG, Communicator, SpmdError, _isolate, _walk

__all__ = ["PROCESS", "THREAD", "TRANSPORTS", "RemoteRankError", "Transport", "run_ranks"]

#: NumPy payloads of at least this many bytes cross process ranks in
#: shared memory instead of the pickled queue message.
SHM_THRESHOLD = 65536

#: Poll step of the collector's bounded result waits (seconds, accumulated
#: — no wall-clock reads in this module per RPR003).
_POLL_STEP = 0.25


@dataclass(frozen=True)
class Transport:
    """How ranks run, and what happens to what crosses between them."""

    name: str
    #: factories for the shared primitives of one run
    queue: Callable[[], Any]
    barrier: Callable[[int], Any]
    event: Callable[[], Any]
    value: Callable[[], Any]
    #: ``launch(target, args, name)`` starts one rank and returns a handle
    #: with ``is_alive``/``join``/``terminate``/``exitcode``
    launch: Callable[[Callable[..., None], tuple[Any, ...], str], Any]
    #: message codec: ``encode(obj, cleanup_q)`` on the sender, ``decode``
    #: on the receiver
    encode: Callable[[Any, Any], Any]
    decode: Callable[[Any], Any]
    #: result codec over a rank's ``(status, value)`` outcome
    encode_result: Callable[[tuple[str, Any], Any], Any]
    decode_result: Callable[[Any], tuple[str, Any]]
    #: ranks have their own address space: they need their own fault plan
    #: and telemetry recorder
    forks: bool


# -- thread transport ----------------------------------------------------------


class _SharedInt:
    """Thread twin of ``multiprocessing.Value("l")``."""

    def __init__(self, value: int) -> None:
        self.value = value
        self._lock = threading.Lock()

    def get_lock(self) -> threading.Lock:
        return self._lock


class _RankThread(threading.Thread):
    """A thread rank, with the process-handle members the collector uses."""

    exitcode = None

    def terminate(self) -> None:
        """Threads cannot be killed; a stuck one is left behind as a daemon."""


def _start(handle: Any) -> Any:
    handle.start()
    return handle


THREAD = Transport(
    name="thread",
    queue=queue.Queue,
    barrier=threading.Barrier,
    event=threading.Event,
    value=lambda: _SharedInt(-1),
    launch=lambda target, args, name: _start(
        _RankThread(target=target, args=args, name=name, daemon=True)
    ),
    encode=lambda obj, cleanup_q: _isolate(obj),
    decode=lambda wire: wire,
    encode_result=lambda outcome, cleanup_q: outcome,
    decode_result=lambda shipped: shipped,
    forks=False,
)


# -- process transport ---------------------------------------------------------
#
# Messages are pickled by the mp.Queue *except* bulk arrays: those are
# copied once into shared-memory segments by the sender and adopted
# (attach + unlink) by the receiver.  Only the segment spec rides the
# queue, so serialisation cost is O(structure), not O(data).

_FORK = multiprocessing.get_context("fork")


class _ShmSlot:
    """Placeholder marking where a shared-memory array goes on decode."""

    __slots__ = ("key",)

    def __init__(self, key: str) -> None:
        self.key = key


def _encode_shm(obj: Any, cleanup_q: Any) -> tuple[Any, ...]:
    """Encode ``obj`` for a queue hop, hoisting big arrays into shm."""
    arrays: dict[str, np.ndarray] = {}

    def hoist(x: Any) -> Any:
        if isinstance(x, np.ndarray) and not x.dtype.hasobject and x.nbytes >= SHM_THRESHOLD:
            key = f"a{len(arrays)}"
            arrays[key] = x
            return _ShmSlot(key)
        return x

    template = _walk(obj, hoist)
    if not arrays:
        return ("pickle", obj)
    store = SharedParticleStore.create(**arrays)
    try:
        spec = store.spec
        # register segment names with the parent reaper *before* the
        # message is visible to the receiver: if the receiver dies first,
        # the parent still knows what to unlink
        cleanup_q.put(sorted(name for name, _, _ in spec.values()))
    finally:
        # ownership transfers to the receiver (or the parent reaper):
        # drop this process's mapping without freeing the segments
        store.release()
    return ("shm", template, spec)


def _decode_shm(wire: tuple[Any, ...]) -> Any:
    """Reverse :func:`_encode_shm`; adopts and frees shm segments."""
    if wire[0] == "pickle":
        return wire[1]
    _, template, spec = wire
    store = SharedParticleStore.attach(spec, adopt=True)
    try:
        arrays = {key: np.array(store.array(key), copy=True) for key in store.fields}
    finally:
        store.unlink()
    return _walk(template, lambda x: arrays[x.key] if isinstance(x, _ShmSlot) else x)


def _ship_outcome(outcome: tuple[str, Any], cleanup_q: Any) -> tuple[str, Any]:
    """Results ride the shm codec; a failure ships as its formatted traceback."""
    status, value = outcome
    if status == "ok":
        return status, _encode_shm(value, cleanup_q)
    summary, exc = value
    return status, (summary, "".join(traceback.format_exception(exc)))


def _land_outcome(shipped: tuple[str, Any]) -> tuple[str, Any]:
    status, value = shipped
    return (status, _decode_shm(value)) if status == "ok" else shipped


def _fork_rank(target: Callable[..., None], args: tuple[Any, ...], name: str) -> Any:
    # Start the shared-memory resource tracker *before* forking: ranks
    # must inherit the parent's tracker, or each rank lazily starts its
    # own, which unlinks that rank's in-flight message segments the
    # moment the rank exits — racing the receivers that adopt them.
    resource_tracker.ensure_running()
    return _start(_FORK.Process(target=target, args=args, name=name, daemon=True))


PROCESS = Transport(
    name="process",
    queue=_FORK.Queue,
    barrier=_FORK.Barrier,
    event=_FORK.Event,
    value=lambda: _FORK.Value("l", -1),
    launch=_fork_rank,
    encode=_encode_shm,
    decode=_decode_shm,
    encode_result=_ship_outcome,
    decode_result=_land_outcome,
    forks=True,
)

TRANSPORTS = {t.name: t for t in (THREAD, PROCESS)}


def _reap_segments(cleanup_q: Any) -> int:
    """Unlink any registered segments the receivers never adopted."""
    names: set[str] = set()
    while True:
        try:
            names.update(cleanup_q.get_nowait())
        except queue.Empty:
            break
    reaped = 0
    for name in sorted(names):
        try:
            seg = _attach_segment(name)
        except FileNotFoundError:
            continue  # adopted and freed by its receiver — the common case
        try:
            seg.unlink()
            reaped += 1
        finally:
            seg.close()
    return reaped


# -- one world, one rank entry, one collector ----------------------------------


class _RankWorld:
    """The shared state of one SPMD run, seen alike by ranks and collector.

    Implements the narrow interface the
    :class:`~repro.parallel.communicator.Communicator` is written against
    (``deliver`` / ``poll`` / ``barrier_wait`` / ``aborted``).  Thread
    ranks share the one instance; forked ranks inherit a copy whose
    primitives are process-shared.
    """

    def __init__(self, transport: Transport, size: int, timeout: float) -> None:
        self.transport = transport
        self.size = size
        self.timeout = timeout
        self.inboxes = [transport.queue() for _ in range(size)]
        self.results = transport.queue()
        self.cleanup_q = transport.queue()
        self.barrier = transport.barrier(size)
        self.abort = transport.event()
        self.failed_rank = transport.value()
        # messages received but not yet matched, per rank (each rank only
        # ever touches its own list)
        self._pending: list[list[tuple[int, int, Any]]] = [[] for _ in range(size)]

    def aborted(self) -> str | None:
        """Abort reason if the world is dead, else ``None``."""
        if not self.abort.is_set():
            return None
        rank = int(self.failed_rank.value)
        return f"world aborted (rank {rank} failed)" if rank >= 0 else "world aborted"

    def fail(self, rank: int | None) -> None:
        """Mark the world dead (because of ``rank``, when known) and wake every rank."""
        if rank is not None:
            with self.failed_rank.get_lock():
                if self.failed_rank.value < 0:
                    self.failed_rank.value = rank
        self.abort.set()
        self.barrier.abort()

    def deliver(self, dest: int, source: int, tag: int, obj: Any) -> None:
        self.inboxes[dest].put((source, tag, self.transport.encode(obj, self.cleanup_q)))

    def poll(self, rank: int, source: int, tag: int, step: float) -> Any:
        """One bounded matching attempt on ``rank``'s inbox."""

        def matches(src: int, tg: int) -> bool:
            return source in (ANY_SOURCE, src) and tag in (ANY_TAG, tg)

        pending = self._pending[rank]
        for i, (src, tg, _) in enumerate(pending):
            if matches(src, tg):
                return pending.pop(i)[2]
        while True:
            try:
                src, tg, wire = self.inboxes[rank].get(timeout=step)
            except queue.Empty:
                raise SpmdError(
                    f"recv(source={source}, tag={tag}) timed out after {step}s "
                    "— likely SPMD deadlock"
                ) from None
            # decode at receipt, so shm segments are adopted promptly
            payload = self.transport.decode(wire)
            if matches(src, tg):
                return payload
            pending.append((src, tg, payload))

    def barrier_wait(self) -> None:
        """Enter the world barrier; name the culprit if it breaks."""
        try:
            self.barrier.wait(self.timeout)
        except threading.BrokenBarrierError:
            reason = self.aborted() or f"a rank timed out after {self.timeout}s"
            raise SpmdError(f"barrier broken: {reason}") from None


def _rank_main(
    world: _RankWorld,
    rank: int,
    fn: Callable[..., Any],
    args: tuple[Any, ...],
    kwargs: dict[str, Any],
    trace: dict[str, Any] | None,
    plan: dict[str, Any] | None,
) -> None:
    """Run one rank of ``fn`` and report its outcome on ``world.results``."""
    if plan is not None:
        # forked ranks inherit the parent's fault-plan *history*; install
        # a fresh copy so per-rank attempt state is deterministic
        set_fault_plan(FaultPlan.from_dict(plan))
    local_rec: TelemetryRecorder | None = None
    if trace is not None:
        # record rank-local telemetry and ship one snapshot back with the
        # result, so the parent's single trace covers this process too
        local_rec = TelemetryRecorder(run_id=trace.get("run"), capacity=4096)
        set_recorder(local_rec)
    outcome: tuple[str, Any]
    try:
        outcome = ("ok", fn(Communicator(world, rank), *args, **kwargs))
    except BaseException as exc:  # repro: noqa[RPR006] - reported to the
        # collector, which re-raises it as a chained SpmdError: the failure
        # is loudly observable, never swallowed.
        world.fail(rank)
        outcome = ("error", (f"{type(exc).__name__}: {exc}", exc))
    snap = export_snapshot(local_rec) if local_rec is not None else None
    world.results.put((rank, world.transport.encode_result(outcome, world.cleanup_q), snap))


class RemoteRankError(RuntimeError):
    """Carries the formatted traceback of a failed SPMD rank process."""

    def __init__(self, rank: int, formatted_traceback: str) -> None:
        super().__init__(f"rank {rank} traceback:\n{formatted_traceback}")
        self.rank = rank
        self.formatted_traceback = formatted_traceback


def run_ranks(
    transport: Transport,
    nranks: int,
    fn: Callable[..., Any],
    args: tuple[Any, ...],
    kwargs: dict[str, Any],
    timeout: float,
) -> list[Any]:
    """Run ``fn(comm, *args, **kwargs)`` on ``nranks`` ranks; results in rank order.

    One rank runs inline on the calling thread, whatever the transport.
    The root cause of a failure is raised as :class:`SpmdError`: a rank
    that died without reporting, else the first rank that raised
    (chaining its exception, or a :class:`RemoteRankError` carrying the
    remote traceback), else the ranks that did not finish in
    ``4 * timeout`` seconds.  A dead or failed rank aborts the world at
    once, so its peers stop waiting at the barrier.
    """
    if nranks == 1:
        transport = THREAD
    world = _RankWorld(transport, nranks, timeout)
    rec = get_recorder()
    trace: dict[str, Any] | None = None
    plan: dict[str, Any] | None = None
    if transport.forks:
        ctx_trace = rec.trace_context()
        trace = ctx_trace.to_dict() if ctx_trace is not None else None
        active_plan = get_fault_plan()
        plan = active_plan.to_dict() if active_plan is not None else None

    got: dict[int, tuple[str, Any]] = {}
    snaps: dict[int, Any] = {}
    dead: dict[int, int] = {}
    timed_out = False

    def absorb(block: bool) -> bool:
        """Take one rank's result off the queue; ``False`` if none came."""
        try:
            rank, shipped, snap = world.results.get(block, _POLL_STEP)
        except queue.Empty:
            return False
        # decode at receipt, while the result's segments are un-reaped
        got[rank] = transport.decode_result(shipped)
        snaps[rank] = snap
        dead.pop(rank, None)
        if got[rank][0] == "error":
            world.fail(rank)
        return True

    handles: list[Any] = []
    try:
        if nranks == 1:
            _rank_main(world, 0, fn, args, kwargs, trace, plan)
        else:
            handles = [
                transport.launch(
                    _rank_main, (world, r, fn, args, kwargs, trace, plan), f"spmd-rank-{r}"
                )
                for r in range(nranks)
            ]
        waited = 0.0
        while len(got) + len(dead) < nranks:
            if absorb(block=True):
                continue
            waited += _POLL_STEP
            gone = [r for r, h in enumerate(handles) if r not in got and not h.is_alive()]
            while gone and absorb(block=False):
                pass  # a rank may report just before it exits
            for r in gone:
                if r not in got and r not in dead:
                    code = handles[r].exitcode
                    dead[r] = code if code is not None else -1
                    world.fail(r)
            if waited >= 4 * timeout:
                timed_out = True
                break
    finally:
        world.fail(None)
        for h in handles:
            h.join(timeout=5.0)
        for h in handles:
            if h.is_alive():  # pragma: no cover - stuck rank
                h.terminate()
                h.join(timeout=5.0)
        while absorb(block=False):
            pass  # results that raced the liveness check
        # everything absorbed is adopted; whatever segment names remain
        # belong to messages nobody will ever read (crashed receivers)
        reaped = _reap_segments(world.cleanup_q)
        if reaped:
            rec.counter("spmd_segments_reaped_total").inc(reaped)

    # fold rank telemetry into the parent trace in rank order before any
    # raise, so failed runs are still fully observable
    if trace is not None and isinstance(rec, TelemetryRecorder):
        for r in sorted(snaps):
            if snaps[r] is not None:
                merge_snapshot(
                    rec, snaps[r], parent_span_id=trace.get("span_id"), thread=f"spmd-rank-{r}"
                )

    if dead:
        # a rank that died without reporting (hard crash) is always the
        # root cause — any recorded errors are its peers' broken barriers
        rank, code = min(dead.items())
        raise SpmdError(
            f"rank {rank} died with exit code {code} before returning a result "
            f"({transport.name} transport)"
        )
    errors = {r: value for r, (status, value) in got.items() if status == "error"}
    if errors:
        # failed_rank records the *first* rank to fail, whose abort then
        # broke the barrier under its peers
        first = int(world.failed_rank.value)
        rank = first if first in errors else min(errors)
        summary, cause = errors[rank]
        if isinstance(cause, str):
            cause = RemoteRankError(rank, cause)
        raise SpmdError(f"rank {rank} raised {summary}") from cause
    if timed_out:
        missing = sorted(set(range(nranks)) - set(got))
        raise SpmdError(
            f"SPMD ranks {missing} failed to finish within {4 * timeout}s — likely deadlock"
        )
    return [got[r][1] for r in range(nranks)]
