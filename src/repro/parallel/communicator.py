"""In-process SPMD communicator — the repo's MPI stand-in.

The paper's algorithms run across MPI ranks on Titan.  mpi4py (and a real
MPI) is unavailable in this environment, so this module provides an
in-process communicator with mpi4py-compatible semantics: point-to-point
``send``/``recv`` with tags, and the collectives used by the analysis code
(``barrier``, ``bcast``, ``scatter``, ``gather``, ``allgather``,
``allreduce``, ``alltoall``, ``reduce``).

An SPMD program is a function ``fn(comm, *args)``; :func:`run_spmd`
executes it with one thread per rank (``transport="thread"``, the
deterministic reference) or one forked OS process per rank
(``transport="process"``, real multi-core parallelism).  Both run the
same rank body over the same world and differ only in the transport
table underneath (:mod:`repro.parallel.transport`), so rank programs
produce bit-for-bit the same results on either.

Messages are deep-ish copies (NumPy arrays are copied; process hops
copy by construction) so that ranks cannot accidentally share mutable
state through the transport, mirroring distributed-memory semantics.

:class:`Communicator` talks to its world through a narrow interface —
``deliver`` / ``poll`` / ``barrier_wait`` / ``aborted``.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Any, Callable, Sequence

import numpy as np

__all__ = [
    "CollectiveProtocolError",
    "Communicator",
    "SpmdError",
    "run_spmd",
]

ANY_SOURCE = -1
ANY_TAG = -1

#: Default seconds a blocking recv/collective waits before declaring deadlock.
DEFAULT_TIMEOUT = 120.0


class SpmdError(RuntimeError):
    """Raised when an SPMD program deadlocks or a rank raises."""


class CollectiveProtocolError(SpmdError):
    """The collective-sequence sanitizer found ranks out of protocol.

    Raised on *every* rank when, at a barrier, the hashed ordered
    collective-op/dtype/shape sequences disagree across ranks; the
    message names the diverging rank(s).  Only armed under
    ``REPRO_SANITIZE=1`` (the runtime twin of static rule RPR011).
    """


def _walk(obj: Any, leaf: Callable[[Any], Any]) -> Any:
    """Rebuild ``obj``'s tuple/list/dict nesting with ``leaf`` applied to the rest."""
    if isinstance(obj, tuple):
        return tuple(_walk(x, leaf) for x in obj)
    if isinstance(obj, list):
        return [_walk(x, leaf) for x in obj]
    if isinstance(obj, dict):
        return {k: _walk(v, leaf) for k, v in obj.items()}
    return leaf(obj)


def _isolate(obj: Any) -> Any:
    """Copy mutable payloads so ranks do not share memory through messages."""
    return _walk(obj, lambda x: x.copy() if isinstance(x, np.ndarray) else x)


def _shape_sig(obj: Any, depth: int = 0) -> str:
    """Rank-invariant type/dtype/shape signature of a collective payload.

    Only structure is hashed, never values, so per-rank *data* may differ
    (scatter parts, reduce contributions) while protocol divergence —
    a different op order, dtype, or shape — still changes the digest.
    """
    if isinstance(obj, np.ndarray):
        return f"nd[{obj.dtype.str},{obj.shape}]"
    if isinstance(obj, (list, tuple)):
        if depth >= 2 or not obj:
            return f"seq[{len(obj)}]"
        return f"seq[{len(obj)},{_shape_sig(obj[0], depth + 1)}]"
    if isinstance(obj, dict):
        return f"map[{len(obj)}]"
    return type(obj).__name__


class _ProtocolRecorder:
    """Running hash of one rank's ordered collective-op signatures."""

    __slots__ = ("_hash", "count", "recent")

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.count = 0
        self.recent: deque[str] = deque(maxlen=6)

    def record(self, *sig: object) -> None:
        text = "|".join(str(part) for part in sig)
        self._hash.update(text.encode())
        self._hash.update(b"\n")
        self.count += 1
        self.recent.append(text)

    def digest(self) -> str:
        return self._hash.hexdigest()


def _protocol_verdict(
    reports: dict[int, tuple[str, int, tuple[str, ...]]],
) -> str:
    """Compare per-rank (digest, count, recent-ops); "" when consistent.

    The majority (ties broken toward the group containing the lowest
    rank) defines the reference protocol; everyone else is named as
    diverging, with op counts and last-op tails for diagnosis.
    """
    groups: dict[tuple[str, int], list[int]] = {}
    for rank, (digest, count, _recent) in reports.items():
        groups.setdefault((digest, count), []).append(rank)
    if len(groups) <= 1:
        return ""
    modal_key = max(groups, key=lambda k: (len(groups[k]), -min(groups[k])))
    modal_ranks = sorted(groups[modal_key])
    divergers = sorted(r for r in reports if r not in groups[modal_key])
    parts = []
    for rank in divergers:
        digest, count, recent = reports[rank]
        tail = " <- ".join(reversed(recent)) or "(none)"
        parts.append(f"rank {rank}: {count} op(s), last: {tail}")
    _, modal_count, modal_recent = reports[modal_ranks[0]]
    modal_tail = " <- ".join(reversed(modal_recent)) or "(none)"
    return (
        "collective protocol divergence at barrier: "
        f"rank(s) {', '.join(map(str, divergers))} diverge from the majority "
        f"(ranks {', '.join(map(str, modal_ranks))}: {modal_count} op(s), "
        f"last: {modal_tail}); {'; '.join(parts)}"
    )


class Communicator:
    """Rank-local handle to a world (mpi4py-flavoured API).

    ``world`` implements the narrow interface (``deliver`` / ``poll`` /
    ``barrier_wait`` / ``aborted``, plus ``size`` and ``timeout``).
    """

    def __init__(self, world: Any, rank: int) -> None:
        self.world = world
        self.rank = rank
        self.size = world.size
        # Collective-sequence sanitizer (RPR011's runtime twin): armed only
        # under REPRO_SANITIZE=1, so the hot path costs one env lookup at
        # construction.  Forked process ranks inherit the environment, so
        # the same switch arms both transports.
        from ..check.sanitize import sanitize_enabled

        self._protocol: _ProtocolRecorder | None = (
            _ProtocolRecorder() if sanitize_enabled() else None
        )

    # -- point to point -------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Send ``obj`` to rank ``dest`` (non-blocking buffered send)."""
        if not 0 <= dest < self.size:
            raise ValueError(f"dest {dest} out of range for size {self.size}")
        reason = self.world.aborted()
        if reason is not None:
            raise SpmdError(reason)
        self.world.deliver(dest, self.rank, tag, obj)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Receive a message matching ``(source, tag)``; blocks until available."""
        deadline_step = min(0.25, self.world.timeout)
        waited = 0.0
        while True:
            reason = self.world.aborted()
            if reason is not None:
                raise SpmdError(reason)
            try:
                return self.world.poll(self.rank, source, tag, deadline_step)
            except SpmdError:
                waited += deadline_step
                if waited >= self.world.timeout:
                    raise

    def sendrecv(self, obj: Any, dest: int, source: int, tag: int = 0) -> Any:
        """Combined send+recv (safe against pairwise exchange deadlock)."""
        self.send(obj, dest, tag)
        return self.recv(source, tag)

    # -- collectives ----------------------------------------------------

    def barrier(self) -> None:
        """Block until every rank has entered the barrier.

        If the barrier breaks, the raised :class:`SpmdError` names the
        rank that died or failed, or says that a rank timed out.  With
        ``REPRO_SANITIZE=1`` the barrier is also the protocol
        checkpoint: ranks cross-check their hashed collective sequences
        here and fail fast, naming the diverging rank, instead of
        deadlocking later.
        """
        if self._protocol is not None:
            self._protocol.record("barrier")
            self._check_protocol()
        self.world.barrier_wait()

    def _check_protocol(self) -> None:
        """Cross-check per-rank collective-sequence digests (rank 0 judges)."""
        proto = self._protocol
        if proto is None or self.size == 1:
            return
        tag = _SysTag.SANITIZE
        if self.rank != 0:
            self.send((self.rank, proto.digest(), proto.count, tuple(proto.recent)), 0, tag)
            verdict = self.recv(0, tag)
            if verdict:
                raise CollectiveProtocolError(verdict)
            return
        reports: dict[int, tuple[str, int, tuple[str, ...]]] = {
            0: (proto.digest(), proto.count, tuple(proto.recent))
        }
        for _ in range(self.size - 1):
            rank, digest, count, recent = self.recv(ANY_SOURCE, tag)
            reports[rank] = (digest, count, tuple(recent))
        verdict = _protocol_verdict(reports)
        for dst in range(1, self.size):
            self.send(verdict, dst, tag)
        if verdict:
            raise CollectiveProtocolError(verdict)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root`` to all ranks."""
        tag = _SysTag.BCAST
        if self.rank == root:
            for dst in range(self.size):
                if dst != root:
                    self.send(obj, dst, tag)
            out = _isolate(obj)
        else:
            out = self.recv(root, tag)
        if self._protocol is not None:
            # the broadcast value is identical on every rank, so its
            # structural signature is rank-invariant by construction
            self._protocol.record("bcast", root, _shape_sig(out))
        return out

    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        """Scatter one element of ``objs`` to each rank."""
        tag = _SysTag.SCATTER
        if self._protocol is not None:
            self._protocol.record("scatter", root)
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise ValueError("scatter requires len(objs) == comm.size at root")
            for dst in range(self.size):
                if dst != root:
                    self.send(objs[dst], dst, tag)
            return _isolate(objs[root])
        return self.recv(root, tag)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Gather one object per rank at ``root`` (rank order)."""
        tag = _SysTag.GATHER
        if self._protocol is not None:
            self._protocol.record("gather", root)
        if self.rank == root:
            out: list[Any] = [None] * self.size
            out[root] = _isolate(obj)
            for _ in range(self.size - 1):
                # tag match is on (src, tag); order recovery via src
                src_obj = self._recv_with_source(tag)
                out[src_obj[0]] = src_obj[1]
            return out
        self.send((self.rank, _isolate(obj)), root, tag)
        return None

    def _recv_with_source(self, tag: int) -> tuple[int, Any]:
        payload = self.recv(ANY_SOURCE, tag)
        return payload  # payload is (src_rank, obj)

    def allgather(self, obj: Any) -> list[Any]:
        """Gather at rank 0 then broadcast the full list."""
        gathered = self.gather(obj, root=0)
        return self.bcast(gathered, root=0)

    def reduce(self, obj: Any, op: Callable[[Any, Any], Any] = np.add, root: int = 0) -> Any:
        """Reduce across ranks with binary ``op``; result valid at ``root``."""
        gathered = self.gather(obj, root=root)
        if self.rank != root:
            return None
        acc = gathered[0]
        for x in gathered[1:]:
            acc = op(acc, x)
        return acc

    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any] = np.add) -> Any:
        """Reduce across ranks and broadcast the result."""
        reduced = self.reduce(obj, op=op, root=0)
        return self.bcast(reduced, root=0)

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        """Personalized all-to-all: ``objs[d]`` goes to rank ``d``.

        Returns the list of objects received, indexed by source rank.
        """
        if len(objs) != self.size:
            raise ValueError("alltoall requires len(objs) == comm.size")
        tag = _SysTag.ALLTOALL
        if self._protocol is not None:
            self._protocol.record("alltoall", self.size)
        for dst in range(self.size):
            if dst != self.rank:
                self.send((self.rank, objs[dst]), dst, tag)
        out: list[Any] = [None] * self.size
        out[self.rank] = _isolate(objs[self.rank])
        for _ in range(self.size - 1):
            src, obj = self.recv(ANY_SOURCE, tag)
            out[src] = obj
        return out


class _SysTag:
    """Reserved tags for collectives (kept clear of user tags >= 0)."""

    BCAST = -101
    SCATTER = -102
    GATHER = -103
    ALLTOALL = -104
    SANITIZE = -105  # collective-sequence sanitizer cross-check


def run_spmd(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    timeout: float = DEFAULT_TIMEOUT,
    transport: str | None = None,
    **kwargs: Any,
) -> list[Any]:
    """Execute ``fn(comm, *args, **kwargs)`` on ``nranks`` concurrent ranks.

    Returns the list of per-rank return values (rank order).  If any rank
    fails, the world is aborted and the root cause is raised as
    :class:`SpmdError` (see :func:`~repro.parallel.transport.run_ranks`).

    ``transport`` is ``"thread"`` (default, also for ``None``; the
    deterministic in-process reference) or ``"process"`` (one forked OS
    process per rank — real parallelism).  ``timeout`` bounds every
    blocking wait.  ``nranks == 1`` always runs inline on the calling
    thread regardless of transport (useful under profilers; also what
    the cost model assumes).
    """
    from .transport import TRANSPORTS, run_ranks

    if nranks < 1:
        raise ValueError("world size must be >= 1")
    name = transport or "thread"
    if name not in TRANSPORTS:
        raise ValueError(
            f"unknown SPMD transport {name!r} (expected one of {tuple(TRANSPORTS)})"
        )
    return run_ranks(TRANSPORTS[name], nranks, fn, args, kwargs, timeout)
