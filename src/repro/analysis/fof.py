"""Friends-of-friends (FOF) halo identification.

Three implementations, cross-validated by the test suite:

``fof_kdtree``
    The paper's serial algorithm (§3.3.1): build a balanced k-d tree and
    recursively merge, using subtree bounding boxes to merge or exclude
    whole subtrees at once.  The reference implementation.

``fof_grid``
    A vectorized cell-list finder (link cells of edge = linking length,
    examine the 13 forward neighbor offsets, connected components over
    the emitted short edges).  Supports periodic boxes; the fast path
    used on larger particle sets.

``parallel_fof``
    The distributed finder: particles live on ranks under a
    :class:`~repro.parallel.decomposition.CartesianDecomposition` with
    overload (ghost) regions wide enough to contain any halo, each rank
    runs a local finder, and halos found by multiple ranks are assigned
    to the unique owner of their minimum-tag particle (paper: "the
    parallel halo finder identifies halos found in whole or in part by
    multiple processes, and assigns them to a unique processor").

All finders discard halos below ``min_count`` particles ("to avoid
spurious identifications, halos with fewer than a specified number of
particles are discarded"); 40 was the production threshold quoted in the
paper's introduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from ..parallel.communicator import Communicator
from ..parallel.decomposition import CartesianDecomposition
from ..parallel.overload import overload_destinations
from .kdtree import KDTree, box_gap_sq, box_span_sq
from .union_find import DisjointSet

__all__ = ["FOFResult", "fof_kdtree", "fof_grid", "parallel_fof", "DEFAULT_MIN_COUNT"]

#: Production minimum halo size (paper intro: "billions of halos with 40
#: particles were found").
DEFAULT_MIN_COUNT = 40


@dataclass
class FOFResult:
    """Output of a FOF run.

    ``labels`` assigns every input particle a halo label; particles in
    halos below ``min_count`` get label ``-1``.  Labels are the *minimum
    particle tag* in the halo when tags were supplied, otherwise the
    minimum particle index — a globally stable identifier that every
    finder (serial, grid, parallel) agrees on, making results directly
    comparable.
    """

    labels: np.ndarray
    min_count: int
    halo_tags: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    halo_counts: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    @property
    def n_halos(self) -> int:
        return len(self.halo_tags)

    def members(self, halo_tag: int) -> np.ndarray:
        """Indices of the particles in one halo."""
        return np.flatnonzero(self.labels == halo_tag)


def _finalize(
    roots: np.ndarray, tags: np.ndarray | None, min_count: int
) -> FOFResult:
    """Convert union-find roots into stable tag-based halo labels."""
    n = len(roots)
    ids = np.arange(n, dtype=np.int64) if tags is None else np.asarray(tags, dtype=np.int64)
    # label of each component = min id within it
    order = np.argsort(roots, kind="stable")
    sroots = roots[order]
    sids = ids[order]
    boundaries = np.empty(n, dtype=bool)
    if n:
        boundaries[0] = True
        boundaries[1:] = sroots[1:] != sroots[:-1]
    seg = np.cumsum(boundaries) - 1 if n else np.empty(0, dtype=np.intp)
    min_ids = np.minimum.reduceat(sids, np.flatnonzero(boundaries)) if n else np.empty(0, np.int64)
    counts = np.diff(np.append(np.flatnonzero(boundaries), n)) if n else np.empty(0, np.intp)

    labels = np.empty(n, dtype=np.int64)
    labels[order] = min_ids[seg]
    keep = counts >= min_count
    kept_tags = min_ids[keep]
    kept_counts = counts[keep]
    discard = ~np.isin(labels, kept_tags)
    labels[discard] = -1
    srt = np.argsort(kept_tags)
    return FOFResult(
        labels=labels,
        min_count=min_count,
        halo_tags=kept_tags[srt],
        halo_counts=kept_counts[srt].astype(np.int64),
    )


# ---------------------------------------------------------------------------
# serial k-d tree FOF (paper-faithful reference)
# ---------------------------------------------------------------------------


def fof_kdtree(
    pos: np.ndarray,
    linking_length: float,
    tags: np.ndarray | None = None,
    min_count: int = DEFAULT_MIN_COUNT,
    leaf_size: int = 8,
) -> FOFResult:
    """Serial FOF via recursive traversal of a balanced k-d tree.

    Non-periodic (HACC applies it per rank to overloaded local volumes;
    periodicity is handled by the ghost images at the parallel layer).
    """
    pos = np.atleast_2d(np.asarray(pos, dtype=float))
    n = len(pos)
    if n == 0:
        return _finalize(np.empty(0, dtype=np.intp), tags, min_count)
    tree = KDTree(pos, leaf_size=leaf_size)
    dsu = DisjointSet(n)
    ll2 = linking_length * linking_length

    def process(node_id: int) -> None:
        node = tree.nodes[node_id]
        if node.is_leaf:
            idx = tree.index[node.start : node.end]
            if len(idx) > 1:
                d2 = np.sum((pos[idx][:, None, :] - pos[idx][None, :, :]) ** 2, axis=-1)
                ii, jj = np.nonzero(np.triu(d2 <= ll2, k=1))
                for a, b in zip(idx[ii], idx[jj]):
                    dsu.union(int(a), int(b))
            return
        process(node.left)
        process(node.right)
        merge(node.left, node.right)

    def merge(na: int, nb: int) -> None:
        a = tree.nodes[na]
        b = tree.nodes[nb]
        if box_gap_sq(a.lo, a.hi, b.lo, b.hi) > ll2:
            return  # whole subtrees excluded at once
        if box_span_sq(a.lo, a.hi, b.lo, b.hi) <= ll2:
            # every cross pair is a link: merge both subtrees wholesale
            ia = tree.index[a.start : a.end]
            ib = tree.index[b.start : b.end]
            anchor = int(ia[0])
            for x in ia[1:]:
                dsu.union(anchor, int(x))
            for x in ib:
                dsu.union(anchor, int(x))
            return
        if a.is_leaf and b.is_leaf:
            ia = tree.index[a.start : a.end]
            ib = tree.index[b.start : b.end]
            d2 = np.sum((pos[ia][:, None, :] - pos[ib][None, :, :]) ** 2, axis=-1)
            ii, jj = np.nonzero(d2 <= ll2)
            for x, y in zip(ia[ii], ib[jj]):
                dsu.union(int(x), int(y))
            return
        # recurse into the children of the larger (or non-leaf) node
        if a.is_leaf or (not b.is_leaf and b.count > a.count):
            merge(na, b.left)
            merge(na, b.right)
        else:
            merge(a.left, nb)
            merge(a.right, nb)

    import sys

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 10000))
    try:
        process(0)
    finally:
        sys.setrecursionlimit(old_limit)
    return _finalize(dsu.labels(), tags, min_count)


# ---------------------------------------------------------------------------
# vectorized cell-list FOF
# ---------------------------------------------------------------------------

_FORWARD_OFFSETS = [
    (0, 0, 1),
    (0, 1, -1),
    (0, 1, 0),
    (0, 1, 1),
    (1, -1, -1),
    (1, -1, 0),
    (1, -1, 1),
    (1, 0, -1),
    (1, 0, 0),
    (1, 0, 1),
    (1, 1, -1),
    (1, 1, 0),
    (1, 1, 1),
]


def _cross_block_pairs(
    order: np.ndarray,
    sa: np.ndarray,
    sb: np.ndarray,
    ca: np.ndarray,
    cb: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All cross pairs between variable-size index blocks — no Python loop.

    Block ``k`` contributes every ``(a, b)`` with ``a`` drawn from
    ``order[sa[k] : sa[k] + ca[k]]`` and ``b`` from
    ``order[sb[k] : sb[k] + cb[k]]``.  The flat pair index within each
    block is decomposed as ``a_local * cb + b_local`` (row-major), which
    reproduces the historical ``np.repeat``/``np.tile`` emission order
    exactly.  Returns ``(ai, bi, a_local, b_local)``; the local
    coordinates let the within-cell caller keep only the upper triangle
    (``a_local < b_local``).
    """
    blk = (ca * cb).astype(np.intp)
    total = int(blk.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty, empty, empty
    off = np.concatenate([[0], np.cumsum(blk)[:-1]])
    r = np.arange(total, dtype=np.intp) - np.repeat(off, blk)
    cb_rep = np.repeat(cb.astype(np.intp), blk)
    a_local = r // cb_rep
    b_local = r - a_local * cb_rep
    ai = order[np.repeat(sa.astype(np.intp), blk) + a_local]
    bi = order[np.repeat(sb.astype(np.intp), blk) + b_local]
    return ai, bi, a_local, b_local


def fof_grid(
    pos: np.ndarray,
    linking_length: float,
    tags: np.ndarray | None = None,
    min_count: int = DEFAULT_MIN_COUNT,
    box: float | None = None,
) -> FOFResult:
    """Vectorized cell-list FOF; periodic when ``box`` is given.

    Bins particles into cells of edge = linking length, emits candidate
    edges between each cell and its 13 forward neighbors (plus within-cell
    pairs), filters by true distance, and labels connected components.
    """
    pos = np.atleast_2d(np.asarray(pos, dtype=float))
    n = len(pos)
    if n == 0:
        return _finalize(np.empty(0, dtype=np.intp), tags, min_count)
    ll = float(linking_length)
    ll2 = ll * ll

    if box is not None:
        pos = np.mod(pos, box)
        ncell = max(int(np.floor(box / ll)), 1)
        cell_edge = box / ncell
        periodic = ncell >= 3  # with <3 cells the offset trick double-counts
    else:
        lo = pos.min(axis=0)
        span = np.maximum(pos.max(axis=0) - lo, 1e-12)
        ncell_axis = np.maximum((span / ll).astype(int) + 1, 1)
        periodic = False

    if box is not None and not periodic:
        # tiny periodic boxes: fall back to brute-force pair search
        return _fof_brute_periodic(pos, ll, box, tags, min_count)

    if box is not None:
        coords = np.minimum((pos / cell_edge).astype(np.intp), ncell - 1)
        dims = np.asarray([ncell, ncell, ncell], dtype=np.intp)
    else:
        coords = ((pos - lo) / ll).astype(np.intp)
        dims = np.asarray(ncell_axis, dtype=np.intp)
        coords = np.minimum(coords, dims - 1)

    cell_ids = (coords[:, 0] * dims[1] + coords[:, 1]) * dims[2] + coords[:, 2]
    order = np.argsort(cell_ids, kind="stable")
    sorted_cells = cell_ids[order]
    starts = np.flatnonzero(
        np.concatenate([[True], sorted_cells[1:] != sorted_cells[:-1]])
    )
    occupied = sorted_cells[starts]
    counts = np.diff(np.append(starts, n))
    occ_coords = np.empty((len(occupied), 3), dtype=np.intp)
    occ_coords[:, 0] = occupied // (dims[1] * dims[2])
    rem = occupied % (dims[1] * dims[2])
    occ_coords[:, 1] = rem // dims[2]
    occ_coords[:, 2] = rem % dims[2]

    edges_i: list[np.ndarray] = []
    edges_j: list[np.ndarray] = []

    def emit_pairs(ai: np.ndarray, bi: np.ndarray) -> None:
        """Filter candidate particle pairs by true distance, record edges."""
        d = pos[ai] - pos[bi]
        if box is not None:
            d -= box * np.round(d / box)
        keep = np.einsum("ij,ij->i", d, d) <= ll2
        if keep.any():
            edges_i.append(ai[keep])
            edges_j.append(bi[keep])

    # within-cell pairs: full per-cell cross products in one shot, upper
    # triangle kept (a_local < b_local == np.triu_indices(c, k=1) order)
    multi = counts > 1
    if multi.any():
        ai, bi, a_loc, b_loc = _cross_block_pairs(
            order, starts[multi], starts[multi], counts[multi], counts[multi]
        )
        upper = a_loc < b_loc
        if upper.any():
            emit_pairs(ai[upper], bi[upper])

    # forward neighbor cells
    for off in _FORWARD_OFFSETS:
        nb_coords = occ_coords + np.asarray(off, dtype=np.intp)
        if box is not None:
            nb_coords %= dims
            valid = np.ones(len(occupied), dtype=bool)
        else:
            valid = np.all((nb_coords >= 0) & (nb_coords < dims), axis=1)
        if not valid.any():
            continue
        nb_ids = (nb_coords[:, 0] * dims[1] + nb_coords[:, 1]) * dims[2] + nb_coords[:, 2]
        # locate neighbor cells among the occupied list
        pos_in_occ = np.searchsorted(occupied, nb_ids)
        pos_in_occ = np.minimum(pos_in_occ, len(occupied) - 1)
        match = valid & (occupied[pos_in_occ] == nb_ids)
        src_cells = np.flatnonzero(match)
        if not src_cells.size:
            continue
        dst_cells = pos_in_occ[match]
        # all cross pairs over (src cell, dst cell) blocks, fully vectorized
        ai, bi, _, _ = _cross_block_pairs(
            order,
            starts[src_cells],
            starts[dst_cells],
            counts[src_cells],
            counts[dst_cells],
        )
        if ai.size:
            emit_pairs(ai, bi)

    if edges_i:
        row = np.concatenate(edges_i)
        col = np.concatenate(edges_j)
        graph = coo_matrix(
            (np.ones(len(row), dtype=np.int8), (row, col)), shape=(n, n)
        )
        _, roots = connected_components(graph, directed=False)
    else:
        roots = np.arange(n, dtype=np.intp)
    return _finalize(np.asarray(roots, dtype=np.intp), tags, min_count)


def _fof_brute_periodic(
    pos: np.ndarray, ll: float, box: float, tags: np.ndarray | None, min_count: int
) -> FOFResult:
    """O(n²) periodic FOF for tiny boxes (testing fallback)."""
    n = len(pos)
    d = pos[:, None, :] - pos[None, :, :]
    d -= box * np.round(d / box)
    adj = np.sum(d * d, axis=-1) <= ll * ll
    graph = coo_matrix(adj)
    _, roots = connected_components(graph, directed=False)
    return _finalize(np.asarray(roots, dtype=np.intp), tags, min_count)


# ---------------------------------------------------------------------------
# distributed FOF
# ---------------------------------------------------------------------------


def parallel_fof(
    comm: Communicator,
    decomp: CartesianDecomposition,
    pos: np.ndarray,
    tags: np.ndarray,
    linking_length: float,
    overload_width: float,
    min_count: int = DEFAULT_MIN_COUNT,
    local_finder: str = "grid",
) -> dict[int, np.ndarray]:
    """Distributed FOF over rank-local particles with overload regions.

    Parameters
    ----------
    comm, decomp:
        SPMD communicator and the domain decomposition (one sub-box per
        rank; ``pos`` must already be the rank's *owned* particles).
    pos, tags:
        This rank's owned particle positions (box coordinates) and
        globally unique tags.
    linking_length, overload_width:
        FOF linking length and ghost-region width.  Correctness requires
        ``overload_width`` to be at least the largest halo's spatial
        extent (the paper's stated assumption).
    local_finder:
        ``"grid"`` (fast) or ``"kdtree"`` (paper-faithful reference).

    Returns
    -------
    dict mapping halo tag (min particle tag) -> member particle tags,
    for the halos *owned* by this rank.  Each halo appears on exactly one
    rank, with its complete membership.
    """
    pos = np.atleast_2d(np.asarray(pos, dtype=float))
    tags = np.asarray(tags, dtype=np.int64)
    n_owned = len(pos)

    # 1. ghost exchange: send boundary particles to neighbors
    plan = overload_destinations(decomp, comm.rank, pos, overload_width)
    send: list[dict[str, np.ndarray]] = []
    for dest in range(comm.size):
        if dest in plan:
            idx, shift = plan[dest]
            send.append({"pos": pos[idx] + shift, "tag": tags[idx]})
        else:
            send.append({"pos": pos[:0], "tag": tags[:0]})
    received = comm.alltoall(send)

    ghost_pos = [chunk["pos"] for src, chunk in enumerate(received) if src != comm.rank]
    ghost_tag = [chunk["tag"] for src, chunk in enumerate(received) if src != comm.rank]
    all_pos = np.concatenate([pos, *ghost_pos]) if ghost_pos else pos
    all_tag = np.concatenate([tags, *ghost_tag]) if ghost_tag else tags

    # NOTE: a particle may legitimately arrive as several periodic images
    # (e.g. on a 2-wide process grid the same source rank is both the +x
    # and -x neighbor).  All images are kept: distinct images of the same
    # halo form components sharing the same minimum tag, and membership
    # is deduplicated by tag below.

    # 2. local FOF on owned + ghost particles (non-periodic: ghosts carry
    #    the periodic images already)
    if local_finder == "kdtree":
        local = fof_kdtree(all_pos, linking_length, tags=all_tag, min_count=min_count)
    else:
        local = fof_grid(all_pos, linking_length, tags=all_tag, min_count=min_count)

    # 3. ownership: this rank owns a halo iff the halo's min-tag particle
    #    is one of the rank's owned (non-ghost) particles.
    owned_tags = set(tags.tolist())
    result: dict[int, np.ndarray] = {}
    for halo_tag in local.halo_tags:
        if int(halo_tag) in owned_tags:
            members = np.unique(all_tag[local.labels == halo_tag])
            if len(members) >= min_count:  # re-check after image dedup
                result[int(halo_tag)] = members
    return result
