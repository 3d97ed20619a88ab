"""FOF halo finding: cross-validation of all three implementations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import fof_grid, fof_kdtree, group_halo_members, parallel_fof
from repro.analysis.fof import _fof_brute_periodic
from repro.parallel import CartesianDecomposition, run_spmd


def test_two_points_linked_iff_within_ll():
    pos = np.asarray([[0, 0, 0], [0.5, 0, 0], [3, 0, 0]], dtype=float)
    r = fof_kdtree(pos, linking_length=1.0, min_count=2)
    assert r.n_halos == 1
    assert np.array_equal(r.labels, [0, 0, -1])


def test_chain_percolates():
    """FOF links transitively: a chain of near points is one halo."""
    pos = np.column_stack([np.arange(10) * 0.9, np.zeros(10), np.zeros(10)])
    r = fof_kdtree(pos, linking_length=1.0, min_count=2)
    assert r.n_halos == 1
    assert r.halo_counts[0] == 10


def test_chain_breaks_at_gap():
    x = np.concatenate([np.arange(5) * 0.9, np.arange(5) * 0.9 + 10.0])
    pos = np.column_stack([x, np.zeros(10), np.zeros(10)])
    r = fof_kdtree(pos, linking_length=1.0, min_count=2)
    assert r.n_halos == 2
    assert np.array_equal(r.halo_counts, [5, 5])


def test_min_count_discards_small(blob_points):
    r_all = fof_grid(blob_points, 0.2, min_count=2)
    r_big = fof_grid(blob_points, 0.2, min_count=100)
    assert r_big.n_halos <= r_all.n_halos
    assert np.all(r_big.halo_counts >= 100)


def test_labels_are_min_member_tag(blob_points):
    tags = np.arange(len(blob_points)) * 3 + 7  # arbitrary distinct tags
    r = fof_grid(blob_points, 0.2, tags=tags, min_count=10)
    for halo_tag in r.halo_tags:
        members = tags[r.labels == halo_tag]
        assert halo_tag == members.min()


def test_kdtree_and_grid_agree(blob_points):
    tags = np.arange(len(blob_points))
    a = fof_kdtree(blob_points, 0.2, tags=tags, min_count=10)
    b = fof_grid(blob_points, 0.2, tags=tags, min_count=10)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.halo_tags, b.halo_tags)
    assert np.array_equal(a.halo_counts, b.halo_counts)


def test_grid_periodic_matches_brute(rng):
    pos = np.mod(rng.normal(0, 1.5, (300, 3)), 10.0)
    a = fof_grid(pos, 0.5, min_count=5, box=10.0)
    b = _fof_brute_periodic(pos, 0.5, 10.0, None, 5)
    assert np.array_equal(a.labels, b.labels)


def test_periodic_halo_across_boundary():
    """A clump straddling the box edge is one halo with periodicity."""
    pos = np.asarray([[9.9, 5, 5], [0.1, 5, 5], [0.3, 5, 5]])
    r = fof_grid(pos, 0.5, min_count=2, box=10.0)
    assert r.n_halos == 1
    assert r.halo_counts[0] == 3


def test_empty_input():
    r = fof_grid(np.empty((0, 3)), 0.2)
    assert r.n_halos == 0
    assert len(r.labels) == 0


def _groups(result):
    """Halo tag -> member particle indices, via ``group_halo_members``."""
    halo_tags, members = group_halo_members(result.labels)
    return dict(zip(halo_tags.tolist(), members))


def test_halo_groups_mapping(blob_points):
    r = fof_grid(blob_points, 0.2, min_count=10)
    groups = _groups(r)
    assert set(groups) == set(int(t) for t in r.halo_tags)
    for tag, idx in groups.items():
        assert np.all(r.labels[idx] == tag)
    total = sum(len(v) for v in groups.values())
    assert total == int((r.labels >= 0).sum())


def test_members_accessor(blob_points):
    r = fof_grid(blob_points, 0.2, min_count=10)
    tag = int(r.halo_tags[0])
    assert len(r.members(tag)) == r.halo_counts[0]


@pytest.mark.parametrize("local_finder", ["grid", "kdtree"])
@pytest.mark.parametrize("nranks", [2, 8])
def test_parallel_matches_serial(blob_points, local_finder, nranks):
    box = 20.0
    tags = np.arange(len(blob_points))

    def prog(comm):
        decomp = CartesianDecomposition.for_ranks(box, comm.size)
        owners = decomp.rank_of_position(blob_points)
        mine = owners == comm.rank
        return parallel_fof(
            comm,
            decomp,
            blob_points[mine],
            tags[mine],
            linking_length=0.2,
            overload_width=2.0,
            min_count=10,
            local_finder=local_finder,
        )

    results = run_spmd(nranks, prog)
    parallel_halos = {}
    for r in results:
        for tag, members in r.items():
            assert tag not in parallel_halos, "halo owned by two ranks"
            parallel_halos[tag] = members

    serial = fof_grid(blob_points, 0.2, tags=tags, min_count=10, box=box)
    groups = _groups(serial)
    assert set(parallel_halos) == set(groups)
    for tag, idx in groups.items():
        assert np.array_equal(np.sort(tags[idx]), parallel_halos[tag])


def test_parallel_halo_spanning_rank_boundary():
    """A halo crossing a rank boundary is found whole by exactly one rank."""
    box = 20.0
    # clump centered on the x=10 plane (the 2-rank boundary)
    local = np.random.default_rng(5)
    pos = np.mod(local.normal([10, 5, 5], 0.2, (100, 3)), box)
    tags = np.arange(100)

    def prog(comm):
        decomp = CartesianDecomposition.for_ranks(box, comm.size)
        owners = decomp.rank_of_position(pos)
        mine = owners == comm.rank
        return parallel_fof(
            comm, decomp, pos[mine], tags[mine], 0.3, overload_width=3.0, min_count=10
        )

    # sanity: the clump truly straddles the boundary
    decomp = CartesianDecomposition.for_ranks(box, 2)
    owners = decomp.rank_of_position(pos)
    assert 0 < (owners == 0).sum() < 100

    results = run_spmd(2, prog)
    found = [h for r in results for h in r.items()]
    serial = fof_grid(pos, 0.3, tags=tags, min_count=10, box=box)
    assert len(found) == serial.n_halos
    # the dominant halo is complete on its single owning rank
    biggest = max(found, key=lambda kv: len(kv[1]))
    assert len(biggest[1]) == serial.halo_counts.max()


def test_parallel_halo_straddling_box_boundary():
    """Regression: a halo across the periodic box edge (not just an
    interior rank boundary) must come out complete — requires the ghost
    images to carry the correct periodic shift sign."""
    box = 20.0
    local = np.random.default_rng(9)
    pos = np.mod(local.normal([0.0, 10, 10], 0.3, (80, 3)), box)  # straddles x=0
    tags = np.arange(80)

    def prog(comm):
        decomp = CartesianDecomposition.for_ranks(box, comm.size)
        owners = decomp.rank_of_position(pos)
        mine = owners == comm.rank
        return parallel_fof(
            comm, decomp, pos[mine], tags[mine], 0.4, overload_width=3.0, min_count=10
        )

    results = run_spmd(8, prog)
    found = {t: m for r in results for t, m in r.items()}
    serial = fof_grid(pos, 0.4, tags=tags, min_count=10, box=box)
    groups = _groups(serial)
    assert set(found) == set(groups)
    for tag, idx in groups.items():
        assert np.array_equal(np.sort(tags[idx]), found[tag])


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 1000), ll=st.floats(0.2, 0.8))
def test_prop_kdtree_equals_brute_force(seed, ll):
    """k-d FOF must equal the O(n²) graph components for random input."""
    local = np.random.default_rng(seed)
    pos = local.uniform(0, 5, (80, 3))
    result = fof_kdtree(pos, ll, min_count=1)
    # brute force via union of all close pairs
    d2 = np.sum((pos[:, None, :] - pos[None, :, :]) ** 2, axis=-1)
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(80))
    ii, jj = np.nonzero(np.triu(d2 <= ll * ll, k=1))
    g.add_edges_from(zip(ii.tolist(), jj.tolist()))
    comps = list(nx.connected_components(g))
    assert result.n_halos == len(comps)
    for comp in comps:
        assert len({result.labels[i] for i in comp}) == 1
