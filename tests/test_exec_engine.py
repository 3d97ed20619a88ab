"""The work-stealing multi-process execution engine.

Covers the engine's contract end to end: zero-copy shared-memory
arrays, cost-model-guided work decomposition (LPT + chunking + giant
halo slab splitting), bit-identical parallel batch drivers for centers
and subhalos, crash isolation, telemetry (per-worker Chrome-trace
tracks + the Figure-4 imbalance gauge), and the scheduler's payload
execution hook.
"""

import json
import time

import numpy as np
import pytest

from repro import obs
from repro.analysis import (
    group_halo_members,
    halo_centers,
    potential_bruteforce,
    potential_reference,
)
from repro.analysis.centers import center_finding_cost
from repro.analysis.subhalos import find_subhalos
from repro.exec import (
    ExecutionEngine,
    HaloWorkQueue,
    SharedParticleStore,
    WorkerError,
    parallel_halo_centers,
    parallel_subhalos,
)
from repro.machines.machine import MOONLIGHT
from repro.machines.scheduler import Job, Scheduler
from repro.obs.report import RunTelemetry


# ---------------------------------------------------------------------------
# fixtures: a skewed catalog (the paper's Figure 4 shape)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def skewed_catalog():
    """One giant halo + many small ones + fluff, shuffled."""
    rng = np.random.default_rng(1234)
    sizes = [700, *rng.integers(30, 90, size=24)]
    pos_list, labels_list = [], []
    for i, s in enumerate(sizes):
        c = rng.uniform(5, 95, 3)
        pos_list.append(c + rng.normal(0, 1.0, (s, 3)))
        labels_list.append(np.full(s, i * 10, dtype=np.int64))
    pos_list.append(rng.uniform(0, 100, (300, 3)))  # fluff
    labels_list.append(np.full(300, -1, dtype=np.int64))
    pos = np.concatenate(pos_list)
    labels = np.concatenate(labels_list)
    perm = rng.permutation(len(pos))
    pos, labels = pos[perm], labels[perm]
    tags = rng.permutation(len(pos)).astype(np.int64)
    return pos, tags, labels


# ---------------------------------------------------------------------------
# satellites: grouping and the reference kernel
# ---------------------------------------------------------------------------


def test_group_halo_members_matches_flatnonzero(skewed_catalog):
    _, _, labels = skewed_catalog
    halo_tags, groups = group_halo_members(labels)
    expected_tags = np.unique(labels[labels >= 0])
    assert np.array_equal(halo_tags, expected_tags)
    for tag, members in zip(halo_tags, groups):
        assert np.array_equal(members, np.flatnonzero(labels == tag))


def test_group_halo_members_select_tags(skewed_catalog):
    _, _, labels = skewed_catalog
    halo_tags, groups = group_halo_members(labels, select_tags=np.asarray([0, 40]))
    assert halo_tags.tolist() == [0, 40]
    assert all(np.array_equal(g, np.flatnonzero(labels == t)) for t, g in zip(halo_tags, groups))


def test_group_halo_members_empty():
    tags, groups = group_halo_members(np.full(10, -1, dtype=np.int64))
    assert len(tags) == 0 and groups == []


def test_potential_reference_cross_validates_blocked_kernel():
    rng = np.random.default_rng(5)
    pos = rng.normal(0, 1, (60, 3))
    ref = potential_reference(pos, mass=1.5, softening=1e-4)
    fast = potential_bruteforce(pos, mass=1.5, softening=1e-4)
    assert np.allclose(ref, fast, rtol=1e-12, atol=1e-12)


def test_potential_bruteforce_block_boundaries():
    rng = np.random.default_rng(6)
    pos = rng.normal(0, 1, (100, 3))
    a = potential_bruteforce(pos, block=7)
    b = potential_bruteforce(pos, block=2048)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# shared memory store
# ---------------------------------------------------------------------------


def test_shared_store_roundtrip():
    rng = np.random.default_rng(2)
    pos = rng.normal(0, 1, (100, 3))
    tags = np.arange(100, dtype=np.int64)
    store = SharedParticleStore.create(pos=pos, tags=tags)
    try:
        assert sorted(store.fields) == ["pos", "tags"]
        assert store.nbytes == pos.nbytes + tags.nbytes
        spec = store.spec
        attached = SharedParticleStore.attach(spec)
        try:
            assert np.array_equal(attached["pos"], pos)
            assert np.array_equal(attached["tags"], tags)
        finally:
            attached.close()
        assert np.array_equal(store["pos"], pos)
    finally:
        store.unlink()
    with pytest.raises(RuntimeError):
        store.array("pos")  # repro: noqa[RPR012] - asserts use-after-unlink raises


def test_shared_store_empty_array_and_idempotent_unlink():
    store = SharedParticleStore.create(empty=np.empty(0, dtype=np.float64))
    assert store["empty"].size == 0
    store.unlink()
    store.unlink()  # repro: noqa[RPR012] - asserts unlink is idempotent


# ---------------------------------------------------------------------------
# work queue
# ---------------------------------------------------------------------------


def test_workqueue_covers_every_halo_exactly():
    counts = np.asarray([5000, 400, 400, 60, 50, 45, 44, 43])
    q = HaloWorkQueue.build(counts, workers=4)
    covered = q.covered_halos()
    assert set(covered) == set(range(len(counts)))
    for h, spans in covered.items():
        if spans[0] == (0, 0):  # whole halo: exactly once
            assert spans == [(0, 0)]
        else:  # slabs: exact row partition
            spans = sorted(spans)
            assert spans[0][0] == 0 and spans[-1][1] == counts[h]
            for (_, e0), (s1, _) in zip(spans[:-1], spans[1:]):
                assert e0 == s1


def test_workqueue_splits_dominant_halo():
    counts = np.asarray([100_000, *([50] * 40)])
    q = HaloWorkQueue.build(counts, workers=4, min_split_rows=256)
    assert q.n_split_halos == 1
    slabs = [it for it in q.items if it.kind == "slab"]
    assert len(slabs) >= 2
    assert all(it.row_end - it.row_start >= 1 for it in slabs)
    # splitting must break the one-giant-pins-one-worker ceiling
    assert q.modeled_imbalance() < 2.0


def test_workqueue_not_splittable():
    counts = np.asarray([100_000, *([50] * 40)])
    q = HaloWorkQueue.build(counts, workers=4, splittable=False)
    assert q.n_split_halos == 0
    assert all(it.kind == "halos" for it in q.items)


def test_workqueue_chunks_small_halos():
    counts = np.asarray([40] * 200)
    q = HaloWorkQueue.build(counts, workers=2)
    assert q.n_items < 200  # amortized chunks, not one item per halo
    assert sum(it.n_halos for it in q.items) == 200


def test_workqueue_lpt_order_and_pool():
    counts = np.asarray([900, 800, 700, 60, 55, 50, 45, 40])
    q = HaloWorkQueue.build(counts, workers=2, split_factor=0.5)
    item_costs = [it.cost for it in q.items]
    assert item_costs == sorted(item_costs, reverse=True)
    seeded = [i for ids in q.seeds for i in ids]
    assert len(seeded) <= 2
    assert sorted(seeded + q.pool) == list(range(q.n_items))
    assert q.total_cost == int(center_finding_cost(counts).sum())


def test_workqueue_empty():
    q = HaloWorkQueue.build(np.empty(0, dtype=np.int64), workers=3)
    assert q.n_items == 0 and q.pool == []


# ---------------------------------------------------------------------------
# determinism: parallel == serial, bit for bit
# ---------------------------------------------------------------------------


def test_parallel_centers_bit_identical(skewed_catalog):
    pos, tags, labels = skewed_catalog
    serial = halo_centers(pos, tags, labels)
    for workers in (2, 4):
        par = halo_centers(pos, tags, labels, workers=workers)
        assert np.array_equal(serial.halo_tags, par.halo_tags)
        assert np.array_equal(serial.centers, par.centers)
        assert np.array_equal(serial.mbp_tags, par.mbp_tags)
        assert np.array_equal(serial.potentials, par.potentials)
        assert np.array_equal(serial.per_halo_pairs, par.per_halo_pairs)
        assert serial.stats.n_particles == par.stats.n_particles
        assert serial.stats.pair_evaluations == par.stats.pair_evaluations
        assert serial.stats.exact_potentials == par.stats.exact_potentials
        assert par.exec_report is not None
        assert par.exec_report.workers == workers


def test_parallel_centers_giant_halo_is_split(skewed_catalog):
    pos, tags, labels = skewed_catalog
    eng = ExecutionEngine(workers=2, min_split_rows=64)
    par = parallel_halo_centers(pos, tags, labels, engine=eng)
    assert par.exec_report.n_split_halos >= 1
    serial = halo_centers(pos, tags, labels)
    assert np.array_equal(serial.mbp_tags, par.mbp_tags)
    assert np.array_equal(serial.potentials, par.potentials)
    assert np.array_equal(serial.per_halo_pairs, par.per_halo_pairs)


def test_parallel_centers_astar_identical(skewed_catalog):
    pos, tags, labels = skewed_catalog
    serial = halo_centers(pos, tags, labels, method="astar")
    par = halo_centers(pos, tags, labels, method="astar", workers=2)
    assert np.array_equal(serial.mbp_tags, par.mbp_tags)
    assert np.array_equal(serial.potentials, par.potentials)
    assert np.array_equal(serial.per_halo_pairs, par.per_halo_pairs)


def test_parallel_centers_select_tags(skewed_catalog):
    pos, tags, labels = skewed_catalog
    pick = np.asarray([0, 30, 70])
    serial = halo_centers(pos, tags, labels, select_tags=pick)
    par = halo_centers(pos, tags, labels, select_tags=pick, workers=2)
    assert np.array_equal(serial.halo_tags, par.halo_tags)
    assert np.array_equal(serial.mbp_tags, par.mbp_tags)


def test_parallel_centers_empty_catalog():
    pos = np.random.default_rng(0).uniform(0, 1, (50, 3))
    labels = np.full(50, -1, dtype=np.int64)
    tags = np.arange(50)
    par = halo_centers(pos, tags, labels, workers=2)
    assert len(par.halo_tags) == 0


def test_parallel_subhalos_bit_identical():
    rng = np.random.default_rng(77)
    halos, pos_list, vel_list = {}, [], []
    off = 0
    for t, s in [(3, 400), (9, 200), (17, 120), (25, 90)]:
        c = rng.uniform(0, 50, 3)
        p = np.concatenate(
            [c + rng.normal(0, 0.5, (s // 2, 3)), c + 3 + rng.normal(0, 0.3, (s - s // 2, 3))]
        )
        pos_list.append(p)
        vel_list.append(rng.normal(0, 0.2, (s, 3)))
        halos[t] = np.arange(off, off + s)
        off += s
    pos, vel = np.concatenate(pos_list), np.concatenate(vel_list)

    serial = {t: find_subhalos(pos[i], vel[i], mass=1.0, g_constant=1.0) for t, i in halos.items()}
    batch = parallel_subhalos(pos, vel, halos, mass=1.0, g_constant=1.0, workers=2)
    assert set(batch.by_tag) == set(halos)
    for t in halos:
        a, b = serial[t], batch.by_tag[t]
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.subhalo_sizes, b.subhalo_sizes)
        assert a.n_candidates == b.n_candidates
        assert a.unbound_removed == b.unbound_removed
    assert set(batch.halo_seconds) == set(halos)
    assert batch.report is not None and batch.report.workers == 2


# ---------------------------------------------------------------------------
# worker-count dispatch
# ---------------------------------------------------------------------------


def test_halo_centers_workers_one_stays_serial(skewed_catalog):
    pos, tags, labels = skewed_catalog
    res = halo_centers(pos, tags, labels, workers=1)
    assert res.exec_report is None


# ---------------------------------------------------------------------------
# crash isolation
# ---------------------------------------------------------------------------


def test_worker_crash_surfaces_without_hang():
    eng = ExecutionEngine(workers=2, result_timeout=60.0)
    counts = np.asarray([100] * 6)
    work = eng.build_queue(counts, splittable=False)
    arrays = {
        "pos": np.zeros((600, 3)),
        "members": np.arange(600, dtype=np.int64),
        "starts": np.arange(0, 700, 100, dtype=np.int64),
    }
    t0 = time.monotonic()
    with pytest.raises(WorkerError) as exc_info:
        eng.run(arrays, work, {"task": "explode", "message": "deliberate test crash"})
    assert time.monotonic() - t0 < 30.0  # surfaced promptly, no hang
    err = exc_info.value
    assert "deliberate test crash" in err.remote_traceback
    assert err.worker_id is not None


def test_engine_inline_path_single_worker(skewed_catalog):
    pos, tags, labels = skewed_catalog
    eng = ExecutionEngine(workers=1)
    res = parallel_halo_centers(pos, tags, labels, engine=eng)
    serial = halo_centers(pos, tags, labels)
    assert np.array_equal(serial.mbp_tags, res.mbp_tags)


# ---------------------------------------------------------------------------
# telemetry: worker spans, imbalance gauge, Chrome trace
# ---------------------------------------------------------------------------


def test_engine_telemetry_spans_and_gauge(skewed_catalog, tmp_path):
    pos, tags, labels = skewed_catalog
    with obs.telemetry() as rec:
        halo_centers(pos, tags, labels, workers=2)
        snap = RunTelemetry.from_recorder(rec)
    names = {s.name for s in snap.spans}
    assert "exec.run" in names and "exec.item" in names
    worker_tracks = {s.thread for s in snap.spans if s.name == "exec.item"}
    assert {"exec-worker-0", "exec-worker-1"} <= worker_tracks
    # the Figure-4 gauge + steal counter + dispatch histogram
    metrics = snap.metrics
    assert metrics["exec_load_imbalance_ratio"] >= 1.0
    assert metrics["exec_runs_total"] == 1
    assert metrics["exec_steals_total"] >= 0
    assert any(k.startswith("exec_dispatch_overhead_seconds") for k in metrics)
    # phase report buckets exec time under its own phase
    assert "Parallel exec" in snap.phase_table()
    # Chrome trace export renders per-worker tracks
    path = tmp_path / "trace.json"
    snap.write_chrome_trace(str(path))
    events = json.loads(path.read_text())["traceEvents"]
    track_names = {
        e["args"]["name"]
        for e in events
        if e.get("ph") == "M" and e.get("name") == "thread_name"
    }
    assert {"exec-worker-0", "exec-worker-1"} <= track_names


def test_record_span_api():
    with obs.telemetry() as rec:
        t0 = time.perf_counter()
        s = rec.record_span("exec.item", t0, t0 + 0.5, thread="exec-worker-9", cost=7)
        assert s.thread == "exec-worker-9"
        assert s.duration == pytest.approx(0.5)
        assert s.fields["cost"] == 7
        assert s in rec.tracer.snapshot()


# ---------------------------------------------------------------------------
# scheduler payload hook
# ---------------------------------------------------------------------------


def test_scheduler_executes_job_payload():
    sched = Scheduler(MOONLIGHT)
    ran: list[str] = []

    def work():
        ran.append("analysis")
        return 42

    sim = sched.submit(Job("sim", n_nodes=4, duration=10.0))
    job = sched.submit(Job("analysis", n_nodes=1, duration=5.0, after=[sim], payload=work))
    with obs.telemetry() as rec:
        sched.run()
        snap = RunTelemetry.from_recorder(rec)
    assert ran == ["analysis"]
    assert job.result == 42
    assert any(s.name == "scheduler.job_exec" for s in snap.spans)
    assert snap.metrics["scheduler_payloads_executed_total"] == 1
