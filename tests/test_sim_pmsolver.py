"""Fused spectral PM engine vs the reference pipeline.

Cross-validates :class:`repro.sim.pmsolver.PMSolver` (4-FFT fusion,
bincount CIC, shared scatter/gather geometry) against the original
function-at-a-time chain in :mod:`repro.sim.pm`, and checks the solver's
physical and reproducibility contracts: determinism, momentum
conservation, scratch non-aliasing, and telemetry accounting.
"""

import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.check import check_determinism
from repro.sim import HACCSimulation, SimulationConfig
from repro.sim.pm import (
    cic_deposit,
    cic_interpolate,
    gradient_spectral,
    pm_accelerations,
    solve_poisson,
)
from repro.sim.pmsolver import (
    PMSolver,
    clear_solver_cache,
    get_solver,
    resolve_fft_workers,
)


@pytest.fixture
def rng():
    return np.random.default_rng(99)


def reference_accelerations(pos_grid, ng, factor):
    delta = cic_deposit(pos_grid, ng)
    phi = solve_poisson(delta, factor=factor)
    return -cic_interpolate(gradient_spectral(phi), pos_grid)


# -- cross-validation against the reference pipeline --------------------------


@pytest.mark.parametrize("ng", [8, 16, 33])
def test_fused_matches_reference_accelerations(rng, ng):
    pos = rng.uniform(0, ng, (2500, 3))
    factor = 1.7
    ref = reference_accelerations(pos, ng, factor)
    fused = PMSolver(ng).accelerations(pos, factor)
    scale = np.abs(ref).max()
    np.testing.assert_allclose(fused, ref, rtol=1e-10, atol=1e-12 * scale)


def test_deposit_matches_reference(rng):
    ng = 16
    pos = rng.uniform(0, ng, (3000, 3))
    ref = cic_deposit(pos, ng)
    fused = PMSolver(ng).deposit(pos)
    np.testing.assert_allclose(fused, ref, rtol=1e-10, atol=1e-12)


def test_deposit_matches_reference_weighted(rng):
    ng = 12
    pos = rng.uniform(0, ng, (1000, 3))
    w = rng.uniform(0.5, 2.0, 1000)
    np.testing.assert_allclose(
        PMSolver(ng).deposit(pos, weights=w),
        cic_deposit(pos, ng, weights=w),
        rtol=1e-10,
        atol=1e-12,
    )


def test_potential_matches_solve_poisson(rng):
    ng = 16
    delta = rng.standard_normal((ng, ng, ng))
    delta -= delta.mean()
    np.testing.assert_allclose(
        PMSolver(ng).potential(delta, factor=2.5),
        solve_poisson(delta, factor=2.5),
        rtol=1e-10,
        atol=1e-12,
    )


def test_inverse_gradient_is_minus_grad_phi(rng):
    ng = 16
    delta = rng.standard_normal((ng, ng, ng))
    delta -= delta.mean()
    phi = solve_poisson(delta, factor=1.0)
    ref = -gradient_spectral(phi)
    fused = PMSolver(ng).inverse_gradient(delta)
    np.testing.assert_allclose(fused, ref, rtol=1e-10, atol=1e-12)


def test_pm_accelerations_method_dispatch(rng):
    ng = 12
    pos = rng.uniform(0, ng, (500, 3))
    fused = pm_accelerations(pos, ng, 1.0, method="fused")
    ref = pm_accelerations(pos, ng, 1.0, method="reference")
    scale = np.abs(ref).max()
    np.testing.assert_allclose(fused, ref, rtol=1e-10, atol=1e-12 * scale)
    with pytest.raises(ValueError, match="unknown PM method"):
        pm_accelerations(pos, ng, 1.0, method="nope")


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 200),
    ng=st.integers(4, 12),
)
def test_bincount_deposit_equals_add_at(seed, n, ng):
    """Property: the bincount scatter ≡ np.add.at for any particle cloud."""
    pos = np.random.default_rng(seed).uniform(-ng, 2 * ng, (n, 3))
    np.testing.assert_allclose(
        PMSolver(ng).deposit(pos), cic_deposit(pos, ng), rtol=1e-9, atol=1e-11
    )


# -- physical/reproducibility contracts ----------------------------------------


def test_accelerations_deterministic(rng):
    ng = 16
    pos = rng.uniform(0, ng, (2000, 3))
    solver = PMSolver(ng)
    report = check_determinism(lambda: solver.accelerations(pos, 1.0), runs=3)
    assert report.ok


def test_momentum_conservation_single_eval(rng):
    """Matched CIC scatter/gather + antisymmetric spectral gradient
    conserve total momentum: net force vanishes to machine precision."""
    ng = 16
    pos = rng.uniform(0, ng, (5000, 3))
    acc = PMSolver(ng).accelerations(pos, 1.5)
    net = np.abs(acc.sum(axis=0)).max()
    assert net <= 1e-12 * np.abs(acc).sum()


def test_momentum_conservation_multi_step():
    """Total code momentum stays conserved across an N-body integration."""
    sim = HACCSimulation(
        SimulationConfig(np_per_dim=12, box=30.0, z_initial=30.0, n_steps=8)
    )
    p0 = sim.particles.vel.sum(axis=0)
    scale0 = np.abs(sim.particles.vel).sum()
    sim.run()
    p1 = sim.particles.vel.sum(axis=0)
    drift = np.abs(p1 - p0).max()
    scale = max(scale0, np.abs(sim.particles.vel).sum())
    assert drift <= 1e-10 * scale


def test_fused_and_reference_backends_agree_over_run():
    base = dict(np_per_dim=10, box=25.0, z_initial=30.0, n_steps=5)
    fused = HACCSimulation(SimulationConfig(pm_backend="fused", **base))
    ref = HACCSimulation(SimulationConfig(pm_backend="reference", **base))
    fused.run()
    ref.run()
    np.testing.assert_allclose(
        fused.particles.pos, ref.particles.pos, rtol=1e-8, atol=1e-9 * 25.0
    )
    np.testing.assert_allclose(
        fused.particles.vel, ref.particles.vel, rtol=1e-8, atol=1e-10
    )


def test_returned_arrays_not_aliased_to_scratch(rng):
    ng = 8
    solver = PMSolver(ng)
    pos = rng.uniform(0, ng, (300, 3))
    first = solver.accelerations(pos, 1.0)
    snapshot = first.copy()
    second = solver.accelerations(rng.uniform(0, ng, (300, 3)), 1.0)
    assert first is not second
    np.testing.assert_array_equal(first, snapshot)  # untouched by reuse


def test_empty_and_validation():
    solver = PMSolver(8)
    acc = solver.accelerations(np.empty((0, 3)), 1.0)
    assert acc.shape == (0, 3)
    assert np.array_equal(solver.deposit(np.empty((0, 3))), np.zeros((8, 8, 8)))
    with pytest.raises(ValueError, match="ng must be"):
        PMSolver(1)
    with pytest.raises(ValueError, match="pm_backend"):
        SimulationConfig(pm_backend="magic")


# -- caching / configuration ---------------------------------------------------


def test_get_solver_caches_per_ng_and_workers():
    clear_solver_cache()
    try:
        a = get_solver(16, workers=2)
        assert get_solver(16, workers=2) is a
        assert get_solver(16, workers=1) is not a
        assert get_solver(8, workers=2) is not a
    finally:
        clear_solver_cache()


def test_resolve_fft_workers(monkeypatch):
    assert resolve_fft_workers(3) == 3
    assert resolve_fft_workers(0) == 1  # clamped
    monkeypatch.setenv("REPRO_PM_WORKERS", "5")
    assert resolve_fft_workers() == 5
    monkeypatch.delenv("REPRO_PM_WORKERS")
    assert resolve_fft_workers() >= 1


def test_worker_count_bit_identical(rng):
    ng = 16
    pos = rng.uniform(0, ng, (1000, 3))
    a1 = PMSolver(ng, workers=1).accelerations(pos, 1.0)
    a4 = PMSolver(ng, workers=4).accelerations(pos, 1.0)
    np.testing.assert_array_equal(a1, a4)


@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork with threads alive
def test_fork_from_side_thread_never_breaks_a_transform(rng):
    # pocketfft shuts its thread pool down at fork: without the fork
    # guard most of these force evaluations raise "Work item submitted
    # after shutdown"
    solver = PMSolver(32, workers=2)
    pos = rng.uniform(0, 32, (4096, 3))
    stop = threading.Event()
    forks = []

    def forker():
        while not stop.is_set():
            pid = os.fork()
            if pid == 0:
                os._exit(0)
            os.waitpid(pid, 0)
            forks.append(pid)

    side = threading.Thread(target=forker)
    side.start()
    calls = failures = 0
    try:
        while len(forks) < 50:
            calls += 1
            try:
                solver.accelerations(pos, 1.0)
            except RuntimeError:
                failures += 1
    finally:
        stop.set()
        side.join()
    assert failures == 0, f"{failures}/{calls} force evaluations broken by a fork"


# -- telemetry accounting ------------------------------------------------------


def test_fft_accounting_and_counters(rng):
    ng = 8
    pos = rng.uniform(0, ng, (200, 3))
    with obs.telemetry() as rec:
        solver = PMSolver(ng)
        solver.accelerations(pos, 1.0)
        assert solver.fft_count == 4  # the fusion claim: 4, not 6
        solver.accelerations(pos, 1.0)
        assert solver.fft_count == 8
        assert rec.counter("pm_force_evals_total").value == 2
        assert rec.counter("pm_fft_total").value == 8
        hist = rec.histogram("pm_fft_seconds")
        assert hist.count >= 2
        assert rec.histogram("pm_deposit_seconds").count == 2
