"""Shared fixtures: small clustered particle sets and a cached mini-sim run."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro import obs
from repro.sim import HACCSimulation, SimulationConfig

# Example counts for property tests that do not pin their own: "tier1" by
# default, "full" in CI via ``pytest --hypothesis-profile=full``.
settings.register_profile("tier1", max_examples=15)
settings.register_profile("full", max_examples=60)
settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def _reset_telemetry():
    """Keep the process-wide recorder a no-op unless a test enables it."""
    yield
    obs.set_recorder(obs.NullRecorder())


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20150715)


@pytest.fixture(scope="session")
def blob_points(rng):
    """Clustered synthetic point set: five tight blobs + uniform background
    in a (20 Mpc/h)^3 periodic box."""
    centers = np.asarray(
        [[5, 5, 5], [15, 15, 15], [5, 15, 10], [10, 5, 15], [16, 4, 6]], dtype=float
    )
    blobs = [rng.normal(c, 0.3, (250, 3)) for c in centers]
    background = rng.uniform(0, 20, (1500, 3))
    pos = np.mod(np.concatenate([*blobs, background]), 20.0)
    return pos


@pytest.fixture(scope="session")
def plummer_halo(rng):
    """A single Plummer-profile halo of 1200 particles centered at 10."""
    n = 1200
    u = rng.uniform(0.001, 0.999, n)
    r = 1.0 / np.sqrt(u ** (-2.0 / 3.0) - 1.0)
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return r[:, None] * v + 10.0


@pytest.fixture(scope="session")
def mini_sim():
    """A completed 24^3 mini-HACC run to z=0 (shared across tests)."""
    cfg = SimulationConfig(
        np_per_dim=24, box=40.0, z_initial=30.0, z_final=0.0, n_steps=24, ng=48
    )
    sim = HACCSimulation(cfg)
    sim.run()
    return sim
