"""Fused spectral particle-mesh force engine (the PM hot path).

The function-at-a-time pipeline in :mod:`repro.sim.pm` pays 6 full-mesh
FFTs per force evaluation — ``solve_poisson`` does rfftn+irfftn to
materialize φ in real space, then ``gradient_spectral`` re-FFTs φ and
runs 3 inverse transforms — plus an 8×``np.add.at`` CIC deposit, the
slowest possible scatter in numpy.  :class:`PMSolver` fuses the whole
evaluation:

* **4 FFTs, never materializing φ** — Poisson (``-1/k²``) and gradient
  (``i·k``) are applied together in k-space to the single forward
  transform of δ, so the acceleration mesh for each axis comes straight
  out of one inverse transform:  ``a_k = i k · factor · δ_k / k²``.
* **bincount deposit** — the CIC scatter accumulates the 8 corner
  contributions through flattened-index ``np.bincount``, which is both
  deterministic (fixed summation order) and far faster than
  ``np.add.at``.
* **one CIC geometry per evaluation** — corner indices and weights are
  computed once and shared by the scatter (deposit) *and* the gather
  (force interpolation), through preallocated scratch buffers that are
  reused across steps.
* **threaded transforms** — ``scipy.fft`` with ``workers=``.
  pocketfft's threading parallelizes over independent 1-D transform
  lines, so results are bit-identical for any worker count.  pocketfft
  also shuts its thread pool down whenever the process forks, which
  kills a transform running on another thread; every transform
  therefore holds a module lock that each fork takes first.

The old free functions (``cic_deposit`` / ``solve_poisson`` /
``gradient_spectral`` / ``cic_interpolate``) are kept in
:mod:`repro.sim.pm` as cross-validation references, the same precedent
as ``potential_reference`` for the center-finder kernels.

Purity contract: no wall-clock reads in this module (rule RPR003 covers
it); timing goes through :func:`repro.obs.timed`, whose clock lives in
``repro.obs`` where it belongs.
"""

from __future__ import annotations

import os
import threading

import numpy as np
from scipy import fft as _sp_fft

from ..check.sanitize import guard_kernel
from ..obs import get_recorder, timed

__all__ = ["PMSolver", "get_solver", "clear_solver_cache", "resolve_fft_workers"]

#: Cap on auto-detected FFT threads: beyond this the per-transform lines
#: are too short for threading to pay at mini-HACC mesh sizes.
_MAX_AUTO_WORKERS = 8


def resolve_fft_workers(workers: int | None = None) -> int:
    """Resolve the FFT thread count.

    Explicit ``workers`` wins; else the ``REPRO_PM_WORKERS`` environment
    variable; else the CPU count capped at ``8``.  Always ≥ 1.  The
    transforms are bit-identical for any value, so this is purely a
    throughput knob.
    """
    if workers is None:
        env = os.environ.get("REPRO_PM_WORKERS", "").strip()
        if env:
            workers = int(env)
        else:
            workers = min(os.cpu_count() or 1, _MAX_AUTO_WORKERS)
    return max(int(workers), 1)


#: Held around every transform and taken before every fork, so no fork
#: (from the listener, the in-situ pipeline, ...) lands mid-transform.
_FFT_LOCK = threading.Lock()


def _renew_fft_lock() -> None:
    global _FFT_LOCK
    _FFT_LOCK = threading.Lock()


os.register_at_fork(
    before=lambda: _FFT_LOCK.acquire(),
    after_in_parent=lambda: _FFT_LOCK.release(),
    after_in_child=_renew_fft_lock,
)


def _rfftn(x: np.ndarray, workers: int) -> np.ndarray:
    with _FFT_LOCK:
        return _sp_fft.rfftn(x, workers=workers)


def _irfftn(xk: np.ndarray, shape: tuple[int, ...], workers: int) -> np.ndarray:
    with _FFT_LOCK:
        return _sp_fft.irfftn(xk, s=shape, workers=workers)


class PMSolver:
    """Stateful fused spectral PM solver for one mesh size ``ng``.

    Precomputes the k-grids and the combined Poisson+gradient kernels
    ``i·k_axis / k²`` once per ``ng`` and keeps per-particle-count
    scratch buffers alive across calls, so a steady-state force
    evaluation allocates only the FFT work arrays and the returned
    acceleration array.

    Parameters
    ----------
    ng:
        Mesh size per dimension.
    workers:
        FFT threads (see :func:`resolve_fft_workers`).

    Notes
    -----
    Arrays returned by :meth:`deposit` and :meth:`accelerations` are
    freshly allocated (safe to hold across calls); only internal scratch
    is reused.
    """

    def __init__(self, ng: int, workers: int | None = None):
        if ng < 2:
            raise ValueError("ng must be >= 2")
        self.ng = int(ng)
        self.workers = resolve_fft_workers(workers)
        self.fft_count = 0  # lifetime transforms (forward + inverse)

        k1 = 2.0 * np.pi * np.fft.fftfreq(self.ng)
        kz = 2.0 * np.pi * np.fft.rfftfreq(self.ng)
        kx = k1[:, None, None]
        ky = k1[None, :, None]
        kzb = kz[None, None, :]
        k2 = kx**2 + ky**2 + kzb**2
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_k2 = np.where(k2 > 0, 1.0 / k2, 0.0)
        #: Green's-function × gradient kernels, one per axis:
        #: ``a_k(axis) = factor * _grad_kernels[axis] * δ_k`` gives the
        #: acceleration mesh ``-∇φ`` for ``∇²φ = factor·δ`` directly.
        self._grad_kernels = tuple(
            (1j * k * inv_k2).astype(np.complex128) for k in (kx, ky, kzb)
        )
        self._inv_k2 = inv_k2
        # per-particle-count scratch (rebuilt only when n changes)
        self._scratch_n = -1
        self._flat: np.ndarray | None = None  # (8, n) corner flat indices
        self._w8: np.ndarray | None = None  # (8, n) corner weights
        self._gather: np.ndarray | None = None  # (8, n) gather landing pad

    # -- CIC geometry (shared by scatter and gather) --------------------------

    def _ensure_scratch(self, n: int) -> None:
        if n != self._scratch_n:
            self._flat = np.empty((8, n), dtype=np.intp)
            self._w8 = np.empty((8, n), dtype=np.float64)
            self._gather = np.empty((8, n), dtype=np.float64)
            self._scratch_n = n

    def _geometry(self, pos_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Corner flat indices and weights for CIC scatter *and* gather.

        Computed once per force evaluation into the reusable scratch
        buffers; corner order matches the reference implementation's
        ``(a, b, c) ∈ {0,1}³`` loop nest.
        """
        ng = self.ng
        pos = np.mod(np.asarray(pos_grid, dtype=np.float64), ng)
        n = len(pos)
        self._ensure_scratch(n)
        flat = self._flat
        w8 = self._w8
        assert flat is not None and w8 is not None

        i0 = np.floor(pos).astype(np.intp)
        frac = pos - i0
        i0 %= ng
        i1 = i0 + 1
        i1[i1 == ng] = 0

        wx = (1.0 - frac[:, 0], frac[:, 0])
        wy = (1.0 - frac[:, 1], frac[:, 1])
        wz = (1.0 - frac[:, 2], frac[:, 2])
        ix = (i0[:, 0], i1[:, 0])
        iy = (i0[:, 1], i1[:, 1])
        iz = (i0[:, 2], i1[:, 2])

        row = 0
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    np.multiply(wx[a], wy[b], out=w8[row])
                    w8[row] *= wz[c]
                    np.multiply(ix[a], ng, out=flat[row])
                    flat[row] += iy[b]
                    flat[row] *= ng
                    flat[row] += iz[c]
                    row += 1
        return flat, w8

    def _deposit_from_geometry(
        self, flat: np.ndarray, w8: np.ndarray, weights: np.ndarray | None
    ) -> np.ndarray:
        """Flattened-index ``bincount`` CIC accumulation → overdensity δ."""
        ng = self.ng
        if weights is None:
            wflat = w8.ravel()
            total = float(w8.shape[1])
        else:
            w = np.asarray(weights, dtype=np.float64)
            wflat = (w8 * w).ravel()
            total = float(w.sum())
        rho = np.bincount(flat.ravel(), weights=wflat, minlength=ng**3)
        rho = rho.reshape(ng, ng, ng)
        mean = total / ng**3
        if mean > 0:
            rho /= mean
        rho -= 1.0
        return rho

    # -- public kernels --------------------------------------------------------

    @guard_kernel(name="PMSolver.deposit")
    def deposit(
        self, pos_grid: np.ndarray, weights: np.ndarray | None = None
    ) -> np.ndarray:
        """CIC overdensity field (``bincount`` path).

        Equivalent to :func:`repro.sim.pm.cic_deposit` up to float
        summation order (agreement to ~1e-13 relative).
        """
        if len(np.atleast_2d(pos_grid)) == 0:
            return np.zeros((self.ng, self.ng, self.ng), dtype=np.float64)
        with timed("pm_deposit_seconds"):
            flat, w8 = self._geometry(np.atleast_2d(pos_grid))
            return self._deposit_from_geometry(flat, w8, weights)

    def potential(self, delta: np.ndarray, factor: float = 1.0) -> np.ndarray:
        """Real-space φ with ``∇²φ = factor·δ`` (cross-validation path).

        The fused force path never materializes φ; this method exists so
        tests can compare against :func:`repro.sim.pm.solve_poisson`.
        """
        with timed("pm_fft_seconds"):
            dk = _rfftn(np.asarray(delta, dtype=np.float64), self.workers)
            phik = -factor * self._inv_k2 * dk
            out = _irfftn(phik, delta.shape, self.workers)
        self._count_ffts(2)
        return out

    def inverse_gradient(self, delta: np.ndarray, factor: float = 1.0) -> np.ndarray:
        """Mesh field ``F`` with ``F_k = factor · i k δ_k / k²``.

        This is simultaneously the acceleration mesh ``-∇φ`` for
        ``∇²φ = factor·δ`` (grid wavenumbers) and — scaled by the cell
        size — the Zel'dovich displacement field ``ψ`` solving
        ``δ = -∇·ψ``.  4 transforms, φ never materialized.
        """
        delta = np.asarray(delta, dtype=np.float64)
        ng = self.ng
        with timed("pm_fft_seconds"):
            dk = _rfftn(delta, self.workers)
            out = np.empty((3, ng, ng, ng), dtype=np.float64)
            for axis, kern in enumerate(self._grad_kernels):
                out[axis] = _irfftn(factor * kern * dk, delta.shape, self.workers)
        self._count_ffts(4)
        return out

    @guard_kernel(name="PMSolver.accelerations")
    def accelerations(
        self,
        pos_grid: np.ndarray,
        factor: float,
        weights: np.ndarray | None = None,
    ) -> np.ndarray:
        """One fused PM force evaluation: deposit → k-space → gather.

        Returns per-particle accelerations ``-∇φ`` in grid units for
        ``∇²φ = factor·δ``; numerically equivalent to the reference
        ``cic_deposit → solve_poisson → gradient_spectral →
        cic_interpolate`` chain (rtol ≲ 1e-12) at 4 FFTs instead of 6
        and a single CIC geometry shared by scatter and gather.
        """
        pos = np.atleast_2d(np.asarray(pos_grid, dtype=np.float64))
        n = len(pos)
        ng = self.ng
        if n == 0:
            return np.zeros((0, 3), dtype=np.float64)

        # one CIC geometry for both the scatter and the gather
        flat, w8 = self._geometry(pos)
        with timed("pm_deposit_seconds"):
            delta = self._deposit_from_geometry(flat, w8, weights)

        with timed("pm_fft_seconds"):
            dk = _rfftn(delta, self.workers)

        acc = np.empty((n, 3), dtype=np.float64)
        gather = self._gather
        assert gather is not None
        for axis, kern in enumerate(self._grad_kernels):
            with timed("pm_fft_seconds"):
                mesh = _irfftn(factor * kern * dk, delta.shape, self.workers)
            with timed("pm_gather_seconds"):
                np.take(mesh.reshape(ng**3), flat, out=gather)
                np.einsum("cn,cn->n", w8, gather, out=acc[:, axis])
        self._count_ffts(4)
        rec = get_recorder()
        rec.counter("pm_force_evals_total").inc()
        return acc

    # -- accounting ------------------------------------------------------------

    def _count_ffts(self, k: int) -> None:
        self.fft_count += k
        get_recorder().counter("pm_fft_total").inc(k)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PMSolver ng={self.ng} workers={self.workers} ffts={self.fft_count}>"


# -- per-process solver cache (one engine per (ng, workers)) -------------------

_SOLVER_CACHE: dict[tuple[int, int], PMSolver] = {}


def get_solver(ng: int, workers: int | None = None) -> PMSolver:
    """The shared :class:`PMSolver` for ``(ng, workers)``.

    Caching the solver preserves the precomputed k-grids / Green's
    functions and the CIC scratch buffers across force evaluations and
    across callers (simulation loop, Zel'dovich setup, free-function
    API).
    """
    key = (int(ng), resolve_fft_workers(workers))
    solver = _SOLVER_CACHE.get(key)
    if solver is None:
        solver = PMSolver(key[0], workers=key[1])
        _SOLVER_CACHE[key] = solver
    return solver


def clear_solver_cache() -> None:
    """Drop all cached solvers (test isolation / memory reclaim)."""
    _SOLVER_CACHE.clear()
