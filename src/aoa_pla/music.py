"""AoA estimation via the MUSIC pseudospectrum, from a signal block or a covariance."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .arrays import steering_vector

DEFAULT_GRID_STEP = 0.001
_HERMITIAN_TOL = 1e-12


class DegenerateSpectrumError(RuntimeError):
    """Raised when the pseudospectrum has fewer local maxima than sources."""


class NonHermitianError(ValueError):
    """Input matrix violates the Hermitian contract."""


def sample_covariance(block):
    """(1/N) * sum_i x_i x_i^H over the snapshot columns. Hermitian PSD."""
    return (block.samples @ block.samples.conj().T) / block.num_snapshots


def hermitian_eig(mat):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvectors as orthonormal columns).
    Rejects inputs whose Hermitian defect exceeds `_HERMITIAN_TOL` relative
    to the largest entry magnitude.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    scale = max(1.0, float(np.max(np.abs(mat))))
    defect = float(np.max(np.abs(mat - mat.conj().T)))
    if defect > _HERMITIAN_TOL * scale:
        raise NonHermitianError(f"Hermitian defect {defect:.3e} exceeds tolerance {_HERMITIAN_TOL * scale:.3e}")
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise RuntimeError(f"eigendecomposition did not converge: {exc}") from exc
    return eigenvalues, eigenvectors


@dataclass(frozen=True)
class MusicSpectrum:
    """Angle grid, pseudospectrum heights, and detected peaks.

    peaks is a list of (angle, height) sorted by descending height; ties
    break toward the smaller angle.
    """

    grid: np.ndarray
    values: np.ndarray
    peaks: list


def _angle_grid(step, half_width):
    """Multiples of `step` covering [-half_width, half_width].

    Anchoring at zero keeps round decimal angles exactly representable on
    the grid.
    """
    if not (step > 0 and math.isfinite(step)):
        raise ValueError(f"grid_step must be positive and finite, got {step!r}")
    kmax = int(math.floor(half_width / step))
    return step * np.arange(-kmax, kmax + 1)


@functools.lru_cache(maxsize=8)
def _manifold(geom, grid_step):
    """Angle grid and the M x grid steering manifold, built once per (geometry, step).

    Column g is `steering_vector(geom, grid[g])` bit for bit. `ArrayGeometry`
    hashes and compares by (num_elements, spacing), so the key is
    (M, spacing, grid_step). Both arrays are shared, so they are read-only.
    """
    grid = _angle_grid(grid_step, math.pi / 2)
    manifold = np.ascontiguousarray(steering_vector(geom, grid).T)
    grid.setflags(write=False)
    manifold.setflags(write=False)
    return grid, manifold


def _find_peaks(grid, values):
    v = values
    mask = np.zeros(v.shape, dtype=bool)
    if len(v) >= 2:
        mask[0] = v[0] > v[1]
        mask[-1] = v[-1] > v[-2]
    if len(v) >= 3:
        mask[1:-1] = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
    idx = np.flatnonzero(mask)
    peaks = [(float(grid[i]), float(v[i])) for i in idx]
    peaks.sort(key=lambda p: (-p[1], p[0]))
    return peaks


def pseudospectrum(mat, geom, grid_step=DEFAULT_GRID_STEP, num_sources=1):
    """MUSIC pseudospectrum 1 / ||E_n^H a(theta)||^2 over the angle grid.

    E_n spans the M - num_sources eigenvectors with the smallest
    eigenvalues of the covariance `mat`. The denominator is computed from
    the num_sources principal eigenvectors E_s as M - ||E_s^H a||^2, the
    same quantity (``||a||^2 = M``) at num_sources x M x grid cost. It
    carries rounding of order 1e-15 * M, so heights near a noiseless
    peak keep less relative precision than the noise-subspace sum, and a
    denominator at or below zero is clamped. When the num_sources
    largest eigenvalues do not separate from the rest (gap at most
    `_HERMITIAN_TOL` times the largest eigenvalue, as for a zero or an
    identity matrix) the signal subspace is undetermined: every height is
    1 / (M - num_sources) and there is no peak. The returned `grid` is the
    cached, read-only grid of `_manifold`.
    """
    m = geom.num_elements
    if num_sources >= m:
        raise ValueError(f"num_sources ({num_sources}) must be < num_elements ({m})")
    if num_sources < 1:
        raise ValueError("num_sources must be >= 1")
    vals, vecs = hermitian_eig(mat)
    if vals.size != m:
        raise ValueError(f"covariance is {vals.size} x {vals.size}, the array has {m} elements")
    grid, manifold = _manifold(geom, grid_step)
    if vals[m - num_sources] - vals[m - num_sources - 1] <= _HERMITIAN_TOL * max(vals[-1], 0.0):
        values = np.full(grid.shape, 1.0 / (m - num_sources))
    else:
        proj = vecs[:, m - num_sources :].conj().T @ manifold
        denom = m - np.sum(proj.real**2 + proj.imag**2, axis=0)
        values = 1.0 / np.maximum(denom, np.finfo(float).tiny)
    return MusicSpectrum(grid=grid, values=values, peaks=_find_peaks(grid, values))


def estimate_aoa_from_covariance(mat, geom, num_sources=1, grid_step=DEFAULT_GRID_STEP):
    """The num_sources highest pseudospectrum peaks of the covariance `mat`, in descending height."""
    spectrum = pseudospectrum(mat, geom, grid_step, num_sources)
    if len(spectrum.peaks) < num_sources:
        raise DegenerateSpectrumError(
            f"found {len(spectrum.peaks)} local maxima, need {num_sources}"
        )
    return [angle for angle, _ in spectrum.peaks[:num_sources]]


def estimate_aoa(block, geom, num_sources=1, grid_step=DEFAULT_GRID_STEP):
    """`estimate_aoa_from_covariance` of the block's sample covariance."""
    return estimate_aoa_from_covariance(sample_covariance(block), geom, num_sources, grid_step)
