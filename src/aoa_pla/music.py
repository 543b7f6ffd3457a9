"""AoA estimation via the MUSIC noise-subspace pseudospectrum."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .arrays import steering_vector

DEFAULT_GRID_STEP = 0.001


class DegenerateSpectrumError(RuntimeError):
    """Raised when the pseudospectrum has fewer local maxima than sources."""


class NonHermitianError(ValueError):
    """Input matrix violates the Hermitian contract."""


def sample_covariance(block):
    """(1/N) * sum_i x_i x_i^H over the snapshot columns. Hermitian PSD."""
    x = block.samples
    n = x.shape[1]
    if n < 1:
        raise ValueError("signal block has no snapshots")
    return (x @ x.conj().T) / n


def hermitian_eig(mat, tol=1e-12):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvectors as orthonormal columns).
    Rejects inputs whose Hermitian defect exceeds `tol` relative to the
    largest entry magnitude.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    scale = max(1.0, float(np.max(np.abs(mat))))
    defect = float(np.max(np.abs(mat - mat.conj().T)))
    if defect > tol * scale:
        raise NonHermitianError(f"Hermitian defect {defect:.3e} exceeds tolerance {tol * scale:.3e}")
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

    `ArrayGeometry` hashes and compares by (num_elements, spacing), so the
    key is (M, spacing, grid_step). Both arrays are shared by every later
    call with the same key, so they are returned read-only.
    """
    grid = _angle_grid(grid_step, math.pi / 2)
    m = np.arange(geom.num_elements)
    manifold = np.exp(-1j * geom.wavenumber_scale * np.outer(m, np.sin(grid)))
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
    eigenvalues of the covariance `mat`. The returned `grid` is the cached,
    read-only grid of `_manifold`.
    """
    if num_sources >= geom.num_elements:
        raise ValueError(
            f"num_sources ({num_sources}) must be < num_elements ({geom.num_elements})"
        )
    if num_sources < 1:
        raise ValueError("num_sources must be >= 1")
    _, vecs = hermitian_eig(mat)
    noise_basis = vecs[:, : geom.num_elements - num_sources]
    grid, manifold = _manifold(geom, grid_step)
    proj = noise_basis.conj().T @ manifold
    denom = np.sum(np.abs(proj) ** 2, axis=0)
    # keep heights finite when the noise subspace is exactly orthogonal
    values = 1.0 / np.maximum(denom, np.finfo(float).tiny)
    return MusicSpectrum(grid=grid, values=values, peaks=_find_peaks(grid, values))


def estimate_aoa(block, geom, num_sources=1, grid_step=DEFAULT_GRID_STEP):
    """The num_sources highest pseudospectrum peaks, in descending height."""
    spectrum = pseudospectrum(sample_covariance(block), geom, grid_step, num_sources)
    if len(spectrum.peaks) < num_sources:
        raise DegenerateSpectrumError(
            f"found {len(spectrum.peaks)} local maxima, need {num_sources}"
        )
    return [angle for angle, _ in spectrum.peaks[:num_sources]]
