"""AoA estimation via the MUSIC pseudospectrum, from a signal block, a covariance or a stack of covariances."""

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
    """(1/N) * sum_i x_i x_i^H over the snapshot columns. Hermitian PSD.

    Finite samples can still overflow it; the non-finite entries that
    result are `hermitian_eig`'s to reject, so numpy does not warn of them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return (block.samples @ block.samples.conj().T) / block.num_snapshots


def hermitian_eig(mat):
    """Eigendecomposition of a Hermitian matrix, or of each in a (..., M, M) stack.

    Returns (eigenvalues ascending, eigenvectors as orthonormal columns),
    with the stack's leading axes. Rejects a stack with an entry of
    non-finite magnitude, and one in which any matrix's Hermitian defect
    exceeds `_HERMITIAN_TOL` relative to that matrix's largest entry
    magnitude, reporting the first such matrix.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    scale = np.maximum(1.0, np.max(np.abs(mat), axis=(-2, -1)))
    if not np.all(np.isfinite(scale)):
        raise ValueError("expected finite entries, got one of non-finite magnitude")
    defect = np.max(np.abs(mat - np.swapaxes(mat, -1, -2).conj()), axis=(-2, -1))
    bad = np.flatnonzero(defect > _HERMITIAN_TOL * scale)
    if bad.size:
        first = bad[0]
        raise NonHermitianError(
            f"Hermitian defect {defect.flat[first]:.3e} exceeds tolerance {_HERMITIAN_TOL * scale.flat[first]:.3e}"
        )
    return np.linalg.eigh(mat)


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


def _peak_mask(values):
    """Strict local maxima along the last axis; an end point needs only exceed its one neighbour."""
    v = values
    mask = np.zeros(v.shape, dtype=bool)
    if v.shape[-1] >= 2:
        mask[..., 0] = v[..., 0] > v[..., 1]
        mask[..., -1] = v[..., -1] > v[..., -2]
    if v.shape[-1] >= 3:
        mask[..., 1:-1] = (v[..., 1:-1] > v[..., :-2]) & (v[..., 1:-1] > v[..., 2:])
    return mask


def _find_peaks(grid, values):
    """(angle, height) of each `_peak_mask` peak, by descending height; ties go to the smaller angle."""
    peaks = [(float(grid[i]), float(values[i])) for i in np.flatnonzero(_peak_mask(values))]
    peaks.sort(key=lambda p: (-p[1], p[0]))
    return peaks


def _heights(signal_basis, manifold):
    """Pseudospectrum 1 / max(M - ||E_s^H a||^2, tiny) over the grid, for (..., M, k) signal bases E_s.

    A stack of one-column bases takes one vector-times-manifold product per
    basis, the product a single basis takes, so each row equals the height
    of its basis alone bit for bit.
    """
    proj = np.swapaxes(signal_basis.conj(), -1, -2) @ manifold
    denom = manifold.shape[0] - np.sum(proj.real**2 + proj.imag**2, axis=-2)
    return 1.0 / np.maximum(denom, np.finfo(float).tiny)


def _spectrum(mat, geom, grid_step, num_sources):
    """(grid, heights) of the MUSIC pseudospectrum 1 / ||E_n^H a||^2 of a covariance or of a (..., M, M) stack.

    E_n spans the M - num_sources eigenvectors with the smallest
    eigenvalues. The denominator is computed from the num_sources principal
    eigenvectors E_s as M - ||E_s^H a||^2 (`_heights`), the same quantity
    (``||a||^2 = M``) at num_sources x M x grid cost, to rounding of order
    1e-15 * M. When the num_sources largest eigenvalues do not separate
    from the rest (gap at most `_HERMITIAN_TOL` times the largest
    eigenvalue, as for a zero or an identity matrix) the signal subspace
    is undetermined: every height is 1 / (M - num_sources), which has no
    strict local maximum. `grid` is the cached, read-only grid of `_manifold`.
    """
    m = geom.num_elements
    if num_sources >= m:
        raise ValueError(f"num_sources ({num_sources}) must be < num_elements ({m})")
    if num_sources < 1:
        raise ValueError("num_sources must be >= 1")
    vals, vecs = hermitian_eig(mat)
    if vals.shape[-1] != m:
        raise ValueError(f"covariance is {vals.shape[-1]} x {vals.shape[-1]}, the array has {m} elements")
    grid, manifold = _manifold(geom, grid_step)
    values = _heights(vecs[..., m - num_sources :], manifold)
    gap = vals[..., m - num_sources] - vals[..., m - num_sources - 1]
    values[gap <= _HERMITIAN_TOL * np.maximum(vals[..., -1], 0.0)] = 1.0 / (m - num_sources)
    return grid, values


def pseudospectrum(mat, geom, grid_step=DEFAULT_GRID_STEP, num_sources=1):
    """MUSIC pseudospectrum of one covariance `mat` over the angle grid (`_spectrum`), with its peaks."""
    if np.ndim(mat) != 2:
        raise ValueError(f"expected one covariance matrix, got shape {np.shape(mat)}")
    grid, values = _spectrum(mat, geom, grid_step, num_sources)
    return MusicSpectrum(grid=grid, values=values, peaks=_find_peaks(grid, values))


def peak_angles(spectrum, num_sources):
    """Angles of the num_sources highest peaks of `spectrum`, in descending height.

    Raises DegenerateSpectrumError when it has fewer peaks than that.
    """
    if len(spectrum.peaks) < num_sources:
        raise DegenerateSpectrumError(
            f"found {len(spectrum.peaks)} local maxima, need {num_sources}"
        )
    return [angle for angle, _ in spectrum.peaks[:num_sources]]


def estimate_aoa_from_covariance(mat, geom, num_sources=1, grid_step=DEFAULT_GRID_STEP):
    """The num_sources highest pseudospectrum peaks of the covariance `mat`, in descending height."""
    return peak_angles(pseudospectrum(mat, geom, grid_step, num_sources), num_sources)


def one_source_estimates(covs, geom, grid_step=DEFAULT_GRID_STEP):
    """One-source MUSIC estimates of a covariance or a (..., M, M) stack, shape (...).

    The highest `_peak_mask` peak of each `_spectrum` row, the first on a
    tie (the smaller angle). Each entry equals
    `estimate_aoa_from_covariance(cov, geom, 1, grid_step)[0]`, and is nan
    where that raises DegenerateSpectrumError: the spectrum has no strict
    local maximum, as when its signal subspace is undetermined.
    """
    grid, values = _spectrum(covs, geom, grid_step, 1)
    peaks = _peak_mask(values)
    best = np.argmax(np.where(peaks, values, -np.inf), axis=-1)
    return np.where(np.any(peaks, axis=-1), grid[best], np.nan)


def estimate_aoa(block, geom, num_sources=1, grid_step=DEFAULT_GRID_STEP):
    """`estimate_aoa_from_covariance` of the block's sample covariance."""
    return estimate_aoa_from_covariance(sample_covariance(block), geom, num_sources, grid_step)
