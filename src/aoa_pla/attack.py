"""Closed-form impersonation MSE and the least-squares attacker optimum.

The MSE between the legitimate and adversarial signals at Bob is

    zeta = ||a - A q||^2 + 1/snr_legit + 1/snr_attacker
         = M - a^H A q - q^H A^H a + q^H G q + 1/snr_legit + 1/snr_attacker

with a the legitimate steering vector, A the stacked attacker steering
vectors, q the complex precoders and G = A^H A. The deterministic part
delta = ||a - A q||^2 (everything except the noise floor) can vanish only
when a lies in the span of the attacker's steering vectors: one antenna on
a sine alias of the legitimate angle, or L >= M antennas whose steering
vectors span C^M. `optimal_precoders` gives the least-squares q, its delta
and the rank of A.

`mse_delta` evaluates delta in the direct form, batched over sweep
points, and `gram_matrix` forms G as the product A^H A of the same array
response. The paper's Dirichlet-kernel closed forms (G entry by entry,
and delta of one antenna) are test oracles in `tests/oracles.py`, which
the tests check both against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arrays import _check_trials, steering_vector

__all__ = [
    "MseBreakdown",
    "mse_delta",
    "mse_closed_form",
    "optimal_precoders",
    "monte_carlo_mse",
]


@dataclass(frozen=True)
class MseBreakdown:
    """Total MSE split into its deterministic part and the noise floor.

    alpha = sin(theta) - sin(theta_hat) is populated only for a
    single-antenna attacker.
    """

    zeta: float
    delta: float
    noise_floor: float
    alpha: float | None = None


def gram_matrix(geom, angles):
    """G = A^H A for the stacked steering vectors of `angles`: g_lz = a(theta_l)^H a(theta_z).

    One einsum contraction over the elements, which calls no BLAS, so no
    byte depends on the thread count. The tests check it against the
    paper's entry-wise Dirichlet form.
    """
    a = steering_vector(geom, list(angles))
    if len(a) < 1:
        raise ValueError("need at least one angle")
    return np.einsum("lm,zm->lz", a.conj(), a)


def _residuals(geom, theta, angles, precoders):
    """a_m(theta) - sum_l q_l a_m(theta_hat_l), of the sweep shape S, for each element m in turn.

    Shapes are those of `mse_delta`; a 0-d `angles` is one antenna shared
    by every precoder. The sum over the L antennas is one einsum
    contraction per element, which forms no array of the products and
    calls no BLAS, so no byte depends on the thread count. Besides
    `arrays.steering_vector`, this is the one place that writes the phase
    law.
    """
    s = np.sin(np.asarray(theta, dtype=float))
    sines = np.sin(np.atleast_1d(np.asarray(angles, dtype=float)))
    q = np.asarray(precoders, dtype=complex)
    kappa = geom.wavenumber_scale
    for m in range(geom.num_elements):
        yield np.exp(-1j * kappa * m * s) - np.einsum("...l,...l->...", q, np.exp(-1j * kappa * m * sines))


def mse_delta(geom, theta, angles, precoders):
    """delta = ||a(theta) - sum_l q_l a(theta_hat_l)||^2, batched over sweep points.

    `theta` has shape S; `angles` and `precoders` have shape S + (L,), or
    any shape whose leading axes broadcast against S, e.g. (L,) when one
    attacker is shared by the whole sweep. Returns an array of the
    broadcast shape S. It sums over the M elements one at a time, each
    element's attacker sum one einsum contraction over L, so memory stays
    at a few arrays of the sweep's size.
    """
    return sum(resid.real**2 + resid.imag**2 for resid in _residuals(geom, theta, angles, precoders))


def mse_closed_form(geom, theta, attacker, noise):
    """MSE of one attacker configuration against the legitimate angle theta."""
    delta = float(mse_delta(geom, theta, attacker.angles, attacker.precoders))
    alpha = None
    if attacker.num_antennas == 1:
        alpha = math.sin(theta) - math.sin(attacker.angles[0])
    floor = noise.floor
    return MseBreakdown(zeta=delta + floor, delta=delta, noise_floor=floor, alpha=alpha)


class LeastSquaresOptimum(NamedTuple):
    """`optimal_precoders`' result: q*, delta* = delta(q*) and the numerical rank of A."""

    precoders: np.ndarray
    delta: np.ndarray
    rank: np.ndarray


def optimal_precoders(geom, theta, angles):
    """Least-squares precoders q* = A^+ a(theta) of attacker antennas at `angles`, batched over sweep points.

    A = [a(theta_hat_1) ... a(theta_hat_L)], so q* is the minimum-norm
    minimiser of delta and delta* = delta(q*) is the least MSE part these
    antennas can reach. `theta` has shape S and `angles` shape S + (L,),
    leading axes broadcasting as in `mse_delta`. The pseudo-inverse and
    the rank drop the same singular values of A: those at or below
    max(M, L) * eps times the largest, the cutoff of
    `numpy.linalg.matrix_rank`.
    """
    angles = np.asarray(angles, dtype=float)
    u, s, vh = np.linalg.svd(np.swapaxes(steering_vector(geom, angles), -1, -2), full_matrices=False)
    keep = s > s[..., :1] * max(geom.num_elements, angles.shape[-1]) * np.finfo(float).eps
    coeff = np.einsum("...mk,...m->...k", u.conj(), steering_vector(geom, theta))
    q = np.einsum("...kl,...k->...l", vh.conj(), np.divide(coeff, s, out=np.zeros_like(coeff), where=keep))
    return LeastSquaresOptimum(q, mse_delta(geom, theta, angles, q), np.count_nonzero(keep, axis=-1))


# trials drawn at a time by `monte_carlo_mse`, into reused (this, 2M) and (2M + 1, this) blocks: 133 kB at M = 16
_DRAW_CHUNK = 256


def monte_carlo_mse(geom, theta, angles, precoders, noise, trials, seed):
    """Empirical MSE over single-snapshot noise realizations, batched over sweep points like `mse_delta`.

    Each trial is ||d + w_t||^2 with d = a(theta) - A q. The links' noises
    are independent circular Gaussians, so n - n_hat is one circular
    Gaussian w of per-element variance noise.floor / M, drawn as a real
    (trials, 2M) array shared by every point (common random numbers): each
    point's mean and standard error keep their distribution, but the
    errors of different points are correlated. A trial's value is
    ||d||^2 + g.z_t with z_t = [w_t, ||w_t||^2] and g = [2 d, 1], so the
    sample mean and variance of every point follow from the draw's first
    two moments: the mean zbar of the z_t and their centred co-moment
    C = sum_t (z_t - zbar)(z_t - zbar)^T, of size (2M + 1)^2 whatever the
    number of points. Both come from sums of y_t = z_t - K, with K =
    [0, ..., 0, noise.floor] the draw's exact expectation, so no chunk is
    centred (Chan, Golub & LeVeque's shifted data, 1983):
    C = sum_t y_t y_t^T - (sum_t y_t)(sum_t y_t)^T / T and
    zbar = sum_t y_t / T + K. Per chunk of at most `_DRAW_CHUNK` trials,
    y_t y_t^T adds up in numpy's einsum loop rather than BLAS, whose
    two-thread calls on blocks this small stall for milliseconds when its
    worker shares a core with the caller. Each point then takes
    ||d||^2 + 2 d.wbar + sbar (the parts of zbar) as its mean and
    g^T C g / (T - 1) as its sample variance, the same statistics of the
    same trials as the direct form. Returns (mean, standard error) of shape S.
    """
    _check_trials(trials, 2, "for a standard error")
    resid = np.stack(list(_residuals(geom, theta, angles, precoders)), axis=-1)
    d = np.stack([resid.real, resid.imag], axis=-1).reshape(-1, 2 * geom.num_elements)
    n = d.shape[1]
    rng = np.random.default_rng(seed)
    scale = math.sqrt(noise.floor / geom.num_elements / 2.0)
    block = np.empty((min(trials, _DRAW_CHUNK), n))
    y = np.empty((n + 1, len(block)))
    # sums of y_t and y_t y_t^T over the trials drawn so far
    total, co = np.zeros(n + 1), np.zeros((n + 1, n + 1))
    for start in range(0, trials, len(block)):
        w = block[: trials - start]
        rng.standard_normal(out=w)
        w *= scale
        yc = y[:, : len(w)]
        yc[:n] = w.T
        np.einsum("tk,tk->t", w, w, out=yc[n])
        yc[n] -= noise.floor
        total += yc.sum(axis=1)
        co += np.einsum("it,jt->ij", yc, yc)
    co -= np.outer(total, total) / trials
    zbar = total / trials
    zbar[n] += noise.floor
    # g^T C g = 4 d.(C_ww d + C_ws) + C_ss, without forming g
    spread = np.einsum("pk,kl->pl", d, co[:n, :n])
    spread += co[:n, n]
    var = 4.0 * np.einsum("pk,pk->p", d, spread) + co[n, n]
    # a sum of squares, which rounding may leave just below 0 when it is 0
    np.maximum(var, 0.0, out=var)
    mean = np.einsum("pk,pk->p", d, d) + 2.0 * np.einsum("pk,k->p", d, zbar[:n]) + zbar[n]
    stderr = np.sqrt(var / (trials - 1) / trials)
    return mean.reshape(resid.shape[:-1])[()], stderr.reshape(resid.shape[:-1])[()]
