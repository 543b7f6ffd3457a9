"""Closed-form impersonation MSE and attacker-precoder optimization.

The MSE between the legitimate and adversarial signals at Bob is

    zeta = ||a - A q||^2 + 1/snr_legit + 1/snr_attacker
         = M - a^H A q - q^H A^H a + q^H G q + 1/snr_legit + 1/snr_attacker

with a the legitimate steering vector, A the stacked attacker steering
vectors, q the complex precoders and G = A^H A. The deterministic part
delta = ||a - A q||^2 (everything except the noise floor) vanishes only
when all attacker angles alias the legitimate one (sin equality) and the
precoders sum to 1.

`mse_delta` evaluates delta in the direct form, batched over sweep
points. The paper's expanded form (`gram_matrix`,
`two_antenna_coefficients`, `dirichlet_ratio`) is kept as closed forms
that the tests check the direct form against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .arrays import TWO_PI, _noise_block, attack_wavefront, steering_vector

__all__ = [
    "MseBreakdown",
    "AggregatePrecoder",
    "OptimalSinglePrecoder",
    "TwoAntennaCoefficients",
    "OptimumCheck",
    "dirichlet_ratio",
    "mse_delta",
    "mse_closed_form",
    "mse_delta_single",
    "mse_gradient_single",
    "optimal_single_precoder",
    "two_antenna_coefficients",
    "gram_matrix",
    "aggregate_precoder",
    "multi_optimum_condition",
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


@dataclass(frozen=True)
class AggregatePrecoder:
    """Real and imaginary parts of the precoder sum."""

    u: float
    v: float


@dataclass(frozen=True)
class OptimalSinglePrecoder:
    beta_star: float
    phi_star: float
    branch: int  # integer u in phi = -(M-1)*kappa*alpha/2 + u*pi
    hessian_det: float
    zeta_at_opt: float


@dataclass(frozen=True)
class TwoAntennaCoefficients:
    """Inner-product coefficients of the two-antenna MSE expansion."""

    b0: complex
    b1: complex
    c0: complex
    c1: complex
    d0: complex
    d1: complex


@dataclass(frozen=True)
class OptimumCheck:
    satisfied: bool
    angles_aligned: bool
    precoder_sum_ok: bool
    aggregate: AggregatePrecoder
    detail: str


# pi = _PI_HI + _PI_LO to ~1e-26; _PI_HI has 32 significant bits, so
# k * _PI_HI is exact for |k| < 2**21 (element spacings below ~10**6 wavelengths)
_PI_HI = float.fromhex("0x1.921fb54400000p+1")
_PI_LO = float.fromhex("0x1.0b4611a626331p-33")


def dirichlet_ratio(geom, alpha):
    """sin(M*kappa*alpha/2) / sin(kappa*alpha/2).

    With x = kappa*alpha/2 = k*pi + y, the ratio is
    (-1)^(k*(M-1)) * sin(M*y) / sin(y). Reducing x by the nearest multiple
    of pi first keeps full relative precision next to a grating-lobe alias
    (x near k*pi, k != 0), where sin(M*x) and sin(x) are both tiny and the
    rounding of M*x would otherwise swamp sin(M*x). The removable
    singularity at y = 0 is evaluated by its limit M*cos(M*y)/cos(y).
    """
    m = geom.num_elements
    x = 0.5 * geom.wavenumber_scale * alpha
    k = round(x / math.pi)
    y = (x - k * _PI_HI) - k * _PI_LO
    sign = -1.0 if k * (m - 1) % 2 else 1.0
    s = math.sin(y)
    if abs(s) < 1e-12:
        return sign * m * math.cos(m * y) / math.cos(y)
    return sign * math.sin(m * y) / s


def _phased_sum(geom, gap):
    """sum_{m=0}^{M-1} exp(1j*m*kappa*gap) in closed Dirichlet-phase form."""
    ratio = dirichlet_ratio(geom, gap)
    phase = 0.5 * (geom.num_elements - 1) * geom.wavenumber_scale * gap
    return ratio * cmath.exp(1j * phase)


def mse_delta_single(geom, theta, theta_hat, beta, phi):
    """Deterministic MSE part for a single-antenna attacker with q = beta*e^{j*phi}."""
    m = geom.num_elements
    alpha = math.sin(theta) - math.sin(theta_hat)
    if alpha == 0.0:
        return m * ((beta - math.cos(phi)) ** 2 + math.sin(phi) ** 2)
    ratio = dirichlet_ratio(geom, alpha)
    psi = 0.5 * (m - 1) * geom.wavenumber_scale * alpha + phi
    return (beta * beta + 1.0) * m - 2.0 * beta * ratio * math.cos(psi)


def mse_gradient_single(geom, theta, theta_hat, beta, phi):
    """Analytic partials (d zeta / d beta, d zeta / d phi)."""
    m = geom.num_elements
    alpha = math.sin(theta) - math.sin(theta_hat)
    ratio = dirichlet_ratio(geom, alpha)
    psi = 0.5 * (m - 1) * geom.wavenumber_scale * alpha + phi
    dbeta = 2.0 * beta * m - 2.0 * ratio * math.cos(psi)
    dphi = 2.0 * beta * ratio * math.sin(psi)
    return dbeta, dphi


def optimal_single_precoder(geom, theta, theta_hat, noise=None):
    """Attacker precoder minimizing the single-antenna MSE.

    phi* = -(M-1)*kappa*alpha/2 + u*pi with the branch parity u chosen so
    beta* >= 0. With aligned (or sine-aliased) angles this degenerates to
    q = 1 and the noise floor. `zeta_at_opt` omits the noise floor when no
    noise model is given.
    """
    m = geom.num_elements
    alpha = math.sin(theta) - math.sin(theta_hat)
    ratio = dirichlet_ratio(geom, alpha)
    branch = 0 if ratio >= 0 else 1
    beta = abs(ratio) / m
    phi = (-0.5 * (m - 1) * geom.wavenumber_scale * alpha + branch * math.pi) % TWO_PI
    delta = max(mse_delta_single(geom, theta, theta_hat, beta, phi), 0.0)
    floor = noise.floor if noise is not None else 0.0
    return OptimalSinglePrecoder(
        beta_star=beta,
        phi_star=phi,
        branch=branch,
        hessian_det=4.0 * ratio * ratio,
        zeta_at_opt=delta + floor,
    )


def gram_matrix(geom, angles):
    """G = A^H A for the stacked attacker steering vectors, entry-wise.

    g_lz = sum_m exp(1j*m*kappa*(sin(theta_l) - sin(theta_z))); the
    diagonal is exactly M.
    """
    angles = list(angles)
    if len(angles) < 1:
        raise ValueError("need at least one angle")
    sines = [math.sin(a) for a in angles]
    size = len(angles)
    g = np.empty((size, size), dtype=complex)
    for l in range(size):
        g[l, l] = geom.num_elements
        for z in range(l + 1, size):
            entry = _phased_sum(geom, sines[l] - sines[z])
            g[l, z] = entry
            g[z, l] = entry.conjugate()
    return g


def two_antenna_coefficients(geom, theta, theta_hat0, theta_hat1):
    """Coefficients b0, b1, c0, c1, d0, d1 of the two-antenna MSE.

    b_i = a(theta)^H a(theta_hat_i), c_i = conj(b_i);
    d1 = a(theta_hat0)^H a(theta_hat1), d0 = conj(d1).
    """
    s = math.sin(theta)
    s0 = math.sin(theta_hat0)
    s1 = math.sin(theta_hat1)
    b0 = _phased_sum(geom, s - s0)
    b1 = _phased_sum(geom, s - s1)
    d1 = _phased_sum(geom, s0 - s1)
    return TwoAntennaCoefficients(
        b0=b0, b1=b1, c0=b0.conjugate(), c1=b1.conjugate(), d0=d1.conjugate(), d1=d1
    )


def mse_delta(geom, theta, angles, precoders):
    """delta = ||a(theta) - sum_l q_l a(theta_hat_l)||^2, batched over sweep points.

    `theta` has shape S; `angles` and `precoders` have shape S + (L,), or
    any shape whose leading axes broadcast against S, e.g. (L,) when one
    attacker is shared by the whole sweep. Returns an array of the
    broadcast shape S. The sum runs over the M array elements one at a
    time, so memory stays at a few arrays of the sweep's size.
    """
    s = np.sin(np.asarray(theta, dtype=float))
    sines = np.sin(np.asarray(angles, dtype=float))
    q = np.asarray(precoders, dtype=complex)
    kappa = geom.wavenumber_scale
    delta = 0.0
    for m in range(geom.num_elements):
        resid = np.exp(-1j * kappa * m * s) - np.sum(q * np.exp(-1j * kappa * m * sines), axis=-1)
        delta = delta + (resid.real**2 + resid.imag**2)
    return delta


def mse_closed_form(geom, theta, attacker, noise):
    """MSE of one attacker configuration against the legitimate angle theta."""
    delta = float(mse_delta(geom, theta, attacker.angles, attacker.precoders))
    alpha = None
    if attacker.num_antennas == 1:
        alpha = math.sin(theta) - math.sin(attacker.angles[0])
    floor = noise.floor
    return MseBreakdown(zeta=delta + floor, delta=delta, noise_floor=floor, alpha=alpha)


def aggregate_precoder(attacker):
    total = complex(np.sum(attacker.precoders))
    return AggregatePrecoder(u=total.real, v=total.imag)


def multi_optimum_condition(attacker, theta, tol=1e-12):
    """Whether the attacker attains the noise-floor MSE against theta.

    Requires sin(theta_hat_i) = sin(theta) for every antenna and an
    aggregate precoder of exactly 1 + 0j, both within `tol`.
    """
    target = math.sin(theta)
    worst_gap = max(abs(math.sin(a) - target) for a in attacker.angles)
    angles_ok = worst_gap <= tol
    agg = aggregate_precoder(attacker)
    precoder_ok = abs(agg.u - 1.0) <= tol and abs(agg.v) <= tol
    if angles_ok and precoder_ok:
        detail = "noise-floor optimum conditions satisfied"
    elif not angles_ok:
        detail = f"angle condition fails: max |sin(theta_hat) - sin(theta)| = {worst_gap:.3e}"
    else:
        detail = f"precoder condition fails: sum q = {agg.u:.12g} + {agg.v:.12g}j != 1"
    return OptimumCheck(
        satisfied=angles_ok and precoder_ok,
        angles_aligned=angles_ok,
        precoder_sum_ok=precoder_ok,
        aggregate=agg,
        detail=detail,
    )


def monte_carlo_mse(geom, theta, attacker, noise, trials, seed):
    """Empirical MSE over independent single-snapshot noise realizations.

    Returns (mean, standard error). Deterministic given the seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    diff0 = steering_vector(geom, theta) - attack_wavefront(geom, attacker)
    rng = np.random.default_rng(seed)
    n = _noise_block(rng, geom.num_elements, trials, noise.snr_legit)
    n_hat = _noise_block(rng, geom.num_elements, trials, noise.snr_attacker)
    vals = np.sum(np.abs(diff0[:, None] + n - n_hat) ** 2, axis=0)
    mean = float(np.mean(vals))
    if trials < 2:
        return mean, 0.0
    stderr = float(np.std(vals, ddof=1) / math.sqrt(trials))
    return mean, stderr
