"""Uniform linear array geometry, steering vectors, and baseband signal synthesis.

The receiver is a ULA of M elements spaced ``d`` wavelengths apart. A plane
wave from angle theta has the phase profile ``exp(-1j*kappa*m*sin(theta))``,
``kappa = 2*pi*d/lambda``; `steering_vector` alone builds it (the pilot, ``A q``
and the MUSIC manifold). Noise is circularly symmetric complex Gaussian, scaled
so the expected total noise energy across the array equals ``1/snr``
(total-array SNR convention; per-element variance is ``1/(M*snr)``).

An attacker is its antennas' arrival angles and complex precoders q, held
bit for bit; polar form ``beta * exp(1j*phi)`` enters only through `_precoders`.

A link is a noiseless wavefront and its SNR, and it has two draws, both
checked by `_check_link`. `_synthesize_block` draws N snapshots, for
`synthesize_legitimate` and `synthesize_attack`, whose blocks `synth`,
`music` and `verify` write, read and check. `synthesize_covariance` draws
their sample covariance from its sufficient statistics (noise sample mean
and a Bartlett-factored complex Wishart), at O(M^2) cost whatever N; the
Monte Carlo MUSIC trials of fig2 and the FAR/FRR sweep use it.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def derive_rng(seed, *key):
    """Generator for the stream identified by (seed, *key).

    Distinct keys give statistically independent streams, so sweep points
    and Monte Carlo batches are reproducible regardless of execution order.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def _wrap_phase(phis):
    """Phases wrapped to [0, 2*pi)."""
    phis = np.asarray(phis) % TWO_PI
    # phi % 2*pi rounds to 2*pi itself for a phi just below 0; that phase is 0
    return np.where(phis == TWO_PI, 0.0, phis)


def _precoders(betas, phis, name="precoder amplitudes"):
    """beta * e^{j*phi}, broadcast, phi wrapped to [0, 2*pi): the one polar-to-complex conversion.

    A negative beta raises ValueError, naming `name` and the betas as given.
    """
    amplitudes = np.asarray(betas, dtype=float)
    if np.any(amplitudes < 0):
        raise ValueError(f"{name} must be >= 0, got {betas!r}")
    return amplitudes * np.exp(1j * _wrap_phase(phis))


@dataclass(frozen=True)
class ArrayGeometry:
    """Receiver ULA: element count and spacing in wavelengths."""

    num_elements: int
    spacing: float = 0.5  # d / lambda; half-wavelength by default

    def __post_init__(self):
        if int(self.num_elements) != self.num_elements or self.num_elements < 2:
            raise ValueError(f"num_elements must be an integer >= 2, got {self.num_elements}")
        if not (self.spacing > 0 and math.isfinite(self.spacing)):
            raise ValueError(f"spacing must be positive and finite, got {self.spacing}")
        try:
            phase_span = self.wavenumber_scale * (self.num_elements - 1)
        except OverflowError:  # an M beyond a float's range
            phase_span = math.inf
        if not math.isfinite(phase_span):
            raise ValueError(
                f"spacing {self.spacing!r} overflows the steering phases of M = {self.num_elements} "
                "elements: 2 pi spacing (M - 1) is not finite"
            )

    @property
    def wavenumber_scale(self):
        """kappa = 2*pi*d/lambda."""
        return TWO_PI * self.spacing


@dataclass(frozen=True)
class NoiseModel:
    """Linear SNRs of the legitimate and adversarial links.

    ``math.inf`` means a noiseless link. The expected total noise energy
    across the array is 1/snr on each link. A pair whose `floor` overflows
    raises ValueError.
    """

    snr_legit: float
    snr_attacker: float

    def __post_init__(self):
        for name, val in (("snr_legit", self.snr_legit), ("snr_attacker", self.snr_attacker)):
            if not val > 0 or math.isnan(val):
                raise ValueError(f"{name} must be > 0, got {val}")
        if not self.floor < math.inf:
            raise ValueError(
                f"1/snr_legit + 1/snr_attacker overflows for snr_legit={self.snr_legit!r} "
                f"and snr_attacker={self.snr_attacker!r}"
            )

    @classmethod
    def from_db(cls, legit_db, attacker_db=None):
        """SNRs in dB; `+inf` is noiseless, and nan or a value whose snr or 1/snr overflows raises ValueError."""
        if attacker_db is None:
            attacker_db = legit_db
        return cls(_db_to_linear(legit_db), _db_to_linear(attacker_db))

    @classmethod
    def noiseless(cls):
        return cls(math.inf, math.inf)

    @property
    def floor(self):
        """1/snr_legit + 1/snr_attacker, the provable MSE lower bound."""
        return 1.0 / self.snr_legit + 1.0 / self.snr_attacker


def _db_to_linear(db):
    db = float(db)
    try:
        linear = 10.0 ** (db / 10.0)
    except OverflowError:
        linear = math.nan
    if not (linear > 0 and 1.0 / linear < math.inf):
        raise ValueError(f"SNR of {db!r} dB is out of a float's range")
    return linear


@dataclass(frozen=True)
class AttackerConfig:
    """L adversary antennas: arrival angles and complex precoders q, held as given."""

    angles: tuple
    precoders: tuple

    def __post_init__(self):
        angles = tuple(float(a) for a in self.angles)
        precoders = tuple(complex(q) for q in self.precoders)
        if len(angles) != len(precoders):
            raise ValueError("angles and precoders must have equal length")
        if not angles:
            raise ValueError("attacker needs at least one antenna")
        if not (all(map(math.isfinite, angles)) and all(map(cmath.isfinite, precoders))):
            raise ValueError("attacker parameters must be finite")
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "precoders", precoders)

    @classmethod
    def single(cls, angle, beta=1.0, phi=0.0):
        return cls((angle,), _precoders((beta,), (phi,)))

    @property
    def num_antennas(self):
        return len(self.angles)


@dataclass(frozen=True)
class SignalBlock:
    """M x N complex snapshot matrix received by Bob."""

    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=complex)
        if samples.ndim != 2 or samples.shape[1] < 1:
            raise ValueError(f"samples must be M x N with N >= 1, got shape {samples.shape}")
        object.__setattr__(self, "samples", samples)

    @property
    def num_elements(self):
        return self.samples.shape[0]

    @property
    def num_snapshots(self):
        return self.samples.shape[1]


def steering_vector(geom, angles):
    """Phase profiles of plane waves from `angles` (any shape), shape `angles.shape + (M,)`.

    Element m is exp(-1j * kappa * m * sin(angle)); element 0 is 1.
    """
    m = np.arange(geom.num_elements)
    return np.exp(-1j * geom.wavenumber_scale * m * np.sin(np.asarray(angles, dtype=float))[..., None])


def attack_wavefront(geom, attacker):
    """A q = sum_i q_i a(theta_hat_i), the attacker's noiseless array response."""
    # initial=0.0 starts the sum from +0, as an accumulation loop does
    return np.sum(np.asarray(attacker.precoders)[:, None] * steering_vector(geom, attacker.angles), axis=0, initial=0.0)


def _check_legitimate_angle(theta, name="legitimate angle"):
    """ValueError, naming `name`, unless a legitimate transmitter's angle `theta` lies in [-pi/2, pi/2]."""
    if not (math.isfinite(theta) and abs(theta) <= math.pi / 2):
        raise ValueError(f"{name} must lie in [-pi/2, pi/2], got {theta}")


def legitimate_wavefront(geom, theta):
    """a(theta), the legitimate transmitter's noiseless array response; theta must lie in [-pi/2, pi/2]."""
    _check_legitimate_angle(theta)
    return steering_vector(geom, theta)


def _check_trials(trials, least, reason=""):
    """ValueError, naming `trials`, unless it is an integer >= `least`."""
    if not isinstance(trials, numbers.Integral):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < least:
        raise ValueError(f"trials must be >= {least}{reason}, got {trials}")


def _check_link(geom, wavefront, num_snapshots):
    """`wavefront` as a complex M-vector; ValueError unless it has shape (M,) and N >= 1."""
    if num_snapshots < 1:
        raise ValueError("num_snapshots must be >= 1")
    wavefront = np.asarray(wavefront, dtype=complex)
    if wavefront.shape != (geom.num_elements,):
        raise ValueError(f"wavefront must have shape ({geom.num_elements},), got {wavefront.shape}")
    return wavefront


def _synthesize_block(geom, wavefront, snr, num_snapshots, seed):
    """Block of N snapshots `wavefront * s0 + n`, n ~ CN(0, 1/(M*snr)) per element; snr = inf adds zeros."""
    wavefront = _check_link(geom, wavefront, num_snapshots)
    rng = np.random.default_rng(seed)
    shape = (geom.num_elements, num_snapshots)
    if math.isinf(snr):
        noise = np.zeros(shape, dtype=complex)
    else:
        noise = math.sqrt(1.0 / (geom.num_elements * snr) / 2.0) * (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        )
    return SignalBlock(wavefront[:, None] + noise)


def synthesize_legitimate(geom, theta, noise, num_snapshots, seed):
    """Legitimate received block: each column is a(theta) * s0 + n.

    The pilot s0 is the deterministic unit signal 1+0j. `seed` may be an
    integer or an existing numpy Generator.
    """
    return _synthesize_block(geom, legitimate_wavefront(geom, theta), noise.snr_legit, num_snapshots, seed)


def synthesize_attack(geom, attacker, noise, num_snapshots, seed):
    """Adversarial received block: columns are (sum_i q_i a(theta_hat_i)) * s0 + n."""
    return _synthesize_block(geom, attack_wavefront(geom, attacker), noise.snr_attacker, num_snapshots, seed)


@functools.lru_cache(maxsize=8)
def _strict_lower(m, k):
    """Row and column indices of the entries below the diagonal of an M x k matrix, built once per (M, k).

    They are `np.tril_indices(m, -1, k)`; both arrays are shared, so they are read-only.
    """
    rows, cols = np.tril_indices(m, -1, k)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def synthesize_covariance(geom, wavefront, snr, num_snapshots, seed, trials=None):
    """Sample covariance of N snapshots `wavefront * s0 + n`, drawn without the snapshots.

    For a deterministic pilot the snapshot covariance is exactly
    ``(w + nbar)(w + nbar)^H + W / N``: ``nbar ~ CN(0, s2/N)`` per element is
    the noise sample mean, and ``W = s2 * L L^H`` the independent scatter
    about it, a complex Wishart with N - 1 degrees of freedom, with
    s2 = 1/(M*snr) as in the synthesized blocks. L is its M x k Bartlett
    factor (Goodman 1963), k = min(M, N - 1): ``L[j, j]**2 ~ Gamma(N - 1 - j)``
    and CN(0, 1) entries below the diagonal. The cost is O(M^2), whatever N.
    N <= M (rank-deficient W), N = 1 (W = 0) and a noiseless link
    (snr = inf, s2 = 0) take the same path. The draw has the distribution of
    `sample_covariance` of `synthesize_legitimate` / `synthesize_attack`,
    not their random stream.

    With `trials` = T the result is a (T, M, M) stack of independent draws,
    one noise mean and one Bartlett factor per trial, from the one generator:
    first the normals of all T trials, then their gammas. Without it the
    result is one (M, M) covariance, the draw of T = 1.
    """
    wavefront = _check_link(geom, wavefront, num_snapshots)
    m = geom.num_elements
    count = 1 if trials is None else trials
    rng = np.random.default_rng(seed)
    var = 1.0 / (m * snr)
    k = min(m, num_snapshots - 1)
    rows, cols = _strict_lower(m, k)
    normals = math.sqrt(0.5) * rng.standard_normal((count, 2, m + rows.size))
    re, im = normals[:, 0], normals[:, 1]
    mean = wavefront + math.sqrt(var / num_snapshots) * (re[:, :m] + 1j * im[:, :m])
    factor = np.zeros((count, m, k), dtype=complex)
    factor[:, rows, cols] = re[:, m:] + 1j * im[:, m:]
    factor[:, np.arange(k), np.arange(k)] = np.sqrt(rng.standard_gamma(num_snapshots - 1 - np.arange(k), (count, k)))
    covs = mean[:, :, None] * mean.conj()[:, None, :] + (var / num_snapshots) * (factor @ factor.conj().swapaxes(1, 2))
    return covs[0] if trials is None else covs
