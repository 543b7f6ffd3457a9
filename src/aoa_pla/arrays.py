"""Uniform linear array geometry, steering vectors, and baseband signal synthesis.

The receiver is a ULA of M elements spaced ``d`` wavelengths apart. A unit
pilot impinging from angle theta produces the phase profile
``exp(-1j * kappa * m * sin(theta))`` across elements, with
``kappa = 2*pi*d/lambda``. Noise is circularly symmetric complex Gaussian,
scaled so the expected total noise energy across the array equals ``1/snr``
(total-array SNR convention; per-element variance is ``1/(M*snr)``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi


def derive_rng(seed, *key):
    """Generator for the stream identified by (seed, *key).

    Distinct keys give statistically independent streams, so sweep points
    and Monte Carlo batches are reproducible regardless of execution order.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def _precoders(betas, phis):
    """beta * e^{j*phi}, broadcast, with phi wrapped to [0, 2*pi) as AttackerConfig stores it."""
    return np.asarray(betas, dtype=float) * np.exp(1j * (np.asarray(phis) % TWO_PI))


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

    @property
    def wavenumber_scale(self):
        """kappa = 2*pi*d/lambda."""
        return TWO_PI * self.spacing


@dataclass(frozen=True)
class NoiseModel:
    """Linear SNRs of the legitimate and adversarial links.

    ``math.inf`` means a noiseless link. The expected total noise energy
    across the array is 1/snr on each link.
    """

    snr_legit: float
    snr_attacker: float

    def __post_init__(self):
        for name, val in (("snr_legit", self.snr_legit), ("snr_attacker", self.snr_attacker)):
            if not val > 0 or math.isnan(val):
                raise ValueError(f"{name} must be > 0, got {val}")

    @classmethod
    def from_db(cls, legit_db, attacker_db=None):
        if attacker_db is None:
            attacker_db = legit_db
        return cls(10.0 ** (legit_db / 10.0), 10.0 ** (attacker_db / 10.0))

    @classmethod
    def noiseless(cls):
        return cls(math.inf, math.inf)

    @property
    def floor(self):
        """1/snr_legit + 1/snr_attacker, the provable MSE lower bound."""
        return 1.0 / self.snr_legit + 1.0 / self.snr_attacker


@dataclass(frozen=True)
class AttackerConfig:
    """L adversary antennas: arrival angles and complex precoders.

    Precoder i is ``beta[i] * exp(1j * phi[i])`` with beta >= 0 and phi
    stored wrapped to [0, 2*pi).
    """

    angles: tuple
    betas: tuple
    phis: tuple

    def __post_init__(self):
        angles = tuple(float(a) for a in self.angles)
        betas = tuple(float(b) for b in self.betas)
        phis = tuple(float(p) % TWO_PI for p in self.phis)
        if not (len(angles) == len(betas) == len(phis)):
            raise ValueError("angles, betas, phis must have equal length")
        if len(angles) < 1:
            raise ValueError("attacker needs at least one antenna")
        for seq in (angles, betas, phis):
            if not all(math.isfinite(v) for v in seq):
                raise ValueError("attacker parameters must be finite")
        if any(b < 0 for b in betas):
            raise ValueError("precoder amplitudes must be >= 0")
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "phis", phis)

    @classmethod
    def from_precoders(cls, angles, precoders):
        qs = [complex(q) for q in precoders]
        return cls(
            tuple(angles),
            tuple(abs(q) for q in qs),
            tuple(math.atan2(q.imag, q.real) % TWO_PI for q in qs),
        )

    @classmethod
    def single(cls, angle, beta=1.0, phi=0.0):
        return cls((angle,), (beta,), (phi,))

    @property
    def num_antennas(self):
        return len(self.angles)

    @property
    def precoders(self):
        return _precoders(self.betas, self.phis)


@dataclass(frozen=True)
class SignalBlock:
    """M x N complex snapshot matrix received by Bob."""

    samples: np.ndarray
    origin: str = "legitimate"

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=complex)
        if samples.ndim != 2 or samples.shape[1] < 1:
            raise ValueError(f"samples must be M x N with N >= 1, got shape {samples.shape}")
        if self.origin not in ("legitimate", "attack"):
            raise ValueError(f"unknown origin {self.origin!r}")
        object.__setattr__(self, "samples", samples)

    @property
    def num_elements(self):
        return self.samples.shape[0]

    @property
    def num_snapshots(self):
        return self.samples.shape[1]


def steering_vector(geom, angle):
    """Phase profile of a plane wave from `angle` across the array.

    Element m is exp(-1j * kappa * m * sin(angle)); element 0 is 1.
    """
    m = np.arange(geom.num_elements)
    return np.exp(-1j * geom.wavenumber_scale * m * math.sin(angle))


def attack_wavefront(geom, attacker):
    """A q = sum_i q_i a(theta_hat_i), the attacker's noiseless array response."""
    combined = np.zeros(geom.num_elements, dtype=complex)
    for angle, q in zip(attacker.angles, attacker.precoders):
        combined += q * steering_vector(geom, angle)
    return combined


def _noise_block(rng, num_elements, num_snapshots, snr):
    if math.isinf(snr):
        return np.zeros((num_elements, num_snapshots), dtype=complex)
    scale = math.sqrt(1.0 / (num_elements * snr) / 2.0)
    return scale * (
        rng.standard_normal((num_elements, num_snapshots))
        + 1j * rng.standard_normal((num_elements, num_snapshots))
    )


def synthesize_legitimate(geom, theta, noise, num_snapshots, seed):
    """Legitimate received block: each column is a(theta) * s0 + n.

    The pilot s0 is the deterministic unit signal 1+0j. `seed` may be an
    integer or an existing numpy Generator.
    """
    if num_snapshots < 1:
        raise ValueError("num_snapshots must be >= 1")
    if not (math.isfinite(theta) and abs(theta) <= math.pi / 2):
        raise ValueError(f"legitimate angle must lie in [-pi/2, pi/2], got {theta}")
    rng = np.random.default_rng(seed)
    a = steering_vector(geom, theta)
    samples = a[:, None] + _noise_block(rng, geom.num_elements, num_snapshots, noise.snr_legit)
    return SignalBlock(samples, origin="legitimate")


def synthesize_attack(geom, attacker, noise, num_snapshots, seed):
    """Adversarial received block: columns are (sum_i q_i a(theta_hat_i)) * s0 + n."""
    if num_snapshots < 1:
        raise ValueError("num_snapshots must be >= 1")
    rng = np.random.default_rng(seed)
    samples = attack_wavefront(geom, attacker)[:, None] + _noise_block(
        rng, geom.num_elements, num_snapshots, noise.snr_attacker
    )
    return SignalBlock(samples, origin="attack")
