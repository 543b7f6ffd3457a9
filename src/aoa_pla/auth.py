"""Enrollment/verification protocol on top of MUSIC AoA estimates.

Bob enrolls a transmitter by averaging MUSIC estimates of pilot blocks,
then authenticates later blocks by thresholding the absolute angular
deviation from the enrolled angle. The access control list persists as a
line-oriented text file ``identity,enrolled_angle_rad,spread_rad,count``.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .arrays import (
    _check_legitimate_angle,
    _check_trials,
    attack_wavefront,
    derive_rng,
    legitimate_wavefront,
    synthesize_covariance,
)
from .music import DEFAULT_GRID_STEP, one_source_estimates, sample_covariance

# trials drawn and estimated as one (chunk, M, M) stack; the chunk fixes the random stream (each draw takes
# its chunk's shape) and bounds the memory, which does not grow with the trials
_TRIAL_CHUNK = 8


@dataclass(frozen=True)
class AoaProfile:
    identity: str
    enrolled_angle: float
    enrollment_spread: float
    num_enrollment_estimates: int


@dataclass(frozen=True)
class AuthDecision:
    accepted: bool
    measured_angle: float
    deviation: float
    threshold: float
    diagnostic: str = ""


def enroll(identity, estimates):
    """Profile from one or more AoA estimates (arithmetic mean and sample std)."""
    estimates = [float(e) for e in estimates]
    if not estimates:
        raise ValueError("need at least one enrollment estimate")
    angle = statistics.fmean(estimates)
    spread = statistics.stdev(estimates) if len(estimates) > 1 else 0.0
    return AoaProfile(
        identity=str(identity),
        enrolled_angle=angle,
        enrollment_spread=spread,
        num_enrollment_estimates=len(estimates),
    )


def verify(profile, block, geom, threshold, grid_step=DEFAULT_GRID_STEP):
    """Authenticate a signal block against an enrolled profile; a nan estimate (degenerate spectrum) rejects."""
    if not threshold > 0:
        raise ValueError("threshold must be > 0")
    measured = float(one_source_estimates(sample_covariance(block), geom, grid_step))
    degenerate = math.isnan(measured)
    # nan when degenerate, which compares False with every threshold, an infinite one too
    deviation = abs(measured - profile.enrolled_angle)
    return AuthDecision(
        accepted=deviation <= threshold,
        measured_angle=measured,
        deviation=math.inf if degenerate else deviation,
        threshold=threshold,
        diagnostic="degenerate spectrum: found 0 local maxima, need 1" if degenerate else "",
    )


def trial_estimates(geom, theta, attacker, noise, num_snapshots, grid_step, trials, key):
    """MUSIC estimates of `trials` legitimate and attack links, as a (2, trials) array.

    Row 0 holds the estimates of links from `theta`, row 1 those of links
    from `attacker`. No block is built: side s draws its N-snapshot sample
    covariances from their sufficient statistics (`synthesize_covariance`),
    all from the one generator `derive_rng(*key, s)`, in chunks of
    `_TRIAL_CHUNK` trials, and each chunk is estimated as one stack
    (`one_source_estimates`, whose bounded scan takes one set of grid
    columns per chunk). So memory does not grow with `trials`, and the
    stream depends on the chunk size. A degenerate spectrum yields no
    angle, so its entry is nan.
    """
    sides = (
        (legitimate_wavefront(geom, theta), noise.snr_legit),
        (attack_wavefront(geom, attacker), noise.snr_attacker),
    )
    estimates = np.empty((2, trials))
    for side, (wavefront, snr) in enumerate(sides):
        rng = derive_rng(*key, side)
        for start in range(0, trials, _TRIAL_CHUNK):
            covs = synthesize_covariance(geom, wavefront, snr, num_snapshots, rng, min(_TRIAL_CHUNK, trials - start))
            estimates[side, start : start + _TRIAL_CHUNK] = one_source_estimates(covs, geom, grid_step)
    return estimates


def far_frr_sweep(
    geom,
    theta,
    attacker,
    noise,
    thresholds,
    trials,
    seed,
    num_snapshots=2000,
    grid_step=DEFAULT_GRID_STEP,
):
    """FAR/FRR against the enrolled angle `theta` over a threshold sweep.

    FAR is the attacker acceptance rate, FRR the legitimate rejection
    rate, each over `trials` independent blocks (shared across
    thresholds, so FAR is non-decreasing and FRR non-increasing). A
    degenerate spectrum is a reject on either side. Every threshold must
    be > 0, as in `verify`.
    """
    thresholds = [float(t) for t in thresholds]
    if not thresholds:
        raise ValueError("threshold list is empty")
    if not all(t > 0 for t in thresholds):
        raise ValueError("threshold must be > 0")
    _check_trials(trials, 1)
    # a nan deviation compares False, so `<=` rejects it
    legit_dev, attack_dev = np.abs(
        trial_estimates(geom, theta, attacker, noise, num_snapshots, grid_step, trials, (seed,)) - theta
    )
    return [(thr, float(np.mean(attack_dev <= thr)), float(np.mean(~(legit_dev <= thr)))) for thr in thresholds]


def _check_acl_entry(profile, known):
    """Raise ValueError if `profile` cannot join an ACL that already holds `known` identities."""
    ident = profile.identity
    if not ident:
        raise ValueError("empty identity")
    if "," in ident or "".join(ident.splitlines()) != ident or ident != ident.strip():
        raise ValueError(f"identity {ident!r} contains a comma, a line break or surrounding whitespace")
    if not (math.isfinite(profile.enrolled_angle) and math.isfinite(profile.enrollment_spread)):
        raise ValueError(
            f"identity {profile.identity!r} has a non-finite angle {profile.enrolled_angle!r} "
            f"or spread {profile.enrollment_spread!r}"
        )
    _check_legitimate_angle(profile.enrolled_angle, f"enrolled angle of identity {profile.identity!r}")
    if profile.enrollment_spread < 0:
        raise ValueError(f"identity {profile.identity!r} has a negative spread {profile.enrollment_spread!r}")
    if profile.num_enrollment_estimates < 1:
        raise ValueError(
            f"identity {profile.identity!r} has an estimate count {profile.num_enrollment_estimates!r} below 1"
        )
    if profile.identity in known:
        raise ValueError(f"duplicate identity {profile.identity!r}")


def save_acl(path, profiles):
    """Write profiles as `identity,angle,spread,count` lines (repr precision).

    Raises ValueError, writing nothing, for a profile that `load_acl`
    would reject or read back differently: an empty identity, one with a
    comma, a line break or surrounding whitespace, a repeated identity, a
    non-finite angle or spread, a negative spread, or a count below 1.
    """
    known = set()
    lines = []
    for p in profiles:
        try:
            _check_acl_entry(p, known)
        except ValueError as exc:
            raise ValueError(f"cannot save ACL to {path}: {exc}") from None
        known.add(p.identity)
        lines.append(f"{p.identity},{p.enrolled_angle!r},{p.enrollment_spread!r},{p.num_enrollment_estimates}")
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def load_acl(path):
    """Read an access control list back into {identity: AoaProfile}.

    A malformed line, an empty identity or one with surrounding whitespace, a
    non-finite angle or spread, a negative spread, a count below 1 and a
    repeated identity raise ValueError naming `path:line`.
    """
    profiles = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(f"{path}:{lineno}: expected 4 comma-separated fields")
        identity, angle, spread, count = parts
        try:
            profile = AoaProfile(
                identity=identity,
                enrolled_angle=float(angle),
                enrollment_spread=float(spread),
                num_enrollment_estimates=int(count),
            )
            _check_acl_entry(profile, profiles)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        profiles[identity] = profile
    return profiles
