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

from .arrays import derive_rng, synthesize_attack, synthesize_legitimate
from .music import DEFAULT_GRID_STEP, DegenerateSpectrumError, estimate_aoa

# absolute deviation threshold: 3 * spread + grid step, floored
THRESHOLD_FLOOR = 0.02


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


def default_threshold(profile, grid_step=DEFAULT_GRID_STEP):
    return max(3.0 * profile.enrollment_spread + grid_step, THRESHOLD_FLOOR)


def verify(profile, block, geom, threshold, grid_step=DEFAULT_GRID_STEP):
    """Authenticate a signal block against an enrolled profile."""
    if not threshold > 0:
        raise ValueError("threshold must be > 0")
    try:
        measured = estimate_aoa(block, geom, num_sources=1, grid_step=grid_step)[0]
    except DegenerateSpectrumError as exc:
        return AuthDecision(
            accepted=False,
            measured_angle=math.nan,
            deviation=math.inf,
            threshold=threshold,
            diagnostic=f"degenerate spectrum: {exc}",
        )
    deviation = abs(measured - profile.enrolled_angle)
    return AuthDecision(
        accepted=deviation <= threshold,
        measured_angle=measured,
        deviation=deviation,
        threshold=threshold,
    )


def trial_estimates(geom, theta, attacker, noise, num_snapshots, grid_step, trials, key):
    """MUSIC estimates of `trials` legitimate and attack blocks, as a (2, trials) array.

    Row 0 holds the estimates of blocks from `theta`, row 1 those of blocks
    from `attacker`. Side s of trial t draws from `derive_rng(*key, s, t)`;
    blocks are drawn and estimated one at a time. A degenerate spectrum
    yields no angle, so its entry is nan.
    """
    estimates = np.full((2, trials), np.nan)
    sides = ((synthesize_legitimate, theta), (synthesize_attack, attacker))
    for t in range(trials):
        for side, (synthesize, source) in enumerate(sides):
            block = synthesize(geom, source, noise, num_snapshots, derive_rng(*key, side, t))
            try:
                estimates[side, t] = estimate_aoa(block, geom, 1, grid_step)[0]
            except DegenerateSpectrumError:
                pass
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
    degenerate spectrum is a reject on either side.
    """
    thresholds = [float(t) for t in thresholds]
    if not thresholds:
        raise ValueError("threshold list is empty")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    # a nan deviation compares False, so `<=` rejects it
    legit_dev, attack_dev = np.abs(
        trial_estimates(geom, theta, attacker, noise, num_snapshots, grid_step, trials, (seed,)) - theta
    )
    return [(thr, float(np.mean(attack_dev <= thr)), float(np.mean(~(legit_dev <= thr)))) for thr in thresholds]


def _check_acl_entry(profile, known):
    """Raise ValueError if `profile` cannot join an ACL that already holds `known` identities."""
    if not (math.isfinite(profile.enrolled_angle) and math.isfinite(profile.enrollment_spread)):
        raise ValueError(
            f"identity {profile.identity!r} has a non-finite angle {profile.enrolled_angle!r} "
            f"or spread {profile.enrollment_spread!r}"
        )
    if profile.identity in known:
        raise ValueError(f"duplicate identity {profile.identity!r}")


def save_acl(path, profiles):
    """Write profiles as `identity,angle,spread,count` lines (repr precision).

    Raises ValueError, writing nothing, for a profile that `load_acl`
    would reject or read back differently: an identity containing a comma,
    a line break or surrounding whitespace, a repeated identity, or a
    non-finite angle or spread.
    """
    known = set()
    lines = []
    for p in profiles:
        ident = p.identity
        try:
            if "," in ident or "".join(ident.splitlines()) != ident or ident != ident.strip():
                raise ValueError(f"identity {ident!r} contains a comma, a line break or surrounding whitespace")
            _check_acl_entry(p, known)
        except ValueError as exc:
            raise ValueError(f"cannot save ACL to {path}: {exc}") from None
        known.add(ident)
        lines.append(f"{ident},{p.enrolled_angle!r},{p.enrollment_spread!r},{p.num_enrollment_estimates}")
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def load_acl(path):
    """Read an access control list back into {identity: AoaProfile}.

    A malformed line, a non-finite angle or spread and a repeated identity
    raise ValueError naming `path:line`.
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
