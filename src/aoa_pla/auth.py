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
    thresholds, so FAR is non-decreasing and FRR non-increasing).
    """
    thresholds = [float(t) for t in thresholds]
    if not thresholds:
        raise ValueError("threshold list is empty")
    if trials < 1:
        raise ValueError("trials must be >= 1")

    def deviation(block):
        # a degenerate spectrum yields no angle: infinite deviation, a reject
        try:
            return abs(estimate_aoa(block, geom, num_sources=1, grid_step=grid_step)[0] - theta)
        except DegenerateSpectrumError:
            return math.inf

    legit_dev = []
    attack_dev = []
    for t in range(trials):
        block = synthesize_legitimate(geom, theta, noise, num_snapshots, derive_rng(seed, 0, t))
        legit_dev.append(deviation(block))
        block = synthesize_attack(geom, attacker, noise, num_snapshots, derive_rng(seed, 1, t))
        attack_dev.append(deviation(block))
    out = []
    for thr in thresholds:
        far = sum(d <= thr for d in attack_dev) / trials
        frr = sum(d > thr for d in legit_dev) / trials
        out.append((thr, far, frr))
    return out


def save_acl(path, profiles):
    """Write profiles as `identity,angle,spread,count` lines (repr precision)."""
    lines = [
        f"{p.identity},{p.enrolled_angle!r},{p.enrollment_spread!r},{p.num_enrollment_estimates}"
        for p in profiles
    ]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def load_acl(path):
    """Read an access control list back into {identity: AoaProfile}."""
    profiles = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(f"{path}:{lineno}: expected 4 comma-separated fields")
        identity, angle, spread, count = parts
        profiles[identity] = AoaProfile(
            identity=identity,
            enrolled_angle=float(angle),
            enrollment_spread=float(spread),
            num_enrollment_estimates=int(count),
        )
    return profiles
