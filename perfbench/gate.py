"""Correctness gate: recorded references and an independent MUSIC oracle.

Three kinds of output are judged.

* Deterministic closed-form columns (fig3d, fig5, fig6 `zeta`, fig3 and
  fig7 theory columns) are compared with values recorded by
  `record_reference.py`, at relative tolerance `RTOL`.
* Embedded figure checks are compared with their recorded pass/fail
  vector, the known-red fig2 check included. A check whose outcome is
  random under a correct program is marked "statistical" and judged by a
  calibrated bound instead (see `STATISTICAL`).
* `verify` decisions are compared with a numpy re-implementation of the
  MUSIC estimate on the same block, allowing one grid step of difference
  in the measured angle.

RNG-driven columns (`zeta_sim`, fig2 means) are judged only through the
checks, so a change that alters the random stream on purpose does not
read as a failure.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
COLUMNS_FILE = REFERENCE_DIR / "closed_form_columns.npz"
CHECKS_FILE = REFERENCE_DIR / "expected_checks.json"

RTOL = 1e-9

# Deterministic columns per figure. Every other column depends on the RNG.
DETERMINISTIC_COLUMNS = {
    "fig2": ("snr_db", "num_rx_antennas"),
    "fig3": ("phi0_rad", "beta0", "beta1", "zeta_theory"),
    "fig3d_same": ("phi0_rad", "phi1_rad", "zeta"),
    "fig3d_diff": ("phi0_rad", "phi1_rad", "zeta"),
    "fig5": ("snr_eve_db", "num_attacker_antennas", "zeta"),
    "fig6": ("theta_hat_e_rad", "zeta_theta_0.2", "zeta_theta_0.4"),
    "fig7": ("num_attacker_antennas", "zeta_aligned_theory", "zeta_misaligned_theory"),
}

# fig7 `sim_within_3_sigma` asks 64 independent Monte Carlo means to lie
# within 3 standard errors of theory. A correct program misses that on
# 1 - 0.9973**64 ~ 16% of seeds (8 of seeds 0..39 at the seed commit), so
# its outcome is reported but not gated. The gate instead bounds the same
# z-scores by 5 sigma: a false alarm on ~64 * 5.7e-7 ~ 4e-5 of seeds.
STATISTICAL = {("fig7", "sim_within_3_sigma"): 5.0}
_Z_COLUMNS = {"fig7": ("aligned", "misaligned")}


def column(table, name):
    return np.array([row[table.columns.index(name)] for row in table.rows], dtype=float)


def load_reference():
    with np.load(COLUMNS_FILE) as data:
        columns = {key: data[key] for key in data.files}
    checks = json.loads(CHECKS_FILE.read_text())
    return columns, checks


def relative_error(actual, expected):
    """Largest |actual - expected| / |expected| (exact match where expected is 0)."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        return math.inf
    diff = np.abs(actual - expected)
    scale = np.abs(expected)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(diff == 0.0, 0.0, diff / scale)
    return float(np.max(rel)) if rel.size else 0.0


def figure_problems(figure_id, table, checks, reference):
    """List of reasons this figure output is wrong; empty when it passes."""
    columns, expected_checks = reference
    problems = []
    for name in DETERMINISTIC_COLUMNS[figure_id]:
        if name not in table.columns:
            problems.append(f"{figure_id}: column {name!r} missing")
            continue
        err = relative_error(column(table, name), columns[f"{figure_id}/{name}"])
        if not err <= RTOL:
            problems.append(f"{figure_id}: column {name!r} off reference by rel {err:.3e} > {RTOL:g}")
    expected = expected_checks[figure_id]
    got = {c.name: bool(c.passed) for c in checks}
    if sorted(got) != sorted(expected):
        problems.append(f"{figure_id}: checks {sorted(got)} != expected {sorted(expected)}")
        return problems
    for name, want in expected.items():
        if want == "statistical":
            bound = STATISTICAL[(figure_id, name)]
            worst = worst_z(table, figure_id)
            if not worst <= bound:
                problems.append(f"{figure_id}: Monte Carlo deviation {worst:.2f} sigma > {bound} sigma")
        elif got[name] != want:
            problems.append(
                f"{figure_id}:{name} reads {'PASS' if got[name] else 'FAIL'}, "
                f"expected {'PASS' if want else 'FAIL'}"
            )
    return problems


def worst_z(table, figure_id):
    worst = 0.0
    for prefix in _Z_COLUMNS[figure_id]:
        theory = column(table, f"zeta_{prefix}_theory")
        sim = column(table, f"zeta_{prefix}_sim")
        stderr = column(table, f"zeta_{prefix}_stderr")
        if np.any(stderr <= 0):
            return math.inf
        worst = max(worst, float(np.max(np.abs(sim - theory) / stderr)))
    return worst


# --------------------------------------------------------------------------
# verify decisions


def music_oracle(samples, spacing, grid_step):
    """Highest MUSIC pseudospectrum peak for one source, or None if there is none.

    Written from the algorithm, not from the package: covariance, noise
    subspace, full-grid scan over multiples of `grid_step`, local maxima
    with ties toward the smaller angle.
    """
    m, n = samples.shape
    cov = samples @ samples.conj().T / n
    _, vecs = np.linalg.eigh(cov)
    noise_basis = vecs[:, : m - 1]
    kmax = int(math.floor((math.pi / 2) / grid_step))
    grid = grid_step * np.arange(-kmax, kmax + 1)
    manifold = np.exp(-2j * math.pi * spacing * np.outer(np.arange(m), np.sin(grid)))
    denom = np.sum(np.abs(noise_basis.conj().T @ manifold) ** 2, axis=0)
    values = 1.0 / np.maximum(denom, np.finfo(float).tiny)
    padded = np.concatenate(([-np.inf], values, [-np.inf]))
    is_peak = (values > padded[:-2]) & (values > padded[2:])
    if not is_peak.any():
        return None
    heights = np.where(is_peak, values, -np.inf)
    return float(grid[int(np.argmax(heights))])  # argmax keeps the first (smaller) angle on ties


def parse_verify_output(text):
    """(verdict, measured angle) from `aoa-pla verify` output, or None."""
    first = text.splitlines()[0] if text else ""
    verdict, _, rest = first.partition(": measured ")
    if verdict not in ("ACCEPT", "REJECT"):
        return None
    try:
        return verdict, float(rest.split(" rad", 1)[0])
    except ValueError:
        return None


def verify_problems(rc, stdout, expected, grid_step):
    """Reasons one `verify` answer disagrees with the oracle's `expected` dict."""
    parsed = parse_verify_output(stdout)
    if rc not in (0, 1) or parsed is None:
        return [f"exit {rc}, output {stdout[:120]!r}"]
    verdict, measured = parsed
    problems = []
    if (rc == 0) != (verdict == "ACCEPT"):
        problems.append(f"exit {rc} contradicts {verdict}")
    want = expected["measured"]
    tol = grid_step * (1.0 + 1e-6)
    if want is None:
        if not (math.isnan(measured) and verdict == "REJECT"):
            problems.append(f"oracle finds no peak, program reports {verdict} at {measured!r}")
        return problems
    if not abs(measured - want) <= tol:
        problems.append(f"measured {measured!r} rad, oracle {want!r} rad")
    # a decision within one grid step of the threshold may go either way
    if abs(expected["deviation"] - expected["threshold"]) > tol:
        want_verdict = "ACCEPT" if expected["deviation"] <= expected["threshold"] else "REJECT"
        if verdict != want_verdict:
            problems.append(f"{verdict}, oracle {want_verdict}")
    return problems
