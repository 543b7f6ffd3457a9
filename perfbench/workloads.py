"""The four workloads: their inputs, warm-up, one measured pass and their gate.

A pass is the fixed list of operations a workload repeats; an operation
is one user-visible call (`experiments.reproduce` of one figure, or one
in-process `aoa-pla verify`). Inputs come only from the seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import time
from pathlib import Path

import numpy as np

from aoa_pla import cli, experiments

import gate


@dataclasses.dataclass
class Outcome:
    label: str
    latency_s: float
    error: str | None
    payload: dict


def _timed(call):
    """(latency in s, result, error text); a raised operation counts as failed, not fatal."""
    start = time.perf_counter()
    try:
        result, error = call(), None
    except Exception as exc:
        result, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, result, error


# --------------------------------------------------------------------------
# figure workloads

# Small parameter sets that run every code path of a figure once, for warm-up.
WARMUP_OVERRIDES = {
    "fig2": {"trials": 1},
    "fig3": {"phi_points": 4, "trials": 100},
    "fig3d_same": {"phi_points": 8},
    "fig3d_diff": {"phi_points": 8},
    "fig5": {},
    "fig6": {"grid_step": 0.05},
    "fig7": {"num_attacker_antennas": (1, 2), "trials": 100},
}


class FigureWorkload:
    """Reproduce a fixed list of figures: CSV + SVG + embedded checks per call."""

    def __init__(self, figures):
        self.figures = figures  # [(figure_id, overrides)]

    def setup(self, seed, workdir):
        self.configs = [
            experiments.ExperimentConfig(fig, seed=seed, overrides=dict(ov), output_dir=str(workdir / "out"))
            for fig, ov in self.figures
        ]
        for fig, _ in self.figures:
            experiments.reproduce(
                experiments.ExperimentConfig(fig, seed=seed, overrides=WARMUP_OVERRIDES[fig], output_dir=str(workdir / "warmup"))
            )
        self.first_tables = {}

    def run_pass(self):
        outcomes = []
        for config in self.configs:
            label = config.figure_id
            latency, result, error = _timed(lambda: experiments.reproduce(config))
            payload = {}
            if result is not None:
                table, checks, csv_path, svg_path = result
                digest = hashlib.sha256(Path(csv_path).read_bytes() + Path(svg_path).read_bytes())
                payload = {
                    "digest": digest.hexdigest(),
                    "checks": [(c.name, bool(c.passed), c.detail) for c in checks],
                }
                self.first_tables.setdefault(label, (table, checks))
            outcomes.append(Outcome(label, latency, error, payload))
        return outcomes

    def problems(self, outcomes, reference):
        """Per-outcome problem lists. Each figure's first table is gated in full;
        every later call must then write byte-identical CSV + SVG."""
        verdict = {
            fig: gate.figure_problems(fig, table, checks, reference)
            for fig, (table, checks) in self.first_tables.items()
        }
        first_digest = {}
        result = []
        for out in outcomes:
            if out.error is not None:
                result.append([out.error])
                continue
            first_digest.setdefault(out.label, out.payload["digest"])
            found = list(verdict[out.label])
            if out.payload["digest"] != first_digest[out.label]:
                found.append(f"{out.label}: output differs from the first call with the same inputs")
            result.append(found)
        return result

    def checks_report(self):
        """[(figure, check, passed, detail)] from each figure's first call."""
        return [
            (fig, c.name, bool(c.passed), c.detail)
            for fig, (_, checks) in self.first_tables.items()
            for c in checks
        ]

    def selftest(self, outcomes, reference):
        """Perturb one deterministic value of a copy of a real output; the gate must fire."""
        if not self.first_tables:
            return "no output to perturb", []
        fig, (table, checks) = next(iter(self.first_tables.items()))
        column = gate.DETERMINISTIC_COLUMNS[fig][-1]
        col = table.columns.index(column)
        row = len(table.rows) // 2
        rows = list(table.rows)
        values = list(rows[row])
        values[col] = values[col] * (1.0 + 10 * gate.RTOL)
        rows[row] = tuple(values)
        fired = gate.figure_problems(fig, dataclasses.replace(table, rows=rows), checks, reference)
        return f"{fig}.{column}[{row}] *= 1 + {10 * gate.RTOL:g}", fired


# --------------------------------------------------------------------------
# verify stream

NUM_ANTENNAS = 16
SPACING = 0.5
NUM_SNAPSHOTS = 128
NUM_IDENTITIES = 40
# 32 legitimate, 16 single-antenna attack and 16 two-antenna attack blocks
BLOCK_KINDS = ("legitimate",) * 32 + ("single",) * 16 + ("pair",) * 16
GRID_STEP = 0.001  # `aoa-pla verify` default
WARMUP_REQUESTS = 4


def _steering(theta):
    return np.exp(-2j * math.pi * SPACING * np.arange(NUM_ANTENNAS) * math.sin(theta))


def _write_block(path, samples):
    """The `aoa-pla` block format: header `M N`, then one line of M complex literals per snapshot."""
    lines = [f"{samples.shape[0]} {samples.shape[1]}"]
    for re_row, im_row in zip(samples.real.T.tolist(), samples.imag.T.tolist()):
        lines.append(",".join(f"{re!r}{'+' if im >= 0 else '-'}{abs(im)!r}j" for re, im in zip(re_row, im_row)))
    path.write_text("\n".join(lines) + "\n")


class VerifyWorkload:
    """Closed loop, one caller: each request is `cli.main(["verify", ...])` on one block file."""

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        angles = rng.uniform(-1.1, 1.1, NUM_IDENTITIES)
        spreads = rng.uniform(0.002, 0.012, NUM_IDENTITIES)
        counts = rng.integers(8, 33, NUM_IDENTITIES)
        names = [f"user{i:02d}" for i in range(NUM_IDENTITIES)]
        acl = workdir / "acl.txt"
        acl.write_text(
            "".join(f"{n},{a!r},{s!r},{c}\n" for n, a, s, c in zip(names, angles.tolist(), spreads.tolist(), counts.tolist()))
        )
        self.requests = []
        self.blocks = []
        self._oracle = None
        for index, kind in enumerate(rng.permutation(BLOCK_KINDS)):
            who = int(rng.integers(NUM_IDENTITIES))
            enrolled = float(angles[who])
            threshold = max(3.0 * float(spreads[who]) + GRID_STEP, 0.02)
            snr = 10.0 ** (rng.uniform(0.0, 20.0) / 10.0)
            if kind == "legitimate":
                signal = _steering(enrolled + rng.normal(0.0, spreads[who]))
            elif kind == "single":
                theta_hat = enrolled + rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.5)
                q = rng.uniform(0.5, 1.5) * np.exp(2j * math.pi * rng.uniform())
                signal = q * _steering(float(np.clip(theta_hat, -1.5, 1.5)))
            else:
                hat0 = float(np.clip(enrolled + rng.uniform(-0.3, 0.3), -1.5, 1.5))
                hat1 = float(np.clip(hat0 + rng.choice((-1.0, 1.0)) * rng.uniform(0.02, 0.2), -1.5, 1.5))
                q0, q1 = 0.5 * np.exp(2j * math.pi * rng.uniform(size=2))
                signal = q0 * _steering(hat0) + q1 * _steering(hat1)
            scale = math.sqrt(1.0 / (NUM_ANTENNAS * snr) / 2.0)
            noise = scale * (
                rng.standard_normal((NUM_ANTENNAS, NUM_SNAPSHOTS)) + 1j * rng.standard_normal((NUM_ANTENNAS, NUM_SNAPSHOTS))
            )
            samples = signal[:, None] + noise
            path = workdir / f"block{index:03d}.txt"
            _write_block(path, samples)
            self.blocks.append({"samples": samples, "enrolled": enrolled, "threshold": threshold})
            argv = ["verify", "--acl", str(acl), "--identity", names[who], "--threshold", repr(threshold), "--input", str(path)]
            self.requests.append((index, argv))
        for index, argv in self.requests[:WARMUP_REQUESTS]:
            self._request(index, argv)

    @staticmethod
    def _call(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        return rc, out.getvalue()

    def _request(self, index, argv):
        latency, result, error = _timed(lambda: self._call(argv))
        payload = {"block": index}
        if result is not None:
            payload.update(rc=result[0], stdout=result[1])
        return Outcome(f"verify[{index}]", latency, error, payload)

    def run_pass(self):
        return [self._request(index, argv) for index, argv in self.requests]

    def _expected(self):
        if self._oracle is None:
            self._oracle = []
            for block in self.blocks:
                measured = gate.music_oracle(block["samples"], SPACING, GRID_STEP)
                deviation = math.inf if measured is None else abs(measured - block["enrolled"])
                self._oracle.append({"measured": measured, "deviation": deviation, "threshold": block["threshold"]})
        return self._oracle

    def problems(self, outcomes, reference):
        """Per-outcome problem lists: each answer against the oracle, and every
        later answer for a block identical to the first."""
        expected = self._expected()
        first = {}
        result = []
        for out in outcomes:
            if out.error is not None:
                result.append([out.error])
                continue
            p = out.payload
            found = gate.verify_problems(p["rc"], p["stdout"], expected[p["block"]], GRID_STEP)
            if first.setdefault(p["block"], (p["rc"], p["stdout"])) != (p["rc"], p["stdout"]):
                found.append("answer differs from the first one for the same block")
            result.append(found)
        return result

    def checks_report(self):
        return []

    def selftest(self, outcomes, reference):
        """Move a real answer's measured angle by three grid steps; the gate must fire."""
        expected = self._expected()
        parsed = [(o, gate.parse_verify_output(o.payload["stdout"])) for o in outcomes if o.error is None]
        found = next(((o, p[1]) for o, p in parsed if p is not None and math.isfinite(p[1])), None)
        if found is None:
            return "no measured angle to perturb", []
        out, measured = found
        stdout = out.payload["stdout"].replace(repr(measured), repr(measured + 3 * GRID_STEP), 1)
        fired = gate.verify_problems(out.payload["rc"], stdout, expected[out.payload["block"]], GRID_STEP)
        return f"{out.label}: measured angle + 3 grid steps", fired


WORKLOADS = {
    "closed_form_figs": lambda: FigureWorkload([("fig3d_same", {}), ("fig3d_diff", {}), ("fig5", {}), ("fig6", {})]),
    "monte_carlo_figs": lambda: FigureWorkload([("fig3", {}), ("fig7", {})]),
    # paper grid (all SNRs, M = 2, 8, 16, N = 2000); trials cut from 200 to fit a run
    "music_sweep": lambda: FigureWorkload([("fig2", {"trials": 20})]),
    "verify_stream": VerifyWorkload,
}
