"""Command-line front end.

Subcommands: `reproduce <fig>`, `attack-opt`, `music`, `verify`,
`sweep-far-frr`. Exit status is 0 on success; `verify` uses 0 = accept,
1 = reject, 2 = error. The default output directory can be set via the
AOA_PLA_OUT environment variable.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from .arrays import ArrayGeometry, AttackerConfig, NoiseModel, SignalBlock, synthesize_attack, synthesize_legitimate
from .attack import mse_gradient_single, optimal_single_precoder
from .auth import far_frr_sweep, load_acl, verify
from .experiments import ExperimentConfig, reproduce
from .music import DEFAULT_GRID_STEP, DegenerateSpectrumError, estimate_aoa, pseudospectrum, sample_covariance

OUTPUT_DIR_ENV = "AOA_PLA_OUT"

# closed schema for config files; `reproduce` reads these keys and rejects
# any other by name, so no key is accepted and then ignored
CONFIG_SCHEMA = {
    "experiment.seed": int,
    "experiment.output_dir": str,
}


class ConfigError(ValueError):
    pass


def _parse_angle(text):
    """Radians by default; a `deg` suffix converts from degrees."""
    text = text.strip()
    if text.endswith("deg"):
        return math.radians(float(text[: -len("deg")].strip()))
    return float(text)


def _convert(key, raw):
    try:
        return CONFIG_SCHEMA[key](raw.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from exc


def load_config(path):
    """Flat `key = value` file with `[section]` headers; closed schema."""
    values = {}
    section = ""
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        full = f"{section}.{key}" if section else key
        if full not in CONFIG_SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown configuration key {full!r}")
        values[full] = _convert(full, raw)
    return values


def write_signal_block(path, block):
    """Header `M N`, then N lines of M comma-separated complex literals."""
    m, n = block.samples.shape
    lines = [f"{m} {n}"]
    for col in block.samples.T:
        lines.append(",".join(_complex_literal(z) for z in col))
    Path(path).write_text("\n".join(lines) + "\n")


def _complex_literal(z):
    re, im = float(z.real), float(z.imag)
    sign = "+" if im >= 0 or math.isnan(im) else "-"
    return f"{re!r}{sign}{abs(im)!r}j"


def read_signal_block(path):
    """Parse a file written by `write_signal_block`; errors name `path:line`.

    Blank lines are skipped. Non-finite samples are rejected here, where
    the block enters, so synthesized blocks are not checked again.
    """
    lines = [(no, ln) for no, ln in enumerate(Path(path).read_text().splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty signal block file")
    header_no, header = lines[0]
    try:
        m, n = (int(v) for v in header.split())
    except ValueError as exc:
        raise ValueError(f"{path}:{header_no}: bad header line {header!r}") from exc
    body = lines[1:]
    if len(body) != n:
        raise ValueError(f"{path}: header says {n} snapshots, file has {len(body)}")
    cols = []
    for lineno, line in body:
        entries = line.split(",")
        if len(entries) != m:
            raise ValueError(f"{path}:{lineno}: expected {m} entries, got {len(entries)}")
        try:
            cols.append([complex(e.strip()) for e in entries])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed complex literal in {line!r}") from None
    samples = np.array(cols).T
    finite = np.isfinite(samples).all(axis=0)
    if not finite.all():
        lineno = body[int(np.argmin(finite))][0]
        raise ValueError(f"{path}:{lineno}: non-finite sample")
    return SignalBlock(samples)


def _add_synth_flags(parser, with_attack=False):
    parser.add_argument("--num-antennas", "--M", dest="num_antennas", type=int, default=16)
    parser.add_argument("--spacing", type=float, default=0.5, help="element spacing in wavelengths")
    parser.add_argument("--theta", type=_parse_angle, default=0.4)
    parser.add_argument("--snr-db", type=float, default=15.0)
    parser.add_argument("--snapshots", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    if with_attack:
        parser.add_argument("--theta-hat", type=_parse_angle, default=None, help="attack from this angle")
        parser.add_argument("--beta", type=float, default=1.0)
        parser.add_argument("--phi", type=_parse_angle, default=0.0)


def _synth_block(args):
    geom = ArrayGeometry(args.num_antennas, args.spacing)
    noise = NoiseModel.from_db(args.snr_db)
    theta_hat = getattr(args, "theta_hat", None)
    if theta_hat is not None:
        attacker = AttackerConfig.single(theta_hat, args.beta, args.phi)
        return geom, synthesize_attack(geom, attacker, noise, args.snapshots, args.seed)
    return geom, synthesize_legitimate(geom, args.theta, noise, args.snapshots, args.seed)


def _cmd_reproduce(args):
    overrides = {}
    seed = args.seed
    output_dir = args.out
    if args.config:
        cfg = load_config(args.config)
        if "experiment.seed" in cfg and seed is None:
            seed = cfg["experiment.seed"]
        if "experiment.output_dir" in cfg and output_dir is None:
            output_dir = cfg["experiment.output_dir"]
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = (part.strip() for part in item.split("=", 1))
        overrides[key] = _parse_override_value(key, raw)
    config = ExperimentConfig(
        figure_id=args.figure,
        seed=0 if seed is None else seed,
        overrides=overrides,
        output_dir=output_dir or os.environ.get(OUTPUT_DIR_ENV, "."),
    )
    table, checks, csv_path, svg_path = reproduce(config)
    print(f"wrote {csv_path}")
    print(f"wrote {svg_path}")
    ok = True
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        detail = f"  ({check.detail})" if check.detail else ""
        print(f"[{status}] {args.figure}:{check.name}{detail}")
        ok = ok and check.passed
    return 0 if ok else 1


def _parse_override_value(key, raw):
    """A finite number, a comma-separated tuple of them, or `;`-separated tuples.

    Integers stay integers; anything else goes through `_parse_angle`, so
    angles may carry a `deg` suffix. A trailing separator closes a
    one-element tuple: `5,` is `(5,)` and `0.5,0.5;` is `((0.5, 0.5),)`.
    `0.5,0.5;0.3,0.3` is the tuple of pairs `((0.5, 0.5), (0.3, 0.3))`.
    """

    def number(text):
        try:
            return int(text)
        except ValueError:
            value = _parse_angle(text)
        if not math.isfinite(value):
            raise ValueError(value)
        return value

    def items(text, sep):
        parts = text.split(sep)
        if len(parts) > 1 and not parts[-1].strip():
            parts.pop()
        return parts

    try:
        if ";" in raw:
            return tuple(tuple(number(v) for v in items(group, ",")) for group in items(raw, ";"))
        if "," in raw:
            return tuple(number(v) for v in items(raw, ","))
        return number(raw)
    except ValueError:
        raise ConfigError(
            f"bad value for --set {key!r}: {raw!r} (expected a finite number, an angle with a "
            "`deg` suffix, a comma-separated tuple of them, or `;`-separated tuples)"
        ) from None


def _cmd_attack_opt(args):
    geom = ArrayGeometry(args.num_antennas, args.spacing)
    noise = NoiseModel.from_db(args.snr_alice_db, args.snr_eve_db)
    opt = optimal_single_precoder(geom, args.theta, args.theta_hat, noise)
    grad = mse_gradient_single(geom, args.theta, args.theta_hat, opt.beta_star, opt.phi_star)
    residual = math.hypot(*grad)
    print(f"beta*        = {opt.beta_star!r}")
    print(f"phi*         = {opt.phi_star!r}")
    print(f"branch (u)   = {opt.branch}")
    print(f"hessian det  = {opt.hessian_det!r}")
    print(f"zeta*        = {opt.zeta_at_opt!r}")
    print(f"floor gap    = {opt.zeta_at_opt - noise.floor!r}")
    print(f"gradient res = {residual:.3e}")
    return 0


def _cmd_music(args):
    if args.input:
        block = read_signal_block(args.input)
        geom = ArrayGeometry(block.num_elements, args.spacing)
    else:
        geom, block = _synth_block(args)
    estimates = estimate_aoa(block, geom, args.num_sources, args.grid_step)
    for angle in estimates:
        print(f"estimated AoA: {angle!r} rad")
    if args.spectrum_csv:
        spec = pseudospectrum(sample_covariance(block), geom, args.grid_step, args.num_sources)
        lines = ["angle_rad,pseudospectrum"]
        lines += [f"{a!r},{v!r}" for a, v in zip(spec.grid, spec.values)]
        Path(args.spectrum_csv).write_text("\n".join(lines) + "\n")
        print(f"wrote {args.spectrum_csv}")
    return 0


def _cmd_verify(args):
    acl = load_acl(args.acl)
    if args.identity not in acl:
        print(f"error: identity {args.identity!r} not in {args.acl}", file=sys.stderr)
        return 2
    profile = acl[args.identity]
    if args.input:
        block = read_signal_block(args.input)
        geom = ArrayGeometry(block.num_elements, args.spacing)
    else:
        geom, block = _synth_block(args)
    decision = verify(profile, block, geom, args.threshold, args.grid_step)
    verdict = "ACCEPT" if decision.accepted else "REJECT"
    print(
        f"{verdict}: measured {decision.measured_angle!r} rad, "
        f"deviation {decision.deviation!r} vs threshold {decision.threshold!r}"
    )
    if decision.diagnostic:
        print(f"diagnostic: {decision.diagnostic}")
    return 0 if decision.accepted else 1


def _cmd_sweep_far_frr(args):
    geom = ArrayGeometry(args.num_antennas, args.spacing)
    noise = NoiseModel.from_db(args.snr_db)
    attacker = AttackerConfig.single(args.theta_hat, args.beta, args.phi)
    thresholds = [float(v) for v in args.thresholds.split(",")]
    sweep = far_frr_sweep(
        geom,
        args.theta,
        attacker,
        noise,
        thresholds,
        args.trials,
        args.seed,
        num_snapshots=args.snapshots,
        grid_step=args.grid_step,
    )
    print("threshold_rad,far,frr")
    for thr, far, frr in sweep:
        print(f"{thr!r},{far!r},{frr!r}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="aoa-pla",
        description="AoA-based physical layer authentication simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reproduce", help="run a figure experiment, write CSV + SVG")
    p.add_argument("figure", help="figure id, e.g. fig3 or fig3d_same")
    p.add_argument("--seed", type=int, default=None, help="default: the config file's seed, else 0")
    p.add_argument("--out", default=None, help=f"output directory (default ${OUTPUT_DIR_ENV} or .)")
    p.add_argument("--config", default=None, help="key = value configuration file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a figure parameter")
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("attack-opt", help="optimal single-antenna attacker precoder")
    p.add_argument("--num-antennas", "--M", dest="num_antennas", type=int, required=True)
    p.add_argument("--spacing", type=float, default=0.5)
    p.add_argument("--theta", type=_parse_angle, required=True)
    p.add_argument("--theta-hat", type=_parse_angle, required=True)
    p.add_argument("--snr-alice-db", type=float, default=15.0)
    p.add_argument("--snr-eve-db", type=float, default=15.0)
    p.set_defaults(func=_cmd_attack_opt)

    p = sub.add_parser("music", help="estimate AoA from a file or a synthesized block")
    p.add_argument("--input", default=None, help="signal block file (header `M N`)")
    p.add_argument("--num-sources", type=int, default=1)
    p.add_argument("--grid-step", type=float, default=DEFAULT_GRID_STEP)
    p.add_argument("--spectrum-csv", default=None, help="also write the pseudospectrum")
    _add_synth_flags(p, with_attack=True)
    p.set_defaults(func=_cmd_music)

    p = sub.add_parser("verify", help="authenticate a block against an enrolled profile")
    p.add_argument("--acl", required=True, help="access control list file")
    p.add_argument("--identity", required=True)
    p.add_argument("--threshold", type=_parse_angle, required=True)
    p.add_argument("--input", default=None, help="signal block file")
    p.add_argument("--grid-step", type=float, default=DEFAULT_GRID_STEP)
    _add_synth_flags(p, with_attack=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep-far-frr", help="FAR/FRR over a threshold sweep")
    p.add_argument("--theta-hat", type=_parse_angle, required=True)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--phi", type=_parse_angle, default=0.0)
    p.add_argument("--thresholds", required=True, help="comma-separated thresholds in radians")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--grid-step", type=float, default=DEFAULT_GRID_STEP)
    _add_synth_flags(p)
    p.set_defaults(func=_cmd_sweep_far_frr)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError, DegenerateSpectrumError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
