"""Command-line front end.

Subcommands: `reproduce <fig>`, `attack-opt`, `synth`, `music`, `verify`,
`sweep-far-frr`. Exit status is 0 on success; `verify` uses 0 = accept,
1 = reject, 2 = error. `reproduce` takes its seed from `--seed`
(default 0), its output directory from `--out` (default `.`) and figure
parameters from `--set`. `synth --out FILE` writes a signal block (from
`--theta`, or an attack from `--theta-hat`); `music` and `verify` read one
from `--input`.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .arrays import (
    ArrayGeometry,
    AttackerConfig,
    NoiseModel,
    SignalBlock,
    _check_legitimate_angle,
    _wrap_phase,
    synthesize_attack,
    synthesize_legitimate,
)
from .attack import optimal_precoders
from .auth import far_frr_sweep, load_acl, verify
from .experiments import ExperimentConfig, reproduce
from .music import DEFAULT_GRID_STEP, DegenerateSpectrumError, peak_angles, pseudospectrum, sample_covariance


def _parse_angle(text):
    """A finite angle: radians by default; a `deg` suffix converts from degrees."""
    text = text.strip()
    if text.endswith("deg"):
        value = math.radians(float(text[: -len("deg")].strip()))
    else:
        value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite angle {text!r}")
    return value


def _parse_angles(text):
    """Comma-separated `_parse_angle` values."""
    return [_parse_angle(v) for v in text.split(",")]


def write_signal_block(path, block):
    """Header `M N`, then N lines of M comma-separated complex literals."""
    m, n = block.samples.shape
    lines = [f"{m} {n}"]
    for col in block.samples.T:
        lines.append(",".join(_complex_literal(z) for z in col))
    Path(path).write_text("\n".join(lines) + "\n")


def _complex_literal(z):
    re, im = float(z.real), float(z.imag)
    sign = "-" if math.copysign(1.0, im) < 0 else "+"
    return f"{re!r}{sign}{abs(im)!r}j"


def _parse_rows(lines):
    """numpy's complex literals, comma-separated, one row per line; no comment syntax."""
    return np.loadtxt(lines, dtype=complex, delimiter=",", comments=None, ndmin=2)


def _parse_line(path, lineno, line, m):
    """One snapshot line as a 1 x M row; a wrong entry count or a bad literal names `path:line`."""
    count = line.count(",") + 1
    if count != m:
        raise ValueError(f"{path}:{lineno}: expected {m} entries, got {count}")
    try:
        return _parse_rows([line])
    except ValueError:
        raise ValueError(f"{path}:{lineno}: malformed complex literal in {line!r}") from None


def read_signal_block(path):
    """Parse a file written by `write_signal_block`; errors name `path:line`.

    Blank lines are skipped but counted. The body is parsed in one numpy
    pass; only when that fails is it parsed line by line, with the same
    parser, to name the first bad line. Non-finite samples are rejected
    here, where the block enters, so synthesized blocks are not checked again.
    """
    lines = [(no, ln) for no, ln in enumerate(Path(path).read_text().splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty signal block file")
    header_no, header = lines[0]
    try:
        m, n = (int(v) for v in header.split())
    except ValueError:
        m = n = 0
    if m < 1 or n < 1:
        raise ValueError(f"{path}:{header_no}: bad header line {header!r}")
    body = lines[1:]
    if len(body) != n:
        raise ValueError(f"{path}: header says {n} snapshots, file has {len(body)}")
    try:
        rows = _parse_rows([line for _, line in body])
    except ValueError:
        rows = None
    if rows is None or rows.shape != (n, m):
        rows = np.concatenate([_parse_line(path, lineno, line, m) for lineno, line in body])
    samples = rows.T
    finite = np.isfinite(samples).all(axis=0)
    if not finite.all():
        lineno = body[int(np.argmin(finite))][0]
        raise ValueError(f"{path}:{lineno}: non-finite sample")
    return SignalBlock(samples)


def _parse_seed(text):
    """An integer >= 0, the seed rule `reproduce` applies."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, got {text}")


def _add_synth_flags(parser, angles):
    """Synthesis flags. `--theta`, `--theta-hat` go into `angles`: `parser` (hat required) or an exclusive group."""
    parser.add_argument("--num-antennas", "--M", dest="num_antennas", type=int, default=16)
    parser.add_argument("--spacing", type=float, default=0.5, help="element spacing in wavelengths")
    angles.add_argument("--theta", type=_parse_angle, default=0.4)
    angles.add_argument("--theta-hat", type=_parse_angle, required=angles is parser, help="attack from this angle")
    # unset precoder flags stay None, so that `synth` sees one given without --theta-hat (`_precoder`)
    parser.add_argument("--beta", type=float)
    parser.add_argument("--phi", type=_parse_angle)
    parser.add_argument("--snr-db", type=float, default=15.0)
    parser.add_argument("--snapshots", type=int, default=2000)
    parser.add_argument("--seed", type=_parse_seed, default=0, help="integer >= 0 (default: %(default)s)")


def _cmd_reproduce(args):
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, raw = (part.strip() for part in item.split("=", 1))
        if key in overrides:
            raise ValueError(f"--set {key!r} given more than once")
        overrides[key] = _parse_override_value(key, raw)
    config = ExperimentConfig(figure_id=args.figure, seed=args.seed, overrides=overrides, output_dir=args.out)
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
            return _parse_angle(text)

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
        raise ValueError(
            f"bad value for --set {key!r}: {raw!r} (expected a finite number, an angle with a "
            "`deg` suffix, a comma-separated tuple of them, or `;`-separated tuples)"
        ) from None


def _cmd_attack_opt(args):
    _check_legitimate_angle(args.theta)
    geom = ArrayGeometry(args.num_antennas, args.spacing)
    noise = NoiseModel.from_db(args.snr_alice_db, args.snr_eve_db)
    opt = optimal_precoders(geom, args.theta, args.theta_hat)
    betas, delta = np.abs(opt.precoders), float(opt.delta)
    print(f"beta*        = {', '.join(map(repr, betas.tolist()))}")
    print(f"phi*         = {', '.join(map(repr, _wrap_phase(np.angle(opt.precoders)).tolist()))}")
    print(f"|q*|^2       = {float(betas @ betas)!r}")
    print(f"rank         = {opt.rank}")
    print(f"zeta*        = {delta + noise.floor!r}")
    print(f"floor gap    = {delta!r}")
    return 0


def _precoder(args):
    """The precoder flags given, as `AttackerConfig.single` keywords; it defaults the others."""
    return {name: value for name, value in (("beta", args.beta), ("phi", args.phi)) if value is not None}


def _cmd_synth(args):
    geom = ArrayGeometry(args.num_antennas, args.spacing)
    noise = NoiseModel.from_db(args.snr_db)
    if args.theta_hat is not None:
        attacker = AttackerConfig.single(args.theta_hat, **_precoder(args))
        block = synthesize_attack(geom, attacker, noise, args.snapshots, args.seed)
    elif _precoder(args):
        raise ValueError("--beta and --phi set the attack precoder; they need --theta-hat")
    else:
        block = synthesize_legitimate(geom, args.theta, noise, args.snapshots, args.seed)
    write_signal_block(args.out, block)
    print(f"wrote {args.out}")
    return 0


def _cmd_music(args):
    block = read_signal_block(args.input)
    geom = ArrayGeometry(block.num_elements, args.spacing)
    spec = pseudospectrum(sample_covariance(block), geom, args.grid_step, args.num_sources)
    for angle in peak_angles(spec, args.num_sources):
        print(f"estimated AoA: {angle!r} rad")
    if args.spectrum_csv:
        lines = ["angle_rad,pseudospectrum"]
        lines += [f"{a!r},{v!r}" for a, v in zip(spec.grid.tolist(), spec.values.tolist())]
        Path(args.spectrum_csv).write_text("\n".join(lines) + "\n")
        print(f"wrote {args.spectrum_csv}")
    return 0


def _cmd_verify(args):
    acl = load_acl(args.acl)
    if args.identity not in acl:
        raise ValueError(f"identity {args.identity!r} not in {args.acl}")
    block = read_signal_block(args.input)
    geom = ArrayGeometry(block.num_elements, args.spacing)
    decision = verify(acl[args.identity], block, geom, args.threshold, args.grid_step)
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
    attacker = AttackerConfig.single(args.theta_hat, **_precoder(args))
    sweep = far_frr_sweep(
        geom,
        args.theta,
        attacker,
        noise,
        args.thresholds,
        args.trials,
        args.seed,
        num_snapshots=args.snapshots,
        grid_step=args.grid_step,
    )
    print("threshold_rad,far,frr")
    for thr, far, frr in sweep:
        print(f"{thr!r},{far!r},{frr!r}")
    return 0


def _reproduce_flags(p):
    p.add_argument("figure", help="figure id, e.g. fig3 or fig3d_same")
    p.add_argument("--seed", type=_parse_seed, default=0, help="integer >= 0 (default: %(default)s)")
    p.add_argument("--out", default=".", help="output directory (default: %(default)s)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a figure parameter")


def _attack_opt_flags(p):
    p.add_argument("--num-antennas", "--M", dest="num_antennas", type=int, required=True)
    p.add_argument("--spacing", type=float, default=0.5)
    p.add_argument("--theta", type=_parse_angle, required=True)
    p.add_argument("--theta-hat", type=_parse_angles, required=True, help="comma-separated attacker antenna angles")
    p.add_argument("--snr-alice-db", type=float, default=15.0)
    p.add_argument("--snr-eve-db", type=float, default=15.0)


def _synth_flags(p):
    p.add_argument("--out", required=True, help="signal block file to write")
    _add_synth_flags(p, p.add_mutually_exclusive_group())


def _music_flags(p):
    p.add_argument("--input", required=True, help="signal block file (header `M N`)")
    p.add_argument("--spacing", type=float, default=0.5, help="element spacing in wavelengths")
    p.add_argument("--num-sources", type=int, default=1)
    p.add_argument("--grid-step", type=float, default=DEFAULT_GRID_STEP)
    p.add_argument("--spectrum-csv", default=None, help="also write the pseudospectrum")


def _verify_flags(p):
    p.add_argument("--acl", required=True, help="access control list file")
    p.add_argument("--identity", required=True)
    p.add_argument("--threshold", type=_parse_angle, required=True)
    p.add_argument("--input", required=True, help="signal block file")
    p.add_argument("--spacing", type=float, default=0.5, help="element spacing in wavelengths")
    p.add_argument("--grid-step", type=float, default=DEFAULT_GRID_STEP)


def _sweep_far_frr_flags(p):
    p.add_argument(
        "--thresholds", type=_parse_angles, required=True, help="comma-separated thresholds in radians, or with `deg`"
    )
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--grid-step", type=float, default=DEFAULT_GRID_STEP)
    _add_synth_flags(p, p)


# (name, help, flag builder, handler) of each subcommand, in help order
COMMANDS = (
    ("reproduce", "run a figure experiment, write CSV + SVG", _reproduce_flags, _cmd_reproduce),
    ("attack-opt", "least-squares attacker precoders and the MSE they reach", _attack_opt_flags, _cmd_attack_opt),
    ("synth", "write a synthesized signal block, legitimate or attack", _synth_flags, _cmd_synth),
    ("music", "estimate AoA from a signal block file", _music_flags, _cmd_music),
    ("verify", "authenticate a signal block file against an enrolled profile", _verify_flags, _cmd_verify),
    ("sweep-far-frr", "FAR/FRR over a threshold sweep", _sweep_far_frr_flags, _cmd_sweep_far_frr),
)
_NAMES = tuple(name for name, *_ in COMMANDS)


def build_parser(command=None):
    """The `aoa-pla` parser; when `command` names a subcommand, only that subparser is built.

    Either way the top-level usage lists all six subcommands, so help,
    usage and error text do not depend on `command`. Anything that is not
    a subcommand name gets all six, so `--help`, a missing and an unknown
    command read as they always have.
    """
    only = command in _NAMES
    parser = argparse.ArgumentParser(
        prog="aoa-pla",
        description="AoA-based physical layer authentication simulator",
    )
    # argparse derives this metavar from the choices; it is spelled out only when not all are built
    metavar = "{" + ",".join(_NAMES) + "}" if only else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, help_text, add_flags, run in COMMANDS:
        if not only or name == command:
            p = sub.add_parser(name, help=help_text)
            add_flags(p)
            p.set_defaults(func=run)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, DegenerateSpectrumError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
