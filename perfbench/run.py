"""aoa-pla benchmark: one workload, one seed, one run of `--seconds` seconds.

    python3 perfbench/run.py --workload closed_form_figs --seed 0 --seconds 25 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`. With `--trace 0` the last stdout line holds the
end-to-end metrics of BENCHMARK.json, with `--trace 1` its per-layer
metrics. The exit code is 0 only when every output passed the
correctness gate. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import envinfo

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench-run"
SETUP_PROBES = 5  # fresh processes per run whose set-up time is measured; setup_s is their median
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def probe_setup(args):
    """Wall time of SETUP_PROBES fresh processes, each importing, generating inputs and warming up."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        samples.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit {done.returncode}:\n{done.stderr}")
    return samples


def measure(workload, seconds, trace, tracer):
    """[(traced, outcomes)] for passes repeated while the next one would end
    within half a pass of `seconds`, so a run measures `seconds` on average.

    With tracing, passes alternate untraced / traced so both see the same
    machine state; per-layer numbers come from the traced ones.
    """
    passes, elapsed = [], []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        begin = time.perf_counter()
        if traced:
            with tracer.installed():
                got = workload.run_pass()
        else:
            got = workload.run_pass()
        elapsed.append(time.perf_counter() - begin)
        passes.append((traced, got))
        if time.perf_counter() - start + statistics.median(elapsed) / 2 > seconds and (not trace or len(passes) >= 2):
            return passes


def pass_walls(passes, traced):
    return [sum(o.latency_s for o in got) for is_traced, got in passes if is_traced == traced]


def robust_pass_wall(passes):
    """Wall time of one pass: the sum over its operations of each one's median latency.

    Per-operation medians shrug off a slow spell that hits one call, where
    the median of whole-pass sums needs the whole pass to be clean.
    """
    by_op = {}
    for traced, got in passes:
        if not traced:
            for out in got:
                by_op.setdefault(out.label, []).append(out.latency_s)
    return sum(statistics.median(values) for values in by_op.values())


def per_layer_metrics(tracer, passes):
    """Per traced pass: calls, self time and counters of every layer, plus trace overhead."""
    totals = tracer.summary()
    traced_walls = pass_walls(passes, True)
    out = {key: value / len(traced_walls) for key, value in totals.items() if not key.endswith(".useful")}
    calls = totals["music.estimate_aoa.calls"]
    out["music.estimate_aoa.useful_ratio"] = totals.get("music.estimate_aoa.useful", 0) / calls if calls else 0.0
    out["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(pass_walls(passes, False))
    return out


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def report_lines(workload_name, workload, passes, failed):
    """Human-readable lines naming each user-facing figure with its unit; times from untraced passes."""
    untraced = [o for traced, got in passes if not traced for o in got]
    latencies = [o.latency_s for o in untraced]
    attempted = sum(len(got) for _, got in passes)
    lines = []
    checks = workload.checks_report()
    for fig, name, passed, detail in checks:
        lines.append(f"check {fig}:{name} {'PASS' if passed else 'FAIL'}  ({detail})")
    lines.append(f"metric checks_failed = {sum(not c[2] for c in checks)} count")
    lines.append(f"metric failed_frac = {failed / attempted!r} ratio ({failed} of {attempted} operations)")
    lines.append(f"info untraced passes = {len(pass_walls(passes, False))}, operations = {attempted}")
    if workload_name == "verify_stream":
        lines.append(f"metric verify_p50_ms = {1e3 * statistics.median(latencies)!r} ms (n={len(latencies)})")
        if len(latencies) >= 1000:
            lines.append(f"metric verify_p99_ms = {1e3 * percentile(latencies, 0.99)!r} ms (n={len(latencies)})")
        else:
            lines.append(f"metric verify_p99_ms = n/a (n={len(latencies)} < 1000)")
        lines.append(f"metric verifies_per_s = {len(latencies) / sum(latencies)!r} 1/s")
        codes = [o.payload.get("rc") for o in untraced]
        lines.append(f"info decisions: {codes.count(0)} accept, {codes.count(1)} reject, "
                     f"{len(codes) - codes.count(0) - codes.count(1)} other")
    else:
        by_figure = {}
        for out in untraced:
            by_figure.setdefault(out.label, []).append(out.latency_s)
        for fig, values in by_figure.items():
            lines.append(f"info {fig} median = {statistics.median(values)!r} s (n={len(values)})")
    return lines


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "aoa_pla" / "__init__.py").is_file():
        print(f"error: no aoa_pla package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    envinfo.cap_blas_threads()
    sys.path.insert(0, str(SRC))

    import gate
    import tracer as tracer_module
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    RUN_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]()
    if args.setup_probe:
        workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=RUN_DIR))
        try:
            workload.setup(args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    setup_samples = [] if args.trace else probe_setup(args)
    reference = gate.load_reference()
    tracer = tracer_module.Tracer() if args.trace else None
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR))
    try:
        workload.setup(args.seed, workdir)
        passes = measure(workload, args.seconds, args.trace, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        outcomes = [o for _, got in passes for o in got]
        problems = workload.problems(outcomes, reference)
        selftest_case, selftest_fired = workload.selftest(outcomes, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        computed = per_layer_metrics(tracer, passes)
        wanted = spec["per_layer"]
    else:
        computed = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": robust_pass_wall(passes),
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        name = m["name"]
        if args.trace and name not in computed:
            # a counter its layer never bumped: zero, if the layer is a traced one
            if not name.startswith(tuple(f"{span}." for span in tracer_module.SPAN_NAMES)):
                raise KeyError(f"BENCHMARK.json names unknown metric {name!r}")
            computed[name] = 0
        metrics[name] = {"value": computed[name], "unit": m["unit"]}

    failed = sum(bool(p) for p in problems)
    correct = failed == 0 and bool(selftest_fired)
    env = envinfo.environment(ROOT, args.seed)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    if setup_samples:
        print(f"info setup probes = {[round(s, 4) for s in setup_samples]} s")
    for line in report_lines(args.workload, workload, passes, failed):
        print(line)
    if args.trace:
        hook_errors = tracer.counters.get("trace.hook_errors", 0)
        print(f"info traced passes = {len(pass_walls(passes, True))}, counter hook errors = {hook_errors}")
    for out, found in zip(outcomes, problems):
        for problem in found[:3]:
            print(f"GATE FAIL {out.label}: {problem}")
    print(f"gate self-test: {selftest_case} -> {'fired' if selftest_fired else 'DID NOT FIRE'}"
          + (f" ({selftest_fired[0]})" if selftest_fired else ""))
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']!r} {metric['unit']}")

    results = RUN_DIR / "results"
    results.mkdir(exist_ok=True)
    record = {"workload": args.workload, "env": env, "setup_samples_s": setup_samples,
              "pass_walls_s": pass_walls(passes, False), "traced_pass_walls_s": pass_walls(passes, True),
              "metrics": metrics,
              "correct": correct, "attempted": len(outcomes), "failed": failed}
    (results / f"{args.workload}__seed{args.seed}__trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        import numpy as np

        np.savez_compressed(results / f"{args.workload}__spans.npz", span_names=np.array(tracer_module.SPAN_NAMES),
                            **tracer.span_arrays())
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
