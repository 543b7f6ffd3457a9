"""Outside-in layer tracing of the `aoa_pla` public functions.

`Tracer.installed()` replaces each traced function at every name that
binds it inside the package (for example `experiments.mse_closed_form`
and `attack.mse_closed_form` for the one function), and puts the
originals back on exit. Each call records a span (name, start, end,
parent) in flat in-memory arrays and bumps the counters its hook derives
from the arguments or the result. Nothing in the package is edited.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_synthesis(c, name, args, kwargs, result, exc):
    if result is not None:
        c[f"{name}.samples"] += result.samples.size


def _count_covariance(c, name, args, kwargs, result, exc):
    m, n = _arg(args, kwargs, 0, "block").samples.shape
    c[f"{name}.flops_computed"] += 8 * m * m * n  # one complex multiply-add is 8 real flops


def _count_pseudospectrum(c, name, args, kwargs, result, exc):
    if result is not None:
        c[f"{name}.manifold_entries_computed"] += _arg(args, kwargs, 1, "geom").num_elements * result.grid.size


def _count_estimate(c, name, args, kwargs, result, exc):
    if exc is not None and type(exc).__name__ == "DegenerateSpectrumError":
        c[f"{name}.degenerate"] += 1
    elif result is not None:
        c[f"{name}.useful"] += 1


def _count_gram(c, name, args, kwargs, result, exc):
    size = len(_arg(args, kwargs, 1, "angles"))
    c[f"{name}.entries_computed"] += size * (size - 1) // 2


def _count_monte_carlo(c, name, args, kwargs, result, exc):
    noise = _arg(args, kwargs, 3, "noise")
    links = sum(not math.isinf(s) for s in (noise.snr_legit, noise.snr_attacker))
    c[f"{name}.normals_computed"] += (
        links * _arg(args, kwargs, 0, "geom").num_elements * _arg(args, kwargs, 4, "trials")
    )


def _count_verify(c, name, args, kwargs, result, exc):
    if result is not None:
        c[f"{name}.accepted"] += bool(result.accepted)
        c[f"{name}.degenerate"] += result.diagnostic.startswith("degenerate")


def _count_read_block(c, name, args, kwargs, result, exc):
    if result is not None:
        c[f"{name}.entries"] += result.samples.size


def _count_csv(c, name, args, kwargs, result, exc):
    if exc is None:
        c[f"{name}.bytes"] += Path(_arg(args, kwargs, 1, "path")).stat().st_size


def _count_svg(c, name, args, kwargs, result, exc):
    if result is not None:
        c[f"{name}.bytes"] += len(result)


def _count_checks(c, name, args, kwargs, result, exc):
    if result is not None:
        c[f"{name}.failed"] += sum(not check.passed for check in result)


# (defining module, function, counter hook); the span name is "module.function"
TRACED = (
    ("arrays", "synthesize_legitimate", _count_synthesis),
    ("arrays", "synthesize_attack", _count_synthesis),
    ("arrays", "steering_vector", None),
    ("music", "sample_covariance", _count_covariance),
    ("music", "hermitian_eig", None),
    ("music", "pseudospectrum", _count_pseudospectrum),
    ("music", "estimate_aoa", _count_estimate),
    ("attack", "mse_closed_form", None),
    ("attack", "gram_matrix", _count_gram),
    ("attack", "monte_carlo_mse", _count_monte_carlo),
    ("auth", "verify", _count_verify),
    ("auth", "load_acl", None),
    ("cli", "main", None),
    ("cli", "read_signal_block", _count_read_block),
    ("experiments", "reproduce", None),
    ("experiments", "run_figure", None),
    ("experiments", "evaluate_checks", _count_checks),
    ("experiments", "write_csv", _count_csv),
    ("experiments", "emit_plot", None),
    ("svgfig", "line_chart", _count_svg),
    ("svgfig", "surface_chart", _count_svg),
)

SPAN_NAMES = tuple(f"{module}.{func}" for module, func, _ in TRACED)


def binding_sites(package="aoa_pla"):
    """{span name: [(module object, attribute)]} for every name bound to a traced function."""
    modules = [m for key, m in sorted(sys.modules.items()) if key == package or key.startswith(package + ".")]
    sites = {}
    for module_name, func_name, _ in TRACED:
        original = getattr(sys.modules[f"{package}.{module_name}"], func_name)
        sites[f"{module_name}.{func_name}"] = [
            (m, attr) for m in modules for attr, value in vars(m).items() if value is original
        ]
    return sites


class Tracer:
    def __init__(self):
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = defaultdict(int)
        self._stack = []

    def _wrap(self, span_id, name, func, hook):
        counters = self.counters
        stack = self._stack
        clock = time.perf_counter
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(span_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(math.nan)
            stack.append(index)
            result = exc = None
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                ends[index] = clock()
                stack.pop()
                if hook is not None:
                    try:
                        hook(counters, name, args, kwargs, result, exc)
                    except (AttributeError, IndexError, KeyError, TypeError, OSError):
                        # a changed signature must not break the traced call
                        counters["trace.hook_errors"] += 1

        return traced

    @contextmanager
    def installed(self):
        """Trace every binding site while the block runs; restore the originals after."""
        restore = []
        sites = binding_sites()
        try:
            for span_id, ((_, _, hook), name) in enumerate(zip(TRACED, SPAN_NAMES)):
                for module, attr in sites[name]:
                    original = getattr(module, attr)
                    restore.append((module, attr, original))
                    setattr(module, attr, self._wrap(span_id, name, original, hook))
            yield self
        finally:
            for module, attr, original in reversed(restore):
                setattr(module, attr, original)

    def span_arrays(self):
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self):
        """{"<span>.calls", "<span>.self_s", counters...} totals over every recorded span.

        Self time is a span's duration minus the durations of its direct
        children; calls in one thread nest, so children never overlap.
        """
        spans = self.span_arrays()
        count = len(spans["start"])
        duration = spans["end"] - spans["start"]
        child_time = np.bincount(spans["parent"] + 1, weights=duration, minlength=count + 1)[1:]
        self_time = duration - child_time
        calls = np.bincount(spans["name_id"], minlength=len(SPAN_NAMES))
        busy = np.bincount(spans["name_id"], weights=self_time, minlength=len(SPAN_NAMES))
        out = dict(self.counters)
        for i, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(busy[i])
        return out
