"""Spans around the calls between betaspec's layers, recorded from outside.

The tracer replaces a public function at the module attribute through which
the layer above calls it (``betaspec.cli.eigenvalues`` for the CLI's calls
into ``spectra``, ``betaspec.spectra.solve_all`` for ``spectra``'s calls
into ``rootfind``, and so on) with a wrapper that records a span: name,
start, end and parent.  The package's code is not changed, and
:meth:`Tracer.uninstall` puts every original back.  Counts come from the
public return values of the wrapped calls.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import time

# (module whose attribute is replaced, attribute, span name).  The span name's
# first part is the layer that does the work.
BOUNDARIES = (
    ("cli", "run", "cli.run"),
    ("cli", "eigenvalues", "spectra.eigenvalues"),
    ("cli", "cluster_count", "spectra.cluster_count"),
    ("cli", "find_outliers", "spectra.find_outliers"),
    ("cli", "singular_values", "spectra.singular_values"),
    ("cli", "weyl_sum", "spectra.weyl_sum"),
    ("cli", "cluster_csv", "spectra.cluster_csv"),
    ("cli", "outlier_csv", "spectra.outlier_csv"),
    ("cli", "weyl_csv", "spectra.weyl_csv"),
    ("cli", "charpoly_closed_form", "charpoly.charpoly_closed_form"),
    ("cli", "poly_to_json", "charpoly.poly_to_json"),
    ("cli", "beta1_table_csv", "limitcase.beta1_table_csv"),
    ("cli", "lambda_max_beta1", "limitcase.lambda_max_beta1"),
    ("cli", "power_method_trace", "limitcase.power_method_trace"),
    ("cli", "first_component_reference", "limitcase.first_component_reference"),
    ("cli", "decimal_str", "numerics.decimal_str"),
    ("spectra", "solve_all", "rootfind.solve_all"),
    ("spectra", "refine_real_root_reported", "rootfind.refine_real_root_reported"),
    ("spectra", "charpoly_closed_form", "charpoly.charpoly_closed_form"),
    ("spectra", "decimal_str", "numerics.decimal_str"),
    ("limitcase", "lambda_max_beta1", "limitcase.lambda_max_beta1"),
    ("limitcase", "decimal_str", "numerics.decimal_str"),
    ("rootfind", "decimal_str", "numerics.decimal_str"),
    ("rootfind", "mpf_from", "numerics.mpf_from"),
    ("rootfind", "mpc_from", "numerics.mpc_from"),
    ("charpoly", "decimal_str", "numerics.decimal_str"),
    ("charpoly", "mpf_from", "numerics.mpf_from"),
    ("charpoly", "mpc_from", "numerics.mpc_from"),
)

CONVERT = ("numerics.mpf_from", "numerics.mpc_from")
SPECTRA_SELF = ("spectra.find_outliers", "spectra.cluster_count", "spectra.eigenvalues")
LADDER_BASE_BITS = 256

# Per-layer metrics: name -> (unit, better).  Every traced run reports all of them.
LAYER_METRICS = {
    "rootfind.solve_s": ("s", "lower"),
    "rootfind.self_s": ("s", "lower"),
    "rootfind.roots_per_s": ("roots/s", "higher"),
    "rootfind.sweeps": ("count", "lower"),
    "rootfind.levels": ("count", "lower"),
    "rootfind.refine_s": ("s", "lower"),
    "rootfind.refine_bits": ("bits", "lower"),
    "numerics.convert_s": ("s", "lower"),
    "numerics.convert_calls": ("count", "lower"),
    "numerics.format_s": ("s", "lower"),
    "charpoly.build_s": ("s", "lower"),
    "spectra.singvals_s": ("s", "lower"),
    "spectra.weyl_s": ("s", "lower"),
    "spectra.self_s": ("s", "lower"),
    "limitcase.self_s": ("s", "lower"),
    "limitcase.power_iterations": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def _ladder_levels(bits: int) -> int:
    """Levels of the doubling ladder from 256 bits up to ``bits``."""
    return int(round(math.log2(bits / LADDER_BASE_BITS))) + 1


def _counts_from(name: str, result, counts: dict) -> None:
    if name == "rootfind.solve_all":
        counts["roots"] += len(result.roots)
        counts["sweeps"] += result.iterations
        counts["levels"] += _ladder_levels(result.precision_used)
    elif name == "rootfind.refine_real_root_reported":
        counts["refine_bits"] += result[1]
    elif name == "limitcase.lambda_max_beta1":
        counts["power_iterations"] += result.iterations
    elif name == "limitcase.power_method_trace":
        counts["power_iterations"] += len(result.iterates) - 1


class Tracer:
    """In-memory span recorder for one traced round of operations."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index]
        self._stack = []
        self.counts = dict.fromkeys(("roots", "sweeps", "levels", "refine_bits",
                                     "power_iterations"), 0)
        self._originals = []

    def install(self) -> None:
        for mod_name, attr, span_name in BOUNDARIES:
            module = importlib.import_module(f"betaspec.{mod_name}")
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            _counts_from(name, result, counts)
            return result

        return wrapper

    def layer_metrics(self) -> dict:
        """Per-layer numbers of this round (``trace.overhead_pct`` excluded)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = dict.fromkeys(("solve", "refine", "convert", "format", "build",
                               "singvals", "weyl"), 0.0)
        self_time = {"rootfind": 0.0, "spectra": 0.0, "limitcase": 0.0, "cli": 0.0}
        convert_calls = 0
        for (name, start, end, _), kids in zip(self.spans, child):
            dur = end - start
            layer = name.split(".", 1)[0]
            if name == "rootfind.solve_all":
                total["solve"] += dur
            elif name == "rootfind.refine_real_root_reported":
                total["refine"] += dur
            elif name in CONVERT:
                total["convert"] += dur
                convert_calls += 1
            elif name == "numerics.decimal_str":
                total["format"] += dur
            elif name == "charpoly.charpoly_closed_form":
                total["build"] += dur
            elif name == "spectra.singular_values":
                total["singvals"] += dur
            elif name == "spectra.weyl_sum":
                total["weyl"] += dur
            if layer == "spectra" and name not in SPECTRA_SELF:
                continue
            if layer in self_time:
                self_time[layer] += dur - kids
        c = self.counts
        return {
            "rootfind.solve_s": total["solve"],
            "rootfind.self_s": self_time["rootfind"],
            "rootfind.roots_per_s": c["roots"] / total["solve"] if total["solve"] else 0.0,
            "rootfind.sweeps": c["sweeps"],
            "rootfind.levels": c["levels"],
            "rootfind.refine_s": total["refine"],
            "rootfind.refine_bits": c["refine_bits"],
            "numerics.convert_s": total["convert"],
            "numerics.convert_calls": convert_calls,
            "numerics.format_s": total["format"],
            "charpoly.build_s": total["build"],
            "spectra.singvals_s": total["singvals"],
            "spectra.weyl_s": total["weyl"],
            "spectra.self_s": self_time["spectra"],
            "limitcase.self_s": self_time["limitcase"],
            "limitcase.power_iterations": c["power_iterations"],
            "cli.self_s": self_time["cli"],
        }

    def write(self, fh, round_index: int, t0: float) -> None:
        """Append this round's spans as JSON lines, times relative to ``t0``."""
        for idx, (name, start, end, parent) in enumerate(self.spans):
            fh.write(json.dumps({"round": round_index, "id": idx, "parent": parent,
                                 "name": name, "start": round(start - t0, 9),
                                 "end": round(end - t0, 9)}) + "\n")
