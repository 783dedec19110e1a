"""Spans and counters around the layers of gkz1, installed from outside.

Every public function of each gkz1 module, plus the two private series
stages ``_phi_coefficients`` and ``_assemble``, is replaced by a wrapper in
every gkz1 namespace that holds it (``gkz1.series.coefficient_M`` as well as
``gkz1.coefficients.coefficient_M``).  Module-level names are looked up at
call time, so calls inside a module go through the wrappers too.  Only the
traced run installs this; untraced runs execute the program untouched.

A span records its name, start, end, parent span and problem id, and is
kept in memory until the worker writes all spans out.  A layer's self time
is the summed duration of its spans minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

# module -> layer name (metric names must start with a letter)
LAYERS = {
    "cli": "cli",
    "lattice": "lattice",
    "_linalg": "linalg",
    "exponents": "exponents",
    "coefficients": "coefficients",
    "series": "series",
    "verify": "verify",
    "classify": "classify",
}
PRIVATE_STAGES = {"series": ("_phi_coefficients", "_assemble")}


class Tracer:
    """Spans and counters of one worker process."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, problem id)
        self._stack: list[int] = []
        self.problem = None
        self.counts: Counter = Counter()
        self._coefficient_args: set = set()
        self._series: list = []

    def wrap(self, layer: str, name: str, fn):
        span_name = f"{layer}.{name}"
        spans, stack = self.spans, self._stack
        on_return = {
            "coefficients.coefficient_M": self._on_coefficient,
            "series._assemble": self._on_series,
            "exponents.fake_exponents": self._on_fakes,
            "verify.certify": self._on_certify,
        }.get(span_name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (span_name, start, end, parent, self.problem)
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def _on_coefficient(self, args, result):
        self._coefficient_args.add(args)

    def _on_series(self, args, result):
        self._series.append(result)

    def _on_fakes(self, args, result):
        self.counts["exponents.fake_count"] += len(result)

    def _on_certify(self, args, result):
        self.counts["verify.terms_checked"] += len(args[2].terms)

    def install(self, package: str = "gkz1") -> None:
        """Patch every namespace of the imported package."""
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == package or name.startswith(package + "."))
        }
        replacements = {}
        for module_name, layer in LAYERS.items():
            module = modules[f"{package}.{module_name}"]
            private = PRIVATE_STAGES.get(module_name, ())
            for name, value in vars(module).items():
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__ == module.__name__
                    and (not name.startswith("_") or name in private)
                ):
                    replacements[id(value)] = (value, self.wrap(layer, name, value))
        for module in modules.values():
            for name, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, name, hit[1])

    def finish_process(self) -> dict:
        """Counters of this process; clears the per-process sets."""
        counts = Counter(self.counts)
        counts["coefficients.distinct_args"] = len(self._coefficient_args)
        num_bits = den_bits = 0
        for series in self._series:
            counts["series.grid_points"] += len(series.terms)
            for c in series.terms.values():
                num_bits = max(num_bits, abs(c.numerator).bit_length())
                den_bits = max(den_bits, c.denominator.bit_length())
        counts["series.max_num_bits"] = num_bits
        counts["series.max_den_bits"] = den_bits
        self._coefficient_args.clear()
        self._series.clear()
        return dict(counts)


def layer_times(spans) -> dict:
    """Per-layer self seconds and boundary-crossing call counts.

    A call counts for a layer when its caller is outside that layer (or is
    the benchmark itself), so nested calls within a module count once.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = defaultdict(float)
    for index, (name, start, end, parent, _) in enumerate(spans):
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_s"] += (end - start) - child_time[index]
        if parent < 0 or spans[parent][0].split(".", 1)[0] != layer:
            out[f"{layer}.calls"] += 1
        if name == "coefficients.coefficient_M":
            out["coefficients.coefficient_M_calls"] += 1
    return dict(out)


def write_spans(spans, path) -> None:
    with open(path, "w") as handle:
        for index, (name, start, end, parent, problem) in enumerate(spans):
            handle.write(json.dumps([index, name, start, end, parent, problem]) + "\n")
