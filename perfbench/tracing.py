"""Spans around calls into each toricsum layer, recorded from outside.

:class:`Tracer` wraps public functions of the program's modules at their
module attributes and at every name other ``toricsum`` modules bound to
them with ``from .x import``, so calls made inside the program are seen
too.  Each wrapped call is a span with a name, start, end, parent span and
op id; spans are kept in memory and written out when the run ends.  Hot
leaf-like calls (``evaluate``, the rewrite search) are aggregated per
(function, parent) pair instead of kept one by one.

Self time is a span's duration minus the time its child spans cover.
Nothing under ``src/`` is edited; :meth:`Tracer.uninstall` restores every
attribute it replaced.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction
from math import comb
from typing import Any, Callable, Optional

from toricsum.exact_linalg import IntegerMatrix, LatticeBasis, RationalMatrix, SmithDecomposition

# (module, function, group, hot).  A group is the unit the metrics report;
# a hot function is aggregated instead of kept as one span per call.
WRAPPED = (
    ("exact_linalg", "rank", "exact_linalg.rank", False),
    ("exact_linalg", "independent_rows", "exact_linalg.rank", False),
    ("exact_linalg", "extend_to_basis", "exact_linalg.rank", False),
    ("exact_linalg", "solve_row_rational", "exact_linalg.solve_row_rational", False),
    ("exact_linalg", "inverse_and_clear", "exact_linalg.inverse_and_clear", False),
    ("exact_linalg", "hermite_normal_form", "exact_linalg.normal_form", False),
    ("exact_linalg", "smith_normal_form", "exact_linalg.normal_form", False),
    ("exact_linalg", "kernel_lattice", "exact_linalg.normal_form", False),
    ("exact_linalg", "saturate_lattice", "exact_linalg.normal_form", False),
    ("parametrization", "homogeneity_certificate", "parametrization.homogeneity_certificate", False),
    ("parametrization", "normalize_pin", "parametrization.normalize_pin", False),
    ("parametrization", "parametrization_from_lattice", "parametrization.from_lattice", False),
    ("parametrization", "evaluate", "parametrization.evaluate", True),
    ("sums", "sum_family", "sums.sum_family", False),
    ("sums", "sum_shared", "sums.sum_shared", False),
    ("oracle", "enumerate_kernel_binomials", "oracle.enumerate", False),
    ("oracle", "reduces_to_zero", "oracle.rewrite", True),
    ("oracle", "rewrite_chain", "oracle.rewrite", True),
    ("oracle", "certify_presentation", "oracle.certify", False),
    ("cli", "parse_ideal_file", "cli.parse_ideal_file", False),
    ("cli", "main", "cli.main", False),
    ("binomials", "parse_binomial", "binomials.text", False),
    ("binomials", "relabel_binomial", "binomials.text", False),
    ("binomials", "format_binomial", "binomials.text", True),
    ("binomials", "format_monomial", "binomials.text", True),
)

LAYERS = ("exact_linalg", "parametrization", "sums", "oracle", "cli", "binomials")


def entry_bits(value: Any) -> int:
    """Largest entry bit length in the matrices inside a returned value."""
    if isinstance(value, IntegerMatrix):
        return max((abs(x).bit_length() for row in value.entries for x in row), default=0)
    if isinstance(value, RationalMatrix):
        return max(
            (max(abs(x.numerator).bit_length(), x.denominator.bit_length())
             for row in value.entries for x in row),
            default=0,
        )
    if isinstance(value, LatticeBasis):
        return max((abs(x).bit_length() for v in value.vectors for x in v), default=0)
    if isinstance(value, SmithDecomposition):
        return max(entry_bits(value.D), entry_bits(value.P), entry_bits(value.Q))
    if isinstance(value, tuple) and value and not isinstance(value[0], (int, Fraction)):
        return max(entry_bits(v) for v in value)
    return 0


class _Frame:
    __slots__ = ("id", "name", "start", "child_s")

    def __init__(self, span_id: int, name: str, start: float):
        self.id = span_id
        self.name = name
        self.start = start
        self.child_s = 0.0


class Tracer:
    """Records spans and per-layer counters while installed and enabled."""

    def __init__(self) -> None:
        self.enabled = False
        self.op_id = 0
        # (id, group, function, start, end, parent id, op id, self seconds)
        self.spans: list[tuple] = []
        # (function, group, parent group) -> [calls, inclusive seconds, self seconds]
        self.hot: dict[tuple[str, str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, int] = defaultdict(int)
        self.family_times: list[tuple[int, float]] = []  # (k, sum_family seconds)
        self._stack: list[_Frame] = []
        self._next_id = 1
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items()) if n == "toricsum" or n.startswith("toricsum.")]
        for mod_name, func_name, group, hot in WRAPPED:
            module = sys.modules[f"toricsum.{mod_name}"]
            original = getattr(module, func_name)
            wrapper = self._wrap(original, f"{mod_name}.{func_name}", group, hot)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._saved.append((m, attr, original))
                        setattr(m, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._saved):
            setattr(m, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, group: str, hot: bool) -> Callable:
        tracer = self
        matrix_result = name.startswith("exact_linalg.")
        clock = time.perf_counter
        observe = _OBSERVERS.get(fn.__name__)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = _Frame(tracer._next_id, group, clock())
            tracer._next_id += 1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            tracer._record(frame, name, parent, end, hot)
            if matrix_result:
                bits = entry_bits(result)
                if bits > tracer.maxima["exact_linalg.max_entry_bits"]:
                    tracer.maxima["exact_linalg.max_entry_bits"] = bits
            if observe is not None:
                observe(tracer, args, kwargs, result)
            if parent is not None:
                # The parent's self time excludes this bookkeeping.
                parent.child_s += clock() - end
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _record(self, frame: _Frame, name: str, parent: Optional[_Frame], end: float, hot: bool) -> None:
        duration = end - frame.start
        self_s = duration - frame.child_s
        group = frame.name
        parent_name = parent.name if parent is not None else "op"
        if parent is not None:
            parent.child_s += duration
        if hot:
            agg = self.hot[(name, group, parent_name)]
            agg[0] += 1
            agg[1] += duration
            agg[2] += self_s
        else:
            self.spans.append((
                frame.id, group, name, frame.start, end,
                parent.id if parent is not None else 0, self.op_id, self_s,
            ))
        # Calls are counted where the group is entered from outside.
        if parent_name != group:
            self.counters[f"{group}.calls"] += 1
        if group == "oracle.enumerate" and parent_name == "sums.sum_shared":
            self.counters["sums.usage_check.incl_s"] += duration

    def reset(self) -> None:
        self.spans.clear()
        self.hot.clear()
        self.counters.clear()
        self.maxima.clear()
        self.family_times.clear()

    # -- reporting ----------------------------------------------------------

    def self_by_group(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span[1]] += span[7]
        for (_, group, _), (_, _, self_s) in self.hot.items():
            out[group] += self_s
        return out

    def calls(self, group: str) -> float:
        return self.counters.get(f"{group}.calls", 0.0)

    def write(self, path: str) -> None:
        """Write spans (one JSON object per line) and hot aggregates, gzipped."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span_id, group, name, start, end, parent, op, self_s in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": name, "group": group, "start": start, "end": end,
                    "parent": parent, "op": op, "self_s": self_s,
                }) + "\n")
            for (name, group, parent), (calls, incl, self_s) in sorted(self.hot.items()):
                out.write(json.dumps({
                    "aggregate": name, "group": group, "parent": parent, "calls": calls,
                    "incl_s": incl, "self_s": self_s,
                }) + "\n")


# Counters read from a wrapped call's arguments and result.

def _observe_pin(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    key = "parametrization.pin_exponent_max"
    tracer.maxima[key] = max(tracer.maxima[key], result.exponent)


def _observe_shared(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.maxima["sums.gamma_max"] = max(tracer.maxima["sums.gamma_max"], result.gamma)


def _observe_enumerate(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    p, bound = args[0], args[1]
    n = len(p.vars)
    # Sum over degrees e of C(n+e-1, e), the monomials the search visits.
    tracer.counters["oracle.monomials_enumerated"] += sum(
        comb(n + e - 1, e) for e in range(1, bound.max_degree + 1))
    tracer.counters["oracle.kernel_binomials_found"] += len(result)


def _observe_reduces(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["oracle.rewrite.attempts"] += 1
    tracer.counters["oracle.rewrite.hits"] += bool(result)


def _observe_chain(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    if result is not None:
        tracer.counters["oracle.rewrite.chain_steps"] += len(result)


def _observe_family(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    # The sum_family span was the last one recorded.
    start, end = tracer.spans[-1][3:5]
    tracer.family_times.append((len(args[0]), end - start))


_OBSERVERS: dict[str, Optional[Callable]] = {
    "normalize_pin": _observe_pin,
    "sum_shared": _observe_shared,
    "enumerate_kernel_binomials": _observe_enumerate,
    "reduces_to_zero": _observe_reduces,
    "rewrite_chain": _observe_chain,
    "sum_family": _observe_family,
}
