"""Span tracer installed from outside the library.

``Tracer.install`` wraps the public functions of the traced modules and
rebinds every module attribute that refers to one of them, in every loaded
``clique_extremal`` module. That catches ``from .params import ...`` copies
in ``suite`` and ``cli`` and function tuples such as ``suite.CHECKS``.
``Tracer.restore`` puts every original back.

Spans (name, start, end, parent, operation id) stay in memory; the
aggregates are computed once, after the traced run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

PACKAGE = "clique_extremal"

# One layer per module. ``graph`` is left out on purpose: its methods run in
# the inner loops of every search, so a wrapper there would mostly time
# itself; its cost shows in the self time of its callers. ``limits`` and
# ``errors`` do no measurable work.
LAYERS = ("cli", "suite", "params", "cliques", "embed", "bounds", "formats", "constructions")

# Public bound evaluators that the optimizers and ``g_bound`` call once per
# candidate, tens of thousands of times per operation. Like ``graph``, they
# stay unwrapped: their cost belongs to the search that calls them.
INNER = {"bounds.case1_rate", "bounds.case1_exponent", "bounds.case2_exponent", "bounds.g_case_log2"}

# A span is [name, start, end, parent index or -1, operation id].
NAME, START, END, PARENT = range(4)


def _bytes_read(args, result):
    return len(args[0])


def _bytes_written(args, result):
    return len(result)


# Text size moved by each format function, reported as ``formats.<fn>.bytes``.
BYTES = {
    "formats.read_graph6": _bytes_read,
    "formats.read_edge_list": _bytes_read,
    "formats.write_graph6": _bytes_written,
    "formats.write_edge_list": _bytes_written,
}


def public_functions(module) -> dict[str, object]:
    """Functions defined in ``module`` whose names do not start with ``_``."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    }


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children count once)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, reach)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.bytes: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        sizer = BYTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if sizer is not None:
                self.bytes[name] += sizer(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of ``LAYERS`` and rebind every reference
        to them held by a loaded module of the package."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in public_functions(module).items():
                if f"{layer}.{name}" not in INNER:
                    wrappers[fn] = self._wrap(fn, f"{layer}.{name}")
        modules = [m for key, m in sys.modules.items() if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    replacement = wrappers[value]
                elif isinstance(value, tuple) and any(inspect.isfunction(v) and v in wrappers for v in value):
                    replacement = tuple(wrappers.get(v, v) if inspect.isfunction(v) else v for v in value)
                else:
                    continue
                self._saved.append((module, attr, value))
                setattr(module, attr, replacement)

    def restore(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent, op."""
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per function name: ``calls``, ``self_s`` and, for the format
        functions, ``bytes``; plus ``params.t_param.searches_per_call``."""
        stats: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for span, own in zip(self.spans, self_times(self.spans)):
            entry = stats[span[NAME]]
            entry["calls"] += 1
            entry["self_s"] += own
        for name, total in self.bytes.items():
            stats[name]["bytes"] = total
        searches = sum(
            1
            for span in self.spans
            if span[NAME] == "params.min_tset_missing"
            and span[PARENT] >= 0
            and self.spans[span[PARENT]][NAME] == "params.t_param"
        )
        t_calls = stats["params.t_param"]["calls"]
        stats["params.t_param"]["searches_per_call"] = searches / t_calls if t_calls else 0.0
        return dict(stats)
