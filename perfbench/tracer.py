"""Out-of-process tracing driver: one CLI request with a span around each layer call.

Usage: python3 tracer.py SPANS.json CLI-ARG...

The driver imports the package, wraps each public function in LAYERS in every
`canonical_lie` module namespace that binds it (`canonical` and `cli` bind
them through `from ... import`), runs `cli.main(CLI-ARG...)` and, when the
request ends, writes the spans it kept in memory to SPANS.json, with the time
the tracer spent on itself (wrapping and encoding the spans).  The program
itself is not changed.  `sonreal.realize` is wrapped outside its lru_cache,
so cache hits count as calls.

`layer_metrics` turns the spans of a pass of requests into the per-layer
metrics that run.py reports.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from math import comb
from time import perf_counter

# The five modules of the package and the public functions timed in each.
# Every package function that `cli` calls is listed, so `cli.self_s` is the
# CLI's own parsing and rendering.
LAYERS = {
    "exactlin": ("rref", "kernel", "span", "subspace_sum"),
    "liegraded": (
        "build_table",
        "grading_of",
        "bracket_spaces",
        "generated_subalgebra",
        "descending_series",
        "polar",
    ),
    "sonreal": ("wedge_basis", "realize", "spectrum_from_matrix"),
    "canonical": (
        "condition1",
        "theorem2_check",
        "prop3_check",
        "strict_generation_report",
        "parabolic_of",
        "theorem1_report",
        "verify_theorem1",
        "check_matrix",
        "enumerate_canonical",
        "half_integral_spectra",
        "oracle_record",
    ),
    "cli": ("main",),
}

# What a span records besides its times, taken from the call's arguments and
# result: matrix cells eliminated, Jacobi triples validated, whether a kernel
# probe found a magnitude, and the verdict per spectrum.
ATTRS = {
    "exactlin.rref": lambda args, result: args[0].rows * args[0].cols,
    "exactlin.kernel": lambda args, result: result.dim > 0,
    "liegraded.build_table": lambda args, result: comb(result.dim, 3),
    "canonical.theorem2_check": lambda args, result: [
        f"{args[0].n}:{args[0]}",
        result.reason.value,
    ],
}


class Tracer:
    """Spans [name, start, end, parent index, attr] of one process, in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        attr = ATTRS.get(name)
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if attr is not None:
                span[4] = attr(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every listed function that exists, wherever the imported package
        binds it."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "canonical_lie"]
        for layer, names in LAYERS.items():
            home = sys.modules[f"canonical_lie.{layer}"]
            for fname in names:
                fn = getattr(home, fname, None)
                if fn is None:
                    continue
                traced = self.wrap(f"{layer}.{fname}", fn)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, traced)


def layer_metrics(requests: list[tuple[float, dict]]) -> dict[str, float]:
    """Per-layer metrics of a pass: `requests` holds (wall seconds, SPANS.json
    contents) per request.

    `.s` is inclusive time (outermost span of the name only), `.self_s` is time
    minus child spans, and `<module>.self_s` sums self time over a module's
    spans, so the module self times add up to `cli.main.s` and, with
    `trace.own_s` (the tracer's wrapping and span encoding) and
    `trace.outside_main_s` (interpreter start-up, imports, exit), to
    `trace.wall_s`.
    """
    calls: Counter = Counter()
    incl: Counter = Counter()
    self_s: Counter = Counter()
    module_self: Counter = Counter()
    cells = triples = builds = probes = hits = 0
    verdicts: Counter = Counter()
    wall = tracer_s = 0.0
    for req_wall, trace in requests:
        wall += req_wall
        tracer_s += trace["own_s"]
        spans = trace["spans"]
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0

        def ancestor(i: int, name: str) -> int:
            i = spans[i][3]
            while i >= 0 and spans[i][0] != name:
                i = spans[i][3]
            return i

        built = set()
        decided = {}
        for i, (name, t0, t1, _, attr) in enumerate(spans):
            own = t1 - t0 - child[i]
            calls[name] += 1
            self_s[name] += own
            module_self[name.split(".")[0]] += own
            if ancestor(i, name) < 0:
                incl[name] += t1 - t0
            if name == "exactlin.rref":
                cells += attr or 0
            elif name == "liegraded.build_table":
                triples += attr or 0
                built.add(ancestor(i, "sonreal.realize"))
            elif name == "exactlin.kernel" and ancestor(i, "sonreal.spectrum_from_matrix") >= 0:
                probes += 1
                hits += bool(attr)
            elif name == "canonical.theorem2_check" and attr:
                decided[attr[0]] = attr[1]
        builds += len(built - {-1})
        verdicts.update(decided.values())

    realize_calls = calls["sonreal.realize"]
    out = {
        "trace.wall_s": wall,
        "trace.own_s": tracer_s,
        "trace.outside_main_s": wall - tracer_s - incl["cli.main"],
        "cli.main.s": incl["cli.main"],
        "sonreal.realize.calls": realize_calls,
        "sonreal.realize.self_s": self_s["sonreal.realize"],
        "sonreal.realize.hit_ratio": 1 - builds / realize_calls if realize_calls else 0.0,
        "liegraded.build_table.triples": triples,
        "sonreal.spectrum_from_matrix.probes": probes,
        "sonreal.spectrum_from_matrix.hit_ratio": hits / probes if probes else 0.0,
        "exactlin.rref.cells": cells,
        "canonical.theorem2_check.self_s": self_s["canonical.theorem2_check"],
    }
    for name in (
        "liegraded.build_table",
        "liegraded.bracket_spaces",
        "canonical.theorem2_check",
        "exactlin.rref",
        "exactlin.kernel",
    ):
        out[f"{name}.calls"] = calls[name]
    for name in (
        "liegraded.build_table",
        "liegraded.grading_of",
        "liegraded.bracket_spaces",
        "liegraded.descending_series",
        "liegraded.polar",
        "canonical.theorem1_report",
        "sonreal.spectrum_from_matrix",
        "exactlin.rref",
    ):
        out[f"{name}.s"] = incl[name]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = module_self[layer]
    for reason in ("Canonical", "GenerationFails", "NonIntegralAdSpectrum"):
        out[f"canonical.verdict.{reason}"] = verdicts[reason]
    return out


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import canonical_lie.cli  # imports every layer

    tracer = Tracer()
    start = perf_counter()
    tracer.install()
    own = perf_counter() - start
    try:
        return canonical_lie.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        start = perf_counter()
        spans = json.dumps(tracer.spans, separators=(",", ":"))
        own += perf_counter() - start
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.write(f'{{"own_s": {own!r}, "spans": {spans}}}')


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
